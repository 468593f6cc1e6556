"""Command-line frontend: verification, limit sets, skeletons, basis
changes and hybrid degeneration tables.

All reports are single JSON documents on stdout with sorted keys, so a
fixed invocation always produces identical bytes.  Exit codes: 0 yes,
1 malformed input, 2 no, 3 unknown, 4 budget exceeded, 5 operation not
available at an archimedean place.

Every subcommand reads its input from exactly one of ``--input`` and
``--json`` and takes only the options its handler reads, each checked
where it is declared.  A usage error is malformed input (exit 1 with a
JSON error), and ``main`` is the one place that maps refusals to exit
codes.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .places import (
    ExactValue,
    ONE_ABS,
    Place,
    gauss_seminorm,
    hybrid_section_eval,
)
from .moebius import MultiplierUnderflow, disc_shape
from .figures import (
    BudgetExceeded,
    NotInSB,
    conjugacy_classes_upto,
    is_in_SB,
    is_schottky,
    limit_sample,
    sb_window,
    schottky_point,
)
from .skeleton import (ArchimedeanUnsupported, build_tree, glue_skeleton,
                       translation_length)
from .outer import NielsenWord, apply_word
from . import serialize as ser
from .serialize import MalformedInput, dumps

EXIT_YES = 0
EXIT_MALFORMED = 1
EXIT_NO = 2
EXIT_UNKNOWN = 3
EXIT_BUDGET = 4
EXIT_UNSUPPORTED = 5

# Exit code of each answer a handler reports, and of each refusal.
_ANSWERS = {"yes": EXIT_YES, "no": EXIT_NO, "unknown": EXIT_UNKNOWN}
_REFUSALS = {MalformedInput: EXIT_MALFORMED, BudgetExceeded: EXIT_BUDGET,
             ArchimedeanUnsupported: EXIT_UNSUPPORTED,
             MultiplierUnderflow: EXIT_UNSUPPORTED}


def _emit(obj) -> None:
    sys.stdout.write(dumps(obj) + "\n")


def _load_json(args):
    if args.input is None:
        text, origin = args.json, "--json"
    else:
        try:
            with open(args.input) as f:
                text = f.read()
        except OSError as e:
            raise MalformedInput(f"cannot read {args.input}: {e}")
        origin = args.input
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise MalformedInput(f"{origin}: invalid JSON at line {e.lineno} "
                             f"column {e.colno}: {e.msg}")


def _load_point(args):
    return ser.point_from_json(_load_json(args))


def _violation_json(v) -> dict:
    i, (j, sj), (k, sk), val = v
    return {"i": i, "j": j, "sign_j": sj, "k": k, "sign_k": sk,
            "value": ser.absvalue_to_json(val)}


def _figure_json(fig) -> dict:
    return {
        "witness": fig.witness,
        "discs": [{"generator": i, "sign": s,
                   "disc": ser.disc_to_json(fig.place, d)}
                  for i, s, d in fig.all_discs()],
    }


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    pt = _load_point(args)
    sb = is_in_SB(pt)
    report = {"command": "verify", "point": ser.point_to_json(pt),
              "is_in_SB": sb.status}
    status, figure = sb.status, sb.figure
    if status == "no":
        report["violated"] = _violation_json(sb.violated)
    elif status == "unknown":
        member = is_schottky(pt, nielsen_depth=args.nielsen_depth)
        status = report["is_schottky"] = member.status
        figure = member.figure
        if status == "yes":
            report["basis_change"] = str(member.tau)
    if status == "yes":
        report["certificate"] = _figure_json(figure)
    _emit(report)
    return _ANSWERS[status]


# ---------------------------------------------------------------------------
# limitset
# ---------------------------------------------------------------------------


def _svg_limit_set(samp) -> str:
    discs = []
    for level in range(1, samp.depth + 1):
        for _, d in samp.levels[level]:
            kind, c, r = disc_shape(samp.figure.place, d)
            if kind != "std":
                continue  # a disc through infinity has no drawable circle
            discs.append((level, c.to_complex(), r.to_float()))
    xs = [z.real for _, z, r in discs for z in (z - r, z + r)]
    ys = [z.imag for _, z, r in discs for z in (z - r, z + r)]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    pad = 0.05 * max(x1 - x0, y1 - y0, 1e-9)
    box = (x0 - pad, y0 - pad, (x1 - x0) + 2 * pad, (y1 - y0) + 2 * pad)
    out = ['<svg xmlns="http://www.w3.org/2000/svg" width="800" height="800" '
           'viewBox="%s %s %s %s">' % tuple(format(v, ".8f") for v in box)]
    for level, z, r in discs:
        hue = (53 * level) % 360
        if level == 1:
            style = (f'fill="none" stroke="hsl({hue},70%,45%)" '
                     f'stroke-width="{format(box[2] / 400, ".8f")}"')
        else:
            style = f'fill="hsl({hue},70%,50%)" fill-opacity="0.6"'
        out.append('<circle cx="%s" cy="%s" r="%s" %s/>'
                   % (format(z.real, ".8f"), format(z.imag, ".8f"),
                      format(r, ".8f"), style))
    out.append("</svg>")
    return "\n".join(out)


def cmd_limitset(args) -> int:
    pt = _load_point(args)
    sb = is_in_SB(pt)
    if sb.status != "yes":
        _emit({"command": "limitset", "is_in_SB": sb.status})
        return _ANSWERS[sb.status]
    samp = limit_sample(sb.figure, args.depth, budget=args.budget)
    if pt.place.is_archimedean:
        svg = _svg_limit_set(samp)
        if args.out:
            try:
                with open(args.out, "w") as f:
                    f.write(svg)
            except OSError as e:
                raise MalformedInput(f"cannot write {args.out}: {e}")
            _emit({"command": "limitset", "depth": args.depth,
                   "count": len(samp.discs), "svg": args.out})
        else:
            sys.stdout.write(svg + "\n")
        return EXIT_YES
    report = {
        "command": "limitset", "depth": args.depth,
        "count": len(samp.discs),
        "decay": {"R": ser.absvalue_to_json(samp.decay_R, pt.place),
                  "c": ser.absvalue_to_json(samp.decay_c, pt.place)},
        "discs": [{"word": list(w.letters),
                   "disc": ser.disc_to_json(pt.place, d)}
                  for w, d in samp.discs],
    }
    _emit(report)
    return EXIT_YES


# ---------------------------------------------------------------------------
# skeleton
# ---------------------------------------------------------------------------


def cmd_skeleton(args) -> int:
    pt = _load_point(args)
    sb = is_in_SB(pt)
    if sb.status != "yes":
        _emit({"command": "skeleton", "is_in_SB": sb.status})
        return _ANSWERS[sb.status]
    graph = glue_skeleton(build_tree(sb.figure))
    lengths = [
        {"word": list(w.letters),
         "len": ser.metric_length_to_json(translation_length(pt, w))}
        for w in conjugacy_classes_upto(pt.g, args.depth)
    ]
    _emit({"command": "skeleton",
           "graph": ser.metric_graph_to_json(graph),
           "translation_lengths": lengths})
    return EXIT_YES


# ---------------------------------------------------------------------------
# act
# ---------------------------------------------------------------------------


def cmd_act(args) -> int:
    moved = apply_word(args.word, _load_point(args), prec=args.prec)
    _emit({"command": "act", "word": str(args.word),
           "point": ser.point_to_json(moved)})
    return EXIT_YES


# ---------------------------------------------------------------------------
# hybrid
# ---------------------------------------------------------------------------

_HYBRID_POLYS = [("T", [0, 1]), ("T+1", [1, 1]), ("3T^2+5", [5, 0, 3])]


def _trivial_fiber(rs: list[Fraction]) -> dict:
    """The good-basis windows on the trivially valued fiber.

    The fiber point has |Y_i| = r_i, and in generator i's chart every
    other fixed point has trivial absolute value 1, so the window of
    generator i is (r_i, 1) and decides all (2g - 2)^2 of its
    inequalities at once.
    """
    n = 2 * len(rs) - 2
    try:
        for i, r in enumerate(rs, start=1):
            sb_window(i, ExactValue.from_rational(r),
                      [(k, ONE_ABS) for k in range(n)])
    except NotInSB as e:
        return {"certified": False, "failed_at": e.witness[0]}
    return {"certified": True, "inequalities_checked": len(rs) * n * n}


def cmd_hybrid(args) -> int:
    data = _load_json(args)
    rs = [ser.rat_from_json(x, "r") for x in ser._get(data, "r", "input")]
    g = len(rs)
    if g == 0 or any(not 0 < r < 1 for r in rs):
        raise MalformedInput("r: need radii strictly between 0 and 1")
    fixed = [ser.rat_from_json(x, "fixed") for x in data.get("fixed", [])]
    free = max(2 * g - 3, 0)
    if len(fixed) != free:
        raise MalformedInput(f"fixed: expected {free} values for g={g}")

    r_json = [ser.rat_to_json(r) for r in rs]
    rows = []
    for eps in args.eps_grid:
        betas = [Fraction(float(r) ** (1 / float(eps))) for r in rs]
        try:
            apt = schottky_point(Place.archimedean(eps), betas, fixed)
            status = is_in_SB(apt).status
        except ValueError as e:
            status = f"error: {e}"
        sem = {name: {
            "hybrid": format(hybrid_section_eval(coeffs, rs[0], eps), ".17g"),
            "trivial": format(
                gauss_seminorm(Place.trivial_q(), coeffs, rs[0]).to_float(),
                ".17g")}
            for name, coeffs in _HYBRID_POLYS}
        rows.append({"eps": ser.rat_to_json(eps), "abs_Y": r_json,
                     "arch_status": status, "seminorms": sem})

    _emit({"command": "hybrid", "r": r_json,
           "trivial_fiber": _trivial_fiber(rs), "rows": rows})
    return EXIT_YES


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as malformed input rather than exiting 2."""

    def error(self, message):
        raise MalformedInput(f"{self.prog}: {message}")


def _checked(parse, need: str, ok=lambda value: True):
    """An argparse type: parse the text and require ``ok`` of the value."""
    def check(text: str):
        try:
            value = parse(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"need {need}, got {text!r}")
    return check


def _int_at_least(lo: int):
    return _checked(int, f"an integer >= {lo}", lambda n: n >= lo)


def _parser() -> argparse.ArgumentParser:
    top = _Parser(prog="schottky",
                  description="Exact Schottky groups over archimedean and "
                              "non-archimedean places")
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, func):
        p = sub.add_parser(name)
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--input", help="path to an input JSON file")
        source.add_argument("--json", help="inline input JSON")
        p.set_defaults(func=func)
        return p

    command("verify", cmd_verify).add_argument(
        "--nielsen-depth", type=_int_at_least(0), default=2)
    limitset = command("limitset", cmd_limitset)
    limitset.add_argument("--depth", type=_int_at_least(1), default=3)
    limitset.add_argument("--budget", type=_int_at_least(1), default=10 ** 6)
    limitset.add_argument("--out", help="output path (SVG)")
    command("skeleton", cmd_skeleton).add_argument(
        "--depth", type=_int_at_least(0), default=3)
    act = command("act", cmd_act)
    act.add_argument("--word", default="",
                     type=_checked(NielsenWord.parse, "letters s1..s4"),
                     help="comma-separated letters, e.g. s3,s2 "
                          "(trailing ' for inverses)")
    act.add_argument("--prec", type=_int_at_least(1), default=64)
    command("hybrid", cmd_hybrid).add_argument(
        "--eps-grid", default="1,1/2,1/10", type=_checked(
            lambda text: [ser.rat_from_json(t) for t in text.split(",")],
            "comma-separated eps in (0, 1]",
            lambda grid: all(0 < eps <= 1 for eps in grid)))
    return top


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except tuple(_REFUSALS) as e:
        _emit({"error": str(e)})
        return next(code for cls, code in _REFUSALS.items()
                    if isinstance(e, cls))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
