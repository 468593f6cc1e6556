"""The four workloads: inputs per operation, the operation, its answer check.

Each workload cycles through a fixed list of strata (g, p, side of the
good-basis boundary, ...); operation k uses stratum k mod len(strata) and
its own seeded input.  A run ends only at the end of a cycle, so every run
of a workload has the same mix of strata whatever its seed.

The library is always called through its module attributes
(``figures.is_in_SB``, not a name bound here), so the traced run's
wrappers see these calls too.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

from inputs import (
    PointSpec,
    arch_point,
    expected_padic_status,
    padic_point,
    rng_for,
    sb_boundaries,
    vp,
)


class WrongAnswer(Exception):
    """The program answered, and the answer fails its check."""


class ErrorReport(Exception):
    """The program reported an error instead of an answer."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise WrongAnswer(what)


def level_size(g: int, n: int) -> int:
    return 2 * g * (2 * g - 1) ** (n - 1)


def _bits(q: Fraction) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


class Props:
    """Input-property record of one run: what the inputs were like."""

    def __init__(self):
        self.g = Counter()
        self.p = Counter()
        self.status = Counter()
        self.discs = 0
        self.centre_bits = 0
        self.ops = 0

    def add_point(self, spec: PointSpec) -> None:
        self.g[spec.g] += 1
        self.p["arch" if spec.kind == "arch" else spec.p] += 1

    def add_centres(self, discs) -> None:
        for d in discs:
            c = d.center
            self.centre_bits = max(self.centre_bits, _bits(c.re), _bits(c.im))

    def summary(self) -> dict:
        n = max(self.ops, 1)
        total = sum(self.status.values()) or 1
        return {
            "g_mix": {str(k): v for k, v in sorted(self.g.items())},
            "p_mix": {str(k): v for k, v in sorted(self.p.items(), key=str)},
            "status_share": {s: round(self.status[s] / total, 4)
                             for s in ("yes", "no", "unknown")},
            "discs_per_op": round(self.discs / n, 3),
            "max_centre_bits": self.centre_bits,
        }


def to_point(spec: PointSpec):
    """The library point for a generated spec (input preparation)."""
    from schottky import Place
    from schottky.exactnum import GaussianRational
    from schottky.figures import schottky_point

    place = Place.padic(spec.p) if spec.kind == "padic" else Place.archimedean()
    fixed = [GaussianRational(*x) if isinstance(x, tuple) else x
             for x in spec.fixed]
    return schottky_point(place, list(spec.betas), fixed)


def _check_padic_sb(spec: PointSpec, sb) -> None:
    """Status as constructed; on "no" the named inequality really fails."""
    from schottky.moebius import cross_ratio
    from schottky.places import ONE_ABS, abs_value

    expect(sb.status == spec.expect,
           f"is_in_SB said {sb.status}, expected {spec.expect}")
    if sb.status != "no":
        return
    i, (j, sj), (k, sk), _val = sb.violated
    pt = to_point(spec)
    pts = {(a, s): x for a, s, x in pt.fixed_points()}
    t = pt.triples[i - 1]
    cr = cross_ratio(pts[(j, sj)], pts[(k, sk)], t.alpha, t.alpha_prime)
    val = abs_value(pt.place, t.beta) * abs_value(pt.place, cr)
    expect(not val < ONE_ABS, "reported violated inequality holds")


def _check_limit_sample(samp, g: int, depth: int) -> None:
    from schottky.places import ONE_ABS

    for n in range(1, depth + 1):
        expect(len(samp.levels[n]) == level_size(g, n),
               f"level {n} holds {len(samp.levels[n])} discs")
    expect(samp.decay_c < ONE_ABS, "decay_c is not below 1")


def _check_ford_discs(fig) -> None:
    """Pairwise disjointness of the figure's discs, in plain floats."""
    discs = [d for _, _, d in fig.all_discs()]
    for n, d1 in enumerate(discs):
        for d2 in discs[n + 1:]:
            if d1.chart != "std" or d2.chart != "std":
                continue
            gap = (abs(d1.center.to_complex() - d2.center.to_complex())
                   - d1.radius.to_float() - d2.radius.to_float())
            expect(gap > 0, "certificate discs overlap")


class Workload:
    """One workload: its strata, inputs, operation and checks."""

    name = ""
    strata: list = []
    rate_hint = 10.0  # expected ops/s, sizes the input batch made in set-up

    def spec(self, seed: int, k: int):
        raise NotImplementedError

    def prepare(self, spec):
        """The argument the operation gets: by default the library point."""
        return to_point(spec)

    def run(self, arg):
        raise NotImplementedError

    def check(self, spec, result, props: Props) -> None:
        raise NotImplementedError

    def warmup_specs(self, seed: int) -> list:
        return [self.spec(seed, k) for k in range(2)]


class PadicSweep(Workload):
    """The exact decision path: good-basis test, skeleton or Nielsen search."""

    name = "padic-sweep"
    # Each (g, p, side) once, plus a second g = 2 "yes" per p.  Operation
    # times cluster by g and side; with the extra g = 2 weight the median
    # falls inside the g = 3 "yes" cluster instead of on the gap between
    # clusters, where it would jump from run to run.
    strata = [(g, p, side) for g in (2, 3, 4) for p in (2, 3, 5)
              for side in ("yes", "no")] + [(2, p, "yes") for p in (2, 3, 5)]
    rate_hint = 8.0

    def spec(self, seed, k):
        g, p, side = self.strata[k % len(self.strata)]
        return padic_point(rng_for(self.name, seed, k), g, p, side)

    def run(self, pt):
        from schottky import figures, skeleton

        sb = figures.is_in_SB(pt)
        if sb.status == "yes":
            graph = skeleton.glue_skeleton(skeleton.build_tree(sb.figure))
            lengths = [(w, skeleton.translation_length(pt, w))
                       for w in figures.conjugacy_classes_upto(pt.g, 2)]
            return sb, graph, lengths, None
        return sb, None, None, figures.is_schottky(pt, nielsen_depth=2)

    def check(self, spec, result, props):
        sb, graph, lengths, member = result
        props.add_point(spec)
        props.status[sb.status] += 1
        _check_padic_sb(spec, sb)
        if sb.status == "yes":
            props.discs += 2 * spec.g
            props.add_centres(d for _, _, d in sb.figure.all_discs())
            expect(graph.betti == spec.g, f"betti {graph.betti} != g")
            single = {w.letters: l for w, l in lengths if len(w) == 1}
            for i, beta in enumerate(spec.betas, start=1):
                length = single[(i,)]
                # criterion 6: length = v_p(beta_i) in units eps*ln p
                expect(length.q == vp(beta, spec.p) and length.eps == 1,
                       f"translation length of generator {i}")
            expect(all(l.q > 0 for _, l in lengths), "zero translation length")
            return
        expect(member.status in ("yes", "unknown"),
               f"is_schottky said {member.status}")
        if member.status == "yes":
            expect(member.figure is not None, "is_schottky yes without figure")


class LimitsetDeep(Workload):
    """Limit-set enumeration on certified p-adic points, mixed heights."""

    name = "limitset-deep"
    depth = 4
    strata = [(p, h) for p in (2, 3, 5) for h in ("small", "large")]
    rate_hint = 12.0

    def spec(self, seed, k):
        p, height = self.strata[k % len(self.strata)]
        return padic_point(rng_for(self.name, seed, k), 2, p, "yes", height)

    def run(self, pt):
        from schottky import figures

        sb = figures.is_in_SB(pt)
        return sb, figures.limit_sample(sb.figure, self.depth)

    def check(self, spec, result, props):
        sb, samp = result
        props.add_point(spec)
        props.status[sb.status] += 1
        expect(sb.status == "yes", f"is_in_SB said {sb.status}")
        _check_limit_sample(samp, spec.g, self.depth)
        for n in range(1, self.depth + 1):
            props.discs += len(samp.levels[n])
            props.add_centres(d for _, d in samp.levels[n])


class ArchSearch(Workload):
    """The float / ApproxReal branch: Ford search, then limit set or search.

    Two thirds of the strata use multipliers 1/k with k in [100, 400],
    which the Ford search certifies; one third use k in [4, 5], a crowded
    point that stays "unknown".  Fixing the share keeps the mix of cheap
    and expensive operations the same in every run.
    """

    name = "arch-search"
    depth = 3
    strata = [(g, gauss, regime) for g in (2, 3) for gauss in (False, True)
              for regime in ("sparse", "sparse", "crowded")]
    rate_hint = 9.0

    def spec(self, seed, k):
        g, gauss, regime = self.strata[k % len(self.strata)]
        lo, hi = (100, 400) if regime == "sparse" else (4, 5)
        return arch_point(rng_for(self.name, seed, k), g, gauss, lo, hi)

    def run(self, pt):
        from schottky import figures

        sb = figures.is_in_SB(pt)
        if sb.status == "yes":
            return sb, figures.limit_sample(sb.figure, self.depth), None
        return sb, None, figures.is_schottky(pt, nielsen_depth=2)

    def check(self, spec, result, props):
        sb, samp, member = result
        props.add_point(spec)
        props.status[sb.status] += 1
        expect(sb.status in ("yes", "unknown"), f"is_in_SB said {sb.status}")
        if sb.status == "yes":
            _check_ford_discs(sb.figure)
            _check_limit_sample(samp, spec.g, self.depth)
            for n in range(1, self.depth + 1):
                props.discs += len(samp.levels[n])
                props.add_centres(d for _, d in samp.levels[n])
            return
        expect(member.status in ("yes", "unknown"),
               f"is_schottky said {member.status}")
        if member.status == "yes":
            expect(member.figure is not None, "is_schottky yes without figure")


def cli_env(root: Path) -> dict:
    """Environment for ``python -m schottky.cli`` run from a source tree."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


CLI_COMMANDS = ["verify-padic-yes", "verify-padic-no", "verify-arch-yes",
                "verify-arch-unknown", "limitset-padic", "limitset-arch-svg",
                "skeleton", "act", "hybrid"]
HYBRID_PAYLOAD = '{"r":["1/2","1/3"],"fixed":["-2"]}'
HYBRID_GRID = "1,1/2,1/1000"


class CliSession(Workload):
    """One ``python -m schottky.cli`` subprocess per operation.

    With ``in_process`` set (the traced run), ``schottky.cli.main`` is
    called in this process with the same argument lists instead.
    """

    name = "cli-session"
    # Each command twice per cycle: variant 0/1 is g = 2/3 for p-adic
    # points and real/Gaussian fixed points for archimedean ones (g = 2).
    # p steps through 2, 3, 5 from one cycle to the next.
    strata = [(cmd, v) for v in (0, 1) for cmd in CLI_COMMANDS]
    rate_hint = 4.0
    limit_depth = 3

    def __init__(self, root: Path, tmpdir: Path, in_process: bool = False):
        self.root = root
        self.tmpdir = tmpdir
        self.in_process = in_process
        self.env = cli_env(root)

    def warmup_specs(self, seed):
        return [self.spec(seed, k) for k in range(len(CLI_COMMANDS))]

    def prepare(self, spec):
        return spec

    def spec(self, seed, k):
        kind, variant = self.strata[k % len(self.strata)]
        rng = rng_for(self.name, seed, k)
        g = 2 + variant
        p = (2, 3, 5)[k // len(self.strata) % 3]
        if kind == "verify-padic-no":
            pt = padic_point(rng, g, p, "no")
        elif kind in ("verify-arch-yes", "limitset-arch-svg"):
            pt = arch_point(rng, 2, bool(variant), 100, 400)
        elif kind == "verify-arch-unknown":
            pt = arch_point(rng, 2, bool(variant), 4, 5)
        elif kind == "hybrid":
            pt = None
        else:
            pt = padic_point(rng, g, p, "yes")
        text = HYBRID_PAYLOAD if pt is None else json.dumps(pt.to_json())
        cmd = kind.split("-")[0]
        argv = [cmd, "--json", text]
        if kind.startswith("limitset"):
            argv += ["--depth", str(self.limit_depth)]
        if kind == "limitset-arch-svg":
            argv += ["--out", str(self.tmpdir / f"limit-{k % 2}.svg")]
        if kind == "skeleton":
            argv += ["--depth", "3"]
        if kind == "act":
            argv += ["--word", "s3,s4'"]
        if kind == "hybrid":
            argv += ["--eps-grid", HYBRID_GRID]
        return kind, pt, argv

    def run(self, spec):
        _kind, _pt, argv = spec
        if self.in_process:
            import contextlib
            import io
            from schottky import cli

            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "schottky.cli"] + argv, cwd=self.root,
            env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=120)
        if "Traceback" in proc.stderr:
            raise ErrorReport(proc.stderr.strip().splitlines()[-1])
        return proc.returncode, proc.stdout

    def check(self, spec, result, props):
        kind, pt, argv = spec
        code, out = result
        if pt is not None:
            props.add_point(pt)
        try:
            report = json.loads(out)
        except ValueError:
            raise WrongAnswer(f"{kind}: output is not JSON") from None
        if "error" in report:
            raise ErrorReport(f"{kind}: {report['error']}")
        if kind.startswith("verify"):
            self._check_verify(kind, pt, code, report, props)
        elif kind.startswith("limitset"):
            self._check_limitset(kind, pt, code, report, props)
        elif kind == "skeleton":
            expect(code == 0, f"skeleton exit {code}")
            expect(report["graph"]["betti"] == pt.g, "skeleton betti != g")
            single = {tuple(e["word"]): e["len"]
                      for e in report["translation_lengths"]}
            for i, beta in enumerate(pt.betas, start=1):
                expect(Fraction(single[(i,)]["q"]) == vp(beta, pt.p),
                       f"skeleton length of generator {i}")
            props.status["yes"] += 1
        elif kind == "act":
            expect(code == 0, f"act exit {code}")
            expect(report["point"]["g"] == pt.g, "act changed the rank")
        else:
            expect(code == 0, f"hybrid exit {code}")
            rows = report["rows"]
            expect(len(rows) == len(HYBRID_GRID.split(",")), "hybrid rows")
            bad = [r["arch_status"] for r in rows
                   if r["arch_status"].startswith("error:")]
            if bad:
                raise ErrorReport(f"hybrid: {bad[0]}")

    def _check_verify(self, kind, pt, code, report, props):
        status = report.get("is_schottky", report["is_in_SB"])
        props.status[status] += 1
        if pt.kind == "padic":
            want = expected_padic_status(pt)
            expect(report["is_in_SB"] == want,
                   f"{kind}: is_in_SB {report['is_in_SB']}, expected {want}")
            expect(code == (0 if want == "yes" else 2), f"{kind}: exit {code}")
            if want == "yes":
                expect(len(report["certificate"]["discs"]) == 2 * pt.g,
                       f"{kind}: certificate size")
            else:
                v = report["violated"]
                i = v["i"]
                expect(vp(pt.betas[i - 1], pt.p) <= sb_boundaries(pt)[i - 1],
                       f"{kind}: named inequality {i} holds")
            return
        # Archimedean verify answers yes (0) or unknown (3), never no.
        expect(status in ("yes", "unknown"), f"{kind}: status {status}")
        expect(code == (0 if status == "yes" else 3), f"{kind}: exit {code}")

    def _check_limitset(self, kind, pt, code, report, props):
        if pt.kind == "arch" and code == 3:
            expect(report.get("is_in_SB") == "unknown", f"{kind}: exit 3")
            props.status["unknown"] += 1
            return
        expect(code == 0, f"{kind}: exit {code}")
        props.status["yes"] += 1
        count = level_size(pt.g, self.limit_depth)
        expect(report["count"] == count, f"{kind}: count {report['count']}")
        props.discs += count
        if pt.kind == "padic":
            expect(len(report["discs"]) == count, f"{kind}: disc list")
            for d in report["discs"]:
                c = d["disc"]["center"]
                parts = [c] if isinstance(c, str) else [c["re"], c["im"]]
                props.centre_bits = max(props.centre_bits,
                                        *(_bits(Fraction(x)) for x in parts))
        else:
            svg = Path(report["svg"]).read_text()
            expect(svg.count("<circle") >= 1 and svg.rstrip().endswith("</svg>"),
                   f"{kind}: SVG file")


def make(name: str, root: Path, tmpdir: Path, in_process: bool = False):
    if name == "cli-session":
        return CliSession(root, tmpdir, in_process)
    return {"padic-sweep": PadicSweep, "limitset-deep": LimitsetDeep,
            "arch-search": ArchSearch}[name]()


NAMES = ["padic-sweep", "limitset-deep", "arch-search", "cli-session"]
