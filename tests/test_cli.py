import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import schottky
from schottky.cli import (
    EXIT_BUDGET,
    EXIT_MALFORMED,
    EXIT_NO,
    EXIT_UNKNOWN,
    EXIT_UNSUPPORTED,
    EXIT_YES,
    _parser,
    main,
)

DUMBBELL = json.dumps({
    "place": {"kind": "padic", "p": 2, "eps": "1"},
    "g": 2,
    "koebe": [{"beta": "4"}, {"beta": "4", "alpha_prime": "-1"}],
})

REJECTED = json.dumps({
    "place": {"kind": "padic", "p": 2},
    "g": 2,
    "koebe": [{"beta": "2"}, {"beta": "2", "alpha_prime": "2"}],
})

ARCH_G2 = json.dumps({
    "place": {"kind": "arch"},
    "g": 2,
    "koebe": [{"beta": "1/100"}, {"beta": "1/100", "alpha_prime": "-1"}],
})

ARCH_CROWDED = json.dumps({
    "place": {"kind": "arch"},
    "g": 2,
    "koebe": [{"beta": "99/100"},
              {"beta": "99/100", "alpha_prime": "1001/1000"}],
})


# The crowded point of the CI step: no certificate either way.
ARCH_CI_CROWDED = json.dumps({
    "place": {"kind": "arch"},
    "g": 2,
    "koebe": [{"beta": "1/4"}, {"beta": "1/5", "alpha_prime": "5/2"}],
})


# g = 3, archimedean: certified by Ford discs, but from depth 5 on the
# float discs no longer certify that B+(w) lies in its prefix's disc.
ARCH_G3_FLOAT_LIMIT = json.dumps({
    "place": {"kind": "archimedean", "eps": "1"},
    "g": 3,
    "koebe": [{"beta": "1/202"}, {"beta": "1/319", "alpha_prime": "3/4"},
              {"beta": "1/335", "alpha": "-7/4", "alpha_prime": "-9/4"}],
})


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.lstrip().startswith("{") else out


def test_verify_yes(capsys):
    code, rep = run(capsys, "verify", "--json", DUMBBELL)
    assert code == EXIT_YES
    assert rep["is_in_SB"] == "yes"
    discs = rep["certificate"]["discs"]
    assert len(discs) == 4
    assert rep["point"]["koebe"][0]["beta"] == "4"


def test_verify_no_names_the_witness(capsys):
    code, rep = run(capsys, "verify", "--json", REJECTED)
    assert code == EXIT_NO
    assert rep["is_in_SB"] == "no"
    assert rep["violated"]["i"] == 1


def test_verify_unknown_arch(capsys):
    code, rep = run(capsys, "verify", "--json", ARCH_CROWDED)
    assert code == EXIT_UNKNOWN
    assert rep["is_in_SB"] == "unknown"
    assert rep["is_schottky"] == "unknown"


def test_verify_tests_the_root_once(capsys, monkeypatch):
    # The Nielsen search takes the root's good-basis result from verify,
    # so an archimedean "unknown" runs the root's Ford search once.
    from schottky import cli, figures, serialize
    root = serialize.point_from_json(json.loads(ARCH_CI_CROWDED)).canonical_key()
    tested = []

    def counting(pt, real=figures.is_in_SB):
        tested.append(pt.canonical_key())
        return real(pt)

    monkeypatch.setattr(cli, "is_in_SB", counting)
    monkeypatch.setattr(figures, "is_in_SB", counting)
    code, rep = run(capsys, "verify", "--json", ARCH_CI_CROWDED)
    assert code == EXIT_UNKNOWN and rep["is_schottky"] == "unknown"
    assert tested.count(root) == 1 and len(tested) > 1


def test_malformed_inputs(capsys):
    code, rep = run(capsys, "verify", "--json", "{not json")
    assert code == EXIT_MALFORMED and "line 1" in rep["error"]
    code, rep = run(capsys, "verify", "--json", '{"place": {"kind": "padic"}}')
    assert code == EXIT_MALFORMED and "missing field" in rep["error"]
    code, rep = run(capsys, "verify", "--input", "/no/such/file.json")
    assert code == EXIT_MALFORMED


def test_trivial_fp_is_not_a_place_kind(capsys):
    doc = DUMBBELL.replace('"kind": "padic", "p": 2, "eps": "1"',
                           '"kind": "trivial_fp", "p": 3')
    code = main(["verify", "--json", doc])
    out, err = capsys.readouterr()
    assert code == EXIT_MALFORMED
    assert set(json.loads(out)) == {"error"} and err == ""


HOSTILE_NUMBERS = {
    # Fraction's parser spent 12.9 s on this exponent.
    "huge-exponent": '"1e-10000000"',
    # Computed an answer, then failed to print a 9544-digit beta.
    "big-float-beta": '"3e20000"',
    # json.loads itself refuses integers past 4300 digits.
    "long-int-literal": "1" + "0" * 4999,
    "too-many-digits": '"1' + "0" * 1000 + '"',
}


@pytest.mark.parametrize("case", sorted(HOSTILE_NUMBERS))
def test_hostile_rationals_exit_1_quickly(capsys, case):
    doc = DUMBBELL.replace('{"beta": "4"}',
                           '{"beta": %s}' % HOSTILE_NUMBERS[case])
    start = time.perf_counter()
    code = main(["verify", "--json", doc])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert code == EXIT_MALFORMED
    assert set(json.loads(out)) == {"error"} and err == ""
    assert elapsed < 0.5


@pytest.mark.parametrize("p_text", ["2.5", "1e400", '"2"', "true"])
def test_prime_must_be_a_json_integer(capsys, p_text):
    # 2.5 used to be read as 2, and 1e400 ended in an OverflowError.
    doc = DUMBBELL.replace('"p": 2', '"p": ' + p_text)
    code, rep = run(capsys, "verify", "--json", doc)
    assert code == EXIT_MALFORMED
    assert "p must be a JSON integer" in rep["error"]


def test_limitset_padic(capsys):
    code, rep = run(capsys, "limitset", "--json", DUMBBELL, "--depth", "3")
    assert code == EXIT_YES
    assert rep["count"] == 36
    assert rep["decay"] == {"R": {"kind": "exact_log", "q": "1", "p": 2,
                                  "eps": "1"},
                            "c": {"kind": "exact_log", "q": "2", "p": 2,
                                  "eps": "1"}}
    assert len(rep["discs"]) == 36


def test_limitset_budget(capsys):
    code, rep = run(capsys, "limitset", "--json", DUMBBELL,
                    "--depth", "9", "--budget", "100")
    assert code == EXIT_BUDGET
    assert "budget" in rep["error"]


def test_limitset_svg(tmp_path, capsys):
    out = tmp_path / "l.svg"
    code, rep = run(capsys, "limitset", "--json", ARCH_G2,
                    "--depth", "2", "--out", str(out))
    assert code == EXIT_YES
    assert rep["count"] == 12
    svg = out.read_text()
    assert svg.startswith("<svg") and svg.count("<circle") == 16


def test_limitset_uncertified_float_nesting_is_unknown(tmp_path, capsys):
    # Used to end in a ValueError traceback: a disc radius that was not positive.
    out = tmp_path / "l.svg"
    argv = ["limitset", "--json", ARCH_G3_FLOAT_LIMIT, "--out", str(out)]
    code, rep = run(capsys, *argv, "--depth", "4")
    assert code == EXIT_YES and rep["count"] == 6 * 5 ** 3
    out.unlink()
    code, rep = run(capsys, *argv, "--depth", "5")
    assert code == EXIT_UNKNOWN
    assert rep == {"command": "limitset", "depth": 5, "is_in_SB": "yes",
                   "limit_set": "unknown", "word": [3, 2, 3, 2, -3],
                   "reason": "word disc not nested inside its prefix at "
                             "(3, 2, 3, 2, -3)"}
    assert not out.exists()


def test_limitset_svg_unwritable(tmp_path, capsys):
    # Used to end in a FileNotFoundError traceback.
    out = tmp_path / "missing" / "l.svg"
    code, rep = run(capsys, "limitset", "--json", ARCH_G2, "--out", str(out))
    assert code == EXIT_MALFORMED and "cannot write" in rep["error"]


def test_skeleton_dumbbell(capsys):
    code, rep = run(capsys, "skeleton", "--json", DUMBBELL, "--depth", "2")
    assert code == EXIT_YES
    g = rep["graph"]
    assert g["betti"] == 2
    assert sorted(e["len"]["q"] for e in g["edges"]) == ["1", "2", "2"]
    by_word = {tuple(e["word"]): e["len"]["q"]
               for e in rep["translation_lengths"]}
    assert by_word[(1,)] == "2" and by_word[(1, 2)] == "6"


@pytest.mark.parametrize("cmd", ["limitset", "skeleton"])
def test_limitset_and_skeleton_stop_at_a_no(capsys, cmd):
    code, rep = run(capsys, cmd, "--json", REJECTED)
    assert code == EXIT_NO
    assert rep == {"command": cmd, "is_in_SB": "no"}


def test_limitset_stops_at_an_unknown(capsys):
    code, rep = run(capsys, "limitset", "--json", ARCH_CI_CROWDED)
    assert code == EXIT_UNKNOWN
    assert rep == {"command": "limitset", "is_in_SB": "unknown"}


def test_skeleton_arch_unsupported(capsys):
    code, rep = run(capsys, "skeleton", "--json", ARCH_G2)
    assert code == EXIT_UNSUPPORTED
    assert "non-archimedean" in rep["error"]


def test_act(capsys):
    code, rep = run(capsys, "act", "--json", DUMBBELL, "--word", "")
    assert code == EXIT_YES
    assert rep["point"] == json.loads(DUMBBELL) | {"place": rep["point"]["place"]}
    code, rep = run(capsys, "act", "--json", DUMBBELL, "--word", "s2,s2")
    assert rep["point"]["koebe"][1]["alpha_prime"] == "-1"
    code, rep = run(capsys, "act", "--json", DUMBBELL, "--word", "bogus")
    assert code == EXIT_MALFORMED


def test_act_keeps_the_approximate_flag(capsys):
    # s4 reads the approximate second triple, so the triple it computes
    # is approximate even though its product matrix splits over Q.
    point = json.dumps({
        "place": {"kind": "padic", "p": 3, "eps": "1"}, "g": 2,
        "koebe": [{"beta": "3"},
                  {"beta": "3", "alpha_prime": "-20", "approximate": True}]})
    code, rep = run(capsys, "act", "--json", point, "--word", "s4")
    assert code == EXIT_YES
    assert rep["point"]["koebe"][1] == {
        "alpha_prime": "-3/5", "approximate": True, "beta": "81/49"}
    assert "approximate" not in rep["point"]["koebe"][0]


def test_act_on_a_non_loxodromic_product_answers_no(capsys):
    # On the rejected point s4' needs the fixed points of gamma_1 gamma_2,
    # which is not loxodromic: the group is not Schottky.
    code, rep = run(capsys, "act", "--json", REJECTED, "--word", "s4'")
    assert code == EXIT_NO
    assert list(rep) == ["error"] and "not loxodromic" in rep["error"]


def test_hybrid(capsys):
    payload = json.dumps({"r": ["1/2", "1/3"], "fixed": ["-2"]})
    code, rep = run(capsys, "hybrid", "--json", payload,
                    "--eps-grid", "1,1/10")
    assert code == EXIT_YES
    assert rep["trivial_fiber"]["certified"] is True
    assert rep["trivial_fiber"]["inequalities_checked"] > 0
    assert [row["eps"] for row in rep["rows"]] == ["1", "1/10"]
    for row in rep["rows"]:
        assert row["abs_Y"] == ["1/2", "1/3"]


def test_hybrid_factorizes_nothing(capsys, monkeypatch):
    # The trivial fiber compares Fractions; a large prime in r used to
    # hang in trial division.
    def refuse(n):
        raise AssertionError(f"factorize({n}) called")

    # Only exactnum defines factorize: no other module binds it.
    assert [name for name, mod in sys.modules.items()
            if name.startswith("schottky.") and hasattr(mod, "factorize")
            ] == ["schottky.exactnum"]
    monkeypatch.setattr(schottky.exactnum, "factorize", refuse)
    code, rep = run(capsys, "hybrid", "--json",
                    json.dumps({"r": ["1/10000000000000061"]}))
    assert code == EXIT_YES
    assert rep["trivial_fiber"] == {"certified": True,
                                    "inequalities_checked": 0}


def test_hybrid_malformed(capsys):
    code, rep = run(capsys, "hybrid", "--json", json.dumps({"r": ["2"]}))
    assert code == EXIT_MALFORMED
    code, rep = run(capsys, "hybrid",
                    "--json", json.dumps({"r": ["1/2", "1/3"]}))
    assert code == EXIT_MALFORMED  # missing the free fixed point


@pytest.mark.parametrize("grid", ["0", "1,0", "-1", "2"])
def test_hybrid_eps_grid_outside_unit_interval(capsys, grid):
    # 0 and 1,0 used to end in a ZeroDivisionError traceback, -1 and 2
    # in a PlaceError traceback.
    payload = json.dumps({"r": ["1/2", "1/3"], "fixed": ["-2"]})
    code, rep = run(capsys, "hybrid", "--json", payload, "--eps-grid", grid)
    assert code == EXIT_MALFORMED
    assert "--eps-grid" in rep["error"]


def test_hybrid_rank1_takes_no_fixed_points(capsys):
    # Used to exit 0 with an "error: rank 1 has no free fixed points" row.
    payload = json.dumps({"r": ["1/2"], "fixed": ["3"]})
    code, rep = run(capsys, "hybrid", "--json", payload, "--eps-grid", "1")
    assert code == EXIT_MALFORMED
    assert set(rep) == {"error"} and "fixed" in rep["error"]


def test_flag_validation(capsys):
    code, rep = run(capsys, "verify", "--json", DUMBBELL, "--budget", "0")
    assert code == EXIT_MALFORMED  # verify has no --budget
    code, rep = run(capsys, "limitset", "--json", DUMBBELL, "--budget", "0")
    assert code == EXIT_MALFORMED
    code, rep = run(capsys, "verify")
    assert code == EXIT_MALFORMED  # neither --input nor --json


# The options each subcommand reads, besides --input/--json, with a value
# each would accept.
READS = {
    "verify": {"--nielsen-depth": "2"},
    "limitset": {"--depth": "3", "--budget": "100", "--out": "l.svg"},
    "skeleton": {"--depth": "3"},
    "act": {"--word": "s2", "--prec": "64"},
    "hybrid": {"--eps-grid": "1"},
}
ALL_OPTIONS = {opt: value for opts in READS.values()
               for opt, value in opts.items()}
HYBRID_G2 = json.dumps({"r": ["1/2", "1/3"], "fixed": ["-2"]})


def test_each_subcommand_takes_only_the_options_it_reads():
    sub = next(a for a in _parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {name: {s for a in p._actions for s in a.option_strings}
               - {"-h", "--help"} for name, p in sub.choices.items()}
    assert options == {cmd: {"--input", "--json"} | set(opts)
                       for cmd, opts in READS.items()}
    assert sum(len(opts) for opts in options.values()) == 18


@pytest.mark.parametrize("cmd,opt", [
    (cmd, opt) for cmd in READS for opt in ALL_OPTIONS
    if opt not in READS[cmd]])
def test_option_a_subcommand_does_not_read_is_refused(capsys, cmd, opt):
    doc = HYBRID_G2 if cmd == "hybrid" else DUMBBELL
    code = main([cmd, "--json", doc, opt, ALL_OPTIONS[opt]])
    out, err = capsys.readouterr()
    assert code == EXIT_MALFORMED
    assert set(json.loads(out)) == {"error"} and opt in json.loads(out)["error"]
    assert err == ""


USAGE_ERRORS = {
    "unknown-flag": ["verify", "--json", DUMBBELL, "--bogus", "1"],
    "no-subcommand": [],
    "unknown-subcommand": ["bogus", "--json", DUMBBELL],
    "json-and-input": ["verify", "--json", DUMBBELL, "--input", "p.json"],
    "limitset-depth-0": ["limitset", "--json", DUMBBELL, "--depth", "0"],
    "limitset-budget-0": ["limitset", "--json", DUMBBELL, "--budget", "0"],
    "limitset-depth-x": ["limitset", "--json", DUMBBELL, "--depth", "x"],
    "skeleton-depth-neg": ["skeleton", "--json", DUMBBELL, "--depth", "-1"],
    "nielsen-depth-neg": ["verify", "--json", DUMBBELL,
                          "--nielsen-depth", "-1"],
    "act-prec-0": ["act", "--json", DUMBBELL, "--prec", "0"],
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_errors_exit_1_with_one_json_error(capsys, case):
    # argparse on its own exits 2, the code for "no"; limitset --depth 0
    # used to end in a ValueError traceback.
    code = main(USAGE_ERRORS[case])
    out, err = capsys.readouterr()
    assert code == EXIT_MALFORMED
    assert set(json.loads(out)) == {"error"}
    assert err == ""


@pytest.mark.parametrize("argv", [
    ["skeleton", "--depth", "0"],
    ["limitset", "--depth", "1", "--budget", "4"],
    ["verify", "--nielsen-depth", "0"],
    ["act", "--prec", "1"],
], ids=" ".join)
def test_lowest_accepted_values(capsys, argv):
    code, rep = run(capsys, *argv, "--json", DUMBBELL)
    assert code == EXIT_YES
    if argv[0] == "skeleton":
        assert rep["translation_lengths"] == []


def test_usage_error_in_a_subprocess():
    src = str(Path(schottky.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "schottky.cli", "limitset", "--json", DUMBBELL,
         "--depth", "0"], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_MALFORMED
    assert "--depth" in json.loads(proc.stdout)["error"]
    assert proc.stderr == ""  # no Traceback, no argparse usage text


def test_act_underflowing_multiplier_exits_5_in_a_subprocess():
    # Eight s4 moves shrink the float-lifted multiplier below the smallest
    # double; six still answer.
    src = str(Path(schottky.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "schottky.cli", "act", "--json", ARCH_G2,
         "--word", ",".join(["s4"] * 8)],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_UNSUPPORTED
    assert set(json.loads(proc.stdout)) == {"error"}
    assert "underflows" in json.loads(proc.stdout)["error"]
    assert "Traceback" not in proc.stderr
