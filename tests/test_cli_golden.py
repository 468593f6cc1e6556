"""Byte-for-byte CLI output on fixed inputs.

Each case runs ``schottky.cli.main`` in process and compares its stdout
with ``tests/golden/<name>.stdout`` and its exit code with
``tests/golden/exit_codes.json``.  A refactor that keeps the CLI's
behaviour keeps these files as they are.

The ``hybrid_*`` goldens pin the archimedean ``arch_status`` column.
The geometry runs on normalized absolute values, so a row's status is
``is_in_SB`` at eps = 1 on that row's multipliers r_i^(1/eps).  The
"unknown" rows of g = 2 and g = 3 at eps = 1 and 1/2 are crowded points
that the float-proposed Ford search does not certify (ROADMAP item 1).

To regenerate every golden file after an intended output change::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import json
from pathlib import Path

import pytest

from schottky.cli import main

GOLDEN = Path(__file__).parent / "golden"

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

G3_YES = json.dumps({
    "place": {"kind": "padic", "p": 2},
    "g": 3,
    "koebe": [{"beta": "64"}, {"beta": "64", "alpha_prime": "-1"},
              {"beta": "64", "alpha": "3", "alpha_prime": "5"}],
})

G3_NO = json.dumps({
    "place": {"kind": "padic", "p": 3},
    "g": 3,
    "koebe": [{"beta": "27"}, {"beta": "9", "alpha_prime": "-1"},
              {"beta": "3", "alpha": "1/3", "alpha_prime": "2"}],
})

ARCH_G2 = json.dumps({
    "place": {"kind": "arch"},
    "g": 2,
    "koebe": [{"beta": "1/100"}, {"beta": "1/100", "alpha_prime": "-1"}],
})

G2_HALF = json.dumps({
    "place": {"kind": "padic", "p": 3},
    "g": 2,
    "koebe": [{"beta": "27"}, {"beta": "9", "alpha_prime": "1/3"}],
})

RANK1 = json.dumps({
    "place": {"kind": "padic", "p": 3},
    "g": 1,
    "koebe": [{"beta": "9"}],
})

CASES = {
    "verify_padic_g1_yes": ["verify", "--json", RANK1],
    "verify_padic_g2_yes": ["verify", "--json", DUMBBELL],
    "verify_padic_g2_no": ["verify", "--json", REJECTED],
    "verify_padic_g3_yes": ["verify", "--json", G3_YES],
    "verify_padic_g3_no": ["verify", "--json", G3_NO],
    "verify_arch_yes": ["verify", "--json", ARCH_G2],
    "limitset_padic_depth2": ["limitset", "--json", DUMBBELL,
                              "--depth", "2"],
    "limitset_padic_g2_depth4": ["limitset", "--json", G2_HALF,
                                 "--depth", "4"],
    "skeleton_dumbbell": ["skeleton", "--json", DUMBBELL],
    "act_s2_s4": ["act", "--json", DUMBBELL, "--word", "s2,s4"],
    "hybrid_default_grid": [
        "hybrid", "--json", json.dumps({"r": ["1/2", "1/3"],
                                        "fixed": ["-2"]})],
    "hybrid_g1": ["hybrid", "--json", json.dumps({"r": ["1/2"]})],
    "hybrid_g3": [
        "hybrid", "--json", json.dumps({"r": ["1/2", "1/3", "1/5"],
                                        "fixed": ["-2", "3", "5"]})],
}


def _exit_codes() -> dict:
    return json.loads((GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(capsys, name):
    code = main(list(CASES[name]))
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.stdout").read_text()
    assert code == _exit_codes()[name]


def _regenerate() -> None:
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in sorted(CASES.items()):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            codes[name] = main(list(argv))
        (GOLDEN / f"{name}.stdout").write_text(buf.getvalue())
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _regenerate()
