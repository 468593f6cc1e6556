"""The benchmark's own smoke test: every workload at a tiny size.

    python3 perfbench/smoke.py

Checks, for each workload:
  * untraced and traced runs print every metric BENCHMARK.json names,
    with its unit, and a failed_frac line;
  * a different seed changes the inputs but not the set of metric names;
  * a wrong answer fed to the answer check is counted as failed.
Exits 0 when all hold.  Takes about a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
EXPECTED = {
    0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
    1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
}


def tiny_run(workload: str, seed: int, trace: int) -> tuple[list[str], dict]:
    """One cycle of the workload, in this process; (report lines, result)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", str(seed),
                         "--seconds", "0.01", "--trace", str(trace)])
    assert code == 0, f"{workload}: exit {code}"
    lines = buf.getvalue().strip().splitlines()
    return lines, json.loads(lines[-1])


def corrupt(workload: str, result):
    """A wrong answer for the check: the result with one fact changed."""
    if workload == "padic-sweep":
        sb = result[0]
        sb.status = "no" if sb.status == "yes" else "yes"
    elif workload == "limitset-deep":
        result[1].levels[max(result[1].levels)].pop()
    elif workload == "arch-search":
        result[0].status = "no"
    else:
        code, out = result
        return code + 1, out
    return result


def check_wrong_answer_counted(workload: str, tmpdir: Path) -> None:
    import workloads

    wl = workloads.make(workload, run.ROOT, tmpdir)
    inner = wl.check
    wl.check = lambda spec, result, props: inner(spec, corrupt(workload, result),
                                                 props)
    tally = run.Tally()
    inputs = run.Inputs(wl, 7)
    run.measure(wl, inputs, 0, tally, workloads.Props(), n_ops=1)
    assert tally.attempted == len(wl.strata), tally.attempted
    assert tally.wrong == tally.attempted, (workload, tally.messages)


def main() -> int:
    run.MIN_OPS = run.CLI_MIN_OPS = 1
    run.SETUP_REPS = 1
    run.IMPORT_REPS = 1
    sys.path.insert(0, str(run.SRC))
    import workloads

    tmpdir = run.OUT / "smoke"
    tmpdir.mkdir(parents=True, exist_ok=True)
    try:
        check_all(workloads, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    return 0


def check_all(workloads, tmpdir: Path) -> None:
    for name in workloads.NAMES:
        names_by_seed = []
        for seed in (1, 2):
            lines, res = tiny_run(name, seed, 0)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == EXPECTED[0], (name, got)
            assert res["attempted"] >= 1 and res["correct"], (name, res)
            assert any(line.startswith("failed_frac") for line in lines), name
            names_by_seed.append(sorted(got))
        assert names_by_seed[0] == names_by_seed[1], name
        wl = workloads.make(name, run.ROOT, tmpdir)
        assert [wl.spec(1, k) for k in range(4)] != \
            [wl.spec(2, k) for k in range(4)], f"{name}: seed changes nothing"
        assert [wl.spec(1, k) for k in range(4)] == \
            [wl.spec(1, k) for k in range(4)], f"{name}: seed not repeatable"

        _, res = tiny_run(name, 1, 1)
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        assert got == EXPECTED[1], (name, sorted(set(got) ^ set(EXPECTED[1])))

        check_wrong_answer_counted(name, tmpdir)
        print(f"ok {name}", flush=True)


if __name__ == "__main__":
    sys.exit(main())
