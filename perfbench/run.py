"""Benchmark of the ``schottky`` package: four seeded closed-loop workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload padic-sweep --seed 1 --seconds 20 --trace 0

One caller, one process, no threads: each operation starts after the
previous one ends.  Operation k gets its own input, made from the seed
and k only.  The measured phase runs whole cycles of the workload's
strata until the operations have taken ``--seconds`` of wall time and at
least MIN_OPS (CLI_MIN_OPS on cli-session) have run; answer checks run
between operations, outside the timings.

Times are reported at reference speed.  The effective speed of a shared
core drifts by up to 1.7x over a few seconds (other tenants), and CPU
time drifts with it.  So a short reference runs before and after every
operation, and each operation's wall time is divided by the median
slowdown (reference time / nominal reference time) measured around it.
In-process operations use a pure-Python loop as the reference; CLI
subprocesses use the start of a bare interpreter, which tracks process
start-up and import work that the loop does not.  Raw wall-clock figures
are printed beside the scaled ones.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the workload
untraced for half the time, then the same number of operations on fresh
inputs with span wrappers installed, and prints the per-layer metrics
(span times there are raw wall time; cli-session runs ``cli.main``
in-process).  Human-readable lines come first; the last line of standard
output is a JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_OPS = 100
# A CLI operation's time varies most (process start-up), so cli-session
# measures more operations.
CLI_MIN_OPS = 150
# Warm-up inputs are the same for every seed, so set-up does the same work.
WARMUP_SEED = -1
SETUP_REPS = 3
IMPORT_REPS = 5
# Reference times on an otherwise quiet core of the machine the bounds
# were set on (2 vCPUs, Python 3.11.7).
LOOP_NOMINAL_S = 0.7e-3
SPAWN_NOMINAL_S = 12e-3

sys.path.insert(0, str(HERE))


def reference_loop() -> Fraction:
    """Fixed pure-Python work: Fraction arithmetic and small dicts, like
    the library's own inner loops."""
    acc = Fraction(0)
    seen = {}
    for i in range(1, 120):
        q = Fraction(i * 7919 % 1009 + 1, i + 3)
        acc = acc * Fraction(3, 4) + q
        seen[i % 17] = (acc, q)
    return acc


def loop_slowdown() -> float:
    """Speed of this core now against nominal, from the fastest of three
    reference loops (the first after a wait runs cold)."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        reference_loop()
        best = min(best, time.perf_counter() - t0)
    return best / LOOP_NOMINAL_S


def spawn_slowdown() -> float:
    """Speed of starting a bare interpreter now against nominal."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True,
                   timeout=60)
    return (time.perf_counter() - t0) / SPAWN_NOMINAL_S


def scaled(dt: float, before: float, after: float) -> float:
    """A wall time at reference speed, given the slowdowns around it."""
    return dt * 2 / (before + after)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.errors = 0
        self.wrong = 0
        self.messages: list[str] = []

    @property
    def failed(self) -> int:
        return self.errors + self.wrong

    def fail(self, kind: str, msg: str) -> None:
        if kind == "wrong":
            self.wrong += 1
        else:
            self.errors += 1
        if len(self.messages) < 5:
            self.messages.append(f"{kind}: {msg}")


class Inputs:
    """Specs and prepared arguments for operation indices, made on demand."""

    def __init__(self, wl, seed: int):
        self.wl, self.seed = wl, seed
        self.cache: dict[int, tuple] = {}

    def make(self, ks) -> None:
        for k in ks:
            spec = self.wl.spec(self.seed, k)
            self.cache[k] = (spec, self.wl.prepare(spec))

    def get(self, k: int) -> tuple:
        if k not in self.cache:  # past the set-up batch: make it here, untimed
            self.make([k])
        return self.cache.pop(k)


class Timings:
    """Raw per-operation wall times and the slowdowns measured around them.

    slowdowns[i] and slowdowns[i + 1] bracket operation i.  An operation is
    scaled by the median of the six slowdowns nearest to it, so that one
    slow reference (a delayed process start, an interrupt) does not scale
    one operation by itself.
    """

    def __init__(self):
        self.raw: list[float] = []
        self.slowdowns: list[float] = []

    def __len__(self):
        return len(self.raw)

    @property
    def scaled(self) -> list[float]:
        s = self.slowdowns
        return [dt / statistics.median(s[max(0, i - 2):i + 4])
                for i, dt in enumerate(self.raw)]


def measure(wl, inputs: Inputs, first: int, tally: Tally, props,
            seconds: float = math.inf, min_ops: int = 0,
            n_ops: int | None = None, tracer=None,
            slowdown=loop_slowdown) -> Timings:
    """Run whole cycles from operation ``first`` and time each operation."""
    from workloads import ErrorReport, WrongAnswer

    cycle = len(wl.strata)
    out = Timings()
    k = first
    busy = 0.0
    out.slowdowns.append(slowdown())
    while True:
        for _ in range(cycle):
            spec, arg = inputs.get(k)
            if tracer is not None:
                tracer.begin_op(k)
            t0 = time.perf_counter()
            try:
                result = wl.run(arg)
                err = None
            except Exception as e:  # an operation that raises has failed
                err = f"{type(e).__name__}: {e}"
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_op()
            out.slowdowns.append(slowdown())
            out.raw.append(dt)
            busy += dt
            k += 1
            tally.attempted += 1
            props.ops += 1
            if err is not None:
                tally.fail("error", err)
                continue
            try:
                wl.check(spec, result, props)
            except ErrorReport as e:
                tally.fail("error", str(e))
            except WrongAnswer as e:
                tally.fail("wrong", str(e))
            except (KeyError, TypeError, ValueError, IndexError) as e:
                tally.fail("wrong", f"malformed answer: {e!r}")
        if n_ops is not None:
            if len(out) >= n_ops:
                return out
        elif busy >= seconds and len(out) >= min_ops:
            return out


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 10..90 by tens), inclusive method."""
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _wall(cmd: list[str], env: dict) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=60,
                          check=True)
    return time.perf_counter() - t0, proc.stderr


def import_split(env: dict) -> dict[str, tuple[float, str]]:
    """Interpreter start, package import and mpmath import, from outside."""
    py = sys.executable
    interp = [_wall([py, "-c", "pass"], env)[0] for _ in range(IMPORT_REPS)]
    full = [_wall([py, "-c", "import schottky.cli"], env)[0]
            for _ in range(IMPORT_REPS)]
    mp = []
    for _ in range(IMPORT_REPS):
        _, err = _wall([py, "-X", "importtime", "-c", "import schottky.cli"], env)
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "mpmath":
                mp.append(int(parts[1]) / 1000.0)
    return {
        "cli.interpreter_ms": (statistics.median(interp) * 1000, "ms"),
        "cli.import_ms": (statistics.median(full) * 1000, "ms"),
        "cli.import_mpmath_ms": (statistics.median(mp) if mp else 0.0, "ms"),
    }


def emit(metrics: dict[str, tuple[float, str]], tally: Tally) -> None:
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "schottky" / "__init__.py").is_file():
        print(f"perfbench: no schottky package under {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    # Byte-compile first (the build step), so no timed import writes .pyc.
    import compileall
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("perfbench: src does not compile", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tmpdir = OUT / f"tmp-{os.getpid()}"
    tmpdir.mkdir()
    try:
        return run(args, workloads, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def run(args, workloads, tmpdir: Path) -> int:
    cli = args.workload == "cli-session"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import_s = 0.0
    if args.trace or not cli:
        before = loop_slowdown()
        t0 = time.perf_counter()
        import schottky  # noqa: F401  (imports every library module)
        import schottky.cli  # noqa: F401
        import_s = scaled(time.perf_counter() - t0, before, loop_slowdown())

    wl = workloads.make(args.workload, ROOT, tmpdir, in_process=bool(args.trace))
    slowdown = spawn_slowdown if cli and not args.trace else loop_slowdown
    min_ops = CLI_MIN_OPS if cli else MIN_OPS
    cycle = len(wl.strata)
    per_phase = args.seconds / 2 if args.trace else args.seconds
    n_cycles = math.ceil(max(per_phase * wl.rate_hint * 1.3, min_ops) / cycle)
    batch = range(n_cycles * cycle * (2 if args.trace else 1))

    # Set-up, repeated: make the input batch, then warm up on fixed inputs.
    # Each set-up is scaled by the median of all slowdowns around them, so
    # that one slow reference does not move setup_s.
    setup_raw, marks = [], [slowdown()]
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        inputs = Inputs(wl, args.seed)
        inputs.make(batch)
        for spec in wl.warmup_specs(WARMUP_SEED):
            wl.run(wl.prepare(spec))
        setup_raw.append(time.perf_counter() - t0)
        marks.append(slowdown())
    setup_s = import_s + statistics.median(setup_raw) / statistics.median(marks)

    print(f"# workload {args.workload} seed {args.seed} "
          f"{'traced' if args.trace else 'untraced'}; python "
          f"{sys.version.split()[0]}; closed loop, 1 caller")
    tally, props = Tally(), workloads.Props()
    if not args.trace:
        t = measure(wl, inputs, 0, tally, props, seconds=args.seconds,
                    min_ops=min_ops, slowdown=slowdown)
        n = len(t)
        t_scaled = t.scaled
        completed = tally.attempted - tally.failed
        metrics = {
            "setup_s": (setup_s, "s"),
            "throughput_ops_s": (completed / sum(t_scaled), "1/s"),
            "latency_p50_ms": (quantile(t_scaled, 50) * 1000, "ms"),
            "latency_p90_ms": (quantile(t_scaled, 90) * 1000, "ms"),
            "peak_rss_mb": (peak_rss_mb(children=cli), "MB"),
        }
        raw = {
            "setup_s": f"raw {statistics.median(setup_raw):.4f} + import; "
                       f"median of {SETUP_REPS}, import {import_s:.4f} s",
            "throughput_ops_s": f"raw {completed / sum(t.raw):.4f}; "
                                f"n={completed} completed in {sum(t.raw):.2f} s",
            "latency_p50_ms": f"raw {quantile(t.raw, 50) * 1000:.4f}; n={n}",
            "latency_p90_ms": f"raw {quantile(t.raw, 90) * 1000:.4f}; n={n}, "
                              f"{n - math.ceil(0.9 * n)} beyond",
            "peak_rss_mb": "children" if cli else "this process",
        }
        print(f"# median slowdown against the reference "
              f"({slowdown.__name__}): {statistics.median(t.slowdowns):.4f}")
        for name, (value, unit) in metrics.items():
            print(f"{name:18s} {value:12.4f} {unit:4s} ({raw[name]})")
        print(f"{'failed_frac':18s} {tally.failed / n:12.4f} ratio "
              f"({tally.failed} of {n}; {tally.wrong} wrong answers)")
    else:
        t_a = measure(wl, inputs, 0, tally, workloads.Props(), seconds=per_phase)
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            t_b = measure(wl, inputs, len(t_a), tally, props, n_ops=len(t_a),
                          tracer=tracer)
        finally:
            tracer.uninstall()
        tracer.write(OUT / f"spans-{args.workload}.bin")
        metrics = tracer.layer_metrics(len(t_b))
        metrics.update(import_split(workloads.cli_env(ROOT)))
        metrics["trace.overhead_ratio"] = (
            (sum(t_b.scaled) / len(t_b)) / (sum(t_a.scaled) / len(t_a)), "ratio")
        print(f"# traced {len(t_b)} ops after {len(t_a)} untraced; "
              f"spans written to {OUT.name}/")
        for name in sorted(metrics):
            value, unit = metrics[name]
            print(f"{name:40s} {value:14.4f} {unit}")
    print("inputs " + json.dumps(props.summary(), sort_keys=True))
    for msg in tally.messages:
        print(f"# failure {msg}")
    emit(metrics, tally)
    return 0


if __name__ == "__main__":
    sys.exit(main())
