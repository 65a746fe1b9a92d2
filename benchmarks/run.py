"""Benchmark runner for boundforge: one workload, one process, one caller.

    python3 benchmarks/run.py --workload select-deep --seed 1 --seconds 30 --trace 0

Run from the repository root.  The runner imports ``boundforge`` from the
``src/`` directory next to this one and drives the library entry points
behind ``boundforge select``, ``compare`` and ``verify`` in a closed loop
with a single caller: each operation starts when the previous one has
returned.  It runs whole rounds of operations (see ``workloads.py``) until
the measured time reaches ``--seconds``; a round is not started when it
would likely end more than half a round past that budget.  Every output
is checked, outside the timed calls, and each failed check or raised
exception counts as a failed operation.

The host this was written on is shared, and its speed drifts by 20 % and
more within minutes.  So every end-to-end time is scaled to a reference
host speed.  Between jobs, every quarter second of measured time, the
runner times a fixed pure-Python search that does not touch boundforge
(``calibration_sample``), with the garbage collector off so that the
size of boundforge's heap cannot slow it.  Each raw time is multiplied by
``REFERENCE_CALIBRATION_S`` over the run's median sample, raised to
``CALIBRATION_ELASTICITY``: over 30 runs on that host, boundforge's time
moved with the calibration time to the power 0.42 to 0.46, and this
scaling cut the spread of ``wall_s`` across runs by half or more.  A
change to boundforge moves scaled and raw times alike; the raw ones are
printed too.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_SAMPLES = 25  # each in a fresh interpreter
REFERENCE_CALIBRATION_S = 0.003  # about one sample's time on the host the README names
CALIBRATION_ELASTICITY = 0.44  # the middle of the measured 0.42 to 0.46
CALIBRATE_EVERY_S = 0.25
END_TO_END = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
P90_MIN_OPS = 100  # below this, the 90th percentile has fewer than ten samples beyond it


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["select-deep", "compare-sweep", "verify-audit"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny shrinks every scenario, for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def trace_path(workload: str, seed: int) -> Path:
    """Where a traced run writes its spans."""
    return HERE / "traces" / f"{workload}-seed{seed}.jsonl"


def setup(args, gold):
    """Import the library, build the catalog and warm the workload's caches."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import boundforge  # timed: the import is part of set-up
    import workloads

    if not Path(boundforge.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"boundforge imported from {boundforge.__file__}, not {SRC}")
    workload = workloads.WORKLOADS[args.workload](gold, tiny=args.size == "tiny")
    workloads.warm(workload)
    return workload, time.perf_counter() - start


def fresh_setup_time(args) -> float:
    """Set-up time measured in a new interpreter, so the import is cold."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--size", args.size]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _queens(n: int) -> int:
    cols: list[int] = []

    def place(row: int) -> int:
        if row == n:
            return 1
        total = 0
        for c in range(n):
            if all(c2 != c and abs(c2 - c) != row - r2 for r2, c2 in enumerate(cols)):
                cols.append(c)
                total += place(row + 1)
                cols.pop()
        return total

    return place(0)


def calibration_sample() -> float:
    """Seconds for three fixed pure-Python searches (counting 7-queens)."""
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(3):
            if _queens(7) != 40:
                raise RuntimeError("calibration search gave a wrong count")
        return (time.perf_counter() - start) / 3
    finally:
        gc.enable()


def speed_factor(calibrations: list[float]) -> float:
    """Multiplier that scales raw times to the reference host speed."""
    ratio = REFERENCE_CALIBRATION_S / statistics.median(calibrations)
    return ratio ** CALIBRATION_ELASTICITY


def setup_times(args) -> tuple[float, float]:
    """Median set-up time over fresh interpreters, scaled and raw.

    Each sample is scaled by a calibration sample taken right after it, so
    the host speed it is scaled by is the one it ran at.
    """
    raw = []
    scaled = []
    for _ in range(SETUP_SAMPLES):
        sample = fresh_setup_time(args)
        raw.append(sample)
        scaled.append(sample * speed_factor([calibration_sample()]))
    return statistics.median(scaled), statistics.median(raw)


class Loop:
    """Closed loop over jobs; records raw latencies, failures and host speed."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.round_times: list[float] = []
        self.calibrations: list[float] = [calibration_sample()]
        self._since_calibration = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.next_op = 0

    def run_round(self, jobs, tracer=None) -> float:
        """Run one round; return its measured time (the sum of its op latencies)."""
        total = 0.0
        for job in jobs:
            outs = []
            problems = []
            for call in job.calls:
                ctx = tracer.operation(self.next_op, job.label) if tracer else nullcontext()
                self.next_op += 1
                with ctx:
                    start = time.perf_counter()
                    try:
                        out = call()
                    except Exception as exc:  # the loop keeps running; the op counts as failed
                        problems.append(f"raised {type(exc).__name__}: {exc}")
                        break
                    elapsed = time.perf_counter() - start
                outs.append(out)
                self.latencies.append(elapsed)
                total += elapsed
                self._since_calibration += elapsed
            if self._since_calibration >= CALIBRATE_EVERY_S:
                self.calibrations.append(calibration_sample())
                self._since_calibration = 0.0
            if not problems:
                problems = job.check(outs)
            self.attempted += len(job.calls)
            if problems:
                self.failed += len(job.calls)
                self.problems += [f"{job.label}: {p}" for p in problems]
        self.round_times.append(total)
        return total


def central_mean(values: list[float]) -> float:
    """Mean of the middle fifth (40th to 60th percentile): a median estimate
    that does not jump when a few operations near it swap ranks.

    ``verify-audit``'s median sits where the n=6 audits give way to n=7
    ones, which cost about twice as much.  There the plain median's
    spread over ten runs reached 0.22.
    """
    v = sorted(values)
    n = len(v)
    return statistics.mean(v[(2 * n) // 5: -(-3 * n // 5)])


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    import golden

    try:
        gold = golden.load()
        workload, setup_s = setup(args, gold)
    except (ImportError, FileNotFoundError) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    loop = Loop()

    def rng(k: int) -> random.Random:
        return random.Random(f"{args.workload}:{args.seed}:{k}")

    if args.trace:
        from tracer import LAYER_METRICS, Tracer

        untraced = loop.run_round(workload.round(0, rng(0)))
        tracer = Tracer()
        traced = loop.run_round(workload.round(0, rng(0)), tracer)
        values = tracer.metrics(traced - untraced)
        metrics = {name: (values[name], unit) for name, unit in LAYER_METRICS.items()}
        out = trace_path(args.workload, args.seed)
        tracer.write_jsonl(out)
        print(f"spans: {len(tracer.spans)} written to {out}")
    else:
        measured = 0.0
        k = 0
        while True:
            measured += loop.run_round(workload.round(k, rng(k)))
            k += 1
            if measured + 0.5 * statistics.mean(loop.round_times) > args.seconds:
                break
        loop.calibrations.append(calibration_sample())
        raw = {
            "wall_s": statistics.mean(loop.round_times),
            "op_p50_ms": central_mean(loop.latencies) * 1e3,
        }
        factor = speed_factor(loop.calibrations)
        values = {name: value * factor for name, value in raw.items()}
        values["setup_s"], raw["setup_s"] = setup_times(args)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        print(f"rounds: {len(loop.round_times)}, operations timed: {len(loop.latencies)}, "
              f"set-up samples: {SETUP_SAMPLES}, calibration samples: {len(loop.calibrations)}")
        print(f"host speed factor {factor} (scaled loop times are raw times x factor; "
              f"each set-up sample has its own)")
        for name, value in raw.items():
            print(f"raw {name} {value} {END_TO_END[name]}")
        if len(loop.latencies) >= P90_MIN_OPS:
            p90 = statistics.quantiles(loop.latencies, n=10)[-1] * 1e3
            print(f"op_p90_ms {p90 * factor} ms (scaled; raw {p90} ms)")

    for problem in loop.problems[:20]:
        print(f"FAILED {problem}")
    error_rate = loop.failed / loop.attempted if loop.attempted else 1.0
    print(f"error_rate {error_rate} ({loop.failed} of {loop.attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
