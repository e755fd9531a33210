"""The forcelab benchmark: verdict throughput and latency on three workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload truth-lemma --seed 1 --seconds 15 \
        --trace 0

Workloads: ``truth-lemma``, ``rank-space`` and ``witness-report`` (see
``BENCHMARK.json`` for why each was chosen).  The load is a closed loop with
one client: one process, one thread, each operation starting when the one
before it returns.  Every run starts fresh interpreters (``worker.py``), so
the library's module-level caches of one run cannot warm another.

With ``--trace 0`` the run starts ``SETUP_REPEATS - 1`` interpreters that
only set up, half before and half after one that also runs the timed phase,
and reports the end-to-end metrics: the median set-up time, operations per
second, median and 90th-percentile operation time, peak RSS and the share
of operations answered correctly.  With ``--trace 1`` it runs the timed
phase twice, plain and traced, and reports the per-layer metrics of the
traced run together with the tracing overhead.

The last line of standard output is the result, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the run's environment.  A run whose library cannot be imported,
or whose interpreters fail or overrun, exits with status 1 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("truth-lemma", "rank-space", "witness-report")
# Set-up interpreters per untraced run, the timed one included; half start
# before the timed phase and half after it, so that the median spans the
# run rather than one moment of a machine whose speed drifts.
SETUP_REPEATS = 9
# Every interpreter started by one run must have ended this long after the
# run began.
DEADLINE_S = 170.0


class RunFailed(Exception):
    pass


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="scales the operation count: 15 gave 20 to 45 "
                             "seconds of work when this was written")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def worker(args, mode: str, deadline: float) -> dict:
    """Start one fresh interpreter and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    launched = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode,
           "--launched", repr(launched)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=max(deadline - launched, 1))
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{mode} interpreter overran the deadline") from exc
    if proc.returncode != 0:
        raise RunFailed(f"{mode} interpreter exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def measure(args, deadline):
    """The end-to-end metrics, from untraced interpreters."""
    before = [worker(args, "setup", deadline)
              for _ in range((SETUP_REPEATS - 1) // 2)]
    timed = worker(args, "timed", deadline)
    after = [worker(args, "setup", deadline)
             for _ in range(SETUP_REPEATS - 1 - len(before))]
    runs = before + [timed] + after
    setup_samples = [r["setup_s"] for r in runs]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (timed["ops_per_s"], "1/s"),
        "op_p50_ms": (timed["op_p50_ms"], "ms"),
        "op_p90_ms": (timed["op_p90_ms"], "ms"),
        "peak_rss_mb": (timed["peak_rss_mb"], "MB"),
        "ok_frac": (1 - failed / attempted, "ratio"),
    }
    env = {
        "ops_per_run": timed["ops"],
        "raw_ops_per_s": timed["raw_ops_per_s"],
        "scale": timed["scale"],
        "warmup_ops": timed["warmups"],
        "setup_repeats": SETUP_REPEATS,
        "setup_samples_s": setup_samples,
        "setup_spread": spread(setup_samples),
    }
    return runs, metrics, env


def measure_traced(args, deadline):
    """The per-layer metrics, from a traced interpreter, and the tracing
    overhead against an untraced one on the same operations."""
    plain = worker(args, "timed", deadline)
    traced = worker(args, "traced", deadline)
    metrics = {name: (m["value"], m["unit"])
               for name, m in traced["layers"].items()}
    metrics["trace.ops_per_s"] = (traced["ops_per_s"], "1/s")
    metrics["trace.overhead"] = (plain["ops_per_s"] / traced["ops_per_s"],
                                 "ratio")
    metrics["trace.spans"] = (traced["spans"], "count")
    env = {
        "ops_per_run": traced["ops"],
        "untraced_ops_per_s": plain["ops_per_s"],
        "spans_file": traced["spans_file"],
    }
    return [plain, traced], metrics, env


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "forcelab" / "__init__.py").is_file():
        print(f"no forcelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    try:
        runs, metrics, env = (measure_traced if args.trace else measure)(
            args, deadline)
    except RunFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    failures = [f for r in runs for f in r["failures"]]
    for line in failures:
        print(f"failed operation: {line}", file=sys.stderr)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    env.update({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "load": "closed loop, one client",
    })
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
