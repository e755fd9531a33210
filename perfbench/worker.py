"""One workload run in a fresh interpreter; prints one JSON line.

Usage (``run.py`` starts this; it is not meant to be run by hand)::

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --mode setup|timed|traced --launched T

``T`` is the parent's ``time.monotonic()`` just before it started this
process; set-up time runs from there to the first timed operation and covers
interpreter start, ``import forcelab``, input generation and one untimed
warm-up operation per operation kind.  ``setup`` mode stops there.  The
timed phase runs a fixed number of operations (set by the workload and
``--seconds``, not by the clock), times each one, scales the times to a
reference machine speed (see ``NOMINAL_CHUNK_S``), and checks each answer
outside the timed region.  ``traced`` mode wraps the library calls (see
``tracer.py``) and reports the per-layer metrics, unscaled, instead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = {
    "truth-lemma": "truth_lemma",
    "rank-space": "rank_space",
    "witness-report": "witness_report",
}
MAX_FAILURES_SHOWN = 5
WARMUP_SEED = 0
# Reference speed: on a machine of this speed one calibration chunk takes
# NOMINAL_CHUNK_S.  The speed of the machines this was written on drifts by
# up to 40% within a minute (other tenants), so the timed phase reads the
# speed before the first operation and then every CALIBRATE_EVERY_S, between
# operations.  A reading is the fastest of CHUNKS_PER_READING chunks, so one
# preempted chunk, or one slowed by the caches the operation before it left
# cold, does not count.  The operations of a window are scaled by
# NOMINAL_CHUNK_S / the mean of the readings before and after it, each first
# clamped to within CLAMP of the run's median reading.
NOMINAL_CHUNK_S = 0.0005
CALIBRATE_EVERY_S = 0.02
CHUNKS_PER_READING = 3
CLAMP = 1.5


def calibration_chunk() -> float:
    """Time a fixed piece of interpreter work much like the library's own:
    small tuples and frozensets, hashing, dict updates and sorting.  The
    garbage collector is off meanwhile, so no collection lands in it."""
    gc.disable()
    start = time.perf_counter()
    counts = {}
    for i in range(400):
        k = (i * 7919) & 255
        key = frozenset(((k, i & 7), (i, k & 3)))
        counts[key] = counts.get(key, 0) + 1
        sorted((k, i, 3, 1))
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


def speed_reading() -> float:
    return min(calibration_chunk() for _ in range(CHUNKS_PER_READING))


def scale_windows(windows, readings):
    """Scale each window of operation times by the readings around it;
    return the scaled times and the scale factors."""
    mid = statistics.median(readings)
    clamped = [min(max(r, mid / CLAMP), mid * CLAMP) for r in readings]
    scaled, factors = [], []
    for i, window in enumerate(windows):
        factor = NOMINAL_CHUNK_S / ((clamped[i] + clamped[i + 1]) / 2)
        factors.append(factor)
        scaled += [t * factor for t in window]
    return scaled, factors


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "timed", "traced"))
    parser.add_argument("--launched", type=float, required=True)
    return parser.parse_args(argv)


def import_library():
    """Import forcelab from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import forcelab
    if Path(forcelab.__file__).resolve().parent != ROOT / "src" / "forcelab":
        raise ImportError(f"forcelab was imported from {forcelab.__file__}")


class Run:
    """Counts and failure messages over every operation of a run."""

    def __init__(self, module, workdir):
        """``workdir`` is where the module's ``prepare`` may write, when it
        has one."""
        self.module = module
        self.workdir = workdir
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, kind, spec, tracer=None) -> float:
        """Do one operation and check its answer; return its time."""
        self.attempted += 1
        check = error = None
        if self.workdir is not None:
            spec = self.module.prepare(kind, spec, self.workdir)
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        try:
            check = self.module.run(kind, spec)
        except Exception as exc:  # any exception is a failed operation
            error = exc
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
            tracer.settle()
        if error is None and check is not None:
            try:
                check()
            except Exception as exc:
                error = exc
        if error is not None:
            self.failures.append(f"{kind}: {type(error).__name__}: {error}")
        return elapsed


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    module = importlib.import_module(WORKLOADS[args.workload])
    rng = random.Random(args.seed)
    rounds = max(1, round(args.seconds * module.ROUNDS_PER_SECOND))
    workdir = None
    if hasattr(module, "prepare"):
        workdir = HERE / "work" / str(os.getpid())
        workdir.mkdir(parents=True)
    try:
        # The warm-ups come from a fixed seed, so that set-up does the same
        # work whatever the seed: drawn from the run's seed, their cost
        # moved setup_s by a third from one seed to the next.
        warmups, _ = module.generate(random.Random(WARMUP_SEED), 0)
        _, ops = module.generate(rng, rounds)
        run = Run(module, workdir)
        for kind, spec in warmups:
            run.op(kind, spec)
        tracer = None
        if args.mode == "traced":
            from tracer import Tracer
            tracer = Tracer()
            tracer.install([module])
        result = {"setup_s": time.monotonic() - args.launched,
                  "warmups": len(warmups)}
        if args.mode != "setup":
            windows, readings = [[]], [speed_reading()]
            last = time.perf_counter()
            for i, (kind, spec) in enumerate(ops):
                if tracer is not None:
                    tracer.op = i
                windows[-1].append(run.op(kind, spec, tracer))
                if time.perf_counter() - last > CALIBRATE_EVERY_S or \
                        i == len(ops) - 1:
                    readings.append(speed_reading())
                    windows.append([])
                    last = time.perf_counter()
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            windows.pop()
            raw = [t for window in windows for t in window]
            scaled, factors = scale_windows(windows, readings)
            ms = sorted(t * 1000 for t in scaled)
            result.update({
                "ops": len(ops),
                "raw_ops_per_s": len(ops) / sum(raw),
                "scale": {"min": min(factors),
                          "median": statistics.median(factors),
                          "max": max(factors), "windows": len(factors)},
                "ops_per_s": len(ops) / sum(scaled),
                "op_p50_ms": statistics.median(ms),
                "op_p90_ms": statistics.quantiles(ms, n=10)[-1],
                "peak_rss_mb": rss_mb,
            })
        result.update({
            "attempted": run.attempted,
            "failed": len(run.failures),
            "failures": run.failures[:MAX_FAILURES_SHOWN],
        })
        if tracer is not None:
            result["layers"] = {name: {"value": value, "unit": unit}
                                for name, (value, unit)
                                in tracer.metrics().items()}
            out = HERE / "out"
            out.mkdir(exist_ok=True)
            path = out / f"spans-{args.workload}-{args.seed}.jsonl.gz"
            tracer.write_spans(path)
            result["spans"] = len(tracer.spans)
            result["spans_file"] = str(path.relative_to(ROOT))
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
            with contextlib.suppress(OSError):  # other runs may be using it
                workdir.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
