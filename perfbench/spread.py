"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --seeds 10 [--first-seed 1]
        [--out perfbench/out/spread.json]

Runs ``run.py`` untraced once per workload and seed, one run at a time, with
the ``run_seconds`` of ``BENCHMARK.json``.  For every end-to-end metric it
prints the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the spread, the distance between the quartiles as a share of the median,
and flags a spread above a third of the metric's bound.  Beside them it
prints the unscaled ``raw_ops_per_s`` of the environment line, the ratio of
the scaled to the raw figure and the range of scale factors, so that a
divergence between the scaled and the raw figures shows.  The JSON summary,
with the Python version, ``nproc``, operation counts and repeat count of the
runs, goes to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def row(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"),
            "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path,
                        default=HERE / "out" / "spread.json")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"python": platform.python_version(),
               "nproc": len(os.sched_getaffinity(0)),
               "run_seconds": spec["run_seconds"], "seeds": args.seeds,
               "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        envs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            envs.append(json.loads(lines[-2])["env"])
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed",
                      file=sys.stderr)
                ok = False
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        rows = {}
        for name, vs in values.items():
            rows[name] = row(vs)
            flag = ""
            if rows[name]["spread"] > bounds[name] / 3:
                flag = f"  > bound/3 = {bounds[name] / 3:.3f}"
                ok = False
            print(f"{workload:15} {name:28} "
                  f"median {rows[name]['median']:12.6g} "
                  f"spread {rows[name]['spread']:.4f}{flag}")
        raw = row([e["raw_ops_per_s"] for e in envs])
        ratio = row([ops / e["raw_ops_per_s"]
                     for ops, e in zip(values["ops_per_s"], envs)])
        scale = [min(e["scale"]["min"] for e in envs),
                 max(e["scale"]["max"] for e in envs)]
        print(f"{workload:15} {'raw_ops_per_s':28} "
              f"median {raw['median']:12.6g} "
              f"spread {raw['spread']:.4f}; scaled/raw median "
              f"{ratio['median']:.4f} from {min(ratio['values']):.4f} to "
              f"{max(ratio['values']):.4f}; window scales {scale[0]:.3f} "
              f"to {scale[1]:.3f}")
        summary["workloads"][workload] = {
            "ops_per_run": envs[0]["ops_per_run"],
            "setup_repeats": envs[0]["setup_repeats"],
            "metrics": rows, "raw_ops_per_s": raw,
            "scaled_over_raw": ratio, "window_scale_range": scale}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
