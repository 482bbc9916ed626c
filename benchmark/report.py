"""Run the benchmark over several seeds and summarise it.

    python3 benchmark/report.py --seeds 0-9
    python3 benchmark/report.py --seeds 0-9 --trace-seed 0 --append-trajectory "label"

Run from the repository root.  For each workload of BENCHMARK.json and each
seed this calls ``run.py`` once, with BENCHMARK.json's ``run_seconds``, and
prints, per end-to-end metric, its median over the
seeds, its quartile spread as a share of the median, and the bound that
BENCHMARK.json fixes; a spread above a third of the bound is flagged.
``--trace-seed`` adds two traced runs with that seed and checks that every
per-layer count repeats exactly.  ``--append-trajectory`` records the
results, with host data, as a new entry of ``trajectory.json``.
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

import numpy

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TRAJECTORY = HERE / "trajectory.json"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

sys.path[:0] = [str(HERE), str(Path("src").resolve())]
from run import worker_env  # noqa: E402
from spans import COUNT_SUFFIXES  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    """Median and interquartile distance over median."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def host() -> dict:
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown"
    env = worker_env()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"],
        "blas_threads": {var: env[var] for var in BLAS_ENV},
        "machine": platform.machine(),
        "git_revision": rev,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--append-trajectory", metavar="LABEL")
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    summary = {}
    steady = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = [run_once(workload, s, 0) for s in seeds]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"{workload}: {len(runs)} runs, seeds {args.seeds}, "
              f"fail_frac {failed}/{attempted} = {failed / attempted:g}")
        entry = {"seeds": seeds, "fail_frac": failed / attempted, "end_to_end": {}}
        for name, spec in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med, rel = spread(values)
            flag = "" if rel <= spec["bound"] / 3 else "  UNSTEADY (spread > bound/3)"
            if flag:
                steady = False
            print(f"  {name:16s} {med:12.6g} {spec['unit']:6s} spread {rel:7.4f}  "
                  f"bound {spec['bound']}{flag}")
            entry["end_to_end"][name] = {"median": med, "spread": rel, "unit": spec["unit"],
                                         "values": values}
        if args.trace_seed is not None:
            first = run_once(workload, args.trace_seed, 1)
            second = run_once(workload, args.trace_seed, 1)
            counts = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith(COUNT_SUFFIXES)}
                      for r in (first, second)]
            same = counts[0] == counts[1]
            steady = steady and same
            print(f"  per-layer counts repeat across two traced runs: {same}")
            for name, m in first["metrics"].items():
                print(f"    {name:44s} {m['value']:.6g} {m['unit']}")
            entry["per_layer"] = {
                "seed": args.trace_seed,
                "counts_repeat": same,
                "metrics": {k: v["value"] for k, v in first["metrics"].items()},
                "overhead_frac_second_run": second["metrics"]["trace.overhead_frac"]["value"],
            }
        summary[workload] = entry
    if args.append_trajectory:
        data = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else {"entries": []}
        data["entries"].append({
            "label": args.append_trajectory,
            "host": host(),
            "run_seconds": SPEC["run_seconds"],
            "workloads": summary,
        })
        TRAJECTORY.write_text(json.dumps(data, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
