"""qcolour benchmark: one workload, closed loop, one thread.

    python3 benchmark/run.py --workload corpus-battery --seed 0 --seconds 30 --trace 0

Run from the repository root.  One caller runs the workload's items back to
back in a fresh process, with BLAS pinned to one thread.  A run makes one such
pass per 15 s of ``--seconds``, at least two, so the number of passes, and
with it the estimators below, do not change with the speed of the code under
test.  Every item's outputs are checked; an item that raises or whose
identity fails counts as failed.

``--trace 0`` reports the end-to-end metrics: set-up time (the best of fresh
set-up processes spread between the items of the passes), wall time (each
item at its best pass), peak resident memory and the number of checks that
passed.  Taking the best filters out the periods, often tens of seconds long,
in which other load on a shared host slows every process by up to a half.
``--trace 1`` alternates two untraced and two traced passes and reports the
per-layer metrics of the faster traced pass, plus the tracing overhead with
each item at its best pass.  The last stdout
line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("corpus-battery", "petersen-sums", "oracle-sweep")
# One pass per this many seconds of --seconds, at least two: the number of
# passes depends on --seconds alone, never on the speed of the code under test.
SECONDS_PER_PASS = 15
MIN_PASSES = 2
SETUPS = 10  # fresh set-up processes per run, spread between the passes' items
TRACE_PASSES = 2
WORKER_TIMEOUT_S = 120
OUT_DIR = Path(".bench_out")


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path("src").resolve())
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def worker(*args: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(
            cmd, env=worker_env(), capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} exceeded {WORKER_TIMEOUT_S} s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_pass(workload: str, seed: int, trace_out: Path | None = None, setups: int = 0) -> dict:
    args = ["pass", "--workload", workload, "--seed", str(seed), "--setups", str(setups)]
    if trace_out is not None:
        args += ["--trace-out", str(trace_out)]
    return worker(*args)


def best_items(passes: list[dict]) -> tuple[list[str], list[float]]:
    """Item names and each item's best time over the passes."""
    names = [name for name, *_rest in passes[0]["items"]]
    return names, [min(p["items"][i][1] for p in passes) for i in range(len(names))]


def failures(passes: list[dict]) -> list[str]:
    return [name for p in passes for name, _t, ok, _n in p["items"] if not ok]


def end_to_end(workload: str, seed: int, seconds: int) -> tuple[dict, list[str], int, int]:
    worker("setup")  # warm the page cache and bytecode before timing set-up
    n_passes = max(MIN_PASSES, seconds // SECONDS_PER_PASS)
    passes = [run_pass(workload, seed, setups=max(1, SETUPS // n_passes)) for _ in range(n_passes)]
    setups = [t for p in passes for t in p["setup_s"]]
    names, best = best_items(passes)
    metrics = {
        "setup_s": (min(setups), "s"),
        "wall_s": (sum(best), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "records_passed": (
            statistics.median_low(sum(n for *_rest, n in p["items"]) for p in passes),
            "count",
        ),
    }
    failed = failures(passes)
    attempted = len(names) * len(passes)
    notes = [
        f"{len(passes)} passes of {len(names)} items; wall_s sums each item's best pass",
        "pass wall times " + ", ".join(f"{p['wall_s']:.4f}" for p in passes) + " s",
        f"set-up best of {len(setups)} fresh processes spread between the items of the passes",
        f"fail_frac = {len(failed)}/{attempted} = {len(failed) / attempted:g}",
    ] + [f"FAILED item {name}" for name in failed]
    return metrics, notes, attempted, len(failed)


def per_layer(workload: str, seed: int) -> tuple[dict, list[str], int, int]:
    OUT_DIR.mkdir(exist_ok=True)
    plain, traced, outs = [], [], []
    for i in range(TRACE_PASSES):
        plain.append(run_pass(workload, seed))
        outs.append(OUT_DIR / f"trace-{workload}-seed{seed}-{i}.jsonl")
        traced.append(run_pass(workload, seed, outs[-1]))
    fastest = min(traced, key=lambda p: p["wall_s"])
    metrics = {name: tuple(v) for name, v in fastest["layers"].items()}
    plain_s, traced_s = sum(best_items(plain)[1]), sum(best_items(traced)[1])
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1, "ratio")
    names = best_items(plain)[0]
    failed = failures(plain + traced)
    notes = [
        f"{TRACE_PASSES} untraced and {TRACE_PASSES} traced passes, alternating; "
        f"each item at its best: untraced {plain_s:.4f} s, traced {traced_s:.4f} s",
        f"per-layer metrics of the faster traced pass ({fastest['spans']} spans); traces in "
        + ", ".join(str(o) for o in outs),
        f"verify.run_battery percentiles over {metrics['verify.run_battery.calls'][0]} calls",
    ] + [f"FAILED item {name}" for name in failed]
    return metrics, notes, len(names) * 2 * TRACE_PASSES, len(failed)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be at least 1 and --seed at least 0")
    if not (Path("src/qcolour/__init__.py").is_file() and Path("graphs").is_dir()):
        print("run from a qcolour checkout: src/qcolour and graphs/ are missing", file=sys.stderr)
        return 2
    try:
        if args.trace:
            metrics, notes, attempted, failed = per_layer(args.workload, args.seed)
        else:
            metrics, notes, attempted, failed = end_to_end(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print(f"  # {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
