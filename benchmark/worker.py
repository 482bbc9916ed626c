"""One fresh benchmark process: either the set-up alone, or one pass of a
workload's item list.  Prints one JSON object on its last stdout line.

    python3 benchmark/worker.py setup
    python3 benchmark/worker.py pass --workload NAME --seed N [--setups K] [--trace-out FILE]

A pass with ``--setups K`` also times K fresh set-up processes, spread evenly
between its items, so that set-up is sampled at many moments of a run; the
pass waits for each, and neither item times nor the pass's wall time include
them.

Run from the repository root with ``src`` on PYTHONPATH; ``run.py`` does
this and pins BLAS to one thread.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here, before any import

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

SETUP_GROUPS = ("2", "3", "4", "2x2", "f4")


def setup() -> float:
    """Import qcolour, build the corpus, parse every graph file and build the
    groups; return the seconds since the process started timing."""
    import qcolour  # noqa: F401
    from qcolour.corpus import CORPUS
    from qcolour.graphio import load_graph
    from qcolour.groups import group_from_name

    docs = [load_graph(p) for p in sorted(Path("graphs").glob("*.g"))]
    if not docs or not CORPUS:
        raise FileNotFoundError("no graphs/*.g files or empty corpus")
    for spec in SETUP_GROUPS:
        group_from_name(spec)
    return time.perf_counter() - T0


def fresh_setup() -> float:
    proc = subprocess.run(
        [sys.executable, __file__, "setup"], capture_output=True, text=True, check=True, timeout=60
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_pass(workload: str, seed: int, trace_out: str | None, setups: int) -> dict:
    from spans import Recorder, layer_metrics, traced
    from workloads import WORKLOADS

    items = WORKLOADS[workload](seed)
    before = [k * len(items) // setups for k in range(setups)]  # item index per set-up
    rec = Recorder()
    results, setup_s = [], []
    with traced(rec) if trace_out else nullcontext():
        start = time.perf_counter()
        for i, item in enumerate(items):
            t = time.perf_counter()
            setup_s += [fresh_setup() for _ in range(before.count(i))]
            start += time.perf_counter() - t
            t = time.perf_counter()
            try:
                passed, failed = item.run()
            except Exception:  # a raising item is a failure, never retried
                traceback.print_exc()
                passed, failed = 0, 1
            results.append([item.name, time.perf_counter() - t, failed == 0, passed])
        wall = time.perf_counter() - start
    out = {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "items": results,
        "setup_s": setup_s,
    }
    if trace_out:
        out["layers"] = layer_metrics(rec)
        out["spans"] = len(rec.spans)
        rec.write(trace_out)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("mode", choices=("setup", "pass"))
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--setups", type=int, default=0)
    ap.add_argument("--trace-out")
    args = ap.parse_args()
    setup_s = setup()
    if args.mode == "setup":
        out = {"setup_s": setup_s}
    else:
        out = run_pass(args.workload, args.seed, args.trace_out, args.setups)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
