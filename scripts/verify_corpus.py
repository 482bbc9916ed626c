#!/usr/bin/env python3
"""Run the identity battery over every corpus graph and group flavour.

Exits nonzero if any check fails anywhere; prints one summary line per
(graph, group) pair with its failed and skipped counts and the seconds its
battery took, every failing record in full, and the total seconds.  A
skipped check (over its term cap) is not a failure.

Checks that read nothing of the group share their records between the
groups of one graph, so a graph's first group carries their time and its
later groups' seconds are lower; the records are the same.
"""

import argparse
import sys
import time

from qcolour.cli import count
from qcolour.corpus import CORPUS
from qcolour.enumeration import DEFAULT_MAX_TERMS
from qcolour.groups import group_from_name
from qcolour.verify import run_battery


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--groups", default="2,3,4,2x2,f4,5", help="comma-separated group specs")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--tol", type=float, default=1e-7)
    ap.add_argument("--max-terms", type=count, default=DEFAULT_MAX_TERMS)
    ap.add_argument("--skip", default="", help="comma-separated graphs to skip")
    args = ap.parse_args()

    skip = set(args.skip.split(",")) if args.skip else set()
    failures = 0
    start = time.perf_counter()
    for name, doc in CORPUS.items():
        if name in skip:
            continue
        for spec in args.groups.split(","):
            group = group_from_name(spec)
            t0 = time.perf_counter()
            records = run_battery(
                doc,
                group,
                tol=args.tol,
                max_terms=args.max_terms,
                seed=args.seed,
            )
            elapsed = time.perf_counter() - t0
            bad = [r for r in records if r.passed is False]
            skipped = sum(r.passed is None for r in records)
            failures += len(bad)
            print(
                f"{name:12s} group={spec:4s} checks={len(records):3d} "
                f"failures={len(bad)} skipped={skipped} elapsed={elapsed:.3f}s"
            )
            for rec in bad:
                print("  " + rec.to_json())
    print(f"total failures: {failures} elapsed={time.perf_counter() - start:.3f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
