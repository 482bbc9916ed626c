#!/usr/bin/env python3
"""Run the identity battery over every corpus graph and group flavour.

Exits nonzero if any check fails anywhere; prints one summary line per
(graph, group) pair with its failed and skipped counts and the seconds its
battery took, every failing record in full, and the total seconds.  A
skipped check (over its term cap) is not a failure.

Checks that read nothing of the group share their records between the
groups of one graph, so a graph's first group carries their time and its
later groups' seconds are lower; the records are the same.

Every argument is checked before any battery runs: a group spec that does
not parse or whose (q, q) tables are over ``--max-terms`` (q^2 terms), a
graph name not in the corpus, a negative seed or a tolerance that is not a
finite number of at least 0 is a usage error (exit 2).
"""

import argparse
import sys
import time

from qcolour.cli import count, tolerance
from qcolour.corpus import CORPUS
from qcolour.enumeration import DEFAULT_MAX_TERMS, TermCapExceeded
from qcolour.groups import group_from_name
from qcolour.verify import run_battery


def corpus_names(text: str) -> set:
    """The comma-separated names, each a corpus graph's."""
    names = set(text.split(",")) if text else set()
    unknown = sorted(names - CORPUS.keys())
    if unknown:
        raise argparse.ArgumentTypeError(f"not in the corpus: {', '.join(unknown)}")
    return names


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--groups", default="2,3,4,2x2,f4,5", help="comma-separated group specs"
    )
    ap.add_argument("--seed", type=count, default=0)
    ap.add_argument("--tol", type=tolerance, default=1e-7)
    ap.add_argument("--max-terms", type=count, default=DEFAULT_MAX_TERMS)
    ap.add_argument(
        "--skip", type=corpus_names, default="", help="comma-separated graphs to skip"
    )
    args = ap.parse_args()
    # built once --max-terms is known, which prices each group's tables
    try:
        specs = args.groups.split(",")
        groups = [(spec, group_from_name(spec, args.max_terms)) for spec in specs]
    except (ValueError, TermCapExceeded) as exc:
        ap.error(f"argument --groups: {exc}")

    failures = 0
    start = time.perf_counter()
    for name, doc in CORPUS.items():
        if name in args.skip:
            continue
        for spec, group in groups:
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
