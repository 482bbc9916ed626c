#!/usr/bin/env python3
"""Write every identity-battery record as one JSON line, or compare two
such files field by field.

    PYTHONPATH=src python3 scripts/battery_records.py > records.jsonl
    python3 scripts/battery_records.py --compare old.jsonl new.jsonl

Records cover seeds 0-2, every corpus graph over the groups 2, 3, 4, 2x2,
f4 and 5 (Petersen over 3 only), and the benchmark's random multigraph of
each seed over the same groups.  Each line holds the record's fields
(``CheckRecord.to_json``) under its seed, graph, group and position.  Run
it in two checkouts to see what a change does to the records.  It exits
nonzero if any record failed.

``--compare`` matches records by seed, graph, group and position, prints
how many differ in each field, and of those how many carry each check
name, and the largest change of ``residual``, inf where one side is
null (a non-finite residual).  It exits nonzero if any record is missing
or differs in a field other than ``residual``.
"""

import argparse
import json
import math
import os
import sys
from collections import Counter
from pathlib import Path

GROUPS = ("2", "3", "4", "2x2", "f4", "5")
PETERSEN_GROUPS = ("3",)
SEEDS = (0, 1, 2)
KEY = ("seed", "graph", "group", "index")


def documents(seed):
    """(name, document) of every graph the records cover at one seed."""
    from qcolour.corpus import CORPUS
    from qcolour.graphio import GraphDocument

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmark"))
    from workloads import random_multigraph

    yield from CORPUS.items()
    yield "random_multigraph", GraphDocument(random_multigraph(seed))


def write(out) -> int:
    """Write every record; return how many failed."""
    from qcolour.groups import group_from_name
    from qcolour.verify import run_battery

    failed = 0
    for seed in SEEDS:
        for name, doc in documents(seed):
            for spec in PETERSEN_GROUPS if name == "petersen" else GROUPS:
                records = run_battery(doc, group_from_name(spec), seed=seed)
                failed += sum(rec.passed is False for rec in records)
                for i, rec in enumerate(records):
                    head = {"seed": seed, "graph": name, "group": spec, "index": i}
                    out.write(json.dumps({**head, **json.loads(rec.to_json())}) + "\n")
    return failed


def load(path):
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    return {tuple(row[k] for k in KEY): row for row in rows}


def compare(old_path, new_path) -> int:
    old, new = load(old_path), load(new_path)
    missing = sorted(old.keys() - new.keys())
    added = sorted(new.keys() - old.keys())
    fields = [f for f in next(iter(old.values()), {}) if f not in KEY]
    differ = {f: [] for f in fields}
    worst = 0.0
    for key in sorted(old.keys() & new.keys()):
        a, b = old[key], new[key]
        for f in fields:
            if a.get(f) != b.get(f):
                differ[f].append(key)
        ra, rb = a["residual"], b["residual"]  # None: a non-finite side
        if ra != rb:
            worst = max(worst, math.inf if None in (ra, rb) else abs(ra - rb))
    print(f"{len(old)} old records, {len(new)} new, {len(missing)} missing, {len(added)} added")
    for f in fields:
        print(f"  {f:9s} differs in {len(differ[f])}")
        names = Counter(old[key]["name"] for key in differ[f])
        for name, n in sorted(names.items()):
            print(f"    {n:6d} {name}")
    print(f"  largest residual change {worst:.3g}")
    for key in missing[:10]:
        print("  missing", key)
    for key in added[:10]:
        print("  added", key)
    bad = False
    for f in fields:
        if f == "residual":
            continue
        for key in differ[f][:10]:
            print(f"  {f} {key}: {old[key][f]!r} -> {new[key][f]!r}")
        bad = bad or bool(differ[f])
    return 1 if (bad or missing or added) else 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = ap.parse_args()
    try:
        if args.compare:
            code = compare(*args.compare)
        else:
            failed = write(sys.stdout)
            if failed:
                print(f"{failed} records failed", file=sys.stderr)
            code = 1 if failed else 0
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early (``| head``): end quietly, with stdout on
        # devnull so that the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
