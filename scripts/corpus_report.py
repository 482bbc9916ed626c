#!/usr/bin/env python3
"""Print a table of invariants for the fixture corpus.

For each corpus graph: Tutte evaluations, flow and chromatic values, and,
for the cubic members, the proper edge 3-colouring count recovered from the
sine-weight edge model next to the line-graph chromatic oracle.
"""

import argparse

from qcolour.cli import count
from qcolour.corpus import CORPUS
from qcolour.enumeration import DEFAULT_MAX_TERMS, TermCapExceeded
from qcolour.graphs import line_graph
from qcolour.oracles import chromatic, flow_polynomial, tutte
from qcolour.signed import sine_model


def order(text: str) -> int:
    """A group order of at least 1; argparse turns the ValueError of
    anything else into a usage error."""
    q = int(text)
    if q < 1:
        raise ValueError(text)
    return q


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q", type=order, default=4, help="order for flow counts")
    ap.add_argument("--max-terms", type=count, default=DEFAULT_MAX_TERMS)
    args = ap.parse_args()
    cap = args.max_terms

    header = f"{'graph':12s} {'|V|':>3s} {'|E|':>3s} {'T(2,2)':>8s} " \
             f"{'F(G;q)':>8s} {'P(G;3)':>8s} {'|sine|':>8s} {'P(L;3)':>8s}"
    print(header)
    print("-" * len(header))
    for name, fx in CORPUS.items():
        g = fx.graph
        T = tutte(g, cap)
        flow = flow_polynomial(g, args.q, max_terms=cap)
        chrom = chromatic(g, 3, max_terms=cap)
        sine = pl3 = ""  # blank where a term cap refuses the sum
        if g.is_regular(3):
            try:
                mv = sine_model(g, fx.rotation, 3, 3, max_terms=cap)
                sine = f"{abs(mv.value):8.3f}"
            except TermCapExceeded:
                pass
            try:
                pl3 = f"{chromatic(line_graph(g), 3, max_terms=cap):8d}"
            except TermCapExceeded:
                pass
        print(
            f"{name:12s} {g.num_vertices:3d} {g.num_edges:3d} {T(2, 2):8d} "
            f"{flow:8d} {chrom:8d} {sine:>8s} {pl3:>8s}"
        )


if __name__ == "__main__":
    main()
