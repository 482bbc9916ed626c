#!/usr/bin/env python3
"""Regenerate the graphs/*.g fixture files from the corpus module."""

import pathlib

from qcolour.corpus import CORPUS
from qcolour.graphio import save_graph

OUT = pathlib.Path(__file__).resolve().parent.parent / "graphs"


def main():
    OUT.mkdir(exist_ok=True)
    for name, doc in CORPUS.items():
        save_graph(doc, OUT / f"{name}.g")
        print(f"wrote {OUT / (name + '.g')}")


if __name__ == "__main__":
    main()
