"""The fixture corpus used by the verify battery and the test suite: each
member is a ``GraphDocument`` with a rotation and no orientation.

Planar fixtures carry clockwise rotations read off an explicit plane
drawing, which makes all proper edge colourings share one sign; that
property is asserted by fixtures, never computed.  Rotations for the
non-planar members are the default lexicographic orders.
"""

from __future__ import annotations

from .graphio import GraphDocument
from .graphs import Multigraph, RotationSystem, default_rotation

__all__ = ["CORPUS"]


def _fx(n, edges, rotation=None, pfaffian=False) -> GraphDocument:
    g = Multigraph(n, tuple(edges))
    rot = RotationSystem(tuple(tuple(r) for r in rotation)) if rotation else default_rotation(g)
    rot.validate(g)
    return GraphDocument(g, None, rot, pfaffian)


def _build_corpus() -> dict[str, GraphDocument]:
    out = {}
    out["single_edge"] = _fx(2, [(0, 1)], [[(0, 0)], [(0, 1)]], pfaffian=True)
    out["single_loop"] = _fx(1, [(0, 0)], [[(0, 0), (0, 1)]], pfaffian=True)
    out["digon"] = _fx(
        2,
        [(0, 1), (0, 1)],
        [[(0, 0), (1, 0)], [(1, 1), (0, 1)]],
        pfaffian=True,
    )
    out["triangle"] = _fx(
        3,
        [(0, 1), (1, 2), (2, 0)],
        [[(2, 1), (0, 0)], [(0, 1), (1, 0)], [(1, 1), (2, 0)]],
        pfaffian=True,
    )
    out["c4"] = _fx(
        4,
        [(0, 1), (1, 2), (2, 3), (3, 0)],
        [[(0, 0), (3, 1)], [(1, 0), (0, 1)], [(2, 0), (1, 1)], [(3, 0), (2, 1)]],
        pfaffian=True,
    )
    out["theta"] = _fx(
        2,
        [(0, 1), (0, 1), (0, 1)],
        [[(0, 0), (1, 0), (2, 0)], [(2, 1), (1, 1), (0, 1)]],
        pfaffian=True,
    )
    # K4 drawn with vertex 3 in the centre of triangle 0-1-2
    out["k4"] = _fx(
        4,
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
        [
            [(1, 0), (2, 0), (0, 0)],
            [(0, 1), (4, 0), (3, 0)],
            [(3, 1), (5, 0), (1, 1)],
            [(5, 1), (4, 1), (2, 1)],
        ],
        pfaffian=True,
    )
    # triangular prism: outer triangle 0-1-2, inner triangle 3-4-5
    out["prism"] = _fx(
        6,
        [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)],
        [
            [(2, 1), (6, 0), (0, 0)],
            [(0, 1), (7, 0), (1, 0)],
            [(1, 1), (8, 0), (2, 0)],
            [(5, 1), (3, 0), (6, 1)],
            [(7, 1), (3, 1), (4, 0)],
            [(8, 1), (4, 1), (5, 0)],
        ],
        pfaffian=True,
    )
    out["k33"] = _fx(6, [(u, v) for u in (0, 1, 2) for v in (3, 4, 5)])
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    out["petersen"] = _fx(10, outer + spokes + inner)
    return out


CORPUS: dict[str, GraphDocument] = _build_corpus()
