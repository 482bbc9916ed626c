"""Term caps, and chunked exhaustive enumeration over colouring spaces.

``count_terms`` caps the radix^length configurations that the oracles
list; a model sum caps the planned cost of its contraction alone
(``models.eliminate``), and ``signed.factorization_sign_sum`` the rows of
each step of its frontier.  Configurations of
range(radix)^length are produced in mixed-radix ascending order (first
coordinate most significant) in blocks read off numpy's index grid, so a
few times 10^7 of them stay tractable in numpy without materializing the
whole space.  ``DEFAULT_BLOCK``, read at each call, is the one block size:
a block has at most max(DEFAULT_BLOCK, radix) rows.  No model sum
uses the blocks or the chunk operators; the model sums contract instead.
The oracles enumerate only free coordinates (the edges outside a spanning
forest, the non-root vertices) and apply ``coboundary_chunk``;
``boundary_chunk`` remains for the tests' scanning reference.
"""

from __future__ import annotations

import numpy as np

__all__ = ["TermCapExceeded", "index_blocks", "boundary_chunk", "coboundary_chunk"]

DEFAULT_MAX_TERMS = 10**8
DEFAULT_BLOCK = 1 << 17


class TermCapExceeded(RuntimeError):
    def __init__(self, estimate: int, cap: int):
        super().__init__(f"enumeration needs {estimate} terms, cap is {cap}")
        self.estimate = estimate
        self.cap = cap


def count_terms(radix: int, length: int, cap: int) -> int:
    est = radix**length
    if est > cap:
        raise TermCapExceeded(est, cap)
    return est


def index_blocks(radix: int, length: int):
    """Yield (C, length) int64 arrays covering range(radix)^length in order.

    A block's trailing coordinates are as many as fit in ``DEFAULT_BLOCK``
    rows (at least one) and come from numpy's index grid; its leading ones
    are one prefix from ``np.ndindex``.  A space of one block is the grid's
    transpose, so each coordinate is a contiguous row of ``block.T``."""
    inner = min(length, 1)
    while inner < length and radix ** (inner + 1) <= DEFAULT_BLOCK:
        inner += 1
    grid = np.indices((radix,) * inner, dtype=np.int64).reshape(inner, radix**inner)
    outer = length - inner
    if outer == 0:
        yield grid.T
        return
    for prefix in np.ndindex((radix,) * outer):
        arr = np.empty((grid.shape[1], length), dtype=np.int64)
        arr[:, :outer] = prefix
        arr[:, outer:] = grid.T
        yield arr


def boundary_chunk(g, orient, group, Y: np.ndarray) -> np.ndarray:
    """Boundary vectors for a (C, |E|) chunk of edge colourings: (C, |V|)."""
    C = Y.shape[0]
    out = np.zeros((C, g.num_vertices), dtype=np.int64)
    for v in range(g.num_vertices):
        acc = out[:, v]
        for e, end in g.halfedges_at(v):
            col = Y[:, e]
            if orient.sigma(e, end) == -1:
                col = group.neg[col]
            acc = group.add[acc, col]
        out[:, v] = acc
    return out


def coboundary_chunk(g, orient, group, X: np.ndarray) -> np.ndarray:
    """Coboundary vectors for a (C, |V|) chunk of vertex colourings: (C, |E|).

    Each vertex's colours are read from one contiguous row and each edge's
    values written to one, so the block is built edge-major and returned as
    its (C, |E|) transpose."""
    cols = np.ascontiguousarray(X.T)  # row v: the colours of vertex v
    out = np.zeros((g.num_edges, X.shape[0]), dtype=np.int64)
    for e in range(g.num_edges):
        if g.is_loop(e):
            continue
        out[e] = group.sub[cols[orient.head(g, e)], cols[orient.tail(g, e)]]
    return out.T
