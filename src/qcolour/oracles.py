"""Independent brute-force ground truth for the identity checks.

The Tutte polynomial is held as its subset histogram, the number of edge
subsets of each size and rank (no deletion-contraction): the ranks of all
2^|E| subsets come from one pass over the subset lattice, one edge at a
time, holding a component label per vertex for 2^(|E|-1) subsets.  The
caller's term cap bounds that pass, up to a fixed ceiling of 2^22 subsets
that keeps the labels in memory.  T(x, y), the Potts count and the flow
enumerator are exact sums over the histogram.
Flows and tensions are listed explicitly from a BFS spanning forest: a flow
is fixed by its values on the |E|-|V|+k edges outside the forest (k
components), a tension by a vertex colouring with each component's root at
0, so the term caps count q^(|E|-|V|+k) and q^(|V|-k) candidates, every one
of them kept.  The sets come in blocks; ``enumerate_flows`` and
``enumerate_tensions`` join and sort them, for the only callers that want
the rows in order: the benchmark's oracle-sweep and the tests.

Weight enumerators depend on a set only through its colour compositions
(how many coordinates take each colour).  A ``CompositionHistogram`` holds
each distinct composition with its multiplicity: each row's colour counts
come from one bincount and fold into one integer key, and one 1-D unique
groups the keys.  ``flow_compositions`` and ``tension_compositions`` group
block by block as the set is listed and merge the small per-block
histograms, so the set is never joined or sorted; each enumerator that the
battery and the command line read is an evaluation of a histogram, taken
under the document's orientation.  ``complete_weight_enum`` groups the rows
it is given the same way; ``hamming_weight_enum`` counts zeros row by row,
which is cheaper than grouping.
``monochrome_polynomial`` likewise evaluates one histogram of
monochromatic-edge counts over all vertex colourings.  These deliberately
share no code path with the model evaluators they verify.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .enumeration import (
    DEFAULT_MAX_TERMS,
    coboundary_chunk,
    count_terms,
    index_blocks,
)
from .graphs import Multigraph, Orientation, default_orientation, rank
from .groups import Group, cyclic_group

__all__ = [
    "TuttePolynomial",
    "ConsistencyError",
    "tutte",
    "tutte_terms",
    "flow_terms",
    "tension_terms",
    "flow_polynomial",
    "flow_count",
    "chromatic",
    "enumerate_flows",
    "enumerate_tensions",
    "CompositionHistogram",
    "flow_compositions",
    "tension_compositions",
    "count_polynomial",
    "hamming_weight_enum",
    "hwe_coefficients",
    "complete_weight_enum",
    "monochrome_histogram",
    "monochrome_polynomial",
]


class ConsistencyError(RuntimeError):
    """Two supposedly-equal oracle routes disagreed."""


@dataclass(frozen=True)
class TuttePolynomial:
    """The Tutte polynomial held as its subset histogram: ``subsets`` maps
    (|A|, r(A)) to the number of edge subsets A of that size and rank.

    T(x, y), the Potts count and the flow enumerator are exact sums over
    the histogram; ``coeffs`` maps (i, j) to the x^i y^j coefficient."""

    subsets: dict[tuple[int, int], int]
    num_vertices: int
    num_edges: int
    full_rank: int

    def __call__(self, x, y):
        """sum over A of (x-1)^(r(E)-r(A)) (y-1)^(|A|-r(A))."""
        return sum(
            c * (x - 1) ** (self.full_rank - r) * (y - 1) ** (a - r)
            for (a, r), c in self.subsets.items()
        )

    def potts(self, q, t):
        """sum over A of q^k(A) (t-1)^|A|: the sum over vertex q-colourings
        of t^(number of monochromatic edges), a loop always monochromatic."""
        return sum(
            c * q ** (self.num_vertices - r) * (t - 1) ** a
            for (a, r), c in self.subsets.items()
        )

    def flow_enumerator(self, q, s):
        """sum over A of (s-1)^(|E|-|A|) q^(|A|-r(A)): the sum over the flows
        with values in a group of order q of s^(number of edges valued 0)."""
        return sum(
            c * (s - 1) ** (self.num_edges - a) * q ** (a - r)
            for (a, r), c in self.subsets.items()
        )

    @functools.cached_property
    def coeffs(self) -> dict[tuple[int, int], int]:
        """T(x, y) expanded binomially in x and y, zero coefficients dropped."""
        coeffs: dict[tuple[int, int], int] = {}
        for (a, r), c in self.subsets.items():
            i, j = self.full_rank - r, a - r
            for u in range(i + 1):
                for v in range(j + 1):
                    sign = (-1) ** ((i - u) + (j - v))
                    term = c * math.comb(i, u) * math.comb(j, v) * sign
                    coeffs[u, v] = coeffs.get((u, v), 0) + term
        return {k: v for k, v in coeffs.items() if v != 0}

    def __str__(self):
        def term(i, j, c):
            parts = []
            if c != 1 or (i == 0 and j == 0):
                parts.append(str(c))
            if i:
                parts.append("x" if i == 1 else f"x^{i}")
            if j:
                parts.append("y" if j == 1 else f"y^{j}")
            return "*".join(parts)

        items = sorted(self.coeffs.items(), key=lambda kv: (-kv[0][0], -kv[0][1]))
        return " + ".join(term(i, j, c) for (i, j), c in items) or "0"


# the subset pass holds 2^(|E|-1)*|V| label bytes, so however large the
# caller's cap, it stops at 2^22 subsets (200 MB of labels at 100 vertices)
_SUBSET_CEILING = 1 << 22


def tutte_terms(g: Multigraph, max_terms: int = DEFAULT_MAX_TERMS) -> int:
    """The 2^|E| subsets that ``tutte`` lists, raising TermCapExceeded, as
    ``tutte`` does before it starts, over min(max_terms, 2^22)."""
    return count_terms(2, g.num_edges, min(max_terms, _SUBSET_CEILING))


def flow_terms(g: Multigraph, q: int, max_terms: int = DEFAULT_MAX_TERMS) -> int:
    """The q^(|E|-r(E)) flows listed over a group of order q, raising
    TermCapExceeded, as the listing does before it starts, over max_terms."""
    return count_terms(q, g.num_edges - rank(g), max_terms)


def tension_terms(g: Multigraph, q: int, max_terms: int = DEFAULT_MAX_TERMS) -> int:
    """The q^r(E) tensions listed, as ``flow_terms``."""
    return count_terms(q, rank(g), max_terms)


def tutte(g: Multigraph, max_terms: int = DEFAULT_MAX_TERMS) -> TuttePolynomial:
    """The subset histogram: how many edge subsets A have each size |A| and
    rank r(A); more than min(max_terms, 2^22) subsets raise
    TermCapExceeded.

    A subset A is the bitmask of its edges.  The subsets holding edge e are
    those of edges 0..e-1 with e added, so rows [2^e, 2^(e+1)) of the rank,
    size and vertex component-label arrays are filled from rows [0, 2^e):
    edge (u, v) raises the rank where u and v carry different labels, then
    relabels v's component with u's label.  The last edge needs no labels,
    so the memory is 2^(|E|-1)*|V| label bytes plus the 2^|E| ranks and
    sizes.
    """
    m, n = g.num_edges, g.num_vertices
    tutte_terms(g, max_terms)
    labels = np.empty((1 << max(m - 1, 0), n), dtype=np.min_scalar_type(max(n - 1, 0)))
    labels[0] = np.arange(n)
    ranks = np.zeros(1 << m, dtype=np.intp)
    sizes = np.zeros(1 << m, dtype=np.intp)
    for e, (u, v) in enumerate(g.edges):
        h = 1 << e
        lab = labels[:h]
        ranks[h : 2 * h] = ranks[:h] + (lab[:, u] != lab[:, v])
        sizes[h : 2 * h] = sizes[:h] + 1
        if e < m - 1:
            labels[h : 2 * h] = np.where(lab == lab[:, v : v + 1], lab[:, u : u + 1], lab)
    # hist[a*(n+1) + r] = #{A : |A| = a, r(A) = r}
    hist = np.bincount(sizes * (n + 1) + ranks)
    subsets = {divmod(int(k), n + 1): int(hist[k]) for k in np.flatnonzero(hist)}
    return TuttePolynomial(subsets, n, m, int(ranks[-1]))


def _spanning_forest(g: Multigraph):
    """BFS spanning forest: one root per component, and every other vertex in
    BFS order with the half-edge, at that vertex, of the edge to its parent."""
    seen = [False] * g.num_vertices
    roots, order = [], []
    for r in range(g.num_vertices):
        if seen[r]:
            continue
        seen[r] = True
        roots.append(r)
        queue = [r]
        for u in queue:
            for e, end in g.halfedges_at(u):
                w = g.endpoint(e, 1 - end)
                if not seen[w]:
                    seen[w] = True
                    order.append((w, (e, 1 - end)))
                    queue.append(w)
    return roots, order


def _flow_blocks(g: Multigraph, group: Group, orient: Orientation, max_terms: int):
    """Yield (C, |E|) blocks of flows: the non-tree edges take every value,
    and each tree edge is then set, from the leaves inward, so that the
    boundary at its child vertex is zero.  A root's boundary is then zero
    too, because the boundaries of a component sum to zero."""
    _roots, order = _spanning_forest(g)
    free = sorted(set(range(g.num_edges)) - {e for _v, (e, _end) in order})
    flow_terms(g, group.q, max_terms)
    for chunk in index_blocks(group.q, len(free)):
        Y = np.zeros((chunk.shape[0], g.num_edges), dtype=np.int64)
        Y[:, free] = chunk
        for v, (parent, parent_end) in reversed(order):
            # the parent edge still reads 0, so this is the rest's boundary
            acc = np.zeros(chunk.shape[0], dtype=np.int64)
            for e, end in g.halfedges_at(v):
                col = Y[:, e]
                if orient.sigma(e, end) == -1:
                    col = group.neg[col]
                acc = group.add[acc, col]
            if orient.sigma(parent, parent_end) == 1:
                acc = group.neg[acc]
            Y[:, parent] = acc
        yield Y


def _tension_blocks(g: Multigraph, group: Group, orient: Orientation, max_terms: int):
    """Yield (C, |E|) blocks of tensions: the coboundaries of the vertex
    colourings with each component's root at 0, which are pairwise distinct
    and give every tension once."""
    roots, _order = _spanning_forest(g)
    free = sorted(set(range(g.num_vertices)) - set(roots))
    tension_terms(g, group.q, max_terms)
    for chunk in index_blocks(group.q, len(free)):
        X = np.zeros((chunk.shape[0], g.num_vertices), dtype=np.int64)
        X[:, free] = chunk
        yield coboundary_chunk(g, orient, group, X)


def _sorted_rows(rows: np.ndarray) -> np.ndarray:
    """Rows in lexicographic order, first coordinate most significant."""
    if rows.shape[1] == 0:
        return rows
    return rows[np.lexsort(rows.T[::-1])]


def enumerate_flows(
    g: Multigraph,
    group: Group,
    orient: Orientation | None = None,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> np.ndarray:
    """All edge colourings with zero boundary, as an (n, |E|) index array in
    lexicographic order; q^(|E|-|V|+k) rows for k components."""
    orient = orient or default_orientation(g)
    blocks = list(_flow_blocks(g, group, orient, max_terms))
    return _sorted_rows(np.concatenate(blocks, axis=0))


def enumerate_tensions(
    g: Multigraph,
    group: Group,
    orient: Orientation | None = None,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> np.ndarray:
    """All coboundaries of vertex colourings, in lexicographic order;
    q^(|V|-k) rows for k components."""
    orient = orient or default_orientation(g)
    blocks = list(_tension_blocks(g, group, orient, max_terms))
    return _sorted_rows(np.concatenate(blocks, axis=0))


def _group_compositions(counts: np.ndarray, length: int, mults=None):
    """The distinct rows of ``counts`` in lexicographic order (colour 0 most
    significant), each with its number of occurrences, or with the sum of
    its ``mults`` entries when given.

    Each row folds into one integer key, colour 0 most significant, so key
    order is composition order; a key that could pass 2^63 is first
    replaced by its rank among the keys, which keeps that order."""
    key, span = np.zeros(counts.shape[0], dtype=np.int64), 1
    for c in range(counts.shape[1]):
        if span * (length + 1) > 2**63:
            uniq, key = np.unique(key, return_inverse=True)
            span = len(uniq)
        key = key * (length + 1) + counts[:, c]
        span *= length + 1
    _, starts, inverse = np.unique(key, return_index=True, return_inverse=True)
    total = np.zeros(len(starts), dtype=np.int64)
    np.add.at(total, inverse, 1 if mults is None else mults)
    return counts[starts], total


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class CompositionHistogram:
    """The colour compositions of a set of rows with their multiplicities.

    ``comps[i, c]`` is how many coordinates take colour c in the i-th
    distinct composition, ``mults[i]`` how many rows have it; compositions
    are in lexicographic order, colour 0 most significant.  ``length`` is
    the row length and ``rows`` the number of rows.  Both arrays are
    read-only.  Every weight enumerator of the set is a function of this
    histogram alone."""

    comps: np.ndarray
    mults: np.ndarray
    length: int
    rows: int

    @classmethod
    def of_rows(cls, vectors, q: int) -> "CompositionHistogram":
        """Group rows with values in range(q); any other value raises
        ValueError."""
        rows = np.asarray(vectors, dtype=np.int64)
        if rows.size == 0 and rows.ndim < 2:
            rows = rows.reshape(0, 0)
        num_rows, length = rows.shape
        if rows.size and (rows.min() < 0 or rows.max() >= q):
            raise ValueError(f"row values must lie in range({q})")
        # counts[i, c]: how many coordinates of row i take colour c
        counts = np.bincount(
            (rows + q * np.arange(num_rows)[:, None]).ravel(), minlength=num_rows * q
        ).reshape(num_rows, q)
        comps, mults = _group_compositions(counts, length)
        return cls(_read_only(comps), _read_only(mults), length, num_rows)

    @classmethod
    def merged(cls, parts) -> "CompositionHistogram":
        """One histogram of the union of the parts' row sets, which must
        share their row length and number of colours; as grouping the
        concatenated rows, without concatenating them."""
        parts = list(parts)
        length = parts[0].length
        comps, mults = _group_compositions(
            np.concatenate([p.comps for p in parts]),
            length,
            np.concatenate([p.mults for p in parts]),
        )
        rows = sum(p.rows for p in parts)
        return cls(_read_only(comps), _read_only(mults), length, rows)

    @functools.cached_property
    def _lists(self) -> tuple[list[list[int]], list[int]]:
        """The compositions and multiplicities as Python ints, for exact
        products."""
        return self.comps.tolist(), self.mults.tolist()

    def hwe_coefficients(self) -> list[int]:
        """Entry w counts the rows with exactly w coordinates at colour 0."""
        coeffs = [0] * (self.length + 1)
        for zeros, m in zip(self.comps[:, 0].tolist(), self.mults.tolist()):
            coeffs[zeros] += m
        return coeffs

    def hamming_weight_enum(self, s):
        """As the module's ``hamming_weight_enum`` of the rows."""
        return count_polynomial(self.hwe_coefficients(), s)

    def complete_weight_enum(self, weights):
        """As the module's ``complete_weight_enum`` of the rows; ``weights``
        has one entry per colour."""
        if len(weights) != self.comps.shape[1]:
            raise ValueError(
                f"{len(weights)} weights for {self.comps.shape[1]} colours"
            )
        if self.rows == 0:
            return 0
        comps, mults = self._lists
        exact = all(isinstance(w, (int, np.integer, Fraction)) for w in weights)
        if exact:
            ws = [w if isinstance(w, Fraction) else int(w) for w in weights]
        else:
            zs = [complex(w) for w in weights]
            is_complex = any(isinstance(w, (complex, np.complexfloating)) for w in weights)
            ws = zs if is_complex else [z.real for z in zs]
        if exact or not np.isfinite(zs).all():
            # each composition multiplied out in the weights' own type, as a
            # row's product would be: exact for int and Fraction weights, and
            # complex inf ** n would overflow in Python
            return sum(
                m * math.prod(ws[c] for c, n in enumerate(comp) for _ in range(n))
                for comp, m in zip(comps, mults)
            )
        ratios = [x.as_integer_ratio() for z in zs for x in (z.real, z.imag)]
        den = max(d for _n, d in ratios)
        parts = [n * (den // d) for n, d in ratios]
        # each colour's powers, as Gaussian integers over den, up to its
        # largest count in the histogram
        powers = [[(1, 0)] for _ in zs]
        tops = np.max(self.comps, axis=0).tolist()
        for row, a, b, top in zip(powers, parts[::2], parts[1::2], tops):
            for _ in range(top):
                x, y = row[-1]
                row.append((x * a - y * b, x * b + y * a))
        # exact products, so the order of multiplication does not matter
        re = im = 0
        for comp, m in zip(comps, mults):
            x, y = m, 0
            for c, n in enumerate(comp):
                if n:
                    a, b = powers[c][n]
                    x, y = x * a - y * b, x * b + y * a
            re, im = re + x, im + y
        scale = den**self.length
        return complex(re / scale, im / scale) if is_complex else re / scale


def flow_compositions(
    g: Multigraph,
    group: Group,
    orient: Orientation | None = None,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> CompositionHistogram:
    """The composition histogram of the flows under ``orient`` (the
    default orientation when None), grouped block by block as they are
    listed, never concatenated or sorted."""
    orient = orient or default_orientation(g)
    return CompositionHistogram.merged(
        CompositionHistogram.of_rows(Y, group.q)
        for Y in _flow_blocks(g, group, orient, max_terms)
    )


def tension_compositions(
    g: Multigraph,
    group: Group,
    orient: Orientation | None = None,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> CompositionHistogram:
    """The composition histogram of the tensions, as ``flow_compositions``."""
    orient = orient or default_orientation(g)
    return CompositionHistogram.merged(
        CompositionHistogram.of_rows(Y, group.q)
        for Y in _tension_blocks(g, group, orient, max_terms)
    )


def flow_count(g: Multigraph, group: Group, max_terms: int = DEFAULT_MAX_TERMS) -> int:
    """Number of nowhere-zero flows with values in the given group.
    Reversing an edge negates its value, so the count is the same under
    every orientation; the default one is listed."""
    blocks = _flow_blocks(g, group, default_orientation(g), max_terms)
    return sum(int(Y.all(axis=1).sum()) for Y in blocks)


def flow_polynomial(
    g: Multigraph,
    q: int,
    cross_check: bool = True,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> int:
    """Number of nowhere-zero flows over a group of order q, the flow
    enumerator of the subset histogram at s = 0, cross-checked by direct
    enumeration when within cap.  ``max_terms`` caps both."""
    T = tutte(g, max_terms)
    value = T.flow_enumerator(q, 0)
    if cross_check and q ** (g.num_edges - T.full_rank) <= max_terms:
        direct = flow_count(g, cyclic_group(q), max_terms=max_terms)
        if direct != value:
            raise ConsistencyError(
                f"flow enumeration gives {direct}, Tutte route gives {value}"
            )
    return value


def chromatic(
    g: Multigraph,
    q: int,
    cross_check: bool = True,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> int:
    """Number of proper vertex q-colourings, the Potts count of the subset
    histogram at t = 0, cross-checked when within cap by brute force: the
    colourings with no monochromatic edge, the monochrome polynomial at
    t = 0 (a loop is always monochromatic, so a graph with one has none).
    ``max_terms`` caps both."""
    value = tutte(g, max_terms).potts(q, 0)
    if cross_check and q**g.num_vertices <= max_terms:
        direct = monochrome_polynomial(g, q, 0, max_terms)
        if direct != value:
            raise ConsistencyError(
                f"proper-colouring count gives {direct}, Tutte route gives {value}"
            )
    return value


def count_polynomial(counts, t):
    """sum over i of counts[i] * t^i, skipping empty bins; exact for int
    and Fraction t, and 0^0 is 1."""
    return sum(c * t**i for i, c in enumerate(counts) if c)


def hamming_weight_enum(vectors, s, length: int):
    """sum over the set of s^(length - hamming weight); exact for int s."""
    return count_polynomial(hwe_coefficients(vectors, length), s)


def hwe_coefficients(vectors, length: int) -> list[int]:
    """Coefficient vector of the Hamming weight enumerator: entry w counts
    vectors with exactly w zero coordinates.  Every vector must have
    ``length`` coordinates."""
    rows = np.asarray(vectors, dtype=np.int64)
    if len(rows) == 0:
        return [0] * (length + 1)
    if rows.shape[1] != length:
        raise ValueError(f"rows have {rows.shape[1]} coordinates, expected {length}")
    zeros = length - np.count_nonzero(rows, axis=1)
    return np.bincount(zeros, minlength=length + 1).tolist()


def complete_weight_enum(vectors, weights):
    """sum over the set of the product of per-coordinate weights.

    The rows are grouped by colour composition (how many coordinates take
    each colour), so the sum is over compositions of count * prod w_c^n_c,
    in lexicographic composition order.  A row value outside
    range(len(weights)) raises ValueError.
    Int and Fraction weights give the exact value.  Float and complex
    weights are exact binary fractions over one power-of-two denominator D,
    so the sum is taken in Gaussian integers over D^length and rounded once:
    a float for real weights, a complex for complex ones.
    """
    hist = CompositionHistogram.of_rows(vectors, len(weights))
    return hist.complete_weight_enum(weights)


def monochrome_histogram(
    g: Multigraph, q: int, max_terms: int = DEFAULT_MAX_TERMS
) -> tuple[int, ...]:
    """Entry i counts the vertex q-colourings with exactly i monochromatic
    edges, from one walk over all q^|V| of them."""
    count_terms(q, g.num_vertices, max_terms)
    hist = np.zeros(g.num_edges + 1, dtype=np.int64)
    for chunk in index_blocks(q, g.num_vertices):
        # one contiguous row per vertex, in the narrowest dtypes that fit
        colours = chunk.T.astype(np.min_scalar_type(max(q - 1, 0)))
        mono = np.zeros(chunk.shape[0], dtype=np.min_scalar_type(g.num_edges))
        for u, v in g.edges:
            mono += colours[u] == colours[v]
        hist += np.bincount(mono, minlength=g.num_edges + 1)
    return tuple(hist.tolist())


def monochrome_polynomial(
    g: Multigraph, q: int, t, max_terms: int = DEFAULT_MAX_TERMS
):
    """sum over vertex q-colourings of t^(number of monochromatic edges)."""
    return count_polynomial(monochrome_histogram(g, q, max_terms), t)
