"""Independent brute-force ground truth for the identity checks.

The Tutte polynomial is held as its subset histogram, the number of edge
subsets of each size and rank (no deletion-contraction): the ranks of all
2^|E| subsets come from one pass over the subset lattice, one edge at a
time, holding for each vertex one contiguous row of component labels over
2^(|E|-1) subsets.  The caller's term cap bounds that pass, up to a fixed
ceiling of 2^22 subsets that keeps the labels in memory, and is priced on
every call before a bounded per-process memo of finished passes is read:
equal graphs share one entry, so one immutable ``TuttePolynomial`` serves
them all.  T(x, y), the Potts count and the flow enumerator are exact sums
over the histogram.
Flows and tensions are listed explicitly from a BFS spanning forest: a flow
is fixed by its values on the |E|-|V|+k edges outside the forest (k
components), a tension by a vertex colouring with each component's root at
0, so the term caps count q^(|E|-|V|+k) and q^(|V|-k) candidates, every one
of them kept.  The sets come in blocks; ``enumerate_flows`` and
``enumerate_tensions`` join them in listing order.

Weight enumerators depend on a set only through its colour compositions
(how many coordinates take each colour).  A ``CompositionHistogram`` holds
each distinct composition with its multiplicity: each row's integer key is
gathered from its values, one run of colours at a time and re-ranked between
runs, and one argsort of the keys groups the rows, whose per-colour counts
are taken from one row per group.  ``flow_compositions`` and
``tension_compositions`` group block by block as the set is listed and
merge the small per-block histograms, so the set is never joined or
sorted; each enumerator that the battery and the command line read is an
evaluation of a histogram, taken under the document's orientation.
``complete_weight_enum`` groups the rows it is given the same way;
``hamming_weight_enum`` counts zeros row by row, which is cheaper than
grouping.  The complete enumerator takes a stack of
weight rows, and a single row is a stack of one: the histogram keeps each
composition's nonzero colour counts as Python ints, and for each row builds
every colour's powers and multiplies over those counts alone, so a check
that draws several weights reads its histogram once, not once per draw.
``monochrome_polynomial`` likewise evaluates one histogram of
monochromatic-edge counts over all vertex colourings, priced on every call
and kept in a bounded memo per graph and q.  These deliberately
share no code path with the model evaluators they verify.
"""

from __future__ import annotations

import cmath
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
    "flow_composition_terms",
    "tension_composition_terms",
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
    """The Tutte polynomial held as its subset histogram: ``subsets`` pairs
    each (|A|, r(A)), in increasing order, with the number of edge subsets
    A of that size and rank.

    T(x, y), the Potts count and the flow enumerator are exact sums over
    the histogram; ``coeffs`` maps (i, j) to the x^i y^j coefficient.
    ``tutte`` shares one value between equal graphs, so it is immutable:
    each read of ``coeffs`` builds a fresh dict."""

    subsets: tuple[tuple[tuple[int, int], int], ...]
    num_vertices: int
    num_edges: int
    full_rank: int

    def __call__(self, x, y):
        """sum over A of (x-1)^(r(E)-r(A)) (y-1)^(|A|-r(A))."""
        return sum(
            c * (x - 1) ** (self.full_rank - r) * (y - 1) ** (a - r)
            for (a, r), c in self.subsets
        )

    def potts(self, q, t):
        """sum over A of q^k(A) (t-1)^|A|: the sum over vertex q-colourings
        of t^(number of monochromatic edges), a loop always monochromatic."""
        return sum(
            c * q ** (self.num_vertices - r) * (t - 1) ** a
            for (a, r), c in self.subsets
        )

    def flow_enumerator(self, q, s):
        """sum over A of (s-1)^(|E|-|A|) q^(|A|-r(A)): the sum over the flows
        with values in a group of order q of s^(number of edges valued 0)."""
        return sum(
            c * (s - 1) ** (self.num_edges - a) * q ** (a - r)
            for (a, r), c in self.subsets
        )

    @property
    def coeffs(self) -> dict[tuple[int, int], int]:
        """T(x, y) expanded binomially in x and y, zero coefficients dropped."""
        coeffs: dict[tuple[int, int], int] = {}
        for (a, r), c in self.subsets:
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
# finished subset passes and monochrome histograms kept per process, keyed
# by the graph (and q), so equal graphs share an entry
_TUTTE_MEMO_SIZE = 64
_MONOCHROME_MEMO_SIZE = 64


def tutte_terms(g: Multigraph, max_terms: int = DEFAULT_MAX_TERMS) -> int:
    """The 2^|E| subsets that ``tutte`` lists, raising TermCapExceeded, as
    ``tutte`` does before it starts, over min(max_terms, 2^22)."""
    return count_terms(2, g.num_edges, min(max_terms, _SUBSET_CEILING))


def flow_composition_terms(
    g: Multigraph, q: int, max_terms: int = DEFAULT_MAX_TERMS
) -> int:
    """The q^(|E|-r(E)+1) entries, q per flow, that bound the dense
    (compositions, q) table of ``flow_compositions``, raising
    TermCapExceeded, as it does before it lists any flow, over max_terms."""
    return count_terms(q, g.num_edges - rank(g) + 1, max_terms)


def tension_composition_terms(
    g: Multigraph, q: int, max_terms: int = DEFAULT_MAX_TERMS
) -> int:
    """The q^(r(E)+1) entries of the tensions, as
    ``flow_composition_terms``."""
    return count_terms(q, rank(g) + 1, max_terms)


def tutte(g: Multigraph, max_terms: int = DEFAULT_MAX_TERMS) -> TuttePolynomial:
    """The subset histogram: how many edge subsets A have each size |A| and
    rank r(A); more than min(max_terms, 2^22) subsets raise
    TermCapExceeded.  The cap is priced on every call, before the memo of
    finished passes is read, so a memoized graph is refused under a smaller
    cap just as a new one is; equal graphs get the same immutable value.

    A subset A is the bitmask of its edges.  The subsets holding edge e are
    those of edges 0..e-1 with e added, so entries [2^e, 2^(e+1)) of the
    size-and-rank keys and of each vertex's row of component labels are
    filled from entries [0, 2^e): edge (u, v) raises the size, and the rank
    where rows u and v differ, then copies the rows, relabelling v's
    component with u's label in place.  The last edge needs no labels, so
    the memory is 2^(|E|-1)*|V| label bytes plus the 2^|E| keys.
    """
    tutte_terms(g, max_terms)
    return _subset_pass(g)


@functools.lru_cache(maxsize=_TUTTE_MEMO_SIZE)
def _subset_pass(g: Multigraph) -> TuttePolynomial:
    """``tutte``'s pass, unpriced; its caller prices it."""
    m, n = g.num_edges, g.num_vertices
    # labels[x, A]: the component label of vertex x under subset A, one
    # contiguous row per vertex
    labels = np.empty((n, 1 << max(m - 1, 0)), dtype=np.min_scalar_type(max(n - 1, 0)))
    labels[:, 0] = np.arange(n)
    # keys[A] = |A|*(n+1) + r(A), so that one bincount gives the histogram
    keys = np.zeros(1 << m, dtype=np.intp)
    for e, (u, v) in enumerate(g.edges):
        h = 1 << e
        lab = labels[:, :h]
        keys[h : 2 * h] = keys[:h] + (lab[u] != lab[v]) + (n + 1)
        if e < m - 1:
            new = labels[:, h : 2 * h]
            new[...] = lab
            np.copyto(new, lab[u], where=lab == lab[v])
    hist = np.bincount(keys)
    subsets = tuple((divmod(int(k), n + 1), int(hist[k])) for k in np.flatnonzero(hist))
    return TuttePolynomial(subsets, n, m, int(keys[-1]) % (n + 1))


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
    count_terms(group.q, len(free), max_terms)
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
    count_terms(group.q, len(free), max_terms)
    for chunk in index_blocks(group.q, len(free)):
        X = np.zeros((chunk.shape[0], g.num_vertices), dtype=np.int64)
        X[:, free] = chunk
        yield coboundary_chunk(g, orient, group, X)


def enumerate_flows(
    g: Multigraph,
    group: Group,
    orient: Orientation | None = None,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> np.ndarray:
    """All edge colourings with zero boundary, as an (n, |E|) index array in
    listing order, not sorted; q^(|E|-|V|+k) rows for k components."""
    orient = orient or default_orientation(g)
    return np.concatenate(list(_flow_blocks(g, group, orient, max_terms)), axis=0)


def enumerate_tensions(
    g: Multigraph,
    group: Group,
    orient: Orientation | None = None,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> np.ndarray:
    """All coboundaries of vertex colourings, in listing order, not sorted;
    q^(|V|-k) rows for k components."""
    orient = orient or default_orientation(g)
    return np.concatenate(list(_tension_blocks(g, group, orient, max_terms)), axis=0)


def _composition_groups(run_key, n: int, q: int, length: int):
    """Sort n items by their colour compositions: the order that lists
    equal compositions together in lexicographic order (colour 0 most
    significant), and where each group starts in it.

    A composition's key reads its counts as digits in base length+1,
    colour 0 most significant, so key order is composition order.  The key
    is built one run of colours [lo, hi) at a time: ``run_key(lo, hi,
    powers)`` gives each item's counts of those colours folded with
    ``powers``, colour lo most significant, and a run is as long as the key
    stays below 2^63.  Between runs the key is replaced by its rank among
    the keys, which keeps that order and narrows its span to the number of
    distinct keys (at least 1, so that a run over no items still stops)."""
    base = length + 1
    key, span, lo = np.zeros(n, dtype=np.int64), 1, 0
    while lo < q:
        if lo:
            uniq, key = np.unique(key, return_inverse=True)
            span = max(len(uniq), 1)
        hi = lo + 1
        while hi < q and span * base ** (hi + 1 - lo) < 2**63:
            hi += 1
        powers = np.array([base**e for e in range(hi - lo - 1, -1, -1)], dtype=np.int64)
        key = key * base ** (hi - lo) + run_key(lo, hi, powers)
        lo = hi
    order = np.argsort(key)
    ordered = key[order]
    starts = np.flatnonzero(np.concatenate([[n > 0], ordered[1:] != ordered[:-1]]))
    return order, starts


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
    histogram alone; ``complete_weight_enum`` evaluates one at a (D, q)
    stack of weight rows in one call."""

    comps: np.ndarray
    mults: np.ndarray
    length: int
    rows: int

    @classmethod
    def of_rows(cls, vectors, q: int) -> "CompositionHistogram":
        """Group a (rows, length) array of values in range(q); any other
        value or shape raises ValueError."""
        rows = np.asarray(vectors, dtype=np.int64)
        if rows.size == 0 and rows.ndim < 2:
            rows = rows.reshape(0, 0)
        if rows.ndim != 2:
            raise ValueError(f"rows must form a (rows, length) array, not shape {rows.shape}")
        num_rows, length = rows.shape
        if rows.size and (rows.min() < 0 or rows.max() >= q):
            raise ValueError(f"row values must lie in range({q})")

        def run_key(lo, hi, powers):
            # each row's key gathered from its values: colour c in the run
            # weighs powers[c - lo], any other colour nothing
            table = np.zeros(q, dtype=np.int64)
            table[lo:hi] = powers
            return table[rows].sum(axis=1)

        order, starts = _composition_groups(run_key, num_rows, q, length)
        # comps[i, c]: how many coordinates of group i's first row take colour c
        firsts = rows[order[starts]]
        comps = np.bincount(
            (firsts + q * np.arange(len(starts))[:, None]).ravel(),
            minlength=len(starts) * q,
        ).reshape(len(starts), q)
        mults = np.concatenate([starts[1:], [num_rows]]) - starts
        return cls(_read_only(comps), _read_only(mults), length, num_rows)

    @classmethod
    def merged(cls, parts) -> "CompositionHistogram":
        """One histogram of the union of the parts' row sets, which must
        share their row length and number of colours (else ValueError); as
        grouping the concatenated rows, without concatenating them."""
        parts = list(parts)
        if not parts:
            raise ValueError("no histograms to merge")
        length, q = parts[0].length, parts[0].comps.shape[1]
        if any((p.length, p.comps.shape[1]) != (length, q) for p in parts):
            raise ValueError(
                "histograms of rows of lengths and colour counts "
                f"{sorted({(p.length, p.comps.shape[1]) for p in parts})} cannot merge"
            )
        comps = np.concatenate([p.comps for p in parts])
        order, starts = _composition_groups(
            lambda lo, hi, powers: comps[:, lo:hi] @ powers, len(comps), q, length
        )
        mults = np.add.reduceat(np.concatenate([p.mults for p in parts])[order], starts)
        rows = sum(p.rows for p in parts)
        return cls(_read_only(comps[order[starts]]), _read_only(mults), length, rows)

    @functools.cached_property
    def _terms(self) -> tuple[list[list[int]], list[int], list[int]]:
        """Each composition's nonzero counts n_c, in colour order, as the
        indices offset[c] + n_c into the powers w_c^0..w_c^top[c] of all
        colours laid end to end; the multiplicities; and top, each
        colour's largest count.  Python ints, for exact products."""
        tops = self.comps.max(axis=0, initial=0)
        offsets = np.concatenate([[0], np.cumsum(tops[:-1] + 1)])
        at, colours = np.nonzero(self.comps)
        flat = (offsets[colours] + self.comps[at, colours]).tolist()
        ends = np.cumsum(np.count_nonzero(self.comps, axis=1)).tolist()
        terms = [flat[a:b] for a, b in zip([0, *ends], ends)]
        return terms, self.mults.tolist(), tops.tolist()

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
        """As the module's ``complete_weight_enum`` of the rows: ``weights``
        has one entry per colour, or is a (D, q) stack of such rows, which
        gives a list of D values, entry i the value row i alone gives."""
        shape = np.shape(weights)
        if len(shape) not in (1, 2) or shape[-1] != self.comps.shape[1]:
            raise ValueError(f"weights of shape {shape} for {self.comps.shape[1]} colours")
        stacked = len(shape) == 2
        if isinstance(weights, np.ndarray) and weights.dtype.kind in "fc":
            # Python floats or complexes, all at once rather than entry by entry
            weights = weights.tolist()
        rows = weights if stacked else [weights]
        if self.rows == 0:
            values = [0] * len(rows)
        else:
            values = [self._weight_sum(*_weight_row(w)) for w in rows]
        return values if stacked else values[0]

    def _weight_sum(self, ws: list, kind: str):
        """The enumerator at one row of weights, Python numbers of a
        ``_weight_row`` kind."""
        if kind == "exact" or not all(map(cmath.isfinite, ws)):
            # each composition multiplied out in the weights' own type, as a
            # row's product would be: exact for int and Fraction weights, and
            # complex inf ** n would overflow in Python
            return sum(
                m * math.prod(ws[c] for c, n in enumerate(comp) for _ in range(n))
                for comp, m in zip(self.comps.tolist(), self.mults.tolist())
            )
        terms, mults, tops = self._terms
        ratios = [x.as_integer_ratio() for w in ws for x in (w.real, w.imag)]
        den = max(d for _n, d in ratios)
        parts = [n * (den // d) for n, d in ratios]
        # each colour's powers, as Gaussian integers over den, up to its
        # largest count in the histogram, laid end to end
        powers = []
        for a, b, top in zip(parts[::2], parts[1::2], tops):
            x, y = 1, 0
            powers.append((x, y))
            for _ in range(top):
                x, y = x * a - y * b, x * b + y * a
                powers.append((x, y))
        # exact products, so the order of multiplication does not matter
        re = im = 0
        for at, m in zip(terms, mults):
            x, y = m, 0
            for i in at:
                a, b = powers[i]
                x, y = x * a - y * b, x * b + y * a
            re, im = re + x, im + y
        scale = den**self.length
        return complex(re / scale, im / scale) if kind == "complex" else re / scale


def _weight_row(weights) -> tuple[list, str]:
    """One row of weights as Python numbers, with its kind: "exact" when
    every entry is an int or Fraction, else "complex" when any entry is
    complex, else "real"."""
    if all(isinstance(w, (int, np.integer, Fraction)) for w in weights):
        return [w if isinstance(w, Fraction) else int(w) for w in weights], "exact"
    zs = [complex(w) for w in weights]
    if any(isinstance(w, (complex, np.complexfloating)) for w in weights):
        return zs, "complex"
    return [z.real for z in zs], "real"


def _streamed_histogram(blocks, q: int) -> CompositionHistogram:
    """The composition histogram of the blocks' rows, merged as they
    stream: the blocks grouped since the last merge join the histogram once
    they hold as many compositions as it does, so what waits never
    outgrows the histogram by more than one block.  A single block's
    histogram is returned as it is."""
    parts = (CompositionHistogram.of_rows(Y, q) for Y in blocks)
    hist, waiting, held = next(parts), [], 0
    for part in parts:
        waiting.append(part)
        held += len(part.comps)
        if held >= len(hist.comps):
            hist, waiting, held = CompositionHistogram.merged([hist, *waiting]), [], 0
    return CompositionHistogram.merged([hist, *waiting]) if waiting else hist


def flow_compositions(
    g: Multigraph,
    group: Group,
    orient: Orientation | None = None,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> CompositionHistogram:
    """The composition histogram of the flows under ``orient`` (the
    default orientation when None), grouped block by block as they are
    listed and merged as they stream, never concatenated or sorted.  The
    histogram holds q colour counts per composition, and there are at most
    as many compositions as flows, so q^(|E|-r(E)+1), not the flows, is
    held to max_terms (``flow_composition_terms``)."""
    flow_composition_terms(g, group.q, max_terms)
    orient = orient or default_orientation(g)
    return _streamed_histogram(_flow_blocks(g, group, orient, max_terms), group.q)


def tension_compositions(
    g: Multigraph,
    group: Group,
    orient: Orientation | None = None,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> CompositionHistogram:
    """The composition histogram of the tensions, as ``flow_compositions``,
    held to max_terms at ``tension_composition_terms``."""
    tension_composition_terms(g, group.q, max_terms)
    orient = orient or default_orientation(g)
    return _streamed_histogram(_tension_blocks(g, group, orient, max_terms), group.q)


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
    enumeration when within cap.  ``max_terms`` caps both, and the cross-
    check runs only when the group's (q, q) tables fit it too, so a forest
    (one flow to list) at a large q reads the histogram alone.  At q <= 0
    it is the flow polynomial's value, with no flows to list."""
    T = tutte(g, max_terms)
    value = T.flow_enumerator(q, 0)
    free = g.num_edges - T.full_rank
    if cross_check and q >= 1 and max(q**2, q**free) <= max_terms:
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
    ``max_terms`` caps both.  At q <= 0 it is the chromatic polynomial's
    value, with no colourings to list."""
    value = tutte(g, max_terms).potts(q, 0)
    if cross_check and q >= 1 and q**g.num_vertices <= max_terms:
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
    if rows.size == 0 and rows.ndim < 2:
        rows = rows.reshape(0, length)
    if rows.ndim != 2 or rows.shape[1] != length:
        raise ValueError(f"rows of shape {rows.shape}, expected (rows, {length})")
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
    a float for real weights, a complex for complex ones.  A row holding a
    non-finite weight is multiplied out factor by factor in its own type.
    ``weights`` may also be a (D, q) stack of rows, q its last axis: the
    rows are grouped once and the result is a list of D values, entry i
    bit for bit what row i alone gives.
    """
    shape = np.shape(weights)
    hist = CompositionHistogram.of_rows(vectors, shape[-1] if shape else 0)
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


@functools.lru_cache(maxsize=_MONOCHROME_MEMO_SIZE)
def _monochrome_memo(g: Multigraph, q: int) -> tuple[int, ...]:
    """``monochrome_histogram``, walked once per graph and q; its caller
    prices the walk."""
    return monochrome_histogram(g, q, max_terms=q**g.num_vertices)


def monochrome_polynomial(
    g: Multigraph, q: int, t, max_terms: int = DEFAULT_MAX_TERMS
):
    """sum over vertex q-colourings of t^(number of monochromatic edges).
    The q^|V| colourings are priced against max_terms on every call, before
    the memo of histograms is read."""
    count_terms(q, g.num_vertices, max_terms)
    return count_polynomial(_monochrome_memo(g, q), t)
