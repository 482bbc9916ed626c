"""Signed edge-colouring sums counting proper edge k-colourings.

An edge colouring of a k-regular graph gets a sign per vertex from the
inversion parity of its half-edge colours in rotation order (zero on a
repeat).  For graphs whose proper edge k-colourings all share one sign
(planar graphs with clockwise rotations, asserted by fixtures), the signed
sums below count those colourings up to sign, via the parity weight
function, its Fourier transform in closed form, and the bijection with
oriented ordered bipartite (near) 2-factorizations.

The 2-factorization sum is read as an edge colouring z with colours in
K = P u -P whose half-edges read z_e at end 1 and -z_e at end 0, every
vertex seeing each colour of K once; reversing a circuit of length L
multiplies the sign by (-1)^L, so odd circuits cancel in pairs.  It is
built edge by edge as a whole-array frontier of partial colourings, not
contracted like the model sums.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .enumeration import DEFAULT_MAX_TERMS, TermCapExceeded
from .graphs import Multigraph, RotationSystem
from .groups import Group, QFunction
from .models import ModelValue, VertexWeights, edge_table_sum, halfedge_inner
from .groups import monochrome_indicator, zero_sum_indicator

__all__ = [
    "sgn_injection",
    "sgn_edge_colouring",
    "parity_function",
    "parity_sign_table",
    "canonical_symmetric_set",
    "kplus1_colour_set",
    "character_matrix_det",
    "parity_transform_closed",
    "parity_transform_kplus1",
    "zero_sum_parity_sum",
    "monochrome_parity_sum",
    "factorization_sign_sum",
    "proper_colouring_sign_sum",
    "sine_model",
    "kplus1_sign_sum",
    "even_minus_odd_proper4",
    "zero_sum_mono_sign",
]


def sgn_injection(values) -> int:
    """(-1)^inversions for an injective tuple, 0 on any repeated value."""
    vals = list(values)
    inv = 0
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            if vals[i] == vals[j]:
                return 0
            if vals[i] > vals[j]:
                inv += 1
    return -1 if inv % 2 else 1


def sgn_edge_colouring(g: Multigraph, rotation: RotationSystem, y) -> int:
    """Product over vertices of the sign of the half-edge colour tuple in
    rotation order; 0 if any vertex sees a repeated colour."""
    rotation.validate(g)
    sign = 1
    for v in range(g.num_vertices):
        s = sgn_injection(y[e] for e, _ in rotation.order_at(v))
        if s == 0:
            return 0
        sign *= s
    return sign


def parity_sign_table(q: int, k: int, K=None) -> np.ndarray:
    """(q,)*k table: sign of the tuple when injective (into K when given),
    else 0.  The sign is the product over pairs l < m of sign(b_m - b_l),
    which is (-1)^inversions on injective tuples and 0 on any repeat."""
    idx = np.indices((q,) * k, sparse=True)
    tbl = np.ones((q,) * k, dtype=np.float64)
    for l, m in itertools.combinations(range(k), 2):
        tbl *= np.sign(idx[m] - idx[l])
    if K is not None:
        members = set(K)
        allowed = np.array([c in members for c in range(q)], dtype=bool)
        for i in idx:
            tbl *= allowed[i]
    return tbl


def parity_function(group: Group, k: int, K=None) -> QFunction:
    """Even-minus-odd indicator of injective k-tuples (into K when given)."""
    tbl = parity_sign_table(group.q, k, K)
    return QFunction(group, k, tbl.reshape(-1))


def canonical_symmetric_set(q: int, k: int) -> tuple[int, ...]:
    """The negation-closed colour set used by the closed-form transform:
    {0, +-1, ..., +-(k-1)/2} for odd k and {+-1, ..., +-k/2} for even k."""
    if k % 2:
        members = {0}
        for j in range(1, (k - 1) // 2 + 1):
            members |= {j % q, (-j) % q}
    else:
        members = set()
        for j in range(1, k // 2 + 1):
            members |= {j % q, (-j) % q}
    if len(members) != k:
        raise ValueError(f"canonical set for k={k} needs q > k(ish); got q={q}")
    return tuple(sorted(members))


def kplus1_colour_set(k: int) -> tuple[int, ...]:
    """Colour set of size k inside Z_(k+1) whose parity weight transforms
    onto the all-colours parity weight."""
    if k % 2:
        excluded = (k + 1) // 2
    else:
        excluded = 0
    return tuple(a for a in range(k + 1) if a != excluded)


def character_matrix_det(q: int) -> complex:
    """Closed form for det of the unnormalized character matrix
    [exp(2 pi i l m / q)]: i^((q-1)(3q-2)/2) * q^(q/2)."""
    return 1j ** (((q - 1) * (3 * q - 2) // 2) % 4) * q ** (q / 2)


def _sine_product(b, q: int) -> np.ndarray:
    """prod over l < m of 2 sin(pi (b_m - b_l)/q), over a sequence b of
    broadcastable coordinate arrays."""
    prod = np.ones(np.broadcast_shapes(*(np.shape(x) for x in b)))
    for l, m in itertools.combinations(range(len(b)), 2):
        prod *= 2.0 * np.sin(np.pi * (b[m] - b[l]) / q)
    return prod


def parity_transform_closed(k: int, q: int, b) -> complex | np.ndarray:
    """Fourier transform of the parity weight on the canonical symmetric
    colour set, evaluated at a tuple of residues in {0, ..., q-1}, or
    elementwise over an integer array whose last axis holds k-tuples.

    Odd k: q^(-k/2) i^(k(k-1)/2) prod_(l<m) 2 sin(pi (b_m - b_l)/q).
    Even k: q^(-k/2) i^(k(k+1)/2) times the same product times the sum over
    half-size subsets S of cos(pi (sum_S b - sum_notS b)/q).  The extra
    factor (-1)^(k/2) relative to the odd case compensates for the residue
    order on K differing from the signed ascending order by a block swap
    with (k/2)^2 inversions; it is what makes the k+1-colour special case
    below a literal specialization.

    A single k-tuple gives a complex, an array of shape (..., k) a complex
    array of shape (...).
    """
    b = np.asarray(b, dtype=np.int64) % q
    if b.shape[-1:] != (k,):
        raise ValueError("need a k-tuple")
    prod = _sine_product(np.moveaxis(b, -1, 0), q)
    if k % 2:
        value = q ** (-k / 2) * 1j ** ((k * (k - 1) // 2) % 4) * prod
    else:
        allsum = b.sum(axis=-1)
        total = sum(
            np.cos(np.pi * (2 * b[..., list(S)].sum(axis=-1) - allsum) / q)
            for S in itertools.combinations(range(k), k // 2)
        )
        value = q ** (-k / 2) * 1j ** ((k * (k + 1) // 2) % 4) * prod * total
    return complex(value) if b.ndim == 1 else value


def parity_transform_kplus1(k: int, b) -> complex | np.ndarray:
    """Fourier transform of the parity weight on the k-element set inside
    Z_(k+1), evaluated at a k-tuple of residues, or elementwise over an
    integer array whose last axis holds k-tuples.

    Odd k: a constant times the all-colours parity weight.  Even k: the
    constant additionally flips with the parity of the one colour the
    injective tuple misses (the compact constant-only form only holds for
    tuples missing an even colour; brute-force transforms pin this down).

    A single k-tuple gives a complex, an array of shape (..., k) a complex
    array of shape (...).
    """
    q = k + 1
    b = np.asarray(b, dtype=np.int64) % q
    if b.shape[-1:] != (k,):
        raise ValueError("need a k-tuple")
    sign = parity_sign_table(q, k)[tuple(np.moveaxis(b, -1, 0))]
    if k % 2:
        value = q ** (-0.5) * 1j ** ((k * (k - 1) // 2) % 4) * sign
    else:
        # an injective tuple misses the colour that completes the sum of Z_q
        missing = (q * (q - 1) // 2 - b.sum(axis=-1)) % q
        value = q ** (-0.5) * 1j ** ((k * (k + 1) // 2) % 4) * (-1) ** missing * sign
    return complex(value) if b.ndim == 1 else value


def _regular_degree(g: Multigraph, expected: int | None = None) -> int:
    """The graph's regular degree, which must be ``expected`` if given."""
    k = g.regular_degree()
    if k is None:
        raise ValueError("graph must be regular")
    if expected not in (None, k):
        raise ValueError(f"graph is {k}-regular, expected {expected}")
    return k


def _parity_pairing(
    g: Multigraph,
    rotation: RotationSystem,
    group: Group,
    K,
    pair: QFunction,
    max_terms: int,
) -> ModelValue:
    """Pair the parity weight on colour set K against a pair weight over the
    half-edges of a regular graph."""
    _regular_degree(g)  # raises unless g is regular
    # built by ``halfedge_inner`` once the pairing is within the cap
    weights = VertexWeights(group, lambda k: parity_sign_table(group.q, k, K))
    return halfedge_inner(g, weights, pair, rotation=rotation, max_terms=max_terms)


def zero_sum_parity_sum(
    g: Multigraph,
    rotation: RotationSystem,
    group: Group,
    K,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> ModelValue:
    """Pair the parity weight on colour set K against the zero-sum pair
    indicator over the half-edges."""
    if len(set(K)) != _regular_degree(g):
        raise ValueError("colour set size must equal the regular degree")
    pair = zero_sum_indicator(group, 2)
    return _parity_pairing(g, rotation, group, K, pair, max_terms)


def monochrome_parity_sum(
    g: Multigraph,
    rotation: RotationSystem,
    group: Group,
    K,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> ModelValue:
    """Pair the parity weight on colour set K against the monochrome pair
    indicator (a signed sum over proper-at-every-vertex edge colourings)."""
    pair = monochrome_indicator(group, 2)
    return _parity_pairing(g, rotation, group, K, pair, max_terms)


def factorization_sign_sum(
    g: Multigraph,
    rotation: RotationSystem,
    q: int,
    P,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> int:
    """Signed count of oriented ordered bipartite (near) 2-factorizations.

    P holds one representative per class {a, -a} mod q; the colour a is a
    1-factor when a = -a and a 2-factor otherwise, and 1-factor
    orientations do not affect the sign.  With K = P u -P, a configuration
    (a colouring in P^E plus a direction per 2-factor circuit) is an edge
    colouring z in K^E whose half-edge (e, 1) reads z_e and (e, 0) reads
    -z_e, every vertex seeing each colour of K once.  Reversing a circuit
    of length L swaps a and -a at its L vertices and multiplies the sign by
    (-1)^L, so odd circuits cancel in pairs and need no filter.

    The colourings z are built one edge at a time as a frontier of partial
    rows, each with a bitmask of used colours per vertex; extending a row
    by a colour that repeats at a vertex drops it.  The cap bounds the
    rows times |K| of each step.
    """
    rotation.validate(g)
    P = list(P)
    if len({min(a % q, -a % q) for a in P}) != len(P):
        raise ValueError(f"P must hold one residue per class {{a, -a}} mod {q}")
    K = np.array(sorted({a % q for a in P} | {-a % q for a in P}), dtype=np.int64)
    k = _regular_degree(g)
    if len(K) != k:
        raise ValueError(f"P union -P has size {len(K)}, expected {k}")
    neg = -K % q
    head_bit = 1 << np.arange(k, dtype=np.int64)  # bit of z_e, read at end 1
    tail_bit = head_bit[np.searchsorted(K, neg)]  # bit of -z_e, read at end 0
    Z = np.zeros((1, 0), dtype=np.int64)  # rows of colour indices into K
    used = np.zeros((1, g.num_vertices), dtype=np.int64)
    for u, v in g.edges:
        if len(Z) * k > max_terms:
            raise TermCapExceeded(len(Z) * k, max_terms)
        row, c = np.divmod(np.arange(len(Z) * k), k)
        used = used[row]
        ok = (used[:, u] & tail_bit[c]) == 0
        used[:, u] |= tail_bit[c]
        ok &= (used[:, v] & head_bit[c]) == 0  # after u's update: a loop sees both
        used[:, v] |= head_bit[c]
        Z = np.column_stack([Z[row], c])[ok]
        used = used[ok]
    table = parity_sign_table(q, k).astype(np.int64)
    sign = np.ones(len(Z), dtype=np.int64)
    for order in rotation.orders:
        sign *= table[tuple((K if end else neg)[Z[:, e]] for e, end in order)]
    return int(sign.sum())


def _signed_edge_sum(
    g: Multigraph, rotation: RotationSystem, q: int, max_terms: int
) -> ModelValue:
    tbl = functools.partial(parity_sign_table, q, _regular_degree(g))
    return edge_table_sum(
        g, q, [tbl] * g.num_vertices, rotation=rotation, max_terms=max_terms
    )


def proper_colouring_sign_sum(
    g: Multigraph,
    rotation: RotationSystem,
    k: int,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> int:
    """Exact signed sum over proper edge k-colourings (improper ones get
    sign 0 at a repeating vertex)."""
    mv = _signed_edge_sum(g, rotation, k, max_terms)
    return mv.rounded(1e-6)


def sine_model(
    g: Multigraph,
    rotation: RotationSystem,
    q: int,
    k: int,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> ModelValue:
    """Uniform edge q-colouring model (odd k, q >= k) whose magnitude gives
    the proper edge k-colouring count on constant-sign graphs:
    q^(-|E|) sum_y prod_v prod over rotation-ordered half-edge pairs of
    2 sin(pi (later - earlier)/q)."""
    if k % 2 == 0:
        raise ValueError("k must be odd")
    if q < k:
        raise ValueError("need q >= k")
    _regular_degree(g, k)

    def tbl():
        return _sine_product(np.indices((q,) * k, sparse=True), q)

    mv = edge_table_sum(
        g, q, [tbl] * g.num_vertices, rotation=rotation, max_terms=max_terms
    )
    return ModelValue.of(float(q) ** (-g.num_edges) * mv.value, mv.terms)


def kplus1_sign_sum(
    g: Multigraph,
    rotation: RotationSystem,
    k: int,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> ModelValue:
    """(k+1)^(-|V|/2) times the signed sum over all edge colourings with
    k+1 colours; magnitude gives the proper edge k-colouring count on
    constant-sign graphs.  The graph must be k-regular."""
    _regular_degree(g, k)
    mv = _signed_edge_sum(g, rotation, k + 1, max_terms)
    pref = (k + 1) ** (-g.num_vertices / 2)
    return ModelValue.of(pref * mv.value, mv.terms)


def even_minus_odd_proper4(
    g: Multigraph,
    rotation: RotationSystem,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> int:
    """For a plane cubic graph with clockwise rotations: the number of even
    proper edge 4-colourings minus the number of odd ones, where a colouring
    is odd when an odd number of vertices see their three colours in an
    anticlockwise cyclic order."""
    if not g.is_regular(3):
        raise ValueError("graph must be 3-regular")
    # a 3-tuple of distinct colours is in cyclic order exactly when its
    # inversion parity is even, so this is the signed sum with four colours
    return proper_colouring_sign_sum(g, rotation, 4, max_terms)


def zero_sum_mono_sign(k: int, num_edges: int, num_vertices: int) -> int:
    """Sign relating the zero-sum and monochrome pairings of the parity
    weight on Z_k for a k-regular graph."""
    if k < 2:
        raise ValueError("need k >= 2")
    if k % 2:
        return (-1) ** (((k - 1) // 2) * num_edges)
    if (num_vertices - num_edges) % 2:
        raise ValueError(
            "for even k the sign needs |V| - |E| even (both pairings vanish)"
        )
    return (-1) ** ((k // 2) * num_edges + (num_vertices - num_edges) // 2)
