"""Signed edge-colouring sums counting proper edge k-colourings.

An edge colouring of a k-regular graph gets a sign per vertex from the
inversion parity of its half-edge colours in rotation order (zero on a
repeat).  For graphs whose proper edge k-colourings all share one sign
(planar graphs with clockwise rotations, asserted by fixtures), the signed
sums below count those colourings up to sign, via the parity weight
function, its Fourier transform in closed form, and the bijection with
oriented ordered bipartite (near) 2-factorizations.
"""

from __future__ import annotations

import itertools

import numpy as np

from .enumeration import DEFAULT_MAX_TERMS, count_terms
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
    idx = np.indices((q,) * k)
    tbl = np.ones((q,) * k, dtype=np.float64)
    for l, m in itertools.combinations(range(k), 2):
        tbl *= np.sign(idx[m] - idx[l])
    if K is not None:
        members = set(K)
        allowed = np.array([c in members for c in range(q)], dtype=bool)
        tbl *= allowed[idx].all(axis=0)
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
    prod = np.ones(b.shape[:-1])
    for l, m in itertools.combinations(range(k), 2):
        prod *= 2.0 * np.sin(np.pi * (b[..., m] - b[..., l]) / q)
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


def parity_transform_kplus1(k: int, b) -> complex:
    """Fourier transform of the parity weight on the k-element set inside
    Z_(k+1), evaluated at a k-tuple of residues.

    Odd k: a constant times the all-colours parity weight.  Even k: the
    constant additionally flips with the parity of the one colour the
    injective tuple misses (the compact constant-only form only holds for
    tuples missing an even colour; brute-force transforms pin this down).
    """
    q = k + 1
    b = [int(x) % q for x in b]
    if len(b) != k:
        raise ValueError("need a k-tuple")
    s = sgn_injection(b)
    if s == 0:
        return 0.0
    if k % 2:
        return q ** (-0.5) * 1j ** ((k * (k - 1) // 2) % 4) * s
    missing = (set(range(q)) - set(b)).pop()
    return q ** (-0.5) * 1j ** ((k * (k + 1) // 2) % 4) * (-1) ** missing * s


def _parity_weights(group: Group, k: int, K=None) -> VertexWeights:
    return VertexWeights.from_tables(
        group, {k: parity_sign_table(group.q, k, K).astype(np.complex128)}
    )


def _regular_degree(g: Multigraph) -> int:
    degs = set(g.degrees())
    if len(degs) != 1:
        raise ValueError("graph must be regular")
    return degs.pop()


def zero_sum_parity_sum(
    g: Multigraph,
    rotation: RotationSystem,
    group: Group,
    K,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> ModelValue:
    """Pair the parity weight on colour set K against the zero-sum pair
    indicator over the half-edges."""
    k = _regular_degree(g)
    if len(set(K)) != k:
        raise ValueError("colour set size must equal the regular degree")
    weights = _parity_weights(group, k, K)
    return halfedge_inner(
        g, weights, zero_sum_indicator(group, 2), rotation=rotation, max_terms=max_terms
    )


def monochrome_parity_sum(
    g: Multigraph,
    rotation: RotationSystem,
    group: Group,
    K,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> ModelValue:
    """Pair the parity weight on colour set K against the monochrome pair
    indicator (a signed sum over proper-at-every-vertex edge colourings)."""
    k = _regular_degree(g)
    weights = _parity_weights(group, k, K)
    return halfedge_inner(
        g,
        weights,
        monochrome_indicator(group, 2),
        rotation=rotation,
        max_terms=max_terms,
    )


def _colour_classes(g: Multigraph, y, colour) -> list[list[int]]:
    """Circuits of the spanning subgraph of edges coloured ``colour``, each
    as a list of (edge, entry_end) steps; raises if a vertex degree is not 2."""
    half_at = [[] for _ in range(g.num_vertices)]
    for e in range(g.num_edges):
        if y[e] != colour:
            continue
        u, v = g.edges[e]
        half_at[u].append((e, 0))
        half_at[v].append((e, 1))
    for v, hs in enumerate(half_at):
        if len(hs) != 2:
            raise ValueError("colour class is not a 2-factor")
    used = set()
    circuits = []
    for e0 in range(g.num_edges):
        if y[e0] != colour or e0 in used:
            continue
        steps = []
        e, entry = e0, 0
        while True:
            used.add(e)
            steps.append((e, entry))
            exit_vertex = g.endpoint(e, 1 - entry)
            h1, h2 = half_at[exit_vertex]
            # continue along the half-edge that is not the arrival one
            e, entry = h2 if h1 == (e, 1 - entry) else h1
            if e == e0 and entry == 0:
                break
        circuits.append(steps)
    return circuits


def factorization_sign_sum(
    g: Multigraph,
    rotation: RotationSystem,
    q: int,
    P,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> int:
    """Signed count of oriented ordered bipartite (near) 2-factorizations.

    P indexes the ordered partition; the colour a is a 1-factor when a = -a
    mod q and a 2-factor otherwise.  Each 2-factor circuit is taken with both
    directions; odd circuits are rejected.  1-factor orientations do not
    affect the sign and are not enumerated.
    """
    rotation.validate(g)
    P = list(P)
    K = sorted({a % q for a in P} | {(-a) % q for a in P})
    k = _regular_degree(g)
    if len(K) != k:
        raise ValueError(f"P union -P has size {len(K)}, expected {k}")
    count_terms(len(P), g.num_edges, max_terms)
    one_factors = [a for a in P if a % q == (-a) % q]
    two_factors = [a for a in P if a % q != (-a) % q]
    total = 0
    for y in itertools.product(P, repeat=g.num_edges):
        ok = True
        for v in range(g.num_vertices):
            counts = {}
            for e, _ in g.halfedges_at(v):
                counts[y[e]] = counts.get(y[e], 0) + 1
            if any(counts.get(a, 0) != 1 for a in one_factors) or any(
                counts.get(a, 0) != 2 for a in two_factors
            ):
                ok = False
                break
        if not ok:
            continue
        circuits = []
        bipartite = True
        for a in two_factors:
            for circ in _colour_classes(g, y, a):
                if len(circ) % 2:
                    bipartite = False
                    break
                circuits.append(circ)
            if not bipartite:
                break
        if not bipartite:
            continue
        head_end = [1] * g.num_edges
        for direction in itertools.product((0, 1), repeat=len(circuits)):
            for circ, rev in zip(circuits, direction):
                for e, entry in circ:
                    head_end[e] = entry if rev else 1 - entry
            sign = 1
            for v in range(g.num_vertices):
                tup = []
                for e, end in rotation.order_at(v):
                    a = y[e] % q
                    if y[e] in two_factors and end != head_end[e]:
                        a = (-a) % q
                    tup.append(a)
                s = sgn_injection(tup)
                if s == 0:
                    sign = 0
                    break
                sign *= s
            total += sign
    return total


def _signed_edge_sum(
    g: Multigraph,
    rotation: RotationSystem,
    q: int,
    K=None,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> ModelValue:
    k = _regular_degree(g)
    tbl = parity_sign_table(q, k, K)
    tables = [tbl] * g.num_vertices
    return edge_table_sum(
        g, q, tables, rotation=rotation, max_terms=max_terms
    )


def proper_colouring_sign_sum(
    g: Multigraph,
    rotation: RotationSystem,
    k: int,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> int:
    """Exact signed sum over proper edge k-colourings (improper ones get
    sign 0 at a repeating vertex)."""
    mv = _signed_edge_sum(g, rotation, k, None, max_terms)
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
    deg = _regular_degree(g)
    if deg != k:
        raise ValueError(f"graph is {deg}-regular, expected {k}")
    grid = np.indices((q,) * k)
    tbl = np.ones((q,) * k, dtype=np.float64)
    for i in range(k):
        for j in range(i + 1, k):
            tbl *= 2.0 * np.sin(np.pi * (grid[j] - grid[i]) / q)
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
    constant-sign graphs."""
    mv = _signed_edge_sum(g, rotation, k + 1, None, max_terms)
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
