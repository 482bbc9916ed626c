"""Identities between vertex models, edge models and weight enumerators.

Covers the generalized Poisson duality between boundary- and coboundary-
weighted sums, the flow/tension weight-enumerator models, the Tutte
hyperbola edge model, spectral conversion of symmetric vertex models to
edge models, the two-variable boundary generating function and its
principal specialization, and the GF(4) flow identity for cubic graphs.
The duality's coboundary side ``tension_vertex_sum`` is a vertex table sum;
its boundary side ``boundary_edge_sum`` and the split's edge side are the
sums here with own factors.

Six of the models rest on one split (the relationship behind Szegedy's
edge-colouring result): a vertex model whose edge interaction factors as
g = h h^T equals the edge model whose vertex weight is
sum_a f(a) prod over half-edges of h(a, y_e).  ``_split_vertex_sum`` is its
vertex side (f uniform) and ``_split_edge_sum`` its edge side; the flow and
tension weight-enumerator routes, the Tutte, spectral and X_Q edge models
only choose f, h and a prefactor.  The edge side gives each vertex's colour
a a label of its own, read by f and by h at each half-edge, so the plan
prices the sum over a with the rest.  It usually sums each edge colour
first, against the colours a of its two ends: that contraction is the
vertex side's h h^T.

The sums take stacked weights: a weight vector or matrix with one leading
axis more than it needs holds one weight per batch entry, and the sum
comes back with one value per entry from one batched contraction
(``models.eliminate``).  So a check that draws several weights pays for
one plan and one pass of Python over the graph, not one per draw.  Every
change of basis of the weights, the Fourier transform and the character
sums of the X_Q dual, is ``groups.transform`` under the same batch rule.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .enumeration import DEFAULT_MAX_TERMS
from .graphs import Multigraph, Orientation, rank
from .groups import Group, cyclic_group, gf4, transform
from .models import ModelValue, edge_table_sum, factor_sum, vertex_table_sum
from .oracles import ConsistencyError, flow_polynomial

__all__ = [
    "tension_vertex_sum",
    "boundary_edge_sum",
    "general_duality_sides",
    "flow_cwe_vertex_model",
    "flow_cwe_edge_model",
    "tension_cwe_expectation",
    "tutte_edge_model",
    "flow_cubic_edge_model",
    "spectral_split",
    "spectral_edge_model",
    "xq_evaluate",
    "xq_dual",
    "principal_specialization",
    "symmetric_weight_root",
    "xq_edge_model",
    "gf4_flow_identity_check",
]


def _as_weights(group: Group, table) -> np.ndarray:
    """A weight table as a complex array whose last axis has one entry per
    group element; any leading axis is a batch."""
    vec = np.asarray(table, dtype=np.complex128)
    if vec.shape[-1:] != (group.q,):
        raise ValueError(f"weight table must have {group.q} entries")
    return vec


def _weight_rows(group: Group, tables) -> np.ndarray:
    """One weight table per vertex (or edge) as one complex array, a row
    per table; an unbatched table is repeated along the others' batch."""
    rows = [_as_weights(group, t) for t in tables]
    return np.array(np.broadcast_arrays(*rows)) if rows else np.empty((0, group.q))


def tension_vertex_sum(
    g: Multigraph,
    group: Group,
    orient: Orientation,
    vertex_vecs,
    edge_vecs,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> ModelValue:
    """sum over vertex colourings x of prod_v vv[x_v] * prod_e ev[(dx)_e],
    the vertex table sum whose edge tables read ev at the coboundary.
    Each vector may carry a leading batch axis (see ``models.eliminate``).
    Each edge table is a function of its (tail, head) colours, called only
    once the sum is priced; the difference index it reads is computed once
    for the edges and once for the loops."""
    # sub[head, tail] is x_head - x_tail, so a loop reads ev[0]
    differences = {}

    def edge_table(ev, loop, tail, head):
        if loop not in differences:
            differences[loop] = group.sub[head, tail]
        return ev.take(differences[loop], axis=-1)

    edge_tables = [
        functools.partial(edge_table, edge_vecs[e], g.is_loop(e))
        for e in range(g.num_edges)
    ]
    return vertex_table_sum(g, group.q, edge_tables, vertex_vecs, orient, max_terms)


def boundary_edge_sum(
    g: Multigraph,
    group: Group,
    orient: Orientation,
    vertex_vecs,
    edge_vecs,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> ModelValue:
    """sum over edge colourings y of prod_v vv[(dy)_v] * prod_e ev[y_e].
    Each vector may carry a leading batch axis (see ``models.eliminate``).
    A loop's half-edges cancel in the boundary, so only its edge weight
    reads its label; ``models.edge_table_sum`` would read it at its vertex
    too, and plan loops at a higher cost.  Each vertex has a table of its
    own, a function of its non-loop half-edge colours called only once the
    sum is priced (see ``models.eliminate``); the signed boundary it reads
    is computed once per tuple of signs."""
    # one signed sum per tuple of signs: a vertex's distinct edges read one grid
    boundaries = {}

    def vertex_table(row, signs, *coords):
        if signs not in boundaries:
            bnd = np.zeros((), dtype=np.int64)
            for sign, c in zip(signs, coords):
                bnd = group.add[bnd, c if sign == 1 else group.neg[c]]
            boundaries[signs] = bnd
        return row.take(boundaries[signs], axis=-1)

    factors = []
    for v in range(g.num_vertices):
        hs = [(e, end) for e, end in g.halfedges_at(v) if not g.is_loop(e)]
        signs = tuple(orient.sigma(e, end) for e, end in hs)
        table = functools.partial(vertex_table, vertex_vecs[v], signs)
        factors.append((table, [e for e, _end in hs]))
    factors += [(edge_vecs[e], (e,)) for e in range(g.num_edges)]
    return factor_sum(group.q, g.num_edges, factors, max_terms)


def general_duality_sides(
    g: Multigraph,
    group: Group,
    orient: Orientation,
    f_vecs,
    g_vecs,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> tuple[complex, complex]:
    """Both sides of the coboundary/boundary duality.

    Left: q^(-|V|/2) sum_x prod f_v(x_v) prod conj(g_e)((dx)_e).
    Right: q^(-|E|/2) sum_y prod (Ff_v)((dy)_v) prod conj((Fg_e))(y_e).
    Weights with a leading batch axis give both sides per entry.
    """
    q = group.q
    f_rows, g_rows = _weight_rows(group, f_vecs), _weight_rows(group, g_vecs)
    lhs = tension_vertex_sum(g, group, orient, f_rows, g_rows.conj(), max_terms)
    F = group.fourier_matrix()
    fF = transform(F, f_rows, 1)
    gF = transform(F, g_rows, 1).conj()
    rhs = boundary_edge_sum(g, group, orient, fF, gF, max_terms)
    return (
        q ** (-g.num_vertices / 2) * lhs.value,
        q ** (-g.num_edges / 2) * rhs.value,
    )


def _split_vertex_sum(g: Multigraph, h: np.ndarray, max_terms: int) -> ModelValue:
    """Vertex side of the split: sum_x prod_e sum_b h[x_tail, b] h[x_head, b],
    the vertex model with edge interaction h h^T and unit vertex weights,
    over the q colours of h's (q, q) last axes.  A stack of matrices h
    gives one sum per matrix; with no edges each is q^|V|."""
    # on a contiguous stack, each entry takes the product a single h takes
    h = np.ascontiguousarray(h)
    hhT = h @ np.swapaxes(h, -1, -2)
    mv = vertex_table_sum(g, h.shape[-1], [hhT] * g.num_edges, max_terms=max_terms)
    return mv.broadcast(h.shape[:-2])


def _split_edge_sum(
    g: Multigraph, f: np.ndarray, h: np.ndarray, max_terms: int
) -> ModelValue:
    """Edge side of the split: sum_y prod_v sum_a f[a] prod over half-edges
    at v of h[a, y_e], over the q colours of h's (q, q) last axes.  Each
    vertex v has a label a_v after the edge labels, read by f on (a_v,) and
    by h on (a_v, e) at each of its half-edges, so ``eliminate`` plans and
    prices the sum over a with the rest.  f and h may carry leading batch
    axes, which broadcast; with no vertices each sum is 1."""
    fb, hb = f.shape[:-1], h.shape[:-2]
    batch = np.broadcast_shapes(fb, hb) if fb and hb else fb or hb
    factors = []
    for v in range(g.num_vertices):
        a = g.num_edges + v
        factors.append((f, (a,)))
        factors += [(h, (a, e)) for e, _end in g.halfedges_at(v)]
    length = g.num_edges + g.num_vertices
    return factor_sum(h.shape[-1], length, factors, max_terms).broadcast(batch)


def flow_cwe_vertex_model(
    g: Multigraph, group: Group, gtable, max_terms: int = DEFAULT_MAX_TERMS
) -> ModelValue:
    """Vertex-colouring route to the complete weight enumerator of flows
    evaluated at g * g^N: q^(-|V|) sum_x prod_e sum_b prod over the edge's
    half-edges of (Fg)(x_v - b).  A loop's factor appears squared.  A
    stack of tables g gives one value per table."""
    gF = transform(group.fourier_matrix(), _as_weights(group, gtable), 1)
    # h[x, b] = gF(x - b)
    mv = _split_vertex_sum(g, gF.take(group.sub, axis=-1), max_terms)
    return ModelValue.of(group.q ** (-g.num_vertices) * mv.value, mv.terms)


def flow_cwe_edge_model(
    g: Multigraph, group: Group, gtable, max_terms: int = DEFAULT_MAX_TERMS
) -> ModelValue:
    """Edge-colouring route to the same enumerator: q^(-|V|) sum_y prod_v
    sum_a prod over half-edges at v of (Fg)(a - y_e), per table of a stack."""
    gF = transform(group.fourier_matrix(), _as_weights(group, gtable), 1)
    mv = _split_edge_sum(g, np.ones(group.q), gF.take(group.sub, axis=-1), max_terms)
    return ModelValue.of(group.q ** (-g.num_vertices) * mv.value, mv.terms)


def tension_cwe_expectation(
    g: Multigraph, group: Group, ftable, max_terms: int = DEFAULT_MAX_TERMS
) -> ModelValue:
    """Half-edge expectation route to the complete weight enumerator of
    tensions at f * f^N: q^(r(E)-|V|) sum_x prod_e sum_b prod f(x_v - b),
    per table of a stack."""
    fvec = _as_weights(group, ftable)
    mv = _split_vertex_sum(g, fvec.take(group.sub, axis=-1), max_terms)
    return ModelValue.of(group.q ** (rank(g) - g.num_vertices) * mv.value, mv.terms)


def tutte_edge_model(
    g: Multigraph, q: int, s, max_terms: int = DEFAULT_MAX_TERMS
) -> ModelValue:
    """Uniform edge q-colouring model whose partition function equals
    (s^2-1)^(|E|-r(E)) T(G; s^2, (s^2-1+q)/(s^2-1)).

    q^(-|E|-|V|) (s-1)^(2|E|) sum_y prod_v sum_a t^(half-edges at v coloured a)
    with t = (s-1+q)/(s-1); a loop counts its colour twice at its vertex.
    An array of s gives one value per entry.
    """
    s = np.asarray(s)
    if np.any(s == 1):
        raise ValueError("s = 1 is a pole of the edge-model weights")
    t = (s - 1 + q) / (s - 1)
    # with t on h's diagonal and 1 elsewhere, sum_a prod_i h[a, c_i] is
    # sum_a t^(number of c_i equal to a)
    h = np.where(np.eye(q, dtype=bool), t[..., None, None], 1.0)
    mv = _split_edge_sum(g, np.ones(q), h, max_terms)
    pref = q ** (-g.num_edges - g.num_vertices) * (s - 1.0) ** (2 * g.num_edges)
    return ModelValue.of(pref * mv.value, mv.terms)


def flow_cubic_edge_model(
    g: Multigraph, q: int, max_terms: int = DEFAULT_MAX_TERMS
) -> int:
    """Edge-model count of nowhere-zero flows of a 3-regular graph:
    q^(-|E|) 2^|V| sum_y (1-q)^(monochrome vertices) (1-q/2)^(|V| - rainbow
    vertices), rounded to an integer."""
    if not g.is_regular(3):
        raise ValueError("graph must be 3-regular")

    def tbl(a, b, c):
        equal_pairs = (a == b).astype(int) + (b == c) + (a == c)  # 3, 1 or 0
        return np.where(
            equal_pairs == 3,
            (1 - q) * (1 - q / 2),
            np.where(equal_pairs == 0, 1.0, 1 - q / 2),
        ).astype(np.complex128)

    mv = edge_table_sum(g, q, [tbl] * g.num_vertices, max_terms=max_terms)
    value = q ** (-g.num_edges) * 2**g.num_vertices * mv.value
    return ModelValue.of(value, mv.terms).rounded(1e-6)


# relative eigenvalue cut of ``spectral_split``; the battery's rank check
# reads it too, as the tolerance of the numerical rank it compares against
RANK_TOL = 1e-9


def spectral_split(gmat: np.ndarray) -> np.ndarray:
    """Factor a symmetric real matrix as g = h h^T with h = V sqrt(Lambda).

    Columns are ordered by descending eigenvalue with each eigenvector's
    largest-magnitude entry made positive, and eigenvalues within
    RANK_TOL * ||g|| of zero give all-zero columns, so the number of
    nonzero columns equals the numerical rank.
    """
    gmat = np.asarray(gmat, dtype=float)
    if gmat.ndim != 2 or gmat.shape[0] != gmat.shape[1]:
        raise ValueError("need a square matrix")
    if not np.allclose(gmat, gmat.T, atol=1e-12):
        raise ValueError("matrix must be symmetric")
    vals, vecs = np.linalg.eigh(gmat)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    scale = max(np.max(np.abs(vals)), 1e-300)
    h = np.zeros(gmat.shape, dtype=np.complex128)
    for c in range(gmat.shape[0]):
        if abs(vals[c]) <= RANK_TOL * scale:
            continue
        v = vecs[:, c]
        pivot = np.argmax(np.abs(v))
        if v[pivot] < 0:
            v = -v
        h[:, c] = v * np.sqrt(complex(vals[c]))
    return h


def spectral_edge_model(
    g: Multigraph,
    fvec,
    gmat: np.ndarray,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> ModelValue:
    """Edge-colouring form of a symmetric real vertex model over the q
    colours of the (q, q) matrix g = h h^T (``spectral_split``):
    sum_y prod_v sum_a f(a) prod over half-edges h(a, y_e)."""
    fvec = np.asarray(list(fvec), dtype=np.complex128)
    h = spectral_split(np.asarray(gmat, dtype=float))
    return _split_edge_sum(g, fvec, h, max_terms)


def xq_evaluate(
    g: Multigraph,
    group: Group,
    orient: Orientation,
    s_table,
    t_table,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> complex:
    """sum over vertex colourings x of prod_a s_a^(vertices coloured a)
    times prod_b t_b^(edges with coboundary b); stacked tables give one sum
    per entry."""
    svec = _as_weights(group, s_table)
    tvec = _as_weights(group, t_table)
    mv = tension_vertex_sum(
        g,
        group,
        orient,
        [svec] * g.num_vertices,
        [tvec] * g.num_edges,
        max_terms,
    )
    return mv.value


def xq_dual(
    g: Multigraph,
    group: Group,
    orient: Orientation,
    s_table,
    t_table,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> complex:
    """Expansion of the same generating function over edge colourings with
    vertex weights depending only on the boundary:
    q^(-|E|) sum_y prod_a shat_a^(vertices with boundary a) prod_b
    that_b^(edges coloured b), where shat_a = sum_c conj(chi)(ca) s_c and
    that_b = sum_c chi(cb) t_c.  Stacked tables give one sum per entry."""
    svec = _as_weights(group, s_table)
    tvec = _as_weights(group, t_table)
    chimat = group.chi[group.mul]
    shat = transform(chimat.conj(), svec, 1)
    that = transform(chimat, tvec, 1)
    mv = boundary_edge_sum(
        g, group, orient, [shat] * g.num_vertices, [that] * g.num_edges, max_terms
    )
    return group.q ** (-g.num_edges) * mv.value


def principal_specialization(
    g: Multigraph,
    orient: Orientation,
    q: int,
    s,
    t,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> complex:
    """Boundary expansion of the order-q principal specialization
    (vertex weights 1, s, ..., s^(q-1); edge weight t on coboundary 0).

    Away from s^q = 1 every edge colouring contributes through a vertex
    factor (s^q - 1)/(s exp(2 pi i (dy)_v / q) - 1); at s = exp(-2 pi i c/q)
    only colourings whose boundary is c at every vertex survive.  Arrays
    of s and t give one value per entry, each on its own branch.
    """
    group = cyclic_group(q)
    s, t = np.asarray(s), np.asarray(t)
    evec = np.empty(t.shape + (q,), dtype=np.complex128)
    evec[...] = (t - 1)[..., None]
    evec[..., 0] = t - 1 + q
    at_root = np.abs(s**q - 1) < 1e-9
    c = np.round(-q * np.angle(s) / (2 * math.pi)) % q
    roots = np.exp(2j * np.pi * np.arange(q) / q)
    with np.errstate(divide="ignore", invalid="ignore"):
        vvec = np.where(
            at_root[..., None],
            np.arange(q) == c[..., None],
            (s**q - 1)[..., None] / (s[..., None] * roots - 1),
        )
    pref = np.where(
        at_root, float(q) ** (g.num_vertices - g.num_edges), q ** (-g.num_edges)
    )
    mv = boundary_edge_sum(
        g, group, orient, [vvec] * g.num_vertices, [evec] * g.num_edges, max_terms
    )
    return pref * mv.value


def symmetric_weight_root(group: Group, t_table) -> np.ndarray:
    """The weight u with t = u * u^N (convolution), extracted by taking the
    principal square root in the Fourier domain; raises if the claimed
    factorization fails to reconstruct t."""
    tvec = _as_weights(group, t_table)
    # np.allclose's tolerance; a nan entry passes to the residual test
    d = tvec - tvec[group.neg]
    if (np.abs(d) > 1e-12 + 1e-5 * np.abs(tvec[group.neg])).any():
        raise ValueError("edge weights must satisfy t(-b) = t(b)")
    F = group.fourier_matrix()
    u = transform(F.conj(), group.q ** (-0.25) * np.sqrt(transform(F, tvec, 1)), 1)
    # the convolution (u * u^N)(a) = sum_b u(a - b) u(-b), gathered at once
    recon = u[group.sub] @ u[group.neg]
    resid = np.max(np.abs(recon - tvec))
    # written so that a nan residual, as from an infinite entry, raises
    if not resid <= 1e-9 * max(1.0, np.max(np.abs(tvec))):
        raise ConsistencyError(f"convolution square root residual {resid}")
    return u


def xq_edge_model(
    g: Multigraph,
    group: Group,
    s_table,
    t_table,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> ModelValue:
    """Edge-colouring model for the boundary generating function when the
    edge weights are negation-symmetric: sum_y prod_v sum_a s_a prod_b
    u_b^(edges at v coloured a + b)."""
    svec = _as_weights(group, s_table)
    u = symmetric_weight_root(group, t_table)
    # u[sub][a, c] = u(a - c), so its transpose reads u(y_e - a) per half-edge
    return _split_edge_sum(g, svec, u[group.sub].T, max_terms)


def gf4_flow_identity_check(
    g: Multigraph, s, t, max_terms: int = DEFAULT_MAX_TERMS
) -> tuple[bool, complex, complex]:
    """Compare (st)^(|E|/3) F(G;4) against the GF(4) vertex-colouring sum
    4^(-|V|) sum_x w(0)^#0 w(1)^#1 w(w)^#w w(wb)^#wb, where #a counts edges
    whose endpoint colours differ by a.  G must be 3-regular."""
    if not g.is_regular(3):
        raise ValueError("graph must be 3-regular")
    group = gf4()
    w = np.array(
        [1 + s + t, 1 - s - t, -1 - s + t, -1 + s - t], dtype=np.complex128
    )
    M = w[group.add]  # difference equals sum in characteristic 2
    mv = vertex_table_sum(g, 4, [M] * g.num_edges, max_terms=max_terms)
    rhs = 4.0 ** (-g.num_vertices) * mv.value
    lhs = (s * t) ** (g.num_edges // 3) * flow_polynomial(g, 4, max_terms=max_terms)
    ok = abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs), abs(rhs))
    return ok, lhs, rhs
