"""Partition functions of vertex- and edge-colouring models.

Every model here is a sum over colourings of a product of small tables, and
``factor_sum`` is the one kernel that computes it: each factor is a table
read at the colours of its labels, and ``eliminate`` sums the labels out one
at a time, so the cost is exponential in the width of the elimination order,
not in the number of labels.  The order is planned from the labels alone
and compiled into einsum steps over numbered table slots, once per label
structure (a bounded cache keyed by the factors' label tuples, so a sum
repeated with other tables or another radix only runs the steps); its cost
is what the term cap bounds and ``ModelValue.terms`` reports.  The
evaluators below only build factor lists.
A vertex model sums over vertex colourings with a weight per vertex and a
(q, q) interaction per edge.  An edge model sums over edge colourings with a
weight per edge and, at each vertex, a weight depending on the tuple of
half-edge colours in a declared order (rotation order when present, else
(edge_index, end) lexicographic).  The half-edge inner product pairs a
vertex weight family against a two-argument weight on each edge's half-edge
pair; it colours each edge by a support pair of that weight, so monochrome
or zero-sum pairings range over q^|E| colourings.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .enumeration import DEFAULT_MAX_TERMS, TermCapExceeded
from .graphs import Multigraph, Orientation, RotationSystem, default_orientation
from .groups import Group, QFunction, monochrome_indicator, transform_by

__all__ = [
    "ModelValue",
    "VertexWeights",
    "VertexModel",
    "EdgeModel",
    "vertex_partition",
    "edge_partition",
    "halfedge_inner",
    "orthogonal_invariance_check",
    "factor_sum",
    "eliminate",
    "edge_table_sum",
    "vertex_table_sum",
]


@dataclass(frozen=True)
class ModelValue:
    """A partition-function value with diagnostics (``terms``: its cost)."""

    value: complex
    imag_residual: float
    terms: int

    @classmethod
    def of(cls, value: complex, terms: int) -> "ModelValue":
        value = complex(value)
        return cls(value, abs(value.imag), terms)

    @property
    def real(self) -> float:
        return self.value.real

    def rounded(self, tol: float = 1e-6) -> int:
        """Nearest integer, verifying the value is integral to within tol."""
        n = round(self.value.real)
        resid = abs(self.value - n)
        if resid > tol * max(1.0, abs(n)):
            raise ValueError(f"value {self.value} is not integral (residual {resid})")
        return n


class VertexWeights:
    """A vertex weight family: one function per arity (vertex degree).

    Built either from a tuple function evaluated on demand or from explicit
    per-arity tables.  Tables are cached per arity.
    """

    def __init__(self, group: Group, table_fn=None, tables=None):
        self.group = group
        self._table_fn = table_fn
        self._tables: dict[int, np.ndarray] = dict(tables or {})

    def table(self, arity: int) -> np.ndarray:
        if arity not in self._tables:
            if self._table_fn is None:
                raise ValueError(f"no vertex weight for arity {arity}")
            self._tables[arity] = np.asarray(
                self._table_fn(arity), dtype=np.complex128
            ).reshape((self.group.q,) * arity)
        return self._tables[arity]

    @classmethod
    def uniform(cls, group: Group) -> "VertexWeights":
        return cls(group, lambda d: np.ones((group.q,) * d))

    @classmethod
    def from_tuple_function(cls, group: Group, fn) -> "VertexWeights":
        return cls(group, lambda d: QFunction.from_function(group, d, fn).as_tensor())

    @classmethod
    def from_tables(cls, group: Group, tables: dict[int, np.ndarray]) -> "VertexWeights":
        return cls(group, None, tables)

    @classmethod
    def perfect_matching(cls, group: Group) -> "VertexWeights":
        """Weight 1 on tuples with exactly one colour equal to 1."""
        return cls.from_tuple_function(
            group, lambda t: 1.0 if sum(1 for a in t if a == 1) == 1 else 0.0
        )

    def transformed(self, U: np.ndarray) -> "VertexWeights":
        """The family with U applied tensorially at every arity."""

        def build(d):
            base = QFunction(self.group, d, self.table(d).reshape(-1))
            return transform_by(base, U).as_tensor()

        return VertexWeights(self.group, build)


@dataclass(frozen=True)
class VertexModel:
    group: Group
    vertex_weight: QFunction  # arity 1
    edge_weight: QFunction  # arity 2, applied to (tail, head)

    def __post_init__(self):
        if self.vertex_weight.arity != 1 or self.edge_weight.arity != 2:
            raise ValueError("vertex model needs arity-1 and arity-2 weights")
        if self.vertex_weight.group.name != self.group.name:
            raise ValueError("group mismatch")


@dataclass(frozen=True)
class EdgeModel:
    group: Group
    vertex_weights: VertexWeights
    edge_weight: QFunction | None = None  # arity 1; None means uniform

    def __post_init__(self):
        if self.edge_weight is not None and self.edge_weight.arity != 1:
            raise ValueError("edge weight must have arity 1")


def _vertex_orders(g: Multigraph, rotation: RotationSystem | None):
    if rotation is None:
        return [g.halfedges_at(v) for v in range(g.num_vertices)]
    rotation.validate(g)
    return [rotation.order_at(v) for v in range(g.num_vertices)]


def factor_sum(
    radix: int,
    length: int,
    factors,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> ModelValue:
    """Sum over colourings c in range(radix)^length of the product over
    ``factors`` (a list of (table, labels) pairs) of table[c[labels]].  A
    label repeated within one factor reads its colour on several axes, as a
    loop does at its vertex; a factor with no labels is a constant.  The cap
    and ``ModelValue.terms`` are the planned cost of the contraction."""
    return ModelValue.of(*eliminate(radix, length, factors, max_terms))


# plans kept: one per label structure, and a battery call reads a few dozen
_PLAN_CACHE_SIZE = 512


class _Plan(NamedTuple):
    """A contraction compiled from the factors' labels alone.  Slots
    0..n-1 hold the n factors' tables, and step i writes slot n + i."""

    diagonals: tuple  # (slot, input axes, output axes) of each loop factor
    constants: tuple  # slots of the factors with no labels
    read: int  # distinct labels any factor reads
    scopes: tuple  # labels read at each step
    steps: tuple  # (operand slots, their subscripts, output subscripts)


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(label_tuples: tuple) -> _Plan:
    """Each step sums out the label whose factors together read the fewest
    labels (ties to the smallest label); a factor reading a label several
    times is first cut to its diagonal, one axis per distinct label."""
    distinct = [tuple(dict.fromkeys(labels)) for labels in label_tuples]
    diagonals = tuple(
        (i, tuple(ls.index(label) for label in labels), tuple(range(len(ls))))
        for i, (labels, ls) in enumerate(zip(label_tuples, distinct))
        if len(ls) < len(labels)
    )
    constants = tuple(i for i, ls in enumerate(distinct) if not ls)
    live = [(i, ls) for i, ls in enumerate(distinct) if ls]  # (slot, labels)
    read = len({label for _slot, ls in live for label in ls})
    scopes, steps = [], []
    while live:
        joint: dict[int, set] = {}
        for _slot, ls in live:
            for label in ls:
                joint.setdefault(label, set()).update(ls)
        label = min(joint, key=lambda lb: (len(joint[lb]), lb))
        scope = sorted(joint[label])
        # einsum takes at most 52 axis letters, so number the scope locally
        ids = {lb: i for i, lb in enumerate(scope)}
        out = tuple(lb for lb in scope if lb != label)
        used = [f for f in live if label in f[1]]
        live = [f for f in live if label not in f[1]]
        if out:
            live.append((len(label_tuples) + len(steps), out))
        scopes.append(len(scope))
        steps.append(
            (
                tuple(slot for slot, _ls in used),
                tuple(tuple(ids[lb] for lb in ls) for _slot, ls in used),
                tuple(ids[lb] for lb in out),
            )
        )
    return _Plan(diagonals, constants, read, tuple(scopes), tuple(steps))


def eliminate(
    radix: int, length: int, factors, max_terms: int = DEFAULT_MAX_TERMS
) -> tuple[complex, int]:
    """The sum of ``factor_sum`` by variable elimination, and its planned
    cost: the sum over steps of radix^(labels read at that step).  The plan
    is cached per label structure; a cost over ``max_terms`` raises before
    any table is touched."""
    factors = list(factors)
    plan = _plan(tuple(tuple(labels) for _table, labels in factors))
    cost = sum(radix**size for size in plan.scopes)
    if cost > max_terms:
        raise TermCapExceeded(cost, max_terms)
    tables = []
    for table, _labels in factors:
        table = np.asarray(table)
        # integer tables sum in floating point, as products of ints can wrap
        tables.append(table.astype(np.result_type(table, np.float64), copy=False))
    for slot, axes, out in plan.diagonals:
        tables[slot] = np.einsum(tables[slot], axes, out)
    total = 1.0 + 0.0j
    for slot in plan.constants:
        total *= tables[slot][()]
    # every label no factor reads multiplies the sum by radix
    total *= radix ** (length - plan.read)
    for slots, subscripts, out in plan.steps:
        operands = []
        for slot, subs in zip(slots, subscripts):
            operands += [tables[slot], subs]
        tables.append(np.einsum(*operands, out))
        if not out:
            total *= tables[-1][()]
    return complex(total), cost


def edge_table_sum(
    g: Multigraph,
    q: int,
    vertex_tables,
    edge_vecs=None,
    rotation: RotationSystem | None = None,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> ModelValue:
    """Sum over edge colourings of per-vertex table lookups times per-edge
    weights.  ``vertex_tables[v]`` is indexed by the half-edge colours at v
    in declared order (a loop's colour indexes twice)."""
    orders = _vertex_orders(g, rotation)
    factors = [
        (vertex_tables[v], [e for e, _end in orders[v]])
        for v in range(g.num_vertices)
    ]
    if edge_vecs is not None:
        factors += [(edge_vecs[e], (e,)) for e in range(g.num_edges)]
    return factor_sum(q, g.num_edges, factors, max_terms)


def vertex_table_sum(
    g: Multigraph,
    q: int,
    edge_tables,
    vertex_vecs=None,
    orient: Orientation | None = None,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> ModelValue:
    """Sum over vertex colourings of per-edge (q, q) lookups (tail, head)
    times optional per-vertex weights.  Loops look up (x_v, x_v)."""
    orient = orient or default_orientation(g)
    factors = [
        (edge_tables[e], (orient.tail(g, e), orient.head(g, e)))
        for e in range(g.num_edges)
    ]
    if vertex_vecs is not None:
        factors += [(vertex_vecs[v], (v,)) for v in range(g.num_vertices)]
    return factor_sum(q, g.num_vertices, factors, max_terms)


def vertex_partition(
    g: Multigraph,
    model: VertexModel,
    orient: Orientation | None = None,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> ModelValue:
    gt = model.edge_weight.as_tensor()
    fv = model.vertex_weight.values
    return vertex_table_sum(
        g,
        model.group.q,
        [gt] * g.num_edges,
        [fv] * g.num_vertices,
        orient=orient,
        max_terms=max_terms,
    )


def edge_partition(
    g: Multigraph,
    model: EdgeModel,
    rotation: RotationSystem | None = None,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> ModelValue:
    tables = [model.vertex_weights.table(g.degree(v)) for v in range(g.num_vertices)]
    vecs = None
    if model.edge_weight is not None:
        vecs = [model.edge_weight.values] * g.num_edges
    return edge_table_sum(
        g, model.group.q, tables, vecs, rotation=rotation, max_terms=max_terms
    )


def halfedge_inner(
    g: Multigraph,
    weights: VertexWeights,
    pair_weight: QFunction,
    rotation: RotationSystem | None = None,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> ModelValue:
    """Real-bilinear pairing of the vertex weight family against an arity-2
    weight applied to each edge's half-edge pair; each edge is coloured by a
    support pair of that weight."""
    if pair_weight.arity != 2:
        raise ValueError("pair weight must have arity 2")
    q = weights.group.q
    supp = np.nonzero(np.abs(pair_weight.values) > 0)[0]
    ends = (supp // q, supp % q)  # colours at end 0 and end 1 of each pair
    orders = _vertex_orders(g, rotation)
    factors = []
    for v in range(g.num_vertices):
        # the vertex table re-indexed from half-edge colours onto support pairs
        axes = np.ix_(*(ends[end] for _e, end in orders[v]))
        factors.append((weights.table(g.degree(v))[axes], [e for e, _end in orders[v]]))
    factors += [(pair_weight.values[supp], (e,)) for e in range(g.num_edges)]
    return factor_sum(supp.size, g.num_edges, factors, max_terms)


def orthogonal_invariance_check(
    g: Multigraph,
    weights: VertexWeights,
    Us: Sequence[np.ndarray],
    tol: float = 1e-8,
    max_terms: int = DEFAULT_MAX_TERMS,
    rotation: RotationSystem | None = None,
) -> tuple[bool, ...]:
    """For each matrix U: U tensor U fixes the monochrome pair indicator,
    and the monochrome pairing is invariant under that orthogonal change of
    the vertex weights.  The pairing of the unchanged weights is computed
    once, and only if some U passes the first test."""
    mono = monochrome_indicator(weights.group, 2)
    lhs = None
    oks = []
    for U in Us:
        fixed = transform_by(mono, U)
        if np.max(np.abs(fixed.values - mono.values)) > tol:
            oks.append(False)
            continue
        if lhs is None:
            lhs = halfedge_inner(g, weights, mono, rotation=rotation, max_terms=max_terms)
        rhs = halfedge_inner(
            g, weights.transformed(U), mono, rotation=rotation, max_terms=max_terms
        )
        scale = max(1.0, abs(lhs.value), abs(rhs.value))
        oks.append(abs(lhs.value - rhs.value) <= tol * scale)
    return tuple(oks)
