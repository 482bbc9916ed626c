"""Partition functions of vertex- and edge-colouring models.

Every model here is a sum over colourings of a product of small tables, and
``factor_sum`` is the one kernel that computes it: each factor is a table
read at the colours of its labels, and ``eliminate`` sums the labels out one
at a time, so the cost is exponential in the width of the elimination order,
not in the number of labels.  The order is planned from the labels alone
and compiled into einsum steps over numbered table slots, once per label
structure (a bounded cache keyed by the factors' label tuples, so a sum
repeated with other tables or another radix only runs the steps); its cost
is what the term cap bounds and ``ModelValue.terms`` reports.  A table
may carry one leading batch axis, so several sums that differ only in
their tables run as one contraction, at the plan and cap of one: a table
with one leading axis more than its arity carries the batch, the rule
that ``groups.transform`` and the weight tables of every builder follow.
The evaluators below only build factor lists.
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
from .groups import Group, QFunction, monochrome_indicator, transform

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
    """A partition-function value with diagnostics (``terms``: its cost).

    A batched sum (see ``eliminate``) holds one value per batch entry:
    ``value`` and ``imag_residual`` are then arrays of the batch shape,
    and ``terms`` is still the cost of one entry."""

    value: complex | np.ndarray
    imag_residual: float | np.ndarray
    terms: int

    @classmethod
    def of(cls, value, terms: int) -> "ModelValue":
        if isinstance(value, np.ndarray) and value.ndim:
            value = value.astype(np.complex128, copy=False)
        else:
            value = complex(value)
        return cls(value, abs(value.imag), terms)

    def broadcast(self, batch: tuple) -> "ModelValue":
        """The value for every entry of a batch shape: a sum in which no
        table carried the batch has one value for all its entries."""
        value = self.value
        if (value.shape if isinstance(value, np.ndarray) else ()) == batch:
            return self
        return ModelValue.of(np.broadcast_to(self.value, batch), self.terms)

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
    per-arity tables.  Tables are cached per arity.  An explicit table with
    one leading axis more than its arity holds one family per batch entry.
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
    loop does at its vertex; a factor with no labels is a constant.  A
    table with one leading axis more than its labels carries a batch (see
    ``eliminate``), and the value is then one sum per batch entry.  The cap
    and ``ModelValue.terms`` are the planned cost of one entry."""
    return ModelValue.of(*eliminate(radix, length, factors, max_terms))


# plans kept: one per label structure, and a battery call reads a few dozen
_PLAN_CACHE_SIZE = 512


class _Plan(NamedTuple):
    """A contraction compiled from the factors' labels alone.  Slots
    0..n-1 hold the n factors' tables, and step i writes slot n + i.  A
    batched table keeps its batch on its first axis, and so does every
    step that reads one."""

    diagonals: tuple  # (slot, input axes, output axes) of each loop factor
    constants: tuple  # slots of the factors with no labels
    read: int  # distinct labels any factor reads
    scopes: tuple  # labels read at each step
    steps: tuple  # (operand slots, their subscripts, output subscripts, closed)


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(label_tuples: tuple, batched: tuple) -> _Plan:
    """Each step sums out the label whose factors together read the fewest
    labels (ties to the smallest label); a factor reading a label several
    times is first cut to its diagonal, one axis per distinct label.  The
    batch is a subscript that no step sums out, so it leaves the order and
    the scopes as they are; a step closes when it leaves no label."""
    distinct = [tuple(dict.fromkeys(labels)) for labels in label_tuples]
    diagonals = tuple(
        (
            i,
            (len(ls),) * b + tuple(ls.index(label) for label in labels),
            (len(ls),) * b + tuple(range(len(ls))),
        )
        for i, (labels, ls, b) in enumerate(zip(label_tuples, distinct, batched))
        if len(ls) < len(labels)
    )
    constants = tuple(i for i, ls in enumerate(distinct) if not ls)
    # (slot, labels, batched) of each table still to be summed
    live = [(i, ls, b) for i, (ls, b) in enumerate(zip(distinct, batched)) if ls]
    read = len({label for _slot, ls, _b in live for label in ls})
    scopes, steps = [], []
    while live:
        joint: dict[int, set] = {}
        for _slot, ls, _b in live:
            for label in ls:
                joint.setdefault(label, set()).update(ls)
        _size, label = min((len(ls), lb) for lb, ls in joint.items())
        scope = sorted(joint[label])
        # einsum takes at most 52 axis letters, so number the scope locally;
        # the batch takes the number after the scope's
        ids = {lb: i for i, lb in enumerate(scope)}
        batch = (len(scope),)
        out = tuple(lb for lb in scope if lb != label)
        used = [f for f in live if label in f[1]]
        live = [f for f in live if label not in f[1]]
        out_batched = any([b for _slot, _ls, b in used])
        if out:
            live.append((len(label_tuples) + len(steps), out, out_batched))
        scopes.append(len(scope))
        steps.append(
            (
                tuple(slot for slot, _ls, _b in used),
                tuple(batch * b + tuple(ids[lb] for lb in ls) for _slot, ls, b in used),
                batch * out_batched + tuple(ids[lb] for lb in out),
                not out,
            )
        )
    return _Plan(diagonals, constants, read, tuple(scopes), tuple(steps))


def eliminate(
    radix: int, length: int, factors, max_terms: int = DEFAULT_MAX_TERMS
) -> tuple[complex | np.ndarray, int]:
    """The sum of ``factor_sum`` by variable elimination, and its planned
    cost: the sum over steps of radix^(labels read at that step).  The plan
    is cached per label structure; a cost over ``max_terms`` raises before
    any table is converted or summed.

    A table with ``ndim == len(labels) + 1`` carries a leading batch axis
    of size B, the same for every such table; the other tables are shared
    by all entries.  The sum is then a (B,) complex array whose entry b is
    the sum over the b-th tables, and a complex when no table carries a
    batch.  The plan, the cost and the cap are those of one entry, as
    ``ModelValue.terms`` is."""
    tables, label_tuples = [], []
    for table, labels in factors:
        tables.append(np.asarray(table))
        label_tuples.append(tuple(labels))
    plan = _plan(
        tuple(label_tuples),
        tuple(t.ndim > len(labels) for t, labels in zip(tables, label_tuples)),
    )
    cost = sum(radix**size for size in plan.scopes)
    if cost > max_terms:
        raise TermCapExceeded(cost, max_terms)
    # integer tables sum in floating point, as products of ints can wrap
    tables = [t.astype(np.result_type(t, np.float64), copy=False) for t in tables]
    for slot, axes, out in plan.diagonals:
        tables[slot] = np.einsum(tables[slot], axes, out)
    total = 1.0 + 0.0j
    for slot in plan.constants:
        total *= tables[slot][()]
    # every label no factor reads multiplies the sum by radix
    total *= radix ** (length - plan.read)
    for slots, subscripts, out, closed in plan.steps:
        operands = []
        for slot, subs in zip(slots, subscripts):
            operands += [tables[slot], subs]
        tables.append(np.einsum(*operands, out))
        if closed:
            total *= tables[-1][()]
    return (total if isinstance(total, np.ndarray) else complex(total)), cost


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
    support pair of that weight.  Batched vertex tables give one pairing
    per batch entry, from one contraction (see ``eliminate``)."""
    if pair_weight.arity != 2:
        raise ValueError("pair weight must have arity 2")
    q = weights.group.q
    supp = np.nonzero(np.abs(pair_weight.values) > 0)[0]
    ends = (supp // q, supp % q)  # colours at end 0 and end 1 of each pair
    orders = _vertex_orders(g, rotation)
    tables = {}
    for d in set(g.degrees()):
        table = weights.table(d)
        # the index of every entry of the batch, if the table has one
        tables[d] = table, (slice(None),) * (table.ndim - d)
    factors = []
    for v in range(g.num_vertices):
        # the vertex table re-indexed from half-edge colours onto support pairs
        table, batch = tables[g.degree(v)]
        axes = np.ix_(*(ends[end] for _e, end in orders[v]))
        factors.append((table[batch + axes], [e for e, _end in orders[v]]))
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
    the vertex weights.  Each test applies every U at once; the unchanged
    weights and those of every U that passes the first test are paired in
    one batched contraction, and only if some U passes."""
    group = weights.group
    mono = monochrome_indicator(group, 2)
    Us = np.asarray(Us).reshape(-1, group.q, group.q)
    table = mono.as_tensor()
    moved = np.abs(transform(Us, table, 2) - table).max(axis=(1, 2))
    fixed = [not dev > tol for dev in moved]
    if not any(fixed):
        return tuple(fixed)
    kept = Us[fixed]
    # per degree, the unchanged table and then its change by each kept U
    tables = {}
    for d in set(g.degrees()):
        table = weights.table(d)
        tables[d] = np.concatenate([table[None], transform(kept, table, d)])
    stacked = VertexWeights.from_tables(group, tables)
    mv = halfedge_inner(g, stacked, mono, rotation=rotation, max_terms=max_terms)
    # with no vertices no table carries the batch, and all pair alike
    lhs, *rhs = mv.broadcast((len(kept) + 1,)).value
    rhs = iter(rhs)
    oks = []
    for ok in fixed:
        if ok:
            r = next(rhs)
            ok = bool(abs(lhs - r) <= tol * max(1.0, abs(lhs), abs(r)))
        oks.append(ok)
    return tuple(oks)
