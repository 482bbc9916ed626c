"""Partition functions of vertex- and edge-colouring models.

Every model here is a sum over colourings of a product of small tables, and
``factor_sum`` is the one kernel that computes it: each factor is a table
read at the colours of its labels, and ``eliminate`` sums the labels out one
at a time, so the cost is exponential in the width of the elimination order,
not in the number of labels.  The order is planned from the labels alone
and compiled into einsum steps over numbered table slots, once per label
structure (a bounded cache keyed by the factors' label tuples alone, so a
sum repeated with other tables, another radix or a batch only runs the
steps); its cost is what the term cap bounds and ``ModelValue.terms``
reports.  A loop repeats its label's subscript, and einsum takes that
diagonal in the step that first reads it.  A table with one leading axis
more than its arity carries a batch, the rule that ``groups.transform``
and the weight tables of every builder follow, so several sums that
differ only in their tables run as one contraction, at the plan and cap
of one: the batch rides on the ``...`` that starts every subscript list.
``edge_table_sum``, ``vertex_table_sum`` and ``duality.boundary_edge_sum``
are the only callers of ``factor_sum``; the other models supply tables.
A table of radix^degree entries is handed over unbuilt, as a function
that ``eliminate`` calls only once it has priced the sum and that table,
so an oversized table is refused, never allocated.
``vertex_table_sum`` sums over vertex colourings with a weight per vertex
and a (q, q) interaction per edge.  ``edge_table_sum`` sums over edge
colourings with a weight per edge and, at each vertex, a weight depending
on the tuple of half-edge colours in a declared order (rotation order when
present, else (edge_index, end) lexicographic).  The half-edge inner
product pairs a vertex weight family against a two-argument weight on
each edge's half-edge pair: the edge table sum over its support pairs,
so monochrome or zero-sum pairings range over q^|E| colourings.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .enumeration import DEFAULT_MAX_TERMS, TermCapExceeded, count_terms
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
    ``value`` is then an array of the batch shape, and ``terms`` is still
    the cost of one entry."""

    value: complex | np.ndarray
    terms: int

    @classmethod
    def of(cls, value, terms: int) -> "ModelValue":
        if isinstance(value, np.ndarray) and value.ndim:
            value = value.astype(np.complex128, copy=False)
        else:
            value = complex(value)
        return cls(value, terms)

    def broadcast(self, batch: tuple) -> "ModelValue":
        """The value for every entry of a batch shape: a sum in which no
        table carried the batch has one value for all its entries."""
        value = self.value
        if (value.shape if isinstance(value, np.ndarray) else ()) == batch:
            return self
        return ModelValue.of(np.broadcast_to(self.value, batch), self.terms)

    def rounded(self, tol: float = 1e-6) -> int:
        """Nearest integer, verifying the value is integral to within tol."""
        n = round(self.value.real)
        resid = abs(self.value - n)
        if resid > tol * max(1.0, abs(n)):
            raise ValueError(f"value {self.value} is not integral (residual {resid})")
        return n


class VertexWeights:
    """A vertex weight family: one function per arity (vertex degree).

    Built either from a function of the arity evaluated on demand or from
    explicit per-arity tables.  Tables are cached per arity and keep the
    shape they are given: one with a leading axis more than its arity holds
    one family per batch entry.
    """

    def __init__(self, group: Group, table_fn=None, tables=None):
        self.group = group
        self._table_fn = table_fn
        self._tables: dict[int, np.ndarray] = dict(tables or {})

    def table(self, arity: int) -> np.ndarray:
        if arity not in self._tables:
            if self._table_fn is None:
                raise ValueError(f"no vertex weight for arity {arity}")
            self._tables[arity] = np.asarray(self._table_fn(arity), dtype=np.complex128)
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
        is_one = np.arange(group.q) == 1

        def table(d):
            ones = np.zeros((group.q,) * d, dtype=np.min_scalar_type(d))
            for axis in range(d):
                ones += is_one.reshape((-1,) + (1,) * (d - 1 - axis))
            return ones == 1

        return cls(group, table)


def _same_group(a: Group, b: Group):
    if a.name != b.name:
        raise ValueError("group mismatch")


@dataclass(frozen=True)
class VertexModel:
    """A vertex-colouring model; its group is its weights' group."""

    vertex_weight: QFunction  # arity 1
    edge_weight: QFunction  # arity 2, applied to (tail, head)

    def __post_init__(self):
        if self.vertex_weight.arity != 1 or self.edge_weight.arity != 2:
            raise ValueError("vertex model needs arity-1 and arity-2 weights")
        _same_group(self.vertex_weight.group, self.edge_weight.group)


@dataclass(frozen=True)
class EdgeModel:
    """An edge-colouring model; its group is its weights' group."""

    vertex_weights: VertexWeights
    edge_weight: QFunction | None = None  # arity 1; None means uniform

    def __post_init__(self):
        if self.edge_weight is not None:
            if self.edge_weight.arity != 1:
                raise ValueError("edge weight must have arity 1")
            _same_group(self.vertex_weights.group, self.edge_weight.group)


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
    0..n-1 hold the n factors' tables, and step i writes slot n + i.
    Every subscript list starts with ``...``, so a leading batch axis
    rides through each step, and a loop's repeated subscript makes einsum
    take its diagonal in the step that first reads it."""

    constants: tuple  # slots of the factors with no labels
    read: int  # distinct labels any factor reads
    scopes: tuple  # labels read at each step
    steps: tuple  # (operand slots, their subscripts, output subscripts, closed)


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(label_tuples: tuple) -> _Plan:
    """Each step sums out the label whose factors together read the fewest
    distinct labels (ties to the smallest label); a step closes when it
    leaves no label.  A table keeps its labels as given, repeats included,
    until a step reads it."""
    constants = tuple(i for i, labels in enumerate(label_tuples) if not labels)
    # (slot, labels) of each table still to be summed
    live = [(i, labels) for i, labels in enumerate(label_tuples) if labels]
    read = len({label for _slot, labels in live for label in labels})
    scopes, steps = [], []
    while live:
        joint: dict[int, set] = {}
        for _slot, labels in live:
            for label in labels:
                joint.setdefault(label, set()).update(labels)
        _size, label = min((len(ls), lb) for lb, ls in joint.items())
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
                tuple(slot for slot, _labels in used),
                tuple((...,) + tuple(ids[lb] for lb in labels) for _slot, labels in used),
                (...,) + tuple(ids[lb] for lb in out),
                not out,
            )
        )
    return _Plan(constants, read, tuple(scopes), tuple(steps))


def _capped_cost(radix: int, plan: _Plan, max_terms: int) -> int:
    cost = sum(radix**size for size in plan.scopes)
    if cost > max_terms:
        raise TermCapExceeded(cost, max_terms)
    return cost


def eliminate(
    radix: int, length: int, factors, max_terms: int = DEFAULT_MAX_TERMS
) -> tuple[complex | np.ndarray, int]:
    """The sum of ``factor_sum`` by variable elimination, and its planned
    cost: the sum over steps of radix^(labels read at that step).  The plan
    is cached per label structure, the factors' label tuples alone; a cost
    over ``max_terms`` raises before any table is converted or summed.

    A table may be given unbuilt, as a function of no arguments.  Past the
    plan's cap, the largest such table, radix^(its labels) entries with a
    repeated label counted once per axis, is held to the cap, and then
    each distinct function is called once, in factor order.

    A table with ``ndim == len(labels) + 1`` carries a leading batch axis
    of size B, the same for every such table; the other tables are shared
    by all entries.  The batch rides on each step's ``...``, so the sum is
    then a (B,) complex array whose entry b is the sum over the b-th
    tables, and a complex when no table carries a batch.  The plan, the
    cost and the cap are those of one entry, as ``ModelValue.terms`` is."""
    tables, label_tuples = [], []
    for table, labels in factors:
        tables.append(table)
        label_tuples.append(tuple(labels))
    plan = _plan(tuple(label_tuples))
    cost = _capped_cost(radix, plan, max_terms)
    axes = [len(ls) for t, ls in zip(tables, label_tuples) if callable(t)]
    if axes:
        count_terms(radix, max(axes), max_terms)
    built = {fn: fn() for fn in dict.fromkeys(filter(callable, tables))}
    tables = [np.asarray(built[t] if callable(t) else t) for t in tables]
    # integer tables sum in floating point, as products of ints can wrap
    tables = [t.astype(np.result_type(t, np.float64), copy=False) for t in tables]
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
    in declared order (a loop's colour indexes twice), and may be given
    unbuilt (see ``eliminate``)."""
    factors = [
        (vertex_tables[v], [e for e, _end in order])
        for v, order in enumerate(_vertex_orders(g, rotation))
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
    factors = []
    if vertex_vecs is not None:
        factors += [(vertex_vecs[v], (v,)) for v in range(g.num_vertices)]
    factors += [
        (edge_tables[e], (orient.tail(g, e), orient.head(g, e)))
        for e in range(g.num_edges)
    ]
    return factor_sum(q, g.num_vertices, factors, max_terms)


def vertex_partition(
    g: Multigraph,
    model: VertexModel,
    orient: Orientation | None = None,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> ModelValue:
    q, fv = model.vertex_weight.group.q, model.vertex_weight.values
    gt = model.edge_weight.as_tensor()
    return vertex_table_sum(
        g, q, [gt] * g.num_edges, [fv] * g.num_vertices, orient, max_terms
    )


def edge_partition(
    g: Multigraph,
    model: EdgeModel,
    rotation: RotationSystem | None = None,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> ModelValue:
    tables = [functools.partial(model.vertex_weights.table, d) for d in g.degrees()]
    vecs = None
    if model.edge_weight is not None:
        vecs = [model.edge_weight.values] * g.num_edges
    q = model.vertex_weights.group.q
    return edge_table_sum(g, q, tables, vecs, rotation, max_terms)


def halfedge_inner(
    g: Multigraph,
    weights: VertexWeights,
    pair_weight: QFunction,
    rotation: RotationSystem | None = None,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> ModelValue:
    """Real-bilinear pairing of the vertex weight family against an arity-2
    weight applied to each edge's half-edge pair: the edge table sum over
    the support pairs of that weight, each vertex table re-indexed from
    half-edge colours onto them.  Batched vertex tables give one pairing
    per batch entry, from one contraction (see ``eliminate``)."""
    if pair_weight.arity != 2:
        raise ValueError("pair weight must have arity 2")
    _same_group(weights.group, pair_weight.group)
    q = weights.group.q
    supp = np.nonzero(np.abs(pair_weight.values) > 0)[0]
    ends = (supp // q, supp % q)  # colours at end 0 and end 1 of each pair

    def vertex_table(order):
        # ``weights`` builds its tables at the group's order, not the support's
        count_terms(q, len(order), max_terms)
        table = weights.table(len(order))
        # the index of every entry of the batch, if the table has one
        batch = (slice(None),) * (table.ndim - len(order))
        return table[batch + np.ix_(*(ends[end] for _e, end in order))]

    orders = _vertex_orders(g, rotation)
    tables = [functools.partial(vertex_table, order) for order in orders]
    edge_vecs = [pair_weight.values[supp]] * g.num_edges
    return edge_table_sum(g, supp.size, tables, edge_vecs, rotation, max_terms)


def orthogonal_invariance_check(
    g: Multigraph,
    weights: VertexWeights,
    Us: Sequence[np.ndarray],
    tol: float = 1e-8,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> tuple[bool, ...]:
    """For each matrix U: U tensor U fixes the monochrome pair indicator,
    and the monochrome pairing is invariant under that orthogonal change of
    the vertex weights.  Each test applies every U at once; the unchanged
    weights and those of every U that passes the first test are paired in
    one batched contraction, and only if some U passes; each weight table is
    built only once that pairing is priced."""
    group = weights.group
    mono = monochrome_indicator(group, 2)
    Us = np.asarray(Us).reshape(-1, group.q, group.q)
    table = mono.as_tensor()
    moved = np.abs(transform(Us, table, 2) - table).max(axis=(1, 2))
    fixed = [not dev > tol for dev in moved]
    if not any(fixed):
        return tuple(fixed)
    kept = Us[fixed]

    def stacked_table(d):
        # the unchanged table and then its change by each kept U
        table = weights.table(d)
        return np.concatenate([table[None], transform(kept, table, d)])

    stacked = VertexWeights(group, stacked_table)
    mv = halfedge_inner(g, stacked, mono, max_terms=max_terms)
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
