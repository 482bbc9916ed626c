"""Partition functions of vertex- and edge-colouring models.

Every model here is a sum over colourings of a product of small tables, and
``factor_sum`` is the one kernel that computes it: each factor is a table
read at the colours of its labels, and ``eliminate`` sums the labels out one
at a time, so the cost is exponential in the width of the elimination order,
not in the number of labels.  The order is planned from the labels alone
and compiled into einsum steps over numbered table slots, once per label
structure (a bounded cache keyed by the factors' label tuples alone, so a
sum repeated with other tables, another radix or a batch pays the lookup,
its price, one pass over its tables and the steps); its cost is what the
term cap bounds and ``ModelValue.terms`` reports.  A table with one
leading axis more than its arity carries a batch, the rule that
``groups.transform`` and the weight tables of every builder follow, so
several sums that differ only in their tables run as one contraction, at
the plan and cap of one: the batch rides on the ``...`` that starts every
subscript list.
``edge_table_sum``, ``vertex_table_sum``, ``duality.boundary_edge_sum``,
the split's edge side (``duality._split_edge_sum``) and
``orthogonal_invariance_check`` call ``factor_sum``; the other models
supply tables.  A (q, q) matrix on a half-edge, the h of a split g = h h^T
or an orthogonal change of basis U, is a factor of its own on the
half-edge's edge label and one more label, so the plan prices it with the
rest and no transformed q^degree table is built.
Each table is read on the grid of its factor's distinct labels, a loop's
two axes at one coordinate, so no table outgrows the plan.  One that grows
as radix^degree is handed over unbuilt, as a function of one coordinate
array per axis (a ``VertexWeights`` family is one), and ``eliminate``
calls it only once it has priced the sum.
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
import heapq
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
    """A vertex weight family: one function ``fn`` of the half-edge colours
    at a vertex, as broadcastable coordinate arrays, one per half-edge (an
    unbuilt table, see ``eliminate``).  A leading axis more than their
    broadcast shape holds one family per batch entry."""

    def __init__(self, group: Group, fn):
        self.group = group
        self.fn = fn

    def table(self, arity: int) -> np.ndarray:
        """The family at one arity: ``fn`` on the whole (q,)*arity grid."""
        grid = np.indices((self.group.q,) * arity, sparse=True)
        return np.asarray(self.fn(*grid), dtype=np.complex128)

    @classmethod
    def per_arity(cls, group: Group, table_of) -> "VertexWeights":
        """The family read off ``table_of(d)``, built on its first read.  A
        read of the whole grid, each axis its own coordinate, is the stored
        table itself, not a copy."""
        tables = {}

        def read(*coords):
            d = len(coords)
            if d not in tables:
                tables[d] = np.asarray(table_of(d), dtype=np.complex128)
            table = tables[d]
            whole = np.indices(table.shape[table.ndim - d :], sparse=True)
            if all(map(np.array_equal, coords, whole)):
                return table
            return table[(..., *coords)]

        return cls(group, read)

    @classmethod
    def uniform(cls, group: Group) -> "VertexWeights":
        return cls(group, lambda *c: np.ones(np.broadcast_shapes(*map(np.shape, c))))

    @classmethod
    def from_tuple_function(cls, group: Group, fn) -> "VertexWeights":
        return cls.per_arity(group, lambda d: QFunction.from_function(group, d, fn).as_tensor())

    @classmethod
    def perfect_matching(cls, group: Group) -> "VertexWeights":
        """Weight 1 on tuples with exactly one colour equal to 1."""
        return cls(group, lambda *c: sum(x == 1 for x in c) == 1)


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
    ``factors`` (a list of (table, labels) pairs) of table[c[labels]], each
    label in range(length), else ValueError.  A label repeated within one
    factor reads its colour on several axes, as a loop does at its vertex;
    a factor with no labels is a constant.  A table may be unbuilt, and one
    with an axis more than its labels carries a batch (see ``eliminate``),
    and the value is then one sum per batch entry.  The cap and
    ``ModelValue.terms`` are the planned cost of one."""
    return ModelValue.of(*eliminate(radix, length, factors, max_terms))


# plans kept: one per label structure, and a battery call reads a few dozen
_PLAN_CACHE_SIZE = 512


class _Plan(NamedTuple):
    """A contraction compiled from the factors' labels alone.  Slots
    0..n-1 hold the n factors' tables, each read on its distinct labels,
    and step i writes slot n + i.  Every subscript list starts with
    ``...``, so a leading batch axis rides through each step."""

    grids: tuple  # per factor: distinct labels, and the index of each label
    constants: tuple  # slots of the factors with no labels
    read: int  # distinct labels any factor reads
    bounds: tuple  # the smallest and largest label read, (0, -1) for none
    scopes: tuple  # labels read at each step
    steps: tuple  # (operand slots, their subscripts, output subscripts, closed)


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(label_tuples: tuple) -> _Plan:
    """Each step sums out the label whose factors together read the fewest
    distinct labels (ties to the smallest label); a step closes when it
    leaves no label.  No step sees a factor's repeated label twice.

    This is the elimination game of minimum-degree ordering: each live
    label keeps the labels its tables read (its closed neighbourhood) and
    those tables' slots in ascending order, and a step updates only the
    labels left in its scope, so planning is near-linear in the labels at
    bounded width."""
    distinct = [tuple(dict.fromkeys(labels)) for labels in label_tuples]
    grids = tuple((len(d), tuple(map(d.index, ls))) for d, ls in zip(distinct, label_tuples))
    constants = tuple(i for i, labels in enumerate(distinct) if not labels)
    # the labels of each table still to be summed, by slot
    live = {i: labels for i, labels in enumerate(distinct) if labels}
    near: dict[int, set] = {}
    slots: dict[int, dict] = {}  # a dict keeps its slots in ascending order
    for slot, labels in live.items():
        for label in labels:
            if label in near:
                near[label].update(labels)
                slots[label][slot] = None
            else:
                near[label] = set(labels)
                slots[label] = {slot: None}
    read = len(near)
    bounds = (min(near), max(near)) if near else (0, -1)
    # (neighbourhood size, label): an entry whose label is summed or whose
    # size is no longer its label's is skipped
    heap = [(len(ls), lb) for lb, ls in near.items()]
    heapq.heapify(heap)
    scopes, steps = [], []
    new = len(label_tuples)  # the slot of the next step's table
    while near:
        size, label = heapq.heappop(heap)
        joint = near.get(label)
        if joint is None or len(joint) != size:
            continue
        del near[label]
        scope = sorted(joint)
        # einsum takes at most 52 axis letters, so number the scope locally
        ids = dict(zip(scope, range(size)))
        at = ids[label]
        del scope[at]
        out = tuple(scope)
        used = tuple(slots.pop(label))
        subscripts = []
        for slot in used:
            labels = live.pop(slot)
            subscripts.append((..., *map(ids.__getitem__, labels)))
            for lb in labels:
                if lb != label:
                    del slots[lb][slot]
        if out:
            live[new] = out
        for lb in out:
            slots[lb][new] = None
            ls = near[lb]
            before = len(ls)
            ls |= joint
            ls.discard(label)
            after = len(ls)
            if after != before:
                heapq.heappush(heap, (after, lb))
        new += 1
        scopes.append(size)
        steps.append((used, tuple(subscripts), (..., *range(at), *range(at + 1, size)), not out))
    return _Plan(grids, constants, read, bounds, tuple(scopes), tuple(steps))


def _capped_cost(radix: int, plan: _Plan, max_terms: int) -> int:
    cost = sum(radix**size for size in plan.scopes)
    if cost > max_terms:
        raise TermCapExceeded(cost, max_terms)
    return cost


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _grid(radix: int, width: int) -> tuple:
    """The sparse index grid of ``width`` axes over range(radix), shared by
    every sum and read-only, so no table function can write into it."""
    grid = np.indices((radix,) * width, sparse=True)
    for axis in grid:
        axis.flags.writeable = False
    return grid


# the dtypes einsum sums in; any other table is promoted to one of them
_SUMMED = (np.dtype(np.float64), np.dtype(np.complex128))


def eliminate(
    radix: int, length: int, factors, max_terms: int = DEFAULT_MAX_TERMS
) -> tuple[complex | np.ndarray, int]:
    """The sum of ``factor_sum`` by variable elimination, and its planned
    cost: the sum over steps of radix^(labels read at that step).  The plan
    is cached per label structure, the factors' label tuples alone.  A
    label outside range(length) raises ValueError, and a cost over
    ``max_terms`` TermCapExceeded, before any table is read or summed.  A
    repeated sum pays the plan lookup, its price, one pass over the factors
    and the plan's einsum steps.

    Tables are read on the sparse index grid of their factor's distinct
    labels, one read-only coordinate array per axis, a loop's two axes
    sharing one.  So no table outgrows the plan, whose cost is the one cap.
    An unbuilt table is a function of those arrays, called once per
    distinct function and pattern of repeats, in factor order.  Integer,
    boolean and single-precision tables sum in float64 or complex128:
    products of ints can wrap, and single-precision products round early.

    A table with one leading axis more than its factor's labels carries a
    batch of size B, the same for every such table, on each step's ``...``:
    the sum is then a (B,) complex array, entry b the sum over the b-th
    tables and the unbatched ones, and else a complex.  The plan, the cost
    and the cap are those of one entry, as ``ModelValue.terms`` is."""
    plan = _plan(tuple([tuple(labels) for _table, labels in factors]))
    low, high = plan.bounds
    if low < 0 or high >= length:
        raise ValueError(f"labels {low}..{high} outside range({length})")
    cost = _capped_cost(radix, plan, max_terms)
    tables, read = [], {}
    for (table, _labels), (width, axes) in zip(factors, plan.grids):
        if callable(table):
            key = (table, axes)
            t = read.get(key)
            if t is None:
                grid = _grid(radix, width)
                t = read[key] = _summed(table(*[grid[axis] for axis in axes]))
        elif width < len(axes):
            grid = _grid(radix, width)
            t = _summed(np.asarray(table)[(..., *[grid[axis] for axis in axes])])
        else:
            t = _summed(table)
        tables.append(t)
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


def _summed(table) -> np.ndarray:
    """A table as an array of a dtype that einsum sums in."""
    if type(table) is not np.ndarray:
        table = np.asarray(table)
    if table.dtype in _SUMMED:
        return table
    return table.astype(np.result_type(table, np.float64))


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
    tables = [model.vertex_weights.fn] * g.num_vertices
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
    the support pairs of that weight, read at their half-edge colours.
    Batched vertex weights give one pairing per batch entry, from one
    contraction (see ``eliminate``)."""
    if pair_weight.arity != 2:
        raise ValueError("pair weight must have arity 2")
    _same_group(weights.group, pair_weight.group)
    q = weights.group.q
    supp = np.nonzero(np.abs(pair_weight.values) > 0)[0]
    ends = (supp // q, supp % q)  # colours at end 0 and end 1 of each pair

    @functools.cache  # one per tuple of half-edge ends, which its vertices share
    def vertex_table(ends_at):
        return lambda *coords: weights.fn(*(ends[end][c] for end, c in zip(ends_at, coords)))

    orders = _vertex_orders(g, rotation)
    tables = [vertex_table(tuple(end for _e, end in order)) for order in orders]
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
    weights and those of every U are paired in one batched sum, and only
    if some U passes the first test.  The change of basis is a factor of
    that sum: each half-edge h of edge e has its own label x_h, the weights
    read the labels of their vertex's half-edges, and the stack of the
    identity and every U sits on (y_e, x_h), so that entry b sums
    prod_v w_v(x) prod_h U_b[y_e, x_h] over x and y.  ``eliminate`` plans,
    prices and runs it, and reads each weight table only once it is
    priced."""
    group = weights.group
    mono = monochrome_indicator(group, 2)
    Us = np.asarray(Us).reshape(-1, group.q, group.q)
    table = mono.as_tensor()
    moved = np.abs(transform(Us, table, 2) - table).max(axis=(1, 2))
    fixed = [not dev > tol for dev in moved]
    if not any(fixed):
        return tuple(fixed)
    stack = np.concatenate([np.eye(group.q)[None], Us])
    # half-edge labels follow the edge labels, numbered in vertex order
    factors, length = [], g.num_edges
    for v in range(g.num_vertices):
        edges = [e for e, _end in g.halfedges_at(v)]
        labels = range(length, length + len(edges))
        factors.append((weights.fn, labels))
        factors += [(stack, (e, x)) for e, x in zip(edges, labels)]
        length += len(edges)
    mv = factor_sum(group.q, length, factors, max_terms)
    # with no vertices no table carries the batch, and all pair alike
    lhs, *rhs = mv.broadcast((len(Us) + 1,)).value
    return tuple(
        ok and bool(abs(lhs - r) <= tol * max(1.0, abs(lhs), abs(r)))
        for ok, r in zip(fixed, rhs)
    )
