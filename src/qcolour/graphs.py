"""Multigraphs with half-edges, rotation systems, orientations and the
boundary/coboundary operators.

Vertices are 0-based contiguous integers.  Edges are ordered (u, v) pairs,
loops and parallel edges allowed.  A half-edge is a pair (edge_index, end)
with end in {0, 1}, so the two half-edges of a loop stay distinguishable;
every "product over edges at v" downstream runs over half-edges, which makes
a loop contribute its colour twice at its vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "Multigraph",
    "Orientation",
    "RotationSystem",
    "components",
    "rank",
    "default_orientation",
    "default_rotation",
    "boundary",
    "coboundary",
    "line_graph",
]

HalfEdge = tuple[int, int]  # (edge_index, end)


@dataclass(frozen=True)
class Multigraph:
    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    _half_edges_at: tuple[tuple[HalfEdge, ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        edges = tuple((int(u), int(v)) for u, v in self.edges)
        object.__setattr__(self, "edges", edges)
        for u, v in edges:
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise ValueError(f"edge ({u},{v}) out of range")
        at = [[] for _ in range(self.num_vertices)]
        for e, (u, v) in enumerate(edges):
            at[u].append((e, 0))
            at[v].append((e, 1))
        object.__setattr__(self, "_half_edges_at", tuple(tuple(h) for h in at))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def endpoint(self, e: int, end: int) -> int:
        return self.edges[e][end]

    def is_loop(self, e: int) -> bool:
        u, v = self.edges[e]
        return u == v

    def halfedges_at(self, v: int) -> tuple[HalfEdge, ...]:
        """Half-edges at v in (edge_index, end) lexicographic order."""
        return self._half_edges_at[v]

    def degree(self, v: int) -> int:
        return len(self._half_edges_at[v])

    def degrees(self) -> tuple[int, ...]:
        return tuple(self.degree(v) for v in range(self.num_vertices))

    def is_regular(self, k: int) -> bool:
        return all(d == k for d in self.degrees())

    def regular_degree(self) -> int | None:
        """The degree of every vertex; None if two differ or there is none."""
        degs = set(self.degrees())
        return degs.pop() if len(degs) == 1 else None


def components(g: Multigraph, subset: int | None = None) -> int:
    """Number of connected components of (V, A); isolated vertices count.
    A is the edges whose bits are set in ``subset``, or every edge."""
    parent = list(range(g.num_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    n = g.num_vertices
    for e, (u, v) in enumerate(g.edges):
        if subset is not None and not subset >> e & 1:
            continue
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            n -= 1
    return n


def rank(g: Multigraph, subset: int | None = None) -> int:
    return g.num_vertices - components(g, subset)


@dataclass(frozen=True)
class Orientation:
    """Per-edge head selection; sigma is +1 at the head end, -1 at the tail.

    A loop's two half-edges carry opposite signs, so its boundary
    contribution cancels.
    """

    head_end: tuple[int, ...]

    def sigma(self, e: int, end: int) -> int:
        return 1 if end == self.head_end[e] else -1

    def head(self, g: Multigraph, e: int) -> int:
        return g.endpoint(e, self.head_end[e])

    def tail(self, g: Multigraph, e: int) -> int:
        return g.endpoint(e, 1 - self.head_end[e])


def default_orientation(g: Multigraph) -> Orientation:
    """End 1 is the head unless stated otherwise."""
    return Orientation((1,) * g.num_edges)


@dataclass(frozen=True)
class RotationSystem:
    """A linear order on the half-edges at each vertex."""

    orders: tuple[tuple[HalfEdge, ...], ...]

    def order_at(self, v: int) -> tuple[HalfEdge, ...]:
        return self.orders[v]

    def validate(self, g: Multigraph):
        if len(self.orders) != g.num_vertices:
            raise ValueError("rotation must cover every vertex")
        for v in range(g.num_vertices):
            if sorted(self.orders[v]) != sorted(g.halfedges_at(v)):
                raise ValueError(f"rotation at vertex {v} is not a permutation of H(v)")

    def swap_adjacent(self, v: int, pos: int) -> "RotationSystem":
        """Rotation with the half-edges at positions pos, pos+1 of v swapped."""
        order = list(self.orders[v])
        order[pos], order[pos + 1] = order[pos + 1], order[pos]
        orders = list(self.orders)
        orders[v] = tuple(order)
        return RotationSystem(tuple(orders))


def default_rotation(g: Multigraph) -> RotationSystem:
    """Half-edges at each vertex in (edge_index, end) lexicographic order."""
    return RotationSystem(tuple(g.halfedges_at(v) for v in range(g.num_vertices)))


def _check_vector(group, vec, length, what):
    if len(vec) != length:
        raise ValueError(f"{what} must have length {length}")
    for a in vec:
        if not 0 <= a < group.q:
            raise ValueError(f"{what} entry {a} outside group of order {group.q}")


def boundary(g: Multigraph, orient: Orientation, group, y) -> tuple[int, ...]:
    """Vertex vector (sum of signed edge values over half-edges at v)."""
    _check_vector(group, y, g.num_edges, "edge colouring")
    out = [0] * g.num_vertices
    for v in range(g.num_vertices):
        acc = 0
        for e, end in g.halfedges_at(v):
            val = y[e] if orient.sigma(e, end) == 1 else group.neg[y[e]]
            acc = group.add[acc, val]
        out[v] = int(acc)
    return tuple(out)


def coboundary(g: Multigraph, orient: Orientation, group, x) -> tuple[int, ...]:
    """Edge vector (head value minus tail value); loops map to 0."""
    _check_vector(group, x, g.num_vertices, "vertex colouring")
    out = []
    for e in range(g.num_edges):
        if g.is_loop(e):
            out.append(0)
        else:
            out.append(int(group.sub[x[orient.head(g, e)], x[orient.tail(g, e)]]))
    return tuple(out)


def line_graph(g: Multigraph) -> Multigraph:
    """One vertex per edge of g; one edge per unordered pair of distinct
    half-edges sharing a vertex, so parallels and loops yield multiplicities."""
    edges = []
    for v in range(g.num_vertices):
        hs = g.halfedges_at(v)
        for i in range(len(hs)):
            for j in range(i + 1, len(hs)):
                edges.append((hs[i][0], hs[j][0]))
    return Multigraph(g.num_edges, tuple(edges))
