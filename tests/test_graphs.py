import itertools
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from qcolour.graphs import (
    Multigraph,
    boundary,
    coboundary,
    components,
    default_orientation,
    default_rotation,
    line_graph,
    rank,
)
import qcolour.graphs
from qcolour.groups import cyclic_group
from qcolour.oracles import enumerate_flows

from conftest import disjoint_union, graph_of, two_stretch


def test_half_edge_partition():
    for name in ("k4", "single_loop", "theta", "digon"):
        g = graph_of(name)
        total = sum(g.degree(v) for v in range(g.num_vertices))
        assert total == 2 * g.num_edges


def test_loop_has_two_halfedges_at_vertex():
    g = graph_of("single_loop")
    assert g.halfedges_at(0) == ((0, 0), (0, 1))


def test_components_examples():
    k4 = graph_of("k4")
    assert components(k4) == 1
    assert components(k4, 0) == 4
    two = Multigraph(2, ((0, 0),))  # loop at v0 plus isolated v1
    assert components(two) == 2


def test_rank_examples():
    assert rank(graph_of("k4")) == 3
    assert rank(graph_of("triangle")) == 2
    assert rank(graph_of("k4"), 0) == 0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rank_monotone_unit_increase(data):
    n = data.draw(st.integers(1, 5))
    m = data.draw(st.integers(1, 6))
    edges = tuple(
        (data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1)))
        for _ in range(m)
    )
    g = Multigraph(n, edges)
    mask = data.draw(st.integers(0, (1 << m) - 1))
    e = data.draw(st.integers(0, m - 1))
    bigger = mask | (1 << e)
    assert rank(g, mask) <= rank(g, bigger) <= rank(g, mask) + 1


def test_boundary_single_edge():
    g = graph_of("single_edge")
    Z3 = cyclic_group(3)
    o = default_orientation(g)  # head is vertex 1
    assert boundary(g, o, Z3, (2,)) == (1, 2)


def test_boundary_loop_cancels():
    g = graph_of("single_loop")
    Z3 = cyclic_group(3)
    o = default_orientation(g)
    for y in range(3):
        assert boundary(g, o, Z3, (y,)) == (0,)


def test_boundary_cyclic_triangle_flow():
    g = Multigraph(3, ((0, 1), (1, 2), (2, 0)))
    o = default_orientation(g)
    Z3 = cyclic_group(3)
    assert boundary(g, o, Z3, (1, 1, 1)) == (0, 0, 0)


def test_coboundary_examples():
    g = graph_of("single_edge")
    Z3 = cyclic_group(3)
    o = default_orientation(g)
    assert coboundary(g, o, Z3, (0, 2)) == (2,)
    tri = graph_of("triangle")
    assert coboundary(tri, default_orientation(tri), Z3, (1, 1, 1)) == (0, 0, 0)
    loop = graph_of("single_loop")
    assert coboundary(loop, default_orientation(loop), Z3, (2,)) == (0,)


def test_boundary_coboundary_orthogonality():
    Z3 = cyclic_group(3)
    for name in ("triangle", "digon", "single_loop", "theta"):
        g = graph_of(name)
        o = default_orientation(g)
        for x in itertools.product(range(3), repeat=g.num_vertices):
            for y in itertools.product(range(3), repeat=g.num_edges):
                dx = coboundary(g, o, Z3, x)
                by = boundary(g, o, Z3, y)
                lhs = 0
                for e in range(g.num_edges):
                    lhs = Z3.add[lhs, Z3.mul[dx[e], y[e]]]
                rhs = 0
                for v in range(g.num_vertices):
                    rhs = Z3.add[rhs, Z3.mul[x[v], by[v]]]
                assert lhs == rhs


def test_group_mismatch_errors():
    g = graph_of("single_edge")
    Z3 = cyclic_group(3)
    o = default_orientation(g)
    with pytest.raises(ValueError):
        boundary(g, o, Z3, (3,))
    with pytest.raises(ValueError):
        coboundary(g, o, Z3, (0,))


def test_two_stretch_counts():
    k4 = graph_of("k4")
    st_ = two_stretch(k4)
    assert st_.num_vertices == 10
    assert st_.num_edges == 12
    loop = graph_of("single_loop")
    d = two_stretch(loop)
    assert (d.num_vertices, d.num_edges) == (2, 2)  # digon
    e = graph_of("single_edge")
    p = two_stretch(e)
    assert (p.num_vertices, p.num_edges) == (3, 2)
    assert rank(p) == 2


@pytest.mark.parametrize(
    "name,q",
    [("triangle", 3), ("single_loop", 3), ("digon", 2), ("k4", 2), ("single_edge", 4)],
)
def test_two_stretch_flow_bijection(name, q):
    g = graph_of(name)
    Zq = cyclic_group(q)
    orient = default_orientation(g)
    st_ = two_stretch(g)
    flows = enumerate_flows(g, Zq, orient)
    mapped = set()
    for y in flows:
        z = [0] * st_.num_edges
        for e in range(g.num_edges):
            for end in (0, 1):
                val = int(y[e])
                # each stretched edge points at the subdivision vertex; the
                # half-edge on the original tail keeps the value, the head
                # negates it
                z[2 * e + end] = val if orient.sigma(e, end) == -1 else int(Zq.neg[val])
        mapped.add(tuple(z))
    stretched_flows = {
        tuple(map(int, z)) for z in enumerate_flows(st_, Zq, default_orientation(st_))
    }
    assert mapped == stretched_flows
    assert len(mapped) == len(flows)


def test_line_graph_triangle_and_path():
    tri = graph_of("triangle")
    L = line_graph(tri)
    assert (L.num_vertices, L.num_edges) == (3, 3)
    path = Multigraph(3, ((0, 1), (1, 2)))
    Lp = line_graph(path)
    assert (Lp.num_vertices, Lp.num_edges) == (2, 1)


def test_line_graph_k4_is_octahedron():
    L = line_graph(graph_of("k4"))
    assert (L.num_vertices, L.num_edges) == (6, 12)
    assert L.is_regular(4)
    # complement of the octahedron is a perfect matching on the 6 vertices
    adjacent = {frozenset(e) for e in L.edges}
    non_adjacent = [
        (a, b)
        for a in range(6)
        for b in range(a + 1, 6)
        if frozenset((a, b)) not in adjacent
    ]
    assert len(non_adjacent) == 3
    assert len({v for pair in non_adjacent for v in pair}) == 6


def test_line_graph_multiplicities():
    # two parallel edges yield two line-graph edges between the same pair
    digon = graph_of("digon")
    L = line_graph(digon)
    assert (L.num_vertices, L.num_edges) == (2, 2)
    # a loop plus an incident edge: loop's two half-edges both see the edge
    g = Multigraph(2, ((0, 0), (0, 1)))
    L2 = line_graph(g)
    assert sorted(L2.edges) == [(0, 0), (0, 1), (0, 1)]


def test_default_rotation_covers_halfedges():
    for name in ("k4", "petersen", "single_loop"):
        g = graph_of(name)
        rot = default_rotation(g)
        rot.validate(g)


def test_disjoint_union():
    a = graph_of("triangle")
    b = graph_of("single_edge")
    u = disjoint_union(a, b)
    assert u.num_vertices == 5 and u.num_edges == 4
    assert components(u) == 2


def test_graph_modules_load_without_numpy():
    # the package imports none of its submodules, so the graph types
    # need neither numpy nor the models
    code = "import sys, qcolour.graphs; print('numpy' in sys.modules)"
    src = str(pathlib.Path(qcolour.graphs.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
