import numpy as np
import pytest

from qcolour.enumeration import TermCapExceeded
from qcolour.graphs import Multigraph
from qcolour.groups import (
    QFunction,
    cyclic_group,
    group_from_name,
    monochrome_indicator,
    random_orthogonal,
    transform,
    zero_sum_indicator,
)
from qcolour.models import (
    EdgeModel,
    ModelValue,
    VertexModel,
    VertexWeights,
    edge_partition,
    halfedge_inner,
    orthogonal_invariance_check,
    vertex_partition,
)

from conftest import assert_close, complex_vec, disjoint_union, graph_of


def proper_vertex_model(q):
    G = cyclic_group(q)
    g2 = QFunction.from_function(G, 2, lambda t: 0.0 if t[0] == t[1] else 1.0)
    return VertexModel(QFunction(G, 1, np.ones(G.q)), g2)


def test_vertex_partition_examples():
    assert vertex_partition(graph_of("triangle"), proper_vertex_model(3)).value == 6
    single = Multigraph(1, ())
    G = cyclic_group(5)
    m = VertexModel(QFunction(G, 1, np.ones(5)), QFunction(G, 2, np.ones(25)))
    assert vertex_partition(single, m).value == 5
    assert vertex_partition(graph_of("single_edge"), proper_vertex_model(2)).value == 2


def test_vertex_partition_loop_sees_pair():
    loop = graph_of("single_loop")
    # proper model vanishes on loops: g(x, x) = 0
    assert vertex_partition(loop, proper_vertex_model(3)).value == 0


def matching_model(q=2):
    G = cyclic_group(q)
    return EdgeModel(VertexWeights.perfect_matching(G))


def test_edge_partition_perfect_matchings():
    assert edge_partition(graph_of("k4"), matching_model()).value == 3
    assert edge_partition(graph_of("triangle"), matching_model()).value == 0
    assert edge_partition(graph_of("single_edge"), matching_model()).value == 1
    # petersen has six perfect matchings
    assert edge_partition(graph_of("petersen"), matching_model()).value == 6


@pytest.mark.parametrize("d", range(5))
@pytest.mark.parametrize("q", range(1, 6))
def test_perfect_matching_table_matches_tuple_reference(q, d):
    G = cyclic_group(q)
    want = VertexWeights.from_tuple_function(
        G, lambda t: 1.0 if sum(1 for a in t if a == 1) == 1 else 0.0
    ).table(d)
    got = VertexWeights.perfect_matching(G).table(d)
    assert got.dtype == want.dtype and got.shape == want.shape == (q,) * d
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("specs", [("3", "2"), ("4", "2x2"), ("2x2", "f4")])
def test_models_refuse_weights_of_two_groups(specs):
    for a, b in (specs, specs[::-1]):
        A, B = group_from_name(a), group_from_name(b)
        with pytest.raises(ValueError, match="group mismatch"):
            VertexModel(QFunction(A, 1, np.ones(A.q)), QFunction(B, 2, np.ones(B.q**2)))
        with pytest.raises(ValueError, match="group mismatch"):
            EdgeModel(VertexWeights.uniform(A), QFunction(B, 1, np.ones(B.q)))
        with pytest.raises(ValueError, match="group mismatch"):
            halfedge_inner(
                graph_of("k4"), VertexWeights.uniform(A), monochrome_indicator(B, 2)
            )
        # one group on both sides is a model
        VertexModel(QFunction(A, 1, np.ones(A.q)), QFunction(A, 2, np.ones(A.q**2)))
        EdgeModel(VertexWeights.uniform(A), QFunction(A, 1, np.ones(A.q)))


def test_halfedge_inner_monochrome_collapses_to_edge_model():
    from qcolour.corpus import CORPUS

    for name in CORPUS:
        g = graph_of(name)
        for q in (2, 3):
            if q**g.num_edges > 10**6:
                continue
            G = cyclic_group(q)
            rng = np.random.default_rng(q * 100 + g.num_edges)
            w = VertexWeights.from_tuple_function(
                G, lambda t: complex(rng.standard_normal(), rng.standard_normal())
            )
            for v in range(g.num_vertices):
                w.table(g.degree(v))
            lhs = halfedge_inner(g, w, monochrome_indicator(G, 2)).value
            rhs = edge_partition(g, EdgeModel(w)).value
            assert_close(lhs, rhs, 1e-9, f"{name} q={q}")


def test_halfedge_inner_single_edge_uniform():
    g = graph_of("single_edge")
    G = cyclic_group(4)
    w = VertexWeights.uniform(G)
    assert halfedge_inner(g, w, monochrome_indicator(G, 2)).value == 4
    # zero-sum pairing also has q support pairs
    assert halfedge_inner(g, w, zero_sum_indicator(G, 2)).value == 4


def test_halfedge_inner_support_term_count():
    g = graph_of("k4")
    G = cyclic_group(3)
    w = VertexWeights.uniform(G)
    mv = halfedge_inner(g, w, monochrome_indicator(G, 2))
    # the contraction is planned over the 3 support pairs per edge, as
    # 3^5 + 3^5 + 3^4 + 3^3 + 3^2 + 3; over all q^2 = 9 pairs per edge the same
    # order would cost 125478
    assert mv.terms == 606


def test_halfedge_inner_empty_support():
    G = cyclic_group(2)
    w = VertexWeights.uniform(G)
    zero = QFunction(G, 2, np.zeros(4))
    # without edges the sum has one term, the empty colouring
    assert halfedge_inner(Multigraph(2, ()), w, zero).value == 1
    assert halfedge_inner(Multigraph(2, ()), w, monochrome_indicator(G, 2)).value == 1
    for edges in (((0, 1),), ((0, 0),), ((0, 1), (1, 1))):
        assert halfedge_inner(Multigraph(2, edges), w, zero).value == 0, edges


def test_loop_consistency_between_model_kinds():
    loop = graph_of("single_loop")
    q = 3
    G = cyclic_group(q)
    rng = np.random.default_rng(0)
    gv = complex_vec(rng, q * q)
    vm = VertexModel(QFunction(G, 1, np.ones(G.q)), QFunction(G, 2, gv))
    got = vertex_partition(loop, vm).value
    want = sum(gv[a * q + a] for a in range(q))
    assert_close(got, want, 1e-12)
    # edge model vertex factor sees the loop colour twice
    w = VertexWeights.from_tuple_function(G, lambda t: float(sum(t)))
    mv = edge_partition(loop, EdgeModel(w))
    assert_close(mv.value, sum(2 * y for y in range(q)), 1e-12)


def test_multiplicative_over_disjoint_unions():
    a, b = graph_of("triangle"), graph_of("digon")
    u = disjoint_union(a, b)
    m3 = proper_vertex_model(3)
    assert_close(
        vertex_partition(u, m3).value,
        vertex_partition(a, m3).value * vertex_partition(b, m3).value,
        1e-12,
    )
    em = matching_model()
    assert_close(
        edge_partition(u, em).value,
        edge_partition(a, em).value * edge_partition(b, em).value,
        1e-12,
    )


def test_term_cap():
    g = graph_of("petersen")
    with pytest.raises(TermCapExceeded) as exc:
        edge_partition(g, matching_model(4), max_terms=10**5)
    # the planned contraction cost, not the 4^15 colourings it sums over
    assert exc.value.estimate == 125268


def test_model_value_rounding():
    mv = ModelValue.of(5.9999999 + 1e-9j, 10)
    assert mv.rounded(1e-5) == 6
    with pytest.raises(ValueError):
        ModelValue.of(5.9 + 0j, 10).rounded(1e-6)


def test_orthogonal_invariance_identity_and_signed_permutation():
    g = graph_of("k4")
    G = cyclic_group(3)
    rng = np.random.default_rng(5)
    w = VertexWeights.from_tuple_function(
        G, lambda t: complex(rng.standard_normal(), rng.standard_normal())
    )
    for v in range(g.num_vertices):
        w.table(g.degree(v))
    signed_perm = np.array([[0, -1, 0], [1, 0, 0], [0, 0, -1]], dtype=float)
    assert orthogonal_invariance_check(g, w, [np.eye(3), signed_perm]) == (True, True)


@pytest.mark.parametrize("q,seed", [(2, 0), (2, 3), (3, 1)])
def test_orthogonal_invariance_random(q, seed):
    g = graph_of("triangle")
    G = cyclic_group(q)
    rng = np.random.default_rng(seed + 10)
    w = VertexWeights.from_tuple_function(
        G, lambda t: complex(rng.standard_normal(), rng.standard_normal())
    )
    for v in range(g.num_vertices):
        w.table(g.degree(v))
    U = random_orthogonal(q, seed)
    assert orthogonal_invariance_check(g, w, [U], tol=1e-8) == (True,)


def test_orthogonal_invariance_rejects_non_orthogonal():
    g = graph_of("triangle")
    G = cyclic_group(2)
    w = VertexWeights.uniform(G)
    not_orth = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert orthogonal_invariance_check(g, w, [not_orth]) == (False,)
    assert orthogonal_invariance_check(g, w, [not_orth, np.eye(2)]) == (False, True)


def test_orthogonal_invariance_pairs_the_unchanged_weights_once(monkeypatch):
    import qcolour.models as models_mod

    g = graph_of("k4")
    G = cyclic_group(3)
    rng = np.random.default_rng(7)
    w = VertexWeights.from_tuple_function(
        G, lambda t: complex(rng.standard_normal(), rng.standard_normal())
    )
    for v in range(g.num_vertices):
        w.table(g.degree(v))
    calls = []
    real = models_mod.factor_sum

    def counted(radix, length, factors, *args, **kwargs):
        calls.append(factors)
        return real(radix, length, factors, *args, **kwargs)

    def stack_of(factors):
        # the weights read each vertex's own half-edge labels, after the
        # edge labels, and one stack sits on (edge, half-edge) at each
        assert [labels for t, labels in factors if t is w.fn] == [
            range(6 + 3 * v, 9 + 3 * v) for v in range(4)
        ]
        stacks = [(t, labels) for t, labels in factors if t is not w.fn]
        assert sorted(e for _t, (e, _x) in stacks) == sorted([0, 1, 2, 3, 4, 5] * 2)
        assert sorted(x for _t, (_e, x) in stacks) == list(range(6, 18))
        assert all(t is stacks[0][0] for t, _labels in stacks)
        return stacks[0][0]

    monkeypatch.setattr(models_mod, "factor_sum", counted)
    Us = [random_orthogonal(3, i) for i in range(5)]
    assert orthogonal_invariance_check(g, w, Us) == (True,) * 5
    # one batched sum: the identity on each half-edge, then each U
    assert len(calls) == 1
    stack = stack_of(calls[0])
    assert np.array_equal(stack, [np.eye(3), *Us])
    # a U that fails the first test is paired too, and reads False
    calls.clear()
    assert orthogonal_invariance_check(g, w, [Us[0], 2 * np.eye(3)]) == (True, False)
    assert len(calls) == 1
    assert np.array_equal(stack_of(calls[0]), [np.eye(3), Us[0], 2 * np.eye(3)])
    # none at all when no U fixes the monochrome indicator
    calls.clear()
    assert orthogonal_invariance_check(g, w, [2 * np.eye(3)]) == (False,)
    assert calls == []


def test_per_arity_reads_the_whole_grid_as_the_stored_table():
    G = cyclic_group(3)
    rng = np.random.default_rng(5)
    # a batch of two families, at arities 0, 2 and 3
    tables = {d: complex_vec(rng, 2 * 3**d).reshape((2,) + (3,) * d) for d in (0, 2, 3)}
    w = VertexWeights.per_arity(G, tables.__getitem__)
    for d in (0, 2, 3):
        whole = w.fn(*np.indices((3,) * d, sparse=True))
        assert np.shares_memory(whole, tables[d]) and np.array_equal(whole, tables[d])
    # a loop reads the diagonal of its two axes, and swapped axes transpose
    i, j = np.indices((3, 3), sparse=True)
    loop = w.fn(i, i, j)
    assert not np.shares_memory(loop, tables[3])
    assert np.array_equal(loop, np.einsum("biij->bij", tables[3]))
    assert np.array_equal(w.fn(j, i), tables[2].swapaxes(1, 2))
