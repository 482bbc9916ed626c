"""The model kernel against scalar brute force, and the layering rule that
keeps the oracles and the evaluators they check on separate code paths."""

import itertools

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from qcolour import duality, enumeration, models, oracles, signed
from qcolour.duality import boundary_edge_sum, tension_vertex_sum
from qcolour.corpus import CORPUS
from qcolour.graphs import (
    Multigraph,
    Orientation,
    boundary,
    coboundary,
    default_orientation,
    default_rotation,
)
from qcolour.groups import QFunction, group_from_name, monochrome_indicator, zero_sum_indicator
from qcolour.models import (
    EdgeModel,
    VertexWeights,
    edge_partition,
    edge_table_sum,
    eliminate,
    factor_sum,
    halfedge_inner,
    vertex_table_sum,
)

from conftest import assert_close, complex_vec, multigraphs

GROUP_SPECS = ("2", "3", "4", "2x2", "f4")
TOL = 1e-10


def _tension_brute(g, G, orient, vv, ev):
    total = 0j
    for x in itertools.product(range(G.q), repeat=g.num_vertices):
        w = 1 + 0j
        for v, a in enumerate(x):
            w *= vv[v][a]
        for e, b in enumerate(coboundary(g, orient, G, x)):
            w *= ev[e][b]
        total += w
    return total


def _boundary_brute(g, G, orient, vv, ev):
    total = 0j
    for y in itertools.product(range(G.q), repeat=g.num_edges):
        w = 1 + 0j
        for v, a in enumerate(boundary(g, orient, G, y)):
            w *= vv[v][a]
        for e, b in enumerate(y):
            w *= ev[e][b]
        total += w
    return total


@settings(max_examples=40, deadline=None)
@given(
    multigraphs(),
    st.sampled_from(GROUP_SPECS),
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(0, 1), min_size=5, max_size=5),
)
# isolated vertices only, and two edges whose tails share a sign pattern
@example(Multigraph(4, ()), "3", 0, [0, 0, 0, 0, 0])
@example(Multigraph(4, ((0, 1), (2, 3))), "2x2", 1, [1, 1, 0, 0, 0])
def test_boundary_vertex_tables_are_shared_by_row_object(g, spec, seed, heads):
    G = group_from_name(spec)
    rng = np.random.default_rng(seed)
    orient = Orientation(tuple(heads[: g.num_edges]))
    ev = [complex_vec(rng, G.q) for _ in range(g.num_edges)]
    rows = complex_vec(rng, g.num_vertices * G.q).reshape(g.num_vertices, G.q)
    one = complex_vec(rng, G.q)
    signs = {
        tuple(orient.sigma(e, end) for e, end in g.halfedges_at(v) if not g.is_loop(e))
        for v in range(g.num_vertices)
    }
    tables = []
    real = duality.factor_sum

    def spy(radix, length, factors, max_terms):
        tables.append({id(t) for t, _ls in factors if callable(t)})
        return real(radix, length, factors, max_terms)

    # a 2-D array's rows, a fresh view each, share no table; the vertices
    # of one row object share one per sign pattern
    for vv, shared in (
        (rows, g.num_vertices),
        ([one] * g.num_vertices, len(signs)),
        (list(rows), g.num_vertices),
    ):
        tables.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(duality, "factor_sum", spy)
            got = boundary_edge_sum(g, G, orient, vv, ev).value
        assert_close(got, _boundary_brute(g, G, orient, list(vv), ev), TOL)
        assert [len(t) for t in tables] == [shared]


def _edge_table_brute(g, q, tables, ev):
    total = 0j
    for y in itertools.product(range(q), repeat=g.num_edges):
        w = 1 + 0j
        for v in range(g.num_vertices):
            w *= tables[v][tuple(y[e] for e, _end in g.halfedges_at(v))]
        for e, b in enumerate(y):
            w *= ev[e][b]
        total += w
    return total


def _vertex_table_brute(g, q, orient, tables, vv):
    total = 0j
    for x in itertools.product(range(q), repeat=g.num_vertices):
        w = 1 + 0j
        for v, a in enumerate(x):
            w *= vv[v][a]
        for e in range(g.num_edges):
            w *= tables[e][x[orient.tail(g, e)], x[orient.head(g, e)]]
        total += w
    return total


def _factor_brute(radix, length, factors):
    total = 0j
    for c in itertools.product(range(radix), repeat=length):
        w = 1 + 0j
        for table, labels in factors:
            w *= table[tuple(c[label] for label in labels)]
        total += w
    return total


def _halfedge_brute(g, weights, pair_weight):
    """Sum over one colour pair per edge (pairs of weight zero add nothing)
    of the pair weights times each vertex table at its half-edge colours."""
    q = weights.group.q
    pw = pair_weight.values.reshape(q, q)
    pairs = [(a, b) for a in range(q) for b in range(q) if pw[a, b] != 0]
    tables = [weights.table(d) for d in g.degrees()]
    total = 0j
    for choice in itertools.product(pairs, repeat=g.num_edges):
        w = 1 + 0j
        for e, (a, b) in enumerate(choice):
            w *= pw[a, b]
        for v in range(g.num_vertices):
            colours = tuple(choice[e][end] for e, end in g.halfedges_at(v))
            w *= tables[v][colours]
        total += w
    return total


# a parallel pair and a loop in one component, a loop alone in another,
# and an isolated vertex
MIXED = Multigraph(4, ((0, 1), (1, 0), (0, 0), (2, 2)))


@settings(max_examples=60, deadline=None)
@given(
    multigraphs(),
    st.sampled_from(GROUP_SPECS),
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(0, 1), min_size=5, max_size=5),
)
@example(MIXED, "2x2", 1, [0, 1, 1, 0, 1])
@example(MIXED, "f4", 2, [1, 0, 0, 1, 0])
def test_kernel_sums_match_brute_force(g, spec, seed, heads):
    G = group_from_name(spec)
    rng = np.random.default_rng(seed)
    orient = Orientation(tuple(heads[: g.num_edges]))
    vv = [complex_vec(rng, G.q) for _ in range(g.num_vertices)]
    ev = [complex_vec(rng, G.q) for _ in range(g.num_edges)]
    assert_close(
        tension_vertex_sum(g, G, orient, vv, ev).value,
        _tension_brute(g, G, orient, vv, ev),
        TOL,
        "tension_vertex_sum",
    )
    assert_close(
        boundary_edge_sum(g, G, orient, vv, ev).value,
        _boundary_brute(g, G, orient, vv, ev),
        TOL,
        "boundary_edge_sum",
    )
    tables = {
        d: complex_vec(rng, G.q**d).reshape((G.q,) * d) for d in set(g.degrees())
    }
    weights = VertexWeights.per_arity(G, tables.__getitem__)
    for pair in (monochrome_indicator(G, 2), zero_sum_indicator(G, 2)):
        assert_close(
            halfedge_inner(g, weights, pair).value,
            _halfedge_brute(g, weights, pair),
            TOL,
            "halfedge_inner",
        )
    vtables = [complex_vec(rng, G.q**d).reshape((G.q,) * d) for d in g.degrees()]
    assert_close(
        edge_table_sum(g, G.q, vtables, ev).value,
        _edge_table_brute(g, G.q, vtables, ev),
        TOL,
        "edge_table_sum",
    )
    etables = [complex_vec(rng, G.q**2).reshape(G.q, G.q) for _ in ev]
    assert_close(
        vertex_table_sum(g, G.q, etables, vv, orient=orient).value,
        _vertex_table_brute(g, G.q, orient, etables, vv),
        TOL,
        "vertex_table_sum",
    )
    # one edge weight on every edge, and the family's table at each degree
    weight = complex_vec(rng, G.q)
    assert_close(
        edge_partition(g, EdgeModel(weights, QFunction(G, 1, weight))).value,
        _edge_table_brute(
            g, G.q, [tables[d] for d in g.degrees()], [weight] * g.num_edges
        ),
        TOL,
        "edge_partition",
    )


def _factor_cases():
    rng = np.random.default_rng(7)
    t3 = complex_vec(rng, 27).reshape(3, 3, 3)
    return {
        "length 0": (3, 0, [(np.array(2.5 - 1j), ())]),
        "length 0, no factors": (2, 0, []),
        "constant factor": (
            2,
            2,
            [(np.array(3j), ()), (complex_vec(rng, 4).reshape(2, 2), (0, 1))],
        ),
        "unread label": (3, 3, [(complex_vec(rng, 3), (1,))]),
        "no factors": (3, 2, []),
        "radix 1": (1, 3, [(np.array([[2.0 + 1j]]), (0, 2)), (np.array([-3.0]), (1,))]),
        "label three times": (
            3,
            2,
            [(t3, (1, 1, 1)), (complex_vec(rng, 9).reshape(3, 3), (0, 1))],
        ),
        "loop beside an edge": (3, 2, [(t3, (0, 1, 0)), (complex_vec(rng, 3), (1,))]),
        "int64 tables past 2^63": (2, 1, [(np.array([2**40, 3]), (0,))] * 2),
        "float64 tables": (
            2,
            4,
            [
                (rng.choice([-1.0, 1.0], size=(2, 2, 2)), (0, 1, 2)),
                (rng.choice([-1.0, 1.0], size=(2, 2, 2)), (3, 1, 2)),
                (rng.standard_normal(2), (0,)),
            ],
        ),
    }


# sum over elimination steps of radix^(labels read at that step), by hand
PLANNED_COST = {
    "length 0": 0,
    "length 0, no factors": 0,
    "constant factor": 2**2 + 2,
    "unread label": 3,
    "no factors": 0,
    "radix 1": 3,
    "label three times": 3**2 + 3,
    "loop beside an edge": 3**2 + 3,
    "int64 tables past 2^63": 2,
    "float64 tables": 2**3 + 2**3 + 2**2 + 2,
}


# the cases that read a label twice in one table, run again with that
# table unbuilt: a function of one coordinate array per axis
UNBUILT = ("label three times", "loop beside an edge")


@pytest.mark.parametrize(
    "case", list(_factor_cases()) + [f"{name}, unbuilt" for name in UNBUILT]
)
def test_factor_sum_edge_cases(case):
    name = case.removesuffix(", unbuilt")
    radix, length, factors = _factor_cases()[name]
    calls = []

    def unbuilt(table):
        def read(*coords):
            grid = np.broadcast_shapes(*map(np.shape, coords))
            calls.append((len(coords), int(np.prod(grid))))
            return table[coords]

        return read

    run, repeats = factors, []
    if case != name:
        repeats = [ls for _t, ls in factors if len(set(ls)) < len(ls)]
        run = [(unbuilt(t) if ls in repeats else t, ls) for t, ls in factors]
    mv = factor_sum(radix, length, run)
    assert mv.terms == PLANNED_COST[name]
    assert_close(mv.value, _factor_brute(radix, length, factors), TOL, case)
    # each function is read once, an array per axis spanning the grid of
    # its distinct labels
    assert calls == [(len(ls), radix ** len(set(ls))) for ls in repeats]


def test_table_functions_read_a_grid_they_cannot_write():
    M = complex_vec(np.random.default_rng(3), 9).reshape(3, 3)

    def reads(i, j):
        return M[i, j]

    def writes(i, j):
        i += 1
        return M[i % 3, j]

    before = factor_sum(3, 2, [(reads, (0, 1))])
    assert_close(before.value, M.sum(), TOL)
    # every sum over a radix and width reads one grid, so a write into it
    # would move the next sum's reads
    with pytest.raises(ValueError, match="read-only"):
        factor_sum(3, 2, [(writes, (0, 1))])
    assert factor_sum(3, 2, [(reads, (0, 1))]) == before


# 1 + 2^-12 squares to 1 + 2^-11 + 2^-24 in double precision, and a single
# precision product drops the last term; 2^40 squared wraps an int64
NARROW_TABLES = {
    "bool": np.array([True, True]),
    "int64": np.array([2**40, 3]),
    "float32": np.array([1 + 2**-12], dtype=np.float32),
    "complex64": np.array([1 + 2**-12 + 0j], dtype=np.complex64),
}


@pytest.mark.parametrize("read", ["array", "loop", "unbuilt"])
@pytest.mark.parametrize("dtype", sorted(NARROW_TABLES))
def test_narrow_tables_sum_in_double_precision(dtype, read):
    t = NARROW_TABLES[dtype]
    assert np.float32(1 + 2**-12) ** 2 != (1 + 2**-12) ** 2
    first = {
        "array": (t, (0,)),
        "loop": (np.diag(t), (0, 0)),
        "unbuilt": (lambda c: t[c], (0,)),
    }[read]
    s = complex(sum(t.tolist()))
    # t read at each of two labels sums to the square of t's sum
    assert factor_sum(t.size, 2, [first, (t, (1,))]).value == s * s


def test_cap_fires_before_any_einsum(monkeypatch):
    def no_einsum(*args, **kwargs):
        raise AssertionError("einsum ran before the cap was checked")

    monkeypatch.setattr(np, "einsum", no_einsum)
    t3 = np.ones((3, 3, 3))
    with pytest.raises(enumeration.TermCapExceeded) as err:
        # a loop at label 0, read on its diagonal only once the cap passes
        factor_sum(3, 3, [(t3, (0, 1, 0)), (t3, (1, 2, 2))], max_terms=20)
    assert (err.value.estimate, err.value.cap) == (3**2 + 3**2 + 3, 20)
    # these two adapters stop at the plan before they build their tables
    G = group_from_name("4")
    g = Multigraph(3, ((0, 1), (1, 2), (2, 0), (0, 0)))
    orient = Orientation((1, 1, 1, 1))
    vv, ev = [np.ones(4)] * 3, [np.ones(4)] * 4
    with pytest.raises(enumeration.TermCapExceeded) as err:
        boundary_edge_sum(g, G, orient, vv, ev, max_terms=20)
    assert err.value.estimate == 4**3 + 4**2 + 4 + 4
    weights = VertexWeights.uniform(G)
    with pytest.raises(enumeration.TermCapExceeded) as err:
        halfedge_inner(g, weights, monochrome_indicator(G, 2), max_terms=20)
    assert err.value.estimate == 4**3 + 4**3 + 4**2 + 4


# two vertices joined by 13 edges: a 13-colour table at either vertex has
# 13^13 entries, petabytes, so a builder that built it before the plan's
# cap fired would raise MemoryError instead
BUNDLE = Multigraph(2, ((0, 1),) * 13)
BUNDLE_ROT = default_rotation(BUNDLE)
BUNDLE_ORIENT = default_orientation(BUNDLE)
Z13 = group_from_name("13")
ONES = np.ones(13)
BUNDLE_SUMS = {
    "proper_colouring_sign_sum": lambda: signed.proper_colouring_sign_sum(
        BUNDLE, BUNDLE_ROT, 13
    ),
    "sine_model": lambda: signed.sine_model(BUNDLE, BUNDLE_ROT, 13, 13),
    "zero_sum_parity_sum": lambda: signed.zero_sum_parity_sum(
        BUNDLE, BUNDLE_ROT, Z13, range(13)
    ),
    "edge_partition.uniform": lambda: models.edge_partition(
        BUNDLE, EdgeModel(VertexWeights.uniform(Z13))
    ),
    "edge_partition.matching": lambda: models.edge_partition(
        BUNDLE, EdgeModel(VertexWeights.perfect_matching(Z13))
    ),
    "general_duality_sides": lambda: duality.general_duality_sides(
        BUNDLE, Z13, BUNDLE_ORIENT, [ONES] * 2, [ONES] * 13
    ),
    "xq_dual": lambda: duality.xq_dual(BUNDLE, Z13, BUNDLE_ORIENT, ONES, ONES),
    "tutte_edge_model": lambda: duality.tutte_edge_model(BUNDLE, 13, 2.0),
    "flow_cwe_edge_model": lambda: duality.flow_cwe_edge_model(BUNDLE, Z13, ONES),
    "xq_edge_model": lambda: duality.xq_edge_model(BUNDLE, Z13, ONES, ONES),
    "spectral_edge_model": lambda: duality.spectral_edge_model(
        BUNDLE, ONES, np.eye(13)
    ),
    "principal_specialization": lambda: duality.principal_specialization(
        BUNDLE, BUNDLE_ORIENT, 13, 2.0, 3.0
    ),
    "orthogonal_invariance_check": lambda: models.orthogonal_invariance_check(
        BUNDLE, VertexWeights.uniform(Z13), [np.eye(13)]
    ),
    # K4 at 2000 colours: each vertex table has 8 * 10^9 entries
    "flow_cubic_edge_model": lambda: duality.flow_cubic_edge_model(
        CORPUS["k4"].graph, 2000
    ),
}
# the plan's cost: summing out each edge of the bundle reads all the edges
# still left; K4's steps read 5, 5, 4, 3, 2 and 1 of its 6 edges; the
# orthogonal check's half-edge labels make each vertex read 13 of its own
REFUSED_ESTIMATE = {
    "flow_cubic_edge_model": 64_016_008_004_002_000,
    "orthogonal_invariance_check": 51_514_007_712_927_591,
}
# the split's edge side builds no vertex table: each vertex colour a_v is a
# label, and the plan sums each edge against (a_0, a_1), then a_0, then a_1
SPLIT_COST = dict.fromkeys(
    ("tutte_edge_model", "flow_cwe_edge_model", "xq_edge_model", "spectral_edge_model"),
    13 * 13**3 + 13**2 + 13,
)


@pytest.mark.parametrize("name", sorted(BUNDLE_SUMS))
def test_oversized_tables_refuse_before_they_are_built(name, address_space_cap):
    if name in SPLIT_COST:
        assert BUNDLE_SUMS[name]().terms == SPLIT_COST[name]
        return
    with pytest.raises(enumeration.TermCapExceeded) as err:
        BUNDLE_SUMS[name]()
    assert err.value.estimate == REFUSED_ESTIMATE.get(
        name, sum(13**i for i in range(1, 14))
    )
    assert err.value.cap == enumeration.DEFAULT_MAX_TERMS


def test_plan_is_reused_across_radix_and_tables():
    labels = [(0, 1, 0), (1, 2), (2,), ()]

    def factors(radix, rng):
        return [
            (complex_vec(rng, radix ** len(ls)).reshape((radix,) * len(ls)), ls)
            for ls in labels
        ]

    # steps read {0, 1}, then {1, 2}, then {2}
    planned = {2: 2**2 + 2**2 + 2, 3: 3**2 + 3**2 + 3}
    rng = np.random.default_rng(11)
    for radix in (2, 3):
        fs = factors(radix, rng)
        mv = factor_sum(radix, 4, fs)
        assert mv.terms == planned[radix]
        assert_close(mv.value, _factor_brute(radix, 4, fs), TOL, f"radix {radix}")
        as_list = [(t, list(ls)) for t, ls in fs]
        assert factor_sum(radix, 4, as_list) == mv
    factor_sum(2, 4, factors(2, rng), max_terms=planned[2])
    with pytest.raises(enumeration.TermCapExceeded) as err:
        factor_sum(3, 4, factors(3, rng), max_terms=planned[2])
    assert (err.value.estimate, err.value.cap) == (planned[3], planned[2])


def test_factor_sum_numbers_labels_past_einsum_letters():
    # a path of 60 labels: more labels than einsum has axis letters
    M = np.array([[1.0, 0.5], [0.25, -1.0]])
    factors = [(M, (i, i + 1)) for i in range(59)]
    want = np.ones(2) @ np.linalg.matrix_power(M, 59) @ np.ones(2)
    assert_close(factor_sum(2, 60, factors, max_terms=2**60).value, want, TOL)


def _bound(module, functions):
    return sorted(
        name
        for name, value in vars(module).items()
        if any(value is fn for fn in functions)
    )


def test_oracles_and_evaluators_share_no_enumeration_code():
    enumerators = (
        enumeration.index_blocks,
        enumeration.boundary_chunk,
        enumeration.coboundary_chunk,
    )
    for module in (models, duality, signed):
        assert _bound(module, enumerators) == [], module.__name__
    evaluators = (
        models.factor_sum,
        models.eliminate,
        models.edge_table_sum,
        models.vertex_table_sum,
        models.halfedge_inner,
        duality.tension_vertex_sum,
        duality.boundary_edge_sum,
    )
    assert _bound(oracles, evaluators) == []





# Batched sums: a table with one leading axis more than its labels holds
# one table per batch entry, and a batch of B must give the B sums of B
# unbatched calls, at the same per-entry cost and cap.

BATCH_TOL = 1e-12
# builders handed their batch whole: they return it on every graph, even
# where no table carries it (the vertex side with no edges, or no vertices)
KEEP_BATCH = (
    "split_vertex_sum",
    "split_edge_sum",
    "tutte_edge_model",
)


def _picker(i):
    """The whole input for the batched call (i None), else what the i-th
    unbatched call takes of an input whose unbatched shape is given."""
    if i is None:
        return lambda x, shape: x
    return lambda x, shape: x[i] if np.ndim(x) > len(shape) else x


def _batched_cases(g, G, orient, draw, B):
    """name -> run(i, cap) -> (values, planned cost or None), for the
    batched call (i None) or the i-th unbatched one.  Each input is drawn
    once, batched or not."""
    q = G.q
    vv = [draw((q,)) for _ in range(g.num_vertices)]
    ev = [draw((q,)) for _ in range(g.num_edges)]
    # an edge's table reads its two ends, so a loop's reads its diagonal
    et = [draw((q, q)) for _ in range(g.num_edges)]
    const = draw((), batched=True)
    h = draw((q, q), batched=True)
    f, gtable, s, t = (draw((q,)) for _ in range(4))
    tutte_s = 1.5 + np.abs(draw((), batched=True))
    # one vertex table per degree, for the half-edge pairings
    vt = {d: draw((q,) * d) for d in set(g.degrees())}

    def one(mv):
        return [mv.value], mv.terms

    def elim(pick, cap):
        fs = [(pick(x, (q,)), (v,)) for v, x in enumerate(vv)]
        fs += [(pick(x, (q, q)), g.edges[e]) for e, x in enumerate(et)]
        fs.append((pick(const, ()), ()))
        value, cost = eliminate(q, g.num_vertices + 1, fs, cap)
        return [value], cost

    def halfedge(pick, cap):
        weights = VertexWeights.per_arity(G, lambda d: pick(vt[d], (q,) * d))
        pairs = (monochrome_indicator(G, 2), zero_sum_indicator(G, 2))
        mvs = [halfedge_inner(g, weights, pair, max_terms=cap) for pair in pairs]
        return [mv.value for mv in mvs], max(mv.terms for mv in mvs)

    def vecs(pick, xs):
        return [pick(x, (q,)) for x in xs]

    cases = {
        "eliminate": elim,
        "halfedge_inner": halfedge,
        "tension_vertex_sum": lambda pick, cap: one(
            tension_vertex_sum(g, G, orient, vecs(pick, vv), vecs(pick, ev), cap)
        ),
        "boundary_edge_sum": lambda pick, cap: one(
            boundary_edge_sum(g, G, orient, vecs(pick, vv), vecs(pick, ev), cap)
        ),
        "split_vertex_sum": lambda pick, cap: one(
            duality._split_vertex_sum(g, pick(h, (q, q)), cap)
        ),
        "split_edge_sum": lambda pick, cap: one(
            duality._split_edge_sum(g, pick(f, (q,)), pick(h, (q, q)), cap)
        ),
        "general_duality_sides": lambda pick, cap: (
            list(
                duality.general_duality_sides(
                    g, G, orient, vecs(pick, vv), vecs(pick, ev), cap
                )
            ),
            None,
        ),
        "flow_cwe_vertex_model": lambda pick, cap: one(
            duality.flow_cwe_vertex_model(g, G, pick(gtable, (q,)), cap)
        ),
        "flow_cwe_edge_model": lambda pick, cap: one(
            duality.flow_cwe_edge_model(g, G, pick(gtable, (q,)), cap)
        ),
        "tension_cwe_expectation": lambda pick, cap: one(
            duality.tension_cwe_expectation(g, G, pick(gtable, (q,)), cap)
        ),
        "tutte_edge_model": lambda pick, cap: one(
            duality.tutte_edge_model(g, q, pick(tutte_s, ()), cap)
        ),
        "xq_evaluate": lambda pick, cap: (
            [duality.xq_evaluate(g, G, orient, pick(s, (q,)), pick(t, (q,)), cap)],
            None,
        ),
        "xq_dual": lambda pick, cap: (
            [duality.xq_dual(g, G, orient, pick(s, (q,)), pick(t, (q,)), cap)],
            None,
        ),
    }
    runs = {
        name: (lambda i, cap, case=case: case(_picker(i), cap))
        for name, case in cases.items()
    }
    if G.flavour == "cyclic" and len(G.factors) == 1:
        # s = 1 is a root of unity, so the entries take both branches
        ps, pt = np.array([1.0, 3.0, 0.5])[:B], draw(())
        runs["principal_specialization"] = lambda i, cap: (
            [
                duality.principal_specialization(
                    g, orient, q, _picker(i)(ps, ()), _picker(i)(pt, ()), cap
                )
            ],
            None,
        )
    return runs


@settings(max_examples=30, deadline=None)
@given(
    multigraphs(),
    st.sampled_from(GROUP_SPECS),
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
    st.lists(st.booleans(), min_size=1, max_size=6),
    st.lists(st.integers(0, 1), min_size=5, max_size=5),
)
@example(MIXED, "2x2", 1, 1, [True], [0, 1, 1, 0, 1])
@example(MIXED, "f4", 2, 3, [True, False], [1, 0, 0, 1, 0])
@example(MIXED, "3", 3, 2, [False, True, True], [1, 1, 0, 0, 1])
@example(Multigraph(2, ()), "4", 4, 2, [True], [0, 0, 0, 0, 0])
@example(Multigraph(0, ()), "2", 5, 3, [False, True], [0, 0, 0, 0, 0])
def test_batched_sums_equal_their_entries(g, spec, seed, B, flags, heads):
    G = group_from_name(spec)
    rng = np.random.default_rng(seed)
    orient = Orientation(tuple(heads[: g.num_edges]))
    batched_flags = itertools.cycle(flags)

    def draw(shape, batched=None):
        x = complex_vec(rng, B * int(np.prod(shape))).reshape((B,) + shape)
        return x if (next(batched_flags) if batched is None else batched) else x[0]

    for name, run in _batched_cases(g, G, orient, draw, B).items():
        values, cost = run(None, enumeration.DEFAULT_MAX_TERMS)
        for i in range(B):
            entry_values, entry_cost = run(i, enumeration.DEFAULT_MAX_TERMS)
            assert entry_cost == cost, name
            for whole, one in zip(values, entry_values, strict=True):
                # a sum that no batched table reaches is one value for all
                assert np.shape(whole) in ((B,), ()), name
                assert_close(np.broadcast_to(whole, (B,))[i], one, BATCH_TOL, name)
        if name in KEEP_BATCH:
            assert all(np.shape(whole) == (B,) for whole in values), name
        if cost:
            # the cap is per entry: the batch passes at the cost of one
            run(None, cost)
            with pytest.raises(enumeration.TermCapExceeded) as err:
                run(None, cost - 1)
            assert err.value.estimate == cost, name
