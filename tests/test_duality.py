import math
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from qcolour.duality import (
    flow_cubic_edge_model,
    flow_cwe_edge_model,
    flow_cwe_vertex_model,
    general_duality_sides,
    gf4_flow_identity_check,
    principal_specialization,
    spectral_edge_model,
    spectral_split,
    symmetric_weight_root,
    tension_cwe_expectation,
    tutte_edge_model,
    xq_dual,
    xq_edge_model,
    xq_evaluate,
)
from qcolour.graphs import Multigraph, Orientation, components, default_orientation
from qcolour.groups import (
    QFunction,
    convolve,
    cyclic_group,
    gf4,
    group_from_name,
    negate,
)
from qcolour.models import VertexModel, vertex_partition
from qcolour.oracles import (
    ConsistencyError,
    complete_weight_enum,
    enumerate_flows,
    enumerate_tensions,
    flow_polynomial,
    tutte,
)

from conftest import assert_close, complex_vec, graph_of, multigraphs, stable_seed

SMALL = ("single_edge", "single_loop", "digon", "triangle", "c4", "theta", "k4")


# ------------------------------------------------------- generalized duality


def test_duality_uniform_f_delta_g_triangle():
    g = graph_of("triangle")
    Z2 = cyclic_group(2)
    o = default_orientation(g)
    fs = [np.ones(2)] * 3
    gs = [np.array([1.0, 0.0])] * 3
    lhs, rhs = general_duality_sides(g, Z2, o, fs, gs)
    # constant colourings are the only ones with zero coboundary
    want = 2 ** (-1.5) * 2
    assert_close(lhs, want, 1e-12)
    assert_close(rhs, want, 1e-12)


def test_duality_single_vertex():
    g = Multigraph(1, ())
    Z3 = cyclic_group(3)
    rng = np.random.default_rng(0)
    f = complex_vec(rng, 3)
    lhs, rhs = general_duality_sides(g, Z3, default_orientation(g), [f], [])
    assert_close(lhs, 3 ** (-0.5) * f.sum(), 1e-12)
    assert_close(lhs, rhs, 1e-9)


@pytest.mark.parametrize("name", SMALL)
@pytest.mark.parametrize("spec", ["2", "3", "4", "2x2", "f4"])
def test_duality_random_draws(name, spec):
    g = graph_of(name)
    G = group_from_name(spec)
    o = default_orientation(g)
    rng = np.random.default_rng(stable_seed(name, spec))
    for _ in range(2):
        fs = [complex_vec(rng, G.q) for _ in range(g.num_vertices)]
        gs = [complex_vec(rng, G.q) for _ in range(g.num_edges)]
        lhs, rhs = general_duality_sides(g, G, o, fs, gs)
        assert_close(lhs, rhs, 1e-8, f"{name} {spec}")


# ------------------------------------------------------- flow cwe models


def test_flow_cwe_loop_by_hand():
    loop = graph_of("single_loop")
    Z2 = cyclic_group(2)
    g0, g1 = 1.7, -0.4
    want = g0**2 + g1**2  # both colourings are flows, weight g(y)g(-y)
    assert_close(flow_cwe_vertex_model(loop, Z2, [g0, g1]).value, want, 1e-9)
    assert_close(flow_cwe_edge_model(loop, Z2, [g0, g1]).value, want, 1e-9)


def test_flow_cwe_k4_delta_weight():
    k4 = graph_of("k4")
    Z2 = cyclic_group(2)
    # only the zero flow survives the delta-at-zero weight
    assert_close(flow_cwe_vertex_model(k4, Z2, [1.0, 0.0]).value, 1.0, 1e-8)
    assert_close(flow_cwe_edge_model(k4, Z2, [1.0, 0.0]).value, 1.0, 1e-8)


@pytest.mark.parametrize("name", SMALL)
@pytest.mark.parametrize("q", [2, 3])
def test_flow_cwe_routes_match_oracle(name, q):
    g = graph_of(name)
    G = cyclic_group(q)
    flows = enumerate_flows(g, G)
    rng = np.random.default_rng(stable_seed(name, q))
    for _ in range(2):
        gv = complex_vec(rng, q)
        oracle = complete_weight_enum(flows, gv * gv[G.neg])
        assert_close(flow_cwe_vertex_model(g, G, gv).value, oracle, 1e-7, name)
        assert_close(flow_cwe_edge_model(g, G, gv).value, oracle, 1e-7, name)


@pytest.mark.parametrize("name", SMALL)
@pytest.mark.parametrize("q", [2, 3])
def test_tension_cwe_matches_oracle(name, q):
    g = graph_of(name)
    G = cyclic_group(q)
    tensions = enumerate_tensions(g, G)
    rng = np.random.default_rng(stable_seed(name, q, "t"))
    fv = complex_vec(rng, q)
    fq = QFunction(G, 1, fv)
    oracle = complete_weight_enum(tensions, convolve(fq, negate(fq)).values)
    assert_close(tension_cwe_expectation(g, G, fv).value, oracle, 1e-7, name)


def test_tension_cwe_single_edge_delta():
    g = graph_of("single_edge")
    Z2 = cyclic_group(2)
    # f = 1_{ {0} }: f * f^N = 1_{ {0} }; tensions of an edge are {0, 1}
    assert_close(tension_cwe_expectation(g, Z2, [1.0, 0.0]).value, 1.0, 1e-9)
    # f = 1_Q: f * f^N = q 1_Q; cwe(im delta; q 1_Q) = q^{|E|} q^{r}
    assert_close(tension_cwe_expectation(g, Z2, [1.0, 1.0]).value, 4.0, 1e-9)


# ------------------------------------------------------- Tutte edge model


def test_tutte_edge_model_loop_example():
    assert_close(tutte_edge_model(graph_of("single_loop"), 2, 3).value, 10.0, 1e-9)


def test_tutte_edge_model_triangle_example():
    got = tutte_edge_model(graph_of("triangle"), 2, 2).value
    T = tutte(graph_of("triangle"))
    want = float(3 * T(4, Fraction(5, 3)))
    assert_close(got, want, 1e-9)


@pytest.mark.parametrize("name", SMALL + ("prism", "k33"))
@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("s", [2, 3, Fraction(1, 2)])
def test_tutte_edge_model_matches_oracle(name, q, s):
    g = graph_of(name)
    T = tutte(g)
    got = tutte_edge_model(g, q, float(s)).value
    s2 = Fraction(s) ** 2
    want = float((s2 - 1) ** (g.num_edges - T.full_rank) * T(s2, (s2 - 1 + q) / (s2 - 1)))
    assert_close(got, want, 1e-7, f"{name} q={q} s={s}")


def test_tutte_edge_model_rejects_pole():
    with pytest.raises(ValueError):
        tutte_edge_model(graph_of("k4"), 2, 1)


# ------------------------------------------------------- cubic flow model


@pytest.mark.parametrize("name", ["theta", "k4", "prism", "k33"])
@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_cubic_flow_model(name, q):
    g = graph_of(name)
    assert flow_cubic_edge_model(g, q) == flow_polynomial(g, q)


def test_cubic_flow_model_requires_cubic():
    with pytest.raises(ValueError):
        flow_cubic_edge_model(graph_of("c4"), 3)


def test_cubic_flow_model_theta_hand_value():
    # raw edge sum is 13.5; scaled by 4/27 gives the two nowhere-zero flows
    assert flow_cubic_edge_model(graph_of("theta"), 3) == 2


# ------------------------------------------------------- spectral conversion


def test_spectral_split_identity():
    h = spectral_split(np.eye(3))
    assert np.allclose(h @ h.T, np.eye(3), atol=1e-12)


def test_spectral_split_rank_one():
    h = spectral_split(np.ones((4, 4)))
    nonzero = [c for c in range(4) if np.abs(h[:, c]).max() > 0]
    assert nonzero == [0]
    assert np.allclose(h @ h.T, np.ones((4, 4)), atol=1e-9)


def test_spectral_split_negative_eigenvalues_are_imaginary():
    g = 1.0 - np.eye(3)
    h = spectral_split(g)
    assert np.allclose(h @ h.T, g, atol=1e-9)
    # eigenvalues 2, -1, -1: columns 1, 2 purely imaginary
    assert np.abs(h[:, 1].real).max() < 1e-12
    assert np.abs(h[:, 2].real).max() < 1e-12


def test_spectral_split_rejects_asymmetric():
    with pytest.raises(ValueError):
        spectral_split(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_spectral_split_zero_columns_match_rank():
    rng = np.random.default_rng(3)
    for q in (2, 3, 4):
        for _ in range(10):
            A = rng.standard_normal((q, q))
            gm = (A + A.T) / 2
            if q > 2:  # force a rank deficiency sometimes
                gm[q - 1] = gm[0]
                gm[:, q - 1] = gm[:, 0]
                gm[q - 1, q - 1] = gm[0, 0]
            h = spectral_split(gm)
            nz = sum(1 for c in range(q) if np.abs(h[:, c]).max() > 0)
            want = np.linalg.matrix_rank(gm, tol=1e-9 * np.linalg.norm(gm, 2))
            assert nz == want
            assert np.allclose(h @ h.T, gm, atol=1e-9)


def test_spectral_edge_model_chromatic():
    got = spectral_edge_model(graph_of("triangle"), 3, np.ones(3), 1.0 - np.eye(3))
    assert_close(got.value, 6.0, 1e-7)


def test_spectral_edge_model_all_ones():
    got = spectral_edge_model(graph_of("k4"), 2, np.ones(2), np.ones((2, 2)))
    assert_close(got.value, 2**4, 1e-7)


@pytest.mark.parametrize("name", ["digon", "triangle", "theta", "single_loop", "c4"])
@pytest.mark.parametrize("q", [2, 3, 4])
def test_spectral_edge_model_matches_vertex_model(name, q):
    g = graph_of(name)
    G = cyclic_group(q)
    rng = np.random.default_rng(stable_seed(name, q, "sz"))
    A = rng.standard_normal((q, q))
    gm = (A + A.T) / 2
    fv = rng.standard_normal(q)
    vm = VertexModel(
        G, QFunction(G, 1, fv.astype(complex)), QFunction(G, 2, gm.reshape(-1).astype(complex))
    )
    assert_close(
        vertex_partition(g, vm).value,
        spectral_edge_model(g, q, fv, gm).value,
        1e-7,
        name,
    )


# ------------------------------------------------------- X_Q family


def test_xq_single_edge_closed_form():
    g = graph_of("single_edge")
    Z2 = cyclic_group(2)
    o = default_orientation(g)
    s0, s1, t = 2.0, 3.0, 5.0
    got = xq_evaluate(g, Z2, o, [s0, s1], [t, 1.0])
    assert_close(got, t * (s0**2 + s1**2) + 2 * s0 * s1, 1e-12)


@pytest.mark.parametrize("name", SMALL)
@pytest.mark.parametrize("q", [2, 3])
def test_xq_uniform_s_is_monochrome_polynomial(name, q):
    from qcolour.oracles import monochrome_polynomial

    g = graph_of(name)
    G = cyclic_group(q)
    o = default_orientation(g)
    t = 3.0
    tvec = np.ones(q)
    tvec[0] = t
    got = xq_evaluate(g, G, o, np.ones(q), tvec)
    assert_close(got, float(monochrome_polynomial(g, q, 3)), 1e-9, name)


def test_xq_digon_group_structure_dependence():
    digon = graph_of("digon")
    t1, t2, t3 = 2.0, 3.0, 5.0
    cyclic = Orientation((1, 0))
    acyclic = Orientation((1, 1))
    Z4 = cyclic_group(4)
    kG = components(digon)
    got = xq_evaluate(digon, Z4, cyclic, np.ones(4), [0.0, t1, t2, t3])
    assert_close(got, 4**kG * (t2**2 + 2 * t1 * t3), 1e-12)
    got = xq_evaluate(digon, Z4, acyclic, np.ones(4), [0.0, t1, t2, t3])
    assert_close(got, 4**kG * (t1**2 + t2**2 + t3**2), 1e-12)
    # the field of order four loses the orientation dependence entirely
    F4 = gf4()
    for orient in (cyclic, acyclic):
        tensions = enumerate_tensions(digon, F4, orient)
        cw = complete_weight_enum(tensions, [0.0, t1, t2, t3])
        assert_close(cw, t1**2 + t2**2 + t3**2, 1e-12)


@pytest.mark.parametrize("name", ["digon", "triangle", "theta", "c4", "single_loop"])
@pytest.mark.parametrize("spec", ["2", "3", "4", "2x2", "f4"])
def test_xq_dual_expansion(name, spec):
    g = graph_of(name)
    G = group_from_name(spec)
    o = default_orientation(g)
    rng = np.random.default_rng(stable_seed(name, spec, "xq"))
    s = complex_vec(rng, G.q)
    t = complex_vec(rng, G.q)
    assert_close(
        xq_evaluate(g, G, o, s, t), xq_dual(g, G, o, s, t), 1e-8, f"{name} {spec}"
    )


def test_xq_orientation_independence_when_symmetric():
    g = graph_of("digon")
    Z4 = cyclic_group(4)
    rng = np.random.default_rng(11)
    s = complex_vec(rng, 4)
    raw = complex_vec(rng, 4)
    t = raw + raw[Z4.neg]
    assert np.allclose(t, t[Z4.neg])
    vals = {
        xq_evaluate(g, Z4, Orientation(he), s, t) for he in ((0, 0), (0, 1), (1, 0), (1, 1))
    }
    first = vals.pop()
    for v in vals:
        assert_close(v, first, 1e-9)


# ------------------------------------------------------- principal specialization


def test_principal_specialization_generic_branch_single_edge():
    g = graph_of("single_edge")
    got = principal_specialization(g, default_orientation(g), 2, 3.0, 2.0)
    assert_close(got, 26.0, 1e-9)  # 2*(1+9) + 2*3 by direct enumeration


def test_principal_specialization_root_branch_digon():
    g = graph_of("digon")
    o = default_orientation(g)
    Z2 = cyclic_group(2)
    got = principal_specialization(g, o, 2, 1.0, 3.0)
    want = xq_evaluate(g, Z2, o, [1.0, 1.0], [3.0, 1.0])
    assert_close(got, want, 1e-9)


@pytest.mark.parametrize("name", ["digon", "triangle", "theta"])
@pytest.mark.parametrize("q", [2, 3, 4])
def test_principal_specialization_both_branches(name, q):
    g = graph_of(name)
    o = default_orientation(g)
    G = cyclic_group(q)
    for s in (3.0, 0.5, np.exp(-2j * np.pi / q)):
        t = 2.0
        got = principal_specialization(g, o, q, s, t)
        svec = np.array([complex(s) ** a for a in range(q)])
        tvec = np.ones(q, dtype=complex)
        tvec[0] = t
        want = xq_evaluate(g, G, o, svec, tvec)
        assert_close(got, want, 1e-7, f"{name} q={q} s={s}")


def test_principal_specialization_branch_boundary():
    g = graph_of("triangle")
    o = default_orientation(g)
    root = np.exp(-2j * np.pi / 3)
    at_root = principal_specialization(g, o, 3, root, 2.0)
    near = principal_specialization(g, o, 3, root * (1 + 1e-6), 2.0)
    assert abs(at_root - near) <= 1e-3 * max(1.0, abs(at_root))


# ------------------------------------------------------- symmetric edge model


def test_symmetric_weight_root_paper_family():
    Z2 = cyclic_group(2)
    t = 3
    u = symmetric_weight_root(Z2, [t**2 - 1 + 2, t**2 - 1])
    assert_close(math.sqrt(2) * u[0], t - 1 + 2, 1e-9)
    assert_close(math.sqrt(2) * u[1], t - 1, 1e-9)
    # q^{1/2} u_0 = t - 1 + q at t = 3, q = 2 gives u_0 = 4/sqrt(2)
    assert_close(u[0], 4 / math.sqrt(2), 1e-12)


def test_symmetric_weight_root_rejects_asymmetric():
    Z3 = cyclic_group(3)
    with pytest.raises(ValueError):
        symmetric_weight_root(Z3, [1.0, 2.0, 3.0])


def test_symmetric_weight_root_rejects_infinite_entry():
    # the root is all nan, so the reconstruction residual is nan
    Z4 = cyclic_group(4)
    t = [math.inf, 1.0, 1.0, 1.0]
    with np.errstate(invalid="ignore"):
        with pytest.raises(ConsistencyError):
            symmetric_weight_root(Z4, t)
        with pytest.raises(ConsistencyError):
            xq_edge_model(graph_of("triangle"), Z4, np.ones(4), t)


def test_symmetric_weight_root_rejects_nan_entry():
    # a nan entry is symmetric as far as anything can tell; the residual
    # test names it, not the symmetry test
    with pytest.raises(ConsistencyError):
        symmetric_weight_root(cyclic_group(4), [math.nan, 1.0, 1.0, 1.0])


@pytest.mark.parametrize("name", ["digon", "triangle", "theta"])
@pytest.mark.parametrize("q", [2, 3, 4])
def test_xq_edge_model_matches_direct(name, q):
    g = graph_of(name)
    G = cyclic_group(q)
    rng = np.random.default_rng(stable_seed(name, q, "em"))
    s = complex_vec(rng, q)
    raw = rng.standard_normal(q)
    t = raw + raw[G.neg]
    a = xq_evaluate(g, G, default_orientation(g), s, t)
    b = xq_edge_model(g, G, s, t).value
    assert_close(a, b, 1e-7, f"{name} q={q}")


def test_xq_edge_model_principal_weights():
    # principal-specialization weight family through the edge model
    g = graph_of("triangle")
    q, t = 2, 2.0
    G = cyclic_group(q)
    tvec = np.full(q, t**2 - 1)
    tvec[0] = t**2 - 1 + q
    s = np.array([1.0, 3.0])
    a = xq_evaluate(g, G, default_orientation(g), s, tvec)
    b = xq_edge_model(g, G, s, tvec).value
    assert_close(a, b, 1e-7)


# ------------------------------------------------------- GF(4) identity


@pytest.mark.parametrize("name", ["theta", "k4", "prism"])
@pytest.mark.parametrize("st_pair", [(1, 1), (2, 3)])
def test_gf4_identity(name, st_pair):
    ok, lhs, rhs = gf4_flow_identity_check(graph_of(name), *st_pair)
    assert ok, (name, st_pair, lhs, rhs)


def test_gf4_identity_requires_cubic():
    with pytest.raises(ValueError):
        gf4_flow_identity_check(graph_of("c4"), 1, 1)


# ------------------------------------------- the split on random multigraphs


@settings(max_examples=100, deadline=None)
@given(
    multigraphs(),
    st.sampled_from(["2", "3", "4", "2x2", "f4"]),
    st.sampled_from([2, 3, Fraction(1, 2)]),
    st.integers(0, 2**32 - 1),
)
def test_split_models_match_oracles_on_multigraphs(g, spec, s, seed):
    G = group_from_name(spec)
    q = G.q
    rng = np.random.default_rng(seed)

    flows = enumerate_flows(g, G)
    gv = complex_vec(rng, q)
    oracle = complete_weight_enum(flows, gv * gv[G.neg])
    assert_close(flow_cwe_vertex_model(g, G, gv).value, oracle, 1e-8, "vertex route")
    assert_close(flow_cwe_edge_model(g, G, gv).value, oracle, 1e-8, "edge route")

    fq = QFunction(G, 1, complex_vec(rng, q))
    oracle = complete_weight_enum(enumerate_tensions(g, G), convolve(fq, negate(fq)).values)
    assert_close(tension_cwe_expectation(g, G, fq.values).value, oracle, 1e-8, "tension")

    A = rng.standard_normal((q, q))
    gm = (A + A.T) / 2
    fv = rng.standard_normal(q)
    vm = VertexModel(
        G, QFunction(G, 1, fv.astype(complex)), QFunction(G, 2, gm.reshape(-1).astype(complex))
    )
    assert_close(
        spectral_edge_model(g, G.q, fv, gm).value,
        vertex_partition(g, vm).value,
        1e-8,
        "spectral",
    )

    sv = complex_vec(rng, q)
    tv = complex_vec(rng, q)
    tsym = tv + tv[G.neg]
    assert_close(
        xq_edge_model(g, G, sv, tsym).value,
        xq_evaluate(g, G, default_orientation(g), sv, tsym),
        1e-8,
        "xq",
    )

    T = tutte(g)
    s2 = Fraction(s) ** 2
    want = float((s2 - 1) ** (g.num_edges - T.full_rank) * T(s2, (s2 - 1 + q) / (s2 - 1)))
    assert_close(tutte_edge_model(g, q, float(s)).value, want, 1e-8, "tutte")
