"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Corpus: single edge, single loop, digon, triangle, C4, theta, K4, prism,
K33, Petersen (size-gated by per-check term budgets).  Run with

    pytest tests/test_acceptance.py -v -s
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from qcolour import duality, oracles, signed
from qcolour.corpus import CORPUS
from qcolour.graphs import default_orientation, line_graph
from qcolour.groups import (
    QFunction,
    convolve,
    cyclic_group,
    fourier,
    group_from_name,
    negate,
    pointwise,
    random_orthogonal,
)
from qcolour.models import (
    VertexModel,
    VertexWeights,
    orthogonal_invariance_check,
    vertex_partition,
)

from conftest import complex_vec, stable_seed

MAX_TERMS = 10**8


class Cache:
    def __init__(self):
        self.flows = {}
        self.tensions = {}

    def flows_of(self, name, q):
        key = (name, q)
        if key not in self.flows:
            self.flows[key] = oracles.enumerate_flows(
                CORPUS[name].graph, cyclic_group(q), max_terms=MAX_TERMS
            )
        return self.flows[key]

    def tensions_of(self, name, q):
        key = (name, q)
        if key not in self.tensions:
            self.tensions[key] = oracles.enumerate_tensions(
                CORPUS[name].graph, cyclic_group(q), max_terms=MAX_TERMS
            )
        return self.tensions[key]


@pytest.fixture(scope="module")
def cache():
    return Cache()


def report(n, label):
    print(f"\nACCEPTANCE criterion {n:2d} PASS: {label}")


def relerr(a, b):
    a, b = complex(a), complex(b)
    return abs(a - b) / max(1.0, abs(a), abs(b))


def test_criterion_01_tutte_flow_identity():
    t0 = time.time()
    checked = 0
    for name, fx in CORPUS.items():
        g = fx.graph
        for q in (2, 3, 4):
            if q**g.num_edges > 10**6:
                continue
            T = oracles.tutte(g)
            for s in (2, 3):
                got = duality.tutte_edge_model(g, q, s, max_terms=MAX_TERMS).value
                s2 = Fraction(s) ** 2
                want = float(
                    (s2 - 1) ** (g.num_edges - T.full_rank)
                    * T(s2, (s2 - 1 + q) / (s2 - 1))
                )
                assert relerr(got, want) < 1e-7, (name, q, s, got, want)
                checked += 1
    elapsed = time.time() - t0
    assert elapsed < 60, f"criterion 1 took {elapsed:.1f}s"
    report(1, f"Tutte edge model matches subset-expansion oracle "
              f"({checked} cases, {elapsed:.1f}s)")


def test_criterion_02_flow_cwe_triple(cache):
    t0 = time.time()
    checked = 0
    for name, fx in CORPUS.items():
        g = fx.graph
        for q in (2, 3):
            if q ** max(g.num_edges, g.num_vertices) > 10**6:
                continue
            G = cyclic_group(q)
            flows = cache.flows_of(name, q)
            tensions = cache.tensions_of(name, q)
            rng = np.random.default_rng(stable_seed(name, q))
            for _ in range(5):
                gv = complex_vec(rng, q)
                oracle = oracles.complete_weight_enum(flows, gv * gv[G.neg])
                v1 = duality.flow_cwe_vertex_model(g, G, gv, max_terms=MAX_TERMS).value
                v2 = duality.flow_cwe_edge_model(g, G, gv, max_terms=MAX_TERMS).value
                assert relerr(v1, oracle) < 1e-7, (name, q, "vertex")
                assert relerr(v2, oracle) < 1e-7, (name, q, "edge")
                fq = QFunction(G, 1, gv)
                toracle = oracles.complete_weight_enum(
                    tensions, convolve(fq, negate(fq)).values
                )
                v3 = duality.tension_cwe_expectation(g, G, gv, max_terms=MAX_TERMS).value
                assert relerr(v3, toracle) < 1e-7, (name, q, "tension")
                checked += 1
    elapsed = time.time() - t0
    assert elapsed < 120, f"criterion 2 took {elapsed:.1f}s"
    report(2, f"flow/tension weight-enumerator models match oracle "
              f"({checked} draws x 3 routes, {elapsed:.1f}s)")


def test_criterion_03_duality_and_macwilliams(cache):
    checked = 0
    for name, fx in CORPUS.items():
        g = fx.graph
        orient = default_orientation(g)
        for q in (2, 3, 4):
            if q**g.num_edges > 2 * 10**7 or q**g.num_vertices > 2 * 10**7:
                continue
            G = cyclic_group(q)
            flows = (
                cache.flows_of(name, q) if q**g.num_edges <= 2 * 10**7 else None
            )
            tensions = cache.tensions_of(name, q)
            F = G.fourier_matrix()
            rng = np.random.default_rng(stable_seed(name, q, 3))
            for _ in range(5):
                fs = [complex_vec(rng, q) for _ in range(g.num_vertices)]
                gs = [complex_vec(rng, q) for _ in range(g.num_edges)]
                lhs, rhs = duality.general_duality_sides(
                    g, G, orient, fs, gs, max_terms=MAX_TERMS
                )
                assert relerr(lhs, rhs) < 1e-8, (name, q, lhs, rhs)
                h = complex_vec(rng, q)
                clhs = oracles.complete_weight_enum(flows, h)
                crhs = (
                    q ** (-g.num_edges / 2)
                    * len(flows)
                    * oracles.complete_weight_enum(tensions, F @ h)
                )
                assert relerr(clhs, crhs) < 1e-8, (name, q, clhs, crhs)
                checked += 1
    report(3, f"generalized duality and MacWilliams identities ({checked} draws)")


def test_criterion_04_cubic_flow_edge_model(cache):
    checked = []
    for name in ("theta", "k4", "prism", "k33", "petersen"):
        g = CORPUS[name].graph
        qs = (2, 3) if name == "petersen" else (2, 3, 4, 5)
        for q in qs:
            if q**g.num_edges > 2 * 10**7:
                continue
            got = duality.flow_cubic_edge_model(g, q, max_terms=MAX_TERMS)
            want = oracles.flow_polynomial(g, q, max_terms=MAX_TERMS)
            assert got == want, (name, q, got, want)
            checked.append(f"{name}:q{q}")
    assert "petersen:q3" in checked
    report(4, f"cubic flow edge model equals flow polynomial ({len(checked)} cases)")


def test_criterion_05_gf4_identity():
    for name in ("theta", "k4", "prism"):
        g = CORPUS[name].graph
        for s, t in ((1, 1), (2, 3)):
            ok, lhs, rhs = duality.gf4_flow_identity_check(g, s, t, max_terms=MAX_TERMS)
            assert ok, (name, s, t, lhs, rhs)
    report(5, "GF(4) vertex-model flow identity at (s,t) in {(1,1),(2,3)}")


def test_criterion_06_spectral_conversion():
    for q in (2, 3, 4):
        rng = np.random.default_rng(60 + q)
        G = cyclic_group(q)
        for draw in range(10):
            A = rng.standard_normal((q, q))
            gm = (A + A.T) / 2
            h = duality.spectral_split(gm)
            assert np.max(np.abs(h @ h.T - gm)) < 1e-9, (q, draw)
            nz = sum(1 for c in range(q) if np.abs(h[:, c]).max() > 0)
            num_rank = np.linalg.matrix_rank(gm, tol=1e-9 * np.linalg.norm(gm, 2))
            assert nz == num_rank, (q, draw)
            for name in ("triangle", "theta", "single_loop"):
                g = CORPUS[name].graph
                fv = rng.standard_normal(q)
                vm = VertexModel(
                    QFunction(G, 1, fv.astype(complex)),
                    QFunction(G, 2, gm.reshape(-1).astype(complex)),
                )
                lhs = vertex_partition(g, vm, max_terms=MAX_TERMS).value
                rhs = duality.spectral_edge_model(g, fv, gm, max_terms=MAX_TERMS).value
                assert relerr(lhs, rhs) < 1e-7, (q, draw, name)
    report(6, "spectral split: reconstruction 1e-9, rank = nonzero columns, "
              "partition equality 1e-7 (10 draws x q in {2,3,4})")


def test_criterion_07_xq_family():
    u = duality.symmetric_weight_root(cyclic_group(2), [3**2 - 1 + 2, 3**2 - 1])
    assert abs(u[0] - 4 / math.sqrt(2)) < 1e-12
    assert abs(math.sqrt(2) * u[0] - (3 - 1 + 2)) < 1e-12
    for name in ("digon", "triangle", "theta"):
        g = CORPUS[name].graph
        orient = default_orientation(g)
        for q in (2, 3, 4):
            G = cyclic_group(q)
            rng = np.random.default_rng(stable_seed(name, q, 7))
            s = complex_vec(rng, q)
            t = complex_vec(rng, q)
            assert relerr(
                duality.xq_evaluate(g, G, orient, s, t, max_terms=MAX_TERMS),
                duality.xq_dual(g, G, orient, s, t, max_terms=MAX_TERMS),
            ) < 1e-7, (name, q, "dual")
            tsym = t + t[G.neg]
            assert relerr(
                duality.xq_evaluate(g, G, orient, s, tsym, max_terms=MAX_TERMS),
                duality.xq_edge_model(g, G, s, tsym, max_terms=MAX_TERMS).value,
            ) < 1e-7, (name, q, "edge-model")
            for s0 in (3.0, complex(np.exp(-2j * np.pi / q))):
                svec = np.array([complex(s0) ** a for a in range(q)])
                tvec = np.ones(q, dtype=complex)
                tvec[0] = 2.0
                assert relerr(
                    duality.principal_specialization(
                        g, orient, q, s0, 2.0, max_terms=MAX_TERMS
                    ),
                    duality.xq_evaluate(g, G, orient, svec, tvec, max_terms=MAX_TERMS),
                ) < 1e-7, (name, q, s0)
    report(7, "boundary generating function: dual expansion, principal "
              "specialization, symmetric edge model agree; u0 = 4/sqrt(2) at t=3,q=2")


def test_criterion_08_character_determinant():
    for q in range(1, 9):
        mat = np.exp(2j * np.pi * np.outer(np.arange(q), np.arange(q)) / q)
        assert relerr(signed.character_matrix_det(q), np.linalg.det(mat)) < 1e-8, q
    report(8, "character matrix determinant closed form, q <= 8")


def test_criterion_09_parity_transforms():
    for k, q in ((2, 3), (2, 4), (3, 4), (3, 5), (4, 5)):
        G = cyclic_group(q)
        K = signed.canonical_symmetric_set(q, k)
        fF = fourier(signed.parity_function(G, k, K)).values.reshape((q,) * k)
        for b in itertools.product(range(q), repeat=k):
            assert abs(fF[b] - signed.parity_transform_closed(k, q, b)) < 1e-9, (k, q, b)
    for k in (2, 3):
        q = k + 1
        G = cyclic_group(q)
        fF = fourier(
            signed.parity_function(G, k, signed.kplus1_colour_set(k))
        ).values.reshape((q,) * k)
        for b in itertools.product(range(q), repeat=k):
            assert abs(fF[b] - signed.parity_transform_kplus1(k, b)) < 1e-9, (k, b)
    report(9, "parity-weight transforms equal closed forms entrywise at 1e-9")


def test_criterion_10_signed_chain():
    cases = [("triangle", 2, (0, 1)), ("c4", 2, (0, 1)), ("theta", 3, (0, 1)),
             ("k4", 3, (0, 1))]
    for name, k, P in cases:
        fx = CORPUS[name]
        g, rot = fx.graph, fx.rotation
        G = cyclic_group(k)
        zs = signed.zero_sum_parity_sum(g, rot, G, tuple(range(k)), max_terms=MAX_TERMS)
        proper = signed.proper_colouring_sign_sum(g, rot, k, max_terms=MAX_TERMS)
        fac = signed.factorization_sign_sum(g, rot, k if k > 2 else 3,
                                            P if k > 2 else (1,), max_terms=MAX_TERMS)
        assert abs(abs(zs.value) - abs(fac)) < 1e-8, (name, zs.value, fac)
        assert abs(abs(zs.value) - abs(proper)) < 1e-8, (name, zs.value, proper)
        mono = signed.monochrome_parity_sum(g, rot, G, tuple(range(k)), max_terms=MAX_TERMS)
        sign = signed.zero_sum_mono_sign(k, g.num_edges, g.num_vertices)
        assert abs(zs.value - sign * mono.value) < 1e-8, (name, zs.value, mono.value)
    report(10, "signed chain: |zero-sum| = |factorizations| = |proper colourings|, "
               "sign relation exact (triangle/C4 k=2, theta/K4 k=3)")


def test_criterion_11_sine_model():
    t0 = time.time()
    k4 = CORPUS["k4"]
    for q in (3, 4, 5):
        v = signed.sine_model(k4.graph, k4.rotation, q, 3, max_terms=MAX_TERMS)
        assert abs(abs(v.value) - 6) < 1e-5, q
    theta = CORPUS["theta"]
    v = signed.sine_model(theta.graph, theta.rotation, 3, 3, max_terms=MAX_TERMS)
    assert abs(abs(v.value) - 6) < 1e-5
    pet = CORPUS["petersen"]
    v = signed.sine_model(pet.graph, pet.rotation, 3, 3, max_terms=MAX_TERMS)
    assert abs(v.value) < 1e-4
    elapsed = time.time() - t0
    assert elapsed < 600, f"criterion 11 took {elapsed:.1f}s"
    report(11, f"sine edge model: |K4| = 6 for q in 3..5, |theta| = 6, "
               f"Petersen = 0 within 1e-4 ({elapsed:.1f}s)")


def test_criterion_12_kplus1_and_proper4_parity():
    expectations = [("c4", 2, 2), ("theta", 3, 6), ("k4", 3, 6)]
    prism = CORPUS["prism"]
    prism_count = oracles.chromatic(line_graph(prism.graph), 3)
    expectations.append(("prism", 3, prism_count))
    for name, k, want in expectations:
        fx = CORPUS[name]
        v = signed.kplus1_sign_sum(fx.graph, fx.rotation, k, max_terms=MAX_TERMS)
        assert abs(abs(v.value) - want) < 1e-7, (name, v.value, want)
        assert want == oracles.chromatic(line_graph(fx.graph), k)
    k4 = CORPUS["k4"]
    assert signed.even_minus_odd_proper4(k4.graph, k4.rotation) == 96
    got = signed.even_minus_odd_proper4(prism.graph, prism.rotation)
    # (-4)^(|E|/3) F(G;4) with |E| = 9 for the prism
    want = (-4) ** 3 * oracles.flow_polynomial(prism.graph, 4)
    assert got == want, (got, want)
    report(12, "signed (k+1)-colour sums count proper edge k-colourings; "
               "even-odd proper-4 difference matches the flow-polynomial formula")


def test_criterion_13_property_suites():
    for q in range(2, 9):
        G = cyclic_group(q)
        rng = np.random.default_rng(130 + q)
        for d in (1, 2, 3):
            if q**d > 1000:
                continue
            f = QFunction(G, d, complex_vec(rng, q**d))
            g = QFunction(G, d, complex_vec(rng, q**d))
            assert relerr(
                np.vdot(fourier(g).values, fourier(f).values),
                np.vdot(g.values, f.values),
            ) < 1e-9
            assert np.max(np.abs(fourier(fourier(f)).values - negate(f).values)) < 1e-9
            assert np.max(
                np.abs(fourier(negate(f)).values - negate(fourier(f)).values)
            ) < 1e-9
            lhs = fourier(pointwise(f, g)).values
            rhs = q ** (-d / 2) * convolve(fourier(f), fourier(g)).values
            assert np.max(np.abs(lhs - rhs)) < 1e-9 * max(1, np.abs(lhs).max())
    for spec in ("2x2", "f4"):
        G = group_from_name(spec)
        rows = {tuple(np.round(G.chi[G.mul[a]], 9)) for a in range(G.q)}
        assert len(rows) == G.q
    for q in (2, 3):
        G = cyclic_group(q)
        for name in ("triangle", "k4"):
            g = CORPUS[name].graph
            rng = np.random.default_rng(stable_seed(name, q, 13))
            w = VertexWeights.from_tuple_function(
                G, lambda t: complex(rng.standard_normal(), rng.standard_normal())
            )
            for v in range(g.num_vertices):
                w.table(g.degree(v))
            Us = [random_orthogonal(q, 1300 + i) for i in range(5)]
            oks = orthogonal_invariance_check(g, w, Us, tol=1e-8, max_terms=MAX_TERMS)
            assert oks == (True,) * 5, (name, q)
    report(13, "Fourier invariant suite (q <= 8, d <= 3) and orthogonal "
               "invariance with 5 seeded transforms per q in {2,3}")
