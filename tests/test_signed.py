import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from qcolour import models
from qcolour.corpus import CORPUS
from qcolour.enumeration import TermCapExceeded
from qcolour.graphs import Multigraph, RotationSystem, line_graph
from qcolour.groups import cyclic_group, fourier, monochrome_indicator, zero_sum_indicator
from qcolour.models import VertexWeights, halfedge_inner
from qcolour.oracles import chromatic, flow_polynomial
from qcolour.signed import (
    canonical_symmetric_set,
    character_matrix_det,
    even_minus_odd_proper4,
    factorization_sign_sum,
    kplus1_colour_set,
    kplus1_sign_sum,
    monochrome_parity_sum,
    parity_function,
    parity_sign_table,
    parity_transform_closed,
    parity_transform_kplus1,
    proper_colouring_sign_sum,
    sgn_edge_colouring,
    sgn_injection,
    sine_model,
    zero_sum_mono_sign,
    zero_sum_parity_sum,
)

from conftest import assert_close


def fx(name):
    f = CORPUS[name]
    return f.graph, f.rotation


# ------------------------------------------------------------------ signs


def test_sgn_injection_examples():
    assert sgn_injection([0, 1, 2]) == 1
    assert sgn_injection([1, 0]) == -1
    assert sgn_injection([0, 0]) == 0
    assert sgn_injection([]) == 1


@settings(max_examples=50, deadline=None)
@given(st.permutations(range(5)), st.integers(0, 3))
def test_sgn_injection_transposition_flips(perm, i):
    perm = list(perm)
    s1 = sgn_injection(perm)
    perm[i], perm[i + 1] = perm[i + 1], perm[i]
    assert sgn_injection(perm) == -s1


def test_sgn_edge_colouring_examples():
    g, rot = fx("single_edge")
    assert sgn_edge_colouring(g, rot, (2,)) == 1
    k4, rk4 = fx("k4")
    assert sgn_edge_colouring(k4, rk4, (0, 0, 1, 1, 2, 2)) == 0  # repeat at a vertex


def test_k4_proper_colourings_share_sign():
    k4, rk4 = fx("k4")
    signs = [
        s
        for y in itertools.product(range(3), repeat=6)
        if (s := sgn_edge_colouring(k4, rk4, y)) != 0
    ]
    assert len(signs) == 6
    assert set(signs) == {(-1) ** k4.num_edges}  # clockwise-planar convention


def test_plane_cubic_sign_convention():
    for name in ("theta", "prism"):
        g, rot = fx(name)
        total = proper_colouring_sign_sum(g, rot, 3)
        count = chromatic(line_graph(g), 3)
        assert total == (-1) ** g.num_edges * count, name


# ------------------------------------------------------------------ parity weights


def test_parity_function_k2():
    Z2 = cyclic_group(2)
    f = parity_function(Z2, 2, (0, 1)).as_tensor()
    assert f[0, 1] == 1 and f[1, 0] == -1 and f[0, 0] == 0 and f[1, 1] == 0


def test_parity_function_k3_cyclic_evens():
    Z3 = cyclic_group(3)
    f = parity_function(Z3, 3, (0, 1, 2)).as_tensor()
    for even in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        assert f[even] == 1
    for odd in ((0, 2, 1), (2, 1, 0), (1, 0, 2)):
        assert f[odd] == -1


def test_parity_function_union_support():
    Z3 = cyclic_group(3)
    f = parity_function(Z3, 2)  # union variant: all injective pairs
    assert len(f.support()) == 6
    assert set(np.unique(f.values.real)) == {-1.0, 0.0, 1.0}


def test_canonical_sets():
    assert canonical_symmetric_set(4, 3) == (0, 1, 3)
    assert canonical_symmetric_set(5, 3) == (0, 1, 4)
    assert canonical_symmetric_set(4, 2) == (1, 3)
    assert canonical_symmetric_set(5, 4) == (1, 2, 3, 4)
    assert kplus1_colour_set(3) == (0, 1, 3)
    assert kplus1_colour_set(2) == (1, 2)


# ------------------------------------------------------------------ closed forms


def test_character_matrix_det_examples():
    assert_close(character_matrix_det(1), 1.0, 1e-12)
    assert_close(character_matrix_det(2), -2.0, 1e-12)
    assert_close(character_matrix_det(3), -3 * np.sqrt(3) * 1j, 1e-12)


@pytest.mark.parametrize("q", range(1, 9))
def test_character_matrix_det_vs_numeric(q):
    mat = np.exp(2j * np.pi * np.outer(np.arange(q), np.arange(q)) / q)
    assert_close(character_matrix_det(q), np.linalg.det(mat), 1e-8)


def test_parity_transform_closed_example():
    assert_close(parity_transform_closed(3, 4, (0, 1, 2)), -0.5j, 1e-12)


def test_parity_transform_closed_repeat_vanishes():
    assert parity_transform_closed(3, 5, (1, 1, 2)) == 0


@pytest.mark.parametrize("k,q", [(2, 3), (2, 4), (3, 4), (3, 5), (4, 5)])
def test_parity_transform_closed_entrywise(k, q):
    G = cyclic_group(q)
    K = canonical_symmetric_set(q, k)
    fF = fourier(parity_function(G, k, K)).values.reshape((q,) * k)
    for b in itertools.product(range(q), repeat=k):
        assert abs(fF[b] - parity_transform_closed(k, q, b)) <= 1e-9, (k, q, b)


def _parity_transform_by_tuple(k, q, b):
    """Reference: the closed form for one tuple in scalar floats."""
    prod = 1.0
    for l, m in itertools.combinations(range(k), 2):
        prod *= 2.0 * math.sin(math.pi * (b[m] - b[l]) / q)
    if k % 2:
        return q ** (-k / 2) * 1j ** ((k * (k - 1) // 2) % 4) * prod
    total = 0.0
    for S in itertools.combinations(range(k), k // 2):
        total += math.cos(math.pi * (2 * sum(b[i] for i in S) - sum(b)) / q)
    return q ** (-k / 2) * 1j ** ((k * (k + 1) // 2) % 4) * prod * total


@pytest.mark.parametrize("k,q", [(2, 3), (2, 4), (3, 4), (3, 5), (4, 5)])
def test_parity_transform_closed_grid_matches_tuples(k, q):
    grid = np.moveaxis(np.indices((q,) * k), 0, -1)
    got = parity_transform_closed(k, q, grid)
    assert got.shape == (q,) * k
    for b in itertools.product(range(q), repeat=k):
        want = _parity_transform_by_tuple(k, q, b)
        assert abs(got[b] - want) <= 1e-12, (k, q, b)
        one = parity_transform_closed(k, q, b)
        assert type(one) is complex
        assert abs(one - want) <= 1e-12, (k, q, b)


def test_parity_transform_closed_shape_check():
    with pytest.raises(ValueError):
        parity_transform_closed(3, 5, (1, 2))
    with pytest.raises(ValueError):
        parity_transform_closed(2, 5, np.zeros((4, 3), dtype=np.int64))


def test_parity_transform_kplus1_examples():
    assert_close(parity_transform_kplus1(3, (0, 1, 2)), -0.5j, 1e-12)
    assert_close(parity_transform_kplus1(2, (0, 1)), -1j / np.sqrt(3), 1e-12)
    assert parity_transform_kplus1(3, (0, 0, 1)) == 0


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_parity_transform_kplus1_entrywise(k):
    q = k + 1
    G = cyclic_group(q)
    fF = fourier(parity_function(G, k, kplus1_colour_set(k))).values.reshape((q,) * k)
    for b in itertools.product(range(q), repeat=k):
        assert abs(fF[b] - parity_transform_kplus1(k, b)) <= 1e-9, (k, b)


def _parity_transform_kplus1_by_tuple(k, b):
    """The (k+1)-colour closed form at one tuple, its sign by sgn_injection."""
    q = k + 1
    s = sgn_injection(b)
    if s == 0:
        return 0.0
    if k % 2:
        return q ** (-0.5) * 1j ** ((k * (k - 1) // 2) % 4) * s
    missing = (set(range(q)) - set(b)).pop()
    return q ** (-0.5) * 1j ** ((k * (k + 1) // 2) % 4) * (-1) ** missing * s


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_parity_transform_kplus1_grid_matches_tuples(k):
    q = k + 1
    grid = np.moveaxis(np.indices((q,) * k), 0, -1)
    got = parity_transform_kplus1(k, grid)
    assert got.shape == (q,) * k
    for b in itertools.product(range(q), repeat=k):
        want = _parity_transform_kplus1_by_tuple(k, b)
        assert got[b] == want, (k, b)
        one = parity_transform_kplus1(k, b)
        assert type(one) is complex and one == want, (k, b)
    with pytest.raises(ValueError):
        parity_transform_kplus1(k, np.zeros((2, k + 1), dtype=np.int64))


# ------------------------------------------------------------------ pairings


def test_zero_sum_parity_k4():
    k4, rk4 = fx("k4")
    v = zero_sum_parity_sum(k4, rk4, cyclic_group(3), (0, 1, 2))
    assert_close(abs(v.value), 6.0, 1e-9)


def test_zero_sum_route_equals_monochrome_of_transform():
    for name, k in (("triangle", 2), ("c4", 2), ("theta", 3), ("k4", 3)):
        g, rot = fx(name)
        for q in (k, k + 1):
            G = cyclic_group(q)
            K = canonical_symmetric_set(q, k) if q > k else tuple(range(k))
            f = parity_function(G, k, K)
            w = VertexWeights.per_arity(G, lambda d: f.as_tensor())
            wF = VertexWeights.per_arity(G, lambda d: fourier(f).as_tensor())
            zs = halfedge_inner(g, w, zero_sum_indicator(G, 2), rotation=rot).value
            mono = halfedge_inner(g, wF, monochrome_indicator(G, 2), rotation=rot).value
            assert_close(zs, mono, 1e-8, f"{name} q={q}")


@pytest.mark.parametrize(
    "name,k", [("triangle", 2), ("c4", 2), ("theta", 3), ("k4", 3), ("prism", 3)]
)
def test_zero_sum_mono_sign_relation(name, k):
    g, rot = fx(name)
    G = cyclic_group(k)
    zs = zero_sum_parity_sum(g, rot, G, tuple(range(k))).value
    mono = monochrome_parity_sum(g, rot, G, tuple(range(k))).value
    assert_close(zs, zero_sum_mono_sign(k, g.num_edges, g.num_vertices) * mono, 1e-8)


def test_zero_sum_mono_sign_examples():
    assert zero_sum_mono_sign(3, 6, 4) == 1
    assert zero_sum_mono_sign(3, 9, 6) == -1
    assert zero_sum_mono_sign(2, 4, 4) == 1
    with pytest.raises(ValueError):
        zero_sum_mono_sign(2, 4, 3)


# ------------------------------------------------------------------ factorizations


def test_factorization_k4():
    k4, rk4 = fx("k4")
    total = factorization_sign_sum(k4, rk4, 3, (0, 1))
    zs = zero_sum_parity_sum(k4, rk4, cyclic_group(3), (0, 1, 2)).value
    assert abs(total) == 6
    assert abs(abs(total) - abs(zs)) < 1e-9


def test_factorization_triangle_odd_circuit():
    tri, rtr = fx("triangle")
    assert factorization_sign_sum(tri, rtr, 3, (1,)) == 0


def test_factorization_c4():
    c4, rc4 = fx("c4")
    total = factorization_sign_sum(c4, rc4, 3, (1,))
    assert abs(total) == 2
    zs = zero_sum_parity_sum(c4, rc4, cyclic_group(3), (1, 2)).value
    assert abs(abs(total) - abs(zs)) < 1e-9


def test_factorization_theta():
    theta, rth = fx("theta")
    total = factorization_sign_sum(theta, rth, 3, (0, 1))
    zs = zero_sum_parity_sum(theta, rth, cyclic_group(3), (0, 1, 2)).value
    assert abs(abs(total) - abs(zs)) < 1e-9


def test_factorization_size_mismatch():
    k4, rk4 = fx("k4")
    with pytest.raises(ValueError):
        factorization_sign_sum(k4, rk4, 3, (0,))  # |P u -P| = 1 != 3


def _colour_classes_reference(g, y, colour):
    """Circuits of the spanning subgraph of edges coloured ``colour``, each
    as a list of (edge, entry_end) steps; raises if a vertex degree is not 2."""
    half_at = [[] for _ in range(g.num_vertices)]
    for e in range(g.num_edges):
        if y[e] != colour:
            continue
        u, v = g.edges[e]
        half_at[u].append((e, 0))
        half_at[v].append((e, 1))
    for hs in half_at:
        if len(hs) != 2:
            raise ValueError("colour class is not a 2-factor")
    used = set()
    circuits = []
    for e0 in range(g.num_edges):
        if y[e0] != colour or e0 in used:
            continue
        steps = []
        e, entry = e0, 0
        while True:
            used.add(e)
            steps.append((e, entry))
            exit_vertex = g.endpoint(e, 1 - entry)
            h1, h2 = half_at[exit_vertex]
            # continue along the half-edge that is not the arrival one
            e, entry = h2 if h1 == (e, 1 - entry) else h1
            if e == e0 and entry == 0:
                break
        circuits.append(steps)
    return circuits


def _factorization_reference(g, rotation, q, P):
    """The 2-factorization sum one colouring at a time: every y in P^E whose
    colour a is a 1-factor (a = -a) or a 2-factor of even circuits, each
    2-factor circuit taken in both directions, a head reading a and a tail
    -a; odd circuits are rejected."""
    one_factors = [a for a in P if a % q == (-a) % q]
    two_factors = [a for a in P if a % q != (-a) % q]
    total = 0
    for y in itertools.product(P, repeat=g.num_edges):
        ok = True
        for v in range(g.num_vertices):
            counts = {}
            for e, _ in g.halfedges_at(v):
                counts[y[e]] = counts.get(y[e], 0) + 1
            if any(counts.get(a, 0) != 1 for a in one_factors) or any(
                counts.get(a, 0) != 2 for a in two_factors
            ):
                ok = False
                break
        if not ok:
            continue
        circuits = []
        bipartite = True
        for a in two_factors:
            for circ in _colour_classes_reference(g, y, a):
                if len(circ) % 2:
                    bipartite = False
                    break
                circuits.append(circ)
            if not bipartite:
                break
        if not bipartite:
            continue
        head_end = [1] * g.num_edges
        for direction in itertools.product((0, 1), repeat=len(circuits)):
            for circ, rev in zip(circuits, direction):
                for e, entry in circ:
                    head_end[e] = entry if rev else 1 - entry
            sign = 1
            for v in range(g.num_vertices):
                tup = []
                for e, end in rotation.order_at(v):
                    a = y[e] % q
                    if y[e] in two_factors and end != head_end[e]:
                        a = (-a) % q
                    tup.append(a)
                sign *= sgn_injection(tup)
            total += sign
    return total


@st.composite
def regular_cases(draw):
    """(graph, rotation, q, P): a k-regular multigraph (k <= 4, at most 8
    edges) from a random pairing of vertex stubs, so loops and parallel
    edges occur, with random rotations; q in k..k+2 and P one representative,
    shifted by a multiple of q, per class {a, -a} of a choice of classes
    covering k residues, in random order."""
    k = draw(st.integers(1, 4))
    n = 2 * draw(st.integers(1, 8 // k)) if k % 2 else draw(st.integers(1, 16 // k))
    stubs = draw(st.permutations([v for v in range(n) for _ in range(k)]))
    g = Multigraph(n, tuple(zip(stubs[::2], stubs[1::2])))
    rotation = RotationSystem(
        tuple(tuple(draw(st.permutations(g.halfedges_at(v)))) for v in range(n))
    )
    q = draw(st.integers(k, k + 2))
    classes = sorted({tuple(sorted({a, -a % q})) for a in range(q)})
    choices = [
        S
        for r in range(len(classes) + 1)
        for S in itertools.combinations(classes, r)
        if sum(map(len, S)) == k
    ]
    P = [
        draw(st.sampled_from(c)) + q * draw(st.integers(-1, 1))
        for c in draw(st.sampled_from(choices))
    ]
    return g, rotation, q, tuple(draw(st.permutations(P)))


@settings(max_examples=150, deadline=None)
@given(regular_cases())
@example((*fx("petersen"), 3, (0, 1)))
@example((*fx("prism"), 3, (0, 1)))
def test_factorization_matches_reference(case):
    g, rotation, q, P = case
    got = factorization_sign_sum(g, rotation, q, P)
    assert type(got) is int
    assert got == _factorization_reference(g, rotation, q, P)


def test_factorization_petersen_and_prism():
    assert factorization_sign_sum(*fx("petersen"), 3, (0, 1)) == 0
    assert factorization_sign_sum(*fx("prism"), 3, (0, 1)) == 6


def test_factorization_runs_without_contraction(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the 2-factorization sum must not contract")

    monkeypatch.setattr(np, "einsum", refuse)
    monkeypatch.setattr(models, "eliminate", refuse)
    assert factorization_sign_sum(*fx("prism"), 3, (0, 1)) == 6


def _partial_colourings(g, q, K, i):
    """Colourings z of edges 0..i-1 from K, half-edge (e, 1) reading z_e and
    (e, 0) reading -z_e, with no colour read twice at a vertex."""
    count = 0
    for z in itertools.product(K, repeat=i):
        reads = [
            (g.endpoint(e, end), z[e] if end else -z[e] % q)
            for e in range(i)
            for end in (0, 1)
        ]
        count += len(set(reads)) == len(reads)
    return count


def test_factorization_cap_bounds_widest_step():
    prism, rot = fx("prism")
    K = (0, 1, 2)
    widest = max(
        _partial_colourings(prism, 3, K, i) * len(K) for i in range(prism.num_edges)
    )
    with pytest.raises(TermCapExceeded) as exc:
        factorization_sign_sum(prism, rot, 3, (0, 1), max_terms=widest - 1)
    assert (exc.value.estimate, exc.value.cap) == (widest, widest - 1)
    assert factorization_sign_sum(prism, rot, 3, (0, 1), max_terms=widest) == 6


@pytest.mark.parametrize(
    "name, q, P",
    [
        ("c4", 3, (1, 1)),  # a repeated residue
        ("c4", 3, (1, 2)),  # both a and -a
        ("theta", 3, (0, 1, 1)),
        ("theta", 3, (0, 0, 1)),
        ("theta", 3, (0, 1, 4)),  # 4 = 1 mod 3
    ],
)
def test_factorization_rejects_degenerate_P(name, q, P):
    g, rot = fx(name)
    with pytest.raises(ValueError):
        factorization_sign_sum(g, rot, q, P)


# ------------------------------------------------------------------ oracle sums


def test_proper_colouring_sign_sum_examples():
    k4, rk4 = fx("k4")
    assert proper_colouring_sign_sum(k4, rk4, 3) == 6
    theta, rth = fx("theta")
    assert abs(proper_colouring_sign_sum(theta, rth, 3)) == 6
    tri, rtr = fx("triangle")
    assert proper_colouring_sign_sum(tri, rtr, 2) == 0


def test_sine_model_k4():
    k4, rk4 = fx("k4")
    for q in (3, 4, 5):
        v = sine_model(k4, rk4, q, 3)
        assert abs(abs(v.value) - 6) < 1e-5, q
        assert abs(v.value.imag) < 1e-9


def test_sine_model_theta():
    theta, rth = fx("theta")
    assert abs(abs(sine_model(theta, rth, 3, 3).value) - 6) < 1e-6


def test_sine_model_preconditions():
    k4, rk4 = fx("k4")
    with pytest.raises(ValueError):
        sine_model(k4, rk4, 4, 2)  # k even
    with pytest.raises(ValueError):
        sine_model(k4, rk4, 2, 3)  # q < k
    c4, rc4 = fx("c4")
    with pytest.raises(ValueError):
        sine_model(c4, rc4, 3, 3)  # graph not 3-regular


def test_sine_model_q_independence():
    theta, rth = fx("theta")
    vals = [abs(sine_model(theta, rth, q, 3).value) for q in (3, 4, 5)]
    for v in vals[1:]:
        assert abs(v - vals[0]) <= 1e-6 * max(1.0, vals[0])


def test_kplus1_examples():
    k4, rk4 = fx("k4")
    v = kplus1_sign_sum(k4, rk4, 3)
    assert_close(abs(v.value), 6.0, 1e-9)
    # the raw signed sum over Z_4 colourings is +-96
    assert_close(abs(v.value) * 4 ** (k4.num_vertices / 2) / 16, 6.0, 1e-9)
    tri, rtr = fx("triangle")
    assert abs(kplus1_sign_sum(tri, rtr, 2).value) < 1e-12
    c4, rc4 = fx("c4")
    assert_close(abs(kplus1_sign_sum(c4, rc4, 2).value), 2.0, 1e-9)


def test_kplus1_matches_line_graph_chromatic():
    for name in ("theta", "k4", "prism"):
        g, rot = fx(name)
        want = chromatic(line_graph(g), 3)
        assert_close(abs(kplus1_sign_sum(g, rot, 3).value), float(want), 1e-7, name)


# ------------------------------------------------------------------ proper-4 parity


def test_even_minus_odd_proper4_k4():
    k4, rk4 = fx("k4")
    assert even_minus_odd_proper4(k4, rk4) == 96
    assert 96 == 16 * flow_polynomial(k4, 4)


def test_even_minus_odd_proper4_theta_and_prism():
    theta, rth = fx("theta")
    assert even_minus_odd_proper4(theta, rth) == (-4) * flow_polynomial(theta, 4)
    prism, rpr = fx("prism")
    assert even_minus_odd_proper4(prism, rpr) == (-4) ** 3 * flow_polynomial(prism, 4)


def _even_minus_odd_reference(g, rot):
    """Even minus odd proper edge 4-colourings, one colouring at a time: a
    colouring is odd when an odd number of vertices see their three colours
    in anticlockwise cyclic order (not a rotation of the sorted triple)."""
    total = 0
    for y in itertools.product(range(4), repeat=g.num_edges):
        anticlockwise = 0
        for v in range(g.num_vertices):
            a, b, c = (y[e] for e, _ in rot.order_at(v))
            if len({a, b, c}) < 3:
                break
            srt = sorted((a, b, c))
            cyclic = {
                (srt[0], srt[1], srt[2]),
                (srt[1], srt[2], srt[0]),
                (srt[2], srt[0], srt[1]),
            }
            if (a, b, c) not in cyclic:
                anticlockwise += 1
        else:
            total += 1 if anticlockwise % 2 == 0 else -1
    return total


@pytest.mark.parametrize(
    "name, clockwise, swapped",
    [("theta", -24, 24), ("k4", 96, -96), ("prism", -384, 384)],
)
def test_even_minus_odd_proper4_matches_reference(name, clockwise, swapped):
    g, rot = fx(name)
    for r, want in ((rot, clockwise), (rot.swap_adjacent(0, 0), swapped)):
        assert _even_minus_odd_reference(g, r) == want
        assert even_minus_odd_proper4(g, r) == want


def test_even_minus_odd_proper4_requires_cubic():
    c4, rc4 = fx("c4")
    with pytest.raises(ValueError):
        even_minus_odd_proper4(c4, rc4)


# ------------------------------------------------------------------ covariance


def test_rotation_swap_negates_all_three_sums():
    k4, rot = fx("k4")
    swapped = rot.swap_adjacent(2, 1)
    assert proper_colouring_sign_sum(k4, swapped, 3) == -proper_colouring_sign_sum(
        k4, rot, 3
    )
    assert_close(
        sine_model(k4, swapped, 4, 3).value, -sine_model(k4, rot, 4, 3).value, 1e-9
    )
    assert_close(
        kplus1_sign_sum(k4, swapped, 3).value, -kplus1_sign_sum(k4, rot, 3).value, 1e-9
    )


def test_petersen_signed_sums_vanish():
    # no proper edge 3-colourings, and every perfect-matching complement is a
    # pair of odd circuits, so the zero-sum pairing cancels for any rotation
    pet, rpet = fx("petersen")
    assert proper_colouring_sign_sum(pet, rpet, 3) == 0
    zs = zero_sum_parity_sum(pet, rpet, cyclic_group(3), (0, 1, 2))
    assert abs(zs.value) < 1e-4


def test_degree_one_trivials():
    e, re_ = fx("single_edge")
    assert proper_colouring_sign_sum(e, re_, 1) == 1
    assert_close(kplus1_sign_sum(e, re_, 1).value, 1.0, 1e-12)
    assert_close(sine_model(e, re_, 3, 1).value, 1.0, 1e-12)


def test_parity_sign_table_values():
    tbl = parity_sign_table(3, 2, (0, 1))
    assert tbl[0, 1] == 1 and tbl[1, 0] == -1
    assert tbl[0, 2] == 0 and tbl[2, 2] == 0


@pytest.mark.parametrize("q", range(1, 7))
@pytest.mark.parametrize("k", range(5))
def test_parity_sign_table_matches_sgn_injection(q, k):
    for K in (None, tuple(range(0, q, 2)), (q - 1,)):
        want = np.zeros((q,) * k)
        for idx in itertools.product(range(q), repeat=k):
            if K is None or all(c in K for c in idx):
                want[idx] = sgn_injection(idx)
        got = parity_sign_table(q, k, K)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want), (q, k, K)


@pytest.mark.parametrize(
    "build",
    [
        lambda: parity_sign_table(7, 7),
        lambda: parity_sign_table(9, 7, range(7)),
        lambda: zero_sum_indicator(cyclic_group(7), 7).values,
    ],
    ids=["parity-7-7", "parity-9-7-K", "zero-sum-7-7"],
)
def test_q_power_builders_peak_within_twice_their_table(build):
    # the builders read sparse index grids, so what they allocate on the
    # way is small beside the q^k table they return; a dense grid is k
    # int64 arrays of q^k entries each
    tracemalloc.start()
    try:
        table = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * table.nbytes


def test_split_edge_side_is_planned_without_a_vertex_table():
    # the edge side of the split sums each vertex's colour a as a label of
    # its own: the bundle's steps read (a_0, a_1, y_e) for each edge, then
    # (a_0, a_1), so no 11^6 vertex table is built, nor any of its terms
    from qcolour import duality

    G = cyclic_group(11)
    bundle = Multigraph(2, ((0, 1),) * 6)
    gv = np.random.default_rng(0).standard_normal(11)
    tracemalloc.start()
    try:
        mv = duality.flow_cwe_edge_model(bundle, G, gv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mv.terms <= 10**4
    assert peak < 2**20
    assert_close(mv.value, duality.flow_cwe_vertex_model(bundle, G, gv).value)
