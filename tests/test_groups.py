import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from qcolour.groups import (
    QFunction,
    convolve,
    cyclic_group,
    fourier,
    gf4,
    group_from_name,
    monochrome_indicator,
    negate,
    orthogonal_submodule,
    pointwise,
    random_orthogonal,
    transform,
    transform_by,
    zero_sum_indicator,
)

from conftest import assert_close, complex_vec, stable_seed

GROUP_SPECS = ("2", "3", "4", "6", "2x2", "2x3", "f4")


@pytest.mark.parametrize("spec", GROUP_SPECS)
def test_fourier_matrix_unitary(spec):
    G = group_from_name(spec)
    F = G.fourier_matrix()
    assert np.allclose(F.conj().T @ F, np.eye(G.q), atol=1e-12)


@pytest.mark.parametrize("spec", GROUP_SPECS)
def test_generating_character_injective(spec):
    G = group_from_name(spec)
    rows = {tuple(np.round(G.chi[G.mul[a]], 9)) for a in range(G.q)}
    assert len(rows) == G.q


def test_gf4_tables():
    F4 = gf4()
    w, wb = 2, 3
    assert F4.mul[w, w] == wb and F4.mul[w, wb] == 1 and F4.mul[wb, wb] == w
    assert F4.add[1, w] == wb and all(F4.add[a, a] == 0 for a in range(4))
    assert list(F4.chi.real.astype(int)) == [1, 1, -1, -1]


def test_fourier_delta_z2():
    Z2 = cyclic_group(2)
    out = fourier(QFunction.indicator(Z2, 1, [(0,)])).values
    assert np.allclose(out, [1 / math.sqrt(2), 1 / math.sqrt(2)])


@pytest.mark.parametrize("spec", GROUP_SPECS)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_monochrome_transforms_to_zero_sum(spec, d):
    G = group_from_name(spec)
    lhs = fourier(monochrome_indicator(G, d)).values
    rhs = G.q ** (1 - d / 2) * zero_sum_indicator(G, d).values
    assert np.allclose(lhs, rhs, atol=1e-9)


def test_cor_g_transform_formula():
    # g = s*1_0 + 1_{Q\0} maps to q^{-1/2}[(s-1+q) 1_0 + (s-1) 1_{Q\0}]
    for q in (2, 3, 4):
        G = cyclic_group(q)
        s = 3.0
        g = QFunction(G, 1, [s] + [1.0] * (q - 1))
        got = fourier(g).values
        want = np.full(q, (s - 1) / math.sqrt(q), dtype=complex)
        want[0] = (s - 1 + q) / math.sqrt(q)
        assert np.allclose(got, want, atol=1e-12)
        assert np.allclose(negate(g).values, g.values)


@pytest.mark.parametrize("spec", GROUP_SPECS)
@pytest.mark.parametrize("d", [1, 2])
def test_unitarity_random(spec, d):
    G = group_from_name(spec)
    rng = np.random.default_rng(stable_seed(spec, d))
    f = QFunction(G, d, complex_vec(rng, G.q**d))
    g = QFunction(G, d, complex_vec(rng, G.q**d))
    assert_close(
        np.vdot(fourier(g).values, fourier(f).values),
        np.vdot(g.values, f.values),
        1e-9,
    )


@pytest.mark.parametrize("spec", GROUP_SPECS)
def test_fourier_involution(spec):
    G = group_from_name(spec)
    rng = np.random.default_rng(7)
    for d in (1, 2):
        f = QFunction(G, d, complex_vec(rng, G.q**d))
        assert np.allclose(fourier(fourier(f)).values, negate(f).values, atol=1e-9)
        assert np.allclose(
            fourier(fourier(fourier(fourier(f)))).values, f.values, atol=1e-9
        )
        # N commutes with F
        assert np.allclose(
            fourier(negate(f)).values, negate(fourier(f)).values, atol=1e-9
        )


def test_negate_examples():
    Z3 = cyclic_group(3)
    f = QFunction(Z3, 1, [0, 1, 2])
    assert np.allclose(negate(f).values, [0, 2, 1])
    Z2 = cyclic_group(2)
    g = QFunction(Z2, 1, [5, 7])
    assert np.allclose(negate(g).values, g.values)


def test_convolution_examples():
    Z2 = cyclic_group(2)
    one = QFunction.indicator(Z2, 1, [(1,)])
    assert np.allclose(convolve(one, one).values, [1, 0])
    Z3 = cyclic_group(3)
    f = QFunction(Z3, 1, complex_vec(np.random.default_rng(0), 3))
    delta = QFunction.indicator(Z3, 1, [(0,)])
    assert np.allclose(convolve(f, delta).values, f.values)
    ones = QFunction(Z3, 1, np.ones(3))
    assert np.allclose(convolve(ones, ones).values, 3 * ones.values)


def _shift_loop_convolve(f, g):
    """(f * g)(a) = sum_b f(a - b) g(b), one shift of f per b in Q^d."""
    q, d = f.group.q, f.arity
    ft, gt = f.as_tensor(), g.as_tensor()
    out = np.zeros_like(ft)
    for b in itertools.product(range(q), repeat=d):
        shifted = ft
        for ax, bi in enumerate(b):
            shifted = np.take(shifted, f.group.sub[:, bi], axis=ax)
        out = out + shifted * gt[b]
    return out.reshape(-1)


@pytest.mark.parametrize("spec", ["2", "3", "4", "2x2", "f4"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_convolve_matches_the_shift_loop(spec, d):
    G = group_from_name(spec)
    rng = np.random.default_rng(stable_seed(spec, d))
    f = QFunction(G, d, complex_vec(rng, G.q**d))
    g = QFunction(G, d, complex_vec(rng, G.q**d))
    want = _shift_loop_convolve(f, g)
    tol = 1e-12 * np.abs(want).max()
    assert np.allclose(convolve(f, g).values, want, rtol=0, atol=tol)


def _kron_power(M, d):
    out = np.ones((1, 1))
    for _ in range(d):
        out = np.kron(out, M)
    return out


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 5),
    st.integers(0, 3),
    st.integers(1, 5),
    st.booleans(),
    st.sampled_from(["matrices", "tables", "both"]),
    st.integers(0, 2**32 - 1),
)
@example(3, 3, 4, False, "both", 0)
@example(2, 0, 3, True, "matrices", 1)
def test_transform_matches_kron_reference(q, d, k, orthogonal, stacked, seed):
    """Entry i of a stack of k matrices, of k tables or of both transforms
    its table as (M kron ... kron M) @ table.ravel()."""
    rng = np.random.default_rng(seed)
    if orthogonal:
        Ms = np.array([random_orthogonal(q, seed + i) for i in range(k)])
    else:
        Ms = rng.standard_normal((k, q, q)) + 1j * rng.standard_normal((k, q, q))
    shape = (k,) * (stacked != "matrices") + (q,) * d
    tables = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got = transform(Ms[0] if stacked == "tables" else Ms, tables, d)
    assert got.shape == (k,) + (q,) * d
    for i in range(k):
        M = Ms[0] if stacked == "tables" else Ms[i]
        table = tables if stacked == "matrices" else tables[i]
        want = (_kron_power(M, d) @ table.ravel()).reshape((q,) * d)
        scale = max(1.0, np.abs(want).max())
        assert np.allclose(got[i], want, rtol=0, atol=1e-12 * scale), (i, d)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(GROUP_SPECS), st.integers(1, 2), st.integers(0, 10**6))
def test_product_convolution_duality(spec, d, seed):
    G = group_from_name(spec)
    rng = np.random.default_rng(seed)
    f = QFunction(G, d, complex_vec(rng, G.q**d))
    g = QFunction(G, d, complex_vec(rng, G.q**d))
    lhs = fourier(pointwise(f, g)).values
    rhs = G.q ** (-d / 2) * convolve(fourier(f), fourier(g)).values
    assert np.allclose(lhs, rhs, atol=1e-9 * max(1, np.abs(lhs).max()))


def test_subgroup_transform_all_q_up_to_12():
    for q in range(2, 13):
        G = cyclic_group(q)
        for step in range(1, q + 1):
            if q % step:
                continue
            P = QFunction.indicator(G, 1, [(a,) for a in range(0, q, step)])
            sharp = orthogonal_submodule(P)
            lhs = fourier(P).values
            rhs = q ** (-0.5) * (q // step) * sharp.values
            assert np.allclose(lhs, rhs, atol=1e-9), (q, step)


def test_orthogonal_submodule_examples():
    Z3 = cyclic_group(3)
    mono = monochrome_indicator(Z3, 2)
    assert np.allclose(
        orthogonal_submodule(mono).values, zero_sum_indicator(Z3, 2).values
    )
    zero = QFunction.indicator(Z3, 2, [(0, 0)])
    assert np.allclose(orthogonal_submodule(zero).values, np.ones(9))
    full = QFunction(Z3, 2, np.ones(9))
    assert np.allclose(orthogonal_submodule(full).values, zero.values)


def test_transform_by_examples():
    Z3 = cyclic_group(3)
    rng = np.random.default_rng(1)
    f = QFunction(Z3, 2, complex_vec(rng, 9))
    assert np.allclose(transform_by(f, np.eye(3)).values, f.values)
    assert np.allclose(
        transform_by(f, Z3.fourier_matrix()).values, fourier(f).values
    )
    g = QFunction(Z3, 1, complex_vec(rng, 3))
    U = rng.standard_normal((3, 3))
    assert np.allclose(transform_by(g, U).values, U @ g.values)
    with pytest.raises(ValueError):
        transform_by(g, np.eye(2))


@pytest.mark.parametrize("q", [1, 2, 3, 5, 8])
def test_random_orthogonal(q):
    U1 = random_orthogonal(q, seed=3)
    U2 = random_orthogonal(q, seed=3)
    U3 = random_orthogonal(q, seed=4)
    assert np.allclose(U1, U2)
    if q > 1:
        assert not np.allclose(U1, U3)
    assert np.max(np.abs(U1 @ U1.T - np.eye(q))) < 1e-12
    assert abs(abs(np.linalg.det(U1)) - 1) < 1e-9
    if q == 1:
        assert U1[0, 0] in (1.0, -1.0)


def test_qfunction_validation():
    Z3 = cyclic_group(3)
    with pytest.raises(ValueError):
        QFunction(Z3, 2, np.zeros(8))
    f = QFunction(Z3, 1, np.arange(3))
    g = QFunction(cyclic_group(2), 1, np.arange(2))
    with pytest.raises(ValueError):
        convolve(f, g)


def test_index_convention_first_coordinate_most_significant():
    Z3 = cyclic_group(3)
    f = QFunction.indicator(Z3, 2, [(1, 2)])
    assert f.values[1 * 3 + 2] == 1.0
    assert f.support() == [(1, 2)]


# References for the index arithmetic: the tuple loops that numbered the
# elements and the tuples of Q^d by hand, in itertools.product order.

REFERENCE_FACTORS = [(n,) for n in range(1, 10)] + [
    (12,), (2, 2), (2, 3), (3, 3), (2, 2, 2), (4, 2), (5, 3)
]


def _reference_cyclic_tables(factors):
    q = math.prod(factors)
    tuples = list(itertools.product(*[range(n) for n in factors]))
    index = {t: i for i, t in enumerate(tuples)}
    add = np.empty((q, q), dtype=np.int64)
    mul = np.empty((q, q), dtype=np.int64)
    neg = np.empty(q, dtype=np.int64)
    chi = np.empty(q, dtype=np.complex128)
    for i, a in enumerate(tuples):
        neg[i] = index[tuple((-x) % n for x, n in zip(a, factors))]
        chi[i] = np.prod([np.exp(2j * np.pi * x / n) for x, n in zip(a, factors)])
        for j, b in enumerate(tuples):
            add[i, j] = index[tuple((x + y) % n for x, y, n in zip(a, b, factors))]
            mul[i, j] = index[tuple((x * y) % n for x, y, n in zip(a, b, factors))]
    return {"add": add, "neg": neg, "mul": mul, "chi": chi, "sub": add[:, neg]}


def _reference_dot(group, a, b):
    acc = 0
    for x, y in zip(a, b):
        acc = group.add[acc, group.mul[x, y]]
    return int(acc)


def _reference_indicator(group, arity, member):
    tuples = itertools.product(range(group.q), repeat=arity)
    return np.array([1.0 if member(t) else 0.0 for t in tuples], dtype=np.complex128)


def _reference_zero_sum(group, arity):
    return _reference_indicator(
        group, arity, lambda t: functools.reduce(lambda s, a: group.add[s, a], t, 0) == 0
    )


def _reference_orthogonal(C):
    tuples = itertools.product(range(C.group.q), repeat=C.arity)
    members = [t for t, v in zip(tuples, C.values) if abs(v) > 1e-12]
    return _reference_indicator(
        C.group,
        C.arity,
        lambda a: all(_reference_dot(C.group, a, c) == 0 for c in members),
    )


def _same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("factors", REFERENCE_FACTORS, ids=str)
def test_cyclic_group_tables_match_the_tuple_loop(factors):
    G = cyclic_group(*factors)
    for name, want in _reference_cyclic_tables(factors).items():
        _same_array(getattr(G, name), want)


@pytest.mark.parametrize(
    "spec", ["x".join(map(str, f)) for f in REFERENCE_FACTORS] + ["f4"]
)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_indicators_match_the_tuple_loop(spec, d):
    G = group_from_name(spec)
    zero = zero_sum_indicator(G, d)
    mono = monochrome_indicator(G, d)
    _same_array(zero.values, _reference_zero_sum(G, d))
    _same_array(mono.values, _reference_indicator(G, d, lambda t: len(set(t)) == 1))
    rng = np.random.default_rng(stable_seed(spec, d))
    picked = [tuple(t) for t in rng.integers(0, G.q, (3, d)).tolist()]
    few = QFunction.indicator(G, d, picked)
    _same_array(few.values, _reference_indicator(G, d, lambda t: t in picked))
    assert few.support() == sorted(set(picked))
    for C in (zero, mono, few):
        _same_array(orthogonal_submodule(C).values, _reference_orthogonal(C))
