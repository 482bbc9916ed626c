import collections
import contextlib
import itertools
import math
import pickle
import tracemalloc
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from qcolour import enumeration, oracles
from qcolour.duality import tension_cwe_expectation
from qcolour.enumeration import (
    TermCapExceeded,
    boundary_chunk,
    coboundary_chunk,
    index_blocks,
)
from qcolour.graphs import (
    Multigraph,
    Orientation,
    boundary,
    coboundary,
    components,
    default_orientation,
    line_graph,
    rank,
)
from qcolour.groups import (
    QFunction,
    convolve,
    cyclic_group,
    gf4,
    group_from_name,
    negate,
)
from qcolour.oracles import (
    CompositionHistogram,
    chromatic,
    complete_weight_enum,
    count_polynomial,
    enumerate_flows,
    enumerate_tensions,
    flow_compositions,
    flow_count,
    flow_polynomial,
    hamming_weight_enum,
    hwe_coefficients,
    monochrome_histogram,
    monochrome_polynomial,
    tension_compositions,
    tutte,
)

from conftest import (
    assert_close,
    complex_vec,
    graph_of,
    multigraphs,
    stable_seed,
)

CORPUS_SMALL = ("single_edge", "single_loop", "digon", "triangle", "c4", "theta", "k4")


def test_tutte_examples():
    T = tutte(graph_of("triangle"))
    assert T.coeffs == {(2, 0): 1, (1, 0): 1, (0, 1): 1}
    assert str(T) == "x^2 + x + y"
    assert tutte(graph_of("single_loop")).coeffs == {(0, 1): 1}
    assert tutte(graph_of("single_edge")).coeffs == {(1, 0): 1}


@pytest.mark.parametrize("name", CORPUS_SMALL + ("prism", "k33", "petersen"))
def test_tutte_at_two_two_counts_subsets(name):
    g = graph_of(name)
    assert tutte(g)(2, 2) == 2**g.num_edges


def test_tutte_cap():
    with pytest.raises(TermCapExceeded):
        tutte(graph_of("petersen"), max_terms=1000)


def test_tutte_cap_counts_subsets():
    g = graph_of("petersen")
    with pytest.raises(TermCapExceeded) as err:
        tutte(g, max_terms=2**15 - 1)
    assert (err.value.estimate, err.value.cap) == (2**15, 2**15 - 1)
    assert tutte(g, max_terms=2**15)(2, 2) == 2**15
    # a cap above the label memory's ceiling still stops at 2^22 subsets
    with pytest.raises(TermCapExceeded) as err:
        tutte(Multigraph(2, ((0, 1),) * 23), max_terms=2**40)
    assert (err.value.estimate, err.value.cap) == (2**23, 2**22)


def test_tutte_pinned_values():
    assert str(tutte(graph_of("k4"))) == "x^3 + 3*x^2 + 4*x*y + 2*x + y^3 + 3*y^2 + 2*y"
    T = tutte(graph_of("petersen"))
    assert T(1, 1) == 2000  # spanning trees (Kirchhoff)
    assert T(2, 1) == 22292  # spanning forests
    assert T(1, 2) == 5968  # connected spanning subgraphs


# The memo of finished subset passes: the cap is priced on every call, before
# the memo is read, and equal graphs share one immutable value.


def test_memoized_tutte_still_prices_the_cap(monkeypatch):
    g = graph_of("petersen")
    assert tutte(g)(2, 2) == 2**15  # memoized at the default cap
    with pytest.raises(TermCapExceeded) as err:
        tutte(g, max_terms=1000)
    assert (err.value.estimate, err.value.cap) == (2**15, 1000)
    monkeypatch.setattr(oracles, "_subset_pass", pytest.fail)
    with pytest.raises(TermCapExceeded):
        tutte(g, max_terms=1000)


def test_memoized_monochrome_histogram_still_prices_the_colourings(monkeypatch):
    g = graph_of("prism")
    assert monochrome_polynomial(g, 5, 1) == 5**6  # memoized at the default cap
    monkeypatch.setattr(oracles, "_monochrome_memo", pytest.fail)
    for cap in (5**6 - 1, 1000):
        with pytest.raises(TermCapExceeded) as err:
            monochrome_polynomial(g, 5, 1, max_terms=cap)
        assert (err.value.estimate, err.value.cap) == (5**6, cap)


def test_equal_graphs_share_one_read_only_tutte():
    edges = ((0, 1), (1, 2), (2, 0), (2, 2), (3, 3))
    T = tutte(Multigraph(4, edges))
    assert tutte(Multigraph(4, [list(e) for e in edges])) is T
    with pytest.raises(TypeError):
        T.subsets[0] = ((0, 0), 1)
    # each read of coeffs is a fresh dict, so a write reaches no other read
    text = str(T)
    T.coeffs[0, 0] = 1
    assert T.coeffs == {(2, 2): 1, (1, 2): 1, (0, 3): 1}  # (x^2 + x + y) y^2
    assert str(T) == text
    assert pickle.loads(pickle.dumps(T)) == T


def test_chromatic_then_monochrome_calls_walk_the_colourings_once(monkeypatch):
    walks = []
    walk = oracles.monochrome_histogram

    def spy(g, q, max_terms):
        walks.append((g, q))
        return walk(g, q, max_terms)

    monkeypatch.setattr(oracles, "monochrome_histogram", spy)
    oracles._monochrome_memo.cache_clear()
    g = graph_of("prism")
    assert chromatic(g, 5) == 1920  # Biggs, Damerell & Sands' closed form
    assert monochrome_polynomial(g, 5, 2) == _monochrome_walk(g, 5, 2)
    assert monochrome_polynomial(g, 5, Fraction(1, 3)) == _monochrome_walk(g, 5, Fraction(1, 3))
    assert walks == [(g, 5)]


# Reference: one union-find rank per edge subset, as `tutte` computed before
# it filled the subset lattice one edge at a time.


def _tutte_by_subsets(g):
    m = g.num_edges
    full = rank(g)
    counts = {}
    for mask in range(1 << m):
        ra = rank(g, mask)
        key = (full - ra, bin(mask).count("1") - ra)
        counts[key] = counts.get(key, 0) + 1
    coeffs = {}
    for (i, j), c in counts.items():
        for a in range(i + 1):
            for b in range(j + 1):
                sign = (-1) ** ((i - a) + (j - b))
                term = c * math.comb(i, a) * math.comb(j, b) * sign
                coeffs[a, b] = coeffs.get((a, b), 0) + term
    return {k: v for k, v in coeffs.items() if v}, m, full


@settings(max_examples=150, deadline=None)
@given(multigraphs())
@example(Multigraph(0, ()))
@example(Multigraph(6, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 3), (5, 5), (0, 3), (2, 2), (1, 4))))
def test_tutte_matches_subset_ranks(g):
    T = tutte(g)
    assert (T.coeffs, T.num_edges, T.full_rank) == _tutte_by_subsets(g)


SUM_POINTS = (0, 1, 2, 3, Fraction(1, 2))  # 1 is the pole of the coefficient form


@settings(max_examples=100, deadline=None)
@given(multigraphs(), st.sampled_from([2, 3]))
def test_tutte_sums_match_colouring_walks(g, q):
    T = tutte(g)
    group = cyclic_group(q)
    orient = default_orientation(g)
    # monochromatic edges of each vertex colouring, a loop always one
    mono = [
        sum(c[u] == c[v] for u, v in g.edges)
        for c in itertools.product(range(q), repeat=g.num_vertices)
    ]
    # edges valued 0 of each edge colouring with zero boundary
    zeros = [
        y.count(0)
        for y in itertools.product(range(q), repeat=g.num_edges)
        if not any(boundary(g, orient, group, y))
    ]
    for t in SUM_POINTS:
        assert T.potts(q, t) == sum(t**k for k in mono)
        assert T.flow_enumerator(q, t) == sum(t**k for k in zeros)
        for y in SUM_POINTS:
            assert T(t, y) == sum(c * t**i * y**j for (i, j), c in T.coeffs.items())


def test_flow_polynomial_examples():
    assert flow_polynomial(graph_of("k4"), 4) == 6
    assert flow_polynomial(graph_of("theta"), 3) == 2
    assert flow_polynomial(graph_of("single_edge"), 5) == 0
    tree = Multigraph(3, ((0, 1), (1, 2)))
    assert flow_polynomial(tree, 3) == 0


def test_flow_count_group_structure_independence():
    # the number of nowhere-zero flows depends only on the group order
    for name in ("k4", "theta", "c4", "digon"):
        g = graph_of(name)
        z4 = flow_count(g, cyclic_group(4))
        klein = flow_count(g, cyclic_group(2, 2))
        field4 = flow_count(g, gf4())
        assert z4 == klein == field4 == flow_polynomial(g, 4), name


def test_chromatic_examples():
    assert chromatic(graph_of("triangle"), 3) == 6
    assert chromatic(line_graph(graph_of("k4")), 4) == 96
    assert chromatic(graph_of("single_loop"), 5) == 0


def test_tutte_route_counts_at_nonpositive_q():
    # no colourings or flows to list at q <= 0, so no cross-check; the
    # polynomials still have values there: P(G; -1) = (-1)^|V| times the
    # number of acyclic orientations (Stanley), 4! for K4
    assert chromatic(graph_of("k4"), -1) == 24
    assert chromatic(graph_of("triangle"), -1) == -6
    assert chromatic(graph_of("triangle"), 0) == 0
    # F(K4; q) = (q - 1)(q - 2)(q - 3)
    assert flow_polynomial(graph_of("k4"), 0) == -6
    assert flow_polynomial(graph_of("k4"), -1) == -24


def test_enumerate_flows_examples():
    Z3 = cyclic_group(3)
    assert len(enumerate_flows(graph_of("single_loop"), Z3)) == 3
    assert enumerate_flows(graph_of("single_edge"), Z3).tolist() == [[0]]
    Z2 = cyclic_group(2)
    assert enumerate_flows(graph_of("triangle"), Z2).tolist() == [[0, 0, 0], [1, 1, 1]]


@pytest.mark.parametrize("name", CORPUS_SMALL + ("prism", "k33"))
@pytest.mark.parametrize("q", [2, 3])
def test_flow_tension_counts(name, q):
    g = graph_of(name)
    G = cyclic_group(q)
    flows = enumerate_flows(g, G)
    tensions = enumerate_tensions(g, G)
    r = rank(g)
    assert len(flows) == q ** (g.num_edges - r)
    assert len(tensions) == q**r


def test_hwe_cwe_basics():
    assert hamming_weight_enum([(0, 0, 0), (1, 1, 1)], 7, 3) == 7**3 + 1
    assert hwe_coefficients([(0, 0, 0), (1, 1, 1)], 3) == [1, 0, 0, 1]
    S = [(0, 1), (2, 2), (1, 0)]
    assert complete_weight_enum(S, [1, 1, 1]) == 3
    assert complete_weight_enum(S, [2, 3, 5]) == 6 + 25 + 6
    # exact with Fractions
    assert complete_weight_enum(S, [Fraction(1, 2), 1, 1]) == Fraction(1, 2) * 2 + 1


@pytest.mark.parametrize("name", CORPUS_SMALL + ("prism", "k33"))
@pytest.mark.parametrize("q", [2, 3, 4])
def test_hwe_of_flows_matches_tutte_hyperbola(name, q):
    g = graph_of(name)
    G = cyclic_group(q)
    flows = enumerate_flows(g, G)
    T = tutte(g)
    for s in (2, 3, 5):
        lhs = hamming_weight_enum(flows, s, g.num_edges)
        rhs = (s - 1) ** (g.num_edges - T.full_rank) * T(
            Fraction(s), Fraction(s - 1 + q, s - 1)
        )
        assert lhs == rhs


@pytest.mark.parametrize("name", CORPUS_SMALL)
@pytest.mark.parametrize("q", [2, 3])
def test_monochrome_polynomial_identities(name, q):
    g = graph_of(name)
    G = cyclic_group(q)
    tensions = enumerate_tensions(g, G)
    for t in (0, 2, 3):
        assert monochrome_polynomial(g, q, t) == q ** components(g) * hamming_weight_enum(
            tensions, t, g.num_edges
        )
    assert monochrome_polynomial(g, q, 0) == chromatic(g, q)
    assert monochrome_polynomial(g, q, 1) == q**g.num_vertices


def test_monochrome_polynomial_single_edge():
    # two monochromatic and two proper colourings: 2t + 2, exactly
    val = monochrome_polynomial(graph_of("single_edge"), 2, Fraction(7, 2))
    assert val == 2 * Fraction(7, 2) + 2


@pytest.mark.parametrize("name", CORPUS_SMALL + ("prism",))
@pytest.mark.parametrize("spec", ["2", "3", "2x2", "f4"])
def test_macwilliams_random_weights(name, spec):
    g = graph_of(name)
    G = group_from_name(spec)
    flows = enumerate_flows(g, G)
    tensions = enumerate_tensions(g, G)
    rng = np.random.default_rng(stable_seed(name, spec))
    for _ in range(3):
        h = complex_vec(rng, G.q)
        lhs = complete_weight_enum(flows, h)
        rhs = (
            G.q ** (-g.num_edges / 2)
            * len(flows)
            * complete_weight_enum(tensions, G.fourier_matrix() @ h)
        )
        assert_close(lhs, rhs, 1e-8, f"{name} {spec}")


def test_flow_polynomial_cross_check_runs():
    # small enough that the enumeration route is exercised
    assert flow_polynomial(graph_of("prism"), 5, max_terms=10**7) == flow_polynomial(
        graph_of("prism"), 5, cross_check=False
    )


def test_flow_cross_check_builds_no_group_over_the_cap(monkeypatch):
    def refuse(*factors):
        raise AssertionError(f"cyclic_group{factors} was built")

    monkeypatch.setattr(oracles, "cyclic_group", refuse)
    path = Multigraph(3, ((0, 1), (1, 2)))
    # a forest has one flow to list, but Z_(10^5)'s (q, q) tables are over
    # the cap, so the value is read off the subset histogram alone
    assert flow_polynomial(path, 10**5) == 0
    # within the cap the cross-check lists the flows over the group
    with pytest.raises(AssertionError, match="was built"):
        flow_polynomial(path, 3)


# Reference: scan every edge or vertex colouring and filter, as the oracles
# did before they enumerated from a spanning forest.


def _scan_flows(g, group, orient):
    rows = []
    for chunk in index_blocks(group.q, g.num_edges):
        bnd = boundary_chunk(g, orient, group, chunk)
        keep = ~bnd.any(axis=1)
        if keep.any():
            rows.append(chunk[keep])
    if not rows:
        return np.zeros((0, g.num_edges), dtype=np.int64)
    return np.concatenate(rows, axis=0)


def _scan_tensions(g, group, orient):
    pieces = []
    for chunk in index_blocks(group.q, g.num_vertices):
        pieces.append(np.unique(coboundary_chunk(g, orient, group, chunk), axis=0))
    return np.unique(np.concatenate(pieces, axis=0), axis=0)


def _scan_flow_count(g, group, orient):
    total = 0
    for chunk in index_blocks(group.q, g.num_edges):
        nz = chunk.all(axis=1)
        if not nz.any():
            continue
        bnd = boundary_chunk(g, orient, group, chunk[nz])
        total += int((~bnd.any(axis=1)).sum())
    return total


@settings(max_examples=80, deadline=None)
@given(
    multigraphs(),
    st.sampled_from(("2", "3", "4", "2x2", "f4")),
    st.lists(st.integers(0, 1), min_size=5, max_size=5),
)
@example(Multigraph(0, ()), "3", [1] * 5)
@example(Multigraph(4, ((0, 1), (1, 0), (0, 0), (2, 2))), "f4", [0, 1, 1, 0, 1])
def test_forest_enumeration_matches_scan(g, spec, heads):
    G = group_from_name(spec)
    orient = Orientation(tuple(heads[: g.num_edges]))
    for fast, scan in (
        (enumerate_flows(g, G, orient), _scan_flows(g, G, orient)),
        (enumerate_tensions(g, G, orient), _scan_tensions(g, G, orient)),
    ):
        assert fast.dtype == scan.dtype
        assert fast.shape == scan.shape
        # the listing order is not sorted, so compare the sorted rows
        assert sorted(fast.tolist()) == sorted(scan.tolist())
    # the nowhere-zero count does not depend on the orientation
    assert flow_count(g, G) == _scan_flow_count(g, G, orient)


def test_flow_cap_counts_free_edges():
    with pytest.raises(TermCapExceeded) as err:
        enumerate_flows(graph_of("petersen"), cyclic_group(4), max_terms=10**3)
    assert err.value.estimate == 4**6


@pytest.mark.parametrize("seed", [35654619, 154927927])
def test_cwe_exact_on_petersen_tension_route(seed):
    # terms near |w|^15 ~ 1e16 cancel to ~6e6: summing row products in
    # floats was 1e-5 off here
    g = graph_of("petersen")
    G = cyclic_group(2)
    rng = np.random.default_rng(seed)
    gv = [complex_vec(rng, 2) for _ in range(2)][1]
    fq = QFunction(G, 1, gv)
    got = complete_weight_enum(
        enumerate_tensions(g, G), convolve(fq, negate(fq)).values
    )
    want = tension_cwe_expectation(g, G, gv).value
    assert abs(got - want) < 1e-10 * abs(want)


def _gauss_exact(rows, weights):
    """Exact sum of row products, each weight a pair of Fractions."""
    total = (Fraction(0), Fraction(0))
    for row in rows:
        re, im = Fraction(1), Fraction(0)
        for c in row:
            w = complex(weights[c])
            a, b = Fraction(w.real), Fraction(w.imag)
            re, im = re * a - im * b, re * b + im * a
        total = (total[0] + re, total[1] + im)
    return total


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 6), st.integers(0, 2**32 - 1))
def test_cwe_float_and_complex_are_correctly_rounded(q, length, seed):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, q, size=(int(rng.integers(1, 40)), length))
    scale = 10.0 ** rng.integers(-8, 9, size=q)
    real = rng.standard_normal(q) * scale
    got = complete_weight_enum(rows, real)
    assert isinstance(got, float)
    assert got == float(complete_weight_enum(rows, [Fraction(w) for w in real]))
    cplx = complex_vec(rng, q) * scale
    got = complete_weight_enum(rows, cplx)
    re, im = _gauss_exact(rows, cplx)
    assert isinstance(got, complex)
    assert got == complex(float(re), float(im))


def test_cwe_groups_compositions_past_int64_keys():
    # K4 tensions over Z23: compositions of 6 coordinates into 23 colours,
    # (|E|+1)^q = 7^23 > 2^63, so the composition key must be re-ranked
    g = graph_of("k4")
    rows = enumerate_tensions(g, cyclic_group(23))
    assert (g.num_edges + 1) ** 23 > 2**63
    rng = np.random.default_rng(23)
    ints = [int(w) for w in rng.integers(-9, 10, size=23)]
    assert complete_weight_enum(rows, ints) == sum(
        math.prod(ints[c] for c in row) for row in rows.tolist()
    )
    cplx = complex_vec(rng, 23)
    re, im = _gauss_exact(rows, cplx)
    assert complete_weight_enum(rows, cplx) == complex(float(re), float(im))


def test_cwe_rejects_values_outside_the_weights():
    with pytest.raises(ValueError):
        complete_weight_enum([[0, 3]], [1, 2])
    with pytest.raises(ValueError):
        complete_weight_enum([[0, -1]], [1, 2])


def test_hwe_rejects_rows_shorter_than_length():
    # [1, 0] has one zero; with length 3 it would count as two
    with pytest.raises(ValueError):
        hwe_coefficients([[1, 0]], 3)
    with pytest.raises(ValueError):
        hamming_weight_enum([[1, 0]], 2, 3)


@pytest.mark.parametrize("rows", [[1, 0], 5])
def test_hwe_rejects_rows_not_in_a_list(rows):
    # a 1-D row list or a scalar has no row length, as complete_weight_enum
    # also says
    with pytest.raises(ValueError):
        hwe_coefficients(rows, 2)
    with pytest.raises(ValueError):
        hamming_weight_enum(rows, 2, 2)


def test_hwe_rejects_rows_longer_than_length():
    # with length 1 the zero of [1, 0] would go uncounted
    with pytest.raises(ValueError):
        hwe_coefficients([[1, 0]], 1)
    with pytest.raises(ValueError):
        hamming_weight_enum([[1, 0]], 2, 1)


def test_weight_enums_exact_types_and_edge_cases():
    S = np.array([[0, 1, 1], [2, 0, 0], [1, 1, 1]])
    assert complete_weight_enum(S, np.array([2, 3, 5])) == 2 * 9 + 5 * 4 + 27
    assert type(complete_weight_enum(S, np.array([2, 3, 5]))) is int
    # products past 2^63 stay exact
    assert complete_weight_enum(S, [2**40, 3, 5]) == 2**40 * 9 + 5 * 2**80 + 27
    half = complete_weight_enum(S, [Fraction(1, 2), Fraction(1, 3), 1])
    assert half == Fraction(1, 18) + Fraction(1, 4) + Fraction(1, 27)
    assert complete_weight_enum([], [1.5, 2.5]) == 0
    assert complete_weight_enum(np.zeros((4, 0), dtype=np.int64), [1.5]) == 4
    assert hamming_weight_enum([], 3, 4) == 0
    assert hwe_coefficients([], 4) == [0] * 5
    # 0^0 is 1: at s = 0 exactly the nowhere-zero vectors count
    assert hamming_weight_enum(S, 0, 3) == 1
    assert hamming_weight_enum([(0, 0, 0), (1, 0, 0)], 0, 3) == 0
    assert hamming_weight_enum(S, Fraction(1, 2), 3) == Fraction(3, 4) + 1


def test_complete_weight_enum_takes_non_finite_weights():
    rows = np.array([[0, 1], [1, 1]])
    # inf ** n overflows in Python, so the powers multiply out in the
    # weights' own type and the sum is each row's product, summed
    for weights in ([math.inf, 1.0], [-math.inf, 2.0], [math.inf, 0.5], [1.0, math.inf]):
        want = sum(math.prod(weights[c] for c in row) for row in rows.tolist())
        assert complete_weight_enum(rows, weights) == want
        assert complete_weight_enum(rows, np.array(weights)) == want
    assert math.isnan(complete_weight_enum(rows, [math.nan, 1.0]))
    # the rows' products are -inf and inf
    assert math.isnan(complete_weight_enum(rows, [math.inf, -math.inf]))
    assert isinstance(complete_weight_enum(rows, [complex(math.inf, 1.0), 1j]), complex)


def _same(a, b):
    """One type and one value bit for bit (nan equal to nan)."""
    return type(a) is type(b) and repr(a) == repr(b)


def _value_or_overflow(f):
    try:
        return f()
    except OverflowError:
        return OverflowError


def _multiplied_out(hist, weights):
    """The non-finite semantics: each composition's weights multiplied one
    coordinate at a time in colour order, times its multiplicity, summed
    in composition order."""
    return sum(
        m * math.prod(weights[c] for c, n in enumerate(comp) for _ in range(n))
        for comp, m in zip(hist.comps.tolist(), hist.mults.tolist())
    )


def _signed(magnitudes):
    return st.builds(lambda m, neg: -m if neg else m, magnitudes, st.booleans())


# from 1e-300 to 1e300 and subnormal, in each float width
_WEIGHTS = {
    64: _signed(
        st.one_of(st.just(0.0), st.floats(1e-300, 1e300), st.floats(5e-324, 2.2e-308))
    ),
    32: _signed(
        st.one_of(
            st.just(0.0),
            st.floats(2.0**-126, 2.0**126, width=32),
            st.floats(2.0**-149, 2.0**-127, width=32),
        )
    ),
}


@st.composite
def _cwe_stacks(draw):
    """Rows with values in range(q), possibly none or of length 0, and a
    (D, q) stack of float or complex weights, at most one row of which
    holds a non-finite entry."""
    q = draw(st.sampled_from([1, 2, 3, 40]))
    length = draw(st.integers(0, 3 if q == 40 else 5))
    row = st.lists(st.integers(0, q - 1), min_size=length, max_size=length)
    rows = draw(st.lists(row, max_size=8))
    rows = np.array(rows, dtype=np.int64).reshape(len(rows), length)
    dtypes = [np.float64, np.float32, np.complex128, np.complex64]
    dtype = np.dtype(draw(st.sampled_from(dtypes)))
    d = draw(st.integers(1, 4))
    parts = 2 if dtype.kind == "c" else 1
    width = 64 if dtype.itemsize // parts == 8 else 32
    values = draw(st.lists(_WEIGHTS[width], min_size=parts * d * q, max_size=parts * d * q))
    W = np.array(values, dtype=dtype.char.lower()).reshape(parts, d, q)
    W = W[0] + 1j * W[1] if parts == 2 else W[0]
    W = W.astype(dtype)
    if draw(st.booleans()):
        at = draw(st.integers(0, d - 1)), draw(st.integers(0, q - 1))
        W[at] = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
    return rows, W


@settings(max_examples=200, deadline=None)
@given(_cwe_stacks())
@example((np.zeros((0, 3), dtype=np.int64), np.ones((2, 2))))
@example((np.zeros((4, 0), dtype=np.int64), np.array([[1.5], [math.inf]])))
@example((np.array([[0, 39, 39]]), np.full((1, 40), 1e300, dtype=complex)))
def test_cwe_stack_entries_are_the_single_rows_exactly(case):
    rows, W = case
    hist = CompositionHistogram.of_rows(rows, W.shape[1])
    singles = [_value_or_overflow(lambda: hist.complete_weight_enum(w)) for w in W]
    stack = _value_or_overflow(lambda: hist.complete_weight_enum(W))
    if any(v is OverflowError for v in singles):
        assert stack is OverflowError
    else:
        assert len(stack) == len(W)
        assert all(map(_same, stack, singles))
        assert all(map(_same, complete_weight_enum(rows, W), singles))
    for w, got in zip(W, singles):
        if len(rows) == 0:
            assert _same(got, 0)
        elif not np.isfinite(w).all():
            assert _same(got, _multiplied_out(hist, w.tolist()))
        else:
            re, im = _gauss_exact(rows, w)
            want = _value_or_overflow(
                lambda: complex(float(re), float(im)) if W.dtype.kind == "c" else float(re)
            )
            assert _same(got, want)


def test_cwe_stack_of_exact_rows():
    S = np.array([[0, 1, 1], [2, 0, 0], [1, 1, 1]])
    hist = CompositionHistogram.of_rows(S, 3)
    stack = [[2, 3, 5], [Fraction(1, 2), Fraction(1, 3), 1], [1.5, 2, 0.25]]
    got = hist.complete_weight_enum(stack)
    assert got == [hist.complete_weight_enum(w) for w in stack]
    assert [type(v) for v in got] == [int, Fraction, float]
    assert complete_weight_enum(S, np.array(stack[:1])) == [2 * 9 + 5 * 4 + 27]
    assert complete_weight_enum([], np.ones((3, 2))) == [0, 0, 0]
    assert complete_weight_enum(S, np.ones((0, 3))) == []
    with pytest.raises(ValueError, match="shape"):
        hist.complete_weight_enum(np.ones((2, 4)))
    with pytest.raises(ValueError, match="shape"):
        hist.complete_weight_enum(np.ones((1, 1, 3)))


def test_of_rows_names_the_shape_it_expects():
    with pytest.raises(ValueError, match=r"\(rows, length\)"):
        CompositionHistogram.of_rows(np.array([0, 1, 1]), 2)
    with pytest.raises(ValueError, match=r"\(rows, length\)"):
        complete_weight_enum([0, 1, 1], [1.0, 2.0])


@settings(max_examples=40, deadline=None)
@given(
    multigraphs(),
    st.sampled_from(("2", "3", "4", "2x2", "f4")),
    st.lists(st.integers(0, 1), min_size=5, max_size=5),
)
def test_coboundary_chunk_matches_coboundary_per_row(g, spec, heads):
    G = group_from_name(spec)
    orient = Orientation(tuple(heads[: g.num_edges]))
    X = next(index_blocks(G.q, g.num_vertices))
    got = coboundary_chunk(g, orient, G, X)
    assert got.shape == (X.shape[0], g.num_edges) and got.dtype == np.int64
    assert got.tolist() == [list(coboundary(g, orient, G, x)) for x in X.tolist()]


@pytest.mark.parametrize("block", (1, 2, 3, 7, 16, 2**17))
@pytest.mark.parametrize("length", range(7))
@pytest.mark.parametrize("radix", range(1, 6))
def test_index_blocks_list_the_product_in_order(radix, length, block, monkeypatch):
    monkeypatch.setattr(enumeration, "DEFAULT_BLOCK", block)
    blocks = list(index_blocks(radix, length))
    assert all(b.dtype == np.int64 and b.shape[1] == length for b in blocks)
    assert all(b.shape[0] <= max(block, radix) for b in blocks)
    rows = np.concatenate(blocks).tolist()
    assert rows == [list(t) for t in itertools.product(range(radix), repeat=length)]


# Composition histograms: the battery's route to the weight enumerators.
# Each is held to the sorted enumerators and to a per-row reference.


@contextlib.contextmanager
def _small_blocks(block):
    """List the oracles' sets in blocks of at most max(``block``, q) free
    colourings, so that every histogram is merged from several blocks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enumeration, "DEFAULT_BLOCK", block)
        yield


def _weight_families(rng, q):
    ints = [int(w) for w in rng.integers(-3, 4, size=q)]
    nums, dens = rng.integers(-5, 6, size=q), rng.integers(1, 5, size=q)
    fracs = [Fraction(int(a), int(b)) for a, b in zip(nums, dens)]
    return ints, fracs, rng.standard_normal(q), complex_vec(rng, q)


def _row_cwe(rows, weights):
    """Per-row reference: exact for int and Fraction weights, correctly
    rounded for float and complex ones."""
    if isinstance(weights, list):
        return sum(math.prod(weights[c] for c in row) for row in rows.tolist())
    re, im = _gauss_exact(rows, weights)
    if np.iscomplexobj(weights):
        return complex(float(re), float(im))
    return float(re)


@settings(max_examples=60, deadline=None)
@given(
    multigraphs(),
    st.sampled_from(("2", "3", "4", "2x2", "f4")),
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(0, 1), min_size=5, max_size=5),
)
@example(Multigraph(0, ()), "3", 0, [0] * 5)
@example(Multigraph(3, ()), "2x2", 1, [0] * 5)
@example(Multigraph(4, ((0, 1), (1, 0), (0, 0), (2, 2), (1, 2))), "f4", 2, [1, 0, 0, 1, 0])
@example(Multigraph(3, ((0, 1), (1, 2), (2, 0))), "3", 3, [0, 1, 1, 1, 1])
def test_composition_histograms_evaluate_as_sorted_sets(g, spec, seed, heads):
    G = group_from_name(spec)
    rng = np.random.default_rng(seed)
    # the sets, and so the histograms, depend on the orientation
    orient = Orientation(tuple(heads[: g.num_edges]))
    with _small_blocks(3):
        streamed = (
            flow_compositions(g, G, orient),
            tension_compositions(g, G, orient),
        )
    listed = (enumerate_flows(g, G, orient), enumerate_tensions(g, G, orient))
    for rows, hist in zip(listed, streamed):
        whole = CompositionHistogram.of_rows(rows, G.q)
        assert np.array_equal(hist.comps, whole.comps)
        assert np.array_equal(hist.mults, whole.mults)
        assert (hist.length, hist.rows) == (g.num_edges, len(rows))
        assert hist.hwe_coefficients() == hwe_coefficients(rows, g.num_edges)
        for s in (0, 2, Fraction(1, 3)):
            assert hist.hamming_weight_enum(s) == hamming_weight_enum(rows, s, g.num_edges)
        for weights in _weight_families(rng, G.q):
            got = hist.complete_weight_enum(weights)
            assert got == complete_weight_enum(rows, weights) == _row_cwe(rows, weights)
            assert type(got) is type(complete_weight_enum(rows, weights))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 25),
    st.integers(0, 6),
    st.integers(0, 60),
    st.integers(1, 7),
    st.integers(0, 2**32 - 1),
)
@example(23, 6, 50, 4, 0)  # (6+1)^23 > 2^63: keys re-ranked, in each part too
def test_merged_histograms_equal_whole_set_grouping(q, length, n, block, seed):
    rng = np.random.default_rng(seed)
    # about half the coordinates at colour 0, whose count weighs most in a key
    rows = rng.integers(0, q, size=(n, length)) * rng.integers(0, 2, size=(n, length))
    whole = CompositionHistogram.of_rows(rows, q)
    parts = [
        CompositionHistogram.of_rows(rows[i : i + block], q)
        for i in range(0, max(n, 1), block)
    ]
    merged = CompositionHistogram.merged(parts)
    assert np.array_equal(merged.comps, whole.comps)
    assert np.array_equal(merged.mults, whole.mults)
    assert (merged.length, merged.rows) == (whole.length, whole.rows) == (length, n)
    # lexicographic composition order, colour 0 most significant
    keys = [tuple(c) for c in whole.comps.tolist()]
    assert keys == sorted(set(keys))
    assert int(whole.mults.sum()) == n


@st.composite
def _row_sets(draw):
    """(q, rows): up to 40 rows of length 0..6 over range(q), q in 1..40,
    about half the coordinates at colour 0 so that compositions repeat."""
    q, length = draw(st.integers(1, 40)), draw(st.integers(0, 6))
    value = st.one_of(st.just(0), st.integers(0, q - 1))
    row = st.lists(value, min_size=length, max_size=length)
    rows = draw(st.lists(row, max_size=40))
    return q, np.array(rows, dtype=np.int64).reshape(len(rows), length)


def _counted_compositions(rows, q):
    """Reference: each row's per-colour count tuple, counted, in
    lexicographic order (colour 0 first)."""
    counted = collections.Counter(tuple(row.count(c) for c in range(q)) for row in rows)
    return sorted(counted.items())


def _as_counted(hist):
    assert hist.comps.dtype == hist.mults.dtype == np.int64
    assert not hist.comps.flags.writeable and not hist.mults.flags.writeable
    return list(zip(map(tuple, hist.comps.tolist()), hist.mults.tolist()))


_RERANKED = np.array(
    [[0] * 6, [22] * 6, [0, 0, 0, 0, 0, 1], [1, 0, 0, 0, 0, 0], [5, 9, 5, 9, 22, 0]]
)


@settings(max_examples=150, deadline=None)
@given(_row_sets(), st.lists(st.integers(0, 40), max_size=5))
# (6+1)^23 > 2^63: the key is re-ranked between runs, in each part too
@example((23, np.concatenate([_RERANKED, _RERANKED[::-1], _RERANKED[:2]])), [3, 3, 8])
# 2^64 > 2^63 = base^63: colour 0 alone would weigh 2^63 in a 63-colour run
@example((64, np.array([[c] for c in (0, 63, 1, 0, 62, 31, 0)])), [1, 4])
# no rows to re-rank: the next run must still stop below 2^63
@example((64, np.zeros((0, 6), dtype=np.int64)), [0])
@example((1, np.zeros((3, 0), dtype=np.int64)), [])
def test_histograms_match_a_counter_of_count_tuples(case, cuts):
    q, rows = case
    n, length = rows.shape
    want = _counted_compositions(rows.tolist(), q)
    whole = CompositionHistogram.of_rows(rows, q)
    assert _as_counted(whole) == want
    assert (whole.length, whole.rows, whole.comps.shape[1]) == (length, n, q)
    # any split of the rows, empty parts included, merges to the same
    ends = sorted(c % (n + 1) for c in cuts) + [n]
    parts = [CompositionHistogram.of_rows(rows[a:b], q) for a, b in zip([0, *ends], ends)]
    merged = CompositionHistogram.merged(parts)
    assert _as_counted(merged) == want
    assert (merged.length, merged.rows, merged.comps.shape[1]) == (length, n, q)


def test_grouping_holds_no_per_row_count_matrix():
    # the triangle's tensions over Z150 in one call: a (rows, q) int64 count
    # matrix alone would be 27 MB
    rows = enumerate_tensions(graph_of("triangle"), cyclic_group(150))
    q = 150
    assert rows.shape == (q**2, 3)
    tracemalloc.start()
    try:
        hist = CompositionHistogram.of_rows(rows, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hist.hwe_coefficients() == [(q - 1) * (q - 2), 3 * (q - 1), 0, 1]
    assert peak < rows.shape[0] * q * 8 // 2


def test_merged_refuses_parts_that_do_not_match():
    with pytest.raises(ValueError, match="no histograms"):
        CompositionHistogram.merged([])
    short = CompositionHistogram.of_rows([[1, 1]], 2)
    with pytest.raises(ValueError, match="cannot merge"):
        CompositionHistogram.merged([short, CompositionHistogram.of_rows([[0, 0, 0, 0]], 2)])
    with pytest.raises(ValueError, match="cannot merge"):
        CompositionHistogram.merged([short, CompositionHistogram.of_rows([[1, 1]], 3)])
    assert CompositionHistogram.merged([short]).mults.tolist() == [1]


def test_histogram_groups_compositions_past_int64_keys():
    # the streamed route of test_cwe_groups_compositions_past_int64_keys:
    # K4 tensions over Z23, (|E|+1)^q > 2^63, in blocks of 23^2 rows
    g = graph_of("k4")
    rows = enumerate_tensions(g, cyclic_group(23))
    with _small_blocks(23**2):
        hist = tension_compositions(g, cyclic_group(23))
    whole = CompositionHistogram.of_rows(rows, 23)
    assert (g.num_edges + 1) ** 23 > 2**63
    assert hist.rows == len(rows) == 23**3
    assert np.array_equal(hist.comps, whole.comps)
    assert np.array_equal(hist.mults, whole.mults)
    # the zero tension's key, 6 * 7^22, is past 2^63: it must still sort last
    keys = [tuple(c) for c in hist.comps.tolist()]
    assert keys == sorted(keys) and keys[-1] == (6,) + (0,) * 22
    rng = np.random.default_rng(23)
    for weights in ([int(w) for w in rng.integers(-9, 10, size=23)], complex_vec(rng, 23)):
        assert hist.complete_weight_enum(weights) == complete_weight_enum(rows, weights)


def test_tension_histogram_merges_its_blocks_as_they_stream():
    # the triangle's q^2 tensions pass one block, so they are listed in q
    # blocks of q rows, as at q = 363 with the default block of 2^17; what
    # waits to be merged never outgrows the histogram, and a merge of every
    # block at once peaks at 7.2 times the result
    q = 150
    with _small_blocks(2**13):
        assert q**2 > enumeration.DEFAULT_BLOCK
        tracemalloc.start()
        try:
            hist = tension_compositions(graph_of("triangle"), cyclic_group(q))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # all three edges nonzero, one zero edge, or the zero tension
    assert hist.hwe_coefficients() == [(q - 1) * (q - 2), 3 * (q - 1), 0, 1]
    assert peak <= 6 * hist.comps.nbytes


def test_histogram_edge_cases():
    empty = CompositionHistogram.of_rows([], 3)
    assert (empty.rows, empty.length, empty.comps.shape) == (0, 0, (0, 3))
    assert empty.complete_weight_enum([1.5, 2.5, 1]) == 0
    assert empty.hwe_coefficients() == [0] and empty.hamming_weight_enum(2) == 0
    # width-0 rows: an edgeless graph has one flow and one tension, both empty
    g = Multigraph(3, ())
    for hist in (flow_compositions(g, gf4()), tension_compositions(g, gf4())):
        assert (hist.rows, hist.length) == (1, 0)
        assert hist.complete_weight_enum([0.5, 2, 3, 4]) == 1.0
        assert hist.complete_weight_enum([0, 2, 3, 4]) == 1
        assert hist.hamming_weight_enum(0) == 1
    wide = CompositionHistogram.of_rows(np.zeros((4, 0), dtype=np.int64), 1)
    assert wide.complete_weight_enum([1.5]) == complete_weight_enum(
        np.zeros((4, 0), dtype=np.int64), [1.5]
    ) == 4
    with pytest.raises(ValueError):
        CompositionHistogram.of_rows([[0, 3]], 3)
    with pytest.raises(ValueError):
        CompositionHistogram.of_rows([[0, -1]], 3)
    with pytest.raises(ValueError):
        CompositionHistogram.of_rows([[0, 1]], 2).complete_weight_enum([1, 2, 3])


def _monochrome_walk(g, q, t):
    """Per-t reference: every vertex colouring, one term each, as
    ``monochrome_polynomial`` walked them before it kept a histogram."""
    total = 0
    for colours in itertools.product(range(q), repeat=g.num_vertices):
        total += t ** sum(colours[u] == colours[v] for u, v in g.edges)
    return total


@settings(max_examples=60, deadline=None)
@given(multigraphs(), st.integers(1, 4))
@example(Multigraph(0, ()), 3)
@example(Multigraph(2, ((0, 0), (0, 1), (1, 0))), 2)
def test_monochrome_histogram_evaluates_as_the_walk(g, q):
    hist = monochrome_histogram(g, q)
    assert len(hist) == g.num_edges + 1 and sum(hist) == q**g.num_vertices
    with _small_blocks(5):
        assert monochrome_histogram(g, q) == hist
    for t in (0, 1, 2, 3, Fraction(2, 3)):
        want = _monochrome_walk(g, q, t)
        assert count_polynomial(hist, t) == monochrome_polynomial(g, q, t) == want
