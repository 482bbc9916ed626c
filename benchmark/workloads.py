"""The benchmark's workloads: fixed item lists whose inputs come from a seed.

An item is one unit of closed-loop work: it calls into qcolour, checks every
output against an independent route, and returns how many checks passed and
how many failed.  An item that raises counts as failed; the runner never
retries or skips it.  Items look functions up through their module at call
time, so the traced run sees the wrapped versions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from qcolour import duality, oracles, signed, verify
from qcolour.corpus import CORPUS
from qcolour.graphio import GraphDocument
from qcolour.graphs import Multigraph, components, default_orientation
from qcolour.groups import cyclic_group, group_from_name

BATTERY_GROUPS = ("2", "3", "4", "2x2", "f4")
RANDOM_GRAPH_GROUPS = ("2", "3", "4")


@dataclass(frozen=True)
class Item:
    name: str
    run: Callable[[], tuple[int, int]]  # -> (checks passed, checks failed)


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def _cvec(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _close(a, b, tol: float) -> bool:
    a, b = complex(a), complex(b)
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _tally(*oks: bool) -> tuple[int, int]:
    passed = sum(1 for ok in oks if ok)
    return passed, len(oks) - passed


def random_multigraph(seed: int) -> Multigraph:
    """|V| = 7, |E| = 9: a Hamiltonian path on six vertices, two further
    simple edges, one edge doubled into a parallel pair, one loop, and one
    isolated vertex.  Labels, edge order and edge directions come from seed."""
    rng = _rng(seed, 1)
    perm = [int(v) for v in rng.permutation(7)]
    live = perm[:6]
    path = [(live[i], live[i + 1]) for i in range(5)]
    on_path = {frozenset(p) for p in path}
    others = [
        (u, v)
        for i, u in enumerate(live)
        for v in live[i + 1 :]
        if frozenset((u, v)) not in on_path
    ]
    extra = [others[i] for i in rng.choice(len(others), size=2, replace=False)]
    simple = path + extra
    doubled = simple[int(rng.integers(len(simple)))]
    loop_at = live[int(rng.integers(6))]
    edges = simple + [doubled, (loop_at, loop_at)]
    edges = [edges[i] for i in rng.permutation(len(edges))]
    edges = [(v, u) if rng.integers(2) else (u, v) for u, v in edges]
    return Multigraph(7, tuple(edges))


# ---------------------------------------------------------- corpus-battery


def _battery_item(doc: GraphDocument, spec: str, seed: int):
    group = group_from_name(spec)

    def run():
        records = verify.run_battery(doc, group, seed=seed)
        return _tally(*(r.passed for r in records))

    return run


def corpus_battery(seed: int) -> list[Item]:
    items = []
    for name, fx in CORPUS.items():
        if name == "petersen":
            continue
        doc = GraphDocument(fx.graph, None, fx.rotation, fx.pfaffian_compatible)
        for spec in BATTERY_GROUPS:
            items.append(Item(f"battery/{name}/{spec}", _battery_item(doc, spec, seed)))
    doc = GraphDocument(random_multigraph(seed))
    for spec in RANDOM_GRAPH_GROUPS:
        items.append(
            Item(f"battery/random-multigraph/{spec}", _battery_item(doc, spec, seed))
        )
    return items


# ----------------------------------------------------------- petersen-sums

# Petersen has no proper edge 3-colouring, so the zero-sum parity sum
# vanishes.  Its terms are at most 8^10 in size over 3^15 colourings, and
# float64 rounding stays far below this absolute tolerance.
ZERO_TOL = 1e-6


def petersen_sums(seed: int) -> list[Item]:
    fx = CORPUS["petersen"]
    g, rot = fx.graph, fx.rotation
    z3 = cyclic_group(3)
    orient = default_orientation(g)
    rng = _rng(seed, 2)
    fs = [_cvec(rng, 3) for _ in range(g.num_vertices)]
    gs = [_cvec(rng, 3) for _ in range(g.num_edges)]
    gv = _cvec(rng, 3)

    def general_duality():
        lhs, rhs = duality.general_duality_sides(g, z3, orient, fs, gs)
        return _tally(_close(lhs, rhs, 1e-8))

    def flow_cwe_routes():
        a = duality.flow_cwe_vertex_model(g, z3, gv).value
        b = duality.flow_cwe_edge_model(g, z3, gv).value
        return _tally(_close(a, b, 1e-8))

    def zero_sum_parity():
        v = signed.zero_sum_parity_sum(g, rot, z3, (0, 1, 2)).value
        return _tally(abs(v) <= ZERO_TOL)

    return [
        Item("petersen/general-duality/Z3", general_duality),
        Item("petersen/flow-cwe-vertex-vs-edge/Z3", flow_cwe_routes),
        Item("petersen/zero-sum-parity/Z3", zero_sum_parity),
    ]


# ------------------------------------------------------------ oracle-sweep


def spanning_trees(g: Multigraph) -> int:
    """Kirchhoff's matrix-tree count; loops do not enter the Laplacian."""
    n = g.num_vertices
    lap = np.zeros((n, n))
    for u, v in g.edges:
        if u != v:
            lap[u, u] += 1
            lap[v, v] += 1
            lap[u, v] -= 1
            lap[v, u] -= 1
    return round(np.linalg.det(lap[1:, 1:]))


def incidence(g: Multigraph) -> np.ndarray:
    """(|V|, |E|) signed incidence for the default orientation (end 1 is head)."""
    mat = np.zeros((g.num_vertices, g.num_edges), dtype=np.int64)
    for e, (u, v) in enumerate(g.edges):
        mat[v, e] += 1
        mat[u, e] -= 1
    return mat


def oracle_sweep(seed: int) -> list[Item]:
    pet = CORPUS["petersen"].graph
    prism = CORPUS["prism"].graph
    k33 = CORPUS["k33"].graph
    rng = _rng(seed, 3)
    z5 = cyclic_group(5)
    draws = [_cvec(rng, 5) for _ in range(5)]
    hwe_s = [int(s) for s in rng.integers(2, 6, size=2)]
    mono_t = [int(t) for t in rng.integers(0, 6, size=2)]

    def tutte_petersen():
        T = oracles.tutte(pet)
        return _tally(
            T(1, 1) == spanning_trees(pet),
            T(2, 2) == 2**pet.num_edges,
        )

    def via_tutte(fname, g):
        # cross_check=True raises ConsistencyError when enumeration disagrees
        def run():
            fn = getattr(oracles, fname)
            return _tally(*(fn(g, q, cross_check=True) >= 0 for q in (3, 4, 5)))

        return run

    def flow_count_k33():
        got = oracles.flow_count(k33, cyclic_group(6))
        return _tally(got == oracles.flow_polynomial(k33, 6, cross_check=False))

    def flows_petersen():
        z3 = cyclic_group(3)
        flows = oracles.enumerate_flows(pet, z3)
        nullity = pet.num_edges - pet.num_vertices + components(pet)
        boundary = flows @ incidence(pet).T % 3
        return _tally(
            len(flows) == 3**nullity,
            not boundary.any(),
            len(np.unique(flows, axis=0)) == len(flows),
        )

    def prism_z5_duality():
        m, n = prism.num_edges, prism.num_vertices
        flows = oracles.enumerate_flows(prism, z5)
        tensions = oracles.enumerate_tensions(prism, z5)
        F = z5.fourier_matrix()
        oks = [len(flows) == 5 ** (m - n + 1), len(tensions) == 5 ** (n - 1)]
        for h in draws:
            lhs = oracles.complete_weight_enum(flows, h)
            rhs = 5 ** (-m / 2) * len(flows) * oracles.complete_weight_enum(tensions, F @ h)
            oks.append(_close(lhs, rhs, 1e-8))
        T = oracles.tutte(prism)
        for s in hwe_s:
            lhs = oracles.hamming_weight_enum(flows, s, m)
            rhs = (s - 1) ** (m - T.full_rank) * T(Fraction(s), Fraction(s + 4, s - 1))
            oks.append(lhs == rhs)
        for t in mono_t:
            lhs = 5 * oracles.hamming_weight_enum(tensions, t, m)
            oks.append(lhs == oracles.monochrome_polynomial(prism, 5, t))
        return _tally(*oks)

    items = [Item("oracles/tutte/petersen", tutte_petersen)]
    for name, g in (("prism", prism), ("k33", k33)):
        for fname in ("flow_polynomial", "chromatic"):
            items.append(Item(f"oracles/{fname}/{name}", via_tutte(fname, g)))
    items += [
        Item("oracles/flow-count/k33/Z6", flow_count_k33),
        Item("oracles/enumerate-flows/petersen/Z3", flows_petersen),
        Item("oracles/macwilliams/prism/Z5", prism_z5_duality),
    ]
    return items


WORKLOADS = {
    "corpus-battery": corpus_battery,
    "petersen-sums": petersen_sums,
    "oracle-sweep": oracle_sweep,
}
