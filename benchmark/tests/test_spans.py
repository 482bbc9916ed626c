"""The traced run must observe the program without changing it.

Run from the repository root:  python3 -m pytest benchmark/tests -q
"""

import json
import pickle
from pathlib import Path

import numpy as np
import pytest

from qcolour import duality, oracles, signed, verify
from qcolour.corpus import CORPUS
from qcolour.graphio import GraphDocument
from qcolour.graphs import default_orientation
from qcolour.groups import cyclic_group, gf4

from spans import COUNT_SUFFIXES, Recorder, layer_metrics, traced
from workloads import WORKLOADS, random_multigraph

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _calls():
    k4, prism, k33 = (CORPUS[n] for n in ("k4", "prism", "k33"))
    z3 = cyclic_group(3)
    rng = np.random.default_rng(5)
    fs = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(6)]
    gs = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(9)]
    doc = GraphDocument(k4.graph, None, k4.rotation, k4.pfaffian_compatible)
    return [
        lambda: signed.sine_model(k4.graph, k4.rotation, 3, 3),
        lambda: signed.zero_sum_parity_sum(k4.graph, k4.rotation, z3, (0, 1, 2)),
        lambda: signed.even_minus_odd_proper4(k4.graph, k4.rotation),
        lambda: duality.general_duality_sides(
            prism.graph, z3, default_orientation(prism.graph), fs, gs
        ),
        lambda: duality.flow_cwe_edge_model(prism.graph, z3, fs[0]),
        lambda: oracles.enumerate_flows(k33.graph, z3),
        lambda: oracles.enumerate_tensions(prism.graph, gf4()),
        lambda: oracles.tutte(prism.graph).coeffs,
        lambda: oracles.flow_polynomial(k33.graph, 4),
        lambda: [r.to_json() for r in verify.run_battery(doc, z3, seed=3)],
    ]


def test_tracing_leaves_results_bit_identical():
    plain = [pickle.dumps(call()) for call in _calls()]
    rec = Recorder()
    with traced(rec):
        seen = [pickle.dumps(call()) for call in _calls()]
    assert seen == plain
    assert rec.spans
    # leaving the context restores every binding
    n = len(rec.spans)
    _calls()[0]()
    assert len(rec.spans) == n
    assert not hasattr(signed.edge_table_sum, "__wrapped__")
    assert not any(hasattr(fn, "__wrapped__") for fns in verify.SUITES.values() for fn in fns)


def test_sine_model_trace_has_edge_table_sum_index_blocks_chain():
    k4 = CORPUS["k4"]
    rec = Recorder()
    with traced(rec):
        signed.sine_model(k4.graph, k4.rotation, 3, 3)
    by_id = {s[0]: s for s in rec.spans}
    chains = [
        (by_id[by_id[s[1]][1]][2], by_id[s[1]][2], s[2])
        for s in rec.spans
        if s[2] == "enumeration.index_blocks" and s[1] is not None and by_id[s[1]][1] is not None
    ]
    assert ("signed.sine_model", "models.edge_table_sum", "enumeration.index_blocks") in chains
    rows = sum(s[5]["rows"] for s in rec.spans if s[2] == "enumeration.index_blocks")
    assert rows == 3 ** k4.graph.num_edges


CHEAP_ITEMS = {
    "corpus-battery": (
        "battery/triangle/2",
        "battery/k4/3",
        "battery/single_loop/f4",
        "battery/random-multigraph/2",
    ),
    "oracle-sweep": (
        "oracles/tutte/petersen",
        "oracles/flow_polynomial/prism",
        "oracles/chromatic/k33",
        "oracles/macwilliams/prism/Z5",
    ),
}


def _traced_counts(seed):
    rec = Recorder()
    with traced(rec):
        for workload, names in CHEAP_ITEMS.items():
            for item in WORKLOADS[workload](seed):
                if item.name in names:
                    assert item.run()[1] == 0, item.name
    return {k: v for k, v in layer_metrics(rec).items() if k.endswith(COUNT_SUFFIXES)}


def test_per_layer_counts_repeat_for_a_seed():
    first, second = _traced_counts(11), _traced_counts(11)
    assert first == second
    assert first["verify.checks_silent"][0] > 0
    assert first["oracles.enumerate_flows.rows_kept"][0] > 0


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads(BENCHMARK_JSON.read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    produced = {k: unit for k, (_v, unit) in layer_metrics(Recorder()).items()}
    produced["trace.overhead_frac"] = "ratio"
    assert declared == produced
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("seed", range(8))
def test_random_multigraph_shape(seed):
    g = random_multigraph(seed)
    assert (g.num_vertices, g.num_edges) == (7, 9)
    loops = [e for e in g.edges if e[0] == e[1]]
    pairs = [frozenset(e) for e in g.edges if e[0] != e[1]]
    assert len(loops) == 1
    assert len(pairs) - len(set(pairs)) == 1
    assert sum(1 for d in g.degrees() if d == 0) == 1
    assert random_multigraph(seed) == g
