"""The contraction planner against the planner it replaced, which was keyed
by per-table batch flags and cut each loop to its diagonal in a pass of its
own: the one plan per label structure must make the same steps."""

import json
import os
import pathlib
import subprocess
import sys

import hypothesis.strategies as st
import numpy as np
from hypothesis import example, given, settings

from qcolour import models
from qcolour.graphs import Multigraph
from qcolour.models import edge_table_sum

from conftest import assert_close, complex_vec

BENCHMARK = pathlib.Path(__file__).resolve().parents[1] / "benchmark"


def _plan_reference(label_tuples: tuple, batched: tuple):
    """The former ``models._plan``: (diagonals, constants, read, scopes,
    steps), the batch a subscript of its own after the scope's."""
    distinct = [tuple(dict.fromkeys(labels)) for labels in label_tuples]
    diagonals = tuple(
        (
            i,
            (len(ls),) * b + tuple(ls.index(label) for label in labels),
            (len(ls),) * b + tuple(range(len(ls))),
        )
        for i, (labels, ls, b) in enumerate(zip(label_tuples, distinct, batched))
        if len(ls) < len(labels)
    )
    constants = tuple(i for i, ls in enumerate(distinct) if not ls)
    live = [(i, ls, b) for i, (ls, b) in enumerate(zip(distinct, batched)) if ls]
    read = len({label for _slot, ls, _b in live for label in ls})
    scopes, steps = [], []
    while live:
        joint: dict[int, set] = {}
        for _slot, ls, _b in live:
            for label in ls:
                joint.setdefault(label, set()).update(ls)
        _size, label = min((len(ls), lb) for lb, ls in joint.items())
        scope = sorted(joint[label])
        ids = {lb: i for i, lb in enumerate(scope)}
        batch = (len(scope),)
        out = tuple(lb for lb in scope if lb != label)
        used = [f for f in live if label in f[1]]
        live = [f for f in live if label not in f[1]]
        out_batched = any([b for _slot, _ls, b in used])
        if out:
            live.append((len(label_tuples) + len(steps), out, out_batched))
        scopes.append(len(scope))
        steps.append(
            (
                tuple(slot for slot, _ls, _b in used),
                tuple(batch * b + tuple(ids[lb] for lb in ls) for _slot, ls, b in used),
                batch * out_batched + tuple(ids[lb] for lb in out),
                not out,
            )
        )
    return diagonals, constants, read, tuple(scopes), tuple(steps)


def _assert_same_plan(label_tuples, batched):
    plan = models._plan(label_tuples)
    _diagonals, constants, read, scopes, steps = _plan_reference(label_tuples, batched)
    assert (plan.constants, plan.read, plan.scopes) == (constants, read, scopes)
    for radix in (2, 3):
        assert models._capped_cost(radix, plan, 10**30) == sum(radix**s for s in scopes)
    assert len(plan.steps) == len(steps)
    for (slots, subs, out, closed), (ref_slots, _ref_subs, ref_out, ref_closed), size in zip(
        plan.steps, steps, scopes
    ):
        assert (slots, closed) == (ref_slots, ref_closed)
        assert all(s[0] is Ellipsis for s in subs) and out[0] is Ellipsis
        # the reference numbered its batch subscript after the scope's
        assert out[1:] == tuple(i for i in ref_out if i != size)


LABEL_TUPLES = st.lists(
    st.lists(st.integers(0, 69), max_size=4).map(tuple), max_size=60
).map(tuple)


@settings(max_examples=200, deadline=None)
@given(LABEL_TUPLES, st.lists(st.booleans(), min_size=1, max_size=8))
# a path of 60 labels, more than einsum has axis letters, with a loop
@example(tuple((i, i + 1) for i in range(59)) + ((0, 0, 3),), [True, False])
@example(((), (0, 0), (), (0, 1, 1, 0)), [False, True])
def test_plan_matches_the_batch_flagged_reference(label_tuples, flags):
    batched = tuple(flags[i % len(flags)] for i in range(len(label_tuples)))
    _assert_same_plan(label_tuples, batched)


# one fresh corpus-battery pass, in a process of its own since the battery
# shares records between calls: the label structures that it plans with the
# batch flags of their tables, and the number of plans it compiled
FRESH_PASS = """
import json, sys
import numpy as np
from qcolour import models
import workloads

structures, real = set(), models.eliminate

def recording(radix, length, factors, max_terms=models.DEFAULT_MAX_TERMS):
    factors = [(t, tuple(ls)) for t, ls in factors]
    # a table given unbuilt is called with one coordinate array per axis,
    # and is batched when it returns an axis more than they span; one it
    # never calls, over its cap, counts as unbatched
    batched = {}

    def keep(t):
        def call(*coords):
            table = t(*coords)
            batched[t] = np.ndim(table) > len(np.broadcast_shapes(*map(np.shape, coords)))
            return table

        return call

    kept = {t: keep(t) for t, _ls in factors if callable(t)}
    try:
        return real(
            radix, length, [(kept[t] if callable(t) else t, ls) for t, ls in factors], max_terms
        )
    finally:
        labels = tuple(ls for _t, ls in factors)
        flags = tuple(
            batched.get(t, False) if callable(t) else np.ndim(t) > len(ls) for t, ls in factors
        )
        structures.add((labels, flags))

models.eliminate = recording
for item in workloads.corpus_battery(0):
    item.run()
json.dump([sorted(structures), models._plan.cache_info().misses], sys.stdout)
"""


def test_corpus_battery_plans_match_the_reference():
    src = pathlib.Path(models.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(BENCHMARK)]))
    out = subprocess.run(
        [sys.executable, "-c", FRESH_PASS], env=env, capture_output=True, text=True, check=True
    )
    rows, misses = json.loads(out.stdout)
    structures = [
        (tuple(map(tuple, labels)), tuple(batched)) for labels, batched in rows
    ]
    # one plan per label structure, whatever its tables' batch flags
    assert misses == len({labels for labels, _batched in structures})
    assert any(any(batched) for _labels, batched in structures)
    assert any(len(set(ls)) < len(ls) for labels, _b in structures for ls in labels)
    for label_tuples, batched in structures:
        _assert_same_plan(label_tuples, batched)


def test_pricing_and_a_batched_sum_share_one_plan():
    # a loop, parallel edges and an isolated vertex
    g = Multigraph(4, ((0, 1), (1, 0), (1, 1), (1, 2)))
    q, B = 3, 2
    rng = np.random.default_rng(7)
    tables = [
        complex_vec(rng, B * q ** g.degree(v)).reshape((B,) + (q,) * g.degree(v))
        for v in range(g.num_vertices)
    ]
    # the sum prices the plan that it runs: a batched sum adds one miss,
    # and the sum of each entry reuses that plan at the same cost
    models._plan.cache_clear()
    mv = edge_table_sum(g, q, tables)
    assert models._plan.cache_info().misses == 1
    for b in range(B):
        one = edge_table_sum(g, q, [t[b] for t in tables])
        assert one.terms == mv.terms
        assert_close(mv.value[b], one.value, 1e-12)
    assert models._plan.cache_info().misses == 1


def _assert_same_unbatched_plan(label_tuples):
    """``_assert_same_plan`` with no table batched, where the reference's
    subscripts are the plan's after its ``...``."""
    _assert_same_plan(label_tuples, (False,) * len(label_tuples))
    *_rest, steps = _plan_reference(label_tuples, (False,) * len(label_tuples))
    for (_slots, subs, _out, _closed), (_ref_slots, ref_subs, _ref_out, _c) in zip(
        models._plan(label_tuples).steps, steps
    ):
        assert subs == tuple((...,) + s for s in ref_subs)


def _prism_edge_structure(n: int) -> tuple:
    """The label tuples of an edge model on C_n x K2: each vertex reads its
    three edges, 3n labels in all."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(n + i, n + (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    at = [[] for _ in range(2 * n)]
    for e, (u, v) in enumerate(edges):
        at[u].append(e)
        at[v].append(e)
    return tuple(map(tuple, at))


def test_plan_matches_the_reference_far_past_einsum_letters():
    # 600 edge labels of C200 x K2, and a vertex model on a 500-cycle: a
    # weight per vertex and a table per edge
    _assert_same_unbatched_plan(_prism_edge_structure(200))
    n = 500
    cycle = tuple((v,) for v in range(n)) + tuple((v, (v + 1) % n) for v in range(n))
    _assert_same_unbatched_plan(cycle)
    assert max(models._plan(cycle).scopes) == 3


WIDE_LABEL_TUPLES = st.lists(
    st.lists(st.integers(0, 299), max_size=4).map(tuple), min_size=150, max_size=200
).map(tuple)


@settings(max_examples=10, deadline=None)
@given(WIDE_LABEL_TUPLES)
def test_plan_matches_the_reference_on_wide_structures(label_tuples):
    _assert_same_unbatched_plan(label_tuples)
