"""Span recorder for the traced benchmark run.

The traced run wraps public qcolour functions from outside the package:
every module attribute that refers to a wrapped function is replaced, so
calls made through ``from .models import edge_table_sum`` are seen too.  A
span carries an id, its parent's id, a name, start and end times and the
counts measured at that boundary.  Spans stay in memory until the run ends.

Scalar helpers such as ``signed.sgn_injection`` are not wrapped: they run
once per colouring inside Python loops, and a span each would swamp the
trace and the timings it is meant to explain.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from qcolour import duality, enumeration, models, oracles, signed, verify

WRAPPED = {
    enumeration: ["boundary_chunk", "coboundary_chunk"],
    models: [
        "edge_table_sum",
        "vertex_table_sum",
        "halfedge_inner",
        "vertex_partition",
        "edge_partition",
        "orthogonal_invariance_check",
    ],
    duality: [
        "tension_vertex_sum",
        "boundary_edge_sum",
        "general_duality_sides",
        "flow_cwe_vertex_model",
        "flow_cwe_edge_model",
        "tension_cwe_expectation",
        "tutte_edge_model",
        "flow_cubic_edge_model",
        "spectral_edge_model",
        "xq_evaluate",
        "xq_dual",
        "principal_specialization",
        "xq_edge_model",
        "gf4_flow_identity_check",
    ],
    oracles: [
        "tutte",
        "flow_polynomial",
        "flow_count",
        "chromatic",
        "enumerate_flows",
        "enumerate_tensions",
        "hamming_weight_enum",
        "complete_weight_enum",
        "monochrome_polynomial",
    ],
    signed: [
        "zero_sum_parity_sum",
        "monochrome_parity_sum",
        "factorization_sign_sum",
        "proper_colouring_sign_sum",
        "sine_model",
        "kplus1_sign_sum",
        "even_minus_odd_proper4",
    ],
    verify: ["run_battery"],
}

BLOCKS = "enumeration.index_blocks"
MODEL_SUMS = ("models.edge_table_sum", "models.vertex_table_sum", "models.halfedge_inner")
DUALITY_SUMS = ("duality.boundary_edge_sum", "duality.tension_vertex_sum")
ORACLE_ENUMS = ("oracles.enumerate_flows", "oracles.enumerate_tensions")
ORACLE_SELF = (
    "flow_count",
    "chromatic",
    "complete_weight_enum",
    "hamming_weight_enum",
    "monochrome_polynomial",
)

# Per-layer metrics whose values must repeat exactly for a fixed seed.
COUNT_SUFFIXES = (
    ".calls",
    ".rows",
    ".terms",
    ".rows_scanned",
    ".rows_kept",
    ".bytes_computed",
    ".checks_silent",
    ".distinct_ratio",
    ".yield",
)


class Recorder:
    """Spans in end order as (id, parent id, name, start, end, counts)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.generators = 0  # index_blocks calls
        self._stack: list[int] = []
        self._next_id = 0

    def _open(self) -> tuple[int, int | None]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, end, counts) -> None:
        self._stack.pop()
        self.spans.append((sid, parent, name, start, end, counts))

    def call(self, name, fn, args, kwargs, measure=None):
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self._close(sid, parent, name, start, time.perf_counter(), {"error": type(exc).__name__})
            raise
        end = time.perf_counter()
        counts = measure(args, kwargs, result) if measure else None
        self._close(sid, parent, name, start, end, counts)
        return result

    def blocks(self, fn, args, kwargs):
        """index_blocks as a generator whose every next() is one span."""
        self.generators += 1
        it = fn(*args, **kwargs)
        while True:
            sid, parent = self._open()
            start = time.perf_counter()
            try:
                arr = next(it)
            except StopIteration:
                self._stack.pop()
                return
            except BaseException as exc:
                self._close(sid, parent, BLOCKS, start, time.perf_counter(),
                            {"error": type(exc).__name__})
                raise
            self._close(sid, parent, BLOCKS, start, time.perf_counter(),
                        {"rows": arr.shape[0], "bytes_computed": arr.size * 8})
            yield arr

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, counts in self.spans:
                rec = {"id": sid, "parent": parent, "name": name, "start": start, "end": end}
                if counts:
                    rec.update(counts)
                fh.write(json.dumps(rec) + "\n")


def _model_terms(args, kwargs, result):
    return {"terms": result.terms}


def _rows_of(args, kwargs, result):
    return {"rows": result.shape[0]}


def _rows_kept(args, kwargs, result):
    return {"rows_kept": len(result)}


def _graph_key(args, kwargs, result):
    g = args[0] if args else kwargs["g"]
    return {"graph": repr((g.num_vertices, g.edges))}


def _silent(args, kwargs, result):
    return None if result else {"silent": 1}


def _measure_for(name: str):
    if name == "oracles.tutte":
        return _graph_key
    if name.startswith("verify.check."):
        return _silent
    if name in MODEL_SUMS or name in DUALITY_SUMS:
        return _model_terms
    if name in ("enumeration.boundary_chunk", "enumeration.coboundary_chunk"):
        return _rows_of
    if name in ORACLE_ENUMS:
        return _rows_kept
    return None


def _wrap(rec: Recorder, name: str, fn):
    measure = _measure_for(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return rec.call(name, fn, args, kwargs, measure)

    return wrapper


def _wrap_blocks(rec: Recorder, fn):
    @functools.wraps(fn)
    def index_blocks(*args, **kwargs):
        return rec.blocks(fn, args, kwargs)

    return index_blocks


@contextmanager
def traced(rec: Recorder):
    """Install wrappers on every qcolour module binding; undo on exit."""
    replaced = {id(enumeration.index_blocks): _wrap_blocks(rec, enumeration.index_blocks)}
    for mod, names in WRAPPED.items():
        for fname in names:
            fn = getattr(mod, fname)
            replaced[id(fn)] = _wrap(rec, f"{mod.__name__.rpartition('.')[2]}.{fname}", fn)
    undo = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "qcolour" or modname.startswith("qcolour.")):
            continue
        for attr, value in list(vars(mod).items()):
            if id(value) in replaced:
                undo.append((mod, attr, value))
                setattr(mod, attr, replaced[id(value)])
    saved_suites = [(checks, list(checks)) for checks in verify.SUITES.values()]
    for checks, saved in saved_suites:
        checks[:] = [
            _wrap(rec, f"verify.check.{_check_name(fn)}", fn)
            for fn in saved
        ]
    try:
        yield rec
    finally:
        for checks, saved in saved_suites:
            checks[:] = saved
        for mod, attr, value in undo:
            setattr(mod, attr, value)


def _check_name(fn) -> str:
    return fn.__name__.removeprefix("_check_")


def quartiles(values: list[float]) -> tuple[float, float]:
    """Median and 75th percentile (exclusive method); zeros when empty."""
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q = statistics.quantiles(values, n=4)
    return q[1], q[2]


def layer_metrics(rec: Recorder) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run as name -> (value, unit)."""
    child_time = defaultdict(float)
    child_rows = defaultdict(int)
    for sid, parent, name, start, end, counts in rec.spans:
        if parent is not None:
            child_time[parent] += end - start
            if name == BLOCKS and counts:
                child_rows[parent] += counts.get("rows", 0)
    calls = Counter()
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    sums = defaultdict(int)  # (name, count) -> total
    battery = []  # inclusive durations of run_battery calls
    graphs = set()  # distinct tutte arguments
    for sid, parent, name, start, end, counts in rec.spans:
        calls[name] += 1
        self_s[name] += end - start - child_time[sid]
        total_s[name] += end - start
        for key, value in (counts or {}).items():
            if key not in ("error", "graph"):
                sums[name, key] += value
        if name in ORACLE_ENUMS:
            sums[name, "rows_scanned"] += child_rows[sid]
        if name == "oracles.tutte" and counts and "graph" in counts:
            graphs.add(counts["graph"])
        if name == "verify.run_battery":
            battery.append(end - start)

    out: dict[str, tuple[float, str]] = {}
    out[f"{BLOCKS}.calls"] = (rec.generators, "count")
    out[f"{BLOCKS}.rows"] = (sums[BLOCKS, "rows"], "count")
    out[f"{BLOCKS}.self_s"] = (self_s[BLOCKS], "s")
    out[f"{BLOCKS}.bytes_computed"] = (sums[BLOCKS, "bytes_computed"], "B")
    for name in ("enumeration.boundary_chunk", "enumeration.coboundary_chunk"):
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.rows"] = (sums[name, "rows"], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
    for name in MODEL_SUMS + DUALITY_SUMS:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.terms"] = (sums[name, "terms"], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
    model_s = sum(total_s[n] for n in MODEL_SUMS)
    model_terms = sum(sums[n, "terms"] for n in MODEL_SUMS)
    out["models.terms_per_s"] = (model_terms / model_s if model_s else 0.0, "1/s")
    tc = calls["oracles.tutte"]
    out["oracles.tutte.calls"] = (tc, "count")
    out["oracles.tutte.self_s"] = (self_s["oracles.tutte"], "s")
    out["oracles.tutte.distinct_ratio"] = (len(graphs) / tc if tc else 0.0, "ratio")
    for name in ORACLE_ENUMS:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
        out[f"{name}.rows_scanned"] = (sums[name, "rows_scanned"], "count")
        out[f"{name}.rows_kept"] = (sums[name, "rows_kept"], "count")
    scanned = sums["oracles.enumerate_flows", "rows_scanned"]
    kept = sums["oracles.enumerate_flows", "rows_kept"]
    out["oracles.enumerate_flows.yield"] = (kept / scanned if scanned else 0.0, "ratio")
    for fname in ORACLE_SELF:
        out[f"oracles.{fname}.self_s"] = (self_s[f"oracles.{fname}"], "s")
    for fname in ("factorization_sign_sum", "even_minus_odd_proper4"):
        out[f"signed.{fname}.self_s"] = (self_s[f"signed.{fname}"], "s")
    out["verify.run_battery.calls"] = (calls["verify.run_battery"], "count")
    out["verify.run_battery.self_s"] = (self_s["verify.run_battery"], "s")
    p50, p75 = quartiles(battery)
    out["verify.run_battery.p50_s"] = (p50, "s")
    out["verify.run_battery.p75_s"] = (p75, "s")
    for cname in (_check_name(fn) for fns in verify.SUITES.values() for fn in fns):
        out[f"verify.check.{cname}.self_s"] = (self_s[f"verify.check.{cname}"], "s")
    silent = sum(v for (_name, key), v in sums.items() if key == "silent")
    out["verify.checks_silent"] = (silent, "count")
    return out
