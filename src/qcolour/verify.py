"""The cross-verification battery behind the `verify` CLI subcommand.

Every identity the package implements is checked here against its
independent route (brute-force oracle, dual expansion, or closed form) and
reported as one machine-readable record per check.  Checks are grouped into
three suites.  A check declares in its one ``@_check`` line, and nowhere
else, its suite, when it applies, which quantities it needs priced and, if
it shares its records, what it reads of its context; a suite runs its
checks in the order they are defined.  A check runs when the structural
precondition of its identity holds (regularity, Pfaffian assertion); the
only cost gate is the term cap, held to each sum or oracle it calls and to
the q x q matrix work it declares, and a check over that cap leaves a skip
record rather than nothing.  A check refuses every quantity it needs
before it builds any, and a model sum is priced before any of its tables
is built, so a skip costs no listing and no allocation.

A check that draws several random weights passes them as one stack to each
model and to each exact weight-enumerator oracle, so every model is
contracted, and every composition histogram read, once per check, not once
per draw.  A check that reads nothing of the group (the signed and GF(4)
checks, and those that read only its order) shares its records between the
battery calls on one graph, so a graph's first group carries them.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import duality, oracles, signed
from .enumeration import DEFAULT_MAX_TERMS, TermCapExceeded, count_terms
from .graphio import GraphDocument
from .groups import (
    Group,
    QFunction,
    convolve,
    cyclic_group,
    fourier,
    monochrome_indicator,
    negate,
    orthogonal_submodule,
    pointwise,
    random_orthogonal,
    zero_sum_indicator,
)
from .models import (
    VertexModel,
    VertexWeights,
    orthogonal_invariance_check,
    vertex_partition,
)

__all__ = ["CheckRecord", "VerifyContext", "run_battery", "SUITES"]


@dataclass(frozen=True)
class CheckRecord:
    name: str
    anchor: str
    lhs: str
    rhs: str
    residual: float
    passed: bool | None  # None: skipped, over a term cap

    def to_json(self) -> str:
        """One line of strict JSON; a non-finite residual is written null."""
        return json.dumps(
            {
                "name": self.name,
                "anchor": self.anchor,
                "lhs": self.lhs,
                "rhs": self.rhs,
                "residual": self.residual if math.isfinite(self.residual) else None,
                "pass": self.passed,
            },
            allow_nan=False,
        )


def _fmt(x) -> str:
    if isinstance(x, complex):
        if abs(x.imag) < 1e-12 * max(1.0, abs(x)):
            x = x.real
        else:
            return f"{x.real:.12g}{x.imag:+.12g}j"
    if isinstance(x, float) and abs(x) < 1e15 and x == int(x):
        return str(int(x))
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _record(name, anchor, lhs, rhs, tol) -> CheckRecord:
    """lhs against rhs; at tol 0 two exact sides must be equal, which the
    float residual cannot tell past 2^53."""
    la, ra = complex(lhs), complex(rhs)
    resid = abs(la - ra) / max(1.0, abs(la), abs(ra))
    passed = resid <= tol
    if tol == 0 and all(isinstance(x, (int, np.integer, Fraction)) for x in (lhs, rhs)):
        passed = bool(lhs == rhs)
    return CheckRecord(name, anchor, _fmt(lhs), _fmt(rhs), resid, passed)


def _rng(seed: int, salt: int):
    return np.random.default_rng(seed * 1000003 + salt)


def _entries(values, n: int) -> np.ndarray:
    """The n entries of a batched sum; a sum in which no table carried the
    batch (a graph with no vertices) has one value for all of them."""
    return np.broadcast_to(values, (n,))


@dataclass
class VerifyContext:
    """One battery call's inputs, and the oracle quantities that several
    checks read, each built at most once per call on first use.

    The context holds the graph's Tutte polynomial and one composition
    histogram of its flows and one of its tensions, under the document's
    orientation.  The flows and tensions enter the checks only through
    their colour compositions, so each set is grouped block by block as it
    is listed, never joined or sorted.  A check declares the quantities it
    needs (``_check``), and the first of them over its term cap raises
    before any is built, again for each check that needs it, so each such
    check skips on its own.  Quantities that do not depend on the graph
    are shared between calls instead (``_orthogonal_draws``,
    ``_spectral_draws``), and so are the records of the checks that
    declare what they read (``_check``)."""

    doc: GraphDocument
    group: Group
    tol: float
    max_terms: int
    seed: int

    @property
    def graph(self):
        return self.doc.graph

    @functools.cached_property
    def tutte(self) -> oracles.TuttePolynomial:
        return oracles.tutte(self.graph, self.max_terms)

    @functools.cached_property
    def flow_compositions(self) -> oracles.CompositionHistogram:
        return oracles.flow_compositions(
            self.graph, self.group, self.doc.orientation_or_default(), self.max_terms
        )

    @functools.cached_property
    def tension_compositions(self) -> oracles.CompositionHistogram:
        return oracles.tension_compositions(
            self.graph, self.group, self.doc.orientation_or_default(), self.max_terms
        )

    def rng(self, salt: int = 0):
        return _rng(self.seed, salt)

    def cvec(self, rng, shape) -> np.ndarray:
        """Complex standard normals of a shape (an int is a vector's length).
        Each vector along the last axis takes its real parts and then its
        imaginary parts from the stream, as one vector drawn at a time
        would, so a stack of draws reads the stream in draw order."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        x = rng.standard_normal(shape[:-1] + (2, shape[-1]))
        return x[..., 0, :] + 1j * x[..., 1, :]


# records kept per shared check: one entry per graph and setting, and a
# corpus pass reads a few dozen
_SHARED_CACHE_SIZE = 256


def _group_tables(ctx: VerifyContext):
    G = ctx.group
    tables = tuple(a.tobytes() for a in (G.add, G.neg, G.mul, G.chi))
    return G.name, G.flavour, G.factors, tables


# the part of a shared check's key that each name in ``reads`` gives; the
# graph is the whole document, with rotation, orientation and Pfaffian flag
_READS = {
    "graph": lambda ctx: ctx.doc,
    "group": _group_tables,
    "order": lambda ctx: ctx.group.q,
    "seed": lambda ctx: ctx.seed,
    "tol": lambda ctx: ctx.tol,
    "cap": lambda ctx: ctx.max_terms,
}

# for each quantity that a check may declare in ``needs``, the count held
# to the cap before the check starts, as a function of the graph, the
# group's order and the cap: each oracle quantity of the context at what
# its oracle fills, and "basis" at the q^3 multiply-adds of a change of
# basis, a draw or a split of a q x q matrix, work that no sum prices
_NEEDS = {
    "tutte": lambda g, q, cap: oracles.tutte_terms(g, cap),
    "flow_compositions": oracles.flow_composition_terms,
    "tension_compositions": oracles.tension_composition_terms,
    "basis": lambda g, q, cap: count_terms(q, 3, cap),
}


# the checks of each suite, in the order their ``@_check`` lines register them
SUITES: dict[str, list] = {"fourier": [], "duality": [], "signed": []}


def _check(suite, reads=None, applies=None, needs=()):
    """Declare a check: this one line is all the battery knows of it.  The
    check runs in ``suite`` (a key of ``SUITES``), after the checks defined
    before it.  Where the precondition ``applies(ctx)`` fails, the check
    returns no record.  Before it runs, the first of the quantities it
    ``needs`` (keys of ``_NEEDS``) that is over its cap raises
    TermCapExceeded.  A check that reads only the fields ``reads`` (keys of
    ``_READS``) shares its records between the calls that agree on them,
    while they are among the last ``_SHARED_CACHE_SIZE`` keys used; a check
    that raises keeps nothing.  ``uncached`` is then the check without
    sharing."""
    checks = SUITES[suite]

    def wrap(body):
        def check(ctx: VerifyContext):
            if applies is not None and not applies(ctx):
                return []
            for need in needs:
                _NEEDS[need](ctx.graph, ctx.group.q, ctx.max_terms)
            return body(ctx)

        check.__name__ = check.__qualname__ = body.__name__
        if reads is None:
            checks.append(check)
            return check
        cache: dict = {}  # in order of last use

        def shared(ctx: VerifyContext):
            k = tuple(_READS[name](ctx) for name in reads)
            records = cache.pop(k, None)
            if records is None:
                records = tuple(check(ctx))
                if len(cache) >= _SHARED_CACHE_SIZE:
                    del cache[next(iter(cache))]
            cache[k] = records
            return list(records)

        shared.__name__ = shared.__qualname__ = body.__name__
        shared.uncached = check
        checks.append(shared)
        return shared

    return wrap


def _cubic(ctx: VerifyContext) -> bool:
    return ctx.graph.is_regular(3)


def _cubic_pfaffian(ctx: VerifyContext) -> bool:
    return _cubic(ctx) and ctx.doc.pfaffian_compatible


def _regular(ctx: VerifyContext) -> bool:
    return (ctx.graph.regular_degree() or 0) >= 2


# ---------------------------------------------------------------- fourier


@_check("fourier", reads=("group", "seed", "tol", "cap"), needs=("basis",))
def _check_unitarity(ctx: VerifyContext):
    out = []
    rng = ctx.rng(1)
    G = ctx.group
    for d in (1, 2):
        f = QFunction(G, d, ctx.cvec(rng, G.q**d))
        g = QFunction(G, d, ctx.cvec(rng, G.q**d))
        lhs = np.vdot(fourier(g).values, fourier(f).values)
        rhs = np.vdot(g.values, f.values)
        out.append(_record(f"fourier.unitarity.d{d}", "fourier.unitarity", lhs, rhs, ctx.tol))
    return out


@_check("fourier", reads=("group", "seed", "tol", "cap"), needs=("basis",))
def _check_involution(ctx: VerifyContext):
    out = []
    rng = ctx.rng(2)
    G = ctx.group
    f = QFunction(G, 2, ctx.cvec(rng, G.q**2))
    ff = fourier(fourier(f))
    out.append(
        _record(
            "fourier.squared-is-negation",
            "fourier.involution",
            np.max(np.abs(ff.values - negate(f).values)),
            0.0,
            ctx.tol,
        )
    )
    f4 = fourier(fourier(ff))
    out.append(
        _record(
            "fourier.fourth-power-identity",
            "fourier.involution",
            np.max(np.abs(f4.values - f.values)),
            0.0,
            ctx.tol,
        )
    )
    return out


@_check("fourier", reads=("group", "seed", "tol"))
def _check_convolution(ctx: VerifyContext):
    rng = ctx.rng(3)
    G = ctx.group
    f = QFunction(G, 1, ctx.cvec(rng, G.q))
    g = QFunction(G, 1, ctx.cvec(rng, G.q))
    lhs = fourier(pointwise(f, g)).values
    rhs = G.q ** (-0.5) * convolve(fourier(f), fourier(g)).values
    return [
        _record(
            "fourier.product-to-convolution",
            "fourier.convolution",
            np.max(np.abs(lhs - rhs)),
            0.0,
            ctx.tol,
        )
    ]


@_check("fourier", reads=("group", "seed", "tol", "cap"), needs=("basis",))
def _check_subgroup_transform(ctx: VerifyContext):
    out = []
    G = ctx.group
    # subgroup indicators transform to scaled orthogonal-submodule indicators
    for d in (1, 2):
        mono = monochrome_indicator(G, d)
        zero = zero_sum_indicator(G, d)
        lhs = fourier(mono).values
        rhs = G.q ** (1 - d / 2) * zero.values
        out.append(
            _record(
                f"fourier.monochrome-transform.d{d}",
                "fourier.monochrome-zerosum",
                np.max(np.abs(lhs - rhs)),
                0.0,
                ctx.tol,
            )
        )
        perp = orthogonal_submodule(mono)
        out.append(
            _record(
                f"fourier.orthogonal-submodule.d{d}",
                "fourier.orthogonal-submodule",
                np.max(np.abs(perp.values - zero.values)),
                0.0,
                ctx.tol,
            )
        )
    if G.flavour == "cyclic" and len(G.factors) == 1:
        q = G.q
        for div in range(1, q + 1):
            if q % div:
                continue
            P = QFunction.indicator(G, 1, [(a,) for a in range(0, q, div)])
            lhs = fourier(P).values
            perp = orthogonal_submodule(P)
            rhs = q ** (-0.5) * (q // div) * perp.values
            out.append(
                _record(
                    f"fourier.subgroup-transform.step{div}",
                    "fourier.subgroup-transform",
                    np.max(np.abs(lhs - rhs)),
                    0.0,
                    ctx.tol,
                )
            )
    return out


@_check("fourier", reads=("group", "seed", "tol"))
def _check_character_bijection(ctx: VerifyContext):
    G = ctx.group
    rows = {tuple(np.round(G.chi[G.mul[a]], 9)) for a in range(G.q)}
    return [
        _record(
            "fourier.generating-character-bijection",
            "fourier.generating-character",
            float(len(rows)),
            float(G.q),
            0,
        )
    ]


@_check("fourier", reads=("graph", "order", "seed", "tol", "cap"), needs=("basis",))
def _check_orthogonal_invariance(ctx: VerifyContext):
    g = ctx.graph
    G = ctx.group
    rng = ctx.rng(4)

    def draw(d):
        # each entry takes its real and then its imaginary part from the stream
        return rng.standard_normal((G.q**d, 2)).view(np.complex128).reshape((G.q,) * d)

    # one table per degree, drawn once the pairing is priced, in the order
    # the vertices first show it
    weights = VertexWeights.per_arity(G, draw)
    Us = _orthogonal_draws(G.q, ctx.seed)
    oks = orthogonal_invariance_check(
        g, weights, Us, tol=max(ctx.tol, 1e-8), max_terms=ctx.max_terms
    )
    return [
        _record(
            f"models.orthogonal-invariance.u{i}",
            "models.orthogonal-invariance",
            1.0 if ok else 0.0,
            1.0,
            0,
        )
        for i, ok in enumerate(oks)
    ]


@functools.cache  # independent of graph and group flavour: once per (q, seed)
def _orthogonal_draws(q: int, seed: int) -> tuple[np.ndarray, ...]:
    """The five orthogonal matrices of the invariance check, read-only."""
    Us = tuple(random_orthogonal(q, seed * 17 + i) for i in range(5))
    for U in Us:
        U.flags.writeable = False
    return Us



# ---------------------------------------------------------------- duality


@_check("duality", needs=("flow_compositions", "tutte"))
def _check_hwe_tutte(ctx: VerifyContext):
    out = []
    q = ctx.group.q
    flows = ctx.flow_compositions
    T = ctx.tutte
    for s in (2, 3):
        lhs = flows.hamming_weight_enum(s)
        rhs = T.flow_enumerator(q, s)
        out.append(_record(f"flows.hwe-vs-tutte.s{s}", "tutte.hyperbola", lhs, rhs, 0))
    return out


@_check("duality", needs=("tension_compositions", "tutte"))
def _check_monochrome(ctx: VerifyContext):
    out = []
    q = ctx.group.q
    tensions = ctx.tension_compositions
    T = ctx.tutte
    for t in (0, 2, 3):
        # each tension is the coboundary of q^k vertex colourings
        lhs = q ** (T.num_vertices - T.full_rank) * tensions.hamming_weight_enum(t)
        rhs = T.potts(q, t)
        out.append(
            _record(f"tensions.monochrome-polynomial.t{t}", "tensions.monochrome", lhs, rhs, 0)
        )
    return out


@_check("duality", needs=("flow_compositions", "tension_compositions"))
def _check_macwilliams(ctx: VerifyContext):
    out = []
    g = ctx.graph
    G = ctx.group
    flows = ctx.flow_compositions
    tensions = ctx.tension_compositions
    rng = ctx.rng(5)
    F = G.fourier_matrix()
    hs = ctx.cvec(rng, (5, G.q))
    lhss = flows.complete_weight_enum(hs)
    duals = tensions.complete_weight_enum(np.stack([F @ h for h in hs]))
    for i, (lhs, dual) in enumerate(zip(lhss, duals)):
        rhs = G.q ** (-g.num_edges / 2) * flows.rows * dual
        out.append(
            _record(f"macwilliams.cwe-dual.draw{i}", "macwilliams.poisson", lhs, rhs, 1e-8)
        )
    return out


@_check("duality")
def _check_general_duality(ctx: VerifyContext):
    out = []
    g = ctx.graph
    G = ctx.group
    rng = ctx.rng(6)
    orient = ctx.doc.orientation_or_default()
    # each draw is a weight per vertex, then one per edge; each weight
    # goes to the sides stacked over the draws
    draws = ctx.cvec(rng, (5, g.num_vertices + g.num_edges, G.q)).swapaxes(0, 1)
    lhs, rhs = duality.general_duality_sides(
        g,
        G,
        orient,
        list(draws[: g.num_vertices]),
        list(draws[g.num_vertices :]),
        max_terms=ctx.max_terms,
    )
    for i, (a, b) in enumerate(zip(_entries(lhs, 5), _entries(rhs, 5))):
        out.append(_record(f"duality.poisson.draw{i}", "duality.poisson", a, b, 1e-8))
    return out


@_check("duality", needs=("flow_compositions", "tension_compositions"))
def _check_flow_cwe_routes(ctx: VerifyContext):
    out = []
    g = ctx.graph
    G = ctx.group
    flows = ctx.flow_compositions
    tensions = ctx.tension_compositions
    rng = ctx.rng(7)
    gvs = ctx.cvec(rng, (5, G.q))
    v1s = duality.flow_cwe_vertex_model(g, G, gvs, max_terms=ctx.max_terms).value
    v2s = duality.flow_cwe_edge_model(g, G, gvs, max_terms=ctx.max_terms).value
    v3s = duality.tension_cwe_expectation(g, G, gvs, max_terms=ctx.max_terms).value
    foracles = flows.complete_weight_enum(gvs * gvs[:, G.neg])
    fq = QFunction(G, 1, gvs)
    toracles = tensions.complete_weight_enum(convolve(fq, negate(fq)).values)
    for i, (v1, v2, v3, oracle, toracle) in enumerate(
        zip(v1s, v2s, v3s, foracles, toracles)
    ):
        out.append(
            _record(f"flow-cwe.vertex-route.draw{i}", "flow-cwe.vertex", v1, oracle, ctx.tol)
        )
        out.append(
            _record(f"flow-cwe.edge-route.draw{i}", "flow-cwe.edge", v2, oracle, ctx.tol)
        )
        out.append(
            _record(
                f"tension-cwe.expectation-route.draw{i}",
                "tension-cwe.expectation",
                v3,
                toracle,
                ctx.tol,
            )
        )
    return out


@_check("duality", reads=("graph", "tol", "cap", "order"))
def _check_tutte_edge_model(ctx: VerifyContext):
    out = []
    g = ctx.graph
    q = ctx.group.q
    T = ctx.tutte
    ss = (2, 3)
    gots = duality.tutte_edge_model(g, q, np.array(ss), max_terms=ctx.max_terms).value
    for s, got in zip(ss, gots):
        want = float(T.flow_enumerator(q, s * s))
        out.append(
            _record(f"tutte.edge-model.s{s}", "tutte.hyperbola-edge-model", got, want, ctx.tol)
        )
    return out


@_check("duality", reads=("graph", "tol", "cap", "order"), applies=_cubic, needs=("tutte",))
def _check_cubic_flow_model(ctx: VerifyContext):
    out = []
    g = ctx.graph
    q = ctx.group.q
    got = duality.flow_cubic_edge_model(g, q, max_terms=ctx.max_terms)
    want = oracles.flow_polynomial(g, q, max_terms=ctx.max_terms)
    out.append(_record("flow.cubic-edge-model", "flow.cubic-edge-model", got, want, 0))
    return out


@_check("duality", reads=("graph", "tol", "cap"), applies=_cubic, needs=("tutte",))
def _check_gf4_identity(ctx: VerifyContext):
    out = []
    g = ctx.graph
    for s, t in ((1, 1), (2, 3)):
        ok, lhs, rhs = duality.gf4_flow_identity_check(g, s, t, max_terms=ctx.max_terms)
        out.append(
            _record(f"flow.gf4-vertex-model.s{s}t{t}", "flow.gf4-identity", lhs, rhs, 1e-8)
        )
    return out


@_check("duality", reads=("graph", "tol", "cap", "order", "seed"), needs=("basis",))
def _check_spectral(ctx: VerifyContext):
    g = ctx.graph
    G = ctx.group
    records, gm, fv = _spectral_draws(G.q, ctx.seed)
    vm = VertexModel(QFunction(G, 1, fv), QFunction(G, 2, gm.reshape(-1)))
    lhs = vertex_partition(g, vm, max_terms=ctx.max_terms).value
    rhs = duality.spectral_edge_model(g, fv, gm, max_terms=ctx.max_terms).value
    return [
        *records,
        _record("spectral.partition-equality", "spectral.edge-model", lhs, rhs, ctx.tol),
    ]


@functools.cache  # independent of graph and group flavour: once per (q, seed)
def _spectral_draws(q: int, seed: int):
    """The split records of ten random symmetric q x q matrices, then the
    symmetric g and the vertex weight f that the partition check reads,
    drawn in that order from the check's stream; g and f are read-only."""
    rng = _rng(seed, 8)
    worst_recon = 0.0
    rank_ok = True
    for i in range(10):
        A = rng.standard_normal((q, q))
        gm = (A + A.T) / 2
        h = duality.spectral_split(gm)
        worst_recon = max(worst_recon, float(np.max(np.abs(h @ h.T - gm))))
        nz = sum(1 for c in range(q) if np.abs(h[:, c]).max() > 0)
        tol = duality.RANK_TOL * np.linalg.norm(gm, 2)
        num_rank = np.linalg.matrix_rank(gm, tol=tol)
        rank_ok = rank_ok and (nz == num_rank)
    records = (
        _record("spectral.reconstruction", "spectral.split", worst_recon, 0.0, 1e-9),
        _record(
            "spectral.rank-columns",
            "spectral.split",
            1.0 if rank_ok else 0.0,
            1.0,
            0,
        ),
    )
    A = rng.standard_normal((q, q))
    gm = (A + A.T) / 2
    fv = rng.standard_normal(q)
    gm.flags.writeable = False
    fv.flags.writeable = False
    return records, gm, fv


@_check("duality")
def _check_xq(ctx: VerifyContext):
    out = []
    g = ctx.graph
    G = ctx.group
    orient = ctx.doc.orientation_or_default()
    rng = ctx.rng(9)
    s, t = ctx.cvec(rng, (2, G.q))
    tsym = t + t[G.neg]
    # every vertex-colouring side in one batch: the dual expansion's, the
    # symmetric edge model's, then each principal specialization's
    svecs, tvecs = [s, s], [t, tsym]
    principal = G.flavour == "cyclic" and len(G.factors) == 1
    # s0 = 0.5 is no root of unity, and its powers stay in float range
    specs = ((0.5, 2.0), (1.0, 3.0)) if principal else ()
    for s0, t0 in specs:
        svecs.append(np.array([s0**a for a in range(G.q)], dtype=complex))
        tvec = np.ones(G.q, dtype=complex)
        tvec[0] = t0
        tvecs.append(tvec)
    sides = _entries(
        duality.xq_evaluate(g, G, orient, svecs, tvecs, max_terms=ctx.max_terms),
        len(svecs),
    )
    b = duality.xq_dual(g, G, orient, s, t, max_terms=ctx.max_terms)
    out.append(_record("xq.dual-expansion", "xq.boundary-dual", sides[0], b, ctx.tol))
    b = duality.xq_edge_model(g, G, s, tsym, max_terms=ctx.max_terms).value
    out.append(_record("xq.symmetric-edge-model", "xq.edge-model", sides[1], b, ctx.tol))
    if specs:
        s0s, t0s = zip(*specs)
        lhs = duality.principal_specialization(
            g, orient, G.q, np.array(s0s), np.array(t0s), max_terms=ctx.max_terms
        )
        for s0, a, b in zip(s0s, _entries(lhs, len(specs)), sides[2:]):
            out.append(
                _record(
                    f"xq.principal-specialization.s{s0:g}",
                    "xq.principal-specialization",
                    a,
                    b,
                    ctx.tol,
                )
            )
    return out



# ---------------------------------------------------------------- signed


@_check("signed", reads=())
def _check_character_det(ctx: VerifyContext):
    out = []
    worst = 0.0
    for q in range(1, 9):
        closed = signed.character_matrix_det(q)
        mat = np.exp(2j * np.pi * np.outer(np.arange(q), np.arange(q)) / q)
        num = np.linalg.det(mat)
        worst = max(worst, abs(closed - num) / max(1.0, abs(num)))
    out.append(_record("sign.character-matrix-det", "sign.det-closed-form", worst, 0.0, 1e-8))
    return out


@_check("signed", reads=())
def _check_parity_transforms(ctx: VerifyContext):
    out = []
    for k, q in ((2, 3), (2, 4), (3, 4), (3, 5), (4, 5)):
        G = cyclic_group(q)
        K = signed.canonical_symmetric_set(q, k)
        fF = fourier(signed.parity_function(G, k, K)).values.reshape((q,) * k)
        grid = np.moveaxis(np.indices((q,) * k), 0, -1)
        worst = float(np.max(np.abs(fF - signed.parity_transform_closed(k, q, grid))))
        out.append(
            _record(
                f"sign.parity-transform.k{k}q{q}", "sign.parity-transform", worst, 0.0, 1e-9
            )
        )
    for k in (2, 3):
        q = k + 1
        G = cyclic_group(q)
        fF = fourier(
            signed.parity_function(G, k, signed.kplus1_colour_set(k))
        ).values.reshape((q,) * k)
        grid = np.moveaxis(np.indices((q,) * k), 0, -1)
        worst = float(np.max(np.abs(fF - signed.parity_transform_kplus1(k, grid))))
        out.append(
            _record(
                f"sign.parity-transform-kplus1.k{k}",
                "sign.parity-transform-kplus1",
                worst,
                0.0,
                1e-9,
            )
        )
    return out


@_check("signed", reads=("graph", "tol", "cap"), applies=_regular)
def _check_zero_sum_chain(ctx: VerifyContext):
    out = []
    g = ctx.graph
    k = g.regular_degree()
    rot = ctx.doc.rotation_or_default()
    G = cyclic_group(k)
    zs = signed.zero_sum_parity_sum(g, rot, G, tuple(range(k)), max_terms=ctx.max_terms)
    mono = signed.monochrome_parity_sum(
        g, rot, G, tuple(range(k)), max_terms=ctx.max_terms
    )
    out.append(
        _record(
            "sign.zero-sum-vs-monochrome-transform",
            "sign.zero-sum-route",
            zs.value,
            signed.zero_sum_mono_sign(k, g.num_edges, g.num_vertices) * mono.value
            if (k % 2 or (g.num_vertices - g.num_edges) % 2 == 0)
            else 0.0,
            ctx.tol,
        )
    )
    proper = signed.proper_colouring_sign_sum(g, rot, k, max_terms=ctx.max_terms)
    out.append(
        _record(
            "sign.monochrome-pairing-is-proper-sum",
            "sign.proper-colourings",
            mono.value,
            float(proper),
            ctx.tol,
        )
    )
    P = tuple(range(0, (k + 2) // 2))
    fac = signed.factorization_sign_sum(g, rot, k, P, max_terms=ctx.max_terms)
    out.append(
        _record(
            "sign.factorization-magnitude",
            "sign.factorization",
            abs(fac),
            abs(zs.value),
            ctx.tol,
        )
    )
    return out


@_check("signed", reads=("graph", "tol", "cap"), applies=_regular)
def _check_sine_and_kplus1(ctx: VerifyContext):
    out = []
    g = ctx.graph
    k = g.regular_degree()
    rot = ctx.doc.rotation_or_default()
    oracle = abs(signed.proper_colouring_sign_sum(g, rot, k, max_terms=ctx.max_terms))
    if k % 2:
        for q in (k, k + 1):
            v = signed.sine_model(g, rot, q, k, max_terms=ctx.max_terms)
            out.append(
                _record(
                    f"sign.sine-model.q{q}",
                    "sign.sine-model",
                    abs(v.value),
                    float(oracle),
                    max(ctx.tol, 1e-5),
                )
            )
    v = signed.kplus1_sign_sum(g, rot, k, max_terms=ctx.max_terms)
    out.append(
        _record(
            "sign.kplus1-model",
            "sign.kplus1-model",
            abs(v.value),
            float(oracle),
            ctx.tol,
        )
    )
    return out


@_check("signed", reads=("graph", "tol", "cap"), applies=_cubic_pfaffian, needs=("tutte",))
def _check_even_odd_proper4(ctx: VerifyContext):
    out = []
    g = ctx.graph
    rot = ctx.doc.rotation_or_default()
    got = signed.even_minus_odd_proper4(g, rot, max_terms=ctx.max_terms)
    want = (-4) ** (g.num_edges // 3) * oracles.flow_polynomial(
        g, 4, max_terms=ctx.max_terms
    )
    out.append(
        _record("sign.even-minus-odd-proper4", "sign.even-odd-proper4", got, want, 0)
    )
    return out


@_check("signed", reads=("graph", "tol", "cap"), applies=_regular)
def _check_rotation_covariance(ctx: VerifyContext):
    out = []
    g = ctx.graph
    k = g.regular_degree()
    rot = ctx.doc.rotation_or_default()
    v = next(v for v in range(g.num_vertices) if g.degree(v) >= 2)
    swapped = rot.swap_adjacent(v, 0)
    a = signed.kplus1_sign_sum(g, rot, k, max_terms=ctx.max_terms).value
    b = signed.kplus1_sign_sum(g, swapped, k, max_terms=ctx.max_terms).value
    out.append(
        _record(
            "sign.rotation-covariance", "sign.rotation-covariance", a, -b, ctx.tol
        )
    )
    return out



def run_battery(
    doc: GraphDocument,
    group: Group,
    suites=("fourier", "duality", "signed"),
    tol: float = 1e-7,
    max_terms: int = DEFAULT_MAX_TERMS,
    seed: int = 0,
) -> list[CheckRecord]:
    """One record per check that ran.  A check whose sum or oracle exceeds
    its term cap yields a single skip record instead: name ``skip.<check>``,
    anchor ``term-cap``, lhs/rhs the estimate and the cap, pass None.  A
    check that raises anything else yields a single failed error record,
    and the battery goes on: name ``error.<check>``, anchor ``error``,
    lhs/rhs the exception's class and message, residual nan, pass False."""
    ctx = VerifyContext(doc, group, tol, max_terms, seed)
    records = []
    for suite in suites:
        for check in SUITES[suite]:
            name = check.__name__.removeprefix("_check_")
            try:
                records.extend(check(ctx))
            except TermCapExceeded as exc:
                records.append(
                    CheckRecord(
                        "skip." + name, "term-cap", str(exc.estimate), str(exc.cap), 0.0, None
                    )
                )
            except Exception as exc:
                records.append(
                    CheckRecord(
                        "error." + name, "error", type(exc).__name__, str(exc), math.nan, False
                    )
                )
    return records
