"""Command-line interface.

Subcommands compute single invariants from a graph file or run the
cross-verification battery; `verify` emits one JSON record per check on
stdout.  Every subcommand takes `--max-terms`, the cap on the work of its
sums and oracles; only `verify` takes `--tol` and `--seed`.  Exit codes:
0 ok, 1 a failed check, 2 a usage or parse error, 3 over a cap or a value
that is not finite in float64.
"""

from __future__ import annotations

import argparse
import cmath
import math
import sys

import numpy as np

from . import duality, oracles, signed
from .enumeration import DEFAULT_MAX_TERMS, TermCapExceeded
from .graphio import GraphParseError, load_graph
from .groups import QFunction, group_from_name
from .models import EdgeModel, VertexModel, VertexWeights, edge_partition, vertex_partition
from .verify import run_battery


def _parse_weights(text: str, n: int, what: str) -> np.ndarray:
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != n:
        raise ValueError(f"{what} needs {n} comma-separated values, got {len(parts)}")
    return np.array([complex(p) for p in parts])


def count(text: str) -> int:
    """A non-negative whole number such as 1e8, read as an int; argparse
    turns the ValueError of anything else into a usage error."""
    value = float(text)
    if not (value >= 0 and value.is_integer()):
        raise ValueError(text)
    return int(value)


def tolerance(text: str) -> float:
    """A finite tolerance of at least 0; argparse turns the ValueError of
    anything else (nan, inf, a negative value) into a usage error."""
    value = float(text)
    if not (value >= 0 and math.isfinite(value)):
        raise ValueError(text)
    return value


def _add_common(p: argparse.ArgumentParser, group_flag=True):
    p.add_argument("--graph", required=True, help="graph file")
    if group_flag:
        p.add_argument("--group", default=None, help="group spec: N, N1xN2, or f4")
    p.add_argument("--max-terms", type=count, default=DEFAULT_MAX_TERMS)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qcolour",
        description="graph invariants as colouring-model partition functions",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tutte", help="Tutte polynomial by subset expansion")
    _add_common(p, group_flag=False)

    p = sub.add_parser("flow", help="number of nowhere-zero q-flows")
    _add_common(p, group_flag=False)
    p.add_argument("--q", type=int, required=True)

    p = sub.add_parser("chromatic", help="number of proper vertex q-colourings")
    _add_common(p, group_flag=False)
    p.add_argument("--q", type=int, required=True)

    p = sub.add_parser("hwe", help="Hamming weight enumerator of flows or tensions")
    _add_common(p)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--s", type=complex, required=True)
    p.add_argument("--set", choices=("flows", "tensions"), default="flows")

    p = sub.add_parser("cwe", help="complete weight enumerator of flows or tensions")
    _add_common(p)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--weights", required=True, help="q comma-separated values")
    p.add_argument("--set", choices=("flows", "tensions"), default="flows")

    p = sub.add_parser("vertex-model", help="vertex-colouring model partition function")
    _add_common(p)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--weights", required=True, help="q*q edge weights, row-major")
    p.add_argument("--f", default=None, help="q vertex weights (default uniform)")

    p = sub.add_parser("edge-model", help="edge-colouring model partition function")
    _add_common(p)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--weights", default=None, help="q per-edge weights (default uniform)")
    p.add_argument(
        "--vertex-family",
        choices=("uniform", "matching"),
        default="uniform",
        help="vertex weight family",
    )

    p = sub.add_parser("sine-model", help="sine-weight edge model for proper edge k-colourings")
    _add_common(p, group_flag=False)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("kplus1", help="signed (k+1)-colouring sum for proper edge k-colourings")
    _add_common(p, group_flag=False)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("xq", help="boundary generating function of a vertex colouring")
    _add_common(p, group_flag=False)
    p.add_argument("--group", required=True, help="group spec: N, N1xN2, or f4")
    p.add_argument("--s", required=True, help="q vertex weights")
    p.add_argument("--t", required=True, help="q edge weights")

    p = sub.add_parser("verify", help="run the identity battery, emit JSON records")
    _add_common(p)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--tol", type=tolerance, default=1e-7)
    p.add_argument("--seed", type=count, default=0)
    p.add_argument(
        "--suite",
        choices=("all", "fourier", "duality", "signed"),
        default="all",
    )
    return ap


def _group_of(args):
    if args.group is not None:
        return group_from_name(args.group, args.max_terms)
    if args.q is None:
        raise ValueError("need --group or --q")
    return group_from_name(str(args.q), args.max_terms)


# the composition histogram that ``hwe`` and ``cwe`` evaluate, by ``--set``
_COMPOSITIONS = {
    "flows": oracles.flow_compositions,
    "tensions": oracles.tension_compositions,
}


def _format_number(val) -> str:
    val = complex(val)
    if abs(val.imag) < 1e-9 * max(1.0, abs(val)):
        return f"{val.real:.12g}"
    return f"{val.real:.12g}{val.imag:+.12g}j"


def _print_model_value(value, terms=None) -> int:
    """Print a value and return the exit code: 3 for a sum that is not
    finite in float64, which has no digits to print.  A model value comes
    with its ``terms``, and a line of them and its magnitude goes to stderr."""
    value = complex(value)
    if not cmath.isfinite(value):
        cost = "" if terms is None else f", terms {terms}"
        print(f"error: the float64 sum is not finite ({_format_number(value)}{cost})",
              file=sys.stderr)
        return 3
    print(_format_number(value))
    if terms is not None:
        print(f"magnitude {abs(value):.12g}  imag-residual {abs(value.imag):.3g}  terms {terms}",
              file=sys.stderr)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    max_terms = args.max_terms
    try:
        doc = load_graph(args.graph)
    except GraphParseError as exc:
        print(f"error: {args.graph}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    g = doc.graph
    try:
        if args.command == "tutte":
            print(oracles.tutte(g, max_terms))
        elif args.command == "flow":
            print(oracles.flow_polynomial(g, args.q, max_terms=max_terms))
        elif args.command == "chromatic":
            print(oracles.chromatic(g, args.q, max_terms=max_terms))
        elif args.command == "hwe":
            group = _group_of(args)
            hist = _COMPOSITIONS[args.set](
                g, group, doc.orientation_or_default(), max_terms
            )
            return _print_model_value(hist.hamming_weight_enum(args.s))
        elif args.command == "cwe":
            group = _group_of(args)
            w = _parse_weights(args.weights, group.q, "--weights")
            hist = _COMPOSITIONS[args.set](
                g, group, doc.orientation_or_default(), max_terms
            )
            return _print_model_value(hist.complete_weight_enum(w))
        elif args.command == "vertex-model":
            group = _group_of(args)
            gw = _parse_weights(args.weights, group.q**2, "--weights")
            fw = (
                _parse_weights(args.f, group.q, "--f")
                if args.f
                else np.ones(group.q, dtype=complex)
            )
            model = VertexModel(QFunction(group, 1, fw), QFunction(group, 2, gw))
            mv = vertex_partition(g, model, doc.orientation_or_default(), max_terms)
            return _print_model_value(mv.value, mv.terms)
        elif args.command == "edge-model":
            group = _group_of(args)
            family = (
                VertexWeights.perfect_matching(group)
                if args.vertex_family == "matching"
                else VertexWeights.uniform(group)
            )
            ew = (
                QFunction(group, 1, _parse_weights(args.weights, group.q, "--weights"))
                if args.weights
                else None
            )
            model = EdgeModel(family, ew)
            mv = edge_partition(g, model, doc.rotation_or_default(), max_terms)
            return _print_model_value(mv.value, mv.terms)
        elif args.command == "sine-model":
            mv = signed.sine_model(
                g, doc.rotation_or_default(), args.q, args.k, max_terms=max_terms
            )
            return _print_model_value(mv.value, mv.terms)
        elif args.command == "kplus1":
            mv = signed.kplus1_sign_sum(
                g, doc.rotation_or_default(), args.k, max_terms=max_terms
            )
            return _print_model_value(mv.value, mv.terms)
        elif args.command == "xq":
            group = _group_of(args)
            s = _parse_weights(args.s, group.q, "--s")
            t = _parse_weights(args.t, group.q, "--t")
            val = duality.xq_evaluate(
                g, group, doc.orientation_or_default(), s, t, max_terms=max_terms
            )
            return _print_model_value(val)
        elif args.command == "verify":
            group = _group_of(args)
            suites = (
                ("fourier", "duality", "signed")
                if args.suite == "all"
                else (args.suite,)
            )
            records = run_battery(
                doc, group, suites, tol=args.tol, max_terms=max_terms, seed=args.seed
            )
            for rec in records:
                print(rec.to_json())
            status = [rec.passed for rec in records]  # None: skipped
            print(
                f"{len(records)} checks: {status.count(True)} passed, "
                f"{status.count(False)} failed, {status.count(None)} skipped",
                file=sys.stderr,
            )
            return 1 if False in status else 0
        else:  # pragma: no cover
            raise SystemExit(f"unknown command {args.command}")
    except TermCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OverflowError as exc:
        print(f"error: a value is not finite in float64 ({exc})", file=sys.stderr)
        return 3
    except (ValueError, oracles.ConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
