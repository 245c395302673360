"""Command-line interface for the quasi-norm laboratory.

Commands either evaluate one quantity (eval, rolewicz, mii, galb-estimate,
tensor-norm, envelope, dual, ftc) or run a named check battery (suite,
report).  All output is deterministic for a fixed (command, inputs, seed)
triple: JSON with sorted keys and 17-significant-digit floats, or a
flattened key/value CSV.  The commands hand their results, witnesses and
reports to `serialize` as they are; its one shape rule writes them.

Exit codes: 0 success, 1 a checked bound was violated (the emitted payload
carries the witness) or a library self-check failed (an `error:` line on
stderr, no payload), 2 malformed input or unknown names.
"""
from __future__ import annotations

import argparse
import dataclasses
import inspect
import math
import sys
from functools import lru_cache
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .bounds import BoundResult
from .checks import CHECKS
from .convexity import mii_sweep, p_envelope
from .errors import DegenerateCubeError, GaugeDefinitionError, InputError
from .galb_tensor import galb_gauge_estimate, profile_value, tensor_norm_estimate
from .gauges import Gauge, dual_gauge, eval_gauge, eval_vector_gauge
from .integration import rolewicz_counterexample
from .maximal import GridSpace, default_scales, differentiation_report, weak11_constant
from .measure import MeasureSpace, ScalarField, VectorField
from .serialize import (
    _number_array,
    dumps_csv,
    dumps_json,
    flatten_for_csv,
    load_payload,
    parse_gauge,
    parse_measure,
    parse_scalar_field,
    parse_target,
    parse_tensor_rep,
)

# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _emit(payload: Any, args: argparse.Namespace) -> None:
    if args.format == "csv":
        text = dumps_csv([("key", "value")] + flatten_for_csv(payload))
    else:
        text = dumps_json(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_bound(args: argparse.Namespace, br: BoundResult, **fields: Any) -> int:
    """Emit one estimate: the command, its input fields, and the tagged bound."""
    payload = {"command": args.command, **fields, "value": float(br.value),
               "tag": br.tag.name.lower(), "witness": br.witness}
    if br.tol is not None:
        payload["tol"] = float(br.tol)
    _emit(payload, args)
    return 0


def _array_arg(text: str, key: str, ndim: int) -> np.ndarray:
    """A numeric array given bare or under key, inline or as @path."""
    obj = load_payload(text)
    return _number_array(obj.get(key) if isinstance(obj, dict) else obj, key, ndim)


# argparse types: a ValueError becomes argparse's own "invalid ... value" exit 2
def _int_list(text: str) -> List[int]:
    return [int(tok) for tok in text.split(",") if tok.strip() != ""]


def _float_list(text: str) -> List[float]:
    return [float(tok) for tok in text.split(",") if tok.strip() != ""]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return value


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _dims_list(text: str) -> List[Tuple[int, int]]:
    dims: List[Tuple[int, int]] = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:  # a part that is not an integer, or not two parts, is a ValueError
            m, n = (int(part) for part in tok.lower().split("x"))
        except ValueError as exc:
            raise InputError(f"dimension {tok!r} is not of the form MxN") from exc
        if min(m, n) < 1:
            raise InputError(f"dimension {tok!r} needs sizes of at least 1")
        dims.append((m, n))
    if not dims:
        raise InputError("need at least one MxN dimension")
    return dims


# ---------------------------------------------------------------------------
# single-quantity commands
# ---------------------------------------------------------------------------


def _gauge_space_field(
    args: argparse.Namespace,
) -> Tuple[Gauge, MeasureSpace, Optional[ScalarField]]:
    """The parsed --gauge, --space and --field (None when --field is not given)."""
    gauge = parse_gauge(load_payload(args.gauge))
    space = parse_measure(load_payload(args.space))
    field = None if args.field is None else parse_scalar_field(load_payload(args.field))
    return gauge, space, field


def cmd_eval(args: argparse.Namespace) -> int:
    gauge, space, field = _gauge_space_field(args)
    if args.vectors is not None:
        if args.target is None:
            raise InputError("--vectors needs a --target space")
        vectors = _array_arg(args.vectors, "vectors", 2)
        target = parse_target(load_payload(args.target))
        br = eval_vector_gauge(gauge, space, VectorField(vectors, target))
    else:
        if field is None:
            raise InputError("eval needs --field (or --vectors with --target)")
        br = eval_gauge(gauge, space, field)
    return _emit_bound(args, br, gauge=gauge.label())


def cmd_rolewicz(args: argparse.Namespace) -> int:
    rep = rolewicz_counterexample(args.p, args.n)
    _emit({"command": "rolewicz", **dataclasses.asdict(rep)}, args)
    return 0


def cmd_mii(args: argparse.Namespace) -> int:
    gauge_a = parse_gauge(load_payload(args.gauge_a))
    gauge_b = parse_gauge(load_payload(args.gauge_b))
    dims = _dims_list(args.dims)
    rep = mii_sweep(gauge_a, gauge_b, dims, trials=args.trials, seed=args.seed)
    payload: Dict[str, Any] = {
        "command": "mii",
        "gauge_a": gauge_a.label(),
        "gauge_b": gauge_b.label(),
        "per_dim": {f"{m}x{n}": v for (m, n), v in rep.per_dim.items()},
        "max_ratio": rep.max_ratio,
        "witness_shape": list(rep.witness_shape),
        "seed": args.seed,
    }
    code = 0
    if args.bound is not None and rep.max_ratio > args.bound:
        payload["bound"] = args.bound
        payload["witness"] = rep.witness
        code = 1
    _emit(payload, args)
    return code


def cmd_galb_estimate(args: argparse.Namespace) -> int:
    target = parse_target(load_payload(args.target))
    coeffs = _array_arg(args.coefficients, "values", 1)
    br = galb_gauge_estimate(
        target,
        coeffs,
        budget=args.budget,
        seed=args.seed,
        analytic=not args.no_analytic,
    )
    return _emit_bound(args, br, target=target.name, coefficients=coeffs, seed=args.seed)


def cmd_tensor_norm(args: argparse.Namespace) -> int:
    rep = parse_tensor_rep(load_payload(args.rep))
    space = parse_measure(load_payload(args.space))
    br = tensor_norm_estimate(rep, space, budget=args.budget, seed=args.seed)
    return _emit_bound(args, br, input_profile=profile_value(rep, space),
                       input_terms=rep.n_terms, seed=args.seed)


def cmd_envelope(args: argparse.Namespace) -> int:
    gauge, space, field = _gauge_space_field(args)
    br = p_envelope(gauge, args.p, space, field, budget=args.budget, seed=args.seed)
    return _emit_bound(args, br, gauge=gauge.label(), p=args.p, seed=args.seed)


def cmd_dual(args: argparse.Namespace) -> int:
    gauge, space, field = _gauge_space_field(args)
    br = dual_gauge(gauge, space, field, budget=args.budget, seed=args.seed)
    return _emit_bound(args, br, gauge=gauge.label(), seed=args.seed)


def cmd_ftc(args: argparse.Namespace) -> int:
    grid = GridSpace(args.d, args.cells)
    if args.field is not None:
        field = parse_scalar_field(load_payload(args.field))
    else:
        values = np.zeros(grid.n_atoms)
        values[grid.n_atoms // 2] = float(grid.n_atoms)
        field = ScalarField(values)
    scales = args.scales if args.scales is not None else list(default_scales(grid))
    payload: Dict[str, Any] = {"command": "ftc", "cells": args.cells, "d": args.d,
                               "scales": scales, "weak11": weak11_constant(grid, field, scales)}
    if args.samples is not None:
        payload["differentiation"] = differentiation_report(grid, field, args.samples, scales)
    _emit(payload, args)
    return 0


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _run_check(name: str, args: argparse.Namespace) -> Tuple[bool, Dict[str, Any]]:
    """Run one check with the flags it takes; a flag left unset keeps the check's default."""
    check = CHECKS[name]
    flags = {key: getattr(args, key) for key in inspect.signature(check).parameters
             if getattr(args, key) is not None}
    return check(**flags)


def cmd_suite(args: argparse.Namespace) -> int:
    passed, details = _run_check(args.name, args)
    _emit({"command": "suite", "suite": args.name, "passed": passed,
           "seed": args.seed, "details": details}, args)
    return 0 if passed else 1


def cmd_report(args: argparse.Namespace) -> int:
    suites: Dict[str, Any] = {}
    for name in sorted(CHECKS):
        passed, details = _run_check(name, args)
        suites[name] = {"passed": passed, "details": details}
    all_ok = all(sub["passed"] for sub in suites.values())
    _emit({"command": "report", "passed": all_ok, "seed": args.seed,
           "suites": suites}, args)
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


# built once per process: parsing reads the parser and never changes it
@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnlab",
        description="numerical laboratory for quasi-norm calculus on finite measure spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("eval", help="evaluate a gauge on a field")
    sp.add_argument("--gauge", required=True)
    sp.add_argument("--space", required=True)
    sp.add_argument("--field")
    sp.add_argument("--vectors")
    sp.add_argument("--target")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("rolewicz", help="blow-up family for sub-one exponents")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(func=cmd_rolewicz)

    sp = sub.add_parser("mii", help="mixed-injection inequality sweep")
    sp.add_argument("--gauge-a", required=True)
    sp.add_argument("--gauge-b", required=True)
    sp.add_argument("--dims", default="4x4,8x8,16x16,32x32")
    sp.add_argument("--trials", type=_positive_int, default=200)
    sp.add_argument("--bound", type=_finite_float, default=None)
    sp.set_defaults(func=cmd_mii)

    sp = sub.add_parser("galb-estimate", help="lower-estimate the galb gauge of coefficients")
    sp.add_argument("--target", required=True)
    sp.add_argument("--coefficients", required=True)
    sp.add_argument("--budget", type=_nonnegative_int, default=10000)
    sp.add_argument("--no-analytic", action="store_true")
    sp.set_defaults(func=cmd_galb_estimate)

    sp = sub.add_parser("tensor-norm", help="upper-estimate a tensor representation norm")
    sp.add_argument("--rep", required=True)
    sp.add_argument("--space", required=True)
    sp.add_argument("--budget", type=_nonnegative_int, default=10000)
    sp.set_defaults(func=cmd_tensor_norm)

    sp = sub.add_parser("envelope", help="p-envelope upper estimate")
    sp.add_argument("--gauge", required=True)
    sp.add_argument("--p", type=_finite_float, required=True)
    sp.add_argument("--space", required=True)
    sp.add_argument("--field", required=True)
    sp.add_argument("--budget", type=_nonnegative_int, default=64)
    sp.set_defaults(func=cmd_envelope)

    sp = sub.add_parser("dual", help="dual-pairing lower estimate")
    sp.add_argument("--gauge", required=True)
    sp.add_argument("--space", required=True)
    sp.add_argument("--field", required=True)
    sp.add_argument("--budget", type=_nonnegative_int, default=200)
    sp.set_defaults(func=cmd_dual)

    sp = sub.add_parser("ftc", help="maximal-operator and differentiation report")
    sp.add_argument("--cells", type=int, default=1024)
    sp.add_argument("--d", type=int, default=1)
    sp.add_argument("--field")
    sp.add_argument("--scales", type=_float_list, default=None)
    sp.add_argument("--samples", type=_int_list, default=None)
    sp.set_defaults(func=cmd_ftc)

    suite = sub.add_parser("suite", help="run one named check battery")
    suite.add_argument("--name", required=True, choices=sorted(CHECKS))
    suite.set_defaults(func=cmd_suite)
    report = sub.add_parser("report", help="run every suite and aggregate")
    report.set_defaults(func=cmd_report)
    for sp in (suite, report):  # the flags a check takes
        sp.add_argument("--trials", type=_positive_int, default=None)
        sp.add_argument("--budget", type=_positive_int, default=None)
        sp.add_argument("--tol", type=_finite_float, default=None)
        sp.add_argument("--cells", type=int, default=None)

    for sp in sub.choices.values():  # the flags every command takes
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", type=str, default=None)
        sp.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (InputError, GaugeDefinitionError, DegenerateCubeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except AssertionError as exc:  # a library self-check failed: no payload to emit
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
