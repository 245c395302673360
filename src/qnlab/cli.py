"""Command-line interface for the quasi-norm laboratory.

Commands either evaluate one quantity (eval, rolewicz, mii, galb-estimate,
tensor-norm, envelope, dual, ftc) or run a named check battery (suite,
report).  All output is deterministic for a fixed (command, inputs, seed)
triple: JSON with sorted keys and 17-significant-digit floats, or a
flattened key/value CSV.

Exit codes: 0 success, 1 a checked bound was violated (the emitted payload
carries the witness), 2 malformed input or unknown names.
"""
from __future__ import annotations

import argparse
import sys
from functools import lru_cache
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from .bounds import BoundResult
from .convexity import (
    Decomposition,
    lattice_constant_probe,
    leveling_constant_probe,
    mii_sweep,
    p_envelope,
)
from .errors import DegenerateCubeError, GaugeDefinitionError, InputError
from .galb_tensor import (
    GalbWitness,
    TensorRep,
    galb_gauge_estimate,
    galbs_check,
    i_map,
    i_map_termwise,
    j_map,
    profile_value,
    tensor_norm_estimate,
)
from .gauges import Lp, Orlicz, builtin_phi, dual_gauge, eval_gauge, eval_vector_gauge
from .integration import representation_independence_check, rolewicz_counterexample
from .maximal import (
    GridSpace,
    default_scales,
    differentiation_report,
    series_domination_report,
    weak11_constant,
)
from .measure import (
    MeasureSpace,
    Partition,
    ScalarField,
    VectorField,
    counting_space,
    uniform_probability_space,
)
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
from .spaces import lq_space, weak_l1_space

# ---------------------------------------------------------------------------
# payload assembly
# ---------------------------------------------------------------------------


def _witness_payload(w: Any) -> Any:
    if w is None:
        return None
    if isinstance(w, ScalarField):
        return {"values": w.values}
    if isinstance(w, VectorField):
        return {"vectors": w.vectors}
    if isinstance(w, Partition):
        return {"blocks": [list(b) for b in w.blocks]}
    if isinstance(w, Decomposition):
        return {"parts": [{"values": part.values} for part in w.parts]}
    if isinstance(w, TensorRep):
        return {"xs": w.xs, "fs": w.fs}
    if isinstance(w, GalbWitness):
        return {"coefficients": w.coefficients, "vectors": w.vectors, "value": w.value}
    if isinstance(w, np.ndarray):
        return w
    if isinstance(w, (tuple, list)):
        return [_witness_payload(item) for item in w]
    if isinstance(w, (int, float, str, bool, np.integer, np.floating)):
        return w
    return repr(w)


def _bound_payload(br: BoundResult, with_witness: bool = True) -> Dict[str, Any]:
    out: Dict[str, Any] = {"value": float(br.value), "tag": br.tag.name.lower()}
    if br.tol is not None:
        out["tol"] = float(br.tol)
    if with_witness:
        out["witness"] = _witness_payload(br.witness)
    return out


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


def _array_arg(text: str, key: str, ndim: int) -> np.ndarray:
    """A numeric array given bare or under key, inline or as @path."""
    obj = load_payload(text)
    return _number_array(obj.get(key) if isinstance(obj, dict) else obj, key, ndim)


# argparse types: a ValueError becomes argparse's own "invalid ... value" exit 2
def _int_list(text: str) -> List[int]:
    return [int(tok) for tok in text.split(",") if tok.strip() != ""]


def _float_list(text: str) -> List[float]:
    return [float(tok) for tok in text.split(",") if tok.strip() != ""]


def _dims_list(text: str) -> List[Tuple[int, int]]:
    dims: List[Tuple[int, int]] = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        parts = tok.lower().split("x")
        if len(parts) != 2:
            raise InputError(f"dimension {tok!r} is not of the form MxN")
        try:
            dims.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise InputError(f"dimension {tok!r} is not of the form MxN") from exc
    if not dims:
        raise InputError("need at least one MxN dimension")
    return dims


# ---------------------------------------------------------------------------
# single-quantity commands
# ---------------------------------------------------------------------------


def cmd_eval(args: argparse.Namespace) -> int:
    gauge = parse_gauge(load_payload(args.gauge))
    space = parse_measure(load_payload(args.space))
    if args.vectors is not None:
        if args.target is None:
            raise InputError("--vectors needs a --target space")
        vectors = _array_arg(args.vectors, "vectors", 2)
        target = parse_target(load_payload(args.target))
        br = eval_vector_gauge(gauge, space, VectorField(vectors, target))
    else:
        if args.field is None:
            raise InputError("eval needs --field (or --vectors with --target)")
        br = eval_gauge(gauge, space, parse_scalar_field(load_payload(args.field)))
    payload = {"command": "eval", "gauge": gauge.label(), **_bound_payload(br)}
    _emit(payload, args)
    return 0


def cmd_rolewicz(args: argparse.Namespace) -> int:
    rep = rolewicz_counterexample(args.p, args.n)
    payload = {
        "command": "rolewicz",
        "p": rep.p,
        "n": rep.n,
        "sup_part_norm": rep.sup_part_norm,
        "riemann_sum_norm": rep.riemann_sum_norm,
        "blowup_ratio": rep.blowup_ratio,
    }
    _emit(payload, args)
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
    payload = {
        "command": "galb-estimate",
        "target": target.name,
        "coefficients": coeffs,
        "seed": args.seed,
        **_bound_payload(br),
    }
    _emit(payload, args)
    return 0


def cmd_tensor_norm(args: argparse.Namespace) -> int:
    rep = parse_tensor_rep(load_payload(args.rep))
    space = parse_measure(load_payload(args.space))
    br = tensor_norm_estimate(rep, space, budget=args.budget, seed=args.seed)
    payload = {
        "command": "tensor-norm",
        "input_profile": profile_value(rep, space),
        "input_terms": rep.n_terms,
        "seed": args.seed,
        **_bound_payload(br),
    }
    _emit(payload, args)
    return 0


def cmd_envelope(args: argparse.Namespace) -> int:
    gauge = parse_gauge(load_payload(args.gauge))
    space = parse_measure(load_payload(args.space))
    field = parse_scalar_field(load_payload(args.field))
    br = p_envelope(gauge, args.p, space, field, budget=args.budget, seed=args.seed)
    payload = {
        "command": "envelope",
        "gauge": gauge.label(),
        "p": args.p,
        "seed": args.seed,
        **_bound_payload(br),
    }
    _emit(payload, args)
    return 0


def cmd_dual(args: argparse.Namespace) -> int:
    gauge = parse_gauge(load_payload(args.gauge))
    space = parse_measure(load_payload(args.space))
    field = parse_scalar_field(load_payload(args.field))
    br = dual_gauge(gauge, space, field, budget=args.budget, seed=args.seed)
    payload = {
        "command": "dual",
        "gauge": gauge.label(),
        "seed": args.seed,
        **_bound_payload(br),
    }
    _emit(payload, args)
    return 0


def cmd_ftc(args: argparse.Namespace) -> int:
    grid = GridSpace(args.d, args.cells)
    if args.field is not None:
        field = parse_scalar_field(load_payload(args.field))
    else:
        values = np.zeros(grid.n_atoms)
        values[grid.n_atoms // 2] = float(grid.n_atoms)
        field = ScalarField(values)
    scales = args.scales if args.scales is not None else list(default_scales(grid))
    w = weak11_constant(grid, field, scales)
    payload: Dict[str, Any] = {
        "command": "ftc",
        "cells": args.cells,
        "d": args.d,
        "scales": scales,
        "weak11": {
            "weak_norm": w.weak_norm,
            "input_size": w.input_size,
            "constant": w.constant,
        },
    }
    if args.samples is not None:
        rep = differentiation_report(grid, field, args.samples, scales)
        payload["differentiation"] = {
            "per_scale": [list(row) for row in rep.per_scale],
            "max_error": rep.max_error,
        }
    _emit(payload, args)
    return 0


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _suite_orlicz_concavity(args: argparse.Namespace) -> Tuple[bool, Dict[str, Any]]:
    trials = args.trials if args.trials is not None else 200
    tol = args.tol if args.tol is not None else 1e-9
    # total mass above one, otherwise the bounded rational kernel makes
    # the gauge vanish identically and the check would be vacuous
    space = counting_space(6)
    kernels = (("loglog", None), ("rational", None), ("power", 0.5))
    per: Dict[str, Any] = {}
    passed = True
    for name, p in kernels:
        label = name if p is None else f"{name}({p:g})"
        gauge = Orlicz(builtin_phi(name, p))
        br = lattice_constant_probe(gauge, "concave", 1.0, space, trials=trials, seed=args.seed)
        bad = br.value > 1.0 + tol
        per[label] = {"constant": br.value, "violated": bad}
        if bad:
            per[label]["witness"] = _witness_payload(br.witness)
            passed = False
    return passed, {"kernels": per, "trials": trials, "tolerance": tol}


def _suite_mii(args: argparse.Namespace) -> Tuple[bool, Dict[str, Any]]:
    trials = args.trials if args.trials is not None else 200
    tol = args.tol if args.tol is not None else 1e-9
    rep = mii_sweep(
        Lp(2.0), Lp(1.0), dims=[(4, 4), (8, 8), (16, 16), (32, 32)],
        trials=trials, seed=args.seed,
    )
    passed = rep.max_ratio <= 1.0 + tol
    payload: Dict[str, Any] = {
        "pair": [Lp(2.0).label(), Lp(1.0).label()],
        "per_dim": {f"{m}x{n}": v for (m, n), v in rep.per_dim.items()},
        "max_ratio": rep.max_ratio,
        "threshold": 1.0 + tol,
        "trials": trials,
    }
    if not passed:
        payload["witness"] = rep.witness
    return passed, payload


def _suite_galb(args: argparse.Namespace) -> Tuple[bool, Dict[str, Any]]:
    trials = args.trials if args.trials is not None else 20
    budget = args.budget if args.budget is not None else 1500
    lam = Orlicz(builtin_phi("loglog"))
    target = weak_l1_space(32)
    rep = galbs_check(lam, target, sizes=(8, 16, 32), trials=trials, seed=args.seed, budget=budget)
    growth = rep.per_size[32] / rep.per_size[8]
    bounded = growth <= 1.75
    a = 1.0 / (1.0 + np.arange(8))
    banach = galb_gauge_estimate(lq_space(8, 1.0), a, budget=budget, seed=args.seed)
    halfq = galb_gauge_estimate(lq_space(8, 0.5), a, budget=budget, seed=args.seed)
    want_banach = float(np.sum(a))
    want_halfq = float(np.sum(np.sqrt(a)) ** 2)
    anchors_ok = (
        abs(banach.value - want_banach) <= 1e-6 * want_banach
        and abs(halfq.value - want_halfq) <= 1e-6 * want_halfq
    )
    payload: Dict[str, Any] = {
        "per_size": {str(k): v for k, v in rep.per_size.items()},
        "growth_8_to_32": growth,
        "growth_threshold": 1.75,
        "anchors": {
            "banach_l1": {"estimate": banach.value, "expected": want_banach},
            "lq_half": {"estimate": halfq.value, "expected": want_halfq},
        },
        "trials": trials,
        "budget": budget,
    }
    if not bounded:
        payload["witness"] = rep.witness_coefficients
    return bounded and anchors_ok, payload


def _suite_leveling(args: argparse.Namespace) -> Tuple[bool, Dict[str, Any]]:
    trials = args.trials if args.trials is not None else 500
    tol = args.tol if args.tol is not None else 1e-9
    space = uniform_probability_space(8)
    per: Dict[str, Any] = {}
    passed = True
    for gauge in (Lp(1.0), Lp(2.0)):
        br = leveling_constant_probe(gauge, space, trials=trials, seed=args.seed)
        bad = br.value > 1.0 + tol
        per[gauge.label()] = {"constant": br.value, "violated": bad}
        if bad:
            per[gauge.label()]["witness"] = _witness_payload(br.witness)
            passed = False
    info = leveling_constant_probe(Lp(0.5), space, trials=trials, seed=args.seed)
    per[Lp(0.5).label()] = {"constant": info.value, "violated": False, "judged": False}
    return passed, {"gauges": per, "trials": trials, "tolerance": tol}


def _suite_tensor_oracle(args: argparse.Namespace) -> Tuple[bool, Dict[str, Any]]:
    trials = args.trials if args.trials is not None else 20
    budget = args.budget if args.budget is not None else 4000
    rng = np.random.default_rng(args.seed)
    lam = Lp(1.0)
    worst_short = 0.0   # est below the exact value (soundness breach)
    worst_excess = 0.0  # est above the exact value (missed optimum), relative
    witness = None
    for _ in range(trials):
        n = int(rng.integers(2, 4))
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 5))
        target = lq_space(d, 1.0) if rng.integers(2) == 0 else lq_space(d, 2.0)
        space = MeasureSpace(rng.uniform(0.2, 1.5, size=n))
        rep = TensorRep(
            xs=rng.standard_normal((k, d)),
            fs=rng.standard_normal((k, n)),
            target=target,
            lam=lam,
        )
        est = tensor_norm_estimate(rep, space, budget=budget, seed=args.seed)
        exact = float(np.sum(space.weights * target.norms(j_map(rep, space).vectors)))
        short = exact - est.value
        excess = (est.value - exact) / max(exact, 1e-300)
        worst_short = max(worst_short, short)
        worst_excess = max(worst_excess, excess)
        if short > 1e-9 or excess > 1e-3:
            witness = rep
    passed = worst_short <= 1e-9 and worst_excess <= 1e-3
    payload: Dict[str, Any] = {
        "worst_undershoot": worst_short,
        "worst_relative_excess": worst_excess,
        "soundness_threshold": 1e-9,
        "excess_threshold": 1e-3,
        "trials": trials,
        "budget": budget,
    }
    if not passed and witness is not None:
        payload["witness"] = _witness_payload(witness)
    return passed, payload


def _suite_amenability(args: argparse.Namespace) -> Tuple[bool, Dict[str, Any]]:
    trials = args.trials if args.trials is not None else 200
    tol = args.tol if args.tol is not None else 1e-9
    rng = np.random.default_rng(args.seed)
    lam = Lp(1.0)
    worst_i = 0.0
    worst_termwise = 0.0
    passed = True
    witness = None
    for _ in range(trials):
        n = int(rng.integers(2, 6))
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 5))
        target = lq_space(d, 1.0)
        space = MeasureSpace(rng.uniform(0.2, 1.5, size=n))
        xs = rng.standard_normal((k, d))
        fs = rng.standard_normal((k, n))
        rep1 = TensorRep(xs=xs, fs=fs, target=target, lam=lam)
        # same J up to rounding: permute terms, split the first term
        # 0.7 / 0.3, and pad with a term whose field is identically zero
        perm = rng.permutation(k)
        xs2 = np.vstack([xs[perm], xs[0:1], rng.standard_normal((1, d))])
        fs2 = np.vstack([fs[perm], 0.3 * fs[0:1], np.zeros((1, n))])
        fs2[int(np.argmax(perm == 0))] = 0.7 * fs[0]
        rep2 = TensorRep(xs=xs2, fs=fs2, target=target, lam=lam)
        check = representation_independence_check(rep1, rep2, space, tol=tol)
        scale = max(1.0, float(np.max(np.abs(fs))) * float(np.max(np.abs(xs))))
        dterm = float(
            target.norm(i_map(rep1, space) - i_map_termwise(rep1, space))
        )
        worst_i = max(worst_i, check.i_discrepancy)
        worst_termwise = max(worst_termwise, dterm / scale)
        if not (check.comparable and check.passed) or dterm > 1e-12 * scale:
            passed = False
            witness = rep1
    payload: Dict[str, Any] = {
        "worst_integral_discrepancy": worst_i,
        "worst_termwise_discrepancy": worst_termwise,
        "tolerance": tol,
        "trials": trials,
    }
    if witness is not None:
        payload["witness"] = _witness_payload(witness)
    return passed, payload


def _suite_ftc(args: argparse.Namespace) -> Tuple[bool, Dict[str, Any]]:
    cells = args.cells if args.cells is not None else 1024
    # exact differentiation for a locally constant field
    g = GridSpace(1, 256)
    values = np.zeros(256)
    values[128:] = 1.0
    samples = [s for s in range(256) if abs((s + 0.5) / 256 - 0.5) >= 0.125]
    scales = [h for h in default_scales(g) if h < 0.125]
    diff = differentiation_report(g, ScalarField(values), samples, scales)
    diff_ok = diff.max_error == 0.0
    # weak-(1,1) ratio for a point mass
    gw = GridSpace(1, cells)
    point = np.zeros(cells)
    point[cells // 2] = float(cells)
    w = weak11_constant(gw, point)
    weak_ok = 1.8 <= w.constant <= 2.2
    # termwise domination of the vector maximal field
    rng = np.random.default_rng(args.seed)
    gd = GridSpace(1, 64)
    worst_gap = -np.inf
    for t in range(10):
        k = int(rng.integers(1, 5))
        d = int(rng.integers(1, 4))
        target = lq_space(d, 1.0) if t % 2 == 0 else lq_space(d, 2.0)
        rep = TensorRep(
            xs=rng.standard_normal((k, d)),
            fs=rng.standard_normal((k, 64)),
            target=target,
            lam=Lp(1.0),
        )
        report = series_domination_report(rep, gd)
        worst_gap = max(worst_gap, report.max_gap)
    dom_ok = worst_gap <= 1e-9
    payload = {
        "differentiation_max_error": diff.max_error,
        "weak11_constant": w.constant,
        "weak11_range": [1.8, 2.2],
        "domination_max_gap": worst_gap,
        "cells": cells,
    }
    return diff_ok and weak_ok and dom_ok, payload


def _suite_counterexample(args: argparse.Namespace) -> Tuple[bool, Dict[str, Any]]:
    per: Dict[str, Any] = {}
    passed = True
    for n in (4, 16, 64, 256):
        try:
            rep = rolewicz_counterexample(0.5, n)
            per[str(n)] = {
                "sup_part_norm": rep.sup_part_norm,
                "blowup_ratio": rep.blowup_ratio,
            }
        except AssertionError as exc:
            per[str(n)] = {"error": str(exc)}
            passed = False
    return passed, {"p": 0.5, "sizes": per}


_SUITES: Dict[str, Callable[[argparse.Namespace], Tuple[bool, Dict[str, Any]]]] = {
    "orlicz-concavity": _suite_orlicz_concavity,
    "mii": _suite_mii,
    "galb": _suite_galb,
    "leveling": _suite_leveling,
    "tensor-oracle": _suite_tensor_oracle,
    "amenability": _suite_amenability,
    "ftc": _suite_ftc,
    "counterexample": _suite_counterexample,
}


def cmd_suite(args: argparse.Namespace) -> int:
    passed, payload = _SUITES[args.name](args)
    _emit({"command": "suite", "suite": args.name, "passed": passed,
           "seed": args.seed, "details": payload}, args)
    return 0 if passed else 1


def cmd_report(args: argparse.Namespace) -> int:
    suites: Dict[str, Any] = {}
    all_ok = True
    for name in sorted(_SUITES):
        passed, payload = _SUITES[name](args)
        suites[name] = {"passed": passed, "details": payload}
        all_ok = all_ok and passed
    _emit({"command": "report", "passed": all_ok, "seed": args.seed,
           "suites": suites}, args)
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", type=str, default=None)
    sp.add_argument("--format", choices=("json", "csv"), default="json")


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
    _add_common(sp)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("rolewicz", help="blow-up family for sub-one exponents")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--n", type=int, required=True)
    _add_common(sp)
    sp.set_defaults(func=cmd_rolewicz)

    sp = sub.add_parser("mii", help="mixed-injection inequality sweep")
    sp.add_argument("--gauge-a", required=True)
    sp.add_argument("--gauge-b", required=True)
    sp.add_argument("--dims", default="4x4,8x8,16x16,32x32")
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--bound", type=float, default=None)
    _add_common(sp)
    sp.set_defaults(func=cmd_mii)

    sp = sub.add_parser("galb-estimate", help="lower-estimate the galb gauge of coefficients")
    sp.add_argument("--target", required=True)
    sp.add_argument("--coefficients", required=True)
    sp.add_argument("--budget", type=int, default=10000)
    sp.add_argument("--no-analytic", action="store_true")
    _add_common(sp)
    sp.set_defaults(func=cmd_galb_estimate)

    sp = sub.add_parser("tensor-norm", help="upper-estimate a tensor representation norm")
    sp.add_argument("--rep", required=True)
    sp.add_argument("--space", required=True)
    sp.add_argument("--budget", type=int, default=10000)
    _add_common(sp)
    sp.set_defaults(func=cmd_tensor_norm)

    sp = sub.add_parser("envelope", help="p-envelope upper estimate")
    sp.add_argument("--gauge", required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--space", required=True)
    sp.add_argument("--field", required=True)
    sp.add_argument("--budget", type=int, default=64)
    _add_common(sp)
    sp.set_defaults(func=cmd_envelope)

    sp = sub.add_parser("dual", help="dual-pairing lower estimate")
    sp.add_argument("--gauge", required=True)
    sp.add_argument("--space", required=True)
    sp.add_argument("--field", required=True)
    sp.add_argument("--budget", type=int, default=200)
    _add_common(sp)
    sp.set_defaults(func=cmd_dual)

    sp = sub.add_parser("ftc", help="maximal-operator and differentiation report")
    sp.add_argument("--cells", type=int, default=1024)
    sp.add_argument("--d", type=int, default=1)
    sp.add_argument("--field")
    sp.add_argument("--scales", type=_float_list, default=None)
    sp.add_argument("--samples", type=_int_list, default=None)
    _add_common(sp)
    sp.set_defaults(func=cmd_ftc)

    sp = sub.add_parser("suite", help="run one named check battery")
    sp.add_argument("--name", required=True, choices=sorted(_SUITES))
    sp.add_argument("--trials", type=int, default=None)
    sp.add_argument("--budget", type=int, default=None)
    sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--cells", type=int, default=None)
    _add_common(sp)
    sp.set_defaults(func=cmd_suite)

    sp = sub.add_parser("report", help="run every suite and aggregate")
    sp.add_argument("--trials", type=int, default=None)
    sp.add_argument("--budget", type=int, default=None)
    sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--cells", type=int, default=None)
    _add_common(sp)
    sp.set_defaults(func=cmd_report)

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


if __name__ == "__main__":
    sys.exit(main())
