"""The check batteries: one implementation per re-checked claim.

`qnlab suite`, `qnlab report` and the acceptance criteria all run the
functions of `CHECKS`.  Each returns (passed, details): details holds the
measured numbers, the thresholds they were judged against and, when a
threshold is violated, a witness (a qnlab object; the command line
serializes it).

The keyword parameters are the ones the command-line flags carry (trials,
budget, tol, cells, seed); every other size or threshold is a constant of
the check.  `seed` draws a check's instances; the searches inside a check
run at seed 0.
"""
from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

import numpy as np

from .bounds import BoundResult
from .convexity import lattice_constant_probe, leveling_constant_probe, mii_check, mii_sweep
from .galb_tensor import (
    TensorRep,
    galb_gauge_estimate,
    galbs_check,
    i_map,
    i_map_termwise,
    tensor_norm_estimate,
)
from .gauges import Lp, Orlicz, WeakL1, builtin_phi
from .integration import representation_independence_check, rolewicz_counterexample
from .maximal import GridSpace, differentiation_report, series_domination_report, weak11_constant
from .measure import MeasureSpace, ScalarField, counting_space
from .spaces import lq_space, weak_l1_space

Check = Tuple[bool, Dict[str, Any]]


def _probe_entry(br: BoundResult, violated: bool) -> Dict[str, Any]:
    entry: Dict[str, Any] = {"constant": br.value, "violated": violated}
    if violated:
        entry["witness"] = br.witness
    return entry


def counterexample() -> Check:
    """The blow-up family at p = 1/2 against its closed forms, n up to 1024."""
    sizes: Dict[str, Any] = {}
    worst = 0.0
    passed = True
    for n in (4, 16, 64, 256, 1024):
        try:
            rep = rolewicz_counterexample(0.5, n)
        except AssertionError as exc:
            sizes[str(n)] = {"error": str(exc)}
            passed = False
            continue
        sizes[str(n)] = {"sup_part_norm": rep.sup_part_norm, "blowup_ratio": rep.blowup_ratio,
                         "riemann_sum_norm": rep.riemann_sum_norm}
        worst = max(worst,
                    abs(rep.sup_part_norm - 1.0 / n) * n,  # relative to 1/n
                    abs(rep.blowup_ratio - float(n)) / n,
                    abs(rep.riemann_sum_norm - 1.0))
    return passed and worst <= 1e-12, {"p": 0.5, "sizes": sizes, "worst_deviation": worst,
                                       "tolerance": 1e-12}


def orlicz_concavity(trials: int = 200, tol: float = 1e-9, seed: int = 0) -> Check:
    """Superadditivity (lattice 1-concavity) of three Orlicz gauges."""
    # total mass above one, otherwise the bounded rational kernel makes
    # the gauge vanish identically and the check would be vacuous
    space = counting_space(6)
    kernels: Dict[str, Any] = {}
    for name, p in (("loglog", None), ("rational", None), ("power", 0.5)):
        br = lattice_constant_probe(Orlicz(builtin_phi(name, p)), "concave", 1.0, space,
                                    trials=trials, seed=seed)
        kernels[name if p is None else f"{name}({p:g})"] = _probe_entry(br, br.value > 1.0 + tol)
    worst = max(entry["constant"] for entry in kernels.values())
    return worst <= 1.0 + tol, {"kernels": kernels, "max_constant": worst, "trials": trials,
                                "tolerance": tol}


def galb(trials: int = 20, budget: int = 1500, seed: int = 0) -> Check:
    """Galb closed forms on l1^20 and l_{1/2}^20, and loglog galbs weak-l1^32."""
    rng = np.random.default_rng(seed)
    targets = {"banach_l1": (lq_space(20, 1.0), lambda a: float(np.sum(a))),
               "lq_half": (lq_space(20, 0.5), lambda a: float(np.sum(np.sqrt(a)) ** 2))}
    anchors: Dict[str, Any] = {key: {"deviation": -1.0} for key in targets}
    for _ in range(trials):
        a = rng.uniform(0.05, 2.0, size=20)
        a[rng.random(20) < 0.2] = 0.0
        for analytic in (True, False):
            for key, (X, closed_form) in targets.items():
                want = closed_form(a)
                got = galb_gauge_estimate(X, a, budget=budget, seed=0, analytic=analytic).value
                dev = abs(got / want - 1.0)
                if dev > anchors[key]["deviation"]:
                    anchors[key] = {"estimate": got, "expected": want, "deviation": dev}
    worst = max(entry["deviation"] for entry in anchors.values())
    rep = galbs_check(Orlicz(builtin_phi("loglog")), weak_l1_space(32), sizes=(8, 16, 32),
                      trials=trials, seed=seed, budget=budget)
    growth = rep.per_size[32] / rep.per_size[8]
    details: Dict[str, Any] = {
        "per_size": {str(k): v for k, v in rep.per_size.items()},
        "growth_8_to_32": growth,
        "growth_threshold": 1.75,
        "anchors": anchors,
        "anchor_deviation": worst,
        "anchor_tolerance": 1e-6,
        "trials": trials,
        "budget": budget,
    }
    if growth > 1.75:
        details["witness"] = rep.witness_coefficients
    return growth <= 1.75 and worst <= 1e-6, details


def tensor_oracle(trials: int = 20, budget: int = 4000, seed: int = 0) -> Check:
    """The tensor-norm estimate (lam = L1) against the exact Bochner-L1 norm."""
    rng = np.random.default_rng(seed)
    worst_short = 0.0   # estimate below the exact value (soundness breach)
    worst_excess = 0.0  # estimate above the exact value (missed optimum), relative
    witness = None
    for t in range(trials):
        n, d, k = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 5))
        X = lq_space(d, 1.0 if t % 2 else 2.0)
        s = MeasureSpace(rng.uniform(0.3, 1.5, size=n))
        rep = TensorRep(xs=rng.normal(size=(k, d)), fs=rng.normal(size=(k, n)),
                        target=X, lam=Lp(1.0))
        est = tensor_norm_estimate(rep, s, budget=budget, seed=0).value
        exact = float(s.weights @ X.norms(rep.fs.T @ rep.xs))
        short, excess = exact - est, (est - exact) / exact if exact > 0 else 0.0
        worst_short, worst_excess = max(worst_short, short), max(worst_excess, excess)
        if short > 1e-9 or excess > 1e-3:
            witness = rep
    details: Dict[str, Any] = {
        "worst_undershoot": worst_short,
        "worst_relative_excess": worst_excess,
        "soundness_threshold": 1e-9,
        "excess_threshold": 1e-3,
        "trials": trials,
        "budget": budget,
    }
    if witness is not None:
        details["witness"] = witness
    return witness is None, details


def amenability(trials: int = 200, tol: float = 1e-9, seed: int = 0) -> Check:
    """Representation independence of the integral on equal-contraction pairs."""
    rng = np.random.default_rng(seed)
    worst_i = 0.0
    worst_term = 0.0
    witness = None
    for _ in range(trials):
        n, d, k = int(rng.integers(2, 6)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
        X = lq_space(d, float(rng.choice([0.5, 1.0, 2.0])))
        s = MeasureSpace(rng.uniform(0.3, 1.5, size=n))
        xs, fs = rng.normal(size=(k, d)), rng.normal(size=(k, n))
        rep1 = TensorRep(xs=xs, fs=fs, target=X, lam=Lp(1.0))
        # same J: permute the terms, split the first one 0.7 / 0.3, and pad
        # with a term whose field is identically zero
        order = rng.permutation(k)
        xs2 = np.vstack([xs[order], xs[:1] * 0.3, np.ones((1, d))])
        fs2 = np.vstack([fs[order], fs[:1], np.zeros((1, n))])
        fs2[int(np.where(order == 0)[0][0])] = 0.7 * fs[0]
        rep2 = TensorRep(xs=xs2, fs=fs2, target=X, lam=Lp(1.0))
        report = representation_independence_check(rep1, rep2, s, tol=tol)
        dev_i = report.i_discrepancy / s.total_mass
        dev_term = 0.0
        for rep in (rep1, rep2):
            a, b = i_map(rep, s), i_map_termwise(rep, s)
            scale = max(1.0, float(np.max(np.abs(a))))
            dev_term = max(dev_term, float(np.max(np.abs(a - b))) / scale)
        worst_i, worst_term = max(worst_i, dev_i), max(worst_term, dev_term)
        if not (report.comparable and report.passed) or dev_i > tol or dev_term > 1e-12:
            witness = rep1
    details: Dict[str, Any] = {
        "worst_integral_discrepancy": worst_i,
        "worst_termwise_discrepancy": worst_term,
        "tolerance": tol,
        "termwise_tolerance": 1e-12,
        "trials": trials,
    }
    if witness is not None:
        details["witness"] = witness
    return witness is None, details


def mii(trials: int = 200, tol: float = 1e-9, seed: int = 0) -> Check:
    """Mixed-norm interchange: L2(L1) <= L1(L2), its failure on identities,
    and bounded weakL1/loglog ratios."""
    dims = ((4, 4), (8, 8), (16, 16), (32, 32))
    classical = mii_sweep(Lp(2.0), Lp(1.0), dims, trials=trials, seed=seed)
    identity = {str(n): mii_check(Lp(1.0), counting_space(n), Lp(2.0), counting_space(n),
                                  np.eye(n)).ratio for n in (4, 16)}
    pair = (WeakL1(), Orlicz(builtin_phi("loglog")))
    grown = mii_sweep(*pair, ((8, 8), (32, 32)), trials=200, seed=seed)
    bounded = classical.max_ratio <= 1.0 + tol
    details: Dict[str, Any] = {
        "pair": [Lp(2.0).label(), Lp(1.0).label()],
        "per_dim": {f"{m}x{n}": v for (m, n), v in classical.per_dim.items()},
        "max_ratio": classical.max_ratio,
        "threshold": 1.0 + tol,
        "trials": trials,
        "identity_ratios": identity,
        "growth": {"pair": [g.label() for g in pair],
                   "per_dim": {f"{m}x{n}": v for (m, n), v in grown.per_dim.items()},
                   "factor_bound": 2.0},
    }
    if not bounded:
        details["witness"] = classical.witness
    passed = (bounded and all(r >= np.sqrt(int(n)) / 2.0 for n, r in identity.items())
              and grown.per_dim[(32, 32)] <= 2.0 * grown.per_dim[(8, 8)])
    return passed, details


def leveling(trials: int = 500, tol: float = 1e-9, seed: int = 0) -> Check:
    """Conditional expectation contracts L1 and L2 but blows L_{1/2} up by n."""
    space = counting_space(8)
    gauges: Dict[str, Any] = {}
    for g in (Lp(1.0), Lp(2.0)):
        br = leveling_constant_probe(g, space, trials=trials, seed=seed)
        gauges[g.label()] = _probe_entry(br, br.value > 1.0 + tol)
    br = leveling_constant_probe(Lp(0.5), space, trials=trials, seed=seed)
    gauges[Lp(0.5).label()] = {**_probe_entry(br, br.value < 8.0 - 1e-6),
                               "judged": True, "lower_bound": 8.0 - 1e-6}
    passed = not any(entry["violated"] for entry in gauges.values())
    return passed, {"gauges": gauges, "trials": trials, "tolerance": tol}


def ftc(trials: int = 10, cells: int = 1024, seed: int = 0) -> Check:
    """Exact differentiation, the weak-(1,1) ratio of a point mass, and
    termwise domination of the vector maximal field on `trials` series."""
    # a half indicator at 256 cells, at every scale below 1/8, sampled at
    # every cell at least 1/8 + one cell from the jump
    N = 256
    samples = [i for i in range(N) if abs((i + 0.5) / N - 0.5) >= 0.125 + 1.0 / N]
    scales = [0.1, 0.0625, 0.03, 0.015625, 1.0 / 256.0, 1.0 / 512.0]
    diff = differentiation_report(GridSpace(1, N),
                                  ScalarField((np.arange(N) < N // 2).astype(float)),
                                  samples, scales)
    line = GridSpace(1, cells)  # refuses fewer than two cells
    point = np.zeros(cells)
    point[cells // 2] = 1.0
    w11 = weak11_constant(line, point)
    rng = np.random.default_rng(seed)
    worst_gap = -np.inf
    for t in range(trials):
        Ng = int(rng.choice([8, 16]))
        grid = GridSpace(int(rng.integers(1, 3)), Ng)
        k, dim = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        X, lam = ((lq_space(dim, 1.0), Lp(1.0)), (lq_space(dim, 2.0), Lp(1.0)),
                  (lq_space(dim, 0.5), Lp(0.5)))[t % 3]
        rep = TensorRep(xs=rng.normal(size=(k, dim)), fs=rng.normal(size=(k, grid.n_atoms)),
                        target=X, lam=lam)
        worst_gap = max(worst_gap, series_domination_report(rep, grid).max_gap)
    passed = diff.max_error == 0.0 and 1.8 <= w11.constant <= 2.2 and worst_gap <= 1e-9
    return passed, {
        "differentiation_max_error": diff.max_error,
        "differentiation_samples": len(samples),
        "differentiation_scales": scales,
        "weak11_constant": w11.constant,
        "weak11_range": [1.8, 2.2],
        "domination_max_gap": worst_gap,
        "domination_tolerance": 1e-9,
        "cells": cells,
        "trials": trials,
    }


CHECKS: Dict[str, Callable[..., Check]] = {
    "amenability": amenability,
    "counterexample": counterexample,
    "ftc": ftc,
    "galb": galb,
    "leveling": leveling,
    "mii": mii,
    "orlicz-concavity": orlicz_concavity,
    "tensor-oracle": tensor_oracle,
}
