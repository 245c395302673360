"""tensor-galb: tensor quasi-norm and galb estimates over several targets.

These are budget-bound Python loops over tiny arrays with little Orlicz
work, so certified early stopping and batched candidate evaluation show
here.  Half of the tensor instances are certifiable by the Bochner bound
(lam = L1 with a Banach target) and half are not: the uncertified half
shows whether stopping costs the searches that must still run.
"""
from __future__ import annotations

import math
from typing import List

import numpy as np

import qnlab as q

from . import refs
from .ops import (Op, bochner, cli_op, close, contraction, dumps, expect, rep_cost,
                  sub_seed)

NAME = "tensor-galb"
TENSORS = 52
GALB_PER_TARGET = 10
GALB_DIM = 8


def _budget(base: float, i: int) -> int:
    """Budgets grow geometrically over the instances, so op times form a
    continuous range with no gap at the median or the 90th percentile."""
    return int(round(base * 1.06 ** i))


# (label, constructor, reference kind, exponent)
TARGETS = {
    "l0.5": (lambda d: q.lq_space(d, 0.5), "lq", 0.5),
    "l1": (lambda d: q.lq_space(d, 1.0), "lq", 1.0),
    "l2": (lambda d: q.lq_space(d, 2.0), "lq", 2.0),
    "weak": (lambda d: q.weak_l1_space(d), "weak", 1.0),
}
LAMS = {
    "L1": (lambda: q.Lp(1.0), refs.RefGauge("lp", 1.0)),
    "L0.5": (lambda: q.Lp(0.5), refs.RefGauge("lp", 0.5)),
    "weakL1": (lambda: q.WeakL1(), refs.RefGauge("weak")),
}
CERTIFIABLE = (("L1", "l1"), ("L1", "l2"))
UNCERTIFIED = (("L0.5", "l1"), ("weakL1", "l2"), ("L1", "l0.5"), ("L1", "weak"),
               ("L0.5", "l0.5"), ("weakL1", "weak"), ("L0.5", "l2"), ("weakL1", "l1"),
               ("L0.5", "weak"), ("weakL1", "l0.5"))


def _tensor_instance(rng, lam_label, t_label, n, d, k):
    make_x, tkind, tq = TARGETS[t_label]
    make_lam, lam_ref = LAMS[lam_label]
    space = q.MeasureSpace(rng.uniform(0.3, 1.5, size=n))
    xs, fs = rng.standard_normal((k, d)), rng.standard_normal((k, n))
    rep = q.TensorRep(xs=xs, fs=fs, target=make_x(d), lam=make_lam())
    return space, xs, fs, rep, lam_ref, tkind, tq


def _tensor_check(space, xs, fs, lam_ref, tkind, tq, certifiable):
    w = space.weights
    jm = contraction(xs, fs)
    jscale = float(np.max(np.abs(jm), initial=0.0))
    input_cost = rep_cost(xs, fs, w, lam_ref, tkind, tq)

    def check(value, wxs, wfs) -> None:
        drift = float(np.max(np.abs(contraction(wxs, wfs) - jm), initial=0.0))
        expect(drift <= 1e-9 * max(1.0, jscale), f"witness moved J by {drift:.3g}")
        close(value, rep_cost(wxs, wfs, w, lam_ref, tkind, tq), 1e-9, "witness cost")
        expect(value <= input_cost * (1 + 1e-12), "estimate above the input representation's cost")
        if certifiable:
            exact = bochner(xs, fs, w, tkind, tq)
            expect(value >= exact - 1e-9 * max(1.0, exact),
                   f"estimate {value!r} below the Bochner value {exact!r}")

    return check


def _galb_check(a, tkind, tq, dim):
    total = math.fsum(a.tolist())

    def check(value, coeffs, vecs) -> None:
        expect(np.array_equal(np.asarray(coeffs), np.abs(a)), "witness coefficients reordered")
        norms = refs.vec_norms(vecs, tkind, tq)
        expect(float(np.max(norms)) <= 1.0 + 1e-12, "witness vector outside the unit ball")
        close(value, refs.vec_norm(np.asarray(coeffs) @ vecs, tkind, tq), 1e-12,
              "witness value")
        if tkind == "lq" and tq <= 1.0:
            want = math.fsum((a ** tq).tolist()) ** (1.0 / tq)
            close(value, want, 1e-6, f"galb on l{tq:g}")
        elif tkind == "lq":
            close(value, total, 1e-6, "galb on a Banach target")
            expect(value <= total * (1 + 1e-12), "galb above sum a")
        else:
            harmonic = sum(1.0 / k for k in range(1, dim + 1))
            expect(total * (1 - 1e-12) <= value <= harmonic * total * (1 + 1e-12),
                   "weak-l1 galb outside [sum a, H_d sum a]")

    return check


def build(seed: int) -> List[Op]:
    rng = np.random.default_rng([seed, 2])
    ops: List[Op] = []
    for i in range(TENSORS):
        certifiable = i % 2 == 0
        lam_label, t_label = (CERTIFIABLE[(i // 2) % 2] if certifiable
                              else UNCERTIFIED[(i // 2) % len(UNCERTIFIED)])
        n, d, k = 2 + i % 3, 2 + (i // 2) % 2, 2 + (i // 4) % 3
        space, xs, fs, rep, lam_ref, tkind, tq = _tensor_instance(rng, lam_label, t_label, n, d, k)
        verify = _tensor_check(space, xs, fs, lam_ref, tkind, tq, certifiable)
        s = sub_seed(rng)
        ops.append(Op(f"tensor-{i}-{lam_label}-{t_label}", "tensor",
                      lambda rep=rep, space=space, s=s, b=_budget(6, i):
                      q.tensor_norm_estimate(rep, space, budget=b, seed=s),
                      lambda res, verify=verify: verify(res.value, res.witness.xs,
                                                        res.witness.fs)))
    for t_label, (make_x, tkind, tq) in TARGETS.items():
        for i in range(GALB_PER_TARGET):
            nco = 3 + i % (GALB_DIM - 2)
            a = rng.uniform(0.05, 2.0, size=nco)
            a[rng.random(nco) < 0.2] = 0.0
            a[0] = max(a[0], 0.05)
            X = make_x(GALB_DIM)
            verify = _galb_check(a, tkind, tq, GALB_DIM)
            s = sub_seed(rng)
            ops.append(Op(f"galb-{t_label}-{i}", "galb",
                          lambda X=X, a=a, s=s, b=_budget(20, 4 * i): q.galb_gauge_estimate(
                              X, a, budget=b, seed=s, analytic=False),
                          lambda res, verify=verify: verify(
                              res.value, res.witness.coefficients, res.witness.vectors)))
    ops.extend(_galbs_ops(rng))
    ops.extend(_touch_ops(rng))
    return ops


def _galbs_ops(rng) -> List[Op]:
    """galbs_check sweeps: the largest galb_X(a) / lam(a) over seeded shapes."""
    loglog = q.builtin_phi("loglog")
    cases = (("loglog-weak", lambda: q.Orlicz(loglog), refs.RefGauge("lux", phi=loglog), "weak"),
             ("L0.5-l2", lambda: q.Lp(0.5), refs.RefGauge("lp", 0.5), "l2"),
             ("weakL1-l0.5", lambda: q.WeakL1(), refs.RefGauge("weak"), "l0.5"))
    out = []
    for label, make_lam, lam_ref, t_label in cases:
        make_x, tkind, tq = TARGETS[t_label]
        for i in range(3):
            lam, X, s = make_lam(), make_x(GALB_DIM), sub_seed(rng)

            def check(rep, lam_ref=lam_ref, tkind=tkind, tq=tq) -> None:
                expect(rep.max_ratio == max(rep.per_size.values()),
                       "max_ratio is not the per-size max")
                a = np.asarray(rep.witness_coefficients)
                la = lam_ref(a, np.ones(a.size))
                total = math.fsum(a.tolist())
                if tkind == "weak":
                    harmonic = sum(1.0 / k for k in range(1, GALB_DIM + 1))
                    lo, hi = total / la, harmonic * total / la
                elif tq <= 1.0:
                    lo = hi = math.fsum((a ** tq).tolist()) ** (1.0 / tq) / la
                else:
                    lo = hi = total / la
                expect(lo * (1 - 1e-9) <= rep.max_ratio <= hi * (1 + 1e-9),
                       f"galb ratio {rep.max_ratio!r} outside [{lo!r}, {hi!r}]")

            out.append(Op(f"galbs-{label}-{i}", "galbs",
                          lambda lam=lam, X=X, s=s: q.galbs_check(
                              lam, X, sizes=(4,), trials=4, seed=s, budget=40), check))
    return out


def _touch_ops(rng) -> List[Op]:
    """Tensor representations through integration, maximal, the cost gauge and the cli."""
    out: List[Op] = []
    # integration: contraction plus certificate, and representation independence
    space, xs, fs, rep, lam_ref, tkind, tq = _tensor_instance(rng, "L0.5", "l0.5", 6, 3, 4)

    def check_series(res) -> None:
        want = contraction(xs, fs).T @ space.weights
        expect(float(np.max(np.abs(res.value - want))) <= 1e-12 * max(1.0, float(np.max(np.abs(want)))),
               "series integral")
        close(res.certificate.value, rep_cost(xs, fs, space.weights, lam_ref, tkind, tq), 1e-9,
              "certificate")

    out.append(Op("integrate-series", "integrate", lambda: q.integrate_series(rep, space),
                  check_series))
    perm = rng.permutation(xs.shape[0])
    xs2 = np.vstack([xs[perm], xs[:1]])
    fs2 = np.vstack([fs[perm], 0.25 * fs[:1]])
    fs2[int(np.argmax(perm == 0))] = 0.75 * fs[0]
    rep2 = rep.with_arrays(xs2, fs2)

    def check_indep(res) -> None:
        expect(res.comparable and res.passed, "equal-contraction pair judged different")
        expect(res.i_discrepancy <= 1e-9 * space.total_mass, "integrals differ")

    out.append(Op("independence", "integrate",
                  lambda: q.representation_independence_check(rep, rep2, space), check_indep))

    # the weak-(1,1) ratio of a representation on a 32-cell grid
    grid = q.GridSpace(1, 32)
    gw = np.full(32, 1.0 / 32)
    txs, tfs = rng.standard_normal((3, 2)), rng.standard_normal((3, 32))
    trep = q.TensorRep(xs=txs, fs=tfs, target=q.lq_space(2, 1.0), lam=q.Lp(1.0))

    def check_weak11(res) -> None:
        mvec = refs.maximal_brute(contraction(txs, tfs), 32, 1, refs.dyadic_scales(32),
                                  "lq", 1.0)
        close(res.weak_norm, float(refs.weak_rows(mvec, gw)[0]), 1e-9, "weak norm of M")
        close(res.input_size, rep_cost(txs, tfs, gw, refs.RefGauge("lp", 1.0), "lq", 1.0),
              1e-9, "representation cost")
        close(res.constant, res.weak_norm / res.input_size, 1e-15, "ratio")

    out.append(Op("weak11-tensor", "weak11", lambda: q.weak11_constant(grid, trep),
                  check_weak11))

    # the cost gauges' modulus of concavity and p-envelope
    for label in ("L0.5", "weakL1"):
        make_lam, ref = LAMS[label]
        lam, sp, s = make_lam(), q.counting_space(4), sub_seed(rng)

        def check_kappa(res, ref=ref) -> None:
            a, b = (np.asarray(x.values) for x in res.witness)
            w = np.ones(a.size)
            close(res.value, ref(a + b, w) / (ref(a, w) + ref(b, w)), 1e-9, "witness ratio")
            expect(1.0 - 1e-12 <= res.value <= 2.0 * (1 + 1e-9), "modulus outside [1, kappa]")

        out.append(Op(f"cost-kappa-{label}", "cost-kappa",
                      lambda lam=lam, sp=sp, s=s: q.concavity_modulus_probe(
                          lam, sp, trials=150, seed=s), check_kappa))
        prof = q.ScalarField(rng.uniform(0.1, 2.0, size=4))

        def check_env(res, ref=ref, prof=prof) -> None:
            parts = np.array([x.values for x in res.witness.parts])
            expect(float(np.max(np.abs(parts.sum(axis=0) - prof.values))) <= 1e-12 * 2.0,
                   "parts do not sum to the profile")
            w = np.ones(4)
            close(res.value, sum(ref(r, w) ** 0.5 for r in parts) ** 2.0, 1e-9,
                  "decomposition value")

        out.append(Op(f"cost-envelope-{label}", "cost-envelope",
                      lambda lam=lam, sp=sp, prof=prof, s=s: q.p_envelope(
                          lam, q.aoki_exponent(lam.kappa), sp, prof, budget=10, seed=s,
                          short_circuit=False), check_env))

    # the cli front ends of both estimators
    for fmt in ("json", "csv"):
        c_space, c_xs, c_fs, _, c_ref, c_kind, c_q = _tensor_instance(rng, "L1", "l2", 3, 2, 3)
        verify = _tensor_check(c_space, c_xs, c_fs, c_ref, c_kind, c_q, True)
        rep_json = dumps({"xs": c_xs, "fs": c_fs, "target": {"kind": "lq", "dim": 2, "q": 2},
                          "lam": {"kind": "lp", "p": 1}})

        def check_tensor(doc, verify=verify) -> None:
            verify(doc.num("value"), doc.array("witness.xs"), doc.array("witness.fs"))

        out.append(cli_op(f"cli-tensor-norm-{fmt}", "cli",
                          ["tensor-norm", "--rep", rep_json, "--space",
                           dumps({"weights": c_space.weights}), "--budget", "20",
                           "--seed", str(sub_seed(rng))], fmt, check_tensor, NAME))
        a = rng.uniform(0.05, 2.0, size=6)
        verify_g = _galb_check(a, "lq", 0.5, GALB_DIM)

        def check_galb(doc, verify_g=verify_g) -> None:
            verify_g(doc.num("value"), doc.array("witness.coefficients"),
                     doc.array("witness.vectors"))

        out.append(cli_op(f"cli-galb-{fmt}", "cli",
                          ["galb-estimate", "--target", dumps({"kind": "lq", "dim": GALB_DIM,
                                                                "q": 0.5}),
                           "--coefficients", dumps(a), "--budget", "60", "--no-analytic",
                           "--seed", str(sub_seed(rng))], fmt, check_galb, NAME))
    return out
