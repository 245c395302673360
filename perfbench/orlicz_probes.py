"""orlicz-probes: the convexity and gauge searches over Orlicz gauges.

Most of the time here goes to one-row Luxemburg bisections called from
Python loops, so both a batch-first search core and a faster Luxemburg
solver act on this workload.  concavity_modulus_probe is already batched
and serves as the control.
"""
from __future__ import annotations

from typing import List

import numpy as np

import qnlab as q

from . import refs
from .ops import (Op, cli_op, close, contraction, dumps, expect, family_rows, rep_cost,
                  sub_seed)

NAME = "orlicz-probes"
KERNELS = (("loglog", None), ("rational", None), ("power", 0.5))
# Each op is small (a few Luxemburg solves) so that a run holds many rounds;
# trials and budgets alternate between instances so that op times spread.
REPEATS = 6            # instances per (probe, kernel)
LEVELING_EXTRA = 1     # random (f, P) pairs after the n spikes and the flat field
CONCAVITY_TRIALS = 10
INTERSECT_ROWS = 1
MII_REPEATS = 6
TENSOR_BUDGETS = (2, 4)   # rotations of the loglog-cost tensor searches
ATOMS = 2              # atoms of the leveling, envelope and dual instances


def _gauges(name, p):
    phi = q.builtin_phi(name, p)
    return q.Orlicz(phi), refs.RefGauge("lux", phi=phi)


def _lattice(g, ref, space, seed, trials) -> Op:
    w = np.ones(len(space))

    def check(res) -> None:
        expect(res.tag is q.Tag.LOWER, "tag is not LOWER")
        expect(res.value <= 1.0 + 1e-9, f"concave lattice constant {res.value!r} > 1 + 1e-9")
        fam = family_rows(res.witness)
        ratio = sum(ref(f, w) for f in fam) / ref(fam.sum(axis=0), w)
        close(res.value, ratio, 1e-9, "witness ratio")

    return Op("", "lattice", lambda: q.lattice_constant_probe(
        g, "concave", 1.0, space, trials=trials, seed=seed), check)


def _leveling(g, ref, space, seed, banach: bool) -> Op:
    w = space.weights

    def check(res) -> None:
        f, part = res.witness
        fv = np.asarray(f.values)
        ratio = ref(refs.block_means(fv, w, part.blocks), w) / ref(fv, w)
        close(res.value, ratio, 1e-9, "witness ratio")
        if banach:
            expect(res.value <= 1.0 + 1e-9, f"Banach leveling {res.value!r} > 1 + 1e-9")

    n = len(space)
    return Op("", "leveling", lambda: q.leveling_constant_probe(
        g, space, trials=n + 1 + LEVELING_EXTRA, seed=seed), check)


def _envelope(g, ref, space, f, seed, budget) -> Op:
    w = space.weights
    p = 0.5

    def check(res) -> None:
        parts = family_rows(res.witness.parts)
        expect(bool(np.all(parts >= 0)), "negative part")
        scale = float(np.max(f.values))
        expect(float(np.max(np.abs(parts.sum(axis=0) - f.values))) <= 1e-12 * scale,
               "parts do not sum to f")
        val = sum(ref(r, w) ** p for r in parts) ** (1.0 / p)
        close(res.value, val, 1e-9, "decomposition value")
        expect(res.value <= ref(f.values, w) * (1 + 1e-9), "envelope above the gauge")

    return Op("", "envelope", lambda: q.p_envelope(g, p, space, f, budget=budget, seed=seed),
              check)


def _dual_checks(value: float, u: np.ndarray, f: np.ndarray, w: np.ndarray, ref) -> None:
    expect(bool(np.all(u >= 0)), "negative dual witness")
    expect(ref(u, w) <= 1.0 + 1e-12, f"dual witness gauge {ref(u, w)!r} > 1 + 1e-12")
    close(value, float(np.sum(w * f * u)), 1e-12, "dual pairing")
    # a spike of gauge 0 (a bounded kernel on a light atom) gives no finite bound
    spike_gauges = [(k, ref(np.eye(f.size)[k], w)) for k in range(f.size)]
    spikes = max((w[k] * f[k] / gk for k, gk in spike_gauges if gk > 0), default=0.0)
    expect(value >= spikes * (1 - 1e-9), "dual value below the best single-atom pairing")


def _dual(g, ref, space, f, seed, budget) -> Op:
    def check(res) -> None:
        _dual_checks(res.value, np.asarray(res.witness.values), f.values, space.weights, ref)

    return Op("", "dual", lambda: q.dual_gauge(g, space, f, budget=budget, seed=seed), check)


def _concavity(g, ref, space, seed, kappa) -> Op:
    w = space.weights

    def check(res) -> None:
        a, b = (np.asarray(x.values) for x in res.witness)
        close(res.value, ref(a + b, w) / (ref(a, w) + ref(b, w)), 1e-9, "witness ratio")
        expect(res.value >= 1.0 - 1e-12, "modulus probe below 1")
        if kappa is not None:
            expect(res.value <= kappa * (1 + 1e-9), f"probe {res.value!r} above kappa {kappa}")

    return Op("", "concavity", lambda: q.concavity_modulus_probe(
        g, space, trials=CONCAVITY_TRIALS, seed=seed), check)


def _mii(ga, ra, gb, rb, dims, seed, bounded: bool) -> Op:
    def check(rep) -> None:
        expect(rep.max_ratio == max(rep.per_dim.values()), "max_ratio is not the per-dim max")
        m, n = rep.witness_shape
        mat = np.asarray(rep.witness)
        inner_b = np.array([rb(row, np.ones(n)) for row in mat])
        inner_a = np.array([ra(col, np.ones(m)) for col in mat.T])
        ratio = ra(inner_b, np.ones(m)) / rb(inner_a, np.ones(n))
        close(rep.max_ratio, ratio, 1e-9, "witness ratio")
        if bounded:
            expect(rep.max_ratio <= 1.0 + 1e-9, f"interchange ratio {rep.max_ratio!r} > 1")

    return Op("", "mii", lambda: q.mii_sweep(ga, gb, dims, trials=1, seed=seed), check)


def build(seed: int) -> List[Op]:
    rng = np.random.default_rng([seed, 1])
    ops: List[Op] = []

    def add(name: str, op: Op) -> None:
        op.name = name
        ops.append(op)

    kernels = [(f"{n}{'' if p is None else p}", *_gauges(n, p)) for n, p in KERNELS]
    for label, g, ref in kernels:
        for i in range(REPEATS):
            add(f"lattice-{label}-{i}",
                _lattice(g, ref, q.counting_space(6), sub_seed(rng), 1 + i % 2))
    power2 = ("power2", *_gauges("power", 2.0))
    for label, g, ref in kernels + [power2]:
        for i in range(2):
            add(f"leveling-{label}-{i}",
                _leveling(g, ref, q.counting_space(ATOMS), sub_seed(rng), label == "power2"))
    for i in range(MII_REPEATS):
        add(f"mii-power2-l1-{i}", _mii(power2[1], power2[2], q.Lp(1.0),
                                       refs.RefGauge("lp", 1.0), [(2, 2)], sub_seed(rng), True))
        add(f"mii-weak-loglog-{i}", _mii(q.WeakL1(), refs.RefGauge("weak"), kernels[0][1],
                                         kernels[0][2], [(2, 2)], sub_seed(rng), False))
    for label, g, ref in kernels:
        for i in range(REPEATS):
            space = q.MeasureSpace(rng.uniform(1.0, 2.0, size=ATOMS))
            f = q.ScalarField(rng.uniform(0.05, 1.0, size=ATOMS) * 10.0 ** rng.integers(-200, 201))
            add(f"envelope-{label}-{i}", _envelope(g, ref, space, f, sub_seed(rng), i % 2))
    for label, g, ref in kernels:
        for i in range(REPEATS):
            space = q.MeasureSpace(rng.uniform(1.0, 2.0, size=ATOMS))
            f = q.ScalarField(rng.uniform(0.05, 1.0, size=ATOMS) * 10.0 ** rng.integers(-200, 201))
            add(f"dual-{label}-{i}", _dual(g, ref, space, f, sub_seed(rng), i % 2))
    for label, g, ref in kernels:
        kappa = 2.0 if label == "power0.5" else None
        for i in range(REPEATS):
            add(f"concavity-{label}-{i}",
                _concavity(g, ref, q.counting_space(6), sub_seed(rng), kappa))
    ops.extend(_intersect_ops(rng, kernels[0]))
    for i, budget in enumerate(TENSOR_BUDGETS):
        add(f"tensor-loglog-{i}", _tensor(rng, kernels[0], budget))
    ops.extend(_touch_ops(rng, kernels[0]))
    return ops


def _tensor(rng, loglog, budget) -> Op:
    """tensor_norm_estimate with an Orlicz cost gauge: every candidate is priced by
    Luxemburg solves.  The witness must keep J, re-price to the value, and not
    cost more than the input representation."""
    _, lam, lam_ref = loglog
    space = q.MeasureSpace(rng.uniform(0.5, 2.0, size=3))
    xs, fs = rng.standard_normal((2, 2)), rng.standard_normal((2, 3))
    rep = q.TensorRep(xs=xs, fs=fs, target=q.lq_space(2, 1.0), lam=lam)
    w = space.weights
    jm = contraction(xs, fs)
    jscale = max(1.0, float(np.max(np.abs(jm))))
    input_cost = rep_cost(xs, fs, w, lam_ref, "lq", 1.0)
    seed = sub_seed(rng)

    def check(res) -> None:
        wxs, wfs = res.witness.xs, res.witness.fs
        drift = float(np.max(np.abs(contraction(wxs, wfs) - jm), initial=0.0))
        expect(drift <= 1e-9 * jscale, f"witness moved J by {drift:.3g}")
        close(res.value, rep_cost(wxs, wfs, w, lam_ref, "lq", 1.0), 1e-9, "witness cost")
        expect(res.value <= input_cost * (1 + 1e-12),
               "estimate above the input representation's cost")

    return Op("", "tensor", lambda: q.tensor_norm_estimate(rep, space, budget=budget, seed=seed),
              check)


def _intersect_ops(rng, loglog) -> List[Op]:
    """Lp(0.5) ^ Orlicz(loglog): rows through gauge_values_rows, and eval_gauge witnesses."""
    _, g2, r2 = loglog
    g1, r1 = q.Lp(0.5), refs.RefGauge("lp", 0.5)
    out = []
    for i in range(INTERSECT_ROWS):
        space = q.counting_space(2)
        rows = rng.uniform(0.05, 1.0, size=(1, 2)) * 10.0 ** rng.integers(-200, 201)
        gauge = q.Intersect(g1, g2, budget=1)
        w = space.weights

        def check_rows(vals, rows=rows, w=w) -> None:
            for v, r in zip(vals, rows):
                cap = min(r1(r, w), r2(r, w))
                expect(0 < v <= cap * (1 + 1e-9), f"intersection {v!r} above min gauge {cap!r}")

        out.append(Op(f"intersect-rows-{i}", "intersect-rows",
                      lambda gauge=gauge, space=space, rows=rows:
                      q.gauge_values_rows(gauge, space, rows), check_rows))

        f = q.ScalarField(rng.uniform(0.05, 1.0, size=2) * 10.0 ** rng.integers(-200, 201))

        def check_eval(res, f=f, w=w) -> None:
            u, v = (np.asarray(x.values) for x in res.witness)
            expect(bool(np.all(u >= 0) and np.all(v >= 0)), "negative split")
            expect(float(np.max(np.abs(u + v - f.values))) <= 1e-12 * float(np.max(f.values)),
                   "split does not sum to f")
            close(res.value, r1(u, w) + r2(v, w), 1e-9, "split value")
            expect(res.value <= min(r1(f.values, w), r2(f.values, w)) * (1 + 1e-9),
                   "intersection above min gauge")

        out.append(Op(f"intersect-eval-{i}", "intersect-eval",
                      lambda gauge=gauge, space=space, f=f: q.eval_gauge(gauge, space, f),
                      check_eval))
    return out


def _touch_ops(rng, loglog) -> List[Op]:
    """Orlicz gauges through the cli, integration, galb and maximal layers."""
    _, lam, lam_ref = loglog
    out: List[Op] = []
    gauge_json = dumps({"kind": "orlicz", "phi": "loglog"})
    for fmt in ("json", "csv"):
        wts = rng.uniform(0.5, 2.0, size=ATOMS)
        vals = rng.uniform(0.05, 1.0, size=ATOMS)
        common = ["--gauge", gauge_json, "--space", dumps({"weights": wts}),
                  "--field", dumps({"values": vals})]

        def check_eval(doc, wts=wts, vals=vals) -> None:
            close(doc.num("value"), lam_ref(vals, wts), 1e-10, "cli eval value")

        def check_env(doc, wts=wts, vals=vals) -> None:
            parts = []
            while doc.has(f"witness.parts.{len(parts)}.values.0"):
                parts.append(doc.array(f"witness.parts.{len(parts)}.values"))
            parts = np.array(parts)
            expect(float(np.max(np.abs(parts.sum(axis=0) - vals))) <= 1e-12, "parts do not sum")
            close(doc.num("value"), sum(lam_ref(r, wts) ** 0.5 for r in parts) ** 2, 1e-9,
                  "cli envelope value")

        def check_dual(doc, wts=wts, vals=vals) -> None:
            _dual_checks(doc.num("value"), doc.array("witness.values"), vals, wts, lam_ref)

        out.append(cli_op(f"cli-eval-{fmt}", "cli", ["eval"] + common, fmt, check_eval, NAME))
        out.append(cli_op(f"cli-envelope-{fmt}", "cli",
                          ["envelope", "--p", "0.5", "--budget", "2", "--seed",
                           str(sub_seed(rng))] + common, fmt, check_env, NAME))
        out.append(cli_op(f"cli-dual-{fmt}", "cli",
                          ["dual", "--budget", "2", "--seed", str(sub_seed(rng))] + common,
                          fmt, check_dual, NAME))

    # a series with an Orlicz cost gauge: contraction plus certificate
    X = q.lq_space(3, 1.0)
    space = q.MeasureSpace(rng.uniform(0.5, 2.0, size=6))
    xs, fs = rng.standard_normal((4, 3)), rng.standard_normal((4, 6))
    rep = q.TensorRep(xs=xs, fs=fs, target=X, lam=lam)

    def check_series(res) -> None:
        want = contraction(xs, fs).T @ space.weights
        expect(float(np.max(np.abs(res.value - want))) <= 1e-12 * max(1.0, float(np.max(np.abs(want)))),
               "series integral")
        close(res.certificate.value, rep_cost(xs, fs, space.weights, lam_ref, "lq", 1.0), 1e-9,
              "certificate")

    out.append(Op("integrate-series-loglog", "integrate", lambda: q.integrate_series(rep, space),
                  check_series))

    # loglog as the dominating gauge of a weak-l1 target (the galb suite's pair)
    target = q.weak_l1_space(8)
    harmonic = sum(1.0 / k for k in range(1, 9))
    gseed = sub_seed(rng)

    def check_galbs(rep_) -> None:
        expect(rep_.max_ratio == max(rep_.per_size.values()), "max_ratio is not the per-size max")
        a = np.asarray(rep_.witness_coefficients)
        base = float(np.sum(a)) / lam_ref(a, np.ones(a.size))
        expect(base * (1 - 1e-9) <= rep_.max_ratio <= harmonic * base * (1 + 1e-9),
               "galb ratio outside [sum a, H_8 sum a] / lam(a)")

    out.append(Op("galbs-loglog-weak", "galbs", lambda: q.galbs_check(
        lam, target, sizes=(4,), trials=4, seed=gseed, budget=40), check_galbs))

    # series domination with the loglog gauge (loglog >= L1 on counting measure)
    grid = q.GridSpace(1, 16)
    Xd = q.lq_space(2, 1.0)
    dxs, dfs = rng.standard_normal((3, 2)), rng.standard_normal((3, 16))
    drep = q.TensorRep(xs=dxs, fs=dfs, target=Xd, lam=lam)

    def check_dom(res) -> None:
        scales = refs.dyadic_scales(16)
        mvec = refs.maximal_brute(contraction(dxs, dfs), 16, 1, scales,
                                  "lq", 1.0)
        cols = np.stack([refs.vec_norm(x, "lq", 1.0) * refs.maximal_brute(f, 16, 1, scales)
                         for x, f in zip(dxs, dfs)], axis=1)
        dom = np.array([lam_ref(r, np.ones(3)) for r in cols])
        scale = max(1.0, float(np.max(dom)))
        expect(res.max_gap <= 1e-9 * scale, f"domination gap {res.max_gap!r}")
        expect(abs(res.max_gap - float(np.max(mvec - dom))) <= 1e-9 * scale,
               "domination gap differs from the enumeration")
        close(res.maximal_at_argmax, mvec[res.argmax_cell], 1e-9, "maximal at argmax")

    out.append(Op("domination-loglog", "domination",
                  lambda: q.series_domination_report(drep, grid), check_dom))
    return out
