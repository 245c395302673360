"""kernel-bulk: the already vectorized gauge, norm and maximal kernels.

The search refactors bypass this path, so their predicted effect here is
none; kernel changes (range-safe scaling, the Luxemburg solver, one
weak-L1 kernel) land here, and any per-row cost they add shows.  Rows
spread over magnitudes up to 1e+-300: each kernel gets the widest range
in which its current powers stay finite and normal (see README.md).
"""
from __future__ import annotations

from typing import List

import numpy as np

import qnlab as q

from . import refs
from .ops import (Op, bochner, cli_op, close, contraction, dumps, expect, homogeneity_ok,
                  sample_rows, spread_rows, sub_seed)

NAME = "kernel-bulk"
# (m, n, counting weights?).  The closed-form kernels cost about a hundredth
# of a Luxemburg solve per row, so they get eight times the rows: op times
# then fill the range between the two groups instead of leaving a gap.
ORLICZ_SHAPES = ((1, 8, True), (64, 16, False), (16, 128, True), (1000, 6, False),
                 (500, 64, True), (2000, 8, False))
CLOSED_SHAPES = ((1, 8, True), (512, 16, False), (128, 128, True), (8000, 6, False),
                 (4000, 64, True), (16000, 8, False))
BRENTQ_ROWS = 12   # rows per Orlicz op re-solved by brentq; all rows get the bracket check


def _kernels():
    """(label, gauge, reference, magnitude exponent bound, Luxemburg phi or None)."""
    loglog, rational, half = (q.builtin_phi("loglog"), q.builtin_phi("rational"),
                              q.builtin_phi("power", 0.5))
    lp = lambda p: refs.RefGauge("lp", p)  # noqa: E731
    return (
        ("L0.5", q.Lp(0.5), lp(0.5), 300, None),
        ("L1", q.Lp(1.0), lp(1.0), 300, None),
        ("L2", q.Lp(2.0), lp(2.0), 150, None),
        ("L3", q.Lp(3.0), lp(3.0), 100, None),
        ("weakL1", q.WeakL1(), refs.RefGauge("weak"), 300, None),
        ("loglog", q.Orlicz(loglog), refs.RefGauge("lux", phi=loglog), 300, loglog),
        ("rational", q.Orlicz(rational), refs.RefGauge("lux", phi=rational), 300, rational),
        ("power0.5", q.Orlicz(half), refs.RefGauge("lux", phi=half), 300, half),
        ("conv-L0.5-2", q.convexify(q.Lp(0.5), 2.0),
         refs.RefGauge("convexified", base=lp(0.5), r=2.0), 150, None),
    )


def _rows_check(ref, phi, rows, w):
    def check(vals) -> None:
        vals = np.asarray(vals)
        expect(vals.shape == (rows.shape[0],), "wrong output shape")
        expect(bool(np.all(np.isfinite(vals))), "non-finite gauge value")
        if phi is None:
            if ref.kind == "lp":
                want = refs.lp_rows(rows, w, ref.p)
            elif ref.kind == "weak":
                want = refs.weak_rows(rows, w)
            else:  # convexified L_p: m * L_p((|f|/m)^r)^(1/r), m the row maximum
                m = rows.max(axis=1)
                inner = refs.lp_rows((rows / m[:, None]) ** ref.r, w, ref.base.p)
                want = m * inner ** (1.0 / ref.r)
            err = np.abs(vals - want) / want
            k = int(np.argmax(err))
            expect(float(err[k]) <= 1e-11, f"row {k}: {vals[k]!r} vs {want[k]!r}")
        else:
            ok = refs.lux_bracket_ok(phi, rows, w, vals, 1e-10)
            expect(bool(np.all(ok)), f"row {int(np.argmin(ok))} outside the Luxemburg bracket")
            for i in sample_rows(rows.shape[0], BRENTQ_ROWS):
                close(vals[i], ref(rows[i], w), 1e-10, f"row {i} vs brentq")
        homogeneity_ok(rows, vals, 1e-11)

    return check


def _lp3_extreme() -> Op:
    """Lp(3) on rows whose cubes overflow or underflow: a known fault, fails every time."""
    rows = np.array([[1e200, 1e200, 0.0], [1e-300, 1e-310, 0.0]])
    space = q.counting_space(3)

    def check(vals) -> None:
        want = refs.lp_rows(rows, np.ones(3), 3.0)
        for k in range(2):
            close(vals[k], want[k], 1e-12, f"extreme row {k}")

    return Op("rows-L3-extreme", "rows-extreme",
              lambda: q.gauge_values_rows(q.Lp(3.0), space, rows), check,
              known_fault="Lp._value_rows takes powers before scaling (gauges.py:309): "
                          "[1e200, 1e200, 0] gives inf and [1e-300, 1e-310, 0] gives 0")


def build(seed: int) -> List[Op]:
    rng = np.random.default_rng([seed, 3])
    ops: List[Op] = []
    for label, g, ref, expo, phi in _kernels():
        for m, n, counting in (CLOSED_SHAPES if phi is None else ORLICZ_SHAPES):
            w = np.ones(n) if counting else rng.uniform(0.5, 2.0, size=n)
            space = q.MeasureSpace(w.copy())
            rows = spread_rows(rng, m, n, expo)
            ops.append(Op(f"rows-{label}-{m}x{n}", "rows",
                          lambda g=g, space=space, rows=rows: q.gauge_values_rows(g, space, rows),
                          _rows_check(ref, phi, rows, w)))
    ops.append(_lp3_extreme())
    ops.extend(_norm_ops(rng))
    ops.extend(_maximal_ops(rng))
    ops.extend(_touch_ops(rng))
    return ops


def _norm_ops(rng) -> List[Op]:
    targets = (("l0.5", lambda d: q.lq_space(d, 0.5), "lq", 0.5, 300),
               ("l1", lambda d: q.lq_space(d, 1.0), "lq", 1.0, 300),
               ("l2", lambda d: q.lq_space(d, 2.0), "lq", 2.0, 150),
               ("weak", q.weak_l1_space, "weak", 1.0, 300))
    out = []
    for label, make, kind, tq, expo in targets:
        for m, d in ((1, 6), (1600, 32), (16000, 4), (40000, 3)):
            X = make(d)
            vs = spread_rows(rng, m, d, expo) * rng.choice([-1.0, 1.0], size=(m, d))

            def check(vals, vs=vs, kind=kind, tq=tq) -> None:
                want = refs.vec_norms(vs, kind, tq)
                err = np.abs(np.asarray(vals) - want) / want
                expect(bool(np.all(err <= 1e-11)), f"row {int(np.argmax(err))} norm differs")
                homogeneity_ok(vs, np.asarray(vals), 1e-11)

            out.append(Op(f"norms-{label}-{m}x{d}", "norms",
                          lambda X=X, vs=vs: X.norms(vs), check))
        X = make(5)
        vs = spread_rows(rng, 64, 5, expo)

        def check_loop(vals, vs=vs, kind=kind, tq=tq) -> None:
            want = refs.vec_norms(vs, kind, tq)
            err = max(refs.rel_err(a, b) for a, b in zip(vals, want))
            expect(err <= 1e-11, f"single-vector norm off by {err:.3g}")

        out.append(Op(f"norm-loop-{label}", "norm-loop",
                      lambda X=X, vs=vs: [X.norm(v) for v in vs], check_loop))
    return out


def _field(rng, n, expo):
    return rng.uniform(1e-3, 1.0, size=n) * 10.0 ** int(rng.integers(-expo, expo + 1))


def _maximal_ops(rng) -> List[Op]:
    out: List[Op] = []
    enum_limit = 256   # grids up to this many cells are checked by cube enumeration
    for d, cells in ((1, 64), (1, 256), (1, 1024), (1, 4096), (2, 16), (2, 64), (2, 128)):
        grid = q.GridSpace(d, cells)
        f = _field(rng, grid.n_atoms, 300)

        def check(res, f=f, d=d, cells=cells, n=grid.n_atoms) -> None:
            mf = np.asarray(res.values)
            if n <= enum_limit:
                want = refs.maximal_brute(f, cells, d, refs.dyadic_scales(cells))
                err = np.abs(mf - want) / want
                expect(bool(np.all(err <= 1e-9)), f"cell {int(np.argmax(err))} differs")
            expect(bool(np.all(mf >= f)), "maximal field below |f|")
            expect(bool(np.all(mf <= f.max() * (1 + 1e-12))), "maximal field above max |f|")

        out.append(Op(f"hl-{d}d-{cells}", "hl",
                      lambda grid=grid, f=f: q.hl_maximal(grid, f), check))
    for d, cells, t_label, expo in ((1, 64, "l1", 300), (1, 2048, "l2", 100),
                                    (2, 16, "l0.5", 300), (2, 64, "l1", 300),
                                    (2, 128, "l2", 100)):
        grid = q.GridSpace(d, cells)
        tq = {"l1": 1.0, "l2": 2.0, "l0.5": 0.5}[t_label]
        X = q.lq_space(3, tq)
        vecs = rng.standard_normal((grid.n_atoms, 3)) * 10.0 ** int(rng.integers(-expo, expo + 1))
        vf = q.VectorField(vecs, X)

        def check(res, vecs=vecs, d=d, cells=cells, tq=tq, n=grid.n_atoms) -> None:
            mf = np.asarray(res.values)
            own = refs.vec_norms(vecs, "lq", tq)
            if n <= enum_limit:
                want = refs.maximal_brute(vecs, cells, d, refs.dyadic_scales(cells),
                                          "lq", tq)
                err = np.abs(mf - want) / want
                expect(bool(np.all(err <= 1e-9)), f"cell {int(np.argmax(err))} differs")
            expect(bool(np.all(mf >= own * (1 - 1e-12))), "vector maximal below ||F||")
            if tq >= 1.0:
                expect(bool(np.all(mf <= own.max() * (1 + 1e-12))), "vector maximal above max ||F||")

        out.append(Op(f"vector-{d}d-{cells}-{t_label}", "vector",
                      lambda grid=grid, vf=vf: q.vector_maximal(grid, vf), check))
    # weak-(1,1): the 1-D point mass, and random fields checked by enumeration
    point = np.zeros(4096)
    point[int(rng.integers(1024, 3072))] = 10.0 ** int(rng.integers(-300, 301))

    def check_point(res) -> None:
        expect(1.8 <= res.constant <= 2.2, f"point-mass weak-(1,1) ratio {res.constant!r}")
        close(res.input_size, point.max() / 4096, 1e-15, "point mass")

    out.append(Op("weak11-point-1d-4096", "weak11",
                  lambda: q.weak11_constant(q.GridSpace(1, 4096), point), check_point))
    for d, cells in ((1, 64), (2, 16)):
        grid = q.GridSpace(d, cells)
        f = _field(rng, grid.n_atoms, 300)

        def check_w(res, f=f, d=d, cells=cells, n=grid.n_atoms) -> None:
            w = np.full(n, 1.0 / n)
            mf = refs.maximal_brute(f, cells, d, refs.dyadic_scales(cells))
            close(res.weak_norm, float(refs.weak_rows(mf, w)[0]), 1e-9, "weak norm of Mf")
            close(res.input_size, refs.lp(f, w, 1.0), 1e-12, "L1 mass")

        out.append(Op(f"weak11-{d}d-{cells}", "weak11",
                      lambda grid=grid, f=f: q.weak11_constant(grid, f), check_w))
    # series domination, lam = L1 over l1 / l2 targets
    for d, cells, tq in ((1, 256, 1.0), (2, 16, 2.0)):
        grid = q.GridSpace(d, cells)
        xs, fs = rng.standard_normal((3, 3)), rng.standard_normal((3, grid.n_atoms))
        rep = q.TensorRep(xs=xs, fs=fs, target=q.lq_space(3, tq), lam=q.Lp(1.0))

        def check_dom(res, xs=xs, fs=fs, d=d, cells=cells, tq=tq) -> None:
            scales = refs.dyadic_scales(cells)
            mvec = refs.maximal_brute(contraction(xs, fs), cells, d, scales,
                                      "lq", tq)
            dom = sum(refs.vec_norm(x, "lq", tq) * refs.maximal_brute(f, cells, d, scales)
                      for x, f in zip(xs, fs))
            scale = max(1.0, float(np.max(dom)))
            expect(res.max_gap <= 1e-9 * scale, f"domination gap {res.max_gap!r}")
            expect(abs(res.max_gap - float(np.max(mvec - dom))) <= 1e-9 * scale,
                   "domination gap differs from the enumeration")

        out.append(Op(f"domination-{d}d-{cells}", "domination",
                      lambda grid=grid, rep=rep: q.series_domination_report(rep, grid),
                      check_dom))
    return out


def _touch_ops(rng) -> List[Op]:
    """Batched probes, closed forms and the cli on large inputs: no search loops."""
    out: List[Op] = []
    rational = q.builtin_phi("rational")
    for label, g, ref, kappa in (("L0.5", q.Lp(0.5), refs.RefGauge("lp", 0.5), 2.0),
                                 ("weakL1", q.WeakL1(), refs.RefGauge("weak"), 2.0),
                                 ("rational", q.Orlicz(rational),
                                  refs.RefGauge("lux", phi=rational), None)):
        space, s = q.counting_space(16), sub_seed(rng)

        def check_k(res, ref=ref, kappa=kappa) -> None:
            a, b = (np.asarray(x.values) for x in res.witness)
            w = np.ones(a.size)
            close(res.value, ref(a + b, w) / (ref(a, w) + ref(b, w)), 1e-9, "witness ratio")
            expect(res.value >= 1.0 - 1e-12, "modulus probe below 1")
            if kappa is not None:
                expect(res.value <= kappa * (1 + 1e-9), "probe above kappa")

        out.append(Op(f"concavity-batched-{label}", "concavity",
                      lambda g=g, space=space, s=s: q.concavity_modulus_probe(
                          g, space, trials=2000, seed=s), check_k))
    for label, ga, ra in (("L2-L1", q.Lp(2.0), refs.RefGauge("lp", 2.0)),
                          ("loglog-L1", q.Orlicz(q.builtin_phi("loglog")),
                           refs.RefGauge("lux", phi=q.builtin_phi("loglog")))):
        mat = rng.uniform(0.0, 1.0, size=(64, 64))
        sa, sb = q.counting_space(64), q.counting_space(64)

        def check_m(rep, ra=ra, mat=mat, bounded=label == "L2-L1") -> None:
            ones = np.ones(64)
            lhs = ra(refs.lp_rows(mat, ones, 1.0), ones)
            rhs = refs.lp(np.array([ra(c, ones) for c in mat.T]), ones, 1.0)
            close(rep.lhs, lhs, 1e-10, "lhs")
            close(rep.rhs, rhs, 1e-10, "rhs")
            if bounded:
                expect(rep.ratio <= 1.0 + 1e-9, "Minkowski interchange above 1")

        out.append(Op(f"mii-check-{label}-64", "mii-check",
                      lambda ga=ga, sa=sa, sb=sb, mat=mat: q.mii_check(ga, sa, q.Lp(1.0), sb, mat),
                      check_m))
    for tq in (0.5, 1.0):
        X = q.lq_space(64, tq)
        a = rng.uniform(0.0, 1.0, size=64)

        def check_g(res, a=a, tq=tq) -> None:
            close(res.value, refs.lp(a, np.ones(a.size), tq), 1e-12, "closed-form galb")
            norms = refs.vec_norms(res.witness.vectors, "lq", tq)
            expect(float(np.max(norms)) <= 1.0 + 1e-12, "witness vector outside the ball")

        out.append(Op(f"galb-closed-l{tq:g}", "galb-closed",
                      lambda X=X, a=a: q.galb_gauge_estimate(X, a), check_g))
    space = q.MeasureSpace(rng.uniform(0.5, 2.0, size=4096))
    xs, fs = rng.standard_normal((4, 3)), rng.standard_normal((4, 4096))
    rep = q.TensorRep(xs=xs, fs=fs, target=q.lq_space(3, 1.0), lam=q.Lp(1.0))

    def check_series(res) -> None:
        want = contraction(xs, fs).T @ space.weights
        expect(float(np.max(np.abs(res.value - want))) <= 1e-10 * float(np.max(np.abs(want))),
               "series integral")
        expect(res.certificate.value >= bochner(xs, fs, space.weights, "lq", 1.0) * (1 - 1e-12),
               "certificate below the Bochner norm")

    out.append(Op("integrate-series-4096", "integrate",
                  lambda: q.integrate_series(rep, space), check_series))
    for fmt in ("json", "csv"):
        wts = rng.uniform(0.5, 2.0, size=1000)
        vals = rng.uniform(1e-3, 1.0, size=1000) * 10.0 ** int(rng.integers(-300, 301))
        loglog = q.builtin_phi("loglog")
        for label, gjson, ref in (("L0.5", {"kind": "lp", "p": 0.5}, refs.RefGauge("lp", 0.5)),
                                  ("loglog", {"kind": "orlicz", "phi": "loglog"},
                                   refs.RefGauge("lux", phi=loglog))):
            def check_e(doc, ref=ref, wts=wts, vals=vals) -> None:
                close(doc.num("value"), ref(vals, wts), 1e-10, "cli eval value")

            out.append(cli_op(f"cli-eval-{label}-{fmt}", "cli",
                              ["eval", "--gauge", dumps(gjson), "--space",
                               dumps({"weights": wts}), "--field", dumps({"values": vals})],
                              fmt, check_e, NAME))

        def check_ftc(doc) -> None:
            c = doc.num("weak11.constant")
            expect(1.8 <= c <= 2.2, f"cli point-mass weak-(1,1) ratio {c!r}")

        out.append(cli_op(f"cli-ftc-{fmt}", "cli", ["ftc", "--cells", "2048"], fmt, check_ftc,
                          NAME))
    return out
