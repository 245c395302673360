"""cli-report: in-process `qnlab` commands, the only path through cli and serialize.

Every suite, one reduced `qnlab report`, and the single-quantity commands
in json and csv, each written with --out.  Sizes are set so that no
single op dominates.
"""
from __future__ import annotations

import math
from typing import List

import numpy as np

import qnlab as q

from . import refs
from .ops import Doc, Op, cli_op, close, dumps, expect, rep_cost, sub_seed

NAME = "cli-report"
# Inputs per single-quantity command, each run in json and in csv.  The k-th
# of the twelve (instance i, format) pairs scales the command's size (field
# length, n, trials, budget, cells) by sqrt(2)^k, so op times form a
# continuous range up to the suites, with no gap near the percentiles.
INSTANCES = 6


def _scaled(base: float, k: int) -> int:
    return int(round(base * 2.0 ** (k / 2.0)))

# suite -> reduced size flags
SUITES = {
    "amenability": ["--trials", "5"],
    "counterexample": [],
    "ftc": ["--cells", "64"],
    "galb": ["--trials", "2", "--budget", "30"],
    "leveling": ["--trials", "9"],
    "mii": ["--trials", "2"],
    "orlicz-concavity": ["--trials", "2"],
    "tensor-oracle": ["--trials", "2", "--budget", "10"],
}
REPORT = ["--trials", "1", "--budget", "10", "--cells", "64"]


def _passed(doc: Doc) -> None:
    expect(doc.text("passed") == "true", "suite did not pass")


def _gauge_case(rng, i):
    """(gauge json, reference gauge) cycling over the kinds the cli parses."""
    loglog = q.builtin_phi("loglog")
    cases = (({"kind": "lp", "p": 0.5}, refs.RefGauge("lp", 0.5)),
             ({"kind": "orlicz", "phi": "loglog"}, refs.RefGauge("lux", phi=loglog)),
             ({"kind": "weak_l1"}, refs.RefGauge("weak")),
             ({"kind": "lp", "p": 2}, refs.RefGauge("lp", 2.0)),
             ({"kind": "convexified", "base": {"kind": "lp", "p": 0.5}, "r": 2},
              refs.RefGauge("convexified", base=refs.RefGauge("lp", 0.5), r=2.0)),
             ({"kind": "orlicz", "phi": "rational"},
              refs.RefGauge("lux", phi=q.builtin_phi("rational"))),
             ({"kind": "orlicz", "phi": "power", "p": 0.5},
              refs.RefGauge("lux", phi=q.builtin_phi("power", 0.5))))
    return cases[i % len(cases)]


def build(seed: int) -> List[Op]:
    rng = np.random.default_rng([seed, 4])
    ops: List[Op] = []
    for name, flags in SUITES.items():
        for fmt in ("json",):
            ops.append(cli_op(f"suite-{name}", "suite",
                              ["suite", "--name", name, "--seed", str(sub_seed(rng))] + flags,
                              fmt, _passed, NAME))
    ops.append(cli_op("report", "report", ["report", "--seed", str(sub_seed(rng))] + REPORT,
                      "json", _passed, NAME))
    for i in range(INSTANCES):
        for fmt in ("json", "csv"):
            ops.extend(_single(rng, i, fmt))
    return ops


def _single(rng, i: int, fmt: str) -> List[Op]:
    out: List[Op] = []
    tag = f"{i}-{fmt}"
    k = 2 * i + (fmt == "csv")
    seed = str(sub_seed(rng))

    # eval, on a field of 6 * 2^i atoms
    gjson, ref = _gauge_case(rng, i)
    we = rng.uniform(0.5, 2.0, size=_scaled(6, k))
    fe = rng.uniform(0.05, 1.0, size=_scaled(6, k))

    def check_eval(doc, ref=ref, we=we, fe=fe) -> None:
        close(doc.num("value"), ref(fe, we), 1e-10, "eval value")

    out.append(cli_op(f"eval-{tag}", "eval",
                      ["eval", "--gauge", dumps(gjson), "--space", dumps({"weights": we}),
                       "--field", dumps({"values": fe})], fmt, check_eval, NAME))

    # rolewicz
    p = (0.5, 0.25, 1.0 / 3.0, 0.75)[i % 4]
    nr = _scaled(8, k)

    def check_rolewicz(doc, p=p, nr=nr) -> None:
        close(doc.num("blowup_ratio"), nr ** (1.0 / p - 1.0), 1e-12, "blow-up ratio")
        close(doc.num("riemann_sum_norm"), 1.0, 1e-12, "Riemann sum norm")

    out.append(cli_op(f"rolewicz-{tag}", "rolewicz",
                      ["rolewicz", "--p", repr(p), "--n", str(nr)], fmt, check_rolewicz, NAME))

    # mii: the classical L2 / L1 pair never exceeds 1
    def check_mii(doc) -> None:
        expect(doc.num("max_ratio") <= 1.0 + 1e-9, "classical interchange ratio above 1")
        expect(not doc.has("witness.0.0"), "witness emitted without a violated bound")

    out.append(cli_op(f"mii-{tag}", "mii",
                      ["mii", "--gauge-a", dumps({"kind": "lp", "p": 2}), "--gauge-b",
                       dumps({"kind": "lp", "p": 1}), "--dims", "4x4", "--trials", str(_scaled(1, k)),
                       "--bound", "1.000000001", "--seed", seed], fmt, check_mii, NAME))

    # galb-estimate
    tq = (0.5, 1.0)[i % 2]
    a = rng.uniform(0.05, 2.0, size=6)
    no_analytic = i % 3 == 0

    def check_galb(doc, a=a, tq=tq) -> None:
        vecs = doc.array("witness.vectors")
        expect(float(np.max(refs.vec_norms(vecs, "lq", tq))) <= 1.0 + 1e-12,
               "witness vector outside the ball")
        want = math.fsum((a ** tq).tolist()) ** (1.0 / tq)
        close(doc.num("value"), want, 1e-6, "galb closed form")
        close(doc.num("value"), refs.vec_norm(a @ vecs, "lq", tq), 1e-12, "witness value")

    out.append(cli_op(f"galb-estimate-{tag}", "galb-estimate",
                      ["galb-estimate", "--target", dumps({"kind": "lq", "dim": 8, "q": tq}),
                       "--coefficients", dumps(a), "--budget", "200", "--seed", seed]
                      + (["--no-analytic"] if no_analytic else []), fmt, check_galb, NAME))

    # tensor-norm, lam = L1 over l1 / l2: certified by the Bochner bound
    tq2 = (1.0, 2.0)[i % 2]
    na, d, k = 3, 2, 3
    sw = rng.uniform(0.3, 1.5, size=na)
    xs, fs = rng.standard_normal((k, d)), rng.standard_normal((k, na))
    lam_ref = refs.RefGauge("lp", 1.0)

    def check_tensor(doc, sw=sw, xs=xs, fs=fs, tq2=tq2) -> None:
        wxs, wfs = doc.array("witness.xs"), doc.array("witness.fs")
        jm, wj = fs.T @ xs, wfs.T @ wxs
        expect(float(np.max(np.abs(wj - jm))) <= 1e-9 * max(1.0, float(np.max(np.abs(jm)))),
               "witness moved J")
        value = doc.num("value")
        close(value, rep_cost(wxs, wfs, sw, lam_ref, "lq", tq2), 1e-9, "witness cost")
        close(doc.num("input_profile"), rep_cost(xs, fs, sw, lam_ref, "lq", tq2), 1e-12,
              "input cost")
        exact = math.fsum(float(sw[a_]) * refs.vec_norm(jm[a_], "lq", tq2) for a_ in range(na))
        expect(value >= exact - 1e-9 * max(1.0, exact), "tensor estimate below Bochner")

    out.append(cli_op(f"tensor-norm-{tag}", "tensor-norm",
                      ["tensor-norm", "--rep",
                       dumps({"xs": xs, "fs": fs, "target": {"kind": "lq", "dim": d, "q": tq2},
                              "lam": {"kind": "lp", "p": 1}}),
                       "--space", dumps({"weights": sw}), "--budget", str(_scaled(4, k)),
                       "--seed", seed], fmt, check_tensor, NAME))

    # envelope and dual on the eval gauge, six atoms
    # atom weights above 1 keep every single-atom gauge positive, so the
    # bounded rational kernel does not change the search's cost from seed to seed
    w = rng.uniform(1.0, 2.0, size=6)
    f = rng.uniform(0.05, 1.0, size=6)

    def check_env(doc, ref=ref, w=w, f=f) -> None:
        parts = []
        while doc.has(f"witness.parts.{len(parts)}.values.0"):
            parts.append(doc.array(f"witness.parts.{len(parts)}.values"))
        parts = np.array(parts)
        expect(float(np.max(np.abs(parts.sum(axis=0) - f))) <= 1e-12, "parts do not sum to f")
        val = sum(ref(r, w) ** 0.5 for r in parts) ** 2.0
        close(doc.num("value"), val, 1e-9, "envelope value")

    out.append(cli_op(f"envelope-{tag}", "envelope",
                      ["envelope", "--gauge", dumps(gjson), "--p", "0.5", "--space",
                       dumps({"weights": w}), "--field", dumps({"values": f}),
                       "--budget", str(k // 3), "--seed", seed], fmt, check_env, NAME))

    def check_dual(doc, ref=ref, w=w, f=f) -> None:
        u = doc.array("witness.values")
        expect(ref(u, w) <= 1.0 + 1e-12, "dual witness outside the unit ball")
        close(doc.num("value"), math.fsum((w * f * u).tolist()), 1e-12, "dual pairing")

    out.append(cli_op(f"dual-{tag}", "dual",
                      ["dual", "--gauge", dumps(gjson), "--space", dumps({"weights": w}),
                       "--field", dumps({"values": f}), "--budget", str(k // 2),
                       "--seed", seed], fmt, check_dual, NAME))

    # ftc: point-mass weak-(1,1) ratio plus a differentiation report
    cells = _scaled(32, k)

    def check_ftc(doc) -> None:
        c = doc.num("weak11.constant")
        expect(1.8 <= c <= 2.2, f"point-mass weak-(1,1) ratio {c!r}")
        expect(doc.num("differentiation.max_error") >= 0.0, "negative differentiation error")

    out.append(cli_op(f"ftc-{tag}", "ftc",
                      ["ftc", "--cells", str(cells), "--samples", "0,1,2,3"], fmt, check_ftc,
                      NAME))
    return out
