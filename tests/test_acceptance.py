"""Acceptance battery: one test per shipped guarantee, one printed line each.

Every test records "[PASS] criterion N: ..." (or [FAIL]); the conftest
terminal-summary hook replays the lines after capture ends, so they appear
in the pytest output exactly once per criterion.  Criteria 1, 2 and 5-10
run the `qnlab.checks` battery that `qnlab suite` runs, at the criterion's
parameters, and build their line from its details; each wall-clock budget
is timed here.
"""
import time

import numpy as np

from qnlab import (
    Lp,
    MeasureSpace,
    ScalarField,
    aoki_exponent,
    concavity_modulus_probe,
    counting_space,
    eval_gauge,
    p_envelope,
)
from qnlab.checks import (
    amenability,
    counterexample,
    ftc,
    galb,
    leveling,
    mii,
    orlicz_concavity,
    tensor_oracle,
)
from oracles import envelope_oracle_simplex, envelope_oracle_two_parts


LINES = []


def _line(n: int, ok: bool, detail: str) -> None:
    text = f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {detail}"
    LINES.append(text)
    print(text)


def test_criterion_01_blowup_family():
    t0 = time.perf_counter()
    passed, d = counterexample()
    elapsed = time.perf_counter() - t0
    ok = passed and elapsed < 1.0
    _line(1, ok, f"blow-up family exact to {d['worst_deviation']:.2e} "
                 f"(tol 1e-12) in {elapsed:.2f}s (< 1s)")
    assert ok


def test_criterion_02_orlicz_one_concavity():
    t0 = time.perf_counter()
    passed, d = orlicz_concavity(trials=1000, tol=1e-9, seed=0)
    elapsed = time.perf_counter() - t0
    ok = passed and elapsed < 10.0
    _line(2, ok, f"superadditivity ratio max {d['max_constant']:.15f} over "
                 f"{len(d['kernels'])}x{d['trials']} families (bound 1+1e-9) "
                 f"in {elapsed:.1f}s (< 10s)")
    assert ok


def test_criterion_03_aoki_rolewicz_anchors():
    worst = 0.0
    for p in (1.0, 0.5, 1.0 / 3.0, 0.25):
        kappa = 2.0 ** (1.0 / p - 1.0)
        worst = max(worst, abs(aoki_exponent(kappa) - p) / p)
    probe = concavity_modulus_probe(Lp(0.5), counting_space(4),
                                    trials=10000, seed=0)
    ok = worst <= 1e-12 and probe.value >= 1.9
    _line(3, ok, f"exponent round-trip dev {worst:.2e} (tol 1e-12); "
                 f"L0.5 modulus probe {probe.value:.12f} (>= 1.9, true 2)")
    assert ok


def test_criterion_04_envelope_oracle():
    rng = np.random.default_rng(4001)
    g = Lp(0.5)
    worst_oracle = 0.0
    for _ in range(8):
        s2 = MeasureSpace(rng.uniform(0.3, 1.5, size=2))
        f2 = ScalarField(np.exp(rng.uniform(-1, 1, size=2)))
        est = p_envelope(g, 1.0, s2, f2, budget=64, seed=0,
                         short_circuit=False).value
        oracle = envelope_oracle_two_parts(g, 1.0, s2, f2, step=0.01)
        worst_oracle = max(worst_oracle, abs(est / oracle - 1.0))
    for _ in range(4):
        s3 = MeasureSpace(rng.uniform(0.3, 1.5, size=3))
        f3 = ScalarField(np.exp(rng.uniform(-1, 1, size=3)))
        est = p_envelope(g, 1.0, s3, f3, budget=64, seed=0,
                         short_circuit=False).value
        oracle = envelope_oracle_simplex(g, 1.0, s3, f3, parts=3, step=0.1)
        worst_oracle = max(worst_oracle, abs(est / oracle - 1.0))
    worst_exact = 0.0
    worst_generic = 0.0
    for p in (0.5, 1.0):
        gp = Lp(p)
        for _ in range(5):
            n = int(rng.integers(2, 6))
            s = MeasureSpace(rng.uniform(0.3, 1.5, size=n))
            f = ScalarField(np.exp(rng.uniform(-1, 1, size=n)))
            want = eval_gauge(gp, s, f).value
            short = p_envelope(gp, p, s, f).value
            worst_exact = max(worst_exact, abs(short - want))
            generic = p_envelope(gp, p, s, f, budget=64, seed=0,
                                 short_circuit=False).value
            worst_generic = max(worst_generic, abs(generic / want - 1.0))
    ok = worst_oracle <= 0.01 and worst_exact == 0.0 and worst_generic <= 1e-6
    _line(4, ok, f"grid-oracle dev {worst_oracle:.2e} (tol 1%); "
                 f"short-circuit dev {worst_exact:.1e} (exact); "
                 f"generic-search dev {worst_generic:.2e} (tol 1e-6)")
    assert ok


def test_criterion_05_galb_anchors():
    passed, d = galb(trials=20, budget=10000, seed=5001)
    _line(5, passed, f"galb closed-form dev {d['anchor_deviation']:.2e} over "
                     f"{d['trials']} vectors x two targets x both search modes (tol 1e-6)")
    assert passed


def test_criterion_06_tensor_l1_oracle():
    passed, d = tensor_oracle(trials=100, budget=10000, seed=6001)
    _line(6, passed, f"estimate vs exact Bochner-L1 norm on {d['trials']} reps: "
                     f"undershoot {d['worst_undershoot']:.2e} (tol 1e-9), "
                     f"relative excess {d['worst_relative_excess']:.2e} (tol 1e-3)")
    assert passed


def test_criterion_07_amenability_identity():
    passed, d = amenability(trials=1000, tol=1e-9, seed=7001)
    _line(7, passed, f"{d['trials']} equal-contraction pairs: integral discrepancy "
                     f"{d['worst_integral_discrepancy']:.2e} (tol 1e-9), atomwise-vs-termwise "
                     f"{d['worst_termwise_discrepancy']:.2e} (tol 1e-12)")
    assert passed


def test_criterion_08_mixed_norm_interchange():
    passed, d = mii(trials=250, tol=1e-9, seed=0)
    ids, grown = d["identity_ratios"], d["growth"]["per_dim"]
    _line(8, passed, f"classical max {d['max_ratio']:.15f} over "
                     f"{d['trials'] * len(d['per_dim'])} matrices (bound 1+1e-9); identity "
                     f"ratios {ids['4']:.3f}@4 {ids['16']:.3f}@16 (>= sqrt(n)/2); "
                     f"weakL1/loglog growth {grown['32x32']:.4f}@32 vs "
                     f"{grown['8x8']:.4f}@8 (<= 2x)")
    assert passed


def test_criterion_09_leveling():
    passed, d = leveling(trials=2000, tol=1e-9, seed=0)
    g = d["gauges"]
    _line(9, passed, f"L0.5 leveling probe {g['L0.5']['constant']:.9f} (>= 8 - 1e-6); "
                     f"L1 {g['L1']['constant']:.12f}, L2 {g['L2']['constant']:.12f} "
                     f"(<= 1 + 1e-9)")
    assert passed


def test_criterion_10_ftc():
    t0 = time.perf_counter()
    passed, d = ftc(trials=100, cells=4096, seed=10001)
    elapsed = time.perf_counter() - t0
    ok = passed and elapsed < 60.0
    _line(10, ok, f"differentiation error {d['differentiation_max_error']!r} (exactly 0) "
                  f"over {d['differentiation_samples']} cells x "
                  f"{len(d['differentiation_scales'])} scales; "
                  f"weak-(1,1) ratio {d['weak11_constant']:.6f} (in [1.8, 2.2]); "
                  f"domination gap {d['domination_max_gap']:.2e} over {d['trials']} reps "
                  f"(tol 1e-9); {elapsed:.1f}s (< 60s)")
    assert ok
