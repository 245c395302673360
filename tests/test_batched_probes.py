"""The batched searches against one-candidate-at-a-time loops.

Each probe prices its whole candidate set in one gauge (or norm) row call.
The loops below redraw the same candidates from the same seed and price
them one at a time through eval_gauge / X.norm, so the probe must agree
with them to rounding (1e-14 relative); the intersection search, the
L-convexity probe and the concavity probe (whose loop draws each pair
from its own rng.random calls) agree with their loops bitwise.  Every witness
re-evaluates to its value, and a counting wrapper shows that the number of
row calls does not grow with trials or budget.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnlab import (
    Gauge,
    Intersect,
    Lp,
    MeasureSpace,
    Orlicz,
    QuasiNormedSpace,
    ScalarField,
    Tag,
    WeakL1,
    builtin_phi,
    concavity_modulus_probe,
    conditional_expectation,
    counting_space,
    dual_gauge,
    eval_gauge,
    galb_gauge_estimate,
    galbs_check,
    gauge_values_rows,
    intersect_eval,
    l_convexity_probe,
    lattice_constant_probe,
    leveling_constant_probe,
    lq_space,
    mii_check,
    mii_sweep,
    p_envelope,
    trivial_partition,
    uniform_probability_space,
    weak_l1_space,
)
from qnlab import convexity, gauges
from qnlab.sampling import random_family, random_matrix, random_partition, random_values
from oracles import lp_oracle

GAUGES = [
    pytest.param(Orlicz(builtin_phi("loglog")), 1e-14, id="loglog"),
    pytest.param(Orlicz(builtin_phi("power", 0.5)), 1e-14, id="power0.5"),
    pytest.param(Lp(0.5), 1e-14, id="L0.5"),
    pytest.param(Lp(2.0), 1e-14, id="L2"),
    pytest.param(WeakL1(), 1e-14, id="weakL1"),
]
WEIGHTED = MeasureSpace(np.array([0.7, 1.3, 1.0, 2.1, 0.4]))


def rho(g: Gauge, space: MeasureSpace, row) -> float:
    return eval_gauge(g, space, ScalarField(np.asarray(row, dtype=float))).value


def lp_sum(values, p: float) -> float:
    return lp_oracle(values, np.ones(len(values)), p)


@pytest.fixture
def row_calls(monkeypatch):
    """Record the row count of every _value_rows call on the given gauge classes."""
    calls = []

    def install(*classes):
        for cls in classes:
            orig = cls._value_rows

            def counted(self, space, rows, orig=orig):
                calls.append(rows.shape[0])
                return orig(self, space, rows)

            monkeypatch.setattr(cls, "_value_rows", counted)
        return calls

    return install


# ---------------------------------------------------------------------------
# lattice constants
# ---------------------------------------------------------------------------

def lattice_loop(g, mode, p, space, trials, seed, max_parts=5):
    n = len(space)
    rng = np.random.default_rng(seed)
    best = 0.0
    for t in range(trials):
        k = int(rng.integers(2, max_parts + 1))
        fam = random_family(rng, n, k, ("disjoint", "proportional", "random")[t % 3])
        if not np.any(fam > 0):
            continue
        G = rho(g, space, [lp_sum(col, p) for col in fam.T])
        H = lp_sum([rho(g, space, row) for row in fam], p)
        num, den = (G, H) if mode == "convex" else (H, G)
        best = max(best, num / den if den > 0 else 0.0)
    return best


@pytest.mark.parametrize("g, rel", GAUGES)
def test_lattice_probe_matches_loop_and_witness(g, rel):
    for mode, p, space in (("concave", 1.0, counting_space(6)), ("convex", 0.5, WEIGHTED),
                           ("concave", 2.0, WEIGHTED)):
        br = lattice_constant_probe(g, mode, p, space, trials=40, seed=3)
        assert br.value == pytest.approx(lattice_loop(g, mode, p, space, 40, 3), rel=rel)
        fam = [f.values for f in br.witness]
        G = rho(g, space, [lp_sum(col, p) for col in np.array(fam).T])
        H = lp_sum([rho(g, space, row) for row in fam], p)
        assert br.value == pytest.approx(G / H if mode == "convex" else H / G, rel=rel)


def test_lattice_probe_makes_one_row_call(row_calls):
    # the combined rows and the envelope stack are priced together
    calls = row_calls(Orlicz)
    for trials in (5, 60):
        calls.clear()
        lattice_constant_probe(Orlicz(builtin_phi("loglog")), "concave", 1.0,
                               counting_space(6), trials=trials, seed=1)
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# leveling constants
# ---------------------------------------------------------------------------

def leveling_loop(g, space, trials, seed):
    n = len(space)
    cand = [(np.eye(n)[k], trivial_partition(space)) for k in range(n)]
    cand.append((np.ones(n), trivial_partition(space)))
    rng = np.random.default_rng(seed)
    while len(cand) < trials:
        style = ("uniform", "spiky", "sparse")[len(cand) % 3]
        cand.append((random_values(rng, n, style), random_partition(rng, n)))
    best = 0.0
    for vals, part in cand[:trials]:
        gf = rho(g, space, vals)
        if gf > 0:
            ef = conditional_expectation(space, part, ScalarField(vals))
            best = max(best, rho(g, space, ef.values) / gf)
    return best


@pytest.mark.parametrize("g, rel", GAUGES)
def test_leveling_probe_matches_loop_and_witness(g, rel):
    for space in (counting_space(6), WEIGHTED):
        br = leveling_constant_probe(g, space, trials=40, seed=4)
        assert br.value == pytest.approx(leveling_loop(g, space, 40, 4), rel=rel)
        f, part = br.witness
        ef = conditional_expectation(space, part, f)
        assert br.value == pytest.approx(rho(g, space, ef.values) / rho(g, space, f.values),
                                         rel=rel)


def leveling_by_conditional_expectation(g, space, trials, seed):
    """The probe as it was when every leveled field came from conditional_expectation,
    candidate by candidate: (value, witness values, witness blocks)."""
    n = len(space)
    cand = [(np.eye(n)[k], trivial_partition(space)) for k in range(n)]
    cand.append((np.ones(n), trivial_partition(space)))
    rng = np.random.default_rng(seed)
    while len(cand) < trials:
        style = ("uniform", "spiky", "sparse")[len(cand) % 3]
        cand.append((random_values(rng, n, style), random_partition(rng, n)))
    cand = cand[:trials]
    rows = np.array([conditional_expectation(space, part, ScalarField(vals)).values
                     for vals, part in cand] + [vals for vals, _ in cand]).reshape(-1, n)
    leveled, fields = gauge_values_rows(g, space, rows).reshape(2, -1)
    ratios = np.where(fields > 0, leveled / np.where(fields > 0, fields, 1.0), 0.0)
    vals, part = cand[int(np.argmax(ratios))]
    return float(ratios.max(initial=0.0)), vals, part.blocks


def test_leveling_probe_equals_the_conditional_expectation_loop_bitwise():
    # the probe's leveled fields skip conditional_expectation's checks, on
    # fields and partitions it drew itself, and must keep its bits
    for g in (Lp(0.5), Orlicz(builtin_phi("loglog")), WeakL1()):
        for n in (1, 2, 5):
            weighted = MeasureSpace(np.linspace(0.4, 2.1, n))
            for space in (counting_space(n), weighted):
                for trials, seed in ((n + 2, 3), (n + 9, 8), (40, 1)):
                    br = leveling_constant_probe(g, space, trials=trials, seed=seed)
                    value, vals, blocks = leveling_by_conditional_expectation(g, space, trials,
                                                                              seed)
                    assert br.value.hex() == value.hex(), (g.label(), n, trials)
                    f, part = br.witness
                    assert f.values.tobytes() == vals.tobytes() and part.blocks == blocks


def test_leveling_probe_makes_one_row_call(row_calls):
    # the leveled fields and the fields are priced together
    calls = row_calls(Lp)
    for trials in (10, 200):
        calls.clear()
        leveling_constant_probe(Lp(0.5), counting_space(5), trials=trials, seed=0)
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# mixed-norm interchange
# ---------------------------------------------------------------------------

def mii_loop(ga, gb, dims, trials, seed):
    rng = np.random.default_rng(seed)
    styles = ("identity", "scaled_identity", "uniform", "rank1", "sparse")
    per_dim = {}
    for m, n in dims:
        best = 0.0
        for t in range(trials):
            mat = random_matrix(rng, m, n, styles[t % len(styles)])
            lhs = rho(ga, counting_space(m), [rho(gb, counting_space(n), r) for r in mat])
            rhs = rho(gb, counting_space(n), [rho(ga, counting_space(m), c) for c in mat.T])
            best = max(best, lhs / rhs if rhs > 0 else 0.0)
        per_dim[(m, n)] = best
    return per_dim


@pytest.mark.parametrize("g, rel", GAUGES)
def test_mii_sweep_matches_loop_and_witness(g, rel):
    dims = ((3, 4), (5, 5))
    for ga, gb in ((g, Lp(1.0)), (Lp(2.0), g)):
        rep = mii_sweep(ga, gb, dims, trials=20, seed=8)
        want = mii_loop(ga, gb, dims, 20, 8)
        for dim in dims:
            assert rep.per_dim[dim] == pytest.approx(want[dim], rel=rel)
        m, n = rep.witness_shape
        redo = mii_check(ga, counting_space(m), gb, counting_space(n), rep.witness)
        assert redo.ratio == pytest.approx(rep.max_ratio, rel=rel)


def test_mii_sweep_makes_four_row_calls_per_dimension_pair(row_calls):
    calls = row_calls(Lp, Orlicz)
    for trials in (5, 100):
        calls.clear()
        mii_sweep(Lp(2.0), Orlicz(builtin_phi("loglog")), ((3, 4), (6, 6)), trials=trials)
        assert len(calls) == 8


# ---------------------------------------------------------------------------
# p-norm envelope
# ---------------------------------------------------------------------------

def envelope_loop(g, p, space, f, budget, seed):
    vals = np.abs(f.values)
    n = vals.size

    def price(parts):
        return lp_sum([rho(g, space, row) for row in parts], p)

    candidates = [vals[None, :]]
    support = np.where(vals > 0)[0]
    if support.size > 1:
        candidates.append(np.diag(vals)[support])
    rng = np.random.default_rng(seed)
    for _ in range(budget):
        style = rng.integers(3)
        k = int(rng.integers(2, max(3, min(n, 4)) + 1))
        if style == 0 and support.size > 1:
            parts = np.zeros((k, n))
            parts[rng.integers(0, k, size=n), np.arange(n)] = vals
        elif style == 1:
            r = rng.random((k, n)) + 1e-3
            parts = r / r.sum(axis=0, keepdims=True) * vals
        else:
            theta = rng.random(n)
            parts = np.stack([theta * vals, (1 - theta) * vals])
        candidates.append(parts)
    prices = [price(c) for c in candidates]
    best = min(prices)
    parts = candidates[prices.index(best)]
    for _ in range(budget):
        if parts.shape[0] < 2:
            break
        i, j = rng.choice(parts.shape[0], size=2, replace=False)
        w = int(rng.integers(n))
        if parts[i, w] <= 0:
            continue
        for theta in (0.25, 0.5, 0.75, 1.0):
            cand = parts.copy()
            moved = theta * cand[i, w]
            cand[i, w] -= moved
            cand[j, w] += moved
            v = price(cand)
            if v < best * (1.0 - 1e-15):
                best, parts = v, cand
                break
    return best


@pytest.mark.parametrize("g, rel", GAUGES)
def test_envelope_matches_loop_and_witness(g, rel):
    f = ScalarField(np.array([1.5, 0.2, 3.0, 0.0, 0.9]))
    for p, space in ((0.5, counting_space(5)), (1.0, WEIGHTED), (2.0, WEIGHTED)):
        br = p_envelope(g, p, space, f, budget=16, seed=5, short_circuit=False)
        assert br.tag is Tag.UPPER
        assert br.value == pytest.approx(envelope_loop(g, p, space, f, 16, 5), rel=rel)
        assert br.witness.check_sums_to(f)
        parts = br.witness.matrix()
        assert br.value == pytest.approx(lp_sum([rho(g, space, r) for r in parts], p), rel=rel)


def test_envelope_prices_all_candidates_in_one_row_call(row_calls):
    calls = row_calls(Lp, Orlicz)
    f = ScalarField(np.array([1.5, 0.2, 3.0, 0.9]))
    # for L2 and p = 0.5 the trivial decomposition is optimal, so the search
    # stops after pricing every candidate
    for budget in (4, 64):
        calls.clear()
        br = p_envelope(Lp(2.0), 0.5, counting_space(4), f, budget=budget, short_circuit=False)
        assert len(br.witness.parts) == 1
        assert len(calls) == 1
    # otherwise each mass-transfer step prices its four moves in one call
    for budget in (4, 64):
        calls.clear()
        p_envelope(Orlicz(builtin_phi("loglog")), 0.5, counting_space(4), f, budget=budget)
        assert len(calls) <= 1 + budget


# ---------------------------------------------------------------------------
# dual gauge
# ---------------------------------------------------------------------------

def dual_loop(g, space, f, budget, seed):
    vals = np.abs(f.values)
    pay = space.weights * vals
    rng = np.random.default_rng(seed)
    cands = list(np.eye(vals.size)) + [vals] + [rng.random(vals.size) for _ in range(budget)]
    best, best_u = 0.0, np.zeros_like(vals)
    for c in cands:
        nrm = rho(g, space, c)
        if nrm > 0 and float(np.dot(pay, c / nrm)) > best:
            best, best_u = float(np.dot(pay, c / nrm)), c / nrm
    step, u = 0.5, best_u
    for it in range(budget):
        pert = u * np.exp(step * rng.standard_normal(u.size))
        nrm = rho(g, space, pert)
        if nrm > 0 and float(np.dot(pay, pert / nrm)) > best:
            u = pert / nrm
            best = float(np.dot(pay, u))
        if (it + 1) % 25 == 0:
            step *= 0.7
    return best


@pytest.mark.parametrize("g, rel", [p for p in GAUGES if p.id != "L2"])
def test_dual_gauge_matches_loop_and_witness(g, rel):
    f = ScalarField(np.array([1.5, 0.2, 3.0, 0.0, 0.9]))
    for space in (counting_space(5), WEIGHTED):
        br = dual_gauge(g, space, f, budget=30, seed=6)
        assert br.tag is Tag.LOWER
        assert br.value == pytest.approx(dual_loop(g, space, f, 30, 6), rel=rel)
        u = br.witness.values
        assert rho(g, space, u) <= 1.0 + rel
        assert br.value == pytest.approx(float(np.dot(space.weights * f.values, u)), rel=rel)


def test_dual_gauge_projects_all_candidates_in_one_row_call(row_calls):
    calls = row_calls(Orlicz)
    f = ScalarField(np.array([1.5, 0.2, 3.0]))
    for budget in (3, 40):
        calls.clear()
        dual_gauge(Orlicz(builtin_phi("loglog")), counting_space(3), f, budget=budget)
        assert len(calls) == 1 + budget  # one projection, then the sequential climb


# ---------------------------------------------------------------------------
# galb gauge: ascent and domination sweep
# ---------------------------------------------------------------------------

def galb_loop(X: QuasiNormedSpace, a_in, budget, seed):
    a = np.sort(np.abs(a_in))[::-1]
    n, d = a.size, X.dim
    unit = [e / X.norm(e) for e in np.eye(d)]
    seeds = [np.outer(np.ones(n), unit[j]) for j in range(min(d, 4))]
    seeds.append(np.array([unit[i % d] for i in range(n)]))
    if isinstance(X.gauge, WeakL1):
        harm = 1.0 / np.arange(1.0, d + 1.0)
        seeds += [np.stack([np.roll(harm, k) for k in range(n)]), np.tile(harm, (n, 1))]
    prices = [X.norm(a @ v) for v in seeds]
    best, evals = max(prices), len(seeds)
    vecs = seeds[prices.index(best)].copy()
    rng = np.random.default_rng(seed)
    stall = 0
    while evals < budget and stall < 2:
        improved = False
        for k in range(n):
            if evals >= budget:
                continue
            z = rng.standard_normal((2, d))
            rand = [vecs[k] + 0.3 * z[0], z[1]]
            rand = [r / max(X.norm(r), 1.0) for r in rand]
            cands = (unit + [-e for e in unit] + rand)[: budget - evals]
            prices = [X.norm(a @ vecs - a[k] * vecs[k] + a[k] * c) for c in cands]
            evals += len(cands)
            j = int(np.argmax(prices))
            if prices[j] > best * (1.0 + 1e-15):
                best, vecs[k], improved = prices[j], cands[j], True
        stall = 0 if improved else stall + 1
    return best


@pytest.mark.parametrize("X", [lq_space(5, 0.5), lq_space(4, 2.0), weak_l1_space(6)],
                         ids=["l0.5", "l2", "weakl1"])
def test_galb_ascent_matches_loop_and_witness(X):
    rng = np.random.default_rng(10)
    for t in range(3):
        a = rng.uniform(0.1, 2.0, size=int(rng.integers(2, 8)))
        for budget in (7, 300):
            br = galb_gauge_estimate(X, a, budget=budget, seed=t, analytic=False)
            assert br.value == pytest.approx(galb_loop(X, a, budget, t), rel=1e-14)
            vecs = br.witness.vectors
            assert np.all(X.norms(vecs) <= 1.0 + 1e-12)
            assert X.norm(a @ vecs) == pytest.approx(br.value, rel=1e-14)


def test_galb_ascent_prices_each_move_set_in_one_norms_call(monkeypatch):
    X, a = lq_space(3, 2.0), np.array([2.0, 1.0, 0.5])
    rows = []
    orig = QuasiNormedSpace.norms
    monkeypatch.setattr(QuasiNormedSpace, "norms",
                        lambda self, vs: rows.append(len(vs)) or orig(self, vs))
    n_seeds, moves = 4, 2 * X.dim + 2
    for extra in (3, 3 * moves):
        rows.clear()
        galb_gauge_estimate(X, a, budget=n_seeds + extra, seed=0, analytic=False)
        # every seed in one call, then per coefficient one call clipping the two
        # random moves into the ball and one call pricing the whole move set
        assert rows[0] == n_seeds
        assert rows[1::2] == [2] * len(rows[1::2])
        priced = rows[2::2]
        assert sum(priced) == extra and len(priced) == -(-extra // moves)


@pytest.mark.parametrize("g, rel", GAUGES)
def test_galbs_check_matches_loop_and_witness(g, rel):
    X = weak_l1_space(8)
    rep = galbs_check(g, X, sizes=(4, 6), trials=6, seed=9, budget=60)
    rng = np.random.default_rng(9)
    for m in (4, 6):
        shapes = [np.r_[1.0, np.zeros(m - 1)], np.ones(m), 0.5 ** np.arange(m),
                  1.0 / np.arange(1.0, m + 1.0)]
        shapes += [random_values(rng, m, ("uniform", "spiky", "decay")[int(rng.integers(3))])
                   for _ in range(2)]
        want = max(galb_gauge_estimate(X, a, budget=60, seed=9).value / rho(g, counting_space(m), a)
                   for a in shapes)
        assert rep.per_size[m] == pytest.approx(want, rel=rel)
    a = rep.witness_coefficients
    est = galb_gauge_estimate(X, a, budget=60, seed=9).value
    assert est / rho(g, counting_space(a.size), a) == pytest.approx(rep.max_ratio, rel=rel)


def test_galbs_check_prices_denominators_in_one_row_call_per_size(row_calls):
    calls = row_calls(Orlicz)
    for trials in (4, 30):
        calls.clear()
        galbs_check(Orlicz(builtin_phi("loglog")), lq_space(4, 2.0), sizes=(4, 8),
                    trials=trials, budget=20)
        assert calls == [trials, trials]


# ---------------------------------------------------------------------------
# intersection search: every (row, restart) pair in lockstep
# ---------------------------------------------------------------------------

def intersect_loop(g1, g2, space, vals, budget, seed):
    """One restart at a time, one atom at a time: (value, fraction vector)."""
    n = vals.size

    def obj(alphas):
        us = alphas * vals
        return g1._value_rows(space, us) + g2._value_rows(space, vals - us)

    seeds = np.stack([np.ones(n), np.zeros(n), np.full(n, 0.5)])
    vs = obj(seeds)
    j = int(np.argmin(vs))
    best, best_alpha = float(vs[j]), seeds[j].copy()
    if budget <= 0 or not np.any(vals > 0):
        return best, best_alpha
    rng = np.random.default_rng(seed)
    coarse = np.linspace(0.0, 1.0, 33)
    for alpha in [best_alpha] + [rng.random(n) for _ in range(budget)]:
        alpha = alpha.copy()
        cur = float(obj(alpha[None, :])[0])
        for _ in range(4):
            improved = False
            for k in range(n):
                if vals[k] == 0:
                    continue
                pts = coarse
                for _ in range(3):
                    cand = np.repeat(alpha[None, :], pts.size, axis=0)
                    cand[:, k] = pts
                    cv = obj(cand)
                    jj = int(np.argmin(cv))
                    if cv[jj] < cur * (1.0 - 1e-15):
                        alpha[k], cur, improved = pts[jj], float(cv[jj]), True
                    span = pts[1] - pts[0]
                    pts = np.linspace(max(0.0, alpha[k] - span), min(1.0, alpha[k] + span), 9)
            if not improved:
                break
        if cur < best:
            best, best_alpha = cur, alpha
    return best, best_alpha


LOGLOG = Orlicz(builtin_phi("loglog"))
SPLITS = [
    pytest.param(Lp(1.0), Lp(0.5), id="L1^L0.5"),
    pytest.param(WeakL1(), Lp(1.0), id="weakL1^L1"),
    pytest.param(LOGLOG, Lp(0.5), id="loglog^L0.5"),
    pytest.param(Lp(2.0), WeakL1(), id="L2^weakL1"),
]


def split_rows(rng, m, n):
    rows = np.exp(rng.uniform(-2, 2, size=(m, n))) * 10.0 ** rng.integers(-200, 201, size=(m, 1))
    rows[rng.random((m, n)) < 0.2] = 0.0
    return rows


@pytest.mark.parametrize("g1, g2", SPLITS)
def test_intersect_lockstep_matches_loop_bitwise(g1, g2):
    rng = np.random.default_rng(17)
    for n in (1, 2, 3, 4, 5, 9):
        space = MeasureSpace(rng.uniform(0.3, 1.5, size=n))
        m, budget, seed = int(rng.integers(1, 4)), int(rng.integers(0, 6)), int(rng.integers(3))
        if g1 is LOGLOG:
            budget = min(budget, 1)
        rows = split_rows(rng, m, n)
        values, alphas = gauges._intersect_rows(g1, g2, space, rows, budget, seed)
        for f, value, alpha in zip(rows, values, alphas):
            want, want_alpha = intersect_loop(g1, g2, space, f, budget, seed)
            assert value == want and np.array_equal(alpha, want_alpha)
            br = intersect_eval(g1, g2, space, ScalarField(f), budget, seed)
            u, v = br.witness
            assert br.value == want
            assert np.array_equal(u.values, want_alpha * f)
            assert np.array_equal(v.values, f - want_alpha * f)


@pytest.mark.parametrize("g1, g2", SPLITS)
def test_intersect_rows_equal_one_row_search(g1, g2):
    rng = np.random.default_rng(5)
    space = MeasureSpace(rng.uniform(0.3, 1.5, size=3))
    rows = split_rows(rng, 4, 3)
    got = gauge_values_rows(Intersect(g1, g2, budget=2), space, rows)
    for f, value in zip(rows, got):
        assert value == intersect_eval(g1, g2, space, ScalarField(f), budget=2).value


def test_intersect_row_calls_do_not_grow_with_rows_or_budget(row_calls, monkeypatch):
    calls = row_calls(Lp)
    n, rng = 3, np.random.default_rng(8)
    space = MeasureSpace(np.array([0.5, 1.2, 0.9]))
    rows = np.exp(rng.uniform(-1, 1, size=(4, n)))
    for m in (1, 4):
        for budget in (0, 2, 12):
            calls.clear()
            gauge_values_rows(Intersect(Lp(1.0), Lp(0.5), budget=budget), space, rows[:m])
            # one g1 and one g2 call for the seeds and starts, then at most one
            # pair per (sweep, atom, zoom round), whatever m and budget are
            assert calls[:2] == [m * (3 + budget)] * 2
            assert len(calls) <= 2 * (1 + 4 * n * 3)
            assert len(calls) > 2 or budget == 0
    # chunking over pairs bounds the rows of a call and changes no value
    want = gauge_values_rows(Intersect(Lp(1.0), Lp(0.5), budget=12), space, rows)
    monkeypatch.setattr(gauges, "_INTERSECT_CHUNK", 40)
    calls.clear()
    got = gauge_values_rows(Intersect(Lp(1.0), Lp(0.5), budget=12), space, rows)
    assert np.array_equal(got, want) and max(calls) <= 40


RATIONAL = Orlicz(builtin_phi("rational"))
SPLIT_PAIRS = [p.values for p in SPLITS] + [(Lp(0.5), RATIONAL), (WeakL1(), RATIONAL)]


@st.composite
def split_batch(draw):
    """A gauge pair, a weighted space, a batch with zero entries, zero rows and
    repeated rows, a budget of 0-3 and a seed."""
    g1, g2 = draw(st.sampled_from(SPLIT_PAIRS))
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    weights = np.array(draw(st.lists(st.floats(0.3, 1.5), min_size=n, max_size=n)))
    logs = draw(st.lists(st.floats(-2.0, 2.0), min_size=m * n, max_size=m * n))
    rows = np.exp(np.array(logs)).reshape(m, n) * 10.0 ** draw(st.integers(-200, 200))
    rows[np.array(draw(st.lists(st.integers(0, 3), min_size=m * n, max_size=m * n))
                  ).reshape(m, n) == 0] = 0.0
    for i in range(1, m):  # row i repeats row j < i, or keeps its own entries for j = i
        rows[i] = rows[draw(st.integers(0, i))]
    if draw(st.booleans()):
        rows[draw(st.integers(0, m - 1))] = 0.0
    return g1, g2, MeasureSpace(weights), rows, draw(st.integers(0, 3)), draw(st.integers(0, 2))


@settings(max_examples=150)
@given(split_batch())
def test_intersect_rows_equal_the_loop_bitwise_on_any_batch(case):
    # the lockstep search skips descent steps whose outcome is known; every
    # value and split keeps the bits of the one-restart-at-a-time loop
    g1, g2, space, rows, budget, seed = case
    values, alphas = gauges._intersect_rows(g1, g2, space, rows, budget, seed)
    for f, value, alpha in zip(rows, values, alphas):
        want, want_alpha = intersect_loop(g1, g2, space, f, budget, seed)
        assert np.float64(value).tobytes() == np.float64(want).tobytes()
        assert alpha.tobytes() == want_alpha.tobytes()


@pytest.mark.parametrize("g1, g2, weights, rows, budget, seed", [
    pytest.param(WeakL1(), Lp(1.0), [0.8202470603329268, 1.3669714078377004,
                                     0.5514531039470081, 0.3570550847200538],
                 [[1.284217543372897, 0.5794861366518662, 0.1630772643536148, 2.829306341794754]],
                 8, 0, id="weakL1^L1"),
    pytest.param(Lp(2.0), WeakL1(), [0.7891360016725848, 0.6996391009512974, 0.37898469502809795],
                 [[3.9723837718490036, 0.0, 0.0],
                  [2.418842897053952, 0.5452368572903273, 1.0276050607231526],
                  [0.5070026177586258, 1.272120402161502, 0.4815548584257824]],
                 4, 1, id="L2^weakL1"),
])
def test_intersect_revisits_an_atom_after_a_move_on_its_zoomed_grids(g1, g2, weights, rows,
                                                                     budget, seed):
    # a pair that last moved on a zoomed grid of an atom prices the same coarse
    # grid on its next visit, but zoomed grids centred elsewhere; here such a
    # visit moves, so a search that skipped it would end elsewhere
    space, rows = MeasureSpace(np.array(weights)), np.array(rows)
    values, alphas = gauges._intersect_rows(g1, g2, space, rows, budget, seed)
    for f, value, alpha in zip(rows, values, alphas):
        want, want_alpha = intersect_loop(g1, g2, space, f, budget, seed)
        assert value == want and np.array_equal(alpha, want_alpha)


def test_intersect_descent_ends_when_every_restart_reaches_restart_0(row_calls):
    # on counting measure L1 >= L2, so the best split gives g2 everything: restart
    # 0 starts there (the seed 0), and each random restart moves every entry to 0
    # on its first sweep, so reaches restart 0's split and stops.  Restart 0 has
    # not moved since its visits, so no second sweep runs: one g1 and one g2 call
    # for the starts and per (atom, grid) of the first sweep, whatever m and budget
    # (a search that ran a second sweep for the random restarts made 2 (1 + 6 n))
    calls = row_calls(Lp)
    rng = np.random.default_rng(3)
    for n in (2, 3, 5):
        rows = np.exp(rng.uniform(-1, 1, size=(3, n)))
        for m in (1, 3):
            for budget in (1, 4):
                calls.clear()
                got = gauge_values_rows(Intersect(Lp(1.0), Lp(2.0), budget=budget),
                                        counting_space(n), rows[:m])
                assert len(calls) == 2 * (1 + 3 * n)
                assert np.array_equal(got, gauge_values_rows(Lp(2.0), counting_space(n), rows[:m]))


def test_intersect_pinned_searches_make_fewer_luxemburg_solves(row_calls):
    # the orlicz-probes intersection instances at seeds 901 and 902 (Lp(0.5) ^
    # loglog on two atoms, budget 1): both restarts reach the same split, after
    # which one goes on, and no pair revisits an atom it has not moved since;
    # without these rules each search made 13 Luxemburg calls over 412 rows
    calls = row_calls(Orlicz)
    g = Intersect(Lp(0.5), LOGLOG, budget=1)
    for f, want in (("0x1.df64de6db91dcp+553 0x1.411d4498b5f1fp+552", [4, 66, 18, 18, 66, 18, 18]),
                    ("0x1.3e5e5c85ba063p-157 0x1.7200776ab1d92p-160",
                     [4, 66, 18, 18, 66, 18, 18, 33, 9, 9])):
        f = np.array([float.fromhex(x) for x in f.split()])
        calls.clear()
        values = gauge_values_rows(g, counting_space(2), f[None, :])
        assert calls == want
        assert values[0] == intersect_loop(Lp(0.5), LOGLOG, counting_space(2), f, 1, 0)[0]


# ---------------------------------------------------------------------------
# epsilon-lattice-convexity probe
# ---------------------------------------------------------------------------

class MinGauge(Gauge):
    """min_j |f_j|: homogeneous and monotone, far from L-convex."""

    kind = "min"

    def _value_rows(self, space, rows):
        return rows.min(axis=1)


def l_convexity_loop(g, epsilon, space, trials, seed):
    """One bite family, then one random trial, at a time: (f, family, max part, g(f))."""
    n = len(space)

    def test(fvals, fam):
        if np.any(fam > fvals[None, :] * (1 + 1e-12) + 1e-15):
            return None
        if np.any(fam.mean(axis=0) < (1.0 - epsilon) * fvals - 1e-12):
            return None
        gf = rho(g, space, fvals)
        mx = max(rho(g, space, row) for row in fam)
        return (fvals, fam, mx, gf) if gf > 0 and mx < epsilon * gf else None

    for k in range(2, min(n, 8) + 1):
        fam = np.ones((k, n))
        for j in range(k):
            fam[j, j % n] = 0.0
        hit = test(np.ones(n), fam)
        if hit is not None:
            return hit
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        fvals = random_values(rng, n, "uniform") + 0.05
        k = int(rng.integers(2, 9))
        mask = rng.random((k, n)) < rng.uniform(0.05, 0.5)
        delta = rng.uniform(0.0, 1.0)
        fam = fvals[None, :] * (1.0 - delta * mask)
        if np.any(delta * mask.mean(axis=0) > epsilon):
            continue
        hit = test(fvals, fam)
        if hit is not None:
            return hit
    return None


@pytest.mark.parametrize("g, space, epsilon", [
    pytest.param(MinGauge(), counting_space(2), 0.45, id="min"),
    pytest.param(Lp(0.1), uniform_probability_space(2), 0.45, id="L0.1"),
    pytest.param(WeakL1(), counting_space(3), 0.6, id="weakL1-3"),
    pytest.param(WeakL1(), counting_space(4), 0.7, id="weakL1-4"),
    pytest.param(LOGLOG, counting_space(3), 0.6, id="loglog-bites"),
    pytest.param(Lp(1.0), counting_space(6), 0.25, id="L1-none"),
])
@pytest.mark.parametrize("chunk", [256, 7])
def test_l_convexity_probe_matches_loop_and_witness(g, space, epsilon, chunk, monkeypatch):
    monkeypatch.setattr(convexity, "_TRIAL_CHUNK", chunk)
    hits = 0
    for seed in range(6):
        got = l_convexity_probe(g, epsilon, space, trials=300, seed=seed)
        want = l_convexity_loop(g, epsilon, space, 300, seed)
        if want is None:
            assert got is None
            continue
        hits += 1
        f, fam, mx, gf = want
        assert np.array_equal(got.f.values, f)
        assert np.array_equal(np.stack([m.values for m in got.family]), fam)
        assert (got.max_part_gauge, got.gauge_f, got.epsilon) == (mx, gf, epsilon)
    assert hits > 0 or g.kind == "lp"


def test_l_convexity_probe_prices_each_chunk_in_one_row_call(row_calls):
    calls = row_calls(WeakL1)
    for trials in (40, 600):
        calls.clear()
        assert l_convexity_probe(WeakL1(), 0.2, counting_space(5), trials=trials, seed=1) is None
        # the bite families, then one call per chunk of drawn trials
        assert len(calls) <= 1 + -(-trials // convexity._TRIAL_CHUNK)


# ---------------------------------------------------------------------------
# modulus-of-concavity probe
# ---------------------------------------------------------------------------

def concavity_loop(g, space, trials, seed):
    """The probe as a per-pair loop: each pair draws from its own rng.random calls."""
    n = len(space)
    pairs = []
    half = max(1, n // 2)
    ind1 = np.zeros(n)
    ind1[:half] = 1.0
    ind2 = np.zeros(n)
    ind2[half:] = 1.0
    if np.any(ind2 > 0):
        pairs.append((ind1, ind2))
    harm = 1.0 / np.arange(1.0, n + 1.0)
    pairs.append((harm, harm[::-1].copy()))
    pairs.append((np.ones(n), np.ones(n)))
    spike = np.zeros(n)
    spike[0] = 1.0
    pairs.append((spike, np.ones(n)))

    rng = np.random.default_rng(seed)
    styles = ("disjoint", "shared", "spiky")
    while len(pairs) < trials:
        style = styles[len(pairs) % len(styles)]
        if style == "disjoint" and n >= 2:
            mask = rng.random(n) < 0.5
            if not mask.any() or mask.all():
                mask[0] = True
                mask[-1] = False
            a = rng.random(n) * mask
            b = rng.random(n) * ~mask
        elif style == "spiky":
            a = rng.random(n) ** 4
            b = rng.random(n) ** 4
        else:
            a = rng.random(n)
            b = rng.random(n)
        pairs.append((a, b))

    ab = np.array(pairs)  # (T, 2, n)
    rows = np.vstack([ab[:, 0], ab[:, 1], ab[:, 0] + ab[:, 1]])
    va, vb, vab = g._value_rows(space, rows).reshape(3, -1)
    denom = va + vb
    ok = denom > 0
    ratios = np.where(ok, vab / np.where(ok, denom, 1.0), 0.0)
    j = int(np.argmax(ratios))
    return float(ratios[j]), pairs[j]


@pytest.mark.parametrize("g", [Lp(0.5), WeakL1(), Orlicz(builtin_phi("rational"))],
                         ids=["L0.5", "weakL1", "rational"])
def test_concavity_probe_matches_loop_bitwise_in_one_row_call(g, row_calls, monkeypatch):
    calls = row_calls(type(g))
    priced = []
    counted = type(g)._value_rows

    def recorded(self, space, rows):
        priced.append(rows.tobytes())
        return counted(self, space, rows)

    monkeypatch.setattr(type(g), "_value_rows", recorded)
    for n in (1, 2, 3, 16):
        space = counting_space(n)
        for trials in (1, 4, 5, 2000):
            value, (a, b) = concavity_loop(g, space, trials, seed=n + trials)
            calls.clear()
            br = concavity_modulus_probe(g, space, trials=trials, seed=n + trials)
            assert len(calls) == 1
            # the same candidate rows, then the same value and witness
            assert priced[-1] == priced[-2]
            assert np.float64(br.value).tobytes() == np.float64(value).tobytes()
            assert br.witness[0].values.tobytes() == a.tobytes()
            assert br.witness[1].values.tobytes() == b.tobytes()
