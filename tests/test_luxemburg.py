"""The Luxemburg solve behind every Orlicz gauge.

Each value must be certified by its bracket: the level sum, summed apart
from qnlab by math.fsum, exceeds 1 at v/sqrt(1+tol) and does not at
v*sqrt(1+tol).  It must agree with the brentq oracle, and a counting
kernel shows how many phi calls a solve makes: never more than bisecting
the whole bracket would, and about ten on typical rows.  Few-row batches
are solved on Python floats, from the start grid on, and larger ones as
numpy arrays; both must give the bits and the phi calls of a copy of the
vector code, and a few solves are pinned bitwise.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnlab import (
    MeasureSpace,
    Orlicz,
    OrliczFunction,
    ScalarField,
    builtin_phi,
    eval_gauge,
    gauge_values_rows,
    luxemburg,
)
from qnlab.errors import GaugeDefinitionError, InputError
from qnlab.gauges import (_LUX_CHUNK, _LUX_COARSE, _LUX_FEW, _LUX_GROUP, _LUX_X, DEFAULT_LUX_TOL,
                          _fdiv, _loglog_eval, _lux_rows)
from qnlab.measure import _row_max, _wsum
from oracles import lux_level_sum, lux_oracle

SQUARE = OrliczFunction(name="square", evaluator=lambda t: np.asarray(t) ** 2,
                        claimed_concave=False)
KERNELS = {"loglog": builtin_phi("loglog"), "rational": builtin_phi("rational"),
           "square": SQUARE}
TOLS = (1e-13, 1e-6, 10.0)


def counting(phi: OrliczFunction, calls: list) -> OrliczFunction:
    """phi, recording the size of every array it is called on after construction."""
    ev = phi.evaluator
    out = OrliczFunction(name=phi.name, claimed_concave=False,
                         evaluator=lambda t: calls.append(np.size(t)) or ev(t))
    calls.clear()
    return out


def bisection_steps(tol: float) -> int:
    """Steps a fixed geometric bisection of [2^-60, 2^200] takes to reach tol."""
    return min(max(math.ceil(math.log2(260 * math.log(2.0) / math.log1p(tol))), 9), 64)


# ---------------------------------------------------------------------------
# every value is certified by its bracket and agrees with the oracle
# ---------------------------------------------------------------------------

# loglog and square keep a well-conditioned root however far apart the
# entries are; the rational level sum is flat where its terms saturate, so
# far-apart entries make its root ill-conditioned and the certificate would
# turn on rounding: its rows spread over 10^+-2 around a scale in 10^+-300
@st.composite
def lux_case(draw):
    name = draw(st.sampled_from(sorted(KERNELS)))
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 3))
    if name == "rational":
        scale = draw(st.floats(-300.0, 300.0))
        exps = [[scale + draw(st.floats(-2.0, 2.0)) for _ in range(n)] for _ in range(m)]
    else:
        exps = [[draw(st.floats(-300.0, 300.0)) for _ in range(n)] for _ in range(m)]
    rows = 10.0 ** np.array(exps)
    zeros = np.array(draw(st.lists(st.booleans(), min_size=m * n, max_size=m * n)))
    rows[zeros.reshape(m, n)] = 0.0
    weights = np.array(draw(st.lists(st.floats(0.25, 4.0), min_size=n, max_size=n)))
    return name, rows, weights


@settings(max_examples=300)
@given(case=lux_case(), tol=st.sampled_from(TOLS))
def test_luxemburg_value_is_certified_by_fsum_level_sums(case, tol):
    name, rows, weights = case
    phi = KERNELS[name]
    g, space = Orlicz(phi, tol=tol), MeasureSpace(weights)
    batch = gauge_values_rows(g, space, rows)
    for row, v in zip(rows, batch):
        assert gauge_values_rows(g, space, row[None, :])[0] == v  # bitwise
        top = row.max()
        if top == 0.0:
            assert v == 0.0
            continue
        if v == 0.0:
            # the root lies below the bracket bottom, 2^-60 times the row max
            assert lux_level_sum(phi, row, weights, top * 2.0 ** -60) <= 1.0
            assert lux_oracle(phi, row, weights) == 0.0
            continue
        r = math.sqrt(1.0 + tol)
        assert lux_level_sum(phi, row, weights, v / r) > 1.0
        assert lux_level_sum(phi, row, weights, v * r) <= 1.0
        want = lux_oracle(phi, row, weights)
        assert abs(v - want) <= max(2.0 * tol, 1e-12) * want


def test_tight_tolerance_values_are_certified_far_from_the_row_max():
    # heavy or light weights put the root up to 2^100 from the row max, where
    # log2 t has too few bits left to resolve hi/lo = 1 + 1e-15
    phi, row = KERNELS["loglog"], np.array([1.0, 0.3])
    for tol in (1e-15, 2e-15):
        r = math.sqrt(1.0 + tol)
        for w in (1e-12, 1e-3, 1e6, 1e12, 1e30):
            v = luxemburg(phi, ScalarField(row), tol=tol, weights=np.full(2, w))
            assert lux_level_sum(phi, row, [w, w], v / r) > 1.0, (tol, w)
            assert lux_level_sum(phi, row, [w, w], v * r) <= 1.0, (tol, w)


# ---------------------------------------------------------------------------
# phi-call budgets
# ---------------------------------------------------------------------------

def _budget_batches():
    """Rows whose roots sit all over the bracket, for each kernel."""
    rng = np.random.default_rng(12)
    typical = np.exp(rng.uniform(-3.0, 3.0, size=(40, 6)))
    typical[rng.random(typical.shape) < 0.2] = 0.0
    wide = 10.0 ** rng.uniform(-300.0, 300.0, size=(40, 6))
    for phi in KERNELS.values():
        for rows in (typical, wide):
            for w in (np.ones(6), np.full(6, 1.0 / 6.0), np.full(6, 1e9), np.full(6, 0.2 + 1e-9)):
                yield phi, rows, w


def test_luxemburg_never_makes_more_phi_calls_than_bisection():
    # the first call prices the start grid, bracket ends included; the
    # fallback then keeps every row within the bisection's step count
    # (tol 1e-16 and 7e-16 lie below and just above the float resolution of x)
    for tol in (1e-13, 1e-6, 10.0, 1e-300, 1e-16, 7e-16, 1e300):
        for phi, rows, w in _budget_batches():
            calls = []
            gauge_values_rows(Orlicz(counting(phi, calls), tol=tol), MeasureSpace(w), rows)
            assert len(calls) <= bisection_steps(tol) + 1, (phi.name, tol, w[0])


def test_luxemburg_mean_phi_calls_on_single_rows():
    # 200 one-row solves: a fixed bisection makes 51 phi calls for each
    rng = np.random.default_rng(5)
    counts = []
    for name in ("loglog", "rational"):
        for _ in range(100):
            n = int(rng.integers(2, 13))
            row = np.exp(rng.uniform(-3.0, 3.0, size=n))
            row[rng.permutation(n)[: int(rng.integers(0, n - 1))]] = 0.0
            w = rng.uniform(0.5, 2.0, size=n)
            calls = []
            v = luxemburg(counting(KERNELS[name], calls), ScalarField(row), tol=1e-13, weights=w)
            assert v == luxemburg(KERNELS[name], ScalarField(row), tol=1e-13, weights=w)
            counts.append(len(calls))
    assert np.mean(counts) <= 9.5, np.mean(counts)


def test_heavy_weights_do_not_fall_back_to_bisection():
    # these roots lie 2^24.8 and 2^35 times the row max, in the start-grid
    # interval [2^24, 2^64], narrow enough for regula falsi to close it
    # before the bisection fallback starts
    phi, row = KERNELS["loglog"], np.array([1.0, 0.5, 0.2])
    r = math.sqrt(1.0 + DEFAULT_LUX_TOL)
    for w in (1e6, 1e9):
        calls = []
        v = gauge_values_rows(Orlicz(counting(phi, calls)), MeasureSpace(np.full(3, w)),
                              row[None, :])[0]
        assert len(calls) <= 12, (w, len(calls))
        assert lux_level_sum(phi, row, [w] * 3, v / r) > 1.0, w
        assert lux_level_sum(phi, row, [w] * 3, v * r) <= 1.0, w


def test_start_grid_is_priced_in_bounded_chunks():
    # 3000 rows of 8 atoms hold more than 2^16 grid points, so the start grid
    # is read in two rounds of calls of at most 8192 points: the 9000 coarse
    # points in 2 calls, then the 6000 group points (no root lies above 2^12
    # times its row max) in 1; the rows on either side of a chunk boundary
    # keep their one-row values
    rng = np.random.default_rng(2)
    rows = np.exp(rng.uniform(-3.0, 3.0, size=(3000, 8)))
    g, space = Orlicz(KERNELS["loglog"]), MeasureSpace(np.ones(8))
    calls = []
    vals = gauge_values_rows(Orlicz(counting(KERNELS["loglog"], calls)), space, rows)
    assert calls[:3] == [8192 * 8, 808 * 8, 6000 * 8] and max(calls[3:]) <= 3000 * 8
    assert len(calls) <= 3 + bisection_steps(DEFAULT_LUX_TOL)
    for i in (0, 2730, 2731, 2999):  # the first coarse chunk ends in row 2730
        assert gauge_values_rows(g, space, rows[i:i + 1])[0] == vals[i]


def test_tolerance_wider_than_the_range_gives_a_certified_value():
    # one start-grid call, and the value is still the midpoint of a bracket
    phi, row, w = KERNELS["loglog"], np.array([2.0, 0.5, 1e-3]), np.ones(3)
    calls = []
    v = luxemburg(counting(phi, calls), ScalarField(row), tol=1e300)
    assert len(calls) == 1 and v > 0.0
    assert lux_level_sum(phi, row, w, v / 1e150) > 1.0 >= lux_level_sum(phi, row, w, v * 1e150)


# ---------------------------------------------------------------------------
# NaN level sums read as above 1
# ---------------------------------------------------------------------------

def _nan_where(bad):
    """phi(t) = t, but NaN wherever bad(t) holds."""
    return OrliczFunction(name="nan", claimed_concave=False,
                          evaluator=lambda t: np.where(bad(np.asarray(t)), np.nan, t))


def test_nan_level_sum_at_the_bracket_bottom_still_gives_the_root():
    # the start grid prices phi up to 2^60 times the row max, far beyond the
    # range a kernel is checked on; a NaN there is a sum above 1
    phi = _nan_where(lambda t: t > 1e15)
    for tol in TOLS:
        v = luxemburg(phi, ScalarField(np.array([2.0, 0.5, 1e-3])), tol=tol)
        assert abs(v - 2.501) <= max(tol, 1e-12) * 2.501


def test_nan_level_sum_at_the_bracket_top_raises_only_if_nan_or_above_1_everywhere():
    phi = _nan_where(lambda t: (t > 0) & (t < 1e-50))
    v = luxemburg(phi, ScalarField(np.array([2.0, 0.5, 1e-3])))
    assert abs(v - 2.501) <= 1e-12 * 2.501
    # the entry 1e-60 makes the sum NaN from t = 2^-33 up, and above 1 below
    with pytest.raises(GaugeDefinitionError):
        luxemburg(phi, ScalarField(np.array([1.0, 1e-60])))


# ---------------------------------------------------------------------------
# the loglog kernel
# ---------------------------------------------------------------------------

def _old_loglog(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = t[pos] * np.log(np.e + 1.0 / t[pos])
    return out


def test_loglog_kernel_equals_the_gathered_formula_bitwise():
    rng = np.random.default_rng(9)
    for shape in ((1, 6), (30, 6), (2000, 8)):
        t = 10.0 ** rng.uniform(-300.0, 300.0, size=shape)
        t[rng.random(shape) < 0.2] = 0.0
        t.flat[:3] = (1e-300, 1e300, 1.0)
        assert np.array_equal(_loglog_eval(t), _old_loglog(t))


def test_loglog_kernel_is_finite_on_subnormals():
    # 1/t overflows below 2^-1022, where the gathered formula gave inf
    t = np.array([5e-324, 1e-310, 2.0 ** -1022])
    v = _loglog_eval(t)
    assert np.all(np.isfinite(v)) and np.all(v > 0) and np.all(v <= 745.0 * t)
    phi = builtin_phi("loglog")
    one = luxemburg(phi, ScalarField(np.array([1.0])))
    assert luxemburg(phi, ScalarField(np.array([1.0, 1e-310]))) == one
    assert luxemburg(phi, ScalarField(np.array([1e300, 1e-10]))) == one * 1e300


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def test_luxemburg_refuses_weights_that_make_no_measure_space():
    # negative, NaN, infinite and zero weights, and weights of the wrong length
    phi, f = KERNELS["loglog"], ScalarField(np.array([1.0, 2.0]))
    for w in ([-1.0, 1.0], [math.nan, 1.0], [1.0, math.inf], [0.0, 0.0], [0.0, 1.0],
              [1.0], [1.0, 1.0, 1.0], []):
        with pytest.raises(InputError):
            luxemburg(phi, f, weights=w)
    assert luxemburg(phi, f, weights=[1.0, 1.0]) == luxemburg(phi, f)


# ---------------------------------------------------------------------------
# luxemburg is the Orlicz gauge
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("phi", [builtin_phi("loglog"), builtin_phi("rational"),
                                 builtin_phi("power", 0.5), builtin_phi("power", 1.0),
                                 builtin_phi("power", 2.0)], ids=lambda phi: phi.name)
def test_luxemburg_is_the_orlicz_gauge_bitwise(phi):
    # the same bits at the default tol and at explicit ones, power kernels
    # (the L_p closed form) included
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        f = ScalarField(np.exp(rng.uniform(-3.0, 3.0, n)) * 10.0 ** rng.integers(-200, 200))
        w = rng.uniform(0.25, 4.0, n)
        s = MeasureSpace(w)
        assert luxemburg(phi, f) == eval_gauge(Orlicz(phi), MeasureSpace(np.ones(n)), f).value
        assert luxemburg(phi, f, weights=w) == eval_gauge(Orlicz(phi), s, f).value
        for tol in TOLS:
            want = eval_gauge(Orlicz(phi, tol), s, f).value
            assert luxemburg(phi, f, tol, w) == want, (tol, f.values)


# ---------------------------------------------------------------------------
# the two step loops give the same bits
# ---------------------------------------------------------------------------

def vector_lux_rows(phi, rows, weights, tol):
    """`_lux_rows` as it was when every batch stepped as numpy arrays."""
    out = np.zeros(rows.shape[0])
    scale = _row_max(rows)
    act = np.flatnonzero(scale > 0)
    if act.size == 0:
        return out
    a = rows[act] / scale[act, None]
    per = max(1, _LUX_CHUNK // a.shape[1])

    def level(q):
        return np.log(np.maximum(_wsum(phi(q), weights), 1e-300))

    def price(q):
        if len(q) <= per:
            return level(q)
        return np.concatenate([level(q[s:s + per]) for s in range(0, len(q), per)])

    one = a.shape[0] * _LUX_X.size <= per
    cols = slice(None) if one else _LUX_COARSE
    lev = np.full((a.shape[0], _LUX_X.size), np.nan)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x = _LUX_X[cols]
        lev[:, cols] = price((a[:, None, :] / np.exp2(x)[:, None]).reshape(-1, a.shape[1])
                             ).reshape(-1, x.size)
        g = np.logical_and.accumulate(~(lev[:, _LUX_COARSE] <= 0.0), axis=1).sum(axis=1)
        lev[_LUX_GROUP < g[:, None]] = np.nan
        if not one:
            r, j = np.nonzero((_LUX_GROUP == g[:, None]) & ~_LUX_COARSE)
            lev[r, j] = price(a[r] / np.exp2(_LUX_X[j, None]))
        k = np.argmax(lev <= 0.0, axis=1)
        if not np.all(lev[np.arange(k.size), k] <= 0.0):
            raise GaugeDefinitionError("Luxemburg level sum exceeds 1 at the bracket top")
        act, a, lev, k = act[k > 0], a[k > 0], lev[k > 0], k[k > 0]
        i = np.arange(k.size)
        tl, th, yl, yh = np.exp2(_LUX_X[k - 1]), np.exp2(_LUX_X[k]), lev[i, k - 1], lev[i, k]
        yp = np.full(k.size, np.inf)
        width = math.log1p(tol) / math.log(2.0)
        close = width * (1.0 - 2.0 ** -50) - 2.0 ** -50
        whole = math.log2((_LUX_X[-1] - _LUX_X[0]) / max(width, 1e-300))
        for left in range(max(0, min(math.ceil(whole), 63)), -1, -1):
            d = np.log2(th / tl)
            done = d <= (close if left else math.inf)
            if np.count_nonzero(done):
                out[act[done]] = scale[act[done]] * np.sqrt(tl[done] * th[done])
                act, a, tl, th, yl, yh, yp, d = (v[~done] for v in (act, a, tl, th, yl, yh, yp, d))
            if not act.size:
                break
            s = np.fmin(np.fmax(d - d * (yh / (yh - yl)), 0.5 * close), d - 0.5 * close)
            lim = close * 2.0 ** (left - 1)
            if d.max() > lim:
                s = np.where(d > lim, 0.5 * d, s)
            t = tl * np.exp2(s)
            y = level(a / t[:, None])
            q = y / yp
            m = np.where(q < 1.0, np.fmin(1.0 - q, 1.0), 0.5)
            down = y <= 0.0
            tl, yl, yp = np.where(down, tl, t), np.where(down, m * yl, y), y
            th, yh = np.where(down, t, th), np.where(down, y, m * yh)
    return out


# convex, and its level sums overflow near its roots: with a = 1, a root
# lies near t = 2^-7.5, in the start-grid interval [2^-12, 2^-6], and at
# t = 2^-12 both exponentials of a/t = 4096 are inf, so the level sum at the
# bracket bottom is NaN; between a/t = 1420 and 2839 it is inf
STEEP = OrliczFunction(name="steep", claimed_concave=False,
                       evaluator=lambda t: 1e-40 * (np.expm1(np.asarray(t) / 2.0)
                                                    - np.expm1(np.asarray(t) / 4.0)))
# phi(t) = 1e-5 t, but inf for t in (5e4, 2e5), beyond the checked grid: the
# first secant step of a row [1] lands at t = 1e-5, where the level sum is
# inf, as it was at the first step's start (yp = inf), so q = inf / inf is NaN
BAND = OrliczFunction(name="band", claimed_concave=False,
                      evaluator=lambda t: np.where((np.asarray(t) > 5e4) & (np.asarray(t) < 2e5),
                                                   np.inf, 1e-5 * np.asarray(t)))
STEP_KERNELS = dict(KERNELS, steep=STEEP, band=BAND)


@st.composite
def few_row_batch(draw):
    """1-40 rows (on both sides of _LUX_FEW) of 1-12 atoms over 1e+-300."""
    m, n = draw(st.integers(1, 40)), draw(st.integers(1, 12))
    exps = np.array(draw(st.lists(st.floats(-300.0, 300.0), min_size=m * n, max_size=m * n)))
    rows = 10.0 ** exps.reshape(m, n)
    holes = np.array(draw(st.lists(st.booleans(), min_size=m * n, max_size=m * n)))
    rows[holes.reshape(m, n)] = 0.0
    rows[draw(st.lists(st.integers(0, m - 1), max_size=2))] = 0.0  # zero rows
    weights = np.array(draw(st.lists(st.floats(0.25, 4.0), min_size=n, max_size=n)))
    return rows, weights


@settings(max_examples=100)
@given(batch=few_row_batch(), name=st.sampled_from(sorted(STEP_KERNELS)),
       tol=st.sampled_from((1e-13, 1e-6, 10.0, 1e-16)))
def test_step_loops_give_the_vector_loop_bits(batch, name, tol):
    rows, weights = batch
    phi = STEP_KERNELS[name]
    try:
        want = vector_lux_rows(phi, rows, weights, tol)
    except GaugeDefinitionError:
        with pytest.raises(GaugeDefinitionError):
            _lux_rows(phi, rows, weights, tol)
        return
    got = _lux_rows(phi, rows, weights, tol)
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]
    for row, v in zip(rows, got.tolist()):
        assert _lux_rows(phi, row[None, :], weights, tol)[0].hex() == v.hex()


def test_float_division_follows_numpy():
    vals = (0.0, -0.0, 1.0, -2.5, 5e-324, math.inf, -math.inf, math.nan)
    with np.errstate(all="ignore"):
        for a in vals:
            for b in vals:
                want = float(np.float64(a) / np.float64(b))
                got = _fdiv(a, b)
                assert got == want or (math.isnan(got) and math.isnan(want)), (a, b)


def test_few_rows_step_on_floats_and_more_in_numpy():
    # both sides of the switch: 2 and _LUX_FEW rows step on floats, one more
    # as arrays; on the band kernel the row [1, 0.5, 0] meets q = inf / inf,
    # and on the square kernel at tol 1e-15 the row [6.68, 5.91, 2.94] a q >= 1
    rng = np.random.default_rng(19)
    rows, w = np.exp(rng.uniform(-3.0, 3.0, size=(_LUX_FEW + 1, 3))), np.ones(3)
    rows[:2] = (1.0, 0.5, 0.0), (6.68, 5.91, 2.94)
    for m in (2, _LUX_FEW, _LUX_FEW + 1):
        for phi in STEP_KERNELS.values():
            for tol in (1e-13, 1e-15):
                got, want = _lux_rows(phi, rows[:m], w, tol), vector_lux_rows(phi, rows[:m], w, tol)
                assert got.tobytes() == want.tobytes(), (m, phi.name, tol)


# phi(t) = t, NaN for 0 < t < 1e-50: a row with an entry 1e-60 times its max
# has a NaN level sum, read as above 1, at every grid point
NAN_TINY = _nan_where(lambda t: (t > 0) & (t < 1e-50))
# phi(t) = t, but 0 beyond 1e15: a row's level sum is 0 at the grid bottom,
# below points where it is above 1, so only the grid read by group finds the
# root; and a lone entry has level sum exactly 1 at t = its row max, 2^0
DROP = OrliczFunction(name="drop", claimed_concave=False,
                      evaluator=lambda t: np.where(np.asarray(t) > 1e15, 0.0, np.asarray(t)))


def _solver_batches():
    """(case, phi, rows, weights) batches for both solvers."""
    rng = np.random.default_rng(20)
    loglog, rational = KERNELS["loglog"], KERNELS["rational"]
    # 1-3 rows of about 6000 atoms read the grid in two rounds (12 m points
    # > floor(2^16 / n) = 10 per call); a dense row, a spike and a sparse row
    # have roots in different groups, and on the rational kernel the light
    # spike's level sum stays below 1 at the grid bottom
    for m in (1, 2, 3):
        n = 6000 + m
        rows = np.exp(rng.uniform(-3.0, 3.0, size=(m, n)))
        rows[1:2, 1:] = 0.0
        rows[2:, 50:] = 0.0
        for phi in (loglog, rational):
            for w in (np.ones(n), np.full(n, 1e-4), np.full(n, 1e-9)):
                yield "two rounds", phi, rows, w
        yield "two rounds", DROP, rows, np.ones(n)
        bad = rows.copy()
        bad[-1, -1] = bad[-1].max() * 1e-60
        yield "raise", NAN_TINY, bad, np.ones(n)
    # nonzero rows on both sides of _LUX_FEW, among zero rows; the single-atom
    # rows of light atoms stay below 1 at the grid bottom on the rational kernel
    for m in (1, 2, _LUX_FEW - 1, _LUX_FEW, _LUX_FEW + 1, 2 * _LUX_FEW):
        n = int(rng.integers(1, 9))
        rows = 10.0 ** rng.uniform(-300.0, 300.0, size=(m, n))
        rows[rng.random(rows.shape) < 0.2] = 0.0
        rows[: m // 3, 1:] = 0.0
        rows[np.flatnonzero(rows.max(axis=1) == 0.0), 0] = 1.0
        w = rng.uniform(0.25, 4.0, size=n)
        w[0] = 0.5
        for pad in (0, 3):
            padded = np.insert(rows, rng.integers(0, m + 1, size=pad), 0.0, axis=0)
            for phi in (loglog, rational, STEEP, BAND, DROP):
                yield "switch", phi, padded, w
            # one more atom, where one nonzero row gets an entry 1e-70 times its max
            bad = np.hstack([padded, np.zeros((len(padded), 1))])
            i = np.flatnonzero(padded.max(axis=1))[-1]
            bad[i, -1] = 1e-70 * padded[i].max()
            yield "raise", NAN_TINY, bad, np.append(w, 1.0)


def test_float_solver_gives_the_vector_bits_and_phi_calls():
    # every batch: the same values bit for bit, or GaugeDefinitionError on
    # both sides, after the same phi calls on arrays of the same sizes
    seen = set()
    for case, phi, rows, w in _solver_batches():
        for tol in (1e-13, 1e-6, 1e-16):
            sides = []
            for solve in (_lux_rows, vector_lux_rows):
                calls = []
                try:
                    got = solve(counting(phi, calls), rows, w, tol).tobytes()
                except GaugeDefinitionError:
                    got = None
                sides.append((got, calls))
            assert sides[0] == sides[1], (case, phi.name, rows.shape, tol)
            got, calls = sides[0]
            nonzero = int(np.count_nonzero(rows.max(axis=1)))
            if case == "two rounds":
                assert calls[0] == 3 * nonzero * rows.shape[1]
            if got is None:
                seen.add(("raise", nonzero <= _LUX_FEW))
            elif 0.0 in np.frombuffer(got)[rows.max(axis=1) > 0]:
                seen.add("zero at the bottom" + (" (two rounds)" if case == "two rounds" else ""))
            seen.add((case, nonzero <= _LUX_FEW, nonzero < rows.shape[0]))
    assert seen >= {("raise", True), ("raise", False), "zero at the bottom",
                    "zero at the bottom (two rounds)", ("two rounds", True, False),
                    ("switch", True, True), ("switch", False, True), ("switch", True, False),
                    ("switch", False, False)}


# float.hex of one-row and few-row solves, as the numpy step loop gives
# them; [1, 1.58e-4] on the rational kernel bisects to the step cap (52 phi
# calls at the default tol 1e-13)
def _one(phi, row, **kw):
    return [luxemburg(phi, ScalarField(np.array(row)), **kw)]


def _rows(phi, rows, w, tol=1e-13):
    return list(gauge_values_rows(Orlicz(phi, tol=tol), MeasureSpace(np.array(w)), np.array(rows)))


PINNED = {
    "loglog-one": (lambda L, R: _one(L, [1.0]), ["0x1.6b9d60451cb09p+0"]),
    "loglog-three": (lambda L, R: _one(L, [2.0, 0.5, 1e-3]), ["0x1.1b112b5fbb1e8p+2"]),
    "loglog-far": (lambda L, R: _one(L, [1e300, 1e-10]), ["0x1.0f7a8e500f9e7p+997"]),
    "loglog-heavy": (lambda L, R: _one(L, [1.0, 0.5, 0.2], weights=np.full(3, 1e9)),
                     ["0x1.3ae19b45d0343p+35"]),
    "loglog-tight": (lambda L, R: _one(L, [1.0, 0.3], tol=1e-15, weights=np.full(2, 1e30)),
                     ["0x1.2f3a84cc8d752p+106"]),
    "loglog-wide-tol": (lambda L, R: _one(L, [2.0, 0.5, 1e-3], tol=10.0),
                        ["0x1.6a09e667f3bcdp+2"]),
    "rational-fallback": (lambda L, R: _one(R, [1.0, 1.58e-4]), ["0x1.9be32ae3a74d0p-7"]),
    "rational-fallback-gauge": (lambda L, R: _rows(R, [[1.0, 1.58e-4]], [1.0, 1.0]),
                                ["0x1.9be32ae3a74d0p-7"]),
    "rational-near": (lambda L, R: _one(R, [1.0, 1e-2]), ["0x1.99999999998e6p-4"]),
    "rational-weighted": (lambda L, R: _one(R, [0.3, 1.7, 2.9], tol=1e-9,
                                            weights=np.array([0.5, 1.0, 2.0])),
                          ["0x1.47bec17df4775p+2"]),
    "loglog-4x3": (lambda L, R: _rows(L, [[0.3, 1.7, 2.9], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                                          [1e-200, 3e-201, 1e-210]], [0.5, 1.0, 2.0]),
                   ["0x1.196c7c3dbdfa0p+4", "0x1.330889d18da55p-1", "0x0.0p+0",
                    "0x1.f388db3f95593p-665"]),
    "rational-2x2": (lambda L, R: _rows(R, [[1.0, 1.0], [5.0, 0.25]], [1.0, 1.0], tol=1e-6),
                     ["0x1.fffff79c8487bp-1", "0x1.1e377fe8d5d74p+0"]),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_few_row_solves_are_pinned_bitwise(name):
    solve, want = PINNED[name]
    assert [v.hex() for v in solve(KERNELS["loglog"], KERNELS["rational"])] == want


def test_rational_row_near_the_fallback_makes_52_phi_calls():
    # the steps close in on the root from above only, with m near 1, and the
    # bisection fallback then runs to the step cap; [1, 1e-2] takes 7 calls
    space = MeasureSpace(np.ones(2))
    for row, want in (([1.0, 1.58e-4], 52), ([1.0, 1e-2], 7)):
        calls = []
        gauge_values_rows(Orlicz(counting(KERNELS["rational"], calls)), space, np.array([row]))
        assert len(calls) == want, row
