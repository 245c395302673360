"""The row kernels behind L_p / l_q, weak-L1 and Orlicz, across the whole float range.

Regression cases where powers taken before scaling overflow or leave the
normal range, and Hypothesis properties: homogeneity over scales 10^+-300,
agreement with the row-max-scaled math.fsum, level-set and brentq
Luxemburg oracles, a row's value independent of the batch it is in, and
`eval_gauge` equal to the row kernel bitwise, under the gauge's declared
tag and tol.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnlab import (
    Convexified,
    InputError,
    Intersect,
    Lp,
    MeasureSpace,
    Orlicz,
    ScalarField,
    Tag,
    VectorField,
    WeakL1,
    builtin_phi,
    convexify,
    counting_space,
    eval_gauge,
    eval_vector_gauge,
    gauge_values_rows,
    lq_space,
    p_envelope,
    weak_l1_space,
)
from qnlab.gauges import _loglog_eval, _rational_eval
from qnlab.measure import _row_max, _weak_l1_rows
from oracles import lp_oracle, lux_oracle, weak_l1_oracle

EXTREME_ROWS = ([1e200, 1e200, 0.0], [1e-300, 1e-310, 0.0])


# ---------------------------------------------------------------------------
# regression cases
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("row", EXTREME_ROWS)
@pytest.mark.parametrize("p", [3.0, 2.0])
def test_lp_gauge_on_rows_whose_powers_leave_the_range(p, row):
    want = lp_oracle(row, np.ones(3), p)
    res = eval_gauge(Lp(p), counting_space(3), ScalarField(np.array(row)))
    assert res.value == pytest.approx(want, rel=1e-13, abs=0.0)
    assert res.tag is Tag.EXACT
    got = gauge_values_rows(Lp(p), counting_space(3), np.array([row]))
    assert got[0] == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("row", EXTREME_ROWS)
@pytest.mark.parametrize("q", [3.0, 2.0])
def test_lq_norm_on_vectors_whose_powers_leave_the_range(q, row):
    X = lq_space(3, q)
    want = lp_oracle(row, np.ones(3), q)
    assert X.norm(np.array(row)) == pytest.approx(want, rel=1e-13, abs=0.0)
    assert X.norms(np.array([row]))[0] == pytest.approx(want, rel=1e-13, abs=0.0)


def test_lp_gauge_with_subnormal_power_sum():
    # the squares sum to about 1.5e-320, a subnormal with a few digits left
    row = [1e-200, 1.234567e-160]
    want = lp_oracle(row, np.ones(2), 2.0)
    res = eval_gauge(Lp(2.0), counting_space(2), ScalarField(np.array(row)))
    assert res.value == pytest.approx(want, rel=1e-13, abs=0.0)


def test_convexified_gauge_on_field_whose_power_overflows():
    g = convexify(Lp(0.5), 2.0)  # equals L1
    res = eval_gauge(g, counting_space(2), ScalarField(np.array([1e200, 1.0])))
    assert res.value == pytest.approx(1e200, rel=1e-13, abs=0.0)
    assert res.tag is Tag.EXACT


def test_envelope_of_a_field_whose_gauge_powers_overflow():
    # every candidate's gauge values are near 1e200, so their squares overflow
    f = ScalarField(np.array([1e200, 3e199]))
    res = p_envelope(Lp(1.0), 2.0, counting_space(2), f, budget=8)
    assert np.isfinite(res.value) and res.tag is Tag.UPPER
    assert res.witness.check_sums_to(f)
    parts = res.witness.matrix()
    want = lp_oracle([lp_oracle(r, np.ones(2), 1.0) for r in parts], np.ones(len(parts)), 2.0)
    assert res.value == pytest.approx(want, rel=1e-12, abs=0.0)


def test_value_beyond_the_float_range_raises():
    f = ScalarField(np.full(4, 1.7e308))
    with pytest.raises(InputError):
        eval_gauge(Lp(0.5), counting_space(4), f)
    F = VectorField(np.full((4, 1), 1.7e308), lq_space(1, 1.0))
    with pytest.raises(InputError):
        eval_vector_gauge(Lp(0.5), counting_space(4), F)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

GAUGES = (
    Lp(0.5),
    Lp(1.0),
    Lp(2.0),
    Lp(3.0),
    WeakL1(),
    convexify(Lp(0.5), 2.0),
    Orlicz(builtin_phi("loglog")),
    Orlicz(builtin_phi("rational")),
)

atoms = st.lists(
    st.tuples(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), st.floats(0.5, 2.0)),
    min_size=1,
    max_size=8,
)
scales = st.integers(-300, 300).map(lambda e: 10.0**e)


def _oracle(g, values, weights):
    if isinstance(g, WeakL1):
        return weak_l1_oracle(values, weights)
    if isinstance(g, Orlicz):
        return lux_oracle(g.phi, values, weights)
    if isinstance(g, Convexified):  # the r-convexification of L_p is L_(p r)
        return lp_oracle(values, weights, g.base.p * g.r)
    return lp_oracle(values, weights, g.p)


def _split(pairs):
    values, weights = zip(*pairs)
    return np.array(values), MeasureSpace(np.array(weights))


@pytest.mark.parametrize("g", GAUGES, ids=lambda g: g.label())
@given(pairs=atoms, t=scales)
def test_gauge_homogeneous_across_float_range(g, pairs, t):
    values, space = _split(pairs)
    base = eval_gauge(g, space, ScalarField(values)).value
    scaled = eval_gauge(g, space, ScalarField(t * values)).value
    assert scaled == pytest.approx(t * base, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("g", GAUGES, ids=lambda g: g.label())
@given(pairs=atoms, t=scales)
def test_gauge_matches_scaled_oracle(g, pairs, t):
    values, space = _split(pairs)
    f = t * values
    want = _oracle(g, f, space.weights)
    assert eval_gauge(g, space, ScalarField(f)).value == pytest.approx(
        want, rel=1e-12, abs=0.0
    )
    rows = gauge_values_rows(g, space, np.stack([f, f[::-1]]))
    assert rows[0] == pytest.approx(want, rel=1e-12, abs=0.0)
    rev = _oracle(g, f[::-1], space.weights)
    assert rows[1] == pytest.approx(rev, rel=1e-12, abs=0.0)


entry = st.one_of(st.just(0.0), st.floats(1e-3, 1.0), st.floats(-1.0, -1e-3))
# (row, decimal exponent of its scale) pairs of a common length d
batches = st.integers(1, 6).flatmap(
    lambda d: st.lists(
        st.tuples(st.lists(entry, min_size=d, max_size=d), st.integers(-300, 300)),
        min_size=1,
        max_size=5,
    )
)


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 3.0, None], ids=lambda q: f"l{q}" if q else "weak")
@given(batch=batches)
def test_target_norms_homogeneous_and_match_scaled_oracle(q, batch):
    rows, exps = zip(*batch)
    base = np.array(rows)
    scale = 10.0 ** np.array(exps, dtype=float)
    vs = base * scale[:, None]
    d = vs.shape[1]
    if q is None:
        X = weak_l1_space(d)
        want = [weak_l1_oracle(v, np.ones(d)) for v in vs]
    else:
        X = lq_space(d, q)
        want = [lp_oracle(v, np.ones(d), q) for v in vs]
    got = X.norms(vs)
    assert list(got) == pytest.approx(want, rel=1e-12, abs=0.0)
    assert [X.norm(v) for v in vs] == pytest.approx(want, rel=1e-12, abs=0.0)
    assert list(got) == pytest.approx(list(X.norms(base) * scale), rel=1e-12, abs=0.0)


wide_batches = st.integers(1, 12).flatmap(
    lambda d: st.lists(
        st.tuples(st.lists(entry, min_size=d, max_size=d), st.integers(-300, 300)),
        min_size=2,
        max_size=9,
    )
)


@pytest.mark.parametrize("g", GAUGES, ids=lambda g: g.label())
@settings(max_examples=25)
@given(batch=wide_batches)
def test_row_value_does_not_depend_on_its_batch(g, batch):
    # a search prices one row in batches of any size and layout; its value
    # must be the one the row gets alone, bitwise
    rows, exps = zip(*batch)
    vs = np.abs(np.array(rows)) * 10.0 ** np.array(exps, dtype=float)[:, None]
    space = MeasureSpace(np.linspace(0.5, 2.0, vs.shape[1]))
    whole = gauge_values_rows(g, space, vs)
    alone = [gauge_values_rows(g, space, v[None, :])[0] for v in vs]
    assert np.array_equal(whole, alone)
    assert np.array_equal(gauge_values_rows(g, space, np.asfortranarray(vs)), whole)
    assert np.array_equal(gauge_values_rows(g, space, vs[1:]), whole[1:])


# ---------------------------------------------------------------------------
# one result path: eval_gauge is the row kernel under the gauge's declaration
# ---------------------------------------------------------------------------

ONE_PATH_BASES = (
    Lp(0.5),
    Lp(2.0),
    WeakL1(),
    Orlicz(builtin_phi("loglog")),
    Orlicz(builtin_phi("rational")),
    Orlicz(builtin_phi("power", 0.5)),
    Intersect(Lp(1.0), WeakL1(), budget=4),
)
ONE_PATH_GAUGES = (
    ONE_PATH_BASES
    + tuple(convexify(g, (0.7, 1.5, 3.0)[i % 3]) for i, g in enumerate(ONE_PATH_BASES))
    + (convexify(convexify(Orlicz(builtin_phi("loglog")), 0.7), 2.5),)
)
# signed fields whose nonzero entries have magnitudes in [1e-300, 1e300),
# drawn from the whole range and from [1e-3, 1e3]
magnitudes = st.one_of(st.floats(1e-3, 1e3), st.tuples(
    st.floats(1.0, 9.99), st.integers(-300, 299)).map(lambda me: me[0] * 10.0 ** me[1]))
fields = st.lists(st.one_of(st.just(0.0), magnitudes, magnitudes.map(lambda v: -v)),
                  min_size=1, max_size=6)


@pytest.mark.parametrize("g", ONE_PATH_GAUGES, ids=lambda g: g.label())
@settings(max_examples=100)
@given(values=fields)
def test_eval_gauge_is_the_row_kernel_bitwise(g, values):
    f = np.array(values)
    space = MeasureSpace(np.linspace(0.5, 2.0, f.size))
    res = eval_gauge(g, space, ScalarField(f, signed=True))
    assert res.value == gauge_values_rows(g, space, f[None, :])[0]
    assert res.tag is g.tag and res.tol == g.tol


# ---------------------------------------------------------------------------
# tall, narrow batches reduce column by column, to the same bits
# ---------------------------------------------------------------------------

# shapes on each side of the column-fold rule (n <= 16 and m >= 16 n, and at
# n = 16 at most 1.5 MiB, i.e. 12288 rows)
FOLD_SHAPES = ((1, 8), (7, 3), (64, 8), (65, 8), (127, 8), (128, 8), (256, 16),
               (16000, 8), (40000, 3), (4000, 64), (12288, 16), (12289, 16), (40000, 16),
               (100000, 4), (100000, 8))


def _fold_rows(m, n, seed):
    """Rows over 1e+-300 with zero rows, zero entries, tied rows and 1e+-300 itself."""
    rng = np.random.default_rng(seed)
    rows = 10.0 ** rng.uniform(-300.0, 300.0, size=(m, n))
    rows[rng.random((m, n)) < 0.2] = 0.0
    rows[rng.random(m) < 0.1] = rows[0]
    rows[::5] = 1.0
    rows[::7] = 0.0
    rows.flat[:2] = (1e300, 1e-300)
    return rows


def _old_weak_l1_rows(rows, weights):
    """The sort/cumsum/max formula the weak-L1 kernel must reproduce bitwise."""
    if (weights == weights[:1]).all():
        v = np.sort(rows, axis=1)[:, ::-1]
        return np.max(v * np.cumsum(weights), axis=1, initial=0.0)
    order = np.argsort(-rows, axis=1, kind="stable")
    v = np.take_along_axis(rows, order, axis=1)
    return np.max(v * np.cumsum(weights[order], axis=1), axis=1)


@pytest.mark.parametrize("shape", FOLD_SHAPES)
def test_row_max_equals_numpy_row_max_bitwise(shape):
    rows = _fold_rows(*shape, seed=shape[0] * 100 + shape[1])
    for r in (rows, -rows, np.asfortranarray(rows)):
        assert np.array_equal(_row_max(r), r.max(axis=1))


@pytest.mark.parametrize("shape", FOLD_SHAPES + ((5, 0), (200, 0)))
def test_weak_l1_rows_equal_the_sort_cumsum_formula_bitwise(shape):
    m, n = shape
    rows = _fold_rows(m, n, seed=m * 100 + n + 1)
    rng = np.random.default_rng(n)
    for w in (np.ones(n), np.full(n, 1.0 / max(n, 1)), rng.uniform(0.5, 2.0, size=n),
              10.0 ** rng.uniform(-3.0, 3.0, size=n)):
        got = _weak_l1_rows(rows, w)
        assert got.shape == (m,)
        assert np.array_equal(got, _old_weak_l1_rows(rows, w)), w[:2]


def _old_loglog_eval(t):
    return t * np.log(np.e + 1.0 / np.maximum(t, 2.0 ** -1022))


def _old_rational_eval(t):
    return t / (1.0 + t)


@pytest.mark.parametrize("shape", ((), (1,), (7,), (3, 5), (2, 3, 4), (40, 12, 8)))
def test_builtin_evaluators_equal_the_allocating_form_and_leave_their_input(shape):
    rng = np.random.default_rng(len(shape))
    t = np.asarray(10.0 ** rng.uniform(-320.0, 300.0, size=shape))
    if t.size > 3:
        t.flat[:4] = (0.0, 5e-324, 1e300, 1.0)
    for new, old in ((_loglog_eval, _old_loglog_eval), (_rational_eval, _old_rational_eval)):
        for x in (t, t.T):
            before = x.copy()
            got = new(x)
            assert isinstance(got, np.ndarray) and got.shape == x.shape
            assert np.array_equal(got, old(x))
            assert np.array_equal(x, before)
