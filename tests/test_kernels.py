"""The row kernels behind L_p / l_q and weak-L1, across the whole float range.

Regression cases where powers taken before scaling overflow or leave the
normal range, and Hypothesis properties: homogeneity over scales 10^+-300
and agreement with the row-max-scaled math.fsum and level-set oracles.
"""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qnlab import (
    Convexified,
    InputError,
    Lp,
    MeasureSpace,
    ScalarField,
    Tag,
    VectorField,
    WeakL1,
    convexify,
    counting_space,
    eval_gauge,
    eval_vector_gauge,
    gauge_values_rows,
    lq_space,
    p_envelope,
    weak_l1_space,
)
from oracles import lp_oracle, weak_l1_oracle

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

GAUGES = (Lp(0.5), Lp(1.0), Lp(2.0), Lp(3.0), WeakL1(), convexify(Lp(0.5), 2.0))

atoms = st.lists(
    st.tuples(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), st.floats(0.5, 2.0)),
    min_size=1,
    max_size=8,
)
scales = st.integers(-300, 300).map(lambda e: 10.0**e)


def _oracle(g, values, weights):
    if isinstance(g, WeakL1):
        return weak_l1_oracle(values, weights)
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
