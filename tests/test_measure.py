import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qnlab import (
    InputError,
    MeasureSpace,
    Partition,
    ScalarField,
    VectorField,
    conditional_expectation,
    counting_space,
    decreasing_rearrangement,
    distribution_mass,
    integral,
    lq_space,
    product_space,
    restrict,
    trivial_partition,
    uniform_probability_space,
    weak_l1_value,
)
from qnlab.measure import _lp_rows, _weak_l1_rows


# ---------------------------------------------------------------------------
# spaces and fields
# ---------------------------------------------------------------------------

def test_measure_space_masses():
    s = MeasureSpace(np.array([0.5, 1.5, 2.0]))
    assert len(s) == 3
    assert s.total_mass == 4.0
    assert counting_space(3).total_mass == 3.0
    assert uniform_probability_space(8).total_mass == pytest.approx(1.0, abs=1e-15)


def test_measure_space_rejects_bad_weights():
    with pytest.raises(InputError):
        MeasureSpace(np.array([1.0, 0.0]))
    with pytest.raises(InputError):
        MeasureSpace(np.array([1.0, -2.0]))
    with pytest.raises(InputError):
        MeasureSpace(np.array([]))
    with pytest.raises(InputError):
        MeasureSpace(np.ones((2, 2)))
    for bad in (np.inf, np.nan):
        with pytest.raises(InputError):
            MeasureSpace(np.array([1.0, bad]))


def test_scalar_field_sign_checks():
    ScalarField(np.array([0.0, 1.0]))
    ScalarField(np.array([-1.0, 1.0]), signed=True)
    with pytest.raises(InputError):
        ScalarField(np.array([-1.0, 1.0]))
    with pytest.raises(InputError):
        ScalarField(np.array([np.inf, 1.0]))
    with pytest.raises(InputError):
        ScalarField(np.ones((2, 2)))


def test_vector_field_shape_checks():
    X = lq_space(2, 1.0)
    vf = VectorField(np.array([[1.0, 2.0], [3.0, 4.0]]), X)
    assert np.allclose(vf.norm_field().values, [3.0, 7.0])
    with pytest.raises(InputError):
        VectorField(np.ones((2, 3)), X)
    with pytest.raises(InputError):
        VectorField(np.ones(4), X)


def _message(make) -> str:
    with pytest.raises(InputError) as e:
        make()
    return str(e.value)


def test_field_checks_keep_their_messages_and_accept_negative_zero():
    finite = "scalar field values must be finite"
    negative = "negative values in an unsigned scalar field"
    for bad in (np.nan, np.inf, -np.inf):
        for signed in (False, True):
            assert _message(lambda: ScalarField(np.array([1.0, bad]), signed=signed)) == finite
    assert _message(lambda: ScalarField(np.array([0.5, -1e-300]))) == negative
    assert _message(lambda: ScalarField(np.ones((2, 2)))) == "scalar field values must be 1-d"
    assert _message(lambda: ScalarField(np.ones((2, 2)), signed=True)) == (
        "scalar field values must be 1-d")
    f = ScalarField(np.array([-0.0, 1.0]))
    assert math.copysign(1.0, f.values[0]) == -1.0
    X = lq_space(2, 1.0)
    for bad in (np.nan, np.inf, -np.inf):
        assert _message(lambda: VectorField(np.array([[1.0, bad]]), X)) == (
            "vector field entries must be finite")
    assert _message(lambda: VectorField(np.ones(2), X)) == (
        "vector field needs a 2-d (n_atoms, dim) array")
    assert _message(lambda: VectorField(np.ones((2, 2, 1)), X)) == (
        "vector field needs a 2-d (n_atoms, dim) array")
    assert _message(lambda: VectorField(np.ones((2, 3)), X)) == (
        "vector dimension 3 does not match target dim 2")
    assert VectorField(np.array([[-0.0, -1.0]]), X).vectors.tobytes() == (
        np.array([[-0.0, -1.0]]).tobytes())


# ---------------------------------------------------------------------------
# distribution function and rearrangement
# ---------------------------------------------------------------------------

def test_distribution_mass_strict_inequality():
    s = MeasureSpace(np.array([1.0, 2.0, 4.0]))
    f = ScalarField(np.array([1.0, 1.0, 3.0]))
    assert distribution_mass(s, f, 0.5) == 7.0
    assert distribution_mass(s, f, 1.0) == 4.0  # strict: atoms at 1.0 excluded
    assert distribution_mass(s, f, 3.0) == 0.0
    with pytest.raises(InputError):
        distribution_mass(s, f, -0.1)
    with pytest.raises(InputError):
        distribution_mass(s, ScalarField(np.array([-1.0, 0.0, 1.0]), signed=True), 0.5)


def test_decreasing_rearrangement_merges_ties():
    s = MeasureSpace(np.array([1.0, 2.0, 4.0, 1.0]))
    f = ScalarField(np.array([3.0, 1.0, 3.0, 0.0]))
    pairs = decreasing_rearrangement(s, f)
    assert pairs == [(3.0, 5.0), (1.0, 7.0), (0.0, 8.0)]
    values = [v for v, _ in pairs]
    assert values == sorted(values, reverse=True)
    assert pairs[-1][1] == s.total_mass


def test_weak_l1_value_matches_sup_over_levels():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        s = MeasureSpace(rng.uniform(0.1, 2.0, size=n))
        f = ScalarField(np.exp(rng.uniform(-2, 2, size=n)))
        got = weak_l1_value(s, f)
        # independent evaluation: scan s*mu{f>s} just below each value level
        levels = np.unique(f.values)
        best = 0.0
        for lv in levels:
            mass = float(np.sum(s.weights[f.values >= lv]))
            best = max(best, lv * mass)
        assert got == pytest.approx(best, rel=1e-12)


def test_weak_l1_value_flat_field_equals_l1():
    s = uniform_probability_space(16)
    f = ScalarField(np.full(16, 2.5))
    assert weak_l1_value(s, f) == pytest.approx(2.5, rel=1e-15)


# ---------------------------------------------------------------------------
# partitions and conditional expectation
# ---------------------------------------------------------------------------

def test_partition_validation():
    s = counting_space(4)
    Partition(((0, 1), (2, 3))).validate_for(s)
    with pytest.raises(InputError):
        Partition(((0, 1), (1, 2, 3))).validate_for(s)
    with pytest.raises(InputError):
        Partition(((0, 1),)).validate_for(s)
    with pytest.raises(InputError):
        Partition(((0, 1), (2, 5))).validate_for(s)
    with pytest.raises(InputError):
        Partition(((),))
    assert trivial_partition(s).blocks == ((0, 1, 2, 3),)


def test_conditional_expectation_block_means():
    s = MeasureSpace(np.array([1.0, 3.0, 2.0, 2.0]))
    f = ScalarField(np.array([4.0, 0.0, 1.0, 5.0]))
    p = Partition(((0, 1), (2, 3)))
    e = conditional_expectation(s, p, f)
    assert e.values[0] == e.values[1] == pytest.approx(1.0, rel=1e-15)
    assert e.values[2] == e.values[3] == pytest.approx(3.0, rel=1e-15)


def test_conditional_expectation_idempotent_bitwise():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 10))
        s = MeasureSpace(rng.uniform(0.1, 2.0, size=n))
        f = ScalarField(rng.standard_normal(n), signed=True)
        labels = rng.integers(0, min(4, n), size=n)
        blocks = tuple(
            tuple(np.flatnonzero(labels == k).tolist())
            for k in range(labels.max() + 1)
            if np.any(labels == k)
        )
        p = Partition(blocks)
        once = conditional_expectation(s, p, f)
        twice = conditional_expectation(s, p, once)
        assert np.array_equal(once.values, twice.values)  # bitwise


def test_conditional_expectation_preserves_integral():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = int(rng.integers(2, 10))
        s = MeasureSpace(rng.uniform(0.1, 2.0, size=n))
        f = ScalarField(rng.standard_normal(n), signed=True)
        p = Partition((tuple(range(0, n // 2 + 1)), tuple(range(n // 2 + 1, n)))) \
            if n // 2 + 1 < n else trivial_partition(s)
        e = conditional_expectation(s, p, f)
        assert integral(s, e) == pytest.approx(integral(s, f), rel=1e-12, abs=1e-12)


def test_conditional_expectation_vector_field():
    X = lq_space(2, 2.0)
    s = counting_space(3)
    vf = VectorField(np.array([[1.0, 0.0], [3.0, 2.0], [0.0, 0.0]]), X)
    p = Partition(((0, 1), (2,)))
    e = conditional_expectation(s, p, vf)
    assert np.allclose(e.vectors[0], [2.0, 1.0])
    assert np.allclose(e.vectors[1], [2.0, 1.0])
    assert np.allclose(e.vectors[2], [0.0, 0.0])
    assert np.allclose(integral(s, e), integral(s, vf))


@settings(max_examples=200)
@given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1), scale=st.integers(-150, 150),
       constant=st.booleans())
def test_scalar_block_averages_are_the_one_column_vector_averages_bitwise(n, seed, scale,
                                                                          constant):
    # blocks of up to 300 atoms with unequal weights; constant=True makes the
    # field constant on each block, the all-equal shortcut
    rng = np.random.default_rng(seed)
    s = MeasureSpace(rng.uniform(0.01, 10.0, size=n))
    labels = rng.integers(0, int(rng.integers(1, n + 1)), size=n)
    vals = rng.standard_normal(n) * 10.0 ** scale
    if constant:
        vals = vals[labels]
    p = Partition(tuple(tuple(np.flatnonzero(labels == k).tolist()) for k in np.unique(labels)))
    e = conditional_expectation(s, p, ScalarField(vals, signed=True))
    ev = conditional_expectation(s, p, VectorField(vals[:, None], lq_space(1, 1.0)))
    assert e.values.tobytes() == ev.vectors[:, 0].tobytes()


# ---------------------------------------------------------------------------
# products and restrictions
# ---------------------------------------------------------------------------

def test_product_space_row_major():
    a = MeasureSpace(np.array([1.0, 2.0]))
    b = MeasureSpace(np.array([0.5, 0.25, 0.25]))
    prod = product_space(a, b)
    assert len(prod.space) == 6
    assert prod.flat_index(1, 2) == 5
    assert prod.pair(5) == (1, 2)
    assert prod.space.weights[prod.flat_index(1, 0)] == pytest.approx(1.0)
    assert prod.space.total_mass == pytest.approx(a.total_mass * b.total_mass)
    m = np.arange(6, dtype=float).reshape(2, 3)
    f = prod.matrix_to_field(m)
    assert f.values[prod.flat_index(1, 1)] == 4.0
    with pytest.raises(InputError):
        prod.matrix_to_field(np.ones((3, 2)))
    with pytest.raises(InputError):
        prod.flat_index(2, 0)


def test_restrict_space_and_field():
    s = MeasureSpace(np.array([1.0, 2.0, 3.0, 4.0]))
    f = ScalarField(np.array([5.0, 6.0, 7.0, 8.0]))
    sub, g = restrict(s, [2, 0, 2], f)
    assert np.allclose(sub.weights, [1.0, 3.0])
    assert np.allclose(g.values, [5.0, 7.0])
    sub2, none = restrict(s, [1])
    assert none is None and np.allclose(sub2.weights, [2.0])
    with pytest.raises(InputError):
        restrict(s, [])
    with pytest.raises(InputError):
        restrict(s, [9])


# ---------------------------------------------------------------------------
# accuracy of the row kernels
# ---------------------------------------------------------------------------

@st.composite
def _kernel_rows(draw):
    """(row, weights, p): n <= 4096 entries within 1e+-300, p in [0.02, 8],
    counting, probability or spread weights."""
    n = draw(st.integers(1, 4096))
    p = draw(st.floats(0.02, 8.0))
    center = draw(st.floats(-300.0, 300.0))
    spread = draw(st.sampled_from([0.0, 1.0, 30.0, 300.0]))
    weights = draw(st.sampled_from(["counting", "probability", "spread"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    row = 10.0 ** np.clip(center + rng.uniform(-spread, spread, n), -300.0, 300.0)
    w = {"counting": np.ones(n), "probability": np.full(n, 1.0 / n),
         "spread": np.exp(rng.uniform(-7.0, 7.0, n))}[weights]
    return row, w, p


# the Riemann-sum field of rolewicz_counterexample(0.02, 2250): every entry is
# mass * n, a sum of one nonzero product; its norm reads 1.0000000000012768
_ROLEWICZ = (np.full(2250, 1.0 / 2250) * 2250.0, np.full(2250, 1.0 / 2250), 0.02)


@settings(max_examples=60)
@example(case=_ROLEWICZ)
@given(case=_kernel_rows())
def test_row_kernels_meet_their_stated_error_bounds(case):
    # L_p: u (4 + (n + 2)/p + |ln V|) against a 40-digit sum; weak-L1: n u
    # against the exact rational value of the same floats
    row, w, p = case
    n, u = row.size, 2.0**-53
    got = float(_lp_rows(row[None, :], p, w)[0])
    with mpmath.workdps(40):
        q = mpmath.mpf(p)
        exact = mpmath.fsum(mpmath.mpf(wj) * mpmath.mpf(a) ** q
                            for a, wj in zip(row.tolist(), w.tolist())) ** (1 / q)
        if exact > np.finfo(float).max:
            assert got == math.inf
        elif exact >= np.finfo(float).tiny:
            err = float(abs(mpmath.mpf(got) - exact) / exact)
            assert err <= u * (4.0 + (n + 2) / p + abs(float(mpmath.log(exact))))
    order = np.argsort(-row, kind="stable")
    mass, best = Fraction(0), Fraction(0)
    for v, wj in zip(row[order].tolist(), w[order].tolist()):
        mass += Fraction(wj)
        best = max(best, Fraction(v) * mass)
    got = Fraction(float(_weak_l1_rows(row[None, :], w)[0]))
    assert abs(got - best) <= n * Fraction(u) * best
