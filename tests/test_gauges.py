import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnlab import (
    Convexified,
    GaugeDefinitionError,
    InputError,
    Intersect,
    Lp,
    MeasureSpace,
    Orlicz,
    OrliczFunction,
    QuasiNormedSpace,
    ScalarField,
    Tag,
    VectorField,
    WeakL1,
    builtin_phi,
    concavity_modulus_probe,
    convexify,
    counting_space,
    distribution_mass,
    dual_gauge,
    eval_gauge,
    eval_vector_gauge,
    gauge_values_rows,
    intersect_eval,
    lq_space,
    luxemburg,
    uniform_probability_space,
    weak_l1_value,
)
from qnlab.gauges import _ORLICZ_GRID, _loglog_eval, _power_eval, _rational_eval
from oracles import dual_oracle, intersect_oracle, orlicz_kernel_check, weak_l1_oracle
from test_luxemburg import _nan_where


def _builtin_gauges():
    return (
        Lp(0.5),
        Lp(1.0),
        Lp(2.0),
        WeakL1(),
        Orlicz(builtin_phi("loglog")),
        Orlicz(builtin_phi("rational")),
        Orlicz(builtin_phi("power", 0.5)),
        Convexified(Lp(0.5), 2.0),
        Intersect(Lp(1.0), Lp(0.5), budget=2),
    )


# ---------------------------------------------------------------------------
# closed forms and anchors
# ---------------------------------------------------------------------------

def test_lp_closed_forms_with_weights():
    s = MeasureSpace(np.array([2.0, 0.5, 1.0]))
    f = ScalarField(np.array([1.0, 4.0, 0.0]))
    assert eval_gauge(Lp(1.0), s, f).value == pytest.approx(4.0, rel=1e-15)
    assert eval_gauge(Lp(2.0), s, f).value == pytest.approx(np.sqrt(10.0), rel=1e-15)
    assert eval_gauge(Lp(0.5), s, f).value == pytest.approx((2 + 1) ** 2, rel=1e-14)
    assert eval_gauge(Lp(1.0), s, f).tag is Tag.EXACT
    with pytest.raises(InputError):
        Lp(0.0)


def test_weak_l1_gauge_matches_rearrangement_value():
    rng = np.random.default_rng(2)
    g = WeakL1()
    for _ in range(100):
        n = int(rng.integers(1, 9))
        s = MeasureSpace(rng.uniform(0.1, 2.0, size=n))
        f = ScalarField(np.exp(rng.uniform(-2, 2, size=n)))
        want = weak_l1_oracle(f.values, s.weights)
        assert eval_gauge(g, s, f).value == pytest.approx(want, rel=1e-14)
        assert weak_l1_value(s, f) == pytest.approx(want, rel=1e-14)


def test_luxemburg_matches_lp_for_power_kernel():
    # spec invariant: the solved Luxemburg gauge of the power kernel and
    # the Lp closed form agree within twice the bracket tolerance
    rng = np.random.default_rng(3)
    tol = 1e-13
    for p in (0.5, 1.0, 2.0):
        phi = builtin_phi("power", p)
        lp = Lp(p)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            s = MeasureSpace(rng.uniform(0.2, 2.0, size=n))
            f = ScalarField(np.exp(rng.uniform(-2, 2, size=n)))
            want = eval_gauge(lp, s, f).value
            got = luxemburg(phi, f, tol=tol, weights=s.weights)
            assert abs(got - want) <= 2.0 * tol * want


def test_orlicz_power_kernel_is_the_lp_closed_form():
    g = Orlicz(builtin_phi("power", 0.5))
    assert eval_gauge(g, counting_space(2), ScalarField(np.array([1.0, 4.0]))).value == 9.0


def test_luxemburg_tolerance_must_be_positive_and_finite():
    phi = builtin_phi("loglog")
    f = ScalarField(np.array([1.0, 2.0]))
    for tol in (0.0, -1e-13, math.nan, math.inf):
        with pytest.raises(InputError):
            Orlicz(phi, tol=tol)
        with pytest.raises(InputError):
            luxemburg(phi, f, tol=tol)


def test_luxemburg_function_counting_and_weighted():
    phi = builtin_phi("power", 0.5)
    f = ScalarField(np.array([1.0, 1.0]))
    # counting measure: (sum f^(1/2))^2 = 4
    assert luxemburg(phi, f, tol=1e-12) == pytest.approx(4.0, rel=5e-12)
    # weighted: matches the weighted Lp closed form
    w = np.array([2.0, 0.5])
    want = (2.0 * 1.0 + 0.5 * 1.0) ** 2
    assert luxemburg(phi, f, tol=1e-12, weights=w) == pytest.approx(want, rel=5e-12)
    with pytest.raises(InputError):
        luxemburg(phi, f, tol=0.0)
    with pytest.raises(InputError):
        luxemburg(phi, f, weights=np.ones(3))


def test_loglog_luxemburg_singleton_anchor():
    # phi(1/t) = 1 at t = 1.4203701180201165 for phi(u) = u*log(e + 1/u)
    v = luxemburg(builtin_phi("loglog"), ScalarField(np.array([1.0])), tol=1e-13)
    assert v == pytest.approx(1.4203701180201165, rel=1e-10)
    phi = builtin_phi("loglog")
    assert float(phi(np.array([1.0 / v]))[0]) == pytest.approx(1.0, abs=1e-11)


def test_luxemburg_batch_values_equal_single_row_values_bitwise():
    # every step of the solve reads only its own row, so a row's value
    # cannot depend on the rows it is batched with; 1100 rows of 5 atoms hold
    # more than 2^16 start-grid points, so that batch reads its grid in two
    # rounds where a lone row reads it in one call, and its atom weights 1e-9
    # to 1e12 put roots in every group of the grid
    rng = np.random.default_rng(15)
    small = np.exp(rng.uniform(-3, 3, size=(30, 5)))
    small[rng.random(small.shape) < 0.3] = 0.0
    small[:10] *= 1e300
    small[10:20] *= 1e-300
    small[0] = [0.0, 0.0, 0.0, 0.0, 4.0]  # one atom of mass 0.4: rational gives 0
    big = np.exp(rng.uniform(-3, 3, size=(1100, 5)))
    big[rng.random(big.shape) < 0.5] = 0.0
    big[:100] *= 1e300
    big[100:200] *= 1e-300
    big[200:210] = 0.0
    # a tall, narrow batch (60 rows of 3 atoms, at least 16 per atom: its row
    # maxima come from column folds) and a wide one (24 atoms: row by row)
    tall = np.exp(rng.uniform(-3, 3, size=(60, 3))) * 10.0 ** rng.integers(-300, 300, (60, 1))
    tall[::6] = 0.0
    wide = np.exp(rng.uniform(-3, 3, size=(12, 24))) * 10.0 ** rng.integers(-300, 300, (12, 1))
    wide[rng.random(wide.shape) < 0.3] = 0.0
    cases = ((MeasureSpace(np.array([0.7, 1.3, 1.0, 2.1, 0.4])), small),
             (MeasureSpace(np.array([0.5, 1.0, 2.0])), tall),
             (MeasureSpace(np.linspace(0.5, 2.0, 24)), wide),
             (MeasureSpace(np.array([1e-9, 1e-3, 1.0, 1e3, 1e12])), big))
    # t^(1/2) without its exponent p, so the gauge is solved instead of taking L_0.5
    sqrt = OrliczFunction(name="sqrt", evaluator=builtin_phi("power", 0.5).evaluator)
    for phi in (builtin_phi("loglog"), builtin_phi("rational"), sqrt):
        g = Orlicz(phi)
        for s, rows in cases:
            batch = gauge_values_rows(g, s, rows)
            single = np.array([gauge_values_rows(g, s, r[None, :])[0] for r in rows])
            assert np.array_equal(batch, single), (phi.name, len(rows))
        x = np.log2(batch[batch > 0] / big.max(axis=1)[batch > 0])  # the last case, big
        assert np.all(np.histogram(x, bins=[-60, -12, 0, 12, 200])[0] > 0), phi.name
    assert gauge_values_rows(Orlicz(builtin_phi("rational")), *cases[0])[0] == 0.0


def test_luxemburg_batch_beyond_one_chunk_reads_nan_islands_as_a_lone_row_does():
    # phi(t) = t but NaN on (2e3, 1e5): the grid point 2^-12 reads above 1
    # for many rows whose sum is below 1 lower down, so a batch must read the
    # same points as a lone row; NaN below 1e-50 makes the row [1, 1e-60]
    # read above 1 at every point, and it raises alone and in a batch
    phi = _nan_where(lambda t: ((t > 2e3) & (t < 1e5)) | ((t > 0) & (t < 1e-50)))
    g, s = Orlicz(phi), MeasureSpace(np.array([1e-9, 1e-8, 1.0, 1e-9, 1e-8, 2.0]))
    rng = np.random.default_rng(17)
    rows = np.exp(rng.uniform(-3, 3, size=(1000, 6)))
    rows[rng.random(rows.shape) < 0.3] = 0.0
    batch = gauge_values_rows(g, s, rows)
    assert np.array_equal(batch, [gauge_values_rows(g, s, r[None, :])[0] for r in rows])
    bad = np.array([[1.0, 1e-60, 0.0, 0.0, 0.0, 0.0]])
    for r in (bad, np.vstack([rows, bad])):
        with pytest.raises(GaugeDefinitionError):
            gauge_values_rows(g, s, r)


def test_luxemburg_tightest_tolerance_stops_after_64_phi_calls():
    calls = []
    loglog = builtin_phi("loglog").evaluator
    phi = OrliczFunction(name="loglog", evaluator=lambda t: calls.append(1) or loglog(t))
    s = MeasureSpace(np.array([0.7, 1.3, 1.0]))
    f = ScalarField(np.array([2.0, 0.5, 1e-3]))
    want = eval_gauge(Orlicz(phi), s, f).value
    calls.clear()
    got = eval_gauge(Orlicz(phi, tol=1e-300), s, f).value
    assert len(calls) <= 64
    assert got == pytest.approx(want, rel=1e-13)


def test_luxemburg_loose_tolerance_value_is_certified_by_its_bracket():
    # the bracket ends with hi/lo <= 1 + tol around its geometric midpoint,
    # so the level sum exceeds 1 below v/sqrt(1+tol) and not above v*sqrt(1+tol)
    phi = builtin_phi("loglog")
    s = MeasureSpace(np.array([0.7, 1.3, 1.0]))
    f = ScalarField(np.array([2.0, 0.5, 1e-3]))
    v = eval_gauge(Orlicz(phi, tol=10.0), s, f).value
    assert v > 0.0

    def level(t):
        return float(s.weights @ phi(f.values / t))

    assert level(v / math.sqrt(11.0)) > 1.0 >= level(v * math.sqrt(11.0))


def test_level_sum_above_one_at_every_scale_raises():
    # phi = 1 on (0, inf): on total mass 2 the level sum is 2 for every t
    step = OrliczFunction(name="step", evaluator=lambda t: np.where(np.asarray(t) > 0, 1.0, 0.0),
                          claimed_concave=False)
    with pytest.raises(GaugeDefinitionError):
        eval_gauge(Orlicz(step), counting_space(2), ScalarField(np.array([1.0, 1.0])))


def test_rational_kernel_degenerates_on_small_mass():
    # bounded kernel: on one unit atom the level sum never exceeds 1,
    # so the Luxemburg infimum is genuinely 0
    phi = builtin_phi("rational")
    assert luxemburg(phi, ScalarField(np.array([5.0]))) == 0.0
    g = Orlicz(phi)
    s = uniform_probability_space(4)  # total mass 1: identically zero too
    f = ScalarField(np.array([3.0, 1.0, 0.5, 2.0]))
    assert eval_gauge(g, s, f).value == 0.0
    # with total mass above 1 the gauge is positive on full support
    s2 = counting_space(4)
    assert eval_gauge(g, s2, f).value > 0.0


# ---------------------------------------------------------------------------
# gauge axioms as property tests
# ---------------------------------------------------------------------------

def test_homogeneity_all_builtins():
    rng = np.random.default_rng(4)
    gauges = _builtin_gauges()
    for _ in range(100):
        n = int(rng.integers(2, 7))
        s = MeasureSpace(rng.uniform(0.2, 2.0, size=n))
        f = ScalarField(np.exp(rng.uniform(-2, 2, size=n)))
        c = float(np.exp(rng.uniform(-3, 3)))
        cf = ScalarField(c * f.values)
        for g in gauges:
            v = eval_gauge(g, s, f).value
            vc = eval_gauge(g, s, cf).value
            assert abs(vc - c * v) <= 1e-12 * max(c * v, 1e-300), g.label()


def test_monotonicity_all_builtins():
    rng = np.random.default_rng(5)
    gauges = _builtin_gauges()
    for _ in range(100):
        n = int(rng.integers(2, 7))
        s = MeasureSpace(rng.uniform(0.2, 2.0, size=n))
        lo = np.exp(rng.uniform(-2, 2, size=n))
        hi = lo + rng.uniform(0.0, 2.0, size=n)
        flo, fhi = ScalarField(lo), ScalarField(hi)
        for g in gauges:
            assert eval_gauge(g, s, flo).value <= eval_gauge(g, s, fhi).value * (
                1 + 1e-12
            ), g.label()


def test_positive_definiteness_except_bounded_kernel_degeneracy():
    rng = np.random.default_rng(6)
    gauges = [g for g in _builtin_gauges() if not
              (isinstance(g, Orlicz) and g.phi.name == "rational")]
    for _ in range(50):
        n = int(rng.integers(1, 7))
        s = MeasureSpace(rng.uniform(0.2, 2.0, size=n))
        f_vals = np.zeros(n)
        f_vals[rng.integers(0, n)] = float(np.exp(rng.uniform(-2, 2)))
        f = ScalarField(f_vals)
        for g in gauges:
            assert eval_gauge(g, s, f).value > 0.0, g.label()
        zero = ScalarField(np.zeros(n))
        for g in gauges:
            assert eval_gauge(g, s, zero).value == 0.0, g.label()


def test_permutation_symmetry_on_equal_atoms():
    rng = np.random.default_rng(7)
    gauges = _builtin_gauges()
    s = counting_space(5)
    for _ in range(50):
        f_vals = np.exp(rng.uniform(-2, 2, size=5))
        perm = rng.permutation(5)
        f, pf = ScalarField(f_vals), ScalarField(f_vals[perm])
        for g in gauges:
            a, b = eval_gauge(g, s, f).value, eval_gauge(g, s, pf).value
            assert abs(a - b) <= 1e-12 * max(abs(a), 1e-300), g.label()


def test_signed_fields_use_absolute_value():
    s = counting_space(3)
    f = ScalarField(np.array([1.0, -2.0, 3.0]), signed=True)
    a = ScalarField(np.array([1.0, 2.0, 3.0]))
    for g in _builtin_gauges():
        assert eval_gauge(g, s, f).value == pytest.approx(
            eval_gauge(g, s, a).value, rel=1e-14
        )


def test_chebyshev_inequality_for_lp():
    rng = np.random.default_rng(8)
    for p in (0.5, 1.0, 2.0):
        g = Lp(p)
        for _ in range(60):
            n = int(rng.integers(1, 8))
            s = MeasureSpace(rng.uniform(0.1, 2.0, size=n))
            f = ScalarField(np.exp(rng.uniform(-2, 2, size=n)))
            norm = eval_gauge(g, s, f).value
            for sv in np.unique(f.values) * (1 - 1e-12):
                lhs = sv * distribution_mass(s, f, sv) ** (1.0 / p)
                assert lhs <= norm * (1 + 1e-10)


# ---------------------------------------------------------------------------
# kappa and probes
# ---------------------------------------------------------------------------

def test_known_kappa_values():
    assert Lp(1.0).kappa == 1.0
    assert Lp(0.5).kappa == pytest.approx(2.0)
    assert WeakL1().kappa == 2.0
    assert Orlicz(builtin_phi("power", 0.5)).kappa == pytest.approx(2.0)
    # the r-convexification of an L_p base is L_{p r}
    assert convexify(Lp(0.5), 2.0).kappa == 1.0
    assert QuasiNormedSpace(3, convexify(Lp(0.5), 2.0)).is_banach
    assert convexify(Lp(0.25), 1.5).kappa == Lp(0.375).kappa
    assert convexify(Orlicz(builtin_phi("power", 0.5)), 0.5).kappa == pytest.approx(8.0)
    assert convexify(Orlicz(builtin_phi("power", 2.0)), 0.25).kappa == pytest.approx(2.0)
    assert convexify(Lp(2.0), 0.25).kappa == pytest.approx(2.0)
    # kappa is an upper bound: inf wherever none is known
    for g in (Orlicz(builtin_phi("loglog")), Orlicz(builtin_phi("rational")),
              convexify(Orlicz(builtin_phi("loglog")), 2.0), convexify(WeakL1(), 2.0),
              Intersect(Lp(1.0), Lp(0.5))):
        assert g.kappa == math.inf


KAPPA_GAUGES = {
    "L0.25": Lp(0.25), "L0.5": Lp(0.5), "L1": Lp(1.0), "L2": Lp(2.0), "weakL1": WeakL1(),
    "loglog": Orlicz(builtin_phi("loglog")), "rational": Orlicz(builtin_phi("rational")),
    "power0.5": Orlicz(builtin_phi("power", 0.5)), "power2": Orlicz(builtin_phi("power", 2.0)),
    "L0.5^2": convexify(Lp(0.5), 2.0), "L0.25^1.5": convexify(Lp(0.25), 1.5),
    "L2^0.25": convexify(Lp(2.0), 0.25),
    "power0.5^0.5": convexify(Orlicz(builtin_phi("power", 0.5)), 0.5),
    "power2^1.5": convexify(Orlicz(builtin_phi("power", 2.0)), 1.5),
    "loglog^2": convexify(Orlicz(builtin_phi("loglog")), 2.0),
}


@st.composite
def kappa_case(draw):
    name = draw(st.sampled_from(sorted(KAPPA_GAUGES)))
    n = draw(st.integers(1, 6))
    weights = np.array(draw(st.lists(st.floats(0.25, 4.0), min_size=n, max_size=n)))
    rows = np.exp(np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=8 * n, max_size=8 * n))))
    zeros = np.array(draw(st.lists(st.booleans(), min_size=8 * n, max_size=8 * n)))
    rows[zeros] = 0.0
    return name, MeasureSpace(weights), rows.reshape(2, 4, n), draw(st.integers(0, 2 ** 16))


@settings(max_examples=200)
@given(kappa_case())
def test_kappa_is_an_upper_bound_for_the_modulus_of_concavity(case):
    # the quasi-triangle inequality with the stated kappa, the probe's lower
    # bound under it, and a target space stating the same kappa
    name, s, (f, h), seed = case
    g = KAPPA_GAUGES[name]
    assert concavity_modulus_probe(g, s, trials=300, seed=seed).value <= g.kappa * (1 + 1e-9)
    if g.kappa < math.inf:
        gf, gh, gfh = (gauge_values_rows(g, s, r) for r in (f, h, f + h))
        assert np.all(gfh <= g.kappa * (gf + gh) * (1 + 1e-12))
    # a lone atom has rational gauge 0, so rational defines no target norm
    if name != "rational":
        assert QuasiNormedSpace(len(s), g).kappa == g.kappa


def test_concavity_probe_banach_stays_at_one():
    s = counting_space(4)
    for g in (Lp(1.0), Lp(2.0)):
        br = concavity_modulus_probe(g, s, trials=500, seed=0)
        assert br.value <= 1.0 + 1e-9
        assert br.tag is Tag.LOWER


def test_concavity_probe_lhalf_attains_two():
    br = concavity_modulus_probe(Lp(0.5), counting_space(4), trials=200, seed=0)
    assert br.value == pytest.approx(2.0, rel=1e-12)
    f1, f2 = br.witness
    s = counting_space(4)
    lhs = eval_gauge(Lp(0.5), s, ScalarField(f1.values + f2.values)).value
    rhs = eval_gauge(Lp(0.5), s, f1).value + eval_gauge(Lp(0.5), s, f2).value
    assert lhs / rhs == pytest.approx(br.value, rel=1e-12)


def test_concavity_probe_weak_l1_two_atoms():
    br = concavity_modulus_probe(WeakL1(), counting_space(2), trials=2000, seed=0)
    assert br.value >= 1.5 - 1e-12
    assert br.value <= 2.0 * (1 + 1e-9)


# ---------------------------------------------------------------------------
# convexification
# ---------------------------------------------------------------------------

def test_convexified_identities():
    rng = np.random.default_rng(9)
    half_sq = convexify(Lp(0.5), 2.0)   # should equal L1
    one_sq = convexify(Lp(1.0), 2.0)    # should equal L2
    for _ in range(50):
        n = int(rng.integers(1, 7))
        s = MeasureSpace(rng.uniform(0.2, 2.0, size=n))
        f = ScalarField(np.exp(rng.uniform(-2, 2, size=n)))
        assert eval_gauge(half_sq, s, f).value == pytest.approx(
            eval_gauge(Lp(1.0), s, f).value, rel=1e-12
        )
        assert eval_gauge(one_sq, s, f).value == pytest.approx(
            eval_gauge(Lp(2.0), s, f).value, rel=1e-12
        )
    with pytest.raises(InputError):
        Convexified(Lp(1.0), 0.0)


# ---------------------------------------------------------------------------
# intersection gauge vs exhaustive oracle
# ---------------------------------------------------------------------------

def test_intersect_anchors():
    s = counting_space(2)
    br = intersect_eval(Lp(1.0), Lp(0.5), s, ScalarField(np.array([1.0, 1.0])))
    assert br.value == pytest.approx(2.0, rel=1e-9)
    assert br.tag is Tag.UPPER
    u, v = br.witness
    assert np.allclose(u.values + v.values, [1.0, 1.0], rtol=0, atol=1e-12)
    br2 = intersect_eval(Lp(1.0), Lp(0.5), s, ScalarField(np.array([4.0, 1.0])))
    assert br2.value == pytest.approx(5.0, rel=1e-9)


def test_intersect_against_grid_oracle():
    rng = np.random.default_rng(10)
    pairs = (
        (Lp(1.0), Lp(0.5)),
        (WeakL1(), Lp(1.0)),
        (Orlicz(builtin_phi("loglog")), Lp(0.5)),
    )
    for g1, g2 in pairs:
        for _ in range(6):
            n = int(rng.integers(2, 4))
            s = MeasureSpace(rng.uniform(0.3, 1.5, size=n))
            f = ScalarField(np.exp(rng.uniform(-1, 1, size=n)))
            est = intersect_eval(g1, g2, s, f, budget=32, seed=0).value
            step = 0.01 if n == 2 else 0.05
            oracle = intersect_oracle(g1, g2, s, f, step=step)
            # both are upper bounds of the same infimum obtained by
            # different searches; they must land close together
            assert est <= oracle * (1 + 1e-3)
            assert est >= oracle * (1 - 0.02)


# tag honesty: the UPPER value never exceeds either gauge alone, its witness
# splits |f| and re-prices to it, and it scales with f over the float range
SPLIT_PAIRS = (
    (Lp(1.0), Lp(0.5)),
    (WeakL1(), Lp(1.0)),
    (Orlicz(builtin_phi("loglog")), Lp(0.5)),
    (Lp(2.0), WeakL1()),
)
split_atoms = st.lists(
    st.tuples(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), st.floats(0.5, 2.0)),
    min_size=1,
    max_size=4,
)
split_case = st.tuples(split_atoms, st.sampled_from(SPLIT_PAIRS), st.integers(0, 2))
scales = st.integers(-300, 300).map(lambda e: 10.0**e)


def _split_case(case):
    pairs, gs, budget = case
    values, weights = zip(*pairs)
    return np.array(values), MeasureSpace(np.array(weights)), gs, budget


@settings(max_examples=40)
@given(case=split_case, t=scales)
def test_intersect_upper_is_honest(case, t):
    f, s, (g1, g2), budget = _split_case(case)
    f = t * f
    br = intersect_eval(g1, g2, s, ScalarField(f), budget=budget)
    assert br.tag is Tag.UPPER
    assert br.value <= min(eval_gauge(g1, s, ScalarField(f)).value,
                           eval_gauge(g2, s, ScalarField(f)).value)
    u, v = (x.values for x in br.witness)
    assert np.all(u >= 0) and np.all(v >= 0)
    assert np.all(np.abs(u + v - f) <= 4 * np.finfo(float).eps * f)
    redo = eval_gauge(g1, s, br.witness[0]).value + eval_gauge(g2, s, br.witness[1]).value
    assert redo == pytest.approx(br.value, rel=1e-12, abs=0.0)


@settings(max_examples=40)
@given(case=split_case, t=scales)
def test_intersect_homogeneous_across_float_range(case, t):
    f, s, (g1, g2), budget = _split_case(case)
    base = intersect_eval(g1, g2, s, ScalarField(f), budget=budget).value
    scaled = intersect_eval(g1, g2, s, ScalarField(t * f), budget=budget).value
    assert scaled == pytest.approx(t * base, rel=1e-12, abs=0.0)


def test_intersect_witness_reevaluates_to_value():
    rng = np.random.default_rng(11)
    g1, g2 = WeakL1(), Lp(0.5)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        s = MeasureSpace(rng.uniform(0.3, 1.5, size=n))
        f = ScalarField(np.exp(rng.uniform(-1, 1, size=n)))
        br = intersect_eval(g1, g2, s, f, budget=4, seed=1)
        u, v = br.witness
        redo = eval_gauge(g1, s, u).value + eval_gauge(g2, s, v).value
        assert redo == pytest.approx(br.value, rel=1e-12)
        assert np.all(u.values >= 0) and np.all(v.values >= 0)
        assert np.allclose(u.values + v.values, np.abs(f.values), rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# dual gauge
# ---------------------------------------------------------------------------

def test_dual_gauge_l1_is_sup_norm():
    s = MeasureSpace(np.array([2.0, 3.0]))
    f = ScalarField(np.array([5.0, 4.0]))
    br = dual_gauge(Lp(1.0), s, f)
    assert br.tag is Tag.EXACT
    assert br.value == 5.0
    u = br.witness
    assert eval_gauge(Lp(1.0), s, u).value == pytest.approx(1.0, rel=1e-14)
    assert float(np.dot(s.weights * f.values, u.values)) == pytest.approx(5.0)


def test_dual_gauge_holder_exact_for_p_two():
    rng = np.random.default_rng(12)
    g = Lp(2.0)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        s = MeasureSpace(rng.uniform(0.2, 2.0, size=n))
        f = ScalarField(np.exp(rng.uniform(-2, 2, size=n)))
        br = dual_gauge(g, s, f)
        want = float((s.weights @ f.values**2) ** 0.5)  # q = 2
        assert br.tag is Tag.EXACT
        assert br.value == pytest.approx(want, rel=1e-12)
        u = br.witness
        assert eval_gauge(g, s, u).value <= 1.0 + 1e-12
        assert float(np.dot(s.weights * f.values, u.values)) == pytest.approx(
            br.value, rel=1e-12
        )


def test_dual_gauge_lower_bound_for_quasi_case():
    rng = np.random.default_rng(13)
    g = Lp(0.5)
    for _ in range(10):
        s = MeasureSpace(rng.uniform(0.3, 1.5, size=2))
        f = ScalarField(np.exp(rng.uniform(-1, 1, size=2)))
        br = dual_gauge(g, s, f, budget=100, seed=0)
        assert br.tag is Tag.LOWER
        # witness feasibility and consistency
        u = br.witness
        assert eval_gauge(g, s, u).value <= 1.0 + 1e-12
        assert float(np.dot(s.weights * f.values, u.values)) == pytest.approx(
            br.value, rel=1e-12
        )
        # against the exhaustive ball grid (both are lower bounds of the
        # true sup; the analytic corner maximum is max_k f_k / w_k)
        oracle = dual_oracle(g, s, f, steps=201)
        corner = float(np.max(f.values / s.weights))
        assert br.value >= oracle * (1 - 1e-9)
        assert br.value == pytest.approx(corner, rel=1e-9)


def test_dual_gauge_weak_l1_witness_consistent():
    s = counting_space(3)
    f = ScalarField(np.array([2.0, 1.0, 4.0]))
    br = dual_gauge(WeakL1(), s, f, budget=300, seed=0)
    assert br.tag is Tag.LOWER
    u = br.witness
    assert eval_gauge(WeakL1(), s, u).value <= 1.0 + 1e-12
    assert float(np.dot(s.weights * f.values, u.values)) == pytest.approx(
        br.value, rel=1e-12
    )
    assert br.value >= 4.0 - 1e-9  # singleton candidate pays max f at least


# ---------------------------------------------------------------------------
# Orlicz kernel validation
# ---------------------------------------------------------------------------

def test_orlicz_function_rejects_bad_kernels():
    with pytest.raises(GaugeDefinitionError):
        OrliczFunction(name="sq", evaluator=lambda t: np.asarray(t) ** 2,
                       claimed_concave=True)
    with pytest.raises(GaugeDefinitionError):
        OrliczFunction(name="shift", evaluator=lambda t: np.asarray(t) + 1.0,
                       claimed_concave=False)
    with pytest.raises(GaugeDefinitionError):
        OrliczFunction(name="dec", evaluator=lambda t: 1.0 / (1.0 + np.asarray(t)) - 1.0,
                       claimed_concave=False)
    # a convex kernel is fine when not claimed concave
    OrliczFunction(name="sq", evaluator=lambda t: np.asarray(t) ** 2,
                   claimed_concave=False)
    with pytest.raises(InputError):
        builtin_phi("nope")
    with pytest.raises(InputError):
        builtin_phi("power")


def _dip_at(i, j):
    """t, less 1e-6 max(1, t) at the midpoint of grid points i and j alone."""
    mid = 0.5 * (_ORLICZ_GRID[i] + _ORLICZ_GRID[j])
    return lambda t: np.where(t == mid, t - 1e-6 * max(1.0, mid), t)


# grid pairs {i, j}: far apart, inside one 64-row block, straddling a block
# edge, in the last grid rows
DIP_PAIRS = ((3, 990), (0, 999), (10, 20), (63, 64), (64, 127), (999, 970), (998, 999))

# (name, evaluator, accepted as concave): builtins, other concave kernels,
# non-concave ones, and kernels whose only violated pair is one of DIP_PAIRS
KERNEL_BATTERY = (
    [("loglog", _loglog_eval, True), ("rational", _rational_eval, True)]
    + [(f"power({p})", _power_eval(p), True) for p in (0.1, 0.25, 0.5, 0.75, 1.0)]
    + [("sqrt", np.sqrt, True), ("log1p", np.log1p, True), ("tanh", np.tanh, True),
       ("min(t, 1)", lambda t: np.minimum(t, 1.0), True),
       ("t", lambda t: 1.0 * np.asarray(t), True),
       ("t^2", lambda t: np.asarray(t) ** 2, False),
       ("t^1.0000001", lambda t: np.asarray(t) ** 1.0000001, False),
       ("kink at 10", lambda t: np.where(t > 10.0, 2.0 * t - 10.0, t), False)]
    + [(f"dip at {i}, {j}", _dip_at(i, j), False) for i, j in DIP_PAIRS]
)


def _kernel_check_message(evaluator):
    try:
        OrliczFunction(name="battery", evaluator=evaluator, claimed_concave=True)
    except GaugeDefinitionError as err:
        return str(err)
    return None


@pytest.mark.parametrize("name, evaluator, concave", KERNEL_BATTERY,
                         ids=[k[0] for k in KERNEL_BATTERY])
def test_kernel_check_decides_as_the_full_matrix_reference(name, evaluator, concave):
    got = _kernel_check_message(evaluator)
    assert got == orlicz_kernel_check(evaluator)
    assert got == (None if concave else "claimed concave but midpoint check fails")


@pytest.mark.parametrize("i, j", DIP_PAIRS)
def test_dipped_kernels_violate_one_pair_only(i, j):
    g = _ORLICZ_GRID
    mid = 0.5 * (g[i] + g[j])
    assert not np.isin(mid, g)
    assert np.count_nonzero(0.5 * (g[:, None] + g[None, :]) == mid) == 2


def test_kernel_check_evaluates_phi_at_about_half_the_grid_pairs():
    points = []

    def counted(t):
        points.append(np.size(t))
        return _loglog_eval(t)

    OrliczFunction(name="counted", evaluator=counted)
    # phi(0), the grid, and the pairs i < j of the grid at least; the full
    # matrix took 1 + 1000 + 1000^2
    assert 1 + 1000 + 1000 * 999 // 2 <= sum(points) <= 540_000


def test_power_kernels_skip_the_midpoint_check():
    # t^p is concave for p <= 1 and its gauge is the Lp closed form, so only
    # phi(0) and the grid are evaluated; the same evaluator without p is
    # checked in full, and a false claim for p > 1 is still caught
    points = []
    for p in (0.25, 1.0):

        def counted(t, ev=_power_eval(p)):
            points.append(np.size(t))
            return ev(t)

        points.clear()
        OrliczFunction(name="counted", evaluator=counted, p=p)
        assert sum(points) == 1 + 1000, p
        points.clear()
        OrliczFunction(name="counted", evaluator=counted)
        assert sum(points) >= 1 + 1000 + 1000 * 999 // 2, p
    with pytest.raises(GaugeDefinitionError):
        OrliczFunction(name="t^2", evaluator=_power_eval(2.0), claimed_concave=True, p=2.0)


def test_kernel_check_traced_memory_peak_is_under_8_mb():
    tracemalloc.start()
    try:
        OrliczFunction(name="traced", evaluator=_loglog_eval)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_quasinorm_condition_reports():
    for name, p in (("loglog", None), ("rational", None), ("power", 0.5)):
        rep = builtin_phi(name, p).quasinorm_condition_report()
        assert rep["verified"], name
        assert rep["monotone"]
        assert rep["scan"][-1] < 1e-3


# ---------------------------------------------------------------------------
# vector evaluation and batch entry points
# ---------------------------------------------------------------------------

def test_eval_vector_gauge_is_gauge_of_norm_field():
    X = lq_space(2, 1.0)
    s = counting_space(2)
    F = VectorField(np.array([[3.0, 4.0], [1.0, 1.0]]), X)
    got = eval_vector_gauge(Lp(1.0), s, F).value
    assert got == pytest.approx(7.0 + 2.0, rel=1e-15)


def test_gauge_values_rows_matches_scalar_eval():
    rng = np.random.default_rng(14)
    s = MeasureSpace(rng.uniform(0.2, 2.0, size=5))
    rows = np.exp(rng.uniform(-2, 2, size=(30, 5)))
    for g in (Lp(0.5), WeakL1(), Orlicz(builtin_phi("loglog"))):
        batch = gauge_values_rows(g, s, rows)
        single = np.array(
            [eval_gauge(g, s, ScalarField(r)).value for r in rows]
        )
        assert np.allclose(batch, single, rtol=1e-12, atol=0.0)
    with pytest.raises(InputError):
        gauge_values_rows(Lp(1.0), s, np.ones((2, 3)))


def test_gauge_labels():
    assert Lp(0.5).label() == "L0.5"
    assert WeakL1().label() == "weakL1"
    assert Orlicz(builtin_phi("loglog")).label() == "Orlicz[loglog]"
    assert Convexified(Lp(0.5), 2.0).label() == "(L0.5)^(2)"
    assert Intersect(Lp(1.0), Lp(0.5)).label() == "(L1 ^ L0.5)"
