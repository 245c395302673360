import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qnlab.maximal as maximal
from qnlab import (
    CubeSpec,
    DegenerateCubeError,
    GridSpace,
    InputError,
    Lp,
    ScalarField,
    TensorRep,
    VectorField,
    cube_average,
    default_scales,
    differentiation_report,
    hl_maximal,
    j_map,
    lq_space,
    profile_value,
    series_domination_report,
    vector_maximal,
    weak11_constant,
    weak_l1_space,
)
from oracles import (
    lp_oracle,
    maximal_oracle,
    vector_maximal_oracle,
    window_extreme_oracle,
    window_maximal_oracle,
)


# ---------------------------------------------------------------------------
# grid geometry
# ---------------------------------------------------------------------------

def test_grid_space_validation_and_geometry():
    with pytest.raises(InputError):
        GridSpace(3, 8)
    with pytest.raises(InputError):
        GridSpace(1, 1)
    g1 = GridSpace(1, 8)
    assert g1.n_atoms == 8
    assert g1.cell_mass == pytest.approx(1.0 / 8.0)
    assert np.allclose(g1.axis_centers(), (np.arange(8) + 0.5) / 8.0)
    g2 = GridSpace(2, 4)
    assert g2.n_atoms == 16
    assert g2.cell_mass == pytest.approx(1.0 / 16.0)
    assert g2.flat_index(2, 3) == 11
    assert g2.cell_center(11) == (2.5 / 4.0, 3.5 / 4.0)
    ms = g2.to_measure_space()
    assert len(ms) == 16
    assert ms.total_mass == pytest.approx(1.0)


def test_cube_spec_validation():
    with pytest.raises(InputError):
        CubeSpec(center=(0.5,), halfwidth=0.0)
    with pytest.raises(InputError):
        CubeSpec(center=(0.5,), halfwidth=-0.1)
    c = CubeSpec(center=0.5, halfwidth=0.1)
    assert c.center == (0.5,)


# ---------------------------------------------------------------------------
# cube averages
# ---------------------------------------------------------------------------

def test_cube_average_hand_means_1d():
    g = GridSpace(1, 4)  # centers 0.125, 0.375, 0.625, 0.875
    f = ScalarField(np.array([1.0, 2.0, 4.0, 8.0]))
    # halfwidth 0.3 around 0.375 covers centers 0.125..0.625
    assert cube_average(g, f, CubeSpec((0.375,), 0.3)) == pytest.approx(7.0 / 3.0)
    # cube faces exactly on cell centers include them (snap tolerance)
    assert cube_average(g, f, CubeSpec((0.375,), 0.25)) == pytest.approx(7.0 / 3.0)
    # clipped at the boundary
    assert cube_average(g, f, CubeSpec((0.0,), 0.2)) == pytest.approx(1.0)


def test_cube_average_hand_means_2d():
    g = GridSpace(2, 2)
    f = ScalarField(np.array([1.0, 2.0, 3.0, 4.0]))  # rows (1,2), (3,4)
    assert cube_average(g, f, CubeSpec((0.5, 0.5), 0.5)) == pytest.approx(2.5)
    assert cube_average(g, f, CubeSpec((0.25, 0.25), 0.1)) == pytest.approx(1.0)
    assert cube_average(g, f, CubeSpec((0.75, 0.5), 0.3)) == pytest.approx(3.5)


def test_cube_average_locally_constant_is_bitwise_exact():
    # mean of three copies of 0.1 rounds to 0.1 + 1 ulp when summed naively;
    # the all-equal shortcut must return the common value itself
    g = GridSpace(1, 8)
    f = ScalarField(np.full(8, 0.1))
    avg = cube_average(g, f, CubeSpec((0.5,), 0.2))
    assert avg == 0.1


def test_cube_average_vector_fields():
    g = GridSpace(1, 4)
    X = lq_space(2, 1.0)
    vf = VectorField(np.array([[1.0, 0.0], [3.0, 2.0], [1.0, 4.0], [0.0, 0.0]]), X)
    avg = cube_average(g, vf, CubeSpec((0.375,), 0.3))
    assert np.allclose(avg, np.array([5.0, 6.0]) / 3.0)
    const = VectorField(np.tile([0.1, 0.3], (4, 1)), X)
    got = cube_average(g, const, CubeSpec((0.5,), 0.4))
    assert np.array_equal(got, np.array([0.1, 0.3]))


def test_cube_average_errors():
    g = GridSpace(1, 4)
    f = ScalarField(np.ones(4))
    with pytest.raises(DegenerateCubeError):
        cube_average(g, f, CubeSpec((-0.5,), 0.01))
    with pytest.raises(InputError):
        cube_average(g, f, CubeSpec((0.5, 0.5), 0.1))
    with pytest.raises(InputError):
        cube_average(g, ScalarField(np.ones(5)), CubeSpec((0.5,), 0.2))


def test_default_scales_run_down_to_subcell():
    g = GridSpace(1, 32)
    scales = default_scales(g)
    assert scales == (0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625)
    assert scales[-1] == 1.0 / (2 * g.cells)


# ---------------------------------------------------------------------------
# maximal operators vs direct enumeration
# ---------------------------------------------------------------------------

def test_hl_maximal_matches_enumeration_1d():
    rng = np.random.default_rng(50)
    g = GridSpace(1, 32)
    values = rng.uniform(-1.0, 2.0, size=32)
    scales = (0.5, 0.21, 0.0625, 0.01)
    got = hl_maximal(g, values, scales).values
    want = maximal_oracle(g, values, scales)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-14)


def test_hl_maximal_matches_enumeration_2d():
    rng = np.random.default_rng(51)
    g = GridSpace(2, 8)
    values = rng.uniform(0.0, 3.0, size=64)
    scales = (0.5, 0.2, 0.0625)
    got = hl_maximal(g, values, scales).values
    want = maximal_oracle(g, values, scales)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-14)


def test_vector_maximal_matches_enumeration():
    rng = np.random.default_rng(52)
    for g, X in ((GridSpace(1, 16), lq_space(2, 1.0)),
                 (GridSpace(1, 16), lq_space(3, 0.5)),
                 (GridSpace(2, 6), weak_l1_space(2))):
        vectors = rng.normal(size=(g.n_atoms, X.dim))
        scales = (0.5, 0.13, 1.0 / 16.0)
        got = vector_maximal(g, VectorField(vectors, X), scales).values
        want = vector_maximal_oracle(g, vectors, X, scales)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-14)


def test_maximal_of_constant_field_is_exactly_one():
    for g in (GridSpace(1, 32), GridSpace(2, 8)):
        out = hl_maximal(g, np.ones(g.n_atoms)).values
        assert np.all(out == 1.0)
        X = lq_space(2, 1.0)
        vec = vector_maximal(g, VectorField(np.tile([0.6, 0.8], (g.n_atoms, 1)), X))
        assert np.all(vec.values == pytest.approx(1.4, rel=1e-15))


def test_subcell_scale_reproduces_absolute_value_bitwise():
    rng = np.random.default_rng(53)
    g = GridSpace(1, 16)
    values = rng.uniform(-1.0, 1.0, size=16)
    out = hl_maximal(g, values, scales=(1.0 / 64.0,)).values
    assert np.array_equal(out, np.abs(values))


def test_maximal_monotone_in_the_scale_set():
    rng = np.random.default_rng(54)
    g = GridSpace(1, 32)
    values = rng.uniform(0.0, 1.0, size=32)
    small = hl_maximal(g, values, scales=(0.25,)).values
    more = hl_maximal(g, values, scales=(0.25, 0.5, 0.0625)).values
    assert np.all(more >= small - 1e-15)
    assert np.all(hl_maximal(g, values).values >= np.abs(values) - 1e-15)


def test_maximal_input_validation():
    g = GridSpace(1, 8)
    with pytest.raises(InputError):
        hl_maximal(g, np.ones(7))
    with pytest.raises(InputError):
        hl_maximal(g, np.ones(8), scales=())
    with pytest.raises(InputError):
        hl_maximal(g, np.ones(8), scales=(0.0,))
    with pytest.raises(InputError):
        vector_maximal(g, np.ones((8, 2)))  # raw array without a target
    with pytest.raises(InputError):
        vector_maximal(g, np.ones((7, 2)), target=lq_space(2, 1.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_raw_fields_are_rejected_before_any_window_is_built(bad, monkeypatch):
    def no_kernel(*args):
        raise AssertionError("a window kernel ran on a non-finite field")

    monkeypatch.setattr(maximal, "_window_means", no_kernel)
    monkeypatch.setattr(maximal, "_window_extreme", no_kernel)
    g = GridSpace(1, 8)
    f = np.ones(8)
    f[3] = bad
    for call in (lambda: hl_maximal(g, f), lambda: weak11_constant(g, f),
                 lambda: differentiation_report(g, f, [0], (0.25,))):
        with pytest.raises(InputError, match="finite"):
            call()
    v = np.ones((8, 2))
    v[5, 1] = bad
    with pytest.raises(InputError, match="finite"):
        vector_maximal(g, v, target=lq_space(2, 1.0))


# ---------------------------------------------------------------------------
# cancellation
# ---------------------------------------------------------------------------

def test_vector_maximal_sees_cancellation():
    # two opposite bumps: every cube containing both averages to zero, so
    # the vector maximal stays below the scalar maximal of the norm field
    N = 64
    g = GridSpace(1, N)
    X = lq_space(1, 1.0)
    vecs = np.zeros((N, 1))
    vecs[N // 4, 0] = 1.0
    vecs[3 * N // 4, 0] = -1.0
    vm = vector_maximal(g, VectorField(vecs, X)).values
    sm = hl_maximal(g, np.abs(vecs[:, 0])).values
    # Banach target: averaging commutes with the triangle inequality,
    # so domination holds at every cell
    assert np.all(vm <= sm + 1e-15)
    mid = N // 2
    assert vm[mid] < sm[mid] - 1e-4


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

def test_differentiation_of_half_indicator_is_exact_away_from_jump():
    N = 256
    g = GridSpace(1, N)
    f = ScalarField((np.arange(N) < N // 2).astype(float))
    samples = [i for i in range(N)
               if abs((i + 0.5) / N - 0.5) >= 0.125 + 1.0 / N]
    scales = (0.0625, 0.03125, 1.0 / N)
    rep = differentiation_report(g, f, samples, scales)
    assert rep.max_error == 0.0
    assert all(err == 0.0 for _, err in rep.per_scale)
    assert [h for h, _ in rep.per_scale] == list(scales)


def test_differentiation_vector_field_and_errors():
    N = 64
    g = GridSpace(1, N)
    X = lq_space(2, 1.0)
    vecs = np.tile([0.25, 0.5], (N, 1))
    vecs[N - 1] = [5.0, 5.0]
    vf = VectorField(vecs, X)
    rep = differentiation_report(g, vf, [N // 2], (0.125, 1.0 / N))
    assert rep.max_error == 0.0
    rep2 = differentiation_report(g, vf, [N - 2], (0.125,))
    assert rep2.max_error > 0.0  # the outlier leaks into this sample's cubes
    with pytest.raises(InputError):
        differentiation_report(g, vf, [], (0.125,))
    with pytest.raises(InputError):
        differentiation_report(g, vf, [N], (0.125,))
    with pytest.raises(InputError):
        differentiation_report(g, vf, [0], ())


def _differentiation_loop(grid, f, samples, scales):
    """The samples x scales cube_average loop differentiation_report replaced."""
    rows = []
    for h in scales:
        errs = []
        for s in samples:
            avg = cube_average(grid, f, CubeSpec(grid.cell_center(s), h))
            if isinstance(f, VectorField):
                errs.append(f.target.norm(np.asarray(avg) - f.vectors[s]))
            else:
                errs.append(abs(avg - f.values[s]))
        rows.append((h, max(errs)))
    return rows


@pytest.mark.parametrize("d, cells", [(1, 40), (2, 9)])
def test_differentiation_report_matches_the_cube_average_loop(d, cells):
    rng = np.random.default_rng(58 + d)
    g = GridSpace(d, cells)
    X = lq_space(2, 2.0)
    vectors = rng.normal(size=(g.n_atoms, 2))
    vectors[: g.n_atoms // 2] = [0.1, 0.3]  # constant patch: exact zeros on both sides
    scales = [float(h) for h in rng.uniform(0.01, 0.6, size=5)] + [0.5 / cells]
    samples = [int(s) for s in rng.choice(g.n_atoms, size=12, replace=False)]
    scale = float(np.max(np.abs(vectors)))
    for f in (ScalarField(vectors[:, 0], signed=True), VectorField(vectors, X)):
        for picks in (samples, [0, 1]):
            got = differentiation_report(g, f, picks, scales)
            want = _differentiation_loop(g, f, picks, scales)
            assert [h for h, _ in got.per_scale] == [h for h, _ in want]
            for (_, e), (_, w) in zip(got.per_scale, want):
                assert abs(e - w) <= 1e-14 * scale
                assert (e == 0.0) == (w == 0.0)
            assert got.max_error == max(e for _, e in got.per_scale)


@pytest.mark.parametrize("d", [1, 2])
def test_differentiation_is_exactly_zero_on_constant_windows(d):
    # sums of copies of 0.1 round; the all-equal rule keeps the error 0.0
    N = 64 if d == 1 else 16
    g = GridSpace(d, N)
    values = np.full(g.n_atoms, 0.1)
    values[-1] = 5.0
    samples = [s for s in range(g.n_atoms) if max(g.cell_center(s)) <= 0.5]
    scales = (0.3, 0.21, 0.1, 1.0 / N, 0.01)
    X = lq_space(2, 1.0)
    vf = VectorField(np.outer(values, [1.0, 3.0]), X)
    for f in (ScalarField(values), vf):
        rep = differentiation_report(g, f, samples, scales)
        assert rep.max_error == 0.0
    assert not np.all(hl_maximal(g, values, (0.3, 0.21)).values[samples] == 0.1)


def test_reports_make_no_per_term_or_per_sample_calls(monkeypatch):
    calls = {"hl_maximal": 0, "cube_average": 0}

    def counting(name):
        inner = getattr(maximal, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(maximal, name, counting(name))
    rng = np.random.default_rng(59)
    g = GridSpace(1, 32)
    rep = TensorRep(xs=rng.normal(size=(4, 2)), fs=rng.normal(size=(4, 32)),
                    target=lq_space(2, 1.0), lam=Lp(1.0))
    series_domination_report(rep, g)
    differentiation_report(g, ScalarField(rng.normal(size=32), signed=True),
                           range(0, 32, 3), (0.3, 0.1, 0.01))
    assert calls == {"hl_maximal": 0, "cube_average": 0}


# ---------------------------------------------------------------------------
# the window-sum kernel against the fsum oracle
# ---------------------------------------------------------------------------

def test_a_spike_does_not_erase_the_mass_of_distant_windows():
    # differences of global prefix sums gave 0.0 at cells 30-39 of the 1-D
    # case and put 231 of the 256 2-D cells below |f|
    g = GridSpace(1, 64)
    f = np.ones(64)
    f[0] = 1e20
    out = hl_maximal(g, f, scales=[2 / 64]).values
    assert np.all(out[5:] == 1.0) and np.all(out >= 1.0)
    vec = vector_maximal(g, VectorField(np.stack([f, f], axis=1), lq_space(2, 1.0)),
                         scales=[2 / 64]).values
    assert np.all(vec[5:] == 2.0)
    g2 = GridSpace(2, 16)
    f2 = np.ones(256)
    f2[0] = 1e20
    out2 = hl_maximal(g2, f2, scales=[2 / 16]).values.reshape(16, 16)
    assert np.all(out2 >= 1.0)
    assert np.all(out2[5:, :] == 1.0) and np.all(out2[:, 5:] == 1.0)
    # inclusion-exclusion of 2-D prefix sums made some means negative, and
    # building the maximal field raised InputError
    exps = [-47, 223, 277, -128, -232, 62, 101, 167, 86, 130, 250, 250, 256, 217, 133, 251]
    f3 = 10.0 ** np.array(exps, dtype=float)
    g3 = GridSpace(2, 4)
    got = hl_maximal(g3, f3, scales=[1 / 4]).values
    assert list(got) == pytest.approx(list(window_maximal_oracle(g3, f3, [1 / 4])),
                                      rel=1e-14, abs=0.0)


grids = st.sampled_from([(1, 2), (1, 3), (1, 7), (1, 16), (1, 24),
                         (2, 2), (2, 3), (2, 5), (2, 6)]).map(lambda dc: GridSpace(*dc))
halfwidths = st.lists(
    st.one_of(st.floats(-7.0, 0.25).map(lambda e: 2.0 ** e),
              st.integers(1, 6).map(lambda k: 2.0 ** -k)),
    min_size=1, max_size=4,
)


def _entries(lo, hi):
    """0.0 or a signed mantissa in [1e-3, 1] times 10**e, lo <= e <= hi."""
    mag = st.tuples(st.floats(1e-3, 1.0), st.integers(lo, hi)).map(
        lambda me: me[0] * 10.0 ** me[1])
    signed = st.tuples(mag, st.booleans()).map(lambda mb: -mb[0] if mb[1] else mb[0])
    return st.one_of(st.just(0.0), signed)


def _fields(m, lo=-300, hi=300):
    """(grid, (n_atoms, m) array) with entries mixing the given magnitudes."""
    return grids.flatmap(lambda g: st.tuples(st.just(g), st.lists(
        _entries(lo, hi), min_size=g.n_atoms * m, max_size=g.n_atoms * m,
    ).map(lambda xs: np.array(xs).reshape(g.n_atoms, m))))


@settings(max_examples=120)
@given(data=st.integers(1, 3).flatmap(_fields), r=st.integers(0, 26))
def test_window_extremes_equal_the_enumeration_bitwise(data, r):
    # r runs from the r = 0 identity past every grid's cell count
    g, a = data
    for op, pick in ((np.maximum, max), (np.minimum, min)):
        got = maximal._window_extreme(g, a, r, op)
        assert got.tobytes() == window_extreme_oracle(g, a, r, pick).tobytes()


@settings(max_examples=150)
@given(data=_fields(1), cell=st.tuples(st.integers(0, 23), st.integers(0, 23)),
       h=st.floats(2.0 ** -7, 1.0), constant=st.booleans())
def test_scalar_cube_average_is_the_one_column_vector_average_bitwise(data, cell, h, constant):
    # a cube around a cell center holds at least that cell
    g, a = data
    if constant:
        a[:] = a[0]
    cube = CubeSpec(tuple((c % g.cells + 0.5) / g.cells for c in cell[:g.d]), h)
    got = cube_average(g, ScalarField(a[:, 0], signed=True), cube)
    want = cube_average(g, VectorField(a, lq_space(1, 1.0)), cube)
    assert isinstance(got, float)
    assert np.float64(got).tobytes() == want.tobytes()


@settings(max_examples=30)
@given(data=_fields(1), scales=halfwidths)
def test_hl_maximal_matches_window_oracle(data, scales):
    g, f = data
    got = hl_maximal(g, f[:, 0], scales).values
    want = window_maximal_oracle(g, np.abs(f), scales)
    assert list(got) == pytest.approx(list(want), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
@settings(max_examples=30)
@given(data=_fields(2), scales=halfwidths)
def test_vector_maximal_matches_window_oracle(q, data, scales):
    g, v = data
    X = lq_space(2, q)

    def norm(m):
        return lp_oracle(m, [1.0, 1.0], q)

    bound = window_maximal_oracle(g, np.abs(v), scales, norm)
    got = vector_maximal(g, VectorField(np.abs(v), X), scales).values
    assert list(got) == pytest.approx(list(bound), rel=1e-14, abs=0.0)
    if q >= 1.0:
        # cancellation inside a window: the error is relative to the
        # maximal field of |F|, since a norm with q >= 1 is Lipschitz
        got = vector_maximal(g, VectorField(v, X), scales).values
        want = window_maximal_oracle(g, v, scales, norm)
        assert np.all(np.abs(got - want) <= 1e-14 * bound)


@settings(max_examples=30)
@given(data=_fields(2, 0, 3), scales=halfwidths, e=st.integers(-300, 300))
def test_maximal_operators_homogeneous_across_float_range(data, scales, e):
    g, v = data
    t = 10.0 ** e
    v = np.abs(v)
    base = hl_maximal(g, v[:, 0], scales).values
    assert list(hl_maximal(g, t * v[:, 0], scales).values) == pytest.approx(
        list(t * base), rel=1e-14, abs=0.0)
    X = lq_space(2, 2.0)
    base = vector_maximal(g, VectorField(v, X), scales).values
    assert list(vector_maximal(g, VectorField(t * v, X), scales).values) == pytest.approx(
        list(t * base), rel=1e-14, abs=0.0)


@settings(max_examples=30)
@given(data=_fields(2), scales=halfwidths)
def test_maximal_dominates_the_field_when_the_subcell_scale_is_in_the_set(data, scales):
    g, v = data
    scales = scales + [1.0 / (4 * g.cells)]
    assert np.all(hl_maximal(g, v[:, 0], scales).values >= np.abs(v[:, 0]))
    X = lq_space(2, 1.0)
    assert np.all(vector_maximal(g, VectorField(v, X), scales).values >= X.norms(v))


# ---------------------------------------------------------------------------
# weak-(1,1) ratios
# ---------------------------------------------------------------------------

def test_weak11_point_mass_anchors():
    g = GridSpace(1, 256)
    f = np.zeros(256)
    f[128] = 1.0
    rep = weak11_constant(g, f)
    assert rep.input_size == pytest.approx(1.0 / 256.0, rel=1e-15)
    assert rep.constant == pytest.approx(1.9846153846153847, rel=1e-12)
    g2 = GridSpace(2, 16)
    f2 = np.zeros(256)
    f2[8 * 16 + 8] = 1.0
    rep2 = weak11_constant(g2, f2)
    assert rep2.constant == pytest.approx(3.24, rel=1e-12)


def test_weak11_constant_field_ratio_is_one():
    g = GridSpace(1, 32)
    rep = weak11_constant(g, np.full(32, 0.7))
    assert rep.constant == pytest.approx(1.0, rel=1e-12)


def test_weak11_tensor_rep_path():
    rng = np.random.default_rng(55)
    g = GridSpace(1, 16)
    X = lq_space(2, 1.0)
    rep = TensorRep(xs=rng.normal(size=(3, 2)), fs=rng.normal(size=(3, 16)),
                    target=X, lam=Lp(1.0))
    report = weak11_constant(g, rep)
    space = g.to_measure_space()
    assert report.input_size == pytest.approx(profile_value(rep, space), rel=1e-15)
    assert report.constant == pytest.approx(
        report.weak_norm / report.input_size, rel=1e-15
    )
    assert report.weak_norm > 0


def test_weak11_zero_input_is_rejected():
    g = GridSpace(1, 8)
    with pytest.raises(InputError):
        weak11_constant(g, np.zeros(8))


# ---------------------------------------------------------------------------
# series domination
# ---------------------------------------------------------------------------

def test_series_domination_pointwise():
    rng = np.random.default_rng(56)
    for t in range(20):
        N = int(rng.choice([8, 16]))
        d = int(rng.integers(1, 3))
        g = GridSpace(d, N)
        k = int(rng.integers(1, 5))
        dim = int(rng.integers(1, 4))
        if t % 3 == 0:
            X, lam = lq_space(dim, 1.0), Lp(1.0)
        elif t % 3 == 1:
            X, lam = lq_space(dim, 2.0), Lp(1.0)
        else:
            X, lam = lq_space(dim, 0.5), Lp(0.5)
        rep = TensorRep(xs=rng.normal(size=(k, dim)),
                        fs=rng.normal(size=(k, g.n_atoms)), target=X, lam=lam)
        report = series_domination_report(rep, g)
        assert report.max_gap <= 1e-12 * max(1.0, report.maximal_at_argmax)
        assert report.maximal_at_argmax <= report.dominator_at_argmax * (1 + 1e-12)
        assert 0 <= report.argmax_cell < g.n_atoms


def test_series_domination_single_term_is_equality():
    # one term: M_vec(f x) = ||x|| M f cell by cell, so the gap is zero
    rng = np.random.default_rng(57)
    g = GridSpace(1, 16)
    X = lq_space(2, 1.0)
    rep = TensorRep(xs=np.array([[3.0, 4.0]]),
                    fs=rng.uniform(0.1, 1.0, size=(1, 16)), target=X, lam=Lp(1.0))
    report = series_domination_report(rep, g)
    assert abs(report.max_gap) <= 1e-12 * report.maximal_at_argmax
