import math
from dataclasses import dataclass

import numpy as np
import pytest

from qnlab import (
    Gauge,
    InputError,
    Intersect,
    Lp,
    Orlicz,
    QuasiNormedSpace,
    Tag,
    builtin_phi,
    convexify,
    lq_space,
    weak_l1_space,
    weak_l1_vector_norm,
)
from oracles import lp_oracle, weak_l1_oracle


@dataclass(frozen=True)
class SupGauge(Gauge):
    """scale * max|f| + shift, with a caller-stated kappa: a user-written target gauge."""

    scale: float = 1.0
    shift: float = 0.0
    kappa_bound: float = 1.0

    @property
    def kappa(self) -> float:
        return self.kappa_bound

    def _value_rows(self, space, rows):
        return self.scale * rows.max(axis=1) + self.shift


def test_lq_norm_closed_forms():
    X1 = lq_space(3, 1.0)
    X2 = lq_space(3, 2.0)
    Xh = lq_space(3, 0.5)
    v = np.array([1.0, -2.0, 2.0])
    assert X1.norm(v) == pytest.approx(5.0, rel=1e-15)
    assert X2.norm(v) == pytest.approx(3.0, rel=1e-15)
    assert Xh.norm(v) == pytest.approx((1 + np.sqrt(2) + np.sqrt(2)) ** 2, rel=1e-14)


def test_norms_rowwise_matches_norm():
    rng = np.random.default_rng(3)
    for X in (lq_space(4, 1.0), lq_space(4, 0.5), lq_space(4, 2.0), weak_l1_space(4)):
        vs = rng.standard_normal((20, 4))
        batch = X.norms(vs)
        single = np.array([X.norm(v) for v in vs])
        if isinstance(X.gauge, Lp):
            want = np.array([lp_oracle(v, np.ones(4), X.gauge.p) for v in vs])
        else:
            want = np.array([weak_l1_oracle(v, np.ones(4)) for v in vs])
        assert np.allclose(batch, want, rtol=1e-14, atol=0.0)
        assert np.allclose(single, want, rtol=1e-14, atol=0.0)


def test_weak_l1_vector_norm_values():
    assert weak_l1_vector_norm(np.array([3.0, 0.0, 0.0])) == 3.0
    # harmonic vector: every prefix product k * (1/k) equals one
    h = 1.0 / np.arange(1, 6)
    assert weak_l1_vector_norm(h) == pytest.approx(1.0, rel=1e-15)
    assert weak_l1_vector_norm(np.array([-1.0, 2.0])) == pytest.approx(2.0)
    X = weak_l1_space(3)
    assert X.norm(np.array([1.0, 1.0, 1.0])) == pytest.approx(3.0)


def test_kappa_values():
    assert lq_space(2, 1.0).kappa == 1.0
    assert lq_space(2, 2.0).kappa == 1.0
    assert lq_space(2, 0.5).kappa == pytest.approx(2.0, rel=1e-15)
    assert lq_space(2, 1.0 / 3.0).kappa == pytest.approx(4.0, rel=1e-12)
    assert weak_l1_space(2).kappa == 2.0
    assert lq_space(2, 1.0).is_banach and not lq_space(2, 0.5).is_banach


def test_quasi_triangle_inequality_with_kappa():
    rng = np.random.default_rng(9)
    for X in (lq_space(5, 0.5), lq_space(5, 1.0), weak_l1_space(5)):
        for _ in range(200):
            x = rng.standard_normal(5)
            y = rng.standard_normal(5)
            lhs = X.norm(x + y)
            rhs = X.kappa * (X.norm(x) + X.norm(y))
            assert lhs <= rhs * (1 + 1e-12)


def test_weak_l1_triangle_genuinely_fails():
    # weak-l1 is a quasi-norm only: some pair beats the triangle inequality
    # by a clear margin (a seeded sparse search finds ratio > 1.2 easily)
    X = weak_l1_space(8)
    rng = np.random.default_rng(1)
    xs = np.abs(rng.standard_normal((20000, 8))) * (rng.random((20000, 8)) < 0.7)
    ys = np.abs(rng.standard_normal((20000, 8))) * (rng.random((20000, 8)) < 0.7)
    denom = X.norms(xs) + X.norms(ys)
    keep = denom > 0
    ratios = X.norms(xs[keep] + ys[keep]) / denom[keep]
    assert float(ratios.max()) > 1.2
    assert float(ratios.max()) <= X.kappa * (1 + 1e-12)


def test_gauge_subclass_target_validation():
    X = QuasiNormedSpace(2, SupGauge(), name="linf")
    assert X.norm(np.array([1.0, -3.0])) == 3.0
    assert X.kappa == 1.0 and X.is_banach
    with pytest.raises(InputError):
        # not homogeneous
        QuasiNormedSpace(2, SupGauge(shift=1.0))
    with pytest.raises(InputError):
        QuasiNormedSpace(0, Lp(1.0))
    with pytest.raises(InputError):
        lq_space(2, -1.0)


def test_target_kappa_below_one_is_rejected():
    with pytest.raises(InputError):
        QuasiNormedSpace(2, SupGauge(kappa_bound=0.5))


@dataclass(frozen=True)
class SearchedSupGauge(SupGauge):
    """A user gauge whose values it declares to be search upper bounds."""

    tag = Tag.UPPER


def test_searched_target_gauge_is_rejected():
    # intersection values are search upper bounds, not norms
    with pytest.raises(InputError):
        QuasiNormedSpace(2, Intersect(Lp(1.0), Lp(2.0)))
    with pytest.raises(InputError):
        QuasiNormedSpace(2, convexify(Intersect(Lp(1.0), Lp(2.0)), 2.0))
    # a user gauge is refused by its declared tag alone, as is its convexification
    assert SupGauge().tag is Tag.EXACT
    with pytest.raises(InputError):
        QuasiNormedSpace(2, SearchedSupGauge())
    with pytest.raises(InputError):
        QuasiNormedSpace(2, convexify(SearchedSupGauge(), 2.0))


def test_unknown_kappa_is_infinite_and_not_banach():
    for g in (SupGauge(kappa_bound=math.inf), Orlicz(builtin_phi("loglog"))):
        X = QuasiNormedSpace(2, g)
        assert X.kappa == math.inf and not X.is_banach


def test_norm_shape_errors():
    X = lq_space(3, 1.0)
    with pytest.raises(InputError):
        X.norm(np.ones(2))
    with pytest.raises(InputError):
        X.norms(np.ones((2, 2)))
