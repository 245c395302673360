"""Finite-dimensional quasi-normed targets: R^dim normed by a gauge.

A target is R^dim with ||v|| = g(|v|), g a `Gauge` over counting measure on
dim atoms: Lp(q) for `lq_space`, WeakL1 for `weak_l1_space`
(||v|| = max_k k * v*_k, v* the decreasing rearrangement of |v|), and any
other exact gauge the same way: an Orlicz space l_phi, a convexification, or
a `Gauge` subclass that defines `_value_rows` and overrides `kappa`.  A gauge
whose declared `tag` is not EXACT (an intersection, whose values are search
upper bounds, or a convexification of one) is refused.

The space's kappa is its gauge's `kappa`: an upper bound for the least
constant with ||x + y|| <= kappa (||x|| + ||y||) (2^(1/q - 1) for l_q with
q < 1, 2 for weak-l1, 1 for norms), inf when none is known.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bounds import Tag
from .errors import InputError
from .gauges import Gauge, Lp, WeakL1
from .measure import _weak_l1_rows, counting_space

_HOMOGENEITY_RTOL = 1e-12
# fixed probe set used by validation; not configurable on purpose
_PROBE_SCALES = (2.0, 0.5, 3.7)


def weak_l1_vector_norm(v: np.ndarray) -> float:
    """max_k k * (k-th largest |entry|), the weak-l1 norm over unit atoms."""
    a = np.abs(np.asarray(v, dtype=float)).ravel()
    return float(_weak_l1_rows(a[None, :], np.ones(a.size))[0])


@dataclass(frozen=True)
class QuasiNormedSpace:
    """R^dim with ||v|| = gauge(|v|) over counting measure on dim atoms."""

    dim: int
    gauge: Gauge
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise InputError("space dimension must be >= 1")
        if self.gauge.tag is not Tag.EXACT:
            raise InputError("a target norm must be exact; intersection gauges are searched")
        if not self.gauge.kappa >= 1.0:
            raise InputError("a target gauge needs kappa >= 1")
        object.__setattr__(self, "_atoms", counting_space(self.dim))
        self._validate()

    # -- norm evaluation ----------------------------------------------------

    def norm(self, v) -> float:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise InputError(f"expected vector of shape ({self.dim},), got {v.shape}")
        return float(self.norms(v[None, :])[0])

    def norms(self, vs: np.ndarray) -> np.ndarray:
        """Row-wise norms of an (n, dim) array."""
        vs = np.asarray(vs, dtype=float)
        if vs.ndim != 2 or vs.shape[1] != self.dim:
            raise InputError(f"expected (n, {self.dim}) array, got {vs.shape}")
        return self.gauge._value_rows(self._atoms, np.abs(vs))

    @property
    def kappa(self) -> float:
        """The gauge's kappa: an upper bound for the modulus of concavity."""
        return self.gauge.kappa

    @property
    def is_banach(self) -> bool:
        return self.kappa <= 1.0

    @property
    def unit_basis(self) -> np.ndarray:
        """(dim, dim) read-only array whose rows are e_j / ||e_j||."""
        return self._unit_basis

    # -- construction-time sanity checks ------------------------------------

    def _validate(self) -> None:
        n = self.norms(np.eye(self.dim))
        if not np.all((n > 0.0) & np.isfinite(n)):
            raise InputError("norm must be positive and finite on basis vectors")
        basis = np.eye(self.dim) / n[:, None]
        basis.flags.writeable = False
        object.__setattr__(self, "_unit_basis", basis)
        # homogeneity on a fixed deterministic probe set
        probe = np.cos(np.arange(1, self.dim + 1, dtype=float))
        ts = np.array(_PROBE_SCALES)
        base, *scaled = self.norms(np.vstack([probe, ts[:, None] * probe]))
        if base > 0 and np.any(np.abs(scaled - ts * base) > _HOMOGENEITY_RTOL * ts * base):
            raise InputError("norm evaluator is not positively homogeneous")


def lq_space(dim: int, q: float) -> QuasiNormedSpace:
    return QuasiNormedSpace(dim, Lp(float(q)), name=f"l{q:g}^{dim}")


def weak_l1_space(dim: int) -> QuasiNormedSpace:
    return QuasiNormedSpace(dim, WeakL1(), name=f"weakL1^{dim}")
