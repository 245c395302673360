"""Finite-dimensional quasi-normed targets, and the row kernels behind every quasi-norm.

A target space is R^dim equipped with one of:

  * the l_q quasi-norm, q > 0  (a genuine norm when q >= 1),
  * the weak-l1 quasi-norm over `dim` atoms of unit mass,
    ||v|| = max_k k * v*_k with v* the decreasing rearrangement of |v|,
  * a caller-supplied evaluator (``custom``).

The modulus of concavity kappa is the smallest constant with
||x + y|| <= kappa (||x|| + ||y||); for l_q with q < 1 it equals
2^(1/q - 1), for weak-l1 it is 2, for norms it is 1.  For custom
evaluators the stored value is a caller-asserted bound.

Each quasi-norm has one row kernel, `_lp_rows` or `_weak_l1_rows`, shared
with `qnlab.gauges` and `qnlab.measure`.  Entries within 1e+-300 are
evaluated to about 1e-12 relative; a value beyond the float range is inf.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import InputError

_HOMOGENEITY_RTOL = 1e-12
# fixed probe set used by validation; not configurable on purpose
_PROBE_SCALES = (2.0, 0.5, 3.7)

# a power sum below tiny/eps may have lost over eps (relative) to underflow
_SUM_MIN = np.finfo(float).tiny / np.finfo(float).eps


def _lp_rows(rows: np.ndarray, p: float, weights: np.ndarray) -> np.ndarray:
    """(sum_j w_j a_j^p)^(1/p) for each row a of a nonnegative (m, n) array.

    For p <= 1 the power sum leaves the float range only with the value.  For
    p > 1 the rows whose sum is non-finite or below _SUM_MIN are redone scaled
    by their maximum m (Blue 1978): m * (sum_j w_j (a_j/m)^p)^(1/p).
    """
    if p <= 1.0:
        return rows @ weights if p == 1.0 else (rows**p @ weights) ** (1.0 / p)
    with np.errstate(over="ignore"):  # overflowed rows are redone below
        sums = rows**p @ weights
    out = sums ** (1.0 / p)
    if sums.size and not (_SUM_MIN <= sums.min() and sums.max() < np.inf):
        redo = ~((sums >= _SUM_MIN) & (sums < np.inf))
        a = rows[redo]
        m = a.max(axis=1)
        out[redo] = m * ((a / np.where(m > 0, m, 1.0)[:, None]) ** p @ weights) ** (1.0 / p)
    return out


def _weak_l1_rows(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """max_k v_k * W_k for each row of a nonnegative (m, n) array (0 when n = 0):
    v is the row sorted decreasingly, W_k the mass of its k largest entries.
    Equal weights need only a sort; unequal ones an argsort to carry them."""
    if (weights == weights[:1]).all():
        v = np.sort(rows, axis=1)[:, ::-1]
        return np.max(v * np.cumsum(weights), axis=1, initial=0.0)
    order = np.argsort(-rows, axis=1, kind="stable")
    v = np.take_along_axis(rows, order, axis=1)
    return np.max(v * np.cumsum(weights[order], axis=1), axis=1)


def _lp_kappa(p: float) -> float:
    """Modulus of concavity of l_p and L_p: 2^(1/p - 1) for p < 1, else 1."""
    return 1.0 if p >= 1.0 else 2.0 ** (1.0 / p - 1.0)


def weak_l1_vector_norm(v: np.ndarray) -> float:
    """max_k k * (k-th largest |entry|), the weak-l1 norm over unit atoms."""
    a = np.abs(np.asarray(v, dtype=float)).ravel()
    return float(_weak_l1_rows(a[None, :], np.ones(a.size))[0])


@dataclass(frozen=True)
class QuasiNormedSpace:
    """R^dim with an l_q, weak-l1, or custom quasi-norm."""

    dim: int
    kind: str = "lq"  # "lq" | "weak_l1" | "custom"
    q: Optional[float] = None
    evaluator: Optional[Callable[[np.ndarray], float]] = None
    kappa_custom: Optional[float] = None
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise InputError("space dimension must be >= 1")
        if self.kind == "lq":
            if self.q is None or self.q <= 0:
                raise InputError("lq target needs an exponent q > 0")
        elif self.kind == "weak_l1":
            pass
        elif self.kind == "custom":
            if self.evaluator is None:
                raise InputError("custom target needs an evaluator")
            if self.kappa_custom is None or self.kappa_custom < 1:
                raise InputError("custom target needs kappa >= 1")
        else:
            raise InputError(f"unknown target kind {self.kind!r}")
        object.__setattr__(self, "_unit_weights", np.ones(self.dim))
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
        if self.kind == "lq":
            return _lp_rows(np.abs(vs), self.q, self._unit_weights)
        if self.kind == "weak_l1":
            return _weak_l1_rows(np.abs(vs), self._unit_weights)
        return np.array([self.evaluator(v) for v in vs], dtype=float)

    @property
    def kappa(self) -> float:
        if self.kind == "lq":
            return _lp_kappa(self.q)
        if self.kind == "weak_l1":
            return 2.0
        return float(self.kappa_custom)

    @property
    def is_banach(self) -> bool:
        return self.kappa <= 1.0

    # -- construction-time sanity checks ------------------------------------

    def _validate(self) -> None:
        n = self.norms(np.eye(self.dim))
        if not np.all((n > 0.0) & np.isfinite(n)):
            raise InputError("norm must be positive and finite on basis vectors")
        # homogeneity on a fixed deterministic probe set
        probe = np.cos(np.arange(1, self.dim + 1, dtype=float))
        ts = np.array(_PROBE_SCALES)
        base, *scaled = self.norms(np.vstack([probe, ts[:, None] * probe]))
        if base > 0 and np.any(np.abs(scaled - ts * base) > _HOMOGENEITY_RTOL * ts * base):
            raise InputError("norm evaluator is not positively homogeneous")


def lq_space(dim: int, q: float) -> QuasiNormedSpace:
    return QuasiNormedSpace(dim=dim, kind="lq", q=float(q), name=f"l{q:g}^{dim}")


def weak_l1_space(dim: int) -> QuasiNormedSpace:
    return QuasiNormedSpace(dim=dim, kind="weak_l1", name=f"weakL1^{dim}")
