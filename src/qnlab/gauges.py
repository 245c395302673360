"""Function gauges on finite atom-weighted spaces.

A gauge assigns a nonnegative number to a scalar field; all gauges here
are positively homogeneous and monotone, and each carries a modulus of
concavity kappa (the best constant in rho(f+g) <= kappa*(rho(f)+rho(g)))
when that constant is known in closed form.

Available kinds:

  Lp(p)              (sum w |f|^p)^(1/p), p > 0
  WeakL1             sup_s s * mu{|f| > s}  =  max_k v_k * m_k over the
                     decreasing rearrangement (closed form, exact)
  Orlicz(phi)        Luxemburg gauge inf{t > 0 : sum w phi(|f|/t) <= 1},
                     found by bracketed bisection
  Convexified(g, r)  g(|f|^r)^(1/r)
  Intersect(g1, g2)  inf{g1(u) + g2(v) : |f| = u + v, u, v >= 0},
                     estimated by per-atom splitting (upper bound)

Lp and WeakL1 use the row kernels of `qnlab.spaces`.  Fields with entries
within 1e+-300 are evaluated to about 1e-12 relative; a value beyond the
float range raises InputError, so no overflowed value is ever tagged.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .bounds import BoundResult, Tag
from .errors import GaugeDefinitionError, InputError
from .measure import MeasureSpace, ScalarField, VectorField
from .spaces import _lp_kappa, _lp_rows, _weak_l1_rows

# relative bracket width for the Luxemburg bisection used by eval_gauge;
# tight enough that gauge homogeneity survives at 1e-12 relative
DEFAULT_LUX_TOL = 1e-13

_ORLICZ_GRID = np.logspace(-9.0, 3.0, 1000)


# ---------------------------------------------------------------------------
# Orlicz functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrliczFunction:
    """A nondecreasing function phi with phi(0) = 0 used as a Luxemburg kernel.

    Builtins: power(p) -> t^p, loglog -> t*log(e + 1/t), rational -> t/(1+t).
    Concavity, when claimed, is verified by a midpoint check on a fixed log
    grid at construction time.
    """

    name: str
    evaluator: Callable[[np.ndarray], np.ndarray]
    claimed_concave: bool = True
    p: Optional[float] = None

    def __post_init__(self) -> None:
        self._validate()

    def __call__(self, t) -> np.ndarray:
        return self.evaluator(np.asarray(t, dtype=float))

    def _validate(self) -> None:
        z = float(self.evaluator(np.array(0.0)))
        if not (abs(z) <= 1e-15):
            raise GaugeDefinitionError(f"phi(0) must be 0, got {z!r}")
        g = _ORLICZ_GRID
        vals = self.evaluator(g)
        if np.any(~np.isfinite(vals)) or np.any(vals < -1e-15):
            raise GaugeDefinitionError("phi must be finite and nonnegative on (0, 1e3]")
        if np.any(np.diff(vals) < -1e-12 * np.maximum(1.0, vals[:-1])):
            raise GaugeDefinitionError("phi must be nondecreasing")
        if self.claimed_concave:
            # midpoint concavity over all grid pairs, vectorized
            mids = 0.5 * (g[:, None] + g[None, :])
            lhs = self.evaluator(mids)
            rhs = 0.5 * (vals[:, None] + vals[None, :])
            slack = 1e-10 * np.maximum(1.0, np.abs(rhs))
            if np.any(lhs < rhs - slack):
                raise GaugeDefinitionError("claimed concave but midpoint check fails")

    def quasinorm_condition_report(self) -> dict:
        """Numerical check that sup_u phi(t u)/phi(u) -> 0 as t -> 0.

        Scans t = 2^-1 .. 2^-30 against a 64-point log grid of u in (0, 1];
        the gauge is marked verified when the scan decreases monotonically
        and ends below 1e-3.  An unverified result is recorded, not fatal.
        """
        ts = 2.0 ** -np.arange(1, 31)
        us = np.logspace(-9.0, 0.0, 64)
        denom = self.evaluator(us)
        ok = denom > 0
        ms = np.array(
            [float(np.max(self.evaluator(t * us[ok]) / denom[ok])) for t in ts]
        )
        monotone = bool(np.all(np.diff(ms) <= 1e-12 * np.maximum(1.0, ms[:-1])))
        verified = monotone and ms[-1] < 1e-3
        return {"verified": verified, "scan": ms, "monotone": monotone}


def _power_eval(p: float):
    def ev(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return np.where(t > 0, np.power(t, p, where=t > 0, out=np.zeros_like(t)), 0.0)

    return ev


def _loglog_eval(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    tp = t[pos]
    out[pos] = tp * np.log(np.e + 1.0 / tp)
    return out


def _rational_eval(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    return t / (1.0 + t)


@lru_cache(maxsize=None)
def power_phi(p: float) -> OrliczFunction:
    if p <= 0:
        raise InputError("power Orlicz kernel needs p > 0")
    return OrliczFunction(
        name=f"power({p:g})", evaluator=_power_eval(p), claimed_concave=p <= 1.0, p=p
    )


@lru_cache(maxsize=None)
def loglog_phi() -> OrliczFunction:
    return OrliczFunction(name="loglog", evaluator=_loglog_eval, claimed_concave=True)


@lru_cache(maxsize=None)
def rational_phi() -> OrliczFunction:
    return OrliczFunction(name="rational", evaluator=_rational_eval, claimed_concave=True)


def builtin_phi(name: str, p: Optional[float] = None) -> OrliczFunction:
    if name == "loglog":
        return loglog_phi()
    if name == "rational":
        return rational_phi()
    if name == "power":
        if p is None:
            raise InputError("power kernel needs an exponent p")
        return power_phi(float(p))
    raise InputError(f"unknown Orlicz kernel {name!r}")


# ---------------------------------------------------------------------------
# Luxemburg gauge by bracketed bisection
# ---------------------------------------------------------------------------

def _lux_rows(
    phi: OrliczFunction, rows: np.ndarray, weights: np.ndarray, tol: float
) -> np.ndarray:
    """Row-wise Luxemburg gauge of a nonnegative (m, n) array.

    Brackets by doubling/halving (at most 200 steps each way), then bisects
    until the bracket is narrower than tol * t.  Rows whose level sum never
    exceeds 1 (possible for bounded kernels on tiny supports) get value 0:
    the infimum is genuinely 0 there.
    """
    rows = np.asarray(rows, dtype=float)
    m, _ = rows.shape
    out = np.zeros(m)
    scale = rows.max(axis=1)
    act = scale > 0
    if not np.any(act):
        return out
    a = rows[act]
    w = weights
    sc = scale[act]

    def level(ts: np.ndarray) -> np.ndarray:
        return (w * phi(a / ts[:, None])).sum(axis=1)

    hi = sc.copy()
    for _ in range(200):
        bad = level(hi) > 1.0
        if not np.any(bad):
            break
        hi[bad] *= 2.0
    else:
        raise GaugeDefinitionError("Luxemburg bracket expansion failed upward")

    lo = hi.copy()
    floor = sc * 1e-18
    degenerate = np.zeros(lo.shape, dtype=bool)
    for _ in range(200):
        probe = lo / 2.0
        still = (level(probe) <= 1.0) & ~degenerate
        if not np.any(still):
            break
        hi[still] = probe[still]
        lo[still] = probe[still]
        degenerate |= lo < floor
    lo = lo / 2.0  # now level(lo) > 1 for non-degenerate rows

    live = ~degenerate
    if np.any(live):
        lo_l, hi_l = lo[live], hi[live]
        a_live, = np.where(live)
        for _ in range(120):
            if np.all(hi_l - lo_l <= tol * hi_l):
                break
            mid = 0.5 * (lo_l + hi_l)
            le = (w * phi(a[a_live] / mid[:, None])).sum(axis=1) <= 1.0
            hi_l = np.where(le, mid, hi_l)
            lo_l = np.where(le, lo_l, mid)
        res = np.zeros(lo.shape)
        res[live] = 0.5 * (lo_l + hi_l)
        out_act = res
    else:
        out_act = np.zeros(lo.shape)
    out[act] = out_act
    return out


def luxemburg(
    phi: OrliczFunction,
    f: ScalarField,
    tol: float = 1e-12,
    weights: Optional[np.ndarray] = None,
) -> float:
    """Luxemburg gauge inf{t > 0 : sum_n w_n phi(|a_n|/t) <= 1}.

    Counting measure unless explicit weights are given.  Returns 0 for the
    zero field, and 0 when no positive t pushes the level sum above 1
    (bounded kernels on small supports).
    """
    if tol <= 0:
        raise InputError("tolerance must be positive")
    vals = np.abs(f.values)
    w = np.ones(vals.size) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != vals.shape:
        raise InputError("weights length does not match field length")
    return float(_lux_rows(phi, vals[None, :], w, tol)[0])


# ---------------------------------------------------------------------------
# gauge descriptors
# ---------------------------------------------------------------------------

class Gauge:
    """Base class: positively homogeneous monotone gauges."""

    kind: str = "abstract"

    # exact modulus of concavity, when known in closed form
    def known_kappa(self) -> Optional[float]:
        return None

    @property
    def kappa(self) -> float:
        """Known exact kappa, else the trivial lower bound 1.0."""
        k = self.known_kappa()
        return 1.0 if k is None else k

    @property
    def kappa_exact(self) -> bool:
        return self.known_kappa() is not None

    # lattice convexity exponent when a canonical one exists
    @property
    def convexity_p(self) -> Optional[float]:
        return None

    def _value_rows(self, space: MeasureSpace, rows: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def value(self, space: MeasureSpace, f: ScalarField) -> float:
        if len(f) != len(space):
            raise InputError("field and space atom counts differ")
        return _in_range(float(self._value_rows(space, np.abs(f.values)[None, :])[0]))

    def result(self, space: MeasureSpace, f: ScalarField) -> BoundResult:
        return BoundResult(self.value(space, f), Tag.EXACT)

    def label(self) -> str:
        return self.kind


@dataclass(frozen=True)
class Lp(Gauge):
    p: float
    kind: str = field(default="lp", init=False)

    def __post_init__(self) -> None:
        if self.p <= 0:
            raise InputError("Lp gauge needs p > 0")

    def known_kappa(self) -> Optional[float]:
        return _lp_kappa(self.p)

    @property
    def convexity_p(self) -> Optional[float]:
        return min(self.p, 1.0)

    def _value_rows(self, space: MeasureSpace, rows: np.ndarray) -> np.ndarray:
        return _lp_rows(rows, self.p, space.weights)

    def label(self) -> str:
        return f"L{self.p:g}"


@dataclass(frozen=True)
class WeakL1(Gauge):
    kind: str = field(default="weak_l1", init=False)

    def known_kappa(self) -> Optional[float]:
        return 2.0

    def _value_rows(self, space: MeasureSpace, rows: np.ndarray) -> np.ndarray:
        return _weak_l1_rows(rows, space.weights)

    def label(self) -> str:
        return "weakL1"


@dataclass(frozen=True)
class Orlicz(Gauge):
    phi: OrliczFunction
    tol: float = DEFAULT_LUX_TOL
    kind: str = field(default="orlicz", init=False)

    def known_kappa(self) -> Optional[float]:
        if self.phi.name.startswith("power(") and self.phi.p is not None:
            return _lp_kappa(self.phi.p)
        return None

    @property
    def convexity_p(self) -> Optional[float]:
        if self.phi.p is not None:
            return min(self.phi.p, 1.0)
        return None

    def _value_rows(self, space: MeasureSpace, rows: np.ndarray) -> np.ndarray:
        return _lux_rows(self.phi, rows, space.weights, self.tol)

    def result(self, space: MeasureSpace, f: ScalarField) -> BoundResult:
        return BoundResult(self.value(space, f), Tag.EXACT, tol=self.tol)

    def label(self) -> str:
        return f"Orlicz[{self.phi.name}]"


@dataclass(frozen=True)
class Convexified(Gauge):
    base: Gauge
    r: float
    kind: str = field(default="convexified", init=False)

    def __post_init__(self) -> None:
        if self.r <= 0:
            raise InputError("convexification exponent r must be > 0")

    @property
    def convexity_p(self) -> Optional[float]:
        cp = self.base.convexity_p
        return None if cp is None else min(cp * self.r, 1.0)

    # g(|f|^r)^(1/r) = m * g((|f|/m)^r)^(1/r) for any m > 0 by homogeneity;
    # m = max |f| (1 for a zero field) keeps (|f|/m)^r within [0, 1]
    def _value_rows(self, space: MeasureSpace, rows: np.ndarray) -> np.ndarray:
        m = rows.max(axis=1)
        m[m == 0] = 1.0
        scaled = (rows / m[:, None]) ** self.r
        return m * self.base._value_rows(space, scaled) ** (1.0 / self.r)

    def result(self, space: MeasureSpace, f: ScalarField) -> BoundResult:
        m = float(np.max(np.abs(f.values))) or 1.0
        inner = self.base.result(space, ScalarField((np.abs(f.values) / m) ** self.r))
        value = _in_range(m * inner.value ** (1.0 / self.r))
        return BoundResult(value, inner.tag, tol=inner.tol)

    def label(self) -> str:
        return f"({self.base.label()})^({self.r:g})"


@dataclass(frozen=True)
class Intersect(Gauge):
    g1: Gauge
    g2: Gauge
    budget: int = 32
    kind: str = field(default="intersect", init=False)

    def _value_rows(self, space: MeasureSpace, rows: np.ndarray) -> np.ndarray:
        return np.array(
            [
                intersect_eval(self.g1, self.g2, space, ScalarField(r), self.budget).value
                for r in rows
            ]
        )

    def result(self, space: MeasureSpace, f: ScalarField) -> BoundResult:
        return intersect_eval(self.g1, self.g2, space, f, self.budget)

    def label(self) -> str:
        return f"({self.g1.label()} ^ {self.g2.label()})"


# ---------------------------------------------------------------------------
# public evaluation entry points
# ---------------------------------------------------------------------------

def _in_range(value: float) -> float:
    """The value, if finite; the kernels are range-safe, so inf means it overflows."""
    if not math.isfinite(value):
        raise InputError(f"gauge value exceeds the float range ({value!r})")
    return value


def eval_gauge(g: Gauge, space: MeasureSpace, f: ScalarField) -> BoundResult:
    """Evaluate a gauge on a scalar field; |f| is used for signed fields."""
    return g.result(space, f)


def eval_vector_gauge(g: Gauge, space: MeasureSpace, F: VectorField) -> BoundResult:
    """Gauge of the pointwise target-norm field of F."""
    if len(F) != len(space):
        raise InputError("field and space atom counts differ")
    return g.result(space, F.norm_field())


def gauge_values_rows(g: Gauge, space: MeasureSpace, rows: np.ndarray) -> np.ndarray:
    """Gauge of each row of a (m, n) array, vectorized where possible."""
    rows = np.abs(np.asarray(rows, dtype=float))
    if rows.ndim != 2 or rows.shape[1] != len(space):
        raise InputError("rows must be (m, n_atoms)")
    return g._value_rows(space, rows)


def convexify(g: Gauge, r: float) -> Convexified:
    """The r-convexification f -> g(|f|^r)^(1/r)."""
    return Convexified(g, float(r))


# ---------------------------------------------------------------------------
# intersection gauge: per-atom splitting search (upper bound)
# ---------------------------------------------------------------------------

def intersect_eval(
    g1: Gauge,
    g2: Gauge,
    space: MeasureSpace,
    f: ScalarField,
    budget: int = 8,
    seed: int = 0,
) -> BoundResult:
    """Upper bound for inf{g1(u) + g2(v) : |f| = u + v, u, v >= 0}.

    Every split of |f| into nonnegative parts is a per-atom split, so
    coordinate descent over the fraction vector alpha in [0,1]^n explores
    the full feasible set.  budget counts random restarts; budget 0
    degrades to min(g1(f), g2(f)).  All comparisons are relative, keeping
    the estimate positively homogeneous to rounding.
    """
    if len(f) != len(space):
        raise InputError("field and space atom counts differ")
    vals = np.abs(f.values)
    n = vals.size

    def obj_batch(alphas: np.ndarray) -> np.ndarray:
        us = alphas * vals
        return g1._value_rows(space, us) + g2._value_rows(space, vals - us)

    seeds = np.stack([np.ones(n), np.zeros(n), np.full(n, 0.5)])
    vs = obj_batch(seeds)
    j = int(np.argmin(vs))
    best, best_alpha = float(vs[j]), seeds[j].copy()

    if budget > 0 and np.any(vals > 0):
        rng = np.random.default_rng(seed)
        starts = [best_alpha.copy()] + [rng.random(n) for _ in range(int(budget))]
        coarse = np.linspace(0.0, 1.0, 33)
        for alpha in starts:
            alpha = alpha.copy()
            cur = float(obj_batch(alpha[None, :])[0])
            for _ in range(4):  # descent sweeps
                improved = False
                for k in range(n):
                    if vals[k] == 0:
                        continue
                    pts = coarse
                    lo, hi = 0.0, 1.0
                    for _ in range(3):  # zoom rounds
                        cand = np.repeat(alpha[None, :], pts.size, axis=0)
                        cand[:, k] = pts
                        cv = obj_batch(cand)
                        jj = int(np.argmin(cv))
                        if cv[jj] < cur * (1.0 - 1e-15):
                            alpha[k] = pts[jj]
                            cur = float(cv[jj])
                            improved = True
                        span = pts[1] - pts[0] if pts.size > 1 else (hi - lo)
                        lo = max(0.0, alpha[k] - span)
                        hi = min(1.0, alpha[k] + span)
                        pts = np.linspace(lo, hi, 9)
                if not improved:
                    break
            if cur < best:
                best, best_alpha = cur, alpha

    u = best_alpha * vals
    witness = (ScalarField(u), ScalarField(vals - u))
    return BoundResult(best, Tag.UPPER, witness=witness)


# ---------------------------------------------------------------------------
# dual gauge (Koethe-type): sup{ integral fg : g in unit ball }
# ---------------------------------------------------------------------------

def dual_gauge(
    g: Gauge,
    space: MeasureSpace,
    f: ScalarField,
    budget: int = 200,
    seed: int = 0,
) -> BoundResult:
    """sup{ sum w f u : g(u) <= 1, u >= 0 }.

    For Lp with p >= 1 this is the Hoelder conjugate value (exact, with the
    optimizing u as witness).  Otherwise a projected multiplicative ascent
    over the unit sphere of g reports a certified lower bound.
    """
    if len(f) != len(space):
        raise InputError("field and space atom counts differ")
    vals = np.abs(f.values)
    w = space.weights

    if isinstance(g, Lp) and g.p >= 1.0:
        if g.p == 1.0:
            k = int(np.argmax(vals))
            u = np.zeros_like(vals)
            u[k] = 1.0 / w[k]
            return BoundResult(float(vals[k]), Tag.EXACT, witness=ScalarField(u))
        q = g.p / (g.p - 1.0)
        value = float(_lp_rows(vals[None, :], q, w)[0])
        if value == 0.0:
            return BoundResult(0.0, Tag.EXACT, witness=ScalarField(np.zeros_like(vals)))
        u = (vals / value) ** (q / g.p)
        return BoundResult(value, Tag.EXACT, witness=ScalarField(u))

    # one projection onto the unit sphere of g for the spikes, the proportional
    # profile and the random candidates; a zero row (f = 0) has no projection
    pay = w * vals
    budget = max(0, int(budget))
    rng = np.random.default_rng(seed)
    cands = np.vstack([np.eye(vals.size), vals, rng.random((budget, vals.size))])
    nrm = g._value_rows(space, cands)
    ok = (nrm > 0) & np.isfinite(nrm)
    us = cands / np.where(ok, nrm, 1.0)[:, None]
    pays = np.where(ok, us @ pay, 0.0)
    j = int(np.argmax(pays))
    best, best_u = (float(pays[j]), us[j]) if pays[j] > 0 else (0.0, np.zeros_like(vals))
    # multiplicative hill climb around the incumbent
    step = 0.5
    u = best_u
    for it in range(budget):
        pert = u * np.exp(step * rng.standard_normal(u.size))
        nrm = g._value_rows(space, pert[None, :])[0]
        if nrm > 0 and np.isfinite(nrm) and np.dot(pay, pert / nrm) > best:
            u = best_u = pert / nrm
            best = float(np.dot(pay, u))
        if (it + 1) % 25 == 0:
            step *= 0.7
    return BoundResult(best, Tag.LOWER, witness=ScalarField(best_u))


# ---------------------------------------------------------------------------
# modulus-of-concavity probe (lower bound)
# ---------------------------------------------------------------------------

def concavity_modulus_probe(
    g: Gauge,
    space: MeasureSpace,
    trials: int = 10000,
    seed: int = 0,
) -> BoundResult:
    """Largest observed rho(f1+f2)/(rho(f1)+rho(f2)): a lower bound for kappa.

    Deterministic extremal shapes (disjoint halves, reversed harmonic
    profiles, spikes) are probed first, then seeded random pairs.  When the
    gauge's kappa is known exactly, the observed ratio is asserted never to
    exceed it (within 1e-9 relative).
    """
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
    best = float(ratios[j])
    best_pair = (ScalarField(pairs[j][0]), ScalarField(pairs[j][1]))

    known = g.known_kappa()
    if known is not None and best > known * (1.0 + 1e-9):
        raise AssertionError(
            f"probe found ratio {best!r} above the exact kappa {known!r} "
            f"for {g.label()}"
        )
    return BoundResult(best, Tag.LOWER, witness=best_pair)
