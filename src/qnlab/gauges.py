"""Function gauges on finite atom-weighted spaces.

A gauge assigns a nonnegative number to a scalar field; all gauges here
are positively homogeneous and monotone, and each states its modulus of
concavity once, as `kappa`: an upper bound for the least constant in
rho(f+g) <= kappa*(rho(f)+rho(g)), inf when none is known.  Lp(p) and
Orlicz(power(p)) state 2^(1/p - 1) for p < 1 and 1 otherwise; their
r-convexifications are L_{p r} and state that of p r; WeakL1 states 2,
and every other gauge inf.

Available kinds:

  Lp(p)              (sum w |f|^p)^(1/p), p > 0
  WeakL1             sup_s s * mu{|f| > s}  =  max_k v_k * m_k over the
                     decreasing rearrangement (closed form, exact)
  Orlicz(phi)        Luxemburg gauge inf{t > 0 : sum w phi(|f|/t) <= 1},
                     bracketed in a fixed range by a start grid read in
                     two rounds (coarse points, then one group), then
                     closed to relative width tol by an Anderson-Bjorck
                     iteration on log2 t with a bisection fallback (power
                     kernels: the Lp closed form); the grid's first round
                     is priced once, a batch of at most _LUX_FEW nonzero
                     rows is then solved on Python floats, a larger one in
                     numpy, to the same final brackets, and every value is
                     formed from its bracket by one formula
  Convexified(g, r)  g(|f|^r)^(1/r)
  Intersect(g1, g2)  inf{g1(u) + g2(v) : |f| = u + v, u, v >= 0},
                     estimated by per-atom splitting (upper bound): a
                     coordinate descent from seeded restarts that skips the
                     steps whose outcome it knows (a restart that has not
                     moved since it last priced an atom's grid, or that
                     reached an earlier restart's split), to the same bits

The builtin kernels power(p), loglog and rational come from one table
through `builtin_phi`, each built once.  An OrliczFunction checks its
kernel once, at construction: phi(0) = 0, phi finite, nonnegative and
nondecreasing on a 1000-point log grid, and t^p there when its p is set;
claimed concavity by a midpoint test on the grid pairs i < j, 64 rows at a
time, so the test holds at most a few MB of temporaries (power kernels t^p
with p <= 1 are concave and skip it).

Every value comes from a gauge's row kernel `_value_rows`, and each gauge
declares once, as class-level `tag` and `tol`, what its values are: Lp and
WeakL1 are EXACT closed forms, Orlicz is EXACT to its Luxemburg `tol`,
Intersect is an UPPER bound, and Convexified takes its base's declaration.
`eval_gauge` returns the row-kernel value under that tag and tol.

Lp and WeakL1 use the row kernels of `qnlab.measure`, which state their
error: n u for WeakL1 and u (4 + (n + 2)/p + |ln V|) for an Lp value V of n
atoms, u = 2^-53.  A value beyond the float range raises InputError, so no
overflowed value is ever tagged.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .bounds import BoundResult, Tag
from .errors import GaugeDefinitionError, InputError
from .measure import (MeasureSpace, ScalarField, VectorField, _check_same_length, _lp_kappa,
                      _lp_rows, _row_max, _weak_l1_rows, _wsum)

# the one default relative bracket width of the Luxemburg solve (Orlicz and
# luxemburg); tight enough that gauge homogeneity survives at 1e-12 relative
DEFAULT_LUX_TOL = 1e-13

_ORLICZ_GRID = np.logspace(-9.0, 3.0, 1000)
_ORLICZ_BLOCK = 64  # grid rows per block of the midpoint concavity check

# log2 of t in units of its row maximum: a Luxemburg root lies between the
# ends, so a root below 2^-60 (about 1e-18) reads as 0, and a level sum above
# 1 at 2^200 means the kernel defines no gauge; the points between are a start
# grid, dense where the roots of the builtin kernels lie
_LUX_X = np.array([-60.0, -24.0, -12.0, -6.0, -3.0, 0.0, 3.0, 6.0, 12.0, 24.0, 64.0, 200.0])
_LUX_T = np.exp2(_LUX_X)
# its coarse points 2^-12, 1 and 2^12 split it into four groups: group g
# runs from its g-th coarse point up to the next one (group 0 from the bottom,
# group 3 to the top)
_LUX_COARSE = np.isin(_LUX_X, (-12.0, 0.0, 12.0))
_LUX_GROUP = np.searchsorted(_LUX_X[_LUX_COARSE], _LUX_X, side="right")
# the grid as the float solver reads it: as Python floats, with group g's
# first index (its g-th coarse point; 0 for group 0) and its other points
_LUX_TF = _LUX_T.tolist()
_LUX_FIRST = np.searchsorted(_LUX_GROUP, np.arange(4)).tolist()
_LUX_REST = [np.flatnonzero((_LUX_GROUP == g) & ~_LUX_COARSE).tolist() for g in range(4)]
_LUX_CHUNK = 1 << 16  # start-grid points priced per phi call
# a batch with at most this many nonzero rows is solved on Python floats
# (`_lux_few`), a larger one in numpy: the largest size at which the float
# solver was faster at every row width measured (18 in two runs, 19 with a
# ratio of 1.00 at n = 128 in a third).  Float time over numpy time from
# `python3 tools/lux_crossover.py --repeat 15 --number 30` on 2 cores (loglog
# and rational rows with entries in e^+-3), at 14, 16, 18, 20 and 22 rows:
# 0.85, 0.92, 0.94, 0.99, 1.05 (n = 2); 0.83, 0.88, 0.92, 0.97, 0.99 (n = 6);
# 0.85, 0.94, 0.96, 1.00, 1.04 (n = 16); 0.92, 0.96, 0.98, 1.01, 1.03 (n = 128)
_LUX_FEW = 18


# ---------------------------------------------------------------------------
# Orlicz functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrliczFunction:
    """A nondecreasing function phi with phi(0) = 0 used as a Luxemburg kernel.

    Builtins: power(p) -> t^p, loglog -> t*log(e + 1/t), rational -> t/(1+t).
    p is set only for the power kernel t^p; Orlicz gauges then take the Lp
    closed form instead of bisecting.
    Construction checks phi(0) = 0 and that phi is finite, nonnegative and
    nondecreasing on a fixed log grid g of 1000 points in [1e-9, 1e3], and,
    when p is set, that phi(g) is g^p to 1e-12 relative.
    Concavity, when claimed, is checked at the midpoints of the grid pairs
    i < j: phi(m) >= r - 1e-10 max(1, |r|), m = (g_i + g_j)/2 and
    r = (phi(g_i) + phi(g_j))/2 (the pairs j < i are the same numbers, and
    i = j holds trivially).  The pairs go 64 grid rows at a time, so the
    check evaluates phi at about 530,000 points with temporaries of at most
    0.5 MB each; a builtin kernel builds in about 4 ms.  A kernel with p <= 1
    skips it: t^p is concave, and its gauge is the Lp closed form, which
    never calls the evaluator.
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
        # Orlicz prices a kernel with p set by the Lp closed form, so phi must be
        # t^p (the finite vals match no g^p beyond the float range)
        with np.errstate(over="ignore"):
            if self.p is not None and not np.all(np.abs(vals - g**self.p) <= 1e-12 * vals):
                raise GaugeDefinitionError(f"phi is not t^p for its p = {self.p!r}")
        # t^p is concave for p <= 1, and Orlicz prices a kernel with p set by
        # the Lp closed form, never through its evaluator
        if self.claimed_concave and (self.p is None or self.p > 1.0):
            # midpoint concavity on the pairs i < j: rows i of one block against
            # the columns j from the block's first row on, so the pairs j <= i
            # inside a block are tested too (a pair j < i is the mirror image
            # of i < j, bit for bit, and i = j holds trivially)
            for r in range(0, g.size, _ORLICZ_BLOCK):
                lhs = self.evaluator(0.5 * (g[r:r + _ORLICZ_BLOCK, None] + g[None, r:]))
                rhs = 0.5 * (vals[r:r + _ORLICZ_BLOCK, None] + vals[None, r:])
                if np.any(lhs < rhs - 1e-10 * np.maximum(1.0, np.abs(rhs))):
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
        ms = np.max(self.evaluator(ts[:, None] * us[ok]) / denom[ok], axis=1)
        monotone = bool(np.all(np.diff(ms) <= 1e-12 * np.maximum(1.0, ms[:-1])))
        verified = monotone and ms[-1] < 1e-3
        return {"verified": verified, "scan": ms, "monotone": monotone}


def _power_eval(p: float):
    def ev(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return np.where(t > 0, np.power(t, p, where=t > 0, out=np.zeros_like(t)), 0.0)

    return ev


# the builtin evaluators compute in one new buffer: the operations of
# t * log(e + 1/max(t, 2^-1022)) and t / (1 + t), in that order
def _loglog_eval(t: np.ndarray) -> np.ndarray:
    # for t >= 0: 1/t is taken of t >= 2^-1022 only, so a subnormal t gets a
    # finite value, and t = 0 gets 0 * log(e + 2^1022) = 0
    out = np.maximum(t, 2.0 ** -1022, out=np.empty(t.shape))
    np.divide(1.0, out, out)
    np.add(np.e, out, out)
    np.log(out, out)
    return np.multiply(t, out, out)


def _rational_eval(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    out = np.add(1.0, t, out=np.empty(t.shape))
    return np.divide(t, out, out)


# the builtin kernels other than power(p): name -> evaluator
_BUILTIN_EVAL = {"loglog": _loglog_eval, "rational": _rational_eval}


def builtin_phi(name: str, p: Optional[float] = None) -> OrliczFunction:
    """The builtin kernel `name`, built once: "power" -> t^p (p > 0), and
    "loglog" and "rational" (p ignored); InputError for any other name."""
    if not isinstance(name, str) or (name not in _BUILTIN_EVAL and name != "power"):
        raise InputError(f"unknown Orlicz kernel {name!r}")
    if name != "power":
        return _builtin(name, None)
    if p is None:
        raise InputError("power kernel needs an exponent p")
    if float(p) <= 0:
        raise InputError("power Orlicz kernel needs p > 0")
    return _builtin(name, float(p))


@lru_cache(maxsize=None)
def _builtin(name: str, p: Optional[float]) -> OrliczFunction:
    if p is None:
        return OrliczFunction(name=name, evaluator=_BUILTIN_EVAL[name])
    return OrliczFunction(name=f"power({p:g})", evaluator=_power_eval(p),
                          claimed_concave=p <= 1.0, p=p)


# ---------------------------------------------------------------------------
# Luxemburg gauge by a bracketed Anderson-Bjorck iteration
# ---------------------------------------------------------------------------

def _lux_rows(
    phi: OrliczFunction, rows: np.ndarray, weights: np.ndarray, tol: float
) -> np.ndarray:
    """Row-wise Luxemburg gauge of a nonnegative (m, n) array.

    With a = row / row max and x = log2 t, the level sum S(x) = sum w phi(a/2^x)
    is nonincreasing.  Every row reads its start grid _LUX_X by one rule,
    where (as in every later test) a NaN sum counts as above 1: first the
    coarse points 2^-12, 1 and 2^12, then the other points of the one group
    that ends where S first falls to 1 among them (the top group when it
    never does); the points of lower groups are never read.  A batch of at
    most 2^16 grid points (12 m n) prices the whole grid in one phi call.  A
    larger one prices its 3m coarse points, then its p group points (2 per
    row, 3 in the top group), each round in calls of at most
    c = floor(2^16 / n) points: ceil(3m / c) + ceil(p / c) start-grid calls.
    Rows with S <= 1 at the grid bottom get value 0 (the infimum is that
    small, or genuinely 0 for bounded kernels on tiny supports), and a row
    with S > 1 at every point it reads raises GaugeDefinitionError.  Every
    other row takes the interval where S first falls to 1 among the points
    it reads as its bracket [lo, hi], S(lo) > 1 >= S(hi) (for a monotone
    computed S, the first sign change on the whole grid).  It steps by
    regula falsi on y = ln S against x with the Anderson-Bjorck scaling:
    when a step replaces the same end as the step before, the y of the end
    kept is scaled by m = 1 - y_new / y_replaced, or by 1/2 where m <= 0 or
    is NaN.  The ends are kept as t and each step is taken from lo, so hi/lo
    resolves to an ulp of t wherever the root lies.  A step lands at least
    half the closing width inside the bracket, so once the secant point is
    that close to the root the step crosses it and closes the bracket.  Each
    step prices the live rows once; a row bisects as soon as halving alone
    is left to close its bracket in the steps that remain.  The steps are as
    many as bisecting the whole range to hi/lo <= 1 + tol would take, but
    never more than 63.  A row stops when hi/lo <= 1 + tol, or when the
    steps run out (only for tol near the float resolution), and gets
    scale * sqrt(lo * hi).

    The first round of the start grid is priced once, here; two solvers then
    carry the rule from it to each row's final bracket [lo, hi], chosen by
    the number of nonzero rows alone, and every value is formed once, here,
    as scale * sqrt(lo * hi).  Up to _LUX_FEW rows go to `_lux_few`, which
    reads the grid and steps on per-row Python floats, where the dozens of
    numpy dispatches the vector code makes would cost more than its
    arithmetic; more go to `_lux_vec`, which does so on numpy arrays.  Both
    price the same points, stacked in the same order, in the same `price`
    calls, so they make the same phi calls on the same arrays; and both take
    the same IEEE operations in the same order: +, -, *, / round alike in
    Python and numpy, and phi, the level sums, log, log2 and exp2 are numpy
    calls on arrays in both.  So the two give the same bits.

    A row's value depends only on the row, never on the rows batched with
    it: the row max comes from `measure._row_max`, each level sum from
    `measure._wsum`, one loop per row, whose error is at most (n - 1) u S
    (u = 2^-53) on top of phi's own, and both solvers give the same bits.
    """
    out = np.zeros(rows.shape[0])
    scale = _row_max(rows)
    act = (scale > 0).nonzero()[0]
    if act.size == 0:
        return out
    if act.size == scale.size:  # every row: index by a slice, which copies nothing
        act = slice(None)
    a = rows[act] / scale[act, None]
    per = max(1, _LUX_CHUNK // a.shape[1])
    # a width log2(hi/lo) at most `close` certifies hi/lo <= 1 + tol after rounding;
    # the steps are as many as bisecting the whole range to log2(1 + tol)
    # takes, which suffices to halve the widest grid interval down to it,
    # but never more than 63 (a tol below the float resolution bisects as
    # far as that goes)
    width = math.log1p(tol) / math.log(2.0)
    close = width * (1.0 - 2.0 ** -50) - 2.0 ** -50
    whole = math.log2((_LUX_X[-1] - _LUX_X[0]) / max(width, 1e-300))
    steps = max(0, min(math.ceil(whole), 63))

    # a level sum S becomes y = ln max(S, 1e-300): the tests `<= 0` below read
    # a NaN sum as above 1, y is never -inf, and the secant, written from the
    # hi end, turns an infinite y at lo into a step to hi rather than a NaN
    def level(q: np.ndarray) -> np.ndarray:
        return np.log(np.maximum(_wsum(phi(q), weights), 1e-300))

    def price(q: np.ndarray) -> np.ndarray:
        # level over a (k, n) stack of scaled rows, floor(2^16 / n) of them per phi call
        if len(q) <= per:
            return level(q)
        return np.concatenate([level(q[s:s + per]) for s in range(0, len(q), per)])

    one = a.shape[0] * _LUX_X.size <= per
    # overflow in phi or in a / t reads as a level sum of inf, and q = y / yp
    # below may divide by a last y of 0 (S = 1) or take inf / inf
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # the first round of the start grid: every point, or the coarse ones
        # (the others NaN until read)
        tc = _LUX_T if one else _LUX_T[_LUX_COARSE]
        lev = price((a[:, None, :] / tc[:, None]).reshape(-1, a.shape[1])).reshape(len(a), -1)
        if not one:
            lev, coarse = np.full((len(a), _LUX_X.size), np.nan), lev
            lev[:, _LUX_COARSE] = coarse
        solve = _lux_few if len(a) <= _LUX_FEW else _lux_vec
        ends = solve(level, price, a, lev, one, close, steps)
        out[act] = scale[act] * np.sqrt(ends[0] * ends[1])
    return out


def _lux_vec(level, price, a, lev, one, close, steps) -> np.ndarray:
    """`_lux_rows` on numpy arrays, for more than _LUX_FEW nonzero rows.

    Takes and returns what `_lux_few` does: the scaled nonzero rows, their
    first round of the start grid, the closing width and the step count in;
    the (2, m) final brackets [lo, hi] out, 0 where a row's value is 0.
    """
    ends = np.zeros((2, a.shape[0]))  # rows with k = 0 keep the value 0
    # g counts the coarse points read above 1 before the first at or below
    # it; the points below the g-th one are not read
    g = np.logical_and.accumulate(~(lev[:, _LUX_COARSE] <= 0.0), axis=1).sum(axis=1)
    lev[_LUX_GROUP < g[:, None]] = np.nan
    if not one:
        r, j = np.nonzero((_LUX_GROUP == g[:, None]) & ~_LUX_COARSE)
        lev[r, j] = price(a[r] / _LUX_T[j, None])
    k = np.argmax(lev <= 0.0, axis=1)  # the first point read with S <= 1
    at = np.arange(0, lev.size, _LUX_X.size) + k  # its flat index in lev
    yh = lev.ravel()[at]
    if not np.all(yh <= 0.0):
        raise GaugeDefinitionError("Luxemburg level sum exceeds 1 at the bracket top")
    live = np.arange(a.shape[0])  # the rows of a still stepping
    if not k.all():
        live, a, k, at, yh = (v[k > 0] for v in (live, a, k, at, yh))
    tl, th, yl = _LUX_T[k - 1], _LUX_T[k], lev.ravel()[at - 1]
    yp = np.full(k.size, np.inf)  # the y of the last step (inf before the first)
    for left in range(steps, -1, -1):
        d = np.log2(th / tl)
        done = d <= (close if left else math.inf)
        if np.count_nonzero(done):
            ends[:, live[done]] = tl[done], th[done]
            live, a, tl, th, yl, yh, yp, d = (v[~done] for v in (live, a, tl, th, yl, yh, yp, d))
        if not live.size:
            break
        # the step, as log2(t / lo); t is taken relative to lo, so it
        # keeps full precision however far the root lies from the row max
        s = np.fmin(np.fmax(d - d * (yh / (yh - yl)), 0.5 * close), d - 0.5 * close)
        lim = close * 2.0 ** (left - 1)
        if d.max() > lim:  # a row wider than lim bisects
            s = np.where(d > lim, 0.5 * d, s)
        t = tl * np.exp2(s)
        y = level(a / t[:, None])
        # q = y / yp, yp the last step's y, is >= 0 when this step replaces
        # the end the last one did; the end kept then is scaled by m = 1 - q,
        # or by 1/2 where that is not positive or q is NaN; q < 0 (the
        # other end) gives m = 1, as does q = 0 (the first step: yp = inf)
        q = y / yp
        m = np.where(q < 1.0, np.fmin(1.0 - q, 1.0), 0.5)
        down = y <= 0.0
        tl, yl, yp = np.where(down, tl, t), np.where(down, m * yl, y), y
        th, yh = np.where(down, t, th), np.where(down, y, m * yh)
    return ends


def _fdiv(a: float, b: float) -> float:
    """a / b as numpy divides: +-inf, or NaN for a = 0 or NaN, where b = 0."""
    if b:
        return a / b
    if a != a or a == 0.0:
        return math.nan
    return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _lux_few(level, price, a, lev, one, close, steps) -> np.ndarray:
    """`_lux_rows` on per-row Python floats, for at most _LUX_FEW nonzero rows.

    Takes the scaled nonzero rows a, their first round of the start grid as
    `_lux_rows` priced it (lev: every point, or the coarse ones when the
    whole grid does not fit one call, `one`), the closing width and the step
    count, and returns the (2, m) final brackets [lo, hi] (0 where a row's
    value is 0).  It reads the grid on floats by `_lux_vec`'s rule: g
    is the index of the first coarse point at or below 1 (3 if none is),
    group g's other points are priced as `_lux_vec` prices them, the
    same points stacked in the same order, and k is the first point at or
    below 1 from group g's first point on.  Each step then makes three
    numpy calls on arrays: log2 of the widths, exp2 of the steps and
    `level`; every other operation is the vector loop's IEEE arithmetic, in
    its order, on one row's floats, with numpy's rules where Python's
    differ: a division by 0 gives +-inf or NaN (`_fdiv`), fmax(NaN, h) is h,
    a NaN q gives m = 1/2, and a NaN y is above 1.  So every bracket has the
    vector loop's bits.
    """
    lev = lev.tolist()
    g = [next((c for c, j in enumerate(_LUX_FIRST[1:]) if row[j] <= 0.0), 3) for row in lev]
    if not one:  # group g's other points, row after row
        r = [i for i, gi in enumerate(g) for _ in _LUX_REST[gi]]
        j = [j for gi in g for j in _LUX_REST[gi]]
        for i, jj, v in zip(r, j, price(a[r] / _LUX_T[j, None]).tolist()):
            lev[i][jj] = v
    k = [next((j for j in range(_LUX_FIRST[gi], _LUX_X.size) if row[j] <= 0.0), None)
         for gi, row in zip(g, lev)]
    if None in k:
        raise GaugeDefinitionError("Luxemburg level sum exceeds 1 at the bracket top")
    ends = [[0.0] * len(k), [0.0] * len(k)]  # rows with k = 0 keep the value 0
    live = [i for i, ki in enumerate(k) if ki]  # the rows of a still stepping
    if not live:
        return np.array(ends)
    if len(live) < len(k):
        a = a[live]
    tl, th = [_LUX_TF[k[i] - 1] for i in live], [_LUX_TF[k[i]] for i in live]
    yl, yh = [lev[i][k[i] - 1] for i in live], [lev[i][k[i]] for i in live]
    yp = [math.inf] * len(tl)
    half = 0.5 * close
    for left in range(steps, -1, -1):
        d = np.log2([h / lo for lo, h in zip(tl, th)]).tolist()
        stop = close if left else math.inf
        if min(d) <= stop:
            keep = [i for i, v in enumerate(d) if v > stop]
            for i, v in enumerate(d):
                if v <= stop:
                    ends[0][live[i]], ends[1][live[i]] = tl[i], th[i]
            if not keep:
                break
            a = a[keep]
            live, tl, th, yl, yh, yp, d = ([v[i] for i in keep]
                                           for v in (live, tl, th, yl, yh, yp, d))
        # the vector loop's s = fmin(fmax(d - d yh / (yh - yl), close/2), d - close/2),
        # or d/2 where d > lim
        lim = close * 2.0 ** (left - 1)
        s = []
        for dv, lo, hi in zip(d, yl, yh):
            if dv > lim:
                s.append(0.5 * dv)
                continue
            den = hi - lo
            r = dv - dv * (hi / den if den else _fdiv(hi, den))
            r = r if r >= half else half
            x = dv - half
            s.append(x if x < r else r)
        t = [lo * e for lo, e in zip(tl, np.exp2(s).tolist())]
        y = level(a / np.array(t)[:, None]).tolist()
        for i, v in enumerate(y):  # the vector loop's q, m and bracket update
            p = yp[i]
            q = v / p if p else _fdiv(v, p)
            m = (1.0 - q if q > 0.0 else 1.0) if q < 1.0 else 0.5
            yp[i] = v
            if v <= 0.0:
                th[i], yh[i], yl[i] = t[i], v, m * yl[i]
            else:
                tl[i], yl[i], yh[i] = t[i], v, m * yh[i]
    return np.array(ends)


# ---------------------------------------------------------------------------
# gauge descriptors
# ---------------------------------------------------------------------------

class Gauge:
    """Base class: positively homogeneous monotone gauges.

    A gauge declares once what its values are: `tag` (EXACT, or UPPER for
    search upper bounds) and `tol` (the relative width an iterated value is
    solved to; None for closed forms).  Every value comes from `_value_rows`,
    and `result` tags it with that declaration.  It states its modulus of
    concavity once, as `kappa`, an upper bound (inf when none is known).
    """

    tag: Tag = Tag.EXACT
    tol: Optional[float] = None
    # an upper bound for the modulus of concavity; a subclass that knows one overrides it
    kappa: float = math.inf

    def _value_rows(self, space: MeasureSpace, rows: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def value(self, space: MeasureSpace, f: ScalarField) -> float:
        _check_same_length(space, f)
        return _in_range(float(self._value_rows(space, np.abs(f.values)[None, :])[0]))

    def result(self, space: MeasureSpace, f: ScalarField) -> BoundResult:
        return BoundResult(self.value(space, f), self.tag, tol=self.tol)

    def label(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class Lp(Gauge):
    p: float

    def __post_init__(self) -> None:
        if self.p <= 0:
            raise InputError("Lp gauge needs p > 0")

    @property
    def kappa(self) -> float:
        return _lp_kappa(self.p)

    def _value_rows(self, space: MeasureSpace, rows: np.ndarray) -> np.ndarray:
        return _lp_rows(rows, self.p, space.weights)

    def label(self) -> str:
        return f"L{self.p:g}"


@dataclass(frozen=True)
class WeakL1(Gauge):
    kappa = 2.0

    def _value_rows(self, space: MeasureSpace, rows: np.ndarray) -> np.ndarray:
        return _weak_l1_rows(rows, space.weights)

    def label(self) -> str:
        return "weakL1"


@dataclass(frozen=True)
class Orlicz(Gauge):
    phi: OrliczFunction
    tol: float = DEFAULT_LUX_TOL

    def __post_init__(self) -> None:
        if not 0.0 < self.tol < math.inf:
            raise InputError("Luxemburg tolerance must be positive and finite")

    @property
    def kappa(self) -> float:
        return math.inf if self.phi.p is None else _lp_kappa(self.phi.p)

    # the Luxemburg gauge of the power kernel t^p is the L_p closed form
    def _value_rows(self, space: MeasureSpace, rows: np.ndarray) -> np.ndarray:
        if self.phi.p is not None:
            return _lp_rows(rows, self.phi.p, space.weights)
        return _lux_rows(self.phi, rows, space.weights, self.tol)

    def label(self) -> str:
        return f"Orlicz[{self.phi.name}]"


@dataclass(frozen=True)
class Convexified(Gauge):
    base: Gauge
    r: float

    def __post_init__(self) -> None:
        if self.r <= 0:
            raise InputError("convexification exponent r must be > 0")

    @property
    def tag(self) -> Tag:
        return self.base.tag

    @property
    def tol(self) -> Optional[float]:
        return self.base.tol

    # on an L_p base (Lp, or Orlicz with the power kernel t^p) this is L_{p r}
    @property
    def kappa(self) -> float:
        b = self.base
        p = b.p if isinstance(b, Lp) else b.phi.p if isinstance(b, Orlicz) else None
        return math.inf if p is None else _lp_kappa(p * self.r)

    # g(|f|^r)^(1/r) = m * g((|f|/m)^r)^(1/r) for any m > 0 by homogeneity;
    # m = max |f| (1 for a zero field) keeps (|f|/m)^r within [0, 1]
    def _value_rows(self, space: MeasureSpace, rows: np.ndarray) -> np.ndarray:
        m = _row_max(rows)
        m[m == 0] = 1.0
        scaled = (rows / m[:, None]) ** self.r
        return m * self.base._value_rows(space, scaled) ** (1.0 / self.r)

    def label(self) -> str:
        return f"({self.base.label()})^({self.r:g})"


@dataclass(frozen=True)
class Intersect(Gauge):
    """g1 ^ g2, an upper bound found by intersect_eval's splitting search.

    All rows of a batch run that search in lockstep, and every row shares
    the budget random starts drawn from seed 0.  The search skips the
    descent steps whose outcome it knows (see `_intersect_rows`), with the
    same bits, so g1 and g2 must price a row alike in any batch.
    """

    g1: Gauge
    g2: Gauge
    budget: int = 32
    tag = Tag.UPPER

    def _value_rows(self, space: MeasureSpace, rows: np.ndarray) -> np.ndarray:
        return _intersect_rows(self.g1, self.g2, space, rows, self.budget, 0)[0]

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
    _check_same_length(space, F)
    return g.result(space, F.norm_field())


def gauge_values_rows(g: Gauge, space: MeasureSpace, rows: np.ndarray) -> np.ndarray:
    """Gauge of each row of a (m, n) array, vectorized where possible."""
    rows = np.abs(np.asarray(rows, dtype=float))
    if rows.ndim != 2 or rows.shape[1] != len(space):
        raise InputError("rows must be (m, n_atoms)")
    return g._value_rows(space, rows)


def luxemburg(
    phi: OrliczFunction,
    f: ScalarField,
    tol: float = DEFAULT_LUX_TOL,
    weights: Optional[np.ndarray] = None,
) -> float:
    """Luxemburg gauge inf{t > 0 : sum_n w_n phi(|a_n|/t) <= 1}.

    The value of `Orlicz(phi, tol)` on `MeasureSpace(weights)`, counting
    measure when no weights are given: the same bits, the same L_p closed
    form for power kernels, and the same InputError for a tol that is not
    positive and finite, for weights that make no measure space of the
    field's length, and for a value beyond the float range.
    """
    return Orlicz(phi, tol).value(MeasureSpace(np.ones(len(f)) if weights is None else weights), f)


def convexify(g: Gauge, r: float) -> Convexified:
    """The r-convexification f -> g(|f|^r)^(1/r)."""
    return Convexified(g, float(r))


# ---------------------------------------------------------------------------
# intersection gauge: per-atom splitting search (upper bound)
# ---------------------------------------------------------------------------

# the most candidate rows one g1/g2 row call of the intersection search
# prices; rows are priced independently, so the chunking changes no value
_INTERSECT_CHUNK = 4096
# the first of the three grids of an entry in each descent step
_INTERSECT_COARSE = np.linspace(0.0, 1.0, 33)


def _split_costs(g1, g2, space, f, alphas, k=None, pts=None) -> np.ndarray:
    """g1(u) + g2(f - u) with u = alpha * f for the candidates of each pair.

    Pair p splits the row f[p].  Its candidates are the fraction vectors
    alphas[p] (a (c, n) stack), or, when k is given, alphas[p] (one vector)
    with entry k set to each of pts[p].  Returns a (pairs, c) array, priced
    over chunks of at most _INTERSECT_CHUNK candidate rows.
    """
    c = alphas.shape[1] if k is None else pts.shape[1]
    per = max(1, _INTERSECT_CHUNK // c)
    out = np.empty((len(f), c))
    for s in range(0, len(f), per):
        cand = alphas[s:s + per]
        if k is not None:
            cand = np.repeat(cand[:, None, :], c, axis=1)
            cand[:, :, k] = pts[s:s + per]
        u = (cand * f[s:s + per, None, :]).reshape(-1, f.shape[1])
        v = np.repeat(f[s:s + per], c, axis=0) - u
        out[s:s + per] = (g1._value_rows(space, u) + g2._value_rows(space, v)).reshape(-1, c)
    return out


def _intersect_rows(
    g1: Gauge, g2: Gauge, space: MeasureSpace, f: np.ndarray, budget: int, seed: int
) -> tuple:
    """Splitting search on every row of a nonnegative (m, n) array f.

    Returns (values, alphas): row i splits as u = alphas[i] * f[i] and
    v = f[i] - u with g1(u) + g2(v) = values[i].  Every row starts from the
    seeds 1, 0, 1/2 (the best of them is restart 0) and from the same budget
    random fraction vectors drawn from seed.  Each (row, restart) pair runs
    coordinate descent: per sweep and atom, a coarse grid and two zoomed
    grids of that entry, keeping a move only for a relative gain above 1e-15;
    a pair skips the atoms where its row is 0 and stops after a sweep with
    no gain.  All pairs move in lockstep, so each grid of each atom is priced
    for every pair that visits it in one g1 and one g2 row call.  The first
    restart with the smallest value gives a row its split.

    Two rules skip descent work whose outcome is known, so every value and
    split keeps its bits.  A pair's visit of an atom depends only on its row
    and split (its value is that split's cost), so: a pair skips an atom when
    it has not moved since the coarse grid of its last visit of that atom,
    as the visit would price the same grids and not move (so a pair also
    stops after a sweep with no gain); and after a visit with a move, of the
    live pairs of a row whose splits have equal bits only the first goes
    on, as the others would take its steps from there and end no lower.
    Both rules need g1 and g2 to price a row alike in any batch, as every
    builtin gauge does.
    """
    m, n = f.shape
    budget = max(0, int(budget))
    starts = np.vstack([np.ones(n), np.zeros(n), np.full(n, 0.5),
                        np.random.default_rng(seed).random((budget, n))])
    first = _split_costs(g1, g2, space, f, np.broadcast_to(starts, (m,) + starts.shape))
    j = np.argmin(first[:, :3], axis=1)
    R = budget + 1
    cur = np.hstack([first[np.arange(m), j][:, None], first[:, 3:]]).ravel()
    alpha = np.hstack([starts[j][:, None, :],
                       np.broadcast_to(starts[3:], (m, budget, n))]).reshape(m * R, n)
    fp = np.repeat(f, R, axis=0)
    live = fp.any(axis=1) & (budget > 0)
    # each pair's move count, and that count right after the coarse grid of its
    # last visit of each atom (-1 before the first)
    moves = np.zeros(m * R, dtype=np.int64)
    seen = np.full((m * R, n), -1, dtype=np.int64)
    rid = np.repeat(np.arange(m, dtype=float), R)[:, None]
    for _ in range(4):  # descent sweeps
        for k in range(n):
            idx = np.flatnonzero(live & (fp[:, k] != 0) & (seen[:, k] != moves))
            if idx.size == 0:
                continue
            total = moves.sum()
            pts = np.broadcast_to(_INTERSECT_COARSE, (idx.size, 33))
            for z in range(3):  # a coarse grid, then two grids zoomed on the best point
                cv = _split_costs(g1, g2, space, fp[idx], alpha[idx], k, pts)
                jj = np.argmin(cv, axis=1)
                low = cv[np.arange(idx.size), jj]
                gain = low < cur[idx] * (1.0 - 1e-15)
                alpha[idx[gain], k] = pts[gain, jj[gain]]
                cur[idx[gain]] = low[gain]
                moves[idx[gain]] += 1
                if z == 0:
                    seen[idx, k] = moves[idx]
                span, a = pts[:, 1] - pts[:, 0], alpha[idx, k]
                pts = np.linspace(np.maximum(0.0, a - span), np.minimum(1.0, a + span), 9, axis=1)
            # of the live pairs of a row whose splits have equal bits, the first goes on
            if moves.sum() != total:
                lv = np.flatnonzero(live)
                keys = np.hstack([rid[lv], alpha[lv]]).view(f"V{8 * n + 8}")
                live[np.delete(lv, np.unique(keys, return_index=True)[1])] = False
    # restart 0 never ends above its seed, so a row keeps its seed on a tie
    cur, alpha = cur.reshape(m, R), alpha.reshape(m, R, n)
    r = np.argmin(cur, axis=1)
    return cur[np.arange(m), r], alpha[np.arange(m), r]


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
    the full feasible set.  budget counts random restarts, drawn from seed;
    budget 0 degrades to min(g1(f), g2(f)).  All comparisons are relative,
    so the value along one descent path is positively homogeneous to
    rounding; a whole search is not, since near-equal candidates whose order
    turns on last-bit rounding can send a scaled field down another path.
    The witness is the split (u, v).  This is the one-row case of the
    lockstep search behind Intersect, whose rows all share the starts of
    seed 0.
    """
    _check_same_length(space, f)
    vals = np.abs(f.values)
    values, alphas = _intersect_rows(g1, g2, space, vals[None, :], budget, seed)
    u = alphas[0] * vals
    return BoundResult(float(values[0]), Tag.UPPER, (ScalarField(u), ScalarField(vals - u)))


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
    _check_same_length(space, f)
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
    profiles, spikes) are probed first, then seeded random pairs.  The
    observed ratio is asserted never to exceed the gauge's kappa, an upper
    bound (within 1e-9 relative; never for kappa = inf).
    """
    n = len(space)
    half = max(1, n // 2)
    ind1 = np.zeros(n)
    ind1[:half] = 1.0
    harm = 1.0 / np.arange(1.0, n + 1.0)
    spike = np.zeros(n)
    spike[0] = 1.0
    fixed = [(harm, harm[::-1]), (np.ones(n), np.ones(n)), (spike, np.ones(n))]
    if n > 1:
        fixed.insert(0, (ind1, 1.0 - ind1))

    # Random pair k cycles through the disjoint, shared and spiky styles by
    # k % 3.  All pairs come from one draw, in the order a per-pair loop of
    # rng.random(n) calls would read it: (mask, a, b) for a disjoint pair,
    # (a, b) for the others (a one-atom disjoint pair is a shared one).
    k0 = len(fixed)
    total = max(trials, k0)
    disjoint = slice(-k0 % 3, None, 3) if n > 1 else slice(0)
    spiky = slice((2 - k0) % 3, None, 3)
    size = np.full(total - k0, 2 * n)
    size[disjoint] += n
    start = np.cumsum(size) - size
    u = np.random.default_rng(seed).random(int(size.sum()))
    rows = np.empty((3, total, n))
    rows[:2, :k0] = np.array(fixed).transpose(1, 0, 2)
    ab = rows[:2, k0:]
    ab[:] = u[(start + size - 2 * n)[:, None] + np.arange(2 * n).reshape(2, 1, n)]
    mask = u[start[disjoint, None] + np.arange(n)] < 0.5
    count = mask.sum(axis=1)  # a mask that is all False or all True is mended
    mask[:, 0] |= count == 0
    mask[:, -1] &= count < n
    ab[0, disjoint] *= mask
    ab[1, disjoint] *= ~mask
    ab[:, spiky] **= 4
    rows[2] = rows[0] + rows[1]

    va, vb, vab = g._value_rows(space, rows.reshape(-1, n)).reshape(3, -1)
    denom = va + vb
    ok = denom > 0
    ratios = np.where(ok, vab / np.where(ok, denom, 1.0), 0.0)
    j = int(np.argmax(ratios))
    best = float(ratios[j])
    best_pair = (ScalarField(rows[0, j].copy()), ScalarField(rows[1, j].copy()))

    if best > g.kappa * (1.0 + 1e-9):
        raise AssertionError(
            f"probe found ratio {best!r} above the kappa bound {g.kappa!r} for {g.label()}"
        )
    return BoundResult(best, Tag.LOWER, witness=best_pair)
