"""Reference computations built apart from qnlab.

Nothing here calls qnlab, except that the Luxemburg references evaluate
the Orlicz kernel phi they are checking: every gauge is re-derived from
its definition by another algorithm (row-max-scaled math.fsum for L_p,
brentq for Luxemburg, level-set enumeration for weak-L1, cube enumeration
for the maximal operators).  All functions take plain numpy arrays.
"""
from __future__ import annotations

import functools
import hashlib
import math
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.optimize import brentq

Phi = Callable[[np.ndarray], np.ndarray]

_MEMO: dict = {}


def memoized(fn):
    """Cache a reference value under a digest of its arguments.

    Every round rebuilds identical inputs from the seed, so from the
    second round on the references are looked up, not recomputed; the
    comparison with the program's output still runs every round.
    Arrays are keyed by their bytes, anything else by its repr.
    """
    @functools.wraps(fn)
    def wrapper(*args):
        h = hashlib.sha256(fn.__name__.encode())
        for a in args:
            if isinstance(a, np.ndarray):
                h.update(str(a.shape).encode())
                h.update(np.ascontiguousarray(a, dtype=float).tobytes())
            else:
                h.update(repr(a).encode())
        key = h.digest()
        if key not in _MEMO:
            _MEMO[key] = fn(*args)
        return _MEMO[key]

    return wrapper


def rel_err(got: float, want: float) -> float:
    """|got - want| / |want| (absolute when want is 0); inf for non-finite got."""
    got, want = float(got), float(want)
    if not math.isfinite(got):
        return math.inf
    if want == 0.0:
        return abs(got)
    return abs(got - want) / abs(want)


# ---------------------------------------------------------------------------
# scalar gauges, one row at a time
# ---------------------------------------------------------------------------

@memoized
def lp_rows(rows: np.ndarray, w: np.ndarray, p: float) -> np.ndarray:
    """(sum w |f|^p)^(1/p) per row, scaled by the row maximum and summed by math.fsum."""
    a = np.abs(np.atleast_2d(np.asarray(rows, dtype=float)))
    m = a.max(axis=1)
    safe = np.where(m > 0, m, 1.0)
    terms = (np.asarray(w, dtype=float) * (a / safe[:, None]) ** p).tolist()
    sums = np.array([math.fsum(t) for t in terms])
    return np.where(m > 0, m * sums ** (1.0 / p), 0.0)


def lp(row: np.ndarray, w: np.ndarray, p: float) -> float:
    return float(lp_rows(row, w, p)[0])


@memoized
def weak_rows(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sup_s s * mu{|f| > s} per row, as max_k v_k * mu{|f| >= v_k}.

    Brute force over level sets: for every value v_k of the row the mass
    of the atoms at or above it is summed directly (O(n^2) per row).
    """
    rows = np.abs(np.atleast_2d(np.asarray(rows, dtype=float)))
    w = np.asarray(w, dtype=float)
    out = np.empty(rows.shape[0])
    for lo in range(0, rows.shape[0], 128):
        blk = rows[lo : lo + 128]
        above = (blk[:, None, :] >= blk[:, :, None]).astype(float)
        out[lo : lo + 128] = np.max(blk * (above @ w), axis=1)
    return out


@memoized
def lux(phi: Phi, row: np.ndarray, w: np.ndarray) -> float:
    """Luxemburg gauge inf{t > 0 : sum w phi(|f|/t) <= 1} by brentq.

    Solved in units of the row maximum m (t = m s), so any magnitude of f
    gives O(1) arguments; returns 0 when the level sum never exceeds 1.
    """
    a = np.abs(np.asarray(row, dtype=float))
    m = float(a.max(initial=0.0))
    if m == 0.0:
        return 0.0
    a = a / m
    w = np.asarray(w, dtype=float)

    def h(s: float) -> float:
        return math.fsum((w * phi(a / s)).tolist()) - 1.0

    lo = hi = 1.0
    if h(1.0) > 0.0:
        while h(hi) > 0.0:
            hi *= 2.0
        lo = hi / 2.0
    else:
        while h(lo) <= 0.0:
            lo /= 2.0
            if lo < 1e-280:
                return 0.0
        hi = lo * 2.0
    s = brentq(h, lo, hi, xtol=1e-300, rtol=1e-15, maxiter=500)
    return m * s


@memoized
def lux_bracket_ok(phi: Phi, rows: np.ndarray, w: np.ndarray,
                   values: np.ndarray, delta: float) -> np.ndarray:
    """Per row: does the root of sum w phi(|f|/t) = 1 lie within values*(1 +- delta)?

    The level sum is nonincreasing in t, so it must exceed 1 just below
    the claimed value and not exceed it just above.  Vectorized; rows
    with a claimed value of 0 fail (the workloads give no such rows).
    """
    rows = np.abs(np.asarray(rows, dtype=float))
    values = np.asarray(values, dtype=float)
    ok = np.isfinite(values) & (values > 0)
    v = np.where(ok, values, 1.0)
    below = (w * phi(rows / (v * (1.0 - delta))[:, None])).sum(axis=1)
    above = (w * phi(rows / (v * (1.0 + delta))[:, None])).sum(axis=1)
    return ok & (below > 1.0) & (above <= 1.0)


# ---------------------------------------------------------------------------
# gauge descriptors used by the workloads, evaluated row by row
# ---------------------------------------------------------------------------

class RefGauge:
    """A gauge spelled out for the references: kind plus parameters."""

    def __init__(self, kind: str, p: float = 1.0, phi: Optional[Phi] = None,
                 base: Optional["RefGauge"] = None, r: float = 1.0) -> None:
        self.kind, self.p, self.phi, self.base, self.r = kind, p, phi, base, r

    def __call__(self, row: np.ndarray, w: np.ndarray) -> float:
        if self.kind == "lp":
            return lp(row, w, self.p)
        if self.kind == "weak":
            return float(weak_rows(row, w)[0])
        if self.kind == "lux":
            return lux(self.phi, row, w)
        if self.kind == "convexified":
            a = np.abs(np.asarray(row, dtype=float))
            m = float(a.max(initial=0.0))
            if m == 0.0:
                return 0.0
            return m * self.base((a / m) ** self.r, w) ** (1.0 / self.r)
        raise ValueError(f"unknown reference gauge {self.kind!r}")


def vec_norm(v: np.ndarray, kind: str, q: float = 1.0) -> float:
    """Target-space norm of one vector: 'lq' with exponent q, or 'weak'."""
    v = np.abs(np.asarray(v, dtype=float))
    ones = np.ones(v.size)
    if kind == "weak":
        return float(weak_rows(v, ones)[0])
    return lp(v, ones, q)


def vec_norms(vs: np.ndarray, kind: str, q: float = 1.0) -> np.ndarray:
    vs = np.atleast_2d(np.asarray(vs, dtype=float))
    if kind == "weak":
        return weak_rows(vs, np.ones(vs.shape[1]))
    return lp_rows(vs, np.ones(vs.shape[1]), q)


def block_means(values: np.ndarray, w: np.ndarray, blocks: Sequence[Sequence[int]]) -> np.ndarray:
    """Conditional expectation onto a partition: weighted block means."""
    out = np.empty(len(values))
    for b in blocks:
        idx = list(b)
        mass = math.fsum(float(w[i]) for i in idx)
        out[idx] = math.fsum(float(w[i] * values[i]) for i in idx) / mass
    return out


# ---------------------------------------------------------------------------
# maximal operators by cube enumeration
# ---------------------------------------------------------------------------

def dyadic_scales(cells: int) -> list:
    """Halfwidths 1/2, 1/4, ... down to the first one below one cell."""
    out, h = [], 0.5
    while True:
        out.append(h)
        if h * cells <= 0.5:
            return out
        h /= 2.0


def _centers(cells: int, d: int) -> np.ndarray:
    c = (np.arange(cells) + 0.5) / cells
    if d == 1:
        return c[:, None]
    return np.stack(np.meshgrid(c, c, indexing="ij"), axis=-1).reshape(-1, 2)


@memoized
def maximal_brute(values: np.ndarray, cells: int, d: int, scales: Sequence[float],
                  norm_kind: Optional[str] = None, norm_q: float = 1.0) -> np.ndarray:
    """max over cubes containing each cell center of the cube average.

    Cubes are centered at cell centers, contain the cells whose centers
    lie within the halfwidth (Chebyshev distance), and are enumerated
    explicitly.  Scalar values use |f|; vector values (rows) are averaged
    and measured with vec_norms(norm_kind, norm_q).
    """
    pts = _centers(cells, d)
    dist = np.max(np.abs(pts[:, None, :] - pts[None, :, :]), axis=2)
    vals = np.asarray(values, dtype=float)
    best = np.full(pts.shape[0], -np.inf)
    for h in scales:
        inside = (dist <= h + 1e-12).astype(float)
        count = inside.sum(axis=1)
        if norm_kind is None:
            cube = (inside @ np.abs(vals)) / count
        else:
            cube = vec_norms((inside @ vals) / count[:, None], norm_kind, norm_q)
        best = np.maximum(best, np.max(np.where(inside > 0, cube[:, None], -np.inf), axis=0))
    return best
