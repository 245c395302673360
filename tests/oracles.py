"""Independent brute-force oracles used to freeze expected values.

Each oracle recomputes a searched quantity by exhaustive enumeration over
a fixed grid, sharing no code path with the estimator it validates beyond
raw gauge evaluation.
"""
from __future__ import annotations

import math
from itertools import combinations_with_replacement, product
from typing import Iterable, Sequence

import numpy as np
from scipy.optimize import brentq

from qnlab import (
    CubeSpec,
    Gauge,
    GridSpace,
    MeasureSpace,
    OrliczFunction,
    QuasiNormedSpace,
    ScalarField,
    VectorField,
    cube_average,
    gauge_values_rows,
)


def lp_oracle(values: Sequence[float], weights: Sequence[float], p: float) -> float:
    """(sum w |f|^p)^(1/p) with |f| divided by its maximum m before the powers
    are taken, the terms summed by math.fsum and the result scaled back by m,
    so no power leaves the float range whatever the magnitude of f."""
    a = [abs(float(x)) for x in values]
    m = max(a, default=0.0)
    if m == 0.0:
        return 0.0
    return m * math.fsum(float(w) * (x / m) ** p for w, x in zip(weights, a)) ** (1.0 / p)


def orlicz_kernel_check(evaluator, claimed_concave: bool = True):
    """The kernel check as a full-matrix reference: the message of the first
    check that phi fails on the 1000-point Orlicz grid g, or None.  Claimed
    concavity is tested on all 1000 x 1000 pairs (i, j) at once, mirror
    images and i = j included."""
    z = float(evaluator(np.array(0.0)))
    if not (abs(z) <= 1e-15):
        return f"phi(0) must be 0, got {z!r}"
    g = np.logspace(-9.0, 3.0, 1000)
    vals = evaluator(g)
    if np.any(~np.isfinite(vals)) or np.any(vals < -1e-15):
        return "phi must be finite and nonnegative on (0, 1e3]"
    if np.any(np.diff(vals) < -1e-12 * np.maximum(1.0, vals[:-1])):
        return "phi must be nondecreasing"
    if claimed_concave:
        mids = 0.5 * (g[:, None] + g[None, :])
        lhs = evaluator(mids)
        rhs = 0.5 * (vals[:, None] + vals[None, :])
        slack = 1e-10 * np.maximum(1.0, np.abs(rhs))
        if np.any(lhs < rhs - slack):
            return "claimed concave but midpoint check fails"
    return None


def lux_oracle(
    phi: OrliczFunction, values: Sequence[float], weights: Sequence[float]
) -> float:
    """inf{t > 0 : sum w phi(|f|/t) <= 1} by brentq on the level sum in units of
    the row maximum m (t = m s), each level sum taken by math.fsum; 0 when the
    level sum never exceeds 1, i.e. still not at s = 1e-18."""
    a = [abs(float(x)) for x in values]
    m = max(a, default=0.0)
    if m == 0.0:
        return 0.0

    def excess(s: float) -> float:
        return lux_level_sum(phi, [x / m for x in a], weights, s) - 1.0

    lo = 1e-18
    if excess(lo) <= 0.0:
        return 0.0
    hi = 1.0
    while excess(hi) > 0.0:
        hi *= 2.0
    return m * brentq(excess, lo, hi, xtol=1e-300, rtol=1e-15, maxiter=500)


def lux_level_sum(
    phi: OrliczFunction, values: Sequence[float], weights: Sequence[float], t: float
) -> float:
    """The Luxemburg level sum sum w phi(|f|/t), its terms summed by math.fsum."""
    phis = phi(np.array([abs(float(x)) / t for x in values]))
    return math.fsum(float(w) * float(v) for w, v in zip(weights, phis))


def weak_l1_oracle(values: Sequence[float], weights: Sequence[float]) -> float:
    """sup_s s * mu{|f| > s} as max over the values v of v * mu{|f| >= v}, each
    level-set mass summed directly by math.fsum (no sorting, O(n^2))."""
    a = [abs(float(x)) for x in values]
    return max(
        (v * math.fsum(float(w) for w, x in zip(weights, a) if x >= v) for v in a),
        default=0.0,
    )


def intersect_oracle(
    g1: Gauge, g2: Gauge, space: MeasureSpace, f: ScalarField, step: float = 0.01
) -> float:
    """min over a per-atom fraction grid of g1(a*f) + g2((1-a)*f).

    Complete for monotone gauges: any split f = u + v with u, v >= 0 has
    u = a*f atomwise for some a in [0,1]^n.
    """
    n = len(space)
    if n > 3:
        raise ValueError("oracle is exhaustive; keep it to three atoms")
    m = int(round(1.0 / step)) + 1
    axis = np.linspace(0.0, 1.0, m)
    alphas = np.stack(np.meshgrid(*([axis] * n), indexing="ij"), axis=-1).reshape(-1, n)
    u = alphas * f.values
    v = (1.0 - alphas) * f.values
    vals = gauge_values_rows(g1, space, u) + gauge_values_rows(g2, space, v)
    return float(vals.min())


def envelope_oracle_two_parts(
    g: Gauge, p: float, space: MeasureSpace, f: ScalarField, step: float = 0.01
) -> float:
    """Two-part decompositions of a two-atom field on a fraction grid."""
    if len(space) != 2:
        raise ValueError("two-part oracle expects two atoms")
    m = int(round(1.0 / step)) + 1
    axis = np.linspace(0.0, 1.0, m)
    alphas = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    part1 = alphas * f.values
    part2 = f.values - part1
    vals = (
        gauge_values_rows(g, space, part1) ** p
        + gauge_values_rows(g, space, part2) ** p
    ) ** (1.0 / p)
    return float(vals.min())


def _simplex_grid(parts: int, step: float) -> np.ndarray:
    """All nonnegative fraction vectors of length `parts` summing to one."""
    ticks = int(round(1.0 / step))
    rows = []
    for cuts in combinations_with_replacement(range(ticks + 1), parts - 1):
        edges = (0,) + cuts + (ticks,)
        rows.append([(edges[i + 1] - edges[i]) / ticks for i in range(parts)])
    return np.array(rows)


def envelope_oracle_simplex(
    g: Gauge,
    p: float,
    space: MeasureSpace,
    f: ScalarField,
    parts: int = 3,
    step: float = 0.1,
) -> float:
    """k-part decompositions: per-atom simplex fractions, exhaustively."""
    n = len(space)
    comp = _simplex_grid(parts, step)
    m = comp.shape[0]
    if m ** n > 2_000_000:
        raise ValueError("oracle grid too large")
    idx = np.stack(
        np.meshgrid(*([np.arange(m)] * n), indexing="ij"), axis=-1
    ).reshape(-1, n)
    total = np.zeros(idx.shape[0])
    for j in range(parts):
        part = comp[idx, j] * f.values
        total += gauge_values_rows(g, space, part) ** p
    return float((total ** (1.0 / p)).min())


def dual_oracle(
    g: Gauge, space: MeasureSpace, f: ScalarField, steps: int = 201
) -> float:
    """max of the pairing over a grid inside the unit ball (two atoms)."""
    if len(space) != 2:
        raise ValueError("dual oracle expects two atoms")
    caps = []
    for k in range(2):
        e = np.zeros(2)
        e[k] = 1.0
        caps.append(1.0 / gauge_values_rows(g, space, e[None, :])[0])
    u0 = np.linspace(0.0, caps[0], steps)
    u1 = np.linspace(0.0, caps[1], steps)
    grid = np.stack(np.meshgrid(u0, u1, indexing="ij"), axis=-1).reshape(-1, 2)
    inside = gauge_values_rows(g, space, grid) <= 1.0 + 1e-12
    pairings = grid @ (space.weights * f.values)
    return float(pairings[inside].max())


def maximal_oracle(
    grid: GridSpace, values: np.ndarray, scales: Iterable[float]
) -> np.ndarray:
    """Direct enumeration: per cell, try every cube of every scale that
    contains the cell center and take the largest cube average of |f|."""
    absf = ScalarField(np.abs(np.asarray(values, dtype=float)))
    n = grid.cells
    best = np.full(grid.n_atoms, -np.inf)
    for h in scales:
        r = min(int(np.floor(float(h) * n + 1e-9)), n)
        for flat in range(grid.n_atoms):
            yc = grid.cell_center(flat)
            if grid.d == 1:
                (yi,) = (int(yc[0] * n),)
                centers = [
                    (c,) for c in range(max(0, yi - r), min(n - 1, yi + r) + 1)
                ]
            else:
                yi, yj = int(yc[0] * n), int(yc[1] * n)
                centers = [
                    (a, b)
                    for a in range(max(0, yi - r), min(n - 1, yi + r) + 1)
                    for b in range(max(0, yj - r), min(n - 1, yj + r) + 1)
                ]
            for c in centers:
                center = tuple((ci + 0.5) / n for ci in c)
                avg = cube_average(grid, absf, CubeSpec(center, float(h)))
                if avg > best[flat]:
                    best[flat] = avg
    return best


def vector_maximal_oracle(
    grid: GridSpace,
    vectors: np.ndarray,
    target: QuasiNormedSpace,
    scales: Iterable[float],
) -> np.ndarray:
    """Direct enumeration for the vector maximal field."""
    vf = VectorField(np.asarray(vectors, dtype=float), target)
    n = grid.cells
    best = np.full(grid.n_atoms, -np.inf)
    for h in scales:
        r = min(int(np.floor(float(h) * n + 1e-9)), n)
        for flat in range(grid.n_atoms):
            yc = grid.cell_center(flat)
            if grid.d == 1:
                idxs = [(c,) for c in range(max(0, int(yc[0] * n) - r),
                                            min(n - 1, int(yc[0] * n) + r) + 1)]
            else:
                yi, yj = int(yc[0] * n), int(yc[1] * n)
                idxs = [
                    (a, b)
                    for a in range(max(0, yi - r), min(n - 1, yi + r) + 1)
                    for b in range(max(0, yj - r), min(n - 1, yj + r) + 1)
                ]
            for c in idxs:
                center = tuple((ci + 0.5) / n for ci in c)
                avg = cube_average(grid, vf, CubeSpec(center, float(h)))
                val = float(target.norm(np.asarray(avg)))
                if val > best[flat]:
                    best[flat] = val
    return best


def _window_cells(grid: GridSpace, flat: int, r: int) -> list:
    """Flat indices of the cells within r cells of cell flat along every axis."""
    n = grid.cells
    coords = (flat,) if grid.d == 1 else divmod(flat, n)
    axes = [range(max(c - r, 0), min(c + r, n - 1) + 1) for c in coords]
    return [sum(i * n ** k for k, i in enumerate(reversed(idx))) for idx in product(*axes)]


def window_mean_oracle(grid: GridSpace, values: np.ndarray, r: int) -> np.ndarray:
    """Per cell, the mean of each column of values (n_atoms or (n_atoms, m))
    over the cells within r cells of it along every axis, clipped to the
    grid: math.fsum of the window's entries divided by their count."""
    a = np.asarray(values, dtype=float).reshape(grid.n_atoms, -1)
    out = np.empty_like(a)
    for flat in range(grid.n_atoms):
        cells = _window_cells(grid, flat, r)
        for col in range(a.shape[1]):
            out[flat, col] = math.fsum(a[cells, col]) / len(cells)
    return out


def window_extreme_oracle(grid: GridSpace, values: np.ndarray, r: int, pick) -> np.ndarray:
    """Per cell, pick (the builtin max or min) of each column of values
    (n_atoms or (n_atoms, m)) over the cells within r cells of it along
    every axis, clipped to the grid."""
    a = np.asarray(values, dtype=float).reshape(grid.n_atoms, -1)
    out = np.empty_like(a)
    for flat in range(grid.n_atoms):
        cells = _window_cells(grid, flat, r)
        for col in range(a.shape[1]):
            out[flat, col] = pick(a[c, col] for c in cells)
    return out


def window_maximal_oracle(grid: GridSpace, values: np.ndarray, scales: Iterable[float],
                          norm=None) -> np.ndarray:
    """Per cell, the largest norm(window_mean_oracle row) over the windows of
    radius floor(h N) cells, h in scales, that contain the cell; without
    norm, the largest mean of the single column."""
    best = np.full(grid.n_atoms, -np.inf)
    for h in scales:
        r = min(int(math.floor(float(h) * grid.cells + 1e-9)), grid.cells)
        means = window_mean_oracle(grid, values, r)
        vals = [m[0] if norm is None else norm(m) for m in means]
        for flat in range(grid.n_atoms):
            best[flat] = max(best[flat], *(vals[c] for c in _window_cells(grid, flat, r)))
    return best
