"""Grid geometry, cube averages, and maximal operators.

Every maximal quantity here runs over the same cube family: all
axis-aligned cubes of the current scale, centered at grid cell centers,
that contain the evaluation point.  A halfwidth h selects the cubes of
radius r = floor(h N) cells; cubes are clipped to the unit domain and
averages use the clipped cube's actual mass.

One doubling table along each grid axis computes every window quantity
of the maximal operators and reports: the window sums behind each cube
mean, and the window maxima and minima.  A sum adds only entries inside
its window, so a cube mean is the true mean to a few ulps times
log2(2r + 1) per axis, over magnitudes within 1e+-300, whatever the field
holds outside the cube.  Window maxima and minima are exact.  Exact
means are: the r = 0 scale, which returns |f| (or the target norms)
bitwise; and the all-equal rule of cube_average and
differentiation_report, under which a cube whose entries are bitwise
equal averages to that common value, so a locally constant field
differentiates with error exactly 0.0.  Other means of a constant field
can be off by rounding (a constant 0.1 field is not reproduced bitwise
at every scale).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DegenerateCubeError, InputError
from .galb_tensor import TensorRep, j_map, profile_value
from .gauges import gauge_values_rows
from .measure import (
    MeasureSpace,
    ScalarField,
    VectorField,
    counting_space,
    weak_l1_value,
)
from .spaces import QuasiNormedSpace

_SNAP = 1e-12


@dataclass(frozen=True)
class GridSpace:
    """Uniform grid on the unit interval (d=1) or unit square (d=2).

    Cell k along an axis spans [k/N, (k+1)/N) with center (k + 1/2)/N;
    two-dimensional cells are enumerated row-major, so the flat atom
    index of cell (i, j) is i * N + j.  Every cell carries mass N**(-d).
    """

    d: int
    cells: int

    def __post_init__(self) -> None:
        if self.d not in (1, 2):
            raise InputError("grid dimension must be 1 or 2")
        if self.cells < 2:
            raise InputError("need at least two cells per axis")

    @property
    def n_atoms(self) -> int:
        return self.cells ** self.d

    @property
    def cell_mass(self) -> float:
        return float(self.cells) ** (-self.d)

    def axis_centers(self) -> np.ndarray:
        return (np.arange(self.cells) + 0.5) / self.cells

    def flat_index(self, i: int, j: int = 0) -> int:
        if self.d == 1:
            return int(i)
        return int(i) * self.cells + int(j)

    def cell_center(self, flat: int) -> Tuple[float, ...]:
        n = self.cells
        if self.d == 1:
            return ((flat + 0.5) / n,)
        return (((flat // n) + 0.5) / n, ((flat % n) + 0.5) / n)

    def to_measure_space(self) -> MeasureSpace:
        return MeasureSpace(np.full(self.n_atoms, self.cell_mass))


@dataclass(frozen=True)
class CubeSpec:
    """Axis-aligned cube given by center coordinates and a halfwidth."""

    center: Tuple[float, ...]
    halfwidth: float

    def __post_init__(self) -> None:
        center = self.center
        if np.isscalar(center):
            center = (float(center),)
        object.__setattr__(self, "center", tuple(float(c) for c in center))
        if not self.halfwidth > 0.0:
            raise InputError("cube halfwidth must be positive")


def _axis_cell_range(center: float, halfwidth: float, n: int) -> Tuple[int, int]:
    """Indices of cells whose centers fall in [center - h, center + h].

    The closed interval is widened by a snap tolerance so that cube faces
    landing exactly on a cell center include that cell despite rounding.
    """
    lo = int(np.ceil((center - halfwidth - _SNAP) * n - 0.5))
    hi = int(np.floor((center + halfwidth + _SNAP) * n - 0.5))
    return max(lo, 0), min(hi, n - 1)


def _cube_flat_indices(grid: GridSpace, cube: CubeSpec) -> np.ndarray:
    if len(cube.center) != grid.d:
        raise InputError("cube center dimension does not match the grid")
    n = grid.cells
    ranges = [
        _axis_cell_range(c, cube.halfwidth, n) for c in cube.center
    ]
    if any(lo > hi for lo, hi in ranges):
        raise DegenerateCubeError("cube contains no cell centers")
    if grid.d == 1:
        lo, hi = ranges[0]
        return np.arange(lo, hi + 1)
    (rlo, rhi), (clo, chi) = ranges
    rows = np.arange(rlo, rhi + 1)
    cols = np.arange(clo, chi + 1)
    return (np.add.outer(rows * n, cols)).ravel()


def _scalar_values(grid: GridSpace, f: Union[ScalarField, np.ndarray]) -> np.ndarray:
    # a raw array is checked as a signed field: 1-d and finite
    values = (f if isinstance(f, ScalarField) else ScalarField(f, signed=True)).values
    if values.shape != (grid.n_atoms,):
        raise InputError("field length does not match the grid")
    return values


def _vector_rows(
    grid: GridSpace,
    vf: Union[VectorField, np.ndarray],
    target: Optional[QuasiNormedSpace] = None,
) -> Tuple[np.ndarray, QuasiNormedSpace]:
    if not isinstance(vf, VectorField):
        if target is None:
            raise InputError("raw vector arrays need an explicit target space")
        vf = VectorField(vf, target)  # 2-d, target-dim and finite
    if vf.vectors.shape[0] != grid.n_atoms:
        raise InputError("vector field length does not match the grid")
    return vf.vectors, vf.target


def cube_average(
    grid: GridSpace,
    f: Union[ScalarField, VectorField],
    cube: CubeSpec,
) -> Union[float, np.ndarray]:
    """Average of f over the cube clipped to the domain.

    When every selected value is bitwise identical the common value is
    returned as-is, so averaging a locally constant field is exact.
    """
    idx = _cube_flat_indices(grid, cube)
    # a scalar field is averaged as a one-column vector field
    vector = isinstance(f, VectorField)
    block = (f.vectors if vector else _scalar_values(grid, f)[:, None])[idx]
    avg = block[0].copy() if np.all(block == block[0]) else block.mean(axis=0)
    return avg if vector else float(avg[0])


def default_scales(grid: GridSpace) -> Tuple[float, ...]:
    """Dyadic halfwidths 1/2, 1/4, ... down to the sub-cell scale 1/(2N)."""
    top = int(np.ceil(np.log2(2 * grid.cells)))
    return tuple(2.0 ** (-j) for j in range(1, top + 1))


def _radii(grid: GridSpace, scales: Optional[Iterable[float]]) -> Tuple[int, ...]:
    """Cube radius in cells, floor(h N) clipped to N, of each halfwidth in order."""
    if scales is None:
        scales = default_scales(grid)
    scales = [float(h) for h in scales]
    if not scales:
        raise InputError("need at least one scale")
    if any(not h > 0.0 for h in scales):
        raise InputError("scales must be positive")
    if not all(map(math.isfinite, scales)):
        raise InputError("scales must be finite")
    n = grid.cells
    # a halfwidth above 1 covers the grid; clipping it first keeps h * n finite
    return tuple(int(np.floor(min(h, 1.0) * n + 1e-9)) for h in scales)


def _window_means(grid: GridSpace, a: np.ndarray, r: int) -> np.ndarray:
    """Means of the columns of an (n_atoms, m) array over the cube of radius
    r cells around each cell, clipped to the grid.

    Along each grid axis the field is zero-padded by r into T_0, a doubling
    table T_{j+1}[i] = T_j[i] + T_j[i + 2^j] is built, and a window of
    2r + 1 padded entries is the sum of the T_j of the set bits of 2r + 1.
    Every window sum adds only entries inside its window, so it never
    loses its mass to a large entry elsewhere, as a difference of global
    prefix sums does.
    """
    n, width = grid.cells, 2 * r + 1
    s = a.reshape((n,) * grid.d + (a.shape[1],))
    for axis in range(grid.d):
        s = s.swapaxes(0, axis)
        t = np.zeros((n + 2 * r,) + s.shape[1:])
        t[r:r + n] = s
        total, off, step = t[:n], 1, 1  # width is odd: T_0's bit is set
        while 2 * step <= width:
            t = t[:-step] + t[step:]
            step *= 2
            if width & step:
                total = total + t[off:off + n]
                off += step
        s = total.swapaxes(0, axis)
    edge = np.minimum(np.arange(n, dtype=float), r)
    count = edge + edge[::-1] + 1.0
    if grid.d == 2:
        count = np.multiply.outer(count, count)
    return (s / count[..., None]).reshape(a.shape)


def _cube_means(
    grid: GridSpace, a: np.ndarray, radii: Iterable[int]
) -> Iterator[Tuple[int, np.ndarray]]:
    """(r, cube means of the columns of a) for each distinct radius, ascending."""
    for r in sorted(set(radii)):
        yield r, (a if r == 0 else _window_means(grid, a, r))


def _window_extreme(
    grid: GridSpace, a: np.ndarray, r: int, op: Callable[..., np.ndarray]
) -> np.ndarray:
    """op (np.maximum or np.minimum) of the columns of an (n_atoms, m) array
    over the cube of radius r cells around each cell, clipped to the grid.

    Along each grid axis the field is padded by r copies of its edge
    entries into T_0, a doubling table T_{j+1}[i] = op(T_j[i], T_j[i + 2^j])
    is built up to the largest block 2^k <= 2r + 1, and a window of 2r + 1
    padded entries is op of its first and last blocks of 2^k.  The edge
    copies and the overlap of the two blocks change nothing, since op is
    idempotent, so the result is exact (at r = 0, a itself).
    """
    n = grid.cells
    r = min(r, n - 1)  # a wider window clips to the whole axis
    width = 2 * r + 1
    s = a.reshape((n,) * grid.d + (a.shape[1],))
    for axis in range(grid.d):
        s = s.swapaxes(0, axis)
        t = np.empty((n + 2 * r,) + s.shape[1:])
        t[:r], t[r:r + n], t[r + n:] = s[0], s, s[-1]
        step = 1
        while 2 * step <= width:
            t = op(t[:-step], t[step:])
            step *= 2
        s = op(t[:n], t[width - step:width - step + n]).swapaxes(0, axis)
    return s.reshape(a.shape)


def _maximal_columns(
    grid: GridSpace,
    a: np.ndarray,
    scales: Optional[Iterable[float]],
    norms: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> np.ndarray:
    """Per cell, the largest cube mean of each column of a (or, with norms,
    of norms of the mean rows) over the cubes of the scales containing it."""
    best = np.float64(-np.inf)
    for r, means in _cube_means(grid, a, _radii(grid, scales)):
        vals = means if norms is None else norms(means)[:, None]
        best = np.maximum(best, _window_extreme(grid, vals, r, np.maximum))
    return best


def hl_maximal(
    grid: GridSpace,
    f: Union[ScalarField, np.ndarray],
    scales: Optional[Iterable[float]] = None,
) -> ScalarField:
    """Hardy-Littlewood-style maximal field of |f| over the cube family.

    At each cell center y the value is the largest average of |f| over a
    cube of one of the given halfwidths that contains y.  A halfwidth
    below the cell spacing selects only the cell itself, contributing
    |f(y)| bitwise exactly.
    """
    vals = np.abs(_scalar_values(grid, f))[:, None]
    return ScalarField(_maximal_columns(grid, vals, scales)[:, 0])


def vector_maximal(
    grid: GridSpace,
    vf: Union[VectorField, np.ndarray],
    scales: Optional[Iterable[float]] = None,
    target: Optional[QuasiNormedSpace] = None,
) -> ScalarField:
    """max over cubes containing y of || average of the vector field ||.

    The cube family is identical to hl_maximal's; only the value averaged
    inside each cube changes (vectors, measured in the target norm, with
    no absolute value: cancellation between cells is kept).
    """
    vectors, target = _vector_rows(grid, vf, target)
    return ScalarField(_maximal_columns(grid, vectors, scales, target.norms)[:, 0])


@dataclass(frozen=True)
class DifferentiationReport:
    per_scale: Tuple[Tuple[float, float], ...]  # (halfwidth, max error)
    max_error: float


def differentiation_report(
    grid: GridSpace,
    f: Union[ScalarField, VectorField],
    samples: Sequence[int],
    scales: Iterable[float],
) -> DifferentiationReport:
    """Worst |cube average - field value| over sample cells, per scale.

    The cube of a sample is the one of radius floor(h N) cells centered on
    it.  A cube whose entries are all bitwise equal averages to their
    common value (cube_average's rule), so a field constant on a
    neighborhood of a sample point differentiates with error exactly 0.0
    once the scale fits inside.
    """
    samples = [int(s) for s in samples]
    if not samples:
        raise InputError("need at least one sample cell")
    for s in samples:
        if not (0 <= s < grid.n_atoms):
            raise InputError("sample cell out of range")
    vector = isinstance(f, VectorField)
    a = _vector_rows(grid, f)[0] if vector else _scalar_values(grid, f)[:, None]
    scales = [float(h) for h in scales]
    radii = _radii(grid, scales)
    errors = {}
    for r, means in _cube_means(grid, a, radii):
        hi = _window_extreme(grid, a, r, np.maximum)
        lo = _window_extreme(grid, a, r, np.minimum)
        same = np.all(hi[samples] == lo[samples], axis=1)
        diff = means[samples] - a[samples]
        err = f.target.norms(diff) if vector else np.abs(diff[:, 0])
        errors[r] = float(np.max(np.where(same, 0.0, err)))
    rows = tuple((h, errors[r]) for h, r in zip(scales, radii))
    return DifferentiationReport(per_scale=rows, max_error=max(e for _, e in rows))


@dataclass(frozen=True)
class Weak11Report:
    weak_norm: float   # weak-L1 quasi-norm of the maximal field
    input_size: float  # L1 mass of |f|, or the representation certificate
    constant: float    # their ratio


def weak11_constant(
    grid: GridSpace,
    data: Union[ScalarField, np.ndarray, TensorRep],
    scales: Optional[Iterable[float]] = None,
) -> Weak11Report:
    """Observed weak-(1,1) ratio of the maximal operator on one input.

    Scalar input: weak-L1 norm of the maximal field over the L1 mass of
    the input.  Tensor-representation input: weak-L1 norm of the vector
    maximal field of its atom-wise contraction over the representation's
    cost certificate.
    """
    space = grid.to_measure_space()
    if isinstance(data, TensorRep):
        mfield = vector_maximal(grid, j_map(data, space), scales)
        size = profile_value(data, space)
    else:
        values = _scalar_values(grid, data)
        mfield = hl_maximal(grid, values, scales)
        size = float(np.sum(space.weights * np.abs(values)))
    if size <= 0.0:
        raise InputError("weak-(1,1) ratio needs a nonzero input")
    weak = weak_l1_value(space, mfield)
    return Weak11Report(weak_norm=weak, input_size=size, constant=weak / size)


@dataclass(frozen=True)
class DominationReport:
    max_gap: float        # max over cells of M_vec - dominator (<= 0 up to rounding)
    argmax_cell: int
    maximal_at_argmax: float
    dominator_at_argmax: float


def series_domination_report(
    rep: TensorRep,
    grid: GridSpace,
    scales: Optional[Iterable[float]] = None,
) -> DominationReport:
    """Check M_vec(J rep) <= lam(( ||x_j|| * M f_j )_j) cell by cell.

    The right-hand side applies the representation's cost gauge to the
    per-term scalar maximal fields, weighted by the term vectors' norms;
    the left-hand side is the vector maximal field of the contraction.
    """
    space = grid.to_measure_space()
    mvec = vector_maximal(grid, j_map(rep, space), scales).values
    rows = _maximal_columns(grid, np.abs(rep.fs.T), scales) * rep.target.norms(rep.xs)
    dom = gauge_values_rows(rep.lam, counting_space(rep.n_terms), rows)
    gap = mvec - dom
    k = int(np.argmax(gap))
    return DominationReport(
        max_gap=float(gap[k]),
        argmax_cell=k,
        maximal_at_argmax=float(mvec[k]),
        dominator_at_argmax=float(dom[k]),
    )
