"""Finite atom-weighted measure spaces and fields over them.

Everything downstream works on a finite list of atoms with strictly
positive masses.  Fields assign a scalar (or a vector in a quasi-normed
target) to each atom.  The distribution function uses the strict
inequality mu{f > s}; on a finite space the weak-type supremum
sup_s s*mu_f(s) is the same number under ">" and ">=", so nothing
downstream depends on the choice.

As the lowest module it also holds the row kernels `_lp_rows` (L_p/l_q) and
`_weak_l1_rows` shared by gauges, targets and probes: entries within 1e+-300
are evaluated to about 1e-12 relative, and a value beyond the float range is inf.
The row reductions under them, `_wsum` and `_row_max`, also serve the
Luxemburg solve.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Sequence, Tuple, Union

import numpy as np

from .errors import InputError

if TYPE_CHECKING:
    from .spaces import QuasiNormedSpace

# a power sum below tiny/eps may have lost over eps (relative) to underflow
_SUM_MIN = np.finfo(float).tiny / np.finfo(float).eps


def _wsum(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_j w_j a_j for each row a, by one loop per row whatever the batch.

    So a row's sum does not depend on the rows priced with it; a BLAS
    matrix-vector product sums a lone row and a batched row apart.  For
    nonnegative terms the loop's rounding error is at most (n - 1) u S,
    u = 2^-53 and S the exact sum.
    """
    return np.einsum("ij,j->i", np.ascontiguousarray(rows), weights)


def _narrow(m: int, n: int) -> bool:
    """True for a tall, narrow (m, n) batch, whose reductions go column by column:
    n <= 16 and m >= 16 n, and at n = 16 a batch of at most 1.5 MiB (see `_row_max`)."""
    return 0 < n <= 16 and m >= 16 * n and (n < 16 or 8 * m * n <= 1.5 * 2**20)


def _row_max(rows: np.ndarray) -> np.ndarray:
    """The maximum of each row of an (m, n) array, n >= 1.

    numpy reduces a short last axis one row at a time, so a tall, narrow
    batch (`_narrow`: n <= 16 and m >= 16 n) folds its columns with
    np.maximum instead; other batches reduce by row with initial=-inf, which
    on many rows takes about half the time of a plain max(axis=1).  Each
    column pass of the fold re-reads every cache line of the batch, which is
    cheap while the batch stays in cache.  Past it the fold costs about
    2.4 ns per entry, below numpy's scalar row loop (about 3 ns for n < 16)
    but above its vector loop for rows of 16 to 24 (1.1 to 1.9 ns), so a
    16-wide batch folds only up to 1.5 MiB.  Measured on 2 cores (fold time
    over row time): 1.3x at 64x8, 0.9x at 128x8, 0.04x at 16000x4, 0.03x at
    40000x3, 0.18x at 16000x8, 0.14x at 100000x4, 0.75x at 100000x8, 0.79x
    at 100000x15; at n = 16, 0.43x at 6012x16, 0.6x at 12288x16 (1.5 MiB),
    0.9x at 14000x16, 1.2x at 16000x16 and 2.4x at 40000x16.  Max is exact,
    so both paths give the same bits.
    """
    if not _narrow(*rows.shape):
        return rows.max(axis=1, initial=-np.inf)
    out = rows[:, 0].copy()
    for j in range(1, rows.shape[1]):
        np.maximum(out, rows[:, j], out=out)
    return out


def _lp_rows(rows: np.ndarray, p: float, weights: np.ndarray) -> np.ndarray:
    """(sum_j w_j a_j^p)^(1/p) for each row a of a nonnegative (m, n) array.

    For p <= 1 the power sum leaves the float range only with the value.  For
    p > 1 the rows whose sum is non-finite or below _SUM_MIN are redone scaled
    by their maximum m (Blue 1978): m * (sum_j w_j (a_j/m)^p)^(1/p).
    """
    if p <= 1.0:
        with np.errstate(over="ignore"):  # a value beyond the float range is inf
            return _wsum(rows, weights) if p == 1.0 else _wsum(rows**p, weights) ** (1.0 / p)
    with np.errstate(over="ignore"):  # overflowed rows are redone below
        sums = _wsum(rows**p, weights)
    out = sums ** (1.0 / p)
    if sums.size and not (_SUM_MIN <= sums.min() and sums.max() < np.inf):
        redo = ~((sums >= _SUM_MIN) & (sums < np.inf))
        a = rows[redo]
        m = _row_max(a)
        out[redo] = m * _wsum((a / np.where(m > 0, m, 1.0)[:, None]) ** p, weights) ** (1.0 / p)
    return out


def _weak_l1_rows(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """max_k v_k * W_k for each row of a nonnegative (m, n) array (0 when n = 0):
    v is the row sorted decreasingly, W_k the mass of its k largest entries.
    Equal weights need only a sort; unequal ones an argsort to carry them.
    A tall, narrow batch (see `_row_max`) sums W column by column, the same
    additions in the same order as a row-wise cumsum, and takes the maximum
    by the column fold of `_row_max`, so every path gives the same bits."""
    m, n = rows.shape
    if n == 0:
        return np.zeros(m)
    if (weights == weights[:1]).all():
        return _row_max(np.sort(rows, axis=1)[:, ::-1] * np.cumsum(weights))
    order = np.argsort(-rows, axis=1, kind="stable")
    W = weights[order]
    if _narrow(m, n):
        for k in range(1, n):
            W[:, k] += W[:, k - 1]
    else:
        W = np.cumsum(W, axis=1)
    return _row_max(np.take_along_axis(rows, order, axis=1) * W)


def _lp_kappa(p: float) -> float:
    """Modulus of concavity of l_p and L_p: 2^(1/p - 1) for p < 1, else 1."""
    return 1.0 if p >= 1.0 else 2.0 ** (1.0 / p - 1.0)


@dataclass(frozen=True)
class MeasureSpace:
    """Finite measure space: atom i has mass weights[i] > 0."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise InputError("weights must be a nonempty 1-d sequence")
        if not np.all(w > 0):
            raise InputError("atom weights must be strictly positive")
        if not np.all(np.isfinite(w)):
            raise InputError("atom weights must be finite")
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return int(self.weights.size)

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))


def counting_space(n: int) -> MeasureSpace:
    """n atoms of unit mass."""
    return MeasureSpace(np.ones(int(n)))


def uniform_probability_space(n: int) -> MeasureSpace:
    """n atoms of mass 1/n."""
    return MeasureSpace(np.full(int(n), 1.0 / int(n)))


@dataclass(frozen=True)
class ScalarField:
    """Scalar values on the atoms.  Nonnegative unless signed=True."""

    values: np.ndarray
    signed: bool = False

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise InputError("scalar field values must be 1-d")
        if not np.all(np.isfinite(v)):
            raise InputError("scalar field values must be finite")
        if not self.signed and np.any(v < 0):
            raise InputError("negative values in an unsigned scalar field")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class VectorField:
    """One target-space vector per atom; vectors has shape (n_atoms, dim)."""

    vectors: np.ndarray
    target: QuasiNormedSpace

    def __post_init__(self) -> None:
        v = np.asarray(self.vectors, dtype=float)
        if v.ndim != 2:
            raise InputError("vector field needs a 2-d (n_atoms, dim) array")
        if v.shape[1] != self.target.dim:
            raise InputError(
                f"vector dimension {v.shape[1]} does not match target dim {self.target.dim}"
            )
        if not np.all(np.isfinite(v)):
            raise InputError("vector field entries must be finite")
        object.__setattr__(self, "vectors", v)

    def __len__(self) -> int:
        return int(self.vectors.shape[0])

    def norm_field(self) -> ScalarField:
        """Pointwise target norms, as an unsigned scalar field."""
        return ScalarField(self.target.norms(self.vectors))


Field = Union[ScalarField, VectorField]


@dataclass(frozen=True)
class Partition:
    """Disjoint atom-index blocks covering the whole space."""

    blocks: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        blocks = tuple(tuple(int(i) for i in b) for b in self.blocks)
        if not blocks or any(len(b) == 0 for b in blocks):
            raise InputError("partition blocks must be nonempty")
        object.__setattr__(self, "blocks", blocks)

    def validate_for(self, space: MeasureSpace) -> None:
        seen = np.zeros(len(space), dtype=bool)
        for b in self.blocks:
            for i in b:
                if i < 0 or i >= len(space):
                    raise InputError(f"atom index {i} out of range")
                if seen[i]:
                    raise InputError(f"atom index {i} appears in two blocks")
                seen[i] = True
        if not np.all(seen):
            raise InputError("partition blocks do not cover the space")


def trivial_partition(space: MeasureSpace) -> Partition:
    return Partition((tuple(range(len(space))),))


def _check_same_length(space: MeasureSpace, f: Field) -> None:
    if len(f) != len(space):
        raise InputError(f"field has {len(f)} atoms, space has {len(space)}")


# ---------------------------------------------------------------------------
# distribution function and rearrangement
# ---------------------------------------------------------------------------

def distribution_mass(space: MeasureSpace, f: ScalarField, s: float) -> float:
    """mu{f > s} for s >= 0 (strict inequality)."""
    if s < 0:
        raise InputError("distribution function argument s must be >= 0")
    if f.signed:
        raise InputError("distribution function needs an unsigned field")
    _check_same_length(space, f)
    return float(np.sum(space.weights[f.values > s]))


def decreasing_rearrangement(
    space: MeasureSpace, f: ScalarField
) -> List[Tuple[float, float]]:
    """(value, cumulative mass) pairs, values strictly decreasing, ties merged.

    The cumulative masses are strictly increasing and end at the total mass;
    zero values are kept so the profile always covers the whole space.
    """
    if f.signed:
        raise InputError("rearrangement needs an unsigned field")
    _check_same_length(space, f)
    order = np.argsort(-f.values, kind="stable")
    vals = f.values[order]
    cum = np.cumsum(space.weights[order])
    last = np.append(vals[1:] != vals[:-1], True)  # the last atom of each run of ties
    return list(zip(vals[last].tolist(), cum[last].tolist()))


def weak_l1_value(space: MeasureSpace, f: ScalarField) -> float:
    """sup_s s*mu{f > s} via the rearrangement closed form max_k v_k * m_k."""
    if f.signed:
        raise InputError("weak-L1 value needs an unsigned field")
    _check_same_length(space, f)
    return float(_weak_l1_rows(f.values[None, :], space.weights)[0])


# ---------------------------------------------------------------------------
# conditional expectation
# ---------------------------------------------------------------------------

def conditional_expectation(space: MeasureSpace, partition: Partition, f: Field) -> Field:
    """Block-averaging projection: each block gets its mass-weighted mean.

    Constant blocks are mapped to the same constant bit-for-bit, so applying
    the projection twice equals applying it once exactly.
    """
    partition.validate_for(space)
    _check_same_length(space, f)
    if not isinstance(f, (ScalarField, VectorField)):
        raise InputError(f"unsupported field type {type(f).__name__}")
    # a scalar field is averaged as a one-column vector field
    cols = f.values[:, None] if isinstance(f, ScalarField) else f.vectors
    out = np.empty_like(cols)
    for b in partition.blocks:
        idx = np.asarray(b, dtype=int)
        w, block = space.weights[idx], cols[idx]
        out[idx] = block[0] if np.all(block == block[0]) else w @ block / np.sum(w)
    if isinstance(f, VectorField):
        return VectorField(out, f.target)
    out = out[:, 0]
    return ScalarField(out, signed=True if f.signed else bool(np.any(out < 0)))


def integral(space: MeasureSpace, f: Field):
    """Plain integral: weighted sum of values (scalar) or vectors (vector)."""
    _check_same_length(space, f)
    if isinstance(f, ScalarField):
        return float(np.dot(space.weights, f.values))
    return space.weights @ f.vectors


# ---------------------------------------------------------------------------
# products and restrictions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProductSpace:
    """Product of two atom spaces, flattened row-major.

    Atom (i, j) of the product sits at flat index i * len(second) + j and
    carries mass weights_first[i] * weights_second[j].
    """

    first: MeasureSpace
    second: MeasureSpace
    space: MeasureSpace = field(init=False)

    def __post_init__(self) -> None:
        w = np.outer(self.first.weights, self.second.weights).ravel()
        object.__setattr__(self, "space", MeasureSpace(w))

    def flat_index(self, i: int, j: int) -> int:
        n2 = len(self.second)
        if not (0 <= i < len(self.first) and 0 <= j < n2):
            raise InputError("product index out of range")
        return i * n2 + j

    def pair(self, k: int) -> Tuple[int, int]:
        n2 = len(self.second)
        if not (0 <= k < len(self.space)):
            raise InputError("flat index out of range")
        return divmod(k, n2)

    def matrix_to_field(self, m: np.ndarray, signed: bool = False) -> ScalarField:
        m = np.asarray(m, dtype=float)
        if m.shape != (len(self.first), len(self.second)):
            raise InputError(
                f"matrix shape {m.shape} does not match product "
                f"({len(self.first)}, {len(self.second)})"
            )
        return ScalarField(m.ravel(), signed=signed)


def product_space(a: MeasureSpace, b: MeasureSpace) -> ProductSpace:
    return ProductSpace(a, b)


def restrict(
    space: MeasureSpace, atoms: Sequence[int], f: Field | None = None
) -> Tuple[MeasureSpace, Field | None]:
    """Restrict the space (and optionally a field) to a nonempty atom subset.

    Atom order is preserved; masses are kept as they are.
    """
    idx = np.asarray(sorted(set(int(i) for i in atoms)), dtype=int)
    if idx.size == 0:
        raise InputError("cannot restrict to an empty atom set")
    if idx[0] < 0 or idx[-1] >= len(space):
        raise InputError("restriction atom index out of range")
    sub = MeasureSpace(space.weights[idx])
    if f is None:
        return sub, None
    _check_same_length(space, f)
    if isinstance(f, ScalarField):
        return sub, ScalarField(f.values[idx], signed=f.signed)
    return sub, VectorField(f.vectors[idx], f.target)
