"""Finite atom-weighted measure spaces and fields over them.

Everything downstream works on a finite list of atoms with strictly
positive masses.  Fields assign a scalar (or a vector in a quasi-normed
target) to each atom.  The distribution function uses the strict
inequality mu{f > s}; on a finite space the weak-type supremum
sup_s s*mu_f(s) is the same number under ">" and ">=", so nothing
downstream depends on the choice.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple, Union

import numpy as np

from .errors import InputError
from .spaces import QuasiNormedSpace, _weak_l1_rows


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
    if isinstance(f, ScalarField):
        out = np.empty_like(f.values)
        for b in partition.blocks:
            idx = np.asarray(b, dtype=int)
            vals = f.values[idx]
            if np.all(vals == vals[0]):
                avg = vals[0]
            else:
                w = space.weights[idx]
                avg = float(np.dot(w, vals) / np.sum(w))
            out[idx] = avg
        return ScalarField(out, signed=True if f.signed else bool(np.any(out < 0)))
    if isinstance(f, VectorField):
        out = np.empty_like(f.vectors)
        for b in partition.blocks:
            idx = np.asarray(b, dtype=int)
            vecs = f.vectors[idx]
            if np.all(vecs == vecs[0]):
                avg = vecs[0]
            else:
                w = space.weights[idx]
                avg = w @ vecs / np.sum(w)
            out[idx] = avg
        return VectorField(out, f.target)
    raise InputError(f"unsupported field type {type(f).__name__}")


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
