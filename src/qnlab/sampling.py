"""Seeded generators for fields, families, partitions and matrices.

All probe modules draw their random instances from here so that extremal
shapes (spikes, disjoint supports, harmonic profiles, identity matrices)
are systematically included alongside generic noise.
"""
from __future__ import annotations

import numpy as np

from .measure import Partition

_MAX_BLOCKS = 4  # the most blocks of a random_partition


def random_values(rng: np.random.Generator, n: int, style: str) -> np.ndarray:
    if style == "uniform":
        return rng.random(n)
    if style == "spiky":
        v = rng.random(n) ** 6
        v[int(rng.integers(n))] = 1.0
        return v
    if style == "sparse":
        v = rng.random(n) * (rng.random(n) < 0.3)
        if not np.any(v > 0):
            v[int(rng.integers(n))] = 1.0
        return v
    if style == "decay":
        base = rng.uniform(0.3, 0.9)
        return base ** np.arange(n) * rng.uniform(0.5, 1.5, n)
    raise ValueError(f"unknown field style {style!r}")


def random_family(
    rng: np.random.Generator, n: int, k: int, style: str
) -> np.ndarray:
    """(k, n) nonnegative family of fields.

    'disjoint' splits a profile across disjoint supports, 'proportional'
    scales one profile, anything else is independent noise.
    """
    if style == "disjoint":
        f = random_values(rng, n, "uniform") + 0.05
        owner = rng.integers(0, k, size=n)
        fam = np.zeros((k, n))
        fam[owner, np.arange(n)] = f
        return fam
    if style == "proportional":
        f = random_values(rng, n, "uniform") + 0.05
        return rng.random(k)[:, None] * f[None, :]
    return rng.random((k, n)) * (rng.random((k, n)) < 0.8)


def random_partition(rng: np.random.Generator, n: int) -> Partition:
    k = int(rng.integers(1, min(_MAX_BLOCKS, n) + 1))
    owner = rng.integers(0, k, size=n)
    # make sure every block label is inhabited
    for b in range(k):
        if not np.any(owner == b):
            owner[int(rng.integers(n))] = b
    blocks = tuple(
        tuple(int(i) for i in np.where(owner == b)[0]) for b in range(k) if np.any(owner == b)
    )
    return Partition(blocks)


def random_matrix(rng: np.random.Generator, m: int, n: int, style: str) -> np.ndarray:
    if style == "identity":
        a = np.zeros((m, n))
        d = min(m, n)
        a[np.arange(d), np.arange(d)] = 1.0
        return a
    if style == "scaled_identity":
        a = np.zeros((m, n))
        d = min(m, n)
        a[np.arange(d), np.arange(d)] = rng.uniform(0.2, 1.0, d)
        return a
    if style == "rank1":
        return np.outer(rng.random(m), rng.random(n))
    if style == "sparse":
        return rng.random((m, n)) * (rng.random((m, n)) < 0.2)
    return rng.random((m, n))
