"""Convexity calculus: envelopes, lattice constants, mixed-norm inequalities.

The p-norm envelope of a gauge rho is

    lam(f) = inf{ (sum_j rho(f_j)^p)^(1/p) : f = sum_j f_j, f_j >= 0 },

the largest p-homogeneous gauge below rho; together with the exponent
p = 1/(1 + log2 kappa) it turns any quasi-triangle constant into an
equivalent p-norm.  The probes in this module report certified one-sided
bounds with explicit witnesses; none of them prove global constants.

Each probe draws its whole candidate set first and prices it in one row
call (a fixed few for the lattice and interchange probes), then takes the
first best candidate as its witness; sums (sum_j rho(f_j)^p)^(1/p) go
through the range-safe `measure._lp_rows`.  A batched gauge value equals
the row's one-row value bitwise: every L_p row is summed by the same loop,
and every Luxemburg row is solved by steps that read only that row.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bounds import BoundResult, Tag
from .errors import InputError
from .gauges import Gauge, Lp, gauge_values_rows
from .measure import (
    MeasureSpace,
    Partition,
    ScalarField,
    _check_same_length,
    _lp_rows,
    conditional_expectation,
    counting_space,
    trivial_partition,
)
from .sampling import random_family, random_matrix, random_partition, random_values


def aoki_exponent(kappa: float) -> float:
    """p with 2^(1/p - 1) = kappa, i.e. p = 1/(1 + log2 kappa)."""
    if kappa < 1.0:
        raise InputError("modulus of concavity is never below 1")
    return 1.0 / (1.0 + math.log2(kappa))


# ---------------------------------------------------------------------------
# p-norm envelope
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Decomposition:
    """A finite decomposition f = sum_j parts[j], all parts nonnegative."""

    parts: Tuple[ScalarField, ...]

    def matrix(self) -> np.ndarray:
        return np.stack([p.values for p in self.parts])

    def check_sums_to(self, f: ScalarField, rtol: float = 1e-12) -> bool:
        tot = self.matrix().sum(axis=0)
        scale = np.maximum(np.abs(f.values), 1.0)
        return bool(np.all(np.abs(tot - f.values) <= rtol * scale))


def _ratios(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den where den > 0, else 0."""
    return np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)


def _pad(families: Sequence[np.ndarray], k: int, n: int) -> np.ndarray:
    """Stack (k_i, n) families, k_i <= k, into a (T, k, n) array padded with zero rows."""
    out = np.zeros((len(families), k, n))
    for t, fam in enumerate(families):
        out[t, : fam.shape[0]] = fam
    return out


def _envelope_values(g: Gauge, p: float, space: MeasureSpace, stack: np.ndarray) -> np.ndarray:
    """(sum_j g(stack[t, j])^p)^(1/p) for each t of a (T, k, n) stack, in one gauge
    call; a zero row has gauge 0 and adds nothing."""
    t, k, n = stack.shape
    vals = gauge_values_rows(g, space, stack.reshape(t * k, n)).reshape(t, k)
    return _lp_rows(vals, p, np.ones(k))


def p_envelope(
    g: Gauge,
    p: float,
    space: MeasureSpace,
    f: ScalarField,
    budget: int = 64,
    seed: int = 0,
    short_circuit: bool = True,
) -> BoundResult:
    """Upper bound for the p-norm envelope of g at f, with a witness.

    When g is Lp with the same exponent the envelope equals the gauge (the
    p-triangle inequality is already tight), so the trivial decomposition
    is returned exactly.  The generic search combines the trivial and the
    per-atom decompositions with random support splits, proportional splits
    and pairwise mass-transfer refinements; budget counts random candidates.
    """
    if p <= 0:
        raise InputError("envelope exponent p must be > 0")
    _check_same_length(space, f)
    vals = np.abs(f.values)
    n = vals.size

    if short_circuit and isinstance(g, Lp) and g.p == p:
        dec = Decomposition((ScalarField(vals),))
        return BoundResult(g.value(space, ScalarField(vals)), Tag.EXACT, witness=dec)

    candidates: List[np.ndarray] = [vals[None, :]]
    support = np.where(vals > 0)[0]
    if support.size > 1:
        singletons = np.zeros((support.size, n))
        singletons[np.arange(support.size), support] = vals[support]
        candidates.append(singletons)

    rng = np.random.default_rng(seed)
    for _ in range(int(budget)):
        style = rng.integers(3)
        k = int(rng.integers(2, max(3, min(n, 4)) + 1))
        if style == 0 and support.size > 1:  # random support split
            owner = rng.integers(0, k, size=n)
            parts = np.zeros((k, n))
            parts[owner, np.arange(n)] = vals
        elif style == 1:  # proportional random split
            r = rng.random((k, n)) + 1e-3
            parts = r / r.sum(axis=0, keepdims=True) * vals
        else:  # biased split: heavy part plus remainder
            theta = rng.random(n)
            parts = np.stack([theta * vals, (1 - theta) * vals])
        candidates.append(parts)

    k = max(c.shape[0] for c in candidates)
    values = _envelope_values(g, p, space, _pad(candidates, k, n))
    j = int(np.argmin(values))
    best, parts = float(values[j]), candidates[j]

    # pairwise mass-transfer refinement on the incumbent: the four moves of
    # a step are priced together and the first that improves is kept
    thetas = np.array([0.25, 0.5, 0.75, 1.0])
    for _ in range(int(budget)):
        if parts.shape[0] < 2:
            break
        i, j = rng.choice(parts.shape[0], size=2, replace=False)
        w = int(rng.integers(n))
        if parts[i, w] <= 0:
            continue
        moves = np.repeat(parts[None], thetas.size, axis=0)
        moved = thetas * parts[i, w]
        moves[:, i, w] -= moved
        moves[:, j, w] += moved
        prices = _envelope_values(g, p, space, moves)
        better = np.flatnonzero(prices < best * (1.0 - 1e-15))
        if better.size:
            best, parts = float(prices[better[0]]), moves[better[0]]
    keep = parts[np.any(parts > 0, axis=1)]
    if keep.size == 0:
        keep = vals[None, :]
    dec = Decomposition(tuple(ScalarField(row) for row in keep))
    return BoundResult(best, Tag.UPPER, witness=dec)


# ---------------------------------------------------------------------------
# lattice convexity / concavity probes
# ---------------------------------------------------------------------------

_MAX_PARTS = 5  # the most fields in one family of lattice_constant_probe


def lattice_constant_probe(
    g: Gauge,
    mode: str,
    p: float,
    space: MeasureSpace,
    trials: int = 1000,
    seed: int = 0,
) -> BoundResult:
    """Largest observed lattice ratio over seeded families of 2 to _MAX_PARTS
    fields: a lower bound.

    mode "convex":  rho((sum f_j^p)^(1/p)) / (sum rho(f_j)^p)^(1/p)
    mode "concave": the reciprocal quotient.
    """
    if mode not in ("convex", "concave"):
        raise InputError("mode must be 'convex' or 'concave'")
    if p <= 0:
        raise InputError("exponent p must be > 0")
    n = len(space)
    rng = np.random.default_rng(seed)
    styles = ("disjoint", "proportional", "random")
    fams = [random_family(rng, n, int(rng.integers(2, _MAX_PARTS + 1)), styles[t % len(styles)])
            for t in range(int(trials))]
    fams = [fam for fam in fams if np.any(fam > 0)]
    stack = _pad(fams, _MAX_PARTS, n)
    ones = np.ones(_MAX_PARTS)
    combined = _lp_rows(stack.transpose(0, 2, 1).reshape(-1, _MAX_PARTS), p, ones)
    # G and the envelope stack in one row call
    vals = gauge_values_rows(g, space, np.vstack([combined.reshape(-1, n), stack.reshape(-1, n)]))
    G = vals[:len(fams)]
    H = _lp_rows(vals[len(fams):].reshape(-1, _MAX_PARTS), p, ones)
    ratios = _ratios(G, H) if mode == "convex" else _ratios(H, G)
    best = float(ratios.max(initial=0.0))
    witness = None
    if best > 0:
        witness = tuple(ScalarField(row) for row in fams[int(np.argmax(ratios))])
    return BoundResult(best, Tag.LOWER, witness=witness)


# random trials of l_convexity_probe priced per row call
_TRIAL_CHUNK = 256


@dataclass(frozen=True)
class LConvexityWitness:
    """A family certifying failure of the epsilon-lattice-convexity test."""

    f: ScalarField
    family: Tuple[ScalarField, ...]
    epsilon: float
    max_part_gauge: float
    gauge_f: float


def l_convexity_probe(
    g: Gauge,
    epsilon: float,
    space: MeasureSpace,
    trials: int = 10000,
    seed: int = 0,
) -> Optional[LConvexityWitness]:
    """Search for f_1..f_k <= f with mean >= (1-eps) f but all gauges < eps g(f).

    Returns a witness when the search finds one, None otherwise (absence of
    a witness is evidence, not proof).  Deterministic bite families (f minus
    one atom per member) are tried before random ones.  The random trials
    are priced _TRIAL_CHUNK at a time in one row call, and the first hit in
    draw order is the witness.
    """
    if not (0.0 < epsilon < 1.0):
        raise InputError("epsilon must be in (0, 1)")
    n = len(space)

    def first_hit(fs: list, fams: list) -> Optional[LConvexityWitness]:
        # the feasible (f, family) pairs, priced in one row call; first hit wins
        ok = [i for i, (f, fam) in enumerate(zip(fs, fams))
              if not np.any(fam > f[None, :] * (1 + 1e-12) + 1e-15)
              and not np.any(fam.mean(axis=0) < (1.0 - epsilon) * f - 1e-12)]
        if not ok:
            return None
        vals = gauge_values_rows(g, space, np.vstack([fs[i] for i in ok] + [fams[i] for i in ok]))
        ends = len(ok) + np.cumsum([len(fams[i]) for i in ok])
        for gf, end, i in zip(vals, ends, ok):
            mx = float(np.max(vals[end - len(fams[i]):end]))
            if gf > 0 and mx < epsilon * gf:
                return LConvexityWitness(ScalarField(fs[i]), tuple(map(ScalarField, fams[i])),
                                         epsilon, max_part_gauge=mx, gauge_f=float(gf))
        return None

    # bite families: remove one atom entirely from each member
    bites = [1.0 - np.eye(k, n) for k in range(2, min(n, 8) + 1)]
    hit = first_hit([np.ones(n)] * len(bites), bites)
    if hit is not None:
        return hit

    # random trials, drawn in chunks; each trial draws what the one-trial loop drew
    rng = np.random.default_rng(seed)
    for start in range(0, int(trials), _TRIAL_CHUNK):
        fs, fams = [], []
        for _ in range(min(_TRIAL_CHUNK, int(trials) - start)):
            fvals = random_values(rng, n, "uniform") + 0.05
            k = int(rng.integers(2, 9))
            # random bites scaled to respect the mean constraint
            mask = rng.random((k, n)) < rng.uniform(0.05, 0.5)
            delta = rng.uniform(0.0, 1.0)
            fam = fvals[None, :] * (1.0 - delta * mask)
            mean_bite = delta * mask.mean(axis=0)
            if np.any(mean_bite > epsilon):
                continue
            fs.append(fvals)
            fams.append(fam)
        hit = first_hit(fs, fams)
        if hit is not None:
            return hit
    return None


# ---------------------------------------------------------------------------
# mixed-norm interchange (Minkowski-type) checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MiiReport:
    """One interchange comparison: outer(inner-inside) vs inner(outer-inside).

    lhs = A over the first factor of (B along the second factor),
    rhs = B over the second factor of (A along the first factor).
    """

    lhs: float
    rhs: float
    ratio: float
    shape: Tuple[int, int]


def _mii_sides(
    ga: Gauge, sa: MeasureSpace, gb: Gauge, sb: MeasureSpace, mats: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """lhs and rhs of mii_check for each matrix of a (t, m, n) stack, in four row calls."""
    t, m, n = mats.shape
    inner_b = gauge_values_rows(gb, sb, mats.reshape(t * m, n)).reshape(t, m)
    inner_a = gauge_values_rows(ga, sa, mats.transpose(0, 2, 1).reshape(t * n, m)).reshape(t, n)
    return gauge_values_rows(ga, sa, inner_b), gauge_values_rows(gb, sb, inner_a)


def mii_check(
    gauge_a: Gauge,
    space_a: MeasureSpace,
    gauge_b: Gauge,
    space_b: MeasureSpace,
    f: np.ndarray,
) -> MiiReport:
    """Compare A(B-inside) against B(A-inside) for a matrix field.

    f[i, j] is the value at (atom i of the A-factor, atom j of the B-factor).
    The comparison direction is the one that admits a uniform constant when
    gauge_a is lattice p-convex and gauge_b is lattice p-concave for a
    common p (classical case: A = L2, B = L1 gives lhs <= rhs).
    """
    f = np.abs(np.asarray(f, dtype=float))
    if f.shape != (len(space_a), len(space_b)):
        raise InputError(
            f"matrix shape {f.shape} does not match spaces "
            f"({len(space_a)}, {len(space_b)})"
        )
    lhs, rhs = (float(v[0]) for v in _mii_sides(gauge_a, space_a, gauge_b, space_b, f[None]))
    ratio = lhs / rhs if rhs > 0 else 0.0
    return MiiReport(lhs=lhs, rhs=rhs, ratio=ratio, shape=f.shape)


@dataclass(frozen=True)
class MiiSweepReport:
    per_dim: Dict[Tuple[int, int], float]
    max_ratio: float
    witness: np.ndarray
    witness_shape: Tuple[int, int]


# the most matrix entries mii_sweep draws for one dimension pair (128 MiB)
_MII_MAX_ENTRIES = 2**24


def mii_sweep(
    gauge_a: Gauge,
    gauge_b: Gauge,
    dims: Sequence[Tuple[int, int]],
    trials: int = 200,
    seed: int = 0,
) -> MiiSweepReport:
    """Max interchange ratio over seeded random matrices per dimension pair,
    both factors under counting measure.

    Identity-like matrices are always included: they are the classical
    family separating the two orders of evaluation.  A dimension pair whose
    trials * m * n entries exceed _MII_MAX_ENTRIES is refused before any
    matrix is drawn.
    """
    if any(int(trials) * m * n > _MII_MAX_ENTRIES for m, n in dims):
        raise InputError(f"mii draws at most {_MII_MAX_ENTRIES} matrix entries per dimension pair")
    rng = np.random.default_rng(seed)
    per_dim: Dict[Tuple[int, int], float] = {}
    overall = 0.0
    witness = np.zeros((1, 1))
    wshape = (1, 1)
    styles = ("identity", "scaled_identity", "uniform", "rank1", "sparse")
    for (m, n) in dims:
        mats = np.array([random_matrix(rng, m, n, styles[t % len(styles)])
                         for t in range(int(trials))]).reshape(-1, m, n)
        lhs, rhs = _mii_sides(gauge_a, counting_space(m), gauge_b, counting_space(n), mats)
        ratios = _ratios(lhs, rhs)
        per_dim[(m, n)] = float(ratios.max(initial=0.0))
        if per_dim[(m, n)] > overall:
            j = int(np.argmax(ratios))
            overall, witness, wshape = per_dim[(m, n)], mats[j], (m, n)
    return MiiSweepReport(per_dim=per_dim, max_ratio=overall, witness=witness, witness_shape=wshape)


# ---------------------------------------------------------------------------
# leveling (conditional-expectation blow-up) probe
# ---------------------------------------------------------------------------

def leveling_constant_probe(
    g: Gauge,
    space: MeasureSpace,
    trials: int = 2000,
    seed: int = 0,
) -> BoundResult:
    """Largest observed rho(E(f | P)) / rho(f) over seeded (f, P) pairs.

    The single-spike field with the trivial partition is probed first; it
    is the extremal pair for averaging-unstable gauges.
    """
    n = len(space)
    triv = trivial_partition(space)
    cand: List[Tuple[np.ndarray, Partition]] = []
    for k in range(n):
        spike = np.zeros(n)
        spike[k] = 1.0
        cand.append((spike, triv))
    cand.append((np.ones(n), triv))
    rng = np.random.default_rng(seed)
    while len(cand) < trials:
        style = ("uniform", "spiky", "sparse")[len(cand) % 3]
        cand.append((random_values(rng, n, style), random_partition(rng, n)))

    cand = cand[: int(trials)]
    # the leveled fields, then the fields, priced in one row call
    rows = np.array([conditional_expectation(space, part, ScalarField(vals)).values
                     for vals, part in cand] + [vals for vals, _ in cand]).reshape(-1, n)
    ratios = _ratios(*gauge_values_rows(g, space, rows).reshape(2, -1))
    best = float(ratios.max(initial=0.0))
    witness = None
    if best > 0:
        vals, part = cand[int(np.argmax(ratios))]
        witness = (ScalarField(vals), part)
    return BoundResult(best, Tag.LOWER, witness=witness)
