"""Galb gauges and tensor-product quasi-norm estimation.

The galb gauge of a coefficient sequence a against a target space X is

    galb_X(a) = sup{ ||sum_n a_n x_n|| : ||x_n|| <= 1 },

the price of summing a ball-bounded series with those coefficients.  For
an l_q target with q <= 1 and enough dimensions it equals (sum a^q)^(1/q)
with the disjoint-basis witness; for any Banach target it equals sum a.

A tensor representation is a finite list of (vector, scalar-field) terms.
Its cost under a symmetric gauge lam is lam((||x_j|| * ||f_j||_1)_j); the
tensor quasi-norm is the infimum of that cost over all representations
with the same per-atom contraction J(omega) = sum_j f_j(omega) x_j.  On a
finite atom space two representations describe the same tensor exactly
when their J fields agree, so the search may rewrite terms freely as long
as J is preserved.

The galb searches price in batches: galbs_check evaluates the dominating
gauge on every coefficient shape of a size in one row call, and the ascent
of galb_gauge_estimate prices all seeds in one `norms` call and, per
coefficient, its 2d + 2 moves in another.

The tensor search works on terms in one canonical form: `_prune` drops the
terms whose vector or field is zero, and `_merge_colinear` folds the
remaining terms whose vectors are multiples of one another into one term,
all pairs tested at once by their 2x2 minors.  Every candidate is priced
by one call of lam's row kernel on its own profile: candidates of
different term counts are not padded into one batch, because zero padding
moves the last bits of a power sum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bounds import BoundResult, Tag
from .errors import InputError
from .gauges import Gauge, Lp, WeakL1, gauge_values_rows
from .measure import MeasureSpace, ScalarField, VectorField
from .sampling import random_values
from .spaces import QuasiNormedSpace


# ---------------------------------------------------------------------------
# galb gauge estimation (lower bounds with witnesses)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GalbWitness:
    """Ball vectors realizing a lower bound for the galb gauge."""

    coefficients: np.ndarray
    vectors: np.ndarray  # (N, dim), every row has norm <= 1 (+1e-12)
    value: float


def _closed_form_galb(
    X: QuasiNormedSpace, a: np.ndarray
) -> Optional[Tuple[float, np.ndarray]]:
    """Exact galb value for l_q targets with q <= 1, when a witness fits."""
    if not (isinstance(X.gauge, Lp) and X.gauge.p <= 1.0):
        return None
    n = a.size
    if X.gauge.p == 1.0:
        vecs = np.zeros((n, X.dim))
        vecs[:, 0] = 1.0
        return float(np.sum(a)), vecs
    support = np.where(a > 0)[0]
    if support.size > X.dim:
        return None
    vecs = np.zeros((n, X.dim))
    for slot, idx in enumerate(support):
        vecs[idx, slot] = 1.0
    vecs[a == 0, 0] = 1.0
    return X.norm(a @ vecs), vecs


def galb_gauge_estimate(
    X: QuasiNormedSpace,
    coefficients: Sequence[float],
    budget: int = 10000,
    seed: int = 0,
    analytic: bool = True,
    extra_seeds: Optional[Sequence[np.ndarray]] = None,
) -> BoundResult:
    """Certified lower bound for galb_X(a) with a ball-vector witness.

    The estimate is symmetric in a by construction (coefficients are sorted
    internally) and the witness is reported in the caller's order.  With
    analytic=True, l_q targets with q <= 1 short-circuit to the closed form
    (sum a^q)^(1/q) whenever a disjoint-basis witness fits; the generic
    alternating ascent is available for cross-checks via analytic=False.
    budget caps the number of norm evaluations spent by the ascent.
    """
    a_in = np.abs(np.asarray(coefficients, dtype=float))
    if a_in.ndim != 1 or a_in.size == 0:
        raise InputError("coefficients must be a nonempty 1-d sequence")
    order = np.argsort(-a_in, kind="stable")
    inverse = np.argsort(order, kind="stable")
    a = a_in[order]
    n = a.size

    if analytic:
        cf = _closed_form_galb(X, a)
        if cf is not None:
            value, vecs = cf
            witness = GalbWitness(coefficients=a_in, vectors=vecs[inverse], value=value)
            return BoundResult(value, Tag.LOWER, witness=witness)

    # seeds and basis moves use the unit vectors e_j / ||e_j||, so every
    # witness row stays in the ball whatever the norms of the e_j
    d, unit = X.dim, X.unit_basis
    seeds = [np.tile(unit[j], (n, 1)) for j in range(min(d, 4))]  # all on one direction
    seeds.append(unit[np.arange(n) % d])
    if isinstance(X.gauge, WeakL1):
        harm = 1.0 / np.arange(1.0, d + 1.0)  # unit ball element of weak-l1
        rolled = np.stack([np.roll(harm, k) for k in range(n)])
        seeds.append(rolled)
        seeds.append(np.tile(harm, (n, 1)))
    if extra_seeds is not None:
        for s in extra_seeds:
            s = np.asarray(s, dtype=float)
            if s.shape == (n, d):  # rows clipped into the unit ball
                seeds.append((s / np.maximum(X.norms(s), 1.0)[:, None])[order])

    vals = X.norms(a @ np.stack(seeds))
    evals = len(seeds)
    best = float(vals.max())
    vecs = seeds[int(np.argmax(vals))]

    # coordinate ascent: per coefficient, the 2d signed basis vectors and two
    # random ball vectors (a perturbation and a fresh draw) are priced together
    rng = np.random.default_rng(seed)
    basis_moves = np.vstack([unit, -unit])
    stall = 0
    while evals < budget and stall < 2:
        improved = False
        for k in range(n):
            if a[k] == 0 or evals >= budget:
                continue
            z = rng.standard_normal((2, d))
            rand = np.vstack([vecs[k] + 0.3 * z[0], z[1]])
            rand /= np.maximum(X.norms(rand), 1.0)[:, None]
            cands = np.vstack([basis_moves, rand])[: budget - evals]
            vals = X.norms(a @ vecs - a[k] * vecs[k] + a[k] * cands)
            evals += len(cands)
            j = int(np.argmax(vals))
            if vals[j] > best * (1.0 + 1e-15):
                best = float(vals[j])
                vecs[k] = cands[j]
                improved = True
        stall = 0 if improved else stall + 1

    witness = GalbWitness(coefficients=a_in, vectors=vecs[inverse], value=best)
    return BoundResult(best, Tag.LOWER, witness=witness)


@dataclass(frozen=True)
class GalbsReport:
    """Ratio sweep of galb estimates against a candidate dominating gauge."""

    per_size: Dict[int, float]
    max_ratio: float
    witness_coefficients: np.ndarray


def galbs_check(
    lam: Gauge,
    X: QuasiNormedSpace,
    sizes: Sequence[int] = (8, 16, 32, 64),
    trials: int = 40,
    seed: int = 0,
    budget: int = 2000,
) -> GalbsReport:
    """Max of galb_X(a) / lam(a) over seeded coefficient shapes per size.

    Spikes, flat profiles and geometric decays are always included.  A
    bounded, trend-free report is evidence that lam galbs X.
    """
    rng = np.random.default_rng(seed)
    per_size: Dict[int, float] = {}
    overall = 0.0
    wit = np.zeros(1)
    for m in sizes:
        space_m = MeasureSpace(np.ones(m))
        shapes = [np.r_[1.0, np.zeros(m - 1)], np.ones(m), 0.5 ** np.arange(m)]
        shapes += [1.0 / np.arange(1.0, m + 1.0)]
        for _ in range(max(0, trials - len(shapes))):
            style = ("uniform", "spiky", "decay")[int(rng.integers(3))]
            shapes.append(random_values(rng, m, style))
        denoms = gauge_values_rows(lam, space_m, np.array(shapes))
        ratios = np.array([galb_gauge_estimate(X, a, budget=budget, seed=seed).value / dn
                           if dn > 0 else 0.0 for a, dn in zip(shapes, denoms)])
        j = int(np.argmax(ratios))
        per_size[int(m)] = float(ratios[j])
        if ratios[j] > overall:
            overall, wit = float(ratios[j]), shapes[j]
    return GalbsReport(per_size=per_size, max_ratio=overall, witness_coefficients=wit)


# ---------------------------------------------------------------------------
# tensor representations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TensorRep:
    """Finite representation sum_j x_j (X) f_j of an X-valued tensor.

    xs: (k, dim) vectors in the target space X.
    fs: (k, n_atoms) scalar fields (signed allowed).
    lam: the symmetric cost gauge, applied over counting measure to the
         profile (||x_j||_X * ||f_j||_L1)_j.
    """

    xs: np.ndarray
    fs: np.ndarray
    target: QuasiNormedSpace
    lam: Gauge

    def __post_init__(self) -> None:
        xs = np.atleast_2d(np.asarray(self.xs, dtype=float))
        fs = np.atleast_2d(np.asarray(self.fs, dtype=float))
        if xs.shape[0] != fs.shape[0]:
            raise InputError("xs and fs must list the same number of terms")
        if xs.shape[1] != self.target.dim:
            raise InputError("vector dimension does not match the target space")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(fs))):
            raise InputError("tensor representation entries must be finite")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "fs", fs)

    @property
    def n_terms(self) -> int:
        return int(self.xs.shape[0])

    @property
    def n_atoms(self) -> int:
        return int(self.fs.shape[1])

    def terms(self) -> List[Tuple[np.ndarray, ScalarField]]:
        return [(self.xs[j], ScalarField(self.fs[j], signed=True)) for j in range(self.n_terms)]

    def with_arrays(self, xs: np.ndarray, fs: np.ndarray) -> "TensorRep":
        return TensorRep(xs=xs, fs=fs, target=self.target, lam=self.lam)


def tensor_from_terms(
    terms: Sequence[Tuple[Sequence[float], ScalarField]],
    target: QuasiNormedSpace,
    lam: Gauge,
) -> TensorRep:
    xs = np.array([np.asarray(x, dtype=float) for x, _ in terms])
    fs = np.array([f.values for _, f in terms])
    return TensorRep(xs=xs, fs=fs, target=target, lam=lam)


def j_map(rep: TensorRep, space: MeasureSpace) -> VectorField:
    """Per-atom contraction omega -> sum_j f_j(omega) x_j."""
    if rep.n_atoms != len(space):
        raise InputError("representation and space atom counts differ")
    return VectorField(rep.fs.T @ rep.xs, rep.target)


def i_map(rep: TensorRep, space: MeasureSpace) -> np.ndarray:
    """Weighted-sum contraction sum_omega w_omega J(omega).

    Computed through the atoms so that equality of J fields forces equality
    of integrals by plain linear arithmetic; see i_map_termwise for the
    term-by-term route used as a cross-check.
    """
    jf = j_map(rep, space)
    return space.weights @ jf.vectors


def i_map_termwise(rep: TensorRep, space: MeasureSpace) -> np.ndarray:
    """sum_j (integral of f_j) x_j; equals i_map up to reordering rounding."""
    if rep.n_atoms != len(space):
        raise InputError("representation and space atom counts differ")
    return (rep.fs @ space.weights) @ rep.xs


@lru_cache(maxsize=64)
def _counting(k: int) -> MeasureSpace:
    """The counting space on k terms, built once per term count."""
    return MeasureSpace(np.ones(k))


def _cost(rep: TensorRep, xs: np.ndarray, fs: np.ndarray, weights: np.ndarray) -> float:
    """lam((||x_j||_X * ||f_j||_L1)_j) of the terms (xs, fs) over counting measure.

    The profile is nonnegative, so it goes to lam's row kernel as it is.
    """
    if xs.shape[0] == 0:
        return 0.0
    prof = rep.target.norms(xs) * (np.abs(fs) @ weights)
    return float(rep.lam._value_rows(_counting(prof.size), prof[None, :])[0])


def profile_value(rep: TensorRep, space: MeasureSpace) -> float:
    """lam((||x_j||_X * ||f_j||_L1)_j) over counting measure on the terms."""
    return _cost(rep, rep.xs, rep.fs, space.weights)


# ---------------------------------------------------------------------------
# tensor quasi-norm estimation (upper bounds with witnesses)
# ---------------------------------------------------------------------------

# the most 2x2 minors one block of the colinearity test holds; a term pair
# with more (dim > 512) makes a block alone
_MINOR_BLOCK = 2**18


@lru_cache(maxsize=64)
def _pairs(k: int) -> Tuple[np.ndarray, np.ndarray]:
    """The index pairs i < j of k terms, in row order."""
    return np.triu_indices(k, 1)


def _prune(xs: np.ndarray, fs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Drop the terms whose vector or field is zero; one zero term if none is left."""
    keep = (np.abs(xs).max(axis=1) != 0.0) & (np.abs(fs).max(axis=1) != 0.0)
    if not keep.any():
        return xs[:1] * 0.0, fs[:1] * 0.0
    return xs[keep], fs[keep]


def _merge_colinear(xs: np.ndarray, fs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Merge pruned terms whose vectors are scalar multiples of each other.

    x_i and x_j (i < j) are colinear when every 2x2 minor x_ia x_jb - x_ja x_ib
    is at most 1e-12 |x_i|_inf |x_j|_inf in size.  In index order, term j
    joins the first earlier term that is still a representative and is
    colinear with it, and otherwise stays one; within tolerance colinearity
    need not be transitive, so this order is part of the result.  A
    representative i keeps x_i and adds c_j f_j for its members j in
    increasing j, where c_j = x_j[p] / x_i[p] at the largest entry p of x_i.
    """
    k, d = xs.shape
    if k == 1:
        return xs, fs
    ax = np.abs(xs)
    scale = ax.max(axis=1)
    iu, ju = _pairs(k)
    step = max(1, _MINOR_BLOCK // (d * d))
    worst = np.empty(iu.size)
    for s in range(0, iu.size, step):
        xi, xj = xs[iu[s:s + step]], xs[ju[s:s + step]]
        minors = xi[:, :, None] * xj[:, None, :] - xj[:, :, None] * xi[:, None, :]
        worst[s:s + step] = np.abs(minors).reshape(-1, d * d).max(axis=1)
    near = worst <= 1e-12 * scale[iu] * scale[ju]
    if not near.any():
        return xs, fs
    colinear = np.zeros((k, k), dtype=bool)
    colinear[iu, ju] = near
    own = np.ones(k, dtype=bool)
    pivot = ax.argmax(axis=1)
    merged = fs.copy()
    for j in range(1, k):
        first = colinear[:j, j] & own[:j]
        i = first.argmax()
        if first[i]:
            own[j] = False
            merged[i] += xs[j, pivot[i]] / xs[i, pivot[i]] * fs[j]
    return xs[own], merged[own]


def tensor_norm_estimate(
    rep: TensorRep,
    space: MeasureSpace,
    budget: int = 10000,
    seed: int = 0,
) -> BoundResult:
    """Upper bound for the tensor quasi-norm of rep, with a witness rep.

    Candidate rewrites keep the per-atom contraction J fixed (exactly, up
    to floating rounding): rep with its zero terms pruned, the same with its
    colinear vectors merged, and, when J is not zero, the per-atom rank-one
    rewrite (J(omega), indicator of omega) and an SVD refactorization.  From
    the cheapest, budgeted random two-term rotations follow; each proposal
    is brought to the canonical form (pruned, then merged) before it is
    priced.  Each candidate and proposal costs one evaluation.  The returned
    value is the cheapest profile cost seen; its witness re-evaluates to
    that value.
    """
    if rep.n_atoms != len(space):
        raise InputError("representation and space atom counts differ")
    w = space.weights

    jmat = rep.fs.T @ rep.xs  # (n_atoms, dim)
    jscale = float(np.max(np.abs(jmat), initial=0.0))

    candidates = [_prune(rep.xs, rep.fs)]
    candidates.append(_merge_colinear(*candidates[0]))
    if jscale > 0:
        # per-atom rank-one rewrite, and the SVD refactorization of J
        candidates.append(_prune(jmat, np.eye(rep.n_atoms)))
        u, s, vt = np.linalg.svd(jmat, full_matrices=False)
        rank = int(np.sum(s > 1e-13 * s[0]))
        if rank > 0:
            candidates.append((vt[:rank], (u[:, :rank] * s[:rank]).T))

    evals = 0
    best = math.inf
    best_pair = candidates[0]
    for xs, fs in candidates:
        c = _cost(rep, xs, fs, w)
        evals += 1
        if c < best:
            best, best_pair = c, (xs, fs)

    rng = np.random.default_rng(seed)
    xs, fs = (a.copy() for a in best_pair)
    while evals < budget and xs.shape[0] >= 2:
        i, j = rng.choice(xs.shape[0], size=2, replace=False)
        theta = rng.uniform(0.0, math.pi)
        ct, st = math.cos(theta), math.sin(theta)
        u_vec = ct * xs[i] + st * xs[j]
        v_vec = -st * xs[i] + ct * xs[j]
        fu = ct * fs[i] + st * fs[j]
        fv = -st * fs[i] + ct * fs[j]
        cand_x = xs.copy()
        cand_f = fs.copy()
        cand_x[i], cand_x[j] = u_vec, v_vec
        cand_f[i], cand_f[j] = fu, fv
        cand_x, cand_f = _merge_colinear(*_prune(cand_x, cand_f))
        c = _cost(rep, cand_x, cand_f, w)
        evals += 1
        if c < best * (1.0 - 1e-15):
            best, xs, fs = c, cand_x, cand_f

    witness = rep.with_arrays(xs, fs)
    # the search must not have drifted J
    drift = float(np.max(np.abs(fs.T @ xs - jmat), initial=0.0))
    if drift > 1e-9 * max(1.0, jscale):
        raise AssertionError("tensor search drifted the contraction field")
    return BoundResult(best, Tag.UPPER, witness=witness)
