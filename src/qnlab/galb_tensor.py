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
coefficient, its 2d + 2 moves in another.  The tensor search still prices
one rewrite at a time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bounds import BoundResult, Tag
from .errors import InputError
from .gauges import Gauge, gauge_values_rows
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
    if X.kind != "lq" or X.q is None or X.q > 1.0:
        return None
    n = a.size
    if X.q == 1.0:
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

    d = X.dim
    seeds: List[np.ndarray] = []
    for j in range(min(d, 4)):  # all mass on one basis direction
        v = np.zeros((n, d))
        v[:, j] = 1.0
        seeds.append(v)
    disj = np.zeros((n, d))
    disj[np.arange(n), np.arange(n) % d] = 1.0
    seeds.append(disj)
    if X.kind == "weak_l1":
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
    basis_moves = np.vstack([np.eye(d), -np.eye(d)])
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


def profile_value(rep: TensorRep, space: MeasureSpace) -> float:
    """lam((||x_j||_X * ||f_j||_L1)_j) over counting measure on the terms."""
    if rep.n_terms == 0:
        return 0.0
    prof = rep.target.norms(rep.xs) * (np.abs(rep.fs) @ space.weights)
    return float(gauge_values_rows(rep.lam, MeasureSpace(np.ones(prof.size)), prof[None, :])[0])


# ---------------------------------------------------------------------------
# tensor quasi-norm estimation (upper bounds with witnesses)
# ---------------------------------------------------------------------------

def _prune(xs: np.ndarray, fs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    keep = ~(
        (np.max(np.abs(xs), axis=1) == 0.0) | (np.max(np.abs(fs), axis=1) == 0.0)
    )
    if not np.any(keep):
        return xs[:1] * 0.0, fs[:1] * 0.0
    return xs[keep], fs[keep]


def _merge_colinear(xs: np.ndarray, fs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Merge terms whose vectors are scalar multiples of each other."""
    k = xs.shape[0]
    used = np.zeros(k, dtype=bool)
    out_x: List[np.ndarray] = []
    out_f: List[np.ndarray] = []
    scale = np.max(np.abs(xs), axis=1)
    for i in range(k):
        if used[i] or scale[i] == 0.0:
            continue
        xi = xs[i]
        fi = fs[i].copy()
        for j in range(i + 1, k):
            if used[j] or scale[j] == 0.0:
                continue
            # xj colinear with xi iff the 2x2 minors vanish
            cross = np.abs(np.outer(xi, xs[j]) - np.outer(xs[j], xi))
            if np.max(cross) <= 1e-12 * scale[i] * scale[j]:
                pivot = int(np.argmax(np.abs(xi)))
                c = xs[j, pivot] / xi[pivot]
                fi = fi + c * fs[j]
                used[j] = True
        used[i] = True
        out_x.append(xi)
        out_f.append(fi)
    if not out_x:
        return xs[:1] * 0.0, fs[:1] * 0.0
    return np.stack(out_x), np.stack(out_f)


def tensor_norm_estimate(
    rep: TensorRep,
    space: MeasureSpace,
    budget: int = 10000,
    seed: int = 0,
) -> BoundResult:
    """Upper bound for the tensor quasi-norm of rep, with a witness rep.

    Candidate rewrites keep the per-atom contraction J fixed (exactly, up
    to floating rounding): pruning zero terms, merging colinear vectors,
    the per-atom rank-one rewrite (J(omega), indicator of omega), an SVD
    refactorization, and budgeted random two-term rotations.  The returned
    value is the cheapest profile cost seen; its witness re-evaluates to
    that value.
    """
    if rep.n_atoms != len(space):
        raise InputError("representation and space atom counts differ")
    X = rep.target
    w = space.weights

    def cost(xs: np.ndarray, fs: np.ndarray) -> float:
        if xs.shape[0] == 0:
            return 0.0
        prof = X.norms(xs) * (np.abs(fs) @ w)
        return float(
            gauge_values_rows(rep.lam, MeasureSpace(np.ones(prof.size)), prof[None, :])[0]
        )

    jmat = rep.fs.T @ rep.xs  # (n_atoms, dim)
    jscale = float(np.max(np.abs(jmat), initial=0.0))

    candidates: List[Tuple[np.ndarray, np.ndarray]] = []
    candidates.append(_prune(rep.xs, rep.fs))
    candidates.append(_merge_colinear(*_prune(rep.xs, rep.fs)))
    # per-atom rank-one rewrite
    live = np.where(np.max(np.abs(jmat), axis=1) > 0)[0]
    if live.size:
        fs_atom = np.zeros((live.size, rep.n_atoms))
        fs_atom[np.arange(live.size), live] = 1.0
        candidates.append((jmat[live], fs_atom))
    # SVD refactorization of the J matrix
    if jscale > 0:
        u, s, vt = np.linalg.svd(jmat, full_matrices=False)
        rank = int(np.sum(s > 1e-13 * s[0]))
        if rank > 0:
            candidates.append((vt[:rank], (u[:, :rank] * s[:rank]).T))

    evals = 0
    best = math.inf
    best_pair = candidates[0]
    for xs, fs in candidates:
        c = cost(xs, fs)
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
        c = cost(cand_x, cand_f)
        evals += 1
        if c < best * (1.0 - 1e-15):
            best, xs, fs = c, cand_x, cand_f

    witness = rep.with_arrays(xs, fs)
    # the search must not have drifted J
    drift = float(np.max(np.abs(fs.T @ xs - jmat), initial=0.0))
    if drift > 1e-9 * max(1.0, jscale):
        raise AssertionError("tensor search drifted the contraction field")
    return BoundResult(best, Tag.UPPER, witness=witness)
