"""Integration of simple and series-represented vector fields.

integrate_simple is the honest baseline: a finite sum mass * vector over
disjoint pieces.  integrate_series contracts a tensor representation
through the atoms and reports the cost certificate of the representation
it was given.  rolewicz_counterexample generates the classical blow-up
family showing why "partition norms shrink" fails to control Riemann sums
below exponent one: n parts of individually vanishing norm whose weighted
sum has norm one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .bounds import BoundResult, Tag
from .errors import InputError
from .galb_tensor import TensorRep, i_map, j_map, profile_value
from .gauges import Gauge, Lp, eval_gauge, gauge_values_rows
from .measure import MeasureSpace, ScalarField, uniform_probability_space
from .spaces import QuasiNormedSpace


@dataclass(frozen=True)
class SimpleFunction:
    """Finitely many disjoint atom sets, one target vector per set."""

    pieces: Tuple[Tuple[Tuple[int, ...], np.ndarray], ...]
    target: QuasiNormedSpace

    def __post_init__(self) -> None:
        pieces = []
        seen: set[int] = set()
        for atoms, vec in self.pieces:
            atoms = tuple(int(i) for i in atoms)
            if len(atoms) == 0:
                raise InputError("simple-function pieces must be nonempty")
            for i in atoms:
                if i in seen:
                    raise InputError(f"atom {i} belongs to two pieces")
                seen.add(i)
            vec = np.asarray(vec, dtype=float)
            if vec.shape != (self.target.dim,):
                raise InputError("piece vector dimension mismatch")
            pieces.append((atoms, vec))
        object.__setattr__(self, "pieces", tuple(pieces))


def integrate_simple(space: MeasureSpace, sf: SimpleFunction) -> np.ndarray:
    """sum over pieces of mass(piece) * vector."""
    out = np.zeros(sf.target.dim)
    for atoms, vec in sf.pieces:
        idx = np.asarray(atoms, dtype=int)
        if idx.max() >= len(space):
            raise InputError("piece atom index out of range")
        out = out + float(np.sum(space.weights[idx])) * vec
    return out


def simple_to_tensor(
    sf: SimpleFunction, space: MeasureSpace, lam: Gauge
) -> TensorRep:
    """One indicator-field term per piece; J(rep) equals the step field."""
    n = len(space)
    xs = []
    fs = []
    for atoms, vec in sf.pieces:
        ind = np.zeros(n)
        ind[np.asarray(atoms, dtype=int)] = 1.0
        xs.append(vec)
        fs.append(ind)
    return TensorRep(xs=np.array(xs), fs=np.array(fs), target=sf.target, lam=lam)


@dataclass(frozen=True)
class SeriesIntegral:
    value: np.ndarray
    certificate: BoundResult
    exceeded_cap: bool


def integrate_series(
    rep: TensorRep,
    space: MeasureSpace,
    cap: Optional[float] = None,
) -> SeriesIntegral:
    """Contract rep through the atoms and attach its cost certificate.

    value       -- sum_omega w_omega J(rep)(omega)
    certificate -- lam((||x_j|| * ||f_j||_1)_j), the price of this
                   particular representation (an upper bound for the
                   tensor quasi-norm, not a function of the value alone)
    exceeded_cap -- True when a cap was given and the certificate tops it
    """
    value = i_map(rep, space)
    cert_val = profile_value(rep, space)
    cert = BoundResult(cert_val, Tag.UPPER, witness=rep)
    return SeriesIntegral(
        value=value,
        certificate=cert,
        exceeded_cap=bool(cap is not None and cert_val > cap),
    )


@dataclass(frozen=True)
class IndependenceReport:
    max_j_discrepancy: float
    i_discrepancy: float
    tolerance: float
    comparable: bool  # J fields agree within tolerance
    passed: bool      # not comparable, or integrals agree as required


def representation_independence_check(
    rep1: TensorRep,
    rep2: TensorRep,
    space: MeasureSpace,
    tol: float = 1e-9,
) -> IndependenceReport:
    """If the J fields agree within tol, the integrals must agree too.

    The acceptance threshold for the integrals is tol * total mass, the
    exact propagation constant of the atom-wise contraction.
    """
    if rep1.target.dim != rep2.target.dim:
        raise InputError("representations target different dimensions")
    X = rep1.target
    j1 = j_map(rep1, space).vectors
    j2 = j_map(rep2, space).vectors
    dj = float(np.max(X.norms(j1 - j2), initial=0.0))
    di = float(X.norm(i_map(rep1, space) - i_map(rep2, space)))
    comparable = dj <= tol
    passed = (not comparable) or di <= tol * space.total_mass
    return IndependenceReport(
        max_j_discrepancy=dj,
        i_discrepancy=di,
        tolerance=tol,
        comparable=comparable,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# the blow-up counterexample family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CounterexampleReport:
    p: float
    n: int
    sup_part_norm: float     # max_m || n * indicator(A_m) ||_p  = n^(1 - 1/p)
    riemann_sum_norm: float  # || sum_m mass(A_m) * x_m ||_p     = 1
    blowup_ratio: float      # riemann / sup_part               = n^(1/p - 1)


# the most atoms of the blow-up family: its n x n part matrix (128 MiB)
_ROLEWICZ_MAX_N = 4096


def rolewicz_counterexample(p: float, n: int) -> CounterexampleReport:
    """Partition [0,1] into n atoms of mass 1/n, take x_m = n * indicator(A_m).

    Each part's L_p norm is n^(1-1/p) (vanishing as n grows when p < 1)
    while the Riemann sum sum_m mass(A_m) x_m is the constant-one field of
    norm exactly 1, so the ratio blows up like n^(1/p - 1).  All three
    numbers are evaluated through the gauge machinery and then asserted
    against the closed forms at 1e-12 relative.  n is at most
    _ROLEWICZ_MAX_N, and a (p, n) whose ratio leaves the float range (the
    part norm underflows) is refused, both before anything is built.
    """
    if not (0.0 < p <= 1.0):
        raise InputError("the blow-up family needs an exponent p in (0, 1]")
    if not 1 <= n <= _ROLEWICZ_MAX_N:
        raise InputError(f"the blow-up family takes 1 to {_ROLEWICZ_MAX_N} atoms, got {n}")
    try:
        expect_ratio = float(n) ** (1.0 / p - 1.0)
    except OverflowError:
        expect_ratio = math.inf
    if expect_ratio == math.inf:
        raise InputError(f"the part norm n^(1 - 1/p) underflows at p = {p!r}, n = {n}: "
                         "the blow-up ratio is beyond the float range")
    space = uniform_probability_space(n)
    gauge = Lp(p)

    parts = float(n) * np.eye(n)  # row m is x_m
    sup_part = float(gauge_values_rows(gauge, space, parts).max())
    riemann_norm = eval_gauge(gauge, space, ScalarField(space.weights @ parts)).value
    ratio = riemann_norm / sup_part

    expect_sup = float(n) ** (1.0 - 1.0 / p)
    for got, want in ((sup_part, expect_sup), (riemann_norm, 1.0), (ratio, expect_ratio)):
        if abs(got - want) > 1e-12 * max(1.0, abs(want)):
            raise AssertionError(
                f"blow-up family disagrees with closed form: {got!r} vs {want!r}"
            )
    return CounterexampleReport(
        p=p,
        n=n,
        sup_part_norm=sup_part,
        riemann_sum_norm=riemann_norm,
        blowup_ratio=ratio,
    )
