"""Periodic-coefficient linear systems: monodromy, multipliers, exponents.

The shared adaptive integrator (`integrate`) wraps the Dormand-Prince
8(5,3) pair (scipy's DOP853); it is fully deterministic for a given
(f, x0, t_span, tol) and is reused by the three-body and
surface-of-section modules.  Its dense output costs three extra
right-hand-side calls per step, so only the flights that evaluate the
trajectory between steps build it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from .errors import DomainError, InternalInconsistencyError, SingularityError
from .jordan import _cluster, jordan_form
from .matrixcore import NUMERIC, SquareMatrix

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class Trajectory:
    t: np.ndarray
    y: np.ndarray  # shape (dim, len(t))
    dense: object  # scipy OdeSolution (callable t -> state), or None
    t_events: tuple | None = None
    y_events: tuple | None = None

    def __call__(self, t):
        if self.dense is None:
            raise InternalInconsistencyError(
                "trajectory has no dense output to evaluate: "
                "it was integrated with dense=False")
        return self.dense(t)

    @property
    def final(self) -> np.ndarray:
        return self.y[:, -1]


def integrate(f: Callable, x0, t_span, tol=DEFAULT_TOL, events=None,
              max_step=np.inf, dense=True) -> Trajectory:
    """Adaptive DOP853 integration, with dense output if ``dense``.

    Per-step relative error is bounded by tol (atol scaled to tol * 1e-2
    to keep small components honest).  With dense=False the trajectory
    cannot be called between steps, but events are still located on the
    interpolant of the step that holds them, so ``t_events``,
    ``y_events`` and ``final`` are bit-identical to a dense flight.
    Step-size underflow surfaces as a SingularityError carrying the
    failure location.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    sol = solve_ivp(
        f, tuple(t_span), np.asarray(x0, dtype=float),
        method="DOP853", rtol=tol, atol=tol * 1e-2,
        dense_output=dense, events=events, max_step=max_step,
    )
    if not sol.success:
        t_fail = sol.t[-1] if len(sol.t) else t_span[0]
        raise SingularityError(
            f"integration failed near t={t_fail:.6g}: {sol.message}", t=t_fail
        )
    return Trajectory(
        sol.t, sol.y, sol.sol,
        tuple(sol.t_events) if events else None,
        tuple(sol.y_events) if events else None,
    )


@dataclass(frozen=True)
class PeriodicLinearSystem:
    """x' = A(t) x with A(t + T) = A(t)."""

    A_of_t: Callable[[float], np.ndarray]
    period: float

    def __post_init__(self):
        if self.period <= 0:
            raise DomainError("period must be positive")


@dataclass(frozen=True)
class Monodromy:
    M: np.ndarray
    period: float
    tol: float

    @property
    def dim(self) -> int:
        return self.M.shape[0]


def _fundamental_flight(sys: PeriodicLinearSystem, t_end: float,
                        tol: float, dense: bool) -> tuple[int, Trajectory]:
    """X' = A(t) X from X(0) = I over [0, t_end], flattened row-major."""
    n = np.asarray(sys.A_of_t(0.0), dtype=float).shape[0]

    def rhs(t, flat):
        X = flat.reshape(n, n)
        return (np.asarray(sys.A_of_t(t), dtype=float) @ X).ravel()

    return n, integrate(rhs, np.eye(n).ravel(), (0.0, t_end), tol,
                        dense=dense)


def monodromy(sys: PeriodicLinearSystem, tol=DEFAULT_TOL) -> Monodromy:
    """Fundamental solution at one period with identity initial condition."""
    n, traj = _fundamental_flight(sys, sys.period, tol, dense=False)
    return Monodromy(traj.final.reshape(n, n), sys.period, tol)


@dataclass(frozen=True)
class ExponentSet:
    multipliers: tuple[complex, ...]
    exponents: tuple[complex, ...]  # principal branch: Im in (-pi/T, pi/T]
    period: float
    blocks: tuple[tuple[complex, tuple[int, ...]], ...]  # per multiplier cluster


def characteristic_exponents(mono: Monodromy, cluster_tol=1e-8) -> ExponentSet:
    """Multipliers (eigenvalues of M) and principal-branch exponents."""
    M = mono.M
    T = mono.period
    mults = np.linalg.eigvals(M)
    if np.min(np.abs(mults)) < 1e-300:
        raise DomainError("monodromy has a zero multiplier: degenerate system")
    dec = jordan_form(SquareMatrix(M, NUMERIC), cluster_tol=cluster_tol)
    mults_sorted = sorted((complex(m) for m in mults), key=lambda z: (z.real, z.imag))
    # cmath.log gives Im in (-pi, pi], hence Im alpha in (-pi/T, pi/T]
    exps = tuple(cmath.log(s) / T for s in mults_sorted)
    return ExponentSet(tuple(mults_sorted), exps, T, dec.blocks)


BOUNDED = "bounded"
UNSTABLE = "unstable_exponential"
SECULAR = "secular_growth"
MARGINAL = "marginal"


@dataclass(frozen=True)
class PeriodicStabilityVerdict:
    tag: str
    witnesses: tuple
    marginal_multipliers: tuple[complex, ...]


def classify_periodic_stability(exps: ExponentSet, tol=1e-6) -> PeriodicStabilityVerdict:
    """Stability of the periodic system from its multipliers.

    bounded iff all |s| = 1 within tol and unit-modulus multipliers are
    semisimple; any |s| in the +-tol band around 1 is additionally flagged
    marginal rather than silently accepted.
    """
    marginal = tuple(
        s for s in exps.multipliers if abs(abs(s) - 1.0) <= tol
    )
    above = [s for s in exps.multipliers if abs(s) > 1.0 + tol]
    if above:
        return PeriodicStabilityVerdict(UNSTABLE, tuple(above), marginal)
    secular_witnesses = []
    for lam, sizes in exps.blocks:
        if abs(abs(lam) - 1.0) <= tol and max(sizes) >= 2:
            secular_witnesses.append((lam, max(sizes)))
    if secular_witnesses:
        return PeriodicStabilityVerdict(SECULAR, tuple(secular_witnesses), marginal)
    return PeriodicStabilityVerdict(BOUNDED, tuple(exps.multipliers), marginal)


@dataclass(frozen=True)
class FloquetFactorization:
    sample_times: np.ndarray
    periodic_factors: np.ndarray  # shape (n_modes, dim, n_samples)
    exponents: tuple[complex, ...]
    amplitudes: tuple[complex, ...]  # components of x0 along the eigen-solutions
    periodicity_residual: float


def floquet_solution(sys: PeriodicLinearSystem, x0, exps: ExponentSet,
                     n_periods=2, n_samples=64, tol=DEFAULT_TOL) -> FloquetFactorization:
    """Verify the Floquet factorization x = sum_j k_j e^{a_j t} p_j(t).

    Requires distinct multipliers.  Reconstructs the periodic factors
    p_j(t) = e^{-a_j t} Phi(t) v_j over one period and reports the worst
    periodicity residual |p_j(t + T) - p_j(t)|.
    """
    T = sys.period
    M = monodromy(sys, tol)
    mults, vecs = np.linalg.eig(M.M)
    groups = _cluster(mults, 1e-8 * max(np.max(np.abs(mults)), 1.0))
    if any(len(g) > 1 for g in groups):
        raise DomainError(
            "clustered multipliers: factorization with multiple multipliers "
            "is unsupported; inspect the exponent block report instead"
        )
    n, traj = _fundamental_flight(sys, (n_periods + 1) * T, tol,
                                  dense=True)
    ts = np.linspace(0.0, T, n_samples, endpoint=False)
    alphas = [cmath.log(complex(s)) / T for s in mults]
    factors = np.zeros((n, n, n_samples), dtype=complex)
    resid = 0.0
    for j in range(n):
        v = vecs[:, j]
        for k, t in enumerate(ts):
            Phi_t = traj(t).reshape(n, n)
            theta = Phi_t @ v
            factors[j, :, k] = cmath.exp(-alphas[j] * t) * theta
        # periodicity check at t and t + T
        for t in np.linspace(0.0, n_periods * T, 8):
            Phi_t = traj(t).reshape(n, n)
            Phi_tT = traj(t + T).reshape(n, n)
            p1 = cmath.exp(-alphas[j] * t) * (Phi_t @ v)
            p2 = cmath.exp(-alphas[j] * (t + T)) * (Phi_tT @ v)
            resid = max(resid, float(np.max(np.abs(p2 - p1))))
    amps = np.linalg.solve(vecs, np.asarray(x0, dtype=complex))
    return FloquetFactorization(
        ts, factors, tuple(complex(a) for a in alphas),
        tuple(complex(a) for a in amps), resid,
    )


def hill_system(a: float, q: float) -> PeriodicLinearSystem:
    """Mathieu/Hill equation x'' + (a - 2 q cos 2t) x = 0 as a first-order
    pi-periodic system."""

    def A_of_t(t):
        return np.array([[0.0, 1.0], [-(a - 2.0 * q * math.cos(2.0 * t)), 0.0]])

    return PeriodicLinearSystem(A_of_t, math.pi)
