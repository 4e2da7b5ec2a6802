"""Periodic-coefficient linear systems: monodromy, multipliers, exponents.

The shared adaptive integrator (`integrate`) steps the Dormand-Prince
8(5,3) pair (scipy's DOP853 stepper) with the event semantics of
`solve_ivp`; it is fully deterministic for a given (f, x0, t_span, tol)
and is reused by the three-body and surface-of-section modules.  Its
dense output costs three extra right-hand-side calls per step, so only
the flights that evaluate the trajectory between steps build it.  It
also flies a stack of starts of one system as a single system, each
member leaving the stack at its own terminal event: a manifold layer is
one such flight instead of one flight per seed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import DOP853, OdeSolution
from scipy.optimize import brentq

from .errors import DomainError, InternalInconsistencyError, SingularityError
from .jordan import _cluster, jordan_form
from .matrixcore import NUMERIC, SquareMatrix

DEFAULT_TOL = 1e-10
_EPS = np.finfo(float).eps


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


def _dop853(f, t0, y0, t_end, tol, k, first_step=None) -> DOP853:
    """The stepper for k stacked members: rtol tol / sqrt(k), atol 1e-2 of
    that, since the step's error norm is an RMS over all components."""
    rtol = tol / math.sqrt(k)
    return DOP853(f, t0, y0, t_end, rtol=rtol, atol=rtol * 1e-2,
                  first_step=first_step)


def _naming_members(f, live):
    """f, with a SingularityError's ``members`` renamed from positions in
    the stack f was called on to the members in flight, the list ``live``;
    with one member in flight, that member is at fault."""
    def rhs(t, y):
        try:
            return f(t, y)
        except SingularityError as e:
            e.members = tuple(live[j] for j in e.members) or \
                (tuple(live) if len(live) == 1 else ())
            raise
    return rhs


def integrate(f: Callable, x0, t_span, tol=DEFAULT_TOL, events=None,
              dense=True) -> Trajectory:
    """Adaptive DOP853 integration, with dense output if ``dense``.

    Per-step relative error is bounded by tol (atol scaled to tol * 1e-2
    to keep small components honest).  Events follow `solve_ivp`: each is
    a function g(t, x) with optional ``terminal`` and ``direction``, its
    roots are found by brentq on the interpolant of the step that holds
    them, and a terminal one ends the flight at its root.  With
    dense=False the trajectory cannot be called between steps, but
    ``t_events``, ``y_events`` and ``final`` are bit-identical to a dense
    flight.  Step-size underflow surfaces as a SingularityError carrying
    the failure location.

    x0 of shape (n, m) is a stack of m starts of one n-dimensional
    system, flown as one system of n*m equations: f takes and returns the
    flattened (n, k) row-major stack of the k members still flying.  The
    stack flies at tol / sqrt(k), so that no member's error is looser
    than in a flight of its own.  ``events`` then holds one event per
    member, called with that member's state; when it ends, its member
    leaves the stack at the root and the others fly on from the step's
    end.  ``final`` holds each member's last state, and a stacked flight
    has no dense output.  A SingularityError from a stacked flight names
    in ``members`` the members at fault, by their index in x0.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    x0 = np.asarray(x0, dtype=float)
    stacked = x0.ndim == 2
    n, m = x0.shape if stacked else (len(x0), 1)
    events = () if events is None else \
        (events,) if callable(events) else tuple(events)
    if stacked and (dense or len(events) not in (0, m)):
        raise DomainError("a stacked flight takes no dense output and "
                          "one event per member")
    owner = list(range(m)) if stacked else [0] * len(events)
    # occurrences of each event that end its member's flight
    max_events = np.array([getattr(e, "terminal", None) or math.inf
                           for e in events], dtype=float)
    ev_dir = np.array([getattr(e, "direction", 0) for e in events],
                      dtype=float)
    t0, t_end = map(float, t_span)

    frame = x0.reshape(n, m).copy()  # every member's latest state
    live = list(range(m))
    if stacked:
        f = _naming_members(f, live)
    solver = _dop853(f, t0, frame.ravel().copy(), t_end, tol, m)
    ts, ys, interpolants = [t0], [frame.ravel().copy()], []
    g = np.array([ev(t0, frame[:, owner[e]]) for e, ev in enumerate(events)])
    t_events = [[] for _ in events]
    y_events = [[] for _ in events]
    count = np.zeros(len(events))
    watched = list(range(len(events)))  # the events of members in flight
    status = None
    while status is None:
        message = solver.step()
        if solver.status == "failed":
            raise SingularityError(
                f"integration failed near t={ts[-1]:.6g}: {message}", t=ts[-1],
                members=tuple(live) if stacked and len(live) == 1 else ())
        if solver.status == "finished":
            status = 0
        t_old, t, y, k = solver.t_old, solver.t, solver.y, len(live)
        if stacked:
            frame[:, live] = y.reshape(n, k)
        sol = solver.dense_output() if dense else None
        if dense:
            interpolants.append(sol)
        exits = {}  # member -> (time, state) where a terminal event ended it
        if watched:
            Y = frame if stacked else y.reshape(n, 1)
            g_new = np.array([events[e](t, Y[:, owner[e]]) for e in watched])
            g_old, d = g[watched], ev_dir[watched]
            up = (g_old <= 0) & (g_new >= 0)
            down = (g_old >= 0) & (g_new <= 0)
            hit = up & (d > 0) | down & (d < 0) | (up | down) & (d == 0)
            active = np.asarray(watched)[hit]
            g[watched] = g_new
            if active.size:
                if sol is None:
                    sol = solver.dense_output()
                count[active] += 1
                for j in dict.fromkeys(owner[e] for e in active):
                    p = live.index(j)

                    def at(tt):
                        return sol(tt).reshape(n, k)[:, p]
                    act = np.array([e for e in active if owner[e] == j])
                    roots = np.asarray([
                        brentq(lambda tt: events[e](tt, at(tt)), t_old, t,
                               xtol=4 * _EPS, rtol=4 * _EPS)
                        for e in act])
                    if np.any(count[act] >= max_events[act]):
                        order = np.argsort(roots) if t > t_old \
                            else np.argsort(-roots)
                        act, roots = act[order], roots[order]
                        last = np.nonzero(count[act] >= max_events[act])[0][0]
                        act, roots = act[:last + 1], roots[:last + 1]
                        exits[j] = roots[-1], at(roots[-1])
                    for e, te in zip(act, roots):
                        t_events[e].append(te)
                        y_events[e].append(at(te))
        if exits:
            live[:] = [j for j in live if j not in exits]
            watched = [e for e in watched if owner[e] in live]
            if not live:
                status = 1
                t = max((te for te, _ in exits.values()),
                        key=lambda te: (te - t_old) * (t - t_old))
        if stacked:
            for j, (_, z) in exits.items():
                frame[:, j] = z
            y = frame.ravel().copy()
            if exits and status is None:
                solver = _dop853(f, t, frame[:, live].ravel(), t_end, tol,
                                 len(live), min(solver.h_abs, abs(t_end - t)))
        elif exits:
            y = exits[0][1]
        ts.append(t)
        ys.append(y)
    ts = np.array(ts)
    return Trajectory(
        ts, np.vstack(ys).T, OdeSolution(ts, interpolants) if dense else None,
        tuple(np.asarray(te) for te in t_events) if events else None,
        tuple(np.asarray(ye) for ye in y_events) if events else None,
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
