"""Periodic-coefficient linear systems: monodromy, multipliers, exponents.

The shared adaptive integrator (`integrate`) takes the Dormand-Prince
8(5,3) step itself (Hairer, Norsett and Wanner, *Solving ODEs I*, II.10),
with the tableau, step-size controller and initial-step rule of scipy's
DOP853 and the event semantics of `solve_ivp`; a flight of one start is
bit-identical to ``solve_ivp(method="DOP853")``.  It also flies a stack of
starts in one loop: each member keeps its own time, step size and
rejections, so it takes the steps of its own flight, while one vectorized
right-hand-side call per stage serves every member.  The three-body and
surface-of-section modules reuse it, and `monodromy` flies a family of
periodic systems, such as a Hill grid, as one stack.  The 7th-order dense
output costs three more right-hand-side calls per step, so only the
flights that evaluate the trajectory between steps build it.  A
time-reversible system, such as Hill's equation, flies half a period and
`reversed_monodromy` reads M off it, the rule by which the three-body
corrector reads a symmetric orbit's M off its half-period STM.
`characteristic_exponents` reads a family of monodromies in one batch.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate._ivp import dop853_coefficients as _dop
from scipy.optimize import brentq

from .errors import DomainError, InternalInconsistencyError, SingularityError
from .jordan import jordan_form
from .matrixcore import NUMERIC, SquareMatrix

DEFAULT_TOL = 1e-10
_EPS = np.finfo(float).eps

# scipy's DOP853: 12 stages a step, the derivative at the step's end as
# the 13th row of K, three more stages for the dense output
_S = _dop.N_STAGES
_A, _B, _C = _dop.A[:_S, :_S], _dop.B, _dop.C[:_S]
_A_EXTRA, _C_EXTRA = _dop.A[_S + 1:], _dop.C[_S + 1:]
# scipy's step-size controller
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _ERR_EXP = 0.9, 0.2, 10, -1 / 8
_TOO_SMALL = "Required step size is less than spacing between numbers."


def _interpolate(t, t_old, h, y_old, F):
    """DOP853's 7th-order dense output at time t of the step (t_old, h,
    y_old, F), as scipy's Dop853DenseOutput computes it."""
    x = (t - t_old) / h
    y = np.zeros_like(y_old)
    for i in range(len(F)):
        y += F[-1 - i]
        y *= x if i % 2 == 0 else 1 - x
    return y + y_old


def _dense_coefficients(rhs, K, t_old, h, y_old, y):
    """The interpolant's F of one member's step, from its 13 stage rows K;
    rhs evaluates that member alone."""
    K = np.concatenate((K, np.empty((len(_A_EXTRA), K.shape[1]))))
    for s, (a, c) in enumerate(zip(_A_EXTRA, _C_EXTRA), start=_S + 1):
        dy = np.dot(K[:s].T, a[:s]) * h
        K[s] = rhs(t_old + c * h, y_old + dy)
    F = np.empty((_dop.INTERPOLATOR_POWER, len(y)))
    f_old, delta_y = K[0], y - y_old
    F[0] = delta_y
    F[1] = h * f_old - delta_y
    F[2] = 2 * delta_y - h * (K[_S] + f_old)
    F[3:] = h * np.dot(_dop.D, K)
    return F


@dataclass(frozen=True)
class _DenseOutput:
    """A flight's interpolant, one DOP853 step per segment of ``ts``, with
    scipy OdeSolution's choice of segment at a step boundary."""

    ts: np.ndarray  # the flight's times, one more than steps
    t_old: np.ndarray  # per step: its start, length, start state and F
    h: np.ndarray
    y_old: np.ndarray
    F: np.ndarray

    def __call__(self, t):
        if np.ndim(t):
            return np.array([self(ti) for ti in t]).T
        ascending = self.ts[-1] >= self.ts[0]
        ts = self.ts if ascending else self.ts[::-1]
        last = len(self.h) - 1
        seg = int(np.searchsorted(ts, t, "left" if ascending else "right"))
        seg = min(max(seg - 1, 0), last)
        if not ascending:
            seg = last - seg
        return _interpolate(t, self.t_old[seg], self.h[seg], self.y_old[seg],
                            self.F[seg])


@dataclass(frozen=True)
class Trajectory:
    """A flight's steps, with its work per member: accepted and rejected
    steps, and the states the right-hand side evaluated in all."""

    t: np.ndarray
    y: np.ndarray  # shape (dim, len(t))
    dense: _DenseOutput | None  # callable t -> state, or None
    t_events: tuple | None = None
    y_events: tuple | None = None
    accepted_steps: np.ndarray | None = None  # per member
    rejected_steps: np.ndarray | None = None  # per member
    states_evaluated: int = 0

    def __call__(self, t):
        if self.dense is None:
            raise InternalInconsistencyError(
                "trajectory has no dense output to evaluate: "
                "it was integrated with dense=False")
        return self.dense(t)

    @property
    def final(self) -> np.ndarray:
        return self.y[:, -1]


def _norms(W, k):
    """The 2-norm of each member's part of each row of W, a row being a
    flat (n, k) stack: shape (len(W), k).  Bit for bit as np.linalg.norm
    takes it of the part alone, since both use BLAS's dot."""
    E = np.ascontiguousarray(W.reshape(len(W), -1, k).transpose(0, 2, 1))
    return np.sqrt(np.matmul(E[..., None, :], E[..., None])[..., 0, 0])


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
    flight.  A step size that underflows, or a step size or error estimate
    that is not finite, ends the flight with a SingularityError.

    x0 of shape (n, m) is a stack of m starts flown in one loop, each
    member with its own time, step size and rejections, so with the steps
    of its own flight.  f then takes the times of the k members in the
    call, an array, and their states as the flattened (n, k) row-major
    stack, and returns their derivatives likewise.  Without events every
    call holds all m members in x0's order, a member that has reached the
    end standing still, so f may be a family of m systems.  With events,
    ``events`` holds one per member, called with its state, and a member
    leaves the calls at its terminal event or the end of the span.
    ``final`` holds each member's last state and ``t`` the start and the
    latest end; there is no dense output.  A SingularityError names in
    ``members`` the members at fault, by their index in x0.
    """
    tol = float(tol)
    t0, t_end = map(float, t_span)
    x0 = np.asarray(x0, dtype=float)
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be positive and finite, got {tol}")
    if not (math.isfinite(t0) and math.isfinite(t_end)):
        raise DomainError(f"time span must be finite, got {t_span}")
    if not np.isfinite(x0).all():
        raise DomainError("initial state must be finite")
    stacked = x0.ndim == 2
    n, m = x0.shape if stacked else (len(x0), 1)
    events = () if events is None else \
        (events,) if callable(events) else tuple(events)
    if stacked and (dense or len(events) not in (0, m)):
        raise DomainError("a stacked flight takes no dense output and "
                          "one event per member")
    # each member's events, by index into events
    mine = [[j] for j in range(m)] if stacked and events else \
        [list(range(len(events)))]
    # occurrences of each event that end its member's flight
    max_events = np.array([getattr(e, "terminal", None) or math.inf
                           for e in events], dtype=float)
    ev_dir = [getattr(e, "direction", 0) for e in events]
    direction = 1.0 if t_end >= t0 else -1.0
    toward = direction * math.inf
    rtol, atol = max(tol, 100 * _EPS), tol * 1e-2
    states = 0

    def rhs(t, y, who):
        """f at times t and flat states y of the members ``who``."""
        nonlocal states
        states += len(who)
        try:
            return np.asarray(f(t if stacked else t[0], y), dtype=float)
        except SingularityError as e:
            # name the members at fault by their index in x0; with one
            # member in the call, that member is at fault
            if not stacked:
                e.members = e.reasons = ()
            elif e.members or len(who) > 1:
                e.members = tuple(int(who[j]) for j in e.members)
            else:
                e.members = (int(who[0]),)
            raise

    T, Y = np.full(m, t0), x0.reshape(n, m).copy()  # each member's last
    g = [events[e](t0, Y[:, j]) for j, es in enumerate(mine) for e in es]
    t_events = [[] for _ in events]
    y_events = [[] for _ in events]
    count = np.zeros(len(events))
    n_acc, n_rej = np.zeros(m, dtype=int), np.zeros(m, dtype=int)
    ts, ys, steps = [t0], [x0.ravel().copy()], []  # a solo flight's record
    # the members in the calls to f, and per member its time, state,
    # derivative, next |step|, whether its last try was rejected, its
    # accepted and rejected steps, and the end, length and failure of its
    # next try
    cols = np.arange(m)
    t, y = [t0] * m, Y.ravel().copy()
    H, retry, acc, rej = [0.0] * m, [False] * m, [0] * m, [0] * m
    t_new, hh, fail = [t0] * m, [0.0] * m, [None] * m
    rows = np.tile(cols, n)  # the member of each entry of y

    def plan(p):
        """The next try of the member at p, as scipy's step starts it."""
        tp = t[p]
        min_step = 10 * abs(math.nextafter(tp, toward) - tp)
        h_abs = H[p] if retry[p] else max(H[p], min_step)
        if not h_abs >= min_step:
            fail[p] = _TOO_SMALL if math.isfinite(h_abs) else \
                "the step size is not finite"
            h_abs = 0.0
        tn = tp + h_abs * direction
        if direction * (tn - t_end) > 0:
            tn = t_end
        t_new[p], hh[p] = tn, tn - tp  # 0 for a member standing at the end

    def failure(p, reason):
        return SingularityError(
            f"integration failed near t={t[p]:.6g}: {reason}", t=t[p],
            members=(int(cols[p]),) if stacked else ())

    if t0 == t_end:
        cols = cols[:0]
        ts.append(t0)
        ys.append(ys[0])
        steps.append((t0, 1.0, x0.ravel(), np.zeros((7, n))))
    else:  # scipy's initial step
        fy = rhs(np.array(t), y, cols)
        interval = abs(t_end - t0)
        scale = atol + np.abs(y) * rtol
        with np.errstate(over="ignore"):  # d1 = inf gives h0 = 0, as in scipy
            d0, d1 = (_norms(np.array((y / scale, fy / scale)), m)
                      / n ** 0.5).tolist()
        h0 = [min(1e-6 if a < 1e-5 or b < 1e-5 else 0.01 * a / b, interval)
              for a, b in zip(d0, d1)]
        f1 = rhs(t0 + np.array(h0) * direction,
                 y + (np.array(h0) * direction)[rows] * fy, cols)
        df = (_norms((f1 - fy)[None] / scale, m)[0] / n ** 0.5).tolist()
        for p in range(m):
            d2 = df[p] / h0[p] if h0[p] else math.inf
            H[p] = min(100 * h0[p],
                       max(1e-6, h0[p] * 1e-3) if d1[p] <= 1e-15
                       and d2 <= 1e-15 else (0.01 / max(d1[p], d2)) ** (1 / 8),
                       interval)
            plan(p)
            if not h0[p]:  # d1 overflowed, as scipy's next error estimate will
                fail[p] = _TOO_SMALL
    while len(cols):
        k = len(cols)
        if any(fail):
            p = next(p for p in range(k) if fail[p])
            raise failure(p, fail[p])
        h = np.array(hh)
        hs = h[rows]
        tc = np.array(t) + _C[:, None] * h  # the stages' times
        K = np.empty((_S + 1, n * k))
        K[0] = fy
        for s in range(1, _S):
            dy = np.dot(K[:s].T, _A[s, :s]) * hs
            K[s] = rhs(tc[s], y + dy, cols)
        y_new = y + hs * np.dot(K[:-1].T, _B)
        K[-1] = rhs(tc[0] + h, y_new, cols)
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        W = np.array((np.dot(K.T, _dop.E5), np.dot(K.T, _dop.E3))) / scale
        norm5, norm3 = _norms(W, k).tolist()
        # scipy's controller, then the next try, member by member
        h_step, t_old, y_old = hh[:], tc[0], y
        accept = [False] * k
        for p in range(k):
            h_abs = abs(hh[p])
            e5, e3 = norm5[p] ** 2, norm3[p] ** 2
            err = 0.0 if e5 == 0 and e3 == 0 else \
                h_abs * e5 / math.sqrt((e5 + 0.01 * e3) * n)
            if not math.isfinite(err):
                raise failure(p, "the error estimate is not finite")
            if err < 1:
                factor = _MAX_FACTOR if err == 0 else \
                    min(_MAX_FACTOR, _SAFETY * err ** _ERR_EXP)
                if retry[p]:
                    factor = min(1, factor)
                accept[p], retry[p], t[p] = True, False, t_new[p]
                acc[p] += h_abs > 0
            else:
                factor = max(_MIN_FACTOR, _SAFETY * err ** _ERR_EXP)
                retry[p] = True
                rej[p] += 1
            H[p] = h_abs * factor
            plan(p)
        if all(accept):
            y, fy = y_new, K[-1]
        else:
            a = np.array(accept)[rows]
            y, fy = np.where(a, y_new, y), np.where(a, K[-1], fy)
        moved = [p for p in range(k) if accept[p] and h_step[p]]
        leave = [t[p] == t_end for p in range(k)] if events else \
            [all(tp == t_end for tp in t)] * k
        exits = {}  # position -> (time, state) where a terminal event hit
        for p in moved if events or dense else ():
            def interpolant(p=p):
                """t_old, h, y_old and F of the step of the member at p."""
                F = _dense_coefficients(
                    lambda tt, yy: rhs(np.array([tt]), yy, cols[p:p + 1]),
                    K[:, p::k], t_old[p], h_step[p], y_old[p::k],
                    y_new[p::k])
                return t_old[p], h_step[p], y_old[p::k], F
            step = interpolant() if dense else None
            if dense:
                steps.append(step)
            active = []
            for e in mine[cols[p]] if events else ():
                g_old, g[e] = g[e], events[e](t[p], y_new[p::k])
                up, down = g_old <= 0 <= g[e], g_old >= 0 >= g[e]
                d = ev_dir[e]
                if up and d > 0 or down and d < 0 or (up or down) and d == 0:
                    active.append(e)
            if not active:
                continue
            step = step or interpolant()

            def at(tt):
                return _interpolate(tt, *step)
            active = np.array(active)
            count[active] += 1
            roots = np.asarray([
                brentq(lambda tt: events[e](tt, at(tt)), step[0], t[p],
                       xtol=4 * _EPS, rtol=4 * _EPS)
                for e in active])
            if np.any(count[active] >= max_events[active]):
                order = np.argsort(direction * roots)
                active, roots = active[order], roots[order]
                last = np.nonzero(count[active] >= max_events[active])[0][0]
                active, roots = active[:last + 1], roots[:last + 1]
                exits[p] = roots[-1], at(roots[-1])
                leave[p] = True
            for e, te in zip(active, roots):
                t_events[e].append(te)
                y_events[e].append(at(te))
        if not stacked and moved:
            ts.append(exits[0][0] if exits else t[0])
            ys.append(exits[0][1] if exits else y)
        if any(leave):
            out = [p for p in range(k) if leave[p]]
            j = cols[out]
            T[j], Y[:, j] = [t[p] for p in out], y.reshape(n, k)[:, out]
            n_acc[j], n_rej[j] = [acc[p] for p in out], [rej[p] for p in out]
            for p, (te, ye) in exits.items():
                T[cols[p]], Y[:, cols[p]] = te, ye
            stay = [p for p in range(k) if not leave[p]]
            cols = cols[stay]
            t, H, retry, acc, rej, t_new, hh, fail = (
                [v[p] for p in stay]
                for v in (t, H, retry, acc, rej, t_new, hh, fail))
            y = y.reshape(n, k)[:, stay].ravel()
            fy = fy.reshape(n, k)[:, stay].ravel()
            rows = np.tile(np.arange(len(cols)), n)
    if stacked:
        t_out = np.array([t0, T[np.argmax(direction * T)]])
        y_out = np.column_stack((x0.ravel(), Y.ravel()))
    else:
        t_out, y_out = np.array(ts), np.vstack(ys).T
    sol = None
    if dense:
        t_old, hh, y_old, F = map(np.array, zip(*steps))
        sol = _DenseOutput(t_out, t_old, hh, y_old, F)
    return Trajectory(
        t_out, y_out, sol,
        tuple(np.asarray(te) for te in t_events) if events else None,
        tuple(np.asarray(ye) for ye in y_events) if events else None,
        n_acc, n_rej, states,
    )


@dataclass(frozen=True)
class PeriodicLinearSystem:
    """x' = A(t) x with A(t + T) = A(t).

    With ``members`` = m it is a family of m such systems of one period:
    A_of_t then maps the members' times, an array of m, to their
    (m, n, n) matrices.  A ``reversor`` R, an involution with
    A(-t) = -R A(t) R, makes the system time-reversible:
    Phi(-t) = R Phi(t) R, so `monodromy` flies half a period.
    """

    A_of_t: Callable[[float], np.ndarray]
    period: float
    members: int | None = None
    reversor: np.ndarray | None = None

    def __post_init__(self):
        if not 0 < self.period < math.inf:
            raise DomainError("period must be positive and finite")


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
    """X' = A(t) X from X(0) = I over [0, t_end], flattened row-major; a
    family's m members fly as one (n * n, m) stack."""
    m = sys.members
    n = np.shape(sys.A_of_t(0.0 if m is None else np.zeros(m)))[-1]
    if m is None:
        def rhs(t, flat):
            X = flat.reshape(n, n)
            return (np.asarray(sys.A_of_t(t), dtype=float) @ X).ravel()
        x0 = np.eye(n).ravel()
    else:
        def rhs(t, flat):  # member j: A_j X_j, with X_j = X[:, :, j]
            At = np.asarray(sys.A_of_t(t), dtype=float).transpose(1, 2, 0)
            X = flat.reshape(n, n, m)
            return (At[:, :, None, :] * X[None]).sum(axis=1).ravel()
        x0 = np.tile(np.eye(n).reshape(-1, 1), m)
    return n, integrate(rhs, x0, (0.0, t_end), tol, dense=dense)


def reversed_monodromy(R: np.ndarray, Phi: np.ndarray) -> np.ndarray:
    """M = R Phi^-1 R Phi of a system reversible under R, from Phi(T/2) (or
    a stack of them): Phi(-t) = R Phi(t) R and Phi(T/2) = Phi(-T/2) M
    (Magnus and Winkler, *Hill's Equation*, ch. 1)."""
    return R @ np.linalg.solve(Phi, R @ Phi)


def monodromy(sys: PeriodicLinearSystem,
              tol=DEFAULT_TOL) -> Monodromy | list[Monodromy]:
    """Fundamental solution at one period with identity initial condition.

    A family gives a list of one Monodromy per member, from one stacked
    flight in which each member takes the steps of its own.  A system with
    a reversor R flies [0, T/2] only, and M is `reversed_monodromy`.
    """
    R = sys.reversor
    t_end = sys.period if R is None else sys.period / 2
    n, traj = _fundamental_flight(sys, t_end, tol, dense=False)
    # (m, n, n), each member's matrix laid out as a solo flight's
    Phi = np.ascontiguousarray(
        traj.final.reshape(n, n, -1).transpose(2, 0, 1))
    Ms = Phi if R is None else reversed_monodromy(R, Phi)
    monos = [Monodromy(M, sys.period, tol) for M in Ms]
    return monos[0] if sys.members is None else monos


@dataclass(frozen=True)
class ExponentSet:
    multipliers: tuple[complex, ...]
    exponents: tuple[complex, ...]  # principal branch: Im in (-pi/T, pi/T]
    period: float
    blocks: tuple[tuple[complex, tuple[int, ...]], ...]  # per multiplier cluster


def _by_re_im(z: complex):
    return z.real, z.imag


def characteristic_exponents(
        mono: Monodromy | list[Monodromy],
        cluster_tol=1e-8) -> ExponentSet | list[ExponentSet]:
    """Multipliers (eigenvalues of M), principal-branch exponents and the
    Jordan blocks of each multiplier cluster.

    A family (a list of Monodromy) gives a list of ExponentSet from one
    batched eigenvalue solve, with `jordan_form` only for a member whose
    multipliers cluster.  The clusters are jordan_form's own: eigenvalues
    of the complex matrix it reads within cluster_tol * max(|M|_2, 1).  A
    member without one has a block of size 1 per multiplier, so each
    member's ExponentSet is the one it gets alone.
    """
    family = not isinstance(mono, Monodromy)
    monos = list(mono) if family else [mono]
    Ms = np.stack([m.M for m in monos])
    mults = np.linalg.eigvals(Ms)
    if np.min(np.abs(mults)) < 1e-300:
        raise DomainError("monodromy has a zero multiplier: degenerate system")
    Z = Ms.astype(complex)
    lams = np.linalg.eigvals(Z)
    tol = cluster_tol * np.maximum(np.linalg.norm(Z, 2, axis=(1, 2)), 1.0)
    apart = ~np.eye(Ms.shape[-1], dtype=bool)
    gaps = np.abs(lams[:, :, None] - lams[:, None, :])[:, apart]
    clustered = (gaps <= tol[:, None]).any(axis=1)
    out = []
    for mono, M, s, lam, tied in zip(monos, Ms, mults, lams, clustered):
        T = mono.period
        s = sorted(map(complex, s), key=_by_re_im)
        if tied:
            blocks = jordan_form(SquareMatrix(M, NUMERIC),
                                 cluster_tol=cluster_tol).blocks
        else:
            blocks = tuple((z, (1,)) for z in sorted(map(complex, lam),
                                                     key=_by_re_im))
        # cmath.log gives Im in (-pi, pi], hence Im alpha in (-pi/T, pi/T]
        out.append(ExponentSet(tuple(s), tuple(cmath.log(z) / T for z in s),
                               T, blocks))
    return out if family else out[0]


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

    Requires distinct multipliers in exps.blocks.  Reconstructs the
    periodic factors p_j(t) = e^{-a_j t} Phi(t) v_j over one period and
    reports the worst periodicity residual |p_j(t + T) - p_j(t)|.
    """
    T = sys.period
    M = monodromy(sys, tol)
    mults, vecs = np.linalg.eig(M.M)
    if any(sum(sizes) > 1 for _, sizes in exps.blocks):
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


# x -> x, x' -> -x' under t -> -t: Hill's equation is even in t
_HILL_REVERSOR = np.diag([1.0, -1.0])


def hill_system(a, q) -> PeriodicLinearSystem:
    """Mathieu/Hill equation x'' + (a - 2 q cos 2t) x = 0 as a first-order
    pi-periodic system, time-reversible under R = diag(1, -1).

    Arrays a and q (broadcast together, then flattened) give the family
    of their members, whose A_of_t takes the members' times.
    """
    if not (np.isfinite(a).all() and np.isfinite(q).all()):
        raise DomainError("a and q must be finite")
    if np.ndim(a) == 0 and np.ndim(q) == 0:
        def A_of_t(t):
            return np.array([[0.0, 1.0],
                             [-(a - 2.0 * q * math.cos(2.0 * t)), 0.0]])
        return PeriodicLinearSystem(A_of_t, math.pi, reversor=_HILL_REVERSOR)
    a, q = (v.ravel() for v in np.broadcast_arrays(np.asarray(a, float),
                                                   np.asarray(q, float)))

    def A_of_t(t):
        A = np.zeros((len(a), 2, 2))
        A[:, 0, 1] = 1.0
        A[:, 1, 0] = -(a - 2.0 * q * np.cos(2.0 * t))
        return A
    return PeriodicLinearSystem(A_of_t, math.pi, len(a), _HILL_REVERSOR)
