"""Periodic-coefficient linear systems: monodromy, multipliers, exponents.

The shared adaptive integrator (`integrate`) takes the Dormand-Prince
8(5,3) step itself (Hairer, Norsett and Wanner, *Solving ODEs I*, II.10),
with the tableau, step-size controller and initial-step rule of scipy's
DOP853.  It has one event, the one a return map needs: the flight ends
where one component crosses zero in a given sense.  The start's shape
picks one of two loops under that one step rule.  A 1-D start runs
scipy's scalar controller on Python floats and is bit-identical to
``solve_ivp(method="DOP853")`` with that terminal event.  It is sampled
at the times its caller names (``t_eval``): the 7th-order interpolant
costs three more right-hand-side calls, so only a step that holds a
sample or the event's root builds it.  A 2-D stack of starts flies in one
numpy loop: each member keeps its own time, step size and rejections, so
it takes the steps of its own flight and leaves at its end or fault,
while one right-hand-side call per stage serves the members in flight (a
family of systems reads them off `calling.who`), as do three more for the
interpolants of all members whose roots fall in one pass of the loop.
The three-body and surface-of-section modules reuse it, and `monodromy`
flies a family of periodic systems, such as a Hill grid, as one stack.  A
time-reversible system, such as Hill's equation, flies half a period and
`reversed_monodromy` reads M off it, the rule by which the three-body
corrector reads a symmetric orbit's M off its half-period STM.
`characteristic_exponents` reads a family of monodromies in one batch.
"""

from __future__ import annotations

import cmath
import itertools
import math
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate._ivp import dop853_coefficients as _dop
from scipy.optimize import brentq

from .errors import DomainError, NonConvergenceError, SingularityError
from .jordan import jordan_form
from .matrixcore import NUMERIC, SquareMatrix

DEFAULT_TOL = 1e-10
MAX_TRIES = 100_000  # a flight's step tries, about 30 s at 0.3 ms each
_EPS = np.finfo(float).eps
# calling.who: the members, by index in x0, of the stacked call to f in
# progress; f gets (t, y) alone, so that a (t, y) wrapper of f still works
calling = threading.local()

# scipy's DOP853: 12 stages a step, the derivative at the step's end as
# the 13th row of K, three more stages for the dense output
_S = _dop.N_STAGES
_A, _B, _C = _dop.A[:_S, :_S], _dop.B, _dop.C[:_S]
_A_EXTRA, _C_EXTRA = _dop.A[_S + 1:], _dop.C[_S + 1:]
# a flight of one's stage rows of the tableau and stage times in floats
_A_ROWS = [_A[s, :s] for s in range(_S)]
_C_FLOATS = _C.tolist()
# scipy's step-size controller
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _ERR_EXP = 0.9, 0.2, 10, -1 / 8
_TOO_SMALL = "Required step size is less than spacing between numbers."
_FAILURES = (None, _TOO_SMALL, "the step size is not finite")


def _horner(x, u, a, b, c, d, e, f, g, y):
    """One component of DOP853's 7th-order dense output at x = (t - t_old)
    / h, u = 1 - x: a..g are its column of F from the last row up and y
    its value at t_old; scipy's Dop853DenseOutput's operations in their
    order."""
    return (((((((0.0 + a) * x + b) * u + c) * x + d) * u + e) * x + f) * u
            + g) * x + y


def _interpolate(t, t_old, h, y_old, F):
    """The dense output at time t of the step (t_old, h, y_old, F), as
    scipy's Dop853DenseOutput computes it: each component on Python
    floats."""
    x = float((t - t_old) / h)
    u = 1 - x
    return np.array([_horner(x, u, *col)
                     for col in zip(*F[::-1].tolist(), y_old.tolist())])


def _dense_coefficients(rhs, K, t_old, h, y_old, y):
    """The interpolants' F of L members' steps: K holds their 13 stage
    rows, shape (L, 13, n); t_old and h give their steps' starts and
    lengths, L of each (or floats for L = 1); y_old and y, their states at
    both ends, and rhs's states and derivatives are flat (n, L) stacks,
    worked on as (n, L) columns.  The three extra stages are three rhs
    calls on all L members.  Row i of the (7, n L) result is row i of each
    member's F as a flat (n, L) stack, so one member's F is its (7, n)
    array.  Each member gets the bits it gets alone: its stage sums are
    `_combine`'s, and its F's last four rows one gemm of its own."""
    L = np.size(h)
    K = np.reshape(K, (L, _S + 1, -1))
    K = np.concatenate((K, np.empty((L, len(_A_EXTRA), K.shape[2]))), axis=1)
    y_old = np.reshape(y_old, (-1, L))
    for s, (a, c) in enumerate(zip(_A_EXTRA, _C_EXTRA), start=_S + 1):
        dy = _combine(K[:, :s], a[:s]) * h
        K[:, s] = rhs(t_old + c * h, (y_old + dy).ravel()).reshape(-1, L).T
    delta_y = np.reshape(y, (-1, L)) - y_old
    F = np.empty((_dop.INTERPOLATOR_POWER, *delta_y.shape))
    F[0] = delta_y
    F[1] = h * K[:, 0].T - delta_y
    F[2] = 2 * delta_y - h * (K[:, _S] + K[:, 0]).T
    hD = np.matmul(_dop.D, K) * np.reshape(h, (L, 1, 1))  # (L, 4, n)
    F[3:] = hD.transpose(1, 2, 0)
    return F.reshape(len(F), -1)


def _root(row, g_old, step, t):
    """The root of component ``row`` in the step (t_old, h, y_old, F) that
    ends at t, by brentq on that component's interpolant on Python floats;
    g_old is the event's value at t_old, which the step was tested with."""
    t_old, h, y_old, F = step
    col = F[::-1, row].tolist() + [float(y_old[row])]

    def g(tt):
        if tt == t_old:
            return g_old
        x = float((tt - t_old) / h)
        return _horner(x, 1 - x, *col)
    return brentq(g, t_old, t, xtol=4 * _EPS, rtol=4 * _EPS)


@dataclass(frozen=True)
class Trajectory:
    """A flight's steps, or its samples at the times it was asked for,
    with its work per member: accepted and rejected steps, and the states
    the right-hand side evaluated in all."""

    t: np.ndarray
    y: np.ndarray  # shape (dim, len(t))
    t_events: tuple | None = None
    y_events: tuple | None = None
    accepted_steps: np.ndarray | None = None  # per member
    rejected_steps: np.ndarray | None = None  # per member
    states_evaluated: int = 0
    faults: dict | None = None  # a stack's: x0 index -> its error

    @property
    def final(self) -> np.ndarray:
        return self.y[:, -1]


def _norms(W):
    """The 2-norm of each column of each row of W, shape (rows, n, k): shape
    (rows, k).  Bit for bit as np.linalg.norm takes it of the column alone,
    since both use BLAS's dot."""
    E = np.ascontiguousarray(W.transpose(0, 2, 1))
    return np.sqrt(np.matmul(E[..., None, :], E[..., None])[..., 0, 0])


def _rms(v):
    """scipy's RMS norm of one vector, through np.linalg.norm's BLAS dot."""
    return math.sqrt(v.dot(v)) / len(v) ** 0.5


def _combine(K, a):
    """The combination a of each member's stage rows, K of shape (k,
    len(a), n), as C-contiguous (n, k) columns.  One gemv per member, bit
    for bit np.dot(K[j].T, a) of the member alone: one gemv over the whole
    stack rounds an entry by where it falls in BLAS's blocks."""
    return np.matmul(K.transpose(0, 2, 1), a).T.copy()


def _first_guess(d0, d1, interval):
    """scipy's h0, from the scaled RMS norms of the start (d0) and of its
    derivative (d1)."""
    return min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, interval)


def _first_step(h0, d1, df, interval):
    """scipy's initial step, from h0, d1 and the scaled RMS norm df of the
    derivative's change over h0."""
    d2 = df / h0 if h0 else math.inf
    return min(100 * h0, max(1e-6, h0 * 1e-3) if d1 <= 1e-15
               and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** (1 / 8), interval)


def integrate(f: Callable, x0, t_span, tol=DEFAULT_TOL, events=None,
              t_eval=None, relay=None) -> Trajectory:
    """Adaptive DOP853 integration, sampled at ``t_eval`` if given.

    Per-step relative error is bounded by tol (atol scaled to tol * 1e-2
    to keep small components honest).  ``events`` is the package's one
    event, (row, sense) or (row, sense, g0): the flight ends at the first
    root where component ``row`` crosses zero in ``sense`` (+1 up, -1
    down, along the flight), found by brentq on the interpolant of the
    step that holds it, where `solve_ivp` ends at a terminal event y[row]
    of that direction.  g0, the event's value at t0, defaults to x0[row];
    a g0 of ``sense`` lets a start on the zero that already moves that way
    fly on to its next crossing.  ``t_eval`` follows `solve_ivp` too:
    given times in the span, sorted in the flight's direction (repeats
    allowed), ``t`` and ``y`` hold those samples up to the root, each read
    off the interpolant of the step that holds it; without t_eval they
    hold the steps.  Only a step that holds a sample or the root builds
    its interpolant.  A fault ends the flight: a SingularityError from f,
    a step size that underflows, a step size or error estimate that is not
    finite, or MAX_TRIES step tries, a NonConvergenceError with its last
    state.  A lone flight raises its fault.

    The start's shape picks the loop, under scipy's step rule.  A 1-D
    start flies on Python floats, with the stage sums and error norms of
    scipy's numpy calls, bit for bit ``solve_ivp(method="DOP853")``.  x0
    of shape (n, m), m = 1 included, is a stack of m starts in one numpy
    loop, one f call per stage for every member in flight, each member a
    column of the loop's (n, k) arrays; each keeps its own time, step
    size and rejections, and its stages are combined by a BLAS call of its
    own, so it takes the steps of its flight alone, bit for bit if f
    treats its members apart.  f then takes the k members' times, an
    array, and their states as the flattened (n, k) row-major stack, and
    returns their derivatives likewise.  A member leaves the calls at its
    own end: its root, the end of the span, or its fault, which ``faults``
    holds (x0 index: its error, in the order they came).  f's error names
    its members at fault by their place in the call (one alone in it is at
    fault), and the call is made again without them; an error that names
    none of several is raised.  f may be a family of m systems that reads
    its members off ``calling.who``.  With an event, g0 is a float or one
    per member.  ``final`` holds each member's last state and ``t`` the
    start and the latest end; a stack takes no t_eval.  ``relay`` hands a
    member on at its root: relay(j, t, x) gets its index in x0 and the
    root's time and state, and returns None, and the member leaves, or
    (start, g0) of its next leg, which it flies from t0 in its own place
    in the calls; a SingularityError it raises is the member's fault.  A
    relayed member's steps and roots add up over its legs.
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
    if stacked and t_eval is not None:
        raise DomainError("a stacked flight takes no t_eval")
    if relay is not None and not (stacked and events):
        raise DomainError("a relay hands on the members of a stacked "
                          "flight with an event")
    if events is not None:
        row, sense, *g0 = events
        if len(g0) > 1 or row not in range(len(x0)):
            raise DomainError(f"events must be (row, sense[, g0]) with a "
                              f"row of the state, got row {row}")
        if sense not in (1, -1):
            raise DomainError(f"event sense must be +1 or -1, got {sense}")
        g0 = np.asarray(g0[0] if g0 else x0[row], dtype=float)
        if g0.shape not in ((), x0.shape[1:]):
            raise DomainError("event g0 must be a float or one per member")
        events = (int(row), float(sense),
                  np.broadcast_to(g0, x0.shape[1:]).tolist())
    direction = 1.0 if t_end >= t0 else -1.0
    if t_eval is not None:
        t_eval = np.asarray(t_eval, dtype=float)
        ahead = direction * t_eval  # ascending
        if t_eval.ndim != 1 or not (
                (ahead >= direction * t0) & (ahead <= direction * t_end)).all():
            raise DomainError(f"t_eval must be times within {t_span}")
        if (np.diff(ahead) < 0).any():
            raise DomainError("t_eval must be sorted in the flight's direction")
    rtol, atol = max(tol, 100 * _EPS), tol * 1e-2
    # a derivative or step that overflows ends the flight with a
    # SingularityError, so numpy's warnings would only say it first
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if stacked:
            T, Y, *out = _fly_stack(f, x0, t0, t_end, rtol, atol, events,
                                    relay)
            t_out = np.r_[t0, T[np.argmax(direction * T)] if len(T) else t0]
            y_out = np.column_stack((x0.ravel(), Y.ravel()))
        else:
            ts, ys, *out = _fly_one(f, x0, t0, t_end, rtol, atol, events,
                                    t_eval)
            t_out, y_out = np.array(ts), np.array(ys).reshape(-1, len(x0)).T
    t_events, y_events, n_acc, n_rej, states, *faults = out
    return Trajectory(
        t_out, y_out,
        tuple(np.asarray(te) for te in t_events) if events else None,
        tuple(np.asarray(ye) for ye in y_events) if events else None,
        n_acc, n_rej, states, *faults,
    )


def _fly_one(f, y, t, t_end, rtol, atol, event, t_eval):
    """One start's flight, scipy's DOP853 step by step: the stage sums
    K[:s].T.dot(a) * h (np.dot's routine, without its dispatch) and the
    error norms as scipy's numpy calls take them, the controller on Python
    floats.  Returns the steps (the samples, given t_eval) and the states
    there, the event's root, and the work done, within MAX_TRIES tries."""
    n = len(y)
    direction = 1.0 if t_end >= t else -1.0
    toward = direction * math.inf
    states = 0

    def rhs(t, y):
        nonlocal states
        states += 1
        try:
            return f(t, y)
        except OverflowError:  # a float f's ** where numpy's would be inf
            return np.full(n, math.inf)

    def failure(reason):
        return SingularityError(
            f"integration failed near t={t:.6g}: {reason}", t=t)

    row, sense, g = event or (0, 0.0, 0.0)
    t_events, y_events = [], []
    sampled = t_eval is not None
    if sampled:
        ahead, i_eval = direction * t_eval, 0  # the first sample not taken
    ts, ys = ([], []) if sampled else ([t], [y.copy()])
    acc = rej = 0

    def work():
        return [t_events], [y_events], np.array([acc]), np.array([rej]), states

    if t == t_end:  # solve_ivp's one empty step
        if sampled:
            ts, ys = list(t_eval), [y.copy()] * len(t_eval)
        return (ts, ys, *work())
    # scipy's initial step; K's rows are the step's stages, K[0] f(t, y)
    K = np.empty((_S + 1, n))
    KT = [K[:s].T for s in range(_S + 2)]
    K[0] = rhs(t, y)
    interval = abs(t_end - t)
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(K[0] / scale)  # d1 = inf: h0 = 0, as scipy
    h0 = _first_guess(d0, d1, interval)
    f1 = np.asarray(rhs(t + h0 * direction, y + h0 * direction * K[0]),
                    dtype=float)
    h_abs = _first_step(h0, d1, _rms((f1 - K[0]) / scale), interval)
    if h0 == 0:  # d1 overflowed, as scipy's next error estimate will
        raise failure(_TOO_SMALL)
    retry = False

    def interpolant():
        """t_old, h, y_old and F of the step just taken."""
        return t_old, h, y_old, _dense_coefficients(rhs, K, t_old, h, y_old,
                                                    y)

    while True:
        if acc + rej == MAX_TRIES:
            raise NonConvergenceError(f"the flight took {MAX_TRIES} step "
                                      f"tries by t={t:.6g}", best=y)
        # scipy's step: at least min_step, unless it retries a rejection
        min_step = 10 * abs(math.nextafter(t, toward) - t)
        if not retry:
            h_abs = max(h_abs, min_step)
        if not h_abs >= min_step:
            raise failure(_FAILURES[1 if math.isfinite(h_abs) else 2])
        t_new = t + h_abs * direction
        t_new = min(t_new, t_end) if direction > 0 else max(t_new, t_end)
        h = t_new - t
        for s in range(1, _S):
            K[s] = rhs(t + _C_FLOATS[s] * h,
                       y + KT[s].dot(_A_ROWS[s]) * h)
        y_new = y + h * KT[_S].dot(_B)
        K[_S] = rhs(t + h, y_new)
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        w5 = KT[_S + 1].dot(_dop.E5) / scale
        w3 = KT[_S + 1].dot(_dop.E3) / scale
        # the powers are Python's, libm's as scipy's scalars take them
        e5, e3 = math.sqrt(w5.dot(w5)) ** 2, math.sqrt(w3.dot(w3)) ** 2
        h_abs = abs(h)
        if e5 == 0 and e3 == 0:
            err = 0.0
        else:
            d = math.sqrt((e5 + 0.01 * e3) * n)
            err = h_abs * e5 / d if d else math.nan
        if not math.isfinite(err):
            raise failure("the error estimate is not finite")
        grow = _SAFETY * (err ** _ERR_EXP if err else math.inf)
        if err >= 1:
            rej += 1
            h_abs *= max(grow, _MIN_FACTOR)
            retry = True
            continue
        acc += 1
        h_abs *= min(grow, 1.0 if retry else _MAX_FACTOR)
        retry = False
        t_old, y_old, t, y = t, y, t_new, y_new
        step = stop = None
        if event:  # the flight ends at the first root
            g_old, g = g, y[row]
            if sense * g_old <= 0 <= sense * g:
                step = interpolant()
                te = _root(row, g_old, step, t)
                stop = te, _interpolate(te, *step)
                t_events.append(te)
                y_events.append(stop[1])
        if sampled:  # the samples in (t_old, t], t0's in the first step
            end = stop[0] if stop else t
            i_new = int(np.searchsorted(ahead, direction * end, "right"))
            if i_new > i_eval:
                step = step or interpolant()
                ts.extend(t_eval[i_eval:i_new])
                ys.extend(_interpolate(te, *step)
                          for te in t_eval[i_eval:i_new])
                i_eval = i_new
        else:
            ts.append(stop[0] if stop else t)
            ys.append(stop[1] if stop else y)
        if stop or t == t_end:
            return (ts, ys, *work())
        K[0] = K[_S]


def _fly_stack(f, x0, t0, t_end, rtol, atol, event, relay):
    """m starts flown in one loop, scipy's controller over the stack in
    numpy, each state, derivative and stage sum held as (n, k) columns of
    the k members in flight.  Each leaves at its root, t_end or fault, or
    ``relay`` hands it on at its root to a next leg in its own column.
    Returns each member's last time, state and roots, the work and faults."""
    n, m = x0.shape
    direction = 1.0 if t_end >= t0 else -1.0
    toward = direction * math.inf
    clip = np.minimum if direction > 0 else np.maximum  # no step past t_end
    interval = abs(t_end - t0)
    states = 0
    faults, fresh = {}, {}  # x0 index: fault, of all and of this pass

    def fault(j, reason, t=None):  # member j's first fault, by x0 index
        fresh.setdefault(j, SingularityError(reason, t, (j,)))

    def rhs(t, y, who):
        """f at times t and (n, k) states y of the members ``who``; one at
        fault gets an infinite derivative, which no step takes."""
        nonlocal states
        if fresh:
            live = ~np.isin(who, list(fresh))
            if not live.all():
                out = np.full((n, len(who)), math.inf)
                if live.any():
                    out[:, live] = rhs(t[live], y[:, live], who[live])
                return out
        states += len(who)
        calling.who = who
        try:
            return np.asarray(f(t, y.ravel()), dtype=float).reshape(n, -1)
        except SingularityError as e:  # its members leave; call again
            if not e.members and len(who) > 1:  # none named, of several
                raise
            for p, why in zip(e.members or (0,),
                              e.reasons or [str(e)] * len(who)):
                fault(int(who[p]), why, e.t)
        return rhs(t, y, who)

    T, Y = np.full(m, t0), x0.copy()  # each member's last
    t_events, y_events = [[] for _ in range(m)], [[] for _ in range(m)]
    n_acc, n_rej = np.zeros(m, dtype=int), np.zeros(m, dtype=int)
    # the members in the calls to f, and per member its time, state,
    # derivative, whether its last try was rejected, its accepted and
    # rejected steps, the end, length and failure of its next try (0:
    # none, else the index of its reason in _FAILURES), and its event value
    row, sense, g = event or (0, 0.0, [0.0] * m)
    cols, g = np.arange(m), np.array(g)
    t, y = np.full(m, t0), x0.copy()
    retry, acc, rej = np.zeros(m, bool), np.zeros(m, int), np.zeros(m, int)
    leg = np.zeros(m, int)  # the pass at which each member's leg began
    fy, t_new, hh, fail = (np.empty((n, m)), np.empty(m), np.empty(m),
                           np.zeros(m, int))

    def plan(t, H, retry):
        """Each member's next try from |step| H, as scipy's step starts
        it: its end, its length and its failure."""
        min_step = 10 * np.abs(np.nextafter(t, toward) - t)
        h_abs = np.where(retry, H, np.maximum(H, min_step))
        ok = h_abs >= min_step
        tn = clip(t + h_abs * direction, t_end)
        return tn, tn - t, np.where(ok, 0, np.where(np.isfinite(h_abs), 1, 2))

    def launch(who, y):
        """scipy's initial step of the members ``who`` from their states
        y at t0: their derivative there, and the end, length and failure
        of their first try."""
        k = len(who)
        fy = rhs(np.full(k, t0), y, who)
        scale = atol + np.abs(y) * rtol  # d1 = inf gives h0 = 0, as in scipy
        d0, d1 = (_norms(np.array((y / scale, fy / scale)))
                  / n ** 0.5).tolist()
        h0 = np.array([_first_guess(a, b, interval) for a, b in zip(d0, d1)])
        f1 = rhs(t0 + h0 * direction, y + h0 * direction * fy, who)
        df = (_norms((f1 - fy)[None] / scale)[0] / n ** 0.5).tolist()
        H = np.array([_first_step(a, b, c, interval)
                      for a, b, c in zip(h0.tolist(), d1, df)])
        tn, hh, fail = plan(np.full(k, t0), H, np.zeros(k, bool))
        fail[h0 == 0] = 1  # d1 overflowed, as scipy's next error estimate will
        return fy, tn, hh, fail

    leave = np.full(m, t0 == t_end)  # solve_ivp's one empty step
    back = [] if t0 == t_end else list(range(m))  # the members to launch
    for tries in itertools.count():  # a pass: one try of each in flight
        if back:  # each from its start at t0
            fy[:, back], t_new[back], hh[back], fail[back] = launch(
                cols[back], y[:, back])
        if tries >= MAX_TRIES:  # the step budget of a leg, as of a flight
            for p in np.flatnonzero((leg == tries - MAX_TRIES) & ~leave):
                fresh.setdefault(int(cols[p]), NonConvergenceError(
                    f"the flight took {MAX_TRIES} step tries by t={t[p]:.6g}",
                    best=y[:, p].copy()))
        for p in np.flatnonzero(fail * ~leave).tolist():  # next try fails
            fault(int(cols[p]), f"integration failed near t={t[p]:.6g}: "
                  f"{_FAILURES[fail[p]]}", float(t[p]))
        if fresh:
            leave |= np.isin(cols, list(fresh))
            faults.update(fresh)
            fresh.clear()
        if leave.any():  # every member's one way out
            j = cols[leave]
            T[j], Y[:, j] = t[leave], y[:, leave]
            n_acc[j], n_rej[j] = acc[leave], rej[leave]
            stay = ~leave
            cols = cols[stay]
            t, retry, acc, rej, t_new, hh, fail, g, leg = (v[stay] for v in (
                t, retry, acc, rej, t_new, hh, fail, g, leg))
            y, fy = y[:, stay], fy[:, stay]
        if not len(cols):
            return T, Y, t_events, y_events, n_acc, n_rej, states, faults
        h = hh
        tc = t + _C[:, None] * h  # the stages' times
        K = np.empty((len(cols), _S + 1, n))  # each member's stage rows
        K[:, 0] = fy.T
        for s in range(1, _S):
            dy = _combine(K[:, :s], _A[s, :s]) * h
            K[:, s] = rhs(tc[s], y + dy, cols).T
        y_new = y + h * _combine(K[:, :-1], _B)
        f_new = rhs(tc[0] + h, y_new, cols)
        K[:, -1] = f_new.T
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        W = np.array((_combine(K, _dop.E5), _combine(K, _dop.E3))) / scale
        norm5, norm3 = _norms(W).tolist()
        # scipy's controller over the stack, then the next tries.  The
        # powers are Python's, libm's as scipy's scalars take them, and
        # the rest is exact arithmetic.  An accepted try has err < 1, so
        # grow >= 0.9, and a rejected one grow <= 0.9: the clip below is
        # scipy's min(10, grow), min(1, .) after a rejection, or
        # max(0.2, grow)
        h_step, t_old, y_old = h, tc[0], y
        h_abs = np.abs(h)
        e5 = np.array([v ** 2 for v in norm5])
        e3 = np.array([v ** 2 for v in norm3])
        err = np.where((e5 == 0) & (e3 == 0), 0.0,
                       h_abs * e5 / np.sqrt((e5 + 0.01 * e3) * n))
        for p in np.flatnonzero(~np.isfinite(err)).tolist():
            fault(int(cols[p]), f"integration failed near t={t[p]:.6g}: "
                  "the error estimate is not finite", float(t[p]))
        grow = _SAFETY * np.array([v ** _ERR_EXP if v else math.inf
                                   for v in err.tolist()])
        factor = np.minimum(np.maximum(grow, _MIN_FACTOR),
                            np.where(retry, 1.0, _MAX_FACTOR))
        accept = err < 1
        acc += accept
        rej += ~accept
        t, retry = np.where(accept, t_new, t), ~accept
        t_new, hh, fail = plan(t, h_abs * factor, retry)
        y, fy = np.where(accept, y_new, y), np.where(accept, f_new, fy)
        leave = t == t_end
        back = []  # the positions of the members handed on
        lands = []  # one array test finds the members whose root is here
        if event:
            g_old, g = g, np.where(accept, y_new[row], g)
            lands = np.flatnonzero(accept & (sense * g_old <= 0)
                                   & (sense * g >= 0)).tolist()
        if lands:  # their interpolants, three rhs calls for them all
            F = _dense_coefficients(
                lambda tt, yy: rhs(tt, yy.reshape(n, -1), cols[lands]),
                K[lands], t_old[lands], h_step[lands], y_old[:, lands],
                y_new[:, lands]).reshape(-1, n, len(lands))
        for i, p in enumerate(lands):
            j = cols[p]
            if j in fresh:  # its interpolant's fault
                continue
            step = t_old[p], h_step[p], y_old[:, p], F[:, :, i]
            te = _root(row, g_old[p], step, t[p])
            t_events[j].append(te)
            y_events[j].append(_interpolate(te, *step))
            try:
                nxt = relay and relay(int(j), te, y_events[j][-1])
            except SingularityError as e:  # the relay's fault is its own
                fault(int(j), str(e), e.t)
                continue
            if nxt is None:  # its flight ends at the root
                t[p], y[:, p], leave[p] = te, y_events[j][-1], True
                continue
            try:  # its next leg, from t0, in its column
                start, g[p] = nxt
            except (TypeError, ValueError):
                start = None
            if np.shape(start) != (n,):
                raise DomainError("a relay returns None or (start, g0), a "
                                  f"start of {n} floats")
            t[p], y[:, p], leave[p], leg[p] = t0, start, False, tries + 1
            back.append(p)


@dataclass(frozen=True)
class PeriodicLinearSystem:
    """x' = A(t) x with A(t + T) = A(t).

    With ``members`` = m it is a family of m such systems of one period:
    A_of_t(t, who) then maps the times of the members ``who`` to their
    (len(who), n, n) matrices.  A ``reversor`` R, an involution with
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


def _fundamental_flight(sys: PeriodicLinearSystem, t_end: float,
                        tol: float) -> tuple[int, Trajectory]:
    """X' = A(t) X from X(0) = I over [0, t_end], flattened row-major; a
    family's m members fly as one (n * n, m) stack."""
    m = sys.members
    with np.errstate(over="ignore", invalid="ignore"):  # integrate reports it
        n = np.shape(sys.A_of_t(0.0) if m is None
                     else sys.A_of_t(np.zeros(m), np.arange(m)))[-1]
    if m is None:
        def rhs(t, flat):
            X = flat.reshape(n, n)
            return (np.asarray(sys.A_of_t(t), dtype=float) @ X).ravel()
        x0 = np.eye(n).ravel()
    else:
        def rhs(t, flat):  # member j: A_j X_j, with X_j = X[:, :, j]
            At = np.asarray(sys.A_of_t(t, calling.who),
                            dtype=float).transpose(1, 2, 0)
            X = flat.reshape(n, n, -1)
            return (At[:, :, None, :] * X[None]).sum(axis=1).ravel()
        x0 = np.tile(np.eye(n).reshape(-1, 1), m)
    return n, integrate(rhs, x0, (0.0, t_end), tol)


def reversed_monodromy(R: np.ndarray, Phi: np.ndarray) -> np.ndarray:
    """M = R Phi^-1 R Phi of a system reversible under R, from Phi(T/2) (or
    a stack of them): Phi(-t) = R Phi(t) R and Phi(T/2) = Phi(-T/2) M
    (Magnus and Winkler, *Hill's Equation*, ch. 1)."""
    return R @ np.linalg.solve(Phi, R @ Phi)


def monodromy(sys: PeriodicLinearSystem,
              tol=DEFAULT_TOL) -> Monodromy | list[Monodromy]:
    """Fundamental solution at one period with identity initial condition.

    A family gives a list of one Monodromy per member, from one stacked
    flight in which each member takes the steps of its own, or raises its
    members' first fault.  A system with a reversor R flies [0, T/2] only,
    and M is `reversed_monodromy`.
    """
    R = sys.reversor
    t_end = sys.period if R is None else sys.period / 2
    n, traj = _fundamental_flight(sys, t_end, tol)
    if traj.faults:  # a family's first fault ends it
        raise next(iter(traj.faults.values()))
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
    clustered = (gaps <= tol[:, None]).any(axis=1).tolist()
    out = []  # each member read off plain rows of Python complex numbers
    for mono, M, s, lam, tied in zip(monos, Ms, mults.astype(complex).tolist(),
                                     lams.tolist(), clustered):
        T = mono.period
        s.sort(key=_by_re_im)
        if tied:
            blocks = jordan_form(SquareMatrix(M, NUMERIC),
                                 cluster_tol=cluster_tol).blocks
        else:
            lam.sort(key=_by_re_im)
            blocks = tuple([(z, (1,)) for z in lam])
        # cmath.log gives Im in (-pi, pi], hence Im alpha in (-pi/T, pi/T]
        out.append(ExponentSet(tuple(s), tuple([cmath.log(z) / T for z in s]),
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
    mods = [(s, abs(s)) for s in exps.multipliers]
    marginal = tuple([s for s, r in mods if abs(r - 1.0) <= tol])
    above = [s for s, r in mods if r > 1.0 + tol]
    if above:
        return PeriodicStabilityVerdict(UNSTABLE, tuple(above), marginal)
    secular_witnesses = []
    for lam, sizes in exps.blocks:
        if abs(abs(lam) - 1.0) <= tol and max(sizes) >= 2:
            secular_witnesses.append((lam, max(sizes)))
    if secular_witnesses:
        return PeriodicStabilityVerdict(SECULAR, tuple(secular_witnesses), marginal)
    return PeriodicStabilityVerdict(BOUNDED, tuple(exps.multipliers), marginal)


# x -> x, x' -> -x' under t -> -t: Hill's equation is even in t
_HILL_REVERSOR = np.diag([1.0, -1.0])


def hill_system(a, q) -> PeriodicLinearSystem:
    """Mathieu/Hill equation x'' + (a - 2 q cos 2t) x = 0 as a first-order
    pi-periodic system, time-reversible under R = diag(1, -1).

    Arrays a and q (broadcast together, then flattened) give the family
    of their members, whose A_of_t(t, who) reads a[who] and q[who].
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

    def A_of_t(t, who):
        A = np.zeros((len(who), 2, 2))
        A[:, 0, 1] = 1.0
        A[:, 1, 0] = -(a[who] - 2.0 * q[who] * np.cos(2.0 * t))
        return A
    return PeriodicLinearSystem(A_of_t, math.pi, len(a), _HILL_REVERSOR)
