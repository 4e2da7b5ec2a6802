"""Periodic-coefficient linear systems: monodromy, multipliers, exponents.

The shared adaptive integrator (`integrate`) takes the Dormand-Prince
8(5,3) step itself (Hairer, Norsett and Wanner, *Solving ODEs I*, II.10),
with the tableau, step-size controller and initial-step rule of scipy's
DOP853 and the event semantics of `solve_ivp`.  The start's width picks
one of two loops under that one step rule.  A flight of one start, alone
or as a stack of one, runs scipy's scalar controller on Python floats
and is bit-identical to ``solve_ivp(method="DOP853")``.  A lone start is
sampled at the times its caller names (``t_eval``): the 7th-order
interpolant costs three more right-hand-side calls, so only a step that
holds a sample or an event builds it.  A stack of starts flies in one
numpy loop: each member keeps its own time, step size and rejections,
so it takes the steps of its own flight, while one vectorized
right-hand-side call per stage serves every member.  The three-body and
surface-of-section modules reuse it, and `monodromy` flies a family of
periodic systems, such as a Hill grid, as one stack.  A
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

from .errors import DomainError, SingularityError
from .jordan import jordan_form
from .matrixcore import NUMERIC, SquareMatrix

DEFAULT_TOL = 1e-10
_EPS = np.finfo(float).eps

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


def _fires(g_old, g, direction):
    """Whether an event of scipy's ``direction`` fires as its value goes
    from g_old to g over a step, as solve_ivp decides it."""
    up, down = g_old <= 0 <= g, g_old >= 0 >= g
    return up and direction > 0 or down and direction < 0 or (
        up or down) and direction == 0


def _root(event, step, t):
    """The event's root in the step (t_old, h, y_old, F) that ends at t,
    by brentq on the step's interpolant."""
    return brentq(lambda tt: event(tt, _interpolate(tt, *step)), step[0], t,
                  xtol=4 * _EPS, rtol=4 * _EPS)


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

    @property
    def final(self) -> np.ndarray:
        return self.y[:, -1]


def _norms(W, k):
    """The 2-norm of each member's part of each row of W, a row being a
    flat (n, k) stack: shape (len(W), k).  Bit for bit as np.linalg.norm
    takes it of the part alone, since both use BLAS's dot."""
    E = np.ascontiguousarray(W.reshape(len(W), -1, k).transpose(0, 2, 1))
    return np.sqrt(np.matmul(E[..., None, :], E[..., None])[..., 0, 0])


def _rms(v):
    """scipy's RMS norm of one vector, through np.linalg.norm's BLAS dot."""
    return math.sqrt(v.dot(v)) / len(v) ** 0.5


def _combine(K, a):
    """The combination a of each member's stage rows, K of shape (k,
    len(a), n), as the flat (n, k) stack.  One gemv per member, bit for
    bit np.dot(K[j].T, a) of the member alone: one gemv over the whole
    stack rounds an entry by where it falls in BLAS's blocks."""
    if len(K) == 1:  # the same gemv, without the batch loop
        return np.dot(K[0].T, a)
    return np.matmul(K.transpose(0, 2, 1), a).T.ravel()


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
              t_eval=None) -> Trajectory:
    """Adaptive DOP853 integration, sampled at ``t_eval`` if given.

    Per-step relative error is bounded by tol (atol scaled to tol * 1e-2
    to keep small components honest).  Events follow `solve_ivp`: each is
    a function g(t, x) with optional ``terminal`` and ``direction``, its
    roots are found by brentq on the interpolant of the step that holds
    them, and a terminal one ends the flight at its root.  ``t_eval``
    follows `solve_ivp` too: given times in the span, sorted in the
    flight's direction (repeats allowed), ``t`` and ``y`` hold those
    samples up to a terminal event's root, each read off the interpolant
    of the step that holds it; without t_eval they hold the steps.  Only
    a step that holds a sample or an event builds its interpolant.  A
    step size that underflows, or a step size or error estimate that is
    not finite, ends the flight with a SingularityError.

    x0 of shape (n, m) is a stack of m starts, each member with its own
    time, step size and rejections.  f then takes the times of the k
    members in the call, an array, and their states as the flattened
    (n, k) row-major stack, and returns their derivatives likewise.
    Without events every call holds all m members in x0's order, a member
    that has reached the end standing still, so f may be a family of m
    systems.  With events, ``events`` holds one per member, called with
    its state, and a member leaves the calls at its terminal event or the
    end of the span.  ``final`` holds each member's last state and ``t``
    the start and the latest end; it takes no t_eval.  A SingularityError
    names in ``members`` the members at fault, by their index in x0.

    The start's width picks the loop, under one step rule, scipy's.  A
    flight of one, a lone start or a stack of one, runs scipy's scalar
    controller on Python floats, with the stage sums and error norms of
    scipy's numpy calls, so it is bit for bit ``solve_ivp(method=
    "DOP853")``.  A stack of m > 1 runs the controller over the stack in
    numpy, with one f call per stage for every member in flight; each
    member's stages are combined by a BLAS call of its own, so a member
    takes the steps of its flight alone, bit for bit if f treats its
    members apart.
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
    if stacked and (t_eval is not None or len(events) not in (0, m)):
        raise DomainError("a stacked flight takes no t_eval and one event "
                          "per member")
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
    if m > 1:
        T, Y, *out = _fly_stack(f, x0, t0, t_end, rtol, atol, events)
        t_out = np.array([t0, T[np.argmax(direction * T)]])
        y_out = np.column_stack((x0.ravel(), Y.ravel()))
    else:
        ts, ys, *out = _fly_one(f, x0.ravel(), t0, t_end, rtol, atol, events,
                                t_eval, stacked)
        if stacked:
            t_out = np.array([t0, ts[-1]])
            y_out = np.column_stack((x0.ravel(), ys[-1]))
        else:
            t_out, y_out = np.array(ts), np.array(ys).reshape(-1, n).T
    t_events, y_events, n_acc, n_rej, states = out
    return Trajectory(
        t_out, y_out,
        tuple(np.asarray(te) for te in t_events) if events else None,
        tuple(np.asarray(ye) for ye in y_events) if events else None,
        n_acc, n_rej, states,
    )


def _fly_one(f, y, t, t_end, rtol, atol, events, t_eval, stacked):
    """One start's flight, scipy's DOP853 step by step: the stage sums
    np.dot(K[:s].T, a) * h and the error norms as scipy's numpy calls take
    them, the controller on Python floats.  A stack of one (``stacked``)
    is called with its time in an array and named as member 0 in a
    SingularityError.  Returns the steps (the samples, given t_eval) and
    the states there, the events, and the work done."""
    n = len(y)
    direction = 1.0 if t_end >= t else -1.0
    toward = direction * math.inf
    states = 0

    def rhs(t, y):
        nonlocal states
        states += 1
        try:
            return f(np.array([t]) if stacked else t, y)
        except SingularityError as e:
            if stacked:
                e.members = (0,)
            else:
                e.members = e.reasons = ()
            raise

    def failure(reason):
        return SingularityError(
            f"integration failed near t={t:.6g}: {reason}", t=t,
            members=(0,) if stacked else ())

    g = [e(t, y) for e in events]
    ev_dir = [getattr(e, "direction", 0) for e in events]
    # occurrences of each event that end the flight
    max_events = [getattr(e, "terminal", None) or math.inf for e in events]
    count = [0] * len(events)
    t_events, y_events = [[] for _ in events], [[] for _ in events]
    sampled = t_eval is not None
    if sampled:
        ahead, i_eval = direction * t_eval, 0  # the first sample not taken
    ts, ys = ([], []) if sampled else ([t], [y.copy()])
    acc = rej = 0

    def work():
        return t_events, y_events, np.array([acc]), np.array([rej]), states

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
    with np.errstate(over="ignore"):  # d1 = inf gives h0 = 0, as in scipy
        d0, d1 = _rms(y / scale), _rms(K[0] / scale)
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
                       y + np.dot(KT[s], _A_ROWS[s]) * h)
        y_new = y + h * np.dot(KT[_S], _B)
        K[_S] = rhs(t + h, y_new)
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        w5 = np.dot(KT[_S + 1], _dop.E5) / scale
        w3 = np.dot(KT[_S + 1], _dop.E3) / scale
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
        active = []
        for e, event in enumerate(events):
            g_old, g[e] = g[e], event(t, y)
            if _fires(g_old, g[e], ev_dir[e]):
                active.append(e)
        if active:
            step = interpolant()
            hits = [(e, _root(events[e], step, t)) for e in active]
            for e in active:
                count[e] += 1
            if any(count[e] >= max_events[e] for e in active):
                # the flight ends at the first root of a terminal event
                hits.sort(key=lambda hit: direction * hit[1])
                last = next(i for i, (e, _) in enumerate(hits)
                            if count[e] >= max_events[e])
                del hits[last + 1:]
                stop = hits[-1][1], _interpolate(hits[-1][1], *step)
            for e, te in hits:
                t_events[e].append(te)
                y_events[e].append(_interpolate(te, *step))
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


def _fly_stack(f, x0, t0, t_end, rtol, atol, events):
    """m > 1 starts flown in one loop, scipy's controller over the stack in
    numpy.  Returns each member's last time and state, its events, and the
    work done."""
    n, m = x0.shape
    direction = 1.0 if t_end >= t0 else -1.0
    toward = direction * math.inf
    clip = np.minimum if direction > 0 else np.maximum  # no step past t_end
    # occurrences of each member's event that end its flight
    max_events = [getattr(e, "terminal", None) or math.inf for e in events]
    ev_dir = [getattr(e, "direction", 0) for e in events]
    states = 0

    def rhs(t, y, who):
        """f at times t and flat states y of the members ``who``."""
        nonlocal states
        states += len(who)
        try:
            return np.asarray(f(t, y), dtype=float)
        except SingularityError as e:
            # name the members at fault by their index in x0; with one
            # member in the call, that member is at fault
            if e.members or len(who) > 1:
                e.members = tuple(int(who[j]) for j in e.members)
            else:
                e.members = (int(who[0]),)
            raise

    T, Y = np.full(m, t0), x0.copy()  # each member's last
    g = [e(t0, Y[:, j]) for j, e in enumerate(events)]
    t_events = [[] for _ in events]
    y_events = [[] for _ in events]
    count = [0] * len(events)
    n_acc, n_rej = np.zeros(m, dtype=int), np.zeros(m, dtype=int)
    # the members in the calls to f, and per member its time, state,
    # derivative, whether its last try was rejected, its accepted and
    # rejected steps, and the end, length and failure of its next try
    # (0: none, else the index of its reason in _FAILURES)
    cols = np.arange(m)
    t, y = np.full(m, t0), x0.ravel().copy()
    retry, acc, rej = np.zeros(m, bool), np.zeros(m, int), np.zeros(m, int)
    rows = np.tile(cols, n)  # the member of each entry of y

    def plan(t, H, retry):
        """Each member's next try from |step| H, as scipy's step starts
        it: its end, its length and its failure."""
        min_step = 10 * np.abs(np.nextafter(t, toward) - t)
        h_abs = np.where(retry, H, np.maximum(H, min_step))
        ok = h_abs >= min_step  # a member that fails is not flown again
        tn = clip(t + h_abs * direction, t_end)
        # a length of 0 for a member standing at the end
        return tn, tn - t, np.where(ok, 0, np.where(np.isfinite(h_abs), 1, 2))

    def failure(p, reason):
        return SingularityError(
            f"integration failed near t={t[p]:.6g}: {reason}", t=float(t[p]),
            members=(int(cols[p]),))

    if t0 == t_end:  # solve_ivp's one empty step
        cols = cols[:0]
    else:  # scipy's initial step
        fy = rhs(np.array(t), y, cols)
        interval = abs(t_end - t0)
        scale = atol + np.abs(y) * rtol
        with np.errstate(over="ignore"):  # d1 = inf gives h0 = 0, as in scipy
            d0, d1 = (_norms(np.array((y / scale, fy / scale)), m)
                      / n ** 0.5).tolist()
        h0 = [_first_guess(a, b, interval) for a, b in zip(d0, d1)]
        f1 = rhs(t0 + np.array(h0) * direction,
                 y + (np.array(h0) * direction)[rows] * fy, cols)
        df = (_norms((f1 - fy)[None] / scale, m)[0] / n ** 0.5).tolist()
        H = np.array([_first_step(a, b, c, interval)
                      for a, b, c in zip(h0, d1, df)])
        t_new, hh, fail = plan(t, H, retry)
        # d1 overflowed, as scipy's next error estimate will
        fail[np.array(h0) == 0] = 1
    while len(cols):
        k = len(cols)
        if fail.any():
            p = int(np.flatnonzero(fail)[0])
            raise failure(p, _FAILURES[fail[p]])
        h = hh
        hs = h[rows]
        tc = t + _C[:, None] * h  # the stages' times
        K = np.empty((k, _S + 1, n))  # each member's stage rows
        K[:, 0] = fy.reshape(n, k).T
        for s in range(1, _S):
            dy = _combine(K[:, :s], _A[s, :s]) * hs
            K[:, s] = rhs(tc[s], y + dy, cols).reshape(n, k).T
        y_new = y + hs * _combine(K[:, :-1], _B)
        f_new = rhs(tc[0] + h, y_new, cols)
        K[:, -1] = f_new.reshape(n, k).T
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        W = np.array((_combine(K, _dop.E5), _combine(K, _dop.E3))) / scale
        norm5, norm3 = _norms(W, k).tolist()
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
        with np.errstate(invalid="ignore", divide="ignore"):
            err = np.where((e5 == 0) & (e3 == 0), 0.0,
                           h_abs * e5 / np.sqrt((e5 + 0.01 * e3) * n))
        if not np.isfinite(err).all():
            p = int(np.flatnonzero(~np.isfinite(err))[0])
            raise failure(p, "the error estimate is not finite")
        grow = _SAFETY * np.array([v ** _ERR_EXP if v else math.inf
                                   for v in err.tolist()])
        factor = np.minimum(np.maximum(grow, _MIN_FACTOR),
                            np.where(retry, 1.0, _MAX_FACTOR))
        accept = err < 1
        acc += accept & (h != 0)
        rej += ~accept
        t, retry = np.where(accept, t_new, t), ~accept
        t_new, hh, fail = plan(t, h_abs * factor, retry)
        if accept.all():
            y, fy = y_new, f_new
        else:
            a = accept[rows]
            y, fy = np.where(a, y_new, y), np.where(a, f_new, fy)
        leave = t == t_end if events else np.full(k, (t == t_end).all())
        exits = {}  # position -> (time, state) where a terminal event hit
        t_now = t.tolist()
        moved = np.flatnonzero(accept & (h_step != 0)).tolist()
        for p in moved if events else ():
            j = cols[p]
            g_old, g[j] = g[j], events[j](t_now[p], y_new[p::k])
            if not _fires(g_old, g[j], ev_dir[j]):
                continue
            step = (t_old[p], h_step[p], y_old[p::k], _dense_coefficients(
                lambda tt, yy: rhs(np.array([tt]), yy, cols[p:p + 1]),
                K[p], t_old[p], h_step[p], y_old[p::k], y_new[p::k]))
            te = _root(events[j], step, t_now[p])
            count[j] += 1
            t_events[j].append(te)
            y_events[j].append(_interpolate(te, *step))
            if count[j] >= max_events[j]:
                exits[p] = te, y_events[j][-1]
                leave[p] = True
        if leave.any():
            j = cols[leave]
            T[j], Y[:, j] = t[leave], y.reshape(n, k)[:, leave]
            n_acc[j], n_rej[j] = acc[leave], rej[leave]
            for p, (te, ye) in exits.items():
                T[cols[p]], Y[:, cols[p]] = te, ye
            stay = ~leave
            cols = cols[stay]
            t, retry, acc, rej, t_new, hh, fail = (
                v[stay] for v in (t, retry, acc, rej, t_new, hh, fail))
            y = y.reshape(n, k)[:, stay].ravel()
            fy = fy.reshape(n, k)[:, stay].ravel()
            rows = np.tile(np.arange(len(cols)), n)
    return T, Y, t_events, y_events, n_acc, n_rej, states


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


def _fundamental_flight(sys: PeriodicLinearSystem, t_end: float, tol: float,
                        t_eval=None) -> tuple[int, Trajectory]:
    """X' = A(t) X from X(0) = I over [0, t_end], flattened row-major and
    sampled at t_eval if given; a family's m members fly as one
    (n * n, m) stack."""
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
    return n, integrate(rhs, x0, (0.0, t_end), tol, t_eval=t_eval)


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
    n, traj = _fundamental_flight(sys, t_end, tol)
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

    Requires distinct multipliers in exps.blocks.  One flight, sampled at
    the times it needs, gives M = Phi(T), the periodic factors
    p_j(t) = e^{-a_j t} Phi(t) v_j at n_samples times over one period, and
    the worst periodicity residual |p_j(t + T) - p_j(t)| at 8 times t in
    [0, n_periods T].
    """
    if any(sum(sizes) > 1 for _, sizes in exps.blocks):
        raise DomainError(
            "clustered multipliers: factorization with multiple multipliers "
            "is unsupported; inspect the exponent block report instead"
        )
    T = sys.period
    ts = np.linspace(0.0, T, n_samples, endpoint=False)
    checks = np.linspace(0.0, n_periods * T, 8)
    times = np.concatenate((ts, checks, checks + T, [T]))
    order = np.argsort(times, kind="stable")
    n, traj = _fundamental_flight(sys, times.max(), tol, times[order])
    Phi = np.empty((len(times), n, n))
    Phi[order] = traj.y.T.reshape(-1, n, n)
    mults, vecs = np.linalg.eig(Phi[-1])
    alphas = np.array([cmath.log(complex(s)) / T for s in mults])
    # column j of modes[i] is p_j(times[i])
    modes = Phi @ vecs * np.exp(-np.outer(times, alphas))[:, None, :]
    at_t, at_tT = modes[n_samples:n_samples + 8], modes[n_samples + 8:-1]
    amps = np.linalg.solve(vecs, np.asarray(x0, dtype=complex))
    return FloquetFactorization(
        ts, modes[:n_samples].transpose(2, 1, 0),
        tuple(complex(a) for a in alphas), tuple(complex(a) for a in amps),
        float(np.max(np.abs(at_tT - at_t))),
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
