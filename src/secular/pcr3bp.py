"""Planar circular restricted three-body problem in the rotating frame.

Nondimensional units throughout: primary separation 1, angular rate 1,
total mass 1.  The primaries sit at (-mu, 0) and (1 - mu, 0).  The
collinear libration points are located exactly: the axis equilibrium
condition becomes a quintic with rational coefficients on each axis
segment, isolated with a Sturm chain and refined to 1e-13.

The flow is stated once, in `_derivative`; `_flow_rhs` evaluates it on
stacks of states, and `_var_rhs` evaluates it on one state's floats,
with the state-transition matrix from Omega's Hessian at the same radii.
`_flow_to_crossing` is the one y = 0 section-crossing locator, shared by
the differential corrector here and by the return maps and manifold
layers in `secular.section`; it flies one start, or a stack of starts in
one loop.  A corrected orbit's monodromy is read off its half-period STM
through the mirror, by the rule Hill's equation uses.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DomainError,
    InternalInconsistencyError,
    NonConvergenceError,
    SingularityError,
)
from .floquet import integrate, reversed_monodromy
from .ratpoly import (
    RationalPolynomial,
    RootInterval,
    count_real_roots,
    isolate_real_roots,
    refine_root,
)

COLLISION_RADIUS = 1e-6
CROSSING_Y_TOL = 1e-12
MIRROR = np.diag([1.0, -1.0, -1.0, 1.0])  # (x, y, vx, vy) -> (x, -y, -vx, vy)


def _check_mu(mu: float) -> float:
    mu = float(mu)
    if not 0.0 < mu <= 0.5:
        raise DomainError(f"mass ratio must lie in (0, 1/2], got {mu}")
    return mu


def _radii(x, y, mu):
    """Distances to the primaries; x and y are floats or arrays of them.

    For arrays (a stack of states) a collision names the stack members
    at fault, each with a reason that gives its own distances.
    """
    what = "state within collision radius of a primary "
    if isinstance(x, np.ndarray):
        r1 = np.hypot(x + mu, y)
        r2 = np.hypot(x - 1.0 + mu, y)
        if np.minimum(r1, r2).min() < COLLISION_RADIUS:
            bad = np.flatnonzero((r1 < COLLISION_RADIUS)
                                 | (r2 < COLLISION_RADIUS))
            pairs = [f"(r1={r1[j]:.3g}, r2={r2[j]:.3g})" for j in bad]
            raise SingularityError(what + ", ".join(pairs),
                                   members=tuple(bad.tolist()),
                                   reasons=tuple(what + p for p in pairs))
        return r1, r2
    r1 = math.hypot(x + mu, y)
    r2 = math.hypot(x - 1.0 + mu, y)
    if r1 < COLLISION_RADIUS or r2 < COLLISION_RADIUS:
        raise SingularityError(what + f"(r1={r1:.3g}, r2={r2:.3g})")
    return r1, r2


def effective_potential(x, y, mu):
    """Omega = (x^2 + y^2)/2 + (1 - mu)/r1 + mu/r2."""
    r1, r2 = _radii(x, y, mu)
    return 0.5 * (x * x + y * y) + (1.0 - mu) / r1 + mu / r2


def _omega_partials(x, y, mu, hessian=False):
    """Omega's gradient (ox, oy) at (x, y), floats or arrays; with
    ``hessian``, its Hessian (oxx, oxy, oyy) follows, from the same radii."""
    r1, r2 = _radii(x, y, mu)
    a, b = x + mu, x - 1.0 + mu
    c1, c2 = (1.0 - mu) / r1 ** 3, mu / r2 ** 3
    grad = (x - c1 * a - c2 * b, y - c1 * y - c2 * y)
    if not hessian:
        return grad
    d1, d2 = 3.0 * (1.0 - mu) / r1 ** 5, 3.0 * mu / r2 ** 5
    return grad + (1.0 - c1 - c2 + d1 * a ** 2 + d2 * b ** 2,
                   d1 * a * y + d2 * b * y,
                   1.0 - c1 - c2 + d1 * y * y + d2 * y * y)


def _derivative(x, y, vx, vy, mu, hessian=False):
    """The one statement of the flow: the derivative (x', y', vx', vy') of
    one state (floats) or of a stack of states (arrays), as a tuple; with
    ``hessian``, Omega's Hessian (oxx, oxy, oyy) at the state follows."""
    ox, oy, *second = _omega_partials(x, y, mu, hessian)
    return (vx, vy, 2.0 * vy + ox, -2.0 * vx + oy, *second)


def _flow_rhs(mu):
    """The equations of motion as an integrator right-hand side.

    mu is not checked here: the README manifolds run makes 9,713 calls,
    on 364,913 states in all, so the closure does no more than the
    derivative.  z is one state of 4 floats or a stack of m states
    flattened from the (4, m) layout, rows x, y, vx, vy.  One state is
    evaluated as a stack of one, so that it gets the same bits alone as
    in any stack.
    """
    def rhs(t, z):
        return np.array(_derivative(*np.reshape(z, (4, -1)), mu)).ravel()
    return rhs


def eom(state, mu):
    """Rotating-frame equations of motion (x, y, vx, vy) -> derivative."""
    return np.array(_derivative(*state, _check_mu(mu)))


def jacobi_constant(state, mu):
    """C = 2 Omega(x, y) - (vx^2 + vy^2), the rotating-frame integral."""
    mu = _check_mu(mu)
    x, y, vx, vy = state
    return 2.0 * effective_potential(x, y, mu) - (vx * vx + vy * vy)


@dataclass(frozen=True)
class LibrationPoint:
    label: str  # L1..L5
    position: tuple[float, float]


def _collinear_quintic(mu: Fraction, segment: str) -> RationalPolynomial:
    """Axis equilibrium Omega_x = 0 cleared of denominators on one segment.

    With a = x + mu and b = x - 1 + mu the condition is
    x - (1 - mu) a / |a|^3 - mu b / |b|^3 = 0; fixing the signs of a and b
    on the segment and multiplying by a^2 b^2 yields a quintic.
    """
    X = RationalPolynomial((Fraction(0), Fraction(1)))
    a = X + RationalPolynomial((mu,))
    b = X + RationalPolynomial((mu - 1,))
    lead = X * a * a * b * b
    t1 = (b * b).scale(1 - mu)
    t2 = (a * a).scale(mu)
    if segment == "L1":  # -mu < x < 1 - mu: a > 0, b < 0
        return lead - t1 + t2
    if segment == "L2":  # x > 1 - mu: a > 0, b > 0
        return lead - t1 - t2
    if segment == "L3":  # x < -mu: a < 0, b < 0
        return lead + t1 + t2
    raise DomainError(f"unknown collinear segment {segment!r}")


def _collinear_root(mu: Fraction, segment: str) -> float:
    lo, hi = {
        "L1": (-mu, 1 - mu),
        "L2": (1 - mu, Fraction(3)),
        "L3": (Fraction(-3), -mu),
    }[segment]
    p = _collinear_quintic(mu, segment)
    tol = Fraction(1, 10 ** 13)
    hits = []
    for iv in isolate_real_roots(p):  # one Sturm chain, kept on p
        r = refine_root(p, iv, tol)
        if not lo < r < hi:
            # for tiny mu, L1 and L2 lie closer to 1 - mu than tol and r can
            # land past it: refine on the part of iv inside the segment, if
            # the root is there (the quintic is ±(1 - mu) b^2 at a = 0 and
            # ±mu a^2 at b = 0, so neither end is a root)
            a, b = max(iv.lo, lo), min(iv.hi, hi)
            if a < b and count_real_roots(p, a, b) == 1:
                r = refine_root(p, RootInterval(a, b), tol)
        if lo < r < hi:
            hits.append(r)
    if len(hits) != 1:
        raise InternalInconsistencyError(
            f"expected one collinear equilibrium on segment {segment}, "
            f"found {len(hits)}"
        )
    return float(hits[0])


LIBRATION_LABELS = ("L1", "L2", "L3", "L4", "L5")


def libration_point(mu: float, label: str) -> LibrationPoint:
    """One equilibrium by label; only a collinear one refines a quintic."""
    mu = _check_mu(mu)
    if label not in LIBRATION_LABELS:
        raise DomainError(f"unknown libration point {label!r}")
    if label in ("L4", "L5"):
        y = math.sqrt(3.0) / 2.0
        return LibrationPoint(label, (0.5 - mu, y if label == "L4" else -y))
    return LibrationPoint(label, (_collinear_root(Fraction(mu), label), 0.0))


def libration_points(mu: float) -> list[LibrationPoint]:
    """All five equilibria, ordered L1..L5."""
    return [libration_point(mu, lab) for lab in LIBRATION_LABELS]


STABLE = "linearly_stable"
SADDLE_CENTER = "saddle_center"
COMPLEX_UNSTABLE = "complex_unstable"


@dataclass(frozen=True)
class LibrationStability:
    point: LibrationPoint
    # equation in S of the linearization: s^4 + p s^2 + q = 0
    quartic_coeffs: tuple[float, float]
    roots: tuple[complex, ...]
    verdict: str

    @property
    def stable(self) -> bool:
        return self.verdict == STABLE

    @property
    def center_frequency(self) -> float:
        """Largest oscillation frequency among purely imaginary roots."""
        freqs = [s.imag for s in self.roots
                 if abs(s.real) < 1e-9 and s.imag > 1e-9]
        if not freqs:
            raise DomainError("linearization has no center direction")
        return max(freqs)


def libration_stability(mu: float, point: LibrationPoint) -> LibrationStability:
    """Equation in S at an equilibrium and its stability verdict.

    The linearization x' = A x has the even quartic characteristic
    polynomial s^4 + (4 - Oxx - Oyy) s^2 + (Oxx Oyy - Oxy^2).  The point
    is linearly stable iff both roots in s^2 are real, negative, and
    distinct (four distinct purely imaginary exponents).
    """
    mu = _check_mu(mu)
    x, y = point.position
    oxx, oxy, oyy = _omega_partials(x, y, mu, True)[2:]
    p = 4.0 - oxx - oyy
    q = oxx * oyy - oxy * oxy
    disc = p * p - 4.0 * q
    sigma = np.roots([1.0, p, q])  # roots in s^2
    roots = []
    for s2 in sigma:
        r = cmath.sqrt(complex(s2))
        roots.extend([r, -r])
    roots = tuple(sorted(roots, key=lambda z: (z.real, z.imag)))
    if disc > 0.0 and all(abs(s2.imag) < 1e-12 and s2.real < 0.0 for s2 in sigma):
        verdict = STABLE
    elif any(abs(s.imag) < 1e-9 and s.real > 1e-9 for s in roots):
        verdict = SADDLE_CENTER
    else:
        verdict = COMPLEX_UNSTABLE
    return LibrationStability(point, (p, q), roots, verdict)


def _var_rhs(mu):
    """x' = f(x) jointly with STM' = A(x) STM, packed as 20 floats.

    One state on Python floats: its radii serve the flow and the Hessian
    in A alike.  The closure keeps A, whose constant entries are set once,
    and each call returns a new 20-vector: the state's derivative, then
    A STM written into it.
    """
    A = np.array([[0.0, 0.0, 1.0, 0.0],
                  [0.0, 0.0, 0.0, 1.0],
                  [0.0, 0.0, 0.0, 2.0],
                  [0.0, 0.0, -2.0, 0.0]])

    def rhs(t, z):
        out = np.empty(20)
        (out[0], out[1], out[2], out[3],
         A[2, 0], A[2, 1], A[3, 1]) = _derivative(*z[:4].tolist(), mu, True)
        A[3, 0] = A[2, 1]
        np.matmul(A, z[4:].reshape(4, 4), out=out[4:].reshape(4, 4))
        return out
    return rhs


def _with_stm(state) -> np.ndarray:
    """The start of a joint state and STM flight: state (+) I4."""
    return np.concatenate((np.asarray(state, dtype=float), np.eye(4).ravel()))


def _crossing_event(direction, terminal, past=False):
    """The scipy-style event y = 0 of one state (x, y, ...); with ``past``
    it reads ``direction`` at t = 0, so a start on the axis does not fire."""
    def crossing(t, z):
        return direction if past and t == 0 else z[1]
    crossing.terminal, crossing.direction = terminal, direction
    return crossing


def _flow_to_crossing(rhs, z0, t_end, tol, direction):
    """Fly z0 to its first y = 0 crossing; returns (t, z) there.

    z0 is one start of n floats (the state, then anything flown with it,
    such as an STM), or a stack of m starts with shape (n, m), which
    `integrate` flies in one loop, each member with the steps of its own
    flight, leaving the stack at its own crossing.  One start returns
    (t, z) or raises; a stack returns, per member, (t, z) or the error
    that ended its flight.  A member that the RHS finds in collision, or
    whose step fails, leaves with its own SingularityError and the rest
    fly again without it; one that has not crossed by t_end gets a
    NonConvergenceError.  A SingularityError that names no member
    propagates (every RHS here names the members at fault).

    ``direction`` is the scipy event direction: the sign of dy/dt times
    the sign of t_end.  A start on the axis (|y| <= 10 CROSSING_Y_TOL)
    that already moves in that direction flies to its next crossing: its
    event reads as past the axis at t = 0, so it does not fire there and
    costs no interpolant or root search there.  The landing starts from
    the event state, which is evaluated on the interpolant of the step
    that holds the event (the only interpolant the flight builds); if |y| > CROSSING_Y_TOL there, one first-order step
    dt = -y / vy along the flow sets y to zero up to rounding.  A y of
    zero takes the sign of the side the flight came from, so the mirror
    R(x, y, vx, vy) = (x, -y, -vx, vy) maps crossings bit for bit.
    """
    z0 = np.asarray(z0, dtype=float)
    Z = z0[:, None] if z0.ndim == 1 else z0
    out = [None] * Z.shape[1]
    todo = list(range(Z.shape[1]))
    while todo:
        moving = np.copysign(1.0, Z[3, todo]) * math.copysign(1.0, t_end)
        at_start = ((np.abs(Z[1, todo]) <= 10.0 * CROSSING_Y_TOL)
                    & (moving == direction))
        events = [_crossing_event(direction, 1, a) for a in at_start]
        try:
            traj = integrate(rhs, Z[:, todo], (0.0, t_end), tol,
                             events=events)
        except SingularityError as e:
            if not e.members:
                raise
            reasons = e.reasons or (str(e),) * len(e.members)
            for j, reason in zip(e.members, reasons):
                out[todo[j]] = SingularityError(reason, e.t, (todo[j],))
            todo = [i for i in todo if out[i] is None]
            continue
        final = traj.final.reshape(Z.shape[0], -1)
        for j, i in enumerate(todo):
            if not traj.t_events[j].size:
                out[i] = NonConvergenceError(
                    "no section crossing within the time budget",
                    best=final[:, j])
                continue
            t, z = float(traj.t_events[j][0]), traj.y_events[j][0]
            if abs(z[1]) > CROSSING_Y_TOL:
                dt = -z[1] / z[3]
                t, z = t + dt, z + dt * rhs(t, z)
            z[1] = z[1] or -direction * 0.0  # the side the flight came from
            out[i] = (t, z)
        break
    if z0.ndim == 2:
        return out
    if isinstance(out[0], Exception):
        raise out[0]
    return out[0]


def variational_flow(state0, mu, T, tol=1e-12):
    """Integrate state and state-transition matrix over [0, T]."""
    mu = _check_mu(mu)
    zf = integrate(_var_rhs(mu), _with_stm(state0), (0.0, T), tol).final
    return zf[:4], zf[4:].reshape(4, 4)


@dataclass(frozen=True)
class OrbitRecord:
    initial_state: np.ndarray
    period: float
    monodromy: np.ndarray
    multipliers: tuple[complex, ...]
    exponents: tuple[complex, ...]
    jacobi: float
    crossing_residual: float


def lyapunov_seed(mu: float, point: LibrationPoint, amplitude: float):
    """Linearized planar oscillation seed (state, half-period guess).

    At a collinear point the center mode with frequency w gives
    xi = -A cos(wt), eta = k A sin(wt) with k = (w^2 + Oxx)/(2w); the
    perpendicular x-axis crossing at t = 0 is the corrector's ansatz.
    """
    mu = _check_mu(mu)
    if point.position[1]:
        raise DomainError(f"no Lyapunov seed off the x-axis: {point.label} "
                          f"is at y = {point.position[1]:.6g}")
    stab = libration_stability(mu, point)
    w = stab.center_frequency
    oxx = _omega_partials(*point.position, mu, True)[2]
    k = (w * w + oxx) / (2.0 * w)
    x0 = point.position[0] - amplitude
    vy0 = k * amplitude * w
    state = np.array([x0, 0.0, 0.0, vy0])
    return state, math.pi / w


def correct_periodic(state0, half_period, mu, tol=1e-11, max_iter=25,
                     integrator_tol=1e-12) -> OrbitRecord:
    """Differential correction of a symmetric periodic orbit.

    The guess (x0, 0, 0, vy0) crosses the x-axis perpendicularly; Newton
    on vy0 drives vx to zero at the next perpendicular crossing, using
    the state-transition matrix (mirror-theorem single shooting).  That
    flight's STM also gives the monodromy M = R Phi^-1 R Phi, R = MIRROR.
    """
    mu = _check_mu(mu)
    state = np.asarray(state0, dtype=float).copy()
    if abs(state[1]) > 1e-14 or abs(state[2]) > 1e-14:
        raise DomainError("corrector requires a perpendicular x-axis start "
                          "(x0, 0, 0, vy0)")
    if state[3] == 0:  # a start at rest on the axis "crosses" it at t = 0
        raise DomainError("corrector requires a nonzero vy0")
    rhs = _var_rhs(mu)
    best = state.copy()
    best_resid = math.inf
    for _ in range(max_iter):
        # the return crossing runs against the current start's vy
        direction = -1.0 if state[3] >= 0 else 1.0
        try:
            t_half, zc = _flow_to_crossing(rhs, _with_stm(state),
                                           4.0 * half_period, integrator_tol,
                                           direction)
        except NonConvergenceError as e:
            raise NonConvergenceError(str(e), best=best) from e
        vx, vy = zc[2], zc[3]
        Phi = zc[4:].reshape(4, 4)
        if abs(vx) < best_resid:
            best_resid, best = abs(vx), state.copy()
        if abs(vx) <= tol:
            T, M = 2.0 * t_half, reversed_monodromy(MIRROR, Phi)
            mults = tuple(sorted((complex(s) for s in np.linalg.eigvals(M)),
                                 key=lambda z: (abs(z), z.real, z.imag)))
            # 1/Lambda can underflow to zero for violently unstable orbits
            exps = tuple(cmath.log(s) / T if abs(s) > 1e-300
                         else complex(-math.inf, 0.0) for s in mults)
            return OrbitRecord(state.copy(), T, M, mults, exps,
                               jacobi_constant(state, mu), abs(vx))
        ax = float(eom(zc[:4], mu)[2])
        if abs(vy) < 1e-12:
            raise DomainError("degenerate correction: tangential crossing")
        denom = Phi[2, 3] - ax * Phi[1, 3] / vy
        if abs(denom) < 1e-12:
            raise DomainError(
                "degenerate correction Jacobian: orbit family bifurcation"
            )
        state[3] -= vx / denom
    raise NonConvergenceError(
        f"differential correction did not reach {tol} in {max_iter} steps "
        f"(best residual {best_resid:.3g})",
        best=best,
    )


@dataclass(frozen=True)
class ExponentReport:
    multipliers: tuple[complex, ...]
    exponents: tuple[complex, ...]
    unit_pair_ok: bool
    reciprocal_ok: bool
    det_ok: bool
    flags: tuple[str, ...]
    nontrivial: tuple[complex, ...]  # the two multipliers farthest from 1


def orbit_exponents(orbit: OrbitRecord, unit_tol=1e-5) -> ExponentReport:
    """Multiplier structure report for a periodic orbit.

    Checks the classical invariants: a double unit multiplier (the
    autonomous flow plus the energy integral), the remaining pair
    reciprocal (Lambda, 1/Lambda), and det M = 1.  Failures are flagged,
    not fatal, since near-bifurcation orbits cluster all four near 1.
    The orbit's stability is read from ``nontrivial`` alone: the unit
    pair only splits by integration error.
    """
    mults = orbit.multipliers
    lam_max = max(abs(s) for s in mults)
    tol = unit_tol * max(1.0, lam_max)
    flags = []
    near_unit = [s for s in mults if abs(s - 1.0) <= tol]
    unit_pair_ok = len(near_unit) >= 2
    if not unit_pair_ok:
        flags.append("missing double unit multiplier")
    others = sorted(mults, key=lambda s: abs(s - 1.0))[2:]
    reciprocal_ok = (
        len(others) == 2 and abs(others[0] * others[1] - 1.0) <= tol
    )
    if not reciprocal_ok:
        flags.append("nontrivial pair not reciprocal")
    det = float(np.real(np.prod(mults)))
    det_ok = abs(det - 1.0) <= 1e-6 * max(1.0, lam_max ** 2)
    if not det_ok:
        flags.append(f"det M = {det} differs from 1")
    return ExponentReport(
        mults, orbit.exponents, unit_pair_ok, reciprocal_ok, det_ok,
        tuple(flags), tuple(others),
    )
