"""Planar circular restricted three-body problem in the rotating frame.

Nondimensional units throughout: primary separation 1, angular rate 1,
total mass 1.  The primaries sit at (-mu, 0) and (1 - mu, 0).  Each
collinear libration point is the one root of Omega_x on its axis
segment, where Omega_x rises strictly, correctly rounded to a double:
bisection in floats guesses it, and bisection on its exact rational sign,
from a bracket of the guess that the sign confirms, rounds it.

The flow is stated in `eom`, on one state's floats, from the gradient
that `_omega_partials` gives.  `_var_rhs` flies it with the
state-transition matrix, from one flat `_omega_partials` call for Omega's
gradient and Hessian.  `_flow_rhs` evaluates it on stacks of states with
`eom`'s operations in their order, both primaries' terms along one axis,
so that a stack costs about one call's overhead.
`_flow_to_crossing` is the one y = 0 section-crossing locator, shared by
the differential corrector here and by the return maps and manifolds in
`secular.section`.  The crossing is `integrate`'s one event, y crossing
zero in the section's sense, with the value at t = 0 set past the axis
for a start on it; a 1-D start flies alone and a 2-D stack in one loop,
each member relayed from crossing to crossing if asked.  A corrected
orbit's monodromy is read off its half-period STM through the mirror, by
the rule Hill's equation uses.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, NonConvergenceError, SingularityError
from .floquet import integrate, reversed_monodromy

COLLISION_RADIUS = 1e-6
CROSSING_Y_TOL = 1e-12
MIRROR = np.diag([1.0, -1.0, -1.0, 1.0])  # (x, y, vx, vy) -> (x, -y, -vx, vy)


def _check_mu(mu: float) -> float:
    mu = float(mu)
    if not 0.0 < mu <= 0.5:
        raise DomainError(f"mass ratio must lie in (0, 1/2], got {mu}")
    if mu < np.finfo(float).tiny:  # L3's q = Oxx Oyy, of order mu, underflows
        raise DomainError(f"mass ratio {mu} is subnormal")
    return mu


_COLLIDES = "state within collision radius of a primary "


def _radii(x, y, mu):
    """One state's distances to the primaries, on floats."""
    r1 = math.hypot(x + mu, y)
    r2 = math.hypot(x - 1.0 + mu, y)
    if r1 < COLLISION_RADIUS or r2 < COLLISION_RADIUS:
        raise SingularityError(_COLLIDES + f"(r1={r1:.3g}, r2={r2:.3g})")
    return r1, r2


def effective_potential(x, y, mu):
    """Omega = (x^2 + y^2)/2 + (1 - mu)/r1 + mu/r2."""
    r1, r2 = _radii(x, y, mu)
    return 0.5 * (x * x + y * y) + (1.0 - mu) / r1 + mu / r2


def _omega_partials(x, y, mu, hessian=False):
    """Omega's gradient (ox, oy) at (x, y), floats; with ``hessian``, its
    Hessian (oxx, oxy, oyy) follows, from the same radii.  One flat body,
    `_radii`'s check included, since `_var_rhs` calls it at every stage."""
    a, b = x + mu, x - 1.0 + mu
    r1, r2 = math.hypot(a, y), math.hypot(b, y)
    if r1 < COLLISION_RADIUS or r2 < COLLISION_RADIUS:
        raise SingularityError(_COLLIDES + f"(r1={r1:.3g}, r2={r2:.3g})")
    c1, c2 = (1.0 - mu) / r1 ** 3, mu / r2 ** 3
    ox, oy = x - c1 * a - c2 * b, y - c1 * y - c2 * y
    if not hessian:
        return ox, oy
    d1, d2 = 3.0 * (1.0 - mu) / r1 ** 5, 3.0 * mu / r2 ** 5
    return (ox, oy, 1.0 - c1 - c2 + d1 * a ** 2 + d2 * b ** 2,
            d1 * a * y + d2 * b * y, 1.0 - c1 - c2 + d1 * y * y + d2 * y * y)


def _flow_rhs(mu):
    """The equations of motion as an integrator right-hand side.

    z is an array: one state of 4 floats or a stack of k states flattened
    from the (4, k) layout, rows x, y, vx, vy.  One state is evaluated as
    a stack of one, so that it gets the same bits alone as in any stack.
    The README manifolds run makes 6,525 calls, on 196,608 states in all,
    so per-call overhead, not arithmetic, sets their cost: mu is checked
    once, as the closure is built, and each call takes both primaries'
    terms in one numpy call each, along an axis of length 2, with
    `eom`'s operations in its order.  A collision names the
    members at fault, each with a reason that gives its own distances.
    """
    mu = _check_mu(mu)
    mass = np.array([[1.0 - mu], [mu]])
    shift = np.array([[0.0], [1.0]])

    def rhs(t, z):
        S = z.reshape(4, -1)
        x, y = S[0], S[1]
        P = x - shift  # the offsets from the primaries: a, then b
        P += mu
        R = np.hypot(P, y)  # r1, r2
        if R.min() < COLLISION_RADIUS:
            bad = np.flatnonzero((R < COLLISION_RADIUS).any(axis=0))
            pairs = [f"(r1={R[0, j]:.3g}, r2={R[1, j]:.3g})" for j in bad]
            raise SingularityError(_COLLIDES + ", ".join(pairs),
                                   members=tuple(bad.tolist()),
                                   reasons=tuple(_COLLIDES + p for p in pairs))
        C = mass / np.power(R, 3)  # c1, c2
        CP, Cy = C * P, C * y
        out = np.empty(S.shape)
        out[:2] = S[2:]
        out[2] = 2.0 * S[3] + (x - CP[0] - CP[1])
        out[3] = -2.0 * S[2] + (y - Cy[0] - Cy[1])
        return out.ravel()
    return rhs


def eom(state, mu):
    """Rotating-frame equations of motion (x, y, vx, vy) -> derivative."""
    x, y, vx, vy = state
    ox, oy = _omega_partials(x, y, _check_mu(mu))
    return np.array([vx, vy, 2.0 * vy + ox, -2.0 * vx + oy])


def jacobi_constant(state, mu):
    """C = 2 Omega(x, y) - (vx^2 + vy^2), the rotating-frame integral."""
    mu = _check_mu(mu)
    x, y, vx, vy = state
    return 2.0 * effective_potential(x, y, mu) - (vx * vx + vy * vy)


@dataclass(frozen=True)
class LibrationPoint:
    label: str  # L1..L5
    position: tuple[float, float]


def _collinear_root(mu: Fraction, segment: str) -> float:
    """The collinear point on one axis segment, correctly rounded.

    On the x-axis Omega_xx = 1 + 2 (1 - mu) / r1^3 + 2 mu / r2^3 > 0, so
    Omega_x = x - (1 - mu) a / |a|^3 - mu b / |b|^3, a = x + mu and
    b = x - 1 + mu, rises strictly from -inf to +inf across each segment:
    one root.  Bisection over the doubles on Omega_x in floats guesses it,
    and one Newton step on Omega_x's exact value takes out the float
    error of a few eps, many ulps near x = 0.  Omega_x's exact sign, -1
    at or left of the segment and +1 at or right of it (its limits there),
    confirms a bracket 1, 2, 4, ... ulps either side of the guess (else,
    after 8 tries, the whole segment) and drives bisection over the doubles
    to two neighbours; the sign at their exact midpoint picks the nearer
    one.  The root is unique, so every confirmed bracket gives one double.
    """
    lo, hi = {
        "L1": (-mu, 1 - mu),
        "L2": (1 - mu, Fraction(3)),
        "L3": (Fraction(-3), -mu),
    }[segment]
    p, q = mu.numerator, mu.denominator
    (ln, ld), (hn, hd) = lo.as_integer_ratio(), hi.as_integer_ratio()
    fmu, f_lo, f_hi = float(mu), float(lo), float(hi)

    def omega_x(x):
        # x = n/d (a float or a Fraction), tested against the ends in
        # integers: (-1, 0) at or left of the segment, (1, 0) at or right
        # of it; inside, a = A/(d q), b = B/(d q) and Omega_x = v / w,
        # w = d |A|^3 |B|^3 > 0
        n, d = x.as_integer_ratio()
        if n * ld <= ln * d:
            return -1, 0
        if n * hd >= hn * d:
            return 1, 0
        A, B = n * q + p * d, n * q - (q - p) * d
        A3, B3 = abs(A) ** 3, abs(B) ** 3
        return (n * A3 * B3 - d ** 3 * q * ((q - p) * A * B3 + p * B * A3),
                d * A3 * B3)

    def rough(x):  # Omega_x in floats, exact where they fail
        if not f_lo < x < f_hi:
            return -1 if x <= f_lo else 1
        a, b = x + fmu, x - 1.0 + fmu
        try:
            return x - (1.0 - fmu) * a / abs(a) ** 3 - fmu * b / abs(b) ** 3
        except ZeroDivisionError:
            return omega_x(x)[0]

    # doubles at or past the segment's ends, where Omega_x's sign is -1, +1
    x0 = x = math.nextafter(f_lo, -math.inf)
    y0 = y = math.nextafter(f_hi, math.inf)
    while (g := 0.5 * (x + y)) not in (x, y) and (v := rough(g)):
        x, y = (g, y) if v < 0 else (x, g)
    v, w = omega_x(g)
    try:  # w = 0 at or past an end: no step
        g -= v / w / (1.0 + 2.0 * (1.0 - fmu) / abs(g + fmu) ** 3
                      + 2.0 * fmu / abs(g - 1.0 + fmu) ** 3)
    except ArithmeticError:
        pass
    for k in range(8):
        x, y = g - 2.0 ** k * math.ulp(g), g + 2.0 ** k * math.ulp(g)
        if omega_x(x)[0] < 0 < omega_x(y)[0]:
            break
    else:  # the guess is off: the whole segment
        x, y = x0, y0
    while (m := 0.5 * (x + y)) not in (x, y):
        if (v := omega_x(m)[0]) == 0:
            return m
        x, y = (m, y) if v < 0 else (x, m)
    m = (Fraction(x) + Fraction(y)) / 2
    v = omega_x(m)[0]
    return x if v > 0 else y if v < 0 else float(m)  # a tie rounds to even


LIBRATION_LABELS = ("L1", "L2", "L3", "L4", "L5")


def libration_point(mu: float, label: str) -> LibrationPoint:
    """One equilibrium by label; only a collinear one is solved for."""
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
    def center_frequency(self) -> float:
        """Largest oscillation frequency among purely imaginary roots."""
        freqs = [s.imag for s in self.roots
                 if abs(s.real) < 1e-9 and s.imag > 1e-9]
        if not freqs:
            raise DomainError("linearization has no center direction")
        return max(freqs)


def _nearer_primary(point: LibrationPoint, mu: float) -> tuple[str, float]:
    """("primary" or "secondary", the point's distance from it)."""
    x, y = point.position
    r1, r2 = math.hypot(x + mu, y), math.hypot(x - 1.0 + mu, y)
    return ("primary", r1) if r1 < r2 else ("secondary", r2)


def libration_stability(mu: float, point: LibrationPoint) -> LibrationStability:
    """Equation in S at an equilibrium and its stability verdict.

    The linearization x' = A x has the even quartic characteristic
    polynomial s^4 + p s^2 + q, p = 4 - Oxx - Oyy and q = Oxx Oyy - Oxy^2.
    At L4 and L5 (as `libration_point` places them) they are p = 1 and
    q = (27/4) mu (1 - mu) in closed form: Oxx Oyy - Oxy^2 cancels there,
    to a wrong sign at tiny mu.  The
    point is linearly stable iff both roots in s^2 are real, negative and
    distinct (four distinct purely imaginary exponents): p^2 > 4q, p > 0
    and q > 0, which at L4 is Routh's 27 mu (1 - mu) < 1.  q < 0 alone
    decides a saddle x center.  A point inside the collision radius of a
    primary has no linearization: DomainError.
    """
    mu = _check_mu(mu)
    if point.label in ("L4", "L5") and point == libration_point(
            mu, point.label):
        p, q = 1.0, 6.75 * mu * (1.0 - mu)
    else:
        try:
            oxx, oxy, oyy = _omega_partials(*point.position, mu, True)[2:]
        except SingularityError as e:
            near, r = _nearer_primary(point, mu)
            raise DomainError(
                f"{point.label} lies {r:.3g} from the {near}, inside the "
                f"collision radius {COLLISION_RADIUS:g}: no linearization"
            ) from e
        p = 4.0 - oxx - oyy
        q = oxx * oyy - oxy * oxy
    roots = []
    for s2 in np.roots([1.0, p, q]):  # roots in s^2
        r = cmath.sqrt(complex(s2))
        roots.extend([r, -r])
    roots = tuple(sorted(roots, key=lambda z: (z.real, z.imag)))
    if p * p - 4.0 * q > 0.0 and p > 0.0 and q > 0.0:
        verdict = STABLE
    elif q < 0.0:
        verdict = SADDLE_CENTER
    else:
        verdict = COMPLEX_UNSTABLE
    return LibrationStability(point, (p, q), roots, verdict)


def _var_rhs(mu):
    """x' = f(x) jointly with STM' = A(x) STM, packed as 20 floats.

    One state on Python floats: one `_omega_partials` call, one flat body,
    gives the gradient for the flow and the Hessian in A from the same
    radii, with no call under it.  The closure keeps A, whose constant
    entries are set once, and each call returns a new 20-vector: the
    state's derivative, then A STM written into it.
    """
    A = np.array([[0.0, 0.0, 1.0, 0.0],
                  [0.0, 0.0, 0.0, 1.0],
                  [0.0, 0.0, 0.0, 2.0],
                  [0.0, 0.0, -2.0, 0.0]])

    def rhs(t, z):
        x, y, vx, vy = z[:4].tolist()
        ox, oy, A[2, 0], oxy, A[3, 1] = _omega_partials(x, y, mu, True)
        A[2, 1] = A[3, 0] = oxy
        out = np.empty(20)
        out[:4] = vx, vy, 2.0 * vy + ox, -2.0 * vx + oy
        np.matmul(A, z[4:].reshape(4, 4), out=out[4:].reshape(4, 4))
        return out
    return rhs


def _with_stm(state) -> np.ndarray:
    """The start of a joint state and STM flight: state (+) I4."""
    return np.concatenate((np.asarray(state, dtype=float), np.eye(4).ravel()))


def _flow_to_crossing(rhs, z0, t_end, tol, direction, relay=None):
    """Fly z0 to its first y = 0 crossing; returns (t, z) there.

    z0 is one start of n floats (the state, then anything flown with it,
    such as an STM), which `integrate` flies alone, or a stack of m starts
    with shape (n, m), which one `integrate` call flies, each member with
    the steps of its own flight.  One start returns (t, z) or raises; a
    stack returns, per member, (t, z) or the error that ended its flight:
    a NonConvergenceError at t_end, or its fault in `integrate` (a step
    that fails, its step budget, a collision that the RHS names, or a
    SingularityError in its landing step or ``relay``).  A multi-member
    RHS call's SingularityError that names none of them propagates (every
    RHS here names them).  ``relay`` flies a stack's members on
    from crossing to crossing: relay(i, (t, z)) gets member i's crossing
    as it lands and returns its next start, which flies at once in its
    place, or None; member i's outcome is then that of its last flight.

    The crossing is `integrate`'s one event (1, direction, g0), with
    ``direction`` the sign of dy/dt times the sign of t_end.  A start on
    the axis (|y| <= 10 CROSSING_Y_TOL) that already moves that way has
    g0 = ``direction``: the event reads it as past the axis, so it flies
    to its next crossing and pays for no interpolant or root search at
    t = 0.  Any other start's g0 is its y.  The landing starts from the
    event state, read off the interpolant of the step that holds the root
    (the only interpolant the flight builds); if |y| > CROSSING_Y_TOL
    there, one first-order step dt = -y / vy along the flow sets y to zero
    up to rounding.  A y of zero takes the sign of the side the flight
    came from, so the mirror R(x, y, vx, vy) = (x, -y, -vx, vy) maps
    crossings bit for bit.
    """
    z0 = np.asarray(z0, dtype=float)

    def g0(z):
        moving = math.copysign(1.0, z[3]) * math.copysign(1.0, t_end)
        past = abs(z[1]) <= 10.0 * CROSSING_Y_TOL and moving == direction
        return direction if past else z[1]

    def landing(t, z):
        t = float(t)
        if abs(z[1]) > CROSSING_Y_TOL:
            dt = -z[1] / z[3]
            t, z = t + dt, z + dt * rhs(t, z)
        z[1] = z[1] or -direction * 0.0  # the side the flight came from
        return t, z

    missed = "no section crossing within the time budget"
    if z0.ndim == 1:
        traj = integrate(rhs, z0, (0.0, t_end), tol,
                         events=(1, direction, g0(z0)))
        if not len(traj.t_events[0]):
            raise NonConvergenceError(missed, best=traj.final)
        return landing(traj.t_events[0][0], traj.y_events[0][0])
    out = [None] * z0.shape[1]  # None while a member flies

    def relayed(i, t, z):  # a collision in the landing is i's fault
        out[i] = landing(t, z)
        nxt = relay and relay(i, out[i])
        if nxt is not None:
            out[i] = None
            return nxt, g0(nxt)

    traj = integrate(rhs, z0, (0.0, t_end), tol, events=(
        1, direction, [g0(z) for z in z0.T]), relay=relayed)
    final = traj.final.reshape(len(z0), -1)
    return [traj.faults.get(i) or out[i] or NonConvergenceError(
        missed, best=final[:, i]) for i in range(len(out))]


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
    The linear orbit spans x in [L - A, L + A], so an amplitude A that is
    not below the point's distance from the nearer primary is refused.
    """
    mu = _check_mu(mu)
    if point.position[1]:
        raise DomainError(f"no Lyapunov seed off the x-axis: {point.label} "
                          f"is at y = {point.position[1]:.6g}")
    stab = libration_stability(mu, point)
    near, r = _nearer_primary(point, mu)
    if abs(amplitude) >= r:  # NaN passes: integrate refuses the state
        raise DomainError(f"seed amplitude {amplitude:g} reaches the {near}: "
                          f"{point.label} lies {r:.3g} from it")
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
