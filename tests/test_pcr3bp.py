"""Tests for the planar circular restricted three-body module."""

import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as npp
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from secular import floquet, pcr3bp
from secular.cli import run
from secular.errors import DomainError, NonConvergenceError, SingularityError
from secular.floquet import integrate
from secular.pcr3bp import (
    COMPLEX_UNSTABLE,
    CROSSING_Y_TOL,
    SADDLE_CENTER,
    STABLE,
    LibrationPoint,
    _flow_rhs,
    _flow_to_crossing,
    _var_rhs,
    _with_stm,
    correct_periodic,
    eom,
    jacobi_constant,
    libration_point,
    libration_points,
    libration_stability,
    lyapunov_seed,
    orbit_exponents,
)
from secular.ratpoly import RationalPolynomial, isolate_real_roots, refine_root

MU_EM = 0.012150585  # Earth-Moon-like mass ratio


def _quintic_root(mu, label):
    """The collinear point as a double, by a method of its own: Omega_x = 0
    on the point's axis segment, cleared of a^2 b^2 into a rational
    quintic whose one root there is isolated by its Sturm chain, refined
    to 1e-40 and rounded."""
    mu = Fraction(mu)
    X = RationalPolynomial((Fraction(0), Fraction(1)))
    a = RationalPolynomial((mu, Fraction(1)))
    b = RationalPolynomial((mu - 1, Fraction(1)))
    lead = X * a * a * b * b
    s1, s2, lo, hi = {  # the signs of a and b fixed on each segment
        "L1": (-1, 1, -mu, 1 - mu),
        "L2": (-1, -1, 1 - mu, 3),
        "L3": (1, 1, -3, -mu),
    }[label]
    # lead + s1 (1 - mu) b^2 + s2 mu a^2, summed by numpy on the Fractions
    p = RationalPolynomial(npp.polyadd(lead.coeffs, npp.polyadd(
        (b * b).scale(s1 * (1 - mu)).coeffs,
        (a * a).scale(s2 * mu).coeffs)).tolist())
    roots = [r for iv in isolate_real_roots(p)
             for r in [refine_root(p, iv, Fraction(1, 10 ** 40))]
             if lo < r < hi]
    assert len(roots) == 1
    return float(roots[0])


class TestEom:
    def test_equilibria(self):
        for pt in libration_points(MU_EM):
            d = eom((*pt.position, 0.0, 0.0), MU_EM)
            assert np.max(np.abs(d)) < 1e-10, pt.label

    def test_collision_raises(self):
        with pytest.raises(SingularityError):
            eom((-MU_EM, 0.0, 0.0, 0.0), MU_EM)

    def test_kepler_limit(self):
        # mu -> 0: a circular Kepler orbit of radius r rotates at n = r^(-3/2)
        # in the inertial frame, i.e. at n - 1 in the rotating frame, so the
        # rotating-frame acceleration at (r, 0) is -(n - 1)^2 r.
        mu, r = 1e-12, 1.5
        n = r ** -1.5
        state = (r, 0.0, 0.0, (n - 1.0) * r)
        d = eom(state, mu)
        assert abs(d[2] - (-((n - 1.0) ** 2) * r)) < 1e-9
        assert abs(d[3]) < 1e-9

    def test_bad_mu(self):
        with pytest.raises(DomainError):
            eom((1.0, 1.0, 0.0, 0.0), 0.7)


class TestJacobi:
    def test_l4_value(self):
        # C at L4 with zero velocity is 3 - mu(1 - mu)
        mu = 0.0321
        C = jacobi_constant((0.5 - mu, math.sqrt(3.0) / 2.0, 0.0, 0.0), mu)
        assert abs(C - (3.0 - mu * (1.0 - mu))) < 1e-13

    def test_kinetic_energy_linearity(self):
        state = np.array([0.4, 0.2, 0.1, -0.3])
        doubled = state * [1, 1, 2, 2]
        v2 = state[2] ** 2 + state[3] ** 2
        dC = jacobi_constant(state, MU_EM) - jacobi_constant(doubled, MU_EM)
        assert abs(dC - 3.0 * v2) < 1e-13

    def test_conserved_along_flow(self):
        state0 = [0.5, 0.3, 0.2, -0.1]
        C0 = jacobi_constant(state0, MU_EM)
        f = lambda t, z: eom(z, MU_EM)
        traj = integrate(f, state0, (0.0, 20.0), tol=1e-12,
                         t_eval=np.linspace(0.0, 20.0, 40))
        for z in traj.y.T:
            assert abs(jacobi_constant(z, MU_EM) - C0) < 1e-9 * abs(C0)


class TestLibrationPoints:
    def test_symmetric_mu_l1_at_origin(self):
        pts = libration_points(0.5)
        assert abs(pts[0].position[0]) < 1e-12

    def test_axis_ordering(self):
        pts = {p.label: p.position[0] for p in libration_points(MU_EM)}
        assert pts["L3"] < -MU_EM < pts["L1"] < 1 - MU_EM < pts["L2"]

    def test_l1_against_scalar_bisection(self):
        mu = MU_EM

        def omega_x(x):
            return (x - (1 - mu) * (x + mu) / abs(x + mu) ** 3
                    - mu * (x - 1 + mu) / abs(x - 1 + mu) ** 3)

        expected = brentq(omega_x, -mu + 1e-6, 1 - mu - 1e-6, xtol=1e-14)
        got = libration_points(mu)[0].position[0]
        assert abs(got - expected) < 1e-11

    def test_equilateral_positions(self):
        pts = libration_points(MU_EM)
        assert pts[3].position == (0.5 - MU_EM, math.sqrt(3.0) / 2.0)
        assert pts[4].position == (0.5 - MU_EM, -math.sqrt(3.0) / 2.0)


class TestLibrationPoint:
    def test_matches_libration_points(self):
        for pt in libration_points(MU_EM):
            assert libration_point(MU_EM, pt.label) == pt

    def test_unknown_label(self):
        with pytest.raises(DomainError, match="unknown libration point 'L9'"):
            libration_point(MU_EM, "L9")

    def test_refines_only_the_requested_quintic(self, monkeypatch):
        calls = []
        solve = pcr3bp._collinear_root

        def counted(*args):
            calls.append(args)
            return solve(*args)
        monkeypatch.setattr(pcr3bp, "_collinear_root", counted)
        libration_point(MU_EM, "L2")
        assert len(calls) == 1
        libration_point(MU_EM, "L4")
        assert len(calls) == 1


class TestTinyMu:
    # L1 and L2 lie about (mu/3)^(1/3) from the secondary at 1 - mu: for a
    # tiny mu that is less than a 1e-13 refinement width
    @pytest.mark.parametrize("mu", [1e-42, 1e-100])
    @pytest.mark.parametrize("label", ["L1", "L2"])
    def test_within_one_ulp_of_a_fine_refinement(self, mu, label):
        ref = _quintic_root(mu, label)
        x = libration_point(mu, label).position[0]
        assert abs(x - ref) <= math.ulp(ref)

    # at mu = 1e-100 the exact L1 rounds to 1.0, the float end of its segment
    @given(st.floats(-100.0, math.log10(0.5)).map(
        lambda e: min(0.5, 10.0 ** e)))
    @example(1e-42)
    @example(1e-100)
    @example(0.5)
    @example(MU_EM)
    @settings(max_examples=30, deadline=None)
    def test_is_the_correctly_rounded_root(self, mu):
        for label in ("L1", "L2", "L3"):
            assert (libration_point(mu, label).position[0]
                    == _quintic_root(mu, label))

    # (mu, L1, L2) correctly rounded, as `_quintic_root` gives them
    FROZEN = [
        (1e-20, 0.9999998506198492, 1.0000001493801656),
        (1e-16, 0.9999967817055037, 1.0000032183014012),
        (1e-12, 0.9999306654741015, 1.0000693377288976),
        (1e-08, 0.9985069325990085, 1.0014945350292792),
        (3.04e-06, 0.9899864459207689, 1.0100747310468299),
        (0.0001, 0.968065206148433, 1.03242519168963),
        (0.00095, 0.9324577512800786, 1.0687376998596936),
        (0.012150585, 0.8369151287720266, 1.1556821631002154),
        (0.1, 0.6090351100232024, 1.2596998329023315),
        (0.5, 0.0, 1.19840614455492),
    ]

    @pytest.mark.parametrize("mu, l1, l2", FROZEN)
    def test_larger_mu_keeps_its_bits(self, mu, l1, l2):
        assert libration_point(mu, "L1").position[0] == l1
        assert libration_point(mu, "L2").position[0] == l2


def _collinear_by_whole_segment(mu, segment):
    """The collinear point by bisection over the doubles on Omega_x's exact
    sign, from one double past each float end of the segment: the oracle
    of `_collinear_root`, which brackets a float guess first."""
    lo, hi = {
        "L1": (-mu, 1 - mu),
        "L2": (1 - mu, Fraction(3)),
        "L3": (Fraction(-3), -mu),
    }[segment]
    p, q = mu.numerator, mu.denominator
    (ln, ld), (hn, hd) = lo.as_integer_ratio(), hi.as_integer_ratio()

    def sign(x):
        n, d = x.as_integer_ratio()
        if n * ld <= ln * d:
            return -1
        if n * hd >= hn * d:
            return 1
        A, B = n * q + p * d, n * q - (q - p) * d
        A3, B3 = abs(A) ** 3, abs(B) ** 3
        v = n * A3 * B3 - d ** 3 * q * ((q - p) * A * B3 + p * B * A3)
        return (v > 0) - (v < 0)

    x = math.nextafter(float(lo), -math.inf)
    y = math.nextafter(float(hi), math.inf)
    while (m := 0.5 * (x + y)) not in (x, y):
        if (s := sign(m)) == 0:
            return m
        x, y = (m, y) if s < 0 else (x, m)
    m = (Fraction(x) + Fraction(y)) / 2
    s = sign(m)
    return x if s > 0 else y if s < 0 else float(m)


def _counted_collinear_root(mu, segment):
    """`_collinear_root`'s double and its count of exact Omega_x
    evaluations, read by a profile hook on calls of its inner omega_x."""
    calls = []

    def hook(frame, event, arg):
        code = frame.f_code
        if (event == "call" and code.co_name == "omega_x"
                and code.co_filename == pcr3bp.__file__):
            calls.append(1)
    sys.setprofile(hook)
    try:
        x = pcr3bp._collinear_root(mu, segment)
    finally:
        sys.setprofile(None)
    return x, len(calls)


class TestCollinearRoot:
    # every double, the sign of a zero included, is the whole-segment
    # bisection's; at mu near 1/2, L1 lies near x = 0, where the float
    # guess is off by many ulps, and at mu = 1/2 it is exactly 0
    @given(st.floats(math.log(np.finfo(float).tiny), math.log(0.5)).map(
        lambda e: min(0.5, math.exp(e))))
    @example(0.5)
    @example(0.49999999999999994)
    @example(1e-100)
    @example(MU_EM)
    @settings(max_examples=60, deadline=None)
    def test_is_the_whole_segments_double(self, mu):
        for label in ("L1", "L2", "L3"):
            got, evaluations = _counted_collinear_root(Fraction(mu), label)
            want = _collinear_by_whole_segment(Fraction(mu), label)
            assert repr(got) == repr(want)  # -0.0 is not 0.0 here
            # the whole segment takes about 55, and a guess that creeps to
            # x = 0 by halving, 1,000
            assert evaluations <= 20


class TestStability:
    # Routh's criterion 27 mu (1 - mu) < 1 at L4 and L5, over log-uniform
    # mu; at mu = 7.2e-17, Oxx Oyy - Oxy^2 cancels to -2.2e-16 there, a
    # constant that would call both points saddle x centers
    @given(st.floats(math.log(np.finfo(float).tiny), math.log(0.5)),
           st.sampled_from(["L4", "L5"]))
    @example(math.log(0.01), "L4")
    @example(math.log(0.05), "L4")
    @example(math.log(7.211175119495613e-17), "L4")
    @example(math.log(7.211175119495613e-17), "L5")
    @example(math.log(np.finfo(float).tiny), "L5")
    @settings(max_examples=60, deadline=None)
    def test_l4_routh_criterion(self, log_mu, label):
        mu = min(math.exp(log_mu), 0.5)
        st_ = libration_stability(mu, libration_point(mu, label))
        assert st_.quartic_coeffs == (1.0, 6.75 * mu * (1.0 - mu))
        want = STABLE if 27.0 * mu * (1.0 - mu) < 1.0 else COMPLEX_UNSTABLE
        assert st_.verdict == want

    def test_closed_form_only_where_the_point_is(self):
        # a point labelled L4 elsewhere gets the Hessian's coefficients
        pos = (0.3, 0.7)
        got, want = (libration_stability(0.01, LibrationPoint(label, pos))
                     for label in ("L4", "L1"))
        assert got.quartic_coeffs == want.quartic_coeffs
        assert got.quartic_coeffs[0] != 1.0

    def test_l4_quartic_coefficients(self):
        # the L4 equation in S is s^4 + s^2 + (27/4) mu (1 - mu)
        mu = 0.01
        st = libration_stability(mu, libration_points(mu)[3])
        p, q = st.quartic_coeffs
        assert abs(p - 1.0) < 1e-12
        assert abs(q - 6.75 * mu * (1.0 - mu)) < 1e-12

    def test_collinear_saddle_center(self):
        for mu in (0.01, 0.1, 0.3):
            l1 = libration_points(mu)[0]
            st = libration_stability(mu, l1)
            assert st.verdict == SADDLE_CENTER
            assert any(abs(s.imag) < 1e-9 and s.real > 0 for s in st.roots)

    # q < 0 at every collinear point; at L3 the real pair shrinks with mu,
    # to about 6e-10 at mu = 1e-18, yet the point stays a saddle x center
    @given(st.floats(0.0, 0.5, exclude_min=True))
    @example(1e-18)
    @example(np.finfo(float).tiny)
    @settings(max_examples=50, deadline=None)
    def test_collinear_points_are_saddle_centers(self, mu):
        if mu < np.finfo(float).tiny:  # L3's q, of order mu, would underflow
            with pytest.raises(DomainError, match="is subnormal"):
                libration_point(mu, "L3")
            return
        for label in ("L1", "L2", "L3"):
            point = libration_point(mu, label)
            try:
                verdict = libration_stability(mu, point).verdict
            except DomainError as e:
                assert "inside the collision radius" in str(e)
            else:
                assert verdict == SADDLE_CENTER


def _variational_flight(state0, mu, T):
    """The state and STM at T of one flight from state0."""
    zf = integrate(_var_rhs(mu), _with_stm(state0), (0.0, T), 1e-12).final
    return zf[:4], zf[4:].reshape(4, 4)


class TestVariationalFlow:
    def test_zero_time_identity(self):
        _, Phi = _variational_flight([0.5, 0.2, 0.0, 0.1], MU_EM, 0.0)
        assert np.array_equal(Phi, np.eye(4))

    def test_unit_determinant(self):
        _, Phi = _variational_flight([0.5, 0.3, 0.2, -0.1], MU_EM, 3.0)
        assert abs(np.linalg.det(Phi) - 1.0) < 1e-6

    def test_finite_difference_column(self):
        state0 = np.array([0.5, 0.3, 0.2, -0.1])
        T, h = 2.0, 1e-7
        _, Phi = _variational_flight(state0, MU_EM, T)
        for j in range(4):
            bumped = state0.copy()
            bumped[j] += h
            fp, _ = _variational_flight(bumped, MU_EM, T)
            fm, _ = _variational_flight(state0, MU_EM, T)
            assert np.allclose((fp - fm) / h, Phi[:, j], atol=1e-4)


class TestCorrection:
    def test_l1_lyapunov_converges(self):
        l1 = libration_points(MU_EM)[0]
        seed, t_half = lyapunov_seed(MU_EM, l1, 1e-3)
        orbit = correct_periodic(seed, t_half, MU_EM)
        assert orbit.crossing_residual < 1e-10

    def test_small_amplitude_period_matches_linearization(self):
        l1 = libration_points(MU_EM)[0]
        w = libration_stability(MU_EM, l1).center_frequency
        seed, t_half = lyapunov_seed(MU_EM, l1, 1e-4)
        orbit = correct_periodic(seed, t_half, MU_EM)
        assert abs(orbit.period - 2.0 * math.pi / w) < 1e-4

    def test_nearby_seeds_agree(self):
        l1 = libration_points(MU_EM)[0]
        seed, t_half = lyapunov_seed(MU_EM, l1, 1e-3)
        o1 = correct_periodic(seed, t_half, MU_EM)
        bumped = seed.copy()
        bumped[3] *= 1.0 + 1e-4
        o2 = correct_periodic(bumped, t_half, MU_EM)
        assert np.max(np.abs(o1.initial_state - o2.initial_state)) < 1e-8

    def test_closure(self):
        l1 = libration_points(MU_EM)[0]
        seed, t_half = lyapunov_seed(MU_EM, l1, 1e-3)
        orbit = correct_periodic(seed, t_half, MU_EM)
        final, _ = _variational_flight(orbit.initial_state, MU_EM,
                                       orbit.period)
        assert np.max(np.abs(final - orbit.initial_state)) < 1e-9

    def test_non_perpendicular_guess_rejected(self):
        with pytest.raises(DomainError):
            correct_periodic([0.8, 0.1, 0.0, 0.1], 1.0, MU_EM)

    def test_bad_seed_fails(self):
        # fast escape: no x-axis return inside the time budget
        with pytest.raises((NonConvergenceError, SingularityError, DomainError)):
            correct_periodic([0.5, 0.0, 0.0, 1.8], 0.3, MU_EM, max_iter=8)

    def test_large_amplitude_never_input_error(self, capsys):
        # a Newton step here flips the sign of vy0; the return crossing
        # must then still be sought away from the start, never at t = 0
        code = run(["pcr3bp", "orbit", "--mu", repr(MU_EM), "--point", "L1",
                    "--seed-amplitude", "2e-2"])
        out = capsys.readouterr().out
        assert code in (0, 2)
        if code == 2:
            return
        payload = json.loads(out)
        x0, T = np.array(payload["x0"]), payload["T"]
        assert T > 1.0

        def f(t, z):  # the rotating-frame flow, stated independently
            x, y, vx, vy = z
            r1 = math.hypot(x + MU_EM, y) ** 3
            r2 = math.hypot(x - 1.0 + MU_EM, y) ** 3
            ax = x - (1 - MU_EM) * (x + MU_EM) / r1 - MU_EM * (x - 1 + MU_EM) / r2
            ay = y - (1 - MU_EM) * y / r1 - MU_EM * y / r2
            return [vx, vy, 2.0 * vy + ax, -2.0 * vx + ay]

        sol = solve_ivp(f, (0.0, T), x0, method="DOP853",
                        rtol=1e-13, atol=1e-13)
        assert np.max(np.abs(sol.y[:, -1] - x0)) < 1e-9

    @pytest.mark.parametrize("amplitude,verdict", [("1e-3", "unstable"),
                                                   ("2e-2", "stable")])
    def test_orbit_verdict_ignores_unit_pair(self, capsys, amplitude,
                                             verdict):
        # at 2e-2 the unit pair splits off the circle by integration
        # error while the nontrivial pair lies on it: stable
        code = run(["pcr3bp", "orbit", "--mu", repr(MU_EM), "--point", "L1",
                    "--seed-amplitude", amplitude])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == verdict
        mults = [complex(*s) for s in payload["multipliers"]]
        pair = sorted(mults, key=lambda s: abs(s - 1.0))[2:]
        assert (max(abs(s) for s in pair) > 1.0 + 1e-6) == (
            verdict == "unstable")


def _crossing_flight(case):
    """(rhs, z0, t_end, direction, terminal) of one y = 0 crossing flight
    from the L1 Lyapunov seed, which starts on the axis."""
    state, t_half = lyapunov_seed(MU_EM, libration_points(MU_EM)[0], 1e-3)
    s = math.copysign(1.0, state[3])
    rhs, z0, t_end, direction = _flow_rhs(MU_EM), state, 4.0 * t_half, -s
    if case == "backward":
        t_end, direction = -t_end, s
    elif case == "stm":
        rhs, z0 = _var_rhs(MU_EM), _with_stm(state)
    elif case == "t0_hit":  # moves in the event direction: hit at t = 0
        direction = s
    return rhs, z0, t_end, direction, 2 if case == "t0_hit" else 1


CROSSING_CASES = ("forward", "backward", "stm", "t0_hit")


class TestCrossingLocator:
    @pytest.mark.parametrize("case", CROSSING_CASES)
    def test_events_need_no_dense_output(self, case):
        rhs, z0, t_end, direction, _ = _crossing_flight(case)
        crossing = (1, direction)
        sparse = integrate(rhs, z0, (0.0, t_end), 1e-10, events=crossing)
        assert len(sparse.t_events[0]) == 1
        assert (sparse.t_events[0][0] == 0.0) == (case == "t0_hit")
        # sampled at its event time, a flight reads the event state off
        # the interpolant its event was found on
        sampled = integrate(rhs, z0, (0.0, t_end), 1e-10, events=crossing,
                            t_eval=sparse.t_events[0])
        assert np.array_equal(sampled.t_events[0], sparse.t_events[0])
        assert np.array_equal(sampled.y_events[0], sparse.y_events[0])
        assert np.array_equal(sampled.t, sparse.t_events[0])
        assert np.array_equal(sampled.y.T, sparse.y_events[0])
        assert np.array_equal(sampled.final, sparse.final)

    @pytest.mark.parametrize("case", CROSSING_CASES)
    def test_lands_on_section(self, case):
        rhs, z0, t_end, direction, _ = _crossing_flight(case)
        t, z = _flow_to_crossing(rhs, z0, t_end, 1e-10, direction)
        assert t / t_end > 0.1  # never the start itself
        assert abs(z[1]) <= CROSSING_Y_TOL
        assert z.shape == z0.shape

    # a free flight whose event state lies past CROSSING_Y_TOL, so the
    # landing takes one first-order step, dt = -y / vy, onto the axis:
    # (vy, y0) for a start (0.5, y0, 0.1, vy) and whether it steps
    @pytest.mark.parametrize("vy, y0, steps", [
        (1e3, -1e6, True), (7.0, -7e3, True), (1e2, -123456.7, False)])
    def test_first_order_landing_step(self, vy, y0, steps):
        calls = []

        def rhs(t, z):
            calls.append(t)
            return np.array([z[2], z[3], 0.0, 0.0])
        z0 = np.array([0.5, y0, 0.1, vy])
        event = integrate(rhs, z0, (0.0, 1e4), 1e-10, events=(1, 1.0, y0))
        te, ze = event.t_events[0][0], event.y_events[0][0]
        assert (abs(ze[1]) > CROSSING_Y_TOL) == steps
        flown, calls[:] = len(calls), []
        t, z = _flow_to_crossing(rhs, z0, 1e4, 1e-10, 1.0)
        assert len(calls) == flown + steps  # the step's one RHS call
        assert t == (te - ze[1] / ze[3] if steps else te)
        assert z[1] == 0.0 and math.copysign(1.0, z[1]) == -1.0  # from below
        if vy == 1e3:
            assert (ze[1], t) == (1.7462298274040222e-10, 999.9999999999997)


class TestStackedLocator:
    @pytest.mark.parametrize("case", CROSSING_CASES)
    def test_stack_of_one_is_a_plain_flight(self, case):
        # against solve_ivp's flight, which registers the t0_hit start as
        # a crossing at t = 0 and stops at the second one
        rhs, z0, t_end, direction, terminal = _crossing_flight(case)
        (got,) = _flow_to_crossing(rhs, z0[:, None], t_end, 1e-10, direction)

        def crossing(t, z):
            return z[1]
        crossing.terminal, crossing.direction = terminal, direction
        ref = solve_ivp(rhs, (0.0, t_end), z0, method="DOP853", rtol=1e-10,
                        atol=1e-12, events=crossing)
        t, z = float(ref.t_events[0][-1]), ref.y_events[0][-1]
        if abs(z[1]) > CROSSING_Y_TOL:
            dt = -z[1] / z[3]
            t, z = t + dt, z + dt * rhs(t, z)
        assert got[0] == t
        assert np.array_equal(got[1], z)

    @staticmethod
    def _section_starts():
        # three starts near the L1 orbit's section point, all y = 0, vy > 0
        C, x0 = 3.1882812173139823, 0.8359151287720265
        starts = []
        for dx in (5e-5, 1e-4, 2e-4):
            x = x0 + dx
            omega = (0.5 * x * x + (1 - MU_EM) / abs(x + MU_EM)
                     + MU_EM / abs(x - 1 + MU_EM))
            starts.append([x, 0.0, 0.0, math.sqrt(2.0 * omega - C)])
        return starts

    def test_failing_members_leave_the_stack(self):
        # a start at the Moon's centre collides at once; one far out needs
        # 7.7 time units to cross upwards, the others less than 3
        rhs, t_end = _flow_rhs(MU_EM), 4.0
        starts = self._section_starts()
        stack = starts[:1] + [[1.0 - MU_EM, 0.0, 0.0, 0.0]] + starts[1:2] \
            + [[-2.5, 0.2, 0.0, 0.0]] + starts[2:]
        out = _flow_to_crossing(rhs, np.array(stack).T, t_end, 1e-10, 1.0)
        assert isinstance(out[1], SingularityError)
        assert out[1].members == (1,)  # named by the stacked RHS
        assert "collision" in str(out[1])
        assert isinstance(out[3], NonConvergenceError)
        assert out[3].best.shape == (4,)
        for j in (0, 2, 4):
            t, z = _flow_to_crossing(rhs, np.array(stack[j]), t_end, 1e-10,
                                     1.0)
            assert abs(out[j][0] - t) < 1e-8
            assert np.max(np.abs(out[j][1] - z)) < 1e-8
            assert abs(out[j][1][1]) <= CROSSING_Y_TOL

    def test_members_colliding_together_get_their_own_errors(self):
        # two starts inside the Moon's collision radius, at different
        # distances, fail in the same RHS call; each error names its own
        rhs = _flow_rhs(MU_EM)
        starts = self._section_starts()
        stack = [starts[0], [1.0 - MU_EM + 2e-7, 0.0, 0.0, 0.0], starts[1],
                 [1.0 - MU_EM - 5e-7, 0.0, 0.0, 0.0]]
        out = _flow_to_crossing(rhs, np.array(stack).T, 4.0, 1e-10, 1.0)
        for j, r2 in ((1, "2e-07"), (3, "5e-07")):
            assert isinstance(out[j], SingularityError)
            assert out[j].members == (j,)
            assert str(out[j]) == ("state within collision radius of a "
                                   f"primary (r1=1, r2={r2})")
        assert not isinstance(out[0], Exception)
        assert not isinstance(out[2], Exception)

    def test_on_axis_starts_pay_for_no_event_at_t0(self):
        # starts on the axis that already move upwards: against solve_ivp's
        # flights, which register each start as a crossing at t = 0 and
        # stop at the second one, integrate's RHS evaluates 3 states (the
        # interpolant of the first step) fewer per member, and every
        # member lands on the same crossing
        flow = _flow_rhs(MU_EM)
        states = []

        def rhs(t, z):
            if isinstance(t, np.ndarray):  # integrate's, not the landing's
                states.append(t.size)
            return flow(t, z)
        Z = np.array(self._section_starts()).T
        m = Z.shape[1]
        out = _flow_to_crossing(rhs, Z, 4.0, 1e-10, 1.0)

        def crossing(t, z):
            return z[1]
        crossing.terminal, crossing.direction = 2, 1.0
        refs = [solve_ivp(flow, (0.0, 4.0), z0, method="DOP853", rtol=1e-10,
                          atol=1e-12, events=crossing) for z0 in Z.T]
        assert all(ref.t_events[0][0] == 0.0 for ref in refs)
        assert sum(states) == sum(ref.nfev for ref in refs) - 3 * m
        for j, ref in enumerate(refs):
            t, z = float(ref.t_events[0][1]), ref.y_events[0][1]
            if abs(z[1]) > CROSSING_Y_TOL:
                dt = -z[1] / z[3]
                t, z = t + dt, z + dt * flow(t, z)
            assert out[j][0] == t
            assert np.array_equal(out[j][1], z)

    @staticmethod
    def _moon_fall():
        # a start that falls straight into the Moon 0.1 time units later,
        # with y > 0 all the way: fly back from r2 = 1e-3
        r0, ang = 1e-3, 3.0
        v = math.sqrt(2.0 * MU_EM / r0)
        fall = [1 - MU_EM + r0 * math.cos(ang), r0 * math.sin(ang),
                -v * math.cos(ang), -v * math.sin(ang)]
        sol = solve_ivp(_flow_rhs(MU_EM), (0.0, -0.1), fall,
                        method="DOP853", rtol=1e-13, atol=1e-15)
        return list(sol.y[:, -1])

    def test_collision_after_a_departure_names_the_collider(self):
        # member 0 crosses within the first step and leaves; member 2
        # collides later, at position 1 of the stack still flying
        rhs, t_end = _flow_rhs(MU_EM), 4.0
        early, *others = self._section_starts()
        early[1] = -1e-4
        stack = [early, others[0], self._moon_fall(), others[1]]
        out = _flow_to_crossing(rhs, np.array(stack).T, t_end, 1e-10, 1.0)
        assert isinstance(out[2], SingularityError)
        assert out[2].members == (2,)
        assert "collision" in str(out[2])
        for j in (0, 1, 3):
            t, z = _flow_to_crossing(rhs, np.array(stack[j]), t_end, 1e-10,
                                     1.0)
            assert abs(out[j][0] - t) < 1e-8
            assert np.max(np.abs(out[j][1] - z)) < 1e-8

    def test_collision_of_the_last_member_in_flight_names_it(self):
        # one member in flight makes a single-state RHS call, which names
        # no member; the stacked flight names it
        early = self._section_starts()[0]
        early[1] = -1e-4
        traj = integrate(_flow_rhs(MU_EM),
                         np.array([early, self._moon_fall()]).T, (0.0, 4.0),
                         1e-10, events=(1, 1.0))
        assert list(traj.faults) == [1]
        assert isinstance(traj.faults[1], SingularityError)
        assert traj.faults[1].members == (1,)

    def test_collision_mid_leg_leaves_the_rest_in_flight(self, monkeypatch):
        # a relayed stack, three crossings a member, in which a member
        # collides while member 0 flies its third leg: one integrate call,
        # and every survivor's crossings are bit for bit those of the
        # stack flown without the collider
        flights = []

        def counted(*args, **kwargs):
            flights.append(args[1].shape)
            return integrate(*args, **kwargs)
        monkeypatch.setattr("secular.pcr3bp.integrate", counted)
        rhs, starts = _flow_rhs(MU_EM), self._section_starts()

        def fly(stack):
            seen = [[] for _ in stack]

            def relay(i, landed):
                seen[i].append(landed)
                return landed[1].copy() if len(seen[i]) < 3 else None
            out = _flow_to_crossing(rhs, np.array(stack).T, 12.0, 1e-10,
                                    1.0, relay)
            return out, seen
        out, seen = fly(starts[:2] + [self._moon_fall()] + starts[2:])
        assert flights == [(4, 4)]
        assert isinstance(out[2], SingularityError)
        assert out[2].members == (2,) and "collision" in str(out[2])
        assert seen[2] == []
        ref, ref_seen = fly(starts)
        for mine, theirs in zip(seen[:2] + seen[3:], ref_seen):
            assert len(mine) == len(theirs) == 3
            for (t, z), (t_ref, z_ref) in zip(mine, theirs):
                assert t == t_ref and z.tobytes() == z_ref.tobytes()
        for mine, theirs in zip(out[:2] + out[3:], ref):
            assert mine[0] == theirs[0]
            assert mine[1].tobytes() == theirs[1].tobytes()

    def test_landing_fault_is_its_members_own(self, monkeypatch):
        # every landing takes its first-order step, and member 2's, the one
        # at the largest x, collides in its RHS call (a float t): member 2
        # leaves with that fault, named, and the rest land as before
        monkeypatch.setattr(pcr3bp, "CROSSING_Y_TOL", -1.0)
        flow = _flow_rhs(MU_EM)
        Z = np.array(self._section_starts()).T
        Z[1] = -1e-4  # off the axis, whatever the tolerance

        def rhs(t, z):
            if isinstance(t, float) and z[0] > (Z[0, 1] + Z[0, 2]) / 2:
                raise SingularityError("landing", members=(0,))
            return flow(t, z)
        ref = _flow_to_crossing(flow, Z, 4.0, 1e-10, 1.0)
        out = _flow_to_crossing(rhs, Z, 4.0, 1e-10, 1.0, lambda i, c: None)
        assert isinstance(out[2], SingularityError)
        assert out[2].members == (2,) and str(out[2]) == "landing"
        for j in (0, 1):
            assert out[j][0] == ref[j][0]
            assert out[j][1].tobytes() == ref[j][1].tobytes()

    def test_stacked_failure_naming_no_member_propagates(self):
        # every RHS in the package names the members at fault; a failure
        # that names none is not the locator's to share out
        flow = _flow_rhs(MU_EM)
        calls = []

        def rhs(t, z):
            calls.append(len(z))
            if len(z) > 4:
                raise SingularityError("integration failed")
            return flow(t, z)
        starts = np.array(self._section_starts())
        with pytest.raises(SingularityError, match="integration failed") as e:
            _flow_to_crossing(rhs, starts.T, 4.0, 1e-10, 1.0)
        assert e.value.members == ()
        assert calls == [4 * len(starts)]

    def test_stacked_flow_rhs_matches_single_states(self):
        states = np.array(self._section_starts() + [[0.5, 0.3, 0.2, -0.1]])
        f = _flow_rhs(MU_EM)
        stacked = f(0.0, states.T.ravel()).reshape(4, -1)
        for j, z in enumerate(states):
            assert np.allclose(stacked[:, j], f(0.0, z), rtol=1e-14,
                               atol=0.0)


@pytest.fixture(scope="module")
def orbit():
    l1 = libration_points(MU_EM)[0]
    seed, t_half = lyapunov_seed(MU_EM, l1, 1e-3)
    return correct_periodic(seed, t_half, MU_EM)


class TestExponents:
    def test_multiplier_structure(self, orbit):
        rep = orbit_exponents(orbit)
        assert rep.unit_pair_ok and rep.reciprocal_ok and rep.det_ok
        assert rep.flags == ()

    def test_unstable_real_pair(self, orbit):
        mults = sorted(orbit.multipliers, key=lambda s: abs(s - 1.0))
        lam = max(mults[2:], key=abs)
        assert abs(lam.imag) < 1e-6 * abs(lam)
        assert lam.real > 1.0

    def test_exponents_paired(self, orbit):
        # exponents come two-by-two with opposite signs (mod 2 pi i / T)
        T = orbit.period
        exps = list(orbit.exponents)
        for a in exps:
            def matches(b):
                d = (a + b) * T / (2.0j * math.pi)
                return abs(d - round(d.real)) < 1e-4
            assert any(matches(b) for b in exps)


class TestMirroredMonodromy:
    """The monodromy read off the half-period STM through the mirror R."""

    @given(st.sampled_from(["L1", "L2"]), st.floats(0.005, 0.05),
           st.floats(math.log(2e-4), math.log(4e-3)))
    @example("L1", 0.005, math.log(2e-4))
    @example("L2", 0.05, math.log(4e-3))
    @settings(max_examples=8, deadline=None)
    def test_matches_a_full_period_flight(self, label, mu, log_amp):
        seed, t_half = lyapunov_seed(mu, libration_point(mu, label),
                                     math.exp(log_amp))
        orbit = correct_periodic(seed, t_half, mu, integrator_tol=1e-12)
        M = orbit.monodromy
        _, Phi = _variational_flight(orbit.initial_state, mu, orbit.period)
        assert np.linalg.norm(M - Phi, 2) <= 1e-8 * np.linalg.norm(Phi, 2)
        # a mirrored monodromy is reversible: R M R = M^-1
        R = pcr3bp.MIRROR
        assert np.linalg.norm(R @ M @ R @ M - np.eye(4), 2) <= 1e-6

    def test_one_flight_per_newton_iteration(self, monkeypatch):
        flights = []

        def counted(*args, **kwargs):
            flights.append(kwargs.get("t_eval") is not None)
            return integrate(*args, **kwargs)
        monkeypatch.setattr("secular.pcr3bp.integrate", counted)
        l1 = libration_points(MU_EM)[0]
        seed, t_half = lyapunov_seed(MU_EM, l1, 1e-3)
        correct_periodic(seed, t_half, MU_EM)
        n = len(flights)
        assert n >= 2 and not any(flights)
        # n iterations are needed: one fewer does not converge
        with pytest.raises(NonConvergenceError):
            correct_periodic(seed, t_half, MU_EM, max_iter=n - 1)

    @pytest.mark.parametrize("label", ["L4", "L5"])
    def test_no_seed_off_the_axis(self, label):
        with pytest.raises(DomainError, match=f"off the x-axis: {label} is at"):
            lyapunov_seed(0.01, libration_point(0.01, label), 1e-3)


def _section_start(x, vx, C=3.1882812173139823):
    """A y = 0 start with vy > 0 at Jacobi constant C, or None."""
    omega = (0.5 * x * x + (1 - MU_EM) / abs(x + MU_EM)
             + MU_EM / abs(x - 1 + MU_EM))
    vy2 = 2.0 * omega - vx * vx - C
    return [x, 0.0, vx, math.sqrt(vy2)] if vy2 > 0 else None


# three close starts that land in one iteration of the stack's loop, with
# a fourth between them that lands earlier
SIMULTANEOUS = [(0.83, 0.0), (0.85, -0.02), (0.8300001, 0.0),
                (0.8300002, 0.0)]


@given(st.lists(st.tuples(st.floats(0.80, 0.87), st.floats(-0.03, 0.03)),
                min_size=1, max_size=6))
@example(SIMULTANEOUS)
@settings(max_examples=20, deadline=None)
def test_stacked_section_start_flies_as_alone(points):
    # each member of a stack of section starts takes the steps of its own
    # flight to its next upward crossing, its start read as past the axis,
    # and lands on its crossing bit for bit, whoever lands with it
    starts = [z for z in (_section_start(x, vx) for x, vx in points) if z]
    assume(starts)
    rhs, Z = _flow_rhs(MU_EM), np.array(starts).T
    past = (1, 1.0, 1.0)
    stack = integrate(rhs, Z, (0.0, 30.0), 1e-10, events=past)
    located = _flow_to_crossing(rhs, Z, 30.0, 1e-10, 1.0)
    for j, z0 in enumerate(starts):
        alone = integrate(rhs, np.array(z0), (0.0, 30.0), 1e-10, events=past)
        assert stack.accepted_steps[j] == alone.accepted_steps[0]
        assert stack.rejected_steps[j] == alone.rejected_steps[0]
        assert np.array_equal(stack.t_events[j], alone.t_events[0])
        assert np.array_equal(stack.y_events[j], alone.y_events[0])
        assert np.max(np.abs(stack.final.reshape(4, -1)[:, j]
                             - alone.final)) <= 1e-12
        t, z = _flow_to_crossing(rhs, np.array(z0), 30.0, 1e-10, 1.0)
        assert abs(located[j][0] - t) <= 1e-12
        assert np.max(np.abs(located[j][1] - z)) <= 1e-12


def test_simultaneous_landings_share_their_interpolants(monkeypatch):
    # SIMULTANEOUS's three close members land in one iteration: one call
    # builds their three interpolants
    built, dense = [], floquet._dense_coefficients

    def counted(rhs, K, t_old, h, y_old, y):
        built.append(np.size(h))
        return dense(rhs, K, t_old, h, y_old, y)
    monkeypatch.setattr(floquet, "_dense_coefficients", counted)
    starts = [_section_start(x, vx) for x, vx in SIMULTANEOUS]
    integrate(_flow_rhs(MU_EM), np.array(starts).T, (0.0, 30.0), 1e-10,
              events=(1, 1.0, 1.0))
    assert sorted(built) == [1, 3]


def _var_rhs_composed(mu):
    """The joint state and STM derivative as two separate formulas, each
    with its own radii: the flow, then the Hessian matrix times the STM.
    A copy of the unfused form, as the oracle of the fused closure."""
    def hessian(x, y):
        r1, r2 = pcr3bp._radii(x, y, mu)
        c1, c2 = (1.0 - mu) / r1 ** 3, mu / r2 ** 3
        d1, d2 = 3.0 * (1.0 - mu) / r1 ** 5, 3.0 * mu / r2 ** 5
        oxx = 1.0 - c1 - c2 + d1 * (x + mu) ** 2 + d2 * (x - 1.0 + mu) ** 2
        oyy = 1.0 - c1 - c2 + d1 * y * y + d2 * y * y
        oxy = d1 * (x + mu) * y + d2 * (x - 1.0 + mu) * y
        return oxx, oxy, oyy

    def derivative(x, y, vx, vy):
        r1, r2 = pcr3bp._radii(x, y, mu)
        c1 = (1.0 - mu) / r1 ** 3
        c2 = mu / r2 ** 3
        ox = x - c1 * (x + mu) - c2 * (x - 1.0 + mu)
        oy = y - c1 * y - c2 * y
        return np.array([vx, vy, 2.0 * vy + ox, -2.0 * vx + oy])

    def rhs(t, z):
        oxx, oxy, oyy = hessian(z[0], z[1])
        A = np.array([[0.0, 0.0, 1.0, 0.0],
                      [0.0, 0.0, 0.0, 1.0],
                      [oxx, oxy, 0.0, 2.0],
                      [oxy, oyy, -2.0, 0.0]])
        return np.concatenate((derivative(*z[:4]),
                               (A @ z[4:].reshape(4, 4)).ravel()))
    return rhs


def _flow_rhs_by_arrays(mu):
    """The flow on a stack of states by the one-state formula on arrays,
    one for each row, each primary's terms apart: the oracle of
    `_flow_rhs`, which takes the pair of primaries along one axis."""
    what = "state within collision radius of a primary "

    def rhs(t, z):
        x, y, vx, vy = np.reshape(z, (4, -1))
        r1 = np.hypot(x + mu, y)
        r2 = np.hypot(x - 1.0 + mu, y)
        if np.minimum(r1, r2).min() < pcr3bp.COLLISION_RADIUS:
            bad = np.flatnonzero((r1 < pcr3bp.COLLISION_RADIUS)
                                 | (r2 < pcr3bp.COLLISION_RADIUS))
            pairs = [f"(r1={r1[j]:.3g}, r2={r2[j]:.3g})" for j in bad]
            raise SingularityError(what + ", ".join(pairs),
                                   members=tuple(bad.tolist()),
                                   reasons=tuple(what + p for p in pairs))
        a, b = x + mu, x - 1.0 + mu
        c1, c2 = (1.0 - mu) / r1 ** 3, mu / r2 ** 3
        ox, oy = x - c1 * a - c2 * b, y - c1 * y - c2 * y
        return np.array((vx, vy, 2.0 * vy + ox, -2.0 * vx + oy)).ravel()
    return rhs


_CENTERS = {}  # mu -> the primaries and the collinear points on the axis


def _centers(mu):
    if mu not in _CENTERS:
        _CENTERS[mu] = [-mu, 1.0 - mu] + [
            p.position[0] for p in libration_points(mu)[:3]]
    return _CENTERS[mu]


@given(st.sampled_from([MU_EM, 0.3, 0.5, 1e-7]), st.integers(0, 4),
       st.floats(-9.0, -0.5), st.floats(-math.pi, math.pi),
       st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2),
       st.lists(st.floats(-50.0, 50.0), min_size=16, max_size=16))
@example(MU_EM, 1, -6.5, 0.3, [0.1, -0.2], [0.0] * 16)  # in collision
@settings(max_examples=300, deadline=None)
def test_fused_var_rhs_is_the_composition(mu, center, log_r, angle, v, stm):
    # a state at distance 10^log_r from a primary or a collinear point,
    # some inside the collision radius, with a random STM: the fused RHS
    # gives every bit of the unfused one, or the same collision error
    x = _centers(mu)[center] + 10.0 ** log_r * math.cos(angle)
    z = np.array([x, 10.0 ** log_r * math.sin(angle), *v, *stm])
    try:
        want = _var_rhs_composed(mu)(0.0, z)
    except SingularityError as e:
        with pytest.raises(SingularityError) as got:
            _var_rhs(mu)(0.0, z)
        assert str(got.value) == str(e)
        assert got.value.members == e.members == ()
        return
    got = _var_rhs(mu)(0.0, z)
    assert got.dtype == np.float64 and got.shape == (20,)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@given(st.sampled_from([MU_EM, 0.3, 0.5, 1e-7]), st.integers(0, 2 ** 32 - 1),
       st.integers(1, 80), st.integers(0, 3))
@example(MU_EM, 0, 1, 1)  # a stack of one, in collision
@example(MU_EM, 1, 80, 3)
@settings(max_examples=200, deadline=None)
def test_stacked_flow_rhs_is_the_array_formula(mu, seed, width, colliding):
    # a stack of 1-80 states, each at distance 10^u of a primary or a
    # collinear point, up to 3 of them inside the collision radius: every
    # bit of the array formula, or the same members with the same reasons
    rng = np.random.default_rng(seed)
    centers = np.array(_centers(mu))[rng.integers(0, 5, width)]
    r = 10.0 ** rng.uniform(-5.5, 0.5, width)
    hit = rng.choice(width, min(colliding, width), replace=False)
    centers[hit] = np.array([-mu, 1.0 - mu])[rng.integers(0, 2, len(hit))]
    r[hit] = 10.0 ** rng.uniform(-9.0, -6.0, len(hit))
    angle = rng.uniform(-math.pi, math.pi, width)
    Z = np.array([centers + r * np.cos(angle), r * np.sin(angle),
                  *rng.uniform(-3.0, 3.0, (2, width))])
    try:
        want = _flow_rhs_by_arrays(mu)(0.0, Z.ravel())
    except SingularityError as e:
        with pytest.raises(SingularityError) as got:
            _flow_rhs(mu)(0.0, Z.ravel())
        assert str(got.value) == str(e)
        assert got.value.members == e.members
        assert got.value.reasons == e.reasons
        return
    got = _flow_rhs(mu)(0.0, Z.ravel())
    assert got.dtype == np.float64 and got.shape == (4 * width,)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
