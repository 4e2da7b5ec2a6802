"""Tests for periodic-system stability analysis."""

import cmath
import csv
import dataclasses
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from secular import pcr3bp
from secular.cli import run
from secular.errors import DomainError, SingularityError
from secular.floquet import (
    BOUNDED,
    SECULAR,
    UNSTABLE,
    ExponentSet,
    Monodromy,
    PeriodicLinearSystem,
    characteristic_exponents,
    classify_periodic_stability,
    floquet_solution,
    hill_system,
    integrate,
    monodromy,
)
from secular.jordan import jordan_form
from secular.matrixcore import NUMERIC, SquareMatrix


class TestIntegrate:
    def test_harmonic_oscillator_round_trip(self):
        f = lambda t, y: np.array([y[1], -y[0]])
        traj = integrate(f, [1.0, 0.0], (0.0, 2.0 * math.pi), tol=1e-12)
        assert np.allclose(traj.final, [1.0, 0.0], atol=1e-9)

    def test_dense_output(self):
        # a sample between steps is read off the step's interpolant
        f = lambda t, y: np.array([y[1], -y[0]])
        t = 1.2345
        traj = integrate(f, [1.0, 0.0], (0.0, 2.0 * math.pi), tol=1e-12,
                         t_eval=[t])
        assert traj.t.tolist() == [t]
        assert np.allclose(traj.y[:, 0], [math.cos(t), -math.sin(t)],
                           atol=1e-9)

    def test_flight_without_t_eval_holds_its_steps(self):
        f = lambda t, y: np.array([y[1], -y[0]])
        traj = integrate(f, [1.0, 0.0], (0.0, 1.0), tol=1e-12)
        assert len(traj.t) == traj.accepted_steps[0] + 1
        assert traj.t[0] == 0.0 and traj.t[-1] == 1.0
        assert np.all(np.diff(traj.t) > 0)
        assert np.allclose(traj.final, [math.cos(1.0), -math.sin(1.0)],
                           atol=1e-9)

    def test_t_eval_outside_the_span_or_out_of_order(self):
        f = lambda t, y: -y
        for span, ts in (((0.0, 1.0), [0.5, 1.5]), ((0.0, 1.0), [-0.1]),
                         ((0.0, -1.0), [-0.5, 0.1]),
                         ((0.0, 1.0), [0.5, 0.25]),
                         ((0.0, -1.0), [-0.5, -0.25]),
                         ((0.0, 1.0), [0.5, math.nan]),
                         ((0.0, 1.0), [[0.5]])):
            with pytest.raises(DomainError, match="t_eval") as e:
                integrate(f, [1.0], span, t_eval=ts)
            assert "\n" not in str(e.value)

    def test_repeated_times_and_an_empty_span(self):
        f = lambda t, y: -y
        traj = integrate(f, [1.0], (0.0, 1.0), t_eval=[0.0, 0.0, 0.5, 0.5])
        assert traj.t.tolist() == [0.0, 0.0, 0.5, 0.5]
        assert traj.y[0, 0] == traj.y[0, 1] == 1.0
        assert traj.y[0, 2] == traj.y[0, 3]
        still = integrate(f, [2.0], (0.0, 0.0), t_eval=[0.0] * 3)
        assert still.t.tolist() == [0.0] * 3
        assert still.y.tolist() == [[2.0] * 3]
        assert still.states_evaluated == 0
        none = integrate(f, [2.0], (0.0, 1.0), t_eval=[])
        assert none.t.shape == (0,) and none.y.shape == (1, 0)

    def test_event_detection(self):
        f = lambda t, y: np.array([y[1], -y[0]])
        ev = lambda t, y: y[0]
        traj = integrate(f, [1.0, 0.0], (0.0, 10.0), tol=1e-12, events=ev)
        assert traj.t_events is not None
        crossings = traj.t_events[0]
        assert np.allclose(crossings[0], math.pi / 2, atol=1e-8)

    def test_blow_up_raises(self):
        # x' = x^2 escapes to infinity at t = 1
        with pytest.raises(SingularityError):
            integrate(lambda t, y: y ** 2, [1.0], (0.0, 2.0), tol=1e-10)

    def test_bad_tol(self):
        with pytest.raises(DomainError):
            integrate(lambda t, y: -y, [1.0], (0.0, 1.0), tol=0.0)


class TestMonodromy:
    def test_constant_system_is_matrix_exponential(self):
        A = np.array([[0.0, 1.0], [-2.0, -3.0]])
        sys = PeriodicLinearSystem(lambda t: A, 1.0)
        M = monodromy(sys, tol=1e-12).M
        assert np.allclose(M, expm(A), atol=1e-9)

    def test_liouville_determinant(self):
        # tr A(t) = 0 for Hill's equation, so det M = 1 exactly
        sys = hill_system(a=1.3, q=0.4)
        M = monodromy(sys, tol=1e-12).M
        assert abs(np.linalg.det(M) - 1.0) < 1e-8

    def test_bad_period(self):
        with pytest.raises(DomainError):
            PeriodicLinearSystem(lambda t: np.eye(2), 0.0)


class TestExponents:
    def test_constant_system_exponents_are_eigenvalues(self):
        A = np.array([[0.0, 1.0], [-2.0, -3.0]])
        sys = PeriodicLinearSystem(lambda t: A, 1.0)
        exps = characteristic_exponents(monodromy(sys, tol=1e-12))
        got = sorted(a.real for a in exps.exponents)
        assert np.allclose(got, [-2.0, -1.0], atol=1e-8)
        assert all(abs(a.imag) < 1e-8 for a in exps.exponents)

    def test_principal_branch(self):
        sys = hill_system(a=0.5, q=0.0)
        exps = characteristic_exponents(monodromy(sys, tol=1e-12))
        T = sys.period
        for a in exps.exponents:
            assert -math.pi / T < a.imag <= math.pi / T + 1e-12

    def test_zero_multiplier_rejected(self):
        M = Monodromy(np.array([[0.0, 0.0], [0.0, 1.0]]), 1.0, 1e-10)
        with pytest.raises(DomainError):
            characteristic_exponents(M)


class TestClassification:
    def test_unforced_oscillator_bounded(self):
        sys = hill_system(a=0.5, q=0.0)
        verdict = classify_periodic_stability(
            characteristic_exponents(monodromy(sys, tol=1e-12))
        )
        assert verdict.tag == BOUNDED
        # all multipliers sit on the unit circle, hence flagged marginal
        assert len(verdict.marginal_multipliers) == 2

    def test_mathieu_instability_tongue(self):
        # a = 1, q = 0.2 lies inside the first parametric resonance tongue
        sys = hill_system(a=1.0, q=0.2)
        verdict = classify_periodic_stability(
            characteristic_exponents(monodromy(sys, tol=1e-12))
        )
        assert verdict.tag == UNSTABLE
        assert any(abs(s) > 1.0 + 1e-6 for s in verdict.witnesses)

    def test_damped_constant_system_not_marginal(self):
        A = np.array([[0.0, 1.0], [-2.0, -3.0]])
        sys = PeriodicLinearSystem(lambda t: A, 1.0)
        verdict = classify_periodic_stability(
            characteristic_exponents(monodromy(sys, tol=1e-12))
        )
        assert verdict.tag == BOUNDED
        assert verdict.marginal_multipliers == ()

    def test_secular_jordan_block(self):
        # x' = [[0,1],[0,0]] x has monodromy [[1,T],[0,1]]: a defective
        # multiplier on the unit circle gives linear-in-t growth
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        sys = PeriodicLinearSystem(lambda t: A, 1.0)
        verdict = classify_periodic_stability(
            characteristic_exponents(monodromy(sys, tol=1e-12))
        )
        assert verdict.tag == SECULAR


class TestFactorization:
    def test_constant_system_factors_are_constant(self):
        A = np.array([[0.0, 1.0], [-2.0, -3.0]])
        sys = PeriodicLinearSystem(lambda t: A, 1.0)
        exps = characteristic_exponents(monodromy(sys, tol=1e-12))
        fac = floquet_solution(sys, [1.0, 1.0], exps, tol=1e-12)
        assert fac.periodicity_residual < 1e-7
        # periodic factor of a constant system is a constant eigenvector
        for j in range(2):
            spread = np.max(np.abs(fac.periodic_factors[j]
                                   - fac.periodic_factors[j][:, :1]))
            assert spread < 1e-7

    def test_hill_factors_periodic(self):
        sys = hill_system(a=0.5, q=0.1)
        exps = characteristic_exponents(monodromy(sys, tol=1e-12))
        fac = floquet_solution(sys, [1.0, 0.0], exps, tol=1e-12)
        assert fac.periodicity_residual < 1e-6

    def test_repeated_multipliers_rejected(self):
        # a = 4, q = 0 gives monodromy I: both multipliers equal 1
        sys = hill_system(a=4.0, q=0.0)
        exps = characteristic_exponents(monodromy(sys, tol=1e-12))
        with pytest.raises(DomainError):
            floquet_solution(sys, [1.0, 0.0], exps, tol=1e-12)

    def test_clusters_read_from_the_exponent_report(self):
        # at cluster_tol = 10 the report clusters the two distinct
        # multipliers of a = 1, q = 0.2 into one
        sys = hill_system(a=1.0, q=0.2)
        exps = characteristic_exponents(monodromy(sys, tol=1e-12),
                                        cluster_tol=10.0)
        assert [sum(sizes) for _, sizes in exps.blocks] == [2]
        with pytest.raises(DomainError):
            floquet_solution(sys, [1.0, 0.0], exps, tol=1e-12)

    def test_one_sampled_flight(self, monkeypatch):
        # M, the factors and the periodicity check come off one flight,
        # and a rejected call makes none
        flights = []

        def counted(*args, **kwargs):
            flights.append(len(kwargs["t_eval"]))
            return integrate(*args, **kwargs)
        sys = hill_system(a=1.0, q=0.2)
        exps = characteristic_exponents(monodromy(sys, tol=1e-12))
        clustered = characteristic_exponents(monodromy(sys, tol=1e-12),
                                             cluster_tol=10.0)
        monkeypatch.setattr("secular.floquet.integrate", counted)
        fac = floquet_solution(sys, [1.0, 0.0], exps, tol=1e-12)
        assert flights == [64 + 8 + 8 + 1]
        assert fac.periodicity_residual < 1e-6
        with pytest.raises(DomainError):
            floquet_solution(sys, [1.0, 0.0], clustered, tol=1e-12)
        assert len(flights) == 1


def _oscillators(t, z):
    """x'' = -x for a stack of members, flattened from (2, k)."""
    x, v = z.reshape(2, -1)
    return np.concatenate((v, -x))


class TestIntegrateAgainstSolveIvp:
    def test_bit_identical_to_solve_ivp(self):
        f = lambda t, y: np.array([y[1], -y[0] - 0.1 * y[1] ** 3])

        def up(t, y):
            return y[0]
        up.terminal, up.direction = 3, 1.0

        def down(t, y):
            return y[1] - 0.2
        down.direction = -1.0
        traj = integrate(f, [1.0, 0.0], (0.0, 40.0), 1e-10,
                         events=[up, down])
        ref = solve_ivp(f, (0.0, 40.0), [1.0, 0.0], method="DOP853",
                        rtol=1e-10, atol=1e-12, events=[up, down])
        assert np.array_equal(traj.t, ref.t)
        assert np.array_equal(traj.y, ref.y)
        for mine, theirs in zip(traj.t_events + traj.y_events,
                                ref.t_events + ref.y_events):
            assert np.array_equal(mine, theirs)

    @pytest.mark.parametrize("case", ["forward", "backward", "terminal",
                                      "backward_terminal"])
    def test_t_eval_bit_identical_to_solve_ivp(self, case):
        # the samples, events and work of solve_ivp's t_eval flight, with
        # samples on step ends, past a terminal root and at both ends
        f = lambda t, y: np.array([y[1], -y[0] - 0.1 * y[1] ** 3])

        t_end = -10.0 if case.startswith("backward") else 40.0

        def up(t, y):
            return y[0]
        up.terminal, up.direction = 2 if t_end > 0 else 1, 1.0

        def down(t, y):
            return y[1] - 0.2
        down.direction = -1.0
        events = [up, down] if case.endswith("terminal") else None
        steps = integrate(f, [1.0, 0.0], (0.0, t_end), 1e-10).t
        ts = np.sort(np.concatenate((np.linspace(0.0, t_end, 57),
                                     steps[3:9])))
        ts = ts if t_end > 0 else ts[::-1]
        traj = integrate(f, [1.0, 0.0], (0.0, t_end), 1e-10, events=events,
                         t_eval=ts)
        ref = solve_ivp(f, (0.0, t_end), [1.0, 0.0], method="DOP853",
                        rtol=1e-10, atol=1e-12, events=events, t_eval=ts)
        assert np.array_equal(traj.t, ref.t)
        assert np.array_equal(traj.y, ref.y)
        assert traj.states_evaluated == ref.nfev
        if events:
            assert ref.status == 1 and len(ref.t) < len(ts)
            for mine, theirs in zip(traj.t_events + traj.y_events,
                                    ref.t_events + ref.y_events):
                assert np.array_equal(mine, theirs)
        else:
            assert ref.t[-1] == t_end

    def test_t_eval_matches_radau(self):
        # a different method family as the oracle: DOP853 and Radau IIA,
        # each at rtol 1e-10, agree on x' = v, v' = -x - x^3 / 10 over
        # [0, 20] to within 1e-7 (bound fixed before the run)
        f = lambda t, y: np.array([y[1], -y[0] - 0.1 * y[0] ** 3])
        ts = np.linspace(0.0, 20.0, 41)
        traj = integrate(f, [1.0, 0.0], (0.0, 20.0), 1e-10, t_eval=ts)
        ref = solve_ivp(f, (0.0, 20.0), [1.0, 0.0], method="Radau",
                        rtol=1e-10, atol=1e-12, t_eval=ts)
        assert np.array_equal(traj.t, ref.t)
        assert np.max(np.abs(traj.y - ref.y)) <= 1e-7


class TestFlightOfOne:
    """The corrector's flight: one 20-float state and STM start, flown as
    a stack of one to its crossing."""

    @staticmethod
    def _corrector_flight(monkeypatch):
        """The first Newton step's flight of the L1 Lyapunov corrector,
        as `_flow_to_crossing` flies it: its rhs, start, span, event and
        the Trajectory it got."""
        mu = 0.012150585
        state, t_half = pcr3bp.lyapunov_seed(
            mu, pcr3bp.libration_points(mu)[0], 1e-3)
        flights = []

        def recording(*args, **kwargs):
            flights.append((args, kwargs, integrate(*args, **kwargs)))
            return flights[-1][-1]
        monkeypatch.setattr(pcr3bp, "integrate", recording)
        rhs, z0 = pcr3bp._var_rhs(mu), pcr3bp._with_stm(state)
        pcr3bp._flow_to_crossing(rhs, z0, 4.0 * t_half, 1e-12, -1.0)
        ((_, Z, span, tol), kwargs, traj), = flights
        assert Z.shape == (20, 1)
        return rhs, z0, span, tol, kwargs["events"], traj

    def test_corrector_flight_bit_identical_to_solve_ivp(self, monkeypatch):
        rhs, z0, span, tol, (crossing,), traj = \
            self._corrector_flight(monkeypatch)
        ref = solve_ivp(rhs, span, z0, method="DOP853", rtol=tol,
                        atol=tol * 1e-2, events=crossing)
        assert ref.status == 1
        assert np.array_equal(traj.t_events[0], ref.t_events[0])
        assert np.array_equal(traj.y_events[0], ref.y_events[0])
        assert np.array_equal(traj.final, ref.y_events[0][-1])
        assert traj.states_evaluated == ref.nfev

    def test_stack_of_one_flies_as_the_lone_start(self, monkeypatch):
        rhs, z0, span, tol, events, stack = \
            self._corrector_flight(monkeypatch)
        alone = integrate(rhs, z0, span, tol, events)
        assert stack.t.shape == (2,) and stack.y.shape == (20, 2)
        assert np.array_equal(stack.final, alone.final)
        assert np.array_equal(stack.t[-1], alone.t[-1])
        assert np.array_equal(stack.accepted_steps, alone.accepted_steps)
        assert np.array_equal(stack.rejected_steps, alone.rejected_steps)
        assert stack.states_evaluated == alone.states_evaluated
        for mine, theirs in zip(stack.t_events + stack.y_events,
                                alone.t_events + alone.y_events):
            assert np.array_equal(mine, theirs)

    def test_stack_of_one_names_its_member(self):
        # x' = -x, which fails once x < 1/2: a stack of one names member
        # 0, a lone start no member
        def rhs(t, y):
            if y[0] < 0.5:
                raise SingularityError("fell below 1/2")
            return -y
        for x0, members in (([1.0], ()), ([[1.0]], (0,))):
            with pytest.raises(SingularityError, match="below") as err:
                integrate(rhs, x0, (0.0, 1.0))
            assert err.value.members == members


class TestStackedIntegrate:
    def test_members_leave_at_their_terminal_event(self):
        # x = cos(t + phi) crosses zero upwards at t = 3 pi / 2 - phi, mod 2 pi
        phis = np.array([0.3, 1.1, -2.0])
        x0 = np.array([np.cos(phis), -np.sin(phis)])
        widths = []

        def f(t, z):
            widths.append(len(z))
            return _oscillators(t, z)

        def up(t, y):
            return y[0]
        up.terminal, up.direction = True, 1.0
        traj = integrate(f, x0, (0.0, 4.0), 1e-10, events=[up, up, up])
        final = traj.final.reshape(2, 3)
        for j, phi in enumerate(phis):
            t_up = (1.5 * math.pi - phi) % (2.0 * math.pi)
            if t_up < 4.0:
                assert abs(traj.t_events[j][0] - t_up) < 1e-8
                assert np.array_equal(final[:, j], traj.y_events[j][0])
                assert np.allclose(final[:, j], [0.0, 1.0], atol=1e-8)
            else:  # still flying at t_end
                assert len(traj.t_events[j]) == 0
                assert np.allclose(final[:, j],
                                   [math.cos(4.0 + phi), -math.sin(4.0 + phi)],
                                   atol=1e-8)
        assert traj.t[-1] == 4.0
        assert widths[0] == 6 and widths[-1] == 2  # the stack shrank

    def test_stack_without_events_matches_members(self):
        phis = np.array([0.0, 0.7])
        x0 = np.array([np.cos(phis), -np.sin(phis)])
        traj = integrate(_oscillators, x0, (0.0, 5.0), 1e-10)
        for j, phi in enumerate(phis):
            alone = integrate(_oscillators, x0[:, j], (0.0, 5.0), 1e-10)
            assert np.allclose(traj.final.reshape(2, 2)[:, j], alone.final,
                               atol=1e-9)

    def test_stack_rejects_t_eval_and_shared_events(self):
        x0 = np.ones((2, 3))
        with pytest.raises(DomainError, match="t_eval"):
            integrate(_oscillators, x0, (0.0, 1.0), t_eval=[0.5])
        with pytest.raises(DomainError):
            integrate(_oscillators, x0, (0.0, 1.0), events=lambda t, y: y[0])


class TestStepper:
    def test_non_finite_arguments_are_domain_errors(self):
        f = lambda t, y: -y
        for args in (([math.nan], (0.0, 1.0), 1e-10),
                     ([1.0], (0.0, math.inf), 1e-10),
                     ([1.0], (math.nan, 1.0), 1e-10),
                     ([1.0], (0.0, 1.0), math.nan),
                     ([1.0], (0.0, 1.0), math.inf)):
            with pytest.raises(DomainError):
                integrate(f, *args)

    def test_non_finite_derivative_ends_the_flight(self):
        # a NaN derivative makes the first step NaN: the flight ends at
        # once instead of stepping forever
        with pytest.raises(SingularityError, match="not finite"):
            integrate(lambda t, y: y * math.nan, [1.0], (0.0, 1.0))
        stack = np.ones((1, 3))
        with pytest.raises(SingularityError) as err:
            integrate(lambda t, y: y * np.array([1.0, math.nan, 1.0]),
                      stack, (0.0, 1.0))
        assert err.value.members == (1,)

    def test_overflowing_first_step_fails_as_solve_ivp_does(self):
        # at tol = 1e-300 (atol 1e-302) the initial-step rule's d1
        # overflows on this Hill flight, and solve_ivp ends at t = 0
        hill = hill_system(1.0, 0.1)
        f = lambda t, y: (hill.A_of_t(t) @ y.reshape(2, 2)).ravel()
        x0, span = np.eye(2).ravel(), (0.0, math.pi / 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ref = solve_ivp(f, span, x0, method="DOP853", rtol=1e-300,
                            atol=1e-302)
        assert ref.status == -1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularityError) as err:
                integrate(f, x0, span, tol=1e-300)
        assert str(err.value).endswith(ref.message)
        assert err.value.t == ref.t[-1]

    def test_work_counters_match_solve_ivp(self):
        f = lambda t, y: np.array([y[1], -y[0] - 0.1 * y[1] ** 3])
        plain = integrate(f, [1.0, 0.0], (0.0, 40.0), 1e-10)
        for t_eval in (None, plain.t):  # a sample at every step's end
            traj = integrate(f, [1.0, 0.0], (0.0, 40.0), 1e-10, t_eval=t_eval)
            ref = solve_ivp(f, (0.0, 40.0), [1.0, 0.0], method="DOP853",
                            rtol=1e-10, atol=1e-12, t_eval=t_eval)
            steps = int(traj.accepted_steps[0])
            assert steps == len(plain.t) - 1
            sampled = t_eval is not None
            # f at the start, one more for the initial step, 12 per try
            # and 3 per step for the interpolant
            assert traj.states_evaluated == ref.nfev == \
                2 + 12 * (steps + int(traj.rejected_steps[0])) \
                + 3 * steps * sampled

    def test_family_members_hold_their_columns(self):
        # x' = -k_j x for member j: a family whose rhs needs its members'
        # rates in x0's order throughout, including after early arrivals
        rates = np.array([0.1, 5.0, 30.0])

        def f(t, y):
            assert len(y) == len(t) == 3
            return -rates * y
        traj = integrate(f, np.ones((1, 3)), (0.0, 1.0), 1e-10)
        assert np.allclose(traj.final, np.exp(-rates), rtol=1e-8)
        assert len(set(traj.accepted_steps.tolist())) == 3


def _duffing(t, z):
    """x'' = -x - x^3 / 10 for a stack of members, flattened from (2, k)."""
    x, v = z.reshape(2, -1)
    return np.concatenate((v, -x - 0.1 * x ** 3))


def _up(t, y):
    return y[0]


_up.terminal, _up.direction = True, 1.0


@given(st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=8),
       st.floats(0.5, 2.0), st.booleans())
# two stacks whose second member, combined by one gemv over the stack,
# took 36 steps against 37 alone, or ended 3.3e-12 from its lone flight
@example([0.0, 0.1328125], 0.9, False)
@example([0.0, 0.1328125], 0.90234375, False)
@settings(max_examples=40, deadline=None)
def test_stacked_member_flies_as_alone(phases, amp, with_events):
    # each member of a stack takes the steps of its own flight
    x0 = amp * np.array([np.cos(phases), -np.sin(phases)])
    events = [_up] * len(phases) if with_events else None
    stack = integrate(_duffing, x0, (0.0, 9.0), 1e-10, events)
    final = stack.final.reshape(2, -1)
    for j in range(len(phases)):
        alone = integrate(_duffing, x0[:, j], (0.0, 9.0), 1e-10,
                          [_up] if with_events else None)
        assert np.max(np.abs(final[:, j] - alone.final)) <= 1e-12
        assert stack.accepted_steps[j] == alone.accepted_steps[0]
        assert stack.rejected_steps[j] == alone.rejected_steps[0]
        if with_events:
            assert len(stack.t_events[j]) == len(alone.t_events[0])
            assert np.allclose(stack.t_events[j], alone.t_events[0],
                               rtol=0.0, atol=1e-12)


def test_readme_grid_as_one_family_matches_cells_alone():
    a_grid, q_grid = np.meshgrid(np.linspace(0.5, 1.5, 21),
                                 np.linspace(0.0, 0.4, 9), indexing="ij")
    family = monodromy(hill_system(a_grid, q_grid))
    assert len(family) == 189
    for a, q, mono in zip(a_grid.ravel(), q_grid.ravel(), family):
        alone = monodromy(hill_system(float(a), float(q)))
        assert np.max(np.abs(mono.M - alone.M)) <= 1e-12
        verdicts = [classify_periodic_stability(characteristic_exponents(m))
                    for m in (mono, alone)]
        assert verdicts[0].tag == verdicts[1].tag


def _exponents_alone(mono, cluster_tol=1e-8):
    """One monodromy's ExponentSet through its own numeric jordan_form: the
    per-member reading that the family classifier must reproduce."""
    mults = np.linalg.eigvals(mono.M)
    dec = jordan_form(SquareMatrix(mono.M, NUMERIC), cluster_tol=cluster_tol)
    s = sorted((complex(z) for z in mults), key=lambda z: (z.real, z.imag))
    T = mono.period
    return ExponentSet(tuple(s), tuple(cmath.log(z) / T for z in s), T,
                       dec.blocks)


def _planted(n, kind, theta):
    """-I, I, a Jordan block [[1, 1], [0, 1]] or a rotation by theta, each
    completed by the identity to n x n."""
    M = -np.eye(n) if kind == "-I" else np.eye(n)
    if kind == "jordan":
        M[0, 1] = 1.0
    elif kind == "rotation":
        c, s = math.cos(theta), math.sin(theta)
        M[:2, :2] = [[c, -s], [s, c]]
    return M


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([2, 3]),
       st.lists(st.sampled_from(["random", "-I", "I", "jordan", "rotation"]),
                min_size=1, max_size=10),
       st.floats(0.1, 3.0))
@settings(max_examples=60, deadline=None)
def test_family_classifier_matches_members_alone(seed, n, kinds, theta):
    rng = np.random.default_rng(seed)
    monos = [Monodromy(rng.standard_normal((n, n)) if kind == "random"
                       else _planted(n, kind, theta), 2.0, 1e-10)
             for kind in kinds]
    family = characteristic_exponents(monos)
    assert family == [_exponents_alone(m) for m in monos]
    assert family == [characteristic_exponents(m) for m in monos]


def test_family_classifier_reads_planted_blocks():
    monos = [Monodromy(_planted(2, kind, 1.0), 1.0, 1e-10)
             for kind in ("-I", "jordan", "rotation")]
    minus, jordan, rotation = characteristic_exponents(monos)
    assert minus.blocks == ((-1 + 0j, (1, 1)),)
    assert jordan.blocks == ((1 + 0j, (2,)),)
    assert [sizes for _, sizes in rotation.blocks] == [(1,), (1,)]


@given(st.floats(0.0, 5.0), st.floats(0.0, 2.0))
@settings(max_examples=40, deadline=None)
def test_half_period_monodromy_matches_full_flight(a, q):
    # Hill's equation is even in t: M = R Phi(T/2)^-1 R Phi(T/2)
    hill = hill_system(a, q)
    full = monodromy(dataclasses.replace(hill, reversor=None)).M
    half = monodromy(hill).M
    assert np.linalg.norm(half - full, 2) <= 1e-10 * np.linalg.norm(full, 2)


def test_readme_grid_verdicts_unchanged(capsys, monkeypatch):
    # the CSV of one half-period flight and one classifying pass against
    # full-period flights read cell by cell through jordan_form
    calls = {"integrate": 0, "jordan_form": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper
    monkeypatch.setattr("secular.floquet.integrate",
                        counted("integrate", integrate))
    monkeypatch.setattr("secular.floquet.jordan_form",
                        counted("jordan_form", jordan_form))
    assert run(["--format", "csv", "floquet", "--system", "hill",
                "--grid", "0.5:1.5:21,0:0.4:9"]) == 0
    assert calls["integrate"] == 1 and calls["jordan_form"] <= 1
    lines = capsys.readouterr().out.splitlines()[1:]
    rows = list(csv.DictReader(io.StringIO("\n".join(lines))))
    a_grid, q_grid = np.meshgrid(np.linspace(0.5, 1.5, 21),
                                 np.linspace(0.0, 0.4, 9), indexing="ij")
    full = monodromy(dataclasses.replace(hill_system(a_grid, q_grid),
                                         reversor=None))
    assert len(rows) == len(full) == 189
    for row, mono in zip(rows, full):
        exps = _exponents_alone(mono)
        smax = max(abs(s) for s in exps.multipliers)
        assert abs(float(row["smax"]) - smax) <= 1e-10 * smax
        assert row["verdict"] == classify_periodic_stability(exps).tag
