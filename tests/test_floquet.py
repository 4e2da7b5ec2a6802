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
from scipy.integrate._ivp.rk import Dop853DenseOutput
from scipy.linalg import expm

from secular import floquet, pcr3bp
from secular.cli import run
from secular.errors import DomainError, NonConvergenceError, SingularityError
from secular.floquet import (
    BOUNDED,
    DEFAULT_TOL,
    SECULAR,
    UNSTABLE,
    ExponentSet,
    Monodromy,
    PeriodicLinearSystem,
    characteristic_exponents,
    classify_periodic_stability,
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
        # x = cos t crosses zero downwards at pi / 2, where the flight ends
        f = lambda t, y: np.array([y[1], -y[0]])
        traj = integrate(f, [1.0, 0.0], (0.0, 10.0), tol=1e-12,
                         events=(0, -1))
        (te,), = traj.t_events
        assert np.allclose(te, math.pi / 2, atol=1e-8)
        assert traj.t[-1] == te
        assert np.array_equal(traj.final, traj.y_events[0][0])

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

    @staticmethod
    def _failing_hill(a, q, ends):
        """A Hill family whose member j's A(t) is nan past t = ends[j]."""
        hill = hill_system(np.array(a), np.array(q))
        ends = np.array(ends)

        def A_of_t(t, who):
            A = hill.A_of_t(t, who)
            A[t > ends[who]] = math.nan
            return A
        return dataclasses.replace(hill, A_of_t=A_of_t)

    def test_family_raises_its_first_fault(self):
        # members 1 and 2 fault at different tries, 2 first: the family
        # raises 2's fault, as 2 alone raises it
        family = self._failing_hill([1.0, 1.2, 1.4], [0.1, 0.2, 0.3],
                                    [math.inf, 0.9, 0.4])
        _, traj = floquet._fundamental_flight(family, math.pi / 2, 1e-10)
        assert list(traj.faults) == [2, 1]
        with pytest.raises(SingularityError) as err:
            monodromy(family)
        with pytest.raises(SingularityError) as alone:
            monodromy(self._failing_hill([1.4], [0.3], [0.4]))
        assert str(err.value) == str(alone.value)
        assert str(err.value).endswith("the error estimate is not finite")
        assert err.value.t == alone.value.t < 0.4
        assert err.value.members == (2,)

    def test_overflowing_grid_exits_with_its_first_fault(self, capsys):
        argv = ["--format", "csv", "floquet", "--system", "hill", "--grid",
                "1e300:2e300:3,0:1e300:2"]
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            "error: non-convergence: integration failed near t=0: Required "
            "step size is less than spacing between numbers.\n")

    def test_grid_member_without_end_leaves_at_its_budget(self, capsys,
                                                          monkeypatch):
        # the a = 1e300 member faults in its launch and the a = 1e100 one,
        # which has no practical end, at its step budget, here 40 tries:
        # the grid exits 2 with the first fault's line
        monkeypatch.setattr(floquet, "MAX_TRIES", 40)
        hill = hill_system(np.array([1e100, 1e300]), np.zeros(2))
        _, traj = floquet._fundamental_flight(hill, hill.period / 2, 1e-10)
        assert list(traj.faults) == [1, 0]
        assert str(traj.faults[0]).startswith("the flight took 40 step tries")
        argv = ["--format", "csv", "floquet", "--system", "hill", "--grid",
                "1e100:1e300:2,0:0:1"]
        assert run(argv) == 2
        assert capsys.readouterr() == ("", (
            "error: non-convergence: integration failed near t=0: Required "
            "step size is less than spacing between numbers.\n"))


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

    def test_cluster_tol_joins_distinct_multipliers(self):
        # at cluster_tol = 10 the report clusters the two distinct
        # multipliers of a = 1, q = 0.2 into one
        sys = hill_system(a=1.0, q=0.2)
        exps = characteristic_exponents(monodromy(sys, tol=1e-12),
                                        cluster_tol=10.0)
        assert [sum(sizes) for _, sizes in exps.blocks] == [2]


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


def _hill_determinant_trace(a, q, N=3000):
    """tr M of x'' + (a - 2 q cos 2t) x = 0 by Hill's infinite determinant
    (Hill, *Acta Math.* 8, 1886; Magnus and Winkler, *Hill's Equation*,
    ch. 2), an oracle that flies nothing: tr M = 2 - 4 D sin^2(pi sqrt(a)/2),
    D the determinant of the (2N + 1)-row tridiagonal matrix with 1 on the
    diagonal and -q / (a - 4 n^2) beside it in row n, |n| <= N, taken by
    its three-term recurrence."""
    off = [-q / (a - 4.0 * n * n) for n in range(-N, N + 1)]
    before, D = 1.0, 1.0
    for k in range(1, len(off)):
        before, D = D, D - off[k - 1] * off[k] * before
    return 2.0 - 4.0 * D * math.sin(math.pi * math.sqrt(a) / 2.0) ** 2


class TestHillDeterminant:
    @given(st.floats(0.5, 1.5), st.floats(0.0, 0.4))
    @settings(max_examples=20, deadline=None)
    def test_lone_flight_trace(self, a, q):
        M = monodromy(hill_system(a, q), tol=1e-12).M
        assert abs(np.trace(M) - _hill_determinant_trace(a, q)) <= 1e-9

    def test_readme_grid_traces(self):
        # the README grid 0.5:1.5:21,0:0.4:9 as one family, at the CLI's tol
        a_grid, q_grid = np.meshgrid(np.linspace(0.5, 1.5, 21),
                                     np.linspace(0.0, 0.4, 9), indexing="ij")
        family = monodromy(hill_system(a_grid, q_grid), DEFAULT_TOL)
        for a, q, mono in zip(a_grid.ravel(), q_grid.ravel(), family):
            oracle = _hill_determinant_trace(float(a), float(q))
            assert abs(np.trace(mono.M) - oracle) <= 1e-9, (a, q)


def _oscillators(t, z):
    """x'' = -x for a stack of members, flattened from (2, k)."""
    x, v = z.reshape(2, -1)
    return np.concatenate((v, -x))


def _duffing(t, z):
    """x'' = -x - x^3 / 10 for a stack of members, flattened from (2, k)."""
    x, v = z.reshape(2, -1)
    return np.concatenate((v, -x - 0.1 * x ** 3))


def _same(mine, theirs):
    """Equal shapes and bits."""
    mine, theirs = np.asarray(mine), np.asarray(theirs)
    return mine.shape == theirs.shape and mine.tobytes() == theirs.tobytes()


class TestIntegrateAgainstSolveIvp:
    @given(st.sampled_from([_oscillators, _duffing]),
           st.floats(-math.pi, math.pi), st.floats(0.5, 2.0),
           st.sampled_from([9.0, -9.0]), st.integers(0, 1),
           st.sampled_from([1.0, -1.0]),
           st.one_of(st.none(), st.floats(-1.0, 1.0)),
           st.one_of(st.none(), st.lists(st.floats(0.0, 1.0), min_size=1,
                                        max_size=12)))
    @example(_oscillators, 0.0, 1.0, 9.0, 1, -1.0, 0.5, None)  # a g0 hit
    @example(_duffing, 0.0, 1.0, -9.0, 0, 1.0, None, [0.0, 0.5, 1.0])
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_solve_ivp(self, f, phase, amp, t_end, row,
                                        sense, g0, where):
        # a flight to the first crossing of y[row] in sense, against
        # solve_ivp's terminal event y[row] of that direction, which
        # reads g0 at t = 0 if one is given; sampled at the times
        # `where` places across the span if given
        x0 = amp * np.array([math.cos(phase), -math.sin(phase)])

        def crossing(t, y):
            return g0 if g0 is not None and t == 0 else y[row]
        crossing.terminal, crossing.direction = True, sense
        ts = None if where is None else \
            np.unique(np.array(where) * abs(t_end)) * math.copysign(1, t_end)
        traj = integrate(f, x0, (0.0, t_end), 1e-10, t_eval=ts, events=(
            row, sense) if g0 is None else (row, sense, g0))
        ref = solve_ivp(f, (0.0, t_end), x0, method="DOP853", rtol=1e-10,
                        atol=1e-12, events=crossing, t_eval=ts)
        assert _same(traj.t, ref.t)
        # solve_ivp's y is [] when the flight ends before its first sample
        assert _same(traj.y, np.reshape(ref.y, (2, -1)))
        assert _same(traj.t_events[0], ref.t_events[0])
        assert _same(traj.y_events[0], ref.y_events[0])
        assert traj.states_evaluated == ref.nfev

    @pytest.mark.parametrize("case", ["forward", "backward", "terminal",
                                      "backward_terminal"])
    def test_t_eval_bit_identical_to_solve_ivp(self, case):
        # the samples, events and work of solve_ivp's t_eval flight, with
        # samples on step ends, past a terminal root and at both ends
        f = lambda t, y: np.array([y[1], -y[0] - 0.1 * y[1] ** 3])

        t_end = -10.0 if case.startswith("backward") else 40.0

        def up(t, y):
            return y[0]
        up.terminal, up.direction = True, 1.0
        events = (0, 1.0) if case.endswith("terminal") else None
        steps = integrate(f, [1.0, 0.0], (0.0, t_end), 1e-10).t
        ts = np.sort(np.concatenate((np.linspace(0.0, t_end, 57),
                                     steps[3:9])))
        ts = ts if t_end > 0 else ts[::-1]
        traj = integrate(f, [1.0, 0.0], (0.0, t_end), 1e-10, events=events,
                         t_eval=ts)
        ref = solve_ivp(f, (0.0, t_end), [1.0, 0.0], method="DOP853",
                        rtol=1e-10, atol=1e-12, events=events and up,
                        t_eval=ts)
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
    """The corrector's flight: one 20-float state and STM start, flown
    alone to its crossing."""

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
        assert Z.shape == (20,)
        return rhs, z0, span, tol, kwargs["events"], traj

    def test_corrector_flight_bit_identical_to_solve_ivp(self, monkeypatch):
        rhs, z0, span, tol, (row, sense, g0), traj = \
            self._corrector_flight(monkeypatch)

        def crossing(t, z):
            return g0 if t == 0 else z[row]
        crossing.terminal, crossing.direction = True, sense
        ref = solve_ivp(rhs, span, z0, method="DOP853", rtol=tol,
                        atol=tol * 1e-2, events=crossing)
        assert ref.status == 1
        assert _same(traj.t, ref.t)  # every step
        assert _same(traj.y, ref.y)
        assert _same(traj.t_events[0], ref.t_events[0])
        assert _same(traj.y_events[0], ref.y_events[0])
        assert traj.states_evaluated == ref.nfev

    def test_stack_of_one_flies_as_the_lone_start(self, monkeypatch):
        # the corrector's start as a stack of one flies the stack's loop,
        # and takes the lone flight's steps bit for bit
        rhs, z0, span, tol, (row, sense, g0), alone = \
            self._corrector_flight(monkeypatch)
        stack = integrate(rhs, z0[:, None], span, tol,
                          events=(row, sense, [g0]))
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
        # x' = -x, which fails once x < 1/2: a lone start raises, naming no
        # member, and a stack of one's member 0 leaves with the fault
        def rhs(t, y):
            if y[0] < 0.5:
                raise SingularityError("fell below 1/2")
            return -y
        with pytest.raises(SingularityError, match="below") as err:
            integrate(rhs, [1.0], (0.0, 1.0))
        assert err.value.members == ()
        faults = integrate(rhs, [[1.0]], (0.0, 1.0)).faults
        assert list(faults) == [0]
        assert isinstance(faults[0], SingularityError)
        assert str(faults[0]) == "fell below 1/2"
        assert faults[0].members == (0,)


class TestStackedIntegrate:
    def test_member_faulting_in_its_first_step_probe_leaves(self):
        # x' = 0, so d1 = 0; member 1 faults in the call that probes its
        # first step, and leaves at t = 0 while member 0 flies on
        def f(t, y):
            bad = (floquet.calling.who == 1) & (t > 0.0)
            if bad.any():
                raise SingularityError("probe", members=tuple(
                    np.flatnonzero(bad).tolist()))
            return np.zeros_like(y)
        traj = integrate(f, np.ones((1, 2)), (0.0, 1.0))
        assert list(traj.faults) == [1] and str(traj.faults[1]) == "probe"
        assert traj.final.tolist() == [1.0, 1.0] and traj.t[-1] == 1.0
        assert traj.accepted_steps.tolist()[1] == 0

    def test_member_faulting_in_its_interpolant_finds_no_root(self):
        # x' = 1: member 1 crosses zero at t = 1/2, and faults in the calls
        # for its interpolant, the only ones without member 0
        def f(t, y):
            if floquet.calling.who.tolist() == [1]:
                raise SingularityError("interpolant")
            return np.ones_like(y)
        traj = integrate(f, [[-10.0, -0.5]], (0.0, 1.0), events=(0, 1.0))
        assert list(traj.faults) == [1]
        assert str(traj.faults[1]) == "interpolant"
        assert [len(te) for te in traj.t_events] == [0, 0]
        assert abs(traj.final[0] + 9.0) < 1e-12 and traj.final[1] > 0.0

    def test_stack_of_no_members_calls_no_f(self):
        # a manifold whose seeds all fail to lift flies such a stack
        def f(t, y):
            raise AssertionError("f was called")
        traj = integrate(f, np.empty((4, 0)), (0.0, 2.0), events=(1, 1.0))
        assert traj.faults == {} and traj.t_events == ()
        assert traj.t.tolist() == [0.0, 0.0] and traj.final.shape == (0,)

    def test_members_leave_at_their_terminal_event(self):
        # x = cos(t + phi) crosses zero upwards at t = 3 pi / 2 - phi, mod 2 pi
        phis = np.array([0.3, 1.1, -2.0])
        x0 = np.array([np.cos(phis), -np.sin(phis)])
        widths = []

        def f(t, z):
            widths.append(len(z))
            return _oscillators(t, z)

        traj = integrate(f, x0, (0.0, 4.0), 1e-10, events=(0, 1.0))
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

    def test_stack_rejects_t_eval(self):
        x0 = np.ones((2, 3))
        with pytest.raises(DomainError, match="t_eval"):
            integrate(_oscillators, x0, (0.0, 1.0), t_eval=[0.5])

    @pytest.mark.parametrize("x0, events", [
        ([1.0, 0.0], (2, 1.0)),  # a row out of range
        ([1.0, 0.0], (-1, 1.0)),
        ([1.0, 0.0], (0.5, 1.0)),
        (np.ones((2, 3)), (2, 1.0)),
        ([1.0, 0.0], (0, 0.0)),  # a sense other than +-1
        ([1.0, 0.0], (0, 2.0)),
        ([1.0, 0.0], (0, math.nan)),
        ([1.0, 0.0], (0, 1.0, [0.0])),  # a g0 of the wrong length
        (np.ones((2, 3)), (0, 1.0, [0.0, 0.0])),
        (np.ones((2, 3)), (0, 1.0, [[0.0] * 3])),
        ([1.0, 0.0], (0, 1.0, 0.0, 0.0)),  # more than (row, sense, g0)
    ])
    def test_bad_event_is_a_domain_error(self, x0, events):
        with pytest.raises(DomainError, match="event"):
            integrate(_oscillators, x0, (0.0, 1.0), events=events)

    @pytest.mark.parametrize("events", [None, (0, 1.0)])
    @pytest.mark.parametrize("m", [1, 3])
    def test_empty_span_stands_at_the_start(self, m, events):
        # t0 == t_end: no step and no call of f, and final is x0, as for
        # a lone start
        def never(t, y):
            raise AssertionError("f was called")
        x0 = np.arange(2.0 * m).reshape(2, m) - 1.0
        alone = integrate(never, x0[:, 0], (1.0, 1.0), events=events)
        stack = integrate(never, x0, (1.0, 1.0), events=events)
        assert alone.t.tolist() == [1.0] and stack.t.tolist() == [1.0, 1.0]
        assert np.array_equal(alone.final, x0[:, 0])
        assert np.array_equal(stack.final, x0.ravel())
        for traj, k in ((alone, 1), (stack, m)):
            assert traj.accepted_steps.tolist() == [0] * k
            assert traj.rejected_steps.tolist() == [0] * k
            assert traj.states_evaluated == 0
            if events:
                assert [len(te) for te in traj.t_events] == [0] * k
            else:
                assert traj.t_events is None

    @pytest.mark.parametrize("handed", [
        5, "ab", (np.zeros(2),), (np.zeros(2), 0.0, 0.0),
        (np.zeros(3), 0.0), (np.zeros((2, 1)), 0.0), (np.zeros(2), [0.0, 1.0]),
        (np.zeros(2), "x"),
    ])
    def test_relay_returns_none_or_a_start_and_g0(self, handed):
        # every member crosses x = 0 upwards within 2 pi, where the relay
        # hands it on
        phis = np.array([0.3, 1.1, -2.0])
        x0 = np.array([np.cos(phis), -np.sin(phis)])
        with pytest.raises(DomainError, match="relay returns None or"):
            integrate(_oscillators, x0, (0.0, 7.0), 1e-10, events=(0, 1.0),
                      relay=lambda j, t, z: handed)


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
        # member 1 of a stack leaves with that fault, and the rest fly on
        stack = np.ones((1, 3))
        traj = integrate(lambda t, y: y * np.where(
            floquet.calling.who == 1, math.nan, 1.0), stack, (0.0, 1.0))
        assert list(traj.faults) == [1]
        assert isinstance(traj.faults[1], SingularityError)
        assert "not finite" in str(traj.faults[1])
        assert traj.faults[1].members == (1,)
        assert np.allclose(traj.final[[0, 2]], math.e, rtol=1e-8)

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

    def test_zero_derivative_takes_solve_ivps_steps(self):
        # f = 0: every error estimate is exactly 0, so each step grows
        # tenfold, alone and in a stack
        f = lambda t, y: np.zeros_like(y)
        x0 = np.array([[1.0, 3.0], [2.0, 4.0]])
        ref = solve_ivp(f, (0.0, 10.0), x0[:, 0], method="DOP853",
                        rtol=1e-10, atol=1e-12)
        alone = integrate(f, x0[:, 0], (0.0, 10.0), 1e-10)
        assert np.array_equal(alone.t, ref.t)
        assert np.array_equal(alone.y, ref.y)
        assert alone.states_evaluated == ref.nfev
        stack = integrate(f, x0, (0.0, 10.0), 1e-10)
        assert stack.t.tolist() == [0.0, 10.0]
        assert np.array_equal(stack.final, x0.ravel())
        assert stack.accepted_steps.tolist() == [len(ref.t) - 1] * 2
        assert stack.rejected_steps.tolist() == [0, 0]
        assert stack.states_evaluated == 2 * ref.nfev

    def test_family_members_hold_their_columns(self):
        # x' = -k_j x for member j: a family whose rhs reads the rates of
        # the members each call serves, which early arrivals leave
        rates = np.array([0.1, 5.0, 30.0])
        widths = []

        def f(t, y):
            who = floquet.calling.who
            assert len(y) == len(t) == len(who)
            widths.append(len(who))
            return -rates[who] * y
        traj = integrate(f, np.ones((1, 3)), (0.0, 1.0), 1e-10)
        assert min(widths) < 3
        assert np.allclose(traj.final, np.exp(-rates), rtol=1e-8)
        assert len(set(traj.accepted_steps.tolist())) == 3


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
    events = (0, 1.0) if with_events else None
    stack = integrate(_duffing, x0, (0.0, 9.0), 1e-10, events=events)
    final = stack.final.reshape(2, -1)
    for j in range(len(phases)):
        alone = integrate(_duffing, x0[:, j], (0.0, 9.0), 1e-10,
                          events=events)
        assert np.max(np.abs(final[:, j] - alone.final)) <= 1e-12
        assert stack.accepted_steps[j] == alone.accepted_steps[0]
        assert stack.rejected_steps[j] == alone.rejected_steps[0]
        if with_events:
            assert len(stack.t_events[j]) == len(alone.t_events[0])
            assert np.allclose(stack.t_events[j], alone.t_events[0],
                               rtol=0.0, atol=1e-12)


def _turned(phase, z):
    """The start a relay hands on from landing z, its speed turned to the
    given phase: (s cos(phase), -s sin(phase)) with s = |z[1]|."""
    return abs(z[1]) * np.array([math.cos(phase), -math.sin(phase)])


@given(st.lists(st.tuples(st.floats(-math.pi, math.pi), st.integers(1, 4)),
                min_size=1, max_size=6),
       st.floats(0.5, 2.0), st.sampled_from([1.0, -1.0]), st.booleans())
@settings(max_examples=30, deadline=None)
def test_relayed_legs_fly_as_alone(members, amp, sense, past):
    # member j flies legs[j] legs of x'' = -x, each to its first crossing
    # of x = 0 in sense (within 4 pi < 13 of its start); the relay hands
    # it on from each landing, turned by half a radian more, with a g0 of
    # sense if past, until its legs are done
    phases = [phi for phi, _ in members]
    legs = [n for _, n in members]
    x0 = amp * np.array([np.cos(phases), -np.sin(phases)])
    landed = [[] for _ in members]

    def g0(start):
        return sense if past else start[0]

    def relay(j, t, z):
        landed[j].append((t, z.copy()))
        k = len(landed[j])
        nxt = _turned(phases[j] + 0.5 * k, z)
        return (nxt, g0(nxt)) if k < legs[j] else None
    stack = integrate(_oscillators, x0, (0.0, 13.0), 1e-10, events=(
        0, sense, [g0(z) for z in x0.T]), relay=relay)
    final = stack.final.reshape(2, -1)
    states = 0
    for j in range(len(members)):
        start, acc, rej = x0[:, j], 0, 0
        assert len(landed[j]) == legs[j]
        for k, (t, z) in enumerate(landed[j]):
            alone = integrate(_oscillators, start, (0.0, 13.0), 1e-10,
                              events=(0, sense, g0(start)))
            acc += alone.accepted_steps[0]
            rej += alone.rejected_steps[0]
            states += alone.states_evaluated
            assert t == alone.t_events[0][-1]
            assert z.tobytes() == alone.y_events[0][-1].tobytes()
            start = _turned(phases[j] + 0.5 * (k + 1), z)
        assert (stack.accepted_steps[j], stack.rejected_steps[j]) == (acc, rej)
        assert stack.t_events[j].tolist() == [t for t, _ in landed[j]]
        assert final[:, j].tobytes() == landed[j][-1][1].tobytes()
    assert stack.states_evaluated == states


def test_relay_takes_a_stacked_flight_with_events():
    x0 = np.ones((2, 3))
    with pytest.raises(DomainError, match="relay"):
        integrate(_oscillators, x0, (0.0, 1.0), relay=lambda j, t, z: None)
    with pytest.raises(DomainError, match="relay"):
        integrate(_oscillators, x0[:, 0], (0.0, 1.0), events=(0, 1.0),
                  relay=lambda j, t, z: None)


def _dop853_step(f, y, h):
    """One DOP853 step of x' = f(t, x) from (0, y) with step h: the stage
    rows K, the derivative at the end last, and the step's end."""
    K = np.empty((floquet._S + 1, len(y)))
    K[0] = f(0.0, y)
    for s in range(1, floquet._S):
        K[s] = f(floquet._C[s] * h, y + h * np.dot(K[:s].T,
                                                   floquet._A[s, :s]))
    y_new = y + h * np.dot(K[:-1].T, floquet._B)
    K[-1] = f(h, y_new)
    return K, y_new


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.floats(1e-3, 1.0),
       st.floats(-10.0, 10.0), st.sampled_from([1.0, -1.0]),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_interpolant_is_scipys_bit_for_bit(seed, n, h, t_old, direction,
                                           where):
    # the float interpolant of a random DOP853 step of x' = M x + sin(x),
    # M random, at times across the step and at both ends, against scipy's
    # own dense output of that step
    rng = np.random.default_rng(seed)
    M, y_old = rng.standard_normal((n, n)), rng.standard_normal(n)

    def f(t, y):
        return M @ y + np.sin(y)
    h *= direction
    K, y_new = _dop853_step(f, y_old, h)
    F = floquet._dense_coefficients(f, K, t_old, h, y_old, y_new)
    dense = Dop853DenseOutput(t_old, t_old + h, y_old, F)
    dense.h = h  # the step's own length, as integrate keeps it
    for t in [t_old, t_old + h] + [t_old + w * h for w in where]:
        got = floquet._interpolate(t, t_old, h, y_old, F)
        assert got.tobytes() == dense(t).tobytes()


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 20), st.integers(2, 6))
@settings(max_examples=40, deadline=None)
def test_stacked_interpolants_are_each_members_own(seed, n, L):
    # L random DOP853 steps of x' = M_j x + sin(x), one system each, whose
    # interpolants are built together: each member's F has every bit of
    # the F built for it alone
    rng = np.random.default_rng(seed)
    Ms = rng.standard_normal((L, n, n))
    Y0 = rng.standard_normal((L, n))
    t_old = rng.uniform(-10.0, 10.0, L)
    h = rng.uniform(1e-3, 1.0, L) * rng.choice([1.0, -1.0], L)
    fs = [lambda t, y, M=M: M @ y + np.sin(y) for M in Ms]
    steps = [_dop853_step(f, y, hj) for f, y, hj in zip(fs, Y0, h)]
    alone = [floquet._dense_coefficients(f, K, t0, hj, y, y_new)
             for f, (K, y_new), t0, hj, y in zip(fs, steps, t_old, h, Y0)]

    def stacked(t, flat):
        Y = flat.reshape(n, L)
        return np.column_stack([f(tj, Y[:, j]) for j, (f, tj)
                                in enumerate(zip(fs, t))]).ravel()
    F = floquet._dense_coefficients(
        stacked, np.array([K for K, _ in steps]), t_old, h, Y0.T.ravel(),
        np.array([y_new for _, y_new in steps]).T.ravel())
    F = F.reshape(-1, n, L)
    for j in range(L):
        assert F[:, :, j].tobytes() == alone[j].tobytes()


def test_readme_grid_member_flies_its_own_flight():
    # each member leaves the calls at its own end: its M is bit for bit
    # that of a family of one, and the family evaluates no more states
    # than its members' own flights
    a_grid, q_grid = np.meshgrid(np.linspace(0.5, 1.5, 21),
                                 np.linspace(0.0, 0.4, 9), indexing="ij")
    hill = hill_system(a_grid, q_grid)
    family = monodromy(hill)
    for a, q, mono in zip(a_grid.ravel(), q_grid.ravel(), family):
        (alone,) = monodromy(hill_system(np.array([a]), np.array([q])))
        assert mono.M.tobytes() == alone.M.tobytes()
    _, traj = floquet._fundamental_flight(hill, hill.period / 2, DEFAULT_TOL)
    tries = traj.accepted_steps + traj.rejected_steps
    assert traj.states_evaluated == int(np.sum(2 + 12 * tries)) == 24114


def test_family_flies_under_a_two_argument_wrapper(monkeypatch):
    # perfbench's tracer hands integrate f wrapped as (t, y): a family
    # still reads the members of each call off floquet.calling.who
    hill = hill_system(np.array([0.5, 1.0, 1.5]), np.array([0.0, 0.2, 0.4]))
    plain = monodromy(hill)

    def wrapped(f, *args, **kwargs):
        return integrate(lambda t, y: f(t, y), *args, **kwargs)
    monkeypatch.setattr(floquet, "integrate", wrapped)
    for mono, alone in zip(monodromy(hill), plain):
        assert mono.M.tobytes() == alone.M.tobytes()


def test_lone_flight_ends_at_its_step_budget(monkeypatch):
    # past MAX_TRIES tries a lone flight raises with its last state; the
    # oscillator rejects no step, so that is its state after MAX_TRIES steps
    f = lambda t, y: np.array([y[1], -y[0]])
    plain = integrate(f, [1.0, 0.0], (0.0, 100.0), 1e-10)
    assert plain.rejected_steps[0] == 0 and plain.accepted_steps[0] > 12
    monkeypatch.setattr(floquet, "MAX_TRIES", 12)
    with pytest.raises(NonConvergenceError, match="12 step tries") as err:
        integrate(f, [1.0, 0.0], (0.0, 100.0), 1e-10)
    assert err.value.best.tobytes() == plain.y[:, 12].tobytes()


def test_stacked_member_ends_at_its_step_budget(monkeypatch):
    # a stacked member's budget is its own fault: with MAX_TRIES the tries
    # of member 0's flight, member 0 still lands its root, as alone, and
    # member 1 leaves with the error and last state it raises alone
    f = lambda t, y: np.array([y[1], -y[0]])
    starts = np.array([[1.0, -1.0], [0.0, 0.0]])  # roots at pi/2, 3 pi/2

    def fly(x0):
        return integrate(f if x0.ndim == 1 else _oscillators, x0,
                         (0.0, 10.0), 1e-10, events=(0, -1))
    plain = fly(starts)
    tries = (plain.accepted_steps + plain.rejected_steps).tolist()
    assert tries[0] < tries[1]
    monkeypatch.setattr(floquet, "MAX_TRIES", tries[0])
    stack = fly(starts)
    assert fly(starts[:, 0]).t_events[0].tobytes() == \
        stack.t_events[0].tobytes() == plain.t_events[0].tobytes()
    with pytest.raises(NonConvergenceError, match="step tries") as alone:
        fly(starts[:, 1])
    assert list(stack.faults) == [1]
    assert str(stack.faults[1]) == str(alone.value)
    assert stack.faults[1].best.tobytes() == alone.value.best.tobytes()
    assert stack.accepted_steps[1] + stack.rejected_steps[1] == tries[0]


def test_relayed_member_has_the_budget_of_each_leg(monkeypatch):
    # each leg is a flight of its own: three legs of k tries fly under
    # MAX_TRIES = k, and under k - 1 the first leg faults as it does alone
    f = lambda t, y: np.array([y[1], -y[0]])
    start = np.array([1.0, 0.0])  # its root at pi/2

    def fly():
        legs = []

        def relay(j, t, x):
            legs.append(t)
            return (start, 1.0) if len(legs) < 3 else None
        return integrate(_oscillators, start[:, None], (0.0, 10.0), 1e-10,
                         events=(0, -1), relay=relay)
    lone = integrate(f, start, (0.0, 10.0), 1e-10, events=(0, -1))
    k = int(lone.accepted_steps[0] + lone.rejected_steps[0])
    plain = fly()
    assert plain.accepted_steps[0] + plain.rejected_steps[0] == 3 * k
    monkeypatch.setattr(floquet, "MAX_TRIES", k)
    traj = fly()
    assert not traj.faults
    assert traj.t_events[0].tobytes() == plain.t_events[0].tobytes()
    monkeypatch.setattr(floquet, "MAX_TRIES", k - 1)
    traj = fly()
    with pytest.raises(NonConvergenceError, match="step tries") as alone:
        integrate(f, start, (0.0, 10.0), 1e-10, events=(0, -1))
    assert list(traj.faults) == [0] and not len(traj.t_events[0])
    assert str(traj.faults[0]) == str(alone.value)
    assert traj.faults[0].best.tobytes() == alone.value.best.tobytes()


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
