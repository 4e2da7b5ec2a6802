"""Tests for the Poincare surface-of-section module."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

import secular.section
from secular.errors import DomainError, NonConvergenceError, SingularityError
from secular.pcr3bp import (
    _flow_rhs,
    _flow_to_crossing,
    correct_periodic,
    jacobi_constant,
    libration_points,
    lyapunov_seed,
)
from secular.section import (
    HYPERBOLIC,
    RETURN_TIME,
    ManifoldBranch,
    MapLinearization,
    SectionDef,
    SectionPoint,
    fixed_point,
    homoclinic_intersection,
    lift,
    linearize_map,
    manifold_segment,
    manifold_segments,
    return_map,
    section_crossings,
)

MU_EM = 0.012150585


@pytest.fixture(scope="module")
def orbit():
    l1 = libration_points(MU_EM)[0]
    seed, t_half = lyapunov_seed(MU_EM, l1, 1e-3)
    return correct_periodic(seed, t_half, MU_EM)


@pytest.fixture(scope="module")
def sd(orbit):
    return SectionDef(+1, orbit.jacobi)


@pytest.fixture(scope="module")
def pstar(orbit):
    return SectionPoint(float(orbit.initial_state[0]),
                        float(orbit.initial_state[2]))


class TestLift:
    def test_energy_round_trip(self, sd):
        state = lift(SectionPoint(0.25, 0.1), MU_EM, sd)
        assert state[1] == 0.0
        assert state[3] > 0.0  # direction +1
        assert abs(jacobi_constant(state, MU_EM) - sd.C) < 1e-12

    def test_forbidden_region(self, sd):
        # far from both primaries with little potential, vy^2 goes negative
        with pytest.raises(DomainError):
            lift(SectionPoint(0.7, 1.5), MU_EM, sd)

    def test_bad_direction(self):
        with pytest.raises(DomainError):
            SectionDef(0, 3.0)


class TestReturnMap:
    def test_periodic_orbit_is_fixed_point(self, pstar, sd):
        q = return_map(pstar, MU_EM, sd)
        assert abs(q.x - pstar.x) < 1e-8
        assert abs(q.vx - pstar.vx) < 1e-8

    def test_crossings_stay_fixed(self, pstar, sd):
        # the fixed point is hyperbolic with multiplier ~2674, so the
        # ~1e-11 seed error grows by that factor every return: only the
        # first couple of crossings can sit tight on the fixed point
        pts = section_crossings(pstar, MU_EM, sd, 2)
        assert abs(pts[0].x - pstar.x) < 1e-8
        assert abs(pts[1].x - pstar.x) < 1e-6

    def test_composition_bitwise_equal(self, sd, pstar):
        start = SectionPoint(pstar.x + 1e-4, pstar.vx)
        pts = section_crossings(start, MU_EM, sd, 3)
        q = start
        for _ in range(3):
            q = return_map(q, MU_EM, sd)
        assert q == pts[-1]

    def test_crossings_land_on_section(self, sd, pstar):
        # every recorded point reconstructs to the same Jacobi constant
        start = SectionPoint(pstar.x + 1e-4, pstar.vx)
        for q in section_crossings(start, MU_EM, sd, 3):
            state = lift(q, MU_EM, sd)
            assert abs(jacobi_constant(state, MU_EM) - sd.C) < 1e-11

    def test_bad_count(self, pstar, sd):
        with pytest.raises(DomainError):
            section_crossings(pstar, MU_EM, sd, 0)


class TestLinearization:
    def test_stm_matches_orbit_multipliers(self, orbit, pstar, sd):
        lin = linearize_map(pstar, MU_EM, sd, method="stm")
        assert lin.tag == HYPERBOLIC
        assert abs(lin.det - 1.0) < 1e-6
        nontrivial = sorted(orbit.multipliers, key=lambda s: abs(s - 1.0))[2:]
        lam_orbit = max(abs(s) for s in nontrivial)
        lam_map = max(abs(e) for e in lin.eigenvalues)
        assert abs(lam_map - lam_orbit) / lam_orbit < 1e-4

    def test_fd_agrees_with_stm_in_mild_region(self, sd):
        # near-Earth region where the map is only mildly nonlinear
        p = SectionPoint(0.22, 0.0)
        fd = linearize_map(p, MU_EM, sd, method="fd")
        stm = linearize_map(p, MU_EM, sd, method="stm")
        assert np.allclose(fd.jacobian, stm.jacobian, rtol=1e-4, atol=1e-5)
        assert abs(stm.det - 1.0) < 1e-6

    def test_unknown_method(self, pstar, sd):
        with pytest.raises(DomainError):
            linearize_map(pstar, MU_EM, sd, method="secant")


class TestFixedPoint:
    def test_recovers_orbit_point(self, pstar, sd):
        guess = SectionPoint(pstar.x + 1e-6, pstar.vx)
        fp = fixed_point(guess, MU_EM, sd, tol=1e-10)
        assert abs(fp.x - pstar.x) < 1e-8
        assert abs(fp.vx - pstar.vx) < 1e-8

    def test_non_convergent_guess(self, sd):
        with pytest.raises((NonConvergenceError, DomainError)):
            fixed_point(SectionPoint(0.3, 0.3), MU_EM, sd,
                        tol=1e-12, max_iter=3)


def test_fixed_point_flies_once_per_newton_step(pstar, sd, monkeypatch):
    flights = []

    def counted(rhs, z0, *args):
        flights.append(np.shape(z0))
        return _flow_to_crossing(rhs, z0, *args)
    monkeypatch.setattr("secular.section._flow_to_crossing", counted)
    guess = SectionPoint(pstar.x + 1e-6, pstar.vx)
    fixed_point(guess, MU_EM, sd, tol=1e-10)
    # every flight carries the STM, for both the image and the Jacobian
    assert flights and all(shape == (20,) for shape in flights)
    # and each is one Newton step: with one step fewer there is no answer
    with pytest.raises(NonConvergenceError):
        fixed_point(guess, MU_EM, sd, tol=1e-10, max_iter=len(flights) - 1)


class TestAreaPreservation:
    def test_triangle_area(self, sd):
        # the return map preserves dx ^ dvx on the y = 0, fixed-C section
        rng = np.random.default_rng(7)
        base = np.array([0.22, 0.0])

        def area(T):
            u, v = T[1] - T[0], T[2] - T[0]
            return 0.5 * abs(u[0] * v[1] - u[1] * v[0])

        # equilateral triangles (no near-degenerate areas), small enough
        # that the map's nonlinearity stays below the 1e-4 bound
        side = 5e-6
        for _ in range(5):
            c = base + rng.uniform(-0.005, 0.005, 2)
            th = rng.uniform(0.0, 2.0 * math.pi)
            tri = np.array([
                c + side * np.array([math.cos(th + k * 2.0 * math.pi / 3.0),
                                     math.sin(th + k * 2.0 * math.pi / 3.0)])
                for k in range(3)
            ])
            img = np.array([
                return_map(SectionPoint(*v), MU_EM, sd).as_array()
                for v in tri
            ])
            assert abs(area(img) - area(tri)) < 1e-4 * area(tri)


@given(st.floats(-0.005, 0.005), st.floats(-0.005, 0.005),
       st.floats(0.0, 2.0 * math.pi), st.floats(math.pi / 3, 2 * math.pi / 3),
       st.floats(3e-7, 1e-6), st.floats(3e-7, 1e-6))
@settings(max_examples=6, deadline=None)
def test_return_map_preserves_area(sd, dx, dvx, th, phi, a, b):
    # a random small triangle on the section keeps its area dx ^ dvx under
    # the return map.  Its sides a and b meet at an angle phi in
    # [pi/3, 2 pi/3], so the area is far from zero; the image's straight
    # sides miss the curved image region by a relative area that grows
    # with the side, up to about 50 times the longer side in this box,
    # hence sides of at most 1e-6 for the 1e-4 bound
    c = np.array([0.22 + dx, dvx])
    tri = [c, c + a * np.array([math.cos(th), math.sin(th)]),
           c + b * np.array([math.cos(th + phi), math.sin(th + phi)])]
    img = [return_map(SectionPoint(*v), MU_EM, sd).as_array() for v in tri]

    def area(T):
        u, v = T[1] - T[0], T[2] - T[0]
        return 0.5 * abs(u[0] * v[1] - u[1] * v[0])
    assert abs(area(img) - area(tri)) < 1e-4 * area(tri)


class TestManifolds:
    def test_branch_validation(self, pstar, sd):
        with pytest.raises(DomainError):
            manifold_segment(pstar, MU_EM, sd, "sideways", steps=1, seeds=2)

    def test_unstable_seed_layer_follows_eigenvector(self, pstar, sd):
        lin = linearize_map(pstar, MU_EM, sd, method="stm")
        eigvals, eigvecs = np.linalg.eig(lin.jacobian)
        iu = int(np.argmax(np.abs(eigvals)))
        lam = float(np.real(eigvals[iu]))
        v = np.real(eigvecs[:, iu])
        v /= np.linalg.norm(v)
        off = 1e-8
        br = manifold_segment(pstar, MU_EM, sd, "unstable+",
                              steps=1, seeds=4, seed_offset=off, tol=1e-12)
        first = br.points[0] - pstar.as_array()
        expected = lam * off * v
        if np.dot(first, expected) < 0:
            expected = -expected
        # 1% slack for quadratic terms amplified by the strong expansion
        assert np.linalg.norm(first - expected) < 1e-2 * abs(lam) * off

    def test_synthetic_homoclinic_crossing(self):
        u = ManifoldBranch("unstable+", np.array([[-1.0, -1.0], [1.0, 1.0]]),
                           False, "")
        s = ManifoldBranch("stable+", np.array([[-1.0, 1.0], [1.0, -1.0]]),
                           False, "")
        rep = homoclinic_intersection(u, s)
        assert rep.found
        assert np.allclose(rep.point, (0.0, 0.0))
        assert abs(rep.angle - math.pi / 2) < 1e-12

    def test_synthetic_parallel_no_crossing(self):
        u = ManifoldBranch("unstable+", np.array([[0.0, 0.0], [1.0, 0.0]]),
                           False, "")
        s = ManifoldBranch("stable+", np.array([[0.0, 1.0], [1.0, 1.0]]),
                           False, "")
        assert not homoclinic_intersection(u, s).found


def _flow(t, z):
    """The rotating-frame flow, stated independently of secular.pcr3bp."""
    x, y, vx, vy = z
    r1 = math.hypot(x + MU_EM, y) ** 3
    r2 = math.hypot(x - 1.0 + MU_EM, y) ** 3
    ax = x - (1 - MU_EM) * (x + MU_EM) / r1 - MU_EM * (x - 1 + MU_EM) / r2
    ay = y - (1 - MU_EM) * y / r1 - MU_EM * y / r2
    return [vx, vy, 2.0 * vy + ax, -2.0 * vx + ay]


def _omega(x):
    return (0.5 * x * x + (1 - MU_EM) / abs(x + MU_EM)
            + MU_EM / abs(x - 1 + MU_EM))


def _reference_image(q, C, forward):
    """Next upward y = 0 crossing of section point q, DOP853 at rtol 1e-12."""
    z0 = [q[0], 0.0, q[1], math.sqrt(2.0 * _omega(q[0]) - q[1] ** 2 - C)]

    def crossing(t, z):
        return z[1]
    crossing.terminal = 2  # the start itself registers at t = 0
    crossing.direction = 1.0 if forward else -1.0
    sol = solve_ivp(_flow, (0.0, 50.0 if forward else -50.0), z0,
                    method="DOP853", rtol=1e-12, atol=1e-14, events=crossing)
    z = sol.y_events[0][-1]
    return np.array([z[0], z[2]])


def _next_crossing(state, mu, sd, forward=True, tol=1e-12):
    """The next crossing of one state or of a (4, m) stack, or with
    forward=False the previous one, flown back in time by the locator: the
    serial reference of the mirrored forward stacks.  It reads
    section._flow_rhs when called, so a test may patch the flow."""
    sign = 1.0 if forward else -1.0
    out = _flow_to_crossing(secular.section._flow_rhs(mu), state,
                            sign * RETURN_TIME, tol, sign * sd.direction)
    if np.ndim(state) == 1:
        return out[1]
    return [o if isinstance(o, Exception) else o[1] for o in out]


def _inverse_map(p, mu, sd, tol=1e-12):
    """Previous crossing of a section point, via reversed-time integration."""
    z = _next_crossing(lift(p, mu, sd), mu, sd, forward=False, tol=tol)
    return SectionPoint(float(z[0]), float(z[2]))


README_C = 3.1882812173139823
README_FIXED = SectionPoint(0.8359151287720265, 0.0)


class TestStackedLayers:
    @pytest.mark.parametrize("branch", ["unstable+", "stable+"])
    def test_readme_layer0_matches_reference(self, branch):
        # the README manifolds run flies each layer of 40 seeds as one
        # stack, at a tolerance that keeps it no looser than solo flights
        sd = SectionDef(+1, README_C)
        lin = linearize_map(README_FIXED, MU_EM, sd, tol=1e-10, method="stm")
        br = manifold_segment(README_FIXED, MU_EM, sd, branch, steps=1,
                              seeds=40, seed_offset=1e-7, tol=1e-10, lin=lin)
        assert not br.truncated and br.points.shape == (40, 2)
        eigvals, eigvecs = np.linalg.eig(lin.jacobian)
        unstable = branch.startswith("unstable")
        i = int(np.argmax(np.abs(eigvals)) if unstable
                else np.argmin(np.abs(eigvals)))
        v = np.real(eigvecs[:, i]) / np.linalg.norm(np.real(eigvecs[:, i]))
        ratios = abs(eigvals[i].real) ** np.linspace(0.0, 1.0, 40,
                                                     endpoint=False)
        step = return_map if unstable else _inverse_map
        stacked_err = solo_err = 0.0
        for r, got in zip(ratios, br.points):
            q = README_FIXED.as_array() + 1e-7 * r * v
            ref = _reference_image(q, README_C, unstable)
            solo = step(SectionPoint(*q), MU_EM, sd, 1e-10).as_array()
            stacked_err = max(stacked_err, np.max(np.abs(got - ref)))
            solo_err = max(solo_err, np.max(np.abs(solo - ref)))
        assert stacked_err < 1e-8
        assert stacked_err <= solo_err

    def test_colliding_seed_truncates_and_others_stay(self):
        # a section point on an orbit that falls straight into the Moon:
        # fly back from r2 = 1e-3 to the previous y = 0 crossing
        r0, ang = 1e-3, 3.0
        v = math.sqrt(2.0 * MU_EM / r0)
        fall = [1 - MU_EM + r0 * math.cos(ang), r0 * math.sin(ang),
                -v * math.cos(ang), -v * math.sin(ang)]

        def crossing(t, z):
            return z[1]
        crossing.terminal = True
        sol = solve_ivp(_flow, (0.0, -5.0), fall, method="DOP853",
                        rtol=1e-13, atol=1e-15, events=crossing)
        xc, _, vxc, vyc = sol.y_events[0][0]
        assert vyc > 0.0
        sd = SectionDef(+1, 2.0 * _omega(xc) - vxc ** 2 - vyc ** 2)
        # a made-up linearization whose three seeds lie at xc + 0.01,
        # about xc + 0.0068 and xc: only the last one collides
        lam = 10.0
        lin = MapLinearization(np.diag([lam, 1.0 / lam]),
                               (complex(lam), complex(1.0 / lam)), HYPERBOLIC)
        off = 0.01 / (lam ** (2.0 / 3.0) - 1.0)
        p = SectionPoint(xc + 0.01 + off, vxc)
        br = manifold_segment(p, MU_EM, sd, "unstable-", steps=1, seeds=3,
                              seed_offset=off, tol=1e-10, lin=lin)
        assert br.truncated
        assert br.truncation_reason.startswith("iterate 0: ")
        assert "collision" in br.truncation_reason
        assert br.points.shape == (2, 2)
        for r, got in zip((1.0, lam ** (1.0 / 3.0)), br.points):
            solo = return_map(SectionPoint(p.x - off * r, vxc), MU_EM, sd,
                              1e-10)
            assert np.max(np.abs(got - solo.as_array())) < 1e-8

    def test_colliding_stable_seed_truncates_and_others_stay(self):
        # the mirror image of the seed above: fly back from the section
        # point (xc, -vxc) and the orbit falls straight into the Moon
        r0, ang = 1e-3, 3.0
        v = math.sqrt(2.0 * MU_EM / r0)
        fall = [1 - MU_EM + r0 * math.cos(ang), r0 * math.sin(ang),
                -v * math.cos(ang), -v * math.sin(ang)]

        def crossing(t, z):
            return z[1]
        crossing.terminal = True
        sol = solve_ivp(_flow, (0.0, -5.0), fall, method="DOP853",
                        rtol=1e-13, atol=1e-15, events=crossing)
        xc, _, vxc, vyc = sol.y_events[0][0]
        sd = SectionDef(+1, 2.0 * _omega(xc) - vxc ** 2 - vyc ** 2)
        # a made-up linearization whose stable seeds lie at xc, about
        # xc - 0.0054 and about xc - 0.0078: only the first one collides
        lam = 10.0
        lin = MapLinearization(np.diag([1.0 / lam, lam]),
                               (complex(1.0 / lam), complex(lam)), HYPERBOLIC)
        off = 0.01
        p = SectionPoint(xc - off, -vxc)
        br = manifold_segment(p, MU_EM, sd, "stable+", steps=1, seeds=3,
                              seed_offset=off, tol=1e-10, lin=lin)
        assert br.truncated
        assert br.truncation_reason == ("iterate 0: state within collision "
                                        "radius of a primary "
                                        "(r1=1, r2=9.97e-07)")
        assert br.points.shape == (2, 2)
        for r, got in zip((lam ** (-1.0 / 3.0), lam ** (-2.0 / 3.0)),
                          br.points):
            solo = _inverse_map(SectionPoint(p.x + off * r, -vxc), MU_EM, sd,
                                1e-10)
            assert np.max(np.abs(got - solo.as_array())) < 1e-8

    def test_failed_stable_flight_reports_backward_time(self, monkeypatch):
        # a right-hand side that fails after |t| = 0.05: every seed's flight
        # ends with integrate's "integration failed near t=...", and a
        # stable seed's time reads as its reversed-time flight has it
        def failing(mu):
            flow = _flow_rhs(mu)

            def rhs(t, z):
                d = flow(t, z).reshape(4, -1)
                return np.where(np.abs(t) > 0.05, np.nan, d).ravel()
            return rhs
        monkeypatch.setattr("secular.section._flow_rhs", failing)
        sd = SectionDef(+1, README_C)
        lin = MapLinearization(np.diag([0.5, 2.0]),
                               (complex(0.5), complex(2.0)), HYPERBOLIC)
        br = manifold_segment(README_FIXED, MU_EM, sd, "stable+", steps=1,
                              seeds=2, seed_offset=1e-3, tol=1e-10, lin=lin)
        last = README_FIXED.as_array() + 1e-3 * 0.5 ** 0.5 * np.array([1, 0])
        with pytest.raises(SingularityError) as backward:
            _next_crossing(lift(SectionPoint(*last), MU_EM, sd), MU_EM, sd,
                           forward=False, tol=1e-10)
        assert br.truncated and br.points.shape == (0,)
        assert br.truncation_reason == f"iterate 0: {backward.value}"
        assert br.truncation_reason.startswith(
            "iterate 0: integration failed near t=-0.0")


# the time-reversal reflection R(x, y, vx, vy) = (x, -y, -vx, vy)
R = np.array([1.0, -1.0, -1.0, 1.0])


class TestTimeReversal:
    @settings(max_examples=12, deadline=None)
    @given(direction=st.sampled_from([1, -1]),
           offsets=st.lists(st.tuples(st.floats(-1e-3, 1e-3),
                                      st.floats(-1e-3, 1e-3)),
                            min_size=1, max_size=3))
    def test_backward_crossing_is_mirrored_forward_crossing(self, direction,
                                                            offsets):
        # the previous crossing of z is R of the next crossing of R(z),
        # bit for bit, for one start and for a stack of them
        sd = SectionDef(direction, README_C)
        Z = np.array([lift(SectionPoint(README_FIXED.x + dx, dvx), MU_EM, sd)
                      for dx, dvx in offsets]).T
        back = _next_crossing(Z, MU_EM, sd, forward=False, tol=1e-10)
        mirrored = _next_crossing(Z * R[:, None], MU_EM, sd, tol=1e-10)
        for b, m in zip(back, mirrored):
            assert b.tobytes() == (m * R).tobytes()
        one = _next_crossing(Z[:, 0], MU_EM, sd, forward=False, tol=1e-10)
        assert one.tobytes() == back[0].tobytes()
        assert one.tobytes() == (_next_crossing(Z[:, 0] * R, MU_EM, sd,
                                                tol=1e-10) * R).tobytes()

    def test_crossing_at_zero_keeps_the_mirror(self):
        # this start's previous crossing lands on y = 0 exactly, and a sum
        # that cancels reads +0.0 whichever side it comes from
        sd = SectionDef(+1, README_C)
        z = lift(SectionPoint(README_FIXED.x - 0.0006976095419946242,
                              -0.00091429896571979), MU_EM, sd)
        back = _next_crossing(z, MU_EM, sd, forward=False, tol=1e-10)
        assert back[1] == 0.0
        assert back.tobytes() == (_next_crossing(z * R, MU_EM, sd,
                                                 tol=1e-10) * R).tobytes()

    def test_branches_in_one_stack_are_each_alone(self):
        sd = SectionDef(+1, README_C)
        lin = linearize_map(README_FIXED, MU_EM, sd, tol=1e-10, method="stm")
        kw = dict(steps=2, seeds=6, seed_offset=1e-7, tol=1e-10, lin=lin)
        names = ("unstable+", "stable+", "unstable-", "stable-")
        together = manifold_segments(README_FIXED, MU_EM, sd, names, **kw)
        assert [br.branch for br in together] == list(names)
        for br in together:
            alone = manifold_segment(README_FIXED, MU_EM, sd, br.branch, **kw)
            assert br.points.shape == (12, 2)
            assert br.points.tobytes() == alone.points.tobytes()
            assert (br.truncated, br.truncation_reason) == \
                (alone.truncated, alone.truncation_reason)
