"""Tests for the Poincare surface-of-section module."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

import secular.section
from secular.errors import DomainError, SingularityError
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
    homoclinic_intersection,
    lift,
    linearize_map,
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


def _fd_jacobian(p, mu, sd, step=1e-6, tol=1e-12):
    """The return map's Jacobian by Richardson-refined central differences
    (step halved once), the reference for the STM linearization."""
    def diff(h):
        J = np.empty((2, 2))
        for j, e in enumerate(np.eye(2)):
            qp = return_map(SectionPoint(*(p.as_array() + h * e)), mu, sd, tol)
            qm = return_map(SectionPoint(*(p.as_array() - h * e)), mu, sd, tol)
            J[:, j] = (qp.as_array() - qm.as_array()) / (2.0 * h)
        return J

    return (4.0 * diff(step / 2.0) - diff(step)) / 3.0


class TestLinearization:
    def test_stm_matches_orbit_multipliers(self, orbit, pstar, sd):
        lin = linearize_map(pstar, MU_EM, sd)
        assert lin.tag == HYPERBOLIC
        assert abs(np.linalg.det(lin.jacobian) - 1.0) < 1e-6
        nontrivial = sorted(orbit.multipliers, key=lambda s: abs(s - 1.0))[2:]
        lam_orbit = max(abs(s) for s in nontrivial)
        lam_map = max(abs(e) for e in lin.eigenvalues)
        assert abs(lam_map - lam_orbit) / lam_orbit < 1e-4

    def test_fd_agrees_with_stm_in_mild_region(self, sd):
        # near-Earth region where the map is only mildly nonlinear
        p = SectionPoint(0.22, 0.0)
        fd = _fd_jacobian(p, MU_EM, sd)
        stm = linearize_map(p, MU_EM, sd)
        assert np.allclose(fd, stm.jacobian, rtol=1e-4, atol=1e-5)
        assert abs(np.linalg.det(stm.jacobian) - 1.0) < 1e-6


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
            manifold_segments(pstar, MU_EM, sd, ("sideways",), steps=1,
                              seeds=2)

    def test_unstable_seed_layer_follows_eigenvector(self, pstar, sd):
        lin = linearize_map(pstar, MU_EM, sd)
        eigvals, eigvecs = np.linalg.eig(lin.jacobian)
        iu = int(np.argmax(np.abs(eigvals)))
        lam = float(np.real(eigvals[iu]))
        v = np.real(eigvecs[:, iu])
        v /= np.linalg.norm(v)
        off = 1e-8
        br, = manifold_segments(pstar, MU_EM, sd, ("unstable+",),
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
        lin = linearize_map(README_FIXED, MU_EM, sd, tol=1e-10)
        br, = manifold_segments(README_FIXED, MU_EM, sd, (branch,), steps=1,
                                seeds=40, seed_offset=1e-7, tol=1e-10,
                                lin=lin)
        assert not br.truncated and br.points.shape == (40, 2)
        # the README fixed point is on vx = 0: a stable seed is the mirror
        # R of an unstable one, on the unstable branch's ladder
        eigvals, eigvecs = np.linalg.eig(lin.jacobian)
        unstable = branch.startswith("unstable")
        i = int(np.argmax(np.abs(eigvals)))
        v = np.real(eigvecs[:, i]) / np.linalg.norm(np.real(eigvecs[:, i]))
        v = v if unstable else v * R2
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
        br, = manifold_segments(p, MU_EM, sd, ("unstable-",), steps=1,
                                seeds=3, seed_offset=off, tol=1e-10, lin=lin)
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
        br, = manifold_segments(p, MU_EM, sd, ("stable+",), steps=1,
                                seeds=3, seed_offset=off, tol=1e-10, lin=lin)
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
        # stable seed's time reads as its reversed-time flight has it.  On
        # vx = 0 the stable seeds are R of the unstable ones, p + 1e-3 r
        # (0, -1) for r = 1, sqrt(2), and the last to drop out is the second
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
        br, = manifold_segments(README_FIXED, MU_EM, sd, ("stable+",),
                                steps=1, seeds=2, seed_offset=1e-3, tol=1e-10,
                                lin=lin)
        last = README_FIXED.as_array() + 1e-3 * 2.0 ** 0.5 * np.array([0, -1])
        with pytest.raises(SingularityError) as backward:
            _next_crossing(lift(SectionPoint(*last), MU_EM, sd), MU_EM, sd,
                           forward=False, tol=1e-10)
        assert br.truncated and br.points.shape == (0,)
        assert br.truncation_reason == f"iterate 0: {backward.value}"
        assert br.truncation_reason.startswith(
            "iterate 0: integration failed near t=-0.0")


# the time-reversal reflection R(x, y, vx, vy) = (x, -y, -vx, vy), and on
# a section point (x, vx)
R = np.array([1.0, -1.0, -1.0, 1.0])
R2 = np.array([1.0, -1.0])


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
        lin = linearize_map(README_FIXED, MU_EM, sd, tol=1e-10)
        kw = dict(steps=2, seeds=6, seed_offset=1e-7, tol=1e-10, lin=lin)
        names = ("unstable+", "stable+", "unstable-", "stable-")
        together = manifold_segments(README_FIXED, MU_EM, sd, names, **kw)
        assert [br.branch for br in together] == list(names)
        for br in together:
            alone, = manifold_segments(README_FIXED, MU_EM, sd, (br.branch,),
                                       **kw)
            assert br.points.shape == (12, 2)
            assert br.points.tobytes() == alone.points.tobytes()
            assert (br.truncated, br.truncation_reason) == \
                (alone.truncated, alone.truncation_reason)


def _per_layer(p, mu, sd, branches, steps, seeds, seed_offset, tol, lin):
    """The manifold rule the relay replaced, as the reference it must match
    byte for byte: layer k of every branch flies as one `_flow_to_crossing`
    stack once all of layer k - 1 has landed, and a branch's truncation
    reason is that of its last seed to drop out, layer by layer.  At a
    fixed point on vx = 0 a stable branch's seeds are R of the unstable
    ones of its sign, R v_u on the |lambda_u| ladder, flown with the
    reversed map: their lifted, mirrored starts are the unstable seeds'
    own, and within a layer a start flies once however many seeds have
    it.  It reads section's lift, _flow_rhs and RETURN_TIME when called,
    so a test may patch them."""
    eigvals, eigvecs = np.linalg.eig(lin.jacobian)
    layers, flips = [], []
    for branch in branches:
        flips.append(1.0 if branch.startswith("unstable") else -1.0)
        i = int(np.argmax(np.abs(eigvals)) if flips[-1] > 0 or p.vx == 0.0
                else np.argmin(np.abs(eigvals)))
        v = np.real(eigvecs[:, i])
        v = v / np.linalg.norm(v) * (-1.0 if branch.endswith("-") else 1.0)
        if flips[-1] < 0 and p.vx == 0.0:
            v = v * R2
        ratios = abs(float(np.real(eigvals[i]))) ** np.linspace(
            0.0, 1.0, seeds, endpoint=False)
        layers.append([p.as_array() + seed_offset * r * v for r in ratios])
    polys = [[] for _ in branches]
    reasons = [""] * len(branches)
    for k in range(steps):
        outcomes = []
        for b, pts in enumerate(layers):
            for q in pts:
                try:
                    z = secular.section.lift(SectionPoint(*q), mu, sd)
                    z[2] *= flips[b]
                except (DomainError, SingularityError) as e:
                    z = e
                outcomes.append((b, z))
        starts = {z.tobytes(): z for _, z in outcomes
                  if not isinstance(z, Exception)}
        if starts:
            flown = dict(zip(starts, _flow_to_crossing(
                secular.section._flow_rhs(mu),
                np.array(list(starts.values())).T,
                secular.section.RETURN_TIME, tol, sd.direction)))
            outcomes = [(b, z if isinstance(z, Exception)
                         else flown[z.tobytes()]) for b, z in outcomes]
        layers = [[] for _ in branches]
        for b, o in outcomes:
            if not isinstance(o, Exception):
                layers[b].append(np.array([float(o[1][0]),
                                           flips[b] * float(o[1][2])]))
                continue
            reasons[b] = f"iterate {k}: {o}"
            if flips[b] < 0 and getattr(o, "t", None):
                reasons[b] = reasons[b].replace(f"t={o.t:.6g}:",
                                                f"t={-o.t:.6g}:", 1)
        for poly, layer in zip(polys, layers):
            poly.extend(layer)
    return [ManifoldBranch(branch, np.array(poly), bool(reason), reason)
            for branch, poly, reason in zip(branches, polys, reasons)]


def _relay_and_per_layer(monkeypatch, p, sd, branches, **kw):
    """manifold_segments and the per-layer reference on the same inputs,
    which must agree byte for byte, with the states integrate evaluated
    for each (the landings' one-state polish calls are not integrate's)."""
    flow, states = secular.section._flow_rhs, [0]

    def counted(mu):
        f = flow(mu)

        def rhs(t, z):
            if isinstance(t, np.ndarray):
                states[0] += t.size
            return f(t, z)
        return rhs
    monkeypatch.setattr("secular.section._flow_rhs", counted)
    relay = manifold_segments(p, MU_EM, sd, branches, **kw)
    relay_states, states[0] = states[0], 0
    reference = _per_layer(p, MU_EM, sd, branches, **kw)
    for got, ref in zip(relay, reference, strict=True):
        assert got.branch == ref.branch
        assert got.points.shape == ref.points.shape
        assert got.points.tobytes() == ref.points.tobytes()
        assert (got.truncated, got.truncation_reason) == \
            (ref.truncated, ref.truncation_reason)
    return relay, relay_states, states[0]


_FOUR = ("unstable+", "stable+", "unstable-", "stable-")
# the README fixed point, where a stable branch is R of an unstable one,
# and a point just off vx = 0, where every branch flies
ON_AND_OFF = (README_FIXED, SectionPoint(README_FIXED.x, 1e-9))


@pytest.fixture(scope="module")
def readme_lin():
    sd = SectionDef(+1, README_C)
    return linearize_map(README_FIXED, MU_EM, sd, tol=1e-10)


class TestRelay:
    """One relay flight per manifold run against the per-layer rule."""

    @staticmethod
    def _kw(lin, **kw):
        return dict(dict(steps=3, seeds=4, seed_offset=1e-4, tol=1e-10,
                         lin=lin), **kw)

    def test_four_branches_match_per_layer(self, monkeypatch, readme_lin):
        # unstable- loses a seed to the energy bound at iterate 0
        sd = SectionDef(+1, README_C)
        for p in ON_AND_OFF:
            out, relay, reference = _relay_and_per_layer(
                monkeypatch, p, sd, _FOUR, **self._kw(readme_lin))
            assert out[2].truncation_reason.startswith(
                "iterate 0: section point")
            assert relay == reference

    def test_lift_failure_after_the_first_iterate(self, monkeypatch,
                                                  readme_lin):
        # a made-up fence refuses to lift a point left of x* - 0.45: the
        # seeds lie inside it, their later iterates beyond it
        lift_ = secular.section.lift

        def fenced(q, mu, sd):
            if q.x < README_FIXED.x - 0.45:
                raise DomainError(f"section point ({q.x}, {q.vx}) fenced")
            return lift_(q, mu, sd)
        monkeypatch.setattr("secular.section.lift", fenced)
        sd = SectionDef(+1, README_C)
        for p in ON_AND_OFF:
            out, relay, reference = _relay_and_per_layer(
                monkeypatch, p, sd, _FOUR, **self._kw(readme_lin))
            late = [br for br in out if "fenced" in br.truncation_reason]
            assert late and all(
                not br.truncation_reason.startswith("iterate 0")
                for br in late)
            assert relay == reference

    @pytest.mark.parametrize("factor", [1.02, 1.2])
    def test_flights_without_a_crossing(self, monkeypatch, readme_lin,
                                        factor):
        # a time budget a little above the fixed point's return time: later
        # iterates, far from the orbit, run out of it
        sd = SectionDef(+1, README_C)
        t_star, _ = _flow_to_crossing(_flow_rhs(MU_EM),
                                      lift(README_FIXED, MU_EM, sd),
                                      RETURN_TIME, 1e-10, 1.0)
        monkeypatch.setattr("secular.section.RETURN_TIME", factor * t_star)
        for p in ON_AND_OFF:
            out, relay, reference = _relay_and_per_layer(
                monkeypatch, p, sd, _FOUR, **self._kw(readme_lin))
            assert any(br.truncation_reason.startswith(
                "iterate 1: no section") for br in out)
            assert relay == reference

    @pytest.mark.parametrize("factor", [1.02, 1.2])
    def test_failed_flights_read_backward_on_stable_branches(
            self, monkeypatch, readme_lin, factor):
        # a right-hand side that fails a little after the fixed point's
        # return time: integrate's failure ends a leg, at iterate 0 or
        # later, and the rest fly again from their current legs' starts
        sd = SectionDef(+1, README_C)
        t_star, _ = _flow_to_crossing(_flow_rhs(MU_EM),
                                      lift(README_FIXED, MU_EM, sd),
                                      RETURN_TIME, 1e-10, 1.0)

        def failing(mu):
            flow = _flow_rhs(mu)

            def rhs(t, z):
                d = flow(t, z).reshape(4, -1)
                return np.where(np.abs(t) > factor * t_star, np.nan,
                                d).ravel()
            return rhs
        monkeypatch.setattr("secular.section._flow_rhs", failing)
        for p in ON_AND_OFF:
            out, _, _ = _relay_and_per_layer(
                monkeypatch, p, sd, _FOUR, **self._kw(readme_lin))
            stable = out[1].truncation_reason
            assert stable.startswith("iterate 1: integration failed near t=-")
            assert "t=" in out[0].truncation_reason and \
                "t=-" not in out[0].truncation_reason

    @pytest.mark.parametrize("branch", ["unstable-", "stable+"])
    def test_collision_after_the_first_iterate(self, monkeypatch, branch):
        # the previous crossing c0 of the Moon-falling section point
        # (xc, vxc): a seed at c0 lands by its first iterate next to
        # (xc, vxc), and its second flight falls into the Moon.  A
        # stable branch's seed is c0's mirror image
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
        c0 = _inverse_map(SectionPoint(xc, vxc), MU_EM, sd)
        lam = 10.0
        if branch == "unstable-":
            # seeds at c0 + 0.01, about c0 + 0.0068 and c0
            lin = MapLinearization(np.diag([lam, 1.0 / lam]),
                                   (complex(lam), complex(1.0 / lam)),
                                   HYPERBOLIC)
            off = 0.01 / (lam ** (2.0 / 3.0) - 1.0)
            p = SectionPoint(c0.x + 0.01 + off, c0.vx)
        else:
            # seeds at the mirror of c0 and 0.0054, 0.0078 to its left
            lin = MapLinearization(np.diag([1.0 / lam, lam]),
                                   (complex(1.0 / lam), complex(lam)),
                                   HYPERBOLIC)
            off = 0.01
            p = SectionPoint(c0.x - off, -c0.vx)
        (out,), _, _ = _relay_and_per_layer(
            monkeypatch, p, sd, (branch,), steps=3, seeds=3,
            seed_offset=off, tol=1e-10, lin=lin)
        assert out.truncation_reason.startswith(
            "iterate 1: state within collision radius")
        assert out.points.shape == (7, 2)

    def test_one_flight_for_the_whole_run(self, monkeypatch, readme_lin):
        # every seed of every flown branch is in the one stacked flight: on
        # vx = 0 the two unstable branches', off it all four branches'
        flights = []

        def counted(rhs, z0, *args):
            flights.append(np.shape(z0))
            return _flow_to_crossing(rhs, z0, *args)
        monkeypatch.setattr("secular.section._flow_to_crossing", counted)
        sd = SectionDef(+1, README_C)
        for p in ON_AND_OFF:
            manifold_segments(p, MU_EM, sd, _FOUR,
                              **self._kw(readme_lin, seed_offset=1e-6))
        assert flights == [(4, 8), (4, 16)]


def _flown_stable_branch(p, sd, sign, steps, seeds, seed_offset, tol, lin):
    """The stable branch of sign `sign` flown through the reversed map from
    the seeds p + seed_offset r R v_u, r on the |lambda_u| ladder: each
    layer is one stacked flight back in time to the previous crossing, and
    a seed that fails to lift or to land drops out.  Its polyline."""
    eigvals, eigvecs = np.linalg.eig(lin.jacobian)
    i = int(np.argmax(np.abs(eigvals)))
    v = np.real(eigvecs[:, i])
    v = v / np.linalg.norm(v) * sign * R2
    ratios = abs(float(np.real(eigvals[i]))) ** np.linspace(
        0.0, 1.0, seeds, endpoint=False)
    layer = [p.as_array() + seed_offset * r * v for r in ratios]
    poly = []
    for _ in range(steps):
        starts = []
        for q in layer:
            try:
                starts.append(lift(SectionPoint(*q), MU_EM, sd))
            except (DomainError, SingularityError):
                pass
        if not starts:
            break
        back = _next_crossing(np.array(starts).T, MU_EM, sd, forward=False,
                              tol=tol)
        layer = [np.array([float(z[0]), float(z[2])]) for z in back
                 if not isinstance(z, Exception)]
        poly += layer
    return np.array(poly)


@settings(max_examples=10, deadline=None)
@given(seeds=st.integers(1, 4), steps=st.integers(1, 3),
       exponent=st.floats(-8.0, -4.0))
def test_stable_branch_is_the_mirror_of_the_unstable(readme_lin, seeds,
                                                     steps, exponent):
    # at the README fixed point (vx = 0) each stable branch is R of the
    # unstable branch of its sign, and it is the stable branch that the
    # reversed map flies from the mirrored seeds, byte for byte
    sd = SectionDef(+1, README_C)
    kw = dict(steps=steps, seeds=seeds, seed_offset=10.0 ** exponent,
              tol=1e-10, lin=readme_lin)
    out = dict(zip(_FOUR, manifold_segments(README_FIXED, MU_EM, sd, _FOUR,
                                            **kw)))
    for sign in ("+", "-"):
        u, s = out["unstable" + sign], out["stable" + sign]
        mirror = np.array([(x, -vx) for x, vx in u.points])
        assert s.points.tobytes() == mirror.tobytes()
        assert s.truncated == u.truncated
        flown = _flown_stable_branch(README_FIXED, sd,
                                     1.0 if sign == "+" else -1.0, **kw)
        assert s.points.tobytes() == flown.tobytes()


def _crossing_reference(U, S):
    """homoclinic_intersection's former double loop, one pair of segments
    at a time: the reference its numpy pass must match bit for bit."""
    for i in range(len(U) - 1):
        for j in range(len(S) - 1):
            a0, d1 = U[i], U[i + 1] - U[i]
            b0, d2 = S[j], S[j + 1] - S[j]
            denom = d1[0] * d2[1] - d1[1] * d2[0]
            if abs(denom) < 1e-300:
                continue
            r = b0 - a0
            t = (r[0] * d2[1] - r[1] * d2[0]) / denom
            s = (r[0] * d1[1] - r[1] * d1[0]) / denom
            if not (0.0 <= t <= 1.0 and 0.0 <= s <= 1.0):
                continue
            hit = a0 + t * d1
            nu, ns = np.linalg.norm(d1), np.linalg.norm(d2)
            if nu < 1e-300 or ns < 1e-300:
                continue
            cosang = abs(float(np.dot(d1, d2))) / (nu * ns)
            return (True, (float(hit[0]), float(hit[1])),
                    math.acos(min(1.0, cosang)), i, j)
    return (False, None, None, None, None)


# small integer grids give parallel, degenerate (repeated) and collinear
# segments and shared endpoints; scaled floats give general positions
_vertex = st.one_of(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                    st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))


@given(st.lists(_vertex, max_size=8), st.lists(_vertex, max_size=8),
       st.sampled_from([1.0, 1e-3, 1e-160]))
@settings(max_examples=200, deadline=None)
def test_crossing_matches_the_double_loop(u, s, scale):
    U = np.array(u, dtype=float).reshape(-1, 2) * scale
    S = np.array(s, dtype=float).reshape(-1, 2) * scale
    rep = homoclinic_intersection(ManifoldBranch("unstable+", U, False, ""),
                                  ManifoldBranch("stable+", S, False, ""))
    got = (rep.found, rep.point, rep.angle, rep.unstable_segment,
           rep.stable_segment)
    assert repr(got) == repr(_crossing_reference(U, S))


def test_crossing_with_an_empty_stable_branch():
    U = np.array([[0.0, 0.0], [1.0, 1.0]])
    rep = homoclinic_intersection(
        ManifoldBranch("unstable+", U, False, ""),
        ManifoldBranch("stable+", np.array([]), True, "iterate 0: ..."))
    assert not rep.found
