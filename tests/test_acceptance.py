"""Acceptance suite.

Each test covers one acceptance criterion end to end and prints a single
PASS line with its headline numbers when it succeeds.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from secular.floquet import PeriodicLinearSystem, integrate, monodromy
from secular.jordan import symmetric_diagonalizability_check
from secular.linode import solve_constant
from secular.matrixcore import (
    QuadraticForm,
    SquareMatrix,
    char_poly,
    hermite_root_count,
    inertia,
    interlacing_check,
)
from secular.pcr3bp import (
    STABLE,
    LibrationPoint,
    _var_rhs,
    _with_stm,
    correct_periodic,
    jacobi_constant,
    libration_points,
    libration_stability,
    lyapunov_seed,
    orbit_exponents,
)
from secular.ratpoly import RationalPolynomial, count_real_roots
from secular.section import (
    SectionDef,
    SectionPoint,
    homoclinic_intersection,
    linearize_map,
    manifold_segments,
    return_map,
)
from test_linode import solve_residue

MU_EM = 0.012150585


# -- shared helpers -----------------------------------------------------------


def random_symmetric(rng, n, span=4) -> SquareMatrix:
    M = [[Fraction(int(rng.integers(-span, span + 1))) for _ in range(n)]
         for _ in range(n)]
    for i in range(n):
        for j in range(i):
            M[i][j] = M[j][i]
    return SquareMatrix(M)


def symmetric_with_spectrum(rng, eigenvalues) -> SquareMatrix:
    """H D H with H an exact rational Householder reflection."""
    n = len(eigenvalues)
    v = [Fraction(int(rng.integers(1, 5)), int(rng.integers(1, 4)))
         for _ in range(n)]
    vv = sum(x * x for x in v)
    H = [[Fraction(int(i == j)) - 2 * v[i] * v[j] / vv for j in range(n)]
         for i in range(n)]
    D = [[eigenvalues[i] if i == j else Fraction(0) for j in range(n)]
         for i in range(n)]
    HD = [[sum(H[i][k] * D[k][j] for k in range(n)) for j in range(n)]
          for i in range(n)]
    A = [[sum(HD[i][k] * H[k][j] for k in range(n)) for j in range(n)]
         for i in range(n)]
    return SquareMatrix(A)


@pytest.fixture(scope="module")
def l1_orbit():
    l1 = libration_points(MU_EM)[0]
    seed, t_half = lyapunov_seed(MU_EM, l1, 1e-3)
    return correct_periodic(seed, t_half, MU_EM, integrator_tol=1e-12)


# -- criteria ------------------------------------------------------------------


def test_acceptance_01_worked_example():
    """Worked 3x3 example: equation in S and inertia, exactly."""
    A = SquareMatrix([[1, -1, 0], [-1, 2, 1], [0, 1, 1]])
    cp = char_poly(A)
    expected = RationalPolynomial.from_roots([0, 1, 3])
    assert cp == expected
    ine = inertia(QuadraticForm(A))
    assert (ine.n_pos, ine.n_neg, ine.n_zero) == (2, 0, 1)
    print("ACCEPTANCE 1: PASS - char poly = S(S-1)(S-3) exactly, "
          "inertia (2,0,1)")


def test_acceptance_02_sturm_oracle_suite():
    """count_real_roots and hermite_root_count vs 1000 planted factorizations."""
    rng = np.random.default_rng(20260826)
    pool_real = [Fraction(k, d) for k in range(-4, 5) for d in (1, 2, 3)]
    checked_hermite = 0
    for trial in range(1000):
        deg_budget = 8
        reals, quads = [], []
        while deg_budget > 0 and rng.random() < 0.85:
            if deg_budget >= 2 and rng.random() < 0.35:
                b = int(rng.integers(-3, 4))
                c = int(rng.integers(1, 6)) + (b * b) // 4  # disc < 0
                if (b, c) not in quads:
                    quads.append((b, c))
                deg_budget -= 2
            else:
                r = pool_real[int(rng.integers(0, len(pool_real)))]
                mult = int(rng.integers(1, min(3, deg_budget) + 1))
                reals.append((r, mult))
                deg_budget -= mult
        p = RationalPolynomial([Fraction(1)])
        for r, mult in reals:
            for _ in range(mult):
                p = p * RationalPolynomial([-r, Fraction(1)])
        for b, c in quads:
            p = p * RationalPolynomial([Fraction(c), Fraction(b), Fraction(1)])
        if p.degree == 0:
            continue
        distinct_real = len({r for r, _ in reals})
        assert count_real_roots(p) == distinct_real, (trial, p.coeffs)
        if checked_hermite < 500:
            distinct_total = distinct_real + 2 * len(quads)
            assert hermite_root_count(p) == (distinct_total, distinct_real)
            checked_hermite += 1
    assert checked_hermite == 500
    print("ACCEPTANCE 2: PASS - 1000 Sturm counts and 500 Hermite counts "
          "match planted factors exactly")


def test_acceptance_03_cauchy_interlacing():
    """Sturm-certified interlacing on 200 random symmetric exact matrices."""
    rng = np.random.default_rng(33)
    for trial in range(200):
        n = int(rng.integers(2, 7))
        rep = interlacing_check(random_symmetric(rng, n))
        assert rep.passed, (trial, n)
    print("ACCEPTANCE 3: PASS - interlacing certified exactly on 200 "
          "symmetric matrices, dims 2-6")


def test_acceptance_04_weierstrass_jordan_refinement():
    """Symmetric matrices are semisimple; no secular terms, even repeated."""
    rng = np.random.default_rng(44)
    mats = []
    for _ in range(150):
        mats.append(random_symmetric(rng, int(rng.integers(2, 6))))
    for _ in range(50):
        n = int(rng.integers(2, 6))
        eigs = [Fraction(int(rng.integers(-3, 4))) for _ in range(n)]
        eigs[int(rng.integers(0, n))] = eigs[0]  # force a repeat
        mats.append(symmetric_with_spectrum(rng, eigs))
    for i, A in enumerate(mats):
        rep = symmetric_diagonalizability_check(A)
        assert rep.passed, i
        sol = solve_constant(A, [Fraction(1)] * A.n)
        assert all(len(t.coeffs) == 1 for t in sol.terms), i
    print("ACCEPTANCE 4: PASS - 200 symmetric matrices (50 with repeated "
          "eigenvalues) semisimple, no secular terms")


def test_acceptance_05_triple_oracle_ode():
    """Jordan form == residue form == numerical integration at t=1."""
    rng = np.random.default_rng(55)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 6))
        A = SquareMatrix([[Fraction(int(rng.integers(-3, 4)))
                           for _ in range(n)] for _ in range(n)])
        x0 = [Fraction(int(rng.integers(-2, 3))) for _ in range(n)]
        yj = solve_constant(A, x0)(1.0)
        yr = solve_residue(A, x0)(1.0)
        Anp = A.to_numpy().real
        num = solve_ivp(lambda t, y: Anp @ y, (0.0, 1.0),
                        np.array([float(v) for v in x0]),
                        method="DOP853", rtol=1e-12, atol=1e-12)
        yn = num.y[:, -1]
        scale = max(np.max(np.abs(yn)), 1.0)
        err = max(np.max(np.abs(yj.real - yn)), np.max(np.abs(yr.real - yn)),
                  np.max(np.abs(yj - yr))) / scale
        worst = max(worst, float(err))
        assert err <= 1e-8, (trial, err)
    print(f"ACCEPTANCE 5: PASS - triple-oracle agreement on 100 systems, "
          f"worst relative error {worst:.2e}")


def test_acceptance_06_floquet_identities():
    """Abel/Liouville determinant identity and constant-A monodromy."""
    rng = np.random.default_rng(66)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(2, 4))
        A0, A1, A2 = (0.4 * rng.standard_normal((n, n)) for _ in range(3))
        T = float(rng.uniform(1.0, 3.0))
        w = 2.0 * math.pi / T

        def A_of_t(t, A0=A0, A1=A1, A2=A2, w=w):
            return A0 + A1 * math.cos(w * t) + A2 * math.sin(w * t)

        M = monodromy(PeriodicLinearSystem(A_of_t, T), tol=1e-12).M
        ts = np.linspace(0.0, T, 2001)
        tr = [np.trace(A_of_t(t)) for t in ts]
        expected = math.exp(np.trapezoid(tr, ts))
        err = abs(np.linalg.det(M) - expected) / abs(expected)
        worst = max(worst, float(err))
        assert err <= 1e-8, (trial, err)
    for trial in range(10):
        n = int(rng.integers(2, 4))
        A = 0.5 * rng.standard_normal((n, n))
        T = float(rng.uniform(1.0, 2.0))
        M = monodromy(PeriodicLinearSystem(lambda t: A, T), tol=1e-12).M
        assert np.max(np.abs(M - expm(A * T))) <= 1e-8
    print(f"ACCEPTANCE 6: PASS - det M = exp(int tr A) on 50 periodic "
          f"systems (worst {worst:.2e}), constant-A matches expm")


def test_acceptance_07_jacobi_conservation(l1_orbit):
    """Jacobi drift over 10 periods and unit STM determinant."""
    T = l1_orbit.period
    rng = np.random.default_rng(77)
    checked = 0
    worst = 0.0
    from secular.pcr3bp import _flow_rhs
    while checked < 20:
        # bounded initial conditions: moderate radius around the primary
        r = float(rng.uniform(0.15, 0.45))
        th = float(rng.uniform(0.0, 2.0 * math.pi))
        x, y = -MU_EM + r * math.cos(th), r * math.sin(th)
        vcirc = math.sqrt((1.0 - MU_EM) / r)
        vx = -vcirc * math.sin(th) + 0.05 * rng.standard_normal()
        vy = vcirc * math.cos(th) - x + 0.05 * rng.standard_normal()
        state0 = [x, y, vx, vy]
        C0 = jacobi_constant(state0, MU_EM)
        try:
            traj = integrate(_flow_rhs(MU_EM), state0, (0.0, 10.0 * T),
                             tol=1e-12, t_eval=np.linspace(0.0, 10.0 * T, 101))
        except Exception:
            continue  # rare collision draw: resample
        drift = max(
            abs(jacobi_constant(z, MU_EM) - C0) for z in traj.y.T
        ) / abs(C0)
        worst = max(worst, drift)
        assert drift <= 1e-9, drift
        checked += 1
    Phi = integrate(_var_rhs(MU_EM), _with_stm(l1_orbit.initial_state),
                    (0.0, T), 1e-12).final[4:].reshape(4, 4)
    det_err = abs(np.linalg.det(Phi) - 1.0)
    assert det_err <= 1e-6
    print(f"ACCEPTANCE 7: PASS - Jacobi drift <= {worst:.2e} relative over "
          f"10 periods on 20 states; |det STM - 1| = {det_err:.2e}")


def test_acceptance_08_exponent_invariants(l1_orbit):
    """Double unit multiplier, reciprocal pair, unit product."""
    rep = orbit_exponents(l1_orbit)
    mults = list(l1_orbit.multipliers)
    lam_max = max(abs(s) for s in mults)
    by_unit = sorted(mults, key=lambda s: abs(s - 1.0))
    assert all(abs(s - 1.0) <= 1e-5 * lam_max for s in by_unit[:2])
    others = by_unit[2:]
    recip_err = abs(others[0] * others[1] - 1.0)
    assert recip_err <= 1e-6
    prod_err = abs(np.prod(mults) - 1.0)
    assert prod_err <= 1e-6
    assert rep.unit_pair_ok and rep.reciprocal_ok and rep.det_ok
    print(f"ACCEPTANCE 8: PASS - unit pair within {1e-5 * lam_max:.1e}, "
          f"|Lambda/Lambda' - 1| = {recip_err:.2e}, "
          f"|prod - 1| = {prod_err:.2e}")


def test_acceptance_09_l4_threshold():
    """L4 verdict flips at the root of 27 mu (1 - mu) = 1."""
    def stable(mu):
        l4 = LibrationPoint("L4", (0.5 - mu, math.sqrt(3.0) / 2.0))
        return libration_stability(mu, l4).verdict == STABLE

    lo, hi = 0.03, 0.05
    assert stable(lo) and not stable(hi)
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if stable(mid):
            lo = mid
        else:
            hi = mid
    analytic = (1.0 - math.sqrt(23.0 / 27.0)) / 2.0
    err = abs(0.5 * (lo + hi) - analytic)
    assert err <= 1e-10
    print(f"ACCEPTANCE 9: PASS - L4 flip localized to {0.5 * (lo + hi):.12f}"
          f", {err:.1e} from (1 - sqrt(23/27))/2")


def test_acceptance_10_section_duality(l1_orbit):
    """Map linearization vs orbit multipliers; area preservation."""
    sd = SectionDef(+1, l1_orbit.jacobi)
    pstar = SectionPoint(float(l1_orbit.initial_state[0]),
                         float(l1_orbit.initial_state[2]))
    lin = linearize_map(pstar, MU_EM, sd)
    det_err = abs(np.linalg.det(lin.jacobian) - 1.0)
    assert det_err <= 1e-6
    nontrivial = sorted((abs(s) for s in l1_orbit.multipliers),
                        key=lambda a: abs(a - 1.0))[2:]
    map_eigs = sorted(abs(e) for e in lin.eigenvalues)
    pair_err = max(
        abs(e - o) / max(o, 1.0)
        for e, o in zip(map_eigs, sorted(nontrivial))
    )
    assert pair_err <= 1e-4

    rng = np.random.default_rng(10)
    base = np.array([0.22, 0.0])
    side = 5e-6
    worst = 0.0
    for _ in range(50):
        c = base + rng.uniform(-0.005, 0.005, 2)
        th = float(rng.uniform(0.0, 2.0 * math.pi))
        tri = np.array([
            c + side * np.array([math.cos(th + k * 2.0 * math.pi / 3.0),
                                 math.sin(th + k * 2.0 * math.pi / 3.0)])
            for k in range(3)
        ])
        img = np.array([return_map(SectionPoint(*v), MU_EM, sd).as_array()
                        for v in tri])

        def area(T):
            u, v = T[1] - T[0], T[2] - T[0]
            return 0.5 * abs(u[0] * v[1] - u[1] * v[0])

        rel = abs(area(img) - area(tri)) / area(tri)
        worst = max(worst, float(rel))
        assert rel <= 1e-4
    print(f"ACCEPTANCE 10: PASS - multiplier pair matches within "
          f"{pair_err:.2e}, |det J - 1| = {det_err:.2e}, worst triangle "
          f"area error {worst:.2e}")


def test_acceptance_11_homoclinic_golden(l1_orbit):
    """Golden homoclinic crossing at the documented (mu, C).

    Frozen when first computed: mu = 0.012150585, C = 3.1882812173139823
    (L1 Lyapunov orbit, seed amplitude 1e-3), unstable+/stable+ branches
    with steps=6, seeds=40, seed_offset=1e-7, integrator tol 1e-10;
    crossing near (x, vx) = (0.83147, -0.01479), angle 1.1374 rad.
    """
    C_frozen = 3.1882812173139823
    assert abs(l1_orbit.jacobi - C_frozen) < 1e-9
    sd = SectionDef(+1, l1_orbit.jacobi)
    pstar = SectionPoint(float(l1_orbit.initial_state[0]),
                         float(l1_orbit.initial_state[2]))
    kw = dict(steps=6, seeds=40, seed_offset=1e-7, tol=1e-10)
    unstable, stable = manifold_segments(pstar, MU_EM, sd,
                                         ("unstable+", "stable+"), **kw)
    rep = homoclinic_intersection(unstable, stable)
    assert rep.found
    assert rep.angle > 1e-3
    assert abs(rep.point[0] - 0.83147) < 2e-2
    assert abs(rep.point[1] - (-0.01479)) < 2e-2
    print(f"ACCEPTANCE 11: PASS - homoclinic crossing at "
          f"({rep.point[0]:.5f}, {rep.point[1]:.5f}), transversality angle "
          f"{rep.angle:.4f} rad")
