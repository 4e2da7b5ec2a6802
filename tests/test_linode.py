import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from secular.jordan import jordan_form
from secular.linode import (
    BOUNDED,
    DECAYING,
    SECOND_ORDER,
    SECULAR,
    UNSTABLE,
    SecondOrderSystem,
    classify_stability,
    solve_constant,
    solve_lagrange_oscillation,
    solve_residue,
)
from secular.matrixcore import SquareMatrix
from test_jordan import blocks_beside_an_eigenvalue


def integrate_oracle(A_np, x0, t=1.0):
    sol = solve_ivp(
        lambda _, x: A_np @ x, (0.0, t), np.asarray(x0, float),
        rtol=1e-12, atol=1e-14, method="DOP853",
    )
    return sol.y[:, -1]


class TestSolveConstant:
    def test_single_integrator(self):
        A = SquareMatrix([[0, 1], [0, 0]])
        sol = solve_constant(A, [0, 1])
        # x(t) = (t, 1)
        assert np.allclose(sol(2.0).real, [2.0, 1.0])
        assert max(t.degree for t in sol.terms) == 1

    def test_diagonal_decay(self):
        A = SquareMatrix([[-1, 0], [0, -2]])
        sol = solve_constant(A, [1, 1])
        assert np.allclose(sol(1.0).real, [math.exp(-1), math.exp(-2)])
        assert all(t.degree == 0 for t in sol.terms)

    def test_defective_block(self):
        A = SquareMatrix([[5, 1], [-1, 3]])
        sol = solve_constant(A, [1, 0])
        lams = {t.lam for t in sol.terms}
        assert lams == {4 + 0j}
        assert max(t.degree for t in sol.terms) == 1
        assert np.allclose(sol(0.0).real, [1, 0])

    def test_initial_condition_matches(self):
        rng = random.Random(2)
        for _ in range(20):
            n = rng.randint(2, 5)
            A = SquareMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            x0 = [rng.randint(-3, 3) for _ in range(n)]
            sol = solve_constant(A, x0)
            assert np.allclose(sol(0.0).real, x0, atol=1e-9)

    def test_unexcited_block_emits_no_secular_term(self):
        # block at 4 defective, but x0 = 0 excites nothing
        A = SquareMatrix([[5, 1], [-1, 3]])
        sol = solve_constant(A, [0, 0])
        assert all(t.degree == 0 for t in sol.terms)


class TestSolveResidue:
    def test_matches_jordan_diagonal(self):
        A = SquareMatrix([[-1, 0], [0, -2]])
        s1 = solve_constant(A, [1, 1])
        s2 = solve_residue(A, [1, 1])
        assert _solutions_close(s1, s2)

    def test_defective_secular_term(self):
        A = SquareMatrix([[5, 1], [-1, 3]])
        s = solve_residue(A, [1, 0])
        assert max(t.degree for t in s.terms) == 1
        assert {t.lam for t in s.terms} == {4 + 0j}

    def test_symmetric_all_simple_poles(self):
        A = SquareMatrix([[1, -1, 0], [-1, 2, 1], [0, 1, 1]])
        s = solve_residue(A, [1, 2, 3])
        assert all(t.degree == 0 for t in s.terms)


def _solutions_close(s1, s2, tol=1e-8):
    if len(s1.terms) != len(s2.terms):
        return False
    for t1, t2 in zip(s1.terms, s2.terms):
        if abs(t1.lam - t2.lam) > tol:
            return False
        if t1.degree != t2.degree:
            return False
        for c1, c2 in zip(t1.coeffs, t2.coeffs):
            if np.max(np.abs(np.array(c1) - np.array(c2))) > tol:
                return False
    return True


class TestTripleOracle:
    def test_exact_rational_spectra(self):
        rng = random.Random(77)
        from test_jordan import planted_jordan

        for _ in range(25):
            n = rng.randint(2, 4)
            A, _ = planted_jordan(rng, n)
            x0 = [rng.randint(-2, 2) for _ in range(n)]
            s1 = solve_constant(A, x0)
            s2 = solve_residue(A, x0)
            assert _solutions_close(s1, s2)
            A_np = A.to_numpy().real
            ref = integrate_oracle(A_np, x0)
            scale = max(np.max(np.abs(ref)), 1.0)
            assert np.max(np.abs(s1(1.0).real - ref)) <= 1e-8 * scale

    def test_generic_numeric_spectra(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            A_np = rng.integers(-3, 4, size=(n, n)).astype(float)
            A = SquareMatrix(A_np, flavor="numeric")
            x0 = rng.integers(-2, 3, size=n).astype(float)
            s1 = solve_constant(A, x0)
            s2 = solve_residue(A, x0)
            ref = integrate_oracle(A_np, x0)
            scale = max(np.max(np.abs(ref)), 1.0)
            assert np.max(np.abs(s1(1.0).real - ref)) <= 1e-8 * scale
            assert np.max(np.abs(s2(1.0).real - ref)) <= 1e-8 * scale


@st.composite
def numeric_systems(draw):
    n = draw(st.integers(1, 5))
    entry = st.integers(-16, 16).map(lambda k: k / 4)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    x0 = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    return SquareMatrix(rows, flavor="numeric"), x0


def _beside_a_cluster(case):
    A = case[0]
    return SquareMatrix(A, flavor="numeric"), list(range(1, len(A) + 1))


@given(st.one_of(numeric_systems(),
                 blocks_beside_an_eigenvalue().map(_beside_a_cluster)))
@settings(max_examples=80, deadline=None)
def test_jordan_and_residue_routes_agree(system):
    """Every spectrum gets an invertible Jordan basis and both solvers run.
    They agree to 1e-8 wherever the spectrum is well posed: each pair of
    eigenvalues equal or at least 1e-3 of the norm apart.  In between, both
    lose digits as the gap closes: a pair 6.5e-8 apart, just outside the
    clustering tolerance, puts `solve_constant` 1.3e-7 off expm(At)x0 at
    t = 1."""
    A, x0 = system
    M = A.to_numpy()
    assert np.linalg.matrix_rank(jordan_form(A).P.rows) == A.n
    s1 = solve_constant(A, x0)
    s2 = solve_residue(A, x0)
    lam = np.linalg.eigvals(M)
    gaps = np.abs(lam[:, None] - lam[None, :]) / max(np.linalg.norm(M, 2), 1.0)
    if np.any((gaps > 1e-9) & (gaps < 1e-3)):
        return
    for t in (0.0, 0.5, 1.0):
        scale = max(np.max(np.abs(s1(t))), 1.0)
        assert np.max(np.abs(s1(t) - s2(t))) <= 1e-8 * scale


class TestClassify:
    def test_second_order_coupled_negative(self):
        A = SquareMatrix([[-2, 1], [1, -2]])
        v = classify_stability(A, SECOND_ORDER)
        assert v.tag == BOUNDED and v.strict_lagrange

    def test_first_order_nilpotent_secular(self):
        v = classify_stability(SquareMatrix([[0, 1], [0, 0]]))
        assert v.tag == SECULAR

    def test_second_order_repeated_negative_still_bounded(self):
        A = SquareMatrix([[-1, 0], [0, -1]])
        v = classify_stability(A, SECOND_ORDER)
        assert v.tag == BOUNDED
        assert not v.strict_lagrange  # repeated -> fails the strict criterion

    def test_second_order_positive_unstable(self):
        A = SquareMatrix([[1, 0], [0, -4]])
        assert classify_stability(A, SECOND_ORDER).tag == UNSTABLE

    def test_second_order_zero_drift_secular(self):
        A = SquareMatrix([[0, 0], [0, -1]])
        assert classify_stability(A, SECOND_ORDER).tag == SECULAR

    def test_first_order_decaying(self):
        A = SquareMatrix([[-1, 0], [0, -2]])
        v = classify_stability(A)
        assert v.tag == DECAYING and v.strict_lagrange

    def test_first_order_similarity_invariance(self):
        rng = random.Random(13)
        from test_jordan import planted_jordan

        for _ in range(15):
            A, _ = planted_jordan(rng, rng.randint(2, 4))
            tag = classify_stability(A).tag
            n = A.n
            while True:
                M = SquareMatrix(
                    [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
                )
                if M.det() != 0:
                    break
            B = M.matmul(A).matmul(M.inverse())
            assert classify_stability(B).tag == tag


class TestLagrangeOscillation:
    def test_two_uncoupled_modes(self):
        sys = SecondOrderSystem(SquareMatrix([[-1, 0], [0, -4]]))
        sol, modes, verdict = solve_lagrange_oscillation(sys, [1, 0], [0, 0])
        t = 0.7
        assert np.allclose(sol(t).real, [math.cos(t), 0.0], atol=1e-12)
        assert verdict.tag == BOUNDED

    def test_beaded_string_spectrum(self):
        # tridiag(1, -2, 1) of size 3: eigenvalues -4 sin^2(k pi / 8)
        A = SquareMatrix([[-2, 1, 0], [1, -2, 1], [0, 1, -2]])
        sys = SecondOrderSystem(A)
        _, modes, verdict = solve_lagrange_oscillation(sys, [1, 0, 0], [0, 0, 0])
        want = sorted(-4 * math.sin(k * math.pi / 8) ** 2 for k in (1, 2, 3))
        got = sorted(m.alpha for m in modes)
        assert np.allclose(got, want, atol=1e-12)
        assert verdict.tag == BOUNDED

    def test_positive_mode_unstable(self):
        sys = SecondOrderSystem(SquareMatrix([[1, 0], [0, -1]]))
        sol, modes, verdict = solve_lagrange_oscillation(sys, [1, 1], [0, 0])
        assert verdict.tag == UNSTABLE
        assert any(t.lam.real > 0.5 for t in sol.terms)

    def test_solution_satisfies_ode(self):
        A = SquareMatrix([[-2, 1], [1, -2]])
        sys = SecondOrderSystem(A)
        x0, v0 = [1.0, -0.5], [0.2, 0.1]
        sol, _, _ = solve_lagrange_oscillation(sys, x0, v0)
        # second derivative by differentiating terms analytically is overkill;
        # check against direct integration of the doubled first-order system
        A_np = A.to_numpy().real
        n = 2
        big = np.zeros((2 * n, 2 * n))
        big[:n, n:] = np.eye(n)
        big[n:, :n] = A_np
        ref = integrate_oracle(big, list(x0) + list(v0), t=1.3)
        assert np.allclose(sol(1.3).real, ref[:n], atol=1e-8)

    def test_zero_eigenvalue_drifts(self):
        # alpha = 0 is a drift mode: xi = (1 + t, sin t)
        sys = SecondOrderSystem(SquareMatrix([[0, 0], [0, -1]]))
        sol, modes, verdict = solve_lagrange_oscillation(sys, [1, 0], [1, 1])
        assert sorted(m.alpha for m in modes) == [-1.0, 0.0]
        for t in (0.0, 0.7, 2.5):
            assert np.allclose(sol(t), [1 + t, math.sin(t)], atol=1e-12)
        assert verdict.tag == SECULAR
