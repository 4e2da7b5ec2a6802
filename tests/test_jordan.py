import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from secular.errors import UnsupportedFlavorError
from secular.jordan import (
    classify_3x3,
    jordan_form,
    rational_roots,
    symmetric_diagonalizability_check,
)
from secular.matrixcore import SquareMatrix, char_poly
from secular.ratpoly import RationalPolynomial as P


def planted_jordan(rng, n, eig_pool=(-2, -1, 0, 1, 2, 3)):
    """Random P J P^{-1} with rational spectrum; returns (A, J, eigen blocks)."""
    sizes = []
    left = n
    while left:
        s = rng.randint(1, min(left, 3))
        sizes.append(s)
        left -= s
    lams = [Fraction(rng.choice(eig_pool)) for _ in sizes]
    rows = [[Fraction(0)] * n for _ in range(n)]
    pos = 0
    spec = {}
    for lam, s in zip(lams, sizes):
        for i in range(s):
            rows[pos + i][pos + i] = lam
            if i:
                rows[pos + i - 1][pos + i] = Fraction(1)
        spec.setdefault(lam, []).append(s)
        pos += s
    J = SquareMatrix(rows)
    while True:
        M = SquareMatrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        if M.det() != 0:
            break
    A = M.matmul(J).matmul(M.inverse())
    return A, spec


class TestJordanForm:
    def test_defective_2x2(self):
        A = SquareMatrix([[5, 1], [-1, 3]])
        dec = jordan_form(A)
        assert dec.J == SquareMatrix([[4, 1], [0, 4]])

    def test_diagonal_passthrough(self):
        A = SquareMatrix([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
        dec = jordan_form(A)
        assert dec.J == A

    def test_scalar_multiple_eigenvalue(self):
        dec = jordan_form(SquareMatrix([[2, 0], [0, 2]]))
        assert dec.blocks == ((Fraction(2), (1, 1)),)

    def test_irrational_spectrum_rejected(self):
        with pytest.raises(UnsupportedFlavorError):
            jordan_form(SquareMatrix([[0, 2], [1, 0]]))  # eigenvalues +-sqrt(2)

    def test_reconstruction_random(self):
        rng = random.Random(17)
        for _ in range(60):
            n = rng.randint(2, 5)
            A, _ = planted_jordan(rng, n)
            dec = jordan_form(A)
            lhs = A.matmul(dec.P)
            rhs = dec.P.matmul(dec.J)
            assert lhs == rhs
            assert dec.P.det() != 0

    def test_rank_law(self):
        rng = random.Random(19)
        for _ in range(20):
            n = rng.randint(2, 5)
            A, spec = planted_jordan(rng, n)
            dec = jordan_form(A)
            for lam, sizes in dec.blocks:
                N = A.shift(lam)
                Pk = SquareMatrix.identity(n)
                ranks = [n]
                for _ in range(max(sizes)):
                    Pk = Pk.matmul(N)
                    ranks.append(Pk.rank())
                for k in range(1, max(sizes) + 1):
                    assert ranks[k - 1] - ranks[k] == sum(1 for s in sizes if s >= k)

    def test_numeric_generic(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            M = rng.standard_normal((n, n))
            dec = jordan_form(SquareMatrix(M, flavor="numeric"))
            A_np = np.array(M, dtype=complex)
            P = dec.P.rows
            J = dec.J.rows
            assert np.allclose(A_np @ P, P @ J, atol=1e-8)

    def test_numeric_defective(self):
        A = np.array([[5.0, 1.0], [-1.0, 3.0]])
        # defective eigenvalues split by O(sqrt(eps)) under rounding, so the
        # cluster tolerance must sit above that scale
        dec = jordan_form(SquareMatrix(A, flavor="numeric"), cluster_tol=1e-6)
        (lam, sizes), = dec.blocks
        assert abs(lam - 4.0) < 1e-6
        assert sizes == (2,)
        assert np.allclose(A @ dec.P.rows, dec.P.rows @ dec.J.rows, atol=1e-5)

    def test_numeric_near_merge_warning_names_both_centres(self):
        # 5e-8 apart, above the cluster tolerance 3e-8 (scale 3) and within
        # 10x of it
        A = np.diag([1.0, 1.0 + 5e-8, 3.0])
        dec = jordan_form(SquareMatrix(A, flavor="numeric"))
        assert [sizes for _, sizes in dec.blocks] == [(1,), (1,), (1,)]
        assert dec.warnings == (
            "eigenvalue clusters (1+0j) and (1.00000005+0j) are within 10x "
            "of merging: block structure ill-conditioned",)

    def test_numeric_small_eigenvalue_beside_a_cluster(self):
        # the powers of N = A - 0 I shrink 2^-9 to 2^-27, under the rank
        # tolerance, while the triple zero still has three 1-blocks
        A = np.diag([2.0 ** -9, 0.0, 0.0, 0.0])
        dec = jordan_form(SquareMatrix(A, flavor="numeric"))
        assert [(complex(lam), sizes) for lam, sizes in dec.blocks] == [
            (0j, (1, 1, 1)), (2.0 ** -9 + 0j, (1,))]
        assert np.allclose(A @ dec.P.rows, dec.P.rows @ dec.J.rows)

    def test_numeric_eigenvalue_beside_a_block(self):
        # at lam = 0, N^2 = diag(0, 0, 1e-10) falls under the rank tolerance;
        # e3 belongs to 1e-5 and must stay out of the 2-block's chain
        A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1e-5]])
        dec = jordan_form(SquareMatrix(A, flavor="numeric"))
        assert [(complex(lam), sizes) for lam, sizes in dec.blocks] == [
            (0j, (2,)), (1e-5 + 0j, (1,))]
        P = np.asarray(dec.P.rows)
        assert np.linalg.matrix_rank(P) == 3
        assert np.allclose(A @ P, P @ dec.J.rows)


@st.composite
def blocks_beside_an_eigenvalue(draw):
    """A permuted Jordan matrix: blocks at lam and a simple eigenvalue
    mu = lam + 2^-e beside them, close enough that (mu - lam)^k falls under
    the rank tolerance, and far enough that it stays above 1e-13 for the
    largest block size k, so rounding cannot merge mu into the blocks.
    Every entry and the permutation are exact in floats."""
    lam = draw(st.integers(-8, 8)) / 4
    sizes = draw(st.sampled_from([(2,), (3,), (2, 1), (2, 2), (3, 1)]))
    delta = 2.0 ** -draw(st.integers(12, 43 // sizes[0]))
    n = sum(sizes) + 1
    J = np.diag([lam] * (n - 1) + [lam + delta])
    pos = 0
    for s in sizes:
        for i in range(pos, pos + s - 1):
            J[i, i + 1] = 1.0
        pos += s
    perm = draw(st.permutations(range(n)))
    return J[np.ix_(perm, perm)], (lam, sizes), lam + delta


@given(blocks_beside_an_eigenvalue())
@settings(max_examples=60, deadline=None)
def test_numeric_basis_invertible_beside_a_cluster(case):
    A, (lam, sizes), mu = case
    dec = jordan_form(SquareMatrix(A, flavor="numeric"))
    assert [(complex(l), s) for l, s in dec.blocks] == [(lam, sizes), (mu, (1,))]
    P = np.asarray(dec.P.rows)
    assert np.linalg.matrix_rank(P) == A.shape[0]
    assert np.allclose(A @ P, P @ dec.J.rows)


@st.composite
def invertible_rational(draw, n):
    """S = L U, L unit lower triangular and U upper triangular with a
    nonzero diagonal, so S is invertible by construction."""
    entry = st.fractions(-3, 3, max_denominator=3)
    pivot = entry.filter(bool)
    L = [[draw(entry) if j < i else Fraction(int(i == j)) for j in range(n)]
         for i in range(n)]
    U = [[draw(pivot) if j == i else draw(entry) if j > i else Fraction(0)
          for j in range(n)] for i in range(n)]
    return SquareMatrix(L).matmul(SquareMatrix(U))


@st.composite
def planted_rational_jordan(draw):
    """S J S^-1 for a Jordan matrix J of rational eigenvalues, with its
    block sizes per eigenvalue."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)
                 .filter(lambda s: sum(s) <= 5))
    n = sum(sizes)
    J = [[Fraction(0)] * n for _ in range(n)]
    spec, pos = {}, 0
    for s in sizes:
        lam = draw(st.fractions(-3, 3, max_denominator=3))
        for i in range(pos, pos + s):
            J[i][i] = lam
            if i > pos:
                J[i - 1][i] = Fraction(1)
        spec.setdefault(lam, []).append(s)
        pos += s
    S = draw(invertible_rational(n))
    return S.matmul(SquareMatrix(J)).matmul(S.inverse()), spec


@given(planted_rational_jordan())
@settings(max_examples=40, deadline=None)
def test_exact_jordan_reconstructs_planted_matrix(case):
    A, spec = case
    dec = jordan_form(A)
    assert dec.P.matmul(dec.J).matmul(dec.P.inverse()) == A
    assert {lam: sorted(sizes) for lam, sizes in dec.blocks} == \
        {lam: sorted(sizes) for lam, sizes in spec.items()}


@st.composite
def planted_3x3(draw):
    """S J S^-1 for a 3x3 Jordan matrix J of eigenvalues k/2, S a
    permutation times a diagonal of signed powers of two, so that every
    entry is exact in floats."""
    sizes = draw(st.sampled_from([(1, 1, 1), (2, 1), (1, 2), (3,)]))
    J = [[Fraction(0)] * 3 for _ in range(3)]
    pos = 0
    for s in sizes:
        lam = Fraction(draw(st.integers(-2, 2)), 2)
        for i in range(pos, pos + s):
            J[i][i] = lam
            if i > pos:
                J[i - 1][i] = Fraction(1)
        pos += s
    perm = draw(st.permutations(range(3)))
    d = [draw(st.sampled_from([-1, 1])) * Fraction(2) ** draw(st.integers(-2, 2))
         for _ in range(3)]
    S = SquareMatrix([[d[j] if i == perm[j] else 0 for j in range(3)]
                      for i in range(3)])
    return S.matmul(SquareMatrix(J)).matmul(S.inverse())


@given(planted_3x3())
@settings(max_examples=60, deadline=None)
def test_classify_3x3_agrees_across_flavors(A):
    numeric = SquareMatrix(A.to_numpy(), flavor="numeric")
    assert classify_3x3(A) == classify_3x3(numeric)


class TestPoincareNullity:
    def test_rank_deficiency_gives_zero_roots(self):
        # det A = 0 and small minors vanish -> S^p divides the char poly
        rng = random.Random(23)
        for p in (1, 2, 3):
            n = 4
            # rank n-p matrix: sum of n-p rank-1 outer products
            rows = [[Fraction(0)] * n for _ in range(n)]
            for _ in range(n - p):
                u = [rng.randint(-2, 2) for _ in range(n)]
                v = [rng.randint(-2, 2) for _ in range(n)]
                for i in range(n):
                    for j in range(n):
                        rows[i][j] += u[i] * v[j]
            A = SquareMatrix(rows)
            if A.rank() != n - p:
                continue
            cp = char_poly(A)
            assert all(c == 0 for c in cp.coeffs[:p])


class TestClassify3:
    def test_distinct(self):
        assert classify_3x3(SquareMatrix([[1, 0, 0], [0, 2, 0], [0, 0, 3]])).tag == "A"

    def test_triple_block(self):
        A = SquareMatrix([[4, 1, 0], [0, 4, 1], [0, 0, 4]])
        assert classify_3x3(A).tag == "D"

    def test_double_diagonalizable(self):
        A = SquareMatrix([[7, 0, 0], [0, 3, 0], [0, 0, 3]])
        res = classify_3x3(A)
        assert res.tag == "C" and not res.scalar

    def test_double_block(self):
        A = SquareMatrix([[3, 1, 0], [0, 3, 0], [0, 0, 7]])
        assert classify_3x3(A).tag == "B"

    def test_triple_two_plus_one(self):
        A = SquareMatrix([[4, 1, 0], [0, 4, 0], [0, 0, 4]])
        assert classify_3x3(A).tag == "E"

    def test_scalar(self):
        res = classify_3x3(SquareMatrix([[5, 0, 0], [0, 5, 0], [0, 0, 5]]))
        assert res.tag == "C" and res.scalar

    def test_irrational_cubic(self):
        # the companion matrix of x^3 - 2: its roots are irrational, so it
        # has no exact Jordan form, and three distinct roots
        A = SquareMatrix([[0, 0, 2], [1, 0, 0], [0, 1, 0]])
        with pytest.raises(UnsupportedFlavorError):
            jordan_form(A)
        assert classify_3x3(A).tag == "A"

    def test_similarity_invariance(self):
        rng = random.Random(31)
        for _ in range(30):
            A, _ = planted_jordan(rng, 3)
            tag = classify_3x3(A).tag
            while True:
                M = SquareMatrix(
                    [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
                )
                if M.det() != 0:
                    break
            B = M.matmul(A).matmul(M.inverse())
            assert classify_3x3(B).tag == tag


def random_symmetric_with_planted_spectrum(rng, n):
    """Q^t D Q for a rational invertible Q gives a symmetric matrix, but not
    with the spectrum of D; instead build as sum of rank-1 projectors from an
    orthogonal rational basis (scaled Householder columns)."""
    # Householder: H = I - 2 w w^t / (w^t w) is rational orthogonal
    w = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
    if all(x == 0 for x in w):
        w[0] = Fraction(1)
    wtw = sum(x * x for x in w)
    H = [
        [
            (Fraction(int(i == j)) - 2 * w[i] * w[j] / wtw)
            for j in range(n)
        ]
        for i in range(n)
    ]
    Q = SquareMatrix(H)
    eigs = [Fraction(rng.choice([-1, 0, 2, 2, 3])) for _ in range(n)]
    D = SquareMatrix(
        [[eigs[i] if i == j else 0 for j in range(n)] for i in range(n)]
    )
    return Q.transpose().matmul(D).matmul(Q), eigs


class TestSymmetricDiagonalizability:
    def test_scalar(self):
        rep = symmetric_diagonalizability_check(
            SquareMatrix([[3, 0, 0], [0, 3, 0], [0, 0, 3]])
        )
        assert rep.passed

    def test_2x2(self):
        rep = symmetric_diagonalizability_check(SquareMatrix([[2, 1], [1, 2]]))
        assert rep.passed
        assert {r.eigenvalue for r in rep.per_eigenvalue} == {1, 3}

    def test_planted_repeated(self):
        rng = random.Random(41)
        for _ in range(20):
            A, eigs = random_symmetric_with_planted_spectrum(rng, 4)
            rep = symmetric_diagonalizability_check(A)
            assert rep.passed and rep.annihilated_by_squarefree

    def test_irrational_spectrum(self):
        # symmetric with irrational eigenvalues: annihilation evidence only
        rep = symmetric_diagonalizability_check(SquareMatrix([[1, 1], [1, 2]]))
        assert rep.passed and rep.annihilated_by_squarefree


class TestRationalRoots:
    def test_basic(self):
        assert rational_roots(P.from_roots([1, 1, -2])) == {
            Fraction(1): 2,
            Fraction(-2): 1,
        }

    def test_fractional_root(self):
        p = P([Fraction(-1), Fraction(2)])  # 2x - 1
        assert rational_roots(p) == {Fraction(1, 2): 1}

    def test_zero_roots(self):
        assert rational_roots(P([0, 0, 1])) == {Fraction(0): 2}

    def test_candidate_must_lie_in_its_own_interval(self):
        # -sqrt(2) rounds to the rational root -3/2, which f also has: only
        # the interval of -3/2 may count it
        p = P.from_roots([Fraction(-3, 2), Fraction(-3, 2), 7]) * P([-2, 0, 1])
        assert rational_roots(p) == {Fraction(-3, 2): 2, Fraction(7): 1}


IRREDUCIBLE = [P([1]), P([1, 0, 1]), P([-2, 0, 1]), P([-3, 1, 0, 1])]


@given(st.lists(st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                          st.integers(1, 60)), max_size=6),
       st.lists(st.integers(0, 2), max_size=6),
       st.sampled_from(IRREDUCIBLE),
       st.builds(Fraction, st.integers(-50, 50).filter(bool),
                 st.integers(1, 50)))
@settings(max_examples=80, deadline=None)
def test_rational_roots_are_the_planted_ones(roots, repeats, extra, scale):
    # rational linear factors, some repeated, times x^2 + 1, x^2 - 2,
    # x^3 + x - 3 or 1, times a rational scale
    planted = roots + [r for r, k in zip(roots, repeats) for _ in range(k)]
    p = (P.from_roots(planted) * extra).scale(scale)
    assert rational_roots(p) == Counter(planted)
