import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from secular.errors import DomainError, InternalInconsistencyError
from secular.matrixcore import (
    Inertia,
    QuadraticForm,
    SquareMatrix,
    _char_polys,
    _exact_quotient,
    _place_root,
    char_poly,
    faddeev_leverrier,
    hermite_root_count,
    inertia,
    interlacing_check,
    newton_power_sums,
    real_roots_with_multiplicity,
    reduce_to_squares,
)
from secular.ratpoly import (
    RationalPolynomial as P,
    count_real_roots,
    isolate_real_roots,
    parse_rational,
    poly_gcd,
    square_free_part,
)

# worked 3x3 example used throughout: eigenvalues {0, 1, 3}
A_WORKED = SquareMatrix([[1, -1, 0], [-1, 2, 1], [0, 1, 1]])


def random_exact(rng, n, lo=-5, hi=5):
    return SquareMatrix(
        [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
    )


def random_symmetric(rng, n, lo=-5, hi=5):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randint(lo, hi)
    return SquareMatrix(rows)


def random_invertible(rng, n):
    while True:
        M = random_exact(rng, n, -3, 3)
        if M.det() != 0:
            return M


class TestCharPoly:
    def test_worked_example(self):
        cp = char_poly(A_WORKED)
        assert cp == P.from_roots([0, 1, 3])

    def test_identity(self):
        cp = char_poly(SquareMatrix.identity(2))
        assert cp == P.from_roots([1, 1])

    def test_diagonal(self):
        A = SquareMatrix([[2, 0, 0], [0, 5, 0], [0, 0, 7]])
        assert char_poly(A) == P.from_roots([2, 5, 7])

    def test_similarity_invariance(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(2, 5)
            A = random_exact(rng, n)
            M = random_invertible(rng, n)
            B = M.inverse().matmul(A).matmul(M)
            assert char_poly(B) == char_poly(A)

    def test_numeric_flavor(self):
        A = SquareMatrix([[2.0, 0.0], [0.0, 3.0]], flavor="numeric")
        cp = char_poly(A)
        assert abs(float(cp.coeffs[0]) - 6.0) < 1e-9


_digits = st.one_of(st.integers(0, 12), st.integers(0, 10 ** 30)).map(str)
_spellings = st.one_of(
    st.integers(-10 ** 30, 10 ** 30),  # JSON integers
    # p or p/q in ASCII digits: signs, leading zeros, 0 numerators, p/0
    st.builds(lambda sign, zeros, p, q: f"{sign}{zeros}{p}{q}",
              st.sampled_from(["", "-", "+"]), st.sampled_from(["", "0", "00"]),
              _digits, st.one_of(st.just(""), _digits.map("/{}".format),
                                 _digits.map("/00{}".format))),
    # whitespace, `_`, decimals, exponents and other spellings (a small
    # right side: Fraction("1e<k>") takes time that grows faster than k)
    st.builds("{}{}{}".format, _digits,
              st.sampled_from([" ", "_", ".", "e", "e-", "E+", " / ", "/-",
                               "//", "/+", "\u0663"]),
              st.integers(0, 99).map(str)),
    st.builds(" {} ".format, _digits),
    st.floats(),  # NaN and the infinities included
    st.sampled_from([True, False, None, "", "-", "/", "abc", [1], {}]))


@st.composite
def json_matrix_rows(draw):
    """Rows of spellings, square, ragged or with an empty row or none."""
    n = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(_spellings, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    shape = draw(st.sampled_from(["square"] * 3 + ["ragged", "empty row",
                                                   "no rows"]))
    if shape == "ragged":
        del rows[draw(st.integers(0, n - 1))][-1]
    elif shape == "empty row":
        rows[draw(st.integers(0, n - 1))] = []
    elif shape == "no rows":
        rows = []
    return rows


@given(json_matrix_rows())
@settings(max_examples=300, deadline=None)
def test_matrix_reader_agrees_with_parse_rational(rows):
    # the reader's integer form holds parse_rational's values, and its
    # errors are parse_rational's, first entry first, before the shape's
    def read(text):
        try:
            return SquareMatrix.from_json(text).rows
        except DomainError as e:
            return str(e)

    def reference():
        if not rows:
            return read("[]")
        try:
            vals = [[parse_rational(x, "matrix entry") for x in r]
                    for r in rows]
        except DomainError as e:
            return str(e)
        if any(len(r) != len(vals) for r in vals):
            return "matrix must be square"
        return tuple(map(tuple, vals))
    assert read(json.dumps(rows)) == reference()


@pytest.mark.parametrize("entry, expected", [
    # values and messages of the parser that built Fractions entry by entry
    ("4/6", Fraction(2, 3)), ("-0/5", Fraction(0)), ("+007/014", Fraction(1, 2)),
    (" 3 ", Fraction(3)), ("1e2", Fraction(100)), ("1_0", Fraction(10)),
    ("1.5", Fraction(3, 2)), (2.5, Fraction(5, 2)), (-3, Fraction(-3)),
    ("1/0", "bad matrix entry: 1/0 has a zero denominator"),
    ("0/0", "bad matrix entry: 0/0 has a zero denominator"),
    ("1/00", "bad matrix entry: 1/00 has a zero denominator"),
    ("abc", "bad matrix entry: abc is not a number"),
    ("3/-4", "bad matrix entry: 3/-4 is not a number"),
    (True, "bad matrix entry: true is not a number"),
    (float("nan"), "bad matrix entry: nan is not a number"),
    (float("inf"),
     "bad matrix entry: cannot convert Infinity to integer ratio"),
    (None, "bad matrix entry: "
     "argument should be a string or a Rational instance"),
])
def test_matrix_reader_keeps_its_values_and_errors(entry, expected):
    text = json.dumps([[entry]])
    if isinstance(expected, str):
        with pytest.raises(DomainError) as e:
            SquareMatrix.from_json(text)
        assert str(e.value) == expected
    else:
        A = SquareMatrix.from_json(text)
        assert A.rows == ((expected,),)
        assert A.form == (expected.denominator, ((expected.numerator,),))


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def exact_matrices(draw):
    n = draw(st.integers(1, 5))
    row = st.lists(rationals, min_size=n, max_size=n)
    return SquareMatrix(draw(st.lists(row, min_size=n, max_size=n)))


@given(exact_matrices())
@settings(max_examples=80, deadline=None)
def test_char_poly_constant_term_is_signed_det(A):
    assert char_poly(A).coeffs[0] == (-1) ** A.n * A.det()


@given(exact_matrices(), st.fractions(-10, 10, max_denominator=7))
@settings(max_examples=80, deadline=None)
def test_faddeev_leverrier_adjugate_inverts_resolvent(A, s):
    """adj(sI - A) = sum_k M_k s^{n-1-k} times (sI - A) is det(sI - A) I,
    with c_{n-k} = c_{n-k}(B)/D^k and M_k = M_k(B)/D^k read off the
    recursion on A's integer form (D, B)."""
    n = A.n
    D, B = A.form
    cs, Ms = faddeev_leverrier(B)
    coeffs = [Fraction(c, D ** (n - j)) for j, c in enumerate(cs)]
    adj = SquareMatrix([[sum(Fraction(Ms[k][i][j], D ** k) * s ** (n - 1 - k)
                             for k in range(n))
                         for j in range(n)] for i in range(n)])
    resolvent = A.shift(s).scale(-1)  # sI - A
    det = resolvent.det()
    assert det == sum(c * s ** k for k, c in enumerate(coeffs))
    assert adj.matmul(resolvent) == SquareMatrix.identity(n).scale(det)


def _transpose(M):
    """An exact matrix's transpose."""
    return SquareMatrix(list(zip(*M.rows)))


def _fraction_faddeev_leverrier(rows):
    """The recursion in Fractions throughout: the reference for the
    integer recursion faddeev_leverrier runs on exact rows."""
    n = len(rows)
    coeffs = [Fraction(1)] * (n + 1)
    M = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    Ms = []
    for k in range(1, n + 1):
        Ms.append(M)
        AM = [[sum(rows[i][l] * M[l][j] for l in range(n)) for j in range(n)]
              for i in range(n)]
        c = -sum(AM[i][i] for i in range(n)) / k
        coeffs[n - k] = c
        M = [[AM[i][j] + c if i == j else AM[i][j] for j in range(n)]
             for i in range(n)]
    return coeffs, Ms


def _full_faddeev_leverrier(rows):
    """The recursion with every pass's whole product A M_{k-1} and M_k,
    M_n included, in faddeev_leverrier's order of operations, in the
    scalar type of `rows` (Fraction or complex): the reference for its
    last pass, which takes only the trace, and the residue oracle's
    adjugate in tests/test_linode.py."""
    n = len(rows)
    one = rows[0][0] ** 0
    coeffs = [one] * (n + 1)
    M = [[one * (i == j) for j in range(n)] for i in range(n)]
    Ms = []
    for k in range(1, n + 1):
        Ms.append(M)
        cols = list(zip(*M))
        AM = [[sum(map(lambda x, y: x * y, r, col)) for col in cols]
              for r in rows]
        c = -sum(AM[i][i] for i in range(n)) / k
        coeffs[n - k] = c
        M = [[AM[i][j] + c if i == j else AM[i][j] for j in range(n)]
             for i in range(n)]
    return coeffs, Ms, M


@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(-9, 9), min_size=n, max_size=n),
    min_size=n, max_size=n)))
@settings(max_examples=50, deadline=None)
def test_last_recursion_matrix_vanishes(rows):
    # Cayley-Hamilton: M_n = A M_{n-1} + c_0 I = 0, which the last pass
    # of faddeev_leverrier does not build
    rows = [[Fraction(x) for x in r] for r in rows]
    _, _, M_n = _full_faddeev_leverrier(rows)
    assert all(x == 0 for r in M_n for x in r)


@st.composite
def rational_matrices(draw):
    n = draw(st.integers(1, 6))
    entry = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))
    return draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=n, max_size=n))


@given(rational_matrices())
@settings(max_examples=100, deadline=None)
def test_faddeev_leverrier_on_integers_matches_fractions(rows):
    # the recursion on B = D A, scaled by D^k, is the recursion on A
    D, B = SquareMatrix(rows).form
    cs, Ms = faddeev_leverrier(B)
    assert all(type(c) is int for c in cs)
    assert all(type(x) is int for M in Ms for r in M for x in r)
    n = len(rows)
    assert ([Fraction(c, D ** (n - j)) for j, c in enumerate(cs)],
            [[[Fraction(x, D ** k) for x in r] for r in M]
             for k, M in enumerate(Ms)]) == _fraction_faddeev_leverrier(rows)


@given(rational_matrices())
@settings(max_examples=100, deadline=None)
def test_adjugate_corner_is_the_trailing_blocks_polynomial(rows):
    # M_k[0][0] / D^k of the recursion on B = D A, for any rational A,
    # are the coefficients of det(sI - A_11), highest degree first
    A = SquareMatrix(rows)
    D, B = A.form
    _, Ms = faddeev_leverrier(B)
    block = char_poly(SquareMatrix([r[1:] for r in rows[1:]]))
    assert [Fraction(M[0][0], D ** k) for k, M in enumerate(Ms)] == list(
        reversed(block.coeffs))
    assert _char_polys(A) == (char_poly(A), block)


def test_integer_recursion_refuses_an_inexact_division():
    with pytest.raises(InternalInconsistencyError, match="not divisible"):
        _exact_quotient(7, 2)


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


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_inertia_invariant_under_congruence(data):
    # G = T^t D T has the inertia of the planted diagonal D (Sylvester's
    # law), and so has S^t G S
    n = data.draw(st.integers(1, 5))
    d = data.draw(st.lists(rationals, min_size=n, max_size=n))
    D = SquareMatrix([[d[i] if i == j else 0 for j in range(n)]
                      for i in range(n)])
    T, S = (data.draw(invertible_rational(n)) for _ in range(2))
    G = _transpose(T).matmul(D).matmul(T)
    planted = Inertia(sum(x > 0 for x in d), sum(x < 0 for x in d),
                      sum(x == 0 for x in d))
    assert inertia(QuadraticForm(G)) == planted
    assert inertia(QuadraticForm(_transpose(S).matmul(G).matmul(S))) == planted


@st.composite
def rank_deficient(draw):
    """A rational matrix whose rows past the first r are combinations of
    those r, so its rank is at most r."""
    n = draw(st.integers(1, 5))
    r = draw(st.integers(0, n))
    row = st.lists(rationals, min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=r, max_size=r))
    for _ in range(n - r):
        c = draw(st.lists(rationals, min_size=r, max_size=r))
        rows.append([sum(ck * rk[j] for ck, rk in zip(c, rows))
                     for j in range(n)])
    return SquareMatrix([[Fraction(x) for x in row] for row in rows])


@given(st.one_of(exact_matrices(), rank_deficient()))
@settings(max_examples=80, deadline=None)
def test_row_reduction_rank_kernel_and_inverse(A):
    n = A.n
    kernel = A.null_space()
    assert A.rank() + len(kernel) == n
    assert all(x == 0 for v in kernel for x in A.matvec(v))
    if kernel:
        assert np.linalg.matrix_rank(np.array(kernel, dtype=float)) == \
            len(kernel)
    if A.det() == 0:
        with pytest.raises(DomainError, match="singular"):
            A.inverse()
    else:
        assert A.matmul(A.inverse()) == SquareMatrix.identity(n)


@given(st.lists(st.tuples(rationals, st.integers(1, 3)), max_size=3,
                unique_by=lambda rm: rm[0]),
       st.lists(st.tuples(st.integers(1, 4), st.integers(1, 2)), max_size=2,
                unique_by=lambda cm: cm[0]))
@settings(max_examples=60, deadline=None)
def test_hermite_count_of_planted_repeated_roots(reals, pairs):
    # (x^2 + c)^m plants the two non-real roots +-i sqrt(c), m times each
    p = P.from_roots([r for r, m in reals for _ in range(m)])
    for c, m in pairs:
        for _ in range(m):
            p = p * P([c, 0, 1])
    assert hermite_root_count(p) == (len(reals) + 2 * len(pairs), len(reals))


@given(st.lists(st.tuples(rationals, st.integers(1, 4)), min_size=1,
                max_size=4, unique_by=lambda rm: rm[0]),
       st.lists(st.integers(1, 4), max_size=2))
@settings(max_examples=60, deadline=None)
def test_multiplicities_of_planted_roots(reals, quads):
    # x^2 + c adds no real root; each real root r comes m times
    p = P.from_roots([r for r, m in reals for _ in range(m)])
    for c in quads:
        p = p * P([c, 0, 1])
    roots = real_roots_with_multiplicity(p)
    assert [rt.multiplicity for rt in roots] == \
        [m for _, m in sorted(reals)]
    for rt, (r, _) in zip(roots, sorted(reals)):
        assert rt.interval.lo < r <= rt.interval.hi


class TestQuadraticForms:
    def paper_form(self):
        # x1^2 - 2 x1 x2 + 2 x2^2 + 2 x2 x3 + x3^2: the form whose Gram
        # matrix is the worked 3x3 example (eigenvalues 0, 1, 3)
        return QuadraticForm(A_WORKED)

    def test_paper_form_inertia(self):
        assert inertia(self.paper_form()) == Inertia(2, 0, 1)

    def test_reduction_is_congruence(self):
        q = self.paper_form()
        coeffs, T = reduce_to_squares(q)
        D = _transpose(T).matmul(q.gram).matmul(T)
        for i in range(3):
            for j in range(3):
                expect = coeffs[i] if i == j else 0
                assert D.rows[i][j] == expect
        assert T.det() != 0

    def test_zero_form(self):
        coeffs, _ = reduce_to_squares(QuadraticForm(SquareMatrix([[0, 0], [0, 0]])))
        assert coeffs == [0, 0]

    def test_hyperbolic(self):
        q = QuadraticForm(SquareMatrix([[0, Fraction(1, 2)], [Fraction(1, 2), 0]]))
        assert inertia(q) == Inertia(1, 1, 0)

    def test_negative_identity(self):
        q = QuadraticForm(SquareMatrix([[-1, 0, 0], [0, -1, 0], [0, 0, -1]]))
        assert inertia(q) == Inertia(0, 3, 0)

    def test_diag_case(self):
        q = QuadraticForm(
            SquareMatrix([[-2, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 5]])
        )
        assert inertia(q) == Inertia(1, 1, 2)

    def test_congruence_invariance(self):
        rng = random.Random(42)
        for _ in range(60):
            n = rng.randint(2, 4)
            G = random_symmetric(rng, n)
            q = QuadraticForm(G)
            T = random_invertible(rng, n)
            q2 = QuadraticForm(_transpose(T).matmul(G).matmul(T))
            assert inertia(q) == inertia(q2)


def _fraction_reduce_to_squares(G):
    """Completion of squares in Fractions, step for step: the reference
    the fraction-free reduction must agree with."""
    G = [list(r) for r in G]
    n = len(G)
    T = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

    def op(j, i, f):  # x_j <- x_j + f x_i
        for r in range(n):
            G[r][j] += f * G[r][i]
        for r in range(n):
            G[j][r] += f * G[i][r]
        for r in range(n):
            T[r][j] += f * T[r][i]

    def swap(i, j):
        for M in (G, T):
            for r in M:
                r[i], r[j] = r[j], r[i]
        G[i], G[j] = G[j], G[i]

    for k in range(n):
        if G[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if G[i][i] != 0), None)
            if piv is not None:
                swap(k, piv)
            else:
                od = next(((i, j) for i in range(k, n)
                           for j in range(i + 1, n) if G[i][j] != 0), None)
                if od is None:
                    break
                i, j = od
                if i != k:
                    swap(k, i)
                    i, j = k, (i if j == k else j)
                op(k, j, Fraction(1))
        if G[k][k] == 0:
            continue
        for j in range(k + 1, n):
            if G[k][j] != 0:
                op(j, k, -G[k][j] / G[k][k])
    return [G[i][i] for i in range(n)]


@st.composite
def sparse_symmetric(draw):
    """Symmetric rationals with forced zero diagonal entries, a forced
    zero block and scattered zeros: the swap, x_k <- x_k + x_j and
    zero-block branches of the completion of squares."""
    n = draw(st.integers(1, 6))
    zero_diag = draw(st.sets(st.integers(0, n - 1)))
    block = draw(st.sets(st.integers(0, n - 1)))
    entry = st.one_of(st.just(Fraction(0)),
                      st.builds(Fraction, st.integers(-20, 20),
                                st.integers(1, 12)))
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if (i == j and i in zero_diag) or (i in block and j in block):
                continue
            rows[i][j] = rows[j][i] = draw(entry)
    return rows


def _sign(x):
    return (x > 0) - (x < 0)


@given(sparse_symmetric())
# x_k <- x_k + x_j after eliminations that scaled x_k and x_j differently
@example([[Fraction(x) for x in r] for r in (
    ("0", "0", "5/2", "-4/3", "-4", "0"), ("0", "0", "0", "0", "0", "5/2"),
    ("5/2", "0", "0", "0", "0", "5"), ("-4/3", "0", "0", "0", "4/3", "0"),
    ("-4", "0", "0", "4/3", "0", "0"), ("0", "5/2", "5", "0", "0", "0"))])
@settings(max_examples=300, deadline=None)
def test_fraction_free_squares_match_the_fraction_steps(rows):
    G = SquareMatrix(rows)
    coeffs, T = reduce_to_squares(QuadraticForm(G))
    n = G.n
    assert all(type(c) is Fraction for c in coeffs)
    assert _transpose(T).matmul(G).matmul(T).rows == tuple(
        tuple(coeffs[i] if i == j else 0 for j in range(n)) for i in range(n))
    assert T.det() != 0
    reference = _fraction_reduce_to_squares(rows)
    assert [_sign(c) for c in coeffs] == [_sign(c) for c in reference]
    assert inertia(QuadraticForm(G)) == Inertia(
        sum(c > 0 for c in reference), sum(c < 0 for c in reference),
        sum(c == 0 for c in reference))


def _fraction_power_sums(coeffs, upto):
    """Newton's identities in Fractions on the monic polynomial, lowest
    degree first: the reference for the integer recursion."""
    mon = [c / coeffs[-1] for c in coeffs]
    d = len(mon) - 1
    e = [(-1) ** k * mon[d - k] for k in range(d + 1)]  # elementary
    s = [Fraction(d)]
    for k in range(1, upto + 1):
        acc = sum(((-1) ** (i - 1) * e[i] * s[k - i]
                   for i in range(1, min(k - 1, d) + 1)), Fraction(0))
        if k <= d:
            acc += (-1) ** (k - 1) * k * e[k]
        s.append(acc)
    return s


_coeff = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))


@given(st.lists(_coeff, max_size=8), _coeff.filter(bool),
       st.integers(0, 18))
@example([], Fraction(-3, 7), 4)  # a constant: s_0 = 0, the rest 0
@example([Fraction(1, 2), 0, Fraction(-5, 3)], Fraction(-2, 9), 0)
@settings(max_examples=200, deadline=None)
def test_integer_power_sums_match_fractions(lower, lead, upto):
    p = P(lower + [lead])
    D, S = newton_power_sums(p, upto)
    assert [Fraction(x, D ** k) for k, x in enumerate(S)] == \
        _fraction_power_sums(p.coeffs, upto)
    assert all(type(x) is int for x in [D, *S])


class TestHermite:
    def test_x2_plus_1(self):
        assert hermite_root_count(P([1, 0, 1])) == (2, 0)

    def test_multiple_root(self):
        assert hermite_root_count(P.from_roots([1, 1, -2])) == (2, 2)

    def test_linear(self):
        assert hermite_root_count(P([-5, 1])) == (1, 1)

    def test_random_agreement(self):
        rng = random.Random(123)
        for _ in range(80):
            deg = rng.randint(1, 7)
            p = P([1])
            for _ in range(deg):
                if rng.random() < 0.3 and deg >= 2:
                    p = p * P([rng.randint(1, 5), rng.randint(-2, 2), 1])
                else:
                    p = p * P([Fraction(rng.randint(-6, 6)), 1])
            distinct, real = hermite_root_count(p)
            sf = square_free_part(p)
            assert distinct == sf.degree
            assert real == count_real_roots(p)


# -- root placement against planted roots ------------------------------------
#
# A planted root x is keyed by x|x|, which is increasing in x and rational
# for a rational x and for x = +-sqrt(k), k rational: keys order the roots
# exactly, irrational ones included.

def _key(x):
    return x * abs(x)


@st.composite
def planted_root_pairs(draw):
    """(outer factors, outer keys, inner factors, inner keys): the inner
    roots are shared with the outer ones, near-shared (10^-3 .. 10^-12
    apart), or free; an x^2 - k pair, k not a square, is shared or
    near-shared when drawn."""
    outer = draw(st.lists(rationals, min_size=1, max_size=5, unique=True))
    o_fac = [P([-r, 1]) for r in outer]
    o_key = [_key(r) for r in outer]
    i_fac, i_key = [], []
    for r in outer:
        kind = draw(st.sampled_from(["shared", "near", "skip"]))
        if kind == "skip":
            continue
        if kind == "near":
            r += draw(st.sampled_from([-1, 1])) * Fraction(
                1, 10 ** draw(st.integers(3, 12)))
        i_fac.append(P([-r, 1]))
        i_key.append(_key(r))
    for r in draw(st.lists(rationals, max_size=3)):
        i_fac.append(P([-r, 1]))
        i_key.append(_key(r))
    if draw(st.booleans()):
        k = Fraction(draw(st.sampled_from([2, 3, 5, 6, 7])))
        o_fac.append(P([-k, 0, 1]))
        o_key += [-k, k]  # the keys of -sqrt(k) and sqrt(k)
        if draw(st.booleans()):
            k += Fraction(1, 10 ** draw(st.integers(3, 12)))
        i_fac.append(P([-k, 0, 1]))
        i_key += [-k, k]
    return o_fac, o_key, i_fac, i_key


def _product(factors):
    p = P([1])
    for q in factors:
        p = p * q
    return p


@given(planted_root_pairs())
@settings(max_examples=150, deadline=None)
@example(([P([0, 1]), P([-1, 1])], [0, 1],
          [P([0, 1]), P([-1, 1]), P([Fraction(-1, 10 ** 12), 1])],
          [0, 1, Fraction(1, 10 ** 24)]))
@example(([P([0, 1]), P([Fraction(-1, 2), 1])], [0, Fraction(1, 4)],
          [P([0, 1])], [0]))  # shared s = 0 is the first midpoint of (-1, 1]
def test_root_place_matches_planted_roots(planted):
    # (L, E) for each distinct inner root s: L distinct outer roots lie
    # below s, and E says whether s is one of them
    o_fac, o_key, i_fac, i_key = planted
    f = square_free_part(_product(o_fac))
    h = square_free_part(_product(i_fac))
    g = poly_gcd(f, h)
    outer, inner = sorted(set(o_key)), sorted(set(i_key))
    ivs = isolate_real_roots(h)
    assert len(ivs) == len(inner)
    for iv, s in zip(ivs, inner):
        below = sum(1 for r in outer if r < s)
        assert _place_root(f, h, iv, g) == (below, s in outer)


@st.composite
def householder_repeats(draw):
    """H D H, H = I - 2 v v^t / v^t v rational, D with repeated entries."""
    n = draw(st.integers(2, 6))
    pool = draw(st.lists(st.fractions(-3, 3, max_denominator=2), min_size=1,
                         max_size=max(1, n - 1)))
    eigs = [draw(st.sampled_from(pool)) for _ in range(n)]
    v = [draw(st.fractions(Fraction(1, 3), 4, max_denominator=3))
         for _ in range(n)]
    vv = sum(x * x for x in v)
    H = [[Fraction(int(r == c)) - 2 * v[r] * v[c] / vv for c in range(n)]
         for r in range(n)]
    return SquareMatrix([[sum(H[r][k] * eigs[k] * H[k][c] for k in range(n))
                          for c in range(n)] for r in range(n)])


@given(householder_repeats())
@settings(max_examples=60, deadline=None)
def test_interlacing_of_planted_repeated_eigenvalues(A):
    rep = interlacing_check(A)
    assert rep.passed
    assert len(rep.gap_results) == A.n - 1


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_gaps_follow_planted_inner_roots(data):
    # Cauchy's theorem passes every symmetric A, so plant the trailing
    # block's eigenvalues (shared with A's, near them, or free, with
    # repeats) and check each gap lam_i <= mu_i <= lam_{i+1} as planted
    lam = sorted(data.draw(st.lists(rationals, min_size=2, max_size=5)))
    near = st.builds(lambda r, j: r + Fraction(1, 10 ** j),
                     st.sampled_from(lam), st.integers(3, 12))
    mu = sorted(data.draw(st.lists(st.one_of(st.sampled_from(lam), near,
                                             rationals),
                                   min_size=len(lam) - 1,
                                   max_size=len(lam) - 1)))
    A = SquareMatrix([[lam[i] if i == j else 0 for j in range(len(lam))]
                      for i in range(len(lam))])

    def planted(M):  # A's polynomial, and the block's as planted
        return char_poly(M), P.from_roots(mu)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("secular.matrixcore._char_polys", planted)
        rep = interlacing_check(A)
    gaps = tuple(lam[i] <= m <= lam[i + 1] for i, m in enumerate(mu))
    assert (rep.gap_results, rep.passed) == (gaps, all(gaps))


class TestInterlacing:
    def test_worked_example(self):
        rep = interlacing_check(A_WORKED)
        assert rep.passed
        assert len(rep.outer_intervals) == 3
        assert len(rep.inner_intervals) == 2

    def test_diag_shared_roots(self):
        rep = interlacing_check(SquareMatrix([[1, 0, 0], [0, 2, 0], [0, 0, 3]]))
        assert rep.passed

    def test_2x2_swap(self):
        rep = interlacing_check(SquareMatrix([[0, 1], [1, 0]]))
        assert rep.passed

    def test_random_symmetric(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(2, 5)
            assert interlacing_check(random_symmetric(rng, n)).passed

    def test_1x1_has_no_inner_roots(self):
        rep = interlacing_check(SquareMatrix([[7]]))
        assert rep.passed
        assert (len(rep.outer_intervals), rep.inner_intervals) == (1, ())

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_reads_two_characteristic_polynomials(self, monkeypatch, n):
        # A's and its trailing block's, both from one recursion on A
        sizes = []

        def counted(rows):
            sizes.append(len(rows))
            return faddeev_leverrier(rows)
        monkeypatch.setattr("secular.matrixcore.faddeev_leverrier", counted)
        assert interlacing_check(random_symmetric(random.Random(n), n)).passed
        assert sizes == [n]

    def test_symmetric_reality(self):
        # Laplace reality: all roots of the secular equation are real
        rng = random.Random(6)
        for _ in range(30):
            n = rng.randint(2, 5)
            A = random_symmetric(rng, n)
            cp = char_poly(A)
            assert count_real_roots(cp) == square_free_part(cp).degree
