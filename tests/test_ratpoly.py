import contextlib
import fractions
import io
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import secular.ratpoly
from secular.cli import run
from secular.errors import DomainError, InternalInconsistencyError
from secular.ratpoly import (
    MAX_EXPONENT,
    NEG_INF,
    POS_INF,
    RationalPolynomial as P,
    RootInterval,
    SturmChain,
    cauchy_root_bound,
    count_real_roots,
    isolate_real_roots,
    parse_rational,
    poly_gcd,
    refine_root,
    root_separation_lower_bound,
    square_free_part,
    sturm_chain,
)


def poly(*coeffs):
    """Coefficients highest degree LAST (lowest first), like the type itself."""
    return P(coeffs)


class TestArithmetic:
    def test_eval_horner(self):
        p = poly(-6, 11, -6, 1)  # (x-1)(x-2)(x-3)
        assert p._eval_ratio(1) == (0, 1)
        assert p._eval_ratio(4) == (6, 1)

    def test_from_roots(self):
        assert P.from_roots([1, 2, 3]) == poly(-6, 11, -6, 1)


class TestSquareFree:
    def test_double_root_collapses(self):
        assert square_free_part(poly(0, 0, 1)) == poly(0, 1)

    def test_already_square_free(self):
        p = P.from_roots([1, 2])
        assert square_free_part(p) == p

    def test_mixed_multiplicity(self):
        # (x-1)^2 (x+2) -> (x-1)(x+2), expanded by hand
        p = P.from_roots([1, 1, -2])
        assert square_free_part(p) == P.from_roots([1, -2])

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            square_free_part(P.zero())

    def test_gcd_that_does_not_divide_is_refused(self, monkeypatch):
        # (x + 1) does not divide (x - 1)^2 (x - 2)
        monkeypatch.setattr(secular.ratpoly, "poly_gcd", lambda a, b: poly(1, 1))
        with pytest.raises(InternalInconsistencyError, match="does not divide"):
            square_free_part(P.from_roots([1, 1, 2]))


class TestSturmChain:
    def test_x2_minus_2(self):
        chain = sturm_chain(poly(-2, 0, 1)).polys
        assert chain == (poly(-2, 0, 1), poly(0, 2), poly(2))

    def test_linear(self):
        chain = sturm_chain(poly(0, 1)).polys
        assert chain == (poly(0, 1), poly(1))

    def test_x2_plus_1(self):
        chain = sturm_chain(poly(1, 0, 1)).polys
        assert chain == (poly(1, 0, 1), poly(0, 2), poly(-1))


class TestCounting:
    def test_no_real_roots(self):
        assert count_real_roots(poly(1, 0, 1)) == 0

    def test_cubic_partial_interval(self):
        p = P.from_roots([1, 2, 3])
        assert count_real_roots(p, 0, Fraction(5, 2)) == 2

    def test_distinct_count_of_multiple_root(self):
        p = P.from_roots([1, 1, -2])
        assert count_real_roots(p) == 2

    def test_endpoint_is_root(self):
        p = P.from_roots([1, 2, 3])
        # (1, 3]: excludes 1, includes 3
        assert count_real_roots(p, 1, 3) == 2
        assert count_real_roots(p, 0, 2) == 2

    def test_additivity(self):
        p = P.from_roots([-3, Fraction(1, 2), 2, 7])
        a, b, c = Fraction(-5), Fraction(1), Fraction(10)
        assert count_real_roots(p, a, b) + count_real_roots(p, b, c) == \
            count_real_roots(p, a, c)

    def test_degenerate_interval(self):
        with pytest.raises(DomainError):
            count_real_roots(poly(0, 1), 1, 1)


class TestIsolation:
    def test_sqrt2(self):
        ivs = isolate_real_roots(poly(-2, 0, 1))
        assert len(ivs) == 2
        assert ivs[0].hi <= 0 <= ivs[1].lo

    def test_no_roots(self):
        assert isolate_real_roots(poly(1, 0, 1)) == []

    def test_cubic_separates(self):
        p = P.from_roots([1, 2, 3])
        ivs = isolate_real_roots(p)
        assert len(ivs) == 3
        for iv, r in zip(ivs, [1, 2, 3]):
            assert iv.lo < r <= iv.hi

    def test_each_interval_isolates(self):
        p = P.from_roots([-5, 0, 0, 1, Fraction(3, 7)])
        for iv in isolate_real_roots(p):
            assert count_real_roots(p, iv.lo, iv.hi) == 1

    @pytest.mark.parametrize("p", [
        P.from_roots([-5, 0, 0, 1, Fraction(3, 7)]),  # 0 is the first midpoint
        P.from_roots([1, 2, 3]) * poly(-2, 0, 1),
        P.from_roots([Fraction(1, 10 ** 6), Fraction(2, 10 ** 6), 7]),
    ])
    def test_chain_is_read_once_per_split(self, monkeypatch, p):
        # the bisection tree, counted by count_real_roots: a node with two
        # or more roots is split at its midpoint, moved off a root as
        # isolation moves it
        f = square_free_part(p)
        B = cauchy_root_bound(f)

        def splits(a, b):
            if count_real_roots(f, a, b) < 2:
                return 0
            m = (a + b) / 2
            if f._eval_ratio(m)[0] == 0:
                m += root_separation_lower_bound(f) / 2
            return 1 + splits(a, m) + splits(m, b)
        expected = 2 + splits(-B, B)
        points = []
        variations = SturmChain.variations

        def counted(chain, x):
            points.append(x)
            return variations(chain, x)
        monkeypatch.setattr(SturmChain, "variations", counted)
        isolate_real_roots(p)
        assert len(points) == expected
        assert len(set(points)) == expected  # no point is read twice


@given(st.lists(st.builds(Fraction, st.integers(-24, 24),
                          st.sampled_from([1, 2, 4, 8, 3])),
                min_size=1, max_size=5, unique=True),
       st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_each_root_lies_inside_its_interval(roots, repeats):
    # dyadic and integer roots fall on bisection midpoints (0 is the
    # first), where isolation must see them and move off them: each root
    # lies strictly inside its isolating interval, never at its end
    p = P.from_roots(roots + roots[:1] * repeats)
    ivs = isolate_real_roots(p)
    assert len(ivs) == len(roots)
    for iv, r in zip(ivs, sorted(roots)):
        assert iv.lo < r < iv.hi


class TestRefine:
    def test_sqrt2(self):
        p = poly(-2, 0, 1)
        iv = RootInterval(Fraction(0), Fraction(2))
        r = refine_root(p, iv, Fraction(1, 10 ** 8))
        assert abs(float(r) - 2 ** 0.5) < 1e-8

    def test_exact_hit(self):
        r = refine_root(poly(-3, 1), RootInterval(Fraction(2), Fraction(4)),
                        Fraction(1, 10 ** 6))
        assert r == 3

    def test_cubic_root(self):
        p = P.from_roots([1, 2, 3])
        iv = RootInterval(Fraction(3, 2), Fraction(5, 2))
        r = refine_root(p, iv, Fraction(1, 10 ** 10))
        assert abs(r - 2) < Fraction(1, 10 ** 10)

    def test_refined_root_sturm_certificate(self):
        p = P.from_roots([1, 2, 3])
        tol = Fraction(1, 10 ** 6)
        iv = RootInterval(Fraction(3, 2), Fraction(5, 2))
        r = refine_root(p, iv, tol)
        assert count_real_roots(p, r - tol, r + tol) == 1

    def test_root_at_open_lower_end_is_excluded(self):
        # (0, 3] holds only the root 2 of x^2 - 2x; the root at 0 is outside
        p = poly(0, -2, 1)
        tol = Fraction(1, 10 ** 10)
        r = refine_root(p, RootInterval(Fraction(0), Fraction(3)), tol)
        assert abs(r - 2) < tol

    def test_one_gcd_chain_per_refine(self, monkeypatch):
        # p's square-free part and the root count come off one Sturm chain
        runs = []
        gcd = secular.ratpoly.poly_gcd

        def counted(a, b):
            runs.append(a)
            return gcd(a, b)
        monkeypatch.setattr(secular.ratpoly, "poly_gcd", counted)
        p = P.from_roots([1, 2, 2, 3])
        r = refine_root(p, RootInterval(Fraction(3, 2), Fraction(5, 2)),
                        Fraction(1, 10 ** 10))
        assert abs(r - 2) < Fraction(1, 10 ** 10)
        assert runs == [p]

    def test_non_isolating_rejected(self):
        p = P.from_roots([1, 2, 3])
        with pytest.raises(DomainError):
            refine_root(p, RootInterval(Fraction(0), Fraction(4)),
                        Fraction(1, 100))

    @pytest.mark.parametrize("hi, tol, most", [
        (2, Fraction(1, 10 ** 12), 40),  # Newton's rate within float precision
        (10 ** 300, Fraction(1, 10 ** 6), 1020),  # no dearer than bisection
    ], ids=("narrow", "wide"))
    def test_newton_closes_the_bracket(self, monkeypatch, hi, tol, most):
        # every exact evaluation of a polynomial (sign, value or rounded
        # value) outside the Sturm chain's variations is counted
        evals = [0]
        ratio = P._eval_ratio

        def counted(self, x):
            evals[0] += 1
            return ratio(self, x)
        monkeypatch.setattr(P, "_eval_ratio", counted)
        p = poly(-2, 0, 1)
        r = refine_root(p, RootInterval(Fraction(0), Fraction(hi)), tol)
        assert evals[0] <= most
        assert count_real_roots(p, r - tol / 2, r + tol / 2) == 1


def random_factored_poly(rng, max_deg=8):
    """Product of random linear and irreducible quadratic factors.

    Returns (poly, distinct real root count).
    """
    deg = rng.randint(1, max_deg)
    p = P([1])
    roots = set()
    d = 0
    while d < deg:
        if d + 2 <= deg and rng.random() < 0.4:
            # x^2 + bx + c with negative discriminant: no real roots
            b = Fraction(rng.randint(-4, 4))
            c = b * b / 4 + Fraction(rng.randint(1, 9))
            p = p * P([c, b, 1])
            d += 2
        else:
            r = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
            roots.add(r)
            p = p * P([-r, 1])
            d += 1
    return p, len(roots)


class TestRandomOracle:
    def test_count_matches_planted_roots(self):
        rng = random.Random(20260826)
        for _ in range(300):
            p, expected = random_factored_poly(rng)
            assert count_real_roots(p) == expected


@given(st.lists(st.integers(-9, 9), min_size=2, max_size=7))
@settings(max_examples=60, deadline=None)
def test_isolation_intervals_disjoint_and_complete(coeffs):
    p = P(coeffs)
    if p.is_zero or p.degree == 0:
        return
    ivs = isolate_real_roots(p)
    assert len(ivs) == count_real_roots(p)
    for a, b in zip(ivs, ivs[1:]):
        assert a.hi <= b.lo


@given(roots=st.lists(st.fractions(-6, 6, max_denominator=5), min_size=1,
                      max_size=6),
       complex_pair=st.booleans(), data=st.data())
@settings(max_examples=80, deadline=None)
def test_count_with_root_endpoints_matches_planted_roots(roots, complex_pair,
                                                         data):
    # ends drawn from the planted roots and their neighbours
    p = P.from_roots(roots) * (P([1, 0, 1]) if complex_pair else P([1]))
    ends = sorted({r + d for r in roots
                   for d in (Fraction(-1, 10 ** 6), 0, Fraction(1, 10 ** 6))})
    lo, hi = sorted(data.draw(st.lists(st.sampled_from(ends), min_size=2,
                                       max_size=2, unique=True)))
    assert count_real_roots(p, lo, hi) == len({r for r in roots
                                               if lo < r <= hi})


def _fraction_horner(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


_coefficients = st.lists(st.fractions(-50, 50, max_denominator=12),
                         max_size=9)  # the empty list is the zero polynomial
_points = st.one_of(
    st.fractions(-1000, 1000, max_denominator=1000),
    st.floats(-1e3, 1e3, allow_nan=False).map(Fraction))


@given(_coefficients, _points)
@example([], Fraction(3, 7))
@example([Fraction(-5, 3)], Fraction(2))
@example([0, 0], Fraction(0))
@settings(max_examples=300, deadline=None)
def test_integer_evaluation_matches_fraction_horner(coeffs, x):
    p = P(coeffs)
    ref = _fraction_horner(p.coeffs, x)
    N, D = p._eval_ratio(x)
    assert D > 0 and Fraction(N, D) == ref
    assert p.sign_at(x) == (ref > 0) - (ref < 0)


def _fraction_divmod(a, b):
    """Long division in Fractions, lowest degree first: the reference the
    integer long division must agree with."""
    rem = list(a)
    d = len(b) - 1
    quo = [Fraction(0)] * max(len(rem) - d, 0)
    while len(rem) - 1 >= d and any(c != 0 for c in rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < d:
            break
        k = len(rem) - 1 - d
        q = rem[-1] / b[-1]
        quo[k] = q
        for i, c in enumerate(b):
            rem[k + i] -= q * c
        rem.pop()
    return P(quo).coeffs, P(rem).coeffs


def _fraction_sturm_chain(p):
    """Monic square-free part, its derivative, then negated remainders,
    all by `_fraction_divmod`."""
    def derivative(a):
        return P([i * c for i, c in enumerate(a)][1:]).coeffs

    def monic(a):
        return tuple(c / a[-1] for c in a)

    a, b = p, derivative(p)
    while b:
        a, b = b, _fraction_divmod(a, b)[1]
    f = monic(_fraction_divmod(p, monic(a))[0])
    chain = [f]
    if len(f) > 1:
        chain.append(derivative(f))
        while len(chain[-1]) > 1:
            r = _fraction_divmod(chain[-2], chain[-1])[1]
            if not r:
                break
            chain.append(tuple(-c for c in r))
    return tuple(P(c) for c in chain)


_entries = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
_leading = _entries.filter(bool)  # negative and non-unit ones included


@st.composite
def _polys(draw, min_degree=0, max_degree=12):
    """A polynomial of exact degree in [min_degree, max_degree]."""
    d = draw(st.integers(min_degree, max_degree))
    return P(draw(st.lists(_entries, min_size=d, max_size=d))
             + [draw(_leading)])


@given(st.one_of(_polys(), st.just(P.zero())), _polys())
@example(P.zero(), P([Fraction(-3, 2), 0, Fraction(5, 7)]))
@example(P([1, 2]), P([1, 0, 0, Fraction(-2, 3)]))  # dividend of lower degree
@example(P([Fraction(1, 3)] * 13), P([Fraction(-7, 12)]))
@settings(max_examples=300, deadline=None)
def test_integer_long_division_matches_fractions(a, b):
    # the quotient's terms v / w and the remainder over s, of the cleared
    # integer coefficients, are those of long division in Fractions
    A, B = a._clear()[1], b._clear()[1]
    quo, rem, s = secular.ratpoly._int_divmod(A, B)
    assert (P([Fraction(v, w) for v, w in reversed(quo)]).coeffs,
            P([Fraction(r, s) for r in reversed(rem)]).coeffs) == \
        _fraction_divmod(P(A[::-1]).coeffs, P(B[::-1]).coeffs)


@given(st.one_of(_polys(1, 12),
                 st.builds(lambda a, b: a * b * b, _polys(0, 4), _polys(1, 4))))
@example(P([-2, 0, 1]))
@settings(max_examples=100, deadline=None)
def test_sturm_chain_matches_fraction_remainders(p):
    chain = sturm_chain(p).polys
    assert chain == _fraction_sturm_chain(p.coeffs)
    assert all(type(c) is Fraction for f in chain for c in f.coeffs)


def _signed_primitive(p):
    """(e, P) with p = e lam P, lam > 0: e the sign of p's lead and P its
    primitive integer part, highest degree first, with a positive lead."""
    L = math.lcm(*(c.denominator for c in p.coeffs))
    C = [int(c * L) for c in reversed(p.coeffs)]
    e = 1 if C[0] > 0 else -1
    g = e * math.gcd(*C)
    return e, tuple(c // g for c in C)


@given(st.one_of(_polys(1, 12),
                 st.builds(lambda a, b: a * b * b, _polys(0, 4), _polys(1, 4))),
       st.lists(_points, max_size=4))
@example(P([-2, 0, 1]), [Fraction(0)])
@example(P([Fraction(-3, 2), 0, 0, Fraction(-7, 5)]), [])  # negative lead
@example(P([1, -2, 1]) * P([0, 0, Fraction(-1, 3)]), [Fraction(1)])
@settings(max_examples=100, deadline=None)
def test_signed_primitive_members_match_fraction_chain(p, xs):
    # each member is the sign and primitive part of the Fraction chain's,
    # and reading the chain's variations, or isolating with it, never
    # builds its Fraction members
    chain = sturm_chain(p)
    for x in [NEG_INF, POS_INF, *xs]:
        chain.variations(x)
    isolate_real_roots(p)
    assert "polys" not in vars(chain)
    assert chain.members == tuple(
        _signed_primitive(m) for m in _fraction_sturm_chain(p.coeffs))
    assert chain.f == chain.polys[0]


_int_lists = st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=10)
_divisors = st.lists(st.integers(-50, 50), max_size=6).flatmap(
    lambda tail: st.integers(-12, 12).filter(bool).map(
        lambda lead: [lead] + tail))  # negative leads included


@given(_int_lists, _divisors)
@example([1, 0], [-2, 1])  # one scaling pass by a negative lead
@example([3, 1, 4, 1, 5], [-3, 2])
@example([7, 0, 0, 0], [-2, 0, 3])
@example([], [-5])
@example([2], [4, 1])  # a dividend of lower degree
@settings(max_examples=300, deadline=None)
def test_int_divmod_scale_is_positive(A, B):
    # s A = s Q B + rem in integers, s > 0, with Q's terms v / w, w | s
    quo, rem, s = secular.ratpoly._int_divmod(A, B)
    assert s > 0
    d = len(B) - 1
    assert len(quo) == max(len(A) - d, 0)
    assert all(s % w == 0 for _, w in quo)
    sQ = [v * (s // w) for v, w in quo]
    sQB = [0] * len(A)
    for i, q in enumerate(sQ):
        for j, b in enumerate(B):
            sQB[i + j] += q * b
    assert len(rem) == (d if quo else len(A))
    assert [s * a for a in A] == [x + y for x, y in zip(
        sQB, [0] * (len(A) - len(rem)) + list(rem))]


@given(st.fractions(-10 ** 40, 10 ** 40), st.fractions(-10 ** 40, 10 ** 40))
@example(Fraction(0), Fraction(10 ** 300))
@example(Fraction(-10 ** 400), Fraction(0))
@example(Fraction(-10 ** 20), Fraction(10 ** 20))
@example(Fraction(1, 10 ** 30), Fraction(2 ** 40))
@settings(max_examples=300, deadline=None)
def test_order_split_is_a_power_of_two_inside(a, b):
    if not a < b:
        a, b = b, a + 1
    m = secular.ratpoly._order_split(a, b)
    if m is not None:
        assert a < m < b
        r = abs(m)
        assert r.denominator == 1 and r.numerator & (r.numerator - 1) == 0


@pytest.mark.parametrize("lo, hi", [
    (0, 10 ** 300), (0, 10 ** 400), (-10 ** 400, 0), (-10 ** 300, -1)])
def test_wide_bracket_is_split_by_orders(monkeypatch, lo, hi):
    # far from the root a Newton step only divides x by about 2 here: the
    # bracket's orders are halved instead, each at one exact evaluation
    evals = [0]
    ratio = P._eval_ratio

    def counted(self, x):
        evals[0] += 1
        return ratio(self, x)
    monkeypatch.setattr(P, "_eval_ratio", counted)
    p, tol = poly(-2, 0, 1), Fraction(1, 10 ** 6)
    r = refine_root(p, RootInterval(Fraction(lo), Fraction(hi)), tol)
    assert evals[0] <= 100
    assert count_real_roots(p, r - tol / 2, r + tol / 2) == 1


def _fraction_gcd(a, b):
    """Monic gcd by Euclid on the Fraction remainders of `_fraction_divmod`:
    the reference for the primitive integer Euclid of `poly_gcd`."""
    while b:
        a, b = b, _fraction_divmod(a, b)[1]
    return tuple(c / a[-1] for c in a)


_maybe_zero = st.one_of(_polys(0, 6), st.just(P.zero()))


@given(_maybe_zero, _maybe_zero, _polys(0, 3))
@example(P.zero(), P.zero(), P([1]))
@example(P.zero(), P([Fraction(-5, 3)]), P([1]))  # zero and a constant
@example(P([Fraction(7, 2)]), P([-4]), P([1]))  # two constants
@example(P([2, 0, -1]), P([-3, 1]), P([Fraction(1, 2), -3]))  # negative leads
@settings(max_examples=200, deadline=None)
def test_primitive_euclid_matches_fraction_gcd(a, b, common):
    a, b = a * common, b * common  # most draws share a factor
    g = poly_gcd(a, b)
    assert g.coeffs == _fraction_gcd(a.coeffs, b.coeffs)
    assert all(type(c) is Fraction for c in g.coeffs)


def _sign_variations_seq(values) -> int:
    signs = [s for s in ((v > 0) - (v < 0) for v in values) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


_small_roots = st.lists(st.fractions(-6, 6, max_denominator=6), max_size=5)


@given(_small_roots, _polys(0, 4), st.lists(_points, max_size=6))
@example([Fraction(1), Fraction(1), Fraction(-2)], P([1]), [])
@example([], P([-2, 0, 1]), [Fraction(0)])
@settings(max_examples=200, deadline=None)
def test_one_pass_variations_match_member_signs(roots, factor, xs):
    p = P.from_roots(roots) * factor
    if p.degree == 0:
        p = p * P([0, 1])
    chain = sturm_chain(p)
    # planted roots of f, and the root of each linear member
    member_roots = [-m.coeffs[0] / m.coeffs[1]
                    for m in chain.polys if m.degree == 1]
    for x in [NEG_INF, POS_INF, 0, *roots, *member_roots, *xs]:
        assert chain.variations(x) == _sign_variations_seq(
            [m.sign_at(x) for m in chain.polys])


def _fraction_parse(x, what):
    """`parse_rational` by `Fraction` alone, as (value, None), or (None,
    the message of its DomainError).  A text that Fraction's own grammar
    reads with a decimal exponent past MAX_EXPONENT is refused instead."""
    try:
        if isinstance(x, bool):
            raise TypeError(f"{json.dumps(x)} is not a number")
        m = isinstance(x, str) and fractions._RATIONAL_FORMAT.match(x)
        if m and m["exp"] and abs(int(m["exp"])) > MAX_EXPONENT:
            return None, (f"bad {what}: {x} has an exponent past "
                          f"{MAX_EXPONENT}")
        return Fraction(x), None
    except (TypeError, OverflowError) as e:
        return None, f"bad {what}: {e}"
    except ValueError:
        return None, f"bad {what}: {x} is not a number"
    except ZeroDivisionError:
        return None, f"bad {what}: {x} has a zero denominator"


_texts = st.one_of(
    st.text(alphabet="0123456789+-/_. eE\t\u0663\u00b2", max_size=8),
    st.builds("{}/{}".format, st.integers(), st.integers(0, 10 ** 30)),
    st.integers().map(str),
    st.sampled_from(["nan", "inf", "-Infinity", "true", "false", "0x10"]),
)


@given(st.one_of(_texts, st.integers(), st.booleans(), st.none(),
                 st.floats()))
@example("1/0")
@example("1/00")
@example("-0/7")
@example("+12/-4")
@example(" 3/4")
@example("1_000/3")
@example("\u0663/4")
@example("1/" + "1" * 5000)  # beyond int's digit limit
@example(True)
@example(False)
@example(float("nan"))
@example(1e400)
@example(0.1)
@example("E4301")  # no number before the exponent
@example("1e4301")
@example(" -.5E-4_301\t")
@example("1e 4301")
@example("1/2e4301")
@settings(max_examples=500, deadline=None)
def test_integer_parse_matches_fraction(x):
    try:
        got = parse_rational(x, "entry"), None
    except DomainError as e:
        got = None, str(e)
    assert got == _fraction_parse(x, "entry")
    assert got[0] is None or type(got[0]) is Fraction


@pytest.mark.parametrize("lo, hi, root", [
    ("0", "1e400", 2 ** 0.5), ("-1e400", "0", -2 ** 0.5),
    ("0", "1e300", 2 ** 0.5), ("-1e300", "-1", -2 ** 0.5)])
def test_refine_past_the_float_range_bisects(lo, hi, root):
    # a midpoint, or a value there, with no finite float takes no Newton step
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["sturm", "refine", "--poly=-2,0,1", f"--lo={lo}",
                    f"--hi={hi}", "--tol", "1/1000000"])
    assert (code, err.getvalue()) == (0, "")
    lines = out.getvalue().splitlines()
    assert len(lines) == 1 and abs(float(lines[0]) - root) <= 1e-6


def test_refine_with_an_overflowing_derivative_bisects():
    # f and f' are finite at 0 and 0.9 but f' has no finite float at 0.45
    coeffs = [Fraction(c) for c in (-0.514e308, 1.5e308, 0.895e308,
                                    -0.597e308, 1)]
    poly_arg = ",".join(str(int(c)) for c in coeffs)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["sturm", "refine", f"--poly={poly_arg}", "--lo=0",
                    "--hi=0.9", "--tol", "1/1000000"])
    assert (code, err.getvalue()) == (0, "")
    r = Fraction(out.getvalue().strip())
    h = Fraction(1, 2 * 10 ** 6)
    assert count_real_roots(P(coeffs), r - h, r + h) == 1


@given(st.lists(st.integers(-30, 30), min_size=2, max_size=8),
       st.integers(0, 60))
@example([-2, 0, 1], 30)
@example([0, -2, 1], 12)  # a root at 0, an end of an isolating interval
@settings(max_examples=60, deadline=None)
def test_refined_root_stays_in_its_bracket(coeffs, digits):
    # every root of a random integer polynomial, refined to 10^-digits, is
    # the one root of its interval within tol / 2 of the answer
    p = P(coeffs)
    if p.is_zero or p.degree == 0:
        return
    tol = Fraction(1, 10 ** digits)
    for iv in isolate_real_roots(p):
        r = refine_root(p, iv, tol)
        lo, hi = max(iv.lo, r - tol / 2), min(iv.hi, r + tol / 2)
        assert lo < hi and count_real_roots(p, lo, hi) == 1
