import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import secular.ratpoly
from secular.errors import DomainError
from secular.ratpoly import (
    NEG_INF,
    POS_INF,
    RationalPolynomial as P,
    RootInterval,
    count_real_roots,
    isolate_real_roots,
    refine_root,
    square_free_part,
    sturm_chain,
    variation_bounds,
)


def poly(*coeffs):
    """Coefficients highest degree LAST (lowest first), like the type itself."""
    return P(coeffs)


class TestArithmetic:
    def test_divmod_roundtrip(self):
        a = poly(1, 2, 0, 3)
        b = poly(-1, 1)
        q, r = divmod(a, b)
        assert q * b + r == a

    def test_eval_horner(self):
        p = poly(-6, 11, -6, 1)  # (x-1)(x-2)(x-3)
        assert p.eval_frac(1) == 0
        assert p.eval_frac(4) == 6

    def test_from_roots(self):
        assert P.from_roots([1, 2, 3]) == poly(-6, 11, -6, 1)

    def test_json_roundtrip(self):
        p = poly(Fraction(-6), Fraction(11), Fraction(-6), Fraction(1))
        assert P.from_json(p.to_json()) == p


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


class TestVariationBounds:
    def test_descartes_cubic(self):
        d, _ = variation_bounds(P.from_roots([1, 2, 3]))
        assert d == 3

    def test_descartes_no_positive(self):
        d, _ = variation_bounds(poly(1, 0, 1))
        assert d == 0

    def test_budan_fourier(self):
        _, bf = variation_bounds(poly(-2, 0, 1))
        bound = bf(0, 2)
        assert bound >= 1 and bound % 2 == 1


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

    def test_variation_bound_dominates_with_parity(self):
        rng = random.Random(7)
        for _ in range(100):
            p, _ = random_factored_poly(rng, max_deg=6)
            true_pos = count_real_roots(p, 0, POS_INF)
            d, _ = variation_bounds(p)
            # Descartes counts with multiplicity; compare against the
            # with-multiplicity positive count of the planted factors
            sf = square_free_part(p)
            true_pos_sf = count_real_roots(sf, 0, POS_INF)
            assert d >= true_pos_sf


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
