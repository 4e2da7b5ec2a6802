"""Exact univariate polynomials over the rationals, with Sturm machinery.

Coefficients are `fractions.Fraction`, stored lowest degree first.  All
root counting is for DISTINCT real roots: inputs are silently reduced to
their square-free part before a Sturm chain is built.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DomainError

#: sentinels for unbounded interval endpoints
NEG_INF = object()
POS_INF = object()


def _to_frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _json_number(x):
    """x from JSON, unless it is true or false, which Python reads as 1, 0."""
    if isinstance(x, bool):
        raise TypeError(f"{json.dumps(x)} is not a number")
    return x


def parse_rational(x, what: str) -> Fraction:
    """One input number, from JSON or text, as a Fraction; `what` names it
    in the DomainError for a value that is not a number (JSON true and
    false, text such as "abc", and NaN included) or has a zero
    denominator."""
    try:
        return Fraction(_json_number(x))
    except (TypeError, OverflowError) as e:
        raise DomainError(f"bad {what}: {e}") from e
    except ValueError as e:
        raise DomainError(f"bad {what}: {x} is not a number") from e
    except ZeroDivisionError as e:
        raise DomainError(f"bad {what}: {x} has a zero denominator") from e


class RationalPolynomial:
    """Dense univariate polynomial with exact rational coefficients."""

    # _cleared and _sturm are filled on first use, by _eval_ratio and
    # sturm_chain; the coefficients never change after __init__
    __slots__ = ("coeffs", "_cleared", "_sturm")

    def __init__(self, coeffs: Iterable):
        cs = [_to_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)
        self._cleared = self._sturm = None

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "RationalPolynomial":
        return cls([])

    @classmethod
    def constant(cls, c) -> "RationalPolynomial":
        return cls([c])

    @classmethod
    def x(cls) -> "RationalPolynomial":
        return cls([0, 1])

    @classmethod
    def from_roots(cls, roots: Sequence) -> "RationalPolynomial":
        p = cls([1])
        for r in roots:
            p = p * cls([-_to_frac(r), 1])
        return p

    @classmethod
    def from_json(cls, text: str) -> "RationalPolynomial":
        data = json.loads(text)
        coeffs = data.get("coeffs") if isinstance(data, dict) else None
        if not isinstance(coeffs, list):
            raise DomainError('polynomial JSON must be an object with a '
                              '"coeffs" list')
        return cls([parse_rational(c, "polynomial coefficient")
                    for c in coeffs])

    def to_json(self) -> str:
        return json.dumps(
            {"coeffs": [f"{c.numerator}/{c.denominator}" for c in self.coeffs]}
        )

    # -- basic queries -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        if self.is_zero:
            raise DomainError("degree of the zero polynomial is undefined")
        return len(self.coeffs) - 1

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"RationalPolynomial({[str(c) for c in self.coeffs]})"

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (n - len(other.coeffs))
        return RationalPolynomial([x + y for x, y in zip(a, b)])

    def __neg__(self) -> "RationalPolynomial":
        return RationalPolynomial([-c for c in self.coeffs])

    def __sub__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return self + (-other)

    def __mul__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        if self.is_zero or other.is_zero:
            return RationalPolynomial.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RationalPolynomial(out)

    def scale(self, k) -> "RationalPolynomial":
        k = _to_frac(k)
        return RationalPolynomial([k * c for c in self.coeffs])

    def __divmod__(self, other: "RationalPolynomial"):
        if other.is_zero:
            raise DomainError("division by the zero polynomial")
        rem = list(self.coeffs)
        d = other.degree
        lc = other.leading
        quo = [Fraction(0)] * max(len(rem) - d, 0)
        while len(rem) - 1 >= d and any(c != 0 for c in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            k = len(rem) - 1 - d
            q = rem[-1] / lc
            quo[k] = q
            for i, b in enumerate(other.coeffs):
                rem[k + i] -= q * b
            rem.pop()
        return RationalPolynomial(quo), RationalPolynomial(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "RationalPolynomial":
        if self.is_zero:
            return self
        return self.scale(1 / self.leading)

    def derivative(self) -> "RationalPolynomial":
        return RationalPolynomial(
            [i * c for i, c in enumerate(self.coeffs)][1:]
        )

    def _eval_ratio(self, x) -> tuple[int, int]:
        """(N, D) with p(x) = N / D and D > 0, in integers.

        The coefficients are cleared once: C_i = L c_i with L the lcm of
        their denominators.  At x = n/d, N = sum C_i n^i d^(k-i) by a
        homogeneous Horner loop and D = L d^k, k the degree.
        """
        if self._cleared is None:
            L = math.lcm(*(c.denominator for c in self.coeffs))
            self._cleared = (L, tuple(c.numerator * (L // c.denominator)
                                      for c in reversed(self.coeffs)))
        L, C = self._cleared
        x = _to_frac(x)
        n, d = x.numerator, x.denominator
        if not C:
            return 0, 1
        acc, dk = C[0], 1
        for c in C[1:]:
            dk *= d
            acc = acc * n + c * dk
        return acc, L * dk

    def eval_frac(self, x) -> Fraction:
        return Fraction(*self._eval_ratio(x))

    def eval_float(self, x) -> float:
        """float(p(x)): int true division rounds N / D correctly, as
        float(Fraction) does."""
        n, d = self._eval_ratio(x)
        return n / d

    def sign_at(self, x) -> int:
        """Sign of p at a rational point or at NEG_INF / POS_INF."""
        if x is POS_INF:
            if self.is_zero:
                return 0
            return 1 if self.leading > 0 else -1
        if x is NEG_INF:
            if self.is_zero:
                return 0
            s = 1 if self.leading > 0 else -1
            return s if self.degree % 2 == 0 else -s
        v = self._eval_ratio(x)[0]
        return (v > 0) - (v < 0)


def poly_gcd(a: RationalPolynomial, b: RationalPolynomial) -> RationalPolynomial:
    """Monic gcd by the Euclidean algorithm."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic() if not a.is_zero else a


def square_free_part(p: RationalPolynomial) -> RationalPolynomial:
    """p / gcd(p, p'); same distinct roots, all simple."""
    if p.is_zero:
        raise DomainError("square-free part of the zero polynomial")
    if p.degree == 0:
        return p.monic()
    g = poly_gcd(p, p.derivative())
    q, r = divmod(p, g)
    assert r.is_zero
    return q.scale(1 / q.leading) if p.leading != 1 else q


@dataclass(frozen=True)
class SturmChain:
    """Sturm chain of the square-free part of a polynomial."""

    polys: tuple[RationalPolynomial, ...]

    def variations(self, x) -> int:
        """Number of sign variations of the chain at x (rational or ±inf)."""
        return _sign_variations_seq([p.sign_at(x) for p in self.polys])


@dataclass(frozen=True)
class RootInterval:
    """Half-open interval (lo, hi] isolating `contains_count` distinct roots."""

    lo: Fraction
    hi: Fraction
    contains_count: int = 1

    def __post_init__(self):
        if not self.lo < self.hi:
            raise DomainError("RootInterval requires lo < hi")

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def width(self) -> Fraction:
        return self.hi - self.lo


def sturm_chain(p: RationalPolynomial) -> SturmChain:
    """Sturm chain: square-free part, derivative, then negated remainders.

    Built once per polynomial object and kept on it, so isolating and then
    refining the roots of one p, or counting them in many intervals, builds
    one chain.
    """
    if p.is_zero:
        raise DomainError("Sturm chain of the zero polynomial")
    if p._sturm is not None:
        return p._sturm
    f = square_free_part(p)
    chain = [f]
    if f.degree >= 1:
        chain.append(f.derivative())
        while not chain[-1].is_zero and chain[-1].degree >= 1:
            r = chain[-2] % chain[-1]
            if r.is_zero:
                break
            chain.append(-r)
    p._sturm = SturmChain(tuple(chain))
    return p._sturm


def cauchy_root_bound(p: RationalPolynomial) -> Fraction:
    """1 + max|a_i| / |a_n|: all real roots lie in (-B, B)."""
    if p.is_zero:
        raise DomainError("root bound of the zero polynomial")
    if p.degree == 0:
        return Fraction(1)
    lc = abs(p.leading)
    return 1 + max(abs(c) for c in p.coeffs[:-1]) / lc


def root_separation_lower_bound(p: RationalPolynomial) -> Fraction:
    """Exact positive rational below the minimal gap of distinct real roots.

    Mahler-type bound on the square-free part, after clearing denominators:
    sep > sqrt(3) n^{-(n+2)/2} ||p||_2^{-(n-1)}, weakened to stay rational.
    """
    f = square_free_part(p)
    n = f.degree
    if n <= 1:
        return Fraction(1)
    den = math.lcm(*(c.denominator for c in f.coeffs))
    h = max(abs(c * den) for c in f.coeffs)
    # sqrt(3)/n^{(n+2)/2} >= n^{-(n+2)};  ||p||_2 <= (n+1) H
    return Fraction(1, n ** (n + 2) * ((n + 1) * int(h)) ** (n - 1))


def _nudge_endpoint(e: Fraction, p: RationalPolynomial) -> Fraction:
    """Shift an endpoint that is a root of the square-free part.

    Moves by half the exact minimal-gap bound so no other root is crossed;
    the shift direction (+) preserves half-open (lo, hi] semantics.
    """
    delta = root_separation_lower_bound(p) / 2
    return e + delta


def count_real_roots(p: RationalPolynomial, lo=NEG_INF, hi=POS_INF) -> int:
    """Number of distinct real roots of p in (lo, hi] by Sturm's theorem.

    An end may be a root c of the square-free part f: the zero f(c) drops
    out, f has the sign of f'(c) just right of c, and an inner member that
    vanishes there sits between opposite signs, so V(c) = V(c+).
    """
    if p.is_zero:
        raise DomainError("root counting of the zero polynomial")
    a = lo if lo is NEG_INF else _to_frac(lo)
    b = hi if hi is POS_INF else _to_frac(hi)
    if a is not NEG_INF and b is not POS_INF and not a < b:
        raise DomainError("degenerate interval: need lo < hi")
    chain = sturm_chain(p)
    return chain.variations(a) - chain.variations(b)


def _sign_variations_seq(values) -> int:
    signs = [(v > 0) - (v < 0) for v in values]
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def variation_bounds(p: RationalPolynomial):
    """Descartes bound on positive roots, and a Budan-Fourier interval bound.

    Both returned bounds are upper bounds for the count with multiplicity,
    congruent to it mod 2.
    """
    if p.is_zero:
        raise DomainError("variation bounds of the zero polynomial")
    descartes = _sign_variations_seq(p.coeffs)

    derivs = [p]
    while not derivs[-1].is_zero and derivs[-1].degree > 0:
        derivs.append(derivs[-1].derivative())

    def budan_fourier(lo, hi) -> int:
        lo_f, hi_f = _to_frac(lo), _to_frac(hi)
        if not lo_f < hi_f:
            raise DomainError("degenerate interval")
        va = _sign_variations_seq([d.eval_frac(lo_f) for d in derivs])
        vb = _sign_variations_seq([d.eval_frac(hi_f) for d in derivs])
        return va - vb

    return descartes, budan_fourier


def isolate_real_roots(p: RationalPolynomial) -> list[RootInterval]:
    """Disjoint intervals, each isolating one distinct real root, ordered by lo."""
    if p.is_zero:
        raise DomainError("root isolation of the zero polynomial")
    if p.degree == 0:
        return []
    chain = sturm_chain(p)
    f = chain.polys[0]
    B = cauchy_root_bound(f)  # strict: neither -B nor B is a root
    out: list[RootInterval] = []
    stack = [(-B, B, chain.variations(-B) - chain.variations(B))]
    while stack:
        a, b, cnt = stack.pop()
        if cnt == 0:
            continue
        if cnt == 1:
            out.append(RootInterval(a, b, 1))
            continue
        m = (a + b) / 2
        if f.sign_at(m) == 0:
            m = _nudge_endpoint(m, f)
        vm = chain.variations(m)
        left = chain.variations(a) - vm
        stack.append((m, b, cnt - left))
        stack.append((a, m, left))
    out.sort(key=lambda iv: iv.lo)
    return out


def refine_root(p: RationalPolynomial, iv: RootInterval, tol) -> Fraction:
    """Refine an isolated simple root to within tol; the midpoint of
    `refine_interval`."""
    tol = _to_frac(tol)
    if tol <= 0:
        raise DomainError("tol must be positive")
    chain = sturm_chain(p)
    f = chain.polys[0]  # p's square-free part
    a, b = _to_frac(iv.lo), _to_frac(iv.hi)
    if chain.variations(a) - chain.variations(b) != 1:
        raise DomainError("interval does not isolate exactly one root")
    if f.sign_at(b) == 0:
        return b
    if f.sign_at(a) == 0:
        # a root at lo lies outside (lo, hi]: step up past it, not down
        a = _nudge_endpoint(a, f)
    return refine_interval(f, RootInterval(a, b), tol).midpoint()


def refine_interval(f: RationalPolynomial, iv: RootInterval,
                    width) -> RootInterval:
    """Shrink iv to at most `width` (bisection + guarded Newton).

    f must be square-free, with exactly one root in iv and none at either
    end; the root stays strictly inside the returned interval.
    """
    fp = f.derivative()
    a, b = iv.lo, iv.hi
    sa = f.sign_at(a)
    dmax = max(abs(fp.eval_frac(a)), abs(fp.eval_frac(b)), Fraction(1))
    floor_deriv = dmax / Fraction(2 ** 40)

    def absorb(x: Fraction) -> bool:
        """Shrink the bracket using the sign of f at an interior point."""
        nonlocal a, b
        s = f.sign_at(x)
        if s == 0:
            h = min(width / 2, x - a, b - x)
            a, b = x - h, x + h
            return True
        if s == sa:
            a = x
        else:
            b = x
        return False

    while b - a > width:
        # bisection first: the bracket provably halves every pass
        if absorb((a + b) / 2):
            break
        # Newton acceleration from a float image of the midpoint; the
        # candidate is only trusted for its sign, so float error is safe
        xm = float((a + b) / 2)
        dfm = fp.eval_float(xm) if a < Fraction(xm) < b else 0.0
        if abs(dfm) > float(floor_deriv):
            xn_f = xm - f.eval_float(xm) / dfm
            xn = Fraction(xn_f)
            if a < xn < b and absorb(xn):
                break
    return RootInterval(a, b)
