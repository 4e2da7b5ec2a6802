"""Exact univariate polynomials over the rationals, with Sturm machinery.

Coefficients are `fractions.Fraction`, stored lowest degree first.  All
root counting is for DISTINCT real roots: inputs are silently reduced to
their square-free part before a Sturm chain is built.

Evaluation and long division run on the integer coefficients over their
lcm denominator, and return the values the rational loops would.  One
integer division loop serves square-free parts and gcds, which run
Euclid on primitive integer remainders and are made monic at the end,
and Sturm chains, held as each member's sign and primitive integer part
(Collins's primitive remainder sequence): their sign variations are read
off those integers, and root isolation bisects on integer (numerator,
denominator) pairs.  Input text "p" or "p/q" in ASCII digits is read with
`int`.  A polynomial keeps its cleared coefficients, square-free part
(with gcd(p, p')) and Sturm chain once computed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .errors import DomainError, InternalInconsistencyError

#: sentinels for unbounded interval endpoints
NEG_INF = object()
POS_INF = object()
#: the largest decimal exponent of an input number (Fraction computes 10**k),
#: Python's default_max_str_digits
MAX_EXPONENT = 4300


def _to_frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _json_number(x):
    """x from JSON, unless it is true or false, which Python reads as 1, 0."""
    if isinstance(x, bool):
        raise TypeError(f"{json.dumps(x)} is not a number")
    return x


def parse_rational(x, what: str) -> Fraction:
    """`_rational_pair`'s number as a Fraction."""
    return Fraction(*_rational_pair(x, what))


def _rational_pair(x, what: str) -> tuple[int, int]:
    """One input number, from JSON or text, as its lowest terms (n, d),
    d > 0; `what` names it in the DomainError for a value that is not a
    number (JSON true and false, text such as "abc", and NaN included),
    has a zero denominator or a decimal exponent past MAX_EXPONENT.

    Text "p" or "p/q" of ASCII digits, p with an optional sign, is read
    with `int`; anything else (whitespace, `_`, other digits,
    decimals, JSON numbers) by `Fraction`, whose values and errors these
    match.
    """
    try:
        if type(x) is str:
            num, slash, den = x.partition("/")
            digits = num[1:] if num[:1] in ("-", "+") else num
            if (digits.isascii() and digits.isdigit()
                    and (not slash or den.isascii() and den.isdigit())):
                n, d = int(num), int(den) if slash else 1
                if not d:
                    raise ZeroDivisionError
                g = math.gcd(n, d)
                return n // g, d // g
            head, e, k = x.replace("E", "e").partition("e")
            if e and k[:1].strip() and abs(int(k)) > MAX_EXPONENT:
                Fraction(head + "e0")  # a number but for its exponent
                raise DomainError(f"bad {what}: {x} has an exponent past "
                                  f"{MAX_EXPONENT}")
        x = Fraction(_json_number(x))
        return x.numerator, x.denominator
    except (TypeError, OverflowError) as e:
        raise DomainError(f"bad {what}: {e}") from e
    except ValueError as e:
        raise DomainError(f"bad {what}: {x} is not a number") from e
    except ZeroDivisionError as e:
        raise DomainError(f"bad {what}: {x} has a zero denominator") from e


class RationalPolynomial:
    """Dense univariate polynomial with exact rational coefficients."""

    # _cleared, _sqfree and _sturm are filled on first use, by _clear,
    # square_free_part and sturm_chain; the coefficients never change
    # after __init__
    __slots__ = ("coeffs", "_cleared", "_sqfree", "_sturm")

    def __init__(self, coeffs: Iterable):
        cs = [_to_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)
        self._cleared = self._sqfree = self._sturm = None

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "RationalPolynomial":
        return cls([])

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

    def derivative(self) -> "RationalPolynomial":
        return RationalPolynomial(
            [i * c for i, c in enumerate(self.coeffs)][1:])

    def _clear(self) -> tuple[int, tuple[int, ...]]:
        """(L, C): L the lcm of the coefficients' denominators and
        C_i = L c_i, highest degree first; cleared once, on first use."""
        if self._cleared is None:
            L = math.lcm(*(c.denominator for c in self.coeffs))
            self._cleared = (L, tuple(c.numerator * (L // c.denominator)
                                      for c in reversed(self.coeffs)))
        return self._cleared

    def _eval_ratio(self, x) -> tuple[int, int]:
        """(N, D) with p(x) = N / D and D > 0, in integers; x is rational
        or an integer pair (n, d), d > 0, standing for n/d.

        At x = n/d, N = sum C_i n^i d^(k-i) by a homogeneous Horner loop
        over the cleared coefficients and D = L d^k, k the degree.
        """
        L, C = self._clear()
        n, d = _pair(x)
        if not C:
            return 0, 1
        acc, dk = C[0], 1
        for c in C[1:]:
            dk *= d
            acc = acc * n + c * dk
        return acc, L * dk

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


def _pair(x) -> tuple[int, int]:
    """x as an integer pair (n, d), d > 0, standing for n/d."""
    if type(x) is tuple:
        return x
    x = _to_frac(x)
    return x.numerator, x.denominator


def _midpoint(a, b) -> tuple[int, int]:
    """The midpoint of two integer pairs, over twice their lcm denominator."""
    (na, da), (nb, db) = a, b
    g = math.gcd(da, db)
    return na * (db // g) + nb * (da // g), 2 * da * (db // g)


def _int_divmod(A, B):
    """Long division of integer coefficient lists, highest degree first:
    (quo, rem, s) with s A = s Q B + rem in integers, rem the integer
    remainder (with any leading zeros) over a running scale s > 0, and
    quo Q's terms, highest degree first, as (numerator, scale) pairs.

    Each pass scales the remainder by u = |b| / gcd(b, t) > 0, b = B[0]
    and t the remainder's leading entry, and subtracts v x^k B, v = u t / b:
    the quotient term is v / s after s *= u.
    """
    if not B:
        raise DomainError("division by the zero polynomial")
    d = len(B) - 1
    n = max(len(A) - d, 0)  # quotient terms
    rem, b, s = list(A), B[0], 1
    quo = []
    for i in range(n):
        t = rem[i]
        if not t:
            quo.append((0, 1))
            continue
        g = math.gcd(t, b)
        u, v = b // g, t // g
        if u < 0:
            u, v = -u, -v
        if u != 1:
            s *= u
            for j in range(i + 1, len(rem)):
                rem[j] *= u
        for j in range(1, d + 1):
            rem[i + j] -= v * B[j]
        quo.append((v, s))
    return quo, rem[n:], s


def _primitive(C) -> tuple[int, tuple[int, ...]]:
    """(g, P) with C = g P: P the primitive part of the integer list C,
    without its leading zeros and with a positive lead, and g the content
    of C, signed as its lead (0 for a zero C)."""
    i = 0
    while i < len(C) and not C[i]:
        i += 1
    g = math.gcd(*C)
    if i < len(C) and C[i] < 0:
        g = -g
    return g, tuple(c // g for c in C[i:]) if g != 1 else tuple(C[i:])


def poly_gcd(a: RationalPolynomial, b: RationalPolynomial) -> RationalPolynomial:
    """Monic gcd by Euclid on primitive integer remainders (Collins): a
    remainder over its content has the same gcd up to a constant, and only
    the monic gcd, formed at the end, is read."""
    A, B = _primitive(a._clear()[1])[1], _primitive(b._clear()[1])[1]
    while B:
        A, B = B, _primitive(_int_divmod(A, B)[1])[1]
    return RationalPolynomial([Fraction(c, A[0]) for c in reversed(A)])


def square_free_part(p: RationalPolynomial) -> RationalPolynomial:
    """p / gcd(p, p'), made monic; same distinct roots, all simple."""
    return _square_free(p)[0]


def _square_free(p: RationalPolynomial):
    """(square-free part, gcd(p, p')), computed once per polynomial and
    kept on it; a square-free part is its own square-free part.  p' is
    read off p's cleared coefficients, and p / g is taken on primitive
    parts: by Gauss's lemma the quotient Q has integer terms and is
    primitive, with a positive lead, so the monic Q / Q_0 clears to Q."""
    if p.is_zero:
        raise DomainError("square-free part of the zero polynomial")
    if p._sqfree is None:
        if p.degree == 0:
            f = g = p.scale(1 / p.leading)
        else:
            C = p._clear()[1]
            g = poly_gcd(p, RationalPolynomial(
                [i * c for i, c in enumerate(reversed(C))][1:]))
            quo, rem, _ = _int_divmod(_primitive(C)[1],
                                      _primitive(g._clear()[1])[1])
            if any(rem):
                raise InternalInconsistencyError(
                    "square-free part: gcd(p, p') does not divide p")
            Q = tuple(v for v, _ in quo)
            f = RationalPolynomial([Fraction(v, Q[0]) for v in reversed(Q)])
            f._cleared = Q[0], Q
        f._sqfree = (f, RationalPolynomial([1]))
        p._sqfree = (f, g)
    return p._sqfree


@dataclass(frozen=True)
class SturmChain:
    """Sturm chain of the square-free part f of a polynomial: member k is
    e_k lam_k P_k, (e_k, P_k) in `members` with e_k = +-1 and P_k primitive
    integers, highest degree first, with a positive lead; lam_k > 0 is
    lam_(k-2) c_k / s_k, lam_(-2) = lam_(-1) = 1, (c_k, s_k) in `ratios`."""

    f: RationalPolynomial
    members: tuple[tuple[int, tuple[int, ...]], ...]
    ratios: tuple[tuple[int, int], ...] = field(compare=False, repr=False)

    @cached_property
    def polys(self) -> tuple[RationalPolynomial, ...]:
        """The members as exact polynomials, built when first read."""
        lams, out = [1, 1], []
        for (e, P), (c, s) in zip(self.members, self.ratios):
            lams.append(lams[-2] * Fraction(c, s))
            out.append(RationalPolynomial([e * lams[-1] * x
                                           for x in reversed(P)]))
        return tuple(out)

    def variations(self, x) -> int:
        """Sign variations of the chain at x (rational, a pair (n, d) or
        +-inf) in one pass: member k has the sign e_k (-1)^deg at -inf, and
        at n/d e_k times that of the homogeneous Horner sum d^deg P_k(x)."""
        inf = x is POS_INF or x is NEG_INF
        if not inf:
            n, d = _pair(x)
        count = last = 0
        for e, P in self.members:
            if inf:
                sign = e if x is POS_INF or len(P) % 2 else -e
            else:
                v, dk = P[0], 1
                for c in P[1:]:
                    dk *= d
                    v = v * n + c * dk
                if not v:
                    continue
                sign = e if v > 0 else -e
            if last == -sign:
                count += 1
            last = sign
        return count


@dataclass(frozen=True)
class RootInterval:
    """Half-open interval (lo, hi] isolating one distinct root."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not self.lo < self.hi:
            raise DomainError("RootInterval requires lo < hi")


def sturm_chain(p: RationalPolynomial) -> SturmChain:
    """Sturm chain: square-free part f, f', then negated remainders, as
    Collins's primitive remainder sequence: with A, B the last two P's,
    `_int_divmod` gives s A = s Q B + R, s > 0, and R = c P, c signed as
    R's lead, so e = -e_(k-1) sign(c) and lam = lam_(k-1) |c| / s.  Built once per polynomial object and kept on it and on its square-free
    part, so isolating and then refining the roots of one p, or counting
    them in many intervals, builds one chain.
    """
    if p.is_zero:
        raise DomainError("Sturm chain of the zero polynomial")
    if p._sturm is None:
        f = square_free_part(p)
        if f._sturm is None:
            L, C = f._clear()
            c, P = _primitive(C)  # f is monic: a positive lead
            members, ratios = [(1, P)], [(c, L)]
            if len(P) > 1:  # f' = (c / L) P'
                d1, P1 = _primitive([(len(P) - 1 - i) * x
                                     for i, x in enumerate(P[:-1])])
                members.append((1, P1))
                ratios.append((c * d1, L))
            # f is square-free, so gcd(f, f') is a constant and no
            # remainder vanishes before one is
            while len(members[-1][1]) > 1:
                (e, A), B = members[-2], members[-1][1]
                _, R, s = _int_divmod(A, B)
                c, P = _primitive(R)
                members.append((-e if c > 0 else e, P))
                ratios.append((abs(c), s))
            f._sturm = SturmChain(f, tuple(members), tuple(ratios))
        p._sturm = f._sturm
    return p._sturm


def cauchy_root_bound(p: RationalPolynomial) -> Fraction:
    """1 + max|a_i| / |a_n|: all real roots lie in (-B, B)."""
    if p.is_zero:
        raise DomainError("root bound of the zero polynomial")
    if p.degree == 0:
        return Fraction(1)
    C = p._clear()[1]
    lc = abs(C[0])
    return Fraction(lc + max(abs(c) for c in C[1:]), lc)


def root_separation_lower_bound(p: RationalPolynomial) -> Fraction:
    """Exact positive rational below the minimal gap of distinct real roots.

    Mahler-type bound on the square-free part, after clearing denominators:
    sep > sqrt(3) n^{-(n+2)/2} ||p||_2^{-(n-1)}, weakened to stay rational.
    """
    f = square_free_part(p)
    n = f.degree
    if n <= 1:
        return Fraction(1)
    h = max(map(abs, f._clear()[1]))
    # sqrt(3)/n^{(n+2)/2} >= n^{-(n+2)};  ||p||_2 <= (n+1) H
    return Fraction(1, n ** (n + 2) * ((n + 1) * h) ** (n - 1))


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


def isolate_real_roots(p: RationalPolynomial) -> list[RootInterval]:
    """Disjoint intervals, each isolating one distinct real root, ordered by lo.

    Bisection by Sturm counts on integer (numerator, denominator) pairs; a
    stack entry carries the chain's variations at both of its ends, so a
    split evaluates the chain at its midpoint only.  A midpoint on a root
    of f moves off it; by the rational root theorem only one whose reduced
    denominator divides f's cleared lead can be one.
    """
    if p.is_zero:
        raise DomainError("root isolation of the zero polynomial")
    if p.degree == 0:
        return []
    chain = sturm_chain(p)
    f = chain.f
    B = cauchy_root_bound(f)  # strict: neither -B nor B is a root
    lead = f._clear()[1][0]
    out: list[RootInterval] = []
    a, b = (-B.numerator, B.denominator), (B.numerator, B.denominator)
    stack = [(a, b, chain.variations(a), chain.variations(b))]
    while stack:
        a, b, va, vb = stack.pop()
        if va == vb:
            continue
        if va - vb == 1:
            out.append(RootInterval(Fraction(*a), Fraction(*b)))
            continue
        m = _midpoint(a, b)
        # lead n / d is an integer iff n/d's reduced denominator divides lead
        if lead * m[0] % m[1] == 0 and f.sign_at(m) == 0:
            # up by half the root-gap bound, so the root stays in the
            # half-open (a, m] and no other root is crossed
            m = _pair(Fraction(*m) + root_separation_lower_bound(f) / 2)
        vm = chain.variations(m)
        stack.append((m, b, vm, vb))
        stack.append((a, m, va, vm))  # popped first: out is ordered
    return out


def _order_split(a: Fraction, b: Fraction) -> Fraction | None:
    """The power of two of the middle binary order of a < b, signed as the
    end of larger order, if their orders lie 32 or more apart, else None;
    x's order is max(0, e), 2^(e-1) < |x| < 2^(e+1), so it lies inside."""
    ea, eb = (max(0, x.numerator.bit_length() - x.denominator.bit_length())
              for x in (a, b))
    if abs(ea - eb) < 32:
        return None
    m = Fraction(2) ** ((ea + eb) // 2)
    return m if (b if eb > ea else a) > 0 else -m


def _horner(coeffs, x: float) -> float:
    """A polynomial in floats, coefficients highest degree first."""
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


def refine_root(p: RationalPolynomial, iv: RootInterval, tol) -> Fraction:
    """The one root of p in iv = (lo, hi] to within tol: hi if it is the
    root, else the midpoint of a bracket of width at most tol around it.

    Each pass takes a float Newton step on p's square-free part f from its
    last iterate (the bracket's midpoint at first) and trusts it only for
    its exact sign: the iterate closes one side of the bracket, and a
    probe one step length past it closes the other, if that step is at
    most half the bracket.  A derivative within 2^-40 of the larger |f'|
    at the bracket's ends, or with no finite float, skips the step, and a
    pass that does not halve the bracket ends with a bisection.  Far from
    the root a step only divides x by about d / (d - 1), d the degree, so
    a bracket that `_order_split` splits takes no step.
    """
    tol = _to_frac(tol)
    if tol <= 0:
        raise DomainError("tol must be positive")
    chain = sturm_chain(p)
    f = chain.f
    a, b = _to_frac(iv.lo), _to_frac(iv.hi)
    if chain.variations(a) - chain.variations(b) != 1:
        raise DomainError("interval does not isolate exactly one root")
    if f.sign_at(b) == 0:
        return b
    if f.sign_at(a) == 0:
        # a root at lo lies outside (lo, hi]: step up past it by half the
        # root-gap bound, so the root in (lo, hi] stays inside
        a += root_separation_lower_bound(f) / 2
    sa = f.sign_at(a)
    try:
        fc = [float(c) for c in reversed(f.coeffs)]
        dc = [float(c) for c in reversed(f.derivative().coeffs)]
    except OverflowError:
        fc = dc = None  # coefficients with no float image: bisect only

    def absorb(x: Fraction) -> bool:
        """Shrink the bracket using the sign of f at an interior point."""
        nonlocal a, b
        s = f.sign_at(x)
        if s == 0:
            h = min(tol / 2, x - a, b - x)
            a, b = x - h, x + h
            return True
        if s == sa:
            a = x
        else:
            b = x
        return False

    def newton(x: Fraction) -> Fraction | None:
        """The Newton iterate from x, or None where there is none."""
        if fc is None:
            return None
        try:
            xf = float(x)
            d = _horner(dc, xf)
            ends = max(abs(_horner(dc, float(a))), abs(_horner(dc, float(b))))
            if not (math.isfinite(d) and abs(d) > ends * 2.0 ** -40):
                return None
            return Fraction(xf - _horner(fc, xf) / d)
        except (OverflowError, ValueError):
            return None  # a value with no finite float image

    x = None  # the last Newton iterate while it is an end of the bracket
    while b - a > tol:
        width = b - a
        m = _order_split(a, b)
        x0 = (a + b) / 2 if x is None else x
        xn = None if m else newton(x0)
        if xn is not None and a < xn < b:
            if absorb(xn):
                break
            step = abs(xn - x0)
            probe = xn + step if xn == a else xn - step
            if 2 * step <= b - a and a < probe < b and absorb(probe):
                break
            x = xn if xn in (a, b) else probe
        if b - a > width / 2 and absorb(m or (a + b) / 2):
            break
        if x not in (a, b):
            x = None
    return (a + b) / 2
