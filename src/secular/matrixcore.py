"""Dense square matrices in exact-rational and complex-floating flavors.

Exact flavor backs all algebraic theorems (characteristic polynomial,
inertia, Hermite counting, interlacing), which run on its integer form
(D, B), D the lcm of the entries' denominators and B = D A.  A matrix
keeps the one it was built from, `fractions.Fraction` rows or form, and
builds the other on first read; one read from JSON is built from its form.
Numeric flavor wraps a complex numpy array and is used by the
periodic-coefficient and three-body pipelines.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import numpy as np

from .errors import (
    DomainError,
    InternalInconsistencyError,
    UnsupportedFlavorError,
)
from .ratpoly import (
    NEG_INF,
    RationalPolynomial,
    RootInterval,
    _json_number,
    _midpoint,
    _rational_pair,
    _square_free,
    _to_frac,
    count_real_roots,
    isolate_real_roots,
    poly_gcd,
    sturm_chain,
)

EXACT = "exact"
NUMERIC = "numeric"


class SquareMatrix:
    """n x n matrix, either exact (rational) or numeric (complex)."""

    __slots__ = ("n", "flavor", "_rows", "_form")

    def __init__(self, rows, flavor=EXACT):
        if flavor not in (EXACT, NUMERIC):
            raise DomainError(f"unknown flavor {flavor!r}")
        self.n = _side(rows)
        self.flavor = flavor
        self._form = None  # an exact matrix's form is built on first read
        if flavor == EXACT:
            self._rows = tuple(tuple(_to_frac(x) for x in r) for r in rows)
        else:
            self._rows = np.array(rows, dtype=complex)

    # -- constructors ---------------------------------------------------

    @classmethod
    def identity(cls, n, flavor=EXACT):
        return cls(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)], flavor
        )

    @classmethod
    def _from_form(cls, D, B) -> "SquareMatrix":
        m = cls.__new__(cls)  # the exact B / D: rows built on first read
        m.n, m.flavor, m._rows, m._form = len(B), EXACT, None, (D, B)
        return m

    @classmethod
    def from_json(cls, text: str) -> "SquareMatrix":
        data = json.loads(text)
        if isinstance(data, list):  # bare rows: an exact matrix
            data = {"rows": data}
        rows = data.get("rows") if isinstance(data, dict) else None
        if not (isinstance(rows, list) and rows
                and all(isinstance(r, list) for r in rows)):
            raise DomainError('matrix JSON must be a non-empty list of rows, '
                              'or an object with "rows", each row a list')
        flavor = data.get("flavor", EXACT)
        if flavor not in (EXACT, NUMERIC):
            raise DomainError(f"unknown flavor {flavor!r}")
        if flavor == NUMERIC and not all(isinstance(x, list) and len(x) == 2
                                         for r in rows for x in r):
            raise DomainError("numeric matrix entries must be [re, im] pairs")
        if flavor == EXACT:
            pairs = [[_rational_pair(x, "matrix entry") for x in r]
                     for r in rows]
            _side(pairs)
            D = math.lcm(*(d for r in pairs for _, d in r))
            m = cls._from_form(D, tuple(tuple(n * (D // d) for n, d in r)
                                        for r in pairs))
        else:
            try:
                rows = [[complex(*map(_json_number, x)) for x in r]
                        for r in rows]
            except (TypeError, OverflowError) as e:
                raise DomainError(f"bad matrix entry: {e}") from e
            m = cls(rows, flavor)
        if "n" in data and type(data["n"]) is not int:
            raise DomainError("declared dimension must be an integer")
        if "n" in data and data["n"] != m.n:
            raise DomainError("declared dimension does not match rows")
        return m

    def to_json(self) -> str:
        if self.flavor == EXACT:
            rows = [
                [f"{x.numerator}/{x.denominator}" for x in r] for r in self.rows
            ]
        else:
            rows = [[[z.real, z.imag] for z in r] for r in self.rows]
        return json.dumps({"n": self.n, "flavor": self.flavor, "rows": rows})

    # -- access -----------------------------------------------------------

    @property
    def rows(self):
        if self._rows is None:  # exact, built from its form
            D, B = self._form
            self._rows = tuple(tuple(Fraction(x, D) for x in r) for r in B)
        return self._rows

    @property
    def form(self):
        """(D, B): D the lcm of the exact entries' denominators, B = D A."""
        if self._form is None:  # built from its rows
            D = math.lcm(*(x.denominator for r in self._rows for x in r))
            self._form = D, tuple(tuple(x.numerator * (D // x.denominator)
                                        for x in r) for r in self._rows)
        return self._form

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j] if self.flavor == EXACT else self.rows[i, j]

    def to_numpy(self) -> np.ndarray:
        if self.flavor == NUMERIC:
            return np.array(self.rows, copy=True)
        return np.array(
            [[float(x) for x in r] for r in self.rows], dtype=complex
        )

    def is_symmetric(self) -> bool:
        if self.flavor == EXACT:  # B = D A is symmetric iff A is
            B = self.form[1]
            return tuple(map(tuple, B)) == tuple(zip(*B))
        return bool(np.allclose(self.rows, self.rows.T))

    def __eq__(self, other):
        if not isinstance(other, SquareMatrix) or other.flavor != self.flavor:
            return NotImplemented
        if self.flavor == EXACT:
            return self.rows == other.rows
        return bool(np.array_equal(self.rows, other.rows))

    def __repr__(self):
        return f"SquareMatrix(n={self.n}, flavor={self.flavor!r})"

    # -- exact arithmetic ---------------------------------------------------

    def _require_exact(self):
        if self.flavor != EXACT:
            raise UnsupportedFlavorError("operation requires exact flavor")

    def matmul(self, other: "SquareMatrix") -> "SquareMatrix":
        self._require_exact()
        n = self.n
        return SquareMatrix(
            [
                [
                    sum(self.rows[i][k] * other.rows[k][j] for k in range(n))
                    for j in range(n)
                ]
                for i in range(n)
            ]
        )

    def matvec(self, v):
        self._require_exact()
        return [
            sum(self.rows[i][k] * _to_frac(v[k]) for k in range(self.n))
            for i in range(self.n)
        ]

    def scale(self, k) -> "SquareMatrix":
        self._require_exact()
        k = _to_frac(k)
        return SquareMatrix([[k * x for x in r] for r in self.rows])

    def transpose(self) -> "SquareMatrix":
        if self.flavor == EXACT:
            return SquareMatrix(
                [[self.rows[j][i] for j in range(self.n)] for i in range(self.n)]
            )
        return SquareMatrix(self.rows.T, NUMERIC)

    def shift(self, lam) -> "SquareMatrix":
        """A - lam*I (exact flavor)."""
        self._require_exact()
        lam = _to_frac(lam)
        rows = [list(r) for r in self.rows]
        for i in range(self.n):
            rows[i][i] -= lam
        return SquareMatrix(rows)

    def det(self) -> Fraction:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        self._require_exact()
        n = self.n
        m = [[x for x in r] for r in self.rows]
        sign = 1
        prev = Fraction(1)
        for k in range(n - 1):
            if m[k][k] == 0:
                piv = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
                if piv is None:
                    return Fraction(0)
                m[k], m[piv] = m[piv], m[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
                m[i][k] = Fraction(0)
            prev = m[k][k]
        return sign * m[n - 1][n - 1] if n else Fraction(1)

    def rank(self) -> int:
        self._require_exact()
        return len(_row_echelon([list(r) for r in self.rows]))

    def inverse(self) -> "SquareMatrix":
        """Exact inverse, by reducing [A | I]."""
        self._require_exact()
        n = self.n
        aug = [
            list(self.rows[i]) + [Fraction(int(i == j)) for j in range(n)]
            for i in range(n)
        ]
        # [A | I] has rank n; a pivot in the right half means A has less
        if n and _row_echelon(aug)[-1] >= n:
            raise DomainError("matrix is singular")
        return SquareMatrix([r[n:] for r in aug])

    def null_space(self) -> list[list[Fraction]]:
        """Exact basis of the kernel (list of column vectors)."""
        self._require_exact()
        n = self.n
        m = [list(r) for r in self.rows]
        pivots = _row_echelon(m)
        basis = []
        for fc in range(n):
            if fc in pivots:
                continue
            v = [Fraction(0)] * n
            v[fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                v[pc] = -m[r][fc]
            basis.append(v)
        return basis


def _side(rows) -> int:
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DomainError("matrix must be square")
    return n


def _row_echelon(m) -> list[int]:
    """In-place reduction over Fractions to reduced row-echelon form;
    returns the pivot columns, one per nonzero row."""
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        piv = next((i for i in range(rank, nrows) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][col]
        m[rank] = [x / pv for x in m[rank]]
        for i in range(nrows):
            if i != rank and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        pivots.append(col)
    return pivots


# -- characteristic polynomial ---------------------------------------------


def char_poly(A: SquareMatrix) -> RationalPolynomial:
    """Monic det(S*I - A), exact via Faddeev-LeVerrier, numeric via numpy."""
    if A.flavor == NUMERIC:
        cs = np.poly(A.rows)  # highest degree first, monic
        if not np.isfinite(cs).all():
            raise DomainError("numeric char_poly coefficients overflow the "
                              "floats")
        coeffs = [complex(c) for c in cs[::-1]]
        scale = max(abs(c) for c in coeffs)
        if any(abs(c.imag) > 1e-12 * scale for c in coeffs):
            raise UnsupportedFlavorError(
                "numeric char_poly requires (numerically) real coefficients"
            )
        return RationalPolynomial([Fraction(float(c.real)) for c in coeffs])
    D, B = A.form
    return RationalPolynomial(_over_powers(faddeev_leverrier(B)[0], D))


def _over_powers(cs, D) -> list[Fraction]:
    m = len(cs) - 1  # c_j / D^(m - j): B = D A's coefficients made A's
    return [Fraction(c, D ** (m - j)) for j, c in enumerate(cs)]


def faddeev_leverrier(rows):
    """det(sI - A) and adj(sI - A) by the Faddeev-LeVerrier recursion.

    `rows` is a list of rows of integer, Fraction or complex entries.
    Returns (coeffs, Ms): the monic coefficients of det(sI - A), lowest
    degree first, and the matrices M_0..M_{n-1} (lists of rows) with
    adj(sI - A) = sum_k M_k s^{n-1-k}, all in the scalar type of `rows`.
    M_0 = I, c_n = 1; c_{n-k} = -trace(A M_{k-1})/k, M_k = A M_{k-1} + c_{n-k} I.

    Integer rows run in integers, each / k exact.  Fraction rows run on
    the integer form (D, B) of their matrix: c_{n-k}(A) = c_{n-k}(B)/D^k
    and M_k(A) = M_k(B)/D^k.
    """
    n = len(rows)
    if any(type(x) is Fraction for r in rows for x in r):
        D, B = SquareMatrix(rows).form
        coeffs, Ms = faddeev_leverrier(B)
        return _over_powers(coeffs, D), [[[Fraction(x, D ** k) for x in r]
                                          for r in M] for k, M in enumerate(Ms)]
    exact = all(type(x) is int for r in rows for x in r)
    one = rows[0][0] ** 0 if n else 1  # 1 in the scalar type of the entries
    coeffs = [one] * (n + 1)
    M = [[one * (i == j) for j in range(n)] for i in range(n)]
    Ms = []
    for k in range(1, n + 1):
        Ms.append(M)
        cols = list(zip(*M))
        diag = [sum(map(mul, r, col)) for r, col in zip(rows, cols)]
        t = -sum(diag)
        c = _exact_quotient(t, k) if exact else t / k
        coeffs[n - k] = c
        if k < n:  # M_n = 0 (Cayley-Hamilton): the last pass reads a trace
            M = [[diag[i] + c if i == j else sum(map(mul, r, col))
                  for j, col in enumerate(cols)] for i, r in enumerate(rows)]
    return coeffs, Ms


def _exact_quotient(a: int, k: int) -> int:
    q, r = divmod(a, k)
    if r:
        raise InternalInconsistencyError(
            f"Faddeev-LeVerrier: {a} is not divisible by {k}")
    return q


# -- quadratic forms -------------------------------------------------------


@dataclass(frozen=True)
class QuadraticForm:
    """Real quadratic form given by its symmetric Gram matrix."""

    gram: SquareMatrix

    def __post_init__(self):
        self.gram._require_exact()
        if not self.gram.is_symmetric():
            raise DomainError("Gram matrix must be symmetric")


@dataclass(frozen=True)
class Inertia:
    n_pos: int
    n_neg: int
    n_zero: int

    @property
    def signature(self) -> int:
        return self.n_pos - self.n_neg


def reduce_to_squares(q: QuadraticForm):
    """Lagrange/Gauss completion of squares, fraction-free.

    Returns (coefficients, T) with T invertible and T^t G T diagonal equal
    to the coefficients.  Individual coefficients are basis-dependent; only
    their sign pattern (the inertia) is an invariant.

    The reduction runs on the Gram matrix's integer form (D, B), and
    G = T^t B T holds throughout.  A square is completed as
    x_j <- G_kk x_j - G_kj x_k on T's columns and G's rows and columns; T's
    column j is then divided by the gcd of its entries, and G's row and
    column j with it, which that identity keeps exact.  T is the basis of
    the Fraction steps x_j <- x_j - (G_kj / G_kk) x_k times nonzero column
    scales s, held as integer (numerator, denominator) pairs, and
    x_k <- x_k + x_j is taken in that basis, so G is D diag(s) G' diag(s),
    G' their matrix: every pivot choice and every coefficient's sign are
    theirs.  The coefficients are G_ii / D.
    """
    D, B = q.gram.form
    n = len(B)
    G = [list(r) for r in B]
    T = [[int(i == j) for j in range(n)] for i in range(n)]
    s = [(1, 1)] * n

    def combine(j, i, a, b):
        # x_j <- a x_j + b x_i: a column op on G and T, then the row op on G
        for M in (G, T):
            for r in M:
                r[j] = a * r[j] + b * r[i]
        G[j] = [a * x + b * y for x, y in zip(G[j], G[i])]
        s[j] = s[j][0] * a, s[j][1]

    def swap(i, j):
        for M in (G, T):
            for r in M:
                r[i], r[j] = r[j], r[i]
        G[i], G[j] = G[j], G[i]
        s[i], s[j] = s[j], s[i]

    for k in range(n):
        if G[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if G[i][i] != 0), None)
            if piv is not None:
                swap(k, piv)
            else:
                od = next(
                    (
                        (i, j)
                        for i in range(k, n)
                        for j in range(i + 1, n)
                        if G[i][j] != 0
                    ),
                    None,
                )
                if od is None:
                    break  # remaining block is zero
                i, j = od
                if i != k:
                    swap(k, i)
                    i, j = k, (i if j == k else j)
                c = Fraction(s[k][0] * s[j][1], s[k][1] * s[j][0])  # s_k/s_j
                combine(k, j, c.denominator, c.numerator)  # x_k <- x_k + x_j
        pivot = G[k][k]
        if pivot == 0:
            continue
        for j in range(k + 1, n):
            if G[k][j] != 0:
                combine(j, k, pivot, -G[k][j])
                g = math.gcd(*(r[j] for r in T))
                if g > 1:
                    for M in (G, T):
                        for r in M:
                            r[j] //= g
                    G[j] = [x // g for x in G[j]]
                    s[j] = s[j][0], s[j][1] * g
    coeffs = [Fraction(G[i][i], D) for i in range(n)]
    return coeffs, SquareMatrix._from_form(1, tuple(map(tuple, T)))


def inertia(q: QuadraticForm) -> Inertia:
    """Sylvester inertia (n_pos, n_neg, n_zero) of the form."""
    coeffs, _ = reduce_to_squares(q)
    pos = sum(1 for c in coeffs if c > 0)
    neg = sum(1 for c in coeffs if c < 0)
    return Inertia(pos, neg, len(coeffs) - pos - neg)


# -- Hermite root counting ---------------------------------------------------


def newton_power_sums(p: RationalPolynomial, upto: int
                      ) -> tuple[int, list[int]]:
    """Power sums s_0..s_upto of the roots, by Newton's identities
    s_k + a_1 s_{k-1} + ... + a_{k-1} s_1 + k a_k = 0 of a monic
    polynomial, a_i its coefficient of x^{d-i} (zero for i > d), as
    (D, [S_0..S_upto]) with S_k = D^k s_k.

    They run in integers on the monic q(x) = D^d p(x/D) / lc(p), D the lcm
    of the denominators of p / lc(p), whose roots are D times p's: S_k is
    q's k-th power sum.
    """
    if p.is_zero:
        raise DomainError("power sums of the zero polynomial")
    d = p.degree
    mon = [c / p.leading for c in reversed(p.coeffs)]  # highest degree first
    D = math.lcm(*(c.denominator for c in mon))
    a = [c.numerator * (D ** i // c.denominator) for i, c in enumerate(mon)]
    s = [d]
    for k in range(1, upto + 1):
        acc = -sum(a[i] * s[k - i] for i in range(1, min(k - 1, d) + 1))
        if k <= d:
            acc -= k * a[k]
        s.append(acc)
    return D, s


def hermite_root_count(p: RationalPolynomial) -> tuple[int, int]:
    """(distinct, distinct_real) root counts via the Hankel form of power sums.

    The Hankel matrix H[i][j] = s_{i+j} of Newton power sums has rank equal
    to the number of distinct complex roots, and signature equal to the
    number of distinct real roots (Hermite/Sylvester).  Both come from its
    inertia: a symmetric form's rank is its number of nonzero squares.
    The form is built on the integer sums S_k = D^k s_k: their Hankel
    matrix is diag(D^i) H diag(D^i), congruent to H, with H's inertia.
    """
    if p.is_zero:
        raise DomainError("root count of the zero polynomial")
    d = p.degree
    if d == 0:
        return (0, 0)
    _, S = newton_power_sums(p, 2 * d - 2)
    H = [[S[i + j] for j in range(d)] for i in range(d)]
    ine = inertia(QuadraticForm(SquareMatrix._from_form(1, H)))
    return ine.n_pos + ine.n_neg, ine.signature


# -- interlacing ---------------------------------------------------------------


@dataclass(frozen=True)
class AlgebraicRoot:
    """A real root of `poly` isolated by `interval`, with multiplicity."""

    poly: RationalPolynomial
    interval: RootInterval
    multiplicity: int


def real_roots_with_multiplicity(p: RationalPolynomial) -> list[AlgebraicRoot]:
    """Isolated real roots of p in increasing order, with multiplicities:
    a root of multiplicity m is a root of the first m - 1 members of the
    gcd chain q -> gcd(q, q') from p, built once with their Sturm chains
    (each gcd is the one its square-free part was taken from)."""
    f, q = _square_free(p)
    chains = []
    while q.degree > 0:
        chains.append(sturm_chain(q))
        q = _square_free(q)[1]
    roots = []
    for iv in isolate_real_roots(f):
        m = 1
        for chain in chains:
            if chain.variations(iv.lo) - chain.variations(iv.hi) != 1:
                break
            m += 1
        roots.append(AlgebraicRoot(f, iv, m))
    return roots


def _place_root(f: RationalPolynomial, h: RationalPolynomial,
                iv: RootInterval, g: RationalPolynomial) -> tuple[int, bool]:
    """(L, E) for the root s of the square-free h that iv = (a, b]
    isolates: L distinct roots of the square-free f lie below s, and E
    says whether s is one of f's roots.  g is poly_gcd(f, h).

    f's Sturm chain counts its roots in (a, b].  None there: f has
    V(-inf) - V(a) roots below s.  One there, and a root of g in (a, b]
    (the only root of h there, so it is s): the same count, and E.  Else
    (a, b] is halved on the side of s, read from the sign of h, and a
    rational s found at a midpoint ends the search there.  The halving
    runs on integer (numerator, denominator) pairs.
    """
    chain = sturm_chain(f)
    neg = chain.variations(NEG_INF)
    a = iv.lo.numerator, iv.lo.denominator
    b = iv.hi.numerator, iv.hi.denominator
    va, vb = chain.variations(a), chain.variations(b)
    shared = (va > vb and g.degree >= 1
              and count_real_roots(g, iv.lo, iv.hi) == 1)
    hb = h.sign_at(b)
    while hb and va - vb > shared:
        m = _midpoint(a, b)
        vm = chain.variations(m)
        hm = h.sign_at(m)
        if hm == -hb:
            a, va = m, vm
        else:  # s < m, or s = m when h(m) = 0
            b, vb, hb = m, vm, hm
    if not hb:  # s = b
        return neg - vb - shared, shared
    return neg - va, shared


def _char_polys(A: SquareMatrix):
    """det(sI - A) and det(sI - A_11), A_11 the trailing block, from one
    recursion on A's form (D, B): the latter is the (1,1) cofactor of
    sI - A, the [0][0] entry of adj(sI - A) = sum_k M_k(B)/D^k s^{n-1-k}."""
    D, B = A.form
    coeffs, Ms = faddeev_leverrier(B)
    return (RationalPolynomial(_over_powers(coeffs, D)), RationalPolynomial(
        _over_powers([M[0][0] for M in reversed(Ms)], D)))


@dataclass(frozen=True)
class InterlacingReport:
    passed: bool
    outer_intervals: tuple[RootInterval, ...]
    inner_intervals: tuple[RootInterval, ...]
    gap_results: tuple[bool, ...]


def interlacing_check(A: SquareMatrix) -> InterlacingReport:
    """Cauchy interlacing: the eigenvalues of the trailing (n-1) x (n-1)
    block of A weakly interlace those of A.

    Both root lists are expanded with multiplicity, and the classical
    lam_i <= mu_i <= lam_{i+1} chain is read from each distinct inner
    root's place among the distinct outer ones (`_place_root`): Sturm
    counts of the outer polynomial at the ends of the inner root's
    isolating interval, halved only while it holds outer roots other
    than that root.  No isolating interval is refined.
    """
    A._require_exact()
    if not A.is_symmetric():
        raise DomainError("interlacing_check expects a symmetric matrix")
    outer, inner = map(real_roots_with_multiplicity, _char_polys(A))
    # lam[i] (mu[i]): the index of the i-th eigenvalue of A (of its
    # block) among the distinct outer (inner) roots
    lam = [j for j, r in enumerate(outer) for _ in range(r.multiplicity)]
    mu = [j for j, r in enumerate(inner) for _ in range(r.multiplicity)]
    ok_overall = len(lam) == A.n and len(mu) == A.n - 1
    gaps = []
    if ok_overall and mu:
        # all outer roots share one square-free poly, all inner ones another
        f, h = outer[0].poly, inner[0].poly
        g = poly_gcd(f, h)
        places = [_place_root(f, h, r.interval, g) for r in inner]
        for i, j in enumerate(mu):
            # outer roots 0..below-1 lie below mu_i; root `below` is mu_i
            # itself when equal, and above it otherwise
            below, equal = places[j]
            left_ok = lam[i] < below or (lam[i] == below and equal)
            gaps.append(left_ok and lam[i + 1] >= below)
        ok_overall = all(gaps)
    return InterlacingReport(
        ok_overall,
        tuple(r.interval for r in outer),
        tuple(r.interval for r in inner),
        tuple(gaps),
    )
