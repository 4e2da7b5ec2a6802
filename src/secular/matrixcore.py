"""Dense square matrices in exact-rational and complex-floating flavors.

Exact flavor carries `fractions.Fraction` entries and backs all algebraic
theorems (characteristic polynomial, minors, inertia, Hermite counting,
interlacing).  Numeric flavor wraps a complex numpy array and is used by
the periodic-coefficient and three-body pipelines.
"""

from __future__ import annotations

import json
import math
from collections import UserList
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .errors import (
    DomainError,
    InternalInconsistencyError,
    NonConvergenceError,
    UnsupportedFlavorError,
)
from .ratpoly import (
    RationalPolynomial,
    RootInterval,
    _json_number,
    _to_frac,
    count_real_roots,
    isolate_real_roots,
    parse_rational,
    refine_interval,
    square_free_part,
    poly_gcd,
    sturm_chain,
)

EXACT = "exact"
NUMERIC = "numeric"


class SquareMatrix:
    """n x n matrix, either exact (Fraction entries) or numeric (complex)."""

    __slots__ = ("n", "flavor", "rows")

    def __init__(self, rows, flavor=EXACT):
        if flavor not in (EXACT, NUMERIC):
            raise DomainError(f"unknown flavor {flavor!r}")
        n = len(rows)
        for r in rows:
            if len(r) != n:
                raise DomainError("matrix must be square")
        self.n = n
        self.flavor = flavor
        if flavor == EXACT:
            self.rows = tuple(tuple(_to_frac(x) for x in r) for r in rows)
        else:
            self.rows = np.array(rows, dtype=complex)

    # -- constructors ---------------------------------------------------

    @classmethod
    def identity(cls, n, flavor=EXACT):
        return cls(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)], flavor
        )

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
            rows = [[parse_rational(x, "matrix entry") for x in r]
                    for r in rows]
        else:
            try:
                rows = [[complex(*map(_json_number, x)) for x in r]
                        for r in rows]
            except (TypeError, OverflowError) as e:
                raise DomainError(f"bad matrix entry: {e}") from e
        m = cls(rows, flavor)
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
        if self.flavor == EXACT:
            return all(
                self.rows[i][j] == self.rows[j][i]
                for i in range(self.n)
                for j in range(i)
            )
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

    def add(self, other: "SquareMatrix") -> "SquareMatrix":
        self._require_exact()
        return SquareMatrix(
            [
                [self.rows[i][j] + other.rows[i][j] for j in range(self.n)]
                for i in range(self.n)
            ]
        )

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


# -- characteristic polynomial and minors ---------------------------------


@dataclass(frozen=True)
class CharPoly:
    """Monic characteristic polynomial det(S*I - A)."""

    poly: RationalPolynomial

    @property
    def degree(self) -> int:
        return self.poly.degree


@dataclass(frozen=True)
class MinorSequence:
    """Leading-principal minors of A - S*I.

    deltas[k] = det((A - S*I) with the first k rows and columns deleted);
    deltas[0] is the full determinant, deltas[n] the constant 1.
    """

    deltas: tuple[RationalPolynomial, ...]


def char_poly(A: SquareMatrix) -> CharPoly:
    """Monic det(S*I - A), exact via Faddeev-LeVerrier, numeric via numpy."""
    if A.flavor == NUMERIC:
        cs = np.poly(A.rows)  # highest degree first, monic
        coeffs = [complex(c) for c in cs[::-1]]
        scale = max(abs(c) for c in coeffs)
        if any(abs(c.imag) > 1e-12 * scale for c in coeffs):
            raise UnsupportedFlavorError(
                "numeric char_poly requires (numerically) real coefficients"
            )
        return CharPoly(
            RationalPolynomial([Fraction(float(c.real)) for c in coeffs])
        )
    return CharPoly(RationalPolynomial(faddeev_leverrier(A.rows)[0]))


class _ScaledBack(UserList):
    """The M_k(A) = M_k(B)/D^k of an exact recursion, scaled back from
    B's integer M_k when first read: `char_poly` reads none of them."""

    def __init__(self, Ms, D):  # no list until one is read
        self._Ms, self._D = Ms, D

    @cached_property
    def data(self):
        return [[[Fraction(x, self._D ** k) for x in r] for r in M]
                for k, M in enumerate(self._Ms)]


def faddeev_leverrier(rows):
    """det(sI - A) and adj(sI - A) by the Faddeev-LeVerrier recursion.

    `rows` is a list of rows of Fraction or complex entries.  Returns
    (coeffs, Ms): the monic coefficients of det(sI - A), lowest degree
    first, and the matrices M_0..M_{n-1} (lists of rows) with
    adj(sI - A) = sum_k M_k s^{n-1-k}, all in the scalar type of `rows`.
    M_0 = I, c_n = 1; c_{n-k} = -trace(A M_{k-1})/k, M_k = A M_{k-1} + c_{n-k} I.

    Exact rows run in integers: with A = B/D, D the lcm of the entries'
    denominators, B's coefficients and M_k are integers, so each / k is
    exact, and c_{n-k}(A) = c_{n-k}(B)/D^k, M_k(A) = M_k(B)/D^k, the
    latter on first read of Ms, a list-like sequence then.
    """
    n = len(rows)
    exact = all(isinstance(x, Fraction) for r in rows for x in r)
    if exact:
        D = math.lcm(*(x.denominator for r in rows for x in r))
        rows = [[x.numerator * (D // x.denominator) for x in r] for r in rows]
    one = rows[0][0] ** 0 if n else 1  # 1 in the scalar type of the entries
    coeffs = [one] * (n + 1)
    M = [[one * (i == j) for j in range(n)] for i in range(n)]
    Ms = []
    for k in range(1, n + 1):
        Ms.append(M)
        AM = [[sum(rows[i][l] * M[l][j] for l in range(n)) for j in range(n)]
              for i in range(n)]
        t = -sum(AM[i][i] for i in range(n))
        c = _exact_quotient(t, k) if exact else t / k
        coeffs[n - k] = c
        M = [[AM[i][j] + c if i == j else AM[i][j] for j in range(n)]
             for i in range(n)]
    if exact:
        coeffs = [Fraction(c, D ** (n - j)) for j, c in enumerate(coeffs)]
        Ms = _ScaledBack(Ms, D)
    return coeffs, Ms


def _exact_quotient(a: int, k: int) -> int:
    q, r = divmod(a, k)
    if r:
        raise InternalInconsistencyError(
            f"Faddeev-LeVerrier: {a} is not divisible by {k}")
    return q


def minor_sequence(A: SquareMatrix) -> MinorSequence:
    """Delta_k(S) = det of (A - S*I) after deleting the first k rows/columns."""
    A._require_exact()
    n = A.n
    deltas = []
    for k in range(n):
        sub = SquareMatrix([[A.rows[i][j] for j in range(k, n)] for i in range(k, n)])
        cp = char_poly(sub).poly  # monic det(SI - sub)
        sign = 1 if (n - k) % 2 == 0 else -1
        deltas.append(cp.scale(sign))
    deltas.append(RationalPolynomial([1]))
    return MinorSequence(tuple(deltas))


def lagrange_eigenvector(A: SquareMatrix, lam) -> list[Fraction]:
    """Nonzero column of adj(A - lam*I) for a simple exact eigenvalue.

    adj(A - lam*I) = (-1)^{n-1} sum_k M_k lam^{n-1-k}, with the M_k of
    `faddeev_leverrier`.
    """
    A._require_exact()
    if not A.is_symmetric():
        raise DomainError("lagrange_eigenvector expects a symmetric matrix")
    lam = _to_frac(lam)
    n = A.n
    coeffs, Ms = faddeev_leverrier(A.rows)
    if RationalPolynomial(coeffs).eval_frac(lam) != 0:
        raise DomainError(f"{lam} is not an eigenvalue")
    shifted = A.shift(lam)
    sign = (-1) ** (n - 1)
    for j in range(n):
        col = [sign * sum(Ms[k][i][j] * lam ** (n - 1 - k) for k in range(n))
               for i in range(n)]
        if any(x != 0 for x in col):
            res = shifted.matvec(col)
            assert all(x == 0 for x in res)
            return col
    raise DomainError(
        "all adjugate columns vanish: eigenvalue is multiple; use jordan"
    )


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
    """Lagrange/Gauss completion of squares.

    Returns (coefficients, T) with T invertible and T^t G T diagonal equal
    to the coefficients.  Individual coefficients are basis-dependent; only
    their sign pattern (the inertia) is an invariant.
    """
    G = [[x for x in r] for r in q.gram.rows]
    n = q.gram.n
    T = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

    def congruence_col_op(j, i, f):
        # col_j += f * col_i on G (and matching row op), track in T
        for r in range(n):
            G[r][j] += f * G[r][i]
        for r in range(n):
            G[j][r] += f * G[i][r]
        for r in range(n):
            T[r][j] += f * T[r][i]

    def swap_cols(i, j):
        for r in range(n):
            G[r][i], G[r][j] = G[r][j], G[r][i]
        for r in range(n):
            G[i][r], G[j][r] = G[j][r], G[i][r]
        for r in range(n):
            T[r][i], T[r][j] = T[r][j], T[r][i]

    for k in range(n):
        if G[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if G[i][i] != 0), None)
            if piv is not None:
                swap_cols(k, piv)
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
                    swap_cols(k, i)
                    i, j = k, (i if j == k else j)
                congruence_col_op(k, j, Fraction(1))  # x_k <- x_k + x_j
        if G[k][k] == 0:
            continue
        for j in range(k + 1, n):
            if G[k][j] != 0:
                congruence_col_op(j, k, -G[k][j] / G[k][k])
    coeffs = [G[i][i] for i in range(n)]
    return coeffs, SquareMatrix(T)


def inertia(q: QuadraticForm) -> Inertia:
    """Sylvester inertia (n_pos, n_neg, n_zero) of the form."""
    coeffs, _ = reduce_to_squares(q)
    pos = sum(1 for c in coeffs if c > 0)
    neg = sum(1 for c in coeffs if c < 0)
    return Inertia(pos, neg, len(coeffs) - pos - neg)


# -- Hermite root counting ---------------------------------------------------


def newton_power_sums(p: RationalPolynomial, upto: int) -> list[Fraction]:
    """Power sums s_0..s_upto of the roots, by Newton's identities."""
    if p.is_zero:
        raise DomainError("power sums of the zero polynomial")
    mon = p.monic()
    d = mon.degree
    # e_k = (-1)^k * coefficient of x^{d-k}
    e = [(-1) ** k * mon.coeffs[d - k] for k in range(d + 1)]
    s = [Fraction(d)]
    for k in range(1, upto + 1):
        if k <= d:
            acc = Fraction(0)
            for i in range(1, k):
                acc += (-1) ** (i - 1) * e[i] * s[k - i]
            acc += (-1) ** (k - 1) * k * e[k]
        else:
            acc = Fraction(0)
            for i in range(1, d + 1):
                acc += (-1) ** (i - 1) * e[i] * s[k - i]
        s.append(acc)
    return s


def hermite_root_count(p: RationalPolynomial) -> tuple[int, int]:
    """(distinct, distinct_real) root counts via the Hankel form of power sums.

    The Hankel matrix H[i][j] = s_{i+j} of Newton power sums has rank equal
    to the number of distinct complex roots, and signature equal to the
    number of distinct real roots (Hermite/Sylvester).  Both come from its
    inertia: a symmetric form's rank is its number of nonzero squares.
    """
    if p.is_zero:
        raise DomainError("root count of the zero polynomial")
    d = p.degree
    if d == 0:
        return (0, 0)
    s = newton_power_sums(p, 2 * d - 2)
    H = SquareMatrix([[s[i + j] for j in range(d)] for i in range(d)])
    ine = inertia(QuadraticForm(H))
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
    gcd chain q -> gcd(q, q') from p, built once with their Sturm chains."""
    f = square_free_part(p)
    chains, q = [], poly_gcd(p, p.derivative())
    while not q.is_zero and q.degree > 0:
        chains.append(sturm_chain(q))
        q = poly_gcd(q, q.derivative())
    roots = []
    for iv in isolate_real_roots(f):
        m = 1
        for chain in chains:
            if chain.variations(iv.lo) - chain.variations(iv.hi) != 1:
                break
            m += 1
        roots.append(AlgebraicRoot(f, iv, m))
    return roots


def _compare_roots(a: AlgebraicRoot, b: AlgebraicRoot,
                   g: RationalPolynomial) -> int:
    """-1 / 0 / +1 exact ordering of two isolated algebraic numbers;
    g is poly_gcd(a.poly, b.poly)."""
    iva, ivb = a.interval, b.interval
    if not g.is_zero and g.degree >= 1:
        lo = max(iva.lo, ivb.lo)
        hi = min(iva.hi, ivb.hi)
        # a root of g in both intervals is a root of a.poly in a's and of
        # b.poly in b's, each of which isolates one: it is both roots
        if lo < hi and count_real_roots(g, lo, hi) == 1:
            return 0
    # refine until disjoint
    while True:
        if iva.hi <= ivb.lo:
            return -1
        if ivb.hi <= iva.lo:
            return 1
        w = min(iva.width(), ivb.width()) / 2
        iva = refine_interval(a.poly, iva, w)
        ivb = refine_interval(b.poly, ivb, w)


@dataclass(frozen=True)
class InterlacingReport:
    passed: bool
    outer_intervals: tuple[RootInterval, ...]
    inner_intervals: tuple[RootInterval, ...]
    gap_results: tuple[bool, ...]


def interlacing_check(A: SquareMatrix) -> InterlacingReport:
    """Cauchy interlacing: the eigenvalues of the trailing (n-1) x (n-1)
    block of A weakly interlace those of A.

    Both root lists are expanded with multiplicity and the classical
    lam_i <= mu_i <= lam_{i+1} chain is certified with exact comparisons.
    """
    A._require_exact()
    if not A.is_symmetric():
        raise DomainError("interlacing_check expects a symmetric matrix")
    outer = real_roots_with_multiplicity(char_poly(A).poly)
    inner = real_roots_with_multiplicity(
        char_poly(SquareMatrix([r[1:] for r in A.rows[1:]])).poly)
    lam = [r for r in outer for _ in range(r.multiplicity)]
    mu = [r for r in inner for _ in range(r.multiplicity)]
    ok_overall = len(lam) == A.n and len(mu) == A.n - 1
    gaps = []
    if ok_overall and mu:
        # all outer roots share one square-free poly, all inner ones another
        g = poly_gcd(lam[0].poly, mu[0].poly)
        for i, m_root in enumerate(mu):
            left_ok = _compare_roots(lam[i], m_root, g) <= 0
            right_ok = _compare_roots(m_root, lam[i + 1], g) <= 0
            gaps.append(left_ok and right_ok)
        ok_overall = all(gaps)
    return InterlacingReport(
        ok_overall,
        tuple(r.interval for r in outer),
        tuple(r.interval for r in inner),
        tuple(gaps),
    )


# -- power iteration ---------------------------------------------------------


@dataclass(frozen=True)
class PowerIterationResult:
    eigenvalue: float
    eigenvector: np.ndarray
    iterations: int
    converged: bool
    residual: float


def power_iteration(A: SquareMatrix, tol=1e-10, max_iter=10_000) -> PowerIterationResult:
    """Dominant eigenpair of a symmetric matrix by power iteration.

    Deterministic: starts from the all-ones vector, restarts once from a
    fixed alternate vector if the Rayleigh quotient stagnates at a
    non-eigenvector (e.g. the start is orthogonal to the dominant mode).
    """
    M = A.to_numpy().real
    if not np.allclose(M, M.T):
        raise DomainError("power_iteration expects a symmetric matrix")
    n = M.shape[0]
    norm_A = np.linalg.norm(M, 2)
    if norm_A == 0:
        return PowerIterationResult(0.0, np.eye(n)[:, 0], 0, True, 0.0)

    def run(v0):
        v = v0 / np.linalg.norm(v0)
        lam = float(v @ M @ v)
        for it in range(1, max_iter + 1):
            w = M @ v
            nw = np.linalg.norm(w)
            if nw == 0:
                return 0.0, v, it, True  # v in the kernel: eigenvector for 0
            v = w / nw
            lam = float(v @ M @ v)
            res = np.linalg.norm(M @ v - lam * v)
            if res <= tol * norm_A:
                return lam, v, it, True
        return lam, v, max_iter, False

    v0 = np.ones(n)
    lam, v, it, ok = run(v0)
    if not ok:
        v0 = np.array([1.0 / (k + 1) for k in range(n)])
        lam, v, it2, ok = run(v0)
        it += it2
    res = float(np.linalg.norm(M @ v - lam * v))
    if not ok:
        raise NonConvergenceError(
            f"power iteration did not converge in {it} steps "
            f"(residual {res:.3e}); dominant eigenvalue may be tied",
            best=PowerIterationResult(lam, v, it, False, res),
        )
    return PowerIterationResult(lam, v, it, True, res)
