"""Closed-form solutions and stability of constant-coefficient linear systems.

Two independent solvers are provided: `solve_constant` goes through the
Jordan decomposition, `solve_residue` through the residues of the resolvent
adj(sI - A)/det(sI - A).  Both emit a `LinearSolution`, a sum of terms
poly(t) * exp(lam*t), with secular (polynomial) factors explicit.

Each solver is one algebra over either scalar type: a matrix whose
eigenvalues are all rational runs it in Fractions, so its coefficients are
exact until the final conversion; any other runs it in complex floats on
the numeric Jordan data.  One place, `_jordan_data`, makes that choice
for both solvers and the stability verdict.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnsupportedFlavorError
from .jordan import JordanDecomposition, jordan_form
from .matrixcore import EXACT, NUMERIC, SquareMatrix, faddeev_leverrier
from .ratpoly import _to_frac

_ZERO_TOL = 1e-12


@dataclass(frozen=True)
class SolutionTerm:
    """poly(t) * exp(lam * t) with vector polynomial coefficients.

    coeffs[k] is the vector multiplying t^k.
    """

    lam: complex
    coeffs: tuple[tuple[complex, ...], ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class LinearSolution:
    terms: tuple[SolutionTerm, ...]
    dim: int

    def __call__(self, t: float) -> np.ndarray:
        out = np.zeros(self.dim, dtype=complex)
        for term in self.terms:
            e = cmath.exp(term.lam * t)
            tk = 1.0
            for coeff in term.coeffs:
                out += e * tk * np.asarray(coeff)
                tk *= t
        return out


def _canonical_terms(raw, dim, drop_tol) -> LinearSolution:
    """Merge per-eigenvalue contributions, drop negligible coefficients,
    order terms by (re, im) and coefficients by degree."""
    scale = max(
        (abs(c) for lam, coeffs in raw for vec in coeffs for c in vec),
        default=1.0,
    )
    merged: dict[complex, list[np.ndarray]] = {}
    for lam, coeffs in raw:
        key = complex(lam)
        bucket = merged.setdefault(key, [])
        for k, vec in enumerate(coeffs):
            while len(bucket) <= k:
                bucket.append(np.zeros(dim, dtype=complex))
            bucket[k] = bucket[k] + np.asarray(vec, dtype=complex)
    terms = []
    for lam in sorted(merged, key=lambda z: (z.real, z.imag)):
        coeffs = merged[lam]
        while coeffs and np.max(np.abs(coeffs[-1])) <= drop_tol * scale:
            coeffs.pop()
        if not coeffs:
            continue
        terms.append(
            SolutionTerm(lam, tuple(tuple(complex(x) for x in v) for v in coeffs))
        )
    return LinearSolution(tuple(terms), dim)


def _jordan_data(A: SquareMatrix) -> JordanDecomposition:
    """The exact Jordan form of A when every eigenvalue is rational, else
    the numeric one."""
    if A.flavor == EXACT:
        try:
            return jordan_form(A)
        except UnsupportedFlavorError:
            pass
    return jordan_form(SquareMatrix(A.to_numpy(), NUMERIC))


# -- Jordan route ---------------------------------------------------------------


def solve_constant(A: SquareMatrix, x0, dec=None) -> LinearSolution:
    """Closed form of x' = Ax, x(0) = x0 via the Jordan decomposition.

    Exact-rational spectra are handled in exact arithmetic, so secular-term
    presence is decided exactly; anything else falls back to the numeric
    Jordan form with the documented clustering tolerance.  ``dec`` is
    A's `_jordan_data`, for a caller that already has it.
    """
    n = A.n
    dec = _jordan_data(A) if dec is None else dec
    if dec.P.flavor == EXACT:
        y0 = dec.P.inverse().matvec(x0)
        drop_tol = 0.0
    else:
        y0 = np.linalg.solve(dec.P.rows, np.asarray(x0, dtype=complex))
        drop_tol = _ZERO_TOL
    P = dec.P.rows
    raw = []
    pos = 0
    for lam, sizes in dec.blocks:
        for s in sizes:
            # block contribution: coeff of t^d is sum_i P[:,pos+i] y0[pos+i+d]/d!
            coeffs = [
                [complex(sum(P[r][pos + i] * y0[pos + i + d]
                             for i in range(s - d)) / math.factorial(d))
                 for r in range(n)]
                for d in range(s)
            ]
            raw.append((complex(lam), coeffs))
            pos += s
    return _canonical_terms(raw, n, drop_tol)


# -- residue route ----------------------------------------------------------------


def _series_inverse(coeffs, order):
    """1 / (c0 + c1 u + ...) as a power series to given order; c0 != 0."""
    inv = [1 / coeffs[0]]
    for k in range(1, order + 1):
        acc = 0
        for i in range(1, k + 1):
            ci = coeffs[i] if i < len(coeffs) else 0
            acc += ci * inv[k - i]
        inv.append(-acc / coeffs[0])
    return inv


def _poly_shift(coeffs, lam):
    """Coefficients of p(u + lam) given coefficients of p (lowest first)."""
    res = [coeffs[-1]]
    for c in reversed(coeffs[:-1]):
        # res = res * (u + lam) + c
        new = [0] * (len(res) + 1)
        for k, r in enumerate(res):
            new[k + 1] += r
            new[k] += r * lam
        new[0] += c
        res = new
    return res


def solve_residue(A: SquareMatrix, x0, dec=None) -> LinearSolution:
    """Closed form via residues of adj(sI-A) x0 / det(sI-A) * exp(s t).

    The poles are the Jordan eigenvalues, each of order the sum of its
    block sizes: exact-rational spectra take the residues in Fractions,
    anything else in complex floats.  ``dec`` is as in `solve_constant`.
    """
    n = A.n
    dec = _jordan_data(A) if dec is None else dec
    poles = [(lam, sum(sizes)) for lam, sizes in dec.blocks]
    if dec.P.flavor == EXACT:
        rows, x = A.rows, [_to_frac(v) for v in x0]
        drop_tol = 0.0
    else:
        rows, x = A.to_numpy().tolist(), [complex(v) for v in x0]
        drop_tol = _ZERO_TOL
    _, Ms = faddeev_leverrier(rows)
    # numerator N(s) = adj(sI - A) x0: numer[r] holds N_r, lowest degree first
    numer = [
        [sum(Ms[n - 1 - d][r][j] * x[j] for j in range(n)) for d in range(n)]
        for r in range(n)
    ]
    raw = []
    for lam, m in poles:
        # det(sI - A) = (s - lam)^m q(s); q(lam + u) is the product of
        # (u + lam - mu)^k over the other poles, built from their distances
        qs = [lam ** 0]  # 1 in the scalar type of lam
        for mu, k in poles:
            if mu != lam:
                for _ in range(k):
                    qs = [a + (lam - mu) * b
                          for a, b in zip([0] + qs, qs + [0])]
        inv = _series_inverse(qs, m - 1)
        coeffs = [[0] * n for _ in range(m)]
        for r in range(n):
            ns = _poly_shift(numer[r], lam)
            # Taylor coefficients of N_r(s)/q(s) around lam, to order m-1;
            # d_i contributes d_i * t^{m-1-i} / (m-1-i)! to the residue
            for i in range(m):
                d = sum(ns[a] * inv[i - a] for a in range(i + 1))
                coeffs[m - 1 - i][r] = d / math.factorial(m - 1 - i)
        raw.append((complex(lam), [[complex(v) for v in vec] for vec in coeffs]))
    return _canonical_terms(raw, n, drop_tol)


# -- stability --------------------------------------------------------------------


FIRST_ORDER = "first_order"
SECOND_ORDER = "second_order"

BOUNDED = "bounded_oscillatory"
UNSTABLE = "exponentially_unstable"
SECULAR = "secular_polynomial_growth"
DECAYING = "decaying"


@dataclass(frozen=True)
class StabilityVerdict:
    tag: str
    witnesses: tuple[tuple[complex, int], ...]  # (exponent, block size)
    strict_lagrange: bool  # Lagrange's original criterion: real, negative, distinct


@dataclass(frozen=True)
class SecondOrderSystem:
    """d^2 xi / dt^2 = A xi with symmetric A."""

    A: SquareMatrix

    def __post_init__(self):
        if not self.A.is_symmetric():
            raise DomainError("second-order system matrix must be symmetric")


def _eigen_structure(A: SquareMatrix, dec=None):
    """[(eigenvalue, max block size, algebraic mult)] from Jordan data."""
    dec = _jordan_data(A) if dec is None else dec
    return [(complex(lam), max(sizes), sum(sizes)) for lam, sizes in dec.blocks]


def classify_stability(A: SquareMatrix, form=FIRST_ORDER, tol=1e-9,
                       dec=None) -> StabilityVerdict:
    """Structural stability verdict of x' = Ax or xi'' = A xi.

    Second-order eigenvalues alpha induce exponents +-sqrt(alpha); the
    classification is worst-case over initial conditions.  The verdict also
    carries Lagrange's strict criterion (exponents real, negative, distinct
    for first order; alpha real, negative, distinct for second order),
    which is sufficient but not necessary for boundedness.  ``dec`` is as
    in `solve_constant`.
    """
    if form == FIRST_ORDER:
        structure = _eigen_structure(A, dec)
        exponents = [(lam, blk) for lam, blk, _ in structure]
    elif form == SECOND_ORDER:
        if not A.is_symmetric():
            raise DomainError("second-order classification requires symmetric A")
        structure = _eigen_structure(A, dec)
        exponents = []
        for alpha, blk, _ in structure:
            a = alpha.real  # symmetric: eigenvalues real
            if abs(a) <= tol:
                # alpha = 0 doubles into a 2-block at exponent 0 (drift a + bt)
                exponents.append((0j, 2 * blk))
            elif a > 0:
                r = math.sqrt(a)
                exponents.extend([(complex(r), blk), (complex(-r), blk)])
            else:
                w = math.sqrt(-a)
                exponents.extend([(complex(0, w), blk), (complex(0, -w), blk)])
    else:
        raise DomainError(f"unknown form {form!r}")

    unstable = [(lam, b) for lam, b in exponents if lam.real > tol]
    boundary = [(lam, b) for lam, b in exponents if abs(lam.real) <= tol]
    secular = [(lam, b) for lam, b in boundary if b >= 2]

    # Lagrange's strict criterion: eigenvalues real, negative, and simple
    strict = all(
        abs(lam.imag) <= tol and lam.real < -tol and alg == 1
        for lam, _, alg in structure
    )

    if unstable:
        return StabilityVerdict(UNSTABLE, tuple(unstable), strict)
    if secular:
        return StabilityVerdict(SECULAR, tuple(secular), strict)
    if boundary:
        return StabilityVerdict(BOUNDED, tuple(boundary), strict)
    return StabilityVerdict(DECAYING, tuple(exponents), strict)


# -- Lagrange small oscillations ----------------------------------------------------


@dataclass(frozen=True)
class OscillationMode:
    alpha: float  # eigenvalue of A
    rate: float  # sqrt(|alpha|): frequency if alpha < 0, growth rate if > 0
    vector: tuple[float, ...]


def solve_lagrange_oscillation(sys: SecondOrderSystem, x0, v0):
    """Modal solution of xi'' = A xi for symmetric A.

    Returns (LinearSolution, modes, verdict).  Negative eigenvalues yield
    trigonometric modes at frequency sqrt(-alpha); positive ones real
    exponentials; zero eigenvalues linear drift.
    """
    A = sys.A
    M = A.to_numpy().real
    n = A.n
    w, V = np.linalg.eigh(M)
    x = np.asarray(x0, dtype=float)
    v = np.asarray(v0, dtype=float)
    raw = []
    modes = []
    for k in range(n):
        alpha = float(w[k])
        u = V[:, k]
        a = float(u @ x)
        b = float(u @ v)
        modes.append(OscillationMode(alpha, math.sqrt(abs(alpha)), tuple(u)))
        if abs(alpha) < 1e-12:
            raw.append((0j, [a * u, b * u]))
        elif alpha < 0:
            om = math.sqrt(-alpha)
            cpos = (a / 2) + b / (2j * om)
            cneg = (a / 2) - b / (2j * om)
            raw.append((complex(0, om), [cpos * u.astype(complex)]))
            raw.append((complex(0, -om), [cneg * u.astype(complex)]))
        else:
            r = math.sqrt(alpha)
            cpos = (a / 2) + b / (2 * r)
            cneg = (a / 2) - b / (2 * r)
            raw.append((complex(r), [cpos * u.astype(complex)]))
            raw.append((complex(-r), [cneg * u.astype(complex)]))
    sol = _canonical_terms(raw, n, drop_tol=0.0)
    verdict = classify_stability(A, SECOND_ORDER)
    return sol, modes, verdict
