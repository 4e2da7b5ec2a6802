"""Eigenvalue multiplicity analysis and Jordan canonical decomposition.

Exact flavor handles matrices whose eigenvalues are all rational, read off
the Sturm isolation of the characteristic polynomial's real roots; anything
else is served by the numeric flavor, which clusters floating eigenvalues
within a tolerance before reading off block structure.

Both flavors read an eigenvalue the same way: the bases of ker N^k,
N = A - lam I, give the block sizes through their dimensions, and one
chain builder, `_jordan_chains`, grows the Jordan chains from them.  Only
the span test differs: exact elimination, or a least-squares residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg import LinAlgError, schur

from .errors import (
    DomainError,
    InternalInconsistencyError,
    UnsupportedFlavorError,
)
from .matrixcore import (
    NUMERIC,
    SquareMatrix,
    _row_echelon,
    char_poly,
    real_roots_with_multiplicity,
)
from .ratpoly import RationalPolynomial, refine_root, square_free_part

DEFAULT_CLUSTER_TOL = 1e-8


@dataclass(frozen=True)
class MultiplicityReport:
    eigenvalue: Fraction
    algebraic: int
    geometric: int
    block_sizes: tuple[int, ...]


@dataclass(frozen=True)
class JordanDecomposition:
    J: SquareMatrix
    P: SquareMatrix
    blocks: tuple[tuple[complex | Fraction, tuple[int, ...]], ...]
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class CanonicalType3:
    tag: str  # one of A..E
    scalar: bool = False  # triple eigenvalue, diagonalizable (alpha*I)


@dataclass(frozen=True)
class DiagonalizabilityReport:
    passed: bool
    annihilated_by_squarefree: bool
    per_eigenvalue: tuple[MultiplicityReport, ...]


# -- rational spectrum extraction --------------------------------------------


def rational_roots(p: RationalPolynomial) -> dict[Fraction, int]:
    """Rational roots of p with multiplicities, in increasing order, read
    off the Sturm isolation of its real roots.

    Every rational root r of p's square-free part f has L r an integer, L
    the lead of f's cleared coefficients (rational root theorem), so r
    refined to within 1/(2L) and rounded to the nearest k/L is its only
    candidate; a candidate counts if it lies in r's own isolating
    interval and f vanishes there.
    """
    if p.is_zero:
        raise DomainError("roots of the zero polynomial")
    roots: dict[Fraction, int] = {}
    for r in real_roots_with_multiplicity(p):
        f, iv = r.poly, r.interval
        L = f._clear()[1][0]
        c = Fraction(round(refine_root(f, iv, Fraction(1, 2 * L)) * L), L)
        if iv.lo < c <= iv.hi and f.sign_at(c) == 0:
            roots[c] = r.multiplicity
    return roots


# -- exact multiplicity ---------------------------------------------------------


def _blocks_from_ranks(ranks: list[int], algebraic: int) -> tuple[int, ...]:
    """Jordan block sizes from the rank sequence of powers of A - lam I."""
    # blocks of size >= k: rank^{k-1} - rank^k
    kmax = len(ranks) - 1
    ge = [ranks[k - 1] - ranks[k] for k in range(1, kmax + 1)] + [0]
    exactly = [ge[k - 1] - ge[k] for k in range(1, kmax + 1)]
    if min(exactly, default=0) < 0 or sum(ge) != algebraic:
        raise InternalInconsistencyError(
            f"rank sequence {ranks} does not give {algebraic} Jordan block entries"
        )
    return tuple(k for k in range(kmax, 0, -1) for _ in range(exactly[k - 1]))


def _exact_kernels(A: SquareMatrix, lam: Fraction, alg: int):
    """N = A - lam I, bases of ker N^k for k = 0..alg, and the report of
    lam's multiplicities and Jordan block sizes read from their dimensions
    (exact)."""
    N = A.shift(lam)
    kernels = [[]]
    Pk = SquareMatrix.identity(A.n)
    for _ in range(alg):
        Pk = Pk.matmul(N)
        kernels.append(Pk.null_space())
    sizes = _blocks_from_ranks([A.n - len(K) for K in kernels], alg)
    return N, kernels, MultiplicityReport(lam, alg, len(kernels[1]), sizes)


# -- Jordan chains, both flavors ----------------------------------------------


def _jordan_chains(kernels, sizes, apply_N, extends, lam):
    """Jordan chains at lam, each ordered bottom-up: [N^{k-1}v, ..., Nv, v].

    kernels[k] holds a basis of ker N^k, as vectors, and sizes the block
    sizes in decreasing order.  A chain of length k starts from a vector of
    ker N^k outside ker N^{k-1} and the height-k vectors of the longer
    chains: extends(covered, v) returns the start it makes of v, or None
    when v lies in the span of covered.
    """
    chains = []
    for k in range(sizes[0], 0, -1):
        need = sizes.count(k)
        if need == 0:
            continue
        covered = list(kernels[k - 1]) + [c[k - 1] for c in chains]
        got = 0
        for v in kernels[k]:
            if got == need:
                break
            v = extends(covered, v)
            if v is not None:
                chain = [v]
                for _ in range(k - 1):
                    chain.append(apply_N(chain[-1]))
                chain.reverse()
                chains.append(chain)
                covered.append(v)
                got += 1
        if got != need:
            raise InternalInconsistencyError(
                f"could not complete Jordan chains at {lam}"
            )
    chains.sort(key=len, reverse=True)
    return chains


def _exact_extends(covered, v):
    """v, if it lies outside the span of the independent vectors covered."""
    rows = [list(u) for u in covered] + [list(v)]
    return v if len(_row_echelon(rows)) == len(rows) else None


def _numeric_extends(covered, v):
    """The unit residual of v against the span of covered, if it is above
    1e-6 relative to v."""
    resid = v
    if covered:
        C = np.array(covered).T
        q, _, _, _ = np.linalg.lstsq(C, v, rcond=None)
        resid = v - C @ q
    if np.linalg.norm(resid) > 1e-6 * max(np.linalg.norm(v), 1.0):
        return resid / np.linalg.norm(resid)
    return None


def _lay_out_chains(n: int, clusters, zero, one):
    """J rows, P columns and block sizes from (eigenvalue, chains) pairs."""
    jrows = [[zero] * n for _ in range(n)]
    cols = []
    blocks = []
    for lam, chains in clusters:
        blocks.append((lam, tuple(len(c) for c in chains)))
        for chain in chains:
            for h, v in enumerate(chain):
                j = len(cols)
                jrows[j][j] = lam
                if h:
                    jrows[j - 1][j] = one
                cols.append(v)
    return jrows, cols, tuple(blocks)


# -- numeric Jordan ---------------------------------------------------------------


def _cluster(values: np.ndarray, tol: float):
    """Group values whose pairwise distance is below tol (union-find)."""
    m = len(values)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        for j in range(i + 1, m):
            if abs(values[i] - values[j]) <= tol:
                pi, pj = find(i), find(j)
                if pi != pj:
                    parent[pi] = pj
    groups: dict[int, list[int]] = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _cluster_kernels(N: np.ndarray, alg: int, tol: float) -> list[np.ndarray]:
    """Bases of ker N^k for k = 0..alg, N = A - lam I at a cluster of size
    alg, each as the rows of an array.

    The generalized eigenspace has dimension alg, so each kernel keeps at
    most the alg smallest singular directions of N^k: another eigenvalue
    whose power falls under tol stays out of the kernel, and the rank read
    from a kernel's dimension agrees with the kernel itself.
    """
    n = N.shape[0]
    kernels = [np.zeros((0, n))]
    Pk = np.eye(n)
    for _ in range(alg):
        Pk = Pk @ N
        _, s, vh = np.linalg.svd(Pk)
        null = s <= max(tol, s[0] * n * np.finfo(float).eps * 10)
        null[: n - alg] = False
        kernels.append(vh[null].conj())  # rows span the kernel
    return kernels


def _cluster_subspace(M: np.ndarray, centers, lam: complex, alg: int):
    """Orthonormal basis Z of M's invariant subspace at the cluster centred
    on lam, and T = Z^H M Z, from a Schur form that puts first every
    eigenvalue nearer lam than any other cluster centre."""
    def nearest_lam(x):
        return min(centers, key=lambda c: abs(x - c)) == lam

    try:
        T, Z, sdim = schur(M.astype(complex), output="complex", sort=nearest_lam)
    except LinAlgError as e:
        raise InternalInconsistencyError(f"Schur reordering failed at {lam}: {e}")
    if sdim != alg:
        raise InternalInconsistencyError(
            f"Schur form puts {sdim} eigenvalues at {lam}, clustering {alg}"
        )
    return Z[:, :alg], T[:alg, :alg]


def _jordan_numeric(A: SquareMatrix, cluster_tol: float) -> JordanDecomposition:
    M = A.to_numpy()
    n = A.n
    scale = max(np.linalg.norm(M, 2), 1.0)
    tol = cluster_tol * scale
    eigs = np.linalg.eigvals(M)
    groups = _cluster(eigs, tol)
    warnings = []
    centers = [complex(np.mean(eigs[g])) for g in groups]
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            if abs(centers[i] - centers[j]) < 10 * tol:
                warnings.append(
                    f"eigenvalue clusters {centers[i]} and {centers[j]} "
                    "are within 10x of merging: block structure ill-conditioned"
                )
    items = sorted(
        zip(centers, groups), key=lambda cg: (cg[0].real, cg[0].imag)
    )
    clusters = []
    for lam, g in items:
        alg = len(g)
        # read a cluster of several eigenvalues inside its invariant subspace,
        # where no other eigenvalue's power can fall under tol beside it; a
        # simple eigenvalue needs only the smallest singular direction of N
        Z, T = None, M
        if 1 < alg < n:
            Z, T = _cluster_subspace(M, centers, lam, alg)
        N = T - lam * np.eye(len(T))
        kernels = _cluster_kernels(N, alg, tol)
        sizes = _blocks_from_ranks([len(T) - len(K) for K in kernels], alg)
        chains = _jordan_chains(kernels, sizes, lambda v: N @ v,
                                _numeric_extends, lam)
        if Z is not None:
            chains = [[Z @ v for v in chain] for chain in chains]
        clusters.append((lam, chains))
    jrows, cols, blocks = _lay_out_chains(n, clusters, 0j, 1.0)
    return JordanDecomposition(
        SquareMatrix(np.array(jrows, dtype=complex), NUMERIC),
        SquareMatrix(np.column_stack(cols), NUMERIC), blocks, tuple(warnings),
    )


def jordan_form(A: SquareMatrix, cluster_tol=DEFAULT_CLUSTER_TOL) -> JordanDecomposition:
    """Jordan decomposition A = P J P^{-1} with deterministic ordering.

    Exact flavor requires every eigenvalue rational; blocks are ordered by
    ascending eigenvalue (numeric: lexicographic by (re, im)) and by
    decreasing size within an eigenvalue.
    """
    if A.flavor == NUMERIC:
        return _jordan_numeric(A, cluster_tol)
    roots = rational_roots(char_poly(A))
    if sum(roots.values()) != A.n:
        raise UnsupportedFlavorError(
            "matrix has irrational eigenvalues; use the numeric flavor"
        )
    clusters = []
    for lam in sorted(roots):
        N, kernels, rep = _exact_kernels(A, lam, roots[lam])
        clusters.append((lam, _jordan_chains(kernels, rep.block_sizes,
                                             N.matvec, _exact_extends, lam)))
    jrows, cols, blocks = _lay_out_chains(A.n, clusters, Fraction(0), Fraction(1))
    P = SquareMatrix([[v[i] for v in cols] for i in range(A.n)])
    return JordanDecomposition(SquareMatrix(jrows), P, blocks)


def classify_3x3(A: SquareMatrix, blocks=None) -> CanonicalType3:
    """One of the five 3x3 canonical types (plus the scalar degenerate case).

    A: three distinct eigenvalues.  B: double eigenvalue, one 2-block.
    C: double eigenvalue, diagonalizable (or scalar, flagged).  D: triple,
    one 3-block.  E: triple, 2-block + 1-block.  ``blocks`` are A's
    `jordan_form` blocks, for a caller that already has them.
    """
    if A.n != 3:
        raise DomainError("classify_3x3 requires a 3x3 matrix")
    try:
        blocks = jordan_form(A).blocks if blocks is None else blocks
    except UnsupportedFlavorError:
        # any repeated root of a rational cubic is rational, so a cubic
        # with an irrational root has three distinct roots
        return CanonicalType3("A")
    # the block sizes, largest first, at the most repeated eigenvalue
    sizes = max((sizes for _, sizes in blocks), key=sum)
    if sum(sizes) == 1:
        return CanonicalType3("A")
    if sum(sizes) == 2:
        return CanonicalType3("B" if sizes[0] == 2 else "C")
    if sizes[0] == 3:
        return CanonicalType3("D")
    if sizes[0] == 2:
        return CanonicalType3("E")
    return CanonicalType3("C", scalar=True)


def symmetric_diagonalizability_check(A: SquareMatrix) -> DiagonalizabilityReport:
    """Certify that a symmetric exact matrix has only size-1 Jordan blocks.

    Evidence: the square-free part of the characteristic polynomial
    annihilates A (exact, covers irrational eigenvalues), plus per-rational-
    eigenvalue equality of algebraic and geometric multiplicities.
    """
    A._require_exact()
    if not A.is_symmetric():
        raise DomainError("expected a symmetric matrix")
    cp = char_poly(A)
    sf = square_free_part(cp)
    # evaluate sf(A) exactly, by Horner
    acc = SquareMatrix.identity(A.n).scale(sf.coeffs[-1])
    for c in reversed(sf.coeffs[:-1]):
        acc = acc.matmul(A).shift(-c)
    annihilated = all(x == 0 for row in acc.rows for x in row)
    reports = [_exact_kernels(A, lam, alg)[2]
               for lam, alg in rational_roots(cp).items()]
    ok = annihilated and all(r.algebraic == r.geometric for r in reports)
    if not ok:
        raise InternalInconsistencyError(
            "symmetric matrix failed diagonalizability check: "
            "this contradicts the spectral theorem and signals a bug"
        )
    return DiagonalizabilityReport(True, annihilated, tuple(reports))
