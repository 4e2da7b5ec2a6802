"""Poincare surface-of-section machinery for the restricted three-body flow.

The section is the plane y = 0 with a required sign of vy at each
crossing; the Jacobi constant C is held fixed, so a section point is the
pair (x, vx) and vy is reconstructed from C.  The induced return map
preserves area in (x, vx).  Every flight to the section, with or without
the state-transition matrix, is one call of `pcr3bp._flow_to_crossing`
with the time budget RETURN_TIME, and every one runs forward in time.
`return_map` is one such flight, and `section_crossings` applies it n
times; the map's Jacobian comes from the state-transition matrix alone.

Every manifold branch is a forward ladder of seeds or its mirror, and
all ladders fly as one forward stack, each seed's iterates one after
another in its place.  The flow is reversible, so a stable branch is
R(x, y, vx, vy) = (x, -y, -vx, vy) of the ladder of its seeds' mirrors.
Each seed takes the steps and the arithmetic of its own flights: a
manifold point is its seed's image under the return map, whatever else
is in the stack.  At a fixed point on the line vx = 0, which R leaves
fixed, that ladder is the unstable ladder of its sign, flown once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularityError
from .pcr3bp import (
    _check_mu,
    _flow_rhs,
    _flow_to_crossing,
    _omega_partials,
    _var_rhs,
    _with_stm,
    effective_potential,
    eom,
)

RETURN_TIME = 100.0  # a flight that has not met the section by then fails


@dataclass(frozen=True)
class SectionDef:
    """y = 0 section with a fixed vy sign and Jacobi constant."""

    direction: int  # +1 or -1: required sign of vy at a crossing
    C: float

    def __post_init__(self):
        if self.direction not in (+1, -1):
            raise DomainError("direction must be +1 or -1")
        if not math.isfinite(self.C):
            raise DomainError(f"Jacobi constant C must be finite: {self.C}")


@dataclass(frozen=True)
class SectionPoint:
    x: float
    vx: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.vx])


def lift(p: SectionPoint, mu: float, sd: SectionDef) -> np.ndarray:
    """Full rotating-frame state on the section: vy from C with sd's sign.

    Every flight from a section point starts here, so this is where the
    section functions check the mass ratio.
    """
    mu = _check_mu(mu)
    try:
        vx2 = p.vx ** 2
    except OverflowError:  # Python's float ** raises where numpy's is inf
        vx2 = math.inf
    vy2 = 2.0 * effective_potential(p.x, 0.0, mu) - vx2 - sd.C
    if vy2 < 0.0:
        raise DomainError(
            f"section point ({p.x}, {p.vx}) outside the energetically "
            f"allowed region at C={sd.C}"
        )
    return np.array([p.x, 0.0, p.vx, sd.direction * math.sqrt(vy2)])


def return_map(p: SectionPoint, mu: float, sd: SectionDef,
               tol: float = 1e-12) -> SectionPoint:
    """One application of the section return map: the flight from p's
    lift to its next crossing."""
    _, z = _flow_to_crossing(_flow_rhs(mu), lift(p, mu, sd), RETURN_TIME,
                             tol, sd.direction)
    return SectionPoint(float(z[0]), float(z[2]))


def section_crossings(start: SectionPoint, mu: float, sd: SectionDef,
                      n: int, tol: float = 1e-12) -> list[SectionPoint]:
    """First n successive crossings starting from a section point: the
    return map applied n times, each crossing re-lifted through the
    energy constraint before the next flight."""
    if n < 1:
        raise DomainError("n must be >= 1")
    out = []
    p = start
    for _ in range(n):
        p = return_map(p, mu, sd, tol)
        out.append(p)
    return out


ELLIPTIC = "elliptic"
HYPERBOLIC = "hyperbolic"
PARABOLIC = "parabolic"


@dataclass(frozen=True)
class MapLinearization:
    jacobian: np.ndarray
    eigenvalues: tuple[complex, complex]
    tag: str


def linearize_map(p: SectionPoint, mu: float, sd: SectionDef,
                  tol: float = 1e-12) -> MapLinearization:
    """2x2 Jacobian of the return map, from the state-transition matrix,
    which stays accurate at strongly hyperbolic points.

    Lift tangent vectors of the section through the energy constraint
    (delta vy = (Omega_x dx - vx dvx) / vy at y = 0), propagate with the
    STM over one return, and project back along the flow (crossing-time
    correction dt = -dy / vy).  Classification by the trace of the
    (unit-determinant) Jacobian: |tr| < 2 elliptic, |tr| > 2 hyperbolic,
    |tr| = 2 within 1e-6 parabolic.
    """
    z0 = lift(p, mu, sd)
    _, zc = _flow_to_crossing(_var_rhs(mu), _with_stm(z0), RETURN_TIME, tol,
                              sd.direction)
    M = zc[4:].reshape(4, 4)

    ox0, _ = _omega_partials(z0[0], 0.0, mu)
    L = np.array([  # tangent lift: columns (dx, dvx) -> (dx, dy, dvx, dvy)
        [1.0, 0.0],
        [0.0, 0.0],
        [0.0, 1.0],
        [(ox0 - 0.0) / z0[3], -z0[2] / z0[3]],
    ])
    V = M @ L
    fc = eom(zc[:4], mu)
    proj = np.array([  # crossing-time correction rows for (x, vx)
        [1.0, -fc[0] / zc[3], 0.0, 0.0],
        [0.0, -fc[2] / zc[3], 1.0, 0.0],
    ])
    J = proj @ V
    eigs = np.linalg.eigvals(J)
    tr = float(np.trace(J))
    if abs(abs(tr) - 2.0) <= 1e-6:
        tag = PARABOLIC
    elif abs(tr) < 2.0:
        tag = ELLIPTIC
    else:
        tag = HYPERBOLIC
    return MapLinearization(J, (complex(eigs[0]), complex(eigs[1])), tag)


@dataclass(frozen=True)
class ManifoldBranch:
    branch: str
    points: np.ndarray  # shape (m, 2), ordered polyline in (x, vx)
    truncated: bool
    truncation_reason: str


@dataclass(frozen=True)
class HomoclinicReport:
    found: bool
    point: tuple[float, float] | None = None
    angle: float | None = None  # transversality angle, radians
    unstable_segment: int | None = None
    stable_segment: int | None = None


_BRANCHES = ("unstable+", "unstable-", "stable+", "stable-")
_R = np.array([1.0, -1.0])  # the mirror R on a section point (x, vx)


def manifold_segments(p: SectionPoint, mu: float, sd: SectionDef,
                      branches, steps: int = 30, seeds: int = 200,
                      seed_offset: float = 1e-6, tol: float = 1e-12,
                      lin: MapLinearization | None = None
                      ) -> list[ManifoldBranch]:
    """Trace manifold branches of a hyperbolic fixed point, one per name.

    Seeds fill a fundamental domain [offset, |lambda| * offset) along the
    (un)stable eigenvector and are iterated with the forward (unstable) or
    reversed-time (stable) return map.  R z(-t) solves the flow whenever
    z(t) does, so a stable branch is R of the forward ladder of its seeds'
    mirrors, bit for bit, and every ladder flies in one forward stack
    (`pcr3bp._flow_to_crossing`).  As a seed lands, its next start is
    lifted and flies on at once in its place in the stack, so no seed
    waits for another.  A seed that leaves the allowed region, collides or
    does not cross within the time budget drops out and truncates its
    branch, whose reason is that of its last seed to drop out by iterate,
    then by place; the truncation is recorded, not raised, and a stable
    branch reads it through R, a failed flight's time negated.  ``lin``
    is the fixed point's STM linearization at ``tol``, computed if not
    given.

    A fixed point on the line vx = 0 is its own mirror, and R P R = P^-1
    there, so the stable manifold is R of the unstable one (Devaney,
    Trans. AMS 218, 1976).  At such a point the ladder of stable+- is
    that of unstable+-, on [offset, |lambda_u| offset), flown once.
    """
    for branch in branches:
        if branch not in _BRANCHES:
            raise DomainError(f"branch must be one of {_BRANCHES}")
    if steps < 1:
        raise DomainError("steps must be >= 1")
    if seeds < 1:
        raise DomainError("seeds must be >= 1")
    # at a zero offset the fixed point's own rounding would trace a branch
    if not (math.isfinite(seed_offset) and seed_offset > 0):
        raise DomainError(
            f"seed offset must be positive and finite, got {seed_offset}")
    if lin is None:
        lin = linearize_map(p, mu, sd, tol=tol)
    if lin.tag != HYPERBOLIC:
        raise DomainError(f"fixed point is {lin.tag}, not hyperbolic")
    # each branch's forward ladder: (on the stable eigenvector, sign)
    ladders = [(b.startswith("stable") and p.vx != 0.0, b[-1])
               for b in branches]
    flying = list(dict.fromkeys(ladders))
    eigvals, eigvecs = np.linalg.eig(lin.jacobian)
    qs = []  # the forward seeds, ladder by ladder
    for stable, sign in flying:
        idx = int((np.argmin if stable else np.argmax)(np.abs(eigvals)))
        v = np.real(eigvecs[:, idx])
        v = v / np.linalg.norm(v) * (-1.0 if sign == "-" else 1.0)
        # geometric ladder of seeds across one fundamental domain
        ratios = abs(float(np.real(eigvals[idx]))) ** np.linspace(
            0.0, 1.0, seeds, endpoint=False)
        ladder = [p.as_array() + seed_offset * r * v for r in ratios]
        qs += [q * _R for q in ladder] if stable else ladder
    points = [[] for _ in qs]  # per seed, its iterates
    drops = []  # (iterate, seed, error, point it failed to lift or None)

    def start(i, q):
        """Seed i's start from section point q, or None if it drops."""
        try:
            return lift(SectionPoint(*q), mu, sd)
        except (DomainError, SingularityError) as e:
            return drops.append((len(points[i]), i, e, q))

    def relay(j, landed):  # the crossing of the stack's member j
        i, z = flown[j], landed[1]
        points[i].append(np.array([float(z[0]), float(z[2])]))
        return start(i, points[i][-1]) if len(points[i]) < steps else None

    starts = [start(i, q) for i, q in enumerate(qs)]
    flown = [i for i, z in enumerate(starts) if z is not None]
    ends = _flow_to_crossing(_flow_rhs(mu), np.reshape(
        [starts[i] for i in flown], (-1, 4)).T, RETURN_TIME, tol,
        sd.direction, relay)
    for i, end in zip(flown, ends):
        if isinstance(end, Exception):
            drops.append((len(points[i]), i, end, None))

    def reason(k, i, e, q, mirrored):
        """Seed i's drop at iterate k, read on its branch or its mirror."""
        if mirrored and q is not None:  # the mirror's own lift names it
            try:
                lift(SectionPoint(*(q * _R)), mu, sd)
            except (DomainError, SingularityError) as m:
                e = m
        text = f"iterate {k}: {e}"
        if mirrored and getattr(e, "t", None):  # integrate's, read backward
            text = text.replace(f"t={e.t:.6g}:", f"t={-e.t:.6g}:", 1)
        return text

    out = []
    for branch, ladder in zip(branches, ladders):
        b = flying.index(ladder)
        mirrored = branch.startswith("stable")
        mine = range(b * seeds, (b + 1) * seeds)
        poly = [points[i][k] for k in range(steps) for i in mine
                if len(points[i]) > k]
        last = max((d for d in drops if d[1] in mine), default=None,
                   key=lambda d: d[:2])
        why = "" if last is None else reason(*last, mirrored)
        if mirrored:
            poly = [q * _R for q in poly]
        out.append(ManifoldBranch(branch, np.array(poly), bool(why), why))
    return out


def homoclinic_intersection(unstable: ManifoldBranch,
                            stable: ManifoldBranch) -> HomoclinicReport:
    """First transversal crossing between stable and unstable polylines.

    Consecutive iterates of a seed ladder form the polyline segments; the
    transversality angle is the angle between the crossing segments.
    Each unstable segment meets all stable ones in one numpy pass, and
    the first crossing in (unstable, stable) order is reported.
    """
    U, S = unstable.points, stable.points.reshape(-1, 2)
    B0, D2 = S[:-1], S[1:] - S[:-1]
    for i in range(len(U) - 1):
        d1 = U[i + 1] - U[i]
        denom = d1[0] * D2[:, 1] - d1[1] * D2[:, 0]
        r = B0 - U[i]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (r[:, 0] * D2[:, 1] - r[:, 1] * D2[:, 0]) / denom
            s = (r[:, 0] * d1[1] - r[:, 1] * d1[0]) / denom
        hits = ((np.abs(denom) >= 1e-300) & (0.0 <= t) & (t <= 1.0)
                & (0.0 <= s) & (s <= 1.0))
        for j in np.flatnonzero(hits).tolist():
            nu, ns = np.linalg.norm(d1), np.linalg.norm(D2[j])
            if nu < 1e-300 or ns < 1e-300:
                continue
            cosang = abs(float(np.dot(d1, D2[j]))) / (nu * ns)
            angle = math.acos(min(1.0, cosang))
            hit = U[i] + t[j] * d1
            return HomoclinicReport(True, (float(hit[0]), float(hit[1])),
                                    angle, i, j)
    return HomoclinicReport(False)
