"""Poincare surface-of-section machinery for the restricted three-body flow.

The section is the plane y = 0 with a required sign of vy at each
crossing; the Jacobi constant C is held fixed, so a section point is the
pair (x, vx) and vy is reconstructed from C.  The induced return map
preserves area in (x, vx).  Every flight to the section, with or without
the state-transition matrix, is one call of `pcr3bp._flow_to_crossing`
with the time budget RETURN_TIME, and every one runs forward in time.

Layer k of every manifold branch flies as one forward stack: the flow
is reversible, so a stable branch's reversed-time map is the forward
map seen through the mirror R(x, y, vx, vy) = (x, -y, -vx, vy).  Each
seed takes the steps and the arithmetic of its own flight: a manifold
point is its seed's image under the return map, whatever else is in its
layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergenceError, SingularityError
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
    vy2 = 2.0 * effective_potential(p.x, 0.0, mu) - p.vx ** 2 - sd.C
    if vy2 < 0.0:
        raise DomainError(
            f"section point ({p.x}, {p.vx}) outside the energetically "
            f"allowed region at C={sd.C}"
        )
    return np.array([p.x, 0.0, p.vx, sd.direction * math.sqrt(vy2)])


def section_crossings(start: SectionPoint, mu: float, sd: SectionDef,
                      n: int, tol: float = 1e-12) -> list[SectionPoint]:
    """First n successive crossings starting from a section point.

    Each crossing is re-lifted through the energy constraint before the
    next flight, so composing return_map n times reproduces this list
    exactly.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    out = []
    p = start
    for _ in range(n):
        _, z = _flow_to_crossing(_flow_rhs(mu), lift(p, mu, sd), RETURN_TIME,
                                 tol, sd.direction)
        p = SectionPoint(float(z[0]), float(z[2]))
        out.append(p)
    return out


def return_map(p: SectionPoint, mu: float, sd: SectionDef,
               tol: float = 1e-12) -> SectionPoint:
    """One application of the section return map."""
    return section_crossings(p, mu, sd, 1, tol)[0]


ELLIPTIC = "elliptic"
HYPERBOLIC = "hyperbolic"
PARABOLIC = "parabolic"


@dataclass(frozen=True)
class MapLinearization:
    jacobian: np.ndarray
    eigenvalues: tuple[complex, complex]
    tag: str

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.jacobian))


def _stm_jacobian(p: SectionPoint, mu: float, sd: SectionDef,
                  tol: float) -> tuple[SectionPoint, np.ndarray]:
    """The return map's image of p and its Jacobian there, from the STM.

    Lift tangent vectors of the section through the energy constraint
    (delta vy = (Omega_x dx - vx dvx) / vy at y = 0), propagate with the
    STM over one return, and project back along the flow (crossing-time
    correction dt = -dy / vy).
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
    return SectionPoint(float(zc[0]), float(zc[2])), proj @ V


def linearize_map(p: SectionPoint, mu: float, sd: SectionDef,
                  step: float = 1e-6, tol: float = 1e-12,
                  method: str = "fd") -> MapLinearization:
    """2x2 Jacobian of the return map.

    method "fd" uses Richardson-refined central finite differences (step
    halved once); method "stm" lifts section tangents through the energy
    constraint and reduces the state-transition matrix, which stays
    accurate for strongly hyperbolic points where FD loses digits.
    Classification by the trace of the (unit-determinant) Jacobian:
    |tr| < 2 elliptic, |tr| > 2 hyperbolic, |tr| = 2 within 1e-6 parabolic.
    """
    if method == "stm":
        _, J = _stm_jacobian(p, mu, sd, tol)
    elif method == "fd":
        def diff(h: float) -> np.ndarray:
            J = np.empty((2, 2))
            for j, e in enumerate((np.array([1.0, 0.0]),
                                   np.array([0.0, 1.0]))):
                qp = return_map(SectionPoint(*(p.as_array() + h * e)),
                                mu, sd, tol)
                qm = return_map(SectionPoint(*(p.as_array() - h * e)),
                                mu, sd, tol)
                J[:, j] = (qp.as_array() - qm.as_array()) / (2.0 * h)
            return J

        J = (4.0 * diff(step / 2.0) - diff(step)) / 3.0
    else:
        raise DomainError(f"unknown linearization method {method!r}")
    eigs = np.linalg.eigvals(J)
    tr = float(np.trace(J))
    if abs(abs(tr) - 2.0) <= 1e-6:
        tag = PARABOLIC
    elif abs(tr) < 2.0:
        tag = ELLIPTIC
    else:
        tag = HYPERBOLIC
    return MapLinearization(J, (complex(eigs[0]), complex(eigs[1])), tag)


def fixed_point(guess: SectionPoint, mu: float, sd: SectionDef,
                tol: float = 1e-10, max_iter: int = 20) -> SectionPoint:
    """Newton on return_map(p) - p, one STM flight (`_stm_jacobian`) a step."""
    p = guess
    best, best_resid = p, math.inf
    for _ in range(max_iter):
        fp, J = _stm_jacobian(p, mu, sd, 1e-12)
        r = fp.as_array() - p.as_array()
        resid = float(np.max(np.abs(r)))
        if resid < best_resid:
            best, best_resid = p, resid
        if resid <= tol:
            return p
        A = J - np.eye(2)
        if abs(np.linalg.det(A)) < 1e-12:
            raise DomainError("degenerate fixed-point Jacobian (J - I singular)")
        p = SectionPoint(*(p.as_array() - np.linalg.solve(A, r)))
    raise NonConvergenceError(
        f"fixed-point Newton did not reach {tol} in {max_iter} iterations",
        best=best,
    )


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


def manifold_segments(p: SectionPoint, mu: float, sd: SectionDef,
                      branches, steps: int = 30, seeds: int = 200,
                      seed_offset: float = 1e-6, tol: float = 1e-12,
                      lin: MapLinearization | None = None
                      ) -> list[ManifoldBranch]:
    """Trace manifold branches of a hyperbolic fixed point, one per name.

    Seeds fill a fundamental domain [offset, |lambda| * offset] along the
    (un)stable eigenvector and are iterated with the forward (unstable) or
    reversed-time (stable) return map.  R z(-t) solves the flow whenever
    z(t) does, so a seed's previous crossing is R of the next crossing
    of R(seed), bit for bit, and layer k of every branch flies as one
    forward stack (`pcr3bp._flow_to_crossing`).  A seed that leaves the
    allowed region, collides or does not cross within the time budget
    drops out and truncates its branch; the truncation is recorded, not
    raised, and reads as the backward flight's would.  ``lin`` is the
    fixed point's STM linearization at ``tol``, computed if not given.
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
        lin = linearize_map(p, mu, sd, tol=tol, method="stm")
    if lin.tag != HYPERBOLIC:
        raise DomainError(f"fixed point is {lin.tag}, not hyperbolic")
    eigvals, eigvecs = np.linalg.eig(lin.jacobian)
    layers, flips = [], []  # per branch: its seeds, and -1.0 if mirrored
    for branch in branches:
        flips.append(1.0 if branch.startswith("unstable") else -1.0)
        idx = int(np.argmax(np.abs(eigvals)) if flips[-1] > 0
                  else np.argmin(np.abs(eigvals)))
        v = np.real(eigvecs[:, idx])
        v = v / np.linalg.norm(v) * (-1.0 if branch.endswith("-") else 1.0)
        # geometric ladder of seeds across one fundamental domain
        ratios = abs(float(np.real(eigvals[idx]))) ** np.linspace(
            0.0, 1.0, seeds, endpoint=False)
        layers.append([p.as_array() + seed_offset * r * v for r in ratios])
    polys = [[] for _ in branches]
    reasons = [""] * len(branches)
    for k in range(steps):
        outcomes = []  # per branch and seed: its start, then (t, z) or error
        for b, pts in enumerate(layers):
            for q in pts:
                try:
                    z = lift(SectionPoint(*q), mu, sd)
                    z[2] *= flips[b]  # R, once lift has checked q
                except (DomainError, SingularityError) as e:
                    z = e
                outcomes.append((b, z))
        starts = [z for _, z in outcomes if not isinstance(z, Exception)]
        if starts:
            flown = iter(_flow_to_crossing(_flow_rhs(mu), np.array(starts).T,
                                           RETURN_TIME, tol, sd.direction))
            outcomes = [(b, z if isinstance(z, Exception) else next(flown))
                        for b, z in outcomes]
        layers = [[] for _ in branches]
        for b, o in outcomes:
            if not isinstance(o, Exception):
                layers[b].append(np.array([float(o[1][0]),
                                           flips[b] * float(o[1][2])]))
                continue
            reasons[b] = f"iterate {k}: {o}"
            if flips[b] < 0 and getattr(o, "t", None):  # integrate's time
                reasons[b] = reasons[b].replace(f"t={o.t:.6g}:",
                                                f"t={-o.t:.6g}:", 1)
        for poly, layer in zip(polys, layers):
            poly.extend(layer)
    return [ManifoldBranch(branch, np.array(poly), bool(reason), reason)
            for branch, poly, reason in zip(branches, polys, reasons)]


def manifold_segment(p: SectionPoint, mu: float, sd: SectionDef, branch: str,
                     *args, **kwargs) -> ManifoldBranch:
    """One manifold branch: `manifold_segments` of it alone."""
    return manifold_segments(p, mu, sd, (branch,), *args, **kwargs)[0]


def _segment_intersection(a0, a1, b0, b1):
    """Intersection point of two closed segments, or None."""
    d1, d2 = a1 - a0, b1 - b0
    denom = d1[0] * d2[1] - d1[1] * d2[0]
    if abs(denom) < 1e-300:
        return None
    r = b0 - a0
    t = (r[0] * d2[1] - r[1] * d2[0]) / denom
    s = (r[0] * d1[1] - r[1] * d1[0]) / denom
    if 0.0 <= t <= 1.0 and 0.0 <= s <= 1.0:
        return a0 + t * d1
    return None


def homoclinic_intersection(unstable: ManifoldBranch,
                            stable: ManifoldBranch) -> HomoclinicReport:
    """First transversal crossing between stable and unstable polylines.

    Consecutive iterates of a seed ladder form the polyline segments; the
    transversality angle is the angle between the crossing segments.
    """
    U, S = unstable.points, stable.points
    for i in range(len(U) - 1):
        for j in range(len(S) - 1):
            hit = _segment_intersection(U[i], U[i + 1], S[j], S[j + 1])
            if hit is None:
                continue
            du = U[i + 1] - U[i]
            ds = S[j + 1] - S[j]
            nu, ns = np.linalg.norm(du), np.linalg.norm(ds)
            if nu < 1e-300 or ns < 1e-300:
                continue
            cosang = abs(float(np.dot(du, ds))) / (nu * ns)
            angle = math.acos(min(1.0, cosang))
            return HomoclinicReport(True, (float(hit[0]), float(hit[1])),
                                    angle, i, j)
    return HomoclinicReport(False)
