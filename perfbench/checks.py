"""Independent checks of each op's output.

Nothing here imports `secular`.  Every reference value is computed from
the op's inputs with a different method than the program uses: scipy's
DOP853 instead of the program's RK45 flights, sympy for characteristic
polynomials, Descartes' rule for inertia, numpy's `eigvalsh` against the
exact isolating intervals, and mpmath for the collinear libration points.
Each check returns a list of problems; an empty list means the op passed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from fractions import Fraction

import numpy as np
from scipy.integrate import solve_ivp

FLIGHT_RTOL = 1e-12
FLIGHT_ATOL = 1e-14


# -- restricted three-body flow, written out again -----------------------------


def _omega(x, y, mu):
    r1 = math.hypot(x + mu, y)
    r2 = math.hypot(x - 1.0 + mu, y)
    return 0.5 * (x * x + y * y) + (1.0 - mu) / r1 + mu / r2


def _pcr3bp_rhs(mu):
    def rhs(t, z):
        x, y, vx, vy = z
        r1 = ((x + mu) ** 2 + y * y) ** 1.5
        r2 = ((x - 1.0 + mu) ** 2 + y * y) ** 1.5
        ax = 2.0 * vy + x - (1.0 - mu) * (x + mu) / r1 - mu * (x - 1.0 + mu) / r2
        ay = -2.0 * vx + y - (1.0 - mu) * y / r1 - mu * y / r2
        return [vx, vy, ax, ay]
    return rhs


def jacobi(state, mu) -> float:
    x, y, vx, vy = state
    return 2.0 * _omega(x, y, mu) - (vx * vx + vy * vy)


def section_image(x, vx, mu, C, forward=True):
    """Next y = 0 crossing with vy > 0, forward or backward in time."""
    vy2 = 2.0 * _omega(x, 0.0, mu) - vx * vx - C
    if vy2 < 0.0:
        raise ValueError(f"({x}, {vx}) is outside the allowed region")
    z0 = [x, 0.0, vx, math.sqrt(vy2)]

    def crossing(t, z):
        return z[1]
    # the start lies on the section, so allow the event at t = 0 first
    crossing.terminal = 2
    crossing.direction = 1.0 if forward else -1.0
    sol = solve_ivp(_pcr3bp_rhs(mu), (0.0, 50.0 if forward else -50.0), z0,
                    method="DOP853", rtol=FLIGHT_RTOL, atol=FLIGHT_ATOL,
                    events=crossing)
    for t, z in zip(sol.t_events[0], sol.y_events[0]):
        if abs(t) > 1e-9:
            return float(z[0]), float(z[2])
    raise ValueError("no section crossing within the time budget")


def flow(state, mu, T) -> np.ndarray:
    sol = solve_ivp(_pcr3bp_rhs(mu), (0.0, T), list(state), method="DOP853",
                    rtol=FLIGHT_RTOL, atol=FLIGHT_ATOL)
    return sol.y[:, -1]


# -- homoclinic ----------------------------------------------------------------


def _crossing(a0, a1, b0, b1):
    """Intersection of two segments and the angle between them, or None."""
    d1, d2 = a1 - a0, b1 - b0
    M = np.column_stack((d1, -d2))
    if abs(np.linalg.det(M)) < 1e-300:
        return None
    t, s = np.linalg.solve(M, b0 - a0)
    if not (-1e-12 <= t <= 1.0 + 1e-12 and -1e-12 <= s <= 1.0 + 1e-12):
        return None
    cos = abs(float(d1 @ d2)) / (np.linalg.norm(d1) * np.linalg.norm(d2))
    return a0 + t * d1, math.acos(min(1.0, cos))


def check_homoclinic(info: dict, outputs: list[str]) -> list[str]:
    """Transversal crossing on the reported segments, and true map images."""
    d = json.loads(outputs[0])
    h = d["homoclinic"]
    if h["found"] is not True:
        return ["no homoclinic point found"]
    problems = []
    if not h["angle"] > 1e-3:
        problems.append(f"angle {h['angle']} is not transversal")
    U = np.array(d["unstable_polyline"], dtype=float)
    S = np.array(d["stable_polyline"], dtype=float)
    n_pts = info["steps"] * info["seeds"]
    if U.shape != (n_pts, 2) or S.shape != (n_pts, 2):
        return problems + [f"polylines {U.shape}, {S.shape}: expected "
                           f"{n_pts} points each"]
    i, j = h["unstable_segment"], h["stable_segment"]
    if not (0 <= i < n_pts - 1 and 0 <= j < n_pts - 1):
        return problems + [f"segment indices ({i}, {j}) out of range"]
    hit = _crossing(U[i], U[i + 1], S[j], S[j + 1])
    if hit is None:
        problems.append(f"segments {i} and {j} do not cross")
    else:
        point, angle = hit
        err = float(np.max(np.abs(point - np.array(h["point"]))))
        if err > 1e-12:
            problems.append(f"point off the segment crossing by {err:.3g}")
        if abs(angle - h["angle"]) > 1e-9:
            problems.append(f"angle {h['angle']} != recomputed {angle}")

    mu, C = info["mu"], info["C"]
    fx, fvx = info["fixed"]
    img = section_image(fx, fvx, mu, C)
    err = max(abs(img[0] - fx), abs(img[1] - fvx))
    if err > 1e-7:
        problems.append(f"fixed point moves by {err:.3g} under the map")
    # a polyline is steps layers of seeds points; point k*seeds+s maps to
    # point (k+1)*seeds+s, forward on the unstable branch, backward on the
    # stable one
    seeds = info["seeds"]
    rng = random.Random(info["check_seed"])
    for name, P, forward in (("unstable", U, True), ("stable", S, False)):
        for _ in range(info["samples"]):
            k = rng.randrange(info["steps"] - 1)
            s = rng.randrange(seeds)
            a, b = P[k * seeds + s], P[(k + 1) * seeds + s]
            img = section_image(a[0], a[1], mu, C, forward)
            err = max(abs(img[0] - b[0]), abs(img[1] - b[1]))
            if err > 1e-7:
                problems.append(f"{name} point {k * seeds + s} maps "
                                f"{err:.3g} away from the next layer")
    return problems


# -- Hill grid -----------------------------------------------------------------


def hill_smax(a: float, q: float) -> float:
    """Largest multiplier modulus of x'' + (a - 2q cos 2t) x = 0."""
    def rhs(t, z):
        k = a - 2.0 * q * math.cos(2.0 * t)
        return [z[1], -k * z[0], z[3], -k * z[2]]
    sol = solve_ivp(rhs, (0.0, math.pi), [1.0, 0.0, 0.0, 1.0],
                    method="DOP853", rtol=FLIGHT_RTOL, atol=FLIGHT_ATOL)
    x1, v1, x2, v2 = sol.y[:, -1]
    return float(np.max(np.abs(np.linalg.eigvals([[x1, x2], [v1, v2]]))))


def hill_reference(grid: str) -> list[tuple[float, float, float]]:
    a_part, q_part = grid.split(",")
    a0, a1, na = a_part.split(":")
    q0, q1, nq = q_part.split(":")
    na, nq = int(na), int(nq)
    a0, a1, q0, q1 = float(a0), float(a1), float(q0), float(q1)
    cells = []
    for i in range(na):
        a = a0 + i * (a1 - a0) / (na - 1)
        for j in range(nq):
            q = q0 + j * (q1 - q0) / (nq - 1)
            cells.append((a, q, hill_smax(a, q)))
    return cells


def check_floquet(reference, outputs: list[str]) -> list[str]:
    """Every cell's smax against a DOP853 monodromy, and its verdict."""
    lines = outputs[0].splitlines()
    if not lines or not lines[0].startswith("#"):
        return ["missing configuration comment line"]
    rows = list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))
    if len(rows) != len(reference):
        return [f"{len(rows)} cells, expected {len(reference)}"]
    problems = []
    for row, (a, q, ref) in zip(rows, reference):
        cell = f"cell (a={a:.4g}, q={q:.4g})"
        if abs(float(row["a"]) - a) > 1e-12 or abs(float(row["q"]) - q) > 1e-12:
            problems.append(f"{cell} reported as ({row['a']}, {row['q']})")
            continue
        smax = float(row["smax"])
        if abs(smax - ref) > 1e-6 * ref:
            problems.append(f"{cell}: smax {smax} != reference {ref}")
        # det M = 1 for a trace-free A, so the larger modulus is >= 1
        if smax < 1.0 - 1e-6:
            problems.append(f"{cell}: smax {smax} < 1")
        if (row["verdict"] == "bounded") != (smax <= 1.0 + 1e-6):
            problems.append(f"{cell}: verdict {row['verdict']} at smax {smax}")
    return problems


# -- exact symmetric matrices --------------------------------------------------


def _variations(coeffs) -> int:
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _charpoly_info(rows):
    """Exact char-poly coefficients (lowest first) and square-free degree."""
    import sympy

    lam = sympy.Symbol("lam")
    M = sympy.Matrix([[sympy.Rational(str(x)) for x in r] for r in rows])
    p = M.charpoly(lam)
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())]
    expr = p.as_expr()
    g = sympy.gcd(expr, sympy.diff(expr, lam))
    distinct = sympy.degree(sympy.quo(expr, g, lam), lam)
    return coeffs, int(distinct)


def exact_reference(rows) -> dict:
    """Everything the exact checks compare against, for one matrix."""
    coeffs, distinct = _charpoly_info(rows)
    minor = [r[1:] for r in rows[1:]]
    _, minor_distinct = _charpoly_info(minor)
    zero = next(i for i, c in enumerate(coeffs) if c != 0)
    pos = _variations(coeffs)
    neg = _variations([c * (-1) ** i for i, c in enumerate(coeffs)])
    F = np.array([[float(Fraction(x)) for x in r] for r in rows])
    return {
        "coeffs": coeffs,
        "inertia": (pos, neg, zero),
        "distinct": distinct,
        "minor_distinct": minor_distinct,
        "eigs": np.linalg.eigvalsh(F),
        "minor_eigs": np.linalg.eigvalsh(F[1:, 1:]),
    }


def _check_intervals(label, intervals, eigs, n_distinct) -> list[str]:
    ivs = [(Fraction(lo), Fraction(hi)) for lo, hi in intervals]
    if len(ivs) != n_distinct:
        return [f"{len(ivs)} {label} intervals for {n_distinct} distinct roots"]
    problems = []
    used = set()
    for lam in eigs:
        slack = 1e-9 * max(1.0, abs(lam))
        inside = [k for k, (lo, hi) in enumerate(ivs)
                  if float(lo) - slack <= lam <= float(hi) + slack]
        if not inside:
            problems.append(f"{label} eigenvalue {lam} in no interval")
        used.update(inside)
    if len(used) != len(ivs):
        problems.append(f"a {label} interval holds no eigenvalue")
    return problems


def check_exact(refs: list[dict], outputs: list[str]) -> list[str]:
    """charpoly, inertia, hermite-count and interlace of each matrix."""
    if len(outputs) != 4 * len(refs):
        return [f"{len(outputs)} outputs for {len(refs)} matrices"]
    problems = []
    for m, ref in enumerate(refs):
        problems += [f"matrix {m}: {p}"
                     for p in _check_matrix(ref, outputs[4 * m:4 * m + 4])]
    return problems


def _check_matrix(ref: dict, outputs: list[str]) -> list[str]:
    cp, ine, herm, inter = (json.loads(o) for o in outputs)
    problems = []
    coeffs = [Fraction(c) for c in cp["char_poly"]["coeffs"]]
    if coeffs != ref["coeffs"]:
        problems.append(f"char poly {coeffs} != sympy {ref['coeffs']}")
    got = (ine["inertia"]["pos"], ine["inertia"]["neg"], ine["inertia"]["zero"])
    if got != ref["inertia"]:
        problems.append(f"inertia {got} != Descartes {ref['inertia']}")
    if ine["signature"] != got[0] - got[1]:
        problems.append(f"signature {ine['signature']} != pos - neg")
    d = ref["distinct"]
    if (herm["distinct"], herm["distinct_real"]) != (d, d):
        problems.append(f"hermite ({herm['distinct']}, {herm['distinct_real']})"
                        f" != square-free degree {d}")
    if inter["passed"] is not True or not all(inter["gaps"]):
        problems.append("interlacing not certified")
    problems += _check_intervals("outer", inter["outer_intervals"],
                                 ref["eigs"], d)
    problems += _check_intervals("inner", inter["inner_intervals"],
                                 ref["minor_eigs"], ref["minor_distinct"])
    return problems


# -- libration points and Lyapunov orbits ----------------------------------------


def collinear_points(mu: float) -> dict[str, tuple[float, float]]:
    """Roots of Omega_x(x, 0) = 0 on the three axis segments, by mpmath."""
    import mpmath

    with mpmath.workdps(40):
        m = mpmath.mpf(mu)

        def omega_x(x):
            a, b = x + m, x - 1 + m
            return x - (1 - m) * a / abs(a) ** 3 - m * b / abs(b) ** 3

        eps = mpmath.mpf("1e-9")
        brackets = {
            "L1": (-m + eps, 1 - m - eps),
            "L2": (1 - m + eps, mpmath.mpf(3)),
            "L3": (mpmath.mpf(-3), -m - eps),
        }
        return {lab: (float(mpmath.findroot(omega_x, br, solver="anderson")), 0.0)
                for lab, br in brackets.items()}


def check_lyapunov(info: dict, outputs: list[str]) -> list[str]:
    """Libration points, then closure and invariants of each corrected orbit."""
    lag, orbits = json.loads(outputs[0]), [json.loads(o) for o in outputs[1:]]
    mu = info["mu"]
    problems = []
    want = collinear_points(mu)
    want["L4"] = (0.5 - mu, math.sqrt(3.0) / 2.0)
    want["L5"] = (0.5 - mu, -math.sqrt(3.0) / 2.0)
    got = {p["label"]: p["position"] for p in lag["points"]}
    if sorted(got) != ["L1", "L2", "L3", "L4", "L5"]:
        return [f"libration points {sorted(got)}"]
    for lab, ref in want.items():
        err = max(abs(got[lab][0] - ref[0]), abs(got[lab][1] - ref[1]))
        if err > 1e-12:
            problems.append(f"{lab} off the reference root by {err:.3g}")
    if len(orbits) != len(info["amplitudes"]):
        return problems + [f"{len(orbits)} orbits for "
                           f"{len(info['amplitudes'])} amplitudes"]
    for k, orb in enumerate(orbits):
        problems += [f"orbit {k}: {p}" for p in _check_orbit(orb, mu)]
    return problems


def _check_orbit(orb: dict, mu: float) -> list[str]:
    x0, T = orb["x0"], orb["T"]
    if not T > 0.0:
        return [f"period {T}"]
    problems = []
    end = flow(x0, mu, T)
    err = float(np.max(np.abs(end - np.array(x0))))
    if err > 1e-8:
        problems.append(f"does not close: {err:.3g} after one period")
    C = jacobi(x0, mu)
    if abs(orb["C"] - C) > 1e-12 * abs(C):
        problems.append(f"C {orb['C']} != Jacobi formula {C}")
    prod = complex(1.0)
    for re, im in orb["multipliers"]:
        prod *= complex(re, im)
    if abs(prod - 1.0) > 1e-6:
        problems.append(f"multiplier product {prod}")
    if orb["invariant_flags"]:
        problems.append(f"invariant flags {orb['invariant_flags']}")
    return problems
