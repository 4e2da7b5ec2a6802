"""Command-line front end.

Subcommands mirror the library modules: sturm, charpoly, inertia,
hermite-count, interlace, jordan, linsolve, floquet, pcr3bp, section.
All numeric defaults live in RunConfig and are echoed into every JSON
output (CSV outputs carry them in a leading comment line).  Exit codes:
0 success, 1 domain or input error, 2 numeric non-convergence (with its
best iterate when there is one), 3 failed internal invariant (a bug, not
bad input).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import __version__
from .errors import (
    DomainError,
    InternalInconsistencyError,
    NonConvergenceError,
    SecularError,
    SingularityError,
    UnsupportedFlavorError,
)
from .floquet import (
    characteristic_exponents,
    classify_periodic_stability,
    hill_system,
    integrate,
    monodromy,
)
from .jordan import classify_3x3, jordan_form
from .linode import (
    FIRST_ORDER,
    SecondOrderSystem,
    _jordan_data,
    classify_stability,
    solve_constant,
    solve_lagrange_oscillation,
    solve_residue,
)
from .matrixcore import (
    EXACT,
    NUMERIC,
    QuadraticForm,
    SquareMatrix,
    char_poly,
    hermite_root_count,
    inertia,
    interlacing_check,
)
from .pcr3bp import (
    STABLE,
    _flow_rhs,
    correct_periodic,
    jacobi_constant,
    libration_point,
    libration_points,
    libration_stability,
    lyapunov_seed,
    orbit_exponents,
)
from .ratpoly import (
    NEG_INF,
    POS_INF,
    RationalPolynomial,
    RootInterval,
    count_real_roots,
    isolate_real_roots,
    refine_root,
)
from .section import (
    SectionDef,
    SectionPoint,
    homoclinic_intersection,
    manifold_segments,
    section_crossings,
)


@dataclass(frozen=True)
class RunConfig:
    tol: float = 1e-10  # integrator tolerance
    cluster_tol: float = 1e-8  # eigenvalue clustering tolerance
    fmt: str = "json"
    output: str | None = None

    def __post_init__(self):
        if not (0 < self.tol < math.inf and 0 < self.cluster_tol < math.inf):
            raise DomainError("tolerances must be positive and finite")
        if self.fmt not in ("json", "csv"):
            raise DomainError(f"unknown output format {self.fmt!r}")

    def echo(self) -> dict:
        return {
            "integrator_tol": self.tol,
            "cluster_tol": self.cluster_tol,
            "version": __version__,
        }


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so we control exit codes."""

    def error(self, message):
        raise DomainError(f"usage: {message}")


# -- serialization helpers ---------------------------------------------------


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _cplx(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _lam_json(lam):
    return _frac_str(lam) if isinstance(lam, Fraction) else _cplx(lam)


def _poly_arg(text: str) -> RationalPolynomial:
    """Polynomial from inline JSON, a file path, or CSV coefficients."""
    text = text.strip()
    if text.startswith("{"):
        return RationalPolynomial.from_json(text)
    if os.path.exists(text):
        with open(text) as fh:
            return RationalPolynomial.from_json(fh.read())
    return RationalPolynomial([Fraction(c) for c in text.split(",")])


def _matrix_arg(text: str) -> SquareMatrix:
    """Matrix from inline JSON (a list of rows or an object) or a file path."""
    text = text.strip()
    if not text.startswith(("[", "{")):
        with open(text) as fh:
            text = fh.read()
    return SquareMatrix.from_json(text)


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.output:
        with open(cfg.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(cfg: RunConfig, payload: dict) -> None:
    payload = dict(payload)
    payload["config"] = cfg.echo()
    _emit(cfg, json.dumps(payload, sort_keys=True) + "\n")


def _emit_csv(cfg: RunConfig, header: str, rows) -> None:
    echo = " ".join(f"{k}={v}" for k, v in sorted(cfg.echo().items()))
    lines = [f"# {echo}", header]
    lines.extend(",".join(repr(v) if isinstance(v, float) else str(v)
                          for v in row) for row in rows)
    _emit(cfg, "\n".join(lines) + "\n")


# -- subcommands -------------------------------------------------------------


def _cmd_sturm(args, cfg: RunConfig) -> int:
    p = _poly_arg(args.poly)
    if args.action == "count":
        lo = NEG_INF if args.lo is None else Fraction(args.lo)
        hi = POS_INF if args.hi is None else Fraction(args.hi)
        _emit(cfg, f"{count_real_roots(p, lo, hi)}\n")
        return 0
    if args.action == "isolate":
        ivs = isolate_real_roots(p)
        _emit_json(cfg, {
            "intervals": [[_frac_str(iv.lo), _frac_str(iv.hi)] for iv in ivs],
        })
        return 0
    # refine
    if args.lo is None or args.hi is None:
        raise DomainError("refine requires --lo and --hi")
    iv = RootInterval(Fraction(args.lo), Fraction(args.hi), 1)
    r = refine_root(p, iv, Fraction(args.reftol) if args.reftol else Fraction(1, 10 ** 10))
    _emit(cfg, f"{float(r)!r}\n")
    return 0


def _cmd_charpoly(args, cfg: RunConfig) -> int:
    A = _matrix_arg(args.matrix)
    cp = char_poly(A)
    _emit_json(cfg, {
        "char_poly": {"coeffs": [_frac_str(c) for c in cp.poly.coeffs]},
    })
    return 0


def _cmd_inertia(args, cfg: RunConfig) -> int:
    A = _matrix_arg(args.matrix)
    ine = inertia(QuadraticForm(A))
    _emit_json(cfg, {
        "inertia": {"pos": ine.n_pos, "neg": ine.n_neg, "zero": ine.n_zero},
        "signature": ine.signature,
    })
    return 0


def _cmd_hermite_count(args, cfg: RunConfig) -> int:
    A = _matrix_arg(args.matrix)
    distinct, distinct_real = hermite_root_count(char_poly(A).poly)
    _emit_json(cfg, {"distinct": distinct, "distinct_real": distinct_real})
    return 0


def _cmd_interlace(args, cfg: RunConfig) -> int:
    A = _matrix_arg(args.matrix)
    rep = interlacing_check(A)
    _emit_json(cfg, {
        "passed": rep.passed,
        "outer_intervals": [[_frac_str(iv.lo), _frac_str(iv.hi)]
                            for iv in rep.outer_intervals],
        "inner_intervals": [[_frac_str(iv.lo), _frac_str(iv.hi)]
                            for iv in rep.inner_intervals],
        "gaps": list(rep.gap_results),
    })
    return 0


def _cmd_jordan(args, cfg: RunConfig) -> int:
    A = _matrix_arg(args.matrix)
    if args.flavor == NUMERIC:
        A = SquareMatrix(A.to_numpy(), NUMERIC)
    elif args.flavor == EXACT and A.flavor != EXACT:
        raise UnsupportedFlavorError("cannot promote a numeric matrix to exact")
    dec = jordan_form(A, cluster_tol=cfg.cluster_tol)
    out = {
        "J": json.loads(dec.J.to_json()),
        "P": json.loads(dec.P.to_json()),
        "blocks": [{"lambda": _lam_json(lam), "sizes": list(sizes)}
                   for lam, sizes in dec.blocks],
        "warnings": list(dec.warnings),
    }
    if args.classify3:
        t3 = classify_3x3(A, dec.blocks)
        out["type3"] = {"tag": t3.tag, "scalar": t3.scalar}
    _emit_json(cfg, out)
    return 0


def _cmd_linsolve(args, cfg: RunConfig) -> int:
    if args.v0 is not None and args.form != "second":
        raise DomainError("usage: --v0 applies only to --form second")
    A = _matrix_arg(args.matrix)
    x0 = [Fraction(v) for v in args.x0.split(",")]
    if len(x0) != A.n:
        raise DomainError(f"--x0 needs {A.n} values, got {len(x0)}")
    if args.form == "second":
        v0 = ([Fraction(v) for v in args.v0.split(",")]
              if args.v0 else [Fraction(0)] * len(x0))
        sol, modes, verdict = solve_lagrange_oscillation(
            SecondOrderSystem(A), x0, v0)
        payload = {
            "verdict": verdict.tag,
            "strict_lagrange": verdict.strict_lagrange,
            "modes": [{"alpha": m.alpha, "rate": m.rate,
                       "vector": list(m.vector)} for m in modes],
        }
    else:
        dec = _jordan_data(A)
        solver = solve_residue if args.method == "residue" else solve_constant
        sol = solver(A, x0, dec)
        verdict = classify_stability(A, FIRST_ORDER, dec=dec)
        payload = {"verdict": verdict.tag,
                   "strict_lagrange": verdict.strict_lagrange}
    payload["terms"] = [
        {"lambda": _cplx(t.lam),
         "poly": [[_cplx(c) for c in vec] for vec in t.coeffs]}
        for t in sol.terms
    ]
    _emit_json(cfg, payload)
    return 0


def _cmd_floquet(args, cfg: RunConfig) -> int:
    if args.system != "hill":
        raise DomainError(f"unknown built-in system {args.system!r}")
    if args.grid:
        try:
            a_part, q_part = args.grid.split(",")
            a0, a1, na = a_part.split(":")
            q0, q1, nq = q_part.split(":")
            a_vals = np.linspace(float(a0), float(a1), int(na))
            q_vals = np.linspace(float(q0), float(q1), int(nq))
        except ValueError as e:
            raise DomainError(f"bad --grid spec (a0:a1:na,q0:q1:nq): {e}")
        if a_vals.size * q_vals.size == 0:
            raise DomainError("--grid has no cells: na and nq must be >= 1")
        # the whole grid flies and is classified as one family, cells in
        # row-major (a, q) order
        a_grid, q_grid = np.meshgrid(a_vals, q_vals, indexing="ij")
        family = characteristic_exponents(
            monodromy(hill_system(a_grid, q_grid), cfg.tol), cfg.cluster_tol)
        rows = []
        for a, q, exps in zip(a_grid.ravel(), q_grid.ravel(), family):
            smax = max(abs(s) for s in exps.multipliers)
            rows.append((float(a), float(q), float(smax),
                         classify_periodic_stability(exps).tag))
        _emit_csv(cfg, "a,q,smax,verdict", rows)
        return 0
    if args.a is None or args.q is None:
        raise DomainError("floquet requires --a and --q (or --grid)")
    exps = characteristic_exponents(
        monodromy(hill_system(args.a, args.q), cfg.tol), cfg.cluster_tol)
    verdict = classify_periodic_stability(exps)
    _emit_json(cfg, {
        "a": args.a,
        "q": args.q,
        "period": exps.period,
        "multipliers": [_cplx(s) for s in exps.multipliers],
        "exponents": [_cplx(s) for s in exps.exponents],
        "verdict": verdict.tag,
        "marginal_multipliers": [_cplx(s)
                                 for s in verdict.marginal_multipliers],
    })
    return 0


def _parse_state(text: str, n: int):
    vals = [float(v) for v in text.split(",")]
    if len(vals) != n:
        raise DomainError(f"expected {n} comma-separated values, got {len(vals)}")
    return vals


def _cmd_pcr3bp(args, cfg: RunConfig) -> int:
    if args.action == "lagrange":
        pts = libration_points(args.mu)
        _emit_json(cfg, {
            "mu": args.mu,
            "points": [{"label": p.label,
                        "position": [p.position[0], p.position[1]]}
                       for p in pts],
        })
        return 0
    if args.action == "stability":
        st = libration_stability(args.mu,
                                 libration_point(args.mu, args.point))
        _emit_json(cfg, {
            "mu": args.mu,
            "point": args.point,
            "position": list(st.point.position),
            "quartic": {"s2_coeff": st.quartic_coeffs[0],
                        "const": st.quartic_coeffs[1]},
            "roots": [_cplx(s) for s in st.roots],
            "classification": st.verdict,
            "verdict": "stable" if st.verdict == STABLE else "unstable",
        })
        return 0
    if args.action == "orbit":
        seed, t_half = lyapunov_seed(args.mu,
                                     libration_point(args.mu, args.point),
                                     args.seed_amplitude)
        orbit = correct_periodic(seed, t_half, args.mu,
                                 integrator_tol=cfg.tol)
        rep = orbit_exponents(orbit)
        unstable = any(abs(s) > 1.0 + 1e-6 for s in rep.nontrivial)
        _emit_json(cfg, {
            "mu": args.mu,
            "x0": [float(v) for v in orbit.initial_state],
            "T": orbit.period,
            "C": orbit.jacobi,
            "multipliers": [_cplx(s) for s in orbit.multipliers],
            "exponents": [_cplx(s) for s in orbit.exponents],
            "verdict": "unstable" if unstable else "stable",
            "invariant_flags": list(rep.flags),
        })
        return 0
    # propagate
    state0 = _parse_state(args.state, 4)
    with np.errstate(invalid="ignore"):  # a non-finite --t fails in integrate
        ts = np.linspace(0.0, args.t, args.samples)
    traj = integrate(_flow_rhs(args.mu), state0, (0.0, args.t), cfg.tol,
                     t_eval=ts)
    rows = []
    for t, (x, y, vx, vy) in zip(ts, traj.y.T):
        rows.append((float(t), float(x), float(y), float(vx), float(vy),
                     float(jacobi_constant((x, y, vx, vy), args.mu))))
    _emit_csv(cfg, "t,x,y,vx,vy,C", rows)
    return 0


def _cmd_section(args, cfg: RunConfig) -> int:
    sd = SectionDef(args.direction, args.C)
    if args.action == "manifolds":
        x, vx = _parse_state(args.fixed, 2)
        p = SectionPoint(x, vx)
        unstable, stable = manifold_segments(
            p, args.mu, sd, ("unstable+", "stable+"), steps=args.steps,
            seeds=args.seeds, seed_offset=args.seed_offset, tol=cfg.tol)
        for br in (unstable, stable):
            if br.truncated:
                print(f"warning: {br.branch} branch truncated: "
                      f"{br.truncation_reason}", file=sys.stderr)
        rep = homoclinic_intersection(unstable, stable)
        payload = {
            "mu": args.mu,
            "C": args.C,
            "fixed": [x, vx],
            "homoclinic": {
                "found": rep.found,
                "point": list(rep.point) if rep.found else None,
                "angle": rep.angle,
                "unstable_segment": rep.unstable_segment,
                "stable_segment": rep.stable_segment,
            },
        }
        if cfg.output:
            base, _ = os.path.splitext(cfg.output)
            for br, name in ((unstable, "unstable"), (stable, "stable")):
                sub = RunConfig(cfg.tol, cfg.cluster_tol, "csv",
                                f"{base}.{name}.csv")
                _emit_csv(sub, "x,vx",
                          [(float(a), float(b)) for a, b in br.points])
        else:
            payload["unstable_polyline"] = [[float(a), float(b)]
                                            for a, b in unstable.points]
            payload["stable_polyline"] = [[float(a), float(b)]
                                          for a, b in stable.points]
        _emit_json(cfg, payload)
        return 0
    x, vx = _parse_state(args.start, 2)
    pts = section_crossings(SectionPoint(x, vx), args.mu, sd, args.n,
                            tol=cfg.tol)
    rows = [(i + 1, float(q.x), float(q.vx)) for i, q in enumerate(pts)]
    _emit_csv(cfg, "i,x,vx", rows)
    return 0


# -- parser ------------------------------------------------------------------


def _build_parser() -> _Parser:
    top = _Parser(prog="secular", description=__doc__)
    top.add_argument("--version", action="version", version=__version__)
    top.add_argument("--tol", type=float, default=1e-10,
                     help="integrator tolerance (default 1e-10)")
    top.add_argument("--cluster-tol", type=float, default=1e-8,
                     help="eigenvalue clustering tolerance (default 1e-8)")
    top.add_argument("--format", choices=("json", "csv"), default="json")
    top.add_argument("--output", default=None, help="output path (default stdout)")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sturm", help="real-root counting and isolation")
    p.add_argument("action", choices=("count", "isolate", "refine"))
    p.add_argument("--poly", required=True,
                   help="polynomial as JSON, CSV coefficients, or a file path")
    p.add_argument("--lo", default=None)
    p.add_argument("--hi", default=None)
    p.add_argument("--tol", dest="reftol", default=None,
                   help="refinement tolerance (refine only)")
    p.set_defaults(fn=_cmd_sturm)

    matrix_help = "matrix as inline JSON or a JSON file path"
    for name, fn in (("charpoly", _cmd_charpoly), ("inertia", _cmd_inertia),
                     ("hermite-count", _cmd_hermite_count),
                     ("interlace", _cmd_interlace)):
        p = sub.add_parser(name)
        p.add_argument("--matrix", required=True, help=matrix_help)
        p.set_defaults(fn=fn)

    p = sub.add_parser("jordan", help="Jordan canonical form")
    p.add_argument("--matrix", required=True, help=matrix_help)
    p.add_argument("--flavor", choices=("exact", "numeric"), default=None)
    p.add_argument("--classify3", action="store_true")
    p.set_defaults(fn=_cmd_jordan)

    p = sub.add_parser("linsolve", help="closed-form linear ODE solution")
    p.add_argument("--matrix", required=True, help=matrix_help)
    p.add_argument("--x0", required=True, help="initial state, CSV rationals")
    p.add_argument("--v0", default=None, help="initial velocity (second form)")
    p.add_argument("--method", choices=("jordan", "residue"), default="jordan")
    p.add_argument("--form", choices=("first", "second"), default="first")
    p.set_defaults(fn=_cmd_linsolve)

    p = sub.add_parser("floquet", help="Hill/Mathieu stability")
    p.add_argument("--system", default="hill")
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--grid", default=None, help="a0:a1:na,q0:q1:nq sweep")
    p.set_defaults(fn=_cmd_floquet)

    p = sub.add_parser("pcr3bp", help="restricted three-body pipeline")
    p.add_argument("action",
                   choices=("lagrange", "stability", "orbit", "propagate"))
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--point", default="L1")
    p.add_argument("--seed-amplitude", dest="seed_amplitude", type=float,
                   default=1e-3)
    p.add_argument("--state", default=None, help="x,y,vx,vy (propagate)")
    p.add_argument("--t", type=float, default=None, help="end time (propagate)")
    p.add_argument("--samples", type=int, default=200)
    p.set_defaults(fn=_cmd_pcr3bp)

    p = sub.add_parser("section", help="surface-of-section maps")
    p.add_argument("action", nargs="?", choices=("crossings", "manifolds"),
                   default="crossings")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--C", type=float, required=True)
    p.add_argument("--direction", type=int, choices=(1, -1), default=1)
    p.add_argument("--start", default=None, help="x,vx (crossings)")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--fixed", default=None, help="x,vx fixed point (manifolds)")
    p.add_argument("--steps", type=int, default=6)
    p.add_argument("--seeds", type=int, default=40)
    p.add_argument("--seed-offset", dest="seed_offset", type=float,
                   default=1e-7)
    p.set_defaults(fn=_cmd_section)
    return top


def _writes_csv(args) -> bool:
    """Whether the subcommand prints CSV; the others print JSON or a value."""
    return ((args.command == "floquet" and args.grid is not None)
            or (args.command == "section" and args.action == "crossings")
            or (args.command == "pcr3bp" and args.action == "propagate"))


def _one_line(best) -> str:
    """A best iterate on one line, as a flat list if it is array-like."""
    try:
        best = np.asarray(best, dtype=float).ravel().tolist()
    except (TypeError, ValueError):
        pass
    return " ".join(str(best).split())


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = RunConfig(args.tol, args.cluster_tol, args.format, args.output)
        if cfg.fmt == "csv" and not _writes_csv(args):
            raise DomainError("usage: --format csv applies only to floquet "
                              "--grid, section crossings and pcr3bp propagate")
        if args.command == "pcr3bp":
            if args.action == "propagate" and (args.state is None
                                               or args.t is None):
                raise DomainError("propagate requires --state and --t")
        if args.command == "section":
            if args.action == "crossings" and args.start is None:
                raise DomainError("section crossings requires --start")
            if args.action == "manifolds" and args.fixed is None:
                raise DomainError("section manifolds requires --fixed")
        return args.fn(args, cfg)
    except (NonConvergenceError, SingularityError) as e:
        best = getattr(e, "best", None)
        shown = "" if best is None else f" (best iterate: {_one_line(best)})"
        print(f"error: non-convergence: {e}{shown}", file=sys.stderr)
        return 2
    except InternalInconsistencyError as e:
        print(f"error: internal: {e}", file=sys.stderr)
        return 3
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 1
    except (SecularError, OSError, ValueError, ZeroDivisionError,
            json.JSONDecodeError, KeyError) as e:
        print(f"error: input: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
