"""Spans around calls into each `secular` module, recorded from outside.

`Tracer.install` replaces every public function of the traced modules,
at every module binding that refers to it, with a wrapper that records a
span: name, start, end and the index of the enclosing span.  A function
imported by name elsewhere (`integrate` into `section`, `pcr3bp` and
`cli`; `count_real_roots` into `matrixcore`) is wrapped there too, so
every call path is seen.  The right-hand side handed to `integrate` is
wrapped as well, but counted and timed rather than spanned: a manifolds
run makes about a million RHS calls.  No code in `src/` changes.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from types import FunctionType

MODULES = ("cli", "floquet", "section", "pcr3bp", "ratpoly", "matrixcore",
           "jordan", "linode")
# private functions that a per-layer metric names
PRIVATE = {"section._inverse_map": "section.inverse_map"}
INTEGRATE = "floquet.integrate"
MAP_ITERATES = ("section.return_map", "section.inverse_map")

# (name, unit) of every per-layer metric, reported per traced op
PER_LAYER = [
    ("cli.import_s", "s"),
    ("cli.run.calls", "count"),
    ("cli.self_s", "s"),
    ("floquet.integrate.calls", "count"),
    ("floquet.integrate.busy_s", "s"),
    ("floquet.integrate.steps", "count"),
    ("floquet.integrate.rhs_evals", "count"),
    ("floquet.integrate.rhs_s", "s"),
    ("floquet.integrate.solver_s", "s"),
    ("floquet.monodromy.busy_s", "s"),
    ("floquet.characteristic_exponents.busy_s", "s"),
    ("jordan.jordan_form.busy_s", "s"),
    ("section.return_map.calls", "count"),
    ("section.inverse_map.calls", "count"),
    ("section.map_iterate.self_s", "s"),
    ("section.linearize_map.calls", "count"),
    ("section.linearize_map.busy_s", "s"),
    ("section.manifold_segment.busy_s", "s"),
    ("section.homoclinic_intersection.busy_s", "s"),
    ("pcr3bp.libration_points.busy_s", "s"),
    ("pcr3bp.correct_periodic.busy_s", "s"),
    ("pcr3bp.correct_periodic.iterations", "count"),
    ("ratpoly.sturm_chain.calls", "count"),
    ("ratpoly.sturm_chain.busy_s", "s"),
    ("ratpoly.sturm_chain.max_coeff_bits", "bits"),
    ("ratpoly.count_real_roots.calls", "count"),
    ("ratpoly.count_real_roots.busy_s", "s"),
    ("ratpoly.isolate_real_roots.busy_s", "s"),
    ("ratpoly.refine_root.calls", "count"),
    ("ratpoly.refine_root.busy_s", "s"),
    ("matrixcore.char_poly.calls", "count"),
    ("matrixcore.char_poly.busy_s", "s"),
    ("matrixcore.minor_sequence.busy_s", "s"),
    ("matrixcore.inertia.busy_s", "s"),
    ("matrixcore.hermite_root_count.busy_s", "s"),
    ("matrixcore.real_roots_with_multiplicity.busy_s", "s"),
    ("matrixcore.interlacing_check.busy_s", "s"),
    # layer self times: together with cli.self_s they add up to the op
    ("floquet.self_s", "s"),
    ("section.self_s", "s"),
    ("pcr3bp.self_s", "s"),
    ("ratpoly.self_s", "s"),
    ("matrixcore.self_s", "s"),
    ("jordan.self_s", "s"),
    ("linode.self_s", "s"),
    ("trace.self_sum_s", "s"),
    ("trace.op_s", "s"),
    ("trace.untraced_op_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]

# metrics that keep their largest value instead of a per-op mean
MAXIMA = ("ratpoly.sturm_chain.max_coeff_bits",)

# name, start, end, parent index (-1 at the root), extra
NAME, START, END, PARENT, EXTRA = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self, package: str = "secular") -> None:
        mods = [importlib.import_module(f"{package}.{m}") for m in MODULES]
        names = {}
        for mod in mods:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if not (isinstance(obj, FunctionType)
                        and obj.__module__ == mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                if attr.startswith("_"):
                    if name not in PRIVATE:
                        continue
                    name = PRIVATE[name]
                names[obj] = name
        wrappers = {fn: self._wrap(fn, name) for fn, name in names.items()}
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, FunctionType) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def take(self) -> list[list]:
        """The spans recorded since the last take, oldest first."""
        spans = self.spans[:]
        self.spans.clear()
        return spans

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            if name == INTEGRATE:
                rhs = _counted(args[0])
                args = (rhs,) + args[1:]
                events = kwargs.get("events", args[4] if len(args) > 4 else None)
                span[EXTRA] = [rhs, 0, events is not None]  # steps on return
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if name == INTEGRATE:
                span[EXTRA][1] = len(result.t) - 1
            elif name == "ratpoly.sturm_chain":
                span[EXTRA] = result  # bit sizes are read after the op
            return result

        traced.__wrapped__ = fn
        return traced


def _counted(f):
    clock = time.perf_counter

    def rhs(t, z):
        t0 = clock()
        try:
            return f(t, z)
        finally:
            rhs.busy += clock() - t0
            rhs.calls += 1

    rhs.calls, rhs.busy = 0, 0.0
    return rhs


def _coeff_bits(chain) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for p in chain.polys for c in p.coeffs), default=0)


def op_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer figures of one op from its spans."""
    m: dict[str, float] = defaultdict(float)
    child_s = [0.0] * len(spans)
    integrate_in = [0.0] * len(spans)  # integrate time below each span
    for s in spans:
        dur = s[END] - s[START]
        if s[PARENT] >= 0:
            child_s[s[PARENT]] += dur
        if s[NAME] == INTEGRATE:
            up = s[PARENT]
            while up >= 0:
                integrate_in[up] += dur
                up = spans[up][PARENT]
    for i, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        layer = name.split(".", 1)[0]
        m[f"{name}.calls"] += 1
        m[f"{name}.busy_s"] += dur
        m[f"{layer}.self_s"] += dur - child_s[i]
        m["trace.self_sum_s"] += dur - child_s[i]
        if name == INTEGRATE:
            rhs, steps, events = s[EXTRA]
            m[f"{name}.rhs_evals"] += rhs.calls
            m[f"{name}.rhs_s"] += rhs.busy
            m[f"{name}.solver_s"] += dur - rhs.busy
            m[f"{name}.steps"] += steps
            parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else ""
            if events and parent == "pcr3bp.correct_periodic":
                m["pcr3bp.correct_periodic.iterations"] += 1
        elif name in MAP_ITERATES:
            m["section.map_iterate.self_s"] += dur - integrate_in[i]
        elif name == "ratpoly.sturm_chain" and s[EXTRA] is not None:
            bits = _coeff_bits(s[EXTRA])
            m[MAXIMA[0]] = max(m[MAXIMA[0]], bits)
            s[EXTRA] = bits  # drop the chain itself
    return m


class Totals:
    """Per-layer figures summed over traced ops."""

    def __init__(self):
        self.sums: dict[str, float] = defaultdict(float)
        self.ops = 0

    def add(self, spans: list[list]) -> None:
        self.ops += 1
        for k, v in op_metrics(spans).items():
            self.sums[k] = max(self.sums[k], v) if k in MAXIMA else self.sums[k] + v

    def per_op(self) -> dict[str, float]:
        return {k: v if k in MAXIMA else v / self.ops
                for k, v in self.sums.items()}


def span_rows(spans: list[list], origin: float) -> list[list]:
    """Spans as [name, start, end, parent] with times from origin."""
    return [[s[NAME], s[START] - origin, s[END] - origin, s[PARENT]]
            for s in spans]
