"""End-to-end benchmark of the `secular` CLI, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's own `src/`.  One closed loop with one client: this process
calls `secular.cli.run(argv)` in-process, op after op, repeating whole
rounds of the workload's ops until S seconds have passed.  Every op's
output is then checked against an independent computation
(`checks.py`).  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, ops_per_s,
op_p50_s, peak_rss_mb); their times are read on `speedclock.SpeedClock`.
With --trace 1 each op runs twice, untraced and then traced; the metrics
are the per-layer ones of `tracing.PER_LAYER`, and the spans of the
first traced op are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import tracing
from speedclock import SpeedClock

if TYPE_CHECKING:
    from workloads import Op, Workload

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 60


class BenchError(Exception):
    pass


def import_cli():
    """Import `secular.cli` from this checkout's src/ and from nowhere else."""
    if not (SRC / "secular" / "cli.py").is_file():
        raise BenchError(f"no secular sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from secular import cli

    if Path(cli.__file__).resolve().parent != SRC / "secular":
        raise BenchError(f"secular.cli imported from {cli.__file__}")
    return cli


@contextlib.contextmanager
def work_dir():
    path = OUT / f"work-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


# -- set-up ------------------------------------------------------------------------


def probe(workload: Workload, seed: int, clock: SpeedClock, t0: float) -> None:
    """What a fresh process does before its first op, after import_cli.

    Prints the speed-clock seconds since t0, which main read before the
    import: the import and the inputs.
    """
    with work_dir() as d:
        workload.build(seed, d)
        print(f"ready {clock.seconds(t0, time.perf_counter())!r}", flush=True)


def measure_setup(name: str, seed: int, samples: int) -> list[float]:
    """Set-up seconds of `samples` fresh interpreters, one after another."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--probe",
            "--workload", name, "--seed", str(seed)]
    times = []
    for _ in range(samples):
        try:
            child = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                                   timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"set-up probe ran over {PROBE_TIMEOUT_S} s")
        line = child.stdout.split()
        if child.returncode != 0 or len(line) != 2 or line[0] != "ready":
            raise BenchError(f"set-up probe exited with code {child.returncode}")
        times.append(float(line[1]))
    return times


# -- the timed loop ------------------------------------------------------------------


@dataclass
class Record:
    op: Op
    start: float  # perf_counter readings
    end: float
    codes: list[int]
    outputs: list[str]
    errors: list[str]

    @property
    def seconds(self) -> float:
        return self.end - self.start


def run_op(cli, op: Op) -> Record:
    codes, outputs, errors = [], [], []
    t0 = time.perf_counter()
    for argv in op.calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            codes.append(cli.run(list(argv)))
        outputs.append(out.getvalue())
        errors.append(err.getvalue())
    return Record(op, t0, time.perf_counter(), codes, outputs, errors)


def run_rounds(ops: list[Op], seconds: float, step) -> tuple[float, float]:
    """step(op) over whole rounds of ops until `seconds` have passed.

    Returns the perf_counter readings at the start and the end.  Whole
    rounds keep every run's mix of ops the same, whatever the run length.
    """
    start = time.perf_counter()
    while True:
        for op in ops:
            step(op)
        end = time.perf_counter()
        if end - start >= seconds:
            return start, end


# -- checks ------------------------------------------------------------------------


def verify(workload: Workload, records: list[Record]) -> tuple[int, int]:
    """(failed, wrong): failed counts ops that exited nonzero or were wrong.

    References depend only on an op's inputs, and a check only on the
    reference and the outputs, so each distinct pair is checked once.
    """
    refs, verdicts = {}, {}
    failed = wrong = 0
    for r in records:
        if any(r.codes):
            failed += 1
            msg = " | ".join(e.strip() for e in r.errors if e.strip())
            print(f"op {r.op.key}: exit {r.codes}: {msg}", file=sys.stderr)
            continue
        key = (r.op.key, tuple(r.outputs))
        if key not in verdicts:
            if r.op.key not in refs:
                refs[r.op.key] = workload.reference(r.op)
            try:
                verdicts[key] = workload.check(refs[r.op.key], r.outputs)
            except (ValueError, KeyError, TypeError, IndexError) as e:
                verdicts[key] = [f"unreadable output: {e!r}"]
        if verdicts[key]:
            failed += 1
            wrong += 1
            print(f"op {r.op.key}: " + "; ".join(verdicts[key][:5]),
                  file=sys.stderr)
    return failed, wrong


# -- the two kinds of run -------------------------------------------------------------


def end_to_end(cli, workload: Workload, args, workdir: Path) -> dict:
    setup = measure_setup(workload.name, args.seed, SETUP_SAMPLES)
    ops = workload.build(args.seed, workdir)
    records: list[Record] = []
    clock = SpeedClock()
    clock.start()
    try:
        start, end = run_rounds(ops, args.seconds,
                                lambda op: records.append(run_op(cli, op)))
    finally:
        clock.stop()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failed, wrong = verify(workload, records)
    return result(records, failed, wrong, {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(records) / clock.seconds(start, end), "1/s"),
        "op_p50_s": (statistics.median(clock.seconds(r.start, r.end)
                                       for r in records), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    })


def traced(cli, workload: Workload, args, workdir: Path, import_s: float) -> dict:
    ops = workload.build(args.seed, workdir)
    tracer = tracing.Tracer()
    totals = tracing.Totals()
    untraced: list[Record] = []
    records: list[Record] = []
    first_spans: list = []

    def pair(op: Op) -> None:
        # the untraced twin runs just before, on a machine in the same
        # state, and is the base of the tracing overhead
        untraced.append(run_op(cli, op))
        tracer.install()
        try:
            records.append(run_op(cli, op))
        finally:
            tracer.uninstall()
        spans = tracer.take()
        if not first_spans:
            first_spans.extend(tracing.span_rows(spans, spans[0][tracing.START]))
        totals.add(spans)

    run_rounds(ops, args.seconds, pair)
    failed, wrong = verify(workload, untraced + records)

    per_op = totals.per_op()
    per_op["cli.import_s"] = import_s
    per_op["trace.op_s"] = sum(r.seconds for r in records) / len(records)
    per_op["trace.untraced_op_s"] = (sum(r.seconds for r in untraced)
                                     / len(untraced))
    per_op["trace.overhead_ratio"] = (per_op["trace.op_s"]
                                      / per_op["trace.untraced_op_s"])
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload.name}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "workload": workload.name, "seed": args.seed, "op": ops[0].key,
        "columns": ["name", "start_s", "end_s", "parent"],
        "spans": first_spans,
    }))
    return result(untraced + records, failed, wrong, {
        name: (per_op.get(name, 0.0), unit) for name, unit in tracing.PER_LAYER
    })


def result(records, failed, wrong, metrics) -> dict:
    return {
        "correct": wrong == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    os.environ.pop("SECULAR_THREADS", None)
    if args.probe:
        clock = SpeedClock()
        clock.start()
    try:
        # the program first, so that its import pays for numpy and scipy
        t0 = time.perf_counter()
        cli = import_cli()
        import_s = time.perf_counter() - t0
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"choose from {', '.join(WORKLOADS)}")
        workload = WORKLOADS[args.workload]
        if args.probe:
            probe(workload, args.seed, clock, t0)
            return 0
        with work_dir() as d:
            if args.trace:
                out = traced(cli, workload, args, d, import_s)
            else:
                out = end_to_end(cli, workload, args, d)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        if args.probe:
            # left running, the timer's signal would kill the exiting process
            clock.stop()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
