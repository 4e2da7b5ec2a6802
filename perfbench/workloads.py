"""The four workloads: one round of ops each, built from a seed.

An op is a short sequence of `secular` CLI calls whose outputs are
checked together.  A round is the list of ops a run repeats whole; the
seed fixes the round, so the same seed gives the same inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import checks

MU_EM = 0.012150585


@dataclass(frozen=True)
class Op:
    key: str  # names the op's inputs; equal keys mean equal inputs
    calls: tuple[tuple[str, ...], ...]
    info: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, Path], list[Op]]
    # reference(op) is computed from the op's inputs alone, once per key;
    # check(reference, op outputs) lists the problems found
    reference: Callable[[Op], object]
    check: Callable[[object, list[str]], list[str]]


def _interleaved(ops: list[Op], seed: int) -> list[Op]:
    """The round in a seeded random order.

    The machine's speed drifts within a run.  In build order, ops of one
    kind (say, the smallest mu) would all run in one stretch of it.
    """
    ops = list(ops)
    random.Random(seed).shuffle(ops)
    return ops


# -- homoclinic: the README's manifolds run --------------------------------------

MANIFOLDS = dict(mu=MU_EM, C=3.1882812173139823,
                 fixed=(0.8359151287720265, 0.0), steps=6, seeds=40)


def _homoclinic(seed: int, workdir: Path) -> list[Op]:
    m = MANIFOLDS
    argv = ("section", "manifolds", "--mu", repr(m["mu"]), "--C", repr(m["C"]),
            "--fixed", ",".join(repr(v) for v in m["fixed"]),
            "--steps", str(m["steps"]), "--seeds", str(m["seeds"]))
    # the seed picks which polyline points the check flies again
    info = dict(m, samples=5, check_seed=seed)
    return [Op("manifolds", (argv,), info)]


# -- floquet_scan: the README's Hill grid ----------------------------------------

HILL_GRID = "0.5:1.5:21,0:0.4:9"


def _floquet_scan(seed: int, workdir: Path) -> list[Op]:
    argv = ("--format", "csv", "floquet", "--system", "hill",
            "--grid", HILL_GRID)
    return [Op("hill-grid", (argv,), {"grid": HILL_GRID})]


# -- exact_certify: a seeded corpus of exact symmetric matrices --------------------

DIMS = range(2, 7)
RANDOM_PER_DIM = 12  # entries uniform in [-4, 4]
PLANTED_PER_DIM = 4  # H D H with a repeated eigenvalue in D


def _random_symmetric(rng: random.Random, n: int) -> list[list[Fraction]]:
    M = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i):
            M[i][j] = M[j][i]
    return M


def _planted_symmetric(rng: random.Random, n: int) -> list[list[Fraction]]:
    """H D H, H a rational Householder reflection, D with a repeat."""
    eigs = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
    i, j = rng.sample(range(n), 2)
    eigs[j] = eigs[i]
    v = [Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(n)]
    vv = sum(x * x for x in v)
    H = [[Fraction(int(r == c)) - 2 * v[r] * v[c] / vv for c in range(n)]
         for r in range(n)]
    return [[sum(H[r][k] * eigs[k] * H[k][c] for k in range(n))
             for c in range(n)] for r in range(n)]


def exact_corpus(seed: int) -> list[list[list[Fraction]]]:
    rng = random.Random(seed)
    mats = []
    for n in DIMS:
        mats += [_random_symmetric(rng, n) for _ in range(RANDOM_PER_DIM)]
        mats += [_planted_symmetric(rng, n) for _ in range(PLANTED_PER_DIM)]
    return mats


EXACT_COMMANDS = ("charpoly", "inertia", "hermite-count", "interlace")


def _exact_certify(seed: int, workdir: Path) -> list[Op]:
    """Each op holds one matrix of each dimension, so op times are alike.

    With one matrix per op, op_p50_s was the median of five bands of op
    times, one per dimension, and it jumped between runs.  Op j takes
    matrix (j + 3i) mod 16 of dimension band i, which spreads the planted
    matrices (the last 4 of each band) across the ops.
    """
    per_dim = RANDOM_PER_DIM + PLANTED_PER_DIM
    corpus = exact_corpus(seed)
    rows, paths = [], []
    for k, M in enumerate(corpus):
        rows.append([[f"{x.numerator}/{x.denominator}" for x in r] for r in M])
        paths.append(workdir / f"matrix-{k:03d}.json")
        paths[-1].write_text(json.dumps({"rows": rows[-1]}))
    ops = []
    for j in range(per_dim):
        members = [i * per_dim + (j + 3 * i) % per_dim for i in range(len(DIMS))]
        calls = tuple((cmd, "--matrix", str(paths[k]))
                      for k in members for cmd in EXACT_COMMANDS)
        ops.append(Op(f"matrices-{j:02d}", calls,
                      {"rows": [rows[k] for k in members]}))
    return _interleaved(ops, seed)


# -- lyapunov_orbit: libration points, then corrected orbits ------------------------

CASES = 10
MU_RANGE = (0.005, 0.05)
AMPLITUDE_RANGE = (2e-4, 4e-3)  # sampled log-uniformly
POINTS = ("L1", "L2")


def lyapunov_cases(seed: int) -> list[tuple[float, tuple[float, ...]]]:
    """Latin-hypercube cases: mu, and one amplitude per point in POINTS.

    There is one mu in each tenth of MU_RANGE, and for each point one
    amplitude in each tenth of AMPLITUDE_RANGE, paired at random.
    Stratifying keeps the round's mix of cheap and dear corrections the
    same from seed to seed, so the seed moves the op times little.
    """
    rng = random.Random(seed)
    lo, hi = AMPLITUDE_RANGE
    orders = [rng.sample(range(CASES), CASES) for _ in POINTS]
    cases = []
    for i in range(CASES):
        mu = MU_RANGE[0] + (MU_RANGE[1] - MU_RANGE[0]) * (i + rng.random()) / CASES
        amps = tuple(lo * (hi / lo) ** ((order[i] + rng.random()) / CASES)
                     for order in orders)
        cases.append((mu, amps))
    return cases


def _lyapunov_orbit(seed: int, workdir: Path) -> list[Op]:
    ops = []
    for mu, amps in lyapunov_cases(seed):
        calls = (("pcr3bp", "lagrange", "--mu", repr(mu)),) + tuple(
            ("pcr3bp", "orbit", "--mu", repr(mu), "--point", point,
             "--seed-amplitude", repr(amp)) for point, amp in zip(POINTS, amps))
        ops.append(Op(f"mu-{mu!r}", calls, {"mu": mu, "amplitudes": amps}))
    return _interleaved(ops, seed)


WORKLOADS = {w.name: w for w in (
    Workload("homoclinic", _homoclinic, lambda op: op.info,
             checks.check_homoclinic),
    Workload("floquet_scan", _floquet_scan,
             lambda op: checks.hill_reference(op.info["grid"]),
             checks.check_floquet),
    Workload("exact_certify", _exact_certify,
             lambda op: [checks.exact_reference(r) for r in op.info["rows"]],
             checks.check_exact),
    Workload("lyapunov_orbit", _lyapunov_orbit, lambda op: op.info,
             checks.check_lyapunov),
)}
