"""The benchmark workloads: seeded inputs, one pass, and its correctness gate.

Every workload drives mapenum through public names only: ``mapenum.verify``
sweeps, the oracles and closed forms re-exported by ``mapenum``, and
``mapenum.cli.main``. Names are looked up when an operation runs, so a traced
pass sees the wrapped functions.

Workloads and why they were chosen:

- series-oracle: the one- and two-vertex series sweeps plus two 14-element
  two-row tallies. Nearly all time is brute's pairing stream and cycle tally,
  over both the materialized (n <= 12) and the streamed (n = 14) paths.
- array-oracle: every (q1, q2, s) with d <= 4 and K <= d + 1 (85 cases),
  checking paired surjections, canonical arrays and the vertical assembly
  against each other. Time is canonical-array enumeration: many small
  within-row pairing streams instead of one long one.
- substructure-sweep: random substructure, lemma and balanced-occupancy
  sweeps on fixed instance seeds. The only workload that runs transforms and
  the arrays condition checks; brute time is permutation matchings, not
  pairing streams.
- formula-queries: one closed-loop client issuing CLI queries in process.
  Time is cli, formulas and exact; brute stays idle, so the prediction for
  any oracle-layer change is no change here.

Sizes are fixed; ``--seed`` picks the random inputs of formula-queries and
the visiting order of every workload.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable

import mapenum
import mapenum.cli
import mapenum.verify

Clock = Callable[[], float]

SERIES_MAX_Q = 7
SERIES_MAX_D = 6
SERIES_EXTRA = ((3, 3, 1), (0, 0, 7))  # two-row tallies over 14 elements
ARRAY_MAX_D = 4
GAMMA_COUNT = 600
LEMMA_COUNT = 300
# Fixed instance seeds: with seed-drawn instances the pass cost moved 5-8%
# (IQR/median over 10 seeds) against 2-3% between repeats of one seed.
SUBSTRUCTURE_SEEDS = (0, 1, 2)
OMEGA_MAX = 4
QUERY_GS_PER_D = 4  # gs queries per d = 1..QUERY_MAX_D
QUERY_MAX_D = 24
QUERY_HZ = 48
QUERY_MAX_Q = 120


def double_factorial(m: int) -> int:
    return math.prod(range(m, 0, -2))


def class_size(q1: int, q2: int, s: int) -> int:
    """Pairings with q_i within-row pairs and s mixed pairs, by direct count."""
    p1, p2 = 2 * q1 + s, 2 * q2 + s
    return (
        math.comb(p1, s) * math.comb(p2, s) * math.factorial(s)
        * double_factorial(2 * q1 - 1) * double_factorial(2 * q2 - 1)
    )


@dataclass
class Operation:
    """One checked unit of work: ``run(*args)`` returns its problem list."""

    label: str
    cases: int
    run: Callable[..., list[str]]
    args: tuple
    queries: int = 0


@dataclass
class PassResult:
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    query_ms: list[float] = field(default_factory=list)


# ----------------------------------------------------------------------
# Operations
# ----------------------------------------------------------------------


def _sweep(name: str, *args) -> list[str]:
    result = getattr(mapenum.verify, name)(*args)
    if not isinstance(result, tuple):
        return list(result)
    problems, branches = result  # sweep_gamma also tallies its formula branches
    missed = [b for b, n in branches.items() if n == 0]
    if missed:
        return list(problems) + [f"{name}: formula branches not exercised: {missed}"]
    return list(problems)


def _gs_oracle(q1: int, q2: int, s: int) -> list[str]:
    counts = mapenum.gs_counts_brute(q1, q2, s)
    problems = []
    if counts.total() != class_size(q1, q2, s):
        problems.append(f"gs {q1},{q2},{s}: {counts.total()} pairings, expected {class_size(q1, q2, s)}")
    brute = counts.to_poly().integer_coeffs()
    formula = mapenum.gs_series(q1, q2, s).to_monomial().integer_coeffs()
    if brute != formula:
        problems.append(f"gs {q1},{q2},{s}: formula {formula} != brute {brute}")
    return problems


def _array_case(K: int, q1: int, q2: int, s: int) -> list[str]:
    f = mapenum.paired_surjection_count_brute(K, q1, q2, s)
    c = mapenum.canonical_array_count_brute(K, q1, q2, s)
    v = mapenum.canonical_from_vertical(K, q1, q2, s, mapenum.vertical_count_formula)
    if f == c == v:
        return []
    return [f"array {q1},{q2},{s} K={K}: surjections {f}, canonical {c}, vertical {v}"]


def _cli(argv: list[str], latencies: list[float], clock: Clock) -> tuple[int, str]:
    out = io.StringIO()
    start = clock()
    with contextlib.redirect_stdout(out):
        code = mapenum.cli.main(argv)
    latencies.append((clock() - start) * 1e3)
    return code, out.getvalue()


def _gs_query(q1: int, q2: int, s: int, latencies: list[float], clock: Clock) -> list[str]:
    base = ["gs", "--q1", str(q1), "--q2", str(q2), "--s", str(s), "--method"]
    code1, formula = _cli(base + ["formula"], latencies, clock)
    code2, simplified = _cli(base + ["simplified"], latencies, clock)
    where = f"gs --q1 {q1} --q2 {q2} --s {s}"
    if code1 != 0 or code2 != 0:
        return [f"{where}: exit codes {code1}, {code2}"]
    if formula != simplified:
        return [f"{where}: formula and simplified output differ"]
    total = sum(int(c) for c in json.loads(formula)["coeffs"].values())
    if total != class_size(q1, q2, s):
        return [f"{where}: coefficients sum to {total}, expected {class_size(q1, q2, s)}"]
    return []


def _hz_query(q: int, latencies: list[float], clock: Clock) -> list[str]:
    code, out = _cli(["hz", "--q", str(q), "--by-genus"], latencies, clock)
    if code != 0:
        return [f"hz --q {q}: exit code {code}"]
    total = sum(int(c) for c in json.loads(out)["genus_counts"].values())
    if total != double_factorial(2 * q - 1):
        return [f"hz --q {q}: genus counts sum to {total}, expected (2q-1)!!"]
    return []


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def _omega_cases(max_k: int, max_s: int) -> int:
    return sum(
        math.comb(s + K - 1, K - 1) * K * K
        for K in range(1, max_k + 1)
        for s in range(1, max_s + 1)
    )


def make_inputs(workload: str, seed: int) -> list[Operation]:
    """The operations of one pass, in visiting order; the same seed gives the same list."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "series-oracle":
        ops = [
            Operation(f"sweep_hz max_q={SERIES_MAX_Q}", SERIES_MAX_Q, _sweep, ("sweep_hz", SERIES_MAX_Q)),
            Operation(f"sweep_gs max_d={SERIES_MAX_D}", len(list(mapenum.verify.gs_parameter_tuples(SERIES_MAX_D))), _sweep,
                      ("sweep_gs", SERIES_MAX_D)),
        ]
        ops += [Operation(f"gs_counts_brute{t}", 1, _gs_oracle, t) for t in SERIES_EXTRA]
    elif workload == "array-oracle":
        ops = [
            Operation(f"array {q1},{q2},{s} K={K}", 1, _array_case, (K, q1, q2, s))
            for q1, q2, s in mapenum.verify.gs_parameter_tuples(ARRAY_MAX_D)
            for K in range(1, q1 + q2 + s + 2)
        ]
    elif workload == "substructure-sweep":
        s1, s2, s3 = SUBSTRUCTURE_SEEDS
        ops = [
            Operation(f"sweep_gamma seed={s1}", GAMMA_COUNT, _sweep, ("sweep_gamma", GAMMA_COUNT, s1)),
            Operation(f"sweep_gamma_noarrows seed={s2}", GAMMA_COUNT, _sweep,
                      ("sweep_gamma_noarrows", GAMMA_COUNT, s2)),
            Operation(f"sweep_lemmas seed={s3}", 4 * LEMMA_COUNT, _sweep, ("sweep_lemmas", LEMMA_COUNT, s3)),
            Operation(f"sweep_omega max_K={OMEGA_MAX}", _omega_cases(OMEGA_MAX, OMEGA_MAX), _sweep,
                      ("sweep_omega", OMEGA_MAX, OMEGA_MAX)),
        ]
    elif workload == "formula-queries":
        ops = []
        # Stratified: every d gets the same number of gs queries, spread over
        # the range of s, and every stretch of q the same number of hz
        # queries, so the total work varies little from seed to seed.
        for d in range(1, QUERY_MAX_D + 1):
            for j in range(QUERY_GS_PER_D):
                s = 1 + int((j + rng.random()) * d / QUERY_GS_PER_D)
                q1 = rng.randint(0, d - s)
                q2 = d - s - q1
                ops.append(Operation(f"gs {q1},{q2},{s}", 1, _gs_query, (q1, q2, s), queries=2))
        width = QUERY_MAX_Q / QUERY_HZ
        for i in range(QUERY_HZ):
            q = 1 + int((i + rng.random()) * width)
            ops.append(Operation(f"hz {q}", 1, _hz_query, (q,), queries=1))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def verify_cases(ops: list[Operation]) -> int:
    """Cases checked inside ``mapenum.verify`` sweeps in one pass."""
    return sum(op.cases for op in ops if op.run is _sweep)


def run_pass(ops: list[Operation], clock: Clock = time.perf_counter) -> PassResult:
    """Run every operation once, timing the whole pass and each CLI query by ``clock``."""
    result = PassResult()
    start = clock()
    for op in ops:
        args = op.args + (result.query_ms, clock) if op.queries else op.args
        try:
            problems = op.run(*args)
        except Exception as exc:  # a crash is a failed check; keep measuring
            problems = [f"{op.label}: {type(exc).__name__}: {exc}"]
        result.attempted += op.cases
        if problems:
            result.failed += min(len(problems), op.cases)
            result.failures.extend(problems[: max(0, 5 - len(result.failures))])
    result.wall_s = clock() - start
    return result
