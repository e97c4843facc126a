"""Oracle-equality sweeps: every closed form checked against enumeration.

Each sweep returns a list of problem descriptions (empty means the sweep
passed) so callers can report the first counterexample. Every description
has the shape ``<sweep> <parameters>: <left> != <right>``, naming both sides.
Randomized sweeps take an explicit seed and are fully reproducible.

Three loops serve the sweeps: ``_compare`` (two counts per parameter case),
``_check_series`` (one genus series against its class) and the draw table
of ``sweep_lemmas``. Oracles, formulas, checkers and transforms are looked
up as module attributes when a sweep runs, never stored at import, so a
tracer or a test that rebinds them sees every call.
"""

from __future__ import annotations

import random
from math import factorial
from typing import Callable, Iterable, Iterator

from . import arrays, brute, formulas, transforms
from .arrays import SubstructureGamma, SubstructureOmega
from .exact import BinomialPoly, CycleCountVector, binomial, double_factorial


def gs_parameter_tuples(max_d: int) -> Iterator[tuple[int, int, int]]:
    """All (q1, q2, s) with s >= 1 and q1 + q2 + s <= max_d."""
    for d in range(1, max_d + 1):
        for s in range(1, d + 1):
            for q1 in range(d - s + 1):
                yield (q1, d - s - q1, s)


def _compare(sweep: str, cases: Iterable[dict], left: Callable, right: Callable) -> list[str]:
    """Every case (arguments by name, in call order) on which the two counts differ."""
    problems = []
    for case in cases:
        a, b = left(*case.values()), right(*case.values())
        if a != b:
            named = " ".join(f"{key}={value}" for key, value in case.items())
            problems.append(f"{sweep} {named}: {a} != {b}")
    return problems


def _check_series(where: str, counts: CycleCountVector, class_size: int, vertices: int,
                  series: BinomialPoly) -> list[str]:
    """One class's face tallies (counts.d pairs): class size, genus parity, closed form."""
    problems = []
    if counts.total() != class_size:
        problems.append(f"{where}: enumerated {counts.total()}, expected {class_size}")
    for L in range(1, counts.d + 2):
        # Euler: 2 - 2g = vertices - d + L, so vertices + d + L is even
        if counts.a(L) and (vertices + counts.d + L) % 2 != 0:
            problems.append(f"{where}: a_{L} = {counts.a(L)} violates parity")
    try:
        got = series.to_counts(counts.d)
    except ValueError as exc:  # a series with no valid tallies is a mismatch (exit 1), not a usage error
        return problems + [f"{where}: formula {exc}; brute {counts.tally()}"]
    if got != counts:
        problems.append(f"{where}: formula {got.tally()} != brute {counts.tally()}")
    return problems


# ----------------------------------------------------------------------
# Series sweeps
# ----------------------------------------------------------------------


def sweep_hz(max_q: int = 7) -> list[str]:
    """One-vertex series against enumeration, plus sum and parity invariants."""
    problems = []
    for q in range(1, max_q + 1):
        problems += _check_series(f"hz q={q}", brute.hz_counts_brute(q),
                                  double_factorial(2 * q - 1), 1, formulas.hz_series(q))
    return problems


def sweep_gs(max_d: int = 6) -> list[str]:
    """Two-vertex series against enumeration, plus sum and parity invariants."""
    problems = []
    for q1, q2, s in gs_parameter_tuples(max_d):
        class_size = (
            binomial(2 * q1 + s, s)
            * binomial(2 * q2 + s, s)
            * factorial(s)
            * double_factorial(2 * q1 - 1)
            * double_factorial(2 * q2 - 1)
        )
        problems += _check_series(f"gs q1={q1} q2={q2} s={s}", brute.gs_counts_brute(q1, q2, s),
                                  class_size, 2, formulas.gs_series(q1, q2, s))
    return problems


def sweep_gs_simplified(max_q: int = 5, max_s: int = 6) -> list[str]:
    """The reduced two-sum series must match the triple-sum series exactly."""
    cases = ({"q1": q1, "q2": q2, "s": s} for q1 in range(max_q + 1)
             for q2 in range(max_q + 1) for s in range(1, max_s + 1))
    return _compare("simplified", cases, formulas.gs_series_simplified, formulas.gs_series)


# ----------------------------------------------------------------------
# Array-count sweeps
# ----------------------------------------------------------------------


def _array_cases(max_d: int) -> Iterator[dict]:
    """Every (K, q1, q2, s) with q1 + q2 + s <= max_d and 1 <= K <= 2d."""
    for q1, q2, s in gs_parameter_tuples(max_d):
        for K in range(1, 2 * (q1 + q2 + s) + 1):
            yield {"K": K, "q1": q1, "q2": q2, "s": s}


def sweep_surjections(max_d: int = 4) -> list[str]:
    """Paired-surjection counts equal canonical-array counts for K <= 2d."""
    return _compare("surjections", _array_cases(max_d), brute.paired_surjection_count_brute,
                    brute.canonical_array_count_brute)


def sweep_series_from_surjections(max_d: int = 4) -> list[str]:
    """The binomial-basis series built from f_K equals the closed-form series."""
    def built(q1, q2, s):
        f = {K: brute.paired_surjection_count_brute(K, q1, q2, s)
             for K in range(1, 2 * (q1 + q2 + s) + 1)}
        return formulas.series_from_surjections(f)

    cases = ({"q1": q1, "q2": q2, "s": s} for q1, q2, s in gs_parameter_tuples(max_d))
    return _compare("series_from_surjections", cases, built, formulas.gs_series)


def sweep_canonical_from_vertical(max_d: int = 4) -> list[str]:
    """The vertical-to-canonical assembly equals direct canonical enumeration."""
    def assembled(K, q1, q2, s):
        return formulas.canonical_from_vertical(K, q1, q2, s, formulas.vertical_count_formula)

    return _compare("canonical_from_vertical", _array_cases(max_d), assembled,
                    brute.canonical_array_count_brute)


def sweep_vertical(max_K: int = 4, max_s: int = 5) -> list[str]:
    """Vertical-array closed form against enumeration, zero cases included."""
    cases = ({"K": K, "R1": R1, "R2": R2, "s": s} for K in range(1, max_K + 1)
             for R1 in range(1, K + 1) for R2 in range(1, K + 1) for s in range(1, max_s + 1))
    return _compare("vertical", cases, formulas.vertical_count_formula,
                    brute.vertical_array_count_brute)


def sweep_omega(max_K: int = 4, max_s: int = 5) -> list[str]:
    """Balanced-occupancy count formula against enumeration, all compositions."""
    cases = ({"substructure": SubstructureOmega(K, R1, R2, w)}
             for K in range(1, max_K + 1) for s in range(1, max_s + 1)
             for w in brute._compositions(s, K)
             for R1 in range(1, K + 1) for R2 in range(1, K + 1))
    return _compare("omega", cases, formulas.omega_count_formula, brute.omega_count_brute)


# ----------------------------------------------------------------------
# Random substructures
# ----------------------------------------------------------------------


def _random_nonempty_subset(rng: random.Random, K: int) -> frozenset[int]:
    return frozenset(rng.sample(range(K), rng.randint(1, K)))


def _top_up(rng: random.Random, w: list[int], s: int) -> tuple[int, ...]:
    """Add vertices to ``w``, each in a uniformly drawn column, until it holds s."""
    for _ in range(s - sum(w)):
        w[rng.randrange(len(w))] += 1
    return tuple(w)


def random_full_irreducible(
    rng: random.Random, max_K: int = 6, max_s: int = 7, branch: str | None = None
) -> SubstructureGamma:
    """Random irreducible substructure satisfying the full condition.

    ``branch`` steers which formula branch the instance lands in: "tight"
    builds instances with as many doubly-unmarked columns as vertices (count
    zero), "edge" aims for one vertex more than that, None is unconstrained.
    """
    while True:
        K = rng.randint(1, max_K)
        if branch == "tight":
            if K < 2:
                continue
            open_cols = frozenset(rng.sample(range(K), rng.randint(1, min(K - 1, max_s))))
            marked = frozenset(range(K)) - open_cols
            w = tuple(1 if j in open_cols else 0 for j in range(K))
            return SubstructureGamma((w, w), marked, marked, ())
        r1 = _random_nonempty_subset(rng, K)
        r2 = _random_nonempty_subset(rng, K)
        pool = [j for j in range(K) if j not in r1]
        rng.shuffle(pool)
        tails = pool[: rng.randint(0, len(pool))]
        heads = [j for j in range(K) if j not in r1 and j not in tails]
        if tails and not heads:
            continue
        phi = {t: rng.choice(heads) for t in tails}
        need1 = [j for j in range(K) if j not in r1 and j not in tails]
        need2 = [j for j in range(K) if j not in r2]
        minimum = max(len(need1), len(need2), 1)
        if branch == "edge":
            A = sum(1 for j in need1 if j not in r2)
            s = A + 1
            if s < minimum or s > max_s:
                continue
        else:
            if minimum > max_s:
                continue
            s = rng.randint(minimum, max_s)
        w1 = _top_up(rng, [1 if j in need1 else 0 for j in range(K)], s)
        w2 = _top_up(rng, [1 if j in need2 else 0 for j in range(K)], s)
        return SubstructureGamma((w1, w2), r1, r2, phi)


def random_balanced_noarrows(
    rng: random.Random, max_K: int = 5, max_s: int = 6
) -> SubstructureGamma:
    """Random arrow-free substructure with balanced occupancy.

    Empty columns and unmarked empty cells are allowed, so most instances
    fail the full condition somewhere.
    """
    K = rng.randint(1, max_K)
    r1 = _random_nonempty_subset(rng, K)
    r2 = _random_nonempty_subset(rng, K)
    s = rng.randint(1, max_s)
    w = _top_up(rng, [0] * K, s)
    return SubstructureGamma((w, w), r1, r2, ())


def _random_gamma(rng: random.Random, K: int, s: int, phi: dict[int, int],
                  r1: frozenset[int], r2: frozenset[int]) -> SubstructureGamma:
    w1 = _top_up(rng, [0] * K, s)
    w2 = _top_up(rng, [0] * K, s)
    return SubstructureGamma((w1, w2), r1, r2, phi)


def sweep_gamma(
    count: int = 200, seed: int = 0, max_K: int = 6, max_s: int = 7
) -> tuple[list[str], dict[str, int]]:
    """Random irreducible full substructures: formula against enumeration.

    Returns the problem list and a tally of how many instances landed in
    each formula branch.
    """
    rng = random.Random(seed)
    problems = []
    branches = {"zero": 0, "edge": 0, "general": 0}
    modes = ("tight", "edge", None, None)
    for i in range(count):
        g = random_full_irreducible(rng, max_K, max_s, branch=modes[i % len(modes)])
        tally = arrays.classify_columns(g)
        branch = (
            "zero" if g.s <= tally.A else "edge" if g.s == tally.A + 1 else "general"
        )
        branches[branch] += 1
        formula = formulas.gamma_count_formula(g)
        enumerated = brute.gamma_count_brute(g)
        if formula != enumerated:
            problems.append(f"gamma #{i} {g}: {formula} != {enumerated}")
    return problems, branches


def sweep_gamma_noarrows(count: int = 200, seed: int = 0) -> list[str]:
    """Random arrow-free substructures, non-full ones included."""
    rng = random.Random(seed)
    problems = []
    nonfull = 0
    for i in range(count):
        g = random_balanced_noarrows(rng)
        if not arrays.check_full(g):
            nonfull += 1
        formula = formulas.gamma_count_formula_noarrows(g)
        enumerated = brute.gamma_count_brute(g)
        if formula != enumerated:
            problems.append(f"gamma-noarrows #{i} {g}: {formula} != {enumerated}")
    if nonfull == 0:
        problems.append("gamma-noarrows: sweep produced no non-full instance")
    return problems


# ----------------------------------------------------------------------
# Lemma suite
# ----------------------------------------------------------------------


def _random_lemma_base(rng: random.Random) -> tuple[
    int, frozenset[int], frozenset[int], dict[int, int]
]:
    K = rng.randint(2, 5)
    r1 = _random_nonempty_subset(rng, K)
    r2 = _random_nonempty_subset(rng, K)
    phi: dict[int, int] = {}
    for j in range(K):
        if j not in r1 and rng.random() < 0.3:
            phi[j] = rng.randrange(K)
    return K, r1, r2, phi


# Each draw returns (substructure, forced slot pair or None, rewritten substructure).
_LemmaDraw = tuple[SubstructureGamma, tuple | None, SubstructureGamma]


def _draw_to_mark(rng: random.Random) -> _LemmaDraw:
    while True:
        K, r1, r2, phi = _random_lemma_base(rng)
        free = [j for j in range(K) if j not in r1]
        if free:
            X = rng.choice(free)
            phi[X] = rng.choice(sorted(r1))
            g = _random_gamma(rng, K, rng.randint(1, 6), phi, r1, r2)
            return g, None, transforms.arrow_simplify_to_mark(g, X)


def _draw_retarget(rng: random.Random) -> _LemmaDraw:
    while True:
        K, r1, r2, phi = _random_lemma_base(rng)
        free = [j for j in range(K) if j not in r1]
        if len(free) >= 2:
            X, Y = rng.sample(free, 2)
            phi[X] = Y
            phi[Y] = rng.randrange(K)  # Z may equal X: the two-cycle case
            g = _random_gamma(rng, K, rng.randint(1, 6), phi, r1, r2)
            return g, None, transforms.arrow_simplify_retarget(g, X)


def _draw_pointing(rng: random.Random) -> _LemmaDraw:
    while True:
        K, r1, r2, phi = _random_lemma_base(rng)
        g = _random_gamma(rng, K, rng.randint(2, 6), phi, r1, r2)
        w1, w2 = g.w
        crit = arrays.critical_vertices(g)
        xs = [j for j in range(K) if (1, j) in crit]
        # cells with a non-critical vertex: more vertices than critical ones
        ys = [j for j in range(K) if w2[j] > ((2, j) in crit)]
        choices = [(x, y) for x in xs for y in ys if x != y]
        if choices:
            X, Y = rng.choice(choices)
            pair = (X, w1[X] - 1), (Y, w2[Y] - 1 if Y in r2 else 0)
            return g, pair, transforms.column_pointing(g, X, Y)


def _draw_merging(rng: random.Random) -> _LemmaDraw:
    """A full substructure with a critical pair in distinct columns.

    K <= 5 keeps the lower bound of s, one vertex per column that needs one,
    below its cap of 6.
    """
    while True:
        K, r1, r2, phi = _random_lemma_base(rng)
        need1 = [j for j in range(K) if j not in r1 and j not in phi]
        need2 = [j for j in range(K) if j not in r2]
        s = rng.randint(max(len(need1), len(need2), 1), 6)
        w1 = _top_up(rng, [1 if j in need1 else 0 for j in range(K)], s)
        w2 = _top_up(rng, [1 if j in need2 else 0 for j in range(K)], s)
        g = SubstructureGamma((w1, w2), r1, r2, phi)
        crit = arrays.critical_vertices(g)
        xs = [j for j in range(K) if (1, j) in crit]
        ys = [j for j in range(K) if (2, j) in crit]
        choices = [(x, y) for x in xs for y in ys if x != y]
        if choices and arrays.check_full(g):
            X, Y = rng.choice(choices)
            return g, ((X, w1[X] - 1), (Y, w2[Y] - 1)), transforms.column_merging(g, X, Y)


def sweep_lemmas(count: int = 100, seed: int = 0) -> list[str]:
    """Count preservation and condition biconditionals for the four rewrites.

    Column pointing and merging preserve the count restricted to the forced
    slot pair. Merging draws only full substructures, so its rewrite must be
    full; the other rewrites must keep each listed condition's status.
    """
    rng = random.Random(seed)
    problems = []
    kept = ("balance", "nonempty", "full")
    for lemma, draw, conditions in (
        ("to_mark", _draw_to_mark, kept),
        ("retarget", _draw_retarget, kept),
        ("pointing", _draw_pointing, kept[1:]),
        ("merging", _draw_merging, ()),
    ):
        for i in range(count):
            g, pair, out = draw(rng)
            before = (brute.gamma_count_brute(g) if pair is None
                      else brute.gamma_count_brute_with_pair(g, *pair))
            after = brute.gamma_count_brute(out)
            failed = [f"count {before} != {after}"] if before != after else []
            for name in conditions:
                check = getattr(arrays, f"check_{name}")
                held, holds = check(g), check(out)
                if held != holds:
                    failed.append(f"{name} {held} != {holds}")
            if lemma == "merging" and not arrays.check_full(out):
                failed.append("full True != False")
            if failed:  # substructure reprs are too slow to build for every draw
                where = f"{lemma} #{i} {g}" + (f" pair={pair}" if pair else "") + f" -> {out}"
                problems += [f"{where}: {what}" for what in failed]
    return problems


SUITES = (
    "hz",
    "gs",
    "surjections",
    "vertical",
    "gamma",
    "omega",
    "lemmas",
)


def run_suite(name: str, max_d: int = 4, seed: int = 0) -> list[str]:
    """Run one named verification suite scaled by ``max_d``."""
    if name == "hz":
        return sweep_hz(max_q=max_d)
    if name == "gs":
        return sweep_gs(max_d=max_d) + sweep_gs_simplified(
            max_q=max(0, max_d - 1), max_s=max_d
        )
    if name == "surjections":
        return sweep_surjections(max_d=max_d) + sweep_series_from_surjections(max_d=max_d)
    if name == "vertical":
        return sweep_vertical(max_K=4, max_s=max_d + 1) + sweep_canonical_from_vertical(
            max_d=max_d
        )
    if name == "gamma":
        problems, branches = sweep_gamma(count=200, seed=seed)
        if 0 in branches.values():
            problems.append(f"gamma: not every formula branch was exercised: {branches}")
        return problems + sweep_gamma_noarrows(count=200, seed=seed)
    if name == "omega":
        return sweep_omega(max_K=4, max_s=max_d + 1)
    if name == "lemmas":
        return sweep_lemmas(count=100, seed=seed)
    raise ValueError(f"unknown suite {name!r}")
