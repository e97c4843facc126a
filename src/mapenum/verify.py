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

# The draws call the generator through _randbelow, _sample and _shuffle,
# which make the very getrandbits calls of random.Random's randrange,
# randint, choice, sample and shuffle, so every instance and the generator
# state are what those methods give; the loops of _top_up and _sample run
# the getrandbits loop inline. The draws build with
# SubstructureGamma._unchecked: each makes rows of plain ints with equal
# sums, non-empty mark sets within 0..K-1 and arrow tails outside r1, so
# the constructor's checks would pass. Which cells are open and critical is
# decided in arrays alone: random_full_irreducible and the merging draw
# give each open cell (arrays._open_columns) a vertex before the top-up,
# and the pointing and merging draws narrow a candidate's open columns to
# its critical ones (arrays._occupied_columns), to build only the candidate
# they keep. The rewrites of the lemma suite build through the constructor.


def _randbelow(rng: random.Random, n: int) -> int:
    """``rng.randrange(n)`` for n >= 1, with the same draws: the loop of
    ``random.Random._randbelow_with_getrandbits``, which draws n.bit_length()
    bits until the value is below n. ``rng.randint(a, b)`` is
    ``a + _randbelow(rng, b - a + 1)`` and ``rng.choice(seq)`` is
    ``seq[_randbelow(rng, len(seq))]``."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        if n < 1:  # an empty range rejects every value; only then is it tested
            raise ValueError(f"empty range: no integer in 0..{n - 1}")
        r = rng.getrandbits(k)
    return r


def _sample(rng: random.Random, population, k: int) -> list:
    """``rng.sample(population, k)``, with the same draws. On at most 21
    items ``random.sample`` picks each of its k entries with one
    ``_randbelow`` over the items not yet picked, moving the last of those
    into the gap; this does the same without its per-call set-up."""
    n = len(population)
    if n > 21 or not 0 <= k <= n:  # sample may then draw through a set, or it raises
        return rng.sample(population, k)
    getrandbits = rng.getrandbits
    pool = list(population)
    picked = []
    for left in range(n, n - k, -1):
        bits = left.bit_length()
        j = getrandbits(bits)
        while j >= left:
            j = getrandbits(bits)
        picked.append(pool[j])
        pool[j] = pool[left - 1]
    return picked


def _shuffle(rng: random.Random, x: list) -> None:
    """``rng.shuffle(x)``, with the same draws: from the last entry back,
    swap each with one drawn from it and the entries before it."""
    for i in range(len(x) - 1, 0, -1):
        j = _randbelow(rng, i + 1)
        x[i], x[j] = x[j], x[i]


def _random_nonempty_subset(rng: random.Random, K: int) -> frozenset[int]:
    """``frozenset(rng.sample(range(K), rng.randint(1, K)))``, with the same draws."""
    return frozenset(_sample(rng, range(K), 1 + _randbelow(rng, K)))


def _top_up(rng: random.Random, w: list[int], s: int) -> tuple[int, ...]:
    """Add vertices to ``w``, each in a uniformly drawn column (the draw of
    ``rng.randrange(len(w))``), until it holds s."""
    n = len(w)
    bits = n.bit_length()
    getrandbits = rng.getrandbits
    for _ in range(s - sum(w)):
        j = getrandbits(bits)
        while j >= n:
            j = getrandbits(bits)
        w[j] += 1
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
        K = 1 + _randbelow(rng, max_K)
        if branch == "tight":
            if K < 2:
                continue
            unmarked = frozenset(_sample(rng, range(K), 1 + _randbelow(rng, min(K - 1, max_s))))
            marked = frozenset(range(K)) - unmarked
            w = tuple(1 if j in unmarked else 0 for j in range(K))
            return SubstructureGamma._unchecked((w, w), marked, marked, {})
        r1 = _random_nonempty_subset(rng, K)
        r2 = _random_nonempty_subset(rng, K)
        pool = [j for j in range(K) if j not in r1]
        _shuffle(rng, pool)
        tails = pool[: _randbelow(rng, len(pool) + 1)]
        open1, open2 = arrays._open_columns(K, r1, r2, tails)
        # irreducible: every head sits in an open row-1 cell
        if tails and not open1:
            continue
        phi = {t: open1[_randbelow(rng, len(open1))] for t in tails}
        minimum = max(len(open1), len(open2), 1)
        if branch == "edge":
            # each open cell gets a vertex below, so these are the critical columns
            s = arrays._count_A((open1, open2)) + 1
            if s < minimum or s > max_s:
                continue
        else:
            if minimum > max_s:
                continue
            s = minimum + _randbelow(rng, max_s - minimum + 1)
        w1 = _top_up(rng, [1 if j in open1 else 0 for j in range(K)], s)
        w2 = _top_up(rng, [1 if j in open2 else 0 for j in range(K)], s)
        return SubstructureGamma._unchecked((w1, w2), r1, r2, phi)


def random_balanced_noarrows(
    rng: random.Random, max_K: int = 5, max_s: int = 6
) -> SubstructureGamma:
    """Random arrow-free substructure with balanced occupancy.

    Empty columns and unmarked empty cells are allowed, so most instances
    fail the full condition somewhere.
    """
    K = 1 + _randbelow(rng, max_K)
    r1 = _random_nonempty_subset(rng, K)
    r2 = _random_nonempty_subset(rng, K)
    s = 1 + _randbelow(rng, max_s)
    w = _top_up(rng, [0] * K, s)
    return SubstructureGamma._unchecked((w, w), r1, r2, {})


def _random_gamma(rng: random.Random, K: int, s: int, phi: dict[int, int],
                  r1: frozenset[int], r2: frozenset[int]) -> SubstructureGamma:
    w1 = _top_up(rng, [0] * K, s)
    w2 = _top_up(rng, [0] * K, s)
    return SubstructureGamma._unchecked((w1, w2), r1, r2, phi)


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
        A = arrays._count_A(g._crit)
        branch = "zero" if g.s <= A else "edge" if g.s == A + 1 else "general"
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
    K = 2 + _randbelow(rng, 4)
    r1 = _random_nonempty_subset(rng, K)
    r2 = _random_nonempty_subset(rng, K)
    phi: dict[int, int] = {}
    for j in range(K):
        if j not in r1 and rng.random() < 0.3:
            phi[j] = _randbelow(rng, K)
    return K, r1, r2, phi


# Each draw returns (substructure, forced slot pair or None, rewritten substructure).
_LemmaDraw = tuple[SubstructureGamma, tuple | None, SubstructureGamma]


def _draw_to_mark(rng: random.Random) -> _LemmaDraw:
    while True:
        K, r1, r2, phi = _random_lemma_base(rng)
        free = [j for j in range(K) if j not in r1]
        if free:
            X = free[_randbelow(rng, len(free))]
            marked = sorted(r1)
            phi[X] = marked[_randbelow(rng, len(marked))]
            g = _random_gamma(rng, K, 1 + _randbelow(rng, 6), phi, r1, r2)
            return g, None, transforms.arrow_simplify_to_mark(g, X)


def _draw_retarget(rng: random.Random) -> _LemmaDraw:
    while True:
        K, r1, r2, phi = _random_lemma_base(rng)
        free = [j for j in range(K) if j not in r1]
        if len(free) >= 2:
            X, Y = _sample(rng, free, 2)
            phi[X] = Y
            phi[Y] = _randbelow(rng, K)  # Z may equal X: the two-cycle case
            g = _random_gamma(rng, K, 1 + _randbelow(rng, 6), phi, r1, r2)
            return g, None, transforms.arrow_simplify_retarget(g, X)


def _draw_pointing(rng: random.Random) -> _LemmaDraw:
    while True:
        K, r1, r2, phi = _random_lemma_base(rng)
        s = 2 + _randbelow(rng, 5)
        w1 = _top_up(rng, [0] * K, s)
        w2 = _top_up(rng, [0] * K, s)
        xs, crit2 = arrays._occupied_columns((w1, w2), arrays._open_columns(K, r1, r2, phi))
        # cells with a non-critical vertex: more vertices than critical ones
        ys = [j for j in range(K) if w2[j] > (j in crit2)]
        choices = [(x, y) for x in xs for y in ys if x != y]
        if choices:
            g = SubstructureGamma._unchecked((w1, w2), r1, r2, phi)
            X, Y = choices[_randbelow(rng, len(choices))]
            pair = (X, w1[X] - 1), (Y, w2[Y] - 1 if Y in r2 else 0)
            return g, pair, transforms.column_pointing(g, X, Y)


def _draw_merging(rng: random.Random) -> _LemmaDraw:
    """A full substructure with a critical pair in distinct columns.

    Each open cell gets one vertex before the top-up, so every draw is full
    and is rejected only when no critical pair sits in distinct columns;
    ``transforms.column_merging`` still checks the condition, and
    ``sweep_lemmas`` that the rewrite keeps it. K <= 5 keeps the lower bound
    of s, one vertex per column that needs one, below its cap of 6.
    """
    while True:
        K, r1, r2, phi = _random_lemma_base(rng)
        open_ = arrays._open_columns(K, r1, r2, phi)
        low = max(len(open_[0]), len(open_[1]), 1)
        s = low + _randbelow(rng, 6 - low + 1)
        w1 = _top_up(rng, [1 if j in open_[0] else 0 for j in range(K)], s)
        w2 = _top_up(rng, [1 if j in open_[1] else 0 for j in range(K)], s)
        xs, ys = arrays._occupied_columns((w1, w2), open_)
        choices = [(x, y) for x in xs for y in ys if x != y]
        if choices:
            g = SubstructureGamma._unchecked((w1, w2), r1, r2, phi)
            X, Y = choices[_randbelow(rng, len(choices))]
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
