"""Oracle-equality sweeps: every closed form checked against enumeration.

Each sweep returns a list of problem descriptions (empty means the sweep
passed) so callers can report the first counterexample. Randomized sweeps
take an explicit seed and are fully reproducible.
"""

from __future__ import annotations

import random
from math import factorial
from typing import Iterator

from . import brute
from .arrays import (
    SubstructureGamma,
    SubstructureOmega,
    check_balance,
    check_full,
    check_nonempty,
    classify_columns,
    critical_vertices,
)
from .exact import binomial, double_factorial
from .formulas import (
    canonical_from_vertical,
    gamma_count_formula,
    gamma_count_formula_noarrows,
    gs_series,
    gs_series_simplified,
    hz_series,
    omega_count_formula,
    series_from_surjections,
    vertical_count_formula,
)
from .transforms import (
    arrow_simplify_retarget,
    arrow_simplify_to_mark,
    column_merging,
    column_pointing,
)


def gs_parameter_tuples(max_d: int) -> Iterator[tuple[int, int, int]]:
    """All (q1, q2, s) with s >= 1 and q1 + q2 + s <= max_d."""
    for d in range(1, max_d + 1):
        for s in range(1, d + 1):
            for q1 in range(d - s + 1):
                yield (q1, d - s - q1, s)


# ----------------------------------------------------------------------
# Series sweeps
# ----------------------------------------------------------------------


def sweep_hz(max_q: int = 7) -> list[str]:
    """One-vertex series against enumeration, plus sum and parity invariants."""
    problems = []
    for q in range(1, max_q + 1):
        counts = brute.hz_counts_brute(q)
        if counts.total() != double_factorial(2 * q - 1):
            problems.append(f"hz q={q}: enumerated {counts.total()} pairings, "
                            f"expected {double_factorial(2 * q - 1)}")
        for L in range(1, q + 2):
            if counts.a(L) and (L - (q + 1)) % 2 != 0:
                problems.append(f"hz q={q}: a_{L} = {counts.a(L)} violates parity")
        expected = counts.to_poly().integer_coeffs()
        got = hz_series(q).to_monomial().integer_coeffs()
        if expected != got:
            problems.append(f"hz q={q}: formula {got} != brute {expected}")
    return problems


def sweep_gs(max_d: int = 6) -> list[str]:
    """Two-vertex series against enumeration, plus sum and parity invariants."""
    problems = []
    for q1, q2, s in gs_parameter_tuples(max_d):
        d = q1 + q2 + s
        p1, p2 = 2 * q1 + s, 2 * q2 + s
        counts = brute.gs_counts_brute(q1, q2, s)
        class_size = (
            binomial(p1, s)
            * binomial(p2, s)
            * factorial(s)
            * double_factorial(2 * q1 - 1)
            * double_factorial(2 * q2 - 1)
        )
        if counts.total() != class_size:
            problems.append(
                f"gs {q1},{q2},{s}: enumerated {counts.total()}, expected {class_size}"
            )
        for L in range(1, d + 2):
            if counts.a(L) and (L - d) % 2 != 0:
                problems.append(f"gs {q1},{q2},{s}: a_{L} = {counts.a(L)} violates parity")
        expected = counts.to_poly().integer_coeffs()
        got = gs_series(q1, q2, s).to_monomial().integer_coeffs()
        if expected != got:
            problems.append(f"gs {q1},{q2},{s}: formula {got} != brute {expected}")
    return problems


def sweep_gs_simplified(max_q: int = 5, max_s: int = 6) -> list[str]:
    """The reduced two-sum series must match the triple-sum series exactly."""
    problems = []
    for q1 in range(max_q + 1):
        for q2 in range(max_q + 1):
            for s in range(1, max_s + 1):
                full = gs_series(q1, q2, s)
                reduced = gs_series_simplified(q1, q2, s)
                if full != reduced:
                    problems.append(
                        f"simplified {q1},{q2},{s}: {reduced.coeffs} != {full.coeffs}"
                    )
    return problems


# ----------------------------------------------------------------------
# Array-count sweeps
# ----------------------------------------------------------------------


def sweep_surjections(max_d: int = 4) -> list[str]:
    """Paired-surjection counts equal canonical-array counts for K <= 2d."""
    problems = []
    for q1, q2, s in gs_parameter_tuples(max_d):
        d = q1 + q2 + s
        for K in range(1, 2 * d + 1):
            f = brute.paired_surjection_count_brute(K, q1, q2, s)
            c = brute.canonical_array_count_brute(K, q1, q2, s)
            if f != c:
                problems.append(f"surjections {q1},{q2},{s} K={K}: f={f} != c={c}")
    return problems


def sweep_series_from_surjections(max_d: int = 4) -> list[str]:
    """The binomial-basis series built from f_K equals the closed-form series."""
    problems = []
    for q1, q2, s in gs_parameter_tuples(max_d):
        d = q1 + q2 + s
        f = {
            K: brute.paired_surjection_count_brute(K, q1, q2, s)
            for K in range(1, 2 * d + 1)
        }
        built = series_from_surjections(f)
        direct = gs_series(q1, q2, s)
        if built != direct:
            problems.append(
                f"series_from_surjections {q1},{q2},{s}: {built.coeffs} != {direct.coeffs}"
            )
    return problems


def sweep_canonical_from_vertical(max_d: int = 4) -> list[str]:
    """The vertical-to-canonical assembly equals direct canonical enumeration."""
    problems = []
    for q1, q2, s in gs_parameter_tuples(max_d):
        d = q1 + q2 + s
        for K in range(1, 2 * d + 1):
            assembled = canonical_from_vertical(K, q1, q2, s, vertical_count_formula)
            direct = brute.canonical_array_count_brute(K, q1, q2, s)
            if assembled != direct:
                problems.append(
                    f"canonical_from_vertical {q1},{q2},{s} K={K}: "
                    f"{assembled} != {direct}"
                )
    return problems


def sweep_vertical(max_K: int = 4, max_s: int = 5) -> list[str]:
    """Vertical-array closed form against enumeration, zero cases included."""
    problems = []
    for K in range(1, max_K + 1):
        for R1 in range(1, K + 1):
            for R2 in range(1, K + 1):
                for s in range(1, max_s + 1):
                    formula = vertical_count_formula(K, R1, R2, s)
                    enumerated = brute.vertical_array_count_brute(K, R1, R2, s)
                    if formula != enumerated:
                        problems.append(
                            f"vertical K={K} R1={R1} R2={R2} s={s}: "
                            f"{formula} != {enumerated}"
                        )
    return problems


def sweep_omega(max_K: int = 4, max_s: int = 5) -> list[str]:
    """Balanced-occupancy count formula against enumeration, all compositions."""
    problems = []
    for K in range(1, max_K + 1):
        for s in range(1, max_s + 1):
            for w in brute._compositions(s, K):
                for R1 in range(1, K + 1):
                    for R2 in range(1, K + 1):
                        o = SubstructureOmega(K, R1, R2, w)
                        formula = omega_count_formula(o)
                        enumerated = brute.omega_count_brute(o)
                        if formula != enumerated:
                            problems.append(
                                f"omega K={K} R1={R1} R2={R2} w={w}: "
                                f"{formula} != {enumerated}"
                            )
    return problems


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
        return SubstructureGamma((w1, w2), r1, r2, tuple(sorted(phi.items())))


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
    return SubstructureGamma((w1, w2), r1, r2, tuple(sorted(phi.items())))


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
        tally = classify_columns(g)
        branch = (
            "zero" if g.s <= tally.A else "edge" if g.s == tally.A + 1 else "general"
        )
        branches[branch] += 1
        formula = gamma_count_formula(g)
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
        if not check_full(g):
            nonfull += 1
        formula = gamma_count_formula_noarrows(g)
        enumerated = brute.gamma_count_brute(g)
        if formula != enumerated:
            problems.append(f"gamma-noarrows #{i} {g}: {formula} != {enumerated}")
    if nonfull == 0:
        problems.append("gamma-noarrows: sweep produced no non-full instance")
    return problems


# ----------------------------------------------------------------------
# Lemma suite
# ----------------------------------------------------------------------


def _random_lemma_base(rng: random.Random, K: int, with_arrows: bool) -> tuple[
    frozenset[int], frozenset[int], dict[int, int]
]:
    r1 = _random_nonempty_subset(rng, K)
    r2 = _random_nonempty_subset(rng, K)
    phi: dict[int, int] = {}
    if with_arrows:
        for j in range(K):
            if j not in r1 and rng.random() < 0.3:
                phi[j] = rng.randrange(K)
    return r1, r2, phi


def sweep_lemmas(count: int = 100, seed: int = 0) -> list[str]:
    """Count preservation and condition biconditionals for the four rewrites."""
    rng = random.Random(seed)
    problems = []
    problems += _sweep_to_mark(rng, count)
    problems += _sweep_retarget(rng, count)
    problems += _sweep_pointing(rng, count)
    problems += _sweep_merging(rng, count)
    return problems


def _sweep_to_mark(rng: random.Random, count: int) -> list[str]:
    problems = []
    for i in range(count):
        while True:
            K = rng.randint(2, 5)
            r1, r2, phi = _random_lemma_base(rng, K, with_arrows=True)
            free = [j for j in range(K) if j not in r1]
            if not free:
                continue
            X = rng.choice(free)
            phi[X] = rng.choice(sorted(r1))
            break
        g = _random_gamma(rng, K, rng.randint(1, 6), phi, r1, r2)
        out = arrow_simplify_to_mark(g, X)
        if brute.gamma_count_brute(g) != brute.gamma_count_brute(out):
            problems.append(f"to_mark #{i} {g}: count changed")
        for name, check in (("balance", check_balance), ("nonempty", check_nonempty),
                            ("full", check_full)):
            if check(g) != check(out):
                problems.append(f"to_mark #{i} {g}: {name} status changed")
    return problems


def _sweep_retarget(rng: random.Random, count: int) -> list[str]:
    problems = []
    for i in range(count):
        while True:
            K = rng.randint(2, 5)
            r1, r2, phi = _random_lemma_base(rng, K, with_arrows=True)
            free = [j for j in range(K) if j not in r1]
            if len(free) < 2:
                continue
            X, Y = rng.sample(free, 2)
            phi[X] = Y
            phi[Y] = rng.randrange(K)  # Z may equal X: the two-cycle case
            break
        g = _random_gamma(rng, K, rng.randint(1, 6), phi, r1, r2)
        out = arrow_simplify_retarget(g, X)
        if brute.gamma_count_brute(g) != brute.gamma_count_brute(out):
            problems.append(f"retarget #{i} {g}: count changed")
        for name, check in (("balance", check_balance), ("nonempty", check_nonempty),
                            ("full", check_full)):
            if check(g) != check(out):
                problems.append(f"retarget #{i} {g}: {name} status changed")
    return problems


def _sweep_pointing(rng: random.Random, count: int) -> list[str]:
    problems = []
    for i in range(count):
        while True:
            K = rng.randint(2, 5)
            r1, r2, phi = _random_lemma_base(rng, K, with_arrows=True)
            g = _random_gamma(rng, K, rng.randint(2, 6), phi, r1, r2)
            w1, w2 = g.w
            crit = critical_vertices(g)
            xs = [j for j in range(K) if (1, j) in crit]
            # cells with a non-critical vertex: more vertices than critical ones
            ys = [j for j in range(K) if w2[j] > ((2, j) in crit)]
            choices = [(x, y) for x in xs for y in ys if x != y]
            if choices:
                X, Y = rng.choice(choices)
                break
        v = (X, w1[X] - 1)
        u = (Y, w2[Y] - 1 if Y in r2 else 0)
        restricted = brute.gamma_count_brute_with_pair(g, v, u)
        out = column_pointing(g, X, Y)
        if restricted != brute.gamma_count_brute(out):
            problems.append(f"pointing #{i} {g} X={X} Y={Y}: count changed")
        for name, check in (("nonempty", check_nonempty), ("full", check_full)):
            if check(g) != check(out):
                problems.append(f"pointing #{i} {g} X={X} Y={Y}: {name} status changed")
    return problems


def _sweep_merging(rng: random.Random, count: int) -> list[str]:
    problems = []
    for i in range(count):
        while True:
            K = rng.randint(2, 5)
            r1, r2, phi = _random_lemma_base(rng, K, with_arrows=True)
            need1 = [j for j in range(K) if j not in r1 and j not in phi]
            need2 = [j for j in range(K) if j not in r2]
            minimum = max(len(need1), len(need2), 1)
            if minimum > 6:
                continue
            s = rng.randint(minimum, 6)
            w1 = _top_up(rng, [1 if j in need1 else 0 for j in range(K)], s)
            w2 = _top_up(rng, [1 if j in need2 else 0 for j in range(K)], s)
            g = SubstructureGamma((w1, w2), r1, r2, tuple(sorted(phi.items())))
            crit = critical_vertices(g)
            xs = [j for j in range(K) if (1, j) in crit]
            ys = [j for j in range(K) if (2, j) in crit]
            choices = [(x, y) for x in xs for y in ys if x != y]
            if choices and check_full(g):
                X, Y = rng.choice(choices)
                break
        v = (X, g.w[0][X] - 1)
        u = (Y, g.w[1][Y] - 1)
        restricted = brute.gamma_count_brute_with_pair(g, v, u)
        out = column_merging(g, X, Y)
        if restricted != brute.gamma_count_brute(out):
            problems.append(f"merging #{i} {g} X={X} Y={Y}: count changed")
        if not check_full(out):
            problems.append(f"merging #{i} {g} X={X} Y={Y}: output not full")
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
