import functools
import random
from collections import Counter
from itertools import combinations, groupby, permutations, product
from math import factorial, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from mapenum.arrays import (
    PairedArray,
    SubstructureGamma,
    SubstructureOmega,
    _rightmost_slots,
    _rooted_forest,
    _slot_columns,
    arrow_cycle,
    check_balance,
    check_forest,
    check_nonempty,
)
from mapenum.brute import (
    _column_orbits,
    _compositions,
    _count_forest_matchings,
    _mark_splits,
    _pairing_tally,
    _sorted_omega_count,
    _surjections,
    _tally_state,
    canonical_array_count_brute,
    enumerate_pairings,
    gamma_count_brute,
    gamma_count_brute_with_pair,
    gs_counts_brute,
    hz_counts_brute,
    omega_count_brute,
    paired_surjection_count_brute,
    vertical_array_count_brute,
)
from mapenum.exact import binomial, cycle_count, double_factorial, gamma_of_rows, multinomial


# ----------------------------------------------------------------------
# Pairing enumeration
# ----------------------------------------------------------------------


def test_enumerate_one_row_counts():
    assert len(list(enumerate_pairings((), 0))) == 1
    assert len(list(enumerate_pairings((2,), 0))) == 1
    assert len(list(enumerate_pairings((4,), 0))) == 3
    assert len(list(enumerate_pairings((8,), 0))) == 105
    assert len(list(enumerate_pairings((8,), 1))) == 0


def test_enumerate_one_row_q1_is_the_single_pair():
    (only,) = enumerate_pairings((2,), 0)
    assert only.partner == (1, 0)


@pytest.mark.parametrize("q", range(1, 7))
def test_enumerator_cardinality_matches_double_factorial(q):
    assert sum(1 for _ in enumerate_pairings((2 * q,), 0)) == double_factorial(2 * q - 1)


def test_enumerator_cardinality_and_totals_q8():
    # the tally shares sub-walks, so its total counts the pairings without
    # visiting each; test_enumerator_cardinality_matches_double_factorial
    # checks the stream length itself
    assert hz_counts_brute(8).total() == double_factorial(15)


def test_enumeration_is_deterministic():
    first = [p.partner for p in enumerate_pairings((8,), 0)]
    second = [p.partner for p in enumerate_pairings((8,), 0)]
    assert first == second
    assert len(set(first)) == len(first)


def test_two_row_enumeration_class_size():
    for q1, q2, s in [(0, 0, 2), (1, 0, 1), (1, 1, 2), (2, 0, 2)]:
        p1, p2 = 2 * q1 + s, 2 * q2 + s
        expected = (
            binomial(p1, s)
            * binomial(p2, s)
            * factorial(s)
            * double_factorial(2 * q1 - 1)
            * double_factorial(2 * q2 - 1)
        )
        assert sum(1 for _ in enumerate_pairings((p1, p2), s)) == expected


def test_enumerate_pairings_rejects_bad_rows():
    for rows, mixed in [((0, 2), 0), ((3, -1), 1), ((2.0,), 0), ((2,), -1), ((2,), 0.0)]:
        with pytest.raises(ValueError):
            next(enumerate_pairings(rows, mixed))
    with pytest.raises(ValueError, match="even"):
        next(enumerate_pairings((2, 1), 1))


# ----------------------------------------------------------------------
# Cycle-count tallies
# ----------------------------------------------------------------------


def _inverse(perm):
    inv = [0] * len(perm)
    for i, image in enumerate(perm):
        inv[image] = i
    return inv


def _assert_walk_matches_definition(rows):
    """The walk's tally against each class of ``enumerate_pairings``, with the
    cycles of mu gamma^-1 counted by ``cycle_count``."""
    n = sum(rows)
    gamma_inv = _inverse(gamma_of_rows(rows))
    naive = {}
    for mixed in range(n // 2 + 1):
        for mu in enumerate_pairings(rows, mixed):
            key = (mixed, cycle_count([mu[gamma_inv[i]] for i in range(n)]))
            naive[key] = naive.get(key, 0) + 1
    tally = _pairing_tally(rows)
    assert tally == naive
    assert sum(tally.values()) == double_factorial(n - 1)


def _row_tuples(max_rows, max_total):
    """Tuples of 1..max_rows positive rows with an even total <= max_total."""
    for k in range(1, max_rows + 1):
        for rows in product(range(1, max_total + 1), repeat=k):
            if sum(rows) <= max_total and sum(rows) % 2 == 0:
                yield rows


@pytest.mark.parametrize("q", range(1, 6))
def test_pairing_walk_matches_definition_one_row(q):
    _assert_walk_matches_definition((2 * q,))


@pytest.mark.parametrize(
    "p1, p2",
    [(p1, n - p1) for n in range(2, 11, 2) for p1 in range(1, n)],
)
def test_pairing_walk_matches_definition_two_rows(p1, p2):
    _assert_walk_matches_definition((p1, p2))


def test_pairing_walk_matches_definition_more_rows():
    # three and four rows: the cycle count reaches n/2 + len(rows), more
    # cycles than any one- or two-row tuple of the same total has
    tuples = list(_row_tuples(4, 10))
    more = [rows for rows in tuples if len(rows) > 2]
    assert (len(tuples), len(more)) == (230, 200)  # the other 30 are checked above
    for rows in more:
        _assert_walk_matches_definition(rows)
    assert _pairing_tally((2, 2, 2))[0, 6] == 1


@pytest.mark.parametrize("rows", [(12,), (5, 7), (4, 4, 4), (3, 3, 3, 3)])
def test_pairing_walk_matches_definition_twelve_elements(rows):
    # on 12 elements more prefixes reach the same state than on totals <= 10
    _assert_walk_matches_definition(rows)


def test_pairing_walk_on_sixteen_elements():
    p1, p2 = 5, 11
    tally = _pairing_tally((p1, p2))
    totals = {}
    for (mixed, _), c in tally.items():
        totals[mixed] = totals.get(mixed, 0) + c
    assert totals == {
        s: binomial(p1, s)
        * binomial(p2, s)
        * factorial(s)
        * double_factorial(p1 - s - 1)
        * double_factorial(p2 - s - 1)
        for s in (1, 3, 5)
    }
    one_row = _pairing_tally((16,))
    assert sum(one_row.values()) == double_factorial(15)
    assert {(mixed, L % 2) for mixed, L in one_row} == {(0, 1)}  # parity of q + 1 = 9


def test_classes_of_one_ground_set_share_one_walk():
    _pairing_tally.cache_clear()
    gs_counts_brute(1, 1, 1)
    gs_counts_brute(0, 0, 3)
    info = _pairing_tally.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def _clear_tally_caches():
    _pairing_tally.cache_clear()
    _tally_state.cache_clear()


def test_shared_states_do_not_depend_on_the_order_of_the_walks():
    # a state's sub-tally outlives the walk that first reached it, so it
    # must not depend on which row tuple that was
    tuples = list(_row_tuples(4, 10))
    _clear_tally_caches()
    forward = {rows: _pairing_tally(rows) for rows in tuples}
    _clear_tally_caches()
    backward = {rows: _pairing_tally(rows) for rows in reversed(tuples)}
    assert forward == backward


def test_walks_of_different_rows_share_states():
    # pairing 0 with its neighbour 1 on the 8-cycle closes one cycle and
    # leaves a 6-cycle on the free elements, the start state of (6,): after
    # (6,), the walk of (8,) finds every state of (6,) cached
    _clear_tally_caches()
    _pairing_tally((8,))
    alone = _tally_state.cache_info().misses
    _clear_tally_caches()
    _pairing_tally((6,))
    first = _tally_state.cache_info()
    _pairing_tally((8,))
    second = _tally_state.cache_info()
    assert second.hits > first.hits
    assert second.misses - first.misses == alone - first.misses


def test_hz_counts_small():
    assert hz_counts_brute(1).counts == (0, 1)
    assert hz_counts_brute(2).counts == (1, 0, 2)
    assert hz_counts_brute(2).total() == 3


@pytest.mark.parametrize("q", range(1, 7))
def test_hz_totals_and_parity(q):
    v = hz_counts_brute(q)
    assert v.total() == double_factorial(2 * q - 1)
    for L in range(1, q + 2):
        if v.a(L):
            assert (L - q - 1) % 2 == 0


def test_gs_counts_small():
    assert gs_counts_brute(0, 0, 1).counts == (1, 0)
    assert gs_counts_brute(0, 0, 2).counts == (0, 2, 0)


def test_gs_parity():
    v = gs_counts_brute(1, 1, 2)
    d = 4
    for L in range(1, d + 2):
        if v.a(L):
            assert (L - d) % 2 == 0


def test_hz_rejects_zero():
    with pytest.raises(ValueError):
        hz_counts_brute(0)


def test_gs_rejects_s_zero():
    with pytest.raises(ValueError):
        gs_counts_brute(1, 1, 0)


# ----------------------------------------------------------------------
# Paired surjections
# ----------------------------------------------------------------------


def test_paired_surjection_anchors():
    assert paired_surjection_count_brute(1, 0, 0, 1) == 1
    assert paired_surjection_count_brute(2, 0, 0, 1) == 0
    assert paired_surjection_count_brute(1, 1, 0, 1) == 3


def test_paired_surjection_matches_naive_enumeration():
    """Cross-check the block-counting shortcut against raw function enumeration."""
    for K, q1, q2, s in [(1, 0, 0, 1), (2, 0, 0, 2), (2, 1, 0, 1), (3, 0, 1, 1)]:
        p1, p2 = 2 * q1 + s, 2 * q2 + s
        n = p1 + p2
        gamma = gamma_of_rows((p1, p2))
        naive = 0
        for mu in enumerate_pairings((p1, p2), s):
            for pi in product(range(K), repeat=n):
                if len(set(pi)) != K:
                    continue
                if all(pi[mu[v]] == pi[gamma[v]] for v in range(n)):
                    naive += 1
        assert paired_surjection_count_brute(K, q1, q2, s) == naive


def test_surjection_recursion_matches_enumeration():
    for L, K in product(range(7), repeat=2):
        images = product(range(K), repeat=L)
        assert _surjections(L, K) == sum(1 for image in images if len(set(image)) == K)


def _union_find_blocks(partner, gamma):
    """Blocks generated by identifying mu(v) with gamma(v) for every v."""
    parent = list(range(len(partner)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for v in range(len(partner)):
        a, b = find(partner[v]), find(gamma[v])
        if a != b:
            parent[a] = b
    return len({find(x) for x in range(len(partner))})


def test_surjection_blocks_are_the_cycles_of_mu_gamma_inverse():
    """The identity behind reading paired surjections off the cycle tally."""
    for d in range(1, 5):
        for s in range(1, d + 1):
            for q1 in range(d - s + 1):
                q2 = d - s - q1
                rows = (2 * q1 + s, 2 * q2 + s)
                gamma = gamma_of_rows(rows)
                gamma_inv = _inverse(gamma)
                for mu in enumerate_pairings(rows, s):
                    cycles = cycle_count([mu[gamma_inv[x]] for x in range(sum(rows))])
                    assert _union_find_blocks(mu.partner, gamma) == cycles


# ----------------------------------------------------------------------
# Matching counts under the forest condition
# ----------------------------------------------------------------------


def test_gamma_count_all_marked_is_factorial():
    g = SubstructureGamma([[1, 1, 1], [1, 1, 1]], {0, 1, 2}, {0, 1, 2}, {})
    assert gamma_count_brute(g) == 6


def test_gamma_count_self_loop_column_prunes():
    g = SubstructureGamma([[1, 1], [1, 1]], {1}, {1}, {})
    assert gamma_count_brute(g) == 1


def test_gamma_count_cyclic_phi_is_zero():
    g = SubstructureGamma([[0, 1], [1, 0]], {0}, {0}, {1: 1})
    assert gamma_count_brute(g) == 0


def test_gamma_count_with_pair_partitions_total():
    g = SubstructureGamma([[2, 1], [1, 2]], {0}, {1}, {})
    total = gamma_count_brute(g)
    # fixing the partner of the rightmost slot of cell (1, 0) over all row-2
    # slots partitions the matchings
    split = 0
    for col in range(2):
        for idx in range(g.w[1][col]):
            split += gamma_count_brute_with_pair(g, (0, 1), (col, idx))
    assert split == total


def _substructures(K, s):
    """Every substructure with K columns and s vertices per row: every
    occupancy pair, every pair of mark sets, every arrow map. For K = 3 the
    occupancy pairs are taken up to relabelling the columns, which keeps the
    count (see test_column_permutation_preserves_conditions_and_counts)."""
    marks = [frozenset(c) for r in range(1, K + 1) for c in combinations(range(K), r)]
    occupancies = list(_compositions(s, K))
    for w in product(occupancies, repeat=2):
        relabelled = (tuple(tuple(row[j] for j in p) for row in w) for p in permutations(range(K)))
        if K == 3 and min(relabelled) != w:
            continue
        for r1, r2 in product(marks, repeat=2):
            free = [j for j in range(K) if j not in r1]
            for heads in product([None, *range(K)], repeat=len(free)):
                arrows = tuple((t, h) for t, h in zip(free, heads) if h is not None)
                yield SubstructureGamma(w, r1, r2, arrows)


def _accepted_matchings(g):
    """The slot matchings whose array passes check_forest (matching[t]: row-2 slot of row-1 slot t)."""
    s = g.s
    accepted = []
    for matching in permutations(range(s)):
        pairing = [0] * (2 * s)
        for t, u in enumerate(matching):
            pairing[t] = s + u
            pairing[s + u] = t
        if check_forest(PairedArray(g.w, g.r1, g.r2, tuple(pairing), g.arrows)):
            accepted.append(matching)
    return accepted


def _slot_addresses(w):
    return [(j, i) for j, count in enumerate(w) for i in range(count)]


def _open_columns(g, row):
    """Columns whose cell in ``row`` is open, from the definition: no mark
    and, in row 1, no arrow tail."""
    closed = g.r1 | {t for t, _ in g.arrows} if row == 1 else g.r2
    return [j for j in range(g.K) if j not in closed]


def test_gamma_count_matches_checker_based_enumeration():
    """The matcher must agree with building arrays and running the checkers,
    unrestricted and with every slot pair (v, u) forced.

    Exhaustive for K <= 2 and s <= 3, and for K = 3 and s <= 2 up to
    relabelling the columns; three hand-picked cases stand in for K = 3,
    s = 3, one with a row-2 group of three interchangeable slots.
    """
    cases = [
        SubstructureGamma([[1, 1, 1], [2, 1, 0]], {2}, {0, 1}, {}),
        SubstructureGamma([[1, 1, 1], [0, 3, 0]], {2}, {1}, {0: 1}),
        SubstructureGamma([[0, 2, 1], [1, 0, 2]], {0}, {2}, {1: 2}),
    ]
    for K, s in product((1, 2, 3), (1, 2, 3)):
        if K < 3 or s < 3:
            cases += _substructures(K, s)
    cyclic = into_empty_open_cell = 0
    for g in cases:
        accepted = _accepted_matchings(g)
        assert gamma_count_brute(g) == len(accepted)
        for t, v in enumerate(_slot_addresses(g.w[0])):
            for u, x in enumerate(_slot_addresses(g.w[1])):
                forced = sum(matching[t] == u for matching in accepted)
                assert gamma_count_brute_with_pair(g, v, x) == forced
        cyclic += bool(arrow_cycle(g.phi))
        open1 = _open_columns(g, 1)
        into_empty_open_cell += any(h in open1 and not g.w[0][h] for h in g.phi.values())
    assert len(cases) == 3 + 3 + 609 + 854 + 3416  # hand-picked, K = 1, 2, 3 (s = 1, 2)
    assert cyclic and into_empty_open_cell


def _random_substructure(rng, K, s):
    """A substructure drawn like one of _substructures(K, s), without the
    relabelling: occupancies, mark sets and arrow heads chosen uniformly."""
    occupancies = list(_compositions(s, K))
    marks = [frozenset(c) for r in range(1, K + 1) for c in combinations(range(K), r)]
    r1, r2 = rng.choice(marks), rng.choice(marks)
    free = [j for j in range(K) if j not in r1]
    heads = [rng.choice([None, *range(K)]) for _ in free]
    arrows = tuple((t, h) for t, h in zip(free, heads) if h is not None)
    return SubstructureGamma((rng.choice(occupancies), rng.choice(occupancies)), r1, r2, arrows)


def test_gamma_count_matches_checkers_where_cells_hold_several_slots():
    """The critical-first walk against the checkers on a seeded sample with
    K = 3, s = 3 and K = 2, s = 4, unrestricted and with every slot pair
    forced: open cells there hold a critical slot and spare ones together."""
    rng = random.Random(0)
    cases = [_random_substructure(rng, 3, 3) for _ in range(150)]
    cases += [_random_substructure(rng, 2, 4) for _ in range(150)]
    shared = 0  # instances with an open cell of several slots and a non-zero count
    for g in cases:
        accepted = _accepted_matchings(g)
        assert gamma_count_brute(g) == len(accepted)
        for t, v in enumerate(_slot_addresses(g.w[0])):
            for u, x in enumerate(_slot_addresses(g.w[1])):
                forced = sum(matching[t] == u for matching in accepted)
                assert gamma_count_brute_with_pair(g, v, x) == forced
        several = any(g.w[row - 1][j] > 1 for row in (1, 2) for j in _open_columns(g, row))
        shared += several and bool(accepted)
    assert shared > 50


def test_forced_counts_of_a_row_one_slot_sum_to_the_total(monkeypatch):
    """Every matching sends row-1 slot v somewhere: on the seed-1 draws of
    the gamma sweeps, the counts forcing v onto each row-2 slot u add up to
    the unrestricted count, for every v."""
    from mapenum import brute, verify

    drawn = []
    counted = brute.gamma_count_brute

    def record(g):
        drawn.append(g)
        return counted(g)

    monkeypatch.setattr(brute, "gamma_count_brute", record)
    verify.sweep_gamma(40, 1)
    verify.sweep_gamma_noarrows(40, 1)
    assert len(drawn) == 80
    nonzero = 0
    for g in drawn:
        total = counted(g)
        nonzero += total > 0
        for v in _slot_addresses(g.w[0]):
            assert sum(gamma_count_brute_with_pair(g, v, u) for u in _slot_addresses(g.w[1])) == total
    assert nonzero > 40


@pytest.mark.parametrize(
    "v, u, message",
    [
        ((-1, 0), (0, 0), "v is not a slot"),
        ((2, 0), (0, 0), "v is not a slot"),
        ((0, 0), (-1, 0), "u is not a slot"),
        ((0, 0), (2, 0), "u is not a slot"),
        (5, (0, 0), r"v must be a \(column, index\) pair"),
        (None, (0, 0), r"v must be a \(column, index\) pair"),
        ((0, 0), (0,), r"u must be a \(column, index\) pair"),
        ((0, 0), (0, 0, 0), r"u must be a \(column, index\) pair"),
    ],
    ids=["v-negative", "v-past-K", "u-negative", "u-past-K",
         "v-int", "v-none", "u-short", "u-long"],
)
def test_gamma_count_with_pair_rejects_slots_outside_the_rows(v, u, message):
    # a negative column would otherwise wrap around to column K - 1
    g = SubstructureGamma([[1, 1], [1, 1]], {0}, {0}, {})
    with pytest.raises(ValueError, match=message):
        gamma_count_brute_with_pair(g, v, u)


def test_matching_count_is_symmetric_under_swapping_the_rows():
    """Without arrows the two rows play the same part: swapping rows and
    marks keeps every count, and the forced pair (v, u) becomes (u, v).
    The walk places both rows' critical slots with one step, so a row
    index mixed up in that step shows here."""
    cases = nonzero = 0
    for K, s in product((1, 2, 3), (1, 2, 3)):
        for g in _substructures(K, s):
            if g.arrows:
                continue
            swapped = SubstructureGamma(g.w[::-1], g.r2, g.r1)
            total = gamma_count_brute(g)
            assert gamma_count_brute(swapped) == total
            for v in _slot_addresses(g.w[0]):
                for u in _slot_addresses(g.w[1]):
                    forced = gamma_count_brute_with_pair(g, v, u)
                    assert gamma_count_brute_with_pair(swapped, u, v) == forced
            cases += 1
            nonzero += total > 0
    assert (cases, nonzero) == (1685, 1115)


def _permutation_walk(g, forced=None):
    """The s!-permutation matching count that the grouped walk replaced.

    ``forced`` holds (column, index-within-cell) addresses, as the walk takes
    them; the permutation walk reads them as flat slot indices in row order.
    """
    (w1, w2), r1, r2, phi = g.w, g.r1, g.r2, g.phi
    if forced is not None:
        forced = tuple(sum(w[:col]) + idx for w, (col, idx) in zip(g.w, forced))
    col1 = _slot_columns(w1)
    col2 = _slot_columns(w2)
    last1, last2 = _rightmost_slots(w1), _rightmost_slots(w2)
    rm1 = [(j, last1[j]) for j in _open_columns(g, 1) if w1[j]]
    rm2 = [(j, last2[j]) for j in _open_columns(g, 2) if w2[j]]
    total = 0
    inv = [0] * g.s
    for perm in permutations(range(g.s)):
        if forced is not None and perm[forced[0]] != forced[1]:
            continue
        psi1 = dict(phi)
        for j, t in rm1:
            psi1[j] = col2[perm[t]]
        for t, u in enumerate(perm):
            inv[u] = t
        psi2 = {j: col1[inv[u]] for j, u in rm2}
        if _rooted_forest(psi1, r1) and _rooted_forest(psi2, r2):
            total += 1
    return total


def test_grouped_walk_matches_the_permutation_walk_on_sweep_instances(monkeypatch):
    # the seed-0 instances of the substructure and lemma sweeps reach s = 7
    from mapenum import brute, verify

    grouped = brute._count_forest_matchings
    seen = []

    def both(g, forced=None):
        count = grouped(g, forced)
        seen.append((g.s, count, _permutation_walk(g, forced)))
        return count

    monkeypatch.setattr(brute, "_count_forest_matchings", both)
    verify.sweep_gamma(40, 0)
    verify.sweep_gamma_noarrows(40, 0)
    verify.sweep_lemmas(20, 0)
    assert len(seen) == 240 and max(s for s, _, _ in seen) == 7
    assert [new for _, new, _ in seen] == [old for _, _, old in seen]


# ----------------------------------------------------------------------
# Vertical, omega, canonical counts
# ----------------------------------------------------------------------


def test_vertical_anchors():
    assert vertical_array_count_brute(1, 1, 1, 1) == 1
    assert vertical_array_count_brute(1, 1, 1, 2) == 2
    assert vertical_array_count_brute(3, 1, 1, 1) == 0


def test_omega_anchors():
    assert omega_count_brute(SubstructureOmega(1, 1, 1, (2,))) == 2
    for s in (1, 2, 3, 4):
        assert omega_count_brute(SubstructureOmega(1, 1, 1, (s,))) == factorial(s)


def test_omega_decomposes_vertical():
    for K, R1, R2, s in [(2, 1, 1, 2), (2, 2, 1, 2), (3, 2, 2, 3)]:
        total = sum(
            omega_count_brute(SubstructureOmega(K, R1, R2, w))
            for w in _compositions(s, K)
        )
        assert total == vertical_array_count_brute(K, R1, R2, s)


def _checker_omega(K, R1, R2, w):
    """Balanced-occupancy count by the checkers: every mark pair and slot
    matching on (w, w) built as an array, kept when all three conditions hold."""
    s = sum(w)
    accepted = 0
    for marks1 in combinations(range(K), R1):
        for marks2 in combinations(range(K), R2):
            for matching in permutations(range(s)):
                pairing = [0] * (2 * s)
                for t, u in enumerate(matching):
                    pairing[t] = s + u
                    pairing[s + u] = t
                arr = PairedArray((w, w), frozenset(marks1), frozenset(marks2), tuple(pairing))
                accepted += check_nonempty(arr) and check_balance(arr) and check_forest(arr)
    return accepted


@pytest.mark.parametrize("K, R1, R2, s", [(2, 1, 1, 2), (3, 2, 1, 2), (3, 2, 2, 2), (3, 1, 2, 3)])
def test_vertical_brute_matches_checker_based_enumeration(K, R1, R2, s):
    """Accepted candidates pass all three conditions; rejected ones fail one.

    With K = 3 and s <= 3 some occupancies leave a column without vertices,
    so the marks (of size up to 2) decide the non-empty condition.
    """
    accepted = sum(_checker_omega(K, R1, R2, w) for w in _compositions(s, K))
    assert accepted == vertical_array_count_brute(K, R1, R2, s)


@pytest.mark.parametrize("K, s", [(K, s) for K in (1, 2, 3) for s in (1, 2, 3)] + [(2, 4)])
def test_omega_brute_matches_checker_count_per_occupancy(K, s):
    """Every occupancy, unsorted ones included: the count cached on the
    sorted occupancy is the checker count of each one."""
    for w in _compositions(s, K):
        for R1 in range(1, K + 1):
            for R2 in range(1, K + 1):
                assert omega_count_brute(SubstructureOmega(K, R1, R2, w)) == _checker_omega(K, R1, R2, w)


def _covering_pair_sum(K, R1, R2, w):
    """The balanced-occupancy count as one matching walk per covering mark-set pair."""
    empty = {j for j, count in enumerate(w) if count == 0}
    return sum(
        _count_forest_matchings(SubstructureGamma((w, w), r1, r2))
        for r1 in combinations(range(K), R1)
        for r2 in combinations(range(K), R2)
        if empty <= {*r1, *r2}
    )


def test_one_walk_per_mark_orbit_matches_the_covering_pair_sum():
    cases = 0
    for K in range(1, 6):
        for s in range(1, 5):
            for w in {tuple(sorted(w)) for w in _compositions(s, K)}:
                for R1 in range(1, K + 1):
                    for R2 in range(1, K + 1):
                        assert _sorted_omega_count(K, R1, R2, w) == _covering_pair_sum(K, R1, R2, w)
                        cases += 1
    assert cases == 577
    # 4,032 covering mark-set pairs fall into 13 orbits, one walk each
    from mapenum.formulas import omega_count_formula

    wide = SubstructureOmega(10, 5, 5, (1, 1, 1) + (0,) * 7)
    assert omega_count_brute(wide) == omega_count_formula(wide) == 3780


def _blocks(w):
    return [(count, len(list(run))) for count, run in groupby(w)]


def _product_filter_splits(blocks, R1, R2):
    """The mark splits as ``_sorted_omega_count`` first found them: every
    product of the blocks' (a, b, c, e) choices, kept when its marks add up
    to R1 and R2."""
    choices = [[(a, b, c, n - a - b - c)
                for a in range(min(R1, n) + 1)
                for b in range(min(R2, n - a) + 1)
                for c in range(min(R1 - a, R2 - b, n - a - b) + 1)
                if count or a + b + c == n] for count, n in blocks]
    return [split for split in product(*choices)
            if sum(a + c for a, _, c, _ in split) == R1 and sum(b + c for _, b, c, _ in split) == R2]


def _product_filter_omega_count(K, R1, R2, w):
    """``_sorted_omega_count`` as first written: every split the product
    filter keeps, walked on a checked substructure."""
    blocks = _blocks(w)
    total = 0
    for split in _product_filter_splits(blocks, R1, R2):
        r1, r2 = [], []
        start = 0
        for (a, b, c, _), (_, n) in zip(split, blocks):
            r1 += range(start, start + a)
            r1 += range(start + a + b, start + a + b + c)
            r2 += range(start + a, start + a + b + c)
            start += n
        weight = prod(map(multinomial, split))
        total += weight * _count_forest_matchings(SubstructureGamma((w, w), r1, r2))
    return total


def test_mark_splits_match_the_product_filter_reference():
    cases = 0
    for K in range(1, 6):
        for s in range(1, 7):
            for w in {tuple(sorted(w)) for w in _compositions(s, K)}:
                for R1 in range(1, K + 1):
                    for R2 in range(1, K + 1):
                        assert _sorted_omega_count(K, R1, R2, w) == _product_filter_omega_count(K, R1, R2, w)
                        cases += 1
    assert cases == 1380


def test_mark_splits_are_the_product_filter_splits_in_its_order():
    # the last block's splits are solved from the marks left, not searched
    cases = yielded = 0
    for K in range(1, 7):
        for s in range(1, 7):
            for w in {tuple(sorted(w)) for w in _compositions(s, K)}:
                for R1 in range(K + 2):
                    for R2 in range(K + 2):
                        splits = list(_mark_splits(_blocks(w), R1, R2))
                        assert splits == _product_filter_splits(_blocks(w), R1, R2)
                        cases += 1
                        yielded += len(splits)
    assert (cases, yielded) == (5008, 14852)


@pytest.mark.parametrize("blocks", [[(0, 3)], [(0, 1)], [(2, 2), (0, 3)], [(1, 1), (0, 2)]])
def test_mark_splits_with_a_vertex_free_last_block(blocks):
    # sorted occupancies put the vertex-free block first, so only direct
    # calls reach a vertex-free last block, where e = 0 fixes c
    for R1 in range(7):
        for R2 in range(7):
            splits = list(_mark_splits(blocks, R1, R2))
            assert splits == _product_filter_splits(blocks, R1, R2)
            assert all(split[-1][3] == 0 for split in splits)
    # a lone vertex-free block: every column marked, c of them in both rows
    assert list(_mark_splits([(0, 3)], 2, 2)) == [((1, 1, 1, 0),)]
    assert list(_mark_splits([(0, 3)], 1, 1)) == []


def test_wide_vertex_free_block_walks_only_the_choices_its_marks_allow():
    # 299 vertex-free columns with one mark per row cannot all be covered
    from time import perf_counter

    from mapenum.formulas import omega_count_formula

    wide = SubstructureOmega(300, 1, 1, (1,) + (0,) * 299)
    start = perf_counter()
    brute = omega_count_brute(wide)
    middle = perf_counter()
    formula = omega_count_formula(wide)
    print(f"K = 300: brute {(middle - start) * 1e3:.2f} ms, formula {(perf_counter() - middle) * 1e3:.2f} ms")
    assert brute == formula == 0


def test_canonical_anchors():
    assert canonical_array_count_brute(1, 0, 0, 1) == 1
    assert canonical_array_count_brute(1, 1, 0, 1) == 3


def test_canonical_matches_checker_based_enumeration():
    """Cross-check the pruned canonical counter against the dumbest version.

    The last three tuples have within-row pairs in both rows or s >= 2, so
    several sets of mixed slots share one column profile. The naive count
    also checks the lemma behind the counter's skip of occupancy pairs with
    a vertex-free column: no array on such a pair passes every check.
    """
    uncovered = set()
    for K, q1, q2, s in [
        (1, 0, 0, 1), (2, 0, 0, 2), (1, 1, 0, 1), (2, 1, 0, 1), (3, 0, 0, 2),
        (2, 0, 1, 1), (3, 1, 1, 1), (4, 0, 1, 1),
        (2, 1, 1, 2), (2, 2, 1, 1), (3, 1, 0, 2),
    ]:
        count, seen = _naive_canonical(K, q1, q2, s)
        assert canonical_array_count_brute(K, q1, q2, s) == count
        uncovered |= seen
    # balanced forest arrays with 0, 1 and 2 vertex-free columns were built,
    # so check_nonempty rejected some of them
    assert {0, 1, 2} <= uncovered


def _naive_canonical(K, q1, q2, s):
    """The count, and the numbers of vertex-free columns among balanced forest arrays."""
    by_occupancy, uncovered = _naive_canonical_by_occupancy(K, q1, q2, s)
    return sum(by_occupancy.values()), uncovered


@functools.cache
def _naive_canonical_by_occupancy(K, q1, q2, s):
    """The count on each occupancy pair (w1, w2), and the numbers of
    vertex-free columns among balanced forest arrays."""
    p1, p2 = 2 * q1 + s, 2 * q2 + s
    by_occupancy = {}
    uncovered = set()
    for w1 in _compositions(p1, K):
        for w2 in _compositions(p2, K):
            count = 0
            for j1 in range(K):
                for j2 in range(K):
                    for pairing in _slot_pairings(w1, w2, s):
                        arr = PairedArray((w1, w2), frozenset({j1}), frozenset({j2}), pairing)
                        if check_balance(arr) and check_forest(arr):
                            free = sum(1 for a, b in zip(w1, w2) if a == b == 0)
                            uncovered.add(free)
                            proper = check_nonempty(arr)
                            assert not (proper and free), (w1, w2, j1, j2, pairing)
                            count += proper
            by_occupancy[w1, w2] = count
    return by_occupancy, uncovered


@pytest.mark.parametrize("K, q1, q2, s", [
    (1, 0, 0, 1), (2, 0, 0, 2), (1, 1, 0, 1), (2, 1, 0, 1), (3, 0, 0, 2),
    (2, 0, 1, 1), (3, 1, 1, 1), (2, 1, 1, 2), (2, 2, 1, 1), (3, 1, 0, 2),
])
def test_canonical_checker_count_is_column_symmetric(K, q1, q2, s):
    """The checker count on (w1, w2) equals that on (sigma w1, sigma w2) for
    every permutation sigma of the columns, which lets the canonical oracle
    count one occupancy pair per column orbit."""
    by_occupancy, _ = _naive_canonical_by_occupancy(K, q1, q2, s)
    for (w1, w2), count in by_occupancy.items():
        for sigma in permutations(range(K)):
            image = (tuple(w1[j] for j in sigma), tuple(w2[j] for j in sigma))
            assert by_occupancy[image] == count, (w1, w2, sigma)


def _slot_pairings(w1, w2, s):
    p1, p2 = sum(w1), sum(w2)
    for mixed1 in combinations(range(p1), s):
        rest1 = [x for x in range(p1) if x not in mixed1]
        for mixed2 in combinations(range(p2), s):
            rest2 = [x for x in range(p2) if x not in mixed2]
            for image in permutations(mixed2):
                for within1 in _pairings_of(rest1):
                    for within2 in _pairings_of(rest2):
                        pairing = [0] * (p1 + p2)
                        for a, b in zip(mixed1, image):
                            pairing[a] = p1 + b
                            pairing[p1 + b] = a
                        for a, b in within1:
                            pairing[a] = b
                            pairing[b] = a
                        for a, b in within2:
                            pairing[p1 + a] = p1 + b
                            pairing[p1 + b] = p1 + a
                        yield tuple(pairing)


def _pairings_of(elements):
    if not elements:
        yield []
        return
    first, rest = elements[0], elements[1:]
    for i, other in enumerate(rest):
        remaining = rest[:i] + rest[i + 1 :]
        for sub in _pairings_of(remaining):
            yield [(first, other)] + sub


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
def test_column_orbits_cover_every_tuple_once(K):
    """Each orbit's size counts the K-tuples that sort to its representative,
    and the representatives are distinct and non-decreasing."""
    totals = [(s,) for s in range(7)] + list(product(range(6), repeat=2))
    for total in totals:
        orbits = list(_column_orbits(K, total))
        reps = [rep for rep, _ in orbits]
        assert len(set(reps)) == len(reps)
        assert all(list(rep) == sorted(rep) for rep in reps)
        tuples = Counter(
            tuple(sorted(zip(*rows))) for rows in product(*(_compositions(n, K) for n in total))
        )
        assert dict(orbits) == tuples
        assert sum(size for _, size in orbits) == prod(binomial(n + K - 1, K - 1) for n in total)


@pytest.mark.parametrize("K, q1, q2, s", [(5, 1, 1, 3), (6, 2, 2, 1), (6, 1, 1, 3)])
def test_canonical_equals_surjections_at_d5(K, q1, q2, s):
    """d = 5 tuples beyond the d <= 4 sweeps: one with three mixed pairs,
    and two with K = d + 1 that count 0, where each row has fewer slots
    than columns."""
    assert canonical_array_count_brute(K, q1, q2, s) == paired_surjection_count_brute(K, q1, q2, s)


def test_canonical_rejects_bad_arguments():
    with pytest.raises(ValueError):
        canonical_array_count_brute(0, 0, 0, 1)
    with pytest.raises(ValueError):
        canonical_array_count_brute(1, 0, 0, 0)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=4),
)
@example(2, 1, 1, 2)
@example(2, 2, 1, 2)
@example(3, 2, 2, 3)
def test_vertical_brute_consistency_with_omega(K, R1, R2, s):
    if R1 > K or R2 > K:
        assert vertical_array_count_brute(K, R1, R2, s) == 0
        return
    total = sum(
        omega_count_brute(SubstructureOmega(K, R1, R2, w)) for w in _compositions(s, K)
    )
    assert vertical_array_count_brute(K, R1, R2, s) == total
