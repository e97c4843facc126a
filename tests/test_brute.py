from itertools import combinations, permutations, product
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from mapenum.arrays import (
    PairedArray,
    SubstructureGamma,
    SubstructureOmega,
    check_balance,
    check_forest,
    check_nonempty,
)
from mapenum.brute import (
    _compositions,
    _pairing_tally,
    canonical_array_count_brute,
    enumerate_pairings_one_row,
    enumerate_pairings_two_row,
    gamma_count_brute,
    gamma_count_brute_with_pair,
    gs_counts_brute,
    hz_counts_brute,
    omega_count_brute,
    paired_surjection_count_brute,
    vertical_array_count_brute,
)
from mapenum.exact import TwoRowGround, binomial, cycle_count, double_factorial


# ----------------------------------------------------------------------
# Pairing enumeration
# ----------------------------------------------------------------------


def test_enumerate_one_row_counts():
    assert len(list(enumerate_pairings_one_row(0))) == 1
    assert len(list(enumerate_pairings_one_row(1))) == 1
    assert len(list(enumerate_pairings_one_row(2))) == 3
    assert len(list(enumerate_pairings_one_row(4))) == 105


def test_enumerate_one_row_q1_is_the_single_pair():
    (only,) = enumerate_pairings_one_row(1)
    assert list(only.pairs()) == [(0, 1)]


@pytest.mark.parametrize("q", range(1, 7))
def test_enumerator_cardinality_matches_double_factorial(q):
    assert sum(1 for _ in enumerate_pairings_one_row(q)) == double_factorial(2 * q - 1)


def test_enumerator_cardinality_and_totals_q8():
    # the largest desk-scale cardinality check; the tally total doubles as
    # the stream length
    assert hz_counts_brute(8).total() == double_factorial(15)


def test_enumeration_is_deterministic():
    first = [p.partner for p in enumerate_pairings_one_row(4)]
    second = [p.partner for p in enumerate_pairings_one_row(4)]
    assert first == second
    assert len(set(first)) == len(first)


def test_fan_out_partitions_the_stream():
    full = [p.partner for p in enumerate_pairings_one_row(3)]
    parts = []
    for partner0 in range(1, 6):
        parts += [p.partner for p in enumerate_pairings_one_row(3, first_partner=partner0)]
    assert parts == full


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
        assert sum(1 for _ in enumerate_pairings_two_row(q1, q2, s)) == expected


def test_two_row_fan_out():
    full = [p.partner for p in enumerate_pairings_two_row(1, 0, 1)]
    parts = []
    for partner0 in range(1, 4):
        parts += [
            p.partner for p in enumerate_pairings_two_row(1, 0, 1, first_partner=partner0)
        ]
    assert parts == full


# ----------------------------------------------------------------------
# Cycle-count tallies
# ----------------------------------------------------------------------


def _naive_tally(pairings, gamma_inv, p1):
    """(mixed pairs, cycles of mu gamma^-1) per pairing, straight from the definition."""
    tally = {}
    for mu in pairings:
        mixed = sum(1 for i, j in mu.pairs() if (i < p1) != (j < p1))
        cycles = cycle_count([mu[gamma_inv[i]] for i in range(len(gamma_inv))])
        tally[mixed, cycles] = tally.get((mixed, cycles), 0) + 1
    return tally


@pytest.mark.parametrize("q", range(1, 6))
def test_pairing_walk_matches_definition_one_row(q):
    n = 2 * q
    gamma_inv = [(i - 1) % n for i in range(n)]
    tally = _pairing_tally(n, 0)
    assert tally == _naive_tally(enumerate_pairings_one_row(q), gamma_inv, n)
    assert sum(tally.values()) == double_factorial(n - 1)


@pytest.mark.parametrize(
    "p1, p2",
    [(p1, n - p1) for n in range(2, 11, 2) for p1 in range(1, n)],
)
def test_pairing_walk_matches_definition_two_rows(p1, p2):
    tally = _pairing_tally(p1, p2)
    gamma_inv = TwoRowGround(p1, p2).gamma_inv()
    naive = {}
    if p1 % 2 == 0 and p2 % 2 == 0:  # the class without mixed pairs
        within = (mu for mu in enumerate_pairings_one_row((p1 + p2) // 2)
                  if all((i < p1) == (j < p1) for i, j in mu.pairs()))
        naive.update(_naive_tally(within, gamma_inv, p1))
    for s in range(2 - p1 % 2, min(p1, p2) + 1, 2):
        q1, q2 = (p1 - s) // 2, (p2 - s) // 2
        naive.update(_naive_tally(enumerate_pairings_two_row(q1, q2, s), gamma_inv, p1))
        class_total = sum(c for (mixed, _), c in tally.items() if mixed == s)
        assert class_total == (
            binomial(p1, s) * binomial(p2, s) * factorial(s)
            * double_factorial(2 * q1 - 1) * double_factorial(2 * q2 - 1)
        )
    assert tally == naive
    assert sum(tally.values()) == double_factorial(p1 + p2 - 1)


def test_classes_of_one_ground_set_share_one_walk():
    _pairing_tally.cache_clear()
    gs_counts_brute(1, 1, 1)
    gs_counts_brute(0, 0, 3)
    info = _pairing_tally.cache_info()
    assert (info.misses, info.hits) == (1, 1)


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
        from mapenum.exact import TwoRowGround

        gamma = TwoRowGround(p1, p2).gamma()
        naive = 0
        for mu in enumerate_pairings_two_row(q1, q2, s):
            for pi in product(range(K), repeat=n):
                if len(set(pi)) != K:
                    continue
                if all(pi[mu[v]] == pi[gamma[v]] for v in range(n)):
                    naive += 1
        assert paired_surjection_count_brute(K, q1, q2, s) == naive


# ----------------------------------------------------------------------
# Matching counts under the forest condition
# ----------------------------------------------------------------------


def test_gamma_count_all_marked_is_factorial():
    g = SubstructureGamma.of([[1, 1, 1], [1, 1, 1]], {0, 1, 2}, {0, 1, 2}, {})
    assert gamma_count_brute(g) == 6


def test_gamma_count_self_loop_column_prunes():
    g = SubstructureGamma.of([[1, 1], [1, 1]], {1}, {1}, {})
    assert gamma_count_brute(g) == 1


def test_gamma_count_cyclic_phi_is_zero():
    g = SubstructureGamma.of([[0, 1], [1, 0]], {0}, {0}, {1: 1})
    assert gamma_count_brute(g) == 0


def test_gamma_count_with_pair_partitions_total():
    g = SubstructureGamma.of([[2, 1], [1, 2]], {0}, {1}, {})
    total = gamma_count_brute(g)
    # fixing the partner of the rightmost slot of cell (1, 0) over all row-2
    # slots partitions the matchings
    split = 0
    for col in range(2):
        for idx in range(g.w[1][col]):
            split += gamma_count_brute_with_pair(g, (0, 1), (col, idx))
    assert split == total


def test_gamma_count_matches_checker_based_enumeration():
    """The matcher must agree with building arrays and running the checkers."""
    cases = [
        SubstructureGamma.of([[1, 1], [1, 1]], {1}, {0}, {}),
        SubstructureGamma.of([[2, 1], [1, 2]], {0}, {1}, {}),
        SubstructureGamma.of([[1, 1, 1], [2, 1, 0]], {2}, {0, 1}, {}),
        SubstructureGamma.of([[0, 2], [1, 1]], {1}, {1}, {0: 1}),
    ]
    from mapenum.arrays import ArrowedArray

    for g in cases:
        s = g.s
        direct = 0
        for matching in permutations(range(s)):
            pairing = [0] * (2 * s)
            for t, u in enumerate(matching):
                pairing[t] = s + u
                pairing[s + u] = t
            arr = ArrowedArray(g.w, g.r1, g.r2, tuple(pairing), g.arrows)
            if check_forest(arr):
                direct += 1
        assert gamma_count_brute(g) == direct


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


def test_vertical_brute_matches_checker_based_enumeration():
    """Accepted candidates pass all three conditions; rejected ones fail one."""
    from mapenum.arrays import PairedArray

    K, R1, R2, s = 2, 1, 1, 2
    accepted = 0
    for w in _compositions(s, K):
        for marks1 in combinations(range(K), R1):
            for marks2 in combinations(range(K), R2):
                for matching in permutations(range(s)):
                    pairing = [0] * (2 * s)
                    for t, u in enumerate(matching):
                        pairing[t] = s + u
                        pairing[s + u] = t
                    arr = PairedArray(
                        (w, w), frozenset(marks1), frozenset(marks2), tuple(pairing)
                    )
                    ok = check_nonempty(arr) and check_balance(arr) and check_forest(arr)
                    accepted += ok
    assert accepted == vertical_array_count_brute(K, R1, R2, s)


def test_canonical_anchors():
    assert canonical_array_count_brute(1, 0, 0, 1) == 1
    assert canonical_array_count_brute(1, 1, 0, 1) == 3


def test_canonical_matches_checker_based_enumeration():
    """Cross-check the pruned canonical counter against the dumbest version."""
    for K, q1, q2, s in [(1, 0, 0, 1), (2, 0, 0, 2), (1, 1, 0, 1), (2, 1, 0, 1), (3, 0, 0, 2)]:
        assert canonical_array_count_brute(K, q1, q2, s) == _naive_canonical(K, q1, q2, s)


def _naive_canonical(K, q1, q2, s):
    p1, p2 = 2 * q1 + s, 2 * q2 + s
    count = 0
    for w1 in _compositions(p1, K):
        for w2 in _compositions(p2, K):
            for j1 in range(K):
                for j2 in range(K):
                    for pairing in _slot_pairings(w1, w2, s):
                        arr = PairedArray((w1, w2), frozenset({j1}), frozenset({j2}), pairing)
                        if check_nonempty(arr) and check_balance(arr) and check_forest(arr):
                            count += 1
    return count


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
def test_vertical_brute_consistency_with_omega(K, R1, R2, s):
    if R1 > K or R2 > K:
        assert vertical_array_count_brute(K, R1, R2, s) == 0
        return
    total = sum(
        omega_count_brute(SubstructureOmega(K, R1, R2, w)) for w in _compositions(s, K)
    )
    assert vertical_array_count_brute(K, R1, R2, s) == total
