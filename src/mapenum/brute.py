"""Exhaustive-enumeration oracles for every counted quantity.

These enumerators are deliberately independent of the closed-form formulas:
they spell out the defining conditions and count. They are meant for desk
scale (at most a few pairs per row) and serve as ground truth everywhere.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations, product
from typing import Iterator, Mapping, Sequence

from .arrays import SubstructureGamma, SubstructureOmega, _rooted_forest
from .exact import CycleCountVector, Pairing, TwoRowGround


# ----------------------------------------------------------------------
# Pairing enumeration
# ----------------------------------------------------------------------


def _pairing_partners(n: int, first_partner: int | None = None) -> Iterator[tuple[int, ...]]:
    """Yield every pairing of 0..n-1 as a partner tuple.

    Order is deterministic: the smallest unpaired element is paired with each
    larger candidate in increasing order, recursively. ``first_partner``
    restricts the stream to the branch where element 0 takes that partner,
    which gives a fan-out point for partitioned runs.
    """
    if n % 2 != 0:
        raise ValueError("ground size must be even")
    partner = [-1] * n

    def rec(free: list[int]) -> Iterator[tuple[int, ...]]:
        if not free:
            yield tuple(partner)
            return
        i = free[0]
        for k in range(1, len(free)):
            j = free[k]
            partner[i] = j
            partner[j] = i
            yield from rec(free[1:k] + free[k + 1 :])

    free = list(range(n))
    if first_partner is not None:
        if not 1 <= first_partner < n:
            raise ValueError(f"first_partner must be in 1..{n - 1}")
        partner[0], partner[first_partner] = first_partner, 0
        free = [k for k in free[1:] if k != first_partner]
    yield from rec(free)


def enumerate_pairings_one_row(q: int, first_partner: int | None = None) -> Iterator[Pairing]:
    """All (2q-1)!! pairings of a 2q-element row, in deterministic order."""
    if q < 0:
        raise ValueError("q must be non-negative")
    for partner in _pairing_partners(2 * q, first_partner):
        yield Pairing(partner)


def _mixed_pair_count(partner: Sequence[int], p1: int) -> int:
    return sum(1 for i in range(p1) if partner[i] >= p1)


def enumerate_pairings_two_row(
    q1: int, q2: int, s: int, first_partner: int | None = None
) -> Iterator[Pairing]:
    """Pairings of the two-row ground set with q_i within-row pairs and s mixed,
    in the order and with the ``first_partner`` fan-out of the full stream."""
    if q1 < 0 or q2 < 0 or s < 1:
        raise ValueError("need q1, q2 >= 0 and s >= 1")
    p1, p2 = 2 * q1 + s, 2 * q2 + s
    for partner in _pairing_partners(p1 + p2, first_partner):
        if _mixed_pair_count(partner, p1) == s:
            yield Pairing(partner)


# ----------------------------------------------------------------------
# Cycle-count tallies (one and two rows)
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _pairing_tally(p1: int, p2: int) -> dict[tuple[int, int], int]:
    """Tally all pairings mu of p1 + p2 elements by (mixed pairs, cycles of mu gamma^-1).

    gamma cycles each row (p2 = 0 for one row). The walk visits every pairing
    in the order of ``_pairing_partners`` and grows mu gamma^-1 as disjoint
    paths: the pair a-b adds the arcs gamma(a) -> b and gamma(b) -> a, and an
    arc that closes its own path adds a cycle. ``end[x]`` is the other end of
    the path ending or starting at x, restored on backtrack.
    """
    n = p1 + p2
    gamma = [(i + 1) % p1 for i in range(p1)] + [p1 + (i + 1) % p2 for i in range(p2)]
    end = list(range(n))
    stride = n // 2 + 3  # key = mixed * stride + cycles, cycles <= n/2 + 2
    counts = [0] * (stride * (n // 2 + 1))

    def walk(free: list[int], key: int) -> None:
        a = free[0]
        ga = gamma[a]
        if len(free) == 2:
            # last pair: two cycles if gamma(a)'s path starts at b, else one
            b = free[1]
            key += 2 if end[ga] == b else 1
            counts[key + stride if a < p1 <= b else key] += 1
            return
        for k in range(1, len(free)):
            b = free[k]
            gb = gamma[b]
            c = key + stride if a < p1 <= b else key
            s1, e1 = end[ga], end[b]
            if s1 == b:
                c += 1
            else:
                end[s1], end[e1] = e1, s1
            s2, e2 = end[gb], end[a]
            if s2 == a:
                walk(free[1:k] + free[k + 1 :], c + 1)
            else:
                end[s2], end[e2] = e2, s2
                walk(free[1:k] + free[k + 1 :], c)
                end[s2], end[e2] = gb, a
            if s1 != b:
                end[s1], end[e1] = ga, b

    walk(list(range(n)), 0)
    return {divmod(key, stride): c for key, c in enumerate(counts) if c}


def hz_counts_brute(q: int) -> CycleCountVector:
    """Tally pairings of [2q] by the cycle count of mu composed with gamma inverse."""
    if q < 1:
        raise ValueError("q must be positive")
    tally = _pairing_tally(2 * q, 0)
    return CycleCountVector.from_tally(q, {L: c for (_, L), c in tally.items()})


def gs_counts_brute(q1: int, q2: int, s: int) -> CycleCountVector:
    """Tally two-row pairings with q_i within-row pairs and s mixed pairs."""
    if q1 < 0 or q2 < 0 or s < 1:
        raise ValueError("need q1, q2 >= 0 and s >= 1")
    tally = _pairing_tally(2 * q1 + s, 2 * q2 + s)
    return CycleCountVector.from_tally(
        q1 + q2 + s, {L: c for (mixed, L), c in tally.items() if mixed == s}
    )


# ----------------------------------------------------------------------
# Paired surjections
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _surjective_function_count(classes: int, K: int) -> int:
    """Number of surjections from ``classes`` labelled blocks onto [K], by enumeration."""
    return sum(1 for image in product(range(K), repeat=classes) if len(set(image)) == K)


@lru_cache(maxsize=None)
def paired_surjection_count_brute(K: int, q1: int, q2: int, s: int) -> int:
    """Count pairs (mu, pi) with pi surjective onto [K] and pi(mu(v)) = pi(gamma(v)).

    For each pairing the constraint forces pi to be constant on the blocks
    generated by identifying mu(v) with gamma(v) for every v; the surjections
    on those blocks are counted by direct enumeration.
    """
    if K < 1 or s < 1 or q1 < 0 or q2 < 0:
        raise ValueError("need K >= 1, s >= 1, q1, q2 >= 0")
    p1, p2 = 2 * q1 + s, 2 * q2 + s
    n = p1 + p2
    gamma = TwoRowGround(p1, p2).gamma()
    total = 0
    for partner in _pairing_partners(n):
        if _mixed_pair_count(partner, p1) != s:
            continue
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for v in range(n):
            a, b = find(partner[v]), find(gamma[v])
            if a != b:
                parent[a] = b
        blocks = len({find(x) for x in range(n)})
        total += _surjective_function_count(blocks, K)
    return total


# ----------------------------------------------------------------------
# Matching counts under the forest condition (shared core)
# ----------------------------------------------------------------------


def _count_forest_matchings(
    w1: Sequence[int],
    w2: Sequence[int],
    r1: frozenset[int],
    r2: frozenset[int],
    phi: Mapping[int, int],
    forced: tuple[int, int] | None = None,
) -> int:
    """Count bijections between the row-1 and row-2 slots whose forest maps
    are rooted at the marked columns.

    ``forced=(t, u)`` restricts the count to matchings sending row-1 slot t
    to row-2 slot u (flat slot indices in row order).
    """
    s = sum(w1)
    if sum(w2) != s:
        raise ValueError("rows must carry the same number of vertices")
    K = len(w1)
    col1 = [j for j in range(K) for _ in range(w1[j])]
    col2 = [j for j in range(K) for _ in range(w2[j])]
    # rightmost slot of each cell that feeds the forest map
    rm1 = []
    offset = 0
    for j in range(K):
        if w1[j] > 0 and j not in r1 and j not in phi:
            rm1.append((j, offset + w1[j] - 1))
        offset += w1[j]
    rm2 = []
    offset = 0
    for j in range(K):
        if w2[j] > 0 and j not in r2:
            rm2.append((j, offset + w2[j] - 1))
        offset += w2[j]
    base1 = dict(phi)
    total = 0
    inv = [0] * s
    for perm in permutations(range(s)):
        if forced is not None and perm[forced[0]] != forced[1]:
            continue
        psi1 = dict(base1)
        for j, t in rm1:
            psi1[j] = col2[perm[t]]
        for t, u in enumerate(perm):
            inv[u] = t
        psi2 = {j: col1[inv[u]] for j, u in rm2}
        if _rooted_forest(psi1, r1) and _rooted_forest(psi2, r2):
            total += 1
    return total


def gamma_count_brute(g: SubstructureGamma) -> int:
    """Arrays satisfying a substructure: matchings passing both forest checks."""
    return _count_forest_matchings(g.w[0], g.w[1], g.r1, g.r2, g.phi)


def gamma_count_brute_with_pair(
    g: SubstructureGamma, v: tuple[int, int], u: tuple[int, int]
) -> int:
    """Like gamma_count_brute, restricted to arrays pairing slot v with slot u.

    ``v`` and ``u`` are (column, index-within-cell) addresses in rows 1 and 2.
    """
    vcol, vidx = v
    ucol, uidx = u
    if not 0 <= vidx < g.w[0][vcol]:
        raise ValueError("v is not a slot of row 1")
    if not 0 <= uidx < g.w[1][ucol]:
        raise ValueError("u is not a slot of row 2")
    t = sum(g.w[0][:vcol]) + vidx
    uflat = sum(g.w[1][:ucol]) + uidx
    return _count_forest_matchings(g.w[0], g.w[1], g.r1, g.r2, g.phi, forced=(t, uflat))


@lru_cache(maxsize=None)
def omega_count_brute(o: SubstructureOmega) -> int:
    """Proper vertical arrays with the given balanced occupancy.

    Sums the forest-matching count over every pair of mark subsets under
    which all columns are non-empty; balance holds by construction.
    """
    cols = range(o.K)
    total = 0
    for marks1 in combinations(cols, o.r1):
        set1 = frozenset(marks1)
        for marks2 in combinations(cols, o.r2):
            set2 = frozenset(marks2)
            if any(o.w[j] == 0 and j not in set1 and j not in set2 for j in cols):
                continue
            total += _count_forest_matchings(o.w, o.w, set1, set2, {})
    return total


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Weak compositions of ``total`` into ``parts`` ordered parts."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def vertical_array_count_brute(K: int, R1: int, R2: int, s: int) -> int:
    """Proper vertical arrays: occupancies, mark subsets, and slot matchings."""
    if K < 1 or R1 < 1 or R2 < 1 or s < 1:
        raise ValueError("need K, R1, R2, s >= 1")
    if R1 > K or R2 > K:
        return 0
    return sum(
        omega_count_brute(SubstructureOmega(K, R1, R2, w)) for w in _compositions(s, K)
    )


# ----------------------------------------------------------------------
# Canonical paired arrays
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _two_row_slot_pairings(
    q1: int, q2: int, s: int
) -> tuple[tuple[tuple[int, ...], tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]], ...]:
    """All slot-level pairings with q_i within-row pairs and s mixed pairs.

    Slots are row positions 0..p_i-1. Each pairing is returned as
    (mixed1, partner1, partner2) where mixed1 lists the mixed row-1
    positions and partner_i[x] = (row, position) is the partner of row-i
    position x.
    """
    p1, p2 = 2 * q1 + s, 2 * q2 + s
    out = []
    for mixed1 in combinations(range(p1), s):
        rest1 = tuple(x for x in range(p1) if x not in mixed1)
        for mixed2 in combinations(range(p2), s):
            rest2 = tuple(x for x in range(p2) if x not in mixed2)
            for image in permutations(mixed2):
                for within1 in _pairing_partners(2 * q1):
                    for within2 in _pairing_partners(2 * q2):
                        partner1: list[tuple[int, int]] = [(-1, -1)] * p1
                        partner2: list[tuple[int, int]] = [(-1, -1)] * p2
                        for x, y in zip(mixed1, image):
                            partner1[x] = (2, y)
                            partner2[y] = (1, x)
                        for a in range(2 * q1):
                            partner1[rest1[a]] = (1, rest1[within1[a]])
                        for a in range(2 * q2):
                            partner2[rest2[a]] = (2, rest2[within2[a]])
                        out.append((mixed1, tuple(partner1), tuple(partner2)))
    return tuple(out)


def _forest_ok_for_root(
    psi_full: Mapping[int, int], occupied: frozenset[int], root: int
) -> bool:
    """Forest condition for a single marked column ``root`` in one row.

    ``psi_full`` maps every occupied column to its rightmost-partner column;
    the domain with ``root`` marked is every other occupied column.
    """
    for start in occupied:
        if start == root:
            continue
        j = start
        seen = set()
        while True:
            if j in seen:
                return False
            seen.add(j)
            j = psi_full[j]
            if j == root:
                break
            if j not in occupied:
                return False
    return True


@lru_cache(maxsize=None)
def canonical_array_count_brute(K: int, q1: int, q2: int, s: int) -> int:
    """Proper paired arrays with a single marked column per row.

    Runs over occupancies, slot pairings, and mark columns, checking the
    non-empty, balance, and forest conditions for each candidate. Occupancy
    pairs that cannot host any balanced pairing, or that leave more than two
    columns without objects, are skipped up front.
    """
    if K < 1 or s < 1 or q1 < 0 or q2 < 0:
        raise ValueError("need K >= 1, s >= 1, q1, q2 >= 0")
    p1, p2 = 2 * q1 + s, 2 * q2 + s
    pairings = _two_row_slot_pairings(q1, q2, s)
    total = 0
    all_cols = frozenset(range(K))
    for w1 in _compositions(p1, K):
        col1 = [j for j in range(K) for _ in range(w1[j])]
        occupied1 = frozenset(j for j in range(K) if w1[j] > 0)
        rm1 = {j: sum(w1[: j + 1]) - 1 for j in occupied1}
        for w2 in _compositions(p2, K):
            occupied2 = frozenset(j for j in range(K) if w2[j] > 0)
            missing = all_cols - occupied1 - occupied2
            if len(missing) > 2:
                continue  # two marks cannot cover the empty columns
            if sum(min(a, b) for a, b in zip(w1, w2)) < s:
                continue  # no pairing can balance the mixed vertices
            col2 = [j for j in range(K) for _ in range(w2[j])]
            rm2 = {j: sum(w2[: j + 1]) - 1 for j in occupied2}
            for mixed1, partner1, partner2 in pairings:
                # balance: mixed vertices per column match between the rows
                m1 = [0] * K
                m2 = [0] * K
                for x in mixed1:
                    m1[col1[x]] += 1
                    m2[col2[partner1[x][1]]] += 1
                if m1 != m2:
                    continue
                psi1 = {}
                for j in occupied1:
                    row, y = partner1[rm1[j]]
                    psi1[j] = col1[y] if row == 1 else col2[y]
                psi2 = {}
                for j in occupied2:
                    row, y = partner2[rm2[j]]
                    psi2[j] = col1[y] if row == 1 else col2[y]
                total += _count_mark_choices(
                    K, missing, psi1, occupied1, psi2, occupied2
                )
    return total


def _count_mark_choices(
    K: int,
    missing: frozenset[int],
    psi1: Mapping[int, int],
    occupied1: frozenset[int],
    psi2: Mapping[int, int],
    occupied2: frozenset[int],
) -> int:
    """Number of single-mark choices (j1, j2) meeting non-empty and forest."""

    def f1(root: int) -> bool:
        return _forest_ok_for_root(psi1, occupied1, root)

    def f2(root: int) -> bool:
        return _forest_ok_for_root(psi2, occupied2, root)

    if len(missing) == 2:
        m, n = sorted(missing)
        return (f1(m) and f2(n)) + (f1(n) and f2(m))
    if len(missing) == 1:
        (m,) = missing
        good1 = [j for j in range(K) if f1(j)]
        good2 = [j for j in range(K) if f2(j)]
        both = (m in good1) and (m in good2)
        return (m in good1) * len(good2) + len(good1) * (m in good2) - both
    good1 = sum(1 for j in range(K) if f1(j))
    good2 = sum(1 for j in range(K) if f2(j))
    return good1 * good2
