"""Exhaustive-enumeration oracles for every counted quantity.

These enumerators are deliberately independent of the closed-form formulas:
they spell out the defining conditions and count. They are meant for desk
scale (at most a few pairs per row) and serve as ground truth everywhere.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, groupby, product
from math import factorial, prod
from operator import ge, itemgetter
from typing import Iterator

from .arrays import (
    SubstructureGamma,
    SubstructureOmega,
    _rightmost_slots,
    _rooted_forest,
    _slot_columns,
    _stays_rooted,
)
from .exact import CycleCountVector, Pairing, _as_int, gamma_of_rows, multinomial


# ----------------------------------------------------------------------
# Pairing enumeration
# ----------------------------------------------------------------------


def _pairing_partners(n: int) -> Iterator[tuple[int, ...]]:
    """Yield every pairing of 0..n-1 as a partner tuple.

    Order is deterministic: the smallest unpaired element is paired with each
    larger candidate in increasing order, recursively.
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

    yield from rec(list(range(n)))


def _row_ends(rows: tuple[int, ...]) -> list[int]:
    """Per element of the ground set of ``rows``, the first element past its row.

    So a pair a < b is mixed, its ends in different rows, when b >= ends[a].
    """
    return [stop for p, stop in zip(rows, accumulate(rows)) for _ in range(p)]


@lru_cache(maxsize=None)
def _pairing_classes(rows: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Partner tuples of every pairing of the ground set of ``rows``, in one
    pass over the full stream: entry m holds those with m mixed pairs, in
    stream order."""
    ends = _row_ends(rows)
    classes: list[list[tuple[int, ...]]] = [[] for _ in range(len(ends) // 2 + 1)]
    for p in _pairing_partners(len(ends)):
        classes[sum(map(ge, p, ends))].append(p)
    return tuple(map(tuple, classes))


def enumerate_pairings(rows: tuple[int, ...], mixed: int) -> Iterator[Pairing]:
    """Pairings of the ground set of ``rows`` (see ``gamma_of_rows``) with
    ``mixed`` pairs whose ends lie in different rows, in the order of the
    full stream."""
    rows = tuple(rows)
    gamma_of_rows(rows)  # raises unless every row size is a positive integer
    if _as_int(mixed, "mixed") < 0:
        raise ValueError("mixed must be non-negative")
    classes = _pairing_classes(rows)
    for partner in classes[mixed] if mixed < len(classes) else ():
        yield Pairing._unchecked(partner)


# ----------------------------------------------------------------------
# Cycle-count tallies
# ----------------------------------------------------------------------


_STRIDE = 1 << 32  # a sub-tally key is mixed * _STRIDE + cycles


@lru_cache(maxsize=None)
def _pairing_tally(rows: tuple[int, ...]) -> dict[tuple[int, int], int]:
    """Tally the pairings mu of the rows' ground set by (mixed pairs, cycles of mu gamma^-1).

    gamma cycles each row (``gamma_of_rows``). The walk pairs the smallest
    free element a with each later free b in turn, as ``_pairing_partners``
    does, and grows mu gamma^-1 as disjoint paths: the pair a-b places the
    arcs gamma(a) -> b and gamma(b) -> a, and an arc that closes its own path
    adds a cycle.

    Midway, the arcs gamma(x) -> mu(x) placed so far form paths, and each
    starts at a free element f (no arc enters it yet) and ends at gamma(f')
    for a free f' (no arc leaves it yet); pi maps f to f'. At the start every
    path is one element, so pi = gamma^-1. From then on the rest of the
    tally depends only on the row of each free element and on pi: the pair
    a-b is mixed when a and b lie in different rows, the path ending at
    gamma(a) is the one starting at pi^-1(a), and it closes exactly when
    pi(b) = a, so the cycles added and the next pi are read from pi alone.
    Relabel the free elements 0..m-1 in their order; the rest of the walk is
    then the same walk on the relabelled state, smallest first. So the state
    is (the row sizes of the free elements, empty rows dropped, and the
    relabelled pi), and it alone determines the sub-tally: nothing of
    ``rows`` enters it beyond the state. ``_tally_state`` therefore caches
    each state for the life of the process, and every row tuple whose walk
    reaches a state reuses its sub-tally. Every pairing is still counted
    exactly once.
    """
    gamma = gamma_of_rows(rows)
    pi = [0] * len(gamma)
    for x, gx in enumerate(gamma):
        pi[gx] = x
    top = _tally_state(rows, tuple(pi))
    return {divmod(key, _STRIDE): c for key, c in sorted(zip(top[::2], top[1::2]))}


@lru_cache(maxsize=None)
def _tally_state(sizes: tuple[int, ...], pi: tuple[int, ...]) -> tuple[int, ...]:
    """Sub-tally of one state of the ``_pairing_tally`` walk.

    ``sizes`` are the row sizes of the free elements 0..m-1, in order, and
    pi[f] is the free f' whose gamma(f') ends the path starting at f. The
    sub-tally is a flat tuple of (key, count) pairs with key = mixed *
    _STRIDE + cycles, and keys of a prefix and of its sub-tally add. This
    needs cycles < _STRIDE: by Euler's formula the cycles of a pairing of n
    elements in len(rows) rows number at most n/2 + len(rows), far below
    _STRIDE for any ground set the walk can finish. With no element left,
    the one empty completion has key 0.
    """
    if not pi:
        return (0, 1)
    m = len(pi)
    acc: dict[int, int] = {}
    pa = pi[0]
    b = 0
    for row, size in enumerate(sizes):
        rest = list(sizes)
        rest[0] -= 1
        rest[row] -= 1
        rest_sizes = tuple(filter(None, rest))
        for _ in range(size - (row == 0)):
            b += 1
            pb = pi[b]
            # cycles closed by the arcs gamma(a) -> b and gamma(b) -> a
            if pb == 0:
                closed = 1 + (pa == b)
            else:
                closed = int(pa == b or (pa == 0 and pb == b))
            shift = closed + _STRIDE if row else closed
            # a path that ended at gamma(a) now runs on through b to
            # gamma(pi(b)), and through a again if pi(b) = b; likewise
            # a path that ended at gamma(b)
            rest_pi = []
            for f in range(1, m):
                if f != b:
                    x = pi[f]
                    if x == 0:
                        x = pa if pb == b else pb
                    elif x == b:
                        x = pb if pa == 0 else pa
                    rest_pi.append(x - 1 if x < b else x - 2)
            sub = _tally_state(rest_sizes, tuple(rest_pi))
            for key, count in zip(sub[::2], sub[1::2]):
                key += shift
                acc[key] = acc.get(key, 0) + count
    return tuple(v for item in acc.items() for v in item)


def hz_counts_brute(q: int) -> CycleCountVector:
    """Tally pairings of [2q] by the cycle count of mu composed with gamma inverse."""
    if _as_int(q, "parameters") < 1:
        raise ValueError("q must be positive")
    tally = _pairing_tally((2 * q,))
    return CycleCountVector.from_tally(q, {L: c for (_, L), c in tally.items()})


def gs_counts_brute(q1: int, q2: int, s: int) -> CycleCountVector:
    """Tally two-row pairings with q_i within-row pairs and s mixed pairs."""
    q1, q2, s = (_as_int(x, "parameters") for x in (q1, q2, s))
    if q1 < 0 or q2 < 0 or s < 1:
        raise ValueError("need q1, q2 >= 0 and s >= 1")
    tally = _pairing_tally((2 * q1 + s, 2 * q2 + s))
    return CycleCountVector.from_tally(
        q1 + q2 + s, {L: c for (mixed, L), c in tally.items() if mixed == s}
    )


# ----------------------------------------------------------------------
# Paired surjections
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _surjections(L: int, K: int) -> int:
    """Number of surjections from L labelled blocks onto [K].

    Counted by placing the last block: it takes one of the K values, which
    the other blocks either also hit or leave to it alone.
    """
    if L == 0 or K == 0:
        return int(L == K)
    return K * (_surjections(L - 1, K) + _surjections(L - 1, K - 1))


@lru_cache(maxsize=None, typed=True)
def paired_surjection_count_brute(K: int, q1: int, q2: int, s: int) -> int:
    """Count pairs (mu, pi) with pi surjective onto [K] and pi(mu(v)) = pi(gamma(v)).

    The constraint forces pi to be constant on the blocks generated by
    identifying mu(v) with gamma(v) for every v, and those blocks are the
    cycles of mu gamma^-1. So the count is the sum over the class's cycle
    tally from ``_pairing_tally`` of (pairings with L cycles) * Surj(L, K).
    """
    K, q1, q2, s = (_as_int(x, "parameters") for x in (K, q1, q2, s))
    if K < 1 or s < 1 or q1 < 0 or q2 < 0:
        raise ValueError("need K >= 1, s >= 1, q1, q2 >= 0")
    tally = _pairing_tally((2 * q1 + s, 2 * q2 + s))
    return sum(c * _surjections(L, K) for (mixed, L), c in tally.items() if mixed == s)


# ----------------------------------------------------------------------
# Matching counts under the forest condition (shared core)
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _rooting_columns(psi: tuple[int, ...]) -> int:
    """Number of columns j such that the single mark {j} roots the forest map ``psi``.

    psi[j] is the column of the partner of cell j's rightmost slot (-1 if
    the cell is empty). Marking a column takes it out of the forest map,
    which changes nothing here: the walk stops at a root before following it.
    """
    full = {j: v for j, v in enumerate(psi) if v >= 0}
    return sum(1 for j in range(len(psi)) if _rooted_forest(full, {j}))


_Slot = tuple[int, int]  # (column, index-within-cell)


def _count_forest_matchings(g: SubstructureGamma, forced: tuple[_Slot, _Slot] | None = None) -> int:
    """Count bijections between the row-1 and row-2 slots of ``g`` whose
    forest maps are rooted at its marked columns.

    ``forced=(v, u)`` restricts the count to matchings pairing row-1 slot v
    with row-2 slot u, both checked (column, index-within-cell) addresses.

    Only the critical slots, rightmost in their open cells, feed the forest
    maps: psi1 sends the column of a critical row-1 slot to the column of
    its partner, psi2 likewise for row 2, and psi1 starts as the arrows. The
    other slots are spare, and spare slots of one column are interchangeable.
    So a matching is read off in four steps, and the walk branches only in
    the first three, where a forest map gets an edge.

    1. The forced pair, if any, is placed first, with the edges it gives.
    2. Each critical row-1 slot takes the critical slot of an open row-2
       cell (an edge in both maps) or a spare slot of some column j (an
       edge in psi1). The n spare slots left in j are n different
       matchings that give the same edges and leave the same pool, n - 1
       spare slots in j, so that branch is walked once with weight n.
    3. Each critical row-2 slot still unmatched then takes a row-1 slot by
       the same step, which can only give it a spare one: a row-1 slot is
       critical or spare, and every critical one is matched by now. Steps 2
       and 3 are one loop over the critical slots, row 1's first, which
       skips a slot already matched.
    4. The spare slots left pair up in any of m! ways, m on each side,
       since neither side feeds a forest map: the walk multiplies by m!.

    Every matching follows exactly one branch, and its weights count the
    matchings that branch stands for. A column whose edge is still to
    come is pending. The walk keeps each map rooted at the marks plus its
    pending columns: that holds for the arrows before the walk (a cycle
    among them, or an arrow into an empty open cell, gives 0 at once) and
    for the empty psi2, and ``_stays_rooted`` admits an edge exactly when
    the map with it still holds it. A branch it stops has no completion to
    count: with the pending columns taken as roots, more edges cannot mend
    a cycle or a dead end. At step 4 no column is pending, so the maps are
    rooted at the marks alone, which is the forest condition.
    """
    K = g.K
    # per row (index 0 for row 1): the columns with a critical slot, whether
    # it is still unmatched, each column's spare slots, the forest map and its roots
    crit = g._crit
    waiting = ([False] * K, [False] * K)
    spare = (list(g.w[0]), list(g.w[1]))
    for r in (0, 1):
        for j in crit[r]:
            waiting[r][j] = True
            spare[r][j] -= 1
    psi = (g.phi, {})
    roots = ({*g.r1, *crit[0]}, {*g.r2, *crit[1]})
    if not _rooted_forest(psi[0], roots[0]):
        return 0
    if forced is not None:
        for row in (0, 1):
            (j, idx), (h, _) = forced[row], forced[1 - row]
            if waiting[row][j] and idx == g.w[row][j] - 1:
                if not _stays_rooted(psi[row], roots[row], j, h):
                    return 0
                psi[row][j] = h
                roots[row].discard(j)
                waiting[row][j] = False
            else:
                spare[row][j] -= 1
    # each critical slot with its row's state and the other row's, read once
    slots = [(j, psi[r], roots[r], waiting[r], psi[1 - r], roots[1 - r], waiting[1 - r],
              spare[1 - r]) for r in (0, 1) for j in crit[r]]

    def place(i: int) -> int:
        # steps 2 and 3: the critical slots slots[i:]
        if i == len(slots):
            return factorial(sum(spare[1]))
        j, psi_r, roots_r, waiting_r, psi_o, roots_o, waiting_o, spare_o = slots[i]
        if not waiting_r[j]:
            return place(i + 1)
        waiting_r[j] = False
        total = 0
        for h in range(K):
            n = spare_o[h]
            if not (n or waiting_o[h]) or not _stays_rooted(psi_r, roots_r, j, h):
                continue
            psi_r[j] = h
            roots_r.discard(j)
            if waiting_o[h] and _stays_rooted(psi_o, roots_o, h, j):
                waiting_o[h] = False
                psi_o[h] = j
                roots_o.discard(h)
                total += place(i + 1)
                roots_o.add(h)
                del psi_o[h]
                waiting_o[h] = True
            if n:
                spare_o[h] = n - 1
                total += n * place(i + 1)
                spare_o[h] = n
            roots_r.add(j)
            del psi_r[j]
        waiting_r[j] = True
        return total

    return place(0)


def gamma_count_brute(g: SubstructureGamma) -> int:
    """Arrays satisfying a substructure: matchings passing both forest checks."""
    return _count_forest_matchings(g)


def gamma_count_brute_with_pair(
    g: SubstructureGamma, v: tuple[int, int], u: tuple[int, int]
) -> int:
    """Like gamma_count_brute, restricted to arrays pairing slot v with slot u.

    ``v`` and ``u`` are (column, index-within-cell) addresses in rows 1 and 2.
    """
    forced = (_slot_address(g.w[0], v, "v", 1), _slot_address(g.w[1], u, "u", 2))
    return _count_forest_matchings(g, forced)


def _slot_address(w: tuple[int, ...], address: _Slot, label: str, row: int) -> _Slot:
    """``address`` as a (column, index-within-cell) slot of a row with occupancy ``w``."""
    try:
        col, idx = address
    except (TypeError, ValueError):
        raise ValueError(f"{label} must be a (column, index) pair") from None
    col, idx = (_as_int(x, f"{label} coordinates") for x in (col, idx))
    if not (0 <= col < len(w) and 0 <= idx < w[col]):
        raise ValueError(f"{label} is not a slot of row {row}")
    return col, idx


def omega_count_brute(o: SubstructureOmega) -> int:
    """Proper vertical arrays with the given balanced occupancy.

    Every array on (w, w) is balanced. Fixing its marks, an R1-set r1 and an
    R2-set r2 of the columns, leaves a substructure whose arrays are the
    slot matchings with both forest maps rooted at the marks, which
    ``_count_forest_matchings`` counts. Such an array is non-empty exactly
    when r1 and r2 together cover every column without vertices. So the
    count is the sum of the substructure counts over the covering mark sets.

    The count is the same on sigma w for every permutation sigma of the K
    columns, so it is taken, and cached, once on the sorted occupancy. Slots
    are numbered column by column, so sigma moves the slots of each cell as
    one block and keeps their order: a bijection of the slots of w onto
    those of sigma w. It sends a matching to a matching and the rightmost
    slot of a cell to the rightmost slot of the image cell, so each forest
    map psi becomes sigma psi sigma^-1, whose walks are those of psi with
    columns renamed: it is rooted at sigma(r) exactly when psi is rooted at
    r. Mark sets go to mark sets of the same sizes, and the columns without
    vertices of w go to those of sigma w, so covering is kept. The arrays on
    (w; r1, r2) thus map one to one onto those on (sigma w; sigma r1, sigma r2).
    """
    return _sorted_omega_count(o.K, o.r1, o.r2, tuple(sorted(o.w)))


@lru_cache(maxsize=None)
def _sorted_omega_count(K: int, R1: int, R2: int, w: tuple[int, ...]) -> int:
    """``omega_count_brute`` on a sorted occupancy ``w``, walked once per
    orbit of covering mark-set pairs.

    The columns of w fall into blocks of equal occupancy, and a permutation
    sigma that moves columns only within their blocks fixes w. As shown for
    ``omega_count_brute``, it maps the arrays on (w; r1, r2) one to one onto
    those on (w; sigma r1, sigma r2), and it keeps covering, since it maps
    the vertex-free columns, one block, onto themselves. Under these
    permutations the orbit of (r1, r2) is fixed by how many of each block's
    n columns are marked in row 1 only (a), in row 2 only (b), in both (c)
    or in neither (e), and it holds prod multinomial(a, b, c, e) pairs. So
    the walk runs once per choice of (a, b, c, e) for each block, with
    sum(a + c) = R1, sum(b + c) = R2 and e = 0 in the vertex-free block,
    on the pair that marks each block's first columns in that order.
    ``_mark_splits`` draws each block's choices within the marks left by
    the blocks before it, so a wide block costs what its marks allow rather
    than cubic time in its width, and no split over-spends R1 or R2.
    """
    blocks = [(count, len(list(run))) for count, run in groupby(w)]
    total = 0
    for split in _mark_splits(blocks, R1, R2):
        r1: list[int] = []
        r2: list[int] = []
        start = 0
        for (a, b, c, _), (_, n) in zip(split, blocks):
            r1 += range(start, start + a)
            r1 += range(start + a + b, start + a + b + c)
            r2 += range(start + a, start + a + b + c)
            start += n
        weight = prod(map(multinomial, split))
        # w is sorted from a checked SubstructureOmega, and r1 and r2 are
        # R1- and R2-sets of its columns with 1 <= R_i <= K: the parts pass
        # the constructor's checks
        g = SubstructureGamma._unchecked((w, w), frozenset(r1), frozenset(r2), {})
        total += weight * _count_forest_matchings(g)
    return total


def _mark_splits(blocks: list[tuple[int, int]], R1: int, R2: int
                 ) -> Iterator[tuple[tuple[int, int, int, int], ...]]:
    """Every split of the marks over ``blocks``, (occupancy, width n) pairs,
    as one (a, b, c, e) per block as in ``_sorted_omega_count``: a + b + c +
    e = n, e = 0 in the vertex-free block, sum(a + c) = R1 and sum(b + c) =
    R2. Each block's choices are drawn within the marks the blocks before it
    left, in the order of its 4-part compositions, so every split is yielded
    once, in the order of ``itertools.product`` over the blocks.

    The last block takes every mark still left, so its c fixes a = R1 - c,
    b = R2 - c and e = n - a - b - c. Its splits are the c with a, b >= 0
    and e >= 0, which is c >= R1 + R2 - n, and e = 0 in the vertex-free
    block, which is c = R1 + R2 - n. They are yielded by falling c, which
    is rising a, the order of the compositions. ``_sorted_omega_count``
    passes its blocks sorted ascending, so its last block holds vertices;
    a vertex-free last block comes only from direct calls.
    """
    if not blocks:
        if not (R1 or R2):
            yield ()
        return
    (count, n), rest = blocks[0], blocks[1:]
    if not rest:
        high = min(R1, R2) if count else min(R1, R2, R1 + R2 - n)
        for c in range(high, max(R1 + R2 - n, 0) - 1, -1):
            yield ((R1 - c, R2 - c, c, n - R1 - R2 + c),)
        return
    for a in range(min(R1, n) + 1):
        for b in range(min(R2, n - a) + 1):
            for c in range(min(R1 - a, R2 - b, n - a - b) + 1):
                if count or a + b + c == n:
                    for tail in _mark_splits(rest, R1 - a - c, R2 - b - c):
                        yield ((a, b, c, n - a - b - c), *tail)


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


_ColumnTypes = tuple[tuple[int, ...], ...]  # one count per row for each column


def _column_orbits(K: int, totals: tuple[int, ...]) -> Iterator[tuple[_ColumnTypes, int]]:
    """Orbits of K-tuples of column types under permutations of the K columns.

    A column type holds one count per row, and the K types add up to
    ``totals`` row by row. Each orbit is yielded once, as its non-decreasing
    representative (types compared as tuples) with its size K!/prod(m!),
    m running over the multiplicities of the distinct types. Each type is
    drawn from the totals still left and is no smaller than the one before,
    so each column still to fill takes at least its first count: a type
    whose first count times those columns exceeds the first total left
    ends the scan at that depth.
    """

    def fill(k: int, left: tuple[int, ...], low: tuple[int, ...]) -> Iterator[_ColumnTypes]:
        if k == 1:
            if left >= low:
                yield (left,)
            return
        for kind in product(*(range(n + 1) for n in left)):
            if kind[0] * k > left[0]:
                return  # every later type has a larger first count
            if kind >= low:
                rest = tuple(n - x for n, x in zip(left, kind))
                for tail in fill(k - 1, rest, kind):
                    yield (kind,) + tail

    for rep in fill(K, tuple(totals), (0,) * len(totals)):
        yield rep, factorial(K) // prod(factorial(len(list(run))) for _, run in groupby(rep))


def vertical_array_count_brute(K: int, R1: int, R2: int, s: int) -> int:
    """Proper vertical arrays: ``omega_count_brute`` summed over every
    occupancy of s vertices in K columns."""
    K, R1, R2, s = (_as_int(x, "parameters") for x in (K, R1, R2, s))
    if K < 1 or R1 < 1 or R2 < 1 or s < 1:
        raise ValueError("need K, R1, R2, s >= 1")
    if R1 > K or R2 > K:
        return 0
    return sum(omega_count_brute(SubstructureOmega(K, R1, R2, w)) for w in _compositions(s, K))


# ----------------------------------------------------------------------
# Canonical paired arrays
# ----------------------------------------------------------------------


@lru_cache(maxsize=None, typed=True)
def canonical_array_count_brute(K: int, q1: int, q2: int, s: int) -> int:
    """Proper paired arrays with a single marked column per row.

    Runs over the occupancy pairs (w1, w2) and, for each, over the pairings
    of its p1 + p2 slots with s mixed pairs. A pairing is kept when it
    balances (w1, w2): each column holds as many mixed slots in row 1 as in
    row 2. It then adds (single marks rooting psi1) * (single marks rooting
    psi2), each from ``_rooting_columns``.

    The count on (w1, w2) is the count on (sigma w1, sigma w2) for every
    permutation sigma of the K columns; in the paper's terms sigma permutes
    the K values of a paired surjection. Slots are numbered row by row and
    column by column, so sigma moves the slots of each cell as one block and
    keeps their order inside it: a slot bijection between the two occupancy
    pairs. It sends a pairing to a pairing with as many mixed pairs, a
    rightmost slot of a cell to the rightmost slot of the image cell, and a
    mixed slot of column j to one of column sigma(j), so balance is kept.
    The forest map of each row becomes sigma psi sigma^-1, whose walks are
    those of psi with columns renamed, so it is rooted at {sigma(j)} exactly
    when psi is rooted at {j}; a column with no vertex in either row moves
    to one with none. So the arrays counted on one pair map one to one onto
    those on the other, and the loop visits one pair per column orbit: the
    representative from ``_column_orbits``, weighted by the orbit's size.
    The weights count occupancy pairs, not arrays, and take nothing from a
    closed form.

    Orbits with a column that has no vertex in either row are skipped,
    because no array on them passes all the checks. Canonical arrays have
    no arrows, so the non-empty condition needs such a column j marked in
    row 1 or row 2. But no forest edge enters j: every forest map value is
    the column of some slot, and j holds none. The row whose single mark is
    j has a vertex in some column (p_i >= s >= 1), and the walk from there
    never reaches j, so it ends in a cycle or at an empty cell of that row:
    j roots neither row. With no vertex-free column left the non-empty
    condition always holds.
    """
    K, q1, q2, s = (_as_int(x, "parameters") for x in (K, q1, q2, s))
    if K < 1 or s < 1 or q1 < 0 or q2 < 0:
        raise ValueError("need K >= 1, s >= 1, q1, q2 >= 0")
    p1, p2 = 2 * q1 + s, 2 * q2 + s
    # each pairing with getters of its mixed slots in row 1 and in row 2, both ascending
    pairings = []
    for partner in _pairing_classes((p1, p2))[s]:
        mixed1 = [x for x in range(p1) if partner[x] >= p1]
        mixed2 = sorted(partner[x] for x in mixed1)
        pairings.append((partner, itemgetter(*mixed1), itemgetter(*mixed2)))
    total = 0
    for rep, size in _column_orbits(K, (p1, p2)):
        if (0, 0) in rep:
            continue
        w1, w2 = zip(*rep)
        col = _slot_columns(w1) + _slot_columns(w2)
        rm1, rm2 = _rightmost_slots(w1), _rightmost_slots(w2, p1)
        for partner, mixed1, mixed2 in pairings:
            # balance: a row's columns ascend with its slots, so equal column
            # sequences of the mixed slots mean as many per column in each row
            if mixed1(col) == mixed2(col):
                psi1 = tuple(col[partner[t]] if t >= 0 else -1 for t in rm1)
                psi2 = tuple(col[partner[t]] if t >= 0 else -1 for t in rm2)
                total += size * _rooting_columns(psi1) * _rooting_columns(psi2)
    return total
