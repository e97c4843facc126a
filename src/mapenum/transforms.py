"""Count-preserving rewrites of substructures and the label-stripping reduction.

Every transform returns a new value; inputs are never mutated. The count
contracts (array counts before and after agree) are certified against the
brute-force module by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .arrays import (
    PairedArray,
    SubstructureGamma,
    _as_column,
    arrow_cycle,
    check_full,
    critical_vertices,
    is_irreducible,
)
from .exact import Pairing, _as_int, gamma_of_rows


@dataclass(frozen=True)
class CycleDetected:
    """The arrow digraph contains a directed cycle, so no array satisfies it."""

    columns: tuple[int, ...]


def arrow_simplify_to_mark(g: SubstructureGamma, X: int) -> SubstructureGamma:
    """Replace an arrow into a row-1-marked column by marking the tail column.

    Requires phi(X) to exist and point at a column marked in row 1; X leaves
    the arrow map and joins the row-1 marks. Array counts are unchanged.
    """
    X = _as_column(X, g.K, "X")
    phi = g.phi
    if X not in phi:
        raise ValueError(f"column {X} carries no arrow")
    if phi[X] not in g.r1:
        raise ValueError(f"arrow target {phi[X]} is not marked in row 1")
    del phi[X]
    return SubstructureGamma(g.w, g.r1 | {X}, g.r2, phi)


def arrow_simplify_retarget(g: SubstructureGamma, X: int) -> SubstructureGamma:
    """Shortcut an arrow chain: X pointing to Y pointing to Z becomes X to Z.

    Requires phi(X) and phi(phi(X)) to exist. Array counts are unchanged.
    """
    X = _as_column(X, g.K, "X")
    phi = g.phi
    if X not in phi:
        raise ValueError(f"column {X} carries no arrow")
    Y = phi[X]
    if Y not in phi:
        raise ValueError(f"arrow target {Y} carries no arrow itself")
    phi[X] = phi[Y]
    return SubstructureGamma(g.w, g.r1, g.r2, phi)


def irreducible_closure(g: SubstructureGamma) -> Union[SubstructureGamma, CycleDetected]:
    """Apply the two arrow simplifications until neither applies.

    A cyclic arrow digraph is reported as a value (no array can satisfy it);
    otherwise the result is irreducible. Each step either removes an arrow or
    shortens a chain, so the loop terminates.
    """
    cycle = arrow_cycle(g.phi)
    if cycle:
        return CycleDetected(cycle)
    current = g
    while not is_irreducible(current):
        phi = current.phi
        for X in sorted(phi):
            Y = phi[X]
            if Y in current.r1:
                current = arrow_simplify_to_mark(current, X)
                break
            if Y in phi:
                current = arrow_simplify_retarget(current, X)
                break
        else:
            raise AssertionError("unreachable: reducible substructure with no move")
    return current


def column_pointing(g: SubstructureGamma, X: int, Y: int) -> SubstructureGamma:
    """Trade a fixed critical-with-non-critical pair for an arrow from X to Y.

    The rightmost row-1 vertex of X must be critical and cell (2, Y) must
    hold a non-critical vertex: either Y is marked in row 2 or it has at
    least two row-2 vertices. One vertex leaves each of the two cells and
    X gains an arrow to Y; the restricted array count is preserved.
    """
    X, Y = _as_column(X, g.K, "X"), _as_column(Y, g.K, "Y")
    if X == Y:
        raise ValueError("column pointing needs two distinct columns")
    w1, w2 = g.w
    crit = critical_vertices(g)
    if (1, X) not in crit:
        raise ValueError(f"cell (1, {X}) does not hold a critical vertex")
    if w2[Y] < 1:
        raise ValueError(f"cell (2, {Y}) is empty")
    if (2, Y) in crit and w2[Y] < 2:
        raise ValueError(f"the only vertex of cell (2, {Y}) is critical")
    new_w1 = list(w1)
    new_w2 = list(w2)
    new_w1[X] -= 1
    new_w2[Y] -= 1
    return SubstructureGamma((new_w1, new_w2), g.r1, g.r2, (*g.arrows, (X, Y)))


def column_merging(g: SubstructureGamma, X: int, Y: int) -> SubstructureGamma:
    """Merge column Y into column X along a fixed critical-critical pair.

    Requires the full condition, a critical rightmost vertex in cell (1, X),
    and a critical rightmost vertex in cell (2, Y). Old columns map to new
    ones by ``where``: the last column takes Y's place and Y folds into X,
    the others keep their index. Y's vertex counts add to X's minus the
    merged pair, its row-1 mark or outgoing arrow moves to X, and arrows
    into Y are redirected into X. The restricted array count is preserved
    and the result is again full.
    """
    X, Y = _as_column(X, g.K, "X"), _as_column(Y, g.K, "Y")
    if X == Y:
        raise ValueError("column merging needs two distinct columns")
    if not check_full(g):
        raise ValueError("column merging requires the substructure to satisfy the full condition")
    crit = critical_vertices(g)
    if (1, X) not in crit:
        raise ValueError(f"cell (1, {X}) does not hold a critical vertex")
    if (2, Y) not in crit:
        raise ValueError(f"cell (2, {Y}) does not hold a critical vertex")
    last = g.K - 1
    where = list(range(g.K))
    where[last] = Y
    where[Y] = where[X]
    w = [[0] * last, [0] * last]
    for row, merged in zip(g.w, w):
        for j, count in enumerate(row):
            merged[where[j]] += count
        merged[where[X]] -= 1
    out = SubstructureGamma(
        w,
        frozenset(map(where.__getitem__, g.r1)),
        frozenset(map(where.__getitem__, g.r2)),  # Y is unmarked in row 2: its vertex is critical
        [(where[t], where[h]) for t, h in g.arrows],
    )
    if not check_full(out):
        raise ValueError("column merging lost the full condition")
    return out


def labelled_to_canonical(
    rows: tuple[int, int], mu: Pairing, pi: Sequence[int]
) -> PairedArray:
    """Strip labels from a paired surjection, marking the cells holding label 1.

    ``rows`` holds the two row sizes (p1, p2) of the ground set 0..p1+p2-1,
    row 1 first. ``pi`` assigns a column to every ground element and must be
    a surjection onto 0..K-1 compatible with ``mu``: the partner and the
    cyclic successor of every element must land in the same column. Cells
    list their elements in label order; the result is a canonical array.
    """
    p1, _ = rows  # a ValueError unless there are two rows
    gamma = gamma_of_rows(rows)
    n = len(gamma)
    pi = [_as_int(j, "pi entries") for j in pi]
    if mu.ground_size != n or len(pi) != n:
        raise ValueError("pairing, projection, and ground set sizes must agree")
    K = max(pi) + 1
    if min(pi) < 0 or set(pi) != set(range(K)):
        raise ValueError("pi must be surjective onto 0..K-1")
    for v in range(n):
        if pi[mu[v]] != pi[gamma[v]]:
            raise ValueError(
                f"not a paired surjection: element {v} sends its partner and "
                f"successor to different columns"
            )
    cells1 = [[i for i in range(p1) if pi[i] == j] for j in range(K)]
    cells2 = [[i for i in range(p1, n) if pi[i] == j] for j in range(K)]
    w = (
        tuple(len(c) for c in cells1),
        tuple(len(c) for c in cells2),
    )
    slot_of = {}
    t = 0
    for cell in cells1 + cells2:
        for element in cell:
            slot_of[element] = t
            t += 1
    pairing = [0] * n
    for i in range(n):
        pairing[slot_of[i]] = slot_of[mu[i]]
    return PairedArray(
        w,
        frozenset({pi[0]}),
        frozenset({pi[p1]}),
        tuple(pairing),
    )
