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
    check_full,
    is_irreducible,
    permute_columns,
)
from .exact import Pairing, TwoRowGround


@dataclass(frozen=True)
class CycleDetected:
    """The arrow digraph contains a directed cycle, so no array satisfies it."""

    columns: tuple[int, ...]


def arrow_simplify_to_mark(g: SubstructureGamma, X: int) -> SubstructureGamma:
    """Replace an arrow into a row-1-marked column by marking the tail column.

    Requires phi(X) to exist and point at a column marked in row 1; X leaves
    the arrow map and joins the row-1 marks. Array counts are unchanged.
    """
    phi = g.phi
    if X not in phi:
        raise ValueError(f"column {X} carries no arrow")
    if phi[X] not in g.r1:
        raise ValueError(f"arrow target {phi[X]} is not marked in row 1")
    del phi[X]
    return SubstructureGamma(g.w, g.r1 | {X}, g.r2, tuple(sorted(phi.items())))


def arrow_simplify_retarget(g: SubstructureGamma, X: int) -> SubstructureGamma:
    """Shortcut an arrow chain: X pointing to Y pointing to Z becomes X to Z.

    Requires phi(X) and phi(phi(X)) to exist. Array counts are unchanged.
    """
    phi = g.phi
    if X not in phi:
        raise ValueError(f"column {X} carries no arrow")
    Y = phi[X]
    if Y not in phi:
        raise ValueError(f"arrow target {Y} carries no arrow itself")
    phi[X] = phi[Y]
    return SubstructureGamma(g.w, g.r1, g.r2, tuple(sorted(phi.items())))


def irreducible_closure(g: SubstructureGamma) -> Union[SubstructureGamma, CycleDetected]:
    """Apply the two arrow simplifications until neither applies.

    A cyclic arrow digraph is reported as a value (no array can satisfy it);
    otherwise the result is irreducible. Each step either removes an arrow or
    shortens a chain, so the loop terminates.
    """
    phi = g.phi
    for start in phi:  # a walk along the arrows that revisits a column is a cycle
        path = []
        j = start
        while j in phi and j not in path:
            path.append(j)
            j = phi[j]
        if j in path:
            return CycleDetected(tuple(path[path.index(j):]))
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
    if X == Y:
        raise ValueError("column pointing needs two distinct columns")
    w1, w2 = g.w
    tails = g.tails
    if w1[X] < 1 or X in g.r1 or X in tails:
        raise ValueError(f"cell (1, {X}) does not hold a critical vertex")
    if w2[Y] < 1:
        raise ValueError(f"cell (2, {Y}) is empty")
    if Y not in g.r2 and w2[Y] < 2:
        raise ValueError(f"the only vertex of cell (2, {Y}) is critical")
    new_w1 = list(w1)
    new_w2 = list(w2)
    new_w1[X] -= 1
    new_w2[Y] -= 1
    return SubstructureGamma(
        (tuple(new_w1), tuple(new_w2)),
        g.r1,
        g.r2,
        tuple(sorted(list(g.arrows) + [(X, Y)])),
    )


def column_merging(g: SubstructureGamma, X: int, Y: int) -> SubstructureGamma:
    """Merge column Y into column X along a fixed critical-critical pair.

    Requires the full condition, a critical rightmost vertex in cell (1, X),
    and a critical rightmost vertex in cell (2, Y). Y is first relabelled to
    the last column, then removed: its vertex counts fold into X (minus the
    merged pair), its row-1 mark or outgoing arrow moves to X, and arrows
    into Y are redirected into X. The restricted array count is preserved
    and the result is again full.
    """
    if X == Y:
        raise ValueError("column merging needs two distinct columns")
    if not check_full(g):
        raise ValueError("column merging requires the substructure to satisfy the full condition")
    w1, w2 = g.w
    tails = g.tails
    if w1[X] < 1 or X in g.r1 or X in tails:
        raise ValueError(f"cell (1, {X}) does not hold a critical vertex")
    if w2[Y] < 1 or Y in g.r2:
        raise ValueError(f"cell (2, {Y}) does not hold a critical vertex")
    K = g.K
    last = K - 1
    if Y != last:
        swap = list(range(K))
        swap[Y], swap[last] = last, Y
        g = permute_columns(g, swap)
        if X == last:
            X = Y
        Y = last
    w1 = list(g.w[0])
    w2 = list(g.w[1])
    w1[X] += w1[Y] - 1
    w2[X] += w2[Y] - 1
    r1 = set(g.r1)
    if Y in r1:
        r1.discard(Y)
        r1.add(X)
    r2 = set(g.r2)  # Y cannot be marked in row 2 (its vertex is critical)
    phi = g.phi
    new_phi = {}
    for t, h in phi.items():
        if t == Y:
            continue
        new_phi[t] = X if h == Y else h
    if Y in phi:
        new_phi[X] = X if phi[Y] == Y else phi[Y]
    out = SubstructureGamma(
        (tuple(w1[:last]), tuple(w2[:last])),
        frozenset(r1),
        frozenset(r2),
        tuple(sorted(new_phi.items())),
    )
    if not check_full(out):
        raise ValueError("column merging lost the full condition")
    return out


def labelled_to_canonical(
    ground: TwoRowGround, mu: Pairing, pi: Sequence[int]
) -> PairedArray:
    """Strip labels from a paired surjection, marking the cells holding label 1.

    ``pi`` assigns a column to every linearized ground element and must be a
    surjection onto 0..K-1 compatible with ``mu``: the partner and the cyclic
    successor of every element must land in the same column. Cells list their
    elements in label order; the result is a canonical array.
    """
    n = ground.size
    if mu.ground_size != n or len(pi) != n:
        raise ValueError("pairing, projection, and ground set sizes must agree")
    K = max(pi) + 1
    if min(pi) < 0 or set(pi) != set(range(K)):
        raise ValueError("pi must be surjective onto 0..K-1")
    gamma = ground.gamma()
    for v in range(n):
        if pi[mu[v]] != pi[gamma[v]]:
            raise ValueError(
                f"not a paired surjection: element {v} sends its partner and "
                f"successor to different columns"
            )
    p1 = ground.p1
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
        frozenset({pi[ground.index(1, 1)]}),
        frozenset({pi[ground.index(2, 1)]}),
        tuple(pairing),
    )
