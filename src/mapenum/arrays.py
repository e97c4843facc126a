"""Paired arrays, arrowed arrays, substructures, and their structural conditions.

Columns are indexed 0..K-1 throughout. Rows are named 1 and 2. Vertex slots
are addressed globally: row-1 slots come first (column by column, left to
right within a cell), then row-2 slots.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Mapping, Union


def _load_spec(text: str, kind: str, fields: Mapping[str, type], **defaults) -> dict:
    """Parse a JSON object whose ``fields`` hold the given types; ``defaults`` fill absent ones."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError(f"{kind} spec must be a JSON object")
    data = {**defaults, **data}
    for key, typ in fields.items():
        value = data.get(key)
        # JSON true and false load as bool, a subclass of int
        if not isinstance(value, typ) or isinstance(value, bool):
            raise ValueError(f'{kind} spec needs a "{key}" field of type {typ.__name__}')
    return data


def _as_int(x, label: str) -> int:
    """``x`` itself if it is an integer: floats and bools are rejected, not truncated."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{label} must be integers, got {x!r}")
    return x


def _as_occupancy(w) -> tuple[tuple[int, ...], tuple[int, ...]]:
    try:
        w = tuple(tuple(_as_int(x, "occupancy entries") for x in row) for row in w)
    except TypeError:
        raise ValueError("occupancy must be a 2 x K matrix of integers") from None
    if len(w) != 2 or len(w[0]) != len(w[1]):
        raise ValueError("occupancy must be a 2 x K matrix")
    if any(x < 0 for row in w for x in row):
        raise ValueError("occupancy must be non-negative")
    return w


def _as_marks(marks, K: int, label: str) -> frozenset[int]:
    try:
        marks = frozenset(_as_int(j, f"{label} columns") for j in marks)
    except TypeError:
        raise ValueError(f"{label} must be a list of column indices") from None
    if not marks:
        raise ValueError(f"{label} must mark at least one column")
    if any(j < 0 or j >= K for j in marks):
        raise ValueError(f"{label} contains a column outside 0..{K - 1}")
    return marks


def _as_arrows(arrows, r1: frozenset[int], K: int) -> tuple[tuple[int, int], ...]:
    if isinstance(arrows, Mapping):
        items = arrows.items()
    else:
        items = arrows
    try:
        pairs = sorted((int(t), _as_int(h, "arrow heads")) for t, h in items)
    except TypeError:
        raise ValueError("phi must map columns to columns") from None
    tails = [t for t, _ in pairs]
    if len(set(tails)) != len(tails):
        raise ValueError("each column may carry at most one arrow tail")
    for t, h in pairs:
        if not (0 <= t < K and 0 <= h < K):
            raise ValueError(f"arrow ({t}, {h}) out of range")
        if t in r1:
            raise ValueError(f"column {t} is marked in row 1 and cannot hold an arrow tail")
    return tuple(pairs)


# ----------------------------------------------------------------------
# Concrete arrays (with an explicit slot pairing)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PairedArray:
    """2 x K array of ordered vertex slots, per-row marked columns, slot pairing.

    ``pairing[t]`` is the partner slot of global slot t. Row i holds the
    occupancy counts ``w[i-1]``; marked columns are ``r1`` and ``r2``.
    """

    w: tuple[tuple[int, ...], tuple[int, ...]]
    r1: frozenset[int]
    r2: frozenset[int]
    pairing: tuple[int, ...]

    def __post_init__(self) -> None:
        w = _as_occupancy(self.w)
        object.__setattr__(self, "w", w)
        K = len(w[0])
        object.__setattr__(self, "r1", _as_marks(self.r1, K, "r1"))
        object.__setattr__(self, "r2", _as_marks(self.r2, K, "r2"))
        pairing = tuple(int(t) for t in self.pairing)
        object.__setattr__(self, "pairing", pairing)
        n = sum(w[0]) + sum(w[1])
        if len(pairing) != n:
            raise ValueError(f"pairing covers {len(pairing)} slots, expected {n}")
        for i, p in enumerate(pairing):
            if not 0 <= p < n or p == i or pairing[p] != i:
                raise ValueError("pairing must be a fixed-point-free involution on the slots")

    @property
    def K(self) -> int:
        return len(self.w[0])

    @property
    def p1(self) -> int:
        return sum(self.w[0])

    @property
    def p2(self) -> int:
        return sum(self.w[1])

    def slot_columns(self, row: int) -> list[int]:
        """Column of each slot of the given row, in slot order."""
        return [j for j, count in enumerate(self.w[row - 1]) for _ in range(count)]

    def rightmost_slot(self, row: int, col: int) -> int | None:
        """Global id of the rightmost slot of cell (row, col); None if empty."""
        if self.w[row - 1][col] == 0:
            return None
        base = 0 if row == 1 else self.p1
        return base + sum(self.w[row - 1][: col + 1]) - 1

    def is_mixed_slot(self, t: int) -> bool:
        return (t < self.p1) != (self.pairing[t] < self.p1)

    def mixed_counts(self, row: int) -> list[int]:
        """Number of mixed vertices per column in the given row."""
        counts = [0] * self.K
        base, size = (0, self.p1) if row == 1 else (self.p1, self.p2)
        columns = self.slot_columns(row)
        for offset in range(size):
            if self.is_mixed_slot(base + offset):
                counts[columns[offset]] += 1
        return counts

    @property
    def s(self) -> int:
        """Number of mixed pairs."""
        return sum(1 for t in range(self.p1) if self.is_mixed_slot(t))


@dataclass(frozen=True)
class ArrowedArray:
    """Vertical paired array (every pair mixed) plus arrows above row 1.

    ``arrows`` is a partial column-to-column function, stored as sorted
    (tail, head) pairs; tails never sit in row-1-marked columns.
    """

    w: tuple[tuple[int, ...], tuple[int, ...]]
    r1: frozenset[int]
    r2: frozenset[int]
    pairing: tuple[int, ...]
    arrows: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        base = PairedArray(self.w, self.r1, self.r2, self.pairing)
        object.__setattr__(self, "w", base.w)
        object.__setattr__(self, "r1", base.r1)
        object.__setattr__(self, "r2", base.r2)
        object.__setattr__(self, "pairing", base.pairing)
        object.__setattr__(self, "arrows", _as_arrows(self.arrows, base.r1, base.K))
        for t in range(base.p1):
            if base.pairing[t] < base.p1:
                raise ValueError("arrowed arrays must be vertical: every pair mixed")

    # delegate the slot machinery to PairedArray
    K = PairedArray.K
    p1 = PairedArray.p1
    p2 = PairedArray.p2
    s = PairedArray.s
    slot_columns = PairedArray.slot_columns
    rightmost_slot = PairedArray.rightmost_slot
    is_mixed_slot = PairedArray.is_mixed_slot
    mixed_counts = PairedArray.mixed_counts

    @property
    def phi(self) -> dict[int, int]:
        return dict(self.arrows)

    @property
    def tails(self) -> frozenset[int]:
        return frozenset(t for t, _ in self.arrows)


# ----------------------------------------------------------------------
# Substructures (pairing left free)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SubstructureGamma:
    """Occupancy, marks, and arrows fixed; the slot pairing left free.

    Both rows carry the same number of vertices s (the arrays counted are
    vertical), but per-column occupancy may differ between the rows.
    """

    w: tuple[tuple[int, ...], tuple[int, ...]]
    r1: frozenset[int]
    r2: frozenset[int]
    arrows: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        w = _as_occupancy(self.w)
        object.__setattr__(self, "w", w)
        K = len(w[0])
        if K < 1:
            raise ValueError("need at least one column")
        object.__setattr__(self, "r1", _as_marks(self.r1, K, "R1"))
        object.__setattr__(self, "r2", _as_marks(self.r2, K, "R2"))
        object.__setattr__(self, "arrows", _as_arrows(self.arrows, self.r1, K))
        if sum(w[0]) != sum(w[1]):
            raise ValueError("both rows must carry the same number of vertices")

    @classmethod
    def of(cls, w, r1, r2, phi: Mapping[int, int] | None = None) -> "SubstructureGamma":
        return cls(w, r1, r2, phi or {})

    @property
    def K(self) -> int:
        return len(self.w[0])

    @property
    def s(self) -> int:
        return sum(self.w[0])

    @property
    def phi(self) -> dict[int, int]:
        return dict(self.arrows)

    @property
    def tails(self) -> frozenset[int]:
        return frozenset(t for t, _ in self.arrows)

    def to_json(self) -> str:
        payload = {
            "K": self.K,
            "w": [list(self.w[0]), list(self.w[1])],
            "R1": sorted(self.r1),
            "R2": sorted(self.r2),
            "phi": {str(t): h for t, h in self.arrows},
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SubstructureGamma":
        fields = {"K": int, "w": list, "R1": list, "R2": list, "phi": dict}
        data = _load_spec(text, "substructure", fields, phi={})
        w = _as_occupancy(data["w"])
        if len(w[0]) != data["K"]:
            raise ValueError("K does not match the occupancy width")
        return cls.of(w, data["R1"], data["R2"], data["phi"])


@dataclass(frozen=True)
class SubstructureOmega:
    """Balanced occupancy fixed; marks and pairings left free.

    w[j] vertices sit in both cells of column j; the marks are any R1- and
    R2-subsets of the columns.
    """

    K: int
    r1: int
    r2: int
    w: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            w = tuple(_as_int(x, "occupancy entries") for x in self.w)
        except TypeError:
            raise ValueError("occupancy must be a list of integers") from None
        object.__setattr__(self, "w", w)
        if len(w) != self.K or self.K < 1:
            raise ValueError("occupancy length must equal K >= 1")
        if any(x < 0 for x in w):
            raise ValueError("occupancy must be non-negative")
        if sum(w) == 0:
            raise ValueError("occupancy must hold at least one vertex")
        if not (1 <= self.r1 <= self.K and 1 <= self.r2 <= self.K):
            raise ValueError("mark counts must satisfy 1 <= R_i <= K")

    @property
    def s(self) -> int:
        return sum(self.w)

    @property
    def F(self) -> int:
        """Number of columns holding at least one vertex."""
        return sum(1 for x in self.w if x > 0)

    def to_json(self) -> str:
        payload = {"K": self.K, "R1": self.r1, "R2": self.r2, "w": list(self.w)}
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SubstructureOmega":
        data = _load_spec(text, "occupancy", {"K": int, "R1": int, "R2": int, "w": list})
        return cls(data["K"], data["R1"], data["R2"], tuple(data["w"]))


ArrayLike = Union[PairedArray, ArrowedArray, SubstructureGamma]


def _phi_of(a: ArrayLike) -> dict[int, int]:
    return dict(getattr(a, "arrows", ()))


def _tails_of(a: ArrayLike) -> frozenset[int]:
    return frozenset(t for t, _ in getattr(a, "arrows", ()))


# ----------------------------------------------------------------------
# Structural conditions
# ----------------------------------------------------------------------


def check_nonempty(a: ArrayLike) -> bool:
    """Every column holds at least one object (vertex, mark, or arrow tail)."""
    tails = _tails_of(a)
    w1, w2 = a.w
    return all(
        w1[j] > 0 or w2[j] > 0 or j in a.r1 or j in a.r2 or j in tails
        for j in range(len(w1))
    )


def check_balance_mixed(a: PairedArray) -> bool:
    """Per-column equality of mixed-vertex counts (general paired arrays)."""
    return a.mixed_counts(1) == a.mixed_counts(2)


def check_balance_vertex(a: ArrayLike) -> bool:
    """Per-column equality of total vertex counts (arrowed arrays, substructures)."""
    return a.w[0] == a.w[1]


def check_balance(a: ArrayLike) -> bool:
    """Per-column balance, dispatched by array kind.

    The two variants coincide on vertical arrays, where every vertex is
    mixed.
    """
    if isinstance(a, PairedArray):
        return check_balance_mixed(a)
    return check_balance_vertex(a)


def check_full(a: ArrayLike) -> bool:
    """Every cell (not just every column) holds at least one object."""
    tails = _tails_of(a)
    w1, w2 = a.w
    for j in range(len(w1)):
        if w1[j] == 0 and j not in a.r1 and j not in tails:
            return False
        if w2[j] == 0 and j not in a.r2:
            return False
    return True


def forest_function(a: Union[PairedArray, ArrowedArray], row: int) -> dict[int, int]:
    """The map driving the forest condition for one row.

    In row 1 an arrow from column j overrides the vertices of cell (1, j);
    otherwise an unmarked non-empty cell maps to the column holding the
    partner of its rightmost vertex. Marked columns are outside the domain.
    """
    if row not in (1, 2):
        raise ValueError("row must be 1 or 2")
    if not isinstance(a, (PairedArray, ArrowedArray)):
        raise TypeError("forest_function needs a concrete array with a pairing")
    marks = a.r1 if row == 1 else a.r2
    psi: dict[int, int] = {}
    if row == 1:
        psi.update(_phi_of(a))
    col1 = a.slot_columns(1)
    col2 = a.slot_columns(2)
    p1 = a.p1
    for j in range(a.K):
        if j in marks or j in psi:
            continue
        t = a.rightmost_slot(row, j)
        if t is None:
            continue
        u = a.pairing[t]
        psi[j] = col1[u] if u < p1 else col2[u - p1]
    return psi


def _rooted_forest(psi: Mapping[int, int], roots: AbstractSet[int]) -> bool:
    """Every column in psi's domain iterates into ``roots`` without cycling.

    A walk stops at the first root it meets, so a root inside psi's domain
    is never followed.
    """
    rooted: set[int] = set()  # columns already seen to reach a root
    for start in psi:
        path: list[int] = []
        j = start
        while j not in roots and j not in rooted:
            if j in path or j not in psi:
                return False  # a cycle, or a dead end that is not a root
            path.append(j)
            j = psi[j]
        rooted.update(path)
    return True


def check_forest(a: Union[PairedArray, ArrowedArray]) -> bool:
    """Both per-row forest maps reach the marked columns without cycles."""
    return _rooted_forest(forest_function(a, 1), a.r1) and _rooted_forest(
        forest_function(a, 2), a.r2
    )


def critical_vertices(g: ArrayLike) -> set[tuple[int, int]]:
    """Cells whose rightmost vertex is critical, as (row, column) pairs.

    A vertex is critical when it is the rightmost of its cell and the cell
    is neither marked nor holds an arrow tail; this depends only on the
    occupancy, marks, and arrows.
    """
    tails = _tails_of(g)
    out = set()
    w1, w2 = g.w
    for j in range(len(w1)):
        if w1[j] > 0 and j not in g.r1 and j not in tails:
            out.add((1, j))
        if w2[j] > 0 and j not in g.r2:
            out.add((2, j))
    return out


def is_irreducible(g: SubstructureGamma) -> bool:
    """Arrow digraph acyclic, and every arrow-head column unmarked and tail-free."""
    phi = g.phi
    for head in phi.values():
        if head in g.r1 or head in phi:
            return False
    return not arrow_cycle(phi)


def arrow_cycle(phi: Mapping[int, int]) -> tuple[int, ...]:
    """A directed cycle of the arrow digraph, as its columns in arrow order;
    empty when the digraph is acyclic.

    The witness is the first cycle met walking the arrows from each tail in
    turn: a walk that revisits a column has closed a cycle.
    """
    for start in phi:
        path: list[int] = []
        j = start
        while j in phi and j not in path:
            path.append(j)
            j = phi[j]
        if j in path:
            return tuple(path[path.index(j) :])
    return ()


@dataclass(frozen=True)
class ColumnTally:
    """Column-type census of an irreducible substructure.

    ``A`` counts the columns unmarked in both rows (outside the arrow
    tails); the remaining fields are per-row vertex totals of the eight
    column types: plain/bar/tilde variants for heads-into-unmarked (a) and
    heads-into-row-2-marked (c) targets, plus b (row 1 marked), c (row 2
    marked), and d (both marked).
    """

    A: int
    a1: int = 0
    a2: int = 0
    abar1: int = 0
    abar2: int = 0
    atil1: int = 0
    atil2: int = 0
    b1: int = 0
    b2: int = 0
    c1: int = 0
    c2: int = 0
    cbar1: int = 0
    cbar2: int = 0
    ctil1: int = 0
    ctil2: int = 0
    d1: int = 0
    d2: int = 0

    def row_total(self, row: int) -> int:
        if row == 1:
            return self.a1 + self.abar1 + self.atil1 + self.b1 + self.c1 + self.cbar1 + self.ctil1 + self.d1
        return self.a2 + self.abar2 + self.atil2 + self.b2 + self.c2 + self.cbar2 + self.ctil2 + self.d2


def classify_columns(g: SubstructureGamma) -> ColumnTally:
    """Partition the columns of an irreducible substructure into the eight types."""
    if not is_irreducible(g):
        raise ValueError("column classification requires an irreducible substructure")
    phi = g.phi
    tails = set(phi)
    w1, w2 = g.w
    acc = {name: 0 for name in (
        "a1", "a2", "abar1", "abar2", "atil1", "atil2", "b1", "b2",
        "c1", "c2", "cbar1", "cbar2", "ctil1", "ctil2", "d1", "d2",
    )}
    A = 0
    # mark-pattern type of each non-tail column, needed to type the tails
    plain_type: dict[int, str] = {}
    for j in range(g.K):
        if j in tails:
            continue
        m1, m2 = j in g.r1, j in g.r2
        plain_type[j] = "d" if (m1 and m2) else "b" if m1 else "c" if m2 else "a"
    for j, kind in plain_type.items():
        if kind == "a":
            A += 1
        acc[kind + "1"] += w1[j]
        acc[kind + "2"] += w2[j]
    for t, head in phi.items():
        target = plain_type[head]  # irreducible: head is unmarked row 1, so 'a' or 'c'
        deco = "til" if t in g.r2 else "bar"
        acc[target + deco + "1"] += w1[t]
        acc[target + deco + "2"] += w2[t]
    return ColumnTally(A=A, **acc)


def permute_columns(g: SubstructureGamma, perm: Iterable[int]) -> SubstructureGamma:
    """Relabel columns by ``perm`` (new index of each old column)."""
    perm = list(perm)
    K = g.K
    if sorted(perm) != list(range(K)):
        raise ValueError("perm must be a permutation of 0..K-1")
    w1 = [0] * K
    w2 = [0] * K
    for j in range(K):
        w1[perm[j]] = g.w[0][j]
        w2[perm[j]] = g.w[1][j]
    return SubstructureGamma(
        (tuple(w1), tuple(w2)),
        frozenset(perm[j] for j in g.r1),
        frozenset(perm[j] for j in g.r2),
        tuple(sorted((perm[t], perm[h]) for t, h in g.arrows)),
    )
