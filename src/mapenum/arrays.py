"""Paired arrays, substructures, their cells, and their structural conditions.

Columns are indexed 0..K-1 throughout. Rows are named 1 and 2. Vertex slots
are addressed globally: row-1 slots come first (column by column, left to
right within a cell), then row-2 slots.

A cell is open when it holds no mark and, in row 1, no arrow tail; a vertex
is critical when it is the rightmost vertex of an open cell.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import filterfalse
from sys import intern
from typing import AbstractSet, Iterable, Mapping, Sequence, Union

from .exact import _as_int, _checked_ints


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


def _as_occupancy(w) -> tuple[tuple[int, ...], tuple[int, ...]]:
    try:
        w = tuple([_checked_ints(tuple(row), "occupancy entries") for row in w])
    except TypeError:
        raise ValueError("occupancy must be a 2 x K matrix of integers") from None
    if len(w) != 2 or len(w[0]) != len(w[1]):
        raise ValueError("occupancy must be a 2 x K matrix")
    if min(w[0] + w[1], default=0) < 0:
        raise ValueError("occupancy must be non-negative")
    return w


def _as_marks(marks, K: int, label: str) -> frozenset[int]:
    try:
        if type(marks) is not frozenset:
            marks = tuple(marks)  # entries are checked before they are hashed
        marks = frozenset(_checked_ints(marks, f"{label} columns"))
    except TypeError:
        raise ValueError(f"{label} must be a list of column indices") from None
    if not marks:
        raise ValueError(f"{label} must mark at least one column")
    if min(marks) < 0 or max(marks) >= K:
        raise ValueError(f"{label} contains a column outside 0..{K - 1}")
    return marks


def _as_column(j, K: int, name: str) -> int:
    """``j`` itself if it is an integer column index in 0..K-1."""
    j = _as_int(j, "columns")
    if not 0 <= j < K:
        raise ValueError(f"column {name}={j} is outside 0..{K - 1}")
    return j


def _as_tail(t) -> int:
    # JSON object keys are strings: only plain ASCII decimal ones name a column
    if isinstance(t, str):
        if not (t.isascii() and t.isdigit()):
            raise ValueError(f"arrow tails must be decimal column indices, got {t!r}")
        return int(t)
    return _as_int(t, "arrow tails")


def _as_arrows(arrows, r1: frozenset[int], K: int) -> tuple[tuple[int, int], ...]:
    if type(arrows) in (tuple, dict) and not arrows:
        return ()
    if isinstance(arrows, Mapping):
        items = arrows.items()
    else:
        items = arrows
    try:
        pairs = sorted((_as_tail(t), _as_int(h, "arrow heads")) for t, h in items)
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
# Slot layout of a row
# ----------------------------------------------------------------------


def _slot_columns(w: Sequence[int]) -> list[int]:
    """Column of each slot of a row with occupancy ``w``, in slot order."""
    return [j for j, count in enumerate(w) for _ in range(count)]


def _rightmost_slots(w: Sequence[int], base: int = 0) -> list[int]:
    """Slot id of the rightmost slot of each cell, in column order, for a row
    with occupancy ``w`` whose first slot is ``base``; -1 for an empty cell."""
    rightmost = []
    for count in w:
        base += count
        rightmost.append(base - 1 if count else -1)
    return rightmost


class _Cells:
    """The 2 x K cells shared by arrays and substructures: occupancy ``w``,
    marked columns ``r1`` and ``r2``, and ``arrows`` as sorted (tail, head)
    pairs whose tails never sit in row-1-marked columns.

    The cell structure is worked out once, when the fields have passed their
    checks: ``tails``, the arrow tails, and ``_open``, the open columns of
    row i at index i - 1.
    """

    tails: frozenset[int]
    _open: tuple[tuple[int, ...], tuple[int, ...]]

    @property
    def K(self) -> int:
        return len(self.w[0])

    @property
    def phi(self) -> dict[int, int]:
        return dict(self.arrows)

    def _store_cells(self) -> None:
        tails = frozenset([t for t, _ in self.arrows])
        columns = range(len(self.w[0]))
        object.__setattr__(self, "tails", tails)
        object.__setattr__(self, "_open", (
            tuple(filterfalse((self.r1 | tails).__contains__, columns)),
            tuple(filterfalse(self.r2.__contains__, columns)),
        ))


# ----------------------------------------------------------------------
# Concrete arrays (with an explicit slot pairing)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PairedArray(_Cells):
    """2 x K array of ordered vertex slots, per-row marked columns, slot
    pairing, and arrows above row 1.

    ``pairing[t]`` is the partner slot of global slot t. Row i holds the
    occupancy counts ``w[i-1]``; marked columns are ``r1`` and ``r2``. An
    array that carries arrows must be vertical: every pair mixed.
    """

    w: tuple[tuple[int, ...], tuple[int, ...]]
    r1: frozenset[int]
    r2: frozenset[int]
    pairing: tuple[int, ...]
    arrows: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        w = _as_occupancy(self.w)
        object.__setattr__(self, "w", w)
        K = len(w[0])
        object.__setattr__(self, "r1", _as_marks(self.r1, K, "r1"))
        object.__setattr__(self, "r2", _as_marks(self.r2, K, "r2"))
        try:
            pairing = _checked_ints(tuple(self.pairing), "pairing entries")
        except TypeError:
            raise ValueError("pairing must be a sequence of slot indices") from None
        object.__setattr__(self, "pairing", pairing)
        n = sum(w[0]) + sum(w[1])
        if len(pairing) != n:
            raise ValueError(f"pairing covers {len(pairing)} slots, expected {n}")
        for i, p in enumerate(pairing):
            if not 0 <= p < n or p == i or pairing[p] != i:
                raise ValueError("pairing must be a fixed-point-free involution on the slots")
        object.__setattr__(self, "arrows", _as_arrows(self.arrows, self.r1, K))
        if self.arrows and any(pairing[t] < self.p1 for t in range(self.p1)):
            raise ValueError("arrays carrying arrows must be vertical: every pair mixed")
        self._store_cells()

    @property
    def p1(self) -> int:
        return sum(self.w[0])

    @property
    def p2(self) -> int:
        return sum(self.w[1])

    def is_mixed_slot(self, t: int) -> bool:
        return (t < self.p1) != (self.pairing[t] < self.p1)

    def mixed_counts(self, row: int) -> list[int]:
        """Number of mixed vertices per column in the given row."""
        if row not in (1, 2):
            raise ValueError("row must be 1 or 2")
        counts = [0] * self.K
        base = 0 if row == 1 else self.p1
        for offset, j in enumerate(_slot_columns(self.w[row - 1])):
            if self.is_mixed_slot(base + offset):
                counts[j] += 1
        return counts

    @property
    def s(self) -> int:
        """Number of mixed pairs."""
        return sum(1 for t in range(self.p1) if self.is_mixed_slot(t))


# ----------------------------------------------------------------------
# Substructures (pairing left free)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SubstructureGamma(_Cells):
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
        self._store_cells()

    @property
    def s(self) -> int:
        return sum(self.w[0])

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
        return cls(w, data["R1"], data["R2"], data["phi"])


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
        for count in (self.K, self.r1, self.r2):
            _as_int(count, "K and the mark counts")
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


ArrayLike = Union[PairedArray, SubstructureGamma]


def open_columns(a: ArrayLike, row: int) -> list[int]:
    """Columns whose cell in ``row`` is open: unmarked and, in row 1, free of
    arrow tails. Depends only on the marks and arrows, so it is worked out
    once, at construction; each call returns a fresh list."""
    if row not in (1, 2):
        raise ValueError("row must be 1 or 2")
    return list(a._open[row - 1])


# ----------------------------------------------------------------------
# Structural conditions
# ----------------------------------------------------------------------


def check_nonempty(a: ArrayLike) -> bool:
    """Every column holds at least one object (vertex, mark, or arrow tail)."""
    w1, w2 = a.w
    objects = a.r1 | a.r2 | a.tails
    return all(w1[j] > 0 or w2[j] > 0 or j in objects for j in range(a.K))


def check_balance_mixed(a: PairedArray) -> bool:
    """Per-column equality of mixed-vertex counts (general paired arrays)."""
    return a.mixed_counts(1) == a.mixed_counts(2)


def check_balance_vertex(a: ArrayLike) -> bool:
    """Per-column equality of total vertex counts (substructures)."""
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
    """Every cell (not just every column) holds at least one object: every
    open cell holds a vertex."""
    return all(w[j] > 0 for w, opened in zip(a.w, a._open) for j in opened)


def forest_function(a: PairedArray, row: int) -> dict[int, int]:
    """The map driving the forest condition for one row.

    Each critical cell maps to the column holding the partner of its
    rightmost vertex; in row 1 each arrow tail maps to the arrow's head.
    """
    if row not in (1, 2):
        raise ValueError("row must be 1 or 2")
    if not isinstance(a, PairedArray):
        raise TypeError("forest_function needs a concrete array with a pairing")
    col = _slot_columns(a.w[0]) + _slot_columns(a.w[1])
    rightmost = _rightmost_slots(a.w[row - 1], 0 if row == 1 else a.p1)
    psi = a.phi if row == 1 else {}
    for j in a._open[row - 1]:
        if rightmost[j] >= 0:
            psi[j] = col[a.pairing[rightmost[j]]]
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


def _stays_rooted(psi: Mapping[int, int], roots: AbstractSet[int], j: int, h: int) -> bool:
    """Whether psi + {j: h} is rooted at ``roots`` minus j, given that psi is
    rooted at ``roots`` (``_rooted_forest``) and that j is a root outside
    psi's domain: the edge of a pending column j is placed.

    It is exactly when the walk from h in psi ends at a root other than j.
    The new map agrees with psi except at j, where psi's walks stopped. If
    the walk from h ends at a root r != j, a walk of the new map runs as in
    psi until it ends at a root other than j, or meets j and goes on to h
    and so to r, visiting j once: every column is rooted. If it ends at j
    (h = j included), j -> h -> ... -> j is a cycle of the new map. If it
    hits a dead end, so does the new map's walk from j. The walk from h
    always ends: h is a root, a dead end, or in psi's domain, whose walks
    end at a root.
    """
    while h not in roots:
        if h not in psi:
            return False  # a dead end that is not a root
        h = psi[h]
    return h != j


def check_forest(a: PairedArray) -> bool:
    """Both per-row forest maps reach the marked columns without cycles."""
    return _rooted_forest(forest_function(a, 1), a.r1) and _rooted_forest(
        forest_function(a, 2), a.r2
    )


def critical_vertices(g: ArrayLike) -> set[tuple[int, int]]:
    """Cells holding a critical vertex, as (row, column) pairs: the open
    cells that hold a vertex."""
    return {(row, j) for row, w, opened in zip((1, 2), g.w, g._open) for j in opened if w[j] > 0}


def is_irreducible(g: SubstructureGamma) -> bool:
    """Arrow digraph acyclic, and every arrow-head column unmarked and tail-free.

    The head test alone decides it. A cycle t -> ... -> t of the arrows,
    a self-loop t -> t included, has a head that is also a tail, and once
    no head carries a tail no two arrows chain, so the digraph is acyclic.
    """
    return not any(h in g.r1 or h in g.tails for _, h in g.arrows)


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


_KINDS = ("a", "abar", "atil", "b", "c", "cbar", "ctil", "d")
# interned like ColumnTally's field names, which its keyword arguments then
# match by identity: built names would be compared character by character
_KIND_FIELDS = tuple(intern(f"{kind}{row}") for kind in _KINDS for row in (1, 2))


@dataclass(frozen=True)
class ColumnTally:
    """Column-type census of an irreducible substructure.

    ``A`` counts the columns unmarked in both rows (outside the arrow
    tails); the remaining fields are per-row vertex totals of the eight
    column types in ``_KINDS``: plain/bar/tilde variants for heads-into-
    unmarked (a) and heads-into-row-2-marked (c) targets, plus b (row 1
    marked), c (row 2 marked), and d (both marked).
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
        if row not in (1, 2):
            raise ValueError("row must be 1 or 2")
        return sum(getattr(self, name) for name in _KIND_FIELDS[row - 1::2])


def classify_columns(g: SubstructureGamma) -> ColumnTally:
    """Partition the columns of an irreducible substructure into the eight types."""
    if not is_irreducible(g):
        raise ValueError("column classification requires an irreducible substructure")
    w1, w2 = g.w
    acc = dict.fromkeys(_KIND_FIELDS, 0)
    A = 0
    # mark-pattern type of each non-tail column, needed to type the tails
    plain_type: dict[int, str] = {}
    for j in range(g.K):
        if j in g.tails:
            continue
        m1, m2 = j in g.r1, j in g.r2
        kind = plain_type[j] = "d" if (m1 and m2) else "b" if m1 else "c" if m2 else "a"
        if kind == "a":
            A += 1
        acc[kind + "1"] += w1[j]
        acc[kind + "2"] += w2[j]
    for t, head in g.arrows:
        target = plain_type[head]  # irreducible: head is unmarked row 1, so 'a' or 'c'
        deco = "til" if t in g.r2 else "bar"
        acc[target + deco + "1"] += w1[t]
        acc[target + deco + "2"] += w2[t]
    return ColumnTally(A=A, **acc)


def permute_columns(g: SubstructureGamma, perm: Iterable[int]) -> SubstructureGamma:
    """Relabel columns by ``perm`` (new index of each old column)."""
    K = g.K
    perm = [_as_column(j, K, "perm entry") for j in perm]
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
