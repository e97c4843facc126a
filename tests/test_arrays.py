import functools
import json
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from mapenum.arrays import (
    ColumnTally,
    PairedArray,
    SubstructureGamma,
    SubstructureOmega,
    _Cells,
    _count_A,
    _rooted_forest,
    _stays_rooted,
    arrow_cycle,
    check_balance,
    check_forest,
    check_full,
    check_nonempty,
    classify_columns,
    critical_vertices,
    forest_function,
    is_irreducible,
)
from mapenum.brute import enumerate_pairings, gamma_count_brute
from mapenum.exact import gamma_of_rows
from mapenum.transforms import labelled_to_canonical
from mapenum.verify import gs_parameter_tuples


def gamma_of(w, r1, r2, phi=None):
    return SubstructureGamma(w, r1, r2, phi or {})


# ----------------------------------------------------------------------
# Non-empty / balance / full
# ----------------------------------------------------------------------


def test_nonempty_mark_is_an_object():
    assert check_nonempty(gamma_of([[0], [0]], {0}, {0}))


def test_nonempty_bare_column_fails():
    g = gamma_of([[1, 0], [1, 0]], {0}, {0})
    assert not check_nonempty(g)


def test_nonempty_arrow_tail_is_an_object():
    g = gamma_of([[1, 0], [0, 1]], {0}, {0}, {1: 0})
    assert check_nonempty(g)


def test_balance_vertical_occupancy():
    assert check_balance(gamma_of([[1, 2], [1, 2]], {0}, {0}))
    assert not check_balance(gamma_of([[1, 0], [0, 1]], {0}, {0}))


def test_balance_variants_coincide_on_vertical_arrays():
    from itertools import permutations

    from mapenum.arrays import check_balance_mixed, check_balance_vertex

    for w in [((1, 1), (1, 1)), ((2, 0), (1, 1)), ((2, 1), (0, 3))]:
        s = sum(w[0])
        for matching in permutations(range(s)):
            arr = vertical_array([list(w[0]), list(w[1])], {0}, {0}, list(matching))
            assert check_balance_mixed(arr) == check_balance_vertex(arr)


def test_balance_paired_array_uses_mixed_vertices(two_row_example):
    rows, mu, pi = two_row_example
    arr = labelled_to_canonical(rows, mu, pi)
    assert check_balance(arr)
    # one mixed vertex per row in every column of the example
    assert arr.mixed_counts(1) == [1, 1, 1, 1]
    assert arr.mixed_counts(2) == [1, 1, 1, 1]


def test_full_versus_nonempty():
    marked_everywhere = gamma_of([[0, 0], [0, 0]], {0, 1}, {0, 1})
    assert check_full(marked_everywhere)
    one_empty_cell = gamma_of([[1, 1], [2, 0]], {0}, {0})
    assert check_nonempty(one_empty_cell)
    assert not check_full(one_empty_cell)


def test_full_example_array(two_row_example):
    rows, mu, pi = two_row_example
    assert check_full(labelled_to_canonical(rows, mu, pi))


def test_full_implies_nonempty_on_random_substructures():
    import random

    rng = random.Random(7)
    for _ in range(200):
        K = rng.randint(1, 4)
        w1 = tuple(rng.randint(0, 2) for _ in range(K))
        total = sum(w1)
        w2 = [0] * K
        for _ in range(total):
            w2[rng.randrange(K)] += 1
        r1 = frozenset(rng.sample(range(K), rng.randint(1, K)))
        r2 = frozenset(rng.sample(range(K), rng.randint(1, K)))
        phi = {}
        for j in range(K):
            if j not in r1 and rng.random() < 0.3:
                phi[j] = rng.randrange(K)
        g = gamma_of([w1, tuple(w2)], r1, r2, phi)
        if check_full(g):
            assert check_nonempty(g)


# ----------------------------------------------------------------------
# Forest machinery
# ----------------------------------------------------------------------


def vertical_array(w, r1, r2, matching, phi=None):
    """Build a one-vertex-per-listed-slot vertical array from a matching.

    ``matching[t]`` gives the row-2 slot paired with row-1 slot t (flat
    indices in row order).
    """
    s = sum(w[0])
    pairing = [0] * (2 * s)
    for t, u in enumerate(matching):
        pairing[t] = s + u
        pairing[s + u] = t
    return PairedArray(
        tuple(map(tuple, w)), frozenset(r1), frozenset(r2), tuple(pairing),
        tuple(sorted((phi or {}).items())),
    )


def test_arrows_need_a_vertical_array():
    w, r1, r2 = ((2, 1), (1, 0)), {1}, {0}
    pairing = (1, 0, 3, 2)  # slots 0 and 1 pair within row 1
    assert PairedArray(w, r1, r2, pairing).s == 1
    with pytest.raises(ValueError, match="vertical"):
        PairedArray(w, r1, r2, pairing, ((0, 1),))


@pytest.mark.parametrize("entry", [" 1 ", 0.9, 1.0, True])
def test_pairing_entries_must_be_integers(entry):
    # int() would strip the whitespace or truncate these to slot 1 (or 0)
    with pytest.raises(ValueError, match="pairing entries"):
        PairedArray(((1,), (1,)), {0}, {0}, (entry, 0))
    with pytest.raises(ValueError, match="pairing entries"):
        PairedArray(((1,), (1,)), {0}, {0}, (1, entry))


def test_forest_function_all_marked_is_empty():
    arr = vertical_array([[1, 1], [1, 1]], {0, 1}, {0, 1}, [0, 1])
    assert forest_function(arr, 1) == {}
    assert forest_function(arr, 2) == {}


def test_forest_function_needs_a_concrete_array():
    g = gamma_of([[1], [1]], {0}, {0})
    with pytest.raises(TypeError):
        forest_function(g, 1)
    arr = vertical_array([[1], [1]], {0}, {0}, [0])
    with pytest.raises(ValueError):
        forest_function(arr, 3)


def test_forest_function_arrow_overrides_vertices():
    arr = vertical_array([[1, 1], [1, 1]], {1}, {0, 1}, [0, 1], phi={0: 1})
    # column 0 has a vertex pairing into column 0, but its arrow points to 1
    assert forest_function(arr, 1) == {0: 1}
    assert check_forest(arr)


def test_forest_function_uses_rightmost_partner():
    # row-1 cell 0 holds two vertices; the rightmost pairs into column 1
    arr = vertical_array([[2, 0], [1, 1]], {1}, {0, 1}, [0, 1])
    assert forest_function(arr, 1) == {0: 1}


def test_forest_self_loop_fails():
    arr = vertical_array([[1, 1], [1, 1]], {1}, {1}, [0, 1])
    assert forest_function(arr, 1) == {0: 0}
    assert not check_forest(arr)


def test_forest_chain_to_root():
    # 0 -> 1 -> 2 with 2 marked, in both rows
    matching = [1, 2, 0]
    arr = vertical_array([[1, 1, 1], [1, 1, 1]], {2}, {2}, matching)
    psi1 = forest_function(arr, 1)
    assert psi1[0] == 1 and psi1[1] == 2
    assert check_forest(arr)


def test_forest_dead_end_fails():
    # rightmost of (1,0) pairs into column 1, whose row-1 cell is empty and unmarked
    arr = vertical_array([[2, 0], [1, 1]], {0}, {0, 1}, [1, 0])
    # hand-built: row-1 slot 1 (rightmost of cell 0) pairs with row-2 slot 0 (column 0)
    psi1 = forest_function(arr, 1)
    assert psi1 == {}  # column 0 is marked; nothing else has row-1 vertices
    arr2 = vertical_array([[2, 0], [1, 1]], {1}, {0, 1}, [0, 1])
    # now column 0 is unmarked: rightmost row-1 vertex pairs into column 1 = root
    assert check_forest(arr2)


def test_incremental_root_check_matches_the_full_one():
    """Placing the edge j -> psi[j] of a pending column j, taken as a root
    while pending: _stays_rooted on the map without j equals _rooted_forest
    on the whole map, for every partial map on K <= 4 columns, every root
    set and every j whose map without it is rooted."""
    checked = kept = 0
    for K in range(1, 5):
        columns = range(K)
        root_sets = [set(c) for r in range(K + 1) for c in combinations(columns, r)]
        for values in product([None, *columns], repeat=K):
            psi = {j: h for j, h in enumerate(values) if h is not None}
            for roots, j in product(root_sets, psi):
                if j in roots:
                    continue
                rest = {x: h for x, h in psi.items() if x != j}
                if not _rooted_forest(rest, roots | {j}):
                    continue
                expected = _rooted_forest(psi, roots)
                assert _stays_rooted(rest, roots | {j}, j, psi[j]) == expected
                checked += 1
                kept += expected
    assert 0 < kept < checked


def test_check_forest_example(two_row_example):
    rows, mu, pi = two_row_example
    arr = labelled_to_canonical(rows, mu, pi)
    assert forest_function(arr, 1) == {0: 1, 1: 2, 3: 1}
    assert forest_function(arr, 2) == {0: 2, 1: 3, 2: 1}
    assert check_forest(arr)


# ----------------------------------------------------------------------
# Criticality, irreducibility, classification
# ----------------------------------------------------------------------


def test_critical_vertices():
    g = gamma_of([[2, 1, 3], [2, 1, 3]], {1}, {2}, {2: 0})
    crits = critical_vertices(g)
    assert (1, 0) in crits            # unmarked, tail-free, non-empty
    assert (1, 1) not in crits        # marked
    assert (1, 2) not in crits        # holds an arrow tail
    assert (2, 0) in crits and (2, 1) in crits
    assert (2, 2) not in crits        # marked in row 2


def _random_cells(rng, p1, p2):
    """Random occupancy with row totals p1 and p2, marks, and row-1 arrows."""
    K = rng.randint(1, 4)
    w = []
    for total in (p1, p2):
        row = [0] * K
        for _ in range(total):
            row[rng.randrange(K)] += 1
        w.append(tuple(row))
    r1 = frozenset(rng.sample(range(K), rng.randint(1, K)))
    r2 = frozenset(rng.sample(range(K), rng.randint(1, K)))
    phi = {j: rng.randrange(K) for j in range(K) if j not in r1 and rng.random() < 0.4}
    return tuple(w), r1, r2, phi


def _assert_cell_structure(a):
    """The cell structure stored at construction against the definitions,
    recomputed from (w, r1, r2, arrows) alone."""
    K = len(a.w[0])
    tails = {t for t, _ in a.arrows}
    cells = {(row, j) for row in (1, 2) for j in range(K)}
    occupied = {(row, j) for row, j in cells if a.w[row - 1][j] > 0}
    closed = {(1, j) for j in a.r1 | tails} | {(2, j) for j in a.r2}
    open_cells = cells - closed
    assert a.tails == tails
    for row in (1, 2):
        assert a._open[row - 1] == tuple(sorted(j for r, j in open_cells if r == row))
        assert a._crit[row - 1] == tuple(sorted(j for r, j in open_cells & occupied if r == row))
    assert critical_vertices(a) == open_cells & occupied
    assert check_full(a) == (open_cells <= occupied)
    objects = a.r1 | a.r2 | tails
    assert check_nonempty(a) == all(a.w[0][j] + a.w[1][j] > 0 or j in objects for j in range(K))


def test_open_cells_follow_the_cell_rules():
    # a cell is open when it holds no mark and, in row 1, no arrow tail
    import random

    rng = random.Random(11)
    for _ in range(300):
        s = rng.randint(1, 4)
        w, r1, r2, phi = _random_cells(rng, s, s)
        matching = list(range(s))
        rng.shuffle(matching)
        arrowed = vertical_array(w, r1, r2, matching, phi)
        # a general paired array: within-row pairs allowed, no arrows
        p1, p2 = rng.randint(0, 4), rng.randint(0, 4)
        p2 += (p1 + p2) % 2
        w2, q1, q2, _ = _random_cells(rng, p1, p2)
        slots = list(range(p1 + p2))
        rng.shuffle(slots)
        pairing = [0] * len(slots)
        for a, b in zip(slots[::2], slots[1::2]):
            pairing[a], pairing[b] = b, a
        paired = PairedArray(w2, q1, q2, tuple(pairing))
        for a in (gamma_of(w, r1, r2, phi), arrowed, paired):
            _assert_cell_structure(a)
        for a in (arrowed, paired):
            crit = critical_vertices(a)
            assert set(forest_function(a, 2)) == {j for row, j in crit if row == 2}
            assert set(forest_function(a, 1)) == {j for row, j in crit if row == 1} | set(a.phi)


def test_stored_cell_structure_on_sweep_draws_and_canonical_arrays(two_row_example):
    from mapenum import verify

    drawn = []
    store_cells = _Cells._store_cells

    # both the checked constructor and the draws' unchecked builds store here
    def record(g):
        store_cells(g)
        if isinstance(g, SubstructureGamma):
            drawn.append(g)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Cells, "_store_cells", record)
        for suite in ("gamma", "lemmas"):
            verify.run_suite(suite, seed=0)
    assert len(drawn) > 1000
    for g in drawn:
        _assert_cell_structure(g)
    # canonical arrays: every paired surjection with d <= 2, and the worked example
    canonical = [labelled_to_canonical(*two_row_example)]
    for q1, q2, s in gs_parameter_tuples(2):
        rows = (2 * q1 + s, 2 * q2 + s)
        n = sum(rows)
        gamma = gamma_of_rows(rows)
        for mu in enumerate_pairings(rows, s):
            for K in range(1, n + 1):
                for pi in product(range(K), repeat=n):
                    if len(set(pi)) == K and all(pi[mu[v]] == pi[gamma[v]] for v in range(n)):
                        canonical.append(labelled_to_canonical(rows, mu, pi))
    assert len(canonical) == 26
    for arr in canonical:
        _assert_cell_structure(arr)


def test_unchecked_builds_equal_the_checked_constructor(monkeypatch):
    # every substructure the sweeps build unchecked, rebuilt through the
    # constructor from the same parts: the checks pass and nothing differs
    from mapenum import brute, verify

    built = []
    unchecked = SubstructureGamma._unchecked

    def record(cls, w, r1, r2, arrows):
        g = unchecked(w, r1, r2, arrows)
        built.append(((w, r1, r2, dict(arrows) if type(arrows) is dict else arrows), g))
        return g

    monkeypatch.setattr(SubstructureGamma, "_unchecked", classmethod(record))
    # only the builds matter here: the oracles' walks are skipped, and the
    # omega walk runs on a cache of its own, which starts empty
    for name in ("gamma_count_brute", "gamma_count_brute_with_pair", "_count_forest_matchings"):
        monkeypatch.setattr(brute, name, lambda *args: 0)
    monkeypatch.setattr(brute, "_sorted_omega_count",
                        functools.lru_cache(maxsize=None)(brute._sorted_omega_count.__wrapped__))
    for seed in range(3):
        verify.sweep_gamma(600, seed)
        verify.sweep_gamma_noarrows(600, seed)
        verify.sweep_lemmas(300, seed)
    verify.sweep_omega(4, 6)
    # the pointing and merging draws build only the candidates they keep
    assert len(built) == 9803
    for parts, g in built:
        checked = SubstructureGamma(*parts)
        for name in ("w", "r1", "r2", "arrows", "tails", "_open", "_crit"):
            assert getattr(g, name) == getattr(checked, name)
            assert type(getattr(g, name)) is type(getattr(checked, name))
        assert repr(g) == repr(checked)


def test_draw_critical_columns_equal_the_built_substructure(monkeypatch):
    # the pointing and merging draws reject a candidate from its critical
    # columns before building it: on every candidate of the benchmark's lemma
    # sweep, kept or rejected, the open columns they work out and their
    # narrowing to the critical ones are the built substructure's _open and _crit
    import sys

    from mapenum import arrays, brute, verify

    opened, narrowed = [], []
    open_columns, occupied_columns = arrays._open_columns, arrays._occupied_columns

    # only the draws' own calls count, not those of a build's _store_cells
    def record_open(K, r1, r2, tails):
        cols = open_columns(K, r1, r2, tails)
        if sys._getframe(1).f_globals is vars(verify):
            opened.append((r1, r2, dict(tails), cols))
        return cols

    def record_narrowing(w, cols):
        crit = occupied_columns(w, cols)
        if sys._getframe(1).f_globals is vars(verify):
            narrowed.append((w, cols, crit))
        return crit

    monkeypatch.setattr(arrays, "_open_columns", record_open)
    monkeypatch.setattr(arrays, "_occupied_columns", record_narrowing)
    for name in ("gamma_count_brute", "gamma_count_brute_with_pair"):
        monkeypatch.setattr(brute, name, lambda *args: 0)
    verify.sweep_lemmas(300, 2)
    # 300 kept candidates for each of the two draws, and the rejected ones
    assert len(opened) == len(narrowed) == 1649
    for (r1, r2, phi, open_), (w, cols, crit) in zip(opened, narrowed):
        assert cols is open_
        g = SubstructureGamma(w, r1, r2, phi)
        assert (open_, crit) == (g._open, g._crit)


def test_is_irreducible():
    assert is_irreducible(gamma_of([[1], [1]], {0}, {0}))
    marked_head = gamma_of([[1, 1], [1, 1]], {1}, {0}, {0: 1})
    assert not is_irreducible(marked_head)
    chain = gamma_of([[1, 1, 1], [1, 1, 1]], {0}, {0}, {1: 2, 2: 0})
    assert not is_irreducible(chain)
    self_loop = gamma_of([[1, 1], [1, 1]], {0}, {0}, {1: 1})
    assert not is_irreducible(self_loop)
    fine = gamma_of([[1, 1, 1], [1, 1, 1]], {0}, {0}, {1: 2})
    assert is_irreducible(fine)


def test_head_test_leaves_no_arrow_cycle():
    # is_irreducible checks heads only: no arrow map whose heads carry no
    # tail has a cycle, checked on every map with K <= 4
    passed = 0
    for K in range(1, 5):
        for image in product(range(-1, K), repeat=K):
            phi = {t: h for t, h in enumerate(image) if h >= 0}
            if not any(h in phi for h in phi.values()):
                passed += 1
                assert arrow_cycle(phi) == ()
    assert passed == 55


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(0, 5), st.integers(0, 5), max_size=6))
def test_arrow_cycle_is_a_cycle_and_empty_only_when_acyclic(phi):
    cycle = arrow_cycle(phi)
    for i, j in enumerate(cycle):
        assert phi[j] == cycle[(i + 1) % len(cycle)]

    def leaves_domain(j):
        for _ in range(len(phi) + 1):
            if j not in phi:
                return True
            j = phi[j]
        return False

    assert (cycle == ()) == all(leaves_domain(t) for t in phi)


def test_classify_all_marked():
    g = gamma_of([[2, 1], [1, 2]], {0, 1}, {0, 1})
    t = classify_columns(g)
    assert _count_A(g._crit) == 0
    assert (t.d1, t.d2) == (3, 3)
    assert sum(t[0::2]) == sum(t[1::2]) == 3


def test_classify_A_and_D():
    g = gamma_of([[1, 1], [1, 1]], {1}, {1})
    t = classify_columns(g)
    assert _count_A(g._crit) == 1
    assert (t.a1, t.a2, t.d1, t.d2) == (1, 1, 1, 1)


def test_classify_arrow_decorations():
    # column 2 points at a row-2-marked column (type C target), itself marked in row 2
    g = gamma_of([[1, 1, 1], [1, 1, 1]], {0}, {1, 2}, {2: 1})
    t = classify_columns(g)
    assert t.ctil1 == 1 and t.ctil2 == 1
    assert t.b1 == 1  # column 0: row-1 marked only
    assert t.c1 == 1  # column 1: row-2 marked only
    # and an arrow into an unmarked column decorates as a-bar
    g2 = gamma_of([[1, 1, 1], [1, 1, 1]], {0}, {0}, {2: 1})
    t2 = classify_columns(g2)
    assert t2.abar1 == 1 and _count_A(g2._crit) == 1


def test_classify_rejects_reducible():
    with pytest.raises(ValueError):
        classify_columns(gamma_of([[1, 1], [1, 1]], {1}, {0}, {0: 1}))


def test_classify_row_totals_match_s():
    import random

    from mapenum.verify import random_full_irreducible

    rng = random.Random(3)
    for _ in range(50):
        g = random_full_irreducible(rng, max_K=5, max_s=6)
        t = classify_columns(g)
        assert sum(t[0::2]) == g.s  # row-1 totals
        assert sum(t[1::2]) == g.s  # row-2 totals


def _is_irreducible_reference(g):
    """``is_irreducible`` as first written, on the rebuilt arrow dict."""
    phi = g.phi
    return not any(head in g.r1 or head in phi for head in phi.values())


def _classify_reference(g):
    """``classify_columns`` as first written, with its own tail set and names."""
    if not _is_irreducible_reference(g):
        raise ValueError("column classification requires an irreducible substructure")
    phi = g.phi
    tails = set(phi)
    w1, w2 = g.w
    acc = {name: 0 for name in (
        "a1", "a2", "abar1", "abar2", "atil1", "atil2", "b1", "b2",
        "c1", "c2", "cbar1", "cbar2", "ctil1", "ctil2", "d1", "d2",
    )}
    plain_type = {}
    for j in range(g.K):
        if j in tails:
            continue
        m1, m2 = j in g.r1, j in g.r2
        plain_type[j] = "d" if (m1 and m2) else "b" if m1 else "c" if m2 else "a"
    for j, kind in plain_type.items():
        acc[kind + "1"] += w1[j]
        acc[kind + "2"] += w2[j]
    for t, head in phi.items():
        target = plain_type[head]
        deco = "til" if t in g.r2 else "bar"
        acc[target + deco + "1"] += w1[t]
        acc[target + deco + "2"] += w2[t]
    return ColumnTally(**acc)


def _classify_outcome(classify, g):
    try:
        return classify(g)
    except ValueError as err:
        return type(err), str(err)


def test_classify_columns_matches_the_reference_on_sweep_draws():
    from mapenum import brute, formulas, verify

    drawn = []

    def record(g):
        drawn.append(g)
        return 0

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formulas, "gamma_count_formula", record)
        mp.setattr(brute, "gamma_count_brute", lambda g: 0)
        for seed in range(3):
            verify.sweep_gamma(600, seed)
    assert len(drawn) == 1800
    assert any(g.arrows for g in drawn)
    for g in drawn:
        assert is_irreducible(g) and _is_irreducible_reference(g)
        assert classify_columns(g) == _classify_reference(g)
        # full: the columns whose two cells hold a critical vertex are the
        # doubly-unmarked columns outside the arrow tails
        unmarked = [j for j in range(g.K) if j not in g.r1 | g.r2 and j not in g.phi]
        assert _count_A(g._crit) == len(unmarked)


def test_small_arrow_maps_match_the_references():
    # every arrow map on 1-3 columns of one vertex each, under every pair of marks
    seen = classified_with_arrows = 0
    for K in range(1, 4):
        subsets = [frozenset(j for j in range(K) if mask >> j & 1) for mask in range(1, 1 << K)]
        w = ((1,) * K, (1,) * K)
        for r1, r2 in product(subsets, subsets):
            free = [j for j in range(K) if j not in r1]
            for heads in product([None, *range(K)], repeat=len(free)):
                phi = {t: h for t, h in zip(free, heads) if h is not None}
                g = SubstructureGamma(w, r1, r2, phi)
                pairs = SubstructureGamma(w, r1, r2, tuple(sorted(phi.items())))
                assert g == pairs and g.to_json() == pairs.to_json()
                assert is_irreducible(g) == _is_irreducible_reference(g)
                assert _classify_outcome(classify_columns, g) == _classify_outcome(_classify_reference, g)
                seen += 1
                classified_with_arrows += bool(phi) and is_irreducible(g)
    assert (seen, classified_with_arrows) == (449, 42)


def test_irreducible_full_heads_have_critical_row1_vertex():
    import random

    from mapenum.verify import random_full_irreducible

    rng = random.Random(4)
    for _ in range(80):
        g = random_full_irreducible(rng, max_K=6, max_s=6)
        crits = critical_vertices(g)
        for _, head in g.arrows:
            assert (1, head) in crits


# ----------------------------------------------------------------------
# Serialization and column permutation
# ----------------------------------------------------------------------


def test_gamma_json_roundtrip():
    g = gamma_of([[1, 0, 2], [1, 1, 1]], {0}, {1, 2}, {1: 0})
    payload = json.loads(g.to_json())
    assert payload == {
        "K": 3,
        "w": [[1, 0, 2], [1, 1, 1]],
        "R1": [0],
        "R2": [1, 2],
        "phi": {"1": 0},
    }
    assert SubstructureGamma.from_json(g.to_json()) == g


def test_zero_vertex_lemma_draws_roundtrip(zero_vertex_lemma_draws):
    # the constructor accepts a substructure with no vertex, so from_json must too
    assert len(zero_vertex_lemma_draws) >= 2
    assert any(g.arrows for g in zero_vertex_lemma_draws)
    for g in zero_vertex_lemma_draws:
        assert SubstructureGamma.from_json(g.to_json()) == g


def test_omega_json_roundtrip():
    o = SubstructureOmega(3, 1, 2, (2, 0, 1))
    payload = json.loads(o.to_json())
    assert payload == {"K": 3, "R1": 1, "R2": 2, "w": [2, 0, 1]}
    assert SubstructureOmega.from_json(o.to_json()) == o
    assert o.s == 3 and o.F == 2


@pytest.mark.parametrize(
    "K, R1, R2, w",
    [(2, 1.5, 1, (1, 1)), (2.0, 1, 1, (1, 1)), (2, 1, True, (1, 1)), (True, 1, 1, (2,)),
     (2, "1", 1, (1, 1))],
)
def test_omega_counts_must_be_integers(K, R1, R2, w):
    # the formula and the brute counter disagreed on such values (0 against TypeError)
    with pytest.raises(ValueError, match="K and the mark counts must be integers"):
        SubstructureOmega(K, R1, R2, w)


_W = ((1, 1), (1, 1))


@pytest.mark.parametrize(
    "w, r1, r2, phi, message",
    [
        (((1.0, 1), (1, 1)), {0}, {0}, {}, "occupancy entries must be integers, got 1.0"),
        (((True, 1), (1, 1)), {0}, {0}, {}, "occupancy entries must be integers, got True"),
        ((("1", 1), (1, 1)), {0}, {0}, {}, "occupancy entries must be integers, got '1'"),
        (((1, 1), 5), {0}, {0}, {}, "occupancy must be a 2 x K matrix of integers"),
        (((1,), (1,), (1,)), {0}, {0}, {}, "occupancy must be a 2 x K matrix"),
        (((-1, 2), (1, 0)), {0}, {0}, {}, "occupancy must be non-negative"),
        (_W, {True}, {0}, {}, "R1 columns must be integers, got True"),
        (_W, {0}, {1.0}, {}, "R2 columns must be integers, got 1.0"),
        (_W, set(), {0}, {}, "R1 must mark at least one column"),
        (_W, {0}, {2}, {}, "R2 contains a column outside 0..1"),
        (_W, {-1}, {0}, {}, "R1 contains a column outside 0..1"),
        (_W, 0, {0}, {}, "R1 must be a list of column indices"),
        (_W, [[1]], {0}, {}, "R1 columns must be integers, got [1]"),
        (_W, {0}, {0}, None, "phi must map columns to columns"),
        (_W, {0}, {0}, 0, "phi must map columns to columns"),
        (_W, {0}, {0}, {"x": 1}, "arrow tails must be decimal column indices, got 'x'"),
        (_W, {0}, {0}, {1: 0.0}, "arrow heads must be integers, got 0.0"),
        (_W, {0}, {0}, {0: 1}, "column 0 is marked in row 1 and cannot hold an arrow tail"),
        (((1, 1, 1), (1, 1, 1)), {0}, {0}, ((1, 0), (1, 2)), "each column may carry at most one arrow tail"),
        (_W, {0}, {0}, {1: 2}, "arrow (1, 2) out of range"),
        (((1, 1), (1, 0)), {0}, {0}, {}, "both rows must carry the same number of vertices"),
        (((), ()), {0}, {0}, {}, "need at least one column"),
        # rows and mark sets as lists, and arrows as a list of pairs
        ([[1, 1], [1, True]], [0], [0], [], "occupancy entries must be integers, got True"),
        ([[1, 1], [1]], [0], [0], [], "occupancy must be a 2 x K matrix"),
        ([[1, -1], [0, 0]], [0], [0], [], "occupancy must be non-negative"),
        ([[0, 1], [1, 0.0]], [0], [0], [], "occupancy entries must be integers, got 0.0"),
        (_W, [], [0], [], "R1 must mark at least one column"),
        (_W, [0], [0, 2], [], "R2 contains a column outside 0..1"),
        (_W, [0, False], [0], [], "R1 columns must be integers, got False"),
        (_W, [0], [0], [(1, True)], "arrow heads must be integers, got True"),
        (_W, [0], [0], [(0, 1)], "column 0 is marked in row 1 and cannot hold an arrow tail"),
        (_W, [0], [0], [(1, -1)], "arrow (1, -1) out of range"),
        (((1, 1, 1), (1, 1, 1)), [0], [0], [(1, 0), (1, 0)], "each column may carry at most one arrow tail"),
    ],
)
def test_gamma_rejects_malformed_fields_with_its_message(w, r1, r2, phi, message):
    with pytest.raises(ValueError) as caught:
        SubstructureGamma(w, r1, r2, phi)
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "w, pairing, message",
    [
        (((1,), (1,)), 3, "pairing must be a sequence of slot indices"),
        (((1,), (1,)), (1,), "pairing covers 1 slots, expected 2"),
        (((1,), (1,)), (0, 1), "pairing must be a fixed-point-free involution on the slots"),
        (((2,), (1,)), (1, 2, 0), "pairing must be a fixed-point-free involution on the slots"),
        (((1,), (1,)), (2, 0), "pairing must be a fixed-point-free involution on the slots"),
        (((1,), (1,)), (-1, 0), "pairing must be a fixed-point-free involution on the slots"),
        ([[1], [1]], [1, 1], "pairing must be a fixed-point-free involution on the slots"),
        ([[2], [2]], [1, 0, 3, 4], "pairing must be a fixed-point-free involution on the slots"),
        ([[2], [2]], [2, 3, 0, 0], "pairing must be a fixed-point-free involution on the slots"),
        ([[1], [1]], [1, 0.0], "pairing entries must be integers, got 0.0"),
    ],
)
def test_paired_array_rejects_a_bad_pairing_with_its_message(w, pairing, message):
    with pytest.raises(ValueError) as caught:
        PairedArray(w, {0}, {0}, pairing)
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "K, R1, R2, w, message",
    [
        (2, 1, 1, [1, -1], "occupancy must be non-negative"),
        (2, 1, 1, [1, True], "occupancy entries must be integers, got True"),
        (2, 1, 1, (0.0, 1), "occupancy entries must be integers, got 0.0"),
        (2, 1, 1, 5, "occupancy must be a list of integers"),
        (2, 1, 1, [1], "occupancy length must equal K >= 1"),
        (0, 1, 1, [], "occupancy length must equal K >= 1"),
        (2, 1, 1, [0, 0], "occupancy must hold at least one vertex"),
        (2, 0, 1, [1, 0], "mark counts must satisfy 1 <= R_i <= K"),
        (2, 1, 3, (1, 0), "mark counts must satisfy 1 <= R_i <= K"),
        (2, True, 1, [1, 0], "K and the mark counts must be integers, got True"),
        ("2", 1, 1.0, [1, 0], "K and the mark counts must be integers, got '2'"),
    ],
)
def test_omega_rejects_malformed_fields_with_its_message(K, R1, R2, w, message):
    with pytest.raises(ValueError) as caught:
        SubstructureOmega(K, R1, R2, w)
    assert str(caught.value) == message


def test_int_subclass_entries_build_the_plain_int_substructure():
    class Column(int):
        pass

    plain = SubstructureGamma(((1, 0, 2), (1, 2, 0)), {0}, {1, 2}, {1: 0})
    sub = SubstructureGamma(
        ((Column(1), Column(0), Column(2)), (Column(1), 2, 0)),
        [Column(0)], frozenset([Column(1), 2]), {Column(1): Column(0)},
    )
    assert sub == plain
    assert sub.tails == plain.tails and critical_vertices(sub) == critical_vertices(plain)
    assert gamma_count_brute(sub) == gamma_count_brute(plain)
    omega = SubstructureOmega(Column(3), 1, Column(2), [2, Column(0), 1])
    assert omega == SubstructureOmega(3, 1, 2, (2, 0, 1)) and type(omega.w) is tuple


@pytest.mark.parametrize("row", [0, 3])
def test_row_must_be_1_or_2(row):
    arr = vertical_array([[1, 1], [1, 1]], {0}, {0}, [0, 1])
    with pytest.raises(ValueError, match="row must be 1 or 2"):
        arr.mixed_counts(row)


def test_gamma_validation():
    with pytest.raises(ValueError):
        gamma_of([[1], [2]], {0}, {0})  # row totals differ
    with pytest.raises(ValueError):
        gamma_of([[1], [1]], set(), {0})  # no row-1 mark
    with pytest.raises(ValueError):
        gamma_of([[1, 1], [1, 1]], {0}, {0}, {0: 1})  # tail on a marked column


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_column_permutation_preserves_conditions_and_counts(relabel_columns, data):
    import random

    seed = data.draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    K = rng.randint(1, 4)
    s = rng.randint(1, 4)
    w1 = [0] * K
    w2 = [0] * K
    for _ in range(s):
        w1[rng.randrange(K)] += 1
        w2[rng.randrange(K)] += 1
    r1 = frozenset(rng.sample(range(K), rng.randint(1, K)))
    r2 = frozenset(rng.sample(range(K), rng.randint(1, K)))
    phi = {}
    for j in range(K):
        if j not in r1 and rng.random() < 0.4:
            phi[j] = rng.randrange(K)
    g = gamma_of([w1, w2], r1, r2, phi)
    perm = data.draw(st.permutations(list(range(K))))
    h = relabel_columns(g, perm)
    assert check_nonempty(g) == check_nonempty(h)
    assert check_balance(g) == check_balance(h)
    assert check_full(g) == check_full(h)
    assert gamma_count_brute(g) == gamma_count_brute(h)
