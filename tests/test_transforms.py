from functools import partial
from itertools import product

import pytest

from mapenum.arrays import (
    SubstructureGamma,
    _as_column,
    check_balance,
    check_forest,
    check_full,
    check_nonempty,
    classify_columns,
    critical_vertices,
    is_irreducible,
)
from mapenum.brute import (
    canonical_array_count_brute,
    enumerate_pairings,
    gamma_count_brute,
    gamma_count_brute_with_pair,
)
from mapenum.exact import gamma_of_rows
from mapenum.transforms import (
    CycleDetected,
    arrow_simplify_retarget,
    arrow_simplify_to_mark,
    column_merging,
    column_pointing,
    irreducible_closure,
    labelled_to_canonical,
)


def gamma_of(w, r1, r2, phi=None):
    return SubstructureGamma(w, r1, r2, phi or {})


# ----------------------------------------------------------------------
# Arrow simplifications
# ----------------------------------------------------------------------


def test_to_mark_moves_the_tail_into_the_marks():
    g = gamma_of([[1, 1], [1, 1]], {1}, {0}, {0: 1})
    out = arrow_simplify_to_mark(g, 0)
    assert out.r1 == frozenset({0, 1})
    assert out.arrows == ()
    assert out.w == g.w and out.r2 == g.r2
    assert gamma_count_brute(g) == gamma_count_brute(out)


def test_to_mark_requires_marked_head():
    g = gamma_of([[1, 1], [1, 1]], {1}, {0}, {0: 0})
    with pytest.raises(ValueError):
        arrow_simplify_to_mark(g, 0)
    with pytest.raises(ValueError):
        arrow_simplify_to_mark(g, 1)  # no arrow there


def test_retarget_shortcuts_a_chain():
    g = gamma_of([[1, 1, 1], [1, 1, 1]], {2}, {0}, {0: 1, 1: 2})
    out = arrow_simplify_retarget(g, 0)
    assert out.phi == {0: 2, 1: 2}
    assert gamma_count_brute(g) == gamma_count_brute(out)


def test_retarget_requires_a_second_arrow():
    g = gamma_of([[1, 1], [1, 1]], {1}, {0}, {0: 1})
    with pytest.raises(ValueError):
        arrow_simplify_retarget(g, 0)


def test_retarget_two_cycle_yields_self_loop():
    g = gamma_of([[1, 1, 1], [1, 1, 1]], {0}, {0}, {1: 2, 2: 1})
    out = arrow_simplify_retarget(g, 1)
    assert out.phi == {1: 1, 2: 1}
    assert gamma_count_brute(g) == gamma_count_brute(out) == 0
    assert isinstance(irreducible_closure(out), CycleDetected)


# ----------------------------------------------------------------------
# Irreducible closure
# ----------------------------------------------------------------------


def test_closure_no_arrows_is_identity():
    g = gamma_of([[1], [1]], {0}, {0})
    assert irreducible_closure(g) == g


def test_closure_detects_cycles_before_rewriting():
    g = gamma_of([[1, 1, 1], [1, 1, 1]], {0}, {0}, {1: 2, 2: 1})
    out = irreducible_closure(g)
    assert isinstance(out, CycleDetected)
    assert set(out.columns) == {1, 2}


def test_closure_reaches_an_irreducible_substructure():
    # a six-column substructure needing both simplifications repeatedly
    g = gamma_of(
        [[1, 1, 1, 1, 1, 2], [2, 1, 1, 1, 1, 1]],
        {0},
        {3, 4, 5},
        {1: 2, 2: 3, 3: 0, 4: 1},
    )
    assert not is_irreducible(g)
    out = irreducible_closure(g)
    assert isinstance(out, SubstructureGamma)
    assert is_irreducible(out)
    assert gamma_count_brute(out) == gamma_count_brute(g)
    classify_columns(out)  # must not raise


def test_closure_is_confluent_under_any_maximal_order():
    """Applying the lemmas in any order gives the same substructure."""
    g = gamma_of(
        [[1, 1, 1, 1, 1], [1, 1, 1, 1, 1]],
        {0},
        {0, 2},
        {1: 2, 2: 0, 3: 1, 4: 3},
    )
    reference = irreducible_closure(g)
    assert isinstance(reference, SubstructureGamma)

    import random

    def closure_random_order(g, rng):
        current = g
        while not is_irreducible(current):
            phi = current.phi
            moves = []
            for X, Y in phi.items():
                if Y in current.r1:
                    moves.append(("mark", X))
                if Y in phi:
                    moves.append(("retarget", X))
            kind, X = rng.choice(moves)
            if kind == "mark":
                current = arrow_simplify_to_mark(current, X)
            else:
                current = arrow_simplify_retarget(current, X)
        return current

    for seed in range(20):
        out = closure_random_order(g, random.Random(seed))
        assert out == reference
        assert gamma_count_brute(out) == gamma_count_brute(g)
        assert classify_columns(out) == classify_columns(reference)


# ----------------------------------------------------------------------
# Column pointing
# ----------------------------------------------------------------------


def test_column_pointing_shape():
    g = gamma_of([[1, 1], [0, 2]], {1}, {1}, {})
    out = column_pointing(g, 0, 1)
    assert out.w == ((0, 1), (0, 1))
    assert out.phi == {0: 1}
    assert out.s == g.s - 1


def test_column_pointing_count_contract():
    g = gamma_of([[1, 1], [0, 2]], {1}, {1}, {})
    restricted = gamma_count_brute_with_pair(g, (0, 0), (1, 1))
    assert restricted == gamma_count_brute(column_pointing(g, 0, 1))


def test_column_pointing_rejects_bad_targets():
    g = gamma_of([[1, 1], [1, 1]], {1}, {1}, {})
    with pytest.raises(ValueError):
        column_pointing(g, 0, 0)  # same column
    g2 = gamma_of([[1, 1], [1, 1]], {1}, {0}, {})
    with pytest.raises(ValueError):
        column_pointing(g2, 0, 1)  # the only vertex of (2,1) is critical
    with pytest.raises(ValueError):
        column_pointing(g2, 1, 0)  # (1,1) is marked, no critical vertex


def test_column_pointing_keeps_column_nonempty_via_tail():
    g = gamma_of([[1, 0], [0, 1]], {1}, {1}, {})
    assert check_nonempty(g)
    out = column_pointing(g, 0, 1)  # (2,1) is marked, so its vertex is not critical
    assert out.w == ((0, 0), (0, 0))
    assert check_nonempty(out)  # the new tail keeps column 0 alive
    assert check_full(g) == check_full(out)


# ----------------------------------------------------------------------
# Column merging
# ----------------------------------------------------------------------


def test_column_merging_requires_full():
    g = gamma_of([[1, 1], [2, 0]], {1}, {0}, {})
    with pytest.raises(ValueError, match="full condition"):
        column_merging(g, 0, 1)


def test_column_merging_shape_and_contract():
    g = gamma_of([[1, 1], [1, 1]], {1}, {0}, {})
    v = (0, 0)   # rightmost slot of (1, 0)
    u = (1, 0)   # rightmost slot of (2, 1)
    restricted = gamma_count_brute_with_pair(g, v, u)
    out = column_merging(g, 0, 1)
    assert out.K == 1
    assert out.w == ((1,), (1,))
    assert out.r1 == frozenset({0}) and out.r2 == frozenset({0})
    assert check_full(out)
    assert gamma_count_brute(out) == restricted


def test_column_merging_relabels_y_to_last():
    # merge column 1 into column 2: column 1 must first swap with the last
    g = gamma_of([[1, 2, 1], [1, 1, 2]], {0}, {0}, {})
    out = column_merging(g, 2, 1)
    assert out.K == 2
    # merged column keeps X's (old column 2's) slot position after the swap
    assert out.w == ((1, 2), (1, 2))
    assert out.r1 == frozenset({0})
    assert out.r2 == frozenset({0})
    restricted = gamma_count_brute_with_pair(g, (2, 0), (1, 0))
    assert gamma_count_brute(out) == restricted


def test_column_merging_redirects_arrows():
    g = gamma_of(
        [[1, 1, 1, 0], [1, 0, 1, 1]],
        {1},
        {1, 3},
        {3: 2},
    )
    out = column_merging(g, 0, 2)
    assert out.phi == {2: 0}  # the arrow into the removed column lands on X
    assert check_full(out)


def _merging_reference(g, X, Y, relabel):
    """Column merging as first written: swap Y with the last column through
    ``relabel`` (the ``relabel_columns`` fixture), then fold the last column
    into X and drop it."""
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
    K = g.K
    last = K - 1
    if Y != last:
        swap = list(range(K))
        swap[Y], swap[last] = last, Y
        g = relabel(g, swap)
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
        frozenset(g.r2),
        tuple(sorted(new_phi.items())),
    )
    if not check_full(out):
        raise ValueError("column merging lost the full condition")
    return out


def _merging_outcome(merge, g, X, Y):
    """The merged substructure with its JSON, or the error's type and message."""
    try:
        out = merge(g, X, Y)
    except ValueError as err:
        return type(err), str(err)
    return out, out.to_json()


def test_column_merging_matches_the_reference_on_every_lemma_draw(relabel_columns):
    from mapenum import brute, transforms, verify

    reference = partial(_merging_reference, relabel=relabel_columns)
    drawn = []
    merging = transforms.column_merging

    def record(g, X, Y):
        drawn.append((g, X, Y))
        return merging(g, X, Y)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(brute, "gamma_count_brute", lambda g, *pair: 0)
        mp.setattr(brute, "gamma_count_brute_with_pair", lambda g, *pair: 0)
        mp.setattr(transforms, "column_merging", record)
        for seed in range(3):
            assert verify.sweep_lemmas(300, seed) == []
    assert len(drawn) == 900
    assert any(g.arrows for g, _, _ in drawn)
    for g, X, Y in drawn:
        assert _merging_outcome(merging, g, X, Y) == _merging_outcome(reference, g, X, Y)


def test_column_merging_matches_the_reference_on_small_full_substructures(relabel_columns):
    # every full arrow-free substructure with K, s <= 3, at every column pair
    reference = partial(_merging_reference, relabel=relabel_columns)
    critical_pairs = 0
    for K in range(1, 4):
        subsets = [frozenset(j for j in range(K) if mask >> j & 1) for mask in range(1, 1 << K)]
        for s in range(4):
            rows = [w for w in product(range(s + 1), repeat=K) if sum(w) == s]
            for w1, w2, r1, r2 in product(rows, rows, subsets, subsets):
                g = SubstructureGamma((w1, w2), r1, r2, ())
                if not check_full(g):
                    continue
                for X, Y in product(range(K), repeat=2):
                    new = _merging_outcome(column_merging, g, X, Y)
                    assert new == _merging_outcome(reference, g, X, Y)
                    critical_pairs += isinstance(new[0], SubstructureGamma)
    assert critical_pairs == 1048


@pytest.mark.parametrize(
    "transform, args",
    [
        (arrow_simplify_to_mark, (-1,)),
        (arrow_simplify_retarget, (True,)),
        (column_pointing, (0, 7)),
        (column_pointing, (0, -1)),
        (column_merging, (0.0, 1)),
        (column_merging, (0, "1")),
    ],
    # the cases keep the ids they were first collected under
    ids=[f"{name}-args{i}" for i, name in enumerate(
        ["arrow_simplify_to_mark", "arrow_simplify_retarget", "column_pointing",
         "column_pointing", "column_merging", "column_merging"], start=2)],
)
def test_transforms_reject_bad_column_arguments(transform, args):
    # the chain 1 -> 0 -> 2 could be retargeted at column True == 1
    g = gamma_of([[1, 1, 1], [1, 1, 1]], {2}, {0}, {1: 0, 0: 2})
    with pytest.raises(ValueError, match=r"columns must be integers|is outside 0\.\.2"):
        transform(g, *args)


# ----------------------------------------------------------------------
# Labelled arrays to canonical arrays
# ----------------------------------------------------------------------


def test_labelled_to_canonical_worked_example(two_row_example):
    rows, mu, pi = two_row_example
    arr = labelled_to_canonical(rows, mu, pi)
    assert arr.w[0] == (2, 3, 3, 2)
    assert arr.w[1] == (1, 2, 1, 2)
    assert arr.r1 == frozenset({2})
    assert arr.r2 == frozenset({3})
    assert check_nonempty(arr) and check_balance(arr) and check_forest(arr)


def test_labelled_to_canonical_single_column():
    mu = next(enumerate_pairings((1, 1), 1))
    arr = labelled_to_canonical((1, 1), mu, [0, 0])
    assert arr.w == ((1,), (1,))
    assert arr.r1 == arr.r2 == frozenset({0})
    assert arr.s == 1


def test_labelled_to_canonical_rejects_broken_projection(two_row_example):
    rows, mu, pi = two_row_example
    bad = list(pi)
    bad[0] = 1  # breaks the partner/successor constraint
    with pytest.raises(ValueError, match="paired surjection"):
        labelled_to_canonical(rows, mu, bad)
    with pytest.raises(ValueError):
        labelled_to_canonical(rows, mu, [5] + list(pi)[1:])  # not surjective
    for entries in ([float(j) for j in pi], [str(j) for j in pi], [True] + list(pi)[1:]):
        with pytest.raises(ValueError, match="integers"):
            labelled_to_canonical(rows, mu, entries)
    for wrong in [(0, 16), (16, 0), (-2, 18), (10, 8), (10, 6, 0), (16,)]:
        with pytest.raises(ValueError):
            labelled_to_canonical(wrong, mu, pi)  # an empty row or a size mismatch
    with pytest.raises(ValueError):
        labelled_to_canonical((1, 1), mu, [0, 0])  # pairing of another ground set


def _paired_surjections(q1, q2, s, K):
    """Yield (mu, pi) pairs by extending each pairing's forced blocks."""
    p1, p2 = 2 * q1 + s, 2 * q2 + s
    n = p1 + p2
    gamma = gamma_of_rows((p1, p2))
    for mu in enumerate_pairings((p1, p2), s):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for v in range(n):
            a, b = find(mu[v]), find(gamma[v])
            if a != b:
                parent[a] = b
        reps = sorted({find(x) for x in range(n)})
        for assignment in product(range(K), repeat=len(reps)):
            if len(set(assignment)) != K:
                continue
            lookup = dict(zip(reps, assignment))
            yield mu, [lookup[find(x)] for x in range(n)]


from mapenum.verify import gs_parameter_tuples


@pytest.mark.parametrize("q1,q2,s", list(gs_parameter_tuples(3)))
def test_labelled_to_canonical_is_a_bijection(q1, q2, s):
    d = q1 + q2 + s
    rows = (2 * q1 + s, 2 * q2 + s)
    for K in range(1, 2 * d + 1):
        images = set()
        count = 0
        for mu, pi in _paired_surjections(q1, q2, s, K):
            arr = labelled_to_canonical(rows, mu, pi)
            assert check_nonempty(arr) and check_balance(arr) and check_forest(arr)
            assert arr.r1 == frozenset({pi[0]}) and len(arr.r1) == 1 and len(arr.r2) == 1
            images.add(arr)
            count += 1
        assert len(images) == count, "distinct surjections collided"
        assert count == canonical_array_count_brute(K, q1, q2, s)
