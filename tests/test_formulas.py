from math import factorial, perm

import pytest

from mapenum.arrays import SubstructureGamma, SubstructureOmega
from mapenum.brute import (
    _surjections,
    canonical_array_count_brute,
    gamma_count_brute,
    gs_counts_brute,
    hz_counts_brute,
    omega_count_brute,
    paired_surjection_count_brute,
    vertical_array_count_brute,
)
from mapenum.exact import BinomialPoly, CycleCountVector, binomial, multinomial
from mapenum.formulas import (
    _as_count,
    canonical_from_vertical,
    gamma_count_formula,
    gamma_count_formula_noarrows,
    genus_counts,
    gs_series,
    gs_series_simplified,
    hz_series,
    omega_count_formula,
    series_from_surjections,
    vertical_count_formula,
)
from mapenum.verify import gs_parameter_tuples


def test_as_count_returns_the_exact_quotient():
    assert _as_count(factorial(10), factorial(7), "ctx") == 720
    assert _as_count(0, 5, "ctx") == 0


def test_as_count_rejects_a_remainder_or_a_negative_value():
    with pytest.raises(ArithmeticError, match=r"^ratio\(7\): expected an exact integer, got 7/2$"):
        _as_count(7, 2, "ratio(7)")
    with pytest.raises(ArithmeticError, match=r"^neg: expected a non-negative count, got -3$"):
        _as_count(-6, 2, "neg")
    with pytest.raises(ArithmeticError, match="expected an exact integer"):
        _as_count(-7, 2, "neg")


def test_as_count_formats_its_template_only_into_the_error():
    with pytest.raises(ArithmeticError, match=r"^f\(3, 4\): expected an exact integer, got 7/2$"):
        _as_count(7, 2, "f({}, {})", 3, 4)
    with pytest.raises(ArithmeticError, match=r"^g\(5\): expected a non-negative count, got -2$"):
        _as_count(-4, 2, "g({})", 5)
    # a passing call never formats: these arguments would not fit the template
    assert _as_count(8, 2, "f({}, {})") == 4


# ----------------------------------------------------------------------
# Series
# ----------------------------------------------------------------------


def test_hz_series_anchors():
    assert hz_series(1).to_monomial().integer_coeffs() == {2: 1}
    assert hz_series(2).to_monomial().integer_coeffs() == {3: 2, 1: 1}
    assert hz_series(2).coeffs == {1: 3, 2: 12, 3: 12}


def test_hz_series_rejects_q0():
    with pytest.raises(ValueError):
        hz_series(0)


def test_hz_series_matches_brute_smallish():
    for q in range(1, 5):
        assert hz_series(q).to_monomial().integer_coeffs() == \
            hz_counts_brute(q).to_poly().integer_coeffs()


def test_hz_series_satisfies_the_harer_zagier_recursion():
    # (n+1) e_g(n) = 2(2n-1) e_g(n-1) + (n-1)(2n-1)(2n-3) e_{g-1}(n-2), with
    # e_g(n) the pairings of 2n elements in genus g, that is, with n+1-2g
    # cycles: a check of hz_series that does not go through brute force
    def table(n):
        if n == 0:
            return {0: 1}
        counts = hz_series(n).to_counts(n)
        return {g: counts.a(n + 1 - 2 * g) for g in range(n // 2 + 1)}

    e = [table(n) for n in range(121)]
    for n in range(2, 121):
        for g in range(n // 2 + 1):
            assert (n + 1) * e[n][g] == 2 * (2 * n - 1) * e[n - 1].get(g, 0) + (
                (n - 1) * (2 * n - 1) * (2 * n - 3) * e[n - 2].get(g - 1, 0)
            ), (n, g)
    assert e[2] == {0: 2, 1: 1}


def test_gs_series_anchors():
    assert gs_series(0, 0, 1).to_monomial().integer_coeffs() == {1: 1}
    assert gs_series(0, 0, 2).to_monomial().integer_coeffs() == {2: 2}


def test_gs_series_rejects_s0():
    with pytest.raises(ValueError):
        gs_series(1, 1, 0)
    with pytest.raises(ValueError):
        gs_series_simplified(1, 1, 0)


def test_gs_series_total_pairing_count():
    from mapenum.exact import binomial, double_factorial

    for q1, q2, s in [(0, 0, 1), (1, 0, 1), (1, 1, 2), (0, 2, 2)]:
        p1, p2 = 2 * q1 + s, 2 * q2 + s
        total = gs_series(q1, q2, s).eval(1)
        # evaluation at 1 keeps only the C(x, 1) term, i.e. the full count
        expected = (
            binomial(p1, s)
            * binomial(p2, s)
            * factorial(s)
            * double_factorial(2 * q1 - 1)
            * double_factorial(2 * q2 - 1)
        )
        assert sum(gs_counts_brute(q1, q2, s).counts) == expected
        assert total == sum(
            c for c in gs_counts_brute(q1, q2, s).to_poly().integer_coeffs().values()
        )


def test_gs_simplified_matches_full_form():
    for q1 in range(3):
        for q2 in range(3):
            for s in range(1, 4):
                assert gs_series(q1, q2, s) == gs_series_simplified(q1, q2, s)
    assert gs_series_simplified(0, 0, 1).to_monomial().integer_coeffs() == {1: 1}
    assert gs_series_simplified(0, 0, 2).to_monomial().integer_coeffs() == {2: 2}


def _gs_triple_sum(q1, q2, s):
    """The Goulden-Slofstra triple sum term by term, as displayed: every
    i <= p1/2, j <= p2/2 and k = 1..d+1, each binomial with the
    zero-outside-range convention; a term with i + j > d has a negative
    multinomial part and weight 0."""
    p1, p2 = 2 * q1 + s, 2 * q2 + s
    d = q1 + q2 + s
    nums = [0] * (d + 2)
    for i in range(p1 // 2 + 1):
        for j in range(p2 // 2 + 1):
            m = d - i - j
            weight = multinomial((i, j, m))
            if not weight:
                continue
            for k in range(1, d + 2):
                bracket = binomial(k - 1, q1 - i) * binomial(k - 1, q2 - j) - binomial(
                    k - 1, q1 + s - i
                ) * binomial(k - 1, q2 + s - j)
                nums[k] += weight * 2**m * binomial(m, k - 1) * bracket
    return BinomialPoly(
        {k: _as_count(factorial(p1) * factorial(p2) * nums[k], 2**d * factorial(d), "reference")
         for k in range(1, d + 2)}
    )


def test_gs_series_matches_the_literal_triple_sum():
    for q1, q2, s in gs_parameter_tuples(14):
        assert gs_series(q1, q2, s) == _gs_triple_sum(q1, q2, s), (q1, q2, s)


def test_gs_series_matches_simplified_to_d16():
    for q1, q2, s in gs_parameter_tuples(16):
        assert gs_series(q1, q2, s) == gs_series_simplified(q1, q2, s), (q1, q2, s)


def _gs_simplified_reference(q1, q2, s):
    """The two-sum series as first written: four perm calls and a power of two per term."""
    p1, p2 = 2 * q1 + s, 2 * q2 + s
    d = q1 + q2 + s
    nums = [0] * (d + 2)
    for t1 in range(q1 + s + 1):
        for t2 in range(min(q2 + s, d - t1) + 1):
            bracket = perm(q1 + s, t1) * perm(q2 + s, t2) - perm(q1, t1) * perm(q2, t2)
            if not bracket:
                continue
            m = d - t1 - t2
            multi = factorial(d) // (factorial(m) * factorial(t1) * factorial(t2))
            nums[m + 1] += factorial(d - t1) * factorial(d - t2) * multi * 2**m * bracket
    lead = factorial(p1) * factorial(p2)
    den = 2**d * factorial(d) * factorial(q1) * factorial(q2)
    den *= factorial(q1 + s) * factorial(q2 + s)
    return BinomialPoly(
        {k: _as_count(lead * nums[k], den, "reference") for k in range(1, d + 2)}
    )


def test_gs_series_simplified_matches_its_reference_to_d20():
    for q1, q2, s in gs_parameter_tuples(20):
        assert gs_series_simplified(q1, q2, s) == _gs_simplified_reference(q1, q2, s), (q1, q2, s)


def test_series_from_surjections():
    assert series_from_surjections({1: 1}).to_monomial().integer_coeffs() == {1: 1}
    f = {K: paired_surjection_count_brute(K, 0, 0, 2) for K in range(1, 5)}
    assert series_from_surjections(f) == gs_series(0, 0, 2)


# ----------------------------------------------------------------------
# Array-count formulas
# ----------------------------------------------------------------------


def test_vertical_formula_anchors():
    assert vertical_count_formula(1, 1, 1, 1) == 1
    assert vertical_count_formula(1, 1, 1, 2) == 2
    assert vertical_count_formula(3, 1, 1, 1) == 0
    with pytest.raises(ValueError):
        vertical_count_formula(1, 1, 1, 0)


def test_vertical_formula_allows_marks_beyond_columns():
    # arises inside the canonical assembly; both sides vanish
    assert vertical_count_formula(1, 2, 1, 1) == 0
    assert vertical_array_count_brute(1, 2, 1, 1) == 0


def _vertical_reference(K, R1, R2, s):
    """The vertical closed form as first written, every binomial range-checked."""
    bracket = binomial(K - 1, R1 - 1) * binomial(K - 1, R2 - 1) - binomial(
        K - 1, s + R1 - 1
    ) * binomial(K - 1, s + R2 - 1)
    num = (
        factorial(s + R1 - 1) * factorial(s + R2 - 1) * binomial(s + R1 + R2 - 2, K - 1) * bracket
    )
    return _as_count(num, factorial(s + R1 + R2 - 2), "reference")


def test_vertical_formula_matches_its_reference():
    for K in range(1, 13):
        for R1 in range(1, 9):
            for R2 in range(1, 9):
                for s in range(1, 9):
                    assert vertical_count_formula(K, R1, R2, s) == \
                        _vertical_reference(K, R1, R2, s), (K, R1, R2, s)


def test_gamma_formula_base_case_all_marked():
    for s in (1, 2, 3):
        g = SubstructureGamma([[s], [s]], {0}, {0}, {})
        assert gamma_count_formula(g) == factorial(s)
    g = SubstructureGamma([[1, 1, 1], [1, 1, 1]], {0, 1, 2}, {0, 1, 2}, {})
    assert gamma_count_formula(g) == 6


def test_gamma_formula_edge_branch():
    g = SubstructureGamma([[1, 1], [1, 1]], {1}, {1}, {})
    assert gamma_count_formula(g) == 1 == gamma_count_brute(g)


def test_gamma_formula_zero_branch():
    g = SubstructureGamma([[1, 0], [1, 0]], {1}, {1}, {})
    assert gamma_count_formula(g) == 0 == gamma_count_brute(g)


def test_gamma_formula_rejects_bad_input():
    reducible = SubstructureGamma([[1, 1], [1, 1]], {1}, {0}, {0: 1})
    with pytest.raises(ValueError):
        gamma_count_formula(reducible)
    not_full = SubstructureGamma([[2, 0], [2, 0]], {1}, {0}, {})  # cell (2,1) empty, unmarked
    with pytest.raises(ValueError):
        gamma_count_formula(not_full)


def test_gamma_formula_unbalanced_full_instance():
    g = SubstructureGamma([[0, 2], [1, 1]], {0}, {1}, {})
    assert gamma_count_formula(g) == 1 == gamma_count_brute(g)


@pytest.mark.parametrize("count, expected", [
    (200, {"zero": 50, "edge": 56, "general": 94}),
    (600, {"zero": 151, "edge": 176, "general": 273}),  # the benchmark's size
])
def test_sweep_gamma_branch_tallies_are_pinned(monkeypatch, count, expected):
    # the sweep tallies each instance under the formula's branch, picked by A:
    # a refactor of A or of the draws must land every instance where it did
    from mapenum import brute, formulas, verify

    monkeypatch.setattr(brute, "gamma_count_brute", lambda g: 0)
    monkeypatch.setattr(formulas, "gamma_count_formula", lambda g: 0)
    assert verify.sweep_gamma(count, 0) == ([], expected)


def test_noarrows_anchors():
    for s in (1, 2, 3, 4):
        g = SubstructureGamma([[s], [s]], {0}, {0}, {})
        assert gamma_count_formula_noarrows(g) == factorial(s)
    for s in (1, 2, 3):
        g = SubstructureGamma([[0, s], [0, s]], {0}, {0}, {})
        assert gamma_count_formula_noarrows(g) == 0 == gamma_count_brute(g)


def test_noarrows_rejects_arrows():
    g = SubstructureGamma([[1, 1], [1, 1]], {1}, {1}, {0: 1})
    with pytest.raises(ValueError):
        gamma_count_formula_noarrows(g)


def test_noarrows_nonfull_instances():
    # empty unmarked column is harmless
    g = SubstructureGamma([[2, 0], [2, 0]], {0}, {0}, {})
    assert gamma_count_formula_noarrows(g) == 2 == gamma_count_brute(g)
    # empty cell in a singly marked column
    g2 = SubstructureGamma([[1, 0], [1, 0]], {0}, {1}, {})
    assert gamma_count_formula_noarrows(g2) == 0 == gamma_count_brute(g2)


def test_omega_formula_anchors():
    for s in (1, 2, 3, 4):
        o = SubstructureOmega(1, 1, 1, (s,))
        assert omega_count_formula(o) == factorial(s)
    assert omega_count_formula(SubstructureOmega(1, 1, 1, (2,))) == 2


def test_omega_formula_random_grid():
    from mapenum.brute import _compositions

    for K in (1, 2, 3, 4):
        for s in range(1, 8):
            for w in _compositions(s, K):
                for R1 in range(1, K + 1):
                    for R2 in range(1, K + 1):
                        o = SubstructureOmega(K, R1, R2, w)
                        assert omega_count_formula(o) == omega_count_brute(o)


def _omega_reference(o):
    """The balanced-occupancy formula as first written: every A < s, zero terms included."""
    s, K, F = o.s, o.K, o.F
    total = 0
    for A in range(s):
        spread = multinomial((K - A - o.r1, K - A - o.r2, o.r1 + o.r2 - K + A - 1))
        choose = binomial(F - 1, A) if F >= 1 else 0
        total += s * perm(s, A) * factorial(s - A - 1) * choose * spread
    return total


def test_omega_formula_matches_its_reference():
    from mapenum.brute import _compositions

    cases = 0
    for K in range(1, 6):
        for s in range(1, 7):
            for w in _compositions(s, K):
                for R1 in range(1, K + 1):
                    for R2 in range(1, K + 1):
                        o = SubstructureOmega(K, R1, R2, w)
                        assert omega_count_formula(o) == _omega_reference(o), o
                        cases += 1
    assert cases == 15730


def test_omega_formula_sums_only_its_non_zero_terms():
    # a single non-zero term, where the sum once ran over every A < s with s-sized factorials
    assert omega_count_formula(SubstructureOmega(1, 1, 1, (10000,))) == factorial(10000)
    # K = 3, R1 = R2 = 2, F = 2: only A = 0 (2 s!) and A = 1 (s s (s-2)!) are non-zero
    s = 4001
    wide = SubstructureOmega(3, 2, 2, (s - 1, 1, 0))
    assert omega_count_formula(wide) == 2 * factorial(s) + s * s * factorial(s - 2)
    narrow = SubstructureOmega(3, 2, 2, (400, 1, 0))
    assert omega_count_formula(narrow) == _omega_reference(narrow)


def test_canonical_from_vertical_anchors():
    assert canonical_from_vertical(1, 1, 0, 1, vertical_count_formula) == 3
    assert canonical_from_vertical(1, 0, 0, 1, vertical_count_formula) == 1
    with pytest.raises(ValueError):
        canonical_from_vertical(1, 0, 0, 0, vertical_count_formula)


@pytest.mark.parametrize(
    "K, q1, q2, s", [(0, 0, 0, 1), (1, -1, 0, 1), (1, 0, -1, 1), (1, 0, 0, 0), (2, 1, 1, -2)]
)
def test_canonical_from_vertical_rejects_bad_parameters(K, q1, q2, s):
    # the canonical oracle's message, before any factorial of a negative value
    with pytest.raises(ValueError, match=r"^need K >= 1, s >= 1, q1, q2 >= 0$"):
        canonical_from_vertical(K, q1, q2, s, vertical_count_formula)
    with pytest.raises(ValueError, match=r"^need K >= 1, s >= 1, q1, q2 >= 0$"):
        canonical_array_count_brute(K, q1, q2, s)


def test_canonical_from_vertical_accepts_brute_source():
    assert canonical_from_vertical(2, 1, 0, 1, vertical_array_count_brute) == \
        canonical_from_vertical(2, 1, 0, 1, vertical_count_formula)


def _canonical_from_vertical_reference(K, q1, q2, s, v_source):
    """The vertical assembly as first written: one weight with a power of two per term."""
    p1, p2 = 2 * q1 + s, 2 * q2 + s
    num = 0
    for t1 in range(q1 + 1):
        for t2 in range(q2 + 1):
            weight = binomial(s + q1, t1) * binomial(s + q2, t2) * 2 ** (q1 + q2 - t1 - t2)
            num += weight * v_source(K, q1 - t1 + 1, q2 - t2 + 1, s)
    den = 2 ** (q1 + q2) * factorial(s + q1) * factorial(s + q2)
    return _as_count(factorial(p1) * factorial(p2) * num, den, "reference")


@pytest.mark.parametrize(
    "v_source, max_d",
    [(vertical_count_formula, 6), (vertical_array_count_brute, 3)],
    ids=["formula-source-d-6", "brute-source-d-3"],
)
def test_canonical_from_vertical_matches_its_reference(v_source, max_d):
    for q1, q2, s in gs_parameter_tuples(max_d):
        d = q1 + q2 + s
        for K in range(1, 2 * d + 1):
            assert canonical_from_vertical(K, q1, q2, s, v_source) == \
                _canonical_from_vertical_reference(K, q1, q2, s, v_source), (K, q1, q2, s)


def test_canonical_from_vertical_calls_its_source_once_per_term():
    calls = []

    def source(*args):
        calls.append(args)
        return vertical_count_formula(*args)

    assert canonical_from_vertical(3, 2, 1, 2, source) == \
        canonical_from_vertical(3, 2, 1, 2, vertical_count_formula)
    assert sorted(calls) == [(3, R1, R2, 2) for R1 in (1, 2, 3) for R2 in (1, 2)]


# ----------------------------------------------------------------------
# Genus reindexing
# ----------------------------------------------------------------------


def test_genus_counts_one_vertex():
    assert genus_counts(hz_counts_brute(2), 1) == {0: 2, 1: 1}


def test_genus_counts_two_vertices():
    assert genus_counts(gs_counts_brute(0, 0, 2), 2) == {0: 2}
    assert genus_counts(gs_counts_brute(0, 0, 1), 2) == {0: 1}


def test_genus_counts_rejects_parity_violation():
    bad = CycleCountVector(2, (0, 1, 0))  # L=2 with one vertex, d=2: odd 2-2g
    with pytest.raises(ValueError):
        genus_counts(bad, 1)
    with pytest.raises(ValueError):
        genus_counts(hz_counts_brute(2), 3)


# ----------------------------------------------------------------------
# Integer parameters
# ----------------------------------------------------------------------

INTEGER_PARAMETER_CASES = [
    (hz_counts_brute, (3,)),
    (gs_counts_brute, (1, 0, 2)),
    (paired_surjection_count_brute, (3, 1, 0, 2)),
    (canonical_array_count_brute, (2, 1, 0, 1)),
    (vertical_array_count_brute, (2, 1, 1, 2)),
    (hz_series, (3,)),
    (gs_series, (1, 0, 2)),
    (gs_series_simplified, (1, 0, 2)),
    (vertical_count_formula, (2, 1, 1, 2)),
    (canonical_from_vertical, (2, 1, 0, 1, vertical_count_formula)),
]


@pytest.mark.parametrize(
    "fn, args", INTEGER_PARAMETER_CASES, ids=[fn.__name__ for fn, _ in INTEGER_PARAMETER_CASES]
)
def test_parameters_must_be_integers(fn, args):
    # a float or bool must raise before any cache sees it: as a key, 3.0 and
    # True equal 3 and 1, so a computed float would be read back by int calls
    expected = fn(*args)
    _surjections.cache_clear()
    paired_surjection_count_brute.cache_clear()
    for _ in range(2):  # on cleared caches, then with the int call's entries cached
        for i, a in enumerate(args):
            if isinstance(a, int):
                for bad in (float(a), bool(a)):
                    with pytest.raises(ValueError, match="must be integers"):
                        fn(*args[:i], bad, *args[i + 1:])
        again = fn(*args)
        assert again == expected
        if isinstance(again, CycleCountVector):
            values = again.counts
        elif isinstance(again, BinomialPoly):
            values = again.coeffs.values()
        else:
            values = [again]
        assert {type(v) for v in values} == {int}
