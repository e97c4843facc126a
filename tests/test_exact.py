from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mapenum.exact import (
    BinomialPoly,
    CycleCountVector,
    MonomialPoly,
    Pairing,
    binomial,
    cycle_count,
    double_factorial,
    gamma_of_rows,
    multinomial,
)
from mapenum.brute import paired_surjection_count_brute
from mapenum.formulas import gs_series, gs_series_simplified, hz_series, series_from_surjections
from mapenum.verify import gs_parameter_tuples


def test_double_factorial_values():
    assert double_factorial(1) == 1
    assert double_factorial(5) == 15  # 1*3*5
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(7) == 105


def test_double_factorial_rejects_even_and_small():
    with pytest.raises(ValueError):
        double_factorial(4)
    with pytest.raises(ValueError):
        double_factorial(-3)


def test_binomial_values():
    assert binomial(4, 2) == 6
    assert binomial(3, 5) == 0
    assert binomial(3, -1) == 0
    assert binomial(0, 0) == 1
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_multinomial_values():
    assert multinomial([0, 0, 0]) == 1
    assert multinomial([1, 1, 1]) == 6
    assert multinomial([2, -1, 1]) == 0
    assert multinomial([]) == 1
    assert multinomial([2, 2]) == 6


@given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=4))
def test_multinomial_telescopes(parts):
    if sum(parts) > 12:
        parts = parts[:2]
    expected = 1
    running = 0
    for p in parts:
        running += p
        expected *= binomial(running, p)
    assert multinomial(parts) == expected


def test_cycle_count():
    assert cycle_count([0, 1, 2, 3]) == 4
    assert cycle_count([1, 2, 3, 0]) == 1
    assert cycle_count([1, 0, 3, 2]) == 2
    with pytest.raises(ValueError):
        cycle_count([0, 0, 1])


def test_pairing_validation():
    p = Pairing((1, 0, 3, 2))
    assert p.ground_size == 4
    assert list(p.pairs()) == [(0, 1), (2, 3)]
    assert p[2] == 3
    with pytest.raises(ValueError):
        Pairing((0, 1))  # fixed points
    with pytest.raises(ValueError):
        Pairing((1, 0, 2, 3))
    with pytest.raises(ValueError):
        Pairing((1, 0, 3))  # odd size
    for bad in [(True, False), (1.0, 0.0), ("1", "0"), (1, 0, 3, 2.0)]:
        with pytest.raises(ValueError, match="integers"):
            Pairing(bad)


@pytest.mark.parametrize(
    "pairs", [[(True, False)], [(0.0, 1)], [(0, 1.5)], [(0, True)], [(0, 1), (2.0, 3)]]
)
def test_from_pairs_entries_must_be_integers(pairs):
    with pytest.raises(ValueError, match="integers"):
        Pairing.from_pairs(pairs)


def _inverse(perm):
    inv = [0] * len(perm)
    for i, image in enumerate(perm):
        inv[image] = i
    return tuple(inv)


def test_gamma_of_rows():
    gamma = gamma_of_rows((3, 1))
    assert gamma == (1, 2, 0, 3)
    assert _inverse(gamma) == (2, 0, 1, 3)
    assert gamma_of_rows((2, 1, 3)) == (1, 0, 2, 4, 5, 3)
    assert gamma_of_rows((4,)) == (1, 2, 3, 0)
    assert gamma_of_rows(()) == ()
    for bad in [(0, 2), (2, -1), (2.0, 2), (True, 1)]:
        with pytest.raises(ValueError):
            gamma_of_rows(bad)


def test_gamma_inverse_really_inverts():
    gamma = gamma_of_rows((5, 3))
    inv = _inverse(gamma)
    assert [gamma[inv[i]] for i in range(len(gamma))] == list(range(len(gamma)))
    assert cycle_count(gamma) == 2


def test_cycle_count_vector():
    v = CycleCountVector(2, (1, 0, 2))
    assert v.a(1) == 1 and v.a(3) == 2 and v.a(5) == 0
    assert v.total() == 3
    assert v.to_poly().coeffs == {1: Fraction(1), 3: Fraction(2)}
    assert CycleCountVector.from_tally(2, {3: 2, 1: 1}) == v
    for stray in [{0: 5, 1: 1, 9: 7}, {4: 1}, {0: 1}]:
        with pytest.raises(ValueError, match="outside 1..3"):
            CycleCountVector.from_tally(2, stray)
    with pytest.raises(ValueError):
        CycleCountVector(2, (1, 0))
    with pytest.raises(ValueError):
        CycleCountVector(1, (-1, 0))


@pytest.mark.parametrize("d, counts", [(-1, ()), (-2, (0,)), (-3, (1, 0))])
def test_cycle_count_vector_rejects_a_negative_d(d, counts):
    with pytest.raises(ValueError, match=f"^d must be non-negative, got {d}$"):
        CycleCountVector(d, counts)
    with pytest.raises(ValueError, match=f"^d must be non-negative, got {d}$"):
        BinomialPoly({}).to_counts(d)


@pytest.mark.parametrize(
    "d, counts",
    [(2.0, (1, 0, 2)), (True, (1, 0)), (2, (1.0, 0, 2.5)), (2, (1, False, 2)), (1, (0, 1.5))],
    ids=["float-d", "bool-d", "float-counts", "bool-count", "float-last-count"],
)
def test_cycle_count_vector_needs_integers(d, counts):
    with pytest.raises(ValueError, match="d and the counts must be integers"):
        CycleCountVector(d, counts)


@pytest.mark.parametrize(
    "coeffs, what",
    [({True: 3}, "indices"), ({1.0: 3}, "indices"), ({"1": 3}, "indices"),
     ({1: 0.5}, "coefficients"), ({2: 3.0}, "coefficients"), ({1: True}, "coefficients")],
    ids=["bool-index", "float-index", "str-index", "float-coefficient", "integral-float", "bool-coefficient"],
)
def test_binomial_poly_needs_integers(coeffs, what):
    with pytest.raises(ValueError, match=f"binomial-basis {what} must be integers"):
        BinomialPoly(coeffs)


def test_binomial_poly_names_its_first_bad_entry():
    # the entries are tested in order, each index before its coefficient
    with pytest.raises(ValueError, match=r"^binomial-basis coefficients must be integers, got 0.5$"):
        BinomialPoly({1: 0.5, 2.0: 3})
    with pytest.raises(ValueError, match=r"^binomial-basis indices must be integers, got 2.0$"):
        BinomialPoly({1: 1, 2.0: 0.5})
    with pytest.raises(ValueError, match=r"^binomial-basis indices must be integers, got True$"):
        BinomialPoly({True: 0.5})
    with pytest.raises(ValueError, match=r"^binomial-basis index must be an int >= 1, got 0$"):
        BinomialPoly({2: 1, 0: 0.5})


class Count(int):
    pass


def test_int_subclass_entries_are_accepted():
    assert CycleCountVector(Count(2), (Count(1), 0, Count(2))) == CycleCountVector(2, (1, 0, 2))
    poly = BinomialPoly({Count(1): Count(3), 2: 0, Count(3): Count(0)})
    assert poly == BinomialPoly({1: 3})
    assert poly.to_counts(0) == CycleCountVector(0, (3,))


def test_one_whole_value_integer_check():
    from mapenum import arrays, exact

    assert arrays._checked_ints is exact._checked_ints
    values = (1, Count(2), 3)
    assert exact._checked_ints(values, "entries") is values
    for bad in (True, 2.0):
        with pytest.raises(ValueError, match=f"^entries must be integers, got {bad!r}$"):
            exact._checked_ints((1, bad, 3), "entries")


@pytest.mark.parametrize(
    "coeffs, what",
    [({True: 1}, "monomial degrees must be integers"), ({1.0: 1}, "monomial degrees must be integers"),
     ({"1": 1}, "monomial degrees must be integers"),
     ({1: 0.1}, "monomial coefficients must be ints or Fractions"),
     ({2: 3.0}, "monomial coefficients must be ints or Fractions"),
     ({1: True}, "monomial coefficients must be ints or Fractions"),
     ({1: "1/2"}, "monomial coefficients must be ints or Fractions"),
     ({True: 0.1}, "monomial degrees must be integers")],
    ids=["bool-degree", "float-degree", "str-degree", "float-coefficient", "integral-float",
         "bool-coefficient", "str-coefficient", "bool-degree-float-coefficient"],
)
def test_monomial_poly_needs_exact_values(coeffs, what):
    with pytest.raises(ValueError, match=what):
        MonomialPoly(coeffs)


def test_monomial_poly_keeps_ints_and_fractions():
    assert MonomialPoly({0: 3, 2: Fraction(-1, 2)}).coeffs == {0: Fraction(3), 2: Fraction(-1, 2)}
    assert all(type(c) is Fraction for c in MonomialPoly({0: 3, 1: Fraction(2)}).coeffs.values())


def test_binomial_to_monomial_examples():
    assert BinomialPoly({1: 1}).to_monomial().integer_coeffs() == {1: 1}
    assert BinomialPoly({2: 2}).to_monomial().integer_coeffs() == {2: 1, 1: -1}
    assert BinomialPoly({1: 1, 2: 2}).to_monomial().integer_coeffs() == {2: 1}
    assert BinomialPoly({2: 1}).to_monomial().coeffs == {2: Fraction(1, 2), 1: Fraction(-1, 2)}
    assert BinomialPoly({}).to_monomial().coeffs == {}


def _fraction_route(series, d):
    """The face tallies by way of the monomial basis, the reference for to_counts."""
    return CycleCountVector.from_tally(d, series.to_monomial().integer_coeffs())


def _surjection_series(q1, q2, s):
    return series_from_surjections({K: paired_surjection_count_brute(K, q1, q2, s)
                                    for K in range(1, 2 * (q1 + q2 + s) + 1)})


@pytest.mark.parametrize(
    "cases",
    [
        lambda: ((hz_series(q), q) for q in range(1, 121)),
        lambda: ((series(*t), sum(t)) for t in gs_parameter_tuples(24)
                 for series in (gs_series, gs_series_simplified)),
        lambda: ((_surjection_series(*t), sum(t)) for t in gs_parameter_tuples(4)),
    ],
    ids=["hz-q-120", "gs-d-24", "surjections-d-4"],
)
def test_to_counts_equals_fraction_route(cases):
    for series, d in cases():
        assert series.to_counts(d) == _fraction_route(series, d), (series, d)


@pytest.mark.parametrize(
    "coeffs, d, message",
    [({2: 1}, 1, "coefficient of degree 1 is not an integer: -1/2"),
     ({1: 1, 2: 2}, 0, r"face counts \[2\] outside 1..1"),
     ({2: 2}, 1, "counts must be non-negative")],
    ids=["non-integer", "degree-outside", "negative"],
)
def test_to_counts_raises_as_the_fraction_route(coeffs, d, message):
    series = BinomialPoly(coeffs)
    with pytest.raises(ValueError, match=f"^{message}$") as new:
        series.to_counts(d)
    with pytest.raises(ValueError) as old:
        _fraction_route(series, d)
    assert str(new.value) == str(old.value)


def test_to_counts_of_the_empty_series_is_zero():
    assert BinomialPoly({}).to_counts(2) == CycleCountVector(2, (0, 0, 0))


def test_tally_lists_the_non_zero_counts_by_face_count():
    assert CycleCountVector(3, (0, 5, 0, 2)).tally() == {2: 5, 4: 2}
    assert list(CycleCountVector(3, (1, 0, 7, 0)).tally()) == [1, 3]
    assert CycleCountVector(1, (0, 0)).tally() == {}


def test_poly_eval_examples():
    assert BinomialPoly({1: 1}).eval(5) == 5
    assert BinomialPoly({2: 2}).eval(1) == 0
    assert BinomialPoly({2: 2}).eval(3) == 6
    assert MonomialPoly({2: 1, 1: -1}).eval(3) == 6


def test_poly_normalization_drops_zeros():
    assert BinomialPoly({1: 0, 2: 3}).coeffs == {2: 3}
    assert MonomialPoly({0: Fraction(0), 2: 2}).coeffs == {2: Fraction(2)}
    with pytest.raises(ValueError):
        BinomialPoly({0: 1})
    with pytest.raises(ValueError):
        MonomialPoly({-1: 1})


def test_integer_coeffs_rejects_fractions():
    with pytest.raises(ValueError):
        MonomialPoly({1: Fraction(1, 2)}).integer_coeffs()


@settings(max_examples=60)
@given(
    st.dictionaries(
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=-50, max_value=50),
        max_size=5,
    )
)
def test_binomial_to_monomial_roundtrip_by_evaluation(coeffs):
    p = BinomialPoly(coeffs)
    m = p.to_monomial()
    for x in range(0, 41):
        assert m.eval(x) == p.eval(x)


@pytest.mark.parametrize(
    "series",
    [hz_series(120), gs_series(0, 0, 24), gs_series(5, 7, 12)],
    ids=["hz-120", "gs-0-0-24", "gs-5-7-12"],
)
def test_binomial_to_monomial_at_cli_scale(series):
    # top + 2 points, one more than a polynomial of degree top needs, pin it
    top = max(series.coeffs)
    m = series.to_monomial()
    assert max(m.coeffs) == top
    for x in range(top + 2):
        assert m.eval(x) == series.eval(x)
