import pytest

from mapenum.exact import Pairing


@pytest.fixture
def two_row_example():
    """Worked 4-column example: 10 row-1 and 6 row-2 elements, K = 4.

    The pairing has three within-row pairs in row 1, one in row 2, and four
    mixed pairs; the projection sends label 1 of row 1 to column 2 and label
    1 of row 2 to column 3 (0-based columns).
    """
    rows = (10, 6)
    mu = Pairing.from_pairs(
        [(0, 13), (1, 2), (3, 12), (4, 6), (5, 10), (7, 14), (8, 9), (11, 15)]
    )
    pi = [2, 0, 1, 0, 1, 3, 3, 1, 2, 2, 3, 3, 1, 0, 2, 1]
    return rows, mu, pi


@pytest.fixture(scope="session")
def zero_vertex_lemma_draws():
    """The distinct substructures with no vertex that sweep_lemmas(300) draws
    or rewrites at seeds 0-2, recorded in place of the brute count."""
    from mapenum import brute, verify

    seen = {}

    def record(g, *pair):
        if g.s == 0:
            seen[g.to_json()] = g
        return 0

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(brute, "gamma_count_brute", record)
        mp.setattr(brute, "gamma_count_brute_with_pair", record)
        for seed in range(3):
            verify.sweep_lemmas(300, seed)
    return list(seen.values())
