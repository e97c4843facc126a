import pytest

from mapenum.arrays import SubstructureGamma
from mapenum.exact import Pairing


@pytest.fixture
def two_row_example():
    """Worked 4-column example: 10 row-1 and 6 row-2 elements, K = 4.

    The pairing has three within-row pairs in row 1, one in row 2, and four
    mixed pairs; the projection sends label 1 of row 1 to column 2 and label
    1 of row 2 to column 3 (0-based columns).
    """
    rows = (10, 6)
    # the pairs (0, 13), (1, 2), (3, 12), (4, 6), (5, 10), (7, 14), (8, 9), (11, 15)
    mu = Pairing((13, 2, 1, 12, 6, 10, 4, 14, 9, 8, 5, 15, 3, 0, 7, 11))
    pi = [2, 0, 1, 0, 1, 3, 3, 1, 2, 2, 3, 3, 1, 0, 2, 1]
    return rows, mu, pi


def _relabel_columns(g, perm):
    """``g`` with column j renamed perm[j], built through the checked
    constructor. ``perm`` must be a permutation of 0..K-1."""
    assert sorted(perm) == list(range(g.K))
    w = [[0] * g.K, [0] * g.K]
    for j, new in enumerate(perm):
        w[0][new], w[1][new] = g.w[0][j], g.w[1][j]
    return SubstructureGamma(
        w, [perm[j] for j in g.r1], [perm[j] for j in g.r2],
        {perm[t]: perm[h] for t, h in g.arrows},
    )


@pytest.fixture(scope="session")
def relabel_columns():
    """Relabel a substructure's columns by a permutation of 0..K-1."""
    return _relabel_columns


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
