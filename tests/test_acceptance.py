"""Acceptance suite: every criterion at its stated bound, all exact.

Each test prints a PASS/FAIL line (run with ``pytest -s`` to see them all).
Tolerances are zero everywhere: counts either match the independent
enumeration oracle exactly or the criterion fails.
"""

import time
from contextlib import contextmanager
from math import factorial

from mapenum import verify
from mapenum.arrays import SubstructureGamma
from mapenum.brute import hz_counts_brute
from mapenum.formulas import gamma_count_formula, hz_series


@contextmanager
def criterion(number, description):
    outcome = {"ok": False}
    start = time.monotonic()
    try:
        yield outcome
        outcome["ok"] = True
    finally:
        status = "PASS" if outcome["ok"] else "FAIL"
        elapsed = time.monotonic() - start
        print(f"{status} criterion {number:2d} ({elapsed:6.1f}s): {description}")


def test_criterion_01_harer_zagier():
    with criterion(1, "one-vertex series equals enumeration for q = 1..7"):
        start = time.monotonic()
        problems = verify.sweep_hz(max_q=7)
        elapsed = time.monotonic() - start
        assert problems == []
        assert hz_series(1).to_monomial().integer_coeffs() == {2: 1}
        assert hz_series(2).to_monomial().integer_coeffs() == {3: 2, 1: 1}
        assert elapsed < 30, f"took {elapsed:.1f}s, budget 30s"


def test_criterion_02_goulden_slofstra():
    with criterion(2, "two-vertex series equals enumeration for d <= 6"):
        start = time.monotonic()
        problems = verify.sweep_gs(max_d=6)
        elapsed = time.monotonic() - start
        assert problems == []
        assert elapsed < 120, f"took {elapsed:.1f}s, budget 120s"


def test_criterion_03_reduced_series():
    with criterion(3, "reduced two-sum series equals the triple sum, q <= 5, s <= 6"):
        start = time.monotonic()
        problems = verify.sweep_gs_simplified(max_q=5, max_s=6)
        elapsed = time.monotonic() - start
        assert problems == []
        assert elapsed < 10, f"took {elapsed:.1f}s, budget 10s"


def test_criterion_04_surjections_equal_canonical():
    with criterion(4, "paired surjections equal canonical arrays, d <= 4, K <= 2d"):
        start = time.monotonic()
        problems = verify.sweep_surjections(max_d=4)
        elapsed = time.monotonic() - start
        assert problems == []
        assert elapsed < 120, f"took {elapsed:.1f}s, budget 120s"


def test_criterion_05_series_from_surjections():
    with criterion(5, "series assembled from f_K equals the closed form, d <= 4"):
        assert verify.sweep_series_from_surjections(max_d=4) == []


def test_criterion_06_canonical_from_vertical():
    with criterion(6, "vertical-array assembly equals canonical enumeration, d <= 4"):
        assert verify.sweep_canonical_from_vertical(max_d=4) == []


def test_criterion_07_vertical_closed_form():
    with criterion(7, "vertical-array closed form equals enumeration, K <= 4, s <= 5"):
        problems = verify.sweep_vertical(max_K=4, max_s=5)
        assert problems == []


def test_criterion_08_substructure_formula():
    with criterion(8, "substructure count formula on 200 random irreducible full instances"):
        problems, branches = verify.sweep_gamma(count=200, seed=0, max_K=6, max_s=7)
        assert problems == []
        assert all(branches[b] > 0 for b in ("zero", "edge", "general")), branches
        # base fixture: every cell marked forces all s! matchings
        for s in (1, 2, 3):
            g = SubstructureGamma([[1] * s, [1] * s], set(range(s)), set(range(s)), {})
            assert gamma_count_formula(g) == factorial(s)


def test_criterion_09_substructure_formula_noarrows():
    with criterion(9, "arrow-free count formula on 200 random instances incl. non-full"):
        assert verify.sweep_gamma_noarrows(count=200, seed=0) == []


def test_criterion_10_balanced_occupancy_formula():
    with criterion(10, "balanced-occupancy formula equals enumeration, K <= 4, s <= 5"):
        assert verify.sweep_omega(max_K=4, max_s=5) == []


def test_criterion_11_lemma_suite():
    with criterion(11, "100 seeded instances per rewrite preserve counts and conditions"):
        assert verify.sweep_lemmas(count=100, seed=0) == []


def test_criterion_12_structural_invariants():
    with criterion(12, "parity, closed-form totals, and exact divisibility hold everywhere"):
        # parity and total-count checks are embedded in the series sweeps
        assert verify.sweep_hz(max_q=5) == []
        assert verify.sweep_gs(max_d=4) == []
        # divisibility in the array-count formulas: rerunning the formula
        # sweeps exercises every internal exactness assertion
        assert verify.sweep_vertical(max_K=4, max_s=4) == []
        assert verify.sweep_omega(max_K=3, max_s=4) == []
        # a formula evaluation returning a value proves its divisions landed
        for q in range(1, 6):
            counts = hz_counts_brute(q)
            assert counts.total() > 0
