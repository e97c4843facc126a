"""Exact enumeration of one- and two-vertex maps by genus.

Closed-form counting series and array-count formulas, each certified
against independent brute-force enumeration oracles at desk scale.
"""

from types import ModuleType as _ModuleType

from .arrays import (
    ColumnTally,
    PairedArray,
    SubstructureGamma,
    SubstructureOmega,
    check_balance,
    check_balance_mixed,
    check_balance_vertex,
    check_forest,
    check_full,
    check_nonempty,
    classify_columns,
    critical_vertices,
    forest_function,
    is_irreducible,
)
from .brute import (
    canonical_array_count_brute,
    enumerate_pairings,
    gamma_count_brute,
    gamma_count_brute_with_pair,
    gs_counts_brute,
    hz_counts_brute,
    omega_count_brute,
    paired_surjection_count_brute,
    vertical_array_count_brute,
)
from .exact import (
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
from .formulas import (
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
from .transforms import (
    CycleDetected,
    arrow_simplify_retarget,
    arrow_simplify_to_mark,
    column_merging,
    column_pointing,
    irreducible_closure,
    labelled_to_canonical,
)

# the re-exported names only: importing a submodule also binds it here
__all__ = [
    name for name, value in sorted(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
