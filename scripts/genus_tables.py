#!/usr/bin/env python3
"""Print genus-indexed map counts for small parameters.

One-vertex maps are tabulated by edge count q, two-vertex maps by the loop
counts (q1, q2) and link count s. Every row is computed from the closed-form
series; pass --certify to re-derive each row by exhaustive enumeration and
fail loudly on any difference.
"""

from __future__ import annotations

import argparse
import sys

sys.path.insert(0, str(__import__("pathlib").Path(__file__).resolve().parent.parent / "src"))

from mapenum.brute import gs_counts_brute, hz_counts_brute
from mapenum.exact import CycleCountVector
from mapenum.formulas import genus_counts, gs_series, hz_series
from mapenum.verify import gs_parameter_tuples


def format_row(table):
    return "  ".join(f"g{g}:{table[g]}" for g in sorted(table))


def certified(label, table, brute_table) -> bool:
    """Compare a formula row with its enumeration; report a mismatch on stderr."""
    if table == brute_table:
        return True
    print(f"mismatch at {label}: formula {format_row(table)}, "
          f"enumeration {format_row(brute_table)}", file=sys.stderr)
    return False


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-q", type=int, default=6, help="one-vertex table size")
    parser.add_argument("--max-d", type=int, default=5, help="two-vertex table size")
    parser.add_argument("--certify", action="store_true",
                        help="re-derive every row by brute-force enumeration")
    args = parser.parse_args()

    print("one-vertex maps by genus (rows: q = number of edges)")
    for q in range(1, args.max_q + 1):
        counts = CycleCountVector.from_tally(q, hz_series(q).to_monomial().integer_coeffs())
        table = genus_counts(counts, 1, q)
        if args.certify and not certified(f"q={q}", table, genus_counts(hz_counts_brute(q), 1, q)):
            return 1
        print(f"  q={q}: {format_row(table)}")

    print()
    print("two-vertex maps by genus (rows: loop counts q1, q2 and link count s)")
    for q1, q2, s in gs_parameter_tuples(args.max_d):
        if q1 < q2:
            continue  # symmetric in the two vertices
        d = q1 + q2 + s
        counts = CycleCountVector.from_tally(d, gs_series(q1, q2, s).to_monomial().integer_coeffs())
        table = genus_counts(counts, 2, d)
        label = f"q1={q1} q2={q2} s={s}"
        if args.certify and not certified(
            label, table, genus_counts(gs_counts_brute(q1, q2, s), 2, d)
        ):
            return 1
        print(f"  {label}: {format_row(table)}")

    if args.certify:
        print()
        print("all rows certified against enumeration")
    return 0


if __name__ == "__main__":
    sys.exit(main())
