"""The multiplicity-one computation, step by step.

Splitting {0,...,2m} into the two rows of a bi-symbol and evaluating at the
class with one negative cycle of each even length gives a trace that is a
fixed sign on "admissible" splits (no two row entries summing to 2m) and 0
on all others.  Exactly 2^m splits are admissible, their signed
contributions all align, and dividing by 2^m leaves multiplicity 1.

Run:  python demos/cuspidal_multiplicities.py
"""

from weylchars import BiSymbol, even_negative_cycles, multiplicity_bc, multiplicity_d
from weylchars.verifications import (
    bc_splits,
    count_even,
    multiplicity_sum_bc,
    split_admissible_bc,
)
from weylchars.wnchars import mask_row, mn_trace_wn

m = 2
cls = even_negative_cycles(m)
print(f"=== type B/C at m={m} (class: negative cycles {cls.neg}) ===\n")
print("bottom row      top row          admissible  trace  sign  contribution")
total = 0
for t, b in bc_splits(m):  # row bitsets
    top, bottom = mask_row(t), mask_row(b)
    admissible = split_admissible_bc(top, bottom, m)
    trace = mn_trace_wn(BiSymbol(top, bottom), cls)
    sign = (-1) ** count_even(bottom)
    contribution = sign * trace
    total += contribution
    print(
        f"{bottom!s:15} {top!s:16} {'yes' if admissible else 'no':11}"
        f" {trace:+d}     {sign:+d}    {contribution:+d}"
    )
print(f"\nsigned sum = {total} = {multiplicity_sum_bc(m)};"
      f" dividing by 2^{m} gives {multiplicity_bc(m)}")

print("\n=== the full runs ===")
for mm in range(1, 6):
    print(f"  type B/C m={mm}: multiplicity {multiplicity_bc(mm)}")
for mm in (2, 4):
    print(f"  type D   m={mm}: multiplicity {multiplicity_d(mm)}")
