"""Tour of the beta-sequence calculus for symmetric-group characters.

Run:  python demos/symbol_calculus.py
"""

from weylchars import (
    beta_to_partition,
    character_table_sn,
    mn_trace_sn,
    normalize_beta,
    oracle_trace_sn,
    partition_to_beta,
    partitions,
    reduce_beta,
    shift_beta,
)

print("=== normalization rules ===")
print("A symbol is a finite integer sequence; sorting costs a sign,")
print("repeats or negative entries make it the zero character.\n")
for entries in [(3, 1), (1, 1), (2, -1, 0), (0, 2, 5)]:
    norm = normalize_beta(entries)
    if norm.is_zero:
        print(f"  {entries} -> zero symbol")
    else:
        print(f"  {entries} -> sign {norm.sign:+d}, canonical {norm.entries}")

print("\n=== shift equivalence ===")
beta = (1, 3)
print(f"  {beta} shifted once: {shift_beta(beta, 1)}; twice: {shift_beta(beta, 2)}")
print(f"  reduce({shift_beta(beta, 2)}) = {reduce_beta(shift_beta(beta, 2))}")
print("  shifting never changes any trace; the memo is keyed by shift-minimal row bitsets")
print("  plus the class.")

print("\n=== partitions and symbols ===")
for p in partitions(4):
    beta = partition_to_beta(p)
    print(f"  partition {p!s:12} symbol {beta!s:12} back: {beta_to_partition(beta)}")

print("\n=== traces two ways ===")
print("The cycle-removal recursion and the permutation-character expansion")
print("are independent implementations; they agree everywhere.\n")
beta = partition_to_beta((1, 2))  # two-row partition of 3
for cls in partitions(3):
    a = mn_trace_sn(beta, cls)
    b = oracle_trace_sn(beta, cls)
    marker = "ok" if a == b else "MISMATCH"
    print(f"  class {cls!s:10} recursion {a:+d}  expansion {b:+d}  [{marker}]")

print("\n=== a character table ===")
table = character_table_sn(4)
width = 12
print("  " + " ".join(str(c).rjust(width) for c in table.col_labels))
for label, row in zip(table.row_labels, table.entries):
    print(
        "  " + " ".join(str(v).rjust(width) for v in row) + f"   <- symbol {label}"
    )
print(f"\n  weighted row orthogonality: {table.is_orthogonal()}")
