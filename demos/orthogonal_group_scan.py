"""Exhaustive scan of SO_5(F_3): lines, the twisted class, the trace identity.

Run:  python demos/orthogonal_group_scan.py
"""

from collections import Counter

import numpy as np

from weylchars.so5 import OrthogonalGeometry

geo = OrthogonalGeometry(q=3)

print("=== the line geometry ===")
iso, plus, minus = geo.line_census()
print(f"  lines in F_3^5: {iso + plus + minus}")
print(f"  isotropic: {iso}   square-norm: {plus}   non-square-norm: {minus}")
print(f"  4-space perpendicular to a square-norm line is split:"
      f" {geo.perp_is_split([1, 0, 0, 0, 0])}")

print("\n=== the group ===")
elements = geo.enumerate_group()
print(f"  elements enumerated: {len(elements)} (= 3^4 * (3^2-1) * (3^4-1))")

print("\n=== the twisted class ===")
# The library's one membership rule reads the ranks off kernel line counts:
# a d-dimensional kernel meets (q^d - 1)/(q - 1) lines, so a member fixes
# exactly 1 line and negates q + 1, and given those, rank((g+1)^2) = 2 holds
# exactly when one negated line is isotropic.  The scan's arrays are aligned
# with the enumeration, eps and delta 0 off the class.
print("Membership: rank(g-1)=4, rank(g+1)=3, rank((g+1)^2)=2, i.e. the")
print("semisimple part negates a hyperplane and the unipotent part has")
print("Jordan blocks 3,1,1.  Labels: eps = type of the fixed line,")
print("delta = shared type of the non-degenerate (-1)-lines.\n")
_, members, eps, delta = geo._batched_scan()
by_label = Counter(zip(eps[members].tolist(), delta[members].tolist()))
m = int(members.argmax())
member = elements[m]
for label in sorted(by_label):
    print(f"  label (eps={label[0]:+d}, delta={label[1]:+d}): {by_label[label]} elements")
print(f"  total: {sum(by_label.values())} members")

print("\n=== the trace identity on one member ===")
print(np.array2string(member, prefix="  "))
label = geo.in_class_c(member)
print(f"  label: eps={label.eps:+d} delta={label.delta:+d}")
print(f"  class-function value 2*delta*q : {geo.class_support_value(member):+d}")
print(f"  line-count trace               : {geo.line_count_trace(member):+d}")
# the coset model gives V = ind(1) - ind(det) of each 4-space stabilizer at
# every element; the virtual character is V_split - V_nonsplit
v_split = geo._coset_model_batch(geo.stabilizer(split=True))
v_nonsplit = geo._coset_model_batch(geo.stabilizer(split=False))
coset_trace = v_split[m] - v_nonsplit[m]
print(f"  coset-model virtual character  : {coset_trace:+d}")

print("\n=== the full verification ===")
record = geo.verify(seed=0)
print(f"  status: {record.status}")
for c in record.counterexamples[:5]:
    print(f"  counterexample: {c}")
