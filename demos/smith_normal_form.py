"""Exact Smith normal form and cokernels, with a second opinion.

Run with: python demos/smith_normal_form.py
"""

import random

from dehnkit import (
    IntegerMatrix,
    cokernel,
    minors_gcd_oracle,
    smith_normal_form,
)

m = IntegerMatrix([
    [2, 4, 4],
    [-6, 6, 12],
    [10, 4, 16],
])

print("-- input --")
print(m)

snf = smith_normal_form(m)
print()
print("-- diagonal form d = u * m * v --")
print(snf.d)
print(f"  diagonal {snf.diagonal}, each entry dividing the next")
print(f"  det u = {snf.u.det()}, det v = {snf.v.det()}")
assert snf.u * m * snf.v == snf.d

print()
print("-- cokernel --")
group = cokernel(m)
print(f"  Z^3 / rowspan = {group}")
print(f"  gcd-of-minors oracle agrees: {minors_gcd_oracle(m) == group}")

# a divisibility chain is forced even when the input is already
# diagonal: diag(2, 3) is not in normal form, diag(1, 6) is
d23 = IntegerMatrix([[2, 0], [0, 3]])
print()
print(f"-- diag(2,3) renormalizes to {smith_normal_form(d23).diagonal} --")
print(f"  cokernel {cokernel(d23)} (one cyclic factor, not two)")

print()
print("-- arbitrary precision is free --")
big = IntegerMatrix([[10 ** 40, 1], [1, 10 ** 40]])
print(f"  det of a 2x2 with 10^40 entries: {big.det()}")
print(f"  diagonal: {smith_normal_form(big).diagonal}")
group_only = smith_normal_form(big, transforms=False)
print(f"  without transforms: {group_only.diagonal}")
assert group_only.d == smith_normal_form(big).d

# without transforms, a dense nonsingular square matrix of 8x8 or more
# is diagonalized modulo |det|, so no entry outgrows the determinant
print()
print("-- group only, modulo |det| --")
rng = random.Random(12)
m12 = IntegerMatrix([[rng.randint(-9, 9) for _ in range(12)]
                     for _ in range(12)])
print(f"  a dense 12x12 with |det| = {abs(m12.det())}")
group_only = smith_normal_form(m12, transforms=False)
print(f"  cokernel {group_only.cokernel}")
assert group_only.d == smith_normal_form(m12).d
print("  the same d as the form with transforms")

print()
print("-- documents --")
doc = m.to_doc()
print(f"  matrices serialize with string entries: {doc['entries'][0]}")
assert IntegerMatrix.from_doc(doc) == m
