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
group_only = cokernel(big)
print(f"  cokernel, without transforms: {group_only}")
assert group_only == smith_normal_form(big).cokernel

# cokernel finds no transforms: the entries +-1 are dropped with their
# rows and columns, and a dense nonsingular square rest larger than 2x2
# reads a few columns of its adjugate: once their entries and |det| have
# gcd 1, the cokernel is cyclic of order |det|, found with no elimination
print()
print("-- group only, cyclic from the adjugate --")
rng = random.Random(12)
m12 = IntegerMatrix([[rng.randint(-9, 9) for _ in range(12)]
                     for _ in range(12)])
print(f"  a dense 12x12 with |det| = {abs(m12.det())}")
group_only = cokernel(m12)
print(f"  cokernel {group_only}")
assert group_only == smith_normal_form(m12).cokernel
print("  the same group as the form with transforms")


def unimodular(rng, n):
    """L * U, unit lower and upper triangular, entries in [-2, 2]: det 1."""
    lower = [[rng.randint(-2, 2) if j < i else int(i == j) for j in range(n)]
             for i in range(n)]
    upper = [[rng.randint(-2, 2) if j > i else int(i == j) for j in range(n)]
             for i in range(n)]
    return IntegerMatrix(lower) * IntegerMatrix(upper)


# a non-cyclic cokernel leaves a common factor in every adjugate
# column, and then the rest is diagonalized modulo its |det|, so no
# entry outgrows the determinant
print()
print("-- group only, modulo |det| --")
rng = random.Random(3)
diag = IntegerMatrix([[x * (i == j) for j in range(12)]
                      for i, x in enumerate([1] * 10 + [2, 6])])
mixed = unimodular(rng, 12) * diag * unimodular(rng, 12)
print(f"  A * diag(1, ..., 1, 2, 6) * B, A and B unimodular 12x12,"
      f" |det| = {abs(mixed.det())}")
group_only = cokernel(mixed)
print(f"  cokernel {group_only}")
assert group_only == cokernel(diag)
assert group_only == smith_normal_form(mixed).cokernel
print("  the same group as the form with transforms")

print()
print("-- documents --")
doc = m.to_doc()
print(f"  matrices serialize with string entries: {doc['entries'][0]}")
assert IntegerMatrix.from_doc(doc) == m
