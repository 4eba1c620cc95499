"""Certifying the knot exterior family end to end.

For each n the pipeline computes, from scratch and in exact integers:
the Schubert form of the two-bridge closure, the torsion of the
exterior's H_1, the common order of the two closed fillings, the
chirality of the associated lens space, and a null-homology verdict
obtained by comparing torsion against filling order.  The command
line equivalent is `dehnkit family`.

Run with: python demos/family_certification.py
"""

from dehnkit import INCONCLUSIVE, certify_family, verify_family

print("-- single members --")
for n in (2, 3):
    r = certify_family(n)
    print(f"  n = {n}: {r.schubert}, torsion {r.torsion}, "
          f"lens order {r.lens_order}")
    print(f"         chirality {r.chirality}, verdict {r.null_homology}")

# n = 2 is the one inconclusive case: torsion and lens order are both
# 5, so the homology obstruction to null-homology vanishes there
assert certify_family(2).null_homology == INCONCLUSIVE

print()
print("-- sweeping n in [-10, 10] --")
reports, failures = verify_family(-10, 10)
print(f"  {'n':>3} {'schubert':<14} {'t':>5} {'p':>6}  verdict")
for r in reports:
    print(f"  {r.n:>3} {str(r.schubert):<14} {r.torsion:>5} "
          f"{r.lens_order:>6}  {r.null_homology}")
print(f"  failures: {failures if failures else 'none'}")
assert not failures

print()
print("-- distinctness --")
orders = [r.torsion for r in reports]
print(f"  {len(reports)} reports, {len(set(orders))} distinct torsion "
      f"orders: no two members have the same homology")
assert len(orders) == len(set(orders))
