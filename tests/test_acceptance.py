"""End-to-end acceptance checks, one test per headline claim.

Each test prints a single [PASS]/[FAIL] line (visible with -s or on
failure) and asserts the same condition, so the suite doubles as a
human-readable certification run.  Everything is exact integer
arithmetic; the two timed checks assert a one-second budget.
"""

import random
import time
from math import gcd, prod

from dehnkit import (
    AXIS_SWAP,
    CERTIFIED,
    INCONCLUSIVE,
    LONGITUDE,
    MERIDIAN,
    AbelianGroup,
    IntegerMatrix,
    Slope,
    SchubertForm,
    certify_family,
    cokernel,
    continued_fraction,
    distance,
    family_schubert,
    family_word,
    fill_remaining,
    fixed_slopes,
    is_achiral_lens,
    minors_gcd_oracle,
    mn_framed_link,
    schubert_equivalent,
    smith_normal_form,
    surgered_homology,
    verify_family,
)

WIDE_RANGE = [n for n in range(-25, 26) if n not in (0, 1)]
HOMOLOGY_RANGE = [n for n in range(-10, 11) if n not in (0, 1)]


def report(name, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def poly_p(n):
    return n ** 4 - 2 * n ** 3 + 2 * n ** 2 - 2 * n + 1


def poly_q(n):
    return n ** 3 - 2 * n ** 2 + n - 1


def test_criterion_1_continued_fraction_identity():
    start = time.perf_counter()
    ok = True
    for n in WIDE_RANGE:
        s = continued_fraction(family_word(n))
        ok = ok and (s.p, s.q) == (poly_q(n), poly_p(n))
        ok = ok and gcd(poly_p(n), poly_q(n)) == 1
    elapsed = time.perf_counter() - start
    report(
        f"criterion 1: C(n,n,-1,n,n) = q(n)/p(n) on [-25,25] "
        f"({elapsed:.3f}s)",
        ok and elapsed < 1.0,
    )


def test_criterion_2_exterior_homology():
    start = time.perf_counter()
    ok = True
    for n in HOMOLOGY_RANGE:
        link, fills = mn_framed_link(n)
        expected = AbelianGroup(1, (abs((n - 1) * (n * n + 1)),))
        ok = ok and surgered_homology(link, fills) == expected
    link, fills = mn_framed_link(2)
    ok = ok and surgered_homology(link, fills) == AbelianGroup(1, (5,))
    elapsed = time.perf_counter() - start
    report(
        f"criterion 2: exterior H_1 = Z + Z/|(n-1)(n^2+1)| on [-10,10] "
        f"({elapsed:.3f}s)",
        ok and elapsed < 1.0,
    )


def test_criterion_3_lens_space_orders():
    ok = True
    for n in HOMOLOGY_RANGE:
        link, fills = mn_framed_link(n)
        order = abs((n - 1) ** 2 * (n * n + 1))
        for closing in (MERIDIAN, LONGITUDE):
            h = cokernel(fill_remaining(link, fills, {"x": closing}))
            ok = ok and h.free_rank == 0 and h.is_cyclic and h.order() == order
    report(
        "criterion 3: both closed fillings are cyclic of order "
        "(n-1)^2(n^2+1)",
        ok,
    )


def test_criterion_4_chirality_congruence():
    ok = True
    for n in WIDE_RANGE:
        p, q = poly_p(n), poly_q(n)
        ok = ok and p > 2
        ok = ok and (q * q) % p == 1
        ok = ok and (q * q) % p != p - 1
        ok = ok and not is_achiral_lens(family_schubert(n))
    witness = SchubertForm(5, 2)
    ok = ok and is_achiral_lens(witness)
    ok = ok and schubert_equivalent(witness, witness.mirror())
    report(
        "criterion 4: q(n)^2 = 1 != -1 mod p(n), family chiral, "
        "S(5,2) achiral",
        ok,
    )


def test_criterion_5_null_homology_verdicts():
    ok = True
    for n in HOMOLOGY_RANGE:
        r = certify_family(n)
        ok = ok and (r.torsion == r.lens_order) == (n == 2)
        expected = INCONCLUSIVE if n == 2 else CERTIFIED
        ok = ok and r.null_homology == expected
    report(
        "criterion 5: torsion = lens order exactly at n=2; verdicts match",
        ok,
    )


def test_criterion_6_torsion_distinctness():
    values = [abs((n - 1) * (n * n + 1)) for n in WIDE_RANGE]
    ok = len(values) == len(set(values))
    report("criterion 6: torsion orders pairwise distinct on [-25,25]", ok)


def test_criterion_7_snf_property_suite():
    rng = random.Random(2024)
    ok = True
    count = 0
    for _ in range(1000):
        r, c = rng.randint(0, 6), rng.randint(0, 6)
        m = IntegerMatrix(
            [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)], c
        )
        snf = smith_normal_form(m)
        d = snf.diagonal
        ok = ok and snf.u * m * snf.v == snf.d
        ok = ok and abs(snf.u.det()) == 1 and abs(snf.v.det()) == 1
        nonzero = [x for x in d if x]
        ok = ok and all(x > 0 for x in nonzero)
        ok = ok and d[:len(nonzero)] == tuple(nonzero)
        ok = ok and all(y % x == 0 for x, y in zip(nonzero, nonzero[1:]))
        if r == c:
            ok = ok and abs(m.det()) == prod(d)
        ok = ok and cokernel(m) == minors_gcd_oracle(m)
        count += 1
    report(
        f"criterion 7: SNF contract and minors oracle on {count} "
        "random matrices",
        ok and count >= 1000,
    )


def test_criterion_8_slope_suite():
    rng = random.Random(77)
    ok = distance(MERIDIAN, LONGITUDE) == 1
    count = 0
    while count < 1000:
        p, q = rng.randint(-99, 99), rng.randint(-99, 99)
        if (p, q) == (0, 0) or gcd(p, q) != 1:
            continue
        s = Slope(p, q)
        ok = ok and distance(s, -s) == 2 * abs(s.p * s.q)
        count += 1
    ok = ok and fixed_slopes(AXIS_SWAP, 100) == [Slope(-1, 1), Slope(1, 1)]
    report(
        "criterion 8: d(s,-s) = 2|pq|, d(1/0,0/1) = 1, swap fixes "
        "exactly {1/1, -1/1}",
        ok,
    )


def test_criterion_9_family_sweeps_far_out():
    # 100 consecutive n near -10^50, n = -10^50 - 125 among them, and
    # 100 near 10^6: each cross-checked against the closed forms
    ok = True
    for lo in (-10 ** 50 - 130, 10 ** 6):
        reports, failures = verify_family(lo, lo + 99)
        ok = ok and failures == [] and len(reports) == 100
    report("criterion 9: verify_family without failures on 100 n near "
           "-10^50 and 100 near 10^6", ok)
