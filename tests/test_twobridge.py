import random
from fractions import Fraction
from math import gcd

import pytest

from dehnkit import (
    MERIDIAN,
    ConwayWord,
    SchubertForm,
    Slope,
    TangleError,
    continued_fraction,
    family_polynomials,
    family_schubert,
    family_word,
    is_achiral_lens,
    schubert_equivalent,
)

FAMILY_RANGE = [n for n in range(-25, 26) if n not in (0, 1)]


def expanded_polynomials(n):
    """The fraction of C(n,n,-1,n,n), written out rather than factored."""
    p = n ** 4 - 2 * n ** 3 + 2 * n ** 2 - 2 * n + 1
    q = n ** 3 - 2 * n ** 2 + n - 1
    return p, q


def fraction_oracle(entries):
    """Evaluate the nested fraction with fractions.Fraction only.

    Returns the closure slope, or raises ZeroDivisionError when a
    proper tail vanishes.  Kept independent of the library's integer
    recurrence on purpose.
    """
    value = Fraction(entries[-1])
    for a in reversed(entries[:-1]):
        value = a + Fraction(1) / value
    if value == 0:
        return MERIDIAN
    value = 1 / value
    return Slope(value.numerator, value.denominator)


# ----------------------------------------------------------- Conway words

def test_word_parsing():
    assert ConwayWord.parse("2,2,-1,2,2").entries == (2, 2, -1, 2, 2)
    assert ConwayWord.parse("2 2 -1 2 2").entries == (2, 2, -1, 2, 2)
    assert ConwayWord.parse("5").entries == (5,)
    assert ConwayWord.parse(" 2, 2 ").entries == (2, 2)


def test_word_rejects_empty_and_junk():
    with pytest.raises(TangleError):
        ConwayWord(())
    with pytest.raises(TangleError):
        ConwayWord.parse("")
    for junk in ("2 x 2", "1_0 2", "+2", "\u0661\u0662", "3,,3", ",3", "3,"):
        with pytest.raises(TangleError):
            ConwayWord.parse(junk)


def test_word_is_not_a_sequence():
    word = ConwayWord((2, 3))
    with pytest.raises(TypeError):
        len(word)
    with pytest.raises(TypeError):
        iter(word)


def test_word_str():
    assert str(ConwayWord((2, 2, -1, 2, 2))) == "C(2, 2, -1, 2, 2)"


def test_word_mirror():
    w = ConwayWord((2, 2, -1, 2, 2))
    assert w.mirror().entries == (-2, -2, 1, -2, -2)
    assert w.mirror().mirror() == w
    assert ConwayWord((0,)).mirror() == ConwayWord((0,))


# ----------------------------------------------------- continued fractions

def test_evaluation_examples():
    assert continued_fraction(ConwayWord((2, 2, -1, 2, 2))) == Slope(1, 5)
    assert continued_fraction(ConwayWord((5,))) == Slope(1, 5)
    assert continued_fraction(ConwayWord((3, 3, -1, 3, 3))) == Slope(11, 40)


def test_evaluation_accepts_plain_sequences():
    assert continued_fraction((2, 2, -1, 2, 2)) == Slope(1, 5)
    assert continued_fraction([7]) == Slope(1, 7)


def test_whole_word_may_evaluate_to_zero():
    # the bracket value 0 reciprocates to the representable slope 1/0
    assert continued_fraction(ConwayWord((0,))) == MERIDIAN
    assert continued_fraction(ConwayWord((1, -1))) == MERIDIAN


def test_zero_tail_is_reported_with_its_suffix():
    with pytest.raises(TangleError, match=r"suffix \(1, -1\)"):
        continued_fraction(ConwayWord((3, 1, -1)))
    with pytest.raises(TangleError, match="suffix"):
        continued_fraction(ConwayWord((2, 0)))


def test_evaluation_matches_fraction_oracle():
    rng = random.Random(5)
    checked = 0
    for _ in range(1500):
        entries = tuple(
            rng.randint(-4, 4) for _ in range(rng.randint(1, 6))
        )
        try:
            expected = fraction_oracle(entries)
        except ZeroDivisionError:
            with pytest.raises(TangleError):
                continued_fraction(entries)
            continue
        assert continued_fraction(entries) == expected
        checked += 1
    assert checked > 1000


def test_mirror_negates_the_fraction():
    assert continued_fraction((-2, -2, 1, -2, -2)) == Slope(-1, 5)
    rng = random.Random(7)
    for _ in range(400):
        entries = tuple(
            rng.randint(-4, 4) for _ in range(rng.randint(1, 6))
        )
        word = ConwayWord(entries)
        try:
            value = continued_fraction(word)
        except TangleError:
            with pytest.raises(TangleError):
                continued_fraction(word.mirror())
            continue
        assert continued_fraction(word.mirror()) == -value


# ---------------------------------------------------------- Schubert forms

def test_schubert_validation():
    SchubertForm(1, 0)
    SchubertForm(2, 1)
    with pytest.raises(TangleError):
        SchubertForm(0, 0)
    with pytest.raises(TangleError):
        SchubertForm(5, 5)
    with pytest.raises(TangleError):
        SchubertForm(5, -1)
    with pytest.raises(TangleError):
        SchubertForm(4, 2)


def test_schubert_from_slope():
    assert SchubertForm.from_slope(Slope(1, 5)) == SchubertForm(5, 1)
    assert SchubertForm.from_slope(Slope(11, 40)) == SchubertForm(40, 11)
    assert SchubertForm.from_slope(Slope(-5, 8)) == SchubertForm(8, 3)
    assert SchubertForm.from_slope(Slope(0, 1)) == SchubertForm(1, 0)
    with pytest.raises(TangleError):
        SchubertForm.from_slope(MERIDIAN)


def test_component_parity():
    assert SchubertForm(5, 1).components == 1
    assert SchubertForm(5, 1).is_knot
    assert SchubertForm(40, 11).components == 2
    assert SchubertForm(2, 1).components == 2
    assert str(SchubertForm(5, 1)) == "S(5,1)"


def test_mirror_examples():
    assert SchubertForm(5, 1).mirror() == SchubertForm(5, 4)
    assert SchubertForm(5, 2).mirror() == SchubertForm(5, 3)
    assert SchubertForm(2, 1).mirror() == SchubertForm(2, 1)
    assert SchubertForm(1, 0).mirror() == SchubertForm(1, 0)


def test_mirror_is_involutive():
    for p in range(1, 40):
        for q in range(p):
            if p > 1 and gcd(p, q) != 1:
                continue
            a = SchubertForm(p, q)
            assert a.mirror().mirror() == a


def test_equivalence_examples():
    assert schubert_equivalent(SchubertForm(5, 2), SchubertForm(5, 3))
    assert schubert_equivalent(SchubertForm(5, 1), SchubertForm(5, 1))
    assert not schubert_equivalent(SchubertForm(5, 1), SchubertForm(7, 1))
    assert not schubert_equivalent(SchubertForm(5, 1), SchubertForm(5, 2))
    # S(40, 29) is the mirror of S(40, 11), not isotopic to it
    assert not schubert_equivalent(SchubertForm(40, 11), SchubertForm(40, 29))


def test_equivalence_is_an_equivalence_relation():
    """Exhaustive over p <= 60: reflexive, symmetric, transitive."""
    for p in range(1, 61):
        forms = [
            SchubertForm(p, q)
            for q in range(p)
            if p == 1 or gcd(p, q) == 1
        ]
        for a in forms:
            assert schubert_equivalent(a, a)
        for a in forms:
            for b in forms:
                assert schubert_equivalent(a, b) == schubert_equivalent(b, a)
        # transitivity only needs checking through each form's class
        for a in forms:
            related = [b for b in forms if schubert_equivalent(a, b)]
            for b in related:
                for c in forms:
                    if schubert_equivalent(b, c):
                        assert schubert_equivalent(a, c)


def test_equivalence_is_q_or_its_inverse():
    """S(p, q') ~ S(p, q) iff q' is q or q^-1 mod p, for all p <= 60."""
    forms = [SchubertForm(p, q) for p in range(1, 61) for q in range(p)
             if gcd(p, q) == 1]
    assert SchubertForm(1, 0) in forms and SchubertForm(2, 1) in forms
    for a in forms:
        inverse = pow(a.q, -1, a.p)
        for b in forms:
            expected = a.p == b.p and b.q in (a.q, inverse)
            assert schubert_equivalent(a, b) == expected, (a, b)


def test_achirality_examples():
    assert is_achiral_lens(SchubertForm(5, 2))
    assert not is_achiral_lens(SchubertForm(5, 1))
    assert is_achiral_lens(SchubertForm(1, 0))
    assert is_achiral_lens(SchubertForm(2, 1))


def test_achirality_agrees_with_brute_force():
    """is_achiral_lens == equivalence to the mirror, for all p <= 200."""
    for p in range(1, 201):
        for q in range(p):
            if p > 1 and gcd(p, q) != 1:
                continue
            a = SchubertForm(p, q)
            assert is_achiral_lens(a) == schubert_equivalent(a, a.mirror())


# ------------------------------------------------------------- the family

def test_family_word_examples():
    assert family_word(2).entries == (2, 2, -1, 2, 2)
    assert family_word(-1).entries == (-1, -1, -1, -1, -1)
    for bad in (0, 1):
        with pytest.raises(TangleError):
            family_word(bad)


def test_family_polynomials_match_expansion():
    for n in FAMILY_RANGE:
        assert family_polynomials(n) == expanded_polynomials(n)


def test_family_fraction_identity():
    """C(n,n,-1,n,n) evaluates to q(n)/p(n), exactly, over the range."""
    for n in FAMILY_RANGE:
        p, q = expanded_polynomials(n)
        assert gcd(p, q) == 1
        s = continued_fraction(family_word(n))
        assert (s.p, s.q) == (q, p)
        assert 0 < abs(s.p) < s.q


def test_family_schubert_examples():
    assert family_schubert(2) == SchubertForm(5, 1)
    assert family_schubert(3) == SchubertForm(40, 11)
    assert family_schubert(-1) == SchubertForm(8, 3)


def test_family_parity_follows_n():
    for n in FAMILY_RANGE:
        assert family_schubert(n).components == (1 if n % 2 == 0 else 2)


def test_family_members_are_chiral():
    """q(n)^2 == 1 and != -1 mod p(n), so the lens space is chiral."""
    for n in FAMILY_RANGE:
        p, q = family_polynomials(n)
        assert p > 2
        assert (q * q) % p == 1
        assert (q * q) % p != p - 1
        assert not is_achiral_lens(family_schubert(n))
