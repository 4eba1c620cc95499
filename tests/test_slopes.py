import random
from itertools import product
from math import gcd

import pytest

from dehnkit import (
    AXIS_SWAP,
    IntegerMatrix,
    LONGITUDE,
    MERIDIAN,
    Slope,
    SlopeError,
    SlopeInvolution,
    canonical_slopes,
    distance,
    fixed_slopes,
    slopes,
)

IDENTITY = SlopeInvolution(1, 0, 0, 1)


def random_coprime_pair(rng):
    while True:
        p = rng.randint(-80, 80)
        q = rng.randint(-80, 80)
        if (p, q) != (0, 0) and gcd(p, q) == 1:
            return p, q


def random_unimodular(rng, steps=8):
    """Product of shears and swaps, so det is +-1 by construction."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(steps):
        k = rng.randint(-3, 3)
        move = rng.randrange(3)
        if move == 0:
            a, b = a + k * c, b + k * d
        elif move == 1:
            c, d = c + k * a, d + k * b
        else:
            a, b, c, d = c, d, a, b
    return SlopeInvolution(a, b, c, d)


# ---------------------------------------------------------------- slopes

def test_normalization():
    assert Slope(2, 4) == Slope(1, 2)
    assert Slope(-3, 0) == Slope(1, 0)
    assert Slope(5, -10) == Slope(-1, 2)
    assert Slope(-2, -4) == Slope(1, 2)
    assert Slope(0, -7) == Slope(0, 1)


def test_sign_pairs_identified():
    rng = random.Random(11)
    for _ in range(200):
        p, q = random_coprime_pair(rng)
        assert Slope(p, q) == Slope(-p, -q)


def test_zero_zero_rejected():
    with pytest.raises(SlopeError):
        Slope(0, 0)


def test_slopes_are_not_ordered():
    # a (p, q) tuple order would put 1/2 below 1/3
    with pytest.raises(TypeError):
        Slope(1, 2) < Slope(1, 3)


def test_parse_round_trip():
    for text in ["1/0", "0/1", "-3/7", "11/40"]:
        assert str(Slope.parse(text)) == text
    assert Slope.parse("7") == Slope(7, 1)
    assert Slope.parse("-2/4") == Slope(-1, 2)


@pytest.mark.parametrize("bad", ["", "x", "1/2/3", "3.5", "1/ /2", "1_0/1",
                                 "1/ 2", "+3", "\u0661\u0662", " 3", "1/2 ",
                                 "\t-2/3\n"])
def test_parse_rejects_junk(bad):
    with pytest.raises(SlopeError):
        Slope.parse(bad)


def test_negation():
    assert -Slope(2, 3) == Slope(-2, 3)
    assert -MERIDIAN == MERIDIAN
    assert -LONGITUDE == LONGITUDE


def test_canonical_slopes_bound_one():
    assert list(canonical_slopes(1)) == [
        Slope(1, 0), Slope(-1, 1), Slope(0, 1), Slope(1, 1),
    ]


def test_canonical_slopes_rejects_a_negative_bound():
    # a generator: the check runs on the first next()
    with pytest.raises(SlopeError):
        list(canonical_slopes(-1))


def test_canonical_slopes_are_distinct():
    slopes = list(canonical_slopes(12))
    assert len(slopes) == len(set(slopes))


# -------------------------------------------------------------- distance

def test_distance_of_axes():
    assert distance(MERIDIAN, LONGITUDE) == 1


def test_distance_examples():
    assert distance(Slope(2, 3), Slope(-2, 3)) == 12
    assert distance(Slope(1, 1), Slope(-1, 1)) == 2


def test_distance_symmetric_and_definite():
    rng = random.Random(23)
    for _ in range(300):
        s = Slope(*random_coprime_pair(rng))
        t = Slope(*random_coprime_pair(rng))
        assert distance(s, t) == distance(t, s)
        assert (distance(s, t) == 0) == (s == t)


def test_distance_to_negation_is_twice_pq():
    """d(p/q, -p/q) = 2|pq|; in particular it is always even."""
    rng = random.Random(37)
    for _ in range(1200):
        s = Slope(*random_coprime_pair(rng))
        d = distance(s, -s)
        assert d == 2 * abs(s.p * s.q)
        assert d % 2 == 0


# ------------------------------------------------------------ involutions

def test_non_unimodular_rejected():
    with pytest.raises(SlopeError):
        SlopeInvolution(1, 0, 0, 2)
    with pytest.raises(SlopeError):
        SlopeInvolution(1, 2, 2, 1)


def test_apply_examples():
    assert AXIS_SWAP.apply(MERIDIAN) == LONGITUDE
    assert AXIS_SWAP.apply(LONGITUDE) == MERIDIAN
    assert AXIS_SWAP.apply(Slope(2, 3)) == Slope(3, 2)
    assert IDENTITY.apply(Slope(-5, 7)) == Slope(-5, 7)


def test_distance_preserved_under_action():
    rng = random.Random(41)
    for _ in range(200):
        inv = random_unimodular(rng)
        s = Slope(*random_coprime_pair(rng))
        t = Slope(*random_coprime_pair(rng))
        assert distance(inv.apply(s), inv.apply(t)) == distance(s, t)


def test_is_involution():
    assert AXIS_SWAP.is_involution()
    assert IDENTITY.is_involution()
    # quarter turn squares to -Id, which acts trivially on slopes
    assert SlopeInvolution(0, -1, 1, 0).is_involution()
    assert SlopeInvolution(1, 0, 0, -1).is_involution()
    assert not SlopeInvolution(1, 1, 0, 1).is_involution()


def test_is_involution_matches_the_square():
    plus_minus_id = (((1, 0), (0, 1)), ((-1, 0), (0, -1)))
    checked = 0
    for a, b, c, d in product(range(-6, 7), repeat=4):
        if abs(a * d - b * c) != 1:
            continue
        m = IntegerMatrix([[a, b], [c, d]])
        assert SlopeInvolution(a, b, c, d).is_involution() == \
            ((m * m).entries() in plus_minus_id), (a, b, c, d)
        checked += 1
    assert checked == 744


def test_involutions_apply_twice_to_identity():
    involutions = [
        AXIS_SWAP,
        IDENTITY,
        SlopeInvolution(0, -1, 1, 0),
        SlopeInvolution(1, 0, 0, -1),
    ]
    for inv in involutions:
        for s in canonical_slopes(8):
            assert inv.apply(inv.apply(s)) == s


def test_shear_is_not_an_involution_on_slopes():
    shear = SlopeInvolution(1, 1, 0, 1)
    moved = [s for s in canonical_slopes(4) if shear.apply(shear.apply(s)) != s]
    assert moved


# ------------------------------------------------------------ fixed slopes

def test_swap_fixes_exactly_the_diagonal_slopes():
    assert fixed_slopes(AXIS_SWAP, 100) == [Slope(-1, 1), Slope(1, 1)]
    assert fixed_slopes(AXIS_SWAP, 1) == [Slope(-1, 1), Slope(1, 1)]


def test_identity_fixes_everything():
    assert fixed_slopes(IDENTITY, 1) == list(canonical_slopes(1))
    assert fixed_slopes(IDENTITY, 9) == list(canonical_slopes(9))


def test_fixed_slopes_respects_bound():
    # the shear fixes only the meridian
    assert fixed_slopes(SlopeInvolution(1, 1, 0, 1), 20) == [MERIDIAN]


def brute_force_fixed(inv, bound):
    return [s for s in canonical_slopes(bound) if inv.apply(s) == s]


def test_fixed_slopes_match_brute_force():
    entries = range(-6, 7)
    matrices = [
        SlopeInvolution(a, b, c, d)
        for a, b, c, d in product(entries, repeat=4)
        if abs(a * d - b * c) == 1
    ]
    assert len(matrices) == 744
    for inv in matrices:
        for bound in (0, 1, 2, 5, 9):
            assert fixed_slopes(inv, bound) == brute_force_fixed(inv, bound)


def test_fixed_slopes_do_not_enumerate(monkeypatch):
    def refuse(bound):
        raise RuntimeError("enumerated the slopes")

    monkeypatch.setattr(slopes, "canonical_slopes", refuse)
    assert fixed_slopes(AXIS_SWAP, 10 ** 6) == [Slope(-1, 1), Slope(1, 1)]
    assert fixed_slopes(SlopeInvolution(1, -2, 0, 1), 10 ** 6) == [MERIDIAN]
    assert fixed_slopes(SlopeInvolution(-5, 12, -2, 5), 10 ** 6) == [
        Slope(2, 1), Slope(3, 1),
    ]
    assert fixed_slopes(SlopeInvolution(0, -1, 1, 0), 10 ** 6) == []
    with pytest.raises(RuntimeError):  # only +-Id lists every slope
        fixed_slopes(SlopeInvolution(-1, 0, 0, -1), 1)


def conjugate(inv, g):
    """g * inv * g^-1 for g = [[a, b], [c, d]] with det 1."""
    a, b, c, d = g
    m = (IntegerMatrix([[a, b], [c, d]])
         * IntegerMatrix([[inv.a, inv.b], [inv.c, inv.d]])
         * IntegerMatrix([[d, -b], [-c, a]]))
    return SlopeInvolution(*(x for row in m.entries() for x in row))


def test_fixed_slopes_of_large_conjugates():
    # g has 40-digit entries and det 1; it moves 1/0 to k/(k+1) and
    # 0/1 to (k-1)/k, so the conjugates fix those instead
    k = 10 ** 39 + 7
    g = (k, k - 1, k + 1, k)
    for inv, expected in [
        (SlopeInvolution(1, 1, 0, 1), [Slope(k, k + 1)]),  # parabolic
        (SlopeInvolution(1, 0, 0, -1),  # reflection
         [Slope(k - 1, k), Slope(k, k + 1)]),
    ]:
        big = conjugate(inv, g)
        found = fixed_slopes(big, 10 ** 60)
        assert found == expected
        assert all(big.apply(s) == s for s in found)
