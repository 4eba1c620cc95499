"""The rules every immutable value type dehnkit exports shares.

Each type compares by its fields, hashes equal values alike, prints as
Name(field=value, ...) (IntegerMatrix as IntegerMatrix(rows, cols=c)),
refuses assignment and deletion, and comes back equal from copy,
deepcopy and pickle.  The types and the functions that build them take
Python integers only: a float, a string or a boolean raises TypeError,
and the text parsers take strings only.
"""

import copy
import pickle
import re

import pytest

from dehnkit import (
    AXIS_SWAP,
    CERTIFIED,
    INCONCLUSIVE,
    AbelianGroup,
    ConwayWord,
    FamilyReport,
    FramedLink,
    IntegerMatrix,
    SchubertForm,
    Slope,
    SlopeInvolution,
    SmithForm,
    canonical_slopes,
    certify_family,
    continued_fraction,
    family_word,
    fixed_slopes,
    matrices,
    mn_framed_link,
    smith_normal_form,
    verify_family,
)

M = [[2, 4], [-6, 6]]
U = IntegerMatrix([[1, 0], [3, 1]])
D = IntegerMatrix([[2, 0], [0, 18]])
V = IntegerMatrix([[1, -2], [0, 1]])
I2 = IntegerMatrix([[1, 0], [0, 1]])
SMITH_REPR = f"SmithForm(u={U!r}, d={D!r}, v={V!r})"
SMITH_NEIGHBOURS = (SmithForm(I2, D, V), SmithForm(U, I2, V),
                    SmithForm(U, D, I2))
REPORT = (3, SchubertForm(40, 11), 2, 20, 40, "chiral", CERTIFIED, True)

# (make a fresh value, its repr, values that differ from it in one field)
VALUES = {
    "IntegerMatrix": (lambda: IntegerMatrix([[1, -2], [3, 10 ** 40]]),
                      f"IntegerMatrix([[1, -2], [3, {10 ** 40}]], cols=2)",
                      (IntegerMatrix([[1, -2], [3, 10 ** 40 + 1]]),)),
    "IntegerMatrix-empty": (lambda: IntegerMatrix([], 4),
                            "IntegerMatrix([], cols=4)",
                            (IntegerMatrix([], 3),
                             IntegerMatrix([[0, 0, 0, 0]], 4))),
    "SmithForm": (lambda: smith_normal_form(IntegerMatrix(M)),
                  SMITH_REPR, SMITH_NEIGHBOURS),
    # a group-only form builds u and v for ==, hash, repr and pickle
    "SmithForm-group-only": (
        lambda: smith_normal_form(IntegerMatrix(M), transforms=False),
        SMITH_REPR, SMITH_NEIGHBOURS),
    "AbelianGroup": (lambda: AbelianGroup(1, [2, 4]),
                     "AbelianGroup(free_rank=1, invariant_factors=(2, 4))",
                     (AbelianGroup(0, (2, 4)), AbelianGroup(1, (2,)))),
    "Slope": (lambda: Slope(-2, -4), "Slope(p=1, q=2)",
              (Slope(3, 2), Slope(1, 3))),
    "SlopeInvolution": (lambda: SlopeInvolution(0, 1, 1, 0),
                        "SlopeInvolution(a=0, b=1, c=1, d=0)",
                        (SlopeInvolution(1, 1, 1, 0),
                         SlopeInvolution(0, -1, 1, 0),
                         SlopeInvolution(0, 1, -1, 0),
                         SlopeInvolution(0, 1, 1, 1))),
    "ConwayWord": (lambda: ConwayWord([2, -3]),
                   "ConwayWord(entries=(2, -3))", (ConwayWord([2, -4]),)),
    "SchubertForm": (lambda: SchubertForm(5, 2), "SchubertForm(p=5, q=2)",
                     (SchubertForm(7, 2), SchubertForm(5, 1))),
    "FramedLink": (lambda: FramedLink([[0, 1], [1, 0]]),
                   "FramedLink(linking=((0, 1), (1, 0)), "
                   "labels=('K1', 'K2'))",
                   (FramedLink([[0, 2], [2, 0]]),
                    FramedLink([[0, 1], [1, 0]], ("a", "b")))),
    "FamilyReport": (lambda: certify_family(3),
                     "FamilyReport(n=3, schubert=SchubertForm(p=40, q=11), "
                     "components=2, torsion=20, lens_order=40, "
                     "chirality='chiral', "
                     "null_homology='CERTIFIED-NON-NULL-HOMOLOGOUS', "
                     "distance_one_swap=True)",
                     tuple(FamilyReport(*REPORT[:i], other, *REPORT[i + 1:])
                           for i, other in enumerate(
                               (4, SchubertForm(40, 29), 1, 21, 41,
                                "achiral", INCONCLUSIVE, False)))),
}


def public(value):
    return [getattr(value, s) for s in type(value).__slots__
            if not s.startswith("_")]


def refuses_writes(value):
    for name in type(value).__slots__:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("name", VALUES)
def test_value_type_contract(name):
    make, text, neighbours = VALUES[name]
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert not a != b and (a == object()) is False and a != object()
    for other in neighbours:
        assert type(other) is type(a) and a != other and not a == other
    assert repr(a) == text
    refuses_writes(a)
    # a refused write or delete leaves the value whole
    assert a == b and repr(a) == text and public(a) == public(b)
    # copying a fresh group-only form reads, and so builds, u and v
    for twin in (copy.copy(make()), copy.deepcopy(make()),
                 pickle.loads(pickle.dumps(make()))):
        assert type(twin) is type(a) and twin == b
        assert hash(twin) == hash(b) and repr(twin) == text
        assert public(twin) == public(b)
        refuses_writes(twin)


def test_every_value_type_has_a_row():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    covered = {type(make()) for make, _, _ in VALUES.values()}
    assert set(subclasses(matrices._Value)) <= covered


HOPF = FramedLink([[0, 1], [1, 0]], ("u", "v"))

# (a call, its arguments): each raises TypeError
TAKES_INTEGERS_ONLY = {
    "IntegerMatrix-bool": (IntegerMatrix, [[True]]),
    "AbelianGroup-float-factor": (AbelianGroup, 0, (2.7,)),
    "AbelianGroup-float-rank": (AbelianGroup, 1.5, ()),
    "AbelianGroup-str-factor": (AbelianGroup, 0, ("4",)),
    "AbelianGroup-bool-rank": (AbelianGroup, True, ()),
    "AbelianGroup-bool-factor": (AbelianGroup, 0, (2, True)),
    "Slope-bool-p": (Slope, True, 2),
    "Slope-bool-q": (Slope, 1, True),
    # a generator: the check runs on the first next()
    "canonical_slopes-bool": (lambda x: list(canonical_slopes(x)), True),
    "canonical_slopes-float": (lambda x: list(canonical_slopes(x)), 1.0),
    "canonical_slopes-str": (lambda x: list(canonical_slopes(x)), "1"),
    "SlopeInvolution-float": (SlopeInvolution, 1.0, 0, 0, -1.0),
    "SlopeInvolution-bool": (SlopeInvolution, True, 0, 0, True),
    "fixed_slopes-float": (fixed_slopes, AXIS_SWAP, 2.5),
    "fixed_slopes-bool": (fixed_slopes, AXIS_SWAP, True),
    "FramedLink-bool": (FramedLink, ((0, True), (True, 0))),
    "FramedLink.index-float": (HOPF.index, 1.7),
    "FramedLink.index-bool": (HOPF.index, True),
    "ConwayWord-float": (ConwayWord, (2.5, 3)),
    "ConwayWord-bool": (ConwayWord, (True, 2)),
    "continued_fraction-float": (continued_fraction, [2.5, 3]),
    "SchubertForm-float-p": (SchubertForm, 1.0, 0),
    "SchubertForm-float-q": (SchubertForm, 5, 2.0),
    "SchubertForm-bool": (SchubertForm, True, False),
    "family_word-bool": (family_word, True),
    "mn_framed_link-bool": (mn_framed_link, True),
    "certify_family-bool": (certify_family, True),
    "verify_family-bool-lo": (verify_family, True, 3),
    "verify_family-bool-hi": (verify_family, 2, True),
    "Slope.parse-int": (Slope.parse, 3),
    "Slope.parse-bytes": (Slope.parse, b"3/2"),
    "FramedLink.resolve_fillings-int": (HOPF.resolve_fillings, {"u": 3}),
    "ConwayWord.parse-int": (ConwayWord.parse, 3),
}

# the message of a text parser's row; a boolean row's is "True is not
# an integer", and both name the refused value
NAMES_THE_VALUE = {
    "Slope.parse-int": "3 is not a string",
    "Slope.parse-bytes": "b'3/2' is not a string",
    "FramedLink.resolve_fillings-int": "3 is not a string",
    "ConwayWord.parse-int": "3 is not a string",
}


@pytest.mark.parametrize("name", TAKES_INTEGERS_ONLY)
def test_value_types_take_integers_only(name):
    call, *args = TAKES_INTEGERS_ONLY[name]
    if "-bool" in name:
        message = "True is not an integer"
    else:
        message = NAMES_THE_VALUE.get(name)
    match = message and f"^{re.escape(message)}$"
    with pytest.raises(TypeError, match=match):
        call(*args)
