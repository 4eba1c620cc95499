"""One contract for every immutable value type dehnkit exports.

Each type compares by its fields, hashes equal values alike, prints as
Name(field=value, ...) (IntegerMatrix as IntegerMatrix(rows, cols=c)),
refuses assignment and deletion, and comes back equal from copy,
deepcopy and pickle.
"""

import copy
import pickle

import pytest

from dehnkit import (
    AbelianGroup,
    ConwayWord,
    FramedLink,
    IntegerMatrix,
    SchubertForm,
    Slope,
    SlopeInvolution,
    certify_family,
    smith_normal_form,
)

M = [[2, 4], [-6, 6]]
SMITH_REPR = ("SmithForm(u=IntegerMatrix([[1, 0], [3, 1]], cols=2), "
              "d=IntegerMatrix([[2, 0], [0, 18]], cols=2), "
              "v=IntegerMatrix([[1, -2], [0, 1]], cols=2))")

# (make a fresh value, its repr, one of its fields)
VALUES = {
    "IntegerMatrix": (lambda: IntegerMatrix(M),
                      "IntegerMatrix([[2, 4], [-6, 6]], cols=2)", "rows"),
    "SmithForm": (lambda: smith_normal_form(IntegerMatrix(M)),
                  SMITH_REPR, "d"),
    # a group-only form builds u and v for ==, hash, repr and pickle
    "SmithForm-group-only": (
        lambda: smith_normal_form(IntegerMatrix(M), transforms=False),
        SMITH_REPR, "u"),
    "AbelianGroup": (lambda: AbelianGroup(1, [2, 4]),
                     "AbelianGroup(free_rank=1, invariant_factors=(2, 4))",
                     "free_rank"),
    "Slope": (lambda: Slope(-2, -4), "Slope(p=1, q=2)", "q"),
    "SlopeInvolution": (lambda: SlopeInvolution(0, 1, 1, 0),
                        "SlopeInvolution(a=0, b=1, c=1, d=0)", "a"),
    "ConwayWord": (lambda: ConwayWord([2, -3]),
                   "ConwayWord(entries=(2, -3))", "entries"),
    "SchubertForm": (lambda: SchubertForm(5, 2),
                     "SchubertForm(p=5, q=2)", "p"),
    "FramedLink": (lambda: FramedLink([[0, 1], [1, 0]]),
                   "FramedLink(linking=((0, 1), (1, 0)), "
                   "labels=('K1', 'K2'))", "labels"),
    "FamilyReport": (lambda: certify_family(3),
                     "FamilyReport(n=3, schubert=SchubertForm(p=40, q=11), "
                     "components=2, torsion=20, lens_order=40, "
                     "chirality='chiral', "
                     "null_homology='CERTIFIED-NON-NULL-HOMOLOGOUS', "
                     "distance_one_swap=True)", "n"),
}


@pytest.mark.parametrize("name", VALUES)
def test_value_type_contract(name):
    make, text, field = VALUES[name]
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert not a != b and a != object()
    assert repr(a) == text
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    # a refused write or delete leaves the value whole
    assert a == b and repr(a) == text
    for twin in (copy.copy(a), copy.deepcopy(a),
                 pickle.loads(pickle.dumps(a))):
        assert type(twin) is type(a) and twin == b
        assert hash(twin) == hash(b) and repr(twin) == text

