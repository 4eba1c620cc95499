"""Checks that must survive python -O.

-O strips assert statements and the code that tests __debug__, and
changes nothing else.  test_library_has_no_assert_statements proves by
AST that the library has neither, so its code is the same with and
without -O; the fault tests below run in process and show that its
checks raise.  CI reruns the whole suite once under -O, which is the
one behavioural -O run.
"""

import ast
import json
import random
import re
from pathlib import Path
from types import ModuleType

import pytest

import dehnkit
from dehnkit import (IntegerMatrix, cli, cokernel, matrices,
                     smith_normal_form, twobridge)

PACKAGE = Path(dehnkit.__file__).resolve().parent


def test_family_schubert_rejects_a_wrong_closed_form(monkeypatch):
    monkeypatch.setattr(twobridge, "family_polynomials", lambda n: (1, 0))
    with pytest.raises(RuntimeError, match=r"^n = 3: .*11/40.*0/1"):
        twobridge.family_schubert(3)


def dense_input(tmp_path, doubled=0):
    """A dense 12 x 12 of |det| > 1, and its document's path.

    Its last doubled rows are doubled: two of them leave it rank 10 or
    less mod 2, so two invariant factors are even and the cokernel is
    not cyclic.
    """
    rng = random.Random(12)
    while True:
        rows = [[rng.randint(-9, 9) for _ in range(12)] for _ in range(12)]
        rows[12 - doubled:] = [[2 * x for x in row]
                               for row in rows[12 - doubled:]]
        m = IntegerMatrix(rows)
        if abs(m.det()) > 1:
            break
    path = tmp_path / "m.json"
    path.write_text(json.dumps(m.to_doc()))
    return m, path


def test_modular_route_rejects_a_wrong_chain(tmp_path, monkeypatch):
    # a cyclic cokernel would be certified before the modular finish
    m, path = dense_input(tmp_path, doubled=2)
    # reduced modulo twice its |det|, the rest still finds its own
    # invariant factors, whose product is not the delta it was given
    real = matrices._diagonal_mod
    monkeypatch.setattr(matrices, "_diagonal_mod",
                        lambda a, delta: real(a, 2 * delta))
    error = re.escape("modular invariant factors do not multiply to |det m|")
    with pytest.raises(RuntimeError, match=error):
        cokernel(m)
    with pytest.raises(RuntimeError, match=error):
        cli.main(["snf", "--input", str(path)])


def test_certified_finish_rejects_a_wrong_adjugate_column(tmp_path,
                                                        monkeypatch):
    m, path = dense_input(tmp_path)
    real = matrices._adjugate_columns

    def wrong(a, keep):
        d, columns = real(a, keep)
        (j, x), *rest = columns
        # m * x is now off by d times the first column of m
        return d, [(j, [x[0] + d, *x[1:]]), *rest]

    monkeypatch.setattr(matrices, "_adjugate_columns", wrong)
    error = re.escape("a kept adjugate column x fails m * x = d * e_j")
    with pytest.raises(RuntimeError, match=error):
        cokernel(m)
    with pytest.raises(RuntimeError, match=error):
        cli.main(["snf", "--input", str(path)])


@pytest.mark.parametrize("fault, error", [
    ("one wrong row", "H * adj(m) is not divisible by det m"),
    ("twice the determinant", "Hermite diagonal does not multiply to |det m|"),
])
def test_hermite_route_rejects_a_wrong_adjugate(fault, error, tmp_path,
                                                monkeypatch):
    rng = random.Random(12)
    m = IntegerMatrix(
        [[rng.randint(-9, 9) for _ in range(12)] for _ in range(12)])
    path = tmp_path / "m.json"
    path.write_text(json.dumps(m.to_doc()))
    real = matrices._adjugate

    def wrong(m):
        d, r = real(m)
        if fault == "one wrong row":
            r[0] = [x + 1 for x in r[0]]
            return d, r
        # the Hermite form modulo 2 |det m| still multiplies to |det m|
        return 2 * d, [[2 * x for x in row] for row in r]

    monkeypatch.setattr(matrices, "_adjugate", wrong)
    with pytest.raises(RuntimeError, match=re.escape(error)):
        smith_normal_form(m)
    with pytest.raises(RuntimeError, match=re.escape(error)):
        cli.main(["snf", "--json", "--input", str(path)])


def test_all_lists_every_public_name():
    public = {
        name for name, value in vars(dehnkit).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert sorted(dehnkit.__all__) == sorted(public)


def test_library_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
        or isinstance(node, ast.Name) and node.id == "__debug__"
    ]
    assert found == []
