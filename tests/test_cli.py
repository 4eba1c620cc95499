import hashlib
import io
import json
import random

import pytest

from dehnkit import IntegerMatrix, cli, matrices, mn_framed_link
from dehnkit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------- slope

def test_slope_normalize(capsys):
    code, out, _ = run(capsys, "slope", "normalize", "-2", "-4")
    assert (code, out) == (0, "1/2\n")


def test_slope_dist(capsys):
    code, out, _ = run(capsys, "slope", "dist", "1/0", "0/1")
    assert (code, out) == (0, "1\n")
    code, out, _ = run(capsys, "slope", "dist", "2/3", "-2/3")
    assert (code, out) == (0, "12\n")


def test_slope_apply(capsys):
    code, out, _ = run(capsys, "slope", "apply", "0", "1", "1", "0", "1/0")
    assert (code, out) == (0, "0/1\n")


def test_slope_fixed(capsys):
    code, out, _ = run(capsys, "slope", "fixed", "0", "1", "1", "0")
    assert (code, out) == (0, "-1/1\n1/1\n")
    code, out, _ = run(
        capsys, "slope", "fixed", "0", "1", "1", "0", "--bound", "5", "--json"
    )
    assert code == 0
    assert json.loads(out) == {
        "bound": 5,
        "is_involution": True,
        "slopes": ["-1/1", "1/1"],
    }


def test_slope_rejects_non_unimodular(capsys):
    code, _, err = run(capsys, "slope", "apply", "1", "0", "0", "2", "1/1")
    assert code == 2
    assert "error" in err


# ----------------------------------------------------------------- cfrac

def test_cfrac_examples(capsys):
    assert run(capsys, "cfrac", "2", "2", "-1", "2", "2")[:2] == (0, "1/5\n")
    assert run(capsys, "cfrac", "5")[:2] == (0, "1/5\n")
    assert run(capsys, "cfrac", "3", "3", "-1", "3", "3")[:2] == (0, "11/40\n")
    assert run(capsys, "cfrac", "3,3,-1,3,3")[:2] == (0, "11/40\n")


def test_cfrac_parse_failure(capsys):
    code, _, err = run(capsys, "cfrac", "2", "q")
    assert code == 2
    assert "error" in err


def test_cfrac_division_by_zero(capsys):
    code, _, err = run(capsys, "cfrac", "3", "1", "-1")
    assert code == 2
    assert "suffix" in err


def test_cfrac_json(capsys):
    code, out, _ = run(capsys, "cfrac", "--json", "2", "2", "-1", "2", "2")
    assert code == 0
    assert json.loads(out) == {"slope": "1/5", "word": [2, 2, -1, 2, 2]}


# ------------------------------------------------------------- twobridge

def test_twobridge_output(capsys):
    code, out, _ = run(capsys, "twobridge", "3", "3", "-1", "3", "3")
    assert code == 0
    assert out == (
        "fraction: 11/40\n"
        "schubert: S(40,11)\n"
        "components: 2 (2-component link)\n"
    )


def test_twobridge_knot_parity(capsys):
    code, out, _ = run(capsys, "twobridge", "2", "2", "-1", "2", "2")
    assert code == 0
    assert "schubert: S(5,1)" in out
    assert "components: 1 (knot)" in out


def test_twobridge_meridian_is_an_input_error(capsys):
    code, _, err = run(capsys, "twobridge", "0")
    assert code == 2
    assert "unlink" in err


# ------------------------------------------------------------------ lens

def test_lens_achiral(capsys):
    code, out, _ = run(capsys, "lens", "5", "2")
    assert code == 0
    assert "achiral: yes" in out
    assert "mirror: S(5,3)" in out


def test_lens_chiral(capsys):
    code, out, _ = run(capsys, "lens", "5", "1")
    assert code == 0
    assert "achiral: no" in out


def test_lens_compare_mirror_pair(capsys):
    code, out, _ = run(capsys, "lens", "40", "11", "--compare", "40", "29")
    assert code == 0
    assert "compare S(40,29): equivalent (mirror pair)" in out


def test_lens_compare_direct(capsys):
    code, out, _ = run(capsys, "lens", "5", "2", "--compare", "5", "3")
    assert code == 0
    assert "equivalent (orientation-preserving)" in out
    code, out, _ = run(capsys, "lens", "7", "1", "--compare", "7", "2")
    assert code == 0
    assert "not equivalent" in out


def test_lens_rejects_non_coprime(capsys):
    code, _, err = run(capsys, "lens", "4", "2")
    assert code == 2
    assert "error" in err


def test_lens_json(capsys):
    code, out, _ = run(capsys, "lens", "--json", "5", "2")
    payload = json.loads(out)
    assert code == 0
    assert payload["achiral"] is True
    assert payload["schubert"] == "S(5,2)"
    assert payload["components"] == 1


# ------------------------------------------------------------------- snf

def matrix_doc(rows, cols=None):
    return json.dumps(IntegerMatrix(rows, cols).to_doc())


def test_snf_from_file(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(matrix_doc([[2, 0], [0, 3]]))
    code, out, _ = run(capsys, "snf", "--input", str(path))
    assert code == 0
    assert out == "diagonal: 1 6\ncokernel: Z/6\n"


def test_snf_from_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(matrix_doc([[0, 0, 0]])))
    code, out, _ = run(capsys, "snf", "--input", "-")
    assert code == 0
    assert out == "diagonal: 0\ncokernel: Z^3\n"


def test_snf_json_carries_transforms(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(matrix_doc([[2, 0], [0, 3]]))
    code, out, _ = run(capsys, "snf", "--json", "--input", str(path))
    payload = json.loads(out)
    assert code == 0
    assert payload["diagonal"] == ["1", "6"]
    assert payload["cokernel"] == "Z/6"
    u = IntegerMatrix.from_doc(payload["u"])
    d = IntegerMatrix.from_doc(payload["d"])
    v = IntegerMatrix.from_doc(payload["v"])
    assert u * IntegerMatrix([[2, 0], [0, 3]]) * v == d


def test_snf_command_runs_one_smith_normal_form(tmp_path, capsys, monkeypatch):
    calls = []
    real = matrices.smith_normal_form

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(matrices, "smith_normal_form", counting)
    monkeypatch.setattr(cli, "smith_normal_form", counting)
    path = tmp_path / "m.json"
    path.write_text(matrix_doc([[2, 4], [6, 8]]))
    code, out, _ = run(capsys, "snf", "--json", "--input", str(path))
    assert code == 0
    assert json.loads(out)["cokernel"] == "Z/2 + Z/4"
    assert len(calls) == 1


def test_snf_malformed_document(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"rows": 1}')
    code, _, err = run(capsys, "snf", "--input", str(path))
    assert code == 2
    assert "error" in err
    path.write_text("not json at all")
    assert run(capsys, "snf", "--input", str(path))[0] == 2


def test_snf_missing_file(capsys):
    code, _, err = run(capsys, "snf", "--input", "/no/such/file.json")
    assert code == 2


# --------------------------------------------------------------- surgery

def test_surgery_template_examples(capsys):
    assert run(capsys, "surgery", "--template", "mn", "-n", "2")[:2] == \
        (0, "Z + Z/5\n")
    assert run(
        capsys, "surgery", "--template", "mn", "-n", "2", "--fill", "x=1/0"
    )[:2] == (0, "Z/5\n")
    assert run(
        capsys, "surgery", "--template", "mn", "-n", "2", "--fill", "x=0/1"
    )[:2] == (0, "Z/5\n")
    assert run(
        capsys, "surgery", "--template", "unknot", "--fill", "K1=0/1"
    )[:2] == (0, "Z\n")


def test_surgery_drill_and_refill(capsys):
    code, out, _ = run(
        capsys, "surgery", "--template", "mn", "-n", "3",
        "--drill", "a", "--fill", "a=3/1",
    )
    assert (code, out) == (0, "Z + Z/20\n")


def test_surgery_fill_overrides(capsys):
    # overriding c's -1 framing with -1/1 again is a no-op
    code, out, _ = run(
        capsys, "surgery", "--template", "mn", "-n", "3", "--fill", "c=-1/1"
    )
    assert (code, out) == (0, "Z + Z/20\n")


def test_surgery_from_document(tmp_path, capsys):
    link, fills = mn_framed_link(2)
    path = tmp_path / "link.json"
    path.write_text(json.dumps(link.to_doc(fills)))
    code, out, _ = run(
        capsys, "surgery", "--input", str(path), "--fill", "x=1/0"
    )
    assert (code, out) == (0, "Z/5\n")


def test_surgery_json(capsys):
    code, out, _ = run(
        capsys, "surgery", "--json", "--template", "mn", "-n", "2"
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["homology"] == "Z + Z/5"
    assert payload["free_rank"] == 1
    assert payload["invariant_factors"] == ["5"]
    assert payload["fillings"] == {
        "a": "2/1", "b": "-2/1", "c": "-1/1", "d": "-2/1", "e": "2/1"
    }


@pytest.mark.parametrize(
    "argv",
    [
        ("surgery",),
        ("surgery", "--template", "mn"),
        ("surgery", "--template", "nosuch", "-n", "2"),
        ("surgery", "--template", "unknot", "-n", "2"),
        ("surgery", "--template", "mn", "-n", "0"),
        ("surgery", "--template", "mn", "-n", "2", "--drill", "x"),
        ("surgery", "--template", "mn", "-n", "2", "--fill", "x:1/0"),
        ("surgery", "--template", "mn", "-n", "2", "--fill", "y=1/0"),
    ],
)
def test_surgery_input_errors(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "error" in err


def test_surgery_rejects_both_sources(tmp_path, capsys):
    path = tmp_path / "x.json"
    path.write_text("{}")
    code, _, _ = run(
        capsys, "surgery", "--input", str(path), "--template", "mn", "-n", "2"
    )
    assert code == 2


# ---------------------------------------------------------------- family

def test_family_single_row(capsys):
    code, out, _ = run(capsys, "family", "2", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == [
        "n", "schubert", "comps", "t", "p", "chirality", "null-homology",
        "swap",
    ]
    assert lines[1].split() == [
        "2", "S(5,1)", "1", "5", "5", "chiral", "INCONCLUSIVE-BY-HOMOLOGY",
        "yes",
    ]
    assert lines[2] == "all checks passed (1 reports)"


def test_family_default_range(capsys):
    code, out, _ = run(capsys, "family")
    assert code == 0
    assert "all checks passed (19 reports)" in out


def test_family_wide_range(capsys):
    code, out, _ = run(capsys, "family", "-5", "5")
    assert code == 0
    assert len(out.splitlines()) == 11
    assert "CERTIFIED-NON-NULL-HOMOLOGOUS" in out


def test_family_bad_range(capsys):
    code, _, err = run(capsys, "family", "3", "2")
    assert code == 2
    assert "error" in err


def test_family_json(capsys):
    code, out, _ = run(capsys, "family", "--json", "2", "3")
    payload = json.loads(out)
    assert code == 0
    assert payload["ok"] is True
    assert payload["failures"] == []
    assert [r["n"] for r in payload["reports"]] == [2, 3]
    assert payload["reports"][0]["torsion"] == 5


# ------------------------------------------------------------- plumbing

def test_outputs_are_deterministic(capsys):
    a = run(capsys, "family", "--json", "-3", "3")
    b = run(capsys, "family", "--json", "-3", "3")
    assert a == b
    a = run(capsys, "surgery", "--json", "--template", "mn", "-n", "5")
    b = run(capsys, "surgery", "--json", "--template", "mn", "-n", "5")
    assert a == b


# sha256 of stdout, recorded before the Smith elimination moved to one
# block matrix; any change to U, D, V or the family reports shows here
GOLDEN_SNF_12X12 = "bd9871eb51720a7565d6924ecb9c9dfe1a4024ad5c6df68ca15fba5fdf58a040"
GOLDEN_FAMILY_MINUS5_5 = "a79b3977bd9201ee164eb40ac154c7ed00b894aae807e992bd2d42ced3f88e75"


def test_json_outputs_match_golden_digests(tmp_path, capsys):
    rng = random.Random(12)
    path = tmp_path / "m12.json"
    path.write_text(
        matrix_doc([[rng.randint(-9, 9) for _ in range(12)] for _ in range(12)])
    )
    for argv, digest in (
        (("snf", "--json", "--input", str(path)), GOLDEN_SNF_12X12),
        (("family", "--json", "-5", "5"), GOLDEN_FAMILY_MINUS5_5),
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_unknown_subcommand_is_an_input_error(capsys):
    assert run(capsys, "nosuch")[0] == 2
    assert run(capsys)[0] == 2


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
