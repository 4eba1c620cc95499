import ast
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from dehnkit import (
    CertificationError,
    InputError,
    IntegerMatrix,
    MatrixError,
    SlopeError,
    SurgeryError,
    TangleError,
    cli,
    matrices,
    mn_framed_link,
    surgery,
)
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


def test_slope_json_goes_after_the_action(capsys):
    code, out, err = run(capsys, "slope", "--json", "normalize", "-2", "-4")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --json" in err


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

    def counting(m, **kwargs):
        calls.append(m)
        return real(m, **kwargs)

    monkeypatch.setattr(matrices, "smith_normal_form", counting)
    monkeypatch.setattr(cli, "smith_normal_form", counting)
    path = tmp_path / "m.json"
    path.write_text(matrix_doc([[2, 4], [6, 8]]))
    code, out, _ = run(capsys, "snf", "--json", "--input", str(path))
    assert code == 0
    assert json.loads(out)["cokernel"] == "Z/2 + Z/4"
    assert len(calls) == 1


def test_snf_text_mode_does_not_spell_transforms(tmp_path, capsys,
                                                monkeypatch):
    path = tmp_path / "m.json"
    path.write_text(matrix_doc([[2, 0], [0, 3]]))

    def refuse(m):
        raise RuntimeError("text mode spelled or built a transform")

    monkeypatch.setattr(IntegerMatrix, "to_doc", refuse)
    monkeypatch.setattr(matrices, "_full_smith", refuse)
    code, out, _ = run(capsys, "snf", "--input", str(path))
    assert code == 0
    assert out == "diagonal: 1 6\ncokernel: Z/6\n"


def test_snf_malformed_document(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"rows": 1}')
    code, _, err = run(capsys, "snf", "--input", str(path))
    assert code == 2
    assert "error" in err
    path.write_text("not json at all")
    assert run(capsys, "snf", "--input", str(path))[0] == 2


def test_malformed_documents_are_input_errors(tmp_path, capsys):
    path = tmp_path / "bad.json"
    hopf = {"components": 2, "linking": [[0, 1], [1, 0]]}
    for command, doc in (
        ("snf", {"rows": 1, "cols": 1, "entries": 5}),
        ("snf", {"rows": 2, "cols": 2, "entries": [[2.5, 0], [0, 3]]}),
        ("surgery", {**hopf, "linking": [[0, 1.5], [1.5, 0]]}),
        ("surgery", {**hopf, "fillings": {"K1": 3}}),
        ("snf", {"rows": 1, "cols": 2, "entries": ["12"]}),
        ("surgery", {**hopf, "linking": ["01", "10"]}),
    ):
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, "--input", str(path))
        assert (code, out) == (2, ""), doc
        assert err.startswith("error: "), doc


def test_snf_missing_file(capsys):
    for command in ("snf", "surgery"):
        code, out, err = run(capsys, command, "--input", "/no/such/file.json")
        assert (code, out) == (2, ""), command
        assert err.startswith("error: [Errno 2] "), command


def test_an_oserror_outside_the_input_is_a_fault(monkeypatch):
    # only the input file's OSError is bad input
    def fault(word):
        raise OSError("not an input error")

    monkeypatch.setattr(cli, "continued_fraction", fault)
    with pytest.raises(OSError, match="not an input error"):
        main(["cfrac", "3", "2"])


def test_a_reader_that_leaves_ends_in_exit_one_and_no_message():
    # `dehnkit family ... | head -1`: stdout is a pipe nobody reads
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "dehnkit", "family", "-10", "10"],
            env=child_env(), stdout=w, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(w)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_snf_json_is_the_same_without_fork(tmp_path, capsys, monkeypatch):
    # a dense 30 x 30 is past the gate, so its v comes from a child
    rng = random.Random(30)
    path = tmp_path / "m.json"
    path.write_text(matrix_doc(
        [[rng.randint(-9, 9) for _ in range(30)] for _ in range(30)]))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    forked = run(capsys, "snf", "--json", "--input", str(path))
    assert forked[0] == 0 and forks == [1]
    monkeypatch.delattr(os, "fork")
    assert run(capsys, "snf", "--json", "--input", str(path)) == forked


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


# (argv, exit code, sha256 of stdout), recorded before the handlers
# returned their results to one printer; "{small}", "{m12}" and
# "{link}" name the documents written by _golden_documents
EMPTY = hashlib.sha256(b"").hexdigest()
GOLDEN = [
    (("slope", "normalize", "-2", "-4"),
     0, "de7e55cd172f2065828bdd6c2015c5e92fdd6271ab1bd0f30a5e15104e64678d"),
    (("slope", "normalize", "--json", "-2", "-4"),
     0, "b728bb6d9dfd8486b6e8ae58127ed43efc841e38ba74226b8fefa9799d8a79c7"),
    (("slope", "dist", "2/3", "-2/3"),
     0, "a1fb50e6c86fae1679ef3351296fd6713411a08cf8dd1790a4fd05fae8688164"),
    (("slope", "dist", "--json", "1/0", "0/1"),
     0, "70aad1bccf94efb5aed4cb4e572101f4190049de4d4077209e0ffce5b17c96c3"),
    (("slope", "apply", "0", "1", "1", "0", "1/0"),
     0, "d61e82b5761ad27edd18ae5d67d671c6c8a4139b2c0f9f2606503976dad442d9"),
    (("slope", "apply", "--json", "0", "1", "1", "0", "-2/3"),
     0, "1f4b875d5b99e8ddc688a73903e602416bc313f99088f9f44c2ef6f89c356070"),
    (("slope", "fixed", "0", "1", "1", "0", "--bound", "5"),
     0, "08f6f06fa4d55c5e0a7a9d548f26ae8e0f39e18035e3771d82ddcee4fcbd42d6"),
    (("slope", "fixed", "0", "1", "1", "0", "--json"),
     0, "f2945f6d32380dd4c0c93038a3a529836a66483358912bda11f4ac0184140c15"),
    (("slope", "fixed", "1", "1", "0", "1", "--bound", "0"),
     0, EMPTY),
    (("slope", "fixed", "1", "1", "0", "1", "--bound", "0", "--json"),
     0, "daa590994aff54800e1e8628eece630043c6653a154395a4a8518563aaa4050a"),
    (("slope", "apply", "1", "0", "0", "2", "1/1"),
     2, EMPTY),
    # one row per branch of fixed_slopes, recorded before the closed form
    (("slope", "fixed", "1", "-2", "0", "1"),
     0, "ac2ef9e3dc139138fe7da9d1ca02b12be73e98d53e757840f82cd2c6fb2f75d4"),
    (("slope", "fixed", "-5", "12", "-2", "5"),
     0, "44dd274aa4c90ebe6d563eed5aecf7caa540b1fe0628c9694d91c9235a9f64d2"),
    (("slope", "fixed", "5", "4", "-6", "-5"),
     0, "d9dc101d98f4756124b39c37eec299c092ecd47a9887ef8113ec0eaab0382fe6"),
    (("slope", "fixed", "0", "-1", "1", "0"),
     0, EMPTY),
    (("slope", "fixed", "-1", "0", "0", "-1", "--bound", "3"),
     0, "d956a2e1c01c2c8285e1c8d63342d9a366f3a1f0b7f5c5e331e998ff73ed9cc2"),
    (("slope", "fixed", "29", "-98", "8", "-27", "--bound", "3"),
     0, EMPTY),
    (("slope", "fixed", "0", "1", "1", "0", "--bound", "-1"),
     2, EMPTY),
    (("cfrac", "3", "3", "-1", "3", "3"),
     0, "5455d832559a63302642f16e7ad9b68ea5205c4db2379d88d0db68fdc2771d10"),
    (("cfrac", "--json", "2,2,-1,2,2"),
     0, "0c23e0ece6097ab5585f6c9d7504159cdd6129fca49a15e886d962ae7b02b40a"),
    (("cfrac", "3", "1", "-1"),
     2, EMPTY),
    (("twobridge", "3", "3", "-1", "3", "3"),
     0, "f0c34bf93f3164f4dd46d71ce2a5ba9f169e60bfd71f0fb2dc0b7bb5e62cbe81"),
    (("twobridge", "--json", "2", "2", "-1", "2", "2"),
     0, "610f2075b223b9802a76b39a2cd4701343ff3f24816e955c78b8d4ab0d818151"),
    (("lens", "40", "11", "--compare", "40", "29"),
     0, "40fd3a922de8a74a641100b64bf67525351326bd345a5f5e3eaecfd6c5bb46c6"),
    (("lens", "--json", "5", "2", "--compare", "5", "3"),
     0, "893c3748800497bd1a45e69824666bea7d642d03db48ec8dabb7bacad1324d22"),
    (("lens", "--json", "7", "1"),
     0, "5e2272de2dc4de9c2114df82b0a7a7f1b6def3819074cd26ee57caecc8b9fc75"),
    (("lens", "4", "2"),
     2, EMPTY),
    (("snf", "--input", "{small}"),
     0, "c74270f9aae5e71304c69d276da8861590d05418e91f6c3c0e96e362827f6eb5"),
    (("snf", "--json", "--input", "{small}"),
     0, "6e662218b05036c833ba8b301e91099943452fbfe77e149750caeaa34f26ce01"),
    (("snf", "--input", "{m12}"),
     0, "96bbf7ad7241b808574488cdce3b6e8d897b47f1faf83536c7b7f6293d5dfa6a"),
    (("snf", "--json", "--input", "{m12}"),
     0, "bd9871eb51720a7565d6924ecb9c9dfe1a4024ad5c6df68ca15fba5fdf58a040"),
    (("snf", "--input", "/no/such/file.json"),
     2, EMPTY),
    (("surgery", "--template", "mn", "-n", "3", "--drill", "a", "--fill",
      "a=3/1"),
     0, "f3eadc9a520a37b38e5cb1af4263892e58d26b35fe5cae83a705fb81a8a19c0d"),
    (("surgery", "--json", "--template", "mn", "-n", "-2"),
     0, "ef40a1419e28ff6457ab7ecde1672eaac0bd831aebd1027fb728b1f375b6b53a"),
    (("surgery", "--template", "unknot", "--fill", "K1=0/1"),
     0, "ec39b67830c0c34d71b0b6bf1d1c424eb7caab9222eb401fdaef044cf2145e9b"),
    (("surgery", "--json", "--template", "unknot"),
     0, "88a63ef1c176665195f8112a0e28426f0575992c18541765b9f3e20c183e3cdd"),
    (("surgery", "--input", "{link}", "--fill", "x=1/0"),
     0, "076304e1afb07bf5ebb64dc1c97fc7909792e2a387a855bf3baa0f8613f966c7"),
    (("surgery", "--json", "--input", "{link}"),
     0, "9c901f5d8b614651917f80dfe0a90aa6f3ec360a833823245d6ecaa80570658e"),
    (("surgery", "--template", "mn"),
     2, EMPTY),
    (("surgery", "--template", "mn", "-n", "2", "--fill", "x:1/0"),
     2, EMPTY),
    (("family", "2", "3"),
     0, "5927fb007bcd365e09afd11d3b31dbc773ff2daad71523faacfb36f9d258f8ac"),
    (("family", "-5", "5"),
     0, "cf9b47064ddeff9765b1e42c79b512f8e68ed8e01ee66afa4f093a89db3a711d"),
    (("family", "--json", "-5", "5"),
     0, "a79b3977bd9201ee164eb40ac154c7ed00b894aae807e992bd2d42ced3f88e75"),
    (("family", "3", "2"),
     2, EMPTY),
    # a range holding only the degenerate n = 0, 1: an empty table
    (("family", "0", "1"),
     0, "a90478789215f47f36be7a462c3f473b1aa24ce4ae55ded04cf96095febc5b2b"),
    (("family", "--json", "0", "1"),
     0, "9a284a2eed384218f144c339abdd14063fa6677af1519dcb8f7b193b50aed563"),
    # text integers follow the document rule -?[0-9]+ in ASCII
    (("cfrac", "1_0", "2"),
     2, EMPTY),
    (("cfrac", "\u0661\u0662"),
     2, EMPTY),
    (("slope", "normalize", "1_0", "3"),
     2, EMPTY),
    (("family", "1_0", "1_1"),
     2, EMPTY),
    (("surgery", "--template", "mn", "-n", "2", "--fill", "x=1_0/1"),
     2, EMPTY),
    (("surgery", "--template", "mn", "-n", "2", "--drill", " 0"),
     2, EMPTY),
    (("slope", "dist", " 3", "1/0"),
     2, EMPTY),
    (("surgery", "--template", "mn", "-n", "2", "--fill", "x= 1/0"),
     2, EMPTY),
]


def _golden_documents(tmp_path) -> dict[str, str]:
    rng = random.Random(12)
    docs = {
        "small": matrix_doc([[2, 0], [0, 3]]),
        "m12": matrix_doc(
            [[rng.randint(-9, 9) for _ in range(12)] for _ in range(12)]
        ),
    }
    link, fills = mn_framed_link(2)
    docs["link"] = json.dumps(link.to_doc(fills))
    for name, text in docs.items():
        (tmp_path / f"{name}.json").write_text(text)
    return {name: str(tmp_path / f"{name}.json") for name in docs}


def test_json_outputs_match_golden_digests(tmp_path, capsys):
    paths = _golden_documents(tmp_path)
    for argv, code, digest in GOLDEN:
        argv = [a.format(**paths) for a in argv]
        got, out, _ = run(capsys, *argv)
        assert (got, hashlib.sha256(out.encode()).hexdigest()) == \
            (code, digest), argv


# the family sweep with family_torsion patched to disagree at every n
GOLDEN_FAMILY_FAILURE = {
    ("family", "2", "3"):
        "a0bd789e9e8fba32313a31889d806a383f2888de2a71e79b20cf712b105aae01",
    ("family", "--json", "2", "3"):
        "75dfee063fa8ca0b0283eef471097f413aa41278d5c0f8caae433de0fb6fc1d7",
}


def test_family_failure_output_matches_golden_digests(capsys, monkeypatch):
    monkeypatch.setattr(surgery, "family_torsion", lambda n: 0)
    for argv, digest in GOLDEN_FAMILY_FAILURE.items():
        code, out, _ = run(capsys, *argv)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == \
            (1, digest), argv


def child_env():
    """The environment with this package first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


def run_child(*args):
    """Run a fresh interpreter with this package first on its path."""
    proc = subprocess.run([sys.executable, *args], env=child_env(),
                          capture_output=True, timeout=120)
    return proc.returncode, hashlib.sha256(proc.stdout).hexdigest()


def test_cli_start_up_imports_no_heavy_modules():
    # the two-core replay imports what it needs only when it runs, and
    # the value types are plain slotted classes, not dataclasses
    heavy = ("pickle", "threading", "multiprocessing", "concurrent.futures",
             "subprocess", "dataclasses", "inspect")
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys\n"
         "before = set(sys.modules)\n"
         "import dehnkit.cli\n"
         "print(' '.join(sorted(set(sys.modules) - before)))\n"],
        env=child_env(), capture_output=True, text=True, timeout=120)
    added = proc.stdout.split()
    assert proc.returncode == 0 and "dehnkit.cli" in added, proc.stderr
    assert not set(heavy) & set(added), added


def test_no_module_imports_dataclasses():
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            assert "dataclasses" not in names, f"{path.name}:{node.lineno}"


def test_module_entry_point_matches_golden_digests():
    golden = {argv: (code, digest) for argv, code, digest in GOLDEN}
    for argv in [("family", "2", "3"), ("lens", "4", "2")]:
        assert run_child("-m", "dehnkit", *argv) == golden[argv], argv


def test_run_exits_one_on_a_failed_sweep():
    argv = ("family", "2", "3")
    got = run_child(
        "-c",
        "from dehnkit import cli, surgery\n"
        "surgery.family_torsion = lambda n: 0\n"
        "cli.run()\n",
        *argv,
    )
    assert got == (1, GOLDEN_FAMILY_FAILURE[argv])


def test_unknown_subcommand_is_an_input_error(capsys):
    assert run(capsys, "nosuch")[0] == 2
    assert run(capsys)[0] == 2


def test_a_bare_value_error_is_a_fault(monkeypatch):
    # exit 2 is for the library's input errors; anything else escapes
    def fault(word):
        raise ValueError("not an input error")

    monkeypatch.setattr(cli, "continued_fraction", fault)
    with pytest.raises(ValueError, match="not an input error"):
        main(["cfrac", "3", "2"])


@pytest.mark.parametrize("error, bad_input", [
    (MatrixError, True),
    (SlopeError, True),
    (SurgeryError, True),
    (TangleError, True),
    (CertificationError, False),
])
def test_exit_two_is_for_input_errors_alone(error, bad_input):
    assert issubclass(error, InputError) is bad_input
    assert issubclass(error, ValueError) is bad_input


def test_only_a_decode_error_from_json_load_is_bad_input(tmp_path, capsys,
                                                          monkeypatch):
    # a JSON integer of more than 4,300 digits makes json.load raise a
    # bare ValueError; that is a fault, not a document the user got wrong
    path = tmp_path / "m.json"
    path.write_text(matrix_doc([[1]]))

    def fault(fh):
        raise ValueError("not an input error")

    def malformed(fh):
        raise json.JSONDecodeError("Expecting value", "x", 0)

    monkeypatch.setattr(json, "load", fault)
    with pytest.raises(ValueError, match="not an input error"):
        main(["snf", "--input", str(path)])
    monkeypatch.setattr(json, "load", malformed)
    assert run(capsys, "snf", "--input", str(path)) == (
        2, "", "error: Expecting value: line 1 column 1 (char 0)\n")


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
