import random

import pytest

from dehnkit import (
    CERTIFIED,
    INCONCLUSIVE,
    AbelianGroup,
    FamilyReport,
    FramedLink,
    IntegerMatrix,
    SchubertForm,
    Slope,
    SurgeryError,
    build_presentation,
    certify_family,
    cokernel,
    family_polynomials,
    family_torsion,
    fill_remaining,
    matrices,
    minors_gcd_oracle,
    mn_framed_link,
    smith_normal_form,
    surgered_homology,
    surgery,
    verify_family,
)

UNKNOT = FramedLink(((0,),))
HOPF = FramedLink(((0, 1), (1, 0)), ("u", "v"))

# orders of the two closed fillings of the axis by +1/1 and -1/1,
# derived once from an independent elementary-divisor computation and
# frozen; the suite below re-checks them against the minors oracle
PLUS_ONE_FILL = {
    2: (0, (10,)),
    3: (0, (4, 20)),
    4: (0, (3, 102)),
    5: (0, (8, 104)),
    -1: (0, (4, 4)),
    -2: (0, (3, 30)),
}
MINUS_ONE_FILL = {
    2: (1, (5,)),
    3: (1, (10,)),
    4: (1, (17,)),
    5: (1, (26,)),
    -1: (1, (2,)),
    -2: (1, (5,)),
}


def random_link(rng, max_components=5):
    m = rng.randint(1, max_components)
    lk = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i):
            lk[i][j] = lk[j][i] = rng.randint(-3, 3)
    return FramedLink(tuple(tuple(row) for row in lk))


# ------------------------------------------------------------ framed links

def test_link_validation():
    with pytest.raises(SurgeryError):
        FramedLink(((0, 1), (1,)))
    with pytest.raises(SurgeryError):
        FramedLink(((1,),))
    with pytest.raises(SurgeryError):
        FramedLink(((0, 2), (1, 0)))
    with pytest.raises(SurgeryError):
        FramedLink(((0,),), ("a", "b"))
    with pytest.raises(SurgeryError):
        FramedLink(((0, 1), (1, 0)), ("a", "a"))


def test_default_labels():
    assert HOPF.labels == ("u", "v")
    assert FramedLink(((0, 1), (1, 0))).labels == ("K1", "K2")


def test_component_resolution():
    assert HOPF.index("v") == 1
    assert HOPF.index(0) == 0
    assert HOPF.index("1") == 1
    for bad in ("w", " 1", "1_0", "+1", "\u0661"):
        with pytest.raises(SurgeryError):
            HOPF.index(bad)
    with pytest.raises(SurgeryError):
        HOPF.index(2)


def test_link_labels_are_strings():
    # an integer label would shadow the component index of that value
    with pytest.raises(TypeError):
        FramedLink(((0, 1), (1, 0)), (1, 0))
    with pytest.raises(TypeError):
        FramedLink(((0, 1), (1, 0)), ("a", None))


def test_link_labels_are_not_one_string():
    # a string of the right length would be split into one-letter labels
    with pytest.raises(TypeError):
        FramedLink(((0, 1), (1, 0)), "uv")
    with pytest.raises(TypeError):
        FramedLink(((0,),), "u")


def test_resolve_fillings():
    fills = HOPF.resolve_fillings({"u": "3/2", 1: Slope(1, 0)})
    assert fills == {0: Slope(3, 2), 1: Slope(1, 0)}
    with pytest.raises(SurgeryError):
        HOPF.resolve_fillings({"u": "1/1", 0: "2/1"})


@pytest.mark.parametrize("fillings, error, message", [
    ({True: "1/1"}, TypeError, "True is not an integer"),
    ({6: "1/1"}, SurgeryError, "component index 6 out of range"),
    ({-1: "1/1"}, SurgeryError, "component index -1 out of range"),
    ({"b": "1/1", 1: "2/1"}, SurgeryError, "component b filled twice"),
    ({1: "1/1", "b": "2/1"}, SurgeryError, "component b filled twice"),
])
def test_resolve_fillings_int_key_errors(fillings, error, message):
    link = mn_framed_link(3)[0]
    with pytest.raises(error) as info:
        link.resolve_fillings(fillings)
    assert type(info.value) is error and str(info.value) == message


# ----------------------------------------------------------- presentations

def test_unknot_surgeries():
    assert build_presentation(UNKNOT, {0: "0/1"}) == IntegerMatrix([[0]])
    assert surgered_homology(UNKNOT, {0: "0/1"}) == AbelianGroup(1, ())
    assert build_presentation(UNKNOT, {0: "1/1"}) == IntegerMatrix([[1]])
    assert surgered_homology(UNKNOT, {0: "1/1"}) == AbelianGroup(0, ())


def test_rational_filling_row():
    m = build_presentation(HOPF, {"u": "3/2"})
    assert m == IntegerMatrix([[3, 2]])
    assert surgered_homology(HOPF, {"u": "3/2", "v": "0/1"}) == \
        AbelianGroup(0, (2,))


def test_rows_come_in_component_order():
    m = build_presentation(HOPF, {"v": "5/1", "u": "7/1"})
    assert m == IntegerMatrix([[7, 1], [1, 5]])


def test_integral_fillings_give_framed_linking_matrix():
    rng = random.Random(71)
    for _ in range(150):
        link = random_link(rng)
        framings = [rng.randint(-9, 9) for _ in range(link.num_components)]
        fills = {i: Slope(f, 1) for i, f in enumerate(framings)}
        m = build_presentation(link, fills)
        expected = [list(row) for row in link.linking]
        for i, f in enumerate(framings):
            expected[i][i] = f
        assert m == IntegerMatrix(expected, link.num_components)


def test_unfilled_components_contribute_no_rows():
    m = build_presentation(HOPF, {"u": "3/1"})
    assert (m.rows, m.cols) == (1, 2)


def test_fill_remaining_appends_and_refuses_refills():
    base = {"u": "3/1"}
    m = fill_remaining(HOPF, base, {"v": "1/0"})
    assert m == IntegerMatrix([[3, 1], [0, 1]])
    with pytest.raises(SurgeryError, match="already filled: u"):
        fill_remaining(HOPF, base, {"u": "1/0"})


# -------------------------------------------------------- family diagrams

def test_family_diagram_shape():
    link, fills = mn_framed_link(2)
    assert link.labels == ("a", "b", "c", "d", "e", "x")
    assert link.linking == (
        (0, -1, 0, 0, 0, 1),
        (-1, 0, 1, 0, 0, 0),
        (0, 1, 0, -1, 0, -1),
        (0, 0, -1, 0, 1, 0),
        (0, 0, 0, 1, 0, 1),
        (1, 0, -1, 0, 1, 0),
    )
    assert fills == {
        0: Slope(2, 1),
        1: Slope(-2, 1),
        2: Slope(-1, 1),
        3: Slope(-2, 1),
        4: Slope(2, 1),
    }
    for bad in (0, 1):
        with pytest.raises(SurgeryError):
            mn_framed_link(bad)


def test_family_diagram_is_built_once(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("FramedLink constructed")

    monkeypatch.setattr(FramedLink, "__init__", refuse)
    link, fills = mn_framed_link(-7)
    assert link.labels == ("a", "b", "c", "d", "e", "x")
    assert fills[0] == Slope(-7, 1)
    assert certify_family(3).lens_order == 40


@pytest.mark.parametrize("n", [3, -10 ** 50])
def test_certify_family_call_counts(monkeypatch, n):
    # one group-only diagonal per presentation; bench/test_bench.py pins
    # the calls of smith_normal_form, which certify_family no longer
    # makes, and of resolve_fillings, and they move only with the bench
    calls = {"diagonal": 0, "resolve": 0}
    diagonal, resolve = matrices._group_diagonal, FramedLink.resolve_fillings

    def counting_diagonal(m):
        calls["diagonal"] += 1
        return diagonal(m)

    def counting_resolve(self, fillings):
        calls["resolve"] += 1
        return resolve(self, fillings)

    monkeypatch.setattr(matrices, "_group_diagonal", counting_diagonal)
    monkeypatch.setattr(FramedLink, "resolve_fillings", counting_resolve)
    certify_family(n)
    assert calls == {"diagonal": 3, "resolve": 10}


def test_library_matrices_skip_the_constructor(monkeypatch):
    m = IntegerMatrix([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    link, fills = mn_framed_link(3)

    def refuse(self, *args):
        raise AssertionError("IntegerMatrix constructor called")

    monkeypatch.setattr(IntegerMatrix, "__init__", refuse)
    form = smith_normal_form(m)
    assert form.diagonal == (2, 6, 12)
    assert form.u * m * form.v == form.d
    assert cokernel(m) == AbelianGroup(0, (2, 6, 12))
    exterior = build_presentation(link, fills)
    assert exterior.rows == 5 and cokernel(exterior) == AbelianGroup(1, (20,))
    closed = fill_remaining(link, fills, {"x": "1/0"})
    assert closed.rows == 6 and cokernel(closed) == AbelianGroup(0, (40,))
    assert certify_family(3).lens_order == 40
    reports, failures = verify_family(2, 5)
    assert len(reports) == 4 and failures == []


def test_family_presentation_rows():
    link, fills = mn_framed_link(3)
    m = build_presentation(link, fills)
    assert m.entries() == (
        (3, -1, 0, 0, 0, 1),
        (-1, -3, 1, 0, 0, 0),
        (0, 1, -1, -1, 0, -1),
        (0, 0, -1, -3, 1, 0),
        (0, 0, 0, 1, 3, 1),
    )


@pytest.mark.parametrize(
    "n,torsion",
    [(2, 5), (3, 20), (-1, 4)],
)
def test_family_homology_examples(n, torsion):
    link, fills = mn_framed_link(n)
    group = surgered_homology(link, fills)
    assert group == AbelianGroup(1, (torsion,))
    assert group == minors_gcd_oracle(build_presentation(link, fills))


@pytest.mark.parametrize(
    "n", [2, 3, -7, 10 ** 6 + 3, 10 ** 50 + 7, -10 ** 50 - 125])
def test_family_groups_by_minors(n):
    # a route that shares no code with the Smith forms: the exterior is
    # Z + Z/t(n) and each closing Z/p(n), by the gcds of minors, and
    # certify_family reports the same t and p
    t, p = abs((n - 1) * (n * n + 1)), (n - 1) ** 2 * (n * n + 1)
    link, fills = mn_framed_link(n)
    assert minors_gcd_oracle(build_presentation(link, fills)) == \
        AbelianGroup(1, (t,))
    for closing in ("1/0", "0/1"):
        closed = fill_remaining(link, fills, {"x": closing})
        assert minors_gcd_oracle(closed) == AbelianGroup(0, (p,))
    report = certify_family(n)
    assert (report.torsion, report.lens_order) == (t, p)


def test_family_homology_sweep():
    for n in range(-10, 11):
        if n in (0, 1):
            continue
        link, fills = mn_framed_link(n)
        expected = AbelianGroup(1, (family_torsion(n),))
        assert surgered_homology(link, fills) == expected


def test_closed_fillings_are_cyclic_of_equal_order():
    for n in range(-10, 11):
        if n in (0, 1):
            continue
        link, fills = mn_framed_link(n)
        order = family_polynomials(n)[0]
        for closing in ("1/0", "0/1"):
            h = cokernel(fill_remaining(link, fills, {"x": closing}))
            assert h.free_rank == 0 and h.is_cyclic
            assert h.order() == order


def test_trivial_filling_kills_the_axis_generator():
    link, fills = mn_framed_link(4)
    m = fill_remaining(link, fills, {"x": "1/0"})
    assert m.entries()[5] == (0, 0, 0, 0, 0, 1)


@pytest.mark.parametrize("n", sorted(PLUS_ONE_FILL))
def test_plus_minus_one_fillings_golden(n):
    link, fills = mn_framed_link(n)
    for slope, frozen in (("1/1", PLUS_ONE_FILL[n]), ("-1/1", MINUS_ONE_FILL[n])):
        m = fill_remaining(link, fills, {"x": slope})
        expected = AbelianGroup(frozen[0], tuple(frozen[1]))
        assert cokernel(m) == expected
        assert minors_gcd_oracle(m) == expected


def test_plus_one_fill_orders_follow_the_torsion():
    # |H_1| of the +1/1 filling is twice the lens order, n's parity
    # deciding how it splits; the -1/1 filling keeps a free factor
    for n in sorted(PLUS_ONE_FILL):
        rank, factors = PLUS_ONE_FILL[n]
        assert rank == 0
        total = 1
        for d in factors:
            total *= d
        assert total == 2 * family_polynomials(n)[0]
        rank, factors = MINUS_ONE_FILL[n]
        assert rank == 1
        assert factors == (n * n + 1,)


# -------------------------------------------------------------- documents

def test_link_doc_round_trip():
    link, fills = mn_framed_link(2)
    doc = link.to_doc(fills)
    assert doc["components"] == 6
    assert doc["fillings"]["b"] == "-2/1"
    link2, fills2 = FramedLink.from_doc(doc)
    assert link2 == link
    assert fills2 == fills


def test_link_doc_validation():
    with pytest.raises(SurgeryError):
        FramedLink.from_doc({"components": 2, "linking": [[0]]})
    with pytest.raises(SurgeryError):
        FramedLink.from_doc({"linking": [[0]]})
    with pytest.raises(SurgeryError):
        FramedLink.from_doc(
            {"components": 1, "linking": [[0]], "fillings": {"K9": "1/0"}}
        )
    with pytest.raises(ValueError):
        FramedLink.from_doc(
            {"components": 1, "linking": [[0]], "fillings": {"K1": "0/0"}}
        )
    with pytest.raises(ValueError):
        FramedLink.from_doc(
            {"components": 1, "linking": [[0]], "fillings": {"K1": " 3/2 "}}
        )
    hopf = {"components": 2, "linking": [[0, 1], [1, 0]]}
    for bad in (
        {"linking": 5},
        {"linking": [[0, 1.5], [1.5, 0]]},
        {"components": 2.0},
        {"labels": 7},
        {"fillings": ["x"]},
        {"fillings": {"K1": 3}},
        {"linking": [[False, True], [True, False]]},
        {"linking": ["01", "10"]},
        {"labels": "uv"},
        {"labels": [1, 2]},
        {"linking": [["0", "1_0"], ["1_0", "0"]]},
        {"linking": [["0", " 1\n"], [" 1\n", "0"]]},
        {"linking": [["0", "+1"], ["+1", "0"]]},
        {"linking": [["0", "\u0661"], ["\u0661", "0"]]},
        {"components": "\u0662"},
    ):
        with pytest.raises(SurgeryError):
            FramedLink.from_doc({**hopf, **bad})


# ---------------------------------------------------------- certification

def test_certify_at_two():
    report = certify_family(2)
    assert report.schubert == SchubertForm(5, 1)
    assert report.components == 1
    assert report.torsion == 5
    assert report.lens_order == 5
    assert report.chirality == "chiral"
    assert report.null_homology == INCONCLUSIVE
    assert report.distance_one_swap


def test_certify_at_three():
    report = certify_family(3)
    assert report.torsion == 20
    assert report.lens_order == 40
    assert report.null_homology == CERTIFIED
    assert report.components == 2


def test_report_dict_mirrors_fields():
    d = certify_family(-2).as_dict()
    assert d == {
        "n": -2,
        "schubert": "S(45,26)",
        "components": 1,
        "torsion": 15,
        "lens_order": 45,
        "chirality": "chiral",
        "null_homology": CERTIFIED,
        "distance_one_swap": True,
        "distinctness_hash": 15,
    }


def test_order_ratio_and_verdict_coverage():
    for n in range(-10, 11):
        if n in (0, 1):
            continue
        t, p = family_torsion(n), family_polynomials(n)[0]
        assert p == abs(n - 1) * t
        assert (t == p) == (n == 2)


def test_torsion_pairwise_distinct():
    values = [family_torsion(n) for n in range(-25, 26) if n not in (0, 1)]
    assert len(values) == len(set(values))


def test_verify_family_clean_ranges():
    reports, failures = verify_family(2, 2)
    assert failures == []
    assert len(reports) == 1
    reports, failures = verify_family(-5, 5)
    assert failures == []
    assert len(reports) == 9
    assert [r.n for r in reports] == [-5, -4, -3, -2, -1, 2, 3, 4, 5]


def test_verify_family_rejects_bad_range():
    with pytest.raises(SurgeryError):
        verify_family(3, 2)


def test_verify_family_skips_degenerate_members():
    reports, failures = verify_family(0, 1)
    assert reports == [] and failures == []


# n = 3: t = 20, p = 40;  n = 4: t = 51, p = 153
@pytest.mark.parametrize("change, lines", [
    (lambda r: {"lens_order": r.lens_order + 1}, [
        "lens-order n=3: got 41, expected 40",
        "order-ratio n=3: got 41, expected 40",
        "lens-order n=4: got 154, expected 153",
        "order-ratio n=4: got 154, expected 153",
    ]),
    (lambda r: {"null_homology": INCONCLUSIVE}, [
        f"verdict n={n}: got {INCONCLUSIVE}, expected {CERTIFIED}"
        for n in (3, 4)
    ]),
    (lambda r: {"chirality": "achiral"}, [
        f"chirality n={n}: got achiral, expected chiral" for n in (3, 4)
    ]),
    (lambda r: {"distance_one_swap": False}, [
        f"swap n={n}: got False, expected True" for n in (3, 4)
    ]),
    (lambda r: {"torsion": 5}, [
        "torsion n=3: got 5, expected 20",
        "order-ratio n=3: got 40, expected 10",
        "torsion n=4: got 5, expected 51",
        "order-ratio n=4: got 153, expected 15",
        "distinctness n=4: hash 5 collides with n=3",
    ]),
], ids=["lens-order", "verdict", "chirality", "swap", "torsion"])
def test_verify_family_failure_lines(monkeypatch, change, lines):
    def tampered(n):
        r = certify_family(n)
        fields = {f: getattr(r, f) for f in FamilyReport._fields}
        return FamilyReport(**{**fields, **change(r)})

    monkeypatch.setattr(surgery, "certify_family", tampered)
    assert verify_family(3, 4)[1] == lines


# each structure check of certify_family made to fail; the line that
# verify_family reports names n once
@pytest.mark.parametrize("name, fake, message", [
    ("surgered_homology", lambda link, fills: AbelianGroup(2, ()),
     "exterior homology Z^2 is not Z + torsion"),
    ("fill_remaining", lambda link, fills, extra: IntegerMatrix([], 1),
     "filling 1/0 gives Z, not finite cyclic"),
    # Z/3 for x -> 1/0, Z/2 for x -> 0/1
    ("fill_remaining",
     lambda link, fills, extra: IntegerMatrix([[extra["x"].p + 2]]),
     "filling orders 3 != 2"),
], ids=["exterior", "not-cyclic", "orders"])
def test_verify_family_certification_lines(monkeypatch, name, fake, message):
    monkeypatch.setattr(surgery, name, fake)
    reports, failures = verify_family(3, 4)
    assert reports == []
    assert failures == [f"certification n={n}: {message}" for n in (3, 4)]
