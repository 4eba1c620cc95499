import random

import pytest

from dehnkit import (
    CERTIFIED,
    INCONCLUSIVE,
    AbelianGroup,
    FramedLink,
    IntegerMatrix,
    SchubertForm,
    Slope,
    SurgeryError,
    build_presentation,
    certify_family,
    cokernel,
    family_lens_order,
    family_torsion,
    fill_remaining,
    minors_gcd_oracle,
    mn_framed_link,
    surgered_homology,
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


def test_component_index_takes_integers_only():
    with pytest.raises(TypeError):
        HOPF.index(1.7)


def test_resolve_fillings():
    fills = HOPF.resolve_fillings({"u": "3/2", 1: Slope(1, 0)})
    assert fills == {0: Slope(3, 2), 1: Slope(1, 0)}
    with pytest.raises(SurgeryError):
        HOPF.resolve_fillings({"u": "1/1", 0: "2/1"})


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
    def refuse(self):
        raise AssertionError("FramedLink constructed")

    monkeypatch.setattr(FramedLink, "__post_init__", refuse)
    link, fills = mn_framed_link(-7)
    assert link.labels == ("a", "b", "c", "d", "e", "x")
    assert fills[0] == Slope(-7, 1)
    assert certify_family(3).lens_order == 40


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
        order = family_lens_order(n)
        for closing in ("1/0", "0/1"):
            h = cokernel(fill_remaining(link, fills, {"x": closing}))
            assert h.is_finite and h.is_cyclic
            assert h.order() == order


def test_trivial_filling_kills_the_axis_generator():
    link, fills = mn_framed_link(4)
    m = fill_remaining(link, fills, {"x": "1/0"})
    assert m.row(5) == (0, 0, 0, 0, 0, 1)


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
        assert total == 2 * family_lens_order(n)
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
        t, p = family_torsion(n), family_lens_order(n)
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
