import hashlib
import os
import random
from math import gcd, prod

import pytest

from dehnkit import (
    LONGITUDE,
    MERIDIAN,
    AbelianGroup,
    FramedLink,
    IntegerMatrix,
    MatrixError,
    SmithForm,
    build_presentation,
    cokernel,
    fill_remaining,
    minors_gcd_oracle,
    mn_framed_link,
    matrices,
    smith_normal_form,
)


def det_oracle(rows):
    """Cofactor expansion along the first row; independent of Bareiss."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, x in enumerate(rows[0]):
        if x:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += (-1) ** j * x * det_oracle(minor)
    return total


def random_matrix(rng, max_dim=6, max_entry=9):
    r = rng.randint(0, max_dim)
    c = rng.randint(0, max_dim)
    return IntegerMatrix(
        [[rng.randint(-max_entry, max_entry) for _ in range(c)]
         for _ in range(r)],
        c,
    )


def diag(*entries):
    n = len(entries)
    return IntegerMatrix(
        [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)], n
    )


def assert_snf_contract(m):
    snf = smith_normal_form(m)
    assert snf.u * m * snf.v == snf.d
    assert abs(snf.u.det()) == 1
    assert abs(snf.v.det()) == 1
    d = snf.diagonal
    assert all(x >= 0 for x in d)
    for i in range(m.rows):
        for j in range(m.cols):
            if i != j:
                assert snf.d[i, j] == 0
    nonzero = [x for x in d if x != 0]
    # zeros only after the last nonzero entry
    assert d[:len(nonzero)] == tuple(nonzero)
    for x, y in zip(nonzero, nonzero[1:]):
        assert y % x == 0
    if m.rows == m.cols:
        assert abs(m.det()) == prod(d)
    return snf


# ------------------------------------------------------------ construction

def test_construction_and_access():
    m = IntegerMatrix([[1, 2, 3], [4, 5, 6]])
    assert (m.rows, m.cols) == (2, 3)
    assert m[1, 2] == 6
    assert m.entries()[0] == (1, 2, 3)
    assert str(IntegerMatrix([], 3)) == "[0x3]"
    assert str(IntegerMatrix([[]] * 3, 0)) == "[3x0]"


def test_construction_errors():
    with pytest.raises(MatrixError):
        IntegerMatrix([[1, 2], [3]])
    with pytest.raises(MatrixError):
        IntegerMatrix([])
    assert IntegerMatrix([], 3).cols == 3


def test_column_count_is_checked():
    # a float or boolean cols would reach to_doc, which from_doc rejects
    with pytest.raises(TypeError):
        IntegerMatrix([[1, 2]], 2.0)
    with pytest.raises(TypeError):
        IntegerMatrix([], True)
    with pytest.raises(MatrixError):
        IntegerMatrix([], -1)
    m = IntegerMatrix([], 2)
    assert IntegerMatrix.from_doc(m.to_doc()) == m


def test_immutability():
    m = IntegerMatrix([[1]])
    with pytest.raises(AttributeError):
        m.rows = 2
    # a deleted field would leave rows, == and str raising AttributeError
    for name in ("rows", "cols", "_data"):
        with pytest.raises(AttributeError):
            delattr(m, name)
    assert (m.rows, m.cols, str(m)) == (1, 1, "[ 1 ]")
    assert m == IntegerMatrix([[1]])


def test_multiplication():
    a = IntegerMatrix([[1, 2], [3, 4]])
    b = IntegerMatrix([[5], [6]])
    assert a * b == IntegerMatrix([[17], [39]])
    assert IntegerMatrix([[1, 0], [0, 1]]) * a == a
    with pytest.raises(MatrixError):
        b * a
    with pytest.raises(TypeError):
        a * 3


def test_equality_and_hash():
    a, b = IntegerMatrix([[1, 2]]), IntegerMatrix([[1, 2]])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert IntegerMatrix([], 2) != IntegerMatrix([], 3)
    assert (a == 3) is False


def test_submatrix():
    m = IntegerMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert m.submatrix((0, 2), (1, 2)) == IntegerMatrix([[2, 3], [8, 9]])
    assert m.submatrix(range(2), range(1)) == IntegerMatrix([[1], [4]])


# ------------------------------------------------------------ determinant

def test_det_small_cases():
    assert IntegerMatrix([], 0).det() == 1
    assert IntegerMatrix([[7]]).det() == 7
    assert diag(2, 3).det() == 6
    assert IntegerMatrix([[0, 1], [1, 0]]).det() == -1
    assert IntegerMatrix([[1, 2], [2, 4]]).det() == 0
    with pytest.raises(MatrixError):
        IntegerMatrix([[1, 2]]).det()


def test_det_matches_cofactor_oracle():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(0, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert IntegerMatrix(rows, n).det() == det_oracle(rows)


def test_det_is_exact_on_large_entries():
    big = 10 ** 30
    m = IntegerMatrix([[big, 1], [1, big]])
    assert m.det() == big * big - 1


# ---------------------------------------------------------------- the SNF

def test_snf_identity():
    eye = IntegerMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    snf = smith_normal_form(eye)
    assert snf.d == eye
    assert snf.diagonal == (1, 1, 1)


def test_snf_divisibility_fix():
    assert smith_normal_form(diag(2, 3)).diagonal == (1, 6)
    assert smith_normal_form(diag(6, 4)).diagonal == (2, 12)
    assert smith_normal_form(diag(4, 0, 6)).diagonal == (2, 12, 0)


def test_snf_shapes():
    for m in (
        IntegerMatrix([], 4),
        IntegerMatrix([[0, 0, 0]]),
        IntegerMatrix([[5], [10], [15]]),
        IntegerMatrix([[0, 0], [0, 0], [0, 0]]),
    ):
        assert_snf_contract(m)


def test_snf_property_suite(monkeypatch):
    rng = random.Random(101)
    modular = []
    real = matrices._diagonal_mod

    def spy(a, delta):
        modular.append(a)
        return real(a, delta)

    monkeypatch.setattr(matrices, "_diagonal_mod", spy)
    for _ in range(1200):
        m = random_matrix(rng)
        snf = assert_snf_contract(m)
        assert cokernel(m) == minors_gcd_oracle(m)
        # rank from the oracle agrees with the diagonal
        assert snf.rank == sum(1 for x in snf.diagonal if x)
    # the modular finish runs under the oracle's 7 x 7 cap too
    assert modular


def unit_rich_matrix(rng):
    """Shapes up to 8x8, mostly 0 and +-1, several units in most rows."""
    r, c = rng.randint(0, 8), rng.randint(0, 8)
    units = rng.random() < 0.8
    rows = []
    for _ in range(r):
        row = [rng.choice((0, 0, 0, 1, -1, 2, -3, 7)) for _ in range(c)]
        if units:
            for _ in range(min(c, 3)):
                row[rng.randrange(c)] = rng.choice((1, -1))
        if c and rng.random() < 0.2:
            row[rng.randrange(c)] = rng.randint(-10 ** 30, 10 ** 30)
        rows.append(row)
    return IntegerMatrix(rows, c)


def eliminated(m):
    """The form of m by the elimination alone, whatever the shape of m."""
    return SmithForm(*matrices._eliminated_smith(m))


def group_diagonal(m):
    """The group-only route's diagonal, with its trailing zeros."""
    diagonal = matrices._group_diagonal(m)
    return (*diagonal, *[0] * (min(m.rows, m.cols) - len(diagonal)))


def forms_digest(forms):
    """sha256 of repr((rows, cols, entries)) of u, d and v of each form."""
    h = hashlib.sha256()
    for form in forms:
        for part in (form.u, form.d, form.v):
            h.update(repr((part.rows, part.cols, part.entries())).encode())
    return h.hexdigest()


# sha256 of u, d and v over the 300 matrices below, recorded with a
# pivot scan over every entry; pins the pivot sequence
PIVOT_SEQUENCE_DIGEST = (
    "610773cf9bfbd74d03f1c9a1257d56dba26544650cd0789e86883901493aa6dc"
)


def test_snf_transforms_match_golden_digest():
    rng = random.Random(20261018)
    forms = (eliminated(unit_rich_matrix(rng)) for _ in range(300))
    assert forms_digest(forms) == PIVOT_SEQUENCE_DIGEST


def hard_snf_inputs():
    """The three family presentations at six n, then four dense matrices.

    n = -10^50 - 125 has a longitude closing that reruns its pivot step
    85 times and grows transforms of about 12,000 bits; the dense
    16..24 square matrices exercise coefficient growth.
    """
    for n in (2, 3, -7, 10 ** 6 + 3, 10 ** 50 + 7, -10 ** 50 - 125):
        link, fills = mn_framed_link(n)
        yield build_presentation(link, fills)
        for closing in (MERIDIAN, LONGITUDE):
            yield fill_remaining(link, fills, {"x": closing})
    rng = random.Random(1979)
    for _ in range(4):
        k = rng.randint(16, 24)
        yield IntegerMatrix(
            [[rng.randint(-9, 9) for _ in range(k)] for _ in range(k)])


# sha256 of u, d and v over hard_snf_inputs(), recorded before the
# elimination loop was rewritten; pins the pivot sequence where
# transforms grow large
HARD_INPUTS_DIGEST = (
    "53c4bf169c12972854498614d722b442e23b4093b1d03ce31888ef96ccdb2ad2"
)


def test_snf_transforms_of_hard_inputs_match_golden_digest():
    forms = map(eliminated, hard_snf_inputs())
    assert forms_digest(forms) == HARD_INPUTS_DIGEST


def growth_inputs():
    """Dense 30 x 30 and 40 x 40 matrices, then a wide and a tall one.

    Entries in [-9, 9]; the 40 x 40 grows transforms of about 4,400
    bits, the regime where building u and v costs the most.
    """
    rng = random.Random(1998)
    for r, c in ((30, 30), (40, 40), (20, 32), (32, 20)):
        yield IntegerMatrix(
            [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)], c)


# sha256 of u, d and v over growth_inputs(), recorded while u and v were
# still built by one elimination on the block [[m, I], [I, 0]]
GROWTH_INPUTS_DIGEST = (
    "dbb7e033587ccd5fcf37a72a5989108c84e55630aacbb235e43efaaa25b2548b"
)


def test_snf_transforms_of_growth_inputs_match_golden_digest():
    forms = map(eliminated, growth_inputs())
    assert forms_digest(forms) == GROWTH_INPUTS_DIGEST


def hermite_route_inputs():
    """The inputs of the four digests of the elimination, and more.

    unit_rich_matrix's 300 and gate_inputs(), which holds the family
    closings at n = 10^50 + 7 and -10^50 - 125; then non-cyclic
    A * diag(1, ..., 1, 2, 6, 12, 24) * B of unimodular A and B past the
    7 x 7 cap of minors_gcd_oracle, and a dense 60 x 60.
    """
    rng = random.Random(20261018)
    yield from (unit_rich_matrix(rng) for _ in range(300))
    yield from gate_inputs()
    rng = random.Random(1987)
    for k in (8, 13, 20):
        yield (unimodular(rng, k) * diag(*[1] * (k - 4), 2, 6, 12, 24)
               * unimodular(rng, k))
    yield dense(60, 60)


# sha256 of u, d and v over hermite_route_inputs(), recorded when the
# nonsingular square ones first took their Hermite form
HERMITE_ROUTE_DIGEST = (
    "1599536eca9a9a193c138ff009202267adf056a36204feb797cf4516c0d94b26"
)


def test_snf_transforms_of_the_hermite_route_match_golden_digest():
    eager, noncyclic = [], 0
    for m in hermite_route_inputs():
        form = assert_snf_contract(m)
        assert form.d == eliminated(m).d
        assert group_diagonal(m) == form.diagonal
        eager.append(form)
        group = form.cokernel
        noncyclic += (m.rows > 7 and not group.free_rank
                      and len(group.invariant_factors) > 1)
    assert noncyclic >= 3
    assert forms_digest(eager) == HERMITE_ROUTE_DIGEST


def test_hermite_route_transforms_stay_within_hadamard_bound():
    # every k x k minor of m is at most the product of the norms of its
    # k rows (Hadamard), so |det m| and each entry of adj m are at most
    # h = prod ||m_i||.  A row of H sums to at most |det m| + n - 1, so
    # U0 = H * adj(m) / det m has entries at most n * h, and V1's lie
    # below |det m| <= h: these bound u and v where H has at most one
    # diagonal entry above 1.  The elimination of a block of
    # k > 1 such columns acts on entries below |det m| with no proved
    # bound; it is allowed a factor (n * h)^2 per column beyond the first
    proved = 0
    for m in [*hermite_route_inputs(), dense(59, 60)]:
        if m.rows != m.cols or not m.det():
            continue
        n, h2 = m.rows, prod(sum(x * x for x in row) for row in m.entries())
        h = matrices._hermite_mod(m.entries(), abs(m.det()))
        k = max(1, sum(row[i] != 1 for i, row in enumerate(h)))
        form = smith_normal_form(m)
        u, v = ([abs(x) for row in part.entries() for x in row] + [0]
                for part in (form.u, form.v))
        assert max(u) ** 2 <= (n * n * h2) ** (2 * k - 1), (n, k)
        assert max(v) ** 2 <= h2 * (n * n * h2) ** (2 * k - 2), (n, k)
        proved += k == 1
    assert proved >= 30


# ------------------------------------------------- large eliminated forms

def dense(seed, r, c=None):
    """A seeded r x c matrix (square without c) of entries in [-9, 9]."""
    c = r if c is None else c
    rng = random.Random(seed)
    return IntegerMatrix(
        [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)], c)


def gate_inputs():
    """growth_inputs(), hard_snf_inputs() and a dense 36 x 36."""
    return [*growth_inputs(), *hard_snf_inputs(), dense(36, 36)]


# sha256 of u, d and v over gate_inputs() by the elimination alone;
# pins its pivot sequence on these inputs
GATE_INPUTS_DIGEST = (
    "4a7aa854c379be7fd6c8e312c0fee2e0d1cb0ec2cf150a68529d1ce98e1d7678"
)


def test_snf_transforms_of_gate_inputs_match_golden_digest():
    h = hashlib.sha256()
    for m in gate_inputs():
        form = eliminated(m)
        for part in (form.u, form.d, form.v):
            h.update(repr(part.entries()).encode())
    assert h.hexdigest() == GATE_INPUTS_DIGEST


def singular(seed, k):
    """dense(seed, k) with its last row made the sum of its first two.

    A nonsingular square matrix takes its Hermite form; a singular one
    keeps the elimination.
    """
    rows = [list(row) for row in dense(seed, k).entries()]
    rows[-1] = [x + y for x, y in zip(rows[0], rows[1])]
    return IntegerMatrix(rows)


# sha256 of u, d and v of the eager forms of singular(40, 40) and
# dense(1640, 40, 41), which both take the elimination
LARGE_ELIMINATED_DIGEST = (
    "4cb1b0e47403c672405593e1bbb0d9e3fe00f8714df663570e3910912b1e04f7"
)


def test_large_eliminated_forms_match_digest_in_this_process(monkeypatch):
    def refuse():
        raise AssertionError("a Smith form forked a process")

    monkeypatch.setattr(os, "fork", refuse)
    forms = [smith_normal_form(singular(40, 40)),
             smith_normal_form(dense(1640, 40, 41))]
    assert forms_digest(forms) == LARGE_ELIMINATED_DIGEST


def seeded_blocks():
    """diag(2, 3), then seeded matrices up to 6 x 6 of every shape.

    One in four as drawn, one with a zero row, one with a zero column
    and one with its last row the sum of its first two.
    """
    yield diag(2, 3)
    rng = random.Random(3434)
    for case in range(400):
        m = random_matrix(rng)
        rows = [list(row) for row in m.entries()]
        if case % 4 == 1 and rows:
            rows[rng.randrange(m.rows)] = [0] * m.cols
        elif case % 4 == 2 and m.cols:
            j = rng.randrange(m.cols)
            for row in rows:
                row[j] = 0
        elif case % 4 == 3 and m.rows > 2:
            rows[-1] = [x + y for x, y in zip(rows[0], rows[1])]
        yield IntegerMatrix(rows, m.cols)


def test_a_seeded_block_composes_its_transforms():
    # the Hermite route seeds the block [B | S] over R with its rows of
    # U and columns of V; the elimination must end with u_B * S and
    # R * v_B, (u_B, d_B, v_B) the form of B from identity seeds
    rng = random.Random(34)
    shapes = set()
    for b in seeded_blocks():
        r, c = b.rows, b.cols
        form = eliminated(b)
        w, h = rng.randint(0, 4), rng.randint(0, 4)
        s = IntegerMatrix([[rng.randint(-10 ** 20, 10 ** 20) for _ in range(w)]
                           for _ in range(r)], w)
        below = IntegerMatrix(
            [[rng.randint(-10 ** 20, 10 ** 20) for _ in range(c)]
             for _ in range(h)], c)
        a = [[*x, *y] for x, y in zip(b.entries(), s.entries())]
        a += [list(row) for row in below.entries()]
        diagonal = matrices._eliminate(a, (r, c))
        assert IntegerMatrix([row[:c] for row in a[:r]], c) == form.d
        assert diagonal == list(form.diagonal[:len(diagonal)])
        assert not any(form.diagonal[len(diagonal):])
        assert IntegerMatrix([row[c:] for row in a[:r]], w) == form.u * s
        assert IntegerMatrix(a[r:], c) == below * form.v
        shapes.add((r == c, form.rank < min(r, c)))
    assert shapes == {(True, True), (True, False), (False, True),
                      (False, False)}


def ring_presentation(rng, k, necklace=False, open_components=0):
    """The presentation of a chain (or a necklace) of k unknots.

    Each component links its neighbours once, and a necklace closes the
    ring; every filling is n/1 for n in [-7, 7] but for one in four
    n/2, and the last open_components components stay unfilled.
    """
    link = FramedLink([
        [int(abs(i - j) == 1 or necklace and abs(i - j) == k - 1)
         for j in range(k)] for i in range(k)])
    fills = {}
    for i in range(k - open_components):
        q = 2 if rng.random() < 0.25 else 1
        p = rng.choice([p for p in range(-7, 8) if gcd(p, q) == 1])
        fills[i] = f"{p}/{q}"
    return build_presentation(link, fills)


def group_only_inputs():
    """Seeded matrices past the 7 x 7 cap of minors_gcd_oracle.

    Square up to 24 x 24, rectangular both ways, rank-deficient
    products of a tall and a wide factor, and matrices with no rows or
    no columns.  Then the shapes of the gcd finish: unit-heavy chain
    and necklace presentations of 2 to 30 components, one row or one
    column, 2 x 2 blocks of det 0 or all zero, alone and behind unit
    pivots, and dense singular or rectangular matrices.
    """
    rng = random.Random(20261019)

    def rand(r, c, bound=9):
        return [[rng.randint(-bound, bound) for _ in range(c)]
                for _ in range(r)]

    for k in (8, 12, 16, 20, 24):
        yield IntegerMatrix(rand(k, k), k)
    for r, c in ((9, 14), (14, 9), (3, 20), (20, 3)):
        yield IntegerMatrix(rand(r, c), c)
    for k, rank in ((10, 4), (16, 9), (12, 0)):
        yield (IntegerMatrix(rand(k, rank, 3), rank)
               * IntegerMatrix(rand(rank, k, 3), k))
    for k in (1, 5, 12):
        yield IntegerMatrix([], k)
        yield IntegerMatrix([[]] * k, 0)
    for k in (2, 3, 7, 16, 30):
        for necklace in (False, True):
            yield ring_presentation(rng, k, necklace)
        yield ring_presentation(rng, k, open_components=k // 3 or 1)
    for r, c in ((1, 1), (1, 6), (6, 1), (1, 9), (9, 1)):
        yield IntegerMatrix(rand(r, c, 10 ** 20), c)
        yield IntegerMatrix([[0] * c] * r, c)
    for block in ([0, 0], [0, 0]), ([6, -4], [-9, 6]), ([0, 0], [0, 5]):
        yield IntegerMatrix(block)
        behind = [[int(i == j) for j in range(5)] for i in range(3)]
        behind += [[0, 0, 0, *row] for row in block]
        yield (unimodular(rng, 5) * IntegerMatrix(behind)
               * unimodular(rng, 5))
    yield IntegerMatrix(rand(12, 15), 15)
    yield IntegerMatrix(rand(20, 19), 19) * IntegerMatrix(rand(19, 20), 20)


def test_group_only_route_builds_no_transforms(monkeypatch):
    # nor a SmithForm or its d: cokernel reads the group off the diagonal
    inputs = list(group_only_inputs())

    def refuse(*args):
        raise AssertionError("the group-only route built transforms")

    with monkeypatch.context() as patched:
        for name in ("_full_smith", "_adjugate", "_eliminated_smith",
                     "_diagonal", "SmithForm"):
            patched.setattr(matrices, name, refuse)
        diagonals = [group_diagonal(m) for m in inputs]
        groups = [cokernel(m) for m in inputs]
    deficits = set()
    for m, diagonal, group in zip(inputs, diagonals, groups):
        eager = smith_normal_form(m)
        assert diagonal == eager.diagonal and group == eager.cokernel
        deficits.add(min(m.rows, m.cols) - eager.rank)
    assert max(deficits) > 0, "no rank-deficient input"


def test_every_block_the_gcd_finish_takes(monkeypatch):
    # group_only_inputs() takes the gcd finish through each of its
    # cases: 1 x 1, one row, one column, and 2 x 2 of det != 0, of
    # det 0 and all zero
    blocks = []
    real = matrices._small_diagonal

    def spy(a):
        blocks.append(a)
        return real(a)

    monkeypatch.setattr(matrices, "_small_diagonal", spy)
    for m in group_only_inputs():
        cokernel(m)
    shapes = {(min(len(a), 3), min(len(a[0]), 3)) for a in blocks}
    assert {(1, 1), (1, 3), (3, 1), (2, 2)} <= shapes
    squares = [a for a in blocks if (len(a), len(a[0])) == (2, 2)]
    dets = [a[0][0] * a[1][1] - a[0][1] * a[1][0] for a in squares]
    assert [[0, 0], [0, 0]] in squares
    assert any(d == 0 and any(map(any, a)) for a, d in zip(squares, dets))
    assert any(d != 0 for d in dets)


def family_presentations(n):
    """The exterior and its two closings, x -> 1/0 and x -> 0/1."""
    link, fills = mn_framed_link(n)
    return [build_presentation(link, fills),
            *(fill_remaining(link, fills, {"x": closing})
              for closing in (MERIDIAN, LONGITUDE))]


def test_family_forms_take_no_euclid_pass(monkeypatch):
    # the longitude closing of n = -10^50 - 125 once reran its last
    # pivot 85 times; now every family remainder after the unit pivots
    # goes whole to the gcd finish, which _eliminate reaches at t = 0,
    # before its first pass
    window = range(-10 ** 50 - 130, -10 ** 50 - 30)
    inputs = [m for n in window for m in family_presentations(n)]
    assert family_presentations(-10 ** 50 - 125)[2] in inputs
    entered, finished = [], []
    real_eliminate, real_small = matrices._eliminate, matrices._small_diagonal

    def eliminate(a, shape=None):
        entered.append([row[:] for row in a])
        return real_eliminate(a, shape)

    def small(a):
        finished.append(a)
        return real_small(a)

    monkeypatch.setattr(matrices, "_eliminate", eliminate)
    monkeypatch.setattr(matrices, "_small_diagonal", small)
    diagonals = [group_diagonal(m) for m in inputs]
    assert len(entered) == len(inputs) and finished == entered
    monkeypatch.undo()
    for m, diagonal in zip(inputs, diagonals):
        assert diagonal == smith_normal_form(m).diagonal


def unimodular(rng, k):
    """L * U with unit diagonals and entries in [-2, 2]: determinant 1."""
    lower = [[rng.randint(-2, 2) if j < i else int(i == j) for j in range(k)]
             for i in range(k)]
    upper = [[rng.randint(-2, 2) if j > i else int(i == j) for j in range(k)]
             for i in range(k)]
    return IntegerMatrix(lower) * IntegerMatrix(upper)


def nonsingular(rng, k, bound=9):
    while True:
        m = IntegerMatrix(
            [[rng.randint(-bound, bound) for _ in range(k)] for _ in range(k)])
        if m.det():
            return m


def unit_free(rng, k):
    """The rows of a k x k of entries 2..9 in absolute value: no unit."""
    return [[rng.choice((-1, 1)) * rng.randint(2, 9) for _ in range(k)]
            for _ in range(k)]


def route_rows():
    """(name, inputs, the finish each rest takes after the unit pivots).

    A finish is certified (kept adjugate columns prove the cokernel
    cyclic, and no other finish runs), modular (_diagonal_mod), gcd
    (_eliminate hands its whole block to _small_diagonal), euclid
    (_eliminate runs a pass first) or none (the unit pivots use up every
    row or every column).
    """
    rng = random.Random(1991)
    dense_rows = [nonsingular(rng, k) for k in (8, 9, 12, 16, 24, 32, 40)]
    yield "dense 8..40, cyclic", dense_rows[:4] + dense_rows[6:], "certified"
    yield "dense 24 and 32, not cyclic", dense_rows[4:6], "modular"
    near = [nonsingular(rng, 8, 10 ** 30) for _ in range(4)]
    yield "near 10^30, cyclic", near[:3], "certified"
    yield "near 10^30, not cyclic", near[3:], "modular"
    # A * diag(1, ..., 1, tail) * B with unimodular A and B and
    # non-generic tails; an empty tail makes |det| = 1
    tails = [
        unimodular(rng, k) * diag(*[1] * (k - len(tail)), *tail)
        * unimodular(rng, k)
        for tail in ((2, 6, 12, 24), (24, 4, 9, 10), (3, 3, 3, 3, 3),
                     (4, 12, 36), ())
        for k in (8, 13, 20)]
    yield "non-generic", tails[:12], "modular"
    yield "|det| = 1", tails[12:], "certified"
    while True:
        five = IntegerMatrix(unit_free(rng, 5))
        if five.det():
            break
    yield "unit-free 5x5", [five], "certified"
    while True:
        # zeros on exactly a quarter of an 8 x 8, then on one entry more
        rows = unit_free(rng, 8)
        for i in range(8):
            for j in range(8):
                if (i + 2 * j) % 4 == 0:
                    rows[i][j] = 0
        quarter = IntegerMatrix(rows)
        rows[0][1] = 0
        more = IntegerMatrix(rows)
        if quarter.det() and more.det():
            break
    yield "quarter zero", [quarter], "certified"
    yield "over a quarter zero", [more], "euclid"
    yield "singular 20x20", [dense(6, 20, 19) * dense(7, 19, 20)], "euclid"
    # a chain of 9 unknots linking their neighbours twice, on framings
    # +-3..+-9: nonsingular, and no entry is +-1
    link = FramedLink([[2 * (abs(i - j) == 1) for j in range(9)]
                       for i in range(9)])
    yield "unit-free chain", [build_presentation(link, {
        i: f"{rng.choice((-1, 1)) * rng.randint(3, 9)}/1"
        for i in range(9)})], "euclid"
    yield "dense 12x15", [dense(5, 12, 15)], "euclid"
    yield "family", [m for n in (2, 3, -7, 10 ** 6, -10 ** 50 - 125)
                     for m in family_presentations(n)], "gcd"
    yield "units use every row or column", [
        IntegerMatrix([[1], [2], [3]]), IntegerMatrix([[1, 4, 6]])], "none"


def test_modular_route_matches_eliminate(monkeypatch):
    # the certified finish shares no code with _eliminate either, so
    # its rows are checked against it too
    inputs = {finish: [m for _, ms, f in route_rows() if f == finish
                       for m in ms] for finish in ("modular", "certified")}
    taken = []
    real = matrices._diagonal_mod

    def spy(a, delta):
        taken.append(a)
        return real(a, delta)

    monkeypatch.setattr(matrices, "_diagonal_mod", spy)
    for m in inputs["modular"] + inputs["certified"]:
        assert group_diagonal(m) == eliminated(m).diagonal
    assert len(taken) == len(inputs["modular"])
    for ms in inputs.values():
        dets = [m.det() for m in ms]
        assert min(dets) < 0 < max(dets)
    assert 1 in [abs(m.det()) for m in inputs["certified"]]


def test_modular_route_does_not_fall_back(monkeypatch):
    m = nonsingular(random.Random(12), 12)
    eager = smith_normal_form(m)

    def refuse(*args):
        raise AssertionError("group-only form fell back to _eliminate")

    monkeypatch.setattr(matrices, "_eliminate", refuse)
    assert group_diagonal(m) == eager.diagonal
    assert cokernel(m) == eager.cokernel


def test_modular_route_gate(monkeypatch):
    # the rest after the unit pivots alone picks the finish, and every
    # finish gives the eager d
    calls = []

    def spy(name):
        real = getattr(matrices, name)

        def call(a, *args):
            calls.append((name, [list(row) for row in a]))
            return real(a, *args)
        return call

    rows = list(route_rows())
    eager = [[smith_normal_form(m).diagonal for m in inputs]
             for _, inputs, _ in rows]
    for name in ("_eliminate", "_small_diagonal", "_diagonal_mod"):
        monkeypatch.setattr(matrices, name, spy(name))
    for (row, inputs, expected), ds in zip(rows, eager):
        for m, d in zip(inputs, ds):
            calls.clear()
            assert group_diagonal(m) == d, row
            (first, block), *rest = calls or [(None, None)]
            if first is None:
                finish = "certified"
            elif first == "_diagonal_mod" and not rest:
                finish = "modular"
            elif not block or not block[0]:
                finish = "none"
            elif rest == [("_small_diagonal", block)]:
                finish = "gcd"
            else:
                finish = "euclid"
            assert finish == expected, row


def test_modular_route_agrees_with_sympy():
    # a third route past the 7 x 7 cap of minors_gcd_oracle, for each
    # finish of the group-only route; sympy is a test oracle only (the
    # test extra installs it), never a dependency
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    rng = random.Random(2024)
    inputs = [nonsingular(rng, k) for k in (8, 11, 17, 23, 30)]
    inputs += [unimodular(rng, k) * diag(*[1] * (k - 3), 4, 12, 36)
               * unimodular(rng, k) for k in (9, 15)]
    inputs += [ring_presentation(rng, 16, necklace=True), dense(5, 12, 15),
               dense(6, 20, 19) * dense(7, 19, 20),
               *family_presentations(-10 ** 50 - 125)]
    assert inputs[-4].det() == 0
    for m in inputs:
        factors = invariant_factors(
            sympy.Matrix([list(row) for row in m.entries()]),
            domain=sympy.ZZ)
        expected = tuple(abs(int(x)) for x in factors)
        assert group_diagonal(m) == expected


def adjugate_inputs():
    """Seeded nonsingular 8 x 8 to 60 x 60, then six non-cyclic inputs.

    The last six are A * diag(1, ..., 1, tail) * B of unimodular A and
    B, two tails at 9 x 9, 16 x 16 and 25 x 25 each.
    """
    rng = random.Random(2027)
    inputs = [nonsingular(rng, k) for k in (8, 12, 20, 33, 47, 60)]
    inputs += [unimodular(rng, k) * diag(*[1] * (k - len(tail)), *tail)
               * unimodular(rng, k)
               for tail in ((2, 6, 12), (3, 3, 9, 27)) for k in (9, 16, 25)]
    return inputs


def test_last_invariant_factor_from_the_adjugate():
    # a second route to the group-only diagonal past the 7 x 7 cap: for
    # nonsingular square m, d_1 ... d_(n-1) = gcd(adj m) and d_1 ... d_n
    # = |det m| (Newman, Integral Matrices, ch. II), so d_n = |det m| /
    # gcd(adj m), and coker m is cyclic exactly when gcd(adj m) = 1.
    # The group-only route reads adjugate columns from the same kernel
    # for a cyclic dense rest; the routes that share no code with it are
    # _eliminate, sympy and minors_gcd_oracle, and det m here
    # is the separate Bareiss elimination of IntegerMatrix.det
    inputs = adjugate_inputs()
    inputs += [m for _, ms, _ in route_rows() for m in ms
               if m.rows == m.cols]
    cyclic, singular = [], 0
    for m in inputs:
        if not m.det():
            assert matrices._adjugate(m) is None
            singular += 1
            continue
        d, r = matrices._adjugate(m)
        assert abs(d) == abs(m.det())
        g = gcd(*(x for row in r for x in row))
        group = cokernel(m)
        assert (group.invariant_factors or (1,))[-1] == abs(d) // g
        assert group.is_cyclic == (g == 1)
        cyclic.append(group.is_cyclic)
    assert cyclic.count(False) >= 6 and any(cyclic) and singular


def test_no_non_cyclic_input_is_certified(monkeypatch):
    # a certified finish would give d = diag(1, ..., 1, |det m|), wrong
    # for each of these; each must reach the modular finish instead
    inputs = [m for _, ms, finish in route_rows() if finish == "modular"
              for m in ms] + adjugate_inputs()[6:]
    taken = []
    real = matrices._diagonal_mod

    def spy(a, delta):
        taken.append(a)
        return real(a, delta)

    monkeypatch.setattr(matrices, "_diagonal_mod", spy)
    for m in inputs:
        taken.clear()
        assert not cokernel(m).is_cyclic
        assert len(taken) == 1


def test_modular_hermite_form():
    # upper triangular, each entry above a diagonal entry h in [0, h),
    # diagonal product |det m|, and H * m^-1 = H * r / d integral, so
    # the rows of H lie in the row span of m and span it
    inputs = [m for _, ms, finish in route_rows()
              if finish in ("modular", "certified") for m in ms]
    for m in inputs:
        d, r = matrices._adjugate(m)
        h = matrices._hermite_mod(m.entries(), abs(d))
        n = m.rows
        assert prod(h[i][i] for i in range(n)) == abs(d)
        for i, row in enumerate(h):
            assert row[:i] == [0] * i and row[i] > 0
            assert all(0 <= x < h[j][j] for j, x in enumerate(row)
                       if j > i)
        assert not any(x % d for row in (IntegerMatrix(h)
                                         * IntegerMatrix(r)).entries()
                       for x in row)


def test_cokernel_invariant_under_row_operations():
    rng = random.Random(59)
    for _ in range(200):
        m = random_matrix(rng, max_dim=5)
        rows = [list(r) for r in m.entries()]
        group = cokernel(m)
        if m.rows >= 2:
            i, j = rng.sample(range(m.rows), 2)
            permuted = list(rows)
            permuted[i], permuted[j] = permuted[j], permuted[i]
            assert cokernel(IntegerMatrix(permuted, m.cols)) == group
            added = [list(r) for r in rows]
            mult = rng.randint(-3, 3)
            for k in range(m.cols):
                added[i][k] += mult * rows[j][k]
            assert cokernel(IntegerMatrix(added, m.cols)) == group
        if m.rows >= 1:
            negated = [list(r) for r in rows]
            negated[0] = [-x for x in negated[0]]
            assert cokernel(IntegerMatrix(negated, m.cols)) == group
        if m.cols >= 2:
            i, j = rng.sample(range(m.cols), 2)
            swapped = [list(r) for r in rows]
            for r in swapped:
                r[i], r[j] = r[j], r[i]
            assert cokernel(IntegerMatrix(swapped, m.cols)) == group


# ------------------------------------------------------------------ groups

def test_group_validation():
    with pytest.raises(MatrixError):
        AbelianGroup(-1, ())
    with pytest.raises(MatrixError):
        AbelianGroup(0, (1,))
    with pytest.raises(MatrixError):
        AbelianGroup(0, (4, 6))
    AbelianGroup(0, (2, 6))


def test_group_str():
    assert str(AbelianGroup(0, ())) == "0"
    assert str(AbelianGroup(1, ())) == "Z"
    assert str(AbelianGroup(2, ())) == "Z^2"
    assert str(AbelianGroup(0, (5,))) == "Z/5"
    assert str(AbelianGroup(1, (5,))) == "Z + Z/5"
    assert str(AbelianGroup(0, (2, 6))) == "Z/2 + Z/6"


def test_group_predicates():
    assert AbelianGroup(0, (7,)).is_cyclic
    assert AbelianGroup(0, ()).is_cyclic
    assert not AbelianGroup(0, (2, 4)).is_cyclic
    assert not AbelianGroup(1, ()).is_cyclic
    assert AbelianGroup(0, (2, 4)).order() == 8
    assert AbelianGroup(1, (5,)).order() is None


def test_cokernel_examples():
    assert cokernel(IntegerMatrix([], 3)) == AbelianGroup(3, ())
    assert cokernel(IntegerMatrix([[1, 0], [0, 1]])) == AbelianGroup(0, ())
    assert cokernel(diag(2, 3)) == AbelianGroup(0, (6,))
    assert cokernel(IntegerMatrix([[0]])) == AbelianGroup(1, ())


# ------------------------------------------------------------------ oracle

def test_oracle_size_cap():
    with pytest.raises(MatrixError):
        minors_gcd_oracle(IntegerMatrix([[0, 0]] * 8))
    minors_gcd_oracle(IntegerMatrix([[0] * 7] * 7))


def test_oracle_on_known_values():
    assert minors_gcd_oracle(diag(2, 3)) == AbelianGroup(0, (6,))
    eye = IntegerMatrix([[1, 0], [0, 1]])
    assert minors_gcd_oracle(eye) == AbelianGroup(0, ())
    zero = IntegerMatrix([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    assert minors_gcd_oracle(zero) == AbelianGroup(4, ())


# -------------------------------------------------------------- documents

def test_doc_round_trip():
    m = IntegerMatrix([[10 ** 25, -3], [0, 7]])
    doc = m.to_doc()
    assert doc["entries"][0][0] == str(10 ** 25)
    assert IntegerMatrix.from_doc(doc) == m


def test_doc_accepts_plain_integers():
    m = IntegerMatrix.from_doc(
        {"rows": 1, "cols": 2, "entries": [[3, "4"]]}
    )
    assert m == IntegerMatrix([[3, 4]])


@pytest.mark.parametrize(
    "doc",
    [
        {},
        {"rows": 1, "cols": 1},
        {"rows": 2, "cols": 1, "entries": [["1"]]},
        {"rows": 1, "cols": 2, "entries": [["1"]]},
        {"rows": 1, "cols": 1, "entries": [["x"]]},
        {"rows": -1, "cols": 1, "entries": []},
        {"rows": 1, "cols": 1, "entries": 5},
        {"rows": 1, "cols": 1, "entries": [5]},
        {"rows": 2, "cols": 2, "entries": [[2.5, 0], [0, 3]]},
        {"rows": 1.5, "cols": 1, "entries": [["1"]]},
        {"rows": 1, "cols": 1.0, "entries": [["1"]]},
        {"rows": 1, "cols": 2, "entries": [[True, 2]]},
        {"rows": 1, "cols": 2, "entries": ["12"]},
        {"rows": 1, "cols": 2, "entries": [["1_0", "7"]]},
        {"rows": 1, "cols": 2, "entries": [[" 7\n", "1"]]},
        {"rows": 1, "cols": 2, "entries": [["+3", "1"]]},
        {"rows": 1, "cols": 1, "entries": [["\u0661\u0662"]]},
        {"rows": 1, "cols": 1, "entries": [[""]]},
        {"rows": 1, "cols": 1, "entries": [["-"]]},
        {"rows": "1 ", "cols": 1, "entries": [["1"]]},
    ],
)
def test_doc_validation(doc):
    with pytest.raises(MatrixError):
        IntegerMatrix.from_doc(doc)
