import copy
import hashlib
import os
import pickle
import random
import signal
import threading
from math import prod

import pytest

from dehnkit import (
    LONGITUDE,
    MERIDIAN,
    AbelianGroup,
    FramedLink,
    IntegerMatrix,
    MatrixError,
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


def test_construction_errors():
    with pytest.raises(MatrixError):
        IntegerMatrix([[1, 2], [3]])
    with pytest.raises(MatrixError):
        IntegerMatrix([])
    assert IntegerMatrix([], 3).cols == 3


def test_matrix_rejects_booleans():
    with pytest.raises(TypeError):
        IntegerMatrix([[True]])


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


def test_matrix_survives_copy_and_pickle():
    m = IntegerMatrix([[1, -2], [3, 10 ** 40]])
    for twin in (copy.copy(m), copy.deepcopy(m),
                 pickle.loads(pickle.dumps(m))):
        assert twin == m and (twin.rows, twin.cols) == (2, 2)
        with pytest.raises(AttributeError):
            twin.rows = 3
    empty = IntegerMatrix([], 4)
    assert pickle.loads(pickle.dumps(empty)) == empty


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


def test_snf_property_suite():
    rng = random.Random(101)
    for _ in range(1200):
        m = random_matrix(rng)
        snf = assert_snf_contract(m)
        assert cokernel(m) == minors_gcd_oracle(m)
        # rank from the oracle agrees with the diagonal
        assert snf.rank == sum(1 for x in snf.diagonal if x)


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


# sha256 of u, d and v over the 300 matrices below, recorded with a
# pivot scan over every entry; pins the pivot sequence
PIVOT_SEQUENCE_DIGEST = (
    "610773cf9bfbd74d03f1c9a1257d56dba26544650cd0789e86883901493aa6dc"
)


def test_snf_transforms_match_golden_digest():
    rng = random.Random(20261018)
    h = hashlib.sha256()
    for _ in range(300):
        form = smith_normal_form(unit_rich_matrix(rng))
        for part in (form.u, form.d, form.v):
            h.update(repr((part.rows, part.cols, part.entries())).encode())
    assert h.hexdigest() == PIVOT_SEQUENCE_DIGEST


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
    # eager, then deferred: u and v built on first read are the same
    for transforms in (True, False):
        h = hashlib.sha256()
        for m in hard_snf_inputs():
            form = smith_normal_form(m, transforms=transforms)
            for part in (form.u, form.d, form.v):
                h.update(repr((part.rows, part.cols, part.entries())).encode())
        assert h.hexdigest() == HARD_INPUTS_DIGEST, transforms


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
    h = hashlib.sha256()
    for m in growth_inputs():
        form = smith_normal_form(m)
        for part in (form.u, form.d, form.v):
            h.update(repr((part.rows, part.cols, part.entries())).encode())
    assert h.hexdigest() == GROWTH_INPUTS_DIGEST


# ------------------------------------------------------------ two-core replay

def dense(seed, k):
    rng = random.Random(seed)
    return IntegerMatrix(
        [[rng.randint(-9, 9) for _ in range(k)] for _ in range(k)], k)


def gate_inputs():
    """growth_inputs(), hard_snf_inputs() and a dense 36 x 36."""
    return [*growth_inputs(), *hard_snf_inputs(), dense(36, 36)]


# sha256 of u, d and v over gate_inputs(), recorded with one process
# replaying both u and v
GATE_INPUTS_DIGEST = (
    "4a7aa854c379be7fd6c8e312c0fee2e0d1cb0ec2cf150a68529d1ce98e1d7678"
)


def parts(m):
    form = smith_normal_form(m)
    return tuple(part.entries() for part in (form.u, form.d, form.v))


def in_process_parts(m, monkeypatch):
    with monkeypatch.context() as patched:
        patched.setattr(matrices, "_FORK_MIN", 10 ** 9)
        return parts(m)


@pytest.fixture
def forks(monkeypatch):
    """Two usable CPUs for the gate, and the pids that called os.fork."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    calls = []
    fork = os.fork

    def counting():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    return calls


@pytest.fixture
def reaped():
    """After the test, this process has no child left, live or not."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "case", ["parallel", "no fork", "a second thread", "below the gate"])
def test_transforms_are_the_same_through_every_gate(case, forks, monkeypatch,
                                                    reaped):
    inputs = gate_inputs()
    past_gate = sum(min(m.rows, m.cols) >= matrices._FORK_MIN
                    for m in inputs)
    assert past_gate >= 3
    if case == "no fork":
        monkeypatch.delattr(os, "fork")
    elif case == "below the gate":
        monkeypatch.setattr(matrices, "_FORK_MIN", 10 ** 9)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if case == "a second thread":
        thread.start()
    try:
        h = hashlib.sha256()
        for m in inputs:
            for part in parts(m):
                h.update(repr(part).encode())
    finally:
        stop.set()
        if case == "a second thread":
            thread.join(timeout=60)
    assert not thread.is_alive()
    assert h.hexdigest() == GATE_INPUTS_DIGEST
    assert len(forks) == (past_gate if case == "parallel" else 0)


def test_one_usable_cpu_replays_in_process(forks, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    smith_normal_form(dense(36, 36))
    assert forks == []


def spy_v(monkeypatch, in_child):
    """Runs in_child(real v rows) as the child's v; returns parent calls."""
    parent = os.getpid()
    replay_v = matrices._replay_v
    calls = []

    def spy(log, nc):
        if os.getpid() != parent:
            return in_child(replay_v(log, nc))
        calls.append(nc)
        return replay_v(log, nc)

    monkeypatch.setattr(matrices, "_replay_v", spy)
    return calls


def test_v_comes_from_the_child(forks, monkeypatch, reaped):
    m = dense(40, 40)
    expected = in_process_parts(m, monkeypatch)
    replays = spy_v(monkeypatch, lambda v: v)
    assert parts(m) == expected
    assert (len(forks), replays) == (1, [])


def fail(rows):
    raise RuntimeError("the child failed")


def exit_three(rows):
    # every row is sent, then the child exits 3
    exit = os._exit
    os._exit = lambda status: exit(3)
    return rows


def exit_midway(rows):
    # half of v goes out, and _exit drops what the child's write buffer
    # still holds, which cuts the last frame short
    yield from rows[:len(rows) // 2]
    os._exit(0)


@pytest.mark.parametrize("in_child", [
    fail, exit_three, lambda rows: rows[:len(rows) // 2], exit_midway],
    ids=["raises", "exits 3", "sends half", "exits midway"])
def test_a_failed_child_leaves_v_to_this_process(in_child, forks,
                                                 monkeypatch, reaped):
    m = dense(40, 40)
    expected = in_process_parts(m, monkeypatch)
    replays = spy_v(monkeypatch, in_child)
    assert parts(m) == expected
    assert (len(forks), replays) == (1, [40])


def test_a_child_reaped_elsewhere_leaves_v_to_this_process(forks,
                                                          monkeypatch,
                                                          reaped):
    # with SIGCHLD ignored the kernel reaps the child, and waitpid fails
    m = dense(40, 40)
    expected = in_process_parts(m, monkeypatch)
    replays = spy_v(monkeypatch, lambda v: v)
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        assert parts(m) == expected
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert (len(forks), replays) == (1, [40])


@pytest.mark.parametrize("name", ["pipe", "fork"])
def test_no_pipe_or_no_fork_replays_in_process(name, forks, monkeypatch,
                                               reaped):
    m = dense(40, 40)
    expected = in_process_parts(m, monkeypatch)

    def refuse():
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, name, refuse)
    assert parts(m) == expected


def test_a_failed_u_replay_reaps_the_child_and_raises(forks, monkeypatch,
                                                      reaped):
    # v of a 40 x 40 overfills the pipe, so the child waits on its write
    # until the read end is closed
    def fail_u(log, nr):
        raise RuntimeError("u failed")

    def deadlock(signum, frame):
        raise TimeoutError("waited on a child blocked on its write")

    monkeypatch.setattr(matrices, "_replay_u", fail_u)
    previous = signal.signal(signal.SIGALRM, deadlock)
    signal.alarm(30)
    try:
        with pytest.raises(RuntimeError, match="u failed"):
            smith_normal_form(dense(40, 40))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert len(forks) == 1


def group_only_inputs():
    """Seeded matrices past the 7 x 7 cap of minors_gcd_oracle.

    Square up to 24 x 24, rectangular both ways, rank-deficient
    products of a tall and a wide factor, and matrices with no rows or
    no columns.
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


def test_group_only_form_defers_the_eager_transforms(monkeypatch):
    inputs = list(group_only_inputs())

    def refuse(*args):
        raise AssertionError("group-only mode built transforms")

    with monkeypatch.context() as patched:
        for name in ("_full_smith", "_replay_forked", "_replay_u",
                     "_replay_v"):
            patched.setattr(matrices, name, refuse)
        forms = [smith_normal_form(m, transforms=False) for m in inputs]
        groups = [cokernel(m) for m in inputs]
    deficits = set()
    for m, form, group in zip(inputs, forms, groups):
        eager = smith_normal_form(m)
        assert form.d == eager.d and group == eager.cokernel
        assert (form.u, form.v) == (eager.u, eager.v)
        assert form.u * m * form.v == form.d
        deficits.add(min(m.rows, m.cols) - eager.rank)
    assert max(deficits) > 0, "no rank-deficient input"


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


def modular_route_inputs():
    """Nonsingular square matrices from 8 x 8 to 40 x 40.

    Dense ones with entries in [-9, 9], A * diag(1, ..., 1, tail) * B
    with unimodular A and B and non-generic tails (an empty tail makes
    |det| = 1), and 8 x 8 ones with entries near 10^30.
    """
    rng = random.Random(1991)
    for k in (8, 9, 12, 16, 24, 32, 40):
        yield nonsingular(rng, k)
    for tail in ((2, 6, 12, 24), (24, 4, 9, 10), (3, 3, 3, 3, 3),
                 (4, 12, 36), ()):
        for k in (8, 13, 20):
            ones = [1] * (k - len(tail))
            yield unimodular(rng, k) * diag(*ones, *tail) * unimodular(rng, k)
    for _ in range(4):
        yield nonsingular(rng, 8, 10 ** 30)


def test_modular_route_matches_eliminate(monkeypatch):
    inputs = list(modular_route_inputs())
    taken = []
    real = matrices._diagonal_mod

    def spy(m, delta):
        taken.append(m)
        return real(m, delta)

    monkeypatch.setattr(matrices, "_diagonal_mod", spy)
    for m in inputs:
        a = [list(row) for row in m.entries()]
        matrices._eliminate(a)
        assert smith_normal_form(m, transforms=False).d == IntegerMatrix(a)
    assert taken == inputs
    dets = [m.det() for m in inputs]
    assert min(dets) < 0 < max(dets) and 1 in map(abs, dets)


def test_modular_route_does_not_fall_back(monkeypatch):
    m = nonsingular(random.Random(12), 12)
    eager = smith_normal_form(m)

    def refuse(*args):
        raise AssertionError("group-only form fell back to _eliminate")

    monkeypatch.setattr(matrices, "_eliminate", refuse)
    assert smith_normal_form(m, transforms=False).d == eager.d
    assert cokernel(m) == eager.cokernel


def test_modular_route_gate(monkeypatch):
    rng = random.Random(10)
    singular = (IntegerMatrix([[rng.randint(-9, 9) for _ in range(9)]
                               for _ in range(10)])
                * IntegerMatrix([[rng.randint(-9, 9) for _ in range(10)]
                                 for _ in range(9)]))
    below = nonsingular(rng, 7)
    # a 12-component chain link on small integral framings: nonsingular,
    # and 110 of its 144 entries are zero
    link = FramedLink([[int(abs(i - j) == 1) for j in range(12)]
                       for i in range(12)])
    chain = build_presentation(link, {
        i: f"{rng.choice((-1, 1)) * rng.randint(2, 7)}/1" for i in range(12)})
    while True:
        # zeros on exactly a quarter of an 8 x 8, then on one entry more
        rows = [[0 if (i + 2 * j) % 4 == 0 else rng.randint(-9, 9) or 1
                 for j in range(8)] for i in range(8)]
        quarter = IntegerMatrix(rows)
        rows[0][1] = 0
        more = IntegerMatrix(rows)
        if quarter.det() and more.det():
            break
    assert singular.det() == 0 and (below.rows, below.cols) == (7, 7)
    assert chain.det() and sum(row.count(0) for row in chain.entries()) == 110
    taken = []
    real = matrices._diagonal_mod

    def spy(m, delta):
        taken.append(m)
        return real(m, delta)

    monkeypatch.setattr(matrices, "_diagonal_mod", spy)
    for m in (singular, below, chain, quarter, more):
        eager = smith_normal_form(m)
        assert smith_normal_form(m, transforms=False).d == eager.d
    assert taken == [quarter]


def test_modular_route_agrees_with_sympy():
    # a third route past the 7 x 7 cap of minors_gcd_oracle; sympy is a
    # test oracle only, never a dependency
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    rng = random.Random(2024)
    inputs = [nonsingular(rng, k) for k in (8, 11, 17, 23, 30)]
    inputs += [unimodular(rng, k) * diag(*[1] * (k - 3), 4, 12, 36)
               * unimodular(rng, k) for k in (9, 15)]
    for m in inputs:
        factors = invariant_factors(
            sympy.Matrix([list(row) for row in m.entries()]),
            domain=sympy.ZZ)
        expected = tuple(abs(int(x)) for x in factors)
        assert smith_normal_form(m, transforms=False).diagonal == expected


def test_smith_forms_survive_copy_and_pickle():
    m = IntegerMatrix([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    eager = smith_normal_form(m)
    for form in (eager, smith_normal_form(m, transforms=False)):
        for twin in (copy.copy(form), copy.deepcopy(form),
                     pickle.loads(pickle.dumps(form))):
            # a group-only twin builds u and v on first read, as its
            # original would
            assert (twin.u, twin.d, twin.v) == (eager.u, eager.d, eager.v)
            assert twin.cokernel == eager.cokernel


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


def test_group_takes_integers_only():
    for rank, factors in [(0, (2.7,)), (1.5, ()), (0, ("4",))]:
        with pytest.raises(TypeError):
            AbelianGroup(rank, factors)


def test_group_rejects_booleans():
    for rank, factors in [(True, ()), (0, (2, True))]:
        with pytest.raises(TypeError):
            AbelianGroup(rank, factors)


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
