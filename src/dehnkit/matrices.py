"""Exact integer matrices, Smith normal form, and cokernels.

Everything here runs on arbitrary-precision Python integers.  There is
no numpy in this module on purpose: fixed-width integer types overflow
silently on the matrices this package produces, and every result below
is meant to be a certificate, not an approximation.

The central computation is the Smith normal form D = U * M * V with
unimodular U, V and a divisibility chain d_1 | d_2 | ... on the
diagonal.  One elimination loop on a bare copy of M finds D.  For U
and V it logs its row steps and its column steps, and one replay
builds U from the row steps and V from the column steps, each from
the last step back, where the many late steps act on small numbers.
The two replays share nothing, so for a large M a forked child may
build V while this process builds U, with the same result (see
_full_smith).  D alone is found without the log or, for a
nonsingular square M of 8 x 8 or more with at most a quarter of its
entries zero, by a second elimination that keeps every entry modulo
|det M|; a form built either way makes U and V only if they are read.
From D the cokernel Z^cols / rowspan(M) is read off as an abelian
group, which needs no transforms.  A second, independent route to the
same invariant factors (gcds of k x k minors) is provided for
cross-checking and is deliberately not implemented in terms of the
first.
"""

from __future__ import annotations

import re
from itertools import combinations
from math import gcd, prod
from operator import index


class InputError(ValueError):
    """Bad input, the base of every layer's error; the CLI exits 2 on it."""


class MatrixError(InputError):
    """Raised for malformed matrices or documents."""


def integer(x) -> int:
    """operator.index, except that a bool raises TypeError.

    index(True) is 1, but documents reject JSON true, so the value
    types reject True alike.
    """
    if isinstance(x, bool):
        raise TypeError(f"{x!r} is not an integer")
    return index(x)


def doc_integer(x) -> int:
    """Read a document integer: an int, or a decimal string as to_doc writes.

    A string must match -?[0-9]+ in ASCII; int() alone would also take
    '+', underscores, surrounding whitespace and non-ASCII digits.
    """
    if isinstance(x, str):
        if not re.fullmatch("-?[0-9]+", x):
            raise ValueError(f"{x!r} is not a decimal integer")
        return int(x)
    return integer(x)


class _Value:
    """Base of the immutable value types: slots set once in __init__.

    A plain slotted class, not a dataclass: importing dataclasses (and
    with it inspect) and generating methods by exec would slow the
    start of every command-line process.  A subclass names its fields
    in _fields, in __init__'s parameter order, and sets each once with
    object.__setattr__.  Equality, hash and repr read those fields, and
    copy and pickle rebuild through __init__, which checks them again.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class IntegerMatrix(_Value):
    """An immutable rows x cols matrix of Python integers.

    Entries and cols are checked (integers, no booleans, equal row
    lengths, cols >= 0) only where a matrix enters the library: this
    constructor and from_doc.  Matrices the library derives from
    checked ones are built by _trusted, which checks nothing.
    """

    __slots__ = ("rows", "cols", "_data")
    _fields = ("_data", "cols")

    def __init__(self, data, cols: int | None = None):
        data = tuple(tuple(map(integer, row)) for row in data)
        if cols is None:
            if not data:
                raise MatrixError(
                    "empty matrix needs an explicit column count")
            cols = len(data[0])
        cols = integer(cols)
        if cols < 0:
            raise MatrixError(f"column count {cols} is negative")
        for row in data:
            if len(row) != cols:
                raise MatrixError(f"a row has {len(row)} entries, not {cols}")
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_data", data)

    @classmethod
    def _trusted(cls, rows, cols: int) -> "IntegerMatrix":
        """A matrix of rows of checked ints, each cols long; no checks."""
        m = object.__new__(cls)
        data = tuple(map(tuple, rows))
        object.__setattr__(m, "rows", len(data))
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "_data", data)
        return m

    def __getitem__(self, key):
        i, j = key
        return self._data[i][j]

    def entries(self) -> tuple[tuple[int, ...], ...]:
        return self._data

    def __mul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise MatrixError(
                f"cannot multiply {self.rows}x{self.cols} by "
                f"{other.rows}x{other.cols}"
            )
        return IntegerMatrix._trusted(
            [
                [
                    sum(self._data[i][k] * other._data[k][j]
                        for k in range(self.cols))
                    for j in range(other.cols)
                ]
                for i in range(self.rows)
            ],
            other.cols,
        )

    def submatrix(self, row_idx, col_idx) -> "IntegerMatrix":
        row_idx, col_idx = tuple(row_idx), tuple(col_idx)
        return IntegerMatrix._trusted(
            [[self._data[i][j] for j in col_idx] for i in row_idx],
            len(col_idx),
        )

    def det(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination.

        Every division below is exact, so the whole computation stays in
        the integers and intermediate growth is polynomial rather than
        exponential.
        """
        if self.rows != self.cols:
            raise MatrixError("determinant needs a square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = [list(row) for row in self._data]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def to_doc(self) -> dict:
        """Serialize as a document with entries spelled as strings.

        Strings keep arbitrarily large entries intact through tools
        that would otherwise round them to floats.
        """
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[str(x) for x in row] for row in self._data],
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "IntegerMatrix":
        """Read a matrix document; link documents read linking here too.

        entries is an array of arrays of JSON integers or decimal strings.
        """
        try:
            rows, cols = doc_integer(doc["rows"]), doc_integer(doc["cols"])
            entries = doc["entries"]
            if not isinstance(entries, list) or not all(
                    isinstance(row, list) for row in entries):
                raise TypeError("entries must be an array of arrays")
            data = [list(map(doc_integer, row)) for row in entries]
        except (KeyError, TypeError, ValueError) as exc:
            raise MatrixError(f"malformed matrix document: {exc}") from None
        if rows < 0 or cols < 0:
            raise MatrixError("matrix dimensions must be nonnegative")
        if len(data) != rows:
            raise MatrixError(
                f"document announces {rows} rows but carries {len(data)}"
            )
        return cls(data, cols)

    def __str__(self):
        if self.rows == 0 or self.cols == 0:
            return f"[{self.rows}x{self.cols}]"
        widths = [
            max(len(str(self._data[i][j])) for i in range(self.rows))
            for j in range(self.cols)
        ]
        return "\n".join(
            "[ " + "  ".join(str(x).rjust(w) for x, w in zip(row, widths)) + " ]"
            for row in self._data
        )

    def __repr__(self):
        return f"IntegerMatrix({[list(r) for r in self._data]!r}, cols={self.cols})"


class SmithForm(_Value):
    """The decomposition d = u * m * v of a matrix m.

    u and v are unimodular, d is diagonal with nonnegative entries and
    each diagonal entry divides the next.  A form made by
    smith_normal_form(m, transforms=False) has d from either of its
    routes and holds m in its slot _m.  Its u and v slots stay empty
    until the first read of either builds both the eager way (see
    __getattr__).
    """

    _fields = ("u", "d", "v")
    __slots__ = _fields + ("_m",)

    def __init__(self, u: IntegerMatrix, d: IntegerMatrix, v: IntegerMatrix):
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "v", v)

    def __getattr__(self, name):
        # reached only for an attribute the instance lacks, an empty
        # slot included: u and v of a group-only form, until this first
        # read builds them; two threads reading at once may both build,
        # and build equal ones, both without a child process, since a
        # live second thread keeps _full_smith from forking
        if name not in ("u", "v") or not hasattr(self, "_m"):
            raise AttributeError(name)
        u, _, v = _full_smith(self._m)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        return u if name == "u" else v

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(
            self.d[i, i] for i in range(min(self.d.rows, self.d.cols))
        )

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal if x != 0)

    @property
    def cokernel(self) -> "AbelianGroup":
        """The group Z^cols / (row span of m); see cokernel()."""
        diagonal = self.diagonal
        return AbelianGroup(
            self.d.cols - len(diagonal) + diagonal.count(0),
            tuple(x for x in diagonal if x >= 2),
        )


def _eliminate(a: list[list[int]], rows: list | None = None,
               cols: list | None = None) -> None:
    """Bring the matrix a, a list of equally long rows, to Smith form.

    a is changed in place and ends as d.  Pivots are chosen as the
    smallest nonzero entry in absolute value of the remaining
    submatrix, which keeps coefficient growth tame; of equally small
    entries the first in row-major order wins.  Each pivot is then used
    to clear its row and column; any nonzero remainder becomes the
    next, strictly smaller pivot candidate, so the inner loop
    terminates.  Once the cross is clear, an entry of the submatrix not
    divisible by the pivot (if any) is pulled into the pivot row by a
    row addition and the reduction restarts; this is the standard trick
    that forces the divisibility chain.

    No nonzero entry is smaller than a unit, so the pivot scan stops at
    the first entry of absolute value 1.  A full scan keeps the first
    smallest entry and would pick that same one, so the pivot sequence,
    and with it u, d and v, does not change.  A unit divides every
    entry, so after a unit pivot the divisibility check is skipped.
    A column operation skips the rows whose entry in the pivot column is
    0, where it would add 0; this too leaves the pivot sequence as it is.

    Given lists as rows and cols, every row step is appended to rows
    and every column step to cols, in the order taken, as a tuple
    (t, swap, ops, k, flip) of a step at pivot t.  A clearing pass
    appends (t, pi, row_ops, None, False) to rows and
    (t, pj, col_ops, None, False) to cols: row pi and column pj were
    swapped into place t, then row i lost q times row t for each
    (i, q) in row_ops and column j lost q times column t for each
    (j, q) in col_ops.  Pulling up the offending row k appends
    (t, t, (), k, False) to rows, and negating row t at the end
    appends (t, t, (), None, True).  _replay turns rows into the
    transpose of u and cols into v.  Without the lists no quotient
    list is built, so d alone pays nothing for the recording.
    """
    record = rows is not None
    nr, nc = len(a), len(a[0]) if a else 0
    for t in range(min(nr, nc)):
        while True:
            # first smallest |nonzero| entry of the trailing submatrix,
            # row-major; no entry beats a unit, so stop at the first one
            pi = pj = -1
            best = 0
            for i in range(t, nr):
                row = a[i]
                for j in range(t, nc):
                    x = row[j]
                    if x != 0 and (best == 0 or abs(x) < best):
                        best = abs(x)
                        pi, pj = i, j
                        if best == 1:
                            break
                if best == 1:
                    break
            if best == 0:
                # the trailing submatrix is zero, and so is every later one
                return
            if pi != t:
                a[t], a[pi] = a[pi], a[t]
            if pj != t:
                for row in a:
                    row[t], row[pj] = row[pj], row[t]
            top = a[t]
            pivot = top[t]
            dirty = False
            if record:
                # logged now, filled in by the clearing below
                row_ops, col_ops = [], []
                rows.append((t, pi, row_ops, None, False))
                cols.append((t, pj, col_ops, None, False))
            for i in range(t + 1, nr):
                row = a[i]
                if row[t]:
                    q = row[t] // pivot
                    if q:
                        row = a[i] = [x - q * y for x, y in zip(row, top)]
                        if record:
                            row_ops.append((i, q))
                    if row[t]:
                        dirty = True
            for j in range(t + 1, nc):
                if top[j]:
                    q = top[j] // pivot
                    if q:
                        for row in a:
                            if row[t]:
                                row[j] -= q * row[t]
                        if record:
                            col_ops.append((j, q))
                    if top[j]:
                        dirty = True
            if dirty:
                # leftover remainders are smaller than |pivot|; rerun
                continue
            if best == 1:
                # a unit divides everything
                break
            k = next((i for i in range(t + 1, nr)
                      if any(x % pivot for x in a[i][t + 1:])), None)
            if k is None:
                break
            # pull the bad row up; clearing it will shrink the pivot
            a[t] = [x + y for x, y in zip(top, a[k])]
            if record:
                rows.append((t, t, (), k, False))
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            if record:
                rows.append((t, t, (), None, True))


def _replay(steps: list, n: int) -> list[list[int]]:
    """The rows of the n x n product of steps _eliminate logged, last first.

    The row steps E_1, ..., E_K make u = E_K ... E_1, and the column
    steps F_1, ..., F_K make v = F_1 ... F_K.  Taken in order, each step
    would act on the product of all steps before it, whose coefficients
    keep growing.  Taken from the last step back, v is accumulated as
    Y <- F_k * Y and u as X <- X * E_k, and both are a row operation:
    on Y, and on the transpose of X, which is what the row steps give.
    A step at pivot t touches indices >= t only, so the product of the
    steps after it is the identity outside its trailing block, and only
    the tails from index t on of its rows >= t change.  The many reruns
    of late pivots so act on small numbers and short tails, and the few
    early steps act last, on the full product.  Products are exact and
    associative, so u and v are the ones the forward order gives.

    Below about 20 x 20 there is little growth to save, and logging
    and replaying a step costs more than carrying u and v along in a
    wider elimination would: about a third more for a 6 x 6.
    """
    x = [[0] * n for _ in range(n)]
    for i, row in enumerate(x):
        row[i] = 1
    for t, swap, ops, k, flip in reversed(steps):
        top = x[t][t:]
        if flip:
            top = [-y for y in top]
        elif k is not None:
            x[k][t:] = [y + z for y, z in zip(x[k][t:], top)]
        for i, q in ops:
            top = [y - q * z for y, z in zip(top, x[i][t:])]
        x[t][t:] = top
        x[t], x[swap] = x[swap], x[t]
    return x


# the smallest min(rows, cols) whose v a forked child replays: on 2
# CPUs, in a 22 MB process on Python 3.11, fork plus transfer lost about
# 40% at 18 x 18 and 20 x 20 of dense [-9, 9] matrices, tied at 22 x 22,
# and won 2-5% to 28 x 28, 12% at 32 x 32 and 30% at 60 x 60; fork
# costs more in a larger process
_FORK_MIN = 24


def _may_fork() -> bool:
    """Whether a child may replay v: os.fork, one Thread, two CPUs.

    Two hazards stay open.  Only threading.Thread objects are counted,
    not threads started in C, such as pytest's faulthandler watchdog;
    with one live, Python 3.12+ warns at os.fork.  And _FORK_MIN was
    tuned in a 22 MB process: a caller with a larger heap pays more for
    each fork.
    """
    import os
    import sys

    # a process that never imported threading has started no Thread
    threading = sys.modules.get("threading")
    cpus = (os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity")
            else range(os.cpu_count() or 1))
    return (hasattr(os, "fork") and len(cpus) >= 2
            and (threading is None or threading.active_count() == 1))


def _replay_forked(rows: list, cols: list, nr: int, nc: int) -> tuple:
    """(the rows of u's transpose, the rows of v or None): v in a child.

    A forked child runs _replay on the column steps, writes each row of
    v to a pipe as an 8-byte length and a marshal frame, and always
    leaves by os._exit, which runs no exit hook and flushes no inherited
    buffer.  This process runs _replay on the row steps meanwhile, then
    reads and decodes v one row at a time.  It closes the pipe before it
    reaps the child, also when its own replay raises, so a child blocked
    on a full pipe fails its write and exits.  v is None where the pipe
    or the fork fails, or where the child exits nonzero or sends less
    than all of v.
    """
    import marshal
    import os

    try:
        r, w = os.pipe()
    except OSError:
        return _replay(rows, nr), None
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return _replay(rows, nr), None
    if pid == 0:
        status = 1
        try:
            os.close(r)
            with open(w, "wb") as out:
                for row in _replay(cols, nc):
                    frame = marshal.dumps(row)
                    out.write(len(frame).to_bytes(8, "little"))
                    out.write(frame)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    v = []
    try:
        with open(r, "rb") as pipe:
            ut = _replay(rows, nr)
            # v comes a frame per row, each read whole by pipe.read(size):
            # on 2 CPUs one frame for all of v raised the peak RSS of a
            # 30 MB process running dense 20..60 square forms by
            # 0.9-1.9 MB, and on a 60 x 60 v (8.2 MB) marshal.load(pipe)
            # took 0.32 s against 0.018 s for marshal.loads(pipe.read())
            try:
                while len(v) < nc:
                    size = int.from_bytes(pipe.read(8), "little")
                    v.append(marshal.loads(pipe.read(size)))
            except (EOFError, ValueError):
                pass  # a frame cut short or missing: the child failed
    finally:
        try:
            status = os.waitpid(pid, 0)[1]
        except ChildProcessError:
            status = -1  # reaped elsewhere, as where SIGCHLD is ignored
    return ut, (v if status == 0 and len(v) == nc else None)


def _full_smith(m: IntegerMatrix) -> tuple[IntegerMatrix, ...]:
    """(u, d, v) of m: eliminate on a copy of m, then replay its steps.

    u comes from _replay of the row steps in this process.  v comes from
    a forked child (_replay_forked) where min(rows, cols) >= _FORK_MIN =
    24, os.fork exists, no second threading.Thread is live and two CPUs
    are usable (_may_fork), and else, or where the pipe, the fork or the
    child fails, from _replay of the column steps in this process.
    Either way u, d and v are the same.
    """
    a = [list(row) for row in m.entries()]
    rows, cols = [], []
    _eliminate(a, rows, cols)
    nr, nc = m.rows, m.cols
    v = None
    if min(nr, nc) >= _FORK_MIN and _may_fork():
        ut, v = _replay_forked(rows, cols, nr, nc)
    else:
        ut = _replay(rows, nr)
    if v is None:
        v = _replay(cols, nc)
    return (IntegerMatrix._trusted(zip(*ut), nr),
            IntegerMatrix._trusted(a, nc), IntegerMatrix._trusted(v, nc))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, u) with g = gcd(a, b) = s * a + u * b, for a >= 0 and b > 0."""
    g = gcd(a, b)
    s = pow(a // g, -1, b // g)
    return g, s, (g - s * a) // b


def _diagonal_mod(m: IntegerMatrix, delta: int) -> list[int]:
    """Diagonal entries e_t of m brought to diagonal form modulo delta.

    delta = |det m| != 0, and delta * I = +-adj(m) * m, so delta * Z^n
    lies in the row span of m, coker m = coker [m; delta * I], and every
    entry may be kept reduced modulo delta.  The first column is cleared
    by 2 x 2 row combinations [[s, u], [-b/g, a/g]] of determinant 1
    from _xgcd(a, b), or by the exact quotient where the pivot a divides
    b.  If the pivot then fails to divide its row, the block is
    transposed, which keeps its Smith form, and the row is cleared as a
    column; each such pass replaces the pivot by a proper divisor, so
    the passes end.  Once the pivot divides its row, column steps that
    change nothing else would clear it; the pivot is e_t, and the
    trailing block goes on.  Z^n / (row span of m) is then the sum of
    the Z / gcd(e_t, delta).
    """
    a = [[x % delta for x in row] for row in m.entries()]
    diagonal = []
    while a:
        while True:
            top = a[0]
            for i in range(1, len(a)):
                row, p, b = a[i], top[0], a[i][0]
                if not b:
                    continue
                if p and not b % p:
                    q = b // p
                    a[i] = [(y - q * x) % delta for x, y in zip(top, row)]
                else:
                    g, s, u = _xgcd(p, b)
                    p, b = p // g, b // g
                    top, a[i] = (
                        [(s * x + u * y) % delta for x, y in zip(top, row)],
                        [(p * y - b * x) % delta for x, y in zip(top, row)])
            a[0], p = top, top[0]
            if not (any(x % p for x in top[1:]) if p else any(top[1:])):
                break
            a = [list(col) for col in zip(*a)]
        diagonal.append(p)
        a = [row[1:] for row in a[1:]]
    return diagonal


def smith_normal_form(m: IntegerMatrix, transforms: bool = True) -> SmithForm:
    """Smith normal form d = u * m * v with explicit unimodular transforms.

    With transforms (the default) the elimination runs on a bare copy
    of m and logs its steps, and u and v are accumulated from that log,
    from the last step back (see _replay); see _eliminate for the pivot
    rule.  For a large m a forked child may build v while this process
    builds u, with the same result (see _full_smith).  With
    transforms=False d alone is found, at a fraction of the cost, since
    u and v are where the coefficients grow: a nonsingular square m of
    8 x 8 or more with at most a quarter of its entries zero is
    diagonalized modulo |det m| (see _diagonal_mod), where no
    entry outgrows |det m|, and every other m by _eliminate without a
    log, which pivots on the small entries of a sparse m.  d is unique,
    so both routes find the d the eager form has.  The form keeps m and
    builds u and v, equal to the eager ones, the eager way on the first
    read of either.
    """
    if transforms:
        return SmithForm(*_full_smith(m))
    # dense 8x8 in [-9, 9]: 52 us, _eliminate 62 (a singular one pays the
    # det on top, +15-33% at 8-60); half-zero ones about tie, and sparse
    # chain-link presentations of 8-30 components lose up to 130x
    n = m.rows
    dense = n == m.cols >= 8 and 4 * sum(
        row.count(0) for row in m.entries()) <= n * n
    delta = abs(m.det()) if dense else 0
    if delta:
        chain = [gcd(e, delta) for e in _diagonal_mod(m, delta)]
        for i in range(len(chain)):
            for j in range(i + 1, len(chain)):
                g = gcd(chain[i], chain[j])
                chain[i], chain[j] = g, chain[i] * chain[j] // g
        if prod(chain) != delta:
            # no numbers in the message: |det| may have too many digits
            raise RuntimeError("modular invariant factors do not multiply "
                               "to |det m|")
        a = [[0] * m.cols for _ in chain]
        for i, x in enumerate(chain):
            a[i][i] = x
    else:
        a = [list(row) for row in m.entries()]
        _eliminate(a)
    form = object.__new__(SmithForm)
    object.__setattr__(form, "d", IntegerMatrix._trusted(a, m.cols))
    object.__setattr__(form, "_m", m)
    return form


class AbelianGroup(_Value):
    """A finitely generated abelian group Z^r + Z/d_1 + ... + Z/d_k.

    Invariant factors are all >= 2 and each divides the next, so the
    representation is unique and equality of groups is equality of
    these fields.
    """

    __slots__ = _fields = ("free_rank", "invariant_factors")

    def __init__(self, free_rank: int, invariant_factors: tuple[int, ...]):
        rank = integer(free_rank)
        factors = tuple(map(integer, invariant_factors))
        if rank < 0:
            raise MatrixError("free rank cannot be negative")
        for d in factors:
            if d < 2:
                raise MatrixError(f"invariant factor {d} < 2")
        for x, y in zip(factors, factors[1:]):
            if y % x != 0:
                raise MatrixError(f"broken divisibility chain {factors}")
        object.__setattr__(self, "free_rank", rank)
        object.__setattr__(self, "invariant_factors", factors)

    @property
    def is_cyclic(self) -> bool:
        return self.free_rank == 0 and len(self.invariant_factors) <= 1

    def order(self) -> int | None:
        """Number of elements, or None for an infinite group."""
        if self.free_rank > 0:
            return None
        return prod(self.invariant_factors)

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " + ".join(parts) if parts else "0"


def cokernel(m: IntegerMatrix) -> AbelianGroup:
    """The group Z^cols / (row span of m).

    Columns are generators, rows are relations.  Computed from the
    Smith diagonal: zero diagonal entries and missing pivots contribute
    free summands, entries >= 2 contribute finite cyclic summands.  The
    group needs no transforms, so d is found from m alone
    (smith_normal_form with transforms=False): modulo |det m| for a
    dense nonsingular square m of 8 x 8 or more, else by _eliminate.
    """
    return smith_normal_form(m, transforms=False).cokernel


def minors_gcd_oracle(m: IntegerMatrix) -> AbelianGroup:
    """Cokernel via gcds of k x k minors; independent of the SNF code.

    The k-th determinantal divisor g_k is the gcd of all k x k minors;
    the invariant factors are d_k = g_k / g_{k-1}.  Enumerating minors
    is exponential, so this is restricted to matrices with at most 7
    rows and columns.  Its whole purpose is to cross-check
    smith_normal_form on small instances.
    """
    if m.rows > 7 or m.cols > 7:
        raise MatrixError(
            f"minor enumeration is capped at 7x7, got {m.rows}x{m.cols}"
        )
    factors = []
    rank = 0
    g_prev = 1
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for ri in combinations(range(m.rows), k):
            for ci in combinations(range(m.cols), k):
                g = gcd(g, m.submatrix(ri, ci).det())
                if g == 1:
                    break
            if g == 1:
                break
        if g == 0:
            break
        rank = k
        factors.append(g // g_prev)
        g_prev = g
    return AbelianGroup(m.cols - rank, tuple(d for d in factors if d >= 2))
