"""Exact integer matrices, Smith normal form, and cokernels.

Everything here runs on arbitrary-precision Python integers.  There is
no numpy in this module on purpose: fixed-width integer types overflow
silently on the matrices this package produces, and every result below
is meant to be a certificate, not an approximation.

The central computation is the Smith normal form D = U * M * V with
unimodular U, V and a divisibility chain d_1 | d_2 | ... on the
diagonal.  One elimination loop on a bare copy of M finds D.  For U
and V it logs its row and column steps, and U and V are accumulated
from that log from the last step back, where the many late steps act
on small numbers; without the log it finds D alone, and a form built
that way makes U and V only if they are read.  From D the cokernel
Z^cols / rowspan(M) is read off as an abelian group, which needs no
transforms.  A second, independent route to the same invariant
factors (gcds of k x k minors) is provided for cross-checking and is
deliberately not implemented in terms of the first.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations
from math import gcd, prod
from operator import index


class MatrixError(ValueError):
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


class IntegerMatrix:
    """An immutable rows x cols matrix of Python integers.

    Entries and cols are checked (integers, no booleans, equal row
    lengths, cols >= 0) only where a matrix enters the library: this
    constructor and from_doc.  Matrices the library derives from
    checked ones are built by _trusted, which checks nothing.
    """

    __slots__ = ("rows", "cols", "_data")

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

    def __setattr__(self, name, value):
        raise AttributeError("IntegerMatrix is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the checked constructor; the
        # default slot-state restore would write through __setattr__
        return IntegerMatrix, (self._data, self.cols)

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

    def __eq__(self, other):
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        return self.cols == other.cols and self._data == other._data

    def __hash__(self):
        return hash((self.cols, self._data))

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


@dataclass(frozen=True)
class SmithForm:
    """The decomposition d = u * m * v of a matrix m.

    u and v are unimodular, d is diagonal with nonnegative entries and
    each diagonal entry divides the next.  A form made by
    smith_normal_form(m, transforms=False) holds m in place of u and v
    and builds both on the first read of either (see __getattr__).
    """

    u: IntegerMatrix
    d: IntegerMatrix
    v: IntegerMatrix

    def __getattr__(self, name):
        # reached only for an attribute the instance lacks: u and v of a
        # group-only form, until this first read builds them; two
        # threads reading at once may both build, and build equal ones
        if name not in ("u", "v") or "_m" not in self.__dict__:
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


def _eliminate(a: list[list[int]], log: list | None = None) -> None:
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

    Given a list as log, every step is appended to it in the order
    taken, as a tuple (t, pi, pj, rows, cols, k, flip) of steps at
    pivot t.  A clearing pass logs (t, pi, pj, rows, cols, None, False):
    row pi and column pj were swapped into place t, then row i lost q
    times row t for each (i, q) in rows and column j lost q times
    column t for each (j, q) in cols.  Pulling up the offending row k
    logs (t, t, t, (), (), k, False), and negating row t at the end
    logs (t, t, t, (), (), None, True).  _replay turns the log into u
    and v.  Without a log no quotient list is built, so d alone pays
    nothing for the recording.
    """
    record = log is not None
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
                rows, cols = [], []
                log.append((t, pi, pj, rows, cols, None, False))
            for i in range(t + 1, nr):
                row = a[i]
                if row[t]:
                    q = row[t] // pivot
                    if q:
                        row = a[i] = [x - q * y for x, y in zip(row, top)]
                        if record:
                            rows.append((i, q))
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
                            cols.append((j, q))
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
                log.append((t, t, t, (), (), k, False))
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            if record:
                log.append((t, t, t, (), (), None, True))


def _replay(log: list, nr: int, nc: int) -> tuple[IntegerMatrix, ...]:
    """(u, v) from the steps _eliminate logged, last step first.

    The row steps E_1, ..., E_K make u = E_K ... E_1 and the column
    steps F_1, ..., F_K make v = F_1 ... F_K.  Taken in order, each step
    would act on the product of all steps before it, whose coefficients
    keep growing.  Taken from the last step back, u is accumulated as
    X <- X * E_k, a row operation on the transpose of X, and v as
    Y <- F_k * Y, a row operation on Y.  A step at pivot t touches
    indices >= t only, so the product of the steps after it is the
    identity outside its trailing block, and only the tails from index
    t on of its rows >= t change.  The many reruns of late pivots so
    act on small numbers and short tails, and the few early steps act
    last, on the full product.  Products are exact and associative, so
    u and v are the ones the forward order gives.  The log is popped
    as it is replayed, so it shrinks while u and v grow.

    Below about 20 x 20 there is little growth to save, and logging
    and replaying a step costs more than carrying u and v along in a
    wider elimination would: about a third more for a 6 x 6.
    """
    ut = [[0] * nr for _ in range(nr)]  # the rows of ut are the columns of u
    v = [[0] * nc for _ in range(nc)]
    for e in (ut, v):
        for i, row in enumerate(e):
            row[i] = 1
    while log:
        t, pi, pj, rows, cols, k, flip = log.pop()
        top = ut[t][t:]
        if flip:
            top = [-x for x in top]
        elif k is not None:
            ut[k][t:] = [x + y for x, y in zip(ut[k][t:], top)]
        for i, q in rows:
            top = [x - q * y for x, y in zip(top, ut[i][t:])]
        ut[t][t:] = top
        top = v[t][t:]
        for j, q in cols:
            top = [x - q * y for x, y in zip(top, v[j][t:])]
        v[t][t:] = top
        ut[t], ut[pi] = ut[pi], ut[t]
        v[t], v[pj] = v[pj], v[t]
    return IntegerMatrix._trusted(zip(*ut), nr), IntegerMatrix._trusted(v, nc)


def _full_smith(m: IntegerMatrix) -> tuple[IntegerMatrix, ...]:
    """(u, d, v) of m: eliminate on a copy of m, then replay the log."""
    a = [list(row) for row in m.entries()]
    log = []
    _eliminate(a, log)
    u, v = _replay(log, m.rows, m.cols)
    return u, IntegerMatrix._trusted(a, m.cols), v


def smith_normal_form(m: IntegerMatrix, transforms: bool = True) -> SmithForm:
    """Smith normal form d = u * m * v with explicit unimodular transforms.

    Either way the elimination runs on a bare copy of m.  With
    transforms (the default) it logs its steps, and u and v are
    accumulated from that log, from the last step back (see _replay).
    With transforms=False nothing is logged and d alone is found, at a
    fraction of the cost, since u and v are where the coefficients
    grow; the form keeps m and builds u and v, equal to the eager ones,
    the eager way on the first read of either.  See _eliminate for the
    pivot rule.
    """
    if transforms:
        return SmithForm(*_full_smith(m))
    a = [list(row) for row in m.entries()]
    _eliminate(a)
    form = object.__new__(SmithForm)
    object.__setattr__(form, "d", IntegerMatrix._trusted(a, m.cols))
    object.__setattr__(form, "_m", m)
    return form


@dataclass(frozen=True)
class AbelianGroup:
    """A finitely generated abelian group Z^r + Z/d_1 + ... + Z/d_k.

    Invariant factors are all >= 2 and each divides the next, so the
    representation is unique and equality of groups is equality of
    these fields.
    """

    free_rank: int
    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        rank = integer(self.free_rank)
        factors = tuple(map(integer, self.invariant_factors))
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
    group needs no transforms, so the elimination runs on m alone
    (smith_normal_form with transforms=False).
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
