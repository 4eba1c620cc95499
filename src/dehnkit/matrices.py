"""Exact integer matrices, Smith normal form, and cokernels.

Everything here runs on arbitrary-precision Python integers.  There is
no numpy in this module on purpose: fixed-width integer types overflow
silently on the matrices this package produces, and every result below
is meant to be a certificate, not an approximation.

The central computation is the Smith normal form D = U * M * V with
unimodular U, V and a divisibility chain d_1 | d_2 | ... on the
diagonal.  U and V come by one of two routes (_full_smith).  A
nonsingular square M takes its row Hermite form H, found modulo
|det M| from det M and adj M, which one fraction-free forward
elimination and a back substitution give: U and V then have entries
about the size of |det M|, and only the k x k block of H's non-unit
columns (k = 1 for most inputs whose cokernel is cyclic) is left to
eliminate.  A singular or rectangular M, and that block, go to one
elimination loop (_eliminate) on one block: M's rows carry their rows
of U to the right, as [M | U], and V's rows sit below, so each row step
and each column step is taken once, on whole rows or columns.  U and V
start at the identity for M, and for the block at the Hermite route's
rows of U and columns of V, which the elimination so composes with its
own.  The cokernel Z^cols / rowspan(M) needs neither route: it is
read off as an abelian group from the diagonal of D, which
_group_diagonal finds with no transforms, reading a few columns of
adj M to prove a cyclic cokernel.  A second, independent
route to the same invariant factors (gcds of k x k minors) is provided
for cross-checking and is deliberately not implemented in terms of the
first.
"""

from __future__ import annotations

import re
from itertools import combinations
from math import gcd, prod
from operator import index, mul


class InputError(ValueError):
    """Bad input, the base of every layer's error; the CLI exits 2 on it."""


class MatrixError(InputError):
    """Raised for malformed matrices or documents."""


def integer(x) -> int:
    """operator.index, except that a bool raises TypeError too.

    index(True) is 1, but documents reject JSON true, so the value
    types reject True alike.  Every refused value raises the same
    TypeError, which names it.
    """
    try:
        if not isinstance(x, bool):
            return index(x)
    except TypeError:
        pass
    raise TypeError(f"{x!r} is not an integer")


def doc_integer(x) -> int:
    """Read a document integer: an int, or a decimal string as to_doc writes.

    A string must match -?[0-9]+ in ASCII; int() alone would also take
    '+', underscores, surrounding whitespace and non-ASCII digits.  Any
    other string raises InputError.  Readers catch that, not every
    ValueError, so that the ValueError Python raises for a string past
    its int <-> str digit limit (sys.set_int_max_str_digits) reaches
    the caller as it is, not as bad input.
    """
    if isinstance(x, str):
        if not re.fullmatch("-?[0-9]+", x):
            raise InputError(f"{x!r} is not a decimal integer")
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
            [_combine(row, other._data, other.cols) for row in self._data],
            other.cols)

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
        except (KeyError, TypeError, InputError) as exc:
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
    each diagonal entry divides the next.  diagonal holds the
    min(rows, cols) diagonal entries of d, which __init__ reads off d
    once.
    """

    _fields = ("u", "d", "v")
    __slots__ = _fields + ("diagonal",)

    def __init__(self, u: IntegerMatrix, d: IntegerMatrix, v: IntegerMatrix):
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "diagonal", tuple(
            d[i, i] for i in range(min(d.rows, d.cols))))

    @property
    def rank(self) -> int:
        return len(self.diagonal) - self.diagonal.count(0)

    @property
    def cokernel(self) -> "AbelianGroup":
        """The group Z^cols / (row span of m); see cokernel()."""
        return _group(self.diagonal, self.d.cols)


def _group(diagonal, cols: int) -> "AbelianGroup":
    """Z^cols / (row span of m), from the Smith diagonal of m.

    Each column without a nonzero diagonal entry gives a free summand,
    so trailing zeros may be left out of diagonal, and each entry >= 2
    a finite cyclic summand.
    """
    return AbelianGroup(cols - len(diagonal) + diagonal.count(0),
                        tuple(x for x in diagonal if x >= 2))


def _eliminate(a: list[list[int]], shape: tuple[int, int] | None = None
               ) -> list[int]:
    """Bring the matrix in a, a list of rows, to Smith form in place.

    Returns the diagonal of d up to its trailing zeros.  Without shape,
    a is the matrix, d alone is found, and a trailing block of one row,
    one column or 2 x 2 ends by gcds (_small_diagonal) and stays in a as
    it is.  With shape = (r, c), a is a block: its first r rows hold the
    matrix in their first c columns with their rows of U to the right,
    as [M | U], and the rows below hold V, each at least c long.  Each
    row step (swap, clearing, pull-up, sign flip) is then taken on whole
    rows of [M | U], and each column step (swap, clearing) on whole
    columns of M over V, so M ends as d and, seeded with identities,
    U as u and V as v, d = u * M * v; seeded with U0 and V0 they end as
    u * U0 and V0 * v.

    Pivots are chosen as the smallest nonzero entry in absolute value
    of the remaining submatrix, which keeps coefficient growth tame; of
    equally small entries the first in row-major order wins.  Each
    pivot is then used to clear its row and column; any nonzero
    remainder becomes the next, strictly smaller pivot candidate, so
    the inner loop terminates.  Once the cross is clear, an entry of
    the submatrix not divisible by the pivot (if any) is pulled into
    the pivot row by a row addition and the reduction restarts; this is
    the standard trick that forces the divisibility chain.

    No nonzero entry is smaller than a unit, so the pivot scan stops at
    the first entry of absolute value 1.  A full scan keeps the first
    smallest entry and would pick that same one, so the pivot sequence,
    and with it u, d and v, does not change.  A unit divides every
    entry, so after a unit pivot the divisibility check is skipped.
    A column operation skips the rows whose entry in the pivot column is
    0, where it would add 0; this too leaves the pivot sequence as it is.
    """
    nr, nc = shape or (len(a), len(a[0]) if a else 0)
    for t in range(min(nr, nc)):
        if not shape and (nr - t < 2 or nc - t < 2 or nr - t == nc - t == 2):
            # every earlier pivot divides each entry of this block
            return ([a[i][i] for i in range(t)]
                    + _small_diagonal([row[t:] for row in a[t:]]))
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
                return [a[i][i] for i in range(t)]
            if pi != t:
                a[t], a[pi] = a[pi], a[t]
            if pj != t:
                for row in a:
                    row[t], row[pj] = row[pj], row[t]
            top = a[t]
            pivot = top[t]
            dirty = False
            for i in range(t + 1, nr):
                row = a[i]
                if row[t]:
                    q = row[t] // pivot
                    if q:
                        row = a[i] = [x - q * y for x, y in zip(row, top)]
                    if row[t]:
                        dirty = True
            for j in range(t + 1, nc):
                if top[j]:
                    q = top[j] // pivot
                    if q:
                        for row in a:
                            if row[t]:
                                row[j] -= q * row[t]
                    if top[j]:
                        dirty = True
            if dirty:
                # leftover remainders are smaller than |pivot|; rerun
                continue
            if best == 1:
                # a unit divides everything
                break
            k = next((i for i in range(t + 1, nr)
                      if any(x % pivot for x in a[i][t + 1:nc])), None)
            if k is None:
                break
            # pull the bad row up; clearing it will shrink the pivot
            a[t] = [x + y for x, y in zip(top, a[k])]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
    return [a[i][i] for i in range(min(nr, nc))]


def _small_diagonal(a: list[list[int]]) -> list[int]:
    """The Smith diagonal of a block of one row, one column or 2 x 2.

    The k-th invariant factor is g_k / g_(k-1), g_k the gcd of the k x k
    minors (Newman, Integral Matrices, ch. II).  A single row or column
    gives its gcd; a 2 x 2 gives g = gcd of its entries and |det| / g,
    which is (0, 0) for g = 0 and (g, 0) for det = 0.
    """
    if len(a) == 1:
        return [gcd(*a[0])]
    if len(a[0]) == 1:
        return [gcd(*[row[0] for row in a])]
    (w, x), (y, z) = a
    g = gcd(w, x, y, z)
    return [g, abs(w * z - x * y) // g] if g else [0, 0]


# the adjugate columns _group_diagonal keeps, chosen from the rank of
# adj m, not from timings.  Where coker m is cyclic, m mod p has rank
# n - 1 for each prime p dividing det m, so adj m mod p has rank one,
# u * v^T with u, v != 0, and the kept columns j all vanish mod p only
# where v_j does for each of them: for 6 columns about p^-6 of the
# time, 1/64 at p = 2.  A rest they miss, and every non-cyclic rest,
# goes on to the modular finish, having paid n^2 / 2 products for each
# column, against the n^3 / 3 updates of the elimination; a certified
# rest pays n^2 more for the check of each column it read
_KEPT = 6


def _group_diagonal(m: IntegerMatrix) -> list[int]:
    """The Smith diagonal of m, up to its trailing zeros, with no transforms.

    While a row holds an entry u = +-1, found by `in` and list.index in
    C, not by a scan in Python, that entry is a pivot: each other row
    loses x * u times the pivot row, where x is its entry in the pivot
    column, which clears that column, and column steps would then clear
    the pivot row without changing anything else.  So the pivot's row
    and column are dropped, the Schur complement stays, and the pivot
    adds an invariant factor 1.  The rest then picks its finish.  A
    square rest larger than 2 x 2 with at most a quarter of its entries
    zero and d = +-det != 0 yields up to _KEPT columns x of its
    adjugate (_adjugate_columns), read one at a time.  Each entry of x
    is an (n - 1)-minor, which d_1 ... d_(n-1) divides, and so does
    delta = |d| = d_1 ... d_n, so once the gcd of delta and the entries
    read is 1, the diagonal is 1, ..., 1, delta: the certified finish.
    RuntimeError is raised unless rest * x = d * e_j for each x read,
    e_j the unit vector of its column.  Where the kept columns leave a
    gcd above 1, the rest is diagonalized modulo delta (_diagonal_mod),
    so that no entry outgrows delta.  Any other rest, a singular or
    sparse one among them, goes to _eliminate without u and v, which
    pivots on its small entries and ends a block of one row, one column
    or 2 x 2 by gcds.
    """
    a = [list(row) for row in m.entries()]
    ones = []
    while True:
        for i, top in enumerate(a):
            if 1 in top:
                u = 1
                break
            if -1 in top:
                u = -1
                break
        else:
            break
        del a[i]
        j = top.index(u)
        del top[j]
        for k, row in enumerate(a):
            q = row.pop(j) * u
            if q:
                a[k] = [y - q * z for y, z in zip(row, top)]
        ones.append(1)
    n = len(a)
    if n > 2 and n == len(a[0]) and 4 * sum(
            row.count(0) for row in a) <= n * n:
        solved = _adjugate_columns(a, min(n, _KEPT))
        if solved:
            d, columns = solved
            delta = g = abs(d)
            read = []
            for j, x in columns:
                read.append((j, x))
                g = gcd(g, *x)
                if g == 1:
                    break
            else:
                return ones + _diagonal_mod(a, delta)
            for j, x in read:
                if [sum(map(mul, row, x)) for row in a] != [
                        d * (i == j) for i in range(n)]:
                    raise RuntimeError("a kept adjugate column x fails "
                                       "m * x = d * e_j")
            return ones + [1] * (n - 1) + [delta]
    return ones + _eliminate(a)


def _eliminated_smith(m: IntegerMatrix) -> tuple[IntegerMatrix, ...]:
    """(u, d, v) of m by _eliminate on the block [m | I] over I."""
    r, c = m.rows, m.cols
    a = [[*row, *(int(i == j) for j in range(r))]
         for i, row in enumerate(m.entries())]
    a += ([int(i == j) for j in range(c)] for i in range(c))
    _eliminate(a, (r, c))
    return (IntegerMatrix._trusted([row[c:] for row in a[:r]], r),
            IntegerMatrix._trusted([row[:c] for row in a[:r]], c),
            IntegerMatrix._trusted(a[r:], c))


def _adjugate_columns(a, keep: int) -> tuple | None:
    """(d, columns) for the square a, or None if a is singular.

    d = +-det a != 0, and columns yields, each found only when asked
    for, keep pairs (j, x), x column j of d * a^-1 = +-adj a.  Forward
    fraction-free elimination (Bareiss 1968) on [a | I]: each step turns
    every row below the pivot row into (p * row - f * top) / prev, an
    exact division, so a ends upper triangular, d its last pivot, and I
    lower triangular in the order the rows became pivots.  A column of
    I whose row has not been a pivot yet is that row's prev times a unit
    vector, so it is carried only from the step its row becomes the
    pivot, and only for the last keep pivots; j is the row of a that
    pivot came from.  A pivot column with no nonzero entry left shows a
    singular.  Back substitution finds each x from its last entry up,
    x_i = (d * b_i - sum of u_ik * x_k over k > i) / u_ii, with one dot
    product in C and one division, exact as x is integral.  Forward
    elimination costs n^3 / 3 entry updates, where Gauss-Jordan costs
    n^3, and each x costs n^2 / 2 products.
    """
    a = [list(row) for row in a]
    n = len(a)
    start = n - keep
    order = list(range(n))
    done = []
    prev = 1
    for k in range(n):
        p = k
        while not a[p][0]:
            p += 1
            if p == n:
                return None
        a[k], a[p] = a[p], a[k]
        order[k], order[p] = order[p], order[k]
        pivot, *top = a[k]
        kept = k >= start
        if kept:
            top.append(prev)
        for i in range(k + 1, n):
            f, *row = a[i]
            row = a[i] = [(pivot * x - f * y) // prev
                          for x, y in zip(row, top)]
            if kept:
                row.append(-f)
        # the pivot, its row of u to the right, last entry first, and
        # the kept columns of I in its row, from the first kept on
        done.append((pivot, top[:n - k - 1][::-1], top[n - k - 1:]))
        prev = pivot

    def column(c):
        x = []
        for pivot, tail, right in reversed(done):
            b = prev * right[c] if c < len(right) else 0
            x.append((b - sum(map(mul, tail, x))) // pivot)
        x.reverse()
        return order[start + c], x

    return prev, map(column, range(keep))


def _adjugate(m: IntegerMatrix) -> tuple[int, list[list[int]]] | None:
    """(d, r) with d = +-det m != 0 and r = d * m^-1, or None if m is singular.

    _adjugate_columns of the square m with every column kept, in
    column order.
    """
    solved = _adjugate_columns(m.entries(), m.rows)
    if solved is None:
        return None
    d, columns = solved
    return d, [list(row) for row in zip(*(x for _, x in sorted(columns)))]


def _full_smith(m: IntegerMatrix) -> tuple[IntegerMatrix, ...]:
    """(u, d, v) of m; for a nonsingular square m from its Hermite form.

    A rectangular or singular m (which _adjugate's forward elimination
    finds) goes to _eliminated_smith.  Else let d and r = d * m^-1 be
    _adjugate's and delta = |d|.  The row Hermite form H = U0 * m is
    found modulo delta: where an entry w_j of a column w of r is prime
    to delta (searched from the last row of r up), gcd(r) =
    d_1 ... d_(n-1), which divides both, is 1, so the row span of m is
    {x : x . w = 0 mod delta}, and H has the rows e_i + c_i * e_j,
    c_i = -w_i / w_j mod delta, and delta * e_j; where not, H is
    _hermite_mod's.  U0 = H * r / d, and RuntimeError is raised unless
    that division is exact and H's diagonal multiplies to delta, which
    makes det U0 = +-1.  A unit column of H is a unit vector, so a
    unit-triangular V1 (minus the rest of H's unit rows) and a
    permutation P, unit columns first, bring H to I + B, B the k x k
    block of H's other rows and columns; k = 1 where H is read off w.
    _eliminate takes B as a block, its rows of P^T * U0 to the right
    and the last k columns of V1 * P below, so it ends with d_B =
    u_B * B * v_B, those rows times u_B and those columns times v_B:
    d = I + d_B, u = (I + u_B) * P^T * U0 and v = V1 * P * (I + v_B).
    Every entry of U0 is at most n * max|r| and of V1 below delta.
    """
    n = m.rows
    adjugate = _adjugate(m) if n == m.cols else None
    if adjugate is None:
        return _eliminated_smith(m)
    d, r = adjugate
    delta = abs(d)
    hit = next(((j, c) for j in reversed(range(n))
                for c, x in enumerate(r[j]) if gcd(x, delta) == 1), None)
    if hit:
        j, c = hit
        inverse = pow(r[j][c], -1, delta)
        h = [[0] * n for _ in r]
        for i, row in enumerate(h):
            row[i] = 1
            row[j] = delta if i == j else -r[i][c] * inverse % delta
    else:
        h = _hermite_mod(m.entries(), delta)
    if prod(h[i][i] for i in range(n)) != delta:
        raise RuntimeError("Hermite diagonal does not multiply to |det m|")
    u0 = [_combine(row, r, n) for row in h]
    for row in u0:
        for i, y in enumerate(row):
            row[i], remainder = divmod(y, d)
            if remainder:
                raise RuntimeError("H * adj(m) is not divisible by det m")
    order = sorted(range(n), key=lambda i: h[i][i] != 1)
    k = sum(h[i][i] != 1 for i in range(n))
    rest = order[n - k:]
    v = []
    for i, row in enumerate(h):
        # row i of V1 * P: 2 * e_i - H_i on a unit row, e_i on the rest
        unit = row[i] == 1
        v.append([(1 + unit) * (i == j) - unit * row[j] for j in order])
    block = [[h[i][j] for j in rest] + u0[i] for i in rest]
    block += (line[n - k:] for line in v)
    diagonal = _eliminate(block, (k, k))
    u = [u0[i] for i in order[:n - k]] + [row[k:] for row in block[:k]]
    v = [line[:n - k] + tail for line, tail in zip(v, block[k:])]
    return (IntegerMatrix._trusted(u, n),
            _diagonal([1] * (n - k) + diagonal, n, n),
            IntegerMatrix._trusted(v, n))


def _combine(coefficients, rows, n: int) -> list[int]:
    """The sum of c * row over zip(coefficients, rows), rows n long."""
    total = [0] * n
    for c, row in zip(coefficients, rows):
        if c:
            total = [x + c * y for x, y in zip(total, row)]
    return total


def _diagonal(diagonal: list[int], rows: int, cols: int) -> IntegerMatrix:
    """The rows x cols matrix with diagonal, then zeros, on its diagonal."""
    a = [[0] * cols for _ in range(rows)]
    for i, x in enumerate(diagonal):
        a[i][i] = x
    return IntegerMatrix._trusted(a, cols)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, u) with g = gcd(a, b) = s * a + u * b, for a >= 0 and b > 0."""
    g = gcd(a, b)
    s = pow(a // g, -1, b // g)
    return g, s, (g - s * a) // b


def _clear(top: list[int], row: list[int], mod: int) -> tuple[list, list]:
    """(top, row) after 2 x 2 row steps of determinant 1, modulo mod.

    0 <= top[0] and 0 < row[0].  The new row[0] is 0: the exact
    quotient where top[0] divides row[0], and else the combination
    [[s, u], [-b/g, p/g]] from _xgcd(p, b) of p = top[0], b = row[0],
    which leaves their gcd g in top[0].
    """
    p, b = top[0], row[0]
    if p and not b % p:
        q = b // p
        return top, [(y - q * x) % mod for x, y in zip(top, row)]
    g, s, u = _xgcd(p, b)
    p, b = p // g, b // g
    return ([(s * x + u * y) % mod for x, y in zip(top, row)],
            [(p * y - b * x) % mod for x, y in zip(top, row)])


def _hermite_mod(a, delta: int) -> list[list[int]]:
    """The row Hermite form of the square a, |det a| = delta != 0, modulo delta.

    The rows of the result span the row span of a, form an upper
    triangular matrix with a positive diagonal, and each entry above a
    diagonal entry h lies in [0, h) (Domich, Kannan and Trotter 1987;
    Cohen 1993, Alg. 2.4.8).  delta * Z^n lies in that span, so entries
    are kept modulo r_t, which starts at delta.  Column t is cleared by
    _clear into the top row, whose entry p then gives the diagonal
    entry h_t = gcd(p, r_t) through _xgcd(p, r_t) and r_t * e_t, and
    the rows left span a lattice of index r_t / h_t = r_(t+1) in the
    trailing coordinates.  The entries above h_t are then reduced by
    the new row, and the rows above stay modulo r_t, as r_t * e_l lies
    in the span for l >= t.
    """
    a = [[x % delta for x in row] for row in a]
    h, r = [], delta
    for t in range(len(a)):
        top = a[0]
        for i in range(1, len(a)):
            if a[i][0]:
                top, a[i] = _clear(top, a[i], r)
        g, s, _ = _xgcd(top[0], r)
        top = [g] + [s * x % r for x in top[1:]]
        for row in h:
            q = row[t] // g
            if q:
                row[t:] = [(x - q * y) % r for x, y in zip(row[t:], top)]
        h.append([0] * t + top)
        r //= g
        a = [row[1:] for row in a[1:]]
    return h


def _diagonal_mod(a: list[list[int]], delta: int) -> list[int]:
    """The Smith diagonal of the square a, |det a| = delta != 0, modulo delta.

    delta * I = +-adj(a) * a, so delta * Z^n lies in the row span of a,
    coker a = coker [a; delta * I], and every entry may be kept reduced
    modulo delta.  The first column is cleared by _clear's 2 x 2 row
    steps of determinant 1, which _hermite_mod takes too.  If the pivot
    then fails to divide its row, the block is transposed, which keeps
    its Smith form, and the row is cleared as a column;
    each such pass replaces the pivot by a proper divisor, so the
    passes end.  Once the pivot divides its row, column steps that
    change nothing else would clear it; the pivot is e_t, and the
    trailing block goes on.  Z^n / (row span of a) is then the sum of
    the Z / gcd(e_t, delta), put into a divisibility chain by gcd and
    lcm, and RuntimeError is raised unless they multiply to delta.
    """
    a = [[x % delta for x in row] for row in a]
    diagonal = []
    while a:
        while True:
            top = a[0]
            for i in range(1, len(a)):
                if a[i][0]:
                    top, a[i] = _clear(top, a[i], delta)
            a[0], p = top, top[0]
            if not (any(x % p for x in top[1:]) if p else any(top[1:])):
                break
            a = [list(col) for col in zip(*a)]
        diagonal.append(gcd(p, delta))
        a = [row[1:] for row in a[1:]]
    for i, j in combinations(range(len(diagonal)), 2):
        g = gcd(diagonal[i], diagonal[j])
        diagonal[i], diagonal[j] = g, diagonal[i] * diagonal[j] // g
    if prod(diagonal) != delta:
        # no numbers in the message: |det| may have too many digits
        raise RuntimeError("modular invariant factors do not multiply "
                           "to |det m|")
    return diagonal


def smith_normal_form(m: IntegerMatrix) -> SmithForm:
    """Smith normal form d = u * m * v with explicit unimodular transforms.

    _full_smith picks the route by m alone.  A nonsingular square m
    takes its Hermite form modulo |det m|, and u and v have entries
    about the size of |det m|; a singular or rectangular m (and the
    Hermite form's block of non-unit columns) goes to the elimination,
    which takes each step once on m, u and v as one block; see
    _eliminate for the pivot rule.  The group alone needs no u and v,
    which are where the coefficients grow: see cokernel.
    """
    return SmithForm(*_full_smith(m))


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

    Columns are generators, rows are relations.  The group needs no
    transforms, so it is read off the Smith diagonal that
    _group_diagonal finds from m alone, at a fraction of the cost of
    smith_normal_form; d is unique, so that is the diagonal of the
    eager form.
    """
    return _group(_group_diagonal(m), m.cols)


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
