"""Exact arithmetic with slopes on a torus.

A slope is an isotopy class of unoriented essential simple closed curves
on a torus.  After fixing a meridian-longitude basis it is recorded as a
reduced fraction p/q, where the meridian itself is 1/0.  Because curves
are unoriented, p/q and (-p)/(-q) are the same slope; the canonical
representative has q > 0, or is exactly 1/0.

All arithmetic is exact.  Numerators and denominators are plain Python
integers, never floats, so nothing here overflows or rounds.
"""

from __future__ import annotations

from math import gcd, isqrt

from .matrices import InputError, _Value, doc_integer, integer


class SlopeError(InputError):
    """Raised for input that does not describe a slope or a basis change."""


class Slope(_Value):
    """A slope p/q in lowest terms with q > 0, or the meridian 1/0.

    The constructor accepts any pair (p, q) != (0, 0) and normalizes it,
    so Slope(-2, -4) == Slope(1, 2) and Slope(-3, 0) == Slope(1, 0).
    """

    __slots__ = _fields = ("p", "q")

    def __init__(self, p: int, q: int):
        p, q = integer(p), integer(q)
        if p == 0 and q == 0:
            raise SlopeError("0/0 does not determine a slope")
        g = gcd(p, q)
        p, q = p // g, q // g
        if q < 0 or (q == 0 and p < 0):
            p, q = -p, -q
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @classmethod
    def parse(cls, text: str) -> "Slope":
        """Parse 'p/q' or a bare 'p' (p/1); p, q match -?[0-9]+ exactly."""
        if not isinstance(text, str):
            raise TypeError(f"{text!r} is not a string")
        try:
            if "/" in text:
                a, b = text.split("/")
                return cls(doc_integer(a), doc_integer(b))
            return cls(doc_integer(text), 1)
        except SlopeError:
            raise
        except ValueError:
            raise SlopeError(f"cannot parse slope from {text!r}") from None

    def __str__(self):
        return f"{self.p}/{self.q}"

    def __neg__(self):
        return Slope(-self.p, self.q)


MERIDIAN = Slope(1, 0)
LONGITUDE = Slope(0, 1)


def distance(s: Slope, t: Slope) -> int:
    """Geometric intersection number |p1*q2 - q1*p2| of two slopes.

    Distance 0 means equal slopes, distance 1 means the pair forms a
    basis of the torus.  Note d(s, -s) = 2|pq|, always even, so a slope
    and its negative are never a basis.
    """
    return abs(s.p * t.q - s.q * t.p)


class SlopeInvolution(_Value):
    """An integral unimodular change of slope coordinates.

    The matrix [[a, b], [c, d]] with |ad - bc| = 1 acts on a slope p/q
    by (p, q) |-> (a*p + b*q, c*p + d*q).  Despite the name, any
    unimodular matrix is accepted; the map is an honest involution on
    slopes exactly when the matrix squares to plus or minus the
    identity, which is_involution() checks.  (Sign does not matter
    because slopes are unoriented.)
    """

    __slots__ = _fields = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        object.__setattr__(self, "a", integer(a))
        object.__setattr__(self, "b", integer(b))
        object.__setattr__(self, "c", integer(c))
        object.__setattr__(self, "d", integer(d))
        if abs(self.det) != 1:
            raise SlopeError(
                f"matrix [[{self.a}, {self.b}], [{self.c}, {self.d}]] "
                "is not unimodular"
            )

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def apply(self, s: Slope) -> Slope:
        return Slope(self.a * s.p + self.b * s.q, self.c * s.p + self.d * s.q)

    def is_involution(self) -> bool:
        """True when the matrix squares to +Id or -Id."""
        # M^2 = tr(M) M - det(M) Id (Cayley-Hamilton), a multiple of Id
        # exactly when the trace vanishes or M itself is +-Id
        a, b, c, d = self.a, self.b, self.c, self.d
        return a + d == 0 or (b == c == 0 and a == d)


# exchanges the meridian and longitude coordinates
AXIS_SWAP = SlopeInvolution(0, 1, 1, 0)


def canonical_slopes(bound: int):
    """Yield every slope with |p| <= bound and 0 <= q <= bound.

    The meridian 1/0 comes first, then slopes ordered by q and p.  For
    bound 1 this is exactly 1/0, -1/1, 0/1, 1/1.
    """
    bound = integer(bound)
    if bound < 0:
        raise SlopeError("bound must be nonnegative")
    if bound >= 1:
        yield MERIDIAN
    for q in range(1, bound + 1):
        for p in range(-bound, bound + 1):
            if gcd(p, q) == 1:
                yield Slope(p, q)


def fixed_slopes(inv: SlopeInvolution, bound: int) -> list[Slope]:
    """All slopes with |p|, q <= bound fixed by the coordinate change.

    [[a, b], [c, d]] fixes p/q exactly when
    c*p^2 + (d - a)*p*q - b*q^2 = 0, so the fixed slopes are the
    rational roots of that form: every slope for +-Id, at most two
    otherwise.  They come in canonical_slopes order, the meridian
    first, then by q and p.
    """
    if integer(bound) < 0:
        raise SlopeError("bound must be nonnegative")
    a, b, c, d = inv.a, inv.b, inv.c, inv.d
    if b == c == 0 and a == d:
        return list(canonical_slopes(bound))
    if c == 0:
        roots = {MERIDIAN} if a == d else {MERIDIAN, Slope(b, d - a)}
    else:
        disc = (a + d) ** 2 - 4 * inv.det
        r = isqrt(max(disc, 0))
        roots = set()
        if r * r == disc:  # a rational root needs a square discriminant
            roots = {Slope(a - d + r, 2 * c), Slope(a - d - r, 2 * c)}
    return sorted(
        (s for s in roots if abs(s.p) <= bound and s.q <= bound),
        key=lambda s: (s.q, s.p),
    )
