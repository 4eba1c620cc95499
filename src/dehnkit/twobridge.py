"""Conway words, continued fractions, and Schubert normal forms.

A rational tangle is encoded by a Conway word C(a_1, ..., a_k) of
twist counts.  Its closure is the two-bridge link whose fraction is the
continued fraction

    1 / (a_1 + 1 / (a_2 + ... + 1 / a_k))

evaluated exactly.  Writing that fraction as q/p gives the Schubert
normal form S(p, q) with 0 <= q < p, which classifies the link: S(p, q)
and S(p, q') are isotopic iff q' is congruent to q or to the inverse of
q mod p.  The same pair classifies the lens space double branched over
the link, which is how the achirality test below is phrased.

A twist count may be 0: continued_fraction refuses only a word with a
proper tail a_i + 1/(... + 1/a_k), i > 1, that evaluates to 0, so C(0)
gives 1/0 and C(0, 1) gives 1/1.
"""

from __future__ import annotations

from math import gcd

from .matrices import InputError, _Value, doc_integer, integer
from .slopes import Slope


class TangleError(InputError):
    """Raised for ill-formed Conway words or impossible evaluations."""


class ConwayWord(_Value):
    """A tuple of twist counts C(a_1, ..., a_k)."""

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: tuple[int, ...]):
        entries = tuple(map(integer, entries))
        if not entries:
            raise TangleError("a Conway word needs at least one entry")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def parse(cls, text: str) -> "ConwayWord":
        """Parse entries separated by whitespace or by single commas.

        '2,2,-1', '2 2 -1' and ' 2, 2 ' all parse; each entry is an
        integer -?[0-9]+ in ASCII (doc_integer).  A comma separates two
        entries, so '3,,3', ',3' and '3,' raise TangleError.
        """
        if not isinstance(text, str):
            raise TypeError(f"{text!r} is not a string")
        parts = [entry.split() for entry in text.split(",")]
        if all(parts):
            try:
                return cls(tuple(doc_integer(x) for part in parts
                                 for x in part))
            except InputError:
                pass
        raise TangleError(f"cannot parse Conway word from {text!r}")

    def mirror(self) -> "ConwayWord":
        """Mirror image: negate every twist count."""
        return ConwayWord(tuple(-a for a in self.entries))

    def __str__(self):
        return "C(" + ", ".join(str(a) for a in self.entries) + ")"


def continued_fraction(word) -> Slope:
    """Evaluate a Conway word to the slope of its tangle closure.

    Works from the innermost entry outward: the running value of the
    tail a_i + 1/(a_{i+1} + ...) is kept as an exact pair.  If a proper
    tail evaluates to zero the next step would divide by zero and the
    word does not describe a tangle; the error names the offending
    suffix.  A zero value of the whole bracket is fine, the result is
    then the slope 1/0.
    """
    if not isinstance(word, ConwayWord):
        word = ConwayWord(tuple(word))
    entries = word.entries
    num, den = entries[-1], 1
    for i in range(len(entries) - 2, -1, -1):
        if num == 0:
            tail = ", ".join(str(a) for a in entries[i + 1:])
            raise TangleError(
                f"suffix ({tail}) of {word} evaluates to 0; "
                "cannot take its reciprocal"
            )
        num, den = entries[i] * num + den, num
    # the closure fraction is the reciprocal of the bracket value
    return Slope(den, num)


class SchubertForm(_Value):
    """Normal form S(p, q) with p >= 1, 0 <= q < p, gcd(p, q) = 1.

    S(1, 0) is the unknot.  q determines the link up to the congruence
    q' == q or q*q' == 1 (mod p).
    """

    __slots__ = _fields = ("p", "q")

    def __init__(self, p: int, q: int):
        object.__setattr__(self, "p", integer(p))
        object.__setattr__(self, "q", integer(q))
        if self.p < 1:
            raise TangleError(f"Schubert p must be positive, got {self.p}")
        if not 0 <= self.q < self.p:
            raise TangleError(
                f"Schubert q must satisfy 0 <= q < p, got S({self.p}, {self.q})"
            )
        if gcd(self.p, self.q) != 1:
            raise TangleError(
                f"S({self.p}, {self.q}) is not reduced: gcd = {gcd(self.p, self.q)}"
            )

    @classmethod
    def from_slope(cls, s: Slope) -> "SchubertForm":
        """Normal form of the two-bridge closure with fraction q/p = s.

        The slope's denominator becomes p and its numerator is reduced
        mod p.  The meridian 1/0 corresponds to the two-component
        unlink, which has no Schubert normal form.
        """
        if s.q == 0:
            raise TangleError(
                "fraction 1/0 closes to the 2-component unlink, "
                "which has no Schubert normal form"
            )
        return cls(s.q, s.p % s.q)

    @property
    def components(self) -> int:
        """1 for a knot (p odd), 2 for a two-component link (p even)."""
        return 1 if self.p % 2 == 1 else 2

    @property
    def is_knot(self) -> bool:
        return self.p % 2 == 1

    def mirror(self) -> "SchubertForm":
        """Mirror image S(p, -q mod p)."""
        return SchubertForm(self.p, (-self.q) % self.p)

    def __str__(self):
        return f"S({self.p},{self.q})"


def schubert_equivalent(a: SchubertForm, b: SchubertForm) -> bool:
    """Isotopy test: same p, and q' == q or q*q' == 1 (mod p)."""
    return a.p == b.p and (b.q == a.q or (a.q * b.q) % a.p == 1)


def is_achiral_lens(a: SchubertForm) -> bool:
    """Whether S(p, q) equals its own mirror, i.e. q^2 == -1 (mod p).

    Equivalently the lens space branched over the link admits an
    orientation-reversing self-map.  S(1, 0) and S(2, 1) are achiral.
    """
    return (a.q * a.q + 1) % a.p == 0


# ----------------------------------------------------------------------
# the one-parameter family C(n, n, -1, n, n)
# ----------------------------------------------------------------------

def family_polynomials(n: int) -> tuple[int, int]:
    """The pair (p, q) with C(n, n, -1, n, n) evaluating to q/p.

    p(n) = n^4 - 2n^3 + 2n^2 - 2n + 1 = (n - 1)^2 (n^2 + 1)
    q(n) = n^3 - 2n^2 + n - 1

    These are coprime for every integer n: p - n*q = n^2 - n + 1, and
    the Euclidean chain from (q, n^2 - n + 1) terminates at 1.
    """
    p = (n - 1) ** 2 * (n * n + 1)
    q = n ** 3 - 2 * n * n + n - 1
    return p, q


def family_word(n: int) -> ConwayWord:
    """The Conway word C(n, n, -1, n, n).

    n = 0 and n = 1 are excluded: the first has the proper tail C(0),
    which evaluates to 0, and the second collapses to the unknot
    (p(1) = 0).
    """
    n = integer(n)
    if n in (0, 1):
        raise TangleError(f"family parameter n = {n} is degenerate")
    return ConwayWord((n, n, -1, n, n))


def family_schubert(n: int) -> SchubertForm:
    """Schubert normal form of the closure of C(n, n, -1, n, n).

    Evaluates the continued fraction and checks the result against the
    closed-form polynomials before reducing q mod p; a mismatch is a
    fault here, not bad input, so it raises RuntimeError.
    """
    word = family_word(n)
    s = continued_fraction(word)
    p, q = family_polynomials(n)
    # p(n) > 0 for n != 1 and the slope denominator is normalized
    # positive, so the match must be exact
    if (s.q, s.p) != (p, q):
        raise RuntimeError(f"n = {n}: {word} gives {s}, not {q}/{p}")
    return SchubertForm.from_slope(s)
