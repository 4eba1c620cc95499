"""Framed links, Dehn fillings, and first homology of surgery diagrams.

A surgery description is a link in the three-sphere together with a
slope on some (possibly all, possibly none) of its components.  First
homology of the resulting manifold has one generator per component and,
for each component i filled along p/q, the relation

    p * m_i + q * sum_j lk(i, j) * m_j = 0.

Stacking these rows gives an integer presentation matrix whose cokernel
is the homology group; everything reduces to the Smith normal form
machinery in matrices.py.

The module also carries a one-parameter family of six-component
diagrams, one for each integer n outside {0, 1}: five chain components
are filled with integral slopes n, -n, -1, -n, n and the sixth, the
axis, is left open.  The resulting manifold is the exterior of a knot
whose closed fillings along the axis have cyclic first homology of
order (n - 1)^2 (n^2 + 1), while the exterior itself has torsion
|(n - 1)(n^2 + 1)|.  Comparing the two numbers certifies, for every
n except n = 2, that the core of the axis is not null-homologous.
"""

from __future__ import annotations

from .matrices import (
    AbelianGroup, InputError, IntegerMatrix, _Value, cokernel, doc_integer,
    integer,
)
from .slopes import AXIS_SWAP, LONGITUDE, MERIDIAN, Slope, distance
from .twobridge import (
    SchubertForm, family_polynomials, family_schubert, is_achiral_lens,
)


class SurgeryError(InputError):
    """Raised for malformed links, fillings, or documents."""


class CertificationError(RuntimeError):
    """Raised when a family diagram fails its own structure checks."""


class FramedLink(_Value):
    """A link recorded by its linking matrix.

    The matrix is symmetric with zero diagonal; entry (i, j) is the
    linking number of components i and j.  Self-framings are not stored
    here, they arrive later as filling slopes.  Labels are optional
    names used by documents and the command line; they default to
    K1, ..., Km.
    """

    __slots__ = _fields = ("linking", "labels")

    def __init__(self, linking: tuple[tuple[int, ...], ...],
                 labels: tuple[str, ...] = ()):
        linking = tuple(tuple(map(integer, r)) for r in linking)
        m = len(linking)
        for i, row in enumerate(linking):
            if len(row) != m:
                raise SurgeryError("linking matrix must be square")
            if row[i] != 0:
                raise SurgeryError(
                    f"linking matrix diagonal must vanish, got {row[i]} at {i}"
                )
        for i in range(m):
            for j in range(i):
                if linking[i][j] != linking[j][i]:
                    raise SurgeryError(
                        f"linking matrix is not symmetric at ({i}, {j})"
                    )
        if isinstance(labels, str):
            raise TypeError(f"labels {labels!r} is a string, not one "
                            "string per component")
        labels = tuple(labels) or tuple(f"K{i + 1}" for i in range(m))
        for label in labels:
            if not isinstance(label, str):
                raise TypeError(f"label {label!r} is not a string")
        if len(labels) != m or len(set(labels)) != m:
            raise SurgeryError("need one distinct label per component")
        object.__setattr__(self, "linking", linking)
        object.__setattr__(self, "labels", labels)

    @property
    def num_components(self) -> int:
        return len(self.linking)

    def index(self, component) -> int:
        """Resolve a component given as label, index, or index string."""
        if component in self.labels:
            return self.labels.index(component)
        try:
            i = doc_integer(component)
        except ValueError:
            raise SurgeryError(
                f"no component labelled {component!r}; "
                f"have {', '.join(self.labels)}"
            ) from None
        if not 0 <= i < self.num_components:
            raise SurgeryError(f"component index {i} out of range")
        return i

    def resolve_fillings(self, fillings) -> dict[int, Slope]:
        """Normalize a mapping of component -> slope.

        Keys may be labels or indices, values Slope objects or 'p/q'
        strings.  Two keys naming the same component is an error.  Labels
        are strings, so an int key in range is taken as the index it is.
        """
        m = self.num_components
        out: dict[int, Slope] = {}
        for key, value in fillings.items():
            i = key if type(key) is int and 0 <= key < m else self.index(key)
            if i in out:
                raise SurgeryError(
                    f"component {self.labels[i]} filled twice"
                )
            out[i] = value if isinstance(value, Slope) else Slope.parse(value)
        return out

    def to_doc(self, fillings=None) -> dict:
        doc = {
            "components": self.num_components,
            "labels": list(self.labels),
            "linking": [list(row) for row in self.linking],
        }
        if fillings:
            resolved = self.resolve_fillings(fillings)
            doc["fillings"] = {
                self.labels[i]: str(s) for i, s in sorted(resolved.items())
            }
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> tuple["FramedLink", dict[int, Slope]]:
        """Read a link document, returning the link and its fillings."""
        try:
            m = doc_integer(doc["components"])
            linking = IntegerMatrix.from_doc(
                {"rows": m, "cols": m, "entries": doc["linking"]})
            labels = doc.get("labels", [])
            if not isinstance(labels, list) or not all(
                    isinstance(s, str) for s in labels):
                raise TypeError("labels must be an array of strings")
        except (KeyError, TypeError, ValueError) as exc:
            raise SurgeryError(f"malformed link document: {exc}") from None
        fillings = doc.get("fillings", {})
        if not isinstance(fillings, dict) or not all(
                isinstance(s, str) for s in fillings.values()):
            raise SurgeryError("malformed link document: fillings must map "
                               "components to 'p/q' strings")
        link = cls(linking.entries(), labels)
        return link, link.resolve_fillings(fillings)


def build_presentation(link: FramedLink, fillings) -> IntegerMatrix:
    """Presentation matrix of H_1 of the filled manifold.

    One column per component, one row per filled component, listed in
    component order.  Filling component i along p/q contributes the row
    p * e_i + q * (row i of the linking matrix).  With every component
    filled along an integral slope this is the linking matrix plus the
    diagonal of framings.
    """
    fills = link.resolve_fillings(fillings)
    rows = []
    for i in sorted(fills):
        s = fills[i]
        row = [s.q * x for x in link.linking[i]]
        row[i] += s.p
        rows.append(row)
    return IntegerMatrix._trusted(rows, link.num_components)


def fill_remaining(link: FramedLink, fillings, extra) -> IntegerMatrix:
    """Presentation with extra fillings appended below the base ones.

    The extra slopes must land on components the base fillings leave open;
    refilling a filled component is an error rather than an override.
    """
    base = link.resolve_fillings(fillings)
    added = link.resolve_fillings(extra)
    clash = sorted(set(base) & set(added))
    if clash:
        names = ", ".join(link.labels[i] for i in clash)
        raise SurgeryError(f"already filled: {names}")
    rows = build_presentation(link, base).entries()
    rows += build_presentation(link, added).entries()
    return IntegerMatrix._trusted(rows, link.num_components)


def surgered_homology(link: FramedLink, fillings) -> AbelianGroup:
    """First homology of the filled manifold."""
    return cokernel(build_presentation(link, fillings))


# ----------------------------------------------------------------------
# the knot exterior family
# ----------------------------------------------------------------------

CERTIFIED = "CERTIFIED-NON-NULL-HOMOLOGOUS"
INCONCLUSIVE = "INCONCLUSIVE-BY-HOMOLOGY"

# linking numbers of the six-component diagram: a five-component chain
# a-b-c-d-e with an axis x threading a, c, e; independent of n, so
# built and validated once at import
_FAMILY_LINK = FramedLink(
    (
        (0, -1, 0, 0, 0, 1),
        (-1, 0, 1, 0, 0, 0),
        (0, 1, 0, -1, 0, -1),
        (0, 0, -1, 0, 1, 0),
        (0, 0, 0, 1, 0, 1),
        (1, 0, -1, 0, 1, 0),
    ),
    ("a", "b", "c", "d", "e", "x"),
)

# independent of n, so checked once at import
_DISTANCE_ONE_SWAP = (
    distance(MERIDIAN, LONGITUDE) == 1
    and AXIS_SWAP.apply(MERIDIAN) == LONGITUDE
    and AXIS_SWAP.apply(LONGITUDE) == MERIDIAN
)


def mn_framed_link(n: int) -> tuple[FramedLink, dict[int, Slope]]:
    """The n-th family diagram with its five chain fillings.

    Components a, b, c, d, e are filled along n, -n, -1, -n, n; the
    axis x stays open.  n = 0 and n = 1 are rejected, the diagram
    degenerates there.
    """
    n = integer(n)
    if n in (0, 1):
        raise SurgeryError(f"family parameter n = {n} is degenerate")
    fillings = {
        "a": Slope(n, 1),
        "b": Slope(-n, 1),
        "c": Slope(-1, 1),
        "d": Slope(-n, 1),
        "e": Slope(n, 1),
    }
    return _FAMILY_LINK, _FAMILY_LINK.resolve_fillings(fillings)


def family_torsion(n: int) -> int:
    """|H_1|-torsion of the n-th exterior: |(n - 1)(n^2 + 1)|."""
    return abs((n - 1) * (n * n + 1))


class FamilyReport(_Value):
    """Everything certify_family establishes about one parameter n.

    null_homology is one of the two verdict strings CERTIFIED and
    INCONCLUSIVE; no other value is ever produced.  The torsion order
    separates the family members pairwise, so as_dict also reports it
    as the distinctness hash.
    """

    __slots__ = _fields = ("n", "schubert", "components", "torsion",
                           "lens_order", "chirality", "null_homology",
                           "distance_one_swap")

    def __init__(self, n: int, schubert: SchubertForm, components: int,
                 torsion: int, lens_order: int, chirality: str,
                 null_homology: str, distance_one_swap: bool):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "schubert", schubert)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "torsion", torsion)
        object.__setattr__(self, "lens_order", lens_order)
        object.__setattr__(self, "chirality", chirality)
        object.__setattr__(self, "null_homology", null_homology)
        object.__setattr__(self, "distance_one_swap", distance_one_swap)

    def as_dict(self) -> dict:
        d = dict(zip(self._fields, self._values()))
        d["schubert"] = str(self.schubert)
        d["distinctness_hash"] = self.torsion
        return d


def certify_family(n: int) -> FamilyReport:
    """Compute the homology certificate for one family member.

    Derives the torsion of the open exterior and the orders of the two
    closed fillings x -> 1/0 and x -> 0/1 from Smith normal forms, then
    compares them: when the orders differ the axis core cannot be
    null-homologous in the filled manifold.  Raises CertificationError
    if the diagram does not have the promised shape (free rank one
    exterior, finite cyclic fillings of equal order).
    """
    link, fills = mn_framed_link(n)

    exterior = surgered_homology(link, fills)
    if exterior.free_rank != 1 or len(exterior.invariant_factors) > 1:
        raise CertificationError(
            f"exterior homology {exterior} is not Z + torsion"
        )
    torsion = exterior.invariant_factors[0] if exterior.invariant_factors else 1

    orders = []
    for closing in (MERIDIAN, LONGITUDE):
        h = cokernel(fill_remaining(link, fills, {"x": closing}))
        if not h.is_cyclic:
            raise CertificationError(
                f"filling {closing} gives {h}, not finite cyclic"
            )
        orders.append(h.order())
    if orders[0] != orders[1]:
        raise CertificationError(
            f"filling orders {orders[0]} != {orders[1]}"
        )
    lens_order = orders[0]

    schubert = family_schubert(n)
    verdict = INCONCLUSIVE if torsion == lens_order else CERTIFIED
    return FamilyReport(
        n=n,
        schubert=schubert,
        components=schubert.components,
        torsion=torsion,
        lens_order=lens_order,
        chirality="achiral" if is_achiral_lens(schubert) else "chiral",
        null_homology=verdict,
        distance_one_swap=_DISTANCE_ONE_SWAP,
    )


def verify_family(n_lo: int, n_hi: int):
    """Certify every n in [n_lo, n_hi] outside {0, 1} and cross-check.

    Returns (reports, failures) where failures is a list of strings,
    one per violated check, each naming the check and the parameter.
    The checks compare computed invariants against the closed-form
    polynomials, each failing as "CHECK n=N: got X, expected Y", and
    verify pairwise distinctness across the range.
    """
    n_lo, n_hi = integer(n_lo), integer(n_hi)
    if n_lo > n_hi:
        raise SurgeryError(f"empty range [{n_lo}, {n_hi}]")
    reports: list[FamilyReport] = []
    failures: list[str] = []
    for n in range(n_lo, n_hi + 1):
        if n in (0, 1):
            continue
        try:
            reports.append(certify_family(n))
        except CertificationError as exc:
            failures.append(f"certification n={n}: {exc}")
    for r in reports:
        n = r.n
        checks = (
            ("torsion", r.torsion, family_torsion(n)),
            ("lens-order", r.lens_order, family_polynomials(n)[0]),
            ("order-ratio", r.lens_order, abs(n - 1) * r.torsion),
            ("verdict", r.null_homology,
             INCONCLUSIVE if n == 2 else CERTIFIED),
            ("chirality", r.chirality, "chiral"),
            ("swap", r.distance_one_swap, True),
        )
        failures.extend(
            f"{check} n={n}: got {got}, expected {expected}"
            for check, got, expected in checks if got != expected
        )
    seen: dict[int, int] = {}
    for r in reports:
        first = seen.setdefault(r.torsion, r.n)
        if first != r.n:
            failures.append(
                f"distinctness n={r.n}: hash {r.torsion} "
                f"collides with n={first}"
            )
    return reports, failures
