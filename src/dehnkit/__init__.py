"""dehnkit: exact integer computations around Dehn surgery.

The package has four layers.  They are not independent: matrices
imports no other layer, slopes takes its integer readers (integer,
doc_integer) from matrices, twobridge takes those and Slope, and
surgery builds on all three.

- slopes: reduced fractions p/q (1/0 allowed) with intersection
  distance and unimodular coordinate changes;
- twobridge: Conway words, their exact continued fractions, and the
  Schubert normal forms classifying two-bridge links and lens spaces;
- matrices: arbitrary-precision integer matrices, Smith normal form
  with explicit unimodular transforms, cokernels as abelian groups,
  and an independent gcd-of-minors cross-check;
- surgery: framed links, homology presentations of Dehn fillings, and
  the certification pipeline for a one-parameter family of knot
  exteriors whose closed fillings are lens spaces.

All arithmetic is exact; there are no floats anywhere.
"""

from .matrices import (
    AbelianGroup,
    InputError,
    IntegerMatrix,
    MatrixError,
    SmithForm,
    cokernel,
    minors_gcd_oracle,
    smith_normal_form,
)
from .slopes import (
    AXIS_SWAP,
    LONGITUDE,
    MERIDIAN,
    Slope,
    SlopeError,
    SlopeInvolution,
    canonical_slopes,
    distance,
    fixed_slopes,
)
from .surgery import (
    CERTIFIED,
    INCONCLUSIVE,
    CertificationError,
    FamilyReport,
    FramedLink,
    SurgeryError,
    build_presentation,
    certify_family,
    family_torsion,
    fill_remaining,
    mn_framed_link,
    surgered_homology,
    verify_family,
)
from .twobridge import (
    ConwayWord,
    SchubertForm,
    TangleError,
    continued_fraction,
    family_polynomials,
    family_schubert,
    family_word,
    is_achiral_lens,
    schubert_equivalent,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "AXIS_SWAP",
    "CERTIFIED",
    "CertificationError",
    "ConwayWord",
    "FamilyReport",
    "FramedLink",
    "INCONCLUSIVE",
    "InputError",
    "IntegerMatrix",
    "LONGITUDE",
    "MERIDIAN",
    "MatrixError",
    "SchubertForm",
    "Slope",
    "SlopeError",
    "SlopeInvolution",
    "SmithForm",
    "SurgeryError",
    "TangleError",
    "build_presentation",
    "canonical_slopes",
    "certify_family",
    "cokernel",
    "continued_fraction",
    "distance",
    "family_polynomials",
    "family_schubert",
    "family_torsion",
    "family_word",
    "fill_remaining",
    "fixed_slopes",
    "is_achiral_lens",
    "minors_gcd_oracle",
    "mn_framed_link",
    "schubert_equivalent",
    "smith_normal_form",
    "surgered_homology",
    "verify_family",
]
