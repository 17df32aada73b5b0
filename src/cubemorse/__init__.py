"""Memory-light homology and connection matrices for large cubical complexes.

Cells are integer-coded and complexes answer queries from the code, decoded
through small per-chunk digit tables, instead of materializing incidence
data.  The first reduction round evaluates the template matching as one
array pass per axis over the member ids; flow counting and the later
coreduction rounds work on the few cells it leaves fixed.
"""

from .core import (
    AcyclicityError,
    CellComplexLike,
    ExplicitComplex,
    FormatError,
    IntegrityError,
    NonMemberCellError,
    SizeGuardError,
    TrichotomyError,
    betti_oracle,
    validate_complex,
)
from .cubical import CubicalComplex, alpha, beta
from .hypercube import HypercubeComplex
from .matching import (
    SequenceMatching,
    TemplateMatching,
    classify,
    mate,
    mate_table,
    verify_acyclic,
    verify_matching,
    verify_stable,
)
from .morse import (
    ConleyResult,
    HomologyResult,
    connection_matrix,
    generic_round,
    homology,
    morse_complex,
    template_round,
)
from .braid import (
    BraidComplex,
    BraidSkeleton,
    SkeletonError,
    build_braid_complex,
    condensation,
    crossing_number,
    nfold_cover,
    reference_braid,
    torus_knot,
    validate_skeleton,
)

__version__ = "0.1.0"

__all__ = [
    "AcyclicityError",
    "BraidComplex",
    "BraidSkeleton",
    "CellComplexLike",
    "ConleyResult",
    "CubicalComplex",
    "ExplicitComplex",
    "FormatError",
    "HomologyResult",
    "HypercubeComplex",
    "IntegrityError",
    "NonMemberCellError",
    "SequenceMatching",
    "SizeGuardError",
    "SkeletonError",
    "TemplateMatching",
    "TrichotomyError",
    "alpha",
    "beta",
    "betti_oracle",
    "build_braid_complex",
    "classify",
    "condensation",
    "connection_matrix",
    "crossing_number",
    "generic_round",
    "homology",
    "mate",
    "mate_table",
    "morse_complex",
    "nfold_cover",
    "reference_braid",
    "template_round",
    "torus_knot",
    "validate_complex",
    "validate_skeleton",
    "verify_acyclic",
    "verify_matching",
    "verify_stable",
]
