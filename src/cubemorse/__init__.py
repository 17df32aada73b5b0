"""Memory-light homology and connection matrices for large cubical complexes.

Cells are integer-coded and complexes answer queries from the code, whose
digits give each cell's faces by one formula, instead of materializing
incidence data.  The first reduction round evaluates the template matching as one
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
    validate_complex,
)
from .cubical import CubicalComplex, alpha, beta
from .matching import (
    TemplateMatching,
    verify_acyclic,
    verify_matching,
    verify_stable,
)
from .morse import (
    ConleyResult,
    HomologyResult,
    connection_matrix,
    homology,
    template_round,
)
from .braid import (
    BraidComplex,
    BraidSkeleton,
    SkeletonError,
    build_braid_complex,
    condensation,
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
    "IntegrityError",
    "NonMemberCellError",
    "SizeGuardError",
    "SkeletonError",
    "TemplateMatching",
    "TrichotomyError",
    "alpha",
    "beta",
    "build_braid_complex",
    "condensation",
    "connection_matrix",
    "homology",
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
