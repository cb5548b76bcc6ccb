"""Exact real-descent decisions for point configurations in the projective plane.

Coordinates live in the Gaussian rationals Q(i); every verdict comes
with a certificate that re-checks by exact arithmetic.
"""

from .errors import InternalError, InvalidInputError, PlanarDescentError, TooManyPointsError
from .gaussian import NotANormError, ParseError, two_squares
from .plane import (
    DegenerateInputError,
    Line,
    PointConfig,
    ProjPoint,
    SemiProjMap,
    collinear,
    line_through,
)
from .equivalence import (
    ConfigClass,
    ConfigTag,
    LineReduction,
    NeedsReductionError,
    TooSmallError,
    WrongClassError,
    aut_group,
    classify,
    equivalences,
    pgl2_equivalences,
    reduce_to_line,
)
from .descent import (
    DescentCertificate,
    IrrationalModelError,
    NormalizerGroup,
    NotACocycleError,
    descends_real,
    fom_real,
    hilbert90_split,
    normalizer,
    real_model_check,
)
from .families import (
    DEFAULT_POOL,
    FamilyParams,
    GenericityReport,
    InvalidParameterError,
    PaperReport,
    family,
    verify_paper,
)

__version__ = "0.1.0"
