"""Exact real-descent decisions for point configurations in the projective plane.

Coordinates live in the Gaussian rationals Q(i); every verdict comes
with a certificate that re-checks by exact arithmetic.
"""

from .errors import InternalError, InvalidInputError, PlanarDescentError
from .gaussian import (
    GaussianRational,
    NotANormError,
    ParseError,
    Rational,
    format_gq,
    gq,
    parse_gq,
    two_squares,
)
from .plane import (
    Conic,
    DegenerateInputError,
    Line,
    NotAFrameError,
    PointConfig,
    ProjPoint,
    SemiProjMap,
    collinear,
    conic_through_5,
    conj_config,
    frame_map,
    line_through,
    map_between_frames,
)
from .equivalence import (
    ConfigClass,
    ConfigTag,
    LineReduction,
    NeedsReductionError,
    TooManyPointsError,
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
    CANONICAL_FIVE,
    DEFAULT_POOL,
    FamilyParams,
    GenericityReport,
    InvalidParameterError,
    PaperReport,
    canonical_two_lines,
    certify_generic,
    family,
    verify_paper,
)

__version__ = "0.1.0"
