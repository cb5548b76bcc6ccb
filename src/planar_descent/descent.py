"""Real-descent decision with explicit certificates.

A configuration S in the complex projective plane descends to the real
plane exactly when its symmetry group contains an antiholomorphic
involution: a matrix A with A . conj(A) a scalar matrix, acting as
x -> A conj(x) and squaring to the identity.  When such an involution
exists, a matrix B with A = B conj(B)^-1 (a constructive Hilbert-90
splitting) turns it into an explicit conjugation-stable model
B^-1(S); when none exists, the finite antiholomorphic coset is listed
together with the non-identity squares, refuting descent exhaustively.

Configurations with a projective frame are handled by direct
enumeration.  Degenerate ones (on a line, or a line plus a point) are
decided on the line: a planar antiholomorphic involution stabilizing S
restricts to a line-level matrix N with N . conj(N) = mu * I where mu
must be positive and a Q(i) norm, and conversely any such N lifts.
Configurations of at most three points always descend, by explicitly
moving them to a standard real position.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .errors import InternalError, InvalidInputError, PlanarDescentError
from .gaussian import GaussianRational, NotANormError, gq, two_squares
from .equivalence import (
    MAX_POINTS,
    ConfigTag,
    LineReduction,
    classify,
    equivalences,
    pgl2_equivalences,
    reduce_to_line,
    symmetry_permutations,
)
from .plane import (
    PointConfig,
    SemiProjMap,
    adjugate,
    collinear,
    conj_matrix,
    det3,
    matmul,
)


class NotACocycleError(InvalidInputError):
    """A . conj(A) is not a scalar matrix, so A cannot be split."""


class SplitRetryError(InternalError):
    """The randomized splitting trials ran out; should never happen."""


class IrrationalModelError(PlanarDescentError):
    """Descent holds over the reals, but no model has Q(i) coordinates.

    Raised on the line route when every involution candidate squares to
    a positive scalar that is not a Q(i) norm.  Cannot occur for
    configurations obtained by twisting a conjugation-stable set by a
    Q(i) matrix.
    """


@dataclass(frozen=True)
class NormalizerGroup:
    """All symmetries of a configuration, holomorphic and antiholomorphic."""

    elements: tuple
    holomorphic: tuple
    antiholomorphic: tuple
    order: int
    order_profile: tuple
    structure: str


@dataclass(frozen=True)
class DescentCertificate:
    """Re-checkable verdict of the descent decision.

    When `descends`, the splitter B satisfies real_model = B^-1(S) with
    real_model conjugation-stable and cocycle = B conj(B)^-1 (up to
    scalar) an antiholomorphic involution stabilizing S.  Otherwise
    `refutation` pairs every antiholomorphic coset element with its
    non-identity square.
    """

    fom_real: bool
    fom_witness: Optional[SemiProjMap]
    descends: bool
    real_model: Optional[PointConfig]
    splitter: Optional[SemiProjMap]
    cocycle: Optional[SemiProjMap]
    refutation: tuple
    route: str


_STRUCTURES = {
    (1,): "trivial",
    (1, 2): "C2",
    (1, 2, 2, 2): "C2xC2",
    (1, 2, 4, 4): "C4",
}


def _element_order(perm, antiholo):
    """lcm of the cycle lengths of perm, made even when antiholo is set."""
    order, seen = 2 if antiholo else 1, set()
    for k in perm:
        length = 0
        while k not in seen:
            seen.add(k)
            k = perm[k]
            length += 1
        order = lcm(order, length or 1)
    return order


def normalizer(config: PointConfig, max_points: int = MAX_POINTS) -> NormalizerGroup:
    """The group of all holomorphic and antiholomorphic symmetries of S.

    The holomorphic part is the automorphism group; the antiholomorphic
    part collects (A, anti) for every A carrying conj(S) onto S, and is
    empty or a coset of the holomorphic part.  Closure, inverses and
    element orders are checked on the point permutations
    (`symmetry_permutations`); that is exact because S has a frame, so
    a symmetry is determined by its permutation and its flag.
    """
    holos = equivalences(config, config, max_points)
    anti_matrices = equivalences(config.conj(), config, max_points)
    antis = [SemiProjMap(m.matrix, antiholo=True) for m in anti_matrices]
    if antis and len(antis) != len(holos):
        raise InternalError("antiholomorphic part is not a coset")
    elements = sorted(holos + antis, key=SemiProjMap.key)
    pairs = symmetry_permutations(config, elements)
    profile = tuple(sorted(_element_order(p, a) for p, a in pairs))
    structure = _STRUCTURES.get(profile, "other")
    return NormalizerGroup(
        elements=tuple(elements),
        holomorphic=tuple(holos),
        antiholomorphic=tuple(antis),
        order=len(elements),
        order_profile=profile,
        structure=structure,
    )


# --- constructive Hilbert 90 ----------------------------------------------------


def _is_scalar3(m):
    for r in range(3):
        for c in range(3):
            if r != c and m[r][c]:
                return False
    return m[0][0] == m[1][1] == m[2][2]


def _scale_matrix(m, factor):
    return tuple(tuple(x * factor for x in row) for row in m)


def _random_trial_matrix(rng):
    return tuple(
        tuple(
            GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))
            for _ in range(3)
        )
        for _ in range(3)
    )


def hilbert90_split(matrix, seed: int = 0):
    """B with matrix = B . conj(B)^-1 up to scalar, verified exactly.

    Requires matrix . conj(matrix) = mu * I for a scalar mu; mu is then
    automatically positive (mu^3 is the norm of the determinant), and
    t = mu / det has norm mu^2 / mu^3 = 1/mu, so t * matrix is an exact
    cocycle A with A conj(A) = I.  B = A conj(C) + C works for any
    trial C that leaves B invertible, since then
    A conj(B) = A conj(A) C + A conj(C) = B.
    """
    if isinstance(matrix, SemiProjMap):
        matrix = matrix.matrix
    rows = tuple(tuple(gq(x) for x in row) for row in matrix)
    determinant = det3(rows)
    if not determinant:
        raise InvalidInputError("cocycle matrix must be invertible")
    product = matmul(rows, conj_matrix(rows))
    if not _is_scalar3(product):
        raise NotACocycleError("A . conj(A) is not scalar")
    mu = product[0][0]
    if mu.im != 0 or mu.re <= 0:
        raise InternalError("scalar of a real cocycle must be a positive rational")
    t = mu / determinant
    if t.norm() * mu.re != 1:
        raise InternalError("rescaling by mu/det failed to normalize the cocycle")
    cocycle = _scale_matrix(rows, t)

    rng = random.Random(seed)
    identity = tuple(
        tuple(GaussianRational(1 if r == c else 0) for c in range(3))
        for r in range(3)
    )
    for attempt in range(100):
        trial = identity if attempt == 0 else _random_trial_matrix(rng)
        candidate = matmul(cocycle, conj_matrix(trial))
        b = tuple(
            tuple(candidate[r][c] + trial[r][c] for c in range(3)) for r in range(3)
        )
        if not det3(b):
            continue
        if matmul(cocycle, conj_matrix(b)) != b:
            raise InternalError("splitting identity failed on an invertible trial")
        lead = next(x for row in b for x in row if x)
        return _scale_matrix(b, lead.inverse())
    raise SplitRetryError("no invertible splitting found in 100 trials")


# --- the three decision routes ---------------------------------------------------


def _certificate_from_involution(config, tau, seed, route, witness):
    b_rows = hilbert90_split(tau.matrix, seed)
    splitter = SemiProjMap(b_rows)
    model = splitter.inverse().apply(config)
    if model.conj() != model:
        raise InternalError("split model is not conjugation-stable")
    return DescentCertificate(
        fom_real=True,
        fom_witness=witness,
        descends=True,
        real_model=model,
        splitter=splitter,
        cocycle=tau,
        refutation=(),
        route=route,
    )


def _conjugate_equivalences(config, max_points):
    """The route deciding S, with its holomorphic maps carrying conj(S) onto S.

    Returns (route, maps, reduction).  On the "frame" route the maps are
    the 3x3 equivalences of conj(S) with S; on the "line" route they are
    the 2x2 maps of the reduced line configuration `reduction.config`.
    The "tiny" route enumerates nothing (maps is None): it always descends.
    """
    tag = classify(config, max_points).tag
    if tag is ConfigTag.HAS_FRAME:
        return "frame", equivalences(config.conj(), config, max_points), None
    if tag is ConfigTag.TINY:
        return "tiny", None, None
    reduction = reduce_to_line(config, max_points)
    line_config = reduction.config
    return "line", pgl2_equivalences(line_config.conj(), line_config, max_points), reduction


def _descend_frame(config, anti_matrices, seed):
    antis = [SemiProjMap(m.matrix, antiholo=True) for m in anti_matrices]
    if not antis:
        return DescentCertificate(
            fom_real=False, fom_witness=None, descends=False, real_model=None,
            splitter=None, cocycle=None, refutation=(), route="frame",
        )
    witness = antis[0]
    for tau in antis:
        if (tau * tau).is_identity():
            return _certificate_from_involution(config, tau, seed, "frame", witness)
    refutation = tuple((tau, tau * tau) for tau in antis)
    return DescentCertificate(
        fom_real=True, fom_witness=witness, descends=False, real_model=None,
        splitter=None, cocycle=None, refutation=refutation, route="frame",
    )


def _unit_vector(k):
    return tuple(GaussianRational(1 if j == k else 0) for j in range(3))


def _columns_to_matrix(cols):
    return tuple(tuple(col[r] for col in cols) for r in range(3))


def _complete_to_basis(cols):
    needed = 3 - len(cols)
    for extra in itertools.combinations(range(3), needed):
        candidate = list(cols) + [_unit_vector(k) for k in extra]
        matrix = _columns_to_matrix(candidate)
        if det3(matrix):
            return matrix
    raise InternalError("could not complete independent vectors to a basis")


def _standardize_tiny(config: PointConfig) -> SemiProjMap:
    """A holomorphic map carrying at most three points to real positions."""
    pts = config.points
    vs = [p.coords for p in pts]
    if len(pts) == 3:
        if not collinear(*pts):
            matrix = _columns_to_matrix(vs)
        else:
            # v3 = a v1 + b v2 with a, b nonzero; targets (1:0:0), (0:1:0), (1:1:0)
            v1, v2, v3 = vs
            for i, j in ((0, 1), (0, 2), (1, 2)):
                d = v1[i] * v2[j] - v1[j] * v2[i]
                if d:
                    a = (v3[i] * v2[j] - v3[j] * v2[i]) / d
                    b = (v1[i] * v3[j] - v1[j] * v3[i]) / d
                    break
            else:
                raise InternalError("two distinct points gave dependent vectors")
            if not a or not b:
                raise InternalError("distinct collinear points gave zero weight")
            for k in range(3):
                if v3[k] != a * v1[k] + b * v2[k]:
                    raise InternalError("collinear solve failed to extend")
            matrix = _complete_to_basis(
                [tuple(a * x for x in v1), tuple(b * x for x in v2)]
            )
    else:
        matrix = _complete_to_basis(vs)
    g = SemiProjMap(matrix).inverse()
    model = g.apply(config)
    if model.conj() != model:
        raise InternalError("standard tiny model is not conjugation-stable")
    return g


def _descend_tiny(config):
    g = _standardize_tiny(config)
    model = g.apply(config)
    splitter = g.inverse()
    cocycle = SemiProjMap(
        matmul(splitter.matrix, adjugate(conj_matrix(splitter.matrix))),
        antiholo=True,
    )
    if cocycle.apply(config) != config or not (cocycle * cocycle).is_identity():
        raise InternalError("tiny cocycle is not an involution of the input")
    return DescentCertificate(
        fom_real=True, fom_witness=cocycle, descends=True, real_model=model,
        splitter=splitter, cocycle=cocycle, refutation=(), route="tiny",
    )


def _lift_line_map(reduction: LineReduction, matrix2) -> SemiProjMap:
    """Planar antiholomorphic map induced by a raw 2x2 line-level matrix."""
    h = reduction.chart_matrix()
    zero, one = GaussianRational(0), GaussianRational(1)
    block = (
        (matrix2[0][0], matrix2[0][1], zero),
        (matrix2[1][0], matrix2[1][1], zero),
        (zero, zero, one),
    )
    m = matmul(matmul(h, block), adjugate(conj_matrix(h)))
    return SemiProjMap(m, antiholo=True)


def _descend_line(config, reduction, candidates, seed):
    if not candidates:
        return DescentCertificate(
            fom_real=False, fom_witness=None, descends=False, real_model=None,
            splitter=None, cocycle=None, refutation=(), route="line",
        )
    witness = _lift_line_map(reduction, candidates[0].matrix)

    chosen = None
    positive_non_norm = False
    for n in candidates:
        # the square of the antiholomorphic map x -> N conj(x), unscaled
        square = matmul(n.matrix, conj_matrix(n.matrix))
        if square[0][1] or square[1][0] or square[0][0] != square[1][1]:
            continue
        mu = square[0][0]
        if mu.im != 0:
            raise InternalError("scalar square of a line cocycle must be real")
        if mu.re <= 0:
            continue
        try:
            t = two_squares(Fraction(1) / mu.re)
        except NotANormError:
            positive_non_norm = True
            continue
        chosen = _scale_matrix(n.matrix, t)
        break

    if chosen is not None:
        # chosen . conj(chosen) = I on the line; its lift squares to a
        # norm scalar, which the splitting rescales away.
        tau = _lift_line_map(reduction, chosen)
        if tau.apply(config) != config or not (tau * tau).is_identity():
            raise InternalError("lifted line involution does not stabilize the input")
        return _certificate_from_involution(config, tau, seed, "line", witness)
    if positive_non_norm:
        raise IrrationalModelError(
            "descent holds over the reals, but every real model needs "
            "coordinates outside Q(i)"
        )
    refutation = []
    for n in candidates:
        lifted = _lift_line_map(reduction, n.matrix)
        refutation.append((lifted, lifted * lifted))
    return DescentCertificate(
        fom_real=True, fom_witness=witness, descends=False, real_model=None,
        splitter=None, cocycle=None, refutation=tuple(refutation), route="line",
    )


# --- public decision operations ---------------------------------------------------


def fom_real(config: PointConfig, max_points: int = MAX_POINTS):
    """Is conj(S) linearly equivalent to S?  Returns (verdict, witness).

    The witness is an antiholomorphic symmetry of S: the least one for
    configurations with a frame, the lift of the least line-level map on
    the line route.  Its matrix carries conj(S) onto S.
    """
    route, maps, reduction = _conjugate_equivalences(config, max_points)
    if route == "tiny":
        return True, _descend_tiny(config).fom_witness
    if not maps:
        return False, None
    if route == "line":
        return True, _lift_line_map(reduction, maps[0].matrix)
    return True, SemiProjMap(maps[0].matrix, antiholo=True)


def descends_real(config: PointConfig, seed: int = 0,
                  max_points: int = MAX_POINTS) -> DescentCertificate:
    """Decide descent to the real projective plane, with a certificate."""
    route, maps, reduction = _conjugate_equivalences(config, max_points)
    if route == "tiny":
        return _descend_tiny(config)
    if route == "line":
        return _descend_line(config, reduction, maps, seed)
    return _descend_frame(config, maps, seed)


def real_model_check(config: PointConfig, certificate: DescentCertificate):
    """Re-verify a positive certificate exactly; (ok, reason)."""
    if not certificate.descends:
        raise InvalidInputError("certificate does not claim descent")
    model = certificate.real_model
    splitter = certificate.splitter
    cocycle = certificate.cocycle
    if model is None or splitter is None or cocycle is None:
        return False, "incomplete-certificate"
    if model.conj() != model:
        return False, "conj-instability"
    recomputed = SemiProjMap(
        matmul(splitter.matrix, adjugate(conj_matrix(splitter.matrix))),
        antiholo=True,
    )
    if not cocycle.antiholo or recomputed.matrix != cocycle.matrix:
        return False, "cocycle-mismatch"
    if not (recomputed * recomputed).is_identity():
        return False, "cocycle-mismatch"
    if recomputed.apply(config) != config:
        return False, "cocycle-mismatch"
    if splitter.apply(model) != config:
        return False, "not-equivalent"
    return True, None
