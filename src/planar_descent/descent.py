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
moving them to a standard real position.  On all three routes the
positive certificate is built in one place from its splitter B.

Each decision is a view of the `Symmetries` result kept on its
configuration object (`Symmetries.of`, see `equivalence`), which
classifies S once and enumerates conj(S) -> S at most once, on first
use, and S -> S at most once, only where Aut(S) cannot be read off that
coset; all decisions asked of one object share it.  Every decision reads
the coset first, so fom_real, normalizer and descends_real together make
one enumeration when conj(S) is equivalent to S.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm
from typing import Optional

from .errors import InternalError, InvalidInputError, PlanarDescentError
from .gaussian import NotANormError, two_squares
from .equivalence import LineReduction, Symmetries
from .plane import (
    ZIDENTITY,
    PointConfig,
    SemiProjMap,
    zadjugate3,
    zcolumns,
    zconj,
    zdet2,
    zdet3,
    zlead,
    zmatmul,
    zscale,
)


class NotACocycleError(InvalidInputError):
    """A . conj(A) is not a scalar matrix, so A cannot be split."""


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


def normalizer(config: PointConfig) -> NormalizerGroup:
    """The group of all holomorphic and antiholomorphic symmetries of S.

    The holomorphic part is the automorphism group; the antiholomorphic
    part collects (A, anti) for every A carrying conj(S) onto S, and is
    empty or a coset of the holomorphic part.  Closure, inverses and
    element orders are checked on the point permutations, once per
    configuration (`Symmetries.group`); that is exact because S has a
    frame, so a symmetry is determined by its permutation and its flag.
    """
    sym = Symmetries.of(config)
    elements, pairs = sym.group
    profile = tuple(sorted(_element_order(p, a) for p, a in pairs))
    return NormalizerGroup(
        elements=elements,
        holomorphic=sym.holomorphic,
        antiholomorphic=sym.conjugate,
        order=len(elements),
        order_profile=profile,
        structure=_STRUCTURES.get(profile, "other"),
    )


# --- constructive Hilbert 90 ----------------------------------------------------


def hilbert90_split(matrix: SemiProjMap) -> SemiProjMap:
    """B with matrix = B . conj(B)^-1 up to scalar, verified exactly.

    `matrix` is a 3x3 SemiProjMap; only its normal form A is
    used.  Requires A . conj(A) = mu * I for a scalar
    mu; mu is then automatically positive (mu^3 is the norm of the
    determinant), and c = conj(det) A has c conj(c) = mu^4 I, so
    sigma(x) = c conj(x) / mu^2 is an antilinear involution.  Its fixed
    vectors are a real form of C^3, and x -> x + sigma(x) maps onto them;
    so the images of e_j and i e_j (times mu^2), c e_j + mu^2 e_j and
    i (mu^2 e_j - c e_j), span it over R and some three are a basis over
    C.  B takes the first such triple in `itertools.combinations` order
    as columns (the first is c + mu^2 I), and c conj(B) = mu^2 B is
    checked exactly.  Everything is computed in Z[i].
    """
    a = matrix.z
    if len(a) != 3:
        raise InvalidInputError("Hilbert 90 splitting needs a 3x3 matrix")
    product = zmatmul(a, zconj(a))
    mu, mu_im = product[0][:2]
    if product != zscale((mu, mu_im), ZIDENTITY[3]):
        raise NotACocycleError("A . conj(A) is not scalar")
    if mu_im != 0 or mu <= 0:
        raise InternalError("scalar of a real cocycle must be a positive rational")
    det_r, det_i = zdet3(*a)
    if det_r * det_r + det_i * det_i != mu ** 3:
        raise InternalError("rescaling by mu/det failed to normalize the cocycle")
    cocycle = zscale((det_r, -det_i), a)
    scale = mu * mu

    images = zcolumns(cocycle)
    fixed = [tuple([x + scale * y for x, y in zip(image, unit)])
             for image, unit in zip(images, ZIDENTITY[3])]
    fixed += [zscale((0, 1), tuple([scale * y - x for x, y in zip(image, unit)]))
              for image, unit in zip(images, ZIDENTITY[3])]
    for triple in itertools.combinations(fixed, 3):
        b = zcolumns(triple)
        if zdet3(*b) != (0, 0):
            break
    else:
        raise InternalError("the fixed vectors of the cocycle span no basis")
    if zmatmul(cocycle, zconj(b)) != zscale((scale, 0), b):
        raise InternalError("splitting identity failed")
    return SemiProjMap.from_z(b)


# --- the three decision routes ---------------------------------------------------


def _certificate(config, splitter, cocycle, route, witness):
    """The positive certificate of splitter B, once B^-1(S) is checked conjugation-stable."""
    model = splitter.inverse().apply(config)
    if model.conj() != model:
        raise InternalError("split model is not conjugation-stable")
    return DescentCertificate(
        fom_real=True,
        fom_witness=witness,
        descends=True,
        real_model=model,
        splitter=splitter,
        cocycle=cocycle,
        refutation=(),
        route=route,
    )


def _no_descent(route, witness=None, refutation=()):
    """A negative certificate; fom_real holds exactly when there is a witness."""
    return DescentCertificate(
        fom_real=witness is not None, fom_witness=witness, descends=False, real_model=None,
        splitter=None, cocycle=None, refutation=refutation, route=route,
    )


def _descend_frame(config, sym, witness):
    refutation = []
    for tau in sym.conjugate:
        square = tau * tau
        if square.is_identity():
            return _certificate(config, hilbert90_split(tau), tau, "frame", witness)
        refutation.append((tau, square))
    return _no_descent("frame", witness, tuple(refutation))


def _complete_to_basis(cols, unit):
    """The first completion of cols by unit vectors (times unit) to a basis, as columns."""
    needed = 3 - len(cols)
    for extra in itertools.combinations(range(3), needed):
        matrix = zcolumns(list(cols) + [zscale(unit, ZIDENTITY[3][k]) for k in extra])
        if zdet3(*matrix) != (0, 0):
            return matrix
    raise InternalError("could not complete independent vectors to a basis")


def _standardize_tiny(config: PointConfig) -> SemiProjMap:
    """The splitter B of at most three points: B^-1 carries them to real positions.

    The matrix columns are the points with leading coordinate 1 (the
    splitter depends on each column's scale), all multiplied by the lcm
    m of the leading entries to stay integral.
    """
    pts = config.points
    leads = [zlead(p.z) for p in pts]
    m = lcm(*leads)
    vs = [zscale((m // lead, 0), p.z) for p, lead in zip(pts, leads)]
    if len(pts) < 3:
        matrix = _complete_to_basis(vs, (m, 0))
    elif zdet3(*vs) != (0, 0):
        matrix = zcolumns(vs)
    else:
        # v3 = a v1 + b v2 with a, b nonzero; targets (1:0:0), (0:1:0), (1:1:0).
        # With d a nonzero 2x2 minor of v1, v2, Cramer's rule gives da = d a
        # and db = d b in Z[i]; the columns are da v1, db v2 and d m e_k.
        v1, v2, v3 = vs
        for i, j in ((0, 2), (0, 4), (2, 4)):
            p1, p2, p3 = (v[i:i + 2] + v[j:j + 2] for v in vs)
            d = zdet2(p1, p2)
            if d != (0, 0):
                break
        else:
            raise InternalError("two distinct points gave dependent vectors")
        da, db = zdet2(p3, p2), zdet2(p1, p3)
        if da == (0, 0) or db == (0, 0):
            raise InternalError("distinct collinear points gave zero weight")
        w1, w2 = zscale(da, v1), zscale(db, v2)
        if tuple([x + y for x, y in zip(w1, w2)]) != zscale(d, v3):
            raise InternalError("collinear solve failed to extend")
        matrix = _complete_to_basis([w1, w2], (d[0] * m, d[1] * m))
    return SemiProjMap.from_z(matrix)


def _cocycle(splitter):
    """The antiholomorphic map B . conj(B)^-1 of a splitter B."""
    return SemiProjMap.from_z(zmatmul(splitter.z, zconj(splitter.inverse().z)), antiholo=True)


def _descend_tiny(config):
    splitter = _standardize_tiny(config)
    cocycle = _cocycle(splitter)
    if cocycle.apply(config) != config or not (cocycle * cocycle).is_identity():
        raise InternalError("tiny cocycle is not an involution of the input")
    return _certificate(config, splitter, cocycle, "tiny", cocycle)


def _lift(reduction: LineReduction, n, t=((1, 0), 1)) -> SemiProjMap:
    """The planar antiholomorphic map induced by the line-level map t N.

    N is the 2x2 map n with leading entry 1, that is n.z / L for its
    normal form's leading entry L.  The lift is the chart conjugate of
    diag(t N, 1); with t = T / q given as (T, q), for T in Z[i] and q a
    positive integer, that block is diag(T n.z, q L) divided by q L.
    """
    tq, q = t
    (ar, ai, br, bi), (cr, ci, dr, di) = zscale(tq, n.z)
    corner = q * zlead(n.z[0] + n.z[1])
    block = ((ar, ai, br, bi, 0, 0), (cr, ci, dr, di, 0, 0), (0, 0, 0, 0, corner, 0))
    h = reduction.chart_matrix()
    return SemiProjMap.from_z(zmatmul(zmatmul(h, block), zadjugate3(zconj(h))), antiholo=True)


def _descend_line(config, sym, witness):
    reduction, candidates = sym.reduction, sym.conjugate
    chosen = None
    positive_non_norm = False
    for n in candidates:
        # the square of the antiholomorphic map x -> N conj(x), unscaled;
        # mu and t are taken for N with leading entry 1, that is n.z / lead
        square = zmatmul(n.z, zconj(n.z))
        mu, mu_im = square[0][:2]
        if square != zscale((mu, mu_im), ZIDENTITY[2]):
            continue
        if mu_im != 0:
            raise InternalError("scalar square of a line cocycle must be real")
        if mu <= 0:
            continue
        lead = zlead(n.z[0] + n.z[1])
        try:
            t = two_squares(lead * lead, mu)
        except NotANormError:
            positive_non_norm = True
            continue
        chosen = n, t
        break

    if chosen is not None:
        # t N . conj(t N) = I on the line; its lift squares to a norm
        # scalar, which the splitting rescales away.
        tau = _lift(reduction, *chosen)
        if tau.apply(config) != config or not (tau * tau).is_identity():
            raise InternalError("lifted line involution does not stabilize the input")
        return _certificate(config, hilbert90_split(tau), tau, "line", witness)
    if positive_non_norm:
        raise IrrationalModelError(
            "descent holds over the reals, but every real model needs "
            "coordinates outside Q(i)"
        )
    lifts = [witness] + [_lift(reduction, n) for n in candidates[1:]]
    return _no_descent("line", witness, tuple((tau, tau * tau) for tau in lifts))


# --- public decision operations ---------------------------------------------------


def fom_real(config: PointConfig):
    """Is conj(S) linearly equivalent to S?  Returns (verdict, witness).

    The witness is an antiholomorphic symmetry of S: the least one for
    configurations with a frame, the lift of the least line-level map on
    the line route.  Its matrix carries conj(S) onto S.
    """
    sym = Symmetries.of(config)
    if sym.route == "tiny":
        return True, _descend_tiny(config).fom_witness
    witness = _fom_witness(sym)
    return witness is not None, witness


def _fom_witness(sym: Symmetries) -> Optional[SemiProjMap]:
    """`fom_real`'s witness off the tiny route, or None when conj(S) is not equivalent."""
    if not sym.conjugate:
        return None
    if sym.route == "line":
        return _lift(sym.reduction, sym.conjugate[0])
    return sym.conjugate[0]


def descends_real(config: PointConfig) -> DescentCertificate:
    """Decide descent to the real projective plane, with a certificate."""
    sym = Symmetries.of(config)
    if sym.route == "tiny":
        return _descend_tiny(config)
    witness = _fom_witness(sym)
    if witness is None:
        return _no_descent(sym.route)
    descend = _descend_line if sym.route == "line" else _descend_frame
    return descend(config, sym, witness)


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
    recomputed = _cocycle(splitter)
    if not cocycle.antiholo or recomputed.z != cocycle.z:
        return False, "cocycle-mismatch"
    if not (recomputed * recomputed).is_identity():
        return False, "cocycle-mismatch"
    if recomputed.apply(config) != config:
        return False, "cocycle-mismatch"
    if splitter.apply(model) != config:
        return False, "not-equivalent"
    return True, None
