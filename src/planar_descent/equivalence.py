"""Classification and exhaustive equivalence search for configurations.

The central operation enumerates every projective-linear map carrying one
configuration onto another.  A map is pinned down by where it sends a
projective frame, so with one general-position 4-subset of the source
fixed, every ordered general-position 4-tuple of the target is a
candidate.  Candidates are matched by frame coordinates (geometric
hashing with exact keys): the source points are written in the fixed
frame once, each unordered target 4-subset Q contributes the key set of
the target points written in the frame Q, and an ordering of Q is
accepted exactly when its permutation of the standard frame carries the
source key set onto that of Q.  The search is exact and complete.

Degenerate configurations (all points on a line, or all but one) have
infinite planar automorphism groups; they are reduced to the projective
line, as configurations of two-coordinate points acted on by 2x2 maps,
where triples of distinct points play the role of frames.

The inner enumeration runs on cleared-denominator Gaussian-integer
coordinates: 4-subsets are filtered and keyed with pure integer
arithmetic, and only accepted maps are rebuilt over Q(i).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from .errors import InternalError, InvalidInputError
from .gaussian import GaussianRational
from .plane import (
    Line,
    PointConfig,
    ProjPoint,
    SemiProjMap,
    adjugate,
    collinear,
    line_through,
    matmul,
)

MAX_POINTS = 20


class NeedsReductionError(InvalidInputError):
    """The operation needs a general-position 4-subset; route through reduce_to_line."""


class WrongClassError(InvalidInputError):
    """The configuration is not in the class this operation expects."""


class TooSmallError(InvalidInputError):
    """Fewer than three points on the line: the automorphism group is infinite."""


class TooManyPointsError(InvalidInputError):
    """Enumeration is guarded; exactness is kept by rejecting large inputs."""


class ConfigTag(Enum):
    HAS_FRAME = "HasFrame"
    LINE_PLUS_POINT = "LinePlusPoint"
    COLLINEAR = "Collinear"
    TINY = "Tiny"


@dataclass(frozen=True)
class ConfigClass:
    """Classification verdict plus its witness."""

    tag: ConfigTag
    frame: Optional[tuple] = None
    line: Optional[Line] = None
    residue: Optional[ProjPoint] = None


def _general_position(quad):
    a, b, c, d = quad
    return not (
        collinear(a, b, c)
        or collinear(a, b, d)
        or collinear(a, c, d)
        or collinear(b, c, d)
    )


def classify(config: PointConfig, max_points: int = MAX_POINTS) -> ConfigClass:
    """Sort a configuration into one of four mutually exclusive classes.

    Tiny: n <= 3.  HasFrame: some 4-subset in general position (the
    witness is the lexicographically least one).  Otherwise, with n >= 4,
    the points lie on a line (Collinear) or on a line plus one point off
    it (LinePlusPoint); no further case exists.
    """
    n = len(config)
    if n > max_points:
        raise TooManyPointsError(
            f"{n} points exceed the enumeration guard of {max_points}"
        )
    if len(config.points[0].coords) != 3:
        raise InvalidInputError("classification needs points of the plane")
    if n <= 3:
        return ConfigClass(ConfigTag.TINY)
    pts = config.points
    for quad in itertools.combinations(pts, 4):
        if _general_position(quad):
            return ConfigClass(ConfigTag.HAS_FRAME, frame=quad)
    spanning = line_through(pts[0], pts[1])
    if all(spanning.contains(p) for p in pts[2:]):
        return ConfigClass(ConfigTag.COLLINEAR, line=spanning)
    for residue in pts:
        rest = [p for p in pts if p != residue]
        line = line_through(rest[0], rest[1])
        if all(line.contains(p) for p in rest[2:]) and not line.contains(residue):
            return ConfigClass(ConfigTag.LINE_PLUS_POINT, line=line, residue=residue)
    raise InternalError("frameless configuration is neither collinear nor line-plus-point")


# --- integer fast path ---------------------------------------------------------
#
# A Gaussian integer is a pair of Python ints (re, im); a point is a
# 6-tuple (ar, ai, br, bi, cr, ci).  Projective points are compared
# through _zkey, which needs integer gcds only.


def _zclear(values):
    """Re and im parts of Q(i) values times their common denominator."""
    parts = [x for c in values for x in (c.re, c.im)]
    m = lcm(*[x.denominator for x in parts])
    return tuple([int(x * m) for x in parts])


def _zdet3(p, q, r):
    ar, ai, br, bi, cr, ci = p
    dr, di, er, ei, fr, fi = q
    gr, gi, hr, hi, ir, ii = r
    # cofactors along the first row
    m0r = (er * ir - ei * ii) - (fr * hr - fi * hi)
    m0i = (er * ii + ei * ir) - (fr * hi + fi * hr)
    m1r = (dr * ir - di * ii) - (fr * gr - fi * gi)
    m1i = (dr * ii + di * ir) - (fr * gi + fi * gr)
    m2r = (dr * hr - di * hi) - (er * gr - ei * gi)
    m2i = (dr * hi + di * hr) - (er * gi + ei * gr)
    re = (ar * m0r - ai * m0i) - (br * m1r - bi * m1i) + (cr * m2r - ci * m2i)
    im = (ar * m0i + ai * m0r) - (br * m1i + bi * m1r) + (cr * m2i + ci * m2r)
    return re, im


def _zmatvec(m, v):
    ar, ai, br, bi, cr, ci = v
    out = []
    for r0, i0, r1, i1, r2, i2 in m:
        re = (r0 * ar - i0 * ai) + (r1 * br - i1 * bi) + (r2 * cr - i2 * ci)
        im = (r0 * ai + i0 * ar) + (r1 * bi + i1 * br) + (r2 * ci + i2 * cr)
        out.append(re)
        out.append(im)
    return tuple(out)


def _zkey(v):
    """Exact hashable key of the projective point of a nonzero Z[i] vector.

    Multiplying by the conjugate of the leading nonzero entry x makes
    that entry the positive integer |x|^2; proportional vectors then
    differ by a positive rational, which dividing by the gcd of the six
    integer parts removes.
    """
    ar, ai, br, bi, cr, ci = v
    if ar or ai:
        xr, xi = ar, ai
    elif br or bi:
        xr, xi = br, bi
    else:
        xr, xi = cr, ci
    ar, ai = ar * xr + ai * xi, ai * xr - ar * xi
    br, bi = br * xr + bi * xi, bi * xr - br * xi
    cr, ci = cr * xr + ci * xi, ci * xr - cr * xi
    g = gcd(ar, ai, br, bi, cr, ci)
    return (ar // g, ai // g, br // g, bi // g, cr // g, ci // g)


def _zframe_matrix(v1, v2, v3, v4):
    """Columns d_k * v_k, the frame matrix scaled to stay integral."""
    d1 = _zdet3(v4, v2, v3)
    d2 = _zdet3(v1, v4, v3)
    d3 = _zdet3(v1, v2, v4)
    rows = []
    for k in range(3):
        r1, i1 = v1[2 * k], v1[2 * k + 1]
        r2, i2 = v2[2 * k], v2[2 * k + 1]
        r3, i3 = v3[2 * k], v3[2 * k + 1]
        rows.append(
            (
                d1[0] * r1 - d1[1] * i1,
                d1[0] * i1 + d1[1] * r1,
                d2[0] * r2 - d2[1] * i2,
                d2[0] * i2 + d2[1] * r2,
                d3[0] * r3 - d3[1] * i3,
                d3[0] * i3 + d3[1] * r3,
            )
        )
    return tuple(rows)


def _zadjugate(m):
    def cof(r0, r1, c0, c1):
        ar, ai = m[r0][2 * c0], m[r0][2 * c0 + 1]
        br, bi = m[r0][2 * c1], m[r0][2 * c1 + 1]
        cr, ci = m[r1][2 * c0], m[r1][2 * c0 + 1]
        dr, di = m[r1][2 * c1], m[r1][2 * c1 + 1]
        return (
            (ar * dr - ai * di) - (br * cr - bi * ci),
            (ar * di + ai * dr) - (br * ci + bi * cr),
        )

    c = [[cof(1, 2, 1, 2), cof(0, 2, 1, 2), cof(0, 1, 1, 2)],
         [cof(1, 2, 0, 2), cof(0, 2, 0, 2), cof(0, 1, 0, 2)],
         [cof(1, 2, 0, 1), cof(0, 2, 0, 1), cof(0, 1, 0, 1)]]
    rows = []
    for r in range(3):
        row = []
        for k in range(3):
            re, im = c[r][k]
            if (r + k) % 2:
                re, im = -re, -im
            row.append(re)
            row.append(im)
        rows.append(tuple(row))
    return tuple(rows)


def _zmatmul(a, b):
    rows = []
    for r in range(3):
        ar = a[r]
        row = []
        for c in range(3):
            re = 0
            im = 0
            for k in range(3):
                xr, xi = ar[2 * k], ar[2 * k + 1]
                yr, yi = b[k][2 * c], b[k][2 * c + 1]
                re += xr * yr - xi * yi
                im += xr * yi + xi * yr
            row.append(re)
            row.append(im)
        rows.append(tuple(row))
    return tuple(rows)


# P_sigma for the 24 orderings sigma of the standard frame
# (1:0:0), (0:1:0), (0:0:1), (1:1:1): Z(Q) . P_sigma is, up to a scalar,
# the frame matrix of Q taken in the order sigma.
_STANDARD_FRAME = (
    (1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 1, 0), (1, 0, 1, 0, 1, 0),
)
_FRAME_ORDERINGS = tuple(
    _zframe_matrix(*perm) for perm in itertools.permutations(_STANDARD_FRAME)
)


def _map_from_int_matrix(m, antiholo=False):
    rows = tuple(
        tuple(
            GaussianRational(Fraction(row[2 * c]), Fraction(row[2 * c + 1]))
            for c in range(3)
        )
        for row in m
    )
    return SemiProjMap(rows, antiholo)


# --- equivalences and automorphisms --------------------------------------------


def equivalences(source: PointConfig, target: PointConfig,
                 max_points: int = MAX_POINTS):
    """Every g in PGL3 with g(source) = target, sorted canonically.

    Requires a general-position 4-subset in the source (NeedsReductionError
    otherwise).  The list is complete: any such g sends the witness frame
    to an ordered general-position 4-tuple of the target.  Different sizes
    yield the empty list.

    Orderings are not tried one by one.  The source points are written
    in the witness frame once; for each ordering sigma of the standard
    frame, the keys (_zkey) of the points P_sigma . F_s form a key set,
    and orderings with the same key set share one entry.  Each unordered
    general-position target 4-subset Q is then keyed once, by writing
    the target points in the frame Q, and the ordering sigma of Q gives
    a map exactly when the two key sets are equal.  A target point whose
    key lies in no source key set rejects Q at once.
    """
    cls = classify(source, max_points)
    if cls.tag is not ConfigTag.HAS_FRAME:
        raise NeedsReductionError(
            f"{cls.tag.value} configuration: no frame to anchor the search"
        )
    if len(target) > max_points:
        raise TooManyPointsError(
            f"{len(target)} points exceed the enumeration guard of {max_points}"
        )
    if len(source) != len(target):
        return []

    frame_adj = _zadjugate(
        _zframe_matrix(*(_zclear(p.coords) for p in cls.frame))
    )
    source_coords = [_zmatvec(frame_adj, _zclear(p.coords)) for p in source.points]
    by_keys = {}
    for p_sigma in _FRAME_ORDERINGS:
        keys = frozenset(_zkey(_zmatvec(p_sigma, v)) for v in source_coords)
        by_keys.setdefault(keys, []).append(_zmatmul(p_sigma, frame_adj))

    source_keys = frozenset().union(*by_keys)
    target_ints = [_zclear(p.coords) for p in target.points]
    found = []
    for quad in itertools.combinations(target_ints, 4):
        a, b, c, d = quad
        if _zdet3(a, b, c) == (0, 0) or _zdet3(a, b, d) == (0, 0) \
                or _zdet3(a, c, d) == (0, 0) or _zdet3(b, c, d) == (0, 0):
            continue
        z_quad = _zframe_matrix(*quad)
        quad_adj = _zadjugate(z_quad)
        quad_keys = set()
        for t in target_ints:
            key = _zkey(_zmatvec(quad_adj, t))
            if key not in source_keys:
                break
            quad_keys.add(key)
        else:
            for g in by_keys.get(frozenset(quad_keys), ()):
                found.append(_zmatmul(z_quad, g))

    maps = sorted((_map_from_int_matrix(g) for g in found), key=SemiProjMap.key)
    if len({m.key() for m in maps}) != len(maps):
        raise InternalError("duplicate maps in equivalence enumeration")
    return maps


def symmetry_permutations(config: PointConfig, maps):
    """The (permutation, antiholo) pair of each map, verified to form a group.

    Entry k of a permutation indexes the image of config.points[k].
    Raises InternalError unless every map permutes the points and the
    pairs are distinct, contain the identity, and are closed under
    inverse and composition, (p, a) . (q, b) = (p o q, a xor b).  This
    is exact for configurations with a frame: a holomorphic map fixing
    every point is the identity, so the pair determines the symmetry.
    The flag is needed because conjugation fixes a real set pointwise.
    """
    points = [_zclear(p.coords) for p in config.points]
    conj_points = [(ar, -ai, br, -bi, cr, -ci) for ar, ai, br, bi, cr, ci in points]
    index = {_zkey(v): k for k, v in enumerate(points)}
    n = len(points)
    pairs = []
    for g in maps:
        m = _zclear([x for row in g.matrix for x in row])
        m = (m[0:6], m[6:12], m[12:18])
        vectors = conj_points if g.antiholo else points
        perm = tuple([index.get(_zkey(_zmatvec(m, v))) for v in vectors])
        if None in perm or len(set(perm)) != n:
            raise InternalError(f"{g!r} does not permute the configuration")
        pairs.append((perm, g.antiholo))
    table = set(pairs)
    if len(table) != len(pairs):
        raise InternalError("two symmetries induce the same permutation")
    if (tuple(range(n)), False) not in table:
        raise InternalError("symmetries lost the identity")
    for p, a in pairs:
        if (tuple(sorted(range(n), key=p.__getitem__)), a) not in table:
            raise InternalError("symmetries not closed under inverse")
        for q, b in pairs:
            if (tuple([p[k] for k in q]), a ^ b) not in table:
                raise InternalError("symmetries not closed under composition")
    return pairs


def aut_group(config: PointConfig, max_points: int = MAX_POINTS):
    """The automorphism group of the configuration, verified to be a group.

    Identity, inverses and closure are checked on the point permutations
    (`symmetry_permutations`), exact because the configuration has a frame.
    """
    elements = equivalences(config, config, max_points)
    symmetry_permutations(config, elements)
    return elements


# --- the projective line --------------------------------------------------------


def _det2(p, q):
    return p.coords[0] * q.coords[1] - p.coords[1] * q.coords[0]


def cross_ratio(z1: ProjPoint, z2: ProjPoint, z3: ProjPoint, z4: ProjPoint) -> GaussianRational:
    """cr(z1, z2, z3, z4) = ((z1-z3)(z2-z4)) / ((z1-z4)(z2-z3)), homogeneously."""
    num = _det2(z1, z3) * _det2(z2, z4)
    den = _det2(z1, z4) * _det2(z2, z3)
    if not den:
        raise InvalidInputError("cross-ratio undefined: repeated point")
    return num / den


def _triple_frame_matrix(q0, q1, q2):
    """2x2 matrix sending (1:0), (0:1), (1:1) to the given distinct triple."""
    d0 = _det2(q2, q1)
    d1 = _det2(q0, q2)
    return (
        (d0 * q0.coords[0], d1 * q1.coords[0]),
        (d0 * q0.coords[1], d1 * q1.coords[1]),
    )


def pgl2_equivalences(source: PointConfig, target: PointConfig,
                      max_points: int = MAX_POINTS):
    """Every holomorphic map of the line with g(source) = target, sorted.

    Any ordered triple of distinct points is a frame on the line, so the
    first three source points are fixed and all ordered target triples
    are tried.  Fewer than three points leaves infinitely many maps
    (TooSmallError).
    """
    if len(source.points[0].coords) != 2 or len(target.points[0].coords) != 2:
        raise InvalidInputError("pgl2_equivalences needs points of the line")
    if len(source) < 3 or len(target) < 3:
        raise TooSmallError(
            "configurations on the line need at least three points"
        )
    if len(source) > max_points or len(target) > max_points:
        raise TooManyPointsError(
            f"enumeration guard of {max_points} points exceeded"
        )
    if len(source) != len(target):
        return []
    base = source.points[:3]
    base_inv = adjugate(_triple_frame_matrix(*base))
    source_rest = [p for p in source.points if p not in set(base)]
    target_set = set(target.points)

    found = []
    for triple in itertools.permutations(target.points, 3):
        g = SemiProjMap(matmul(_triple_frame_matrix(*triple), base_inv))
        if all(g.apply(p) in target_set for p in source_rest):
            found.append(g)
    found.sort(key=SemiProjMap.key)
    if len({g.key() for g in found}) != len(found):
        raise InternalError("duplicate maps in line enumeration")
    return found


# --- reduction to the line -------------------------------------------------------


@dataclass(frozen=True)
class LineReduction:
    """A degenerate configuration re-read on its spanning line.

    `basis` holds two vectors spanning the line (the reduced row echelon
    basis of the dual's kernel), `off` a third vector completing them to
    a basis of the plane: the residue point if there is one, else the
    unit vector off the line.  `config` collects the on-line points as
    two-coordinate points in the chart  s*basis[0] + t*basis[1]  ->  (s:t).
    """

    config: PointConfig
    basis: tuple
    off: tuple
    line: Line
    residue: Optional[ProjPoint]

    def to_plane(self, p: ProjPoint) -> ProjPoint:
        s, t = p.coords
        b0, b1 = self.basis
        return ProjPoint(*(s * b0[k] + t * b1[k] for k in range(3)))

    def chart_matrix(self):
        """Columns basis[0], basis[1], off: standard coordinates -> plane."""
        b0, b1 = self.basis
        w = self.off
        return tuple((b0[k], b1[k], w[k]) for k in range(3))

    def conj(self) -> "LineReduction":
        return LineReduction(
            config=self.config.conj(),
            basis=tuple(tuple(x.conj() for x in b) for b in self.basis),
            off=tuple(x.conj() for x in self.off),
            line=self.line.conj(),
            residue=self.residue.conj() if self.residue else None,
        )


def reduce_to_line(config: PointConfig, max_points: int = MAX_POINTS) -> LineReduction:
    """Rewrite a Collinear or LinePlusPoint configuration on the line itself."""
    cls = classify(config, max_points)
    if cls.tag is ConfigTag.COLLINEAR:
        line, residue = cls.line, None
    elif cls.tag is ConfigTag.LINE_PLUS_POINT:
        line, residue = cls.line, cls.residue
    else:
        raise WrongClassError(
            f"reduce_to_line expects Collinear or LinePlusPoint, got {cls.tag.value}"
        )
    d = line.dual
    pivot = next(k for k in range(3) if d[k])
    free = [k for k in range(3) if k != pivot]
    zero, one = GaussianRational(0), GaussianRational(1)

    def basis_vector(f):
        v = [zero, zero, zero]
        v[f] = one
        v[pivot] = -d[f] / d[pivot]
        return tuple(v)

    b0, b1 = basis_vector(free[0]), basis_vector(free[1])
    on_line = [p for p in config if residue is None or p != residue]
    line_points = [ProjPoint(p.coords[free[0]], p.coords[free[1]]) for p in on_line]
    if residue is not None:
        off = residue.coords
    else:
        off = tuple(one if k == pivot else zero for k in range(3))
    return LineReduction(
        config=PointConfig(line_points),
        basis=(b0, b1),
        off=off,
        line=line,
        residue=residue,
    )
