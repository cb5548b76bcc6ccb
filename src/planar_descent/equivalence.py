"""Classification and exhaustive equivalence search for configurations.

The central operation enumerates every projective-linear map carrying one
configuration onto another.  A map is pinned down by where it sends a
projective frame (d + 1 points in general position in dimension d: four
in the plane, three distinct points on the line), so with one frame of
the source fixed, every ordered frame of the target is a candidate.
Candidates are matched by frame coordinates (geometric hashing with exact
keys): the source points are written in the fixed frame once, each
unordered target frame Q contributes the key set of the target points
written in the frame Q, and an ordering of Q is accepted exactly when its
permutation of the standard frame carries the source key set onto that
of Q.  The search is exact and complete, and one keyed enumeration
serves both dimensions.

Degenerate configurations (all points on a line, or all but one) have
infinite planar automorphism groups; they are reduced to the projective
line, as configurations of two-coordinate points acted on by 2x2 maps.

The inner enumeration runs on cleared-denominator Gaussian-integer
coordinates: frames are tested and keyed with pure integer arithmetic,
and only accepted maps are rebuilt over Q(i).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from math import gcd, lcm
from typing import Optional

from .errors import InternalError, InvalidInputError
from .gaussian import GaussianRational
from .plane import (
    Line,
    PointConfig,
    ProjPoint,
    SemiProjMap,
    line_through,
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
    ints = [_zclear(p.coords) for p in pts]
    for quad in itertools.combinations(range(n), 4):
        if _zframe_matrix3(*[ints[k] for k in quad]) is not None:
            return ConfigClass(ConfigTag.HAS_FRAME, frame=tuple(pts[k] for k in quad))
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
# A Gaussian integer is a pair of Python ints (re, im); a point of the
# line is a 4-tuple (ar, ai, br, bi), a point of the plane a 6-tuple
# (ar, ai, br, bi, cr, ci), and a d x d matrix is a tuple of d such rows.
# Projective points are compared through _zkey2 / _zkey3, which need
# integer gcds only.  Each dimension has its own unrolled kernels
# (_KERNELS), picked once per enumeration.


def _zclear(values):
    """Re and im parts of Q(i) values times their common denominator."""
    parts = [x for c in values for x in (c.re, c.im)]
    m = lcm(*[x.denominator for x in parts])
    return tuple([int(x * m) for x in parts])


def _zdet2(p, q):
    ar, ai, br, bi = p
    cr, ci, dr, di = q
    return (
        (ar * dr - ai * di) - (br * cr - bi * ci),
        (ar * di + ai * dr) - (br * ci + bi * cr),
    )


def _zcross(u, v):
    ar, ai, br, bi, cr, ci = u
    dr, di, er, ei, fr, fi = v
    return (
        (br * fr - bi * fi) - (cr * er - ci * ei), (br * fi + bi * fr) - (cr * ei + ci * er),
        (cr * dr - ci * di) - (ar * fr - ai * fi), (cr * di + ci * dr) - (ar * fi + ai * fr),
        (ar * er - ai * ei) - (br * dr - bi * di), (ar * ei + ai * er) - (br * di + bi * dr),
    )


def _zdet3(p, q, r):
    ar, ai, br, bi, cr, ci = p
    xr, xi, yr, yi, zr, zi = _zcross(q, r)
    return (
        (ar * xr - ai * xi) + (br * yr - bi * yi) + (cr * zr - ci * zi),
        (ar * xi + ai * xr) + (br * yi + bi * yr) + (cr * zi + ci * zr),
    )


def _zmatvec2(m, v):
    ar, ai, br, bi = v
    out = []
    for r0, i0, r1, i1 in m:
        out.append((r0 * ar - i0 * ai) + (r1 * br - i1 * bi))
        out.append((r0 * ai + i0 * ar) + (r1 * bi + i1 * br))
    return tuple(out)


def _zmatvec3(m, v):
    ar, ai, br, bi, cr, ci = v
    out = []
    for r0, i0, r1, i1, r2, i2 in m:
        out.append((r0 * ar - i0 * ai) + (r1 * br - i1 * bi) + (r2 * cr - i2 * ci))
        out.append((r0 * ai + i0 * ar) + (r1 * bi + i1 * br) + (r2 * ci + i2 * cr))
    return tuple(out)


def _zkey2(v):
    """Exact hashable key of the projective point of a nonzero Z[i] 2-vector (see _zkey3)."""
    ar, ai, br, bi = v
    xr, xi = (ar, ai) if ar or ai else (br, bi)
    ar, ai = ar * xr + ai * xi, ai * xr - ar * xi
    br, bi = br * xr + bi * xi, bi * xr - br * xi
    g = gcd(ar, ai, br, bi)
    return (ar // g, ai // g, br // g, bi // g)


def _zkey3(v):
    """Exact hashable key of the projective point of a nonzero Z[i] 3-vector.

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


def _zframe_matrix2(v1, v2, v3):
    """The line's frame matrix (see _zframe_matrix3), or None unless the points are distinct."""
    if _zdet2(v1, v2) == (0, 0):
        return None
    d1r, d1i = _zdet2(v3, v2)
    d2r, d2i = _zdet2(v1, v3)
    if not (d1r or d1i) or not (d2r or d2i):
        return None
    ar, ai, br, bi = v1
    cr, ci, dr, di = v2
    return (
        (d1r * ar - d1i * ai, d1r * ai + d1i * ar, d2r * cr - d2i * ci, d2r * ci + d2i * cr),
        (d1r * br - d1i * bi, d1r * bi + d1i * br, d2r * dr - d2i * di, d2r * di + d2i * dr),
    )


def _zframe_matrix3(v1, v2, v3, v4):
    """Columns d_k * v_k, the frame matrix scaled to stay integral, or None.

    d_k is the determinant of v_1, v_2, v_3 with v_k replaced by v_4, so
    by Cramer's rule the columns sum to det(v_1, v_2, v_3) * v_4.  The
    points form a frame exactly when det(v_1, v_2, v_3) and every d_k are
    nonzero; otherwise the result is None.
    """
    if _zdet3(v1, v2, v3) == (0, 0):
        return None
    d1 = _zdet3(v4, v2, v3)
    d2 = _zdet3(v1, v4, v3)
    d3 = _zdet3(v1, v2, v4)
    if d1 == (0, 0) or d2 == (0, 0) or d3 == (0, 0):
        return None
    (d1r, d1i), (d2r, d2i), (d3r, d3i) = d1, d2, d3
    return tuple(
        (d1r * v1[j] - d1i * v1[j + 1], d1r * v1[j + 1] + d1i * v1[j],
         d2r * v2[j] - d2i * v2[j + 1], d2r * v2[j + 1] + d2i * v2[j],
         d3r * v3[j] - d3i * v3[j + 1], d3r * v3[j + 1] + d3i * v3[j])
        for j in (0, 2, 4)
    )


def _zadjugate2(m):
    (ar, ai, br, bi), (cr, ci, dr, di) = m
    return ((dr, di, -br, -bi), (-cr, -ci, ar, ai))


def _zadjugate3(m):
    """Rows are the cross products of the column pairs (1, 2), (2, 0), (0, 1)."""
    (ar, ai, br, bi, cr, ci), (dr, di, er, ei, fr, fi), (gr, gi, hr, hi, ir, ii) = m
    c0, c1, c2 = (ar, ai, dr, di, gr, gi), (br, bi, er, ei, hr, hi), (cr, ci, fr, fi, ir, ii)
    return (_zcross(c1, c2), _zcross(c2, c0), _zcross(c0, c1))


def _zmatmul(a, b):
    n = len(b)
    rows = []
    for row in a:
        out = [0] * (2 * n)
        for k in range(n):
            xr, xi, bk = row[2 * k], row[2 * k + 1], b[k]
            for j in range(0, 2 * n, 2):
                out[j] += xr * bk[j] - xi * bk[j + 1]
                out[j + 1] += xr * bk[j + 1] + xi * bk[j]
        rows.append(tuple(out))
    return tuple(rows)


# dimension -> (frame matrix, matvec, key, adjugate)
_KERNELS = {
    2: (_zframe_matrix2, _zmatvec2, _zkey2, _zadjugate2),
    3: (_zframe_matrix3, _zmatvec3, _zkey3, _zadjugate3),
}

# P_sigma for the orderings sigma of the standard frame, (1:0), (0:1),
# (1:1) on the line (6) and (1:0:0), (0:1:0), (0:0:1), (1:1:1) in the
# plane (24): Z(Q) . P_sigma is, up to a scalar, the frame matrix of Q
# taken in the order sigma.
_STANDARD_FRAMES = {
    2: ((1, 0, 0, 0), (0, 0, 1, 0), (1, 0, 1, 0)),
    3: ((1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 1, 0), (1, 0, 1, 0, 1, 0)),
}
_FRAME_ORDERINGS = {
    d: tuple(_KERNELS[d][0](*perm) for perm in itertools.permutations(frame))
    for d, frame in _STANDARD_FRAMES.items()
}


def _map_from_int_matrix(m):
    return SemiProjMap(
        [[GaussianRational(row[c], row[c + 1]) for c in range(0, len(row), 2)] for row in m]
    )


def _keyed_equivalences(source_frame, source, target):
    """Every holomorphic g with g(source) = target, as SemiProjMaps sorted by key.

    The arguments are cleared Z[i] vectors (_zclear) of one dimension d:
    equally many distinct source and target points, and d + 1 source
    points forming a frame.  Orderings sharing a source key set share one
    entry of `by_keys`; each unordered target frame is keyed once (see the
    module docstring), and a target point whose key lies in no source key
    set rejects the frame at once.
    """
    dim = len(source_frame) - 1
    frame_matrix, matvec, key, adjugate = _KERNELS[dim]
    frame_adj = adjugate(frame_matrix(*source_frame))
    source_coords = [matvec(frame_adj, v) for v in source]
    by_keys = {}
    for p_sigma in _FRAME_ORDERINGS[dim]:
        keys = frozenset(key(matvec(p_sigma, v)) for v in source_coords)
        by_keys.setdefault(keys, []).append(_zmatmul(p_sigma, frame_adj))

    source_keys = frozenset().union(*by_keys)
    found = []
    for frame in itertools.combinations(target, dim + 1):
        z_frame = frame_matrix(*frame)
        if z_frame is None:
            continue
        z_frame_adj = adjugate(z_frame)
        frame_keys = set()
        for t in target:
            k = key(matvec(z_frame_adj, t))
            if k not in source_keys:
                break
            frame_keys.add(k)
        else:
            for g in by_keys.get(frozenset(frame_keys), ()):
                found.append(_zmatmul(z_frame, g))

    maps = sorted((_map_from_int_matrix(g) for g in found), key=SemiProjMap.key)
    if len({m.key() for m in maps}) != len(maps):
        raise InternalError("duplicate maps in equivalence enumeration")
    return maps


# --- equivalences and automorphisms --------------------------------------------


def equivalences(source: PointConfig, target: PointConfig,
                 max_points: int = MAX_POINTS):
    """Every g in PGL3 with g(source) = target, sorted canonically.

    Requires a general-position 4-subset in the source (NeedsReductionError
    otherwise); the lexicographically least one from `classify` anchors
    the keyed enumeration.  Different sizes yield the empty list.
    """
    cls = classify(source, max_points)
    if cls.tag is not ConfigTag.HAS_FRAME:
        raise NeedsReductionError(
            f"{cls.tag.value} configuration: no frame to anchor the search"
        )
    if len(target.points[0].coords) != 3:
        raise InvalidInputError("equivalences needs target points of the plane")
    if len(target) > max_points:
        raise TooManyPointsError(
            f"{len(target)} points exceed the enumeration guard of {max_points}"
        )
    if len(source) != len(target):
        return []
    return _keyed_equivalences(
        [_zclear(p.coords) for p in cls.frame],
        [_zclear(p.coords) for p in source.points],
        [_zclear(p.coords) for p in target.points],
    )


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
    index = {_zkey3(v): k for k, v in enumerate(points)}
    n = len(points)
    pairs = []
    for g in maps:
        m = _zclear([x for row in g.matrix for x in row])
        m = (m[0:6], m[6:12], m[12:18])
        vectors = conj_points if g.antiholo else points
        perm = tuple([index.get(_zkey3(_zmatvec3(m, v))) for v in vectors])
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


def pgl2_equivalences(source: PointConfig, target: PointConfig,
                      max_points: int = MAX_POINTS):
    """Every holomorphic map of the line with g(source) = target, sorted canonically.

    Any three distinct points are a frame on the line, so the first three
    source points anchor the same keyed enumeration as `equivalences`,
    over the target triples.  Fewer than three points leaves infinitely
    many maps (TooSmallError).  Different sizes yield the empty list.
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
    source_ints = [_zclear(p.coords) for p in source.points]
    return _keyed_equivalences(
        source_ints[:3], source_ints, [_zclear(p.coords) for p in target.points]
    )


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
