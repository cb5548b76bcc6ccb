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

The enumeration runs on the normalized Gaussian-integer tuples that
points and maps store (see `plane`): frames are tested and keyed, and
accepted maps are built, with the integer kernels of `plane` alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .errors import InternalError, InvalidInputError
from .plane import (
    ZIDENTITY,
    Line,
    PointConfig,
    ProjPoint,
    SemiProjMap,
    line_through,
    zadjugate2,
    zadjugate3,
    zcolumns,
    zconj,
    zframe_matrix2,
    zframe_matrix3,
    zmatmul,
    zmatvec,
    zmatvec3,
    znormal,
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
    if len(config.points[0].z) != 6:
        raise InvalidInputError("classification needs points of the plane")
    if n <= 3:
        return ConfigClass(ConfigTag.TINY)
    pts = config.points
    for quad in itertools.combinations(range(n), 4):
        if zframe_matrix3(*[pts[k].z for k in quad]) is not None:
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


# dimension -> (frame matrix, matvec, normal form, adjugate)
_KERNELS = {
    2: (zframe_matrix2, zmatvec, znormal, zadjugate2),
    3: (zframe_matrix3, zmatvec3, znormal, zadjugate3),
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


def _keyed_equivalences(source_frame, source, target):
    """Every holomorphic g with g(source) = target, as SemiProjMaps sorted by key.

    The arguments are stored Z[i] vectors (`ProjPoint.z`) of one dimension d:
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
        by_keys.setdefault(keys, []).append(zmatmul(p_sigma, frame_adj))

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
                found.append(zmatmul(z_frame, g))

    maps = sorted((SemiProjMap.from_z(g) for g in found), key=SemiProjMap.key)
    if len(set(maps)) != len(maps):
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
    return _frame_equivalences(_witness_frame(source, max_points), source, target, max_points)


def _witness_frame(config, max_points):
    """The frame `classify` picks in the configuration; NeedsReductionError if none."""
    cls = classify(config, max_points)
    if cls.tag is not ConfigTag.HAS_FRAME:
        raise NeedsReductionError(
            f"{cls.tag.value} configuration: no frame to anchor the search"
        )
    return cls.frame


def _frame_equivalences(frame, source, target, max_points):
    """`equivalences` anchored on a given frame of the source, so S is classified once.

    Any frame of the source gives the same sorted maps; callers pass the
    witness frame of S, or its conjugate for conj(S).
    """
    if len(target.points[0].z) != 6:
        raise InvalidInputError("equivalences needs target points of the plane")
    if len(target) > max_points:
        raise TooManyPointsError(
            f"{len(target)} points exceed the enumeration guard of {max_points}"
        )
    if len(source) != len(target):
        return []
    return _keyed_equivalences(
        [p.z for p in frame], [p.z for p in source.points], [p.z for p in target.points]
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
    points = [p.z for p in config.points]
    conj_points = [zconj(v) for v in points]
    index = {v: k for k, v in enumerate(points)}
    n = len(points)
    pairs = []
    for g in maps:
        vectors = conj_points if g.antiholo else points
        perm = tuple([index.get(znormal(zmatvec3(g.z, v))) for v in vectors])
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
    if len(source.points[0].z) != 4 or len(target.points[0].z) != 4:
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
    source_ints = [p.z for p in source.points]
    return _keyed_equivalences(source_ints[:3], source_ints, [p.z for p in target.points])


# --- reduction to the line -------------------------------------------------------


@dataclass(frozen=True)
class LineReduction:
    """A degenerate configuration re-read on its spanning line.

    `basis` holds two Z[i] vectors spanning the line (the reduced row
    echelon basis of the dual's kernel, both times the dual's leading
    entry L), `off` a third vector completing them to a basis of the
    plane: the residue point's stored vector if there is one, else the
    unit vector off the line.  `config` collects the on-line
    points as two-coordinate points in the chart
    s*basis[0] + t*basis[1]  ->  (s:t).  Lifting a line map through
    `chart_matrix` depends on the columns' scales only up to one
    positive factor for the basis and one for `off`.
    """

    config: PointConfig
    basis: tuple
    off: tuple
    line: Line
    residue: Optional[ProjPoint]

    def to_plane(self, p: ProjPoint) -> ProjPoint:
        return ProjPoint.from_z(zmatvec(zcolumns(self.basis), p.z))

    def chart_matrix(self):
        """Columns basis[0], basis[1], off: standard coordinates -> plane."""
        return zcolumns(self.basis + (self.off,))

    def conj(self) -> "LineReduction":
        return LineReduction(
            config=self.config.conj(),
            basis=zconj(self.basis),
            off=zconj(self.off),
            line=self.line.conj(),
            residue=self.residue.conj() if self.residue else None,
        )


def reduce_to_line(config: PointConfig, max_points: int = MAX_POINTS) -> LineReduction:
    """Rewrite a Collinear or LinePlusPoint configuration on the line itself."""
    return _reduce(config, classify(config, max_points))


def _reduce(config, cls):
    """`reduce_to_line` for a configuration already classified as cls."""
    if cls.tag not in (ConfigTag.COLLINEAR, ConfigTag.LINE_PLUS_POINT):
        raise WrongClassError(
            f"reduce_to_line expects Collinear or LinePlusPoint, got {cls.tag.value}"
        )
    line, residue = cls.line, cls.residue
    d = line.z
    pivot = next(k for k in range(3) if d[2 * k] or d[2 * k + 1])
    lead = d[2 * pivot]
    free = [k for k in range(3) if k != pivot]

    def basis_vector(f):
        v = [0] * 6
        v[2 * f] = lead
        v[2 * pivot], v[2 * pivot + 1] = -d[2 * f], -d[2 * f + 1]
        return tuple(v)

    f0, f1 = free
    line_points = [
        ProjPoint.from_z(p.z[2 * f0:2 * f0 + 2] + p.z[2 * f1:2 * f1 + 2])
        for p in config if p != residue
    ]
    off = residue.z if residue is not None else ZIDENTITY[3][pivot]
    return LineReduction(
        config=PointConfig(line_points),
        basis=(basis_vector(f0), basis_vector(f1)),
        off=off,
        line=line,
        residue=residue,
    )
