"""Classification and exhaustive equivalence search for configurations.

The central operation enumerates every projective-linear map carrying one
configuration onto another.  A map is pinned down by where it sends a
projective frame (d + 1 points in general position in dimension d: four
in the plane, three distinct points on the line), so with one frame of
the source fixed, every ordered frame of the target is a candidate.
Candidates are matched by frame coordinates (geometric hashing with exact
keys): each ordering of the fixed source frame gives the key set of the
source points written in it, each unordered target frame Q the key set
of the target points written in Q, and each ordering whose key set is
Q's gives a map.  The search is exact and complete, and one keyed
enumeration serves both dimensions.

Frame coordinates come from one table of brackets, the d x d
determinants [i j k] (on the line [i j]) of the points, each computed
once.  For an ordered frame f_1..f_d, f_{d+1}, let w_k be the bracket of
f_1..f_d with f_k replaced by f_{d+1}.  Coordinate k of a point t is
(prod over j != k of w_j) * [f_1..f_d with f_k replaced by t]: this is
adj(M) . t for the frame matrix M with columns w_k f_k, since by Cramer's
rule entry k of M^-1 . t is [.. t at k ..] / (w_k [f_1..f_d]) and
det M = [f_1..f_d] * prod w_j.  A key is the normal form of that vector.
The table stores brackets with t first, [t, f_{k+1}, .., f_{k+d-1}]
(indices mod d).  In the plane that is a cyclic shift; on the line it
negates every coordinate and column 2 of both frame matrices alike, which
changes no key and no map.  conj(S)'s table is the entrywise conjugate.

Degenerate configurations (all points on a line, or all but one) have
infinite planar automorphism groups; they are reduced to the projective
line, as configurations of two-coordinate points acted on by 2x2 maps.

The enumeration runs on the normalized Gaussian-integer tuples that
points and maps store (see `plane`): frames are tested and keyed, and
accepted maps are built, with the integer kernels of `plane` alone.

Before a target frame is keyed exactly it must pass a residue filter, a
fingerprint in the manner of Karp and Rabin (1987) in front of the exact
hashing.  P is a prime = 1 mod 4 and I a square root of -1 mod P, so
a + bi -> a + bI is a ring map Z[i] -> F_P; its kernel is the prime
p = (P, i - I).  The bracket table stores each bracket's image under it
and under a + bi -> a - bI, and the conjugate table swaps the two.  The
ratio x_2 / x_1 of a point t's frame coordinates is N / D with
N = w_1 [.. t at 2 ..] and D = w_2 [.. t at 1 ..] (the other factors
w_j cancel: they are nonzero).  A target frame is rejected at the first
point t outside it whose residue ratio N / D mod p is none of the
source's, over every ordering of the anchor; t with D = 0 mod p are
skipped.  The filter never rejects a frame the exact check accepts.
There, every such t has the key of a source point s in one ordering, so
their coordinates are proportional: N_t D_s = N_s D_t in Z[i], hence
mod p.  If D_t = 0 mod p, t is skipped.  Otherwise D_s != 0 exactly
(D_s = 0 would give x_1 = 0 at s, so at t, and D_t = 0), and if D_s is
nonzero mod p as well, the two residue ratios agree.  The one gap, a
source D_s that is nonzero exactly but zero mod p, turns the filter off
for the whole enumeration.  Rejecting a quad that is no frame changes
nothing, since the exact check skips it.  So the filter changes no map
and no order, only the number of frames keyed, and the source key sets
are built only when the first frame passes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, reduce
from typing import NamedTuple, Optional

from .errors import InternalError, InvalidInputError
from .gaussian import _sqrt_minus_one
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
    zcross,
    zgeneral_position,
    zmatmul,
    zmatvec,
    zmatvec3,
    zmul,
    znormal,
    zscale,
)

class NeedsReductionError(InvalidInputError):
    """The operation needs a general-position 4-subset; route through reduce_to_line."""


class WrongClassError(InvalidInputError):
    """The configuration is not in the class this operation expects."""


class TooSmallError(InvalidInputError):
    """Fewer than three points on the line: the automorphism group is infinite."""


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


def classify(config: PointConfig) -> ConfigClass:
    """Sort a configuration into one of four mutually exclusive classes.

    Tiny: n <= 3.  HasFrame: some 4-subset in general position (the
    witness is the least one, with the points ordered by their `z`).
    Otherwise, with n >= 4, the points lie on a line (Collinear) or on a
    line plus one point off it (LinePlusPoint); no further case exists.
    """
    n = len(config)
    if len(config.points[0].z) != 6:
        raise InvalidInputError("classification needs points of the plane")
    if n <= 3:
        return ConfigClass(ConfigTag.TINY)
    pts = config.points
    for quad in itertools.combinations(range(n), 4):
        if zgeneral_position(*[pts[k].z for k in quad]):
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


# the prime of the residue filter (module docstring) and a square root of -1 mod it
P = 1000000009
I = _sqrt_minus_one(P)


class _Brackets(NamedTuple):
    """The points' Z[i] vectors, and rows[f][t] = [t, *f] for each ordered (d-1)-tuple f.

    residues[f][t] and conj_residues[f][t] are the images of rows[f][t]
    in F_P under a + bi -> a + bI and a + bi -> a - bI.
    """

    vectors: tuple
    rows: dict
    residues: dict
    conj_residues: dict

    def conj(self) -> "_Brackets":
        """The conjugate points' table, in the same index order, one tuple per entry value."""
        conj = {x: (x[0], -x[1]) for row in self.rows.values() for x in row}
        rows = {f: list(map(conj.__getitem__, row)) for f, row in self.rows.items()}
        return _Brackets(zconj(self.vectors), rows, self.conj_residues, self.residues)


# the parity of each ordering of a d-subset, in itertools.permutations order
_ODD = {2: (0, 1), 3: (0, 1, 1, 0, 0, 1)}


def _brackets(points) -> _Brackets:
    """Every d x d determinant of the points, each computed once, with its residues.

    [i, *rest] is point i dotted with the cross product of the (d - 1)
    points rest (on the line, (b, -a) for the point (a:b)); it is taken
    for i below rest and written, with its sign, under every ordering.
    """
    vectors = tuple(p.z for p in points)
    n, d = len(vectors), len(vectors[0]) // 2
    orderings = list(itertools.permutations(range(n), d - 1))
    rows = {f: [(0, 0)] * n for f in orderings}
    residues = {f: [0] * n for f in orderings}
    conj_residues = {f: [0] * n for f in orderings}
    entries = {f: (rows[f], residues[f], conj_residues[f]) for f in orderings}
    for rest in itertools.combinations(range(n), d - 1):
        if d == 3:
            cross = zcross(vectors[rest[0]], vectors[rest[1]])
        else:
            ar, ai, br, bi = vectors[rest[0]]
            cross = (br, bi, -ar, -ai)
        for i in range(rest[0]):
            det = zmatvec((cross,), vectors[i])
            r, rc = (det[0] + det[1] * I) % P, (det[0] - det[1] * I) % P
            signed = (det, r, rc), ((-det[0], -det[1]), -r % P, -rc % P)
            for ordering, odd in zip(itertools.permutations((i,) + rest), _ODD[d]):
                t = ordering[0]
                row, residue, conj_residue = entries[ordering[1:]]
                row[t], residue[t], conj_residue[t] = signed[odd]
    return _Brackets(vectors, rows, residues, conj_residues)


def _frame_coordinates(rows, frame):
    """(slots, u, scales) of an ordered frame (module docstring), or None if no frame.

    slots[k] is the row of (f_{k+1}, ..., f_{k+d-1}), indices mod d, and
    u[k] = slots[k][f_{d+1}]; coordinate k of t is scales[k] * slots[k][t].
    """
    base, last = frame[:-1], frame[-1]
    d = len(base)
    slots = [rows[base[k + 1:] + base[:k]] for k in range(d)]
    u = [slot[last] for slot in slots]
    if slots[0][base[0]] == (0, 0) or (0, 0) in u:
        return None
    return slots, u, [reduce(zmul, u[:k] + u[k + 1:]) for k in range(d)]


def _key(slots, scales, t):
    """The exact key of point t: the normal form of its frame coordinates."""
    v = []
    for (sr, si), slot in zip(scales, slots):
        xr, xi = slot[t]
        v += (sr * xr - si * xi, sr * xi + si * xr)
    return znormal(v)


def _frame_matrix(vectors, frame, u):
    return zcolumns([zscale(x, vectors[f]) for x, f in zip(u, frame)])


def _residue_slots(residues, frame):
    """(slot_0, slot_1, u_0, u_1) of an ordered frame, as in `_frame_coordinates`, mod P."""
    base, last = frame[:-1], frame[-1]
    s0, s1 = residues[base[1:]], residues[base[2:] + base[:1]]
    return s0, s1, s0[last], s1[last]


def _source_ratios(source, anchor, others):
    """The residue ratios N / D (module docstring) of the other source points, all orderings.

    Points with D = 0 exactly are left out; None (no filter) if some
    other point has D nonzero exactly but zero mod p.  The denominators
    are inverted together, with one modular inverse of their product.
    """
    numerators, denominators = [], []
    for frame in itertools.permutations(anchor):
        s0, s1, u0, u1 = _residue_slots(source.residues, frame)
        exact = source.rows[frame[1:-1]]
        for t in others:
            if exact[t] != (0, 0):
                numerators.append(u0 * s1[t])
                denominators.append(u1 * s0[t])
    prefix = [1]
    for den in denominators:
        prefix.append(prefix[-1] * den % P)
    if not prefix[-1]:
        return None
    inverse = pow(prefix[-1], -1, P)
    ratios = set()
    for k in range(len(denominators) - 1, -1, -1):
        ratios.add(numerators[k] * prefix[k] * inverse % P)
        inverse = inverse * denominators[k] % P
    return ratios


def _rejects(residues, frame, ratios):
    """Whether some point outside the frame has a residue ratio N / D outside ratios."""
    s0, s1, u0, u1 = _residue_slots(residues, frame)
    for t in range(len(s0)):
        if t not in frame:
            den = u1 * s0[t] % P
            if den and u0 * s1[t] * pow(den, -1, P) % P not in ratios:
                return True
    return False


def _source_key_sets(source, anchor, others):
    """{key set of the other points: [(ordering, u)]} over every ordering of anchor."""
    by_keys = {}
    for frame in itertools.permutations(anchor):
        slots, u, scales = _frame_coordinates(source.rows, frame)
        keys = frozenset(_key(slots, scales, t) for t in others)
        by_keys.setdefault(keys, []).append((frame, u))
    return by_keys


def _keyed_equivalences(source, anchor, target):
    """Every g with g(source) = target, as SemiProjMaps sorted by key.

    source and target are bracket tables of equally many distinct points
    of one dimension d; anchor indexes d + 1 source points forming a frame.
    Frame points have the standard keys in every frame, so only the other
    points are keyed.  A target frame is keyed only if it passes the
    residue filter (module docstring), and a key in no source key set
    rejects it.
    """
    adjugate = zadjugate2 if len(anchor) == 3 else zadjugate3
    n = len(target.vectors)
    others = [t for t in range(n) if t not in anchor]
    ratios = _source_ratios(source, anchor, others) if others else None
    by_keys = None
    found = []
    for frame in itertools.combinations(range(n), len(anchor)):
        if ratios is not None and _rejects(target.residues, frame, ratios):
            continue
        coordinates = _frame_coordinates(target.rows, frame)
        if coordinates is None:
            continue
        if by_keys is None:
            by_keys = _source_key_sets(source, anchor, others)
            source_keys = frozenset().union(*by_keys)
        slots, u, scales = coordinates
        frame_keys = set()
        for t in range(n):
            if t not in frame:
                k = _key(slots, scales, t)
                if k not in source_keys:
                    break
                frame_keys.add(k)
        else:
            matches = by_keys.get(frozenset(frame_keys))
            if matches:
                z_frame = _frame_matrix(target.vectors, frame, u)
                for source_frame, source_u in matches:
                    z_source = _frame_matrix(source.vectors, source_frame, source_u)
                    found.append(zmatmul(z_frame, adjugate(z_source)))

    maps = sorted((SemiProjMap.from_z(g) for g in found), key=SemiProjMap.key)
    if len(set(maps)) != len(maps):
        raise InternalError("duplicate maps in equivalence enumeration")
    return maps


# --- equivalences and automorphisms --------------------------------------------


def equivalences(source: PointConfig, target: PointConfig):
    """Every g in PGL3 with g(source) = target, sorted by `SemiProjMap.key`.

    Requires a general-position 4-subset in the source (NeedsReductionError
    otherwise); the least one from `classify` anchors the keyed
    enumeration.  Different sizes yield the empty list.
    """
    sym = Symmetries.of(source)
    anchor = sym.anchor
    if len(target.points[0].z) != 6:
        raise InvalidInputError("equivalences needs target points of the plane")
    if len(source) != len(target):
        return []
    return _keyed_equivalences(sym.brackets, anchor, _brackets(target.points))


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
    return _permutation_pairs([p.z for p in config.points], maps)


def _permutation_pairs(points, maps):
    """`symmetry_permutations` on the points' Z[i] vectors."""
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


class Symmetries:
    """The symmetries of one configuration S, each enumerated once, on first use.

    S is classified on construction; `route` is "frame" (a general-position
    4-subset, the witness frame, anchors the enumerations), "line" (S is
    collinear or a line plus a point, read on its line as `reduction`) or
    "tiny" (at most three points).  Off the tiny route one bracket table
    is built, of S or of `reduction.config`, and conj(S) -> S is read from
    it and its entrywise conjugate on both routes.  Reading only
    `conjugate` never enumerates S -> S.

    `Symmetries.of(config)` is shared by every decision on one config
    object and lives as long as that object; there is no module-level
    cache.  The groups are tuples.  It keeps no reference to the config,
    so no cycle forms.
    """

    def __init__(self, config: PointConfig):
        self.cls = classify(config)
        self.route = {ConfigTag.HAS_FRAME: "frame", ConfigTag.TINY: "tiny"}.get(
            self.cls.tag, "line")
        self.reduction = _reduce(config, self.cls) if self.route == "line" else None
        enumerated = self.reduction.config if self.reduction else config
        self.brackets = _brackets(enumerated.points) if self.route != "tiny" else None

    @classmethod
    def of(cls, config: PointConfig) -> "Symmetries":
        """The Symmetries kept on config, built by the first call."""
        if config._symmetries is None:
            config._symmetries = cls(config)
        return config._symmetries

    @property
    def anchor(self):
        """The indices of the witness frame in S; NeedsReductionError off the frame route."""
        if self.route != "frame":
            raise NeedsReductionError(
                f"{self.cls.tag.value} configuration: no frame to anchor the search"
            )
        return tuple(self.brackets.vectors.index(p.z) for p in self.cls.frame)

    @cached_property
    def conjugate(self):
        """The antiholomorphic symmetries x -> A conj(x), sorted by key; None if tiny.

        Keyed on the conjugate of the bracket table, anchored on the
        conjugate of the witness frame (3x3 maps of S) or of points 0, 1, 2
        of reduction.config (2x2 maps of the line, symmetries of it).
        """
        if self.route == "tiny":
            return None
        anchor = self.anchor if self.route == "frame" else (0, 1, 2)
        maps = _keyed_equivalences(self.brackets.conj(), anchor, self.brackets)
        return tuple(SemiProjMap.from_z(m.z, antiholo=True) for m in maps)

    @cached_property
    def holomorphic(self):
        """Aut(S) sorted by key, verified to be a group on the point permutations.

        `symmetry_permutations` is exact because S has a frame; off the
        frame route this raises NeedsReductionError.
        """
        anchor = self.anchor
        maps = tuple(_keyed_equivalences(self.brackets, anchor, self.brackets))
        _permutation_pairs(self.brackets.vectors, maps)
        return maps


def aut_group(config: PointConfig):
    """The verified automorphism group (`Symmetries.holomorphic`), as a new list."""
    return list(Symmetries.of(config).holomorphic)


# --- the projective line --------------------------------------------------------


def pgl2_equivalences(source: PointConfig, target: PointConfig):
    """Every holomorphic map of the line with g(source) = target, sorted by key.

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
    if len(source) != len(target):
        return []
    return _keyed_equivalences(_brackets(source.points), (0, 1, 2), _brackets(target.points))


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
    residue: Optional[ProjPoint]

    def to_plane(self, p: ProjPoint) -> ProjPoint:
        return ProjPoint.from_z(zmatvec(zcolumns(self.basis), p.z))

    def chart_matrix(self):
        """Columns basis[0], basis[1], off: standard coordinates -> plane."""
        return zcolumns(self.basis + (self.off,))


def reduce_to_line(config: PointConfig) -> LineReduction:
    """Rewrite a Collinear or LinePlusPoint configuration on the line itself."""
    return _reduce(config, classify(config))


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
        residue=residue,
    )
