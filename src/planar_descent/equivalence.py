"""Classification and exhaustive equivalence search for configurations.

The central operation enumerates every projective-linear map carrying one
configuration onto another.  A map is pinned down by where it sends a
projective frame (d + 1 points in general position in dimension d: four
in the plane, three distinct points on the line), so with one frame of
the source fixed, every ordered frame of the target is a candidate.
An unordered target frame and an ordering of the source frame define
the one map g = M_frame adj(M_ordering) that sends the ordering onto
the frame, and g is kept when it sends every other source point to a
point of the target.  The search is exact and complete, and one
enumeration serves both dimensions.

Frame coordinates come from brackets, the d x d determinants [i j k]
(on the line [i j]) of the points.  For an ordered frame f_1..f_d,
f_{d+1}, let w_k be the bracket of f_1..f_d with f_k replaced by
f_{d+1}.  Coordinate k of a point t is
(prod over j != k of w_j) * [f_1..f_d with f_k replaced by t]: this is
adj(M) . t for the frame matrix M with columns w_k f_k, since by Cramer's
rule entry k of M^-1 . t is [.. t at k ..] / (w_k [f_1..f_d]) and
det M = [f_1..f_d] * prod w_j.  So M takes the d + 1 brackets w_k and
[f_1..f_d], and the quad is a frame when they are nonzero.  Brackets are
read with t first, [t, f_{k+1}, .., f_{k+d-1}] (indices mod d).  In the
plane that is a cyclic shift; on the line it negates column 2 of both
frame matrices alike, which changes no map.

Degenerate configurations (all points on a line, or all but one) have
infinite planar automorphism groups; they are reduced to the projective
line, as configurations of two-coordinate points acted on by 2x2 maps.

The enumeration runs on the normalized Gaussian-integer tuples that
points and maps store (see `plane`): frames are tested, candidate maps
checked and accepted maps built with the integer kernels of `plane` alone.

Before a candidate map is built it must pass a residue filter, a
fingerprint in the manner of Karp and Rabin (1987) in front of the exact
check.  P is a prime = 1 mod 4 and I a square root of -1 mod P, so
a + bi -> a + bI is a ring map Z[i] -> F_P; its kernel is the prime
p = (P, i - I).  The ratio x_2 / x_1 of a point t's frame coordinates
is N / D with N = w_1 [.. t at 2 ..] and D = w_2 [.. t at 1 ..] (the
other factors w_j cancel: they are nonzero).  Written with the rows
s_k[t] = [t, f_{k+1}, .., f_{k+d-1}] and u_k = s_k[f_{d+1}], that is
N / D = u_0 s_1[t] / (u_1 s_0[t]), which does not change when a row is
negated.  So the filter reads one residue row per unordered
(d - 1)-subset of points, up to sign, built from each point's images in
F_P under a + bi -> a + bI and a + bi -> a - bI (the conjugate points'
table swaps the two), with the inverses of a batch of rows found by one
modular inverse (the simultaneous inversion of Montgomery, 1987).  The
rows are keyed by tuples of d - 1 points, pairs in the plane and 1-tuples
on the line.  One walk serves both dimensions: each base of d points,
a < b < c in the plane and a < b on the line, and then each last point
after it, in combinations order.

The source's ratios are kept per ordering sigma of the anchor, each
other source point s read as the point (N_s : D_s) of P^1(F_p).  If
D_s != 0 mod p, the mask of the residue ratio N_s / D_s has the bit of
sigma.  If D_s = 0 and N_s != 0 mod p, s is left out.  If N_s = D_s = 0
mod p, sigma is wild: its bit is in every mask, and it is the mask of a
ratio no source point has.  A target frame starts with every bit and,
at each point t outside it with D_t != 0 mod p, keeps those of the mask
of t's ratio; it is rejected once no bit is left.  The filter never
drops an ordering sigma where the map of that ordering and that frame
carries S onto T.  There, every such t is the image of a source point
s, and the map sends the coordinates of s in sigma to those of t in the
frame, so they are proportional: N_t D_s = N_s D_t in Z[i], hence mod
p.  If D_s != 0 mod p, the two residue ratios agree, so sigma's bit
survives t.  If D_s = 0 mod p, then N_s D_t = 0 with D_t != 0, so
N_s = 0 too and sigma is wild, and its bit survives t as well.  The
image t of a point s left out has N_s D_t = 0 with N_s != 0, so D_t = 0
and the walk skips it.  No exact bracket is read for this.  Rejecting a
quad that is no frame changes nothing, since no map is built on it.  So
the filter changes no map and no order.  A frame that passes is tried
only with the orderings left in its mask.

The filter also drops the target quads that are no frame, so none is
built exactly only to be refused.  A quad on the base (f_1, .., f_d)
with last point l is a frame exactly when its brackets are nonzero:
[f_1 .. f_d] = s_0[f_1], u_0 = s_0[l], u_1 = s_1[l] and, in the plane,
u_2 = [l f_1 f_2].  The filter reads the first three mod p on the
rows it builds anyway.  Where one is 0 mod p, that one determinant is
tested exactly, and the base (all its quads) or the quad is dropped only
if it is 0 exactly.  A quad whose bracket is 0 mod p but not exactly
goes on as before: u_0 = 0 mod p makes every residue ratio 0, and
u_1 = 0 mod p makes every D 0, so the quad keeps every ordering.  u_2
has no residue row and is tested exactly on the quads that pass (on the
line that test reads u_1 again).  Each quad dropped is no frame, so, as
above, no map and no order changes.  On the line every triple of
distinct points is a frame, so the same tests drop none there.

Residue rows are built in batches, one modular inverse for each, and
kept on their table: the target's rows before its frames are walked,
one batch per first d - 2 points of a key (per first point of a pair in
the plane, so no batch holds more than n rows of n residues, and one
batch on the line), and the source's rows of the anchor in one batch; a
second enumeration against the same table builds none again.  Exact
brackets stay lazy, computed only where they are read: the d + 1 of a
target frame that passes and of each ordering of the anchor it is tried
with, and the target brackets that decide whether a quad is a frame.
Each determinant is computed at most once per set of points and kept on
the table, and read with the sign of the order asked for; the conjugate
points' table reads them conjugated from its parent.

A configuration's symmetries are found once (`Symmetries`): the coset
conj(S) -> S by one enumeration, and Aut(S), when that coset is not
empty, read off it rather than enumerated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional

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
    zdet2,
    zdet3,
    zgeneral_position,
    zmatmul,
    zmatvec,
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


class _Brackets:
    """The brackets of n points of dimension d, their d x d determinants.

    `bracket` gives the determinant of d points in the order given, each
    set of points computed once, when it is first read, and kept;
    `vanishes` tests one against 0.  Row f, for a tuple f of d - 1 points,
    holds [t, *f] for every point t, and `residues[f]` its image in F_P
    under a + bi -> a + bI, read from the points' own images, as
    (residues, inverses) once `build_residues` has built it: f is a pair
    in the plane, one row for both orders, and a 1-tuple on the line.  The
    rows are built in batches, one modular inverse for each, and kept.
    `conj()` is the table of the conjugate points: it swaps each point's
    two images in F_P and reads its brackets conjugated from this table.
    """

    __slots__ = ("vectors", "residues", "_images", "_conjugate_of", "_dets")

    def __init__(self, vectors, images, conjugate_of=None):
        self.vectors = vectors
        self._images = images
        self._conjugate_of = conjugate_of
        self.residues = {}
        self._dets = {}

    def conj(self) -> "_Brackets":
        """The conjugate points' table, in the same index order; it copies no row."""
        return _Brackets(tuple([zconj(v) for v in self.vectors]), self._images[::-1], self)

    def build_residues(self, keys):
        """Build the residue rows of keys that are not built yet, with one modular inverse.

        keys are (d - 1)-tuples of points: pairs in the plane, 1-tuples on
        the line.  A row holds [t, *key] mod p up to sign for every t, and
        the inverses of its entries (0 for 0).  It is kept under key and
        key reversed, so both orders of a pair share one row: the residue
        filter reads ratios in which a row's sign cancels.
        """
        residues, images, p = self.residues, self._images[0], P
        keys = [key for key in keys if key not in residues]
        batch = []
        for key in keys:
            if len(key) == 2:  # the plane: [t x y] = t . (x cross y)
                (a, b, c), (e, f, g) = images[key[0]], images[key[1]]
                u, v, w = (b * g - c * f) % p, (c * e - a * g) % p, (a * f - b * e) % p
                batch.append([(u * r + v * s + w * t) % p for r, s, t in images])
            else:  # the line: [t y]
                e, f = images[key[0]]
                batch.append([(r * f - s * e) % p for r, s in images])
        if batch:
            for key, row in zip(keys, _with_inverses(batch)):
                residues[key] = residues[key[::-1]] = row

    def bracket(self, points):
        """The determinant of d distinct points in the order given, each set's computed once."""
        if self._conjugate_of is not None:
            x, y = self._conjugate_of.bracket(points)
            return x, -y
        a, b = points[0], points[1]  # dets is keyed by bitmask; odd: the parity of sorting
        bits, odd = 1 << a | 1 << b, a > b
        if len(points) == 3:
            c = points[2]
            bits, odd = bits | 1 << c, odd ^ (a > c) ^ (b > c)
        x = self._dets.get(bits)
        if x is None:
            det = zdet3 if len(points) == 3 else zdet2
            x = self._dets[bits] = det(*[self.vectors[k] for k in sorted(points)])
        return (-x[0], -x[1]) if odd else x

    def vanishes(self, points):
        """Whether the points (d of them) have determinant 0, from `bracket`."""
        return self.bracket(points) == (0, 0)


def _with_inverses(rows):
    """(row, inverses) for each row of residues mod P, with one modular inverse for all.

    inverses holds the inverse of each entry of the row (0 for 0), by
    Montgomery's simultaneous inversion (1987) over the rows' entries.
    """
    p, prefixes, product = P, [], 1
    for row in rows:
        for x in row:
            prefixes.append(product)
            if x:
                product = product * x % p
    inverse = pow(product, -1, p)
    k = len(prefixes)
    built = []
    for row in reversed(rows):
        inverses = [0] * len(row)
        for t in range(len(row) - 1, -1, -1):
            k -= 1
            if row[t]:
                inverses[t] = prefixes[k] * inverse % p
                inverse = inverse * row[t] % p
        built.append((row, inverses))
    built.reverse()
    return built


def _brackets(points) -> _Brackets:
    """The bracket table of the points, from their images in F_P under a + bi -> a +- bI."""
    vectors = tuple(p.z for p in points)
    images = [[[(v[j] + sign * v[j + 1] * I) % P for j in range(0, len(v), 2)] for v in vectors]
              for sign in (1, -1)]
    return _Brackets(vectors, images)


def _frame_matrix(table, frame):
    """The matrix of an ordered frame, columns u_k f_k (module docstring)."""
    base, last = frame[:-1], frame[-1]
    u = [table.bracket((last,) + base[k + 1:] + base[:k]) for k in range(len(base))]
    return zcolumns([zscale(x, table.vectors[f]) for x, f in zip(u, base)])


def _source_masks(source, orderings, others):
    """(masks, wild): {residue ratio N / D: bitmask of the orderings giving it}, wild orderings.

    Bit j stands for orderings[j] of the anchor, and its ratios are those
    of the other source points, read as points (N : D) of P^1(F_p)
    (module docstring).  A point with D = 0 mod p is left out, and one
    with N = D = 0 mod p makes its ordering wild: the bit is in every mask.
    """
    anchor = orderings[0]
    d = len(anchor) - 1
    source.build_residues(itertools.combinations(sorted(anchor), d - 1))
    rows = source.residues
    masks, wild = {}, 0
    for bit, frame in enumerate(orderings):
        # the rows of (f_2, f_3) and (f_1, f_3) in the plane, of f_2 and f_1 on the line
        (s0, inverses0), (s1, inverses1) = rows[frame[1:d]], rows[frame[:d:2]]
        u0, inverse1 = s0[frame[-1]], inverses1[frame[-1]]
        c = u0 * inverse1 % P
        for t in others:
            if inverse1 and inverses0[t]:
                ratio = c * s1[t] * inverses0[t] % P
                masks[ratio] = masks.get(ratio, 0) | 1 << bit
            elif not u0 * s1[t] % P:
                wild |= 1 << bit
    for ratio in masks:
        masks[ratio] |= wild
    return masks, wild


def _filtered_frames(target, d, masks, wild, every):
    """(frame, mask) for each target frame, in combinations order, with the orderings it leaves.

    mask starts as every and loses, at each point t outside the frame with
    D nonzero mod p, the orderings whose ratio sets lack t's N / D
    (module docstring), and the wild orderings are never lost; a frame is
    dropped once it has none left.  A frame with a bracket 0 exactly is
    dropped too, so every frame yielded is a frame.

    A frame is a base of d points, a < b (< c), and a last point after
    them.  It reads the residue rows s_0 and s_1 (module docstring) of
    base[1:] and base[::2]: (b, c) and (a, c) in the plane, b and a on the
    line.  No row read holds the last point, n - 1; the rest are built
    first, one batch per first d - 2 points: per first point of a pair in
    the plane, one batch on the line.
    """
    n = len(target.vectors)
    p, ratio_mask, vanishes, rows = P, masks.get, target.vanishes, target.residues
    for prefix in itertools.combinations(range(n - 2), d - 2):
        first = prefix[-1] + 1 if prefix else 0
        target.build_residues([prefix + (y,) for y in range(first, n - 1)])
    for base in itertools.combinations(range(n - 1), d):
        a = base[0]
        (s0, inverses0), (s1, inverses1) = rows[base[1:]], rows[base[::2]]
        if not inverses0[a] and vanishes(base):
            continue  # no frame on this base
        for last in range(base[-1] + 1, n):
            if not s0[last] and vanishes(base[1:] + (last,)):
                continue  # u_0 = 0
            mask = every
            if not inverses1[last]:  # u_1 = 0 mod p, so every D is
                if vanishes(base[::2] + (last,)):
                    continue
            else:
                u = s0[last] * inverses1[last] % p  # u_0 / u_1
                for t, inverse in enumerate(inverses0):
                    if inverse and t != a and t != last:
                        mask &= ratio_mask(u * s1[t] * inverse % p, wild)
                        if not mask:
                            break
            # u_2 = [l a b] in the plane (u_1 again on the line) once the frame has passed
            if mask and not vanishes(base[:-1] + (last,)):
                yield base + (last,), mask


def _keyed_equivalences(source, anchor, target, antiholo=False):
    """Every g with g(source) = target, as SemiProjMaps with flag antiholo sorted by key.

    source and target are bracket tables of equally many distinct points
    of one dimension d; anchor indexes d + 1 source points forming a frame.
    Each target frame the residue filter passes (module docstring) is
    tried with each ordering of the anchor left in its mask: g = M_frame
    adj(M_ordering) is kept when it sends every other source point to a
    target point.  adj(M_ordering) and its products with the other source
    points are kept per ordering, so a candidate costs one product per
    point checked, and g is multiplied out only when it passes.
    """
    d = len(anchor) - 1
    adjugate = zadjugate2 if d == 2 else zadjugate3
    others = [t for t in range(len(target.vectors)) if t not in anchor]
    orderings = list(itertools.permutations(anchor))
    masks, wild = _source_masks(source, orderings, others)
    points = {znormal(v) for v in target.vectors}
    adjugates = {}  # bit -> (adj(M), [adj(M) s for the other source points s]) of orderings[bit]
    found = []
    for frame, mask in _filtered_frames(target, d, masks, wild, (1 << len(orderings)) - 1):
        z_frame = _frame_matrix(target, frame)
        for bit, ordering in enumerate(orderings):
            if not mask >> bit & 1:
                continue
            if bit not in adjugates:
                adj = adjugate(_frame_matrix(source, ordering))
                adjugates[bit] = adj, [zmatvec(adj, source.vectors[s]) for s in others]
            adj, images = adjugates[bit]
            if all(znormal(zmatvec(z_frame, x)) in points for x in images):
                found.append(zmatmul(z_frame, adj))

    maps = sorted((SemiProjMap.from_z(g, antiholo) for g in found), key=SemiProjMap.key)
    if len(set(maps)) != len(maps):
        raise InternalError("duplicate maps in equivalence enumeration")
    return maps


# --- equivalences and automorphisms --------------------------------------------


def equivalences(source: PointConfig, target: PointConfig):
    """Every g in PGL3 with g(source) = target, sorted by `SemiProjMap.key`.

    Requires a general-position 4-subset in the source (NeedsReductionError
    otherwise); the least one from `classify` anchors the
    enumeration.  Different sizes yield the empty list.
    """
    sym = Symmetries.of(source)
    anchor = sym.anchor
    if len(target.points[0].z) != 6:
        raise InvalidInputError("equivalences needs target points of the plane")
    if len(source) != len(target):
        return []
    return _keyed_equivalences(sym.brackets, anchor, _brackets(target.points))


def _permutation_pairs(points, maps):
    """The (permutation, antiholo) pair of each map, verified to form a group.

    points are the Z[i] vectors of a configuration, and entry k of a
    permutation indexes the image of points[k].  Raises InternalError
    unless every map permutes the points and the pairs are distinct,
    contain the identity, and are closed under inverse and composition,
    (p, a) . (q, b) = (p o q, a xor b).  This is exact for configurations
    with a frame: a holomorphic map fixing every point is the identity,
    so the pair determines the symmetry.  The flag is needed because
    conjugation fixes a real set pointwise.
    """
    conj_points = [zconj(v) for v in points]
    index = {v: k for k, v in enumerate(points)}
    n = len(points)
    pairs = []
    for g in maps:
        vectors = conj_points if g.antiholo else points
        perm = tuple([index.get(znormal(zmatvec(g.z, v))) for v in vectors])
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
    """The symmetries of one configuration S, each found once, on first use.

    S is classified on construction; `route` is "frame" (a general-position
    4-subset, the witness frame, anchors the enumerations), "line" (S is
    collinear or a line plus a point, read on its line as `reduction`) or
    "tiny" (at most three points).  Off the tiny route one bracket table
    is built, of S or of `reduction.config`, and conj(S) -> S is read from
    it and its conjugate, which reads its brackets conjugated from it, on
    both routes.  The table keeps what it builds, so S -> S reuses it.

    Aut(S) takes no enumeration of its own when the coset conj(S) -> S is
    already known and not empty (`holomorphic`), so the decisions that read
    the coset first (`fom_real`, `descends_real`, `normalizer`) make one
    enumeration per configuration.  `group` checks Aut(S) and the
    coset together, once.  Reading only `conjugate` never enumerates
    S -> S, and reading only `holomorphic` never enumerates the coset.

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
        self._group = None

    @classmethod
    def of(cls, config: PointConfig) -> "Symmetries":
        """The Symmetries kept on config, built by the first call."""
        if config._symmetries is None:
            config._symmetries = cls(config)
        return config._symmetries

    @cached_property
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

        Enumerated on the conjugate of the bracket table, anchored on the
        conjugate of the witness frame (3x3 maps of S) or of points 0, 1, 2
        of reduction.config (2x2 maps of the line, symmetries of it).
        """
        if self.route == "tiny":
            return None
        anchor = self.anchor if self.route == "frame" else (0, 1, 2)
        return tuple(_keyed_equivalences(self.brackets.conj(), anchor, self.brackets, True))

    @cached_property
    def holomorphic(self):
        """Aut(S) sorted by key, verified to be a group on the point permutations.

        If `conjugate` is already read and not empty, Aut(S) is read off
        it: the coset is Aut(S) tau_0 for any of its elements tau_0 =
        A_0 conj, so Aut(S) = {A_k adj(A_0)} over its matrices A_k
        (A_k A_0^-1 up to scalar), sorted by key as the S -> S enumeration
        returns them, and checked with the coset (`group`).  Otherwise
        S -> S is enumerated, and checked alone unless the coset is known
        to be empty.  The check is exact because S has a frame; off the
        frame route this raises NeedsReductionError.
        """
        anchor = self.anchor
        coset = self.__dict__.get("conjugate")  # only if already enumerated
        if coset:
            adjugate = zadjugate3(coset[0].z)
            maps = tuple(sorted([SemiProjMap.from_z(zmatmul(a.z, adjugate)) for a in coset],
                                key=SemiProjMap.key))
        else:
            maps = tuple(_keyed_equivalences(self.brackets, anchor, self.brackets))
        if coset is None:
            _permutation_pairs(self.brackets.vectors, maps)
        else:
            self._group = self._checked(maps, coset)
        return maps

    @property
    def group(self):
        """(elements, pairs): Aut(S) and the coset sorted by key, with their `_permutation_pairs`.

        The coset is read before Aut(S), so that Aut(S) is read off it and
        the whole group is checked once.  If Aut(S) was read first, the
        coset must have its size or be empty.  NeedsReductionError off the
        frame route.
        """
        self.anchor  # NeedsReductionError off the frame route, before any enumeration
        coset = self.conjugate
        holos = self.holomorphic
        if self._group is None:  # Aut(S) came first and was checked alone
            if coset and len(coset) != len(holos):
                raise InternalError("antiholomorphic part is not a coset")
            self._group = self._checked(holos, coset)
        return self._group

    def _checked(self, holos, coset):
        """`group` of Aut(S) holos and the coset, checked on the point permutations."""
        elements = tuple(sorted(holos + coset, key=SemiProjMap.key))
        return elements, _permutation_pairs(self.brackets.vectors, elements)


def aut_group(config: PointConfig):
    """The verified automorphism group (`Symmetries.holomorphic`), as a new list."""
    return list(Symmetries.of(config).holomorphic)


# --- the projective line --------------------------------------------------------


def pgl2_equivalences(source: PointConfig, target: PointConfig):
    """Every holomorphic map of the line with g(source) = target, sorted by key.

    Any three distinct points are a frame on the line, so the first three
    source points anchor the same enumeration as `equivalences`,
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
