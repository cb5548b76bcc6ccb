"""Projective line and plane primitives, stored as normalized Gaussian integers.

Points of the line (two coordinates) and of the plane (three), lines of
the plane, finite configurations of points, and semilinear maps of the
line or the plane: a projective linear map (2x2 or 3x3) together with a
flag saying whether coordinatewise complex conjugation is applied first.

A Gaussian integer is a pair of Python ints (re, im); a vector of d of
them is a flat 2d-tuple (ar, ai, br, bi, ...), and a d x d matrix is a
tuple of d such rows.  Points, lines and maps store one such tuple, in
normal form: multiplied by the conjugate of the leading nonzero entry
(row-major for matrices), then divided by the gcd of all integer parts.
The leading entry becomes a positive integer L, and proportional tuples
get the same normal form, so equality and hashing are structural, and
apply, compose and inverse are Gaussian-integer products.  The kernels
below are the only linear algebra the decision procedures use.

Points and lines sort by their normal form (`key()` is `z`), maps by
(antiholo, not the identity, `z`).  Q(i) values exist only as text:
`str`, `repr` and the JSON format write the stored tuple divided by L,
with leading entry 1 (`format_zi`).
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm

from .errors import InvalidInputError
from .gaussian import format_zi, qi_parts


class DegenerateInputError(InvalidInputError):
    """Geometric input without the uniqueness the operation requires."""


# --- Gaussian-integer linear algebra ---------------------------------------------


def zdet2(p, q):
    ar, ai, br, bi = p
    cr, ci, dr, di = q
    return (
        (ar * dr - ai * di) - (br * cr - bi * ci),
        (ar * di + ai * dr) - (br * ci + bi * cr),
    )


def zcross(u, v):
    ar, ai, br, bi, cr, ci = u
    dr, di, er, ei, fr, fi = v
    return (
        (br * fr - bi * fi) - (cr * er - ci * ei), (br * fi + bi * fr) - (cr * ei + ci * er),
        (cr * dr - ci * di) - (ar * fr - ai * fi), (cr * di + ci * dr) - (ar * fi + ai * fr),
        (ar * er - ai * ei) - (br * dr - bi * di), (ar * ei + ai * er) - (br * di + bi * dr),
    )


def zdet3(p, q, r):
    ar, ai, br, bi, cr, ci = p
    xr, xi, yr, yi, zr, zi = zcross(q, r)
    return (
        (ar * xr - ai * xi) + (br * yr - bi * yi) + (cr * zr - ci * zi),
        (ar * xi + ai * xr) + (br * yi + bi * yr) + (cr * zi + ci * zr),
    )


def zmatvec(m, v):
    """The product of a Z[i] matrix (any tuple of rows) and a vector; zmatvec3 unrolls 3x3."""
    out = []
    for row in m:
        re = im = 0
        for j in range(0, len(v), 2):
            re += row[j] * v[j] - row[j + 1] * v[j + 1]
            im += row[j] * v[j + 1] + row[j + 1] * v[j]
        out += (re, im)
    return tuple(out)


def zmatvec3(m, v):
    ar, ai, br, bi, cr, ci = v
    out = []
    for r0, i0, r1, i1, r2, i2 in m:
        out.append((r0 * ar - i0 * ai) + (r1 * br - i1 * bi) + (r2 * cr - i2 * ci))
        out.append((r0 * ai + i0 * ar) + (r1 * bi + i1 * br) + (r2 * ci + i2 * cr))
    return tuple(out)


def zmatmul(a, b):
    columns = zcolumns(b)
    return tuple([zmatvec(columns, row) for row in a])


def zadjugate2(m):
    (ar, ai, br, bi), (cr, ci, dr, di) = m
    return ((dr, di, -br, -bi), (-cr, -ci, ar, ai))


def zadjugate3(m):
    """Rows are the cross products of the column pairs (1, 2), (2, 0), (0, 1)."""
    (ar, ai, br, bi, cr, ci), (dr, di, er, ei, fr, fi), (gr, gi, hr, hi, ir, ii) = m
    c0, c1, c2 = (ar, ai, dr, di, gr, gi), (br, bi, er, ei, hr, hi), (cr, ci, fr, fi, ir, ii)
    return (zcross(c1, c2), zcross(c2, c0), zcross(c0, c1))


def zconj(v):
    """Complex conjugate of a Z[i] vector, or of a matrix given as a tuple of rows."""
    if isinstance(v[0], tuple):
        return tuple([zconj(row) for row in v])
    return tuple([-x if k & 1 else x for k, x in enumerate(v)])


def zscale(c, v):
    """c = (cr, ci) times every entry of a Z[i] vector, or of a matrix given as rows."""
    if isinstance(v[0], tuple):
        return tuple([zscale(c, row) for row in v])
    cr, ci = c
    out = []
    for j in range(0, len(v), 2):
        out.append(cr * v[j] - ci * v[j + 1])
        out.append(cr * v[j + 1] + ci * v[j])
    return tuple(out)


def zcolumns(cols):
    """The matrix with the given vectors as its columns."""
    return tuple([
        tuple([x for col in cols for x in col[j:j + 2]]) for j in range(0, len(cols[0]), 2)
    ])


ZIDENTITY = {
    n: tuple(tuple(1 if c == 2 * r else 0 for c in range(2 * n)) for r in range(n))
    for n in (2, 3)
}


def znormal(v):
    """The normal form of a nonzero Z[i] vector, an exact key of its projective point.

    Multiplying by the conjugate of the leading nonzero entry x makes
    that entry the positive integer |x|^2; proportional vectors then
    differ by a positive rational, which dividing by the gcd of all
    integer parts removes.
    """
    k = 0
    while not (v[k] or v[k + 1]):
        k += 2
    xr, xi = v[k], v[k + 1]
    out = []
    for j in range(0, len(v), 2):
        out.append(v[j] * xr + v[j + 1] * xi)
        out.append(v[j + 1] * xr - v[j] * xi)
    g = gcd(*out)
    return tuple([x // g for x in out])


def znormal_matrix(m):
    """The normal form of a nonzero Z[i] matrix, taken row-major as one vector."""
    flat = znormal([x for row in m for x in row])
    width = 2 * len(m)
    return tuple([flat[j:j + width] for j in range(0, len(flat), width)])


def zlead(values):
    """L, the leading entry of a normal form: its first nonzero integer part."""
    return next(x for x in values if x)


def zgeneral_position(v1, v2, v3, v4):
    """True iff no three of the four points of the plane are collinear.

    That is, the four 3x3 determinants of three of the vectors are all
    nonzero; the points then form a frame.
    """
    return (
        zdet3(v1, v2, v3) != (0, 0) and zdet3(v4, v2, v3) != (0, 0)
        and zdet3(v1, v4, v3) != (0, 0) and zdet3(v1, v2, v4) != (0, 0)
    )


# --- conversion to and from Q(i) ---------------------------------------------------


def zclear(ratios):
    """The Z[i] vector of (numerator, denominator) pairs, re and im alternating,
    times the lcm of the denominators."""
    m = lcm(*[den for _, den in ratios])
    return tuple([num * (m // den) for num, den in ratios])


def _from_qi(values, message):
    """Ints or Q(i) literals as one Z[i] vector, times the lcm of their denominators."""
    ratios = []
    for x in values:
        parts = qi_parts(x)
        ratios += (parts[:2], parts[2:])
    if not any(num for num, _ in ratios):
        raise InvalidInputError(message)
    return zclear(ratios)


def _qi_text(v):
    """The Q(i) literals of the entries of a flat normal form, divided by its lead L."""
    lead = zlead(v)
    return [format_zi(v[j], v[j + 1], lead) for j in range(0, len(v), 2)]


# --- points and lines ---------------------------------------------------------


def _plane(p):
    """The stored vector of a point of the plane; InvalidInputError on the line."""
    if len(p.z) != 6:
        raise InvalidInputError("this operation needs points of the plane")
    return p.z


class _NormalVector:
    """A point or a line: the normal form `z` of a nonzero Z[i] vector."""

    __slots__ = ("z",)

    @classmethod
    def from_z(cls, v):
        """The object of a nonzero Z[i] vector."""
        obj = object.__new__(cls)
        obj.z = znormal(v)
        return obj

    def conj(self):
        obj = object.__new__(type(self))
        obj.z = zconj(self.z)
        return obj

    def key(self):
        """The sort key: the normal form itself."""
        return self.z

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.z == other.z

    def __hash__(self):
        return hash(self.z)


class ProjPoint(_NormalVector):
    """A point of the projective line (two coordinates) or plane (three)."""

    __slots__ = ()

    def __init__(self, *coords):
        if len(coords) not in (2, 3):
            raise InvalidInputError(
                f"a projective point has two or three coordinates, not {len(coords)}"
            )
        self.z = znormal(_from_qi(coords, "projective coordinates must not all be zero"))

    def __lt__(self, other):
        return self.z < other.z

    def __repr__(self):
        return f"ProjPoint{self}"

    def __str__(self):
        return "(" + ":".join(_qi_text(self.z)) + ")"


class Line(_NormalVector):
    """A line of the plane, stored by the normal form of its dual coordinates."""

    __slots__ = ()

    def __init__(self, a, b, c):
        self.z = znormal(_from_qi((a, b, c), "projective coordinates must not all be zero"))

    def contains(self, p: ProjPoint) -> bool:
        return zmatvec3((self.z,), _plane(p)) == (0, 0)

    def __repr__(self):
        return f"Line{self}"

    def __str__(self):
        return "[" + ":".join(_qi_text(self.z)) + "]"


def collinear(p: ProjPoint, q: ProjPoint, r: ProjPoint) -> bool:
    """True iff the 3x3 coordinate determinant vanishes exactly."""
    return zdet3(_plane(p), _plane(q), _plane(r)) == (0, 0)


def line_through(p: ProjPoint, q: ProjPoint) -> Line:
    cross = zcross(_plane(p), _plane(q))
    if p == q:
        raise DegenerateInputError("two distinct points are needed to span a line")
    return Line.from_z(cross)


# --- configurations -----------------------------------------------------------


class PointConfig:
    """A finite set of distinct points of one dimension, sorted by their normal form.

    `_symmetries` keeps the `equivalence.Symmetries` of this object, once built.
    """

    __slots__ = ("points", "_symmetries")

    def __init__(self, points):
        pts = []
        for p in points:
            if not isinstance(p, ProjPoint):
                p = ProjPoint(*p)
            pts.append(p)
        if not pts:
            raise InvalidInputError("a configuration needs at least one point")
        if len({len(p.z) for p in pts}) != 1:
            raise InvalidInputError("points of a configuration need equally many coordinates")
        pts.sort(key=ProjPoint.key)
        for a, b in zip(pts, pts[1:]):
            if a == b:
                raise InvalidInputError(f"duplicate point {a}")
        self.points = tuple(pts)
        self._symmetries = None

    def conj(self) -> "PointConfig":
        return PointConfig(p.conj() for p in self.points)

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)

    def __contains__(self, p):
        return p in self.points

    def __eq__(self, other):
        if not isinstance(other, PointConfig):
            return NotImplemented
        return self.points == other.points

    def __hash__(self):
        return hash(self.points)

    def __repr__(self):
        return "PointConfig([" + ", ".join(str(p) for p in self.points) + "])"


# --- semilinear maps ----------------------------------------------------------


class SemiProjMap:
    """An invertible projective map of the line or plane, optionally preceded by conjugation.

    The action on a point with coordinate vector v is matrix . v when
    holomorphic, matrix . conj(v) when antiholomorphic.  Matrices are
    2x2 (the line) or 3x3 (the plane), stored in normal form `z`, so
    PGL equality is structural.
    """

    __slots__ = ("z", "antiholo")

    def __init__(self, matrix, antiholo=False):
        rows = tuple(tuple(row) for row in matrix)
        n = len(rows)
        if n not in (2, 3) or any(len(r) != n for r in rows):
            raise InvalidInputError("matrix must be 2x2 or 3x3")
        flat = _from_qi(chain.from_iterable(rows), "zero matrix is not a projective map")
        self.z = znormal_matrix([flat[j:j + 2 * n] for j in range(0, len(flat), 2 * n)])
        if (zdet2 if n == 2 else zdet3)(*self.z) == (0, 0):
            raise InvalidInputError("matrix is singular")
        self.antiholo = bool(antiholo)

    @classmethod
    def from_z(cls, m, antiholo=False):
        """The map of an invertible Z[i] matrix."""
        g = object.__new__(cls)
        g.z = znormal_matrix(m)
        g.antiholo = antiholo
        return g

    @classmethod
    def identity(cls) -> "SemiProjMap":
        return cls.from_z(ZIDENTITY[3])

    def is_identity(self) -> bool:
        return not self.antiholo and self.z == ZIDENTITY[len(self.z)]

    def apply(self, obj):
        """Apply to a ProjPoint or a PointConfig of the map's dimension."""
        if isinstance(obj, PointConfig):
            return PointConfig(self.apply(p) for p in obj)
        v = obj.z
        if len(v) == 6 and len(self.z) == 3:
            return ProjPoint.from_z(zmatvec3(self.z, zconj(v) if self.antiholo else v))
        if len(v) == 4 and len(self.z) == 2:
            return ProjPoint.from_z(zmatvec(self.z, zconj(v) if self.antiholo else v))
        raise InvalidInputError("the point and the map differ in dimension")

    def compose(self, other: "SemiProjMap") -> "SemiProjMap":
        """self after other, with the semilinear composition law."""
        if len(other.z) != len(self.z):
            raise InvalidInputError("maps of different dimensions do not compose")
        rhs = zconj(other.z) if self.antiholo else other.z
        return SemiProjMap.from_z(zmatmul(self.z, rhs), self.antiholo ^ other.antiholo)

    def __mul__(self, other):
        if not isinstance(other, SemiProjMap):
            return NotImplemented
        return self.compose(other)

    def inverse(self) -> "SemiProjMap":
        adj = (zadjugate2 if len(self.z) == 2 else zadjugate3)(self.z)
        if self.antiholo:
            adj = zconj(adj)
        return SemiProjMap.from_z(adj, self.antiholo)

    def key(self):
        """The sort key; the identity sorts first within each flag class."""
        return (self.antiholo, self.z != ZIDENTITY[len(self.z)], self.z)

    def text(self):
        """The entries as Q(i) literals, row-major, the first nonzero one 1."""
        return _qi_text([x for row in self.z for x in row])

    def __eq__(self, other):
        if not isinstance(other, SemiProjMap):
            return NotImplemented
        return self.antiholo == other.antiholo and self.z == other.z

    def __hash__(self):
        return hash((self.antiholo, self.z))

    def __lt__(self, other):
        return self.key() < other.key()

    def __repr__(self):
        kind = "antiholo" if self.antiholo else "holo"
        entries, n = self.text(), len(self.z)
        rows = "; ".join(" ".join(entries[j:j + n]) for j in range(0, len(entries), n))
        return f"SemiProjMap<{kind}: {rows}>"
