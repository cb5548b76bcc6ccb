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
below are the only linear algebra the decision procedures use.  Each is
straight-line code with one body per shape, and the shapes are the ones
the line and the plane need: vectors of 2 or 3 Gaussian integers
(4 or 6 ints) and 2x2 or 3x3 matrices (2 or 3 rows).

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
    """The product of a 2x2 or 3x3 Z[i] matrix and a vector of its size."""
    if len(v) == 6:
        ar, ai, br, bi, cr, ci = v
        (pr, pi, qr, qi, sr, si), (tr, ti, ur, ui, wr, wi), (xr, xi, yr, yi, zr, zi) = m
        return (
            pr * ar - pi * ai + qr * br - qi * bi + sr * cr - si * ci,
            pr * ai + pi * ar + qr * bi + qi * br + sr * ci + si * cr,
            tr * ar - ti * ai + ur * br - ui * bi + wr * cr - wi * ci,
            tr * ai + ti * ar + ur * bi + ui * br + wr * ci + wi * cr,
            xr * ar - xi * ai + yr * br - yi * bi + zr * cr - zi * ci,
            xr * ai + xi * ar + yr * bi + yi * br + zr * ci + zi * cr,
        )
    ar, ai, br, bi = v
    (pr, pi, qr, qi), (tr, ti, ur, ui) = m
    return (
        pr * ar - pi * ai + qr * br - qi * bi, pr * ai + pi * ar + qr * bi + qi * br,
        tr * ar - ti * ai + ur * br - ui * bi, tr * ai + ti * ar + ur * bi + ui * br,
    )


def zmatmul(a, b):
    """The product of two 2x2 or two 3x3 Z[i] matrices."""
    if len(a) == 3:
        (ar, ai, br, bi, cr, ci), (dr, di, er, ei, fr, fi), (gr, gi, hr, hi, kr, ki) = b
        (pr, pi, qr, qi, sr, si), (tr, ti, ur, ui, wr, wi), (xr, xi, yr, yi, zr, zi) = a
        return (
            (
                pr * ar - pi * ai + qr * dr - qi * di + sr * gr - si * gi,
                pr * ai + pi * ar + qr * di + qi * dr + sr * gi + si * gr,
                pr * br - pi * bi + qr * er - qi * ei + sr * hr - si * hi,
                pr * bi + pi * br + qr * ei + qi * er + sr * hi + si * hr,
                pr * cr - pi * ci + qr * fr - qi * fi + sr * kr - si * ki,
                pr * ci + pi * cr + qr * fi + qi * fr + sr * ki + si * kr,
            ), (
                tr * ar - ti * ai + ur * dr - ui * di + wr * gr - wi * gi,
                tr * ai + ti * ar + ur * di + ui * dr + wr * gi + wi * gr,
                tr * br - ti * bi + ur * er - ui * ei + wr * hr - wi * hi,
                tr * bi + ti * br + ur * ei + ui * er + wr * hi + wi * hr,
                tr * cr - ti * ci + ur * fr - ui * fi + wr * kr - wi * ki,
                tr * ci + ti * cr + ur * fi + ui * fr + wr * ki + wi * kr,
            ), (
                xr * ar - xi * ai + yr * dr - yi * di + zr * gr - zi * gi,
                xr * ai + xi * ar + yr * di + yi * dr + zr * gi + zi * gr,
                xr * br - xi * bi + yr * er - yi * ei + zr * hr - zi * hi,
                xr * bi + xi * br + yr * ei + yi * er + zr * hi + zi * hr,
                xr * cr - xi * ci + yr * fr - yi * fi + zr * kr - zi * ki,
                xr * ci + xi * cr + yr * fi + yi * fr + zr * ki + zi * kr,
            ),
        )
    (ar, ai, br, bi), (cr, ci, dr, di) = b
    (pr, pi, qr, qi), (tr, ti, ur, ui) = a
    return (
        (
            pr * ar - pi * ai + qr * cr - qi * ci, pr * ai + pi * ar + qr * ci + qi * cr,
            pr * br - pi * bi + qr * dr - qi * di, pr * bi + pi * br + qr * di + qi * dr,
        ), (
            tr * ar - ti * ai + ur * cr - ui * ci, tr * ai + ti * ar + ur * ci + ui * cr,
            tr * br - ti * bi + ur * dr - ui * di, tr * bi + ti * br + ur * di + ui * dr,
        ),
    )


def zadjugate2(m):
    (ar, ai, br, bi), (cr, ci, dr, di) = m
    return ((dr, di, -br, -bi), (-cr, -ci, ar, ai))


def zadjugate3(m):
    """Rows are the cross products of the column pairs (1, 2), (2, 0), (0, 1)."""
    c0, c1, c2 = zcolumns(m)
    return (zcross(c1, c2), zcross(c2, c0), zcross(c0, c1))


def zconj(v):
    """The complex conjugate of a vector of 2 or 3 Gaussian integers, or of a 2x2 or 3x3
    matrix given as rows."""
    n = len(v)
    if n == 6:
        ar, ai, br, bi, cr, ci = v
        return (ar, -ai, br, -bi, cr, -ci)
    if n == 4:
        ar, ai, br, bi = v
        return (ar, -ai, br, -bi)
    if n == 3:
        return (zconj(v[0]), zconj(v[1]), zconj(v[2]))
    return (zconj(v[0]), zconj(v[1]))


def zscale(c, v):
    """c = (cr, ci) times every entry of a vector of 2 or 3 Gaussian integers, or of a
    2x2 or 3x3 matrix given as rows."""
    n = len(v)
    if n == 6:
        cr, ci = c
        ar, ai, br, bi, xr, xi = v
        return (
            cr * ar - ci * ai, cr * ai + ci * ar, cr * br - ci * bi, cr * bi + ci * br,
            cr * xr - ci * xi, cr * xi + ci * xr,
        )
    if n == 4:
        cr, ci = c
        ar, ai, br, bi = v
        return (cr * ar - ci * ai, cr * ai + ci * ar, cr * br - ci * bi, cr * bi + ci * br)
    if n == 3:
        return (zscale(c, v[0]), zscale(c, v[1]), zscale(c, v[2]))
    return (zscale(c, v[0]), zscale(c, v[1]))


def zcolumns(cols):
    """The 2x2 or 3x3 matrix with the given vectors as its columns: the transpose of rows."""
    if len(cols) == 3:
        (ar, ai, br, bi, cr, ci), (dr, di, er, ei, fr, fi), (gr, gi, hr, hi, kr, ki) = cols
        return ((ar, ai, dr, di, gr, gi), (br, bi, er, ei, hr, hi), (cr, ci, fr, fi, kr, ki))
    (ar, ai, br, bi), (cr, ci, dr, di) = cols
    return ((ar, ai, cr, ci), (br, bi, dr, di))


ZIDENTITY = {
    2: ((1, 0, 0, 0), (0, 0, 1, 0)),
    3: ((1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 1, 0)),
}


def znormal(v):
    """The normal form of a nonzero vector of 2 or 3 Gaussian integers, an exact key of
    its projective point.

    Multiplying by the conjugate of the leading nonzero entry x makes
    that entry the positive integer |x|^2; proportional vectors then
    differ by a positive rational, which dividing by the gcd of all
    integer parts removes.  A positive integer x only scales the vector,
    so then the gcd alone is divided out.
    """
    if len(v) == 6:
        ar, ai, br, bi, cr, ci = v
        if ar or ai:
            xr, xi = ar, ai
        elif br or bi:
            xr, xi = br, bi
        else:
            xr, xi = cr, ci
        if xi or xr < 0:
            ar, ai, br, bi, cr, ci = (
                ar * xr + ai * xi, ai * xr - ar * xi, br * xr + bi * xi, bi * xr - br * xi,
                cr * xr + ci * xi, ci * xr - cr * xi,
            )
        g = gcd(ar, ai, br, bi, cr, ci)
        if g == 1:
            return (ar, ai, br, bi, cr, ci)
        return (ar // g, ai // g, br // g, bi // g, cr // g, ci // g)
    ar, ai, br, bi = v
    xr, xi = (ar, ai) if ar or ai else (br, bi)
    if xi or xr < 0:
        ar, ai, br, bi = ar * xr + ai * xi, ai * xr - ar * xi, br * xr + bi * xi, bi * xr - br * xi
    g = gcd(ar, ai, br, bi)
    if g == 1:
        return (ar, ai, br, bi)
    return (ar // g, ai // g, br // g, bi // g)


def znormal_matrix(m):
    """The normal form of a nonzero 2x2 or 3x3 Z[i] matrix, taken row-major as one vector."""
    n = len(m)
    flat = m[0] + m[1] + m[2] if n == 3 else m[0] + m[1]
    k = 0
    while not (flat[k] or flat[k + 1]):
        k += 2
    xr, xi = flat[k], flat[k + 1]
    if xi or xr < 0:
        m = zscale((xr, -xi), m)
        flat = m[0] + m[1] + m[2] if n == 3 else m[0] + m[1]
    g = gcd(*flat)
    if g != 1:
        flat = tuple([x // g for x in flat])
    if n == 3:
        return (flat[:6], flat[6:12], flat[12:])
    return (flat[:4], flat[4:])


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
        ar, ai, br, bi, cr, ci = self.z
        xr, xi, yr, yi, zr, zi = _plane(p)
        return (ar * xr - ai * xi + br * yr - bi * yi + cr * zr - ci * zi == 0
                and ar * xi + ai * xr + br * yi + bi * yr + cr * zi + ci * zr == 0)

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
        config = isinstance(obj, PointConfig)
        points, m = obj.points if config else (obj,), self.z
        if len(points[0].z) != 2 * len(m):
            raise InvalidInputError("the point and the map differ in dimension")
        if self.antiholo:
            images = [ProjPoint.from_z(zmatvec(m, zconj(p.z))) for p in points]
        else:
            images = [ProjPoint.from_z(zmatvec(m, p.z)) for p in points]
        return PointConfig(images) if config else images[0]

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
