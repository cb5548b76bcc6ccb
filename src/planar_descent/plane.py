"""Projective line and plane primitives with exact canonical representatives.

Points of the line (two coordinates) and of the plane (three), lines and
conics over Q(i), plus semilinear maps of either: a projective linear
map (2x2 or 3x3) together with a flag saying whether coordinatewise
complex conjugation is applied first.  Everything is canonicalized on
construction, so equality and hashing are structural:

  * points and lines scale their leftmost nonzero coordinate to 1;
  * maps scale the first nonzero matrix entry (row-major) to 1;
  * configurations keep their points sorted by a fixed total order
    (lexicographic on the canonical coordinate strings).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InternalError, InvalidInputError
from .gaussian import GaussianRational, format_gq, gq


class NotAFrameError(InvalidInputError):
    """Four points that fail general position (three collinear)."""


class DegenerateInputError(InvalidInputError):
    """Geometric input without the uniqueness the operation requires."""


# --- exact linear algebra ------------------------------------------------------


def det3(m):
    a, b, c = m[0]
    d, e, f = m[1]
    g, h, i = m[2]
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _cof(m, r0, r1, c0, c1):
    return m[r0][c0] * m[r1][c1] - m[r0][c1] * m[r1][c0]


def adjugate(m):
    """Transpose of the cofactor matrix of a 2x2 or 3x3 matrix; det(m) * inverse(m)."""
    if len(m) == 2:
        return ((m[1][1], -m[0][1]), (-m[1][0], m[0][0]))
    return (
        (_cof(m, 1, 2, 1, 2), -_cof(m, 0, 2, 1, 2), _cof(m, 0, 1, 1, 2)),
        (-_cof(m, 1, 2, 0, 2), _cof(m, 0, 2, 0, 2), -_cof(m, 0, 1, 0, 2)),
        (_cof(m, 1, 2, 0, 1), -_cof(m, 0, 2, 0, 1), _cof(m, 0, 1, 0, 1)),
    )


def matmul(a, b):
    n = len(a)
    return tuple(
        tuple(sum((a[r][k] * b[k][c] for k in range(1, n)), a[r][0] * b[0][c]) for c in range(n))
        for r in range(n)
    )


def matvec(m, v):
    if len(v) == 3:
        return tuple([row[0] * v[0] + row[1] * v[1] + row[2] * v[2] for row in m])
    return tuple([row[0] * v[0] + row[1] * v[1] for row in m])


def conj_matrix(m):
    return tuple(tuple(x.conj() for x in row) for row in m)


def rref(rows):
    """Reduced row echelon form over Q(i); returns (rows, pivot columns)."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((k for k in range(r, nrows) if rows[k][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for k in range(nrows):
            if k != r and rows[k][c]:
                factor = rows[k][c]
                rows[k] = [x - factor * y for x, y in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return [tuple(row) for row in rows], pivots


# --- points, lines, conics ----------------------------------------------------


def _plane_coords(p):
    """The coordinates of a point of the plane; InvalidInputError on the line."""
    if len(p.coords) != 3:
        raise InvalidInputError("this operation needs points of the plane")
    return p.coords


def _canonical(coords):
    coords = tuple(gq(c) for c in coords)
    lead = next((c for c in coords if c), None)
    if lead is None:
        raise InvalidInputError("projective coordinates must not all be zero")
    inv = lead.inverse()
    return tuple(c * inv for c in coords)


class ProjPoint:
    """A point of the projective line (two coordinates) or plane (three).

    The leftmost nonzero coordinate is scaled to 1.
    """

    __slots__ = ("coords",)

    def __init__(self, *coords):
        if len(coords) not in (2, 3):
            raise InvalidInputError(
                f"a projective point has two or three coordinates, not {len(coords)}"
            )
        self.coords = _canonical(coords)

    def conj(self) -> "ProjPoint":
        return ProjPoint(*(c.conj() for c in self.coords))

    def key(self):
        return tuple(format_gq(c) for c in self.coords)

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __lt__(self, other):
        return self.key() < other.key()

    def __repr__(self):
        return f"ProjPoint{self.coords!r}"

    def __str__(self):
        return "(" + ":".join(format_gq(c) for c in self.coords) + ")"


class Line:
    """A line, stored by its canonical dual coordinates."""

    __slots__ = ("dual",)

    def __init__(self, a, b, c):
        self.dual = _canonical((a, b, c))

    def contains(self, p: ProjPoint) -> bool:
        d0, d1, d2 = self.dual
        x, y, z = _plane_coords(p)
        return not (d0 * x + d1 * y + d2 * z)

    def conj(self) -> "Line":
        return Line(*(c.conj() for c in self.dual))

    def key(self):
        return tuple(format_gq(c) for c in self.dual)

    def __eq__(self, other):
        if not isinstance(other, Line):
            return NotImplemented
        return self.dual == other.dual

    def __hash__(self):
        return hash(("line", self.dual))

    def __repr__(self):
        return f"Line{self.dual!r}"

    def __str__(self):
        return "[" + ":".join(format_gq(c) for c in self.dual) + "]"


def collinear(p: ProjPoint, q: ProjPoint, r: ProjPoint) -> bool:
    """True iff the 3x3 coordinate determinant vanishes exactly."""
    return not det3((_plane_coords(p), _plane_coords(q), _plane_coords(r)))


def line_through(p: ProjPoint, q: ProjPoint) -> Line:
    a, b, c = _plane_coords(p)
    d, e, f = _plane_coords(q)
    if p == q:
        raise DegenerateInputError("two distinct points are needed to span a line")
    return Line(b * f - c * e, c * d - a * f, a * e - b * d)


class Conic:
    """A plane conic, coefficients ordered (xx, yy, zz, xy, xz, yz)."""

    __slots__ = ("coeffs",)

    def __init__(self, xx, yy, zz, xy, xz, yz):
        coeffs = tuple(gq(c) for c in (xx, yy, zz, xy, xz, yz))
        lead = next((c for c in coeffs if c), None)
        if lead is None:
            raise InvalidInputError("conic coefficients must not all be zero")
        inv = lead.inverse()
        self.coeffs = tuple(c * inv for c in coeffs)

    def evaluate(self, p: ProjPoint) -> GaussianRational:
        xx, yy, zz, xy, xz, yz = self.coeffs
        x, y, z = _plane_coords(p)
        return (
            xx * x * x + yy * y * y + zz * z * z
            + xy * x * y + xz * x * z + yz * y * z
        )

    def contains(self, p: ProjPoint) -> bool:
        return not self.evaluate(p)

    @property
    def is_degenerate(self) -> bool:
        xx, yy, zz, xy, xz, yz = self.coeffs
        half = Fraction(1, 2)
        m = (
            (xx, xy * half, xz * half),
            (xy * half, yy, yz * half),
            (xz * half, yz * half, zz),
        )
        return not det3(m)

    def __eq__(self, other):
        if not isinstance(other, Conic):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("conic", self.coeffs))

    def __repr__(self):
        return f"Conic{self.coeffs!r}"


# --- configurations -----------------------------------------------------------


class PointConfig:
    """A finite set of distinct points of one dimension, in canonical sorted order."""

    __slots__ = ("points",)

    def __init__(self, points):
        pts = []
        for p in points:
            if not isinstance(p, ProjPoint):
                p = ProjPoint(*p)
            pts.append(p)
        if not pts:
            raise InvalidInputError("a configuration needs at least one point")
        if len({len(p.coords) for p in pts}) != 1:
            raise InvalidInputError("points of a configuration need equally many coordinates")
        pts.sort(key=ProjPoint.key)
        for a, b in zip(pts, pts[1:]):
            if a == b:
                raise InvalidInputError(f"duplicate point {a}")
        self.points = tuple(pts)

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


def conj_config(config: PointConfig) -> PointConfig:
    """Coordinatewise complex conjugation of a configuration; involutive."""
    return config.conj()


# --- semilinear maps ----------------------------------------------------------


_IDENTITY = {
    n: tuple(tuple(GaussianRational(1 if r == c else 0) for c in range(n)) for r in range(n))
    for n in (2, 3)
}


class SemiProjMap:
    """An invertible projective map of the line or plane, optionally preceded by conjugation.

    The action on a point with coordinate vector v is matrix . v when
    holomorphic, matrix . conj(v) when antiholomorphic.  Matrices are
    2x2 (the line) or 3x3 (the plane) and canonical (first nonzero entry
    in row-major order equals 1), so PGL equality is structural.
    """

    __slots__ = ("matrix", "antiholo")

    def __init__(self, matrix, antiholo=False):
        rows = tuple(tuple(gq(x) for x in row) for row in matrix)
        n = len(rows)
        if n not in (2, 3) or any(len(r) != n for r in rows):
            raise InvalidInputError("matrix must be 2x2 or 3x3")
        lead = next((x for row in rows for x in row if x), None)
        if lead is None:
            raise InvalidInputError("zero matrix is not a projective map")
        inv = lead.inverse()
        rows = tuple(tuple(x * inv for x in row) for row in rows)
        if n == 2:
            determinant = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
        else:
            determinant = det3(rows)
        if not determinant:
            raise InvalidInputError("matrix is singular")
        self.matrix = rows
        self.antiholo = bool(antiholo)

    @classmethod
    def identity(cls) -> "SemiProjMap":
        return cls(_IDENTITY[3])

    def is_identity(self) -> bool:
        return not self.antiholo and self.matrix == _IDENTITY[len(self.matrix)]

    def apply(self, obj):
        """Apply to a ProjPoint or a PointConfig of the map's dimension."""
        if isinstance(obj, PointConfig):
            return PointConfig(self.apply(p) for p in obj)
        v = obj.coords
        if len(v) != len(self.matrix):
            raise InvalidInputError("the point and the map differ in dimension")
        if self.antiholo:
            v = tuple(c.conj() for c in v)
        return ProjPoint(*matvec(self.matrix, v))

    def compose(self, other: "SemiProjMap") -> "SemiProjMap":
        """self after other, with the semilinear composition law."""
        if len(other.matrix) != len(self.matrix):
            raise InvalidInputError("maps of different dimensions do not compose")
        rhs = conj_matrix(other.matrix) if self.antiholo else other.matrix
        return SemiProjMap(matmul(self.matrix, rhs), self.antiholo ^ other.antiholo)

    def __mul__(self, other):
        if not isinstance(other, SemiProjMap):
            return NotImplemented
        return self.compose(other)

    def inverse(self) -> "SemiProjMap":
        adj = adjugate(self.matrix)
        if self.antiholo:
            adj = conj_matrix(adj)
        return SemiProjMap(adj, self.antiholo)

    def key(self):
        # identity sorts first within each flag class
        return (self.antiholo, self.matrix != _IDENTITY[len(self.matrix)]) + tuple(
            [format_gq(x) for row in self.matrix for x in row]
        )

    def __eq__(self, other):
        if not isinstance(other, SemiProjMap):
            return NotImplemented
        return self.antiholo == other.antiholo and self.matrix == other.matrix

    def __hash__(self):
        return hash((self.antiholo, self.matrix))

    def __lt__(self, other):
        return self.key() < other.key()

    def __repr__(self):
        kind = "antiholo" if self.antiholo else "holo"
        rows = "; ".join(
            " ".join(format_gq(x) for x in row) for row in self.matrix
        )
        return f"SemiProjMap<{kind}: {rows}>"


# --- frames -------------------------------------------------------------------


def _check_frame(points):
    if len(points) != 4:
        raise NotAFrameError("a frame consists of four points")
    for skip in range(4):
        triple = [points[k] for k in range(4) if k != skip]
        if collinear(*triple):
            raise NotAFrameError(
                f"three of the four points are collinear: {triple[0]}, {triple[1]}, {triple[2]}"
            )


def frame_map(frame) -> SemiProjMap:
    """The holomorphic map sending the standard frame to the given one.

    Standard frame: (1:0:0), (0:1:0), (0:0:1), (1:1:1).  The map is the
    matrix with columns c_k * v_k where (c_1, c_2, c_3) solves
    [v_1 v_2 v_3] c = v_4; general position makes every c_k nonzero.
    """
    frame = tuple(frame)
    _check_frame(frame)
    v1, v2, v3, v4 = (p.coords for p in frame)
    d1 = det3((v4, v2, v3))
    d2 = det3((v1, v4, v3))
    d3 = det3((v1, v2, v4))
    cols = (
        tuple(d1 * x for x in v1),
        tuple(d2 * x for x in v2),
        tuple(d3 * x for x in v3),
    )
    matrix = tuple(tuple(cols[c][r] for c in range(3)) for r in range(3))
    return SemiProjMap(matrix)


def map_between_frames(source, target) -> SemiProjMap:
    """The holomorphic map carrying the source frame pointwise to the target."""
    return frame_map(target) * frame_map(source).inverse()


def conic_through_5(config: PointConfig) -> Conic:
    """The unique conic through five points; DegenerateInputError if not unique.

    Builds the 5x6 incidence system; the solution space must be exactly
    one-dimensional (four collinear points, for instance, leave a pencil).
    """
    if len(config) != 5:
        raise InvalidInputError("exactly five points are required")
    rows = []
    for p in config:
        x, y, z = _plane_coords(p)
        rows.append((x * x, y * y, z * z, x * y, x * z, y * z))
    reduced, pivots = rref(rows)
    if len(pivots) != 5:
        raise DegenerateInputError(
            "the conic through these five points is not unique"
        )
    free = next(c for c in range(6) if c not in pivots)
    solution = [GaussianRational(0)] * 6
    solution[free] = GaussianRational(1)
    for row, pivot in zip(reduced, pivots):
        solution[pivot] = -row[free]
    conic = Conic(*solution)
    for p in config:
        if not conic.contains(p):
            raise InternalError("computed conic misses an input point")
    return conic
