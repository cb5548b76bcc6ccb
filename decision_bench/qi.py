"""Exact Q(i) arithmetic for generating inputs and checking outputs.

Deliberately independent of `planar_descent`: nothing here imports the
program, so the checker never trusts the arithmetic it is checking.

Two representations:

* a Q(i) scalar is a pair of `Fraction`s (re, im), used only to parse
  and format the program's text grammar;
* projective objects (points, and matrices read as 9-vectors) are held
  as Gaussian integers, pairs of Python ints (re, im), after clearing
  denominators.  Projective equality is the vanishing of all 2x2
  minors, so no normalisation happens in the arithmetic.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

_LITERAL = re.compile(r"(-?\d+)(?:/(\d+))?(?:([+-])(\d+)(?:/(\d+))?i)?\Z")


# --- text grammar -------------------------------------------------------------


def parse(text: str):
    """A Q(i) literal such as "2+1i", "-3/4" or "0-5/7i", as (re, im) Fractions."""
    m = _LITERAL.match(text)
    if m is None:
        raise ValueError(f"not a Q(i) literal: {text!r}")
    re_part = Fraction(int(m.group(1)), int(m.group(2) or 1))
    if m.group(3) is None:
        return re_part, Fraction(0)
    im_part = Fraction(int(m.group(4)), int(m.group(5) or 1))
    return re_part, (-im_part if m.group(3) == "-" else im_part)


def fmt(x) -> str:
    """Format (re, im) in the grammar the program parses."""
    re_part, im_part = Fraction(x[0]), Fraction(x[1])
    if im_part == 0:
        return str(re_part)
    sign = "-" if im_part < 0 else "+"
    return f"{re_part}{sign}{abs(im_part)}i"


def to_zi(values):
    """Clear denominators of a sequence of (re, im) Fractions: Gaussian ints."""
    den = lcm(*(Fraction(v).denominator for x in values for v in x))
    return tuple(
        (int(Fraction(x[0]) * den), int(Fraction(x[1]) * den)) for x in values
    )


def parse_vector(strings):
    return to_zi([parse(s) for s in strings])


def parse_point(text: str):
    """A point "(x:y:z)" as a Gaussian-integer 3-vector."""
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"not a point: {text!r}")
    parts = text[1:-1].split(":")
    if len(parts) != 3:
        raise ValueError(f"not a point: {text!r}")
    return parse_vector(parts)


def parse_map(data):
    """A map {"antiholo": b, "matrix": [nine strings]} as (rows, antiholo)."""
    flat = parse_vector(data["matrix"])
    if len(flat) != 9:
        raise ValueError("a map needs nine matrix entries")
    return (flat[0:3], flat[3:6], flat[6:9]), bool(data["antiholo"])


def point_text(v) -> str:
    """Format a Gaussian-integer point with its leading coordinate scaled to 1."""
    return "(" + ":".join(fmt(x) for x in key(v)) + ")"


# --- Gaussian integers -----------------------------------------------------------


def mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def conj(x):
    return (x[0], -x[1])


def conj_vec(v):
    return tuple((x[0], -x[1]) for x in v)


def conj_mat(m):
    return tuple(conj_vec(row) for row in m)


def dot(u, v):
    re_part = im_part = 0
    for a, b in zip(u, v):
        re_part += a[0] * b[0] - a[1] * b[1]
        im_part += a[0] * b[1] + a[1] * b[0]
    return (re_part, im_part)


def matvec(m, v):
    return tuple(dot(row, v) for row in m)


def matmul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(dot(row, col) for col in cols) for row in a)


def det3(m):
    (a, b, c), (d, e, f), (g, h, i) = m
    return add(
        sub(mul(a, sub(mul(e, i), mul(f, h))), mul(b, sub(mul(d, i), mul(f, g)))),
        mul(c, sub(mul(d, h), mul(e, g))),
    )


def adjugate(m):
    """Transpose of the cofactor matrix: m . adjugate(m) = det(m) * I."""

    def minor(r0, r1, c0, c1):
        return sub(mul(m[r0][c0], m[r1][c1]), mul(m[r0][c1], m[r1][c0]))

    def neg(x):
        return (-x[0], -x[1])

    return (
        (minor(1, 2, 1, 2), neg(minor(0, 2, 1, 2)), minor(0, 1, 1, 2)),
        (neg(minor(1, 2, 0, 2)), minor(0, 2, 0, 2), neg(minor(0, 1, 0, 2))),
        (minor(1, 2, 0, 1), neg(minor(0, 2, 0, 1)), minor(0, 1, 0, 1)),
    )


def flatten(m):
    return tuple(x for row in m for x in row)


def is_zero(v):
    return not any(x[0] or x[1] for x in v)


def proportional(u, v) -> bool:
    """u and v are nonzero and equal up to a nonzero scalar."""
    if is_zero(u) or is_zero(v):
        return False
    n = len(u)
    for i in range(n):
        for j in range(i + 1, n):
            if mul(u[i], v[j]) != mul(u[j], v[i]):
                return False
    return True


def key(v):
    """Canonical projective key: entries divided by the first nonzero one."""
    lead = next(x for x in v if x[0] or x[1])
    norm = lead[0] * lead[0] + lead[1] * lead[1]
    inv = conj(lead)
    return tuple(
        (Fraction(p[0], norm), Fraction(p[1], norm)) for p in (mul(x, inv) for x in v)
    )


def point_set(points) -> frozenset:
    return frozenset(key(p) for p in points)


def image(matrix, antiholo, point):
    """Image of a point under x -> M x, or x -> M conj(x) when antiholomorphic."""
    return matvec(matrix, conj_vec(point) if antiholo else point)


def identity():
    one, zero = (1, 0), (0, 0)
    return ((one, zero, zero), (zero, one, zero), (zero, zero, one))
