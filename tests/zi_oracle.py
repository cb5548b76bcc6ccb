"""Exact Z[i] arithmetic for the tests' brute-force oracles.

Deliberately independent of `planar_descent`: nothing here imports the
program, so an oracle built on it never trusts the arithmetic it checks
(modelled on `decision_bench/qi.py`).  A Gaussian integer is a pair of
ints (re, im), a point a tuple of three of them (two on the line), and
a 3x3 (2x2) matrix a tuple of three (two) rows.
"""

import itertools
from math import gcd


def mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def neg(x):
    return (-x[0], -x[1])


def conj(m):
    """The entrywise complex conjugate of a matrix."""
    return tuple(tuple((x[0], -x[1]) for x in row) for row in m)


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


def det2(u, v):
    """The determinant of the 2x2 matrix with rows u, v."""
    return sub(mul(u[0], v[1]), mul(u[1], v[0]))


def det3(u, v, w):
    """The determinant of the matrix with rows u, v, w."""
    cross = (
        sub(mul(v[1], w[2]), mul(v[2], w[1])),
        sub(mul(v[2], w[0]), mul(v[0], w[2])),
        sub(mul(v[0], w[1]), mul(v[1], w[0])),
    )
    return dot(u, cross)


def adjugate(m):
    """Transpose of the cofactor matrix: m . adjugate(m) = det(m) * I."""

    def minor(r0, r1, c0, c1):
        return sub(mul(m[r0][c0], m[r1][c1]), mul(m[r0][c1], m[r1][c0]))

    return (
        (minor(1, 2, 1, 2), neg(minor(0, 2, 1, 2)), minor(0, 1, 1, 2)),
        (neg(minor(1, 2, 0, 2)), minor(0, 2, 0, 2), neg(minor(0, 1, 0, 2))),
        (minor(1, 2, 0, 1), neg(minor(0, 2, 0, 1)), minor(0, 1, 0, 1)),
    )


def normal(v):
    """The normal form of a nonzero Z[i] vector: equal exactly for proportional vectors.

    Times the conjugate of the first nonzero entry x, that entry is the
    positive integer |x|^2, so proportional vectors differ by a positive
    rational; dividing by the gcd of all integer parts removes it.
    """
    lead = next(x for x in v if x != (0, 0))
    scaled = [mul(x, (lead[0], -lead[1])) for x in v]
    g = gcd(*(part for x in scaled for part in x))
    return tuple((x[0] // g, x[1] // g) for x in scaled)


def normal_matrix(m):
    """The normal form of a nonzero square matrix, taken row-major as one vector."""
    flat = normal([x for row in m for x in row])
    return tuple(flat[r:r + len(m)] for r in range(0, len(flat), len(m)))


def frame_matrix(quad):
    """The matrix with columns d_k v_k sending the standard frame to quad, or None.

    None when three of the four points are collinear.
    """
    v1, v2, v3, v4 = quad
    if det3(v1, v2, v3) == (0, 0):
        return None
    d = (det3(v4, v2, v3), det3(v1, v4, v3), det3(v1, v2, v4))
    if (0, 0) in d:
        return None
    return tuple(tuple(mul(d[k], v[r]) for k, v in enumerate((v1, v2, v3))) for r in range(3))


def brute_force_equivalences(source, target):
    """The normal forms of every g with g(source) = target, sorted; two-sided.

    source and target are sequences of points.  Every general-position
    4-subset of the source anchors a full search over the ordered
    4-tuples of the target (the 24 orderings of the anchor add nothing,
    as composing with a permutation re-lands among the enumerated target
    tuples).  All anchors must agree, which checks that the choice of
    anchor is irrelevant.
    """
    target_set = {normal(p) for p in target}
    images = [m for m in map(frame_matrix, itertools.permutations(target, 4)) if m is not None]
    results = None
    for quad in itertools.combinations(range(len(source)), 4):
        anchor = frame_matrix([source[k] for k in quad])
        if anchor is None:
            continue
        inverse = adjugate(anchor)
        # anchor points land on the image tuple by construction; probe the rest
        probes = [matvec(inverse, p) for k, p in enumerate(source) if k not in quad]
        found = set()
        for image in images:
            if all(normal(matvec(image, w)) in target_set for w in probes):
                found.add(normal_matrix(matmul(image, inverse)))
        maps = sorted(found)
        assert results is None or maps == results, "anchor choice changed the answer"
        results = maps
    assert results is not None
    return results


def triple_matrix(triple):
    """The 2x2 matrix with columns d_k v_k sending (1:0), (0:1), (1:1) to a distinct triple."""
    q0, q1, q2 = triple
    d0, d1 = det2(q2, q1), det2(q0, q2)
    return ((mul(d0, q0[0]), mul(d1, q1[0])), (mul(d0, q0[1]), mul(d1, q1[1])))


def brute_force_line_equivalences(source, target):
    """The normal forms of every g of the line with g(source) = target, sorted.

    source and target are sequences of distinct points of the line, at
    least three each.  Two anchor triples of the source, its first three
    points and its last three reversed, each anchor a full search over
    the ordered triples of the target; both must give the same maps.
    """
    target_set = {normal(p) for p in target}
    results = None
    for anchor in (source[:3], source[-3:][::-1]):
        (a, b), (c, d) = triple_matrix(anchor)
        inverse = ((d, neg(b)), (neg(c), a))
        found = set()
        for image in itertools.permutations(target, 3):
            g = matmul(triple_matrix(image), inverse)
            if all(normal(matvec(g, p)) in target_set for p in source):
                found.add(normal_matrix(g))
        maps = sorted(found)
        assert results is None or maps == results, "anchor choice changed the answer"
        results = maps
    return results
