"""Seeded inputs for the three workloads, with what the checker must know.

Every input is generated here from the seed and handed to the program
only as JSON text.  Each case also keeps, for the checker, the exact
Gaussian-integer points it encodes and the facts that hold by
construction: whether the set descends, the hand-derived order of its
symmetry group and, for S and S', the twisted square of its
antiholomorphic symmetries.

The make-up of each pass (sizes, shapes, group orders) is fixed; the
seed only draws the coordinates and the twists.  README.md lists it.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

import qi

TWIST_RANGE = 3        # twist entries a+bi with |a|, |b| <= 3
BATTERY_COPIES = 16    # inputs per (size, shape) in one battery pass
GENERIC_N = 11
GENERIC_PAIRS = 10     # positives and negatives in one generic pass
GENERIC_RANGE = 9      # generic coordinates a+bi with |a|, |b| <= 9
METAMORPHIC_CASES = 2  # generic negatives re-decided after a twist and a conjugation

# M = diag(-1,-1,1): the square of both antiholomorphic symmetries of S and S'.
M_MATRIX = (((-1, 0), (0, 0), (0, 0)), ((0, 0), (-1, 0), (0, 0)), ((0, 0), (0, 0), (1, 0)))
FAMILY_POOL = ((2, 1), (3, 2), (5, 1))


@dataclass
class Case:
    label: str
    points: tuple          # Gaussian-integer vectors of the input
    expect: dict = field(default_factory=dict)
    text: str = field(init=False)

    def __post_init__(self):
        self.text = json.dumps({"points": [qi.point_text(p) for p in self.points]})


def _rng(workload, seed, salt=""):
    return random.Random(f"{workload}:{seed}{salt}")


def random_twist(rng):
    r = TWIST_RANGE
    while True:
        m = tuple(
            tuple((rng.randint(-r, r), rng.randint(-r, r)) for _ in range(3))
            for _ in range(3)
        )
        if qi.det3(m) != (0, 0):
            return m


def _twisted(label, base, rng, expect):
    g = random_twist(rng)
    return Case(label, tuple(qi.matvec(g, p) for p in base), expect)


def _distinct(points):
    return len(qi.point_set(points)) == len(points)


# --- battery: twisted conjugation-stable sets of 1-5 points ---------------------


def _fraction(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def _real_point(rng):
    coords = [_fraction(rng) for _ in range(3)]
    if not any(coords):
        coords[rng.randrange(3)] = Fraction(1)
    return qi.to_zi([(c, 0) for c in coords])


def _conj_pair(rng):
    coords = [(_fraction(rng), _fraction(rng)) for _ in range(3)]
    if not any(c[1] for c in coords):
        k = rng.randrange(3)
        coords[k] = (coords[k][0], coords[k][1] + 1)
    p = qi.to_zi(coords)
    return p, qi.conj_vec(p)


def _stable_scatter(rng, size):
    while True:
        points = []
        while len(points) < size:
            if size - len(points) >= 2 and rng.random() < 0.4:
                p, q = _conj_pair(rng)
                if not qi.proportional(p, q):
                    points.extend([p, q])
            else:
                points.append(_real_point(rng))
        if _distinct(points):
            return points


def _stable_line(rng, count):
    """Distinct conjugation-stable points (s:1:0) on the line z = 0."""
    while True:
        points = []
        while len(points) < count:
            if count - len(points) >= 2 and rng.random() < 0.4:
                s = (_fraction(rng), _fraction(rng))
                if s[1]:
                    p = qi.to_zi([s, (1, 0), (0, 0)])
                    points.extend([p, qi.conj_vec(p)])
                    continue
            points.append(qi.to_zi([(_fraction(rng), 0), (1, 0), (0, 0)]))
        if _distinct(points):
            return points


def _stable_set(rng, size, shape):
    if shape == "general":
        return _stable_scatter(rng, size)
    if shape == "collinear":
        return _stable_line(rng, size)
    off_line = qi.to_zi([(_fraction(rng), 0), (_fraction(rng), 0), (1, 0)])
    return _stable_line(rng, size - 1) + [off_line]


BATTERY_SHAPES = {
    1: ("general",),
    2: ("general",),
    3: ("general",),
    4: ("general", "collinear", "line_plus_point"),
    5: ("general", "collinear", "line_plus_point"),
}


def battery(seed):
    rng = _rng("battery", seed)
    cases = []
    for size, shapes in BATTERY_SHAPES.items():
        for shape in shapes:
            for _ in range(BATTERY_COPIES):
                base = _stable_set(rng, size, shape)
                cases.append(_twisted(f"{size}/{shape}", base, rng, {"descends": True}))
    return cases


# --- symmetric: the paper families and symmetric frames --------------------------


def _v(*coords):
    return tuple(c if isinstance(c, tuple) else (c, 0) for c in coords)


SQUARE = [_v(1, 0, 1), _v(-1, 0, 1), _v(0, 1, 1), _v(0, -1, 1)]


def family_points(m, variant):
    """S (2m+4 points) or S' (2m+5) on the first m parameters of the pool."""
    points = list(SQUARE)
    for a in FAMILY_POOL[:m]:
        points.append(_v(a, 1, 0))
        points.append(_v(1, (-a[0], a[1]), 0))   # (1 : -conj(a) : 0)
    if variant == "Sprime":
        points.append(_v(0, 0, 1))
    return points


# Hand-derived normalizer orders (holomorphic and antiholomorphic parts
# together); README.md gives the derivations.
CIRCLE8 = SQUARE + [_v(0, 0, 1), _v(1, (0, 1), 0)]
SQUARE16 = SQUARE + [_v(0, 0, 1)]
FRAME48 = [_v(1, 0, 0), _v(0, 1, 0), _v(0, 0, 1), _v(1, 1, 1)]

# (label, family (m, variant) or base points, normalizer order, copies per
# pass), in order of cost.  The copies put the median in the middle of the
# S m=2 block and the p80 in the middle of the S' m=2 block, so neither
# order statistic falls between two input classes of different cost.
SYMMETRIC_PASS = (
    ("S/m=1", (1, "S"), 4, 5),
    ("Sprime/m=1", (1, "Sprime"), 4, 5),
    ("circle8", CIRCLE8, 8, 2),
    ("S/m=2", (2, "S"), 4, 16),
    ("Sprime/m=2", (2, "Sprime"), 4, 8),
    ("S/m=3", (3, "S"), 4, 1),
    ("square16", SQUARE16, 16, 1),
    ("Sprime/m=3", (3, "Sprime"), 4, 1),
    ("frame48", FRAME48, 48, 1),
)


def family_case(label, m, variant, rng):
    """A twisted S or S': order 4, no descent, coset elements square to g M g^-1."""
    g = random_twist(rng)
    square = qi.matmul(qi.matmul(g, M_MATRIX), qi.adjugate(g))
    return Case(label, tuple(qi.matvec(g, p) for p in family_points(m, variant)),
                {"descends": False, "order": 4, "square": square})


def symmetric(seed):
    rng = _rng("symmetric", seed)
    cases = []
    for label, base, order, copies in SYMMETRIC_PASS:
        for _ in range(copies):
            if isinstance(base, tuple):
                cases.append(family_case(label, *base, rng))
            else:
                cases.append(_twisted(label, base, rng, {"descends": True, "order": order}))
    return cases


# --- generic: general position, trivial symmetry ----------------------------------


def general_position(points) -> bool:
    """No three of the points are collinear (so they are also distinct)."""
    return all(qi.det3(t) != (0, 0) for t in itertools.combinations(points, 3))


def _gint(rng, imaginary=True):
    r = GENERIC_RANGE
    return (rng.randint(-r, r), rng.randint(-r, r) if imaginary else 0)


def _generic_stable(rng, n):
    while True:
        points = []
        while len(points) < n:
            if n - len(points) >= 2 and rng.random() < 0.5:
                p = tuple(_gint(rng) for _ in range(3))
                if not qi.proportional(p, qi.conj_vec(p)):
                    points.extend([p, qi.conj_vec(p)])
            else:
                p = tuple(_gint(rng, imaginary=False) for _ in range(3))
                if not qi.is_zero(p):
                    points.append(p)
        if general_position(points):
            return points


def _generic_random(rng, n):
    while True:
        points = [tuple(_gint(rng) for _ in range(3)) for _ in range(n)]
        if general_position(points):
            return points


def generic(seed):
    rng = _rng("generic", seed)
    cases = []
    for _ in range(GENERIC_PAIRS):
        cases.append(_twisted(f"n={GENERIC_N}/stable", _generic_stable(rng, GENERIC_N),
                              rng, {"descends": True}))
        cases.append(_twisted(f"n={GENERIC_N}/random", _generic_random(rng, GENERIC_N),
                              rng, {"descends": False}))
    return cases


def metamorphic_variants(cases, seed):
    """For the first negatives: the same set under a further twist, and conjugated."""
    rng = _rng("generic", seed, ":metamorphic")
    negatives = [c for c in cases if not c.expect["descends"]][:METAMORPHIC_CASES]
    variants = []
    for case in negatives:
        g = random_twist(rng)
        variants.append((case, Case(case.label + "/twisted",
                                    tuple(qi.matvec(g, p) for p in case.points))))
        variants.append((case, Case(case.label + "/conjugated",
                                    tuple(qi.conj_vec(p) for p in case.points))))
    return variants


GENERATORS = {"battery": battery, "symmetric": symmetric, "generic": generic}
