import itertools
import random
from fractions import Fraction

import pytest

import planar_descent.equivalence as equivalence_module
from planar_descent.errors import InternalError, InvalidInputError
from planar_descent.gaussian import GaussianRational, gq
from planar_descent.equivalence import (
    ConfigTag,
    NeedsReductionError,
    TooManyPointsError,
    TooSmallError,
    WrongClassError,
    aut_group,
    classify,
    equivalences,
    pgl2_equivalences,
    reduce_to_line,
    symmetry_permutations,
)
from planar_descent.plane import (
    Line,
    PointConfig,
    ProjPoint,
    SemiProjMap,
    collinear,
    line_through,
    znormal,
)


def pt(a, b, c):
    return ProjPoint(gq(a), gq(b), gq(c))


# --- Q(i) matrix arithmetic for the oracles, independent of the library's
# Gaussian-integer kernels; matrices are tuples of rows of GaussianRationals


def det3(m):
    a, b, c = m[0]
    d, e, f = m[1]
    g, h, i = m[2]
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def adjugate(m):
    """Transpose of the cofactor matrix of a 3x3 matrix; det(m) * inverse(m)."""
    def cof(r0, r1, c0, c1):
        return m[r0][c0] * m[r1][c1] - m[r0][c1] * m[r1][c0]

    return (
        (cof(1, 2, 1, 2), -cof(0, 2, 1, 2), cof(0, 1, 1, 2)),
        (-cof(1, 2, 0, 2), cof(0, 2, 0, 2), -cof(0, 1, 0, 2)),
        (cof(1, 2, 0, 1), -cof(0, 2, 0, 1), cof(0, 1, 0, 1)),
    )


def matmul(a, b):
    n = len(a)
    return tuple(
        tuple(sum((a[r][k] * b[k][c] for k in range(1, n)), a[r][0] * b[0][c]) for c in range(n))
        for r in range(n)
    )


def matvec(m, v):
    return tuple(sum((row[k] * v[k] for k in range(1, len(v))), row[0] * v[0]) for row in m)


def conj_matrix(m):
    return tuple(tuple(x.conj() for x in row) for row in m)


FAMILY_F = PointConfig([pt(1, 0, 1), pt(-1, 0, 1), pt(0, 1, 1), pt(0, -1, 1)])
STANDARD_FRAME = PointConfig([pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1), pt(1, 1, 1)])


def _paper_family(a_values, origin=False):
    points = [pt(1, 0, 1), pt(-1, 0, 1), pt(0, 1, 1), pt(0, -1, 1)]
    for a in a_values:
        a = gq(a)
        points.append(ProjPoint(a, gq(1), gq(0)))
        points.append(ProjPoint(gq(1), -a.conj(), gq(0)))
    if origin:
        points.append(pt(0, 0, 1))
    return PointConfig(points)


def _random_point(rng, real=False):
    while True:
        coords = [
            GaussianRational(
                Fraction(rng.randint(-4, 4), rng.randint(1, 2)),
                0 if real else Fraction(rng.randint(-4, 4), rng.randint(1, 2)),
            )
            for _ in range(3)
        ]
        if any(coords):
            return ProjPoint(*coords)


def _random_config(rng, size, real=False):
    points = []
    while len(points) < size:
        p = _random_point(rng, real)
        if p not in points:
            points.append(p)
    return PointConfig(points)


# --- classification ---------------------------------------------------------------


def test_classify_family_f_has_frame():
    cls = classify(FAMILY_F)
    assert cls.tag is ConfigTag.HAS_FRAME
    assert set(cls.frame) == set(FAMILY_F.points)


def test_classify_collinear():
    config = PointConfig([pt(k, 1, 0) for k in range(5)])
    cls = classify(config)
    assert cls.tag is ConfigTag.COLLINEAR
    assert cls.line == line_through(pt(0, 1, 0), pt(1, 1, 0))


def test_classify_line_plus_point():
    config = PointConfig([pt(k, 1, 0) for k in range(4)] + [pt(0, 0, 1)])
    cls = classify(config)
    assert cls.tag is ConfigTag.LINE_PLUS_POINT
    assert cls.residue == pt(0, 0, 1)
    assert cls.line == line_through(pt(0, 1, 0), pt(1, 1, 0))


def test_classify_tiny():
    assert classify(PointConfig([pt(1, 2, 3)])).tag is ConfigTag.TINY
    triangle = PointConfig([pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1)])
    assert classify(triangle).tag is ConfigTag.TINY


def test_classify_two_lines_is_not_a_separate_class():
    # three points on each of two lines sharing one: a frame exists
    two_lines = PointConfig([pt(0, 0, 1), pt(0, 1, 0), pt(1, 0, 0),
                             pt(0, 1, 1), pt(1, 0, 1)])
    assert classify(two_lines).tag is ConfigTag.HAS_FRAME


def test_classify_guard():
    config = PointConfig([pt(k, 1, 1) for k in range(21)])
    with pytest.raises(TooManyPointsError):
        classify(config)
    with pytest.raises(InvalidInputError):
        classify(PointConfig([ProjPoint(k, 1) for k in range(4)]))


def _brute_classify_checks(config):
    """Cross-check the tag against direct definitions."""
    cls = classify(config)
    pts = config.points
    n = len(pts)
    has_frame = any(
        not any(collinear(*triple) for triple in itertools.combinations(quad, 3))
        for quad in itertools.combinations(pts, 4)
    )
    all_collinear = n >= 2 and all(
        collinear(pts[0], pts[1], p) for p in pts[2:]
    )
    lines = {}
    for p, q in itertools.combinations(pts, 2):
        lines[line_through(p, q)] = None
    line_counts = {
        line: sum(1 for p in pts if line.contains(p)) for line in lines
    }
    has_npm1_line = any(count == n - 1 for count in line_counts.values())

    if n <= 3:
        assert cls.tag is ConfigTag.TINY
    elif has_frame:
        assert cls.tag is ConfigTag.HAS_FRAME
    elif all_collinear:
        assert cls.tag is ConfigTag.COLLINEAR
    else:
        assert cls.tag is ConfigTag.LINE_PLUS_POINT
        assert has_npm1_line
    # exclusivity of the degenerate tags
    if cls.tag is ConfigTag.COLLINEAR:
        assert not has_npm1_line or n == 2
    if cls.tag is ConfigTag.LINE_PLUS_POINT:
        assert not all_collinear


def test_classify_exhaustive_small():
    rng = random.Random(20)
    shapes = []
    for size in (4, 5, 6, 7):
        for _ in range(10):
            shapes.append(_random_config(rng, size))
        # forced degenerate shapes
        line_pts = [pt(k, 1, 0) for k in range(size)]
        shapes.append(PointConfig(line_pts))
        shapes.append(PointConfig(line_pts[: size - 1] + [pt(0, 0, 1)]))
        # two lines with enough points each
        if size >= 6:
            shapes.append(PointConfig(
                [pt(k, 1, 0) for k in range(3)]
                + [pt(0, k, 1) for k in range(1, size - 2)]
            ))
    for config in shapes:
        _brute_classify_checks(config)


# --- equivalences -------------------------------------------------------------------


def test_frame_set_has_24_self_equivalences():
    maps = equivalences(STANDARD_FRAME, STANDARD_FRAME)
    assert len(maps) == 24
    assert maps[0].is_identity()


def test_paper_family_conjugate_equivalence_contains_j():
    config = _paper_family(["2+1i"])
    maps = equivalences(config.conj(), config)
    j = SemiProjMap(((0, -1, 0), (1, 0, 0), (0, 0, 1)))
    assert any(m == j for m in maps)


def test_equivalences_structural_mismatch_empty():
    with_line = PointConfig([pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1), pt(1, 1, 1),
                             pt(1, 1, 0)])
    generic = PointConfig([pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1), pt(1, 1, 1),
                           pt(2, 3, 5)])
    assert equivalences(with_line, generic) == []


def test_equivalences_needs_reduction_for_degenerate():
    config = PointConfig([pt(k, 1, 0) for k in range(4)])
    with pytest.raises(NeedsReductionError):
        equivalences(config, config)


def test_equivalences_size_mismatch_empty():
    small = STANDARD_FRAME
    bigger = PointConfig(list(STANDARD_FRAME) + [pt(2, 3, 5)])
    assert equivalences(small, bigger) == []


def _random_twist(rng):
    while True:
        rows = tuple(
            tuple(GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
                  for _ in range(3))
            for _ in range(3)
        )
        if any(x for row in rows for x in row) and det3(rows):
            return SemiProjMap(rows)


def _frame_rows(quad):
    """Rows of the frame matrix (columns d_k * v_k), or None if degenerate."""
    v1, v2, v3, v4 = (p.coords for p in quad)
    if not det3((v1, v2, v3)):
        return None
    d1 = det3((v4, v2, v3))
    d2 = det3((v1, v4, v3))
    d3 = det3((v1, v2, v4))
    if not d1 or not d2 or not d3:
        return None
    return tuple((d1 * v1[r], d2 * v2[r], d3 * v3[r]) for r in range(3))


def brute_force_equivalences(source, target):
    """Two-sided enumeration: every source 4-subset anchors a full search.

    Every general-position 4-subset of the source is used as the anchor
    (in canonical order: the 24 orderings of the anchor add nothing, as
    composing with a permutation re-lands among the enumerated target
    tuples).  All anchors must agree, which checks that the library's
    fixed-witness choice is irrelevant.
    """
    target_set = set(target.points)
    image_rows = [
        rows
        for rows in map(_frame_rows, itertools.permutations(target.points, 4))
        if rows is not None
    ]
    results = None
    for quad in itertools.combinations(source.points, 4):
        rows = _frame_rows(quad)
        if rows is None:
            continue
        anchor_adjugate = adjugate(rows)
        # anchor points land on the image tuple by construction; probe the rest
        quad_set = set(quad)
        probes = [
            matvec(anchor_adjugate, p.coords)
            for p in source.points
            if p not in quad_set
        ]
        found = set()
        for img in image_rows:
            if all(ProjPoint(*matvec(img, w)) in target_set for w in probes):
                found.add(SemiProjMap(matmul(img, anchor_adjugate)).key())
        keys = sorted(found)
        assert results is None or keys == results, "anchor choice changed the answer"
        results = keys
    assert results is not None
    return results


def test_equivalences_match_brute_force():
    rng = random.Random(21)
    checked = 0
    sizes = [4] * 20 + [5] * 20 + [6] * 10
    for size in sizes:
        source = _random_config(rng, size)
        if rng.random() < 0.5:
            target = _random_twist(rng).apply(source)
        else:
            target = _random_config(rng, size)
        try:
            fast = equivalences(source, target)
        except NeedsReductionError:
            continue
        brute = brute_force_equivalences(source, target)
        assert [m.key() for m in fast] == brute
        checked += 1
    assert checked >= 50

    # symmetric inputs: only there do several orderings of a target
    # 4-subset share one frame-coordinate key set
    square_and_centre = PointConfig(list(FAMILY_F) + [pt(0, 0, 1)])
    family_s = _paper_family(["2+1i"])
    pairs = [
        (STANDARD_FRAME, STANDARD_FRAME),
        (STANDARD_FRAME, _random_twist(rng).apply(STANDARD_FRAME)),
        (family_s, family_s),
        (family_s.conj(), family_s),
        (family_s, _random_twist(rng).apply(family_s)),
        (square_and_centre, square_and_centre),
        (square_and_centre, _random_twist(rng).apply(square_and_centre)),
    ]
    counts = []
    for source, target in pairs:
        fast = equivalences(source, target)
        assert [m.key() for m in fast] == brute_force_equivalences(source, target)
        counts.append(len(fast))
    assert counts == [24, 24, 2, 2, 2, 8, 8]


def test_projective_key_is_scale_invariant_and_separates_points():
    rng = random.Random(25)
    for _ in range(200):
        v = tuple(rng.randint(-9, 9) for _ in range(6))
        if not any(v):
            continue
        lr, li = 0, 0
        while not (lr or li):
            lr, li = rng.randint(-9, 9), rng.randint(-9, 9)
        scaled = []
        for k in range(3):
            ar, ai = v[2 * k], v[2 * k + 1]
            scaled.extend((lr * ar - li * ai, lr * ai + li * ar))
        assert znormal(tuple(scaled)) == znormal(v)
        # the classes store that normal form: Q(i) coordinates times a
        # nonzero Q(i) scalar give an equal point and line, printed alike
        c = GaussianRational(Fraction(lr, rng.randint(1, 5)), Fraction(li, rng.randint(1, 5)))
        coords = [GaussianRational(v[k], v[k + 1]) for k in (0, 2, 4)]
        for cls in (ProjPoint, Line):
            a, b = cls(*coords), cls(*[c * x for x in coords])
            assert a.z == b.z == znormal(v)
            assert a == b and hash(a) == hash(b)
            assert str(a) == str(b) and a.key() == b.key()
    for size in (5, 8, 12):
        config = _random_config(rng, size)
        assert len({znormal(p.z) for p in config}) == size


def test_equivalences_form_left_coset():
    rng = random.Random(22)
    config = _random_config(rng, 5)
    target = _random_twist(rng).apply(config)
    maps = equivalences(config, target)
    assert maps
    auts = aut_group(config)
    coset = {(maps[0] * h).key() for h in auts}
    assert coset == {m.key() for m in maps}


def test_aut_group_axioms():
    rng = random.Random(23)
    for size in (4, 5, 6):
        config = _random_config(rng, size)
        try:
            auts = aut_group(config)
        except NeedsReductionError:
            continue
        keys = {g.key() for g in auts}
        assert SemiProjMap.identity().key() in keys
        for g in auts:
            assert g.inverse().key() in keys
            for h in auts:
                assert (g * h).key() in keys


def test_paper_family_aut_is_i_and_m():
    config = _paper_family(["2+1i"])
    auts = aut_group(config)
    m = SemiProjMap(((-1, 0, 0), (0, -1, 0), (0, 0, 1)))
    assert {g.key() for g in auts} == {SemiProjMap.identity().key(), m.key()}


def test_family_f_aut_order_24():
    assert len(aut_group(FAMILY_F)) == 24


def test_symmetry_permutations_rejects_non_permutations():
    config = PointConfig([pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1), pt(1, 1, 1),
                          pt(2, 0, 1)])
    # singular, so built past the constructor: every image lies in the
    # configuration, but (1:0:0) and (0:1:0) both go to (1:0:0)
    merging = object.__new__(SemiProjMap)
    merging.z = ((1, 0, 1, 0, 0, 0), (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0))
    merging.antiholo = False
    assert merging.apply(pt(1, 1, 1)) == pt(2, 0, 1)
    # (1:1:1) goes to (2:1:1), which is not in the configuration
    outside = SemiProjMap(((2, 0, 0), (0, 1, 0), (0, 0, 1)))
    for g in (merging, outside):
        with pytest.raises(InternalError, match="does not permute"):
            symmetry_permutations(config, [SemiProjMap.identity(), g])

    pairs = symmetry_permutations(STANDARD_FRAME, aut_group(STANDARD_FRAME))
    assert {perm for perm, _ in pairs} == set(itertools.permutations(range(4)))


def test_symmetry_permutations_checks_the_group_axioms():
    identity = SemiProjMap.identity()
    cycle = SemiProjMap(((0, 0, 1), (1, 0, 0), (0, 1, 0)))   # order 3
    swap01 = SemiProjMap(((0, 1, 0), (1, 0, 0), (0, 0, 1)))
    swap12 = SemiProjMap(((1, 0, 0), (0, 0, 1), (0, 1, 0)))
    faulty = {
        "two symmetries induce the same permutation": [identity, swap01, swap01],
        "lost the identity": [swap01],
        "not closed under inverse": [identity, cycle],
        "not closed under composition": [identity, swap01, swap12],
    }
    for message, maps in faulty.items():
        with pytest.raises(InternalError, match=message):
            symmetry_permutations(STANDARD_FRAME, maps)
    # points in stored order (0:0:1), (0:1:0), (1:0:0), (1:1:1)
    group = [identity, cycle, cycle * cycle]
    assert symmetry_permutations(STANDARD_FRAME, group) == [
        ((0, 1, 2, 3), False), ((2, 0, 1, 3), False), ((1, 2, 0, 3), False)
    ]


def drop_involution_or_swap(maps, fault):
    """maps with its first non-identity involution removed or replaced.

    An involution is its own inverse, so dropping it leaves the set closed
    under inverse; only the composition check can catch it.
    """
    k = next(k for k, g in enumerate(maps)
             if not g.is_identity() and (g * g).is_identity())
    stranger = SemiProjMap(((2, 0, 0), (0, 1, 0), (0, 0, 1)))
    return maps[:k] + ([] if fault == "drop" else [stranger]) + maps[k + 1:]


FAULT_MESSAGES = {"drop": "not closed under composition", "swap": "does not permute"}


@pytest.mark.parametrize("fault", sorted(FAULT_MESSAGES))
def test_aut_group_rejects_a_faulty_enumeration(monkeypatch, fault):
    enumerate_maps = equivalence_module._keyed_equivalences

    def faulty(*args):
        return drop_involution_or_swap(enumerate_maps(*args), fault)

    monkeypatch.setattr(equivalence_module, "_keyed_equivalences", faulty)
    with pytest.raises(InternalError, match=FAULT_MESSAGES[fault]):
        aut_group(FAMILY_F)


# --- reduction to the line -----------------------------------------------------------


def test_reduce_collinear_standard_chart():
    config = PointConfig([pt(k, 1, 0) for k in range(4)])
    reduction = reduce_to_line(config)
    assert reduction.residue is None
    expected = {ProjPoint(k, 1) for k in range(4)}
    assert set(reduction.config.points) == expected
    for p in reduction.config:
        assert reduction.to_plane(p) in config


def test_reduce_line_plus_point():
    config = PointConfig([pt(k, 1, 0) for k in range(4)] + [pt(0, 0, 1)])
    reduction = reduce_to_line(config)
    assert reduction.residue == pt(0, 0, 1)
    assert len(reduction.config) == 4
    for p in reduction.config:
        assert reduction.to_plane(p) in config


def test_reduce_rejects_frame_class():
    with pytest.raises(WrongClassError):
        reduce_to_line(STANDARD_FRAME)


def test_reduction_conj_matches_reducing_the_conjugate():
    rng = random.Random(24)
    for _ in range(10):
        values = set()
        while len(values) < 4:
            values.add((rng.randint(-5, 5), rng.randint(-5, 5)))
        points = [ProjPoint(GaussianRational(a, b), gq(1), gq(0)) for a, b in values]
        config = PointConfig(points)
        reduction = reduce_to_line(config)
        other = reduce_to_line(config.conj())
        assert reduction.conj().config == other.config
        assert reduction.conj().basis == other.basis
        assert reduction.conj().off == other.off


# --- the projective line -------------------------------------------------------------


def _p1(s, t):
    return ProjPoint(gq(s), gq(t))


def test_pgl2_three_points_give_s3():
    config = PointConfig([_p1(0, 1), _p1(1, 1), _p1(1, 0)])
    maps = pgl2_equivalences(config, config)
    assert len(maps) == 6
    assert maps[0].is_identity()


def test_pgl2_too_small():
    config = PointConfig([_p1(0, 1), _p1(1, 0)])
    with pytest.raises(TooSmallError):
        pgl2_equivalences(config, config)
    plane = PointConfig([pt(1, 0, 0), pt(0, 1, 0), pt(1, 1, 1)])
    with pytest.raises(InvalidInputError):
        pgl2_equivalences(plane, plane)
    line = PointConfig([_p1(0, 1), _p1(1, 0), _p1(1, 1), _p1(2, 1)])
    with pytest.raises(InvalidInputError):
        equivalences(STANDARD_FRAME, line)


def _det2(p, q):
    return p.coords[0] * q.coords[1] - p.coords[1] * q.coords[0]


def _triple_matrix(q0, q1, q2):
    """2x2 matrix sending (1:0), (0:1), (1:1) to the given distinct triple."""
    d0 = _det2(q2, q1)
    d1 = _det2(q0, q2)
    return (
        (d0 * q0.coords[0], d1 * q1.coords[0]),
        (d0 * q0.coords[1], d1 * q1.coords[1]),
    )


def _brute_pgl2(source, target):
    """Sorted keys of every map sending a source triple to an ordered target triple.

    Two anchor triples of the source are tried; both must give the same maps.
    """
    target_set = set(target.points)
    results = None
    for anchor in (source.points[:3], source.points[-3:][::-1]):
        mb = _triple_matrix(*anchor)
        inv = ((mb[1][1], -mb[0][1]), (-mb[1][0], mb[0][0]))
        found = set()
        for image in itertools.permutations(target.points, 3):
            mt = _triple_matrix(*image)
            prod = tuple(
                tuple(mt[r][0] * inv[0][c] + mt[r][1] * inv[1][c] for c in range(2))
                for r in range(2)
            )
            g = SemiProjMap(prod)
            if all(g.apply(p) in target_set for p in source.points):
                found.add(g.key())
        keys = sorted(found)
        assert results is None or keys == results, "anchor choice changed the answer"
        results = keys
    return results


def test_pgl2_four_points_match_brute_force():
    for lam in (gq(2), gq(-1), gq("2+1i"), gq("5/3")):
        config = PointConfig([_p1(0, 1), _p1(1, 1), _p1(1, 0), ProjPoint(lam, gq(1))])
        maps = pgl2_equivalences(config, config)
        assert 24 % len(maps) == 0
        assert [m.key() for m in maps] == _brute_pgl2(config, config)


def _random_line_config(rng, size):
    points = set()
    while len(points) < size:
        if rng.random() < 0.15:
            points.add(_p1(1, 0))
        else:
            points.add(ProjPoint(GaussianRational(rng.randint(-4, 4), rng.randint(-4, 4)), gq(1)))
    return PointConfig(points)


def _random_line_twist(rng):
    while True:
        rows = tuple(
            tuple(GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(2))
            for _ in range(2)
        )
        if rows[0][0] * rows[1][1] != rows[0][1] * rows[1][0]:
            return SemiProjMap(rows)


def _stable_line_config(rng, size):
    """A twist of a conjugation-stable set of the line: conj(L) -> L maps exist."""
    while True:
        points = set()
        while len(points) < size:
            z = GaussianRational(rng.randint(-4, 4), rng.randint(-4, 4))
            points.update((ProjPoint(z, gq(1)), ProjPoint(z.conj(), gq(1))))
        if len(points) == size:
            return _random_line_twist(rng).apply(PointConfig(points))


def test_pgl2_matches_brute_force_between_sets():
    rng = random.Random(26)
    pairs = []
    for size in (4, 5, 6, 7):
        line = _random_line_config(rng, size)
        stable = _stable_line_config(rng, size)
        pairs.append((line.conj(), line))
        pairs.append((stable.conj(), stable))
        pairs.append((line, _random_line_twist(rng).apply(line)))
    for source, target in pairs:
        maps = pgl2_equivalences(source, target)
        assert [m.key() for m in maps] == _brute_pgl2(source, target)
        for g in maps:
            assert g.apply(source) == target

    harmonic = PointConfig([_p1(0, 1), _p1(1, 0), _p1(1, 1), _p1(-1, 1)])
    octahedral = PointConfig(
        [_p1(0, 1), _p1(1, 0), _p1(1, 1), _p1(-1, 1), _p1("0+1i", 1), _p1("0-1i", 1)]
    )
    twisted = _random_line_twist(rng).apply(octahedral)
    symmetric = [
        (harmonic, harmonic, 8),
        (harmonic, _random_line_twist(rng).apply(harmonic), 8),
        (octahedral, octahedral, 24),
        (octahedral.conj(), octahedral, 24),
        (twisted.conj(), twisted, 24),
    ]
    for source, target, count in symmetric:
        maps = pgl2_equivalences(source, target)
        assert len(maps) == count
        assert [m.key() for m in maps] == _brute_pgl2(source, target)


def _cross_ratio(z1, z2, z3, z4):
    """cr(z1, z2, z3, z4) = ((z1-z3)(z2-z4)) / ((z1-z4)(z2-z3)), homogeneously."""
    return (_det2(z1, z3) * _det2(z2, z4)) / (_det2(z1, z4) * _det2(z2, z3))


def test_pgl2_preserves_cross_ratio():
    rng = random.Random(25)
    for _ in range(20):
        values = set()
        while len(values) < 4:
            values.add((rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(0, 1)))
        pts = [
            ProjPoint(GaussianRational(a, b), gq(t)) if t else ProjPoint(gq(1), GaussianRational(a, b))
            for a, b, t in values
        ]
        if len(set(pts)) < 4:
            continue
        config = PointConfig(pts[:4]) if len(set(pts[:4])) == 4 else None
        if config is None:
            continue
        maps = pgl2_equivalences(config, config)
        z = config.points
        reference = _cross_ratio(*z)
        for g in maps:
            images = [g.apply(p) for p in z]
            value = _cross_ratio(*images)
            orbit = {reference, 1 / reference, 1 - reference,
                     1 / (1 - reference), (reference - 1) / reference,
                     reference / (reference - 1)}
            assert value in orbit
