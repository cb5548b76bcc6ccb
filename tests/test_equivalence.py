import itertools
import random
from fractions import Fraction

import pytest

import zi_oracle
import planar_descent.equivalence as equivalence_module
from planar_descent.descent import descends_real
from planar_descent.errors import InternalError, InvalidInputError
from planar_descent.families import DEFAULT_POOL, FamilyParams, family
from planar_descent.gaussian import _is_prime
from planar_descent.equivalence import (
    ConfigTag,
    NeedsReductionError,
    TooSmallError,
    WrongClassError,
    aut_group,
    classify,
    equivalences,
    pgl2_equivalences,
    reduce_to_line,
)
from planar_descent.plane import (
    Line,
    PointConfig,
    ProjPoint,
    SemiProjMap,
    collinear,
    line_through,
    zclear,
    zconj,
    znormal,
    zscale,
)


def pt(a, b, c):
    return ProjPoint(a, b, c)


def _literal(re, im):
    """The Q(i) literal of rational (int or Fraction) parts re and im."""
    return f"{re}{'-' if im < 0 else '+'}{abs(im)}i"


# --- the library's flat Z[i] tuples as the Z[i] oracle reads them


def _pairs(v):
    """A flat Z[i] tuple as the Z[i] oracle reads it: a tuple of (re, im) pairs."""
    return tuple(zip(v[0::2], v[1::2]))


def _flat(v):
    """A tuple of (re, im) pairs as one flat Z[i] tuple."""
    return tuple(x for entry in v for x in entry)


def oracle_matrix(m):
    """A matrix of flat Z[i] rows, such as `SemiProjMap.z`, as the Z[i] oracle reads it."""
    return tuple(map(_pairs, m))


def oracle_map(m, antiholo=False):
    """The map of an invertible matrix of the Z[i] oracle."""
    return SemiProjMap.from_z(tuple(map(_flat, m)), antiholo)


FAMILY_F = PointConfig([pt(1, 0, 1), pt(-1, 0, 1), pt(0, 1, 1), pt(0, -1, 1)])
STANDARD_FRAME = PointConfig([pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1), pt(1, 1, 1)])


# (x:y:z) -> (conj y:-conj x:conj z), which takes (a:1:0) to (1:-conj a:0)
SWAP_CONJ = SemiProjMap(((0, 1, 0), (-1, 0, 0), (0, 0, 1)), antiholo=True)


def _paper_family(a_values, origin=False):
    points = [pt(1, 0, 1), pt(-1, 0, 1), pt(0, 1, 1), pt(0, -1, 1)]
    for a in a_values:
        p = ProjPoint(a, 1, 0)
        points += [p, SWAP_CONJ.apply(p)]
    if origin:
        points.append(pt(0, 0, 1))
    return PointConfig(points)


def _random_point(rng, real=False):
    while True:
        # real and imaginary parts of each coordinate, as (numerator, denominator)
        parts = []
        for _ in range(3):
            parts.append((rng.randint(-4, 4), rng.randint(1, 2)))
            parts.append((0, 1) if real else (rng.randint(-4, 4), rng.randint(1, 2)))
        if any(num for num, _ in parts):
            return ProjPoint.from_z(zclear(parts))


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
    """An invertible map of the plane whose entries have parts in [-3, 3]."""
    while True:
        rows = tuple(
            tuple((rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3))
            for _ in range(3)
        )
        if zi_oracle.det3(*rows) != (0, 0):
            return oracle_map(rows)


def assert_matches_brute_force(fast, source, target):
    """fast is sorted by key and holds exactly the maps of the Z[i] oracle of its dimension."""
    assert fast == sorted(fast, key=SemiProjMap.key)
    oracle = (zi_oracle.brute_force_equivalences if len(source.points[0].z) == 6
              else zi_oracle.brute_force_line_equivalences)
    normal = sorted(zi_oracle.normal_matrix(oracle_matrix(g.z)) for g in fast)
    brute = oracle([_pairs(p.z) for p in source.points], [_pairs(p.z) for p in target.points])
    assert normal == brute


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
        assert_matches_brute_force(fast, source, target)
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
        assert_matches_brute_force(fast, source, target)
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
        cr, ci = Fraction(lr, rng.randint(1, 5)), Fraction(li, rng.randint(1, 5))
        coords = [(v[k], v[k + 1]) for k in (0, 2, 4)]
        scaled = [_literal(cr * xr - ci * xi, cr * xi + ci * xr) for xr, xi in coords]
        for cls in (ProjPoint, Line):
            a, b = cls(*[_literal(xr, xi) for xr, xi in coords]), cls(*scaled)
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


def permutation_pairs(config, maps):
    return equivalence_module._permutation_pairs([p.z for p in config.points], maps)


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
            permutation_pairs(config, [SemiProjMap.identity(), g])

    pairs = permutation_pairs(STANDARD_FRAME, aut_group(STANDARD_FRAME))
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
            permutation_pairs(STANDARD_FRAME, maps)
    # points in stored order (0:0:1), (0:1:0), (1:0:0), (1:1:1)
    group = [identity, cycle, cycle * cycle]
    assert permutation_pairs(STANDARD_FRAME, group) == [
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
    # a fresh object: FAMILY_F may keep symmetries from earlier tests
    with pytest.raises(InternalError, match=FAULT_MESSAGES[fault]):
        aut_group(PointConfig(FAMILY_F.points))


# --- reduction to the line -----------------------------------------------------------


def _assert_chart_lands_in(reduction, config):
    """The chart that lifts line maps sends each (s, t, 0) of the reduced set into config."""
    chart = oracle_matrix(reduction.chart_matrix())
    for p in reduction.config:
        image = zi_oracle.matvec(chart, _pairs(p.z) + ((0, 0),))
        assert ProjPoint.from_z(_flat(image)) in config


def test_reduce_collinear_standard_chart():
    config = PointConfig([pt(k, 1, 0) for k in range(4)])
    reduction = reduce_to_line(config)
    assert reduction.residue is None
    expected = {ProjPoint(k, 1) for k in range(4)}
    assert set(reduction.config.points) == expected
    _assert_chart_lands_in(reduction, config)


def test_reduce_line_plus_point():
    config = PointConfig([pt(k, 1, 0) for k in range(4)] + [pt(0, 0, 1)])
    reduction = reduce_to_line(config)
    assert reduction.residue == pt(0, 0, 1)
    assert len(reduction.config) == 4
    _assert_chart_lands_in(reduction, config)


def test_reduce_rejects_frame_class():
    with pytest.raises(WrongClassError):
        reduce_to_line(STANDARD_FRAME)


def test_reduction_conj_matches_reducing_the_conjugate():
    rng = random.Random(24)
    for _ in range(10):
        values = set()
        while len(values) < 4:
            values.add((rng.randint(-5, 5), rng.randint(-5, 5)))
        points = [ProjPoint.from_z((a, b, 1, 0, 0, 0)) for a, b in values]
        config = PointConfig(points)
        reduction = reduce_to_line(config)
        other = reduce_to_line(config.conj())
        assert other.config == reduction.config.conj()
        assert other.basis == zconj(reduction.basis)
        assert other.off == zconj(reduction.off)


# --- the projective line -------------------------------------------------------------


def _p1(s, t):
    return ProjPoint(s, t)


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
    # sets of unequal size have no map between them
    assert pgl2_equivalences(line, PointConfig(line.points[:3])) == []


def test_pgl2_four_points_match_brute_force():
    for lam in (2, -1, "2+1i", "5/3"):
        config = PointConfig([_p1(0, 1), _p1(1, 1), _p1(1, 0), _p1(lam, 1)])
        maps = pgl2_equivalences(config, config)
        assert 24 % len(maps) == 0
        assert_matches_brute_force(maps, config, config)


def _random_line_config(rng, size):
    points = set()
    while len(points) < size:
        if rng.random() < 0.15:
            points.add(_p1(1, 0))
        else:
            points.add(ProjPoint.from_z((rng.randint(-4, 4), rng.randint(-4, 4), 1, 0)))
    return PointConfig(points)


def _random_line_twist(rng):
    while True:
        rows = tuple(
            tuple((rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(2))
            for _ in range(2)
        )
        if zi_oracle.det2(*rows) != (0, 0):
            return oracle_map(rows)


def _stable_line_config(rng, size):
    """A twist of a conjugation-stable set of the line: conj(L) -> L maps exist."""
    while True:
        points = set()
        while len(points) < size:
            p = ProjPoint.from_z((rng.randint(-4, 4), rng.randint(-4, 4), 1, 0))
            points.update((p, p.conj()))
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
        assert_matches_brute_force(maps, source, target)
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
        assert_matches_brute_force(maps, source, target)


def _det2(p, q):
    return zi_oracle.det2(_pairs(p.z), _pairs(q.z))


def _cross_ratio(z1, z2, z3, z4):
    """cr(z1, z2, z3, z4) = ((z1-z3)(z2-z4)) / ((z1-z4)(z2-z3)), homogeneously.

    The value n/d is returned as the pair (n, d), a point of the line.
    """
    return (zi_oracle.mul(_det2(z1, z3), _det2(z2, z4)),
            zi_oracle.mul(_det2(z1, z4), _det2(z2, z3)))


def test_pgl2_preserves_cross_ratio():
    rng = random.Random(25)
    for _ in range(20):
        values = set()
        while len(values) < 4:
            values.add((rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(0, 1)))
        pts = [
            ProjPoint.from_z((a, b, t, 0) if t else (1, 0, a, b))
            for a, b, t in values
        ]
        if len(set(pts)) < 4:
            continue
        config = PointConfig(pts[:4]) if len(set(pts[:4])) == 4 else None
        if config is None:
            continue
        maps = pgl2_equivalences(config, config)
        z = config.points
        n, d = _cross_ratio(*z)
        # r, 1/r, 1 - r, 1/(1 - r), (r - 1)/r and r/(r - 1) for r = n/d
        n_d, d_n = zi_oracle.sub(n, d), zi_oracle.sub(d, n)
        orbit = {zi_oracle.normal(v) for v in (
            (n, d), (d, n), (d_n, d), (d, d_n), (n_d, n), (n, n_d))}
        for g in maps:
            images = [g.apply(p) for p in z]
            value = zi_oracle.normal(_cross_ratio(*images))
            assert value in orbit


# --- anchor independence of the bracket keys ----------------------------------------


def _anchor_cases():
    octahedral = [_p1(0, 1), _p1(1, 0), _p1(1, 1), _p1(-1, 1), _p1("0+1i", 1), _p1("0-1i", 1)]
    return {
        "frame48": STANDARD_FRAME,
        "square16": PointConfig(FAMILY_F.points + (pt(0, 0, 1),)),
        "twisted_s": _random_twist(random.Random(4)).apply(_paper_family(["2+1i"])),
        "random6": _random_config(random.Random(9), 6),
        "line_octahedral": _random_line_twist(random.Random(3)).apply(PointConfig(octahedral)),
    }


@pytest.mark.parametrize("name", sorted(_anchor_cases()))
def test_bracket_keys_do_not_depend_on_the_anchor(name):
    # every frame of S anchors S -> S and conj(S) -> S to the same sorted
    # maps as the anchor the library picks
    config = _anchor_cases()[name]
    points = config.points
    if len(points[0].z) == 6:
        witness = equivalence_module.Symmetries(config)
        expected = {
            "self": witness.holomorphic,
            "conj": tuple(SemiProjMap.from_z(g.z) for g in witness.conjugate),
        }
        anchors = [
            quad for quad in itertools.combinations(range(len(points)), 4)
            if all(zi_oracle.det3(*[_pairs(points[k].z) for k in triple]) != (0, 0)
                   for triple in itertools.combinations(quad, 3))
        ]
    else:
        expected = {
            "self": tuple(pgl2_equivalences(config, config)),
            "conj": tuple(pgl2_equivalences(config.conj(), config)),
        }
        anchors = list(itertools.combinations(range(len(points)), 3))
    assert anchors
    table = equivalence_module._brackets(points)
    for anchor in anchors:
        assert tuple(equivalence_module._keyed_equivalences(table, anchor, table)) \
            == expected["self"], anchor
        assert tuple(equivalence_module._keyed_equivalences(table.conj(), anchor, table)) \
            == expected["conj"], anchor


# --- the residue filter in front of the exact keys ------------------------------------


def test_filter_prime_has_a_square_root_of_minus_one():
    p, i = equivalence_module.P, equivalence_module.I
    assert p % 4 == 1 and _is_prime(p)
    assert (i * i + 1) % p == 0


class _Scaled:
    """A point whose stored vector is z times the Gaussian integer c, not normalized."""

    def __init__(self, point, c):
        self.z = zscale(c, point.z)


def _filter_cases():
    """(name, source table, anchor, target table), with tables built under the current P."""
    brackets = equivalence_module._brackets
    cases = []

    def both_ways(name, points, anchor):
        table = brackets(points)
        cases.append((name + " self", table, anchor, table))
        cases.append((name + " conj", table.conj(), anchor, table))

    def pair(name, config, rng):
        twisted = _random_twist(rng).apply(config)
        anchor = equivalence_module.Symmetries(config).anchor
        cases.append((name + " pair", brackets(config.points), anchor, brackets(twisted.points)))
        return anchor

    generic = _random_config(random.Random(5), 11)
    both_ways("generic", generic.points, pair("generic", generic, random.Random(6)))
    # the sizes at which the filter's index loops have their shortest ranges
    for n in (5, 6, 7):
        pair(f"generic n={n}", _random_config(random.Random(n), n), random.Random(10 + n))
    for m in (1, 2, 3):
        for variant in ("S", "Sprime"):
            config = family(FamilyParams(m, DEFAULT_POOL[:m], variant))
            both_ways(f"{variant} m={m}", config.points,
                      equivalence_module.Symmetries(config).anchor)
    # a source table that is not the target's (S twisted), and a set whose
    # eight symmetries give many anchor orderings one ratio set
    pair("S m=2", family(FamilyParams(2, DEFAULT_POOL[:2], "S")), random.Random(8))
    square16 = PointConfig(FAMILY_F.points + (pt(0, 0, 1),))
    both_ways("square16", square16.points, equivalence_module.Symmetries(square16).anchor)
    for name, config in (("frame48", STANDARD_FRAME),
                          ("twisted frame", _random_twist(random.Random(7)).apply(FAMILY_F))):
        both_ways(name, config.points, (0, 1, 2, 3))
    collinear_set = PointConfig([pt(k, 1, 2 * k) for k in range(6)])
    line_plus_point = PointConfig([pt(k, k * k + 1, 0) for k in range(5)] + [pt(0, 0, 1)])
    four_collinear = PointConfig([pt("1+1i", 1, 0), pt("1-1i", 1, 0), pt(2, 1, 0), pt(0, 1, 0)])
    for name, config in (("collinear", collinear_set), ("line plus point", line_plus_point),
                         ("four collinear", four_collinear)):
        both_ways(name, reduce_to_line(config).config.points, (0, 1, 2))
    # (P, I) = (13, 5) maps 3 + 2i to 0, so every residue of the scaled
    # table vanishes: the filter is off when it is the source, and skips
    # every point when it is the target
    small = _random_config(random.Random(4), 5)
    scaled = [_Scaled(p, (3, 2)) for p in small.points]
    anchor = equivalence_module.Symmetries(small).anchor
    cases.append(("scaled source", brackets(scaled), anchor, brackets(small.points)))
    cases.append(("scaled target", brackets(small.points), anchor, brackets(scaled)))
    # only the last point scaled: (13, 5) gives it D = 0 mod p at the
    # matching frames, while the filter is on
    s_1 = family(FamilyParams(1, DEFAULT_POOL[:1], "S"))
    one_scaled = list(s_1.points[:-1]) + [_Scaled(s_1.points[-1], (3, 2))]
    cases.append(("one scaled point", brackets(s_1.points),
                  equivalence_module.Symmetries(s_1).anchor, brackets(one_scaled)))
    return cases


def _filtered_enumerations(monkeypatch, p, i):
    monkeypatch.setattr(equivalence_module, "P", p)
    monkeypatch.setattr(equivalence_module, "I", i)
    return {name: tuple(equivalence_module._keyed_equivalences(source, anchor, target))
            for name, source, anchor, target in _filter_cases()}


def _residue_rows(table, keys):
    """{f: residue row of f} for both orders of each key, a pair of points in
    the plane, and for f = (key,) for each key, a point, on the line."""
    rows = {}
    for key in keys:
        if isinstance(key, tuple):
            for f in itertools.permutations(key):
                rows[f] = table.residues[f[0]][f[1]]
        else:
            rows[(key,)] = table.residues[key]
    return rows


def _assert_residue_rows(table, keys, p, i):
    """Each residue row is the image of the exact row, or of its negative, under
    a + bi -> a + bI mod p; a residue vanishes only with its bracket; and the
    inverses are right."""
    for f, (residues, inverses) in _residue_rows(table, keys).items():
        exact = [(0, 0) if t in f else table.bracket((t,) + f) for t in range(len(table.vectors))]
        images = [(x + y * i) % p for x, y in exact]
        assert residues in (images, [-r % p for r in images]), f
        assert all((x == (0, 0)) == (r == 0) for x, r in zip(exact, residues)), f
        assert [r * v % p for r, v in zip(residues, inverses)] == [int(r != 0) for r in residues]


def test_enumerations_do_not_depend_on_the_filter_prime(monkeypatch):
    default = (equivalence_module.P, equivalence_module.I)
    # with the filter off, every quad is tried with every ordering
    with monkeypatch.context() as patched:
        patched.setattr(equivalence_module, "_source_masks", lambda *args: None)
        unfiltered = _filtered_enumerations(patched, *default)
    expected = _filtered_enumerations(monkeypatch, *default)
    assert expected == unfiltered
    assert expected["generic pair"] and expected["S m=3 conj"]
    assert expected["frame48 self"] and expected["collinear conj"]
    assert len(expected["S m=2 pair"]) == 2 and len(expected["square16 conj"]) == 8
    assert all(len(expected[f"generic n={n} pair"]) == 1 for n in (5, 6, 7))
    assert len(expected["four collinear self"]) == 8 and expected["four collinear conj"]  # harmonic
    # (P, I) = (5, 2) passes candidates, pairs of a frame and an ordering
    # left in its mask, whose maps the exact check refuses
    filtered_frames = equivalence_module._filtered_frames
    frame_matrix = equivalence_module._frame_matrix
    candidates = []

    def counted(target, d, masks, every):
        for frame, mask in filtered_frames(target, d, masks, every):
            if frame_matrix(target, frame) is not None:
                candidates.append(bin(mask).count("1"))
            yield frame, mask

    with monkeypatch.context() as patched:
        patched.setattr(equivalence_module, "_filtered_frames", counted)
        coarse = _filtered_enumerations(patched, 5, 2)
    assert coarse == expected
    assert sum(candidates) > sum(map(len, coarse.values()))
    for p, i in ((13, 5), default):
        assert _filtered_enumerations(monkeypatch, p, i) == expected, (p, i)
    small = _random_config(random.Random(4), 5)
    assert expected["scaled source"] == expected["scaled target"] == tuple(aut_group(small))
    assert expected["one scaled point"] == expected["S m=1 self"]
    # under (13, 5), the rows of small's table and its conjugate, and of a
    # set of the line and its conjugate, pass `_assert_residue_rows`; every
    # residue of a scaled table vanishes
    monkeypatch.setattr(equivalence_module, "P", 13)
    monkeypatch.setattr(equivalence_module, "I", 5)
    brackets = equivalence_module._brackets
    line = reduce_to_line(PointConfig([pt(k, 1, 2 * k) for k in range(6)])).config
    for points, keys in ((small.points, list(itertools.combinations(range(5), 2))),
                         (line.points, list(range(6)))):
        table = brackets(points)
        for tab in (table, table.conj()):
            tab.build_residues(keys)
            _assert_residue_rows(tab, keys, 13, 5)
        scaled = brackets([_Scaled(p, (3, 2)) for p in points])
        scaled.build_residues(keys)
        assert not any(any(residues) for residues, _ in _residue_rows(scaled, keys).values())


def test_residue_filter_prunes_a_refuted_generic_input(monkeypatch):
    # without the filter, the frame matrices of 330 target quads and 24
    # source orderings are built
    frame_matrix = equivalence_module._frame_matrix
    calls = []

    def counted(table, frame):
        calls.append(frame)
        return frame_matrix(table, frame)

    monkeypatch.setattr(equivalence_module, "_frame_matrix", counted)
    config = _random_config(random.Random(11), 11)
    assert not descends_real(config).descends
    assert len(calls) <= 25


def test_residue_rows_take_one_inverse_per_batch(monkeypatch):
    # conj(S) -> S builds the anchor's rows of the conjugate table in one
    # batch and the target's in one batch per first point, n - 2 of them;
    # rows built one at a time took 50 modular inverses on this input.
    # S -> S then reads the same table and builds no row again.
    with_inverses = equivalence_module._with_inverses
    batches = []

    def counted(rows):
        batches.append(len(rows))
        return with_inverses(rows)

    monkeypatch.setattr(equivalence_module, "_with_inverses", counted)
    config = _random_config(random.Random(11), 11)
    sym = equivalence_module.Symmetries(config)
    assert sym.conjugate == ()
    n = len(config)
    assert len(batches) <= (n - 1) + 1
    assert max(batches) < n
    batches.clear()
    assert len(sym.holomorphic) == 1 and batches == []


def test_source_keying_is_pruned_to_the_matching_ordering(monkeypatch):
    # a descending generic input builds two frame matrices: its one
    # matching target frame's and the one anchor ordering's that matches
    # it; trying every ordering would build 1 + 24
    frame_matrix = equivalence_module._frame_matrix
    calls = []

    def counted(table, frame):
        calls.append(table)
        return frame_matrix(table, frame)

    monkeypatch.setattr(equivalence_module, "_frame_matrix", counted)
    rng = random.Random(12)
    config = _random_twist(rng).apply(_random_config(rng, 11, real=True))
    assert descends_real(config).descends
    assert len(calls) == 2 and calls[0] is equivalence_module.Symmetries.of(config).brackets
    assert len(aut_group(config)) == 1
