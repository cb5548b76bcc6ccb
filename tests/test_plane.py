import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import planar_descent
import zi_oracle
from planar_descent.cli import map_from_json, map_to_json, point_from_string
from planar_descent.errors import InvalidInputError
from planar_descent.families import FamilyParams
from planar_descent.gaussian import scan_gq
from planar_descent.plane import (
    DegenerateInputError,
    Line,
    PointConfig,
    ProjPoint,
    SemiProjMap,
    collinear,
    line_through,
    zadjugate2,
    zadjugate3,
    zclear,
    zcolumns,
    zconj,
    zdet2,
    zdet3,
    zlead,
    zmatmul,
    zmatvec,
    znormal,
    znormal_matrix,
    zscale,
)


def pt(a, b, c):
    return ProjPoint(a, b, c)


def _random_point(rng, dim=3):
    while True:
        # real and imaginary parts of each coordinate, as (numerator, denominator)
        parts = [(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(2 * dim)]
        if any(num for num, _ in parts):
            return ProjPoint.from_z(zclear(parts))


def _random_map(rng, antiholo=False, dim=3):
    while True:
        rows = tuple(
            tuple(x for _ in range(dim) for x in (rng.randint(-4, 4), rng.randint(-4, 4)))
            for _ in range(dim)
        )
        if (zdet2 if dim == 2 else zdet3)(*rows) != (0, 0):
            return SemiProjMap.from_z(rows, antiholo)


# --- one representation ---------------------------------------------------------


PACKAGE = Path(planar_descent.__file__).resolve().parent


def _names(module):
    """Every module and name that a source file of the package imports, defines
    or reads, read with `ast`."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
            yield from (alias.name for alias in node.names)
        elif isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            yield node.name
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


@pytest.mark.parametrize("module", sorted(path.stem for path in PACKAGE.glob("*.py")))
def test_points_lines_and_maps_have_one_representation(module):
    # they are normalized Z[i] tuples, scalars are ints and Z[i] pairs, and
    # Q(i) values exist only as text
    names = set(_names(module))
    assert names
    for name in ("fractions", "Fraction", "GaussianRational"):
        assert name not in names, (module, name)


@pytest.mark.parametrize("module", sorted(path.stem for path in PACKAGE.glob("*.py")
                                          if path.stem != "__init__"))
def test_every_imported_name_is_used(module):
    # `__init__` imports only to re-export; anywhere else a name imported
    # and never read is a leftover
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
    assert imported <= read, (module, sorted(imported - read))


# --- canonical forms ------------------------------------------------------------


def _text(obj):
    """The Q(i) literals of a point or line, read off its text."""
    return str(obj)[1:-1].split(":")


def _rows(g):
    """The Q(i) literals of a map, row by row."""
    entries, n = g.text(), len(g.z)
    return [entries[j:j + n] for j in range(0, len(entries), n)]


def test_point_canonical_form():
    assert str(pt(0, 2, 4)) == str(pt(0, 1, 2))
    assert str(pt("0+2i", "2", "0")) == "(1:0-1i:0)"
    assert str(pt(-2, 0, 2)) == "(1:0:-1)"


def _random_scalar(rng):
    """A nonzero Q(i) scalar with small parts, times its denominators: a Z[i] one."""
    while True:
        a, b = rng.randint(-6, 6), rng.randint(1, 4)
        c, d = rng.randint(-6, 6), rng.randint(1, 4)
        if a or c:
            return (a * d, c * b)


def test_canonicalization_idempotent():
    rng = random.Random(10)
    for _ in range(50):
        p = _random_point(rng)
        assert ProjPoint(*_text(p)) == p
        g = _random_map(rng)
        assert SemiProjMap(_rows(g), g.antiholo) == g
        # a Z[i] multiple is the same object, with the same output bytes
        c = _random_scalar(rng)
        q = ProjPoint.from_z(zscale(c, p.z))
        assert q == p and hash(q) == hash(p) and str(q) == str(p) and q.key() == p.key()
        h = SemiProjMap.from_z(zscale(c, g.z), g.antiholo)
        assert h == g and hash(h) == hash(g) and repr(h) == repr(g) and h.key() == g.key()
        # the text is the stored Z[i] tuple divided by its leading entry
        lead = zlead(p.z)
        assert [(Fraction(rn, rd) * lead, Fraction(im, idn) * lead)
                for rn, rd, im, idn in map(scan_gq, _text(p))] == list(zip(p.z[::2], p.z[1::2]))
    line = line_through(pt(1, 2, 3), pt(0, 1, 1))
    assert Line(*_text(line)) == line


def test_config_points_sort_by_normal_form():
    rng = random.Random(11)
    for _ in range(30):
        points = list({_random_point(rng) for _ in range(rng.randint(1, 8))})
        expected = sorted(p.z for p in points)
        for _ in range(3):
            rng.shuffle(points)
            scales = [_random_scalar(rng) for _ in points]
            scaled = [ProjPoint.from_z(zscale(c, p.z)) for c, p in zip(scales, points)]
            config = PointConfig(scaled)
            assert [p.z for p in config.points] == expected
            assert list(config.points) == sorted(points)
            assert PointConfig(_text(p) for p in scaled) == config


def _random_big_point(rng, dim=3):
    """A point of the line or plane with 1- to 14-digit Z[i] parts, some of them zero."""
    while True:
        v = [rng.choice((0, rng.randint(-9, 9), rng.randint(-10 ** 14, 10 ** 14)))
             for _ in range(2 * dim)]
        if any(v):
            return ProjPoint.from_z(v)


def test_text_of_points_lines_and_maps_parses_back():
    rng = random.Random(12)
    for _ in range(100):
        p, q = _random_big_point(rng), _random_big_point(rng)
        assert point_from_string(str(p)) == p
        on_line = _random_big_point(rng, 2)
        assert ProjPoint(*_text(on_line)) == on_line
        if p != q:
            line = line_through(p, q)
            assert Line(*_text(line)) == line
        rows = [_random_big_point(rng).z for _ in range(3)]
        if zdet3(*rows) == (0, 0):
            continue
        g = SemiProjMap.from_z(rows, antiholo=rng.random() < 0.5)
        assert map_from_json(map_to_json(g)) == g
        kind, body = repr(g)[len("SemiProjMap<"):-1].split(": ")
        assert SemiProjMap([row.split(" ") for row in body.split("; ")], kind == "antiholo") == g


def test_point_rejects_zero():
    with pytest.raises(Exception):
        ProjPoint(0, 0, 0)


def test_floats_rejected():
    with pytest.raises(InvalidInputError):
        ProjPoint(0.5, 1, 0)
    with pytest.raises(InvalidInputError):
        Line(1, 0.25, 0)
    with pytest.raises(InvalidInputError):
        SemiProjMap(((1, 0), (0, 0.25)))


@pytest.mark.parametrize("value", [None, [1], Fraction(1, 2), 1j],
                         ids=["None", "list", "Fraction", "complex"])
def test_coordinates_are_ints_or_literals(value):
    for build in (lambda: ProjPoint(value, 1, 0), lambda: Line(value, 1, 0),
                  lambda: SemiProjMap(((value, 0), (0, 1))), lambda: FamilyParams(1, [value])):
        with pytest.raises(InvalidInputError):
            build()


def test_dimension_mismatches_rejected():
    for coords in ((1,), (1, 0, 0, 1)):
        with pytest.raises(InvalidInputError):
            ProjPoint(*coords)
    with pytest.raises(InvalidInputError):
        SemiProjMap(((1, 0, 0), (0, 1, 0)))
    plane_map = SemiProjMap.identity()
    line_map = SemiProjMap(((0, 1), (1, 0)))
    with pytest.raises(InvalidInputError):
        plane_map.apply(ProjPoint(1, 2))
    with pytest.raises(InvalidInputError):
        line_map.apply(pt(1, 2, 3))
    with pytest.raises(InvalidInputError):
        plane_map.apply(PointConfig([ProjPoint(1, 2), ProjPoint(0, 1)]))
    with pytest.raises(InvalidInputError):
        plane_map * line_map
    with pytest.raises(InvalidInputError):
        PointConfig([ProjPoint(1, 2), pt(1, 2, 3)])
    # plane helpers on points of the line
    a, b, c = (ProjPoint(s, 1) for s in range(3))
    with pytest.raises(InvalidInputError):
        collinear(a, b, c)
    with pytest.raises(InvalidInputError):
        line_through(a, b)
    with pytest.raises(InvalidInputError):
        Line(0, 0, 1).contains(a)


# --- incidence ------------------------------------------------------------------


def test_collinear_examples():
    assert collinear(pt(1, 0, 0), pt(0, 1, 0), pt(1, 1, 0))
    assert not collinear(pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1))
    assert not collinear(pt(1, 0, 1), pt(-1, 0, 1), pt(0, 1, 1))


def test_line_through_example():
    assert line_through(pt(1, 0, 1), pt(-1, 0, 1)) == Line(0, 1, 0)


def test_line_through_equal_points_rejected():
    with pytest.raises(DegenerateInputError):
        line_through(pt(1, 2, 3), pt(2, 4, 6))


def test_point_on_line_iff_collinear():
    rng = random.Random(11)
    for _ in range(50):
        p, q, r = (_random_point(rng) for _ in range(3))
        if p == q:
            continue
        assert line_through(p, q).contains(r) == collinear(p, q, r)


# --- semilinear maps --------------------------------------------------------------


def test_rotation_conjugation_squares_to_half_turn():
    phi = SemiProjMap(((0, -1, 0), (1, 0, 0), (0, 0, 1)), antiholo=True)
    m = SemiProjMap(((-1, 0, 0), (0, -1, 0), (0, 0, 1)))
    assert phi * phi == m
    assert not (phi * phi).antiholo


def test_half_turn_action_and_involution():
    m = SemiProjMap(((-1, 0, 0), (0, -1, 0), (0, 0, 1)))
    assert m.apply(pt(1, 0, 1)) == pt(-1, 0, 1)
    assert m.inverse() == m
    assert (m * m).is_identity()


def test_antiholo_apply_conjugates_first():
    phi = SemiProjMap(((0, -1, 0), (1, 0, 0), (0, 0, 1)), antiholo=True)
    # (a:b:c) -> (-conj(b):conj(a):conj(c))
    assert phi.apply(pt("2+1i", "1", "0")) == pt("-1", "2-1i", "0")


@pytest.mark.parametrize("dim", [2, 3])
def test_apply_respects_composition(dim):
    rng = random.Random(15)
    for _ in range(60):
        g = _random_map(rng, antiholo=rng.random() < 0.5, dim=dim)
        h = _random_map(rng, antiholo=rng.random() < 0.5, dim=dim)
        p = _random_point(rng, dim)
        assert (g * h).apply(p) == g.apply(h.apply(p))
        config = PointConfig({p, _random_point(rng, dim), _random_point(rng, dim)})
        assert g.apply(config) == PointConfig([g.apply(q) for q in config])
        assert (g * g.inverse()).is_identity()
        assert (g.inverse() * g).is_identity()


def test_conj_config_examples():
    single = PointConfig([pt("2+1i", 1, 0)])
    assert single.conj() == PointConfig([pt("2-1i", 1, 0)])
    stable = PointConfig([pt(1, 0, 0), pt(0, 1, 0), pt(1, 1, 1)])
    assert stable.conj() == stable
    assert single.conj().conj() == single


def test_config_rejects_duplicates():
    with pytest.raises(Exception):
        PointConfig([pt(1, 0, 0), pt(2, 0, 0)])


def test_empty_config_and_singular_map_rejected():
    with pytest.raises(InvalidInputError, match="at least one point"):
        PointConfig([])
    with pytest.raises(InvalidInputError, match="singular"):
        SemiProjMap(((1, 2, 0), (2, 4, 0), (0, 0, 1)))


# --- the fixed-shape kernels against the Z[i] oracle ----------------------------------


_kernel_settings = settings(max_examples=60, deadline=None, derandomize=True, database=None)
_ints = st.one_of(st.just(0), st.integers(-60, 60), st.integers(-2 ** 80, 2 ** 80))
_gaussians = st.tuples(_ints, _ints)
_nonzero_ints = st.integers(1, 2 ** 80)
# leading entries: positive real, negative real, purely imaginary, or any
_leads = st.one_of(
    _nonzero_ints.map(lambda x: (x, 0)),
    _nonzero_ints.map(lambda x: (-x, 0)),
    st.tuples(st.just(0), st.one_of(_nonzero_ints, _nonzero_ints.map(lambda y: -y))),
    _gaussians.filter(lambda x: x != (0, 0)),
)


def _entries(size):
    return st.lists(_gaussians, min_size=size, max_size=size)


@st.composite
def _nonzero_entries(draw, size):
    """size Gaussian integers: some zero ones, a nonzero lead (`_leads`), then any ones."""
    zeros = draw(st.integers(0, size - 1))
    return [(0, 0)] * zeros + [draw(_leads)] + draw(_entries(size - zeros - 1))


def _square(entries, n):
    """n * n Gaussian integers as the rows of an oracle matrix."""
    return tuple(tuple(entries[r * n:(r + 1) * n]) for r in range(n))


def _flat(v):
    """Gaussian integers of the oracle as one flat Z[i] tuple, as the kernels read them."""
    return tuple(part for x in v for part in x)


def _z(m):
    """An oracle matrix as a tuple of flat Z[i] rows."""
    return tuple(map(_flat, m))


@pytest.mark.parametrize("n", [2, 3])
@_kernel_settings
@given(data=st.data())
def test_products_match_the_oracle(n, data):
    a = _square(data.draw(_entries(n * n)), n)
    b = _square(data.draw(_entries(n * n)), n)
    v = data.draw(_entries(n))
    assert zmatmul(_z(a), _z(b)) == _z(zi_oracle.matmul(a, b))
    assert zmatvec(_z(a), _flat(v)) == _flat(zi_oracle.matvec(a, v))


@pytest.mark.parametrize("n", [2, 3])
@_kernel_settings
@given(data=st.data())
def test_conj_scale_and_columns_match_the_oracle(n, data):
    m = _square(data.draw(_entries(n * n)), n)
    v = data.draw(_entries(n))
    c = data.draw(_gaussians)
    assert zconj(_flat(v)) == _flat(zi_oracle.conj((v,))[0])
    assert zconj(_z(m)) == _z(zi_oracle.conj(m))
    assert zscale(c, _flat(v)) == _flat([zi_oracle.mul(c, x) for x in v])
    assert zscale(c, _z(m)) == _z([[zi_oracle.mul(c, x) for x in row] for row in m])
    # the columns of zcolumns(m) are the rows of m
    assert zcolumns(_z(m)) == _z(tuple(zip(*m)))


@pytest.mark.parametrize("n", [2, 3])
@_kernel_settings
@given(data=st.data())
def test_determinants_and_adjugates_match_the_oracle(n, data):
    m = _square(data.draw(_entries(n * n)), n)
    if n == 3:
        assert zdet3(*_z(m)) == zi_oracle.det3(*m)
        assert zadjugate3(_z(m)) == _z(zi_oracle.adjugate(m))
    else:
        (a, b), (c, d) = m
        assert zdet2(*_z(m)) == zi_oracle.det2(*m)
        assert zadjugate2(_z(m)) == _z(((d, zi_oracle.neg(b)), (zi_oracle.neg(c), a)))


@pytest.mark.parametrize("n", [2, 3])
@_kernel_settings
@given(data=st.data())
def test_normal_forms_match_the_oracle(n, data):
    v = data.draw(_nonzero_entries(n))
    m = _square(data.draw(_nonzero_entries(n * n)), n)
    assert znormal(_flat(v)) == _flat(zi_oracle.normal(v))
    assert znormal_matrix(_z(m)) == _z(zi_oracle.normal_matrix(m))
