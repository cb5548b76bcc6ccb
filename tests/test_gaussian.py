import random
from fractions import Fraction

import re

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.ntheory.primetest import is_strong_lucas_prp

from planar_descent.gaussian import (
    GaussianRational,
    NotANormError,
    ParseError,
    format_gq,
    format_zi,
    gq,
    parse_gq,
    scan_gq,
    _factorize,
    _is_prime,
    _strong_lucas_probable_prime,
    two_squares,
)
from planar_descent.plane import _qi_text, zlead, znormal

# the least strong pseudoprimes to the first 12 and 13 prime bases
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_mul_conjugate_pair():
    assert gq("2+1i") * gq("2-1i") == GaussianRational(5)


def test_div_one_by_i():
    assert gq("1") / gq("0+1i") == GaussianRational(0, -1)


def test_add_conjugate_pair():
    assert gq("1/2+1/3i") + gq("1/2-1/3i") == GaussianRational(1)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        gq("1+1i") / GaussianRational(0)


def test_floats_rejected():
    with pytest.raises(Exception):
        GaussianRational(0.5)
    with pytest.raises(Exception):
        GaussianRational(1, 0.25)


def test_conj_examples():
    assert gq("2+1i").conj() == gq("2-1i")
    assert gq("3").conj() == gq("3")
    assert gq("0+5/7i").conj() == gq("0-5/7i")
    assert gq("2+1i").conj().conj() == gq("2+1i")


def test_norm_examples():
    assert gq("2+1i").norm() == Fraction(5)
    assert gq("0+1i").norm() == Fraction(1)
    assert gq("1/2+1/2i").norm() == Fraction(1, 2)


def test_two_squares_five():
    assert two_squares(5) == gq("2+1i")


def test_two_squares_13_over_17():
    # 13 = N(3+2i), 17 = N(4+1i); (3+2i)/(4+1i) = 14/17 + 5/17 i
    value = two_squares(Fraction(13, 17))
    assert value == gq("14/17+5/17i")
    assert value.norm() == Fraction(13, 17)


def test_two_squares_three_fails():
    with pytest.raises(NotANormError):
        two_squares(3)


def test_two_squares_rejects_nonpositive():
    with pytest.raises(NotANormError):
        two_squares(0)
    with pytest.raises(NotANormError):
        two_squares(Fraction(-5))


def test_parse_examples():
    assert parse_gq("2+1i") == GaussianRational(2, 1)
    assert parse_gq("-3/4") == GaussianRational(Fraction(-3, 4))
    assert parse_gq("0-5/7i") == GaussianRational(0, Fraction(-5, 7))


def test_parse_requires_coefficient_on_i():
    with pytest.raises(ParseError) as info:
        parse_gq("1+i")
    assert info.value.position == 2


def test_parse_rejects_trailing_garbage():
    with pytest.raises(ParseError):
        parse_gq("2+1i junk")
    with pytest.raises(ParseError):
        parse_gq("2+1")


def test_parse_rejects_zero_denominator():
    with pytest.raises(ParseError):
        parse_gq("1/0")


def _random_value(rng):
    return GaussianRational(
        Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
        Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
    )


def test_field_axioms_on_random_operands():
    rng = random.Random(1)
    for _ in range(200):
        x, y, z = (_random_value(rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        assert x * y == y * x
        if y:
            assert (x / y) * y == x
        if x:
            assert x * x.inverse() == GaussianRational(1)


def test_norm_is_multiplicative():
    rng = random.Random(2)
    for _ in range(200):
        x, y = _random_value(rng), _random_value(rng)
        assert (x * y).norm() == x.norm() * y.norm()


def test_conj_is_a_field_automorphism():
    rng = random.Random(3)
    for _ in range(200):
        x, y = _random_value(rng), _random_value(rng)
        assert (x * y).conj() == x.conj() * y.conj()
        assert (x + y).conj() == x.conj() + y.conj()


def test_two_squares_on_random_norms():
    rng = random.Random(4)
    for _ in range(100):
        x = _random_value(rng)
        if not x:
            continue
        mu = x.norm()
        t = two_squares(mu)
        assert t.norm() == mu


def test_format_parse_round_trip():
    rng = random.Random(5)
    for _ in range(200):
        x = _random_value(rng)
        assert parse_gq(format_gq(x)) == x
    assert format_gq(GaussianRational(0)) == "0"
    assert format_gq(GaussianRational(2, -1)) == "2-1i"
    assert format_gq(GaussianRational(0, Fraction(5, 7))) == "0+5/7i"


# --- the integer formatter and scanner against the Fraction rules --------------

_derandomized = settings(max_examples=300, deadline=None, derandomize=True, database=None)
_parts = st.one_of(
    st.just(0), st.integers(-60, 60), st.integers(-10 ** 15, 10 ** 15),
)
_leads = st.one_of(st.just(1), st.integers(1, 60), st.integers(10 ** 11, 10 ** 15))


def _fraction_format(re, im):
    """The formatting rule stated on Fraction parts: str of each, "i" on a nonzero im."""
    if im == 0:
        return str(re)
    return f"{re}{'-' if im < 0 else '+'}{abs(im)}i"


def _fraction_parts(v, lead):
    """The entries of a flat Z[i] tuple divided by lead, as (re, im) Fraction pairs."""
    return [(Fraction(v[j], lead), Fraction(v[j + 1], lead)) for j in range(0, len(v), 2)]


@_derandomized
@given(st.lists(_parts, min_size=2, max_size=6).filter(lambda v: len(v) % 2 == 0), _leads)
def test_integer_formatter_matches_fraction_formatting(v, lead):
    expected = [_fraction_format(re, im) for re, im in _fraction_parts(v, lead)]
    assert [format_zi(v[j], v[j + 1], lead) for j in range(0, len(v), 2)] == expected
    assert [format_gq(GaussianRational(re, im)) for re, im in _fraction_parts(v, lead)] == expected
    if any(v):
        z = znormal(v)
        assert _qi_text(z) == [_fraction_format(re, im) for re, im in _fraction_parts(z, zlead(z))]


_RATIONAL = re.compile(r"(-?\d+)(?:/(\d+))?")


def _fraction_parse(text):
    """The grammar read with Fractions: (value, None) or (None, (message, position))."""
    parts, pos = [], 0
    for k in range(2):
        m = _RATIONAL.match(text, pos)
        if m is None:
            return None, ("expected a rational number", pos)
        if m.group(2) is not None and int(m.group(2)) == 0:
            return None, ("denominator must be positive", m.start(2))
        parts.append(Fraction(int(m.group(1)), int(m.group(2) or 1)))
        pos = m.end()
        if k == 0:
            if pos == len(text):
                return GaussianRational(parts[0]), None
            if text[pos] not in "+-":
                return None, ("expected '+', '-' or end of input", pos)
            sign, pos = text[pos], pos + 1
    if pos == len(text) or text[pos] != "i":
        return None, ("expected 'i'", pos)
    if pos + 1 != len(text):
        return None, ("trailing characters", pos + 1)
    return GaussianRational(parts[0], -parts[1] if sign == "-" else parts[1]), None


def _assert_scans_like_fractions(text):
    value, error = _fraction_parse(text)
    if error is None:
        rn, rd, im, idn = scan_gq(text)
        assert GaussianRational(Fraction(rn, rd), Fraction(im, idn)) == value
        assert parse_gq(text) == value
        return
    message, position = error
    for parse in (scan_gq, parse_gq):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert (str(info.value), info.value.position) == (
            f"{message} (at position {position})", position)


@_derandomized
@given(_parts, st.integers(1, 10 ** 13), _parts, st.integers(1, 10 ** 13),
       st.sampled_from(["+", "-", "+-", "--"]), st.booleans(), st.booleans())
def test_integer_scanner_matches_fractions_on_literals(a, b, c, d, sign, re_den, im_den):
    real = f"{a}/{b}" if re_den else str(a)
    imag = f"{abs(c)}/{d}" if im_den else str(abs(c))
    _assert_scans_like_fractions(real)
    _assert_scans_like_fractions(f"{real}{sign}{imag}i")


@_derandomized
@given(st.text(alphabet="0123456789/+-i ", max_size=10))
def test_integer_scanner_matches_fractions_on_any_text(text):
    _assert_scans_like_fractions(text)


@pytest.mark.parametrize("text, message, position", [
    ("", "expected a rational number", 0),
    ("1/0", "denominator must be positive", 2),
    ("2+i", "expected a rational number", 2),
    ("1+2", "expected 'i'", 3),
    ("1 ", "expected '+', '-' or end of input", 1),
    ("--1", "expected a rational number", 0),
])
def test_malformed_literals_keep_their_parse_errors(text, message, position):
    assert _fraction_parse(text) == (None, (message, position))
    _assert_scans_like_fractions(text)


def test_is_prime_on_strong_pseudoprimes_to_the_fixed_bases():
    for n in (PSI_12, PSI_13):
        assert not sympy.isprime(n)
        assert not _is_prime(n)
    assert _factorize(PSI_12) == [(399165290221, 1), (798330580441, 1)]


def test_is_prime_matches_sympy_on_large_numbers():
    rng = random.Random(6)
    for _ in range(150):
        n = rng.randrange(PSI_12, 10 ** 40)
        p = int(sympy.nextprime(n))
        q = int(sympy.nextprime(rng.randrange(10 ** 12, 10 ** 20)))
        for m in (n, p, p * q, p * p, q * q, q * (2 * q - 1), q * (3 * q - 2)):
            assert _is_prime(m) == sympy.isprime(m), m


def test_strong_lucas_test_matches_sympy():
    for n in range(3, 30000, 2):
        assert _strong_lucas_probable_prime(n) == is_strong_lucas_prp(n), n
