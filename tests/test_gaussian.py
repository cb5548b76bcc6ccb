import random
from fractions import Fraction
from math import gcd

import re

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.ntheory.primetest import is_strong_lucas_prp

from planar_descent.gaussian import (
    NotANormError,
    ParseError,
    format_zi,
    scan_gq,
    _factorize,
    _is_prime,
    _strong_lucas_probable_prime,
    two_squares,
    zmul,
)
from planar_descent.plane import ProjPoint, _qi_text, zlead, znormal

# the least strong pseudoprimes to the first 12 and 13 prime bases
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def _conj(x):
    return (x[0], -x[1])


def _norm(x):
    return x[0] * x[0] + x[1] * x[1]


def test_mul_conjugate_pair():
    assert zmul((2, 1), (2, -1)) == (5, 0)


def test_div_one_by_i():
    # the normal form divides by the leading entry: (i:1) = (1:1/i) = (1:-i)
    assert str(ProjPoint("0+1i", 1)) == "(1:0-1i)"
    assert ProjPoint(1, "0+1i") == ProjPoint("0-1i", 1)


def test_conj_examples():
    assert ProjPoint("2+1i", 1, 0).conj() == ProjPoint("2-1i", 1, 0)
    assert ProjPoint(3, 1, 0).conj() == ProjPoint(3, 1, 0)
    assert ProjPoint("0+5/7i", 1, 0).conj() == ProjPoint("0-5/7i", 1, 0)
    assert ProjPoint("2+1i", 1, 0).conj().conj() == ProjPoint("2+1i", 1, 0)


def test_two_squares_five():
    assert two_squares(5, 1) == ((2, 1), 1)


def test_two_squares_13_over_17():
    # 13 = N(3+2i), 17 = N(4+1i); (3+2i)/(4+1i) = (14+5i)/17
    (tr, ti), q = two_squares(13, 17)
    assert ((tr, ti), q) == ((14, 5), 17)
    assert 17 * (tr * tr + ti * ti) == 13 * q * q


def test_two_squares_three_fails():
    with pytest.raises(NotANormError):
        two_squares(3, 1)


def test_two_squares_rejects_nonpositive():
    with pytest.raises(NotANormError):
        two_squares(0, 1)
    with pytest.raises(NotANormError):
        two_squares(-5, 1)


def test_parse_examples():
    assert scan_gq("2+1i") == (2, 1, 1, 1)
    assert scan_gq("-3/4") == (-3, 4, 0, 1)
    assert scan_gq("0-5/7i") == (0, 1, -5, 7)


def test_parse_requires_coefficient_on_i():
    with pytest.raises(ParseError) as info:
        scan_gq("1+i")
    assert info.value.position == 2


def test_parse_rejects_trailing_garbage():
    with pytest.raises(ParseError):
        scan_gq("2+1i junk")
    with pytest.raises(ParseError):
        scan_gq("2+1")


def test_parse_rejects_zero_denominator():
    with pytest.raises(ParseError):
        scan_gq("1/0")


def _random_value(rng):
    """A Q(i) number with small random parts, as (re, im) Fractions."""
    return (
        Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
        Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
    )


def _random_gaussian_integer(rng):
    return (rng.randint(-30, 30), rng.randint(-30, 30))


def test_norm_is_multiplicative():
    rng = random.Random(2)
    for _ in range(200):
        x, y = _random_gaussian_integer(rng), _random_gaussian_integer(rng)
        assert _norm(zmul(x, y)) == _norm(x) * _norm(y)


def test_conj_is_a_field_automorphism():
    rng = random.Random(3)
    for _ in range(200):
        x, y = _random_gaussian_integer(rng), _random_gaussian_integer(rng)
        assert _conj(zmul(x, y)) == zmul(_conj(x), _conj(y))


def test_two_squares_on_random_norms():
    rng = random.Random(4)
    for _ in range(100):
        x = _random_value(rng)
        if not any(x):
            continue
        mu = _norm(x)
        num, den = mu.numerator, mu.denominator
        (tr, ti), q = two_squares(num, den)
        assert den * (tr * tr + ti * ti) == num * q * q
        assert gcd(tr, ti, q) == 1 and q > 0


def test_format_parse_round_trip():
    rng = random.Random(5)
    for _ in range(200):
        re_part, im_part = _random_value(rng)
        den = re_part.denominator * im_part.denominator
        text = format_zi(int(re_part * den), int(im_part * den), den)
        assert text == _fraction_format(re_part, im_part)
        rn, rd, im, idn = scan_gq(text)
        assert (Fraction(rn, rd), Fraction(im, idn)) == (re_part, im_part)
    assert format_zi(0, 0, 1) == "0"
    assert format_zi(2, -1, 1) == "2-1i"
    assert format_zi(0, 5, 7) == "0+5/7i"


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
    if len(v) >= 4 and any(v):  # znormal takes vectors of 2 or 3 Gaussian integers
        z = znormal(v)
        assert _qi_text(z) == [_fraction_format(re, im) for re, im in _fraction_parts(z, zlead(z))]


_RATIONAL = re.compile(r"(-?\d+)(?:/(\d+))?")


def _fraction_parse(text):
    """The grammar read with Fractions: ((re, im), None) or (None, (message, position))."""
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
                return (parts[0], Fraction(0)), None
            if text[pos] not in "+-":
                return None, ("expected '+', '-' or end of input", pos)
            sign, pos = text[pos], pos + 1
    if pos == len(text) or text[pos] != "i":
        return None, ("expected 'i'", pos)
    if pos + 1 != len(text):
        return None, ("trailing characters", pos + 1)
    return (parts[0], -parts[1] if sign == "-" else parts[1]), None


def _assert_scans_like_fractions(text):
    value, error = _fraction_parse(text)
    if error is None:
        rn, rd, im, idn = scan_gq(text)
        assert (Fraction(rn, rd), Fraction(im, idn)) == value
        return
    message, position = error
    with pytest.raises(ParseError) as info:
        scan_gq(text)
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
