"""Exact arithmetic in the Gaussian rationals Q(i), its text, and sums of two squares.

Points, lines and maps store normalized Gaussian-integer tuples (`plane`).
What lives here: `GaussianRational` (re + im*i with exact rational parts)
for scalars only (mu, t, `two_squares`, the parameter pool, input
coordinates); the one scanner (`scan_gq`) and the one formatter
(`format_zi`) of Q(i) text; and the decomposition of a rational into two
squares (`two_squares`).  Q(i) is closed under complex
conjugation, the only field automorphism the package applies.  All
operations normalize, so equality is structural and values are hashable;
the rational parts are gcd-reduced `Fraction`s with positive denominators.
"""

from __future__ import annotations

import re as _re
import sys
from fractions import Fraction
from math import gcd, isqrt

from .errors import InternalError, InvalidInputError


class ParseError(InvalidInputError):
    """Malformed Q(i) literal; carries the offset of the offending character."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NotANormError(InvalidInputError):
    """The rational is not a sum of two rational squares."""


class GaussianRational:
    """An element of Q(i), held as exact real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if isinstance(re, float) or isinstance(im, float):
            raise InvalidInputError(
                "floats are not exact; pass ints, Fractions or strings"
            )
        self.re = Fraction(re)
        self.im = Fraction(im)

    def conj(self) -> "GaussianRational":
        """Complex conjugate: negates the imaginary part."""
        return GaussianRational(self.re, -self.im)

    def norm(self) -> Fraction:
        """x * conj(x) = re^2 + im^2, a nonnegative rational; zero iff x = 0."""
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussianRational":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(i)")
        return GaussianRational(self.re / n, -self.im / n)

    @staticmethod
    def _coerced(other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        other = GaussianRational._coerced(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __mul__(self, other):
        other = GaussianRational._coerced(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other):
        other = GaussianRational._coerced(other)
        if other is None:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero in Q(i)")
        return self * other.inverse()

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        result = GaussianRational(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        other = GaussianRational._coerced(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_gq(self)


def gq(value) -> GaussianRational:
    """Coerce an int, Fraction, string literal or GaussianRational to Q(i)."""
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, str):
        return parse_gq(value)
    return GaussianRational(value)


# --- string grammar ----------------------------------------------------------
#
#   gaussian  ::=  rational ( ("+"|"-") rational "i" )?
#   rational  ::=  int ( "/" posint )?
#
# The coefficient of i is mandatory ("2+1i", never "2+i"), so formatted
# values round-trip unambiguously.

_RATIONAL_RE = _re.compile(r"(-?\d+)(?:/(\d+))?")


def _scan_rational(text, pos):
    m = _RATIONAL_RE.match(text, pos)
    if m is None:
        raise ParseError("expected a rational number", pos)
    try:
        num, den = int(m.group(1)), int(m.group(2) or 1)
    except ValueError:  # past the interpreter's int-string digit limit
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"integer longer than {limit} digits", pos) from None
    if den == 0:
        raise ParseError("denominator must be positive", m.start(2))
    return num, den, m.end()


def scan_gq(text: str):
    """(re numerator, re denominator, im numerator, im denominator) of a literal, unreduced."""
    re_num, re_den, pos = _scan_rational(text, 0)
    if pos == len(text):
        return re_num, re_den, 0, 1
    sign = text[pos]
    if sign not in "+-":
        raise ParseError("expected '+', '-' or end of input", pos)
    im_num, im_den, pos = _scan_rational(text, pos + 1)
    if pos == len(text) or text[pos] != "i":
        raise ParseError("expected 'i'", pos)
    pos += 1
    if pos != len(text):
        raise ParseError("trailing characters", pos)
    return re_num, re_den, -im_num if sign == "-" else im_num, im_den


def parse_gq(text: str) -> GaussianRational:
    """Parse a Q(i) literal such as "2+1i", "-3/4" or "0-5/7i"."""
    re_num, re_den, im_num, im_den = scan_gq(text)
    return GaussianRational(Fraction(re_num, re_den), Fraction(im_num, im_den))


def _format_ratio(num, den):
    g = gcd(num, den)
    try:
        return str(num // g) if den == g else f"{num // g}/{den // g}"
    except ValueError:  # past the interpreter's int-string digit limit
        raise InvalidInputError(
            f"an integer of the result is longer than {sys.get_int_max_str_digits()} digits, "
            "the interpreter's limit for writing integers as text") from None


def format_zi(re: int, im: int, den: int) -> str:
    """The literal of the Q(i) number (re + im i) / den, for integers and den > 0."""
    if im == 0:
        return _format_ratio(re, den)
    sign = "-" if im < 0 else "+"
    return f"{_format_ratio(re, den)}{sign}{_format_ratio(abs(im), den)}i"


def format_gq(x: GaussianRational) -> str:
    """Format so that parse_gq(format_gq(x)) == x."""
    (a, b), (c, d) = x.re.as_integer_ratio(), x.im.as_integer_ratio()
    return format_zi(a * d, c * b, b * d)


# --- sum of two squares ------------------------------------------------------


_SMALL_PRIME_BOUND = 10_000

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# psi_12, the least strong pseudoprime to all of _MR_BASES (Sorenson and
# Webster 2017): below it those bases decide primality.
_MR_PROVEN_BOUND = 318665857834031151167461


def _strong_probable_prime(n, a):
    """Strong (Miller-Rabin) probable-prime test of odd n > 2 to base a."""
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a, n):
    """The Jacobi symbol (a/n) for odd positive n."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n):
    """Strong Lucas probable-prime test of odd n, Selfridge's parameters.

    D is the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1 and
    Q = (1 - D)/4, so U_(k+1) = (U_k + V_k)/2 and V_(k+1) = (D U_k + V_k)/2.
    n passes when U_d = 0 or V_(d 2^r) = 0 (mod n) for some 0 <= r < s,
    where n + 1 = d 2^s with d odd.
    """
    if isqrt(n) ** 2 == n:
        return False  # no D with (D/n) = -1 exists
    d_param = 5
    while True:
        j = _jacobi(d_param, n)
        if j == -1:
            break
        if j == 0 and abs(d_param) != n:
            return False
        d_param = -d_param - 2 if d_param > 0 else -d_param + 2
    q_param = (1 - d_param) // 4
    d = n + 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def halve(x):
        return (x + n if x % 2 else x) // 2 % n

    # U_1, V_1, Q^1, then binary ladder up to U_d, V_d, Q^d
    u, v, qk = 1, 1, q_param % n
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v = halve(u + v), halve(d_param * u + v)
            qk = qk * q_param % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def _is_prime(n):
    """Primality: proven below psi_12, Baillie-PSW at and above it.

    Below _MR_PROVEN_BOUND the strong tests to the twelve bases 2..37
    are a proof.  From there on the answer is the Baillie-PSW test (a
    strong base-2 test and a strong Lucas test, Baillie and Wagstaff
    1980), which has no known counterexample but is not proven correct.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < _MR_PROVEN_BOUND:
        return all(_strong_probable_prime(n, a) for a in _MR_BASES)
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def _brent_rho(n):
    """A nontrivial factor of composite odd n; Brent's cycle variant."""
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise InternalError(f"rho failed to factor {n}")


def _factorize(n):
    """Factorization of a positive integer as an ascending (prime, exponent) list.

    Trial division up to a small bound, then _is_prime plus Brent's rho
    for whatever remains.
    """
    factors = {}
    d = 2
    while d <= _SMALL_PRIME_BOUND and d * d <= n:
        while n % d == 0:
            n //= d
            factors[d] = factors.get(d, 0) + 1
        d += 1 if d == 2 else 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        g = _brent_rho(m)
        stack.append(g)
        stack.append(m // g)
    return sorted(factors.items())


def _sqrt_minus_one(p):
    """A square root of -1 mod p, for prime p = 1 mod 4."""
    for b in range(2, p):
        if pow(b, (p - 1) // 2, p) == p - 1:
            return pow(b, (p - 1) // 4, p)
    raise InternalError(f"no quadratic non-residue found mod {p}")


def _cornacchia(p):
    """(x, y) with x^2 + y^2 = p and x >= y >= 1, for prime p = 1 mod 4."""
    r = _sqrt_minus_one(p)
    r = min(r, p - r)
    a, b = p, r
    while b * b > p:
        a, b = b, a % b
    y = isqrt(p - b * b)
    if b * b + y * y != p:
        raise InternalError(f"Cornacchia failed for {p}")
    return (max(b, y), min(b, y))


def _gaussian_integer_with_norm(n):
    """A Gaussian integer of norm exactly n, or NotANormError."""
    z = GaussianRational(1)
    for p, e in _factorize(n):
        if p == 2:
            z = z * GaussianRational(1, 1) ** e
        elif p % 4 == 1:
            x, y = _cornacchia(p)
            z = z * GaussianRational(x, y) ** e
        else:
            if e % 2:
                raise NotANormError(
                    f"{p} = 3 (mod 4) divides to odd order {e}: not a sum of two squares"
                )
            z = z * GaussianRational(p ** (e // 2))
    return z


def two_squares(mu) -> GaussianRational:
    """Some t in Q(i) with norm(t) == mu, for positive rational mu.

    Found by Gaussian-integer factorization of numerator and denominator:
    Cornacchia on primes = 1 mod 4, pairing of primes = 3 mod 4.  Raises
    NotANormError when a prime = 3 mod 4 appears to odd order.
    """
    mu = Fraction(mu)
    if mu <= 0:
        raise NotANormError(f"{mu} is not positive")
    num = _gaussian_integer_with_norm(mu.numerator)
    den = _gaussian_integer_with_norm(mu.denominator)
    return num / den
