"""Q(i) text and sums of two squares, in Gaussian-integer arithmetic.

The package computes only with integers and Gaussian integers, pairs
(re, im) of ints; a Q(i) value is a Gaussian integer over a positive
integer.  What lives here: the one scanner (`scan_gq`, which `qi_parts`
extends to ints) and the one formatter (`format_zi`) of Q(i) text, the
product of two Gaussian integers (`zmul`), and the decomposition of a
positive rational into two squares (`two_squares`).
"""

from __future__ import annotations

import re as _re
import sys
from math import gcd, isqrt

from .errors import InternalError, InvalidInputError


class ParseError(InvalidInputError):
    """Malformed Q(i) literal; carries the offset of the offending character."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NotANormError(InvalidInputError):
    """The rational is not a sum of two rational squares."""


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


def qi_parts(x):
    """scan_gq of a Q(i) literal, and (x, 1, 0, 1) of an int; InvalidInputError otherwise."""
    if isinstance(x, str):
        return scan_gq(x)
    if isinstance(x, int):
        return x, 1, 0, 1
    raise InvalidInputError(f"expected an int or a Q(i) literal, not {type(x).__name__}")


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


def zmul(a, b):
    """The product of two Gaussian integers."""
    ar, ai = a
    br, bi = b
    return (ar * br - ai * bi, ar * bi + ai * br)


def _gaussian_integer_with_norm(n):
    """A Gaussian integer of norm exactly n, or NotANormError."""
    z = (1, 0)
    for p, e in _factorize(n):
        if p == 2:
            x = (1, 1)
        elif p % 4 == 1:
            x = _cornacchia(p)
        elif e % 2:
            raise NotANormError(
                f"{p} = 3 (mod 4) divides to odd order {e}: not a sum of two squares"
            )
        else:
            x, e = (p, 0), e // 2
        for _ in range(e):
            z = zmul(z, x)
    return z


def two_squares(num: int, den: int):
    """(T, q) with norm(T) / q^2 == num / den, for positive integers num and den.

    T is a Gaussian integer and q a positive integer, gcd(T_re, T_im, q) = 1.
    With num / den reduced to A / B, T / q = X / Y = X conj(Y) / B for
    Gaussian integers of norms A and B, found by factorization: Cornacchia
    on primes = 1 mod 4, pairing of primes = 3 mod 4.  Raises NotANormError
    when a prime = 3 mod 4 appears to odd order.
    """
    if num <= 0 or den <= 0:
        raise NotANormError(f"{num}/{den} is not positive")
    g = gcd(num, den)
    x = _gaussian_integer_with_norm(num // g)
    yr, yi = _gaussian_integer_with_norm(den // g)
    tr, ti = zmul(x, (yr, -yi))
    q = den // g
    g = gcd(tr, ti, q)
    return (tr // g, ti // g), q // g
