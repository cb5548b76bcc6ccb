"""Counterexample families and the bundled verification run.

For parameters a_1, ..., a_m in Q(i)* off the unit circle, the family

    F  = {(1:0:1), (-1:0:1), (0:1:1), (0:-1:1)}
    S  = {(a_k:1:0), (1:-conj(a_k):0)}_k  united with  F
    S' = S united with {(0:0:1)}

has 2m+4 (resp. 2m+5) points, covering every size n >= 6.  The matrix
[[0,-1,0],[1,0,0],[0,0,1]] composed with conjugation carries S and S'
onto themselves, so conj(S) is always equivalent to S; yet for generic
parameters the full symmetry group is cyclic of order 4 and both
antiholomorphic elements square to the nontrivial automorphism
diag(-1,-1,1), so the configurations never descend to the real plane.
Genericity is not assumed: it is certified per instance by enumerating
the automorphism group.

`verify_paper` bundles the negative direction (the families above) with
a positive battery: random small configurations built as Q(i)-twists of
conjugation-stable sets, all of which must descend.  Besides the family
builder and its genericity certificate, the module holds only the
samplers of that battery and the bundled run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .errors import InvalidInputError
from .gaussian import format_zi, qi_parts
from .descent import DescentCertificate, descends_real, fom_real, normalizer, real_model_check
from .equivalence import Symmetries, aut_group
from .plane import PointConfig, ProjPoint, SemiProjMap, zclear, zdet3


class InvalidParameterError(InvalidInputError):
    """Family parameters that collapse points or sit on the unit circle."""


M_MATRIX = SemiProjMap(((-1, 0, 0), (0, -1, 0), (0, 0, 1)))

DEFAULT_POOL = ("2+1i", "3+2i", "5+1i")

# the sizes of the positive battery: every n <= 5, where the paper says all descend
BATTERY_SIZES = (1, 2, 3, 4, 5)


def _parameter(x):
    """An int or a Q(i) literal as integers (re, im, den), its value being (re + im i) / den."""
    re_num, re_den, im_num, im_den = qi_parts(x)
    return re_num * im_den, im_num * re_den, re_den * im_den


@dataclass(frozen=True)
class FamilyParams:
    """Size parameter m, the list a_1..a_m, and the variant (S or Sprime).

    Each a_k is given as an int or a Q(i) literal and kept as its
    normalized literal.
    """

    m: int
    a: tuple
    variant: str = "S"

    def __post_init__(self):
        if self.variant not in ("S", "Sprime"):
            raise InvalidParameterError(f"unknown variant {self.variant!r}")
        if self.m < 1:
            raise InvalidParameterError("m must be at least 1")
        values = tuple(_parameter(x) for x in self.a)
        if len(values) != self.m:
            raise InvalidParameterError(
                f"expected {self.m} parameters, got {len(values)}"
            )
        object.__setattr__(self, "a", tuple(format_zi(*x) for x in values))
        for re, im, den in values:
            if not (re or im):
                raise InvalidParameterError("parameters must be nonzero")
            if re * re + im * im == den * den:
                raise InvalidParameterError(
                    f"|{format_zi(re, im, den)}| = 1: parameters must avoid the unit circle"
                )


def family(params: FamilyParams) -> PointConfig:
    """The configuration S (2m+4 points) or Sprime (2m+5 points)."""
    points = [
        ProjPoint(1, 0, 1),
        ProjPoint(-1, 0, 1),
        ProjPoint(0, 1, 1),
        ProjPoint(0, -1, 1),
    ]
    for re, im, den in map(_parameter, params.a):
        points.append(ProjPoint.from_z((re, im, den, 0, 0, 0)))
        points.append(ProjPoint.from_z((den, 0, -re, im, 0, 0)))
    if params.variant == "Sprime":
        points.append(ProjPoint(0, 0, 1))
    expected = 2 * params.m + (5 if params.variant == "Sprime" else 4)
    if len(set(points)) != expected:
        raise InvalidParameterError("parameters make generated points collide")
    return PointConfig(points)


@dataclass(frozen=True)
class GenericityReport:
    """Whether both variants have the minimal symmetry group {identity, M}."""

    generic: bool
    aut_order_s: int
    aut_order_sprime: int


def _variants(params: FamilyParams):
    """S and Sprime for params.m and params.a, keyed by variant."""
    return {v: family(FamilyParams(params.m, params.a, v)) for v in ("S", "Sprime")}


def _certify_generic(configs) -> GenericityReport:
    """Certify per instance what is generically true: Aut = {I, diag(-1,-1,1)}.

    configs are the two `_variants` configurations of one parameter set.
    The coset conj(S) -> S of each is read first, so that Aut(S) is read
    off it (`Symmetries.holomorphic`) and takes no enumeration: conj(S) is
    equivalent to S for every parameter (module docstring), and the checks
    of `verify_paper` that follow read the same coset.
    """
    expected = {SemiProjMap.identity().key(), M_MATRIX.key()}
    auts = {}
    for variant, config in configs.items():
        Symmetries.of(config).conjugate
        auts[variant] = aut_group(config)
    generic = all({g.key() for g in group} == expected for group in auts.values())
    return GenericityReport(generic, len(auts["S"]), len(auts["Sprime"]))


# --- random twisted configurations ------------------------------------------------


_ZERO, _ONE = (0, 1), (1, 1)


def _random_fraction(rng):
    """A small rational as (numerator, denominator)."""
    return rng.randint(-6, 6), rng.randint(1, 4)


def _point(*parts):
    """The point whose coordinates have these real and imaginary parts, in
    order, each a (numerator, denominator) pair."""
    return ProjPoint.from_z(zclear(parts))


def _random_real_point(rng):
    coords = [_random_fraction(rng) for _ in range(3)]
    if not any(num for num, _ in coords):
        coords[rng.randrange(3)] = _ONE
    return _point(coords[0], _ZERO, coords[1], _ZERO, coords[2], _ZERO)


def _random_conj_pair(rng):
    parts = [_random_fraction(rng) for _ in range(6)]
    if not any(num for num, _ in parts[1::2]):
        parts[2 * rng.randrange(3) + 1] = _ONE
    p = _point(*parts)
    return p, p.conj()


def _random_stable_scatter(rng, size):
    for _ in range(200):
        points = []
        while len(points) < size:
            if size - len(points) >= 2 and rng.random() < 0.4:
                p, q = _random_conj_pair(rng)
                if p != q:
                    points.extend([p, q])
            else:
                points.append(_random_real_point(rng))
        if len(set(points)) == size:
            config = PointConfig(points)
            if config.conj() == config:
                return config
    raise InvalidInputError("could not sample a conjugation-stable configuration")


def _random_stable_line_points(rng, count):
    """Distinct points on the line z = 0, stable under conjugation."""
    for _ in range(200):
        points = []
        while len(points) < count:
            if count - len(points) >= 2 and rng.random() < 0.4:
                p = _point(_random_fraction(rng), _random_fraction(rng), _ONE, _ZERO, _ZERO, _ZERO)
                if p != p.conj():
                    points.extend([p, p.conj()])
                    continue
            points.append(_point(_random_fraction(rng), _ZERO, _ONE, _ZERO, _ZERO, _ZERO))
        if len(set(points)) == count:
            return points
    raise InvalidInputError("could not sample distinct points on a line")


def random_real_stable_config(rng, size) -> PointConfig:
    """A conjugation-stable configuration of the given size, varied in shape."""
    if size <= 3:
        return _random_stable_scatter(rng, size)
    shape = rng.choice(("general", "collinear", "line_plus_point"))
    if shape == "general":
        return _random_stable_scatter(rng, size)
    if shape == "collinear":
        return PointConfig(_random_stable_line_points(rng, size))
    points = _random_stable_line_points(rng, size - 1)
    points.append(_point(_random_fraction(rng), _ZERO, _random_fraction(rng), _ZERO, _ONE, _ZERO))
    config = PointConfig(points)
    if config.conj() != config:
        raise InvalidInputError("line-plus-point sample lost stability")
    return config


def random_twist(rng) -> SemiProjMap:
    """A random invertible holomorphic map with small Z[i] entries."""
    while True:
        rows = tuple(
            tuple(x for _ in range(3) for x in (rng.randint(-3, 3), rng.randint(-3, 3)))
            for _ in range(3)
        )
        if zdet3(*rows) != (0, 0):  # neither zero nor singular
            return SemiProjMap.from_z(rows)


# --- the bundled verification run --------------------------------------------------


@dataclass
class FamilyCase:
    m: int
    variant: str
    n: int
    generic: bool
    fom_real: bool
    fom_witness: Optional[SemiProjMap]
    normalizer_structure: str
    normalizer_profile: tuple
    certificate: Optional[DescentCertificate]
    passed: bool
    skipped: bool
    failures: tuple


@dataclass
class BatterySummary:
    size: int
    samples: int
    descended: int
    failures: tuple


@dataclass
class PaperReport:
    """Outcome of the full verification bundle; `passed` gates the exit code.

    `pool` holds the parameter pool as normalized Q(i) literals.
    """

    seed: int
    m_values: tuple
    pool: tuple
    cases: tuple
    battery: tuple
    battery_samples: int
    passed: bool
    pool_note: str = (
        "parameter pool is a repository convention: small Gaussian integers "
        "off the unit circle, genericity certified per instance"
    )


def _check_family_case(m, variant, config: PointConfig):
    failures = []
    fom, witness = fom_real(config)
    if not fom:
        failures.append("conj(S) is not equivalent to S")
    group = normalizer(config)
    if group.structure != "C4":
        failures.append(f"normalizer structure {group.structure}, expected C4")
    if group.order_profile != (1, 2, 4, 4):
        failures.append(f"order profile {group.order_profile}, expected (1, 2, 4, 4)")
    certificate = descends_real(config)
    if certificate.descends:
        failures.append("configuration unexpectedly descends")
    if len(certificate.refutation) != len(group.holomorphic):
        failures.append("refutation does not cover the antiholomorphic coset")
    for _, square in certificate.refutation:
        if square != M_MATRIX:
            failures.append("a coset element squares to something other than M")
            break
    return FamilyCase(
        m=m,
        variant=variant,
        n=len(config),
        generic=True,
        fom_real=fom,
        fom_witness=witness,
        normalizer_structure=group.structure,
        normalizer_profile=group.order_profile,
        certificate=certificate,
        passed=not failures,
        skipped=False,
        failures=tuple(failures),
    )


def verify_paper(m_values=(1, 2, 3), pool=DEFAULT_POOL, seed: int = 0,
                 battery_samples: int = 200) -> PaperReport:
    """Run the whole verification bundle.

    For each m, take the first m pool entries and check both variants:
    conj-equivalence holds with a witness, the symmetry group is C4, and
    descent fails with a complete refutation.  Genericity and the three
    checks are asked of one configuration object, which keeps its
    `Symmetries`, so they share one enumeration.  Non-generic parameter
    choices are flagged and skipped rather than failed.  Then the positive battery: seeded
    random twists of conjugation-stable configurations of each small
    size, all of which must descend to a verified real model.  `seed`
    draws only those samples; every decision is a function of its input.
    An m outside 1..len(pool) is refused before any family is built.
    """
    if battery_samples < 0:
        raise InvalidParameterError("battery samples must not be negative")
    pool = tuple(format_zi(*_parameter(x)) for x in pool)
    params = []
    for m in m_values:
        if m > len(pool):
            raise InvalidParameterError(
                f"m = {m} needs more parameters than the pool provides"
            )
        params.append(FamilyParams(m, pool[:m]))
    cases = []
    for p in params:
        configs = _variants(p)
        report = _certify_generic(configs)
        for variant, config in configs.items():
            if not report.generic:
                cases.append(FamilyCase(
                    m=p.m, variant=variant, n=len(config), generic=False,
                    fom_real=False, fom_witness=None, normalizer_structure="",
                    normalizer_profile=(), certificate=None,
                    passed=True, skipped=True, failures=(),
                ))
                continue
            cases.append(_check_family_case(p.m, variant, config))

    battery = []
    for size in BATTERY_SIZES:
        descended = 0
        failures = []
        for index in range(battery_samples):
            rng = random.Random(seed * 1_000_003 + size * 1_009 + index)
            stable = random_real_stable_config(rng, size)
            twist = random_twist(rng)
            twisted = twist.apply(stable)
            certificate = descends_real(twisted)
            ok = certificate.descends
            if ok:
                verified, reason = real_model_check(twisted, certificate)
                ok = verified
            else:
                reason = "descends returned false"
            if ok:
                descended += 1
            else:
                failures.append((size, index, reason, twisted))
        battery.append(BatterySummary(
            size=size,
            samples=battery_samples,
            descended=descended,
            failures=tuple(failures),
        ))

    passed = all(c.passed for c in cases) and all(
        b.descended == b.samples for b in battery
    )
    return PaperReport(
        seed=seed,
        m_values=tuple(m_values),
        pool=pool,
        cases=tuple(cases),
        battery=tuple(battery),
        battery_samples=battery_samples,
        passed=passed,
    )
