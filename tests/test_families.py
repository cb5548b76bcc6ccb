import random

import pytest

import planar_descent.equivalence as equivalence_module
from planar_descent.gaussian import gq
from planar_descent.families import (
    CANONICAL_FIVE,
    FamilyParams,
    InvalidParameterError,
    canonical_two_lines,
    certify_generic,
    family,
    random_real_stable_config,
    random_twist,
    verify_paper,
)
from planar_descent.plane import PointConfig, ProjPoint


def pt(a, b, c):
    return ProjPoint(gq(a), gq(b), gq(c))


def test_family_m1_variant_s():
    config = family(FamilyParams(1, ["2+1i"]))
    expected = PointConfig([
        pt(1, 0, 1), pt(-1, 0, 1), pt(0, 1, 1), pt(0, -1, 1),
        pt("2+1i", 1, 0), pt(1, "-2+1i", 0),
    ])
    assert config == expected
    assert len(config) == 6


def test_family_m1_variant_sprime():
    config = family(FamilyParams(1, ["2+1i"], "Sprime"))
    assert len(config) == 7
    assert pt(0, 0, 1) in config
    base = family(FamilyParams(1, ["2+1i"], "S"))
    assert set(base.points) < set(config.points)


def test_family_size_formulas():
    pool = ["2+1i", "3+2i", "5+1i", "7+2i"]
    for m in (1, 2, 3, 4):
        assert len(family(FamilyParams(m, pool[:m], "S"))) == 2 * m + 4
        assert len(family(FamilyParams(m, pool[:m], "Sprime"))) == 2 * m + 5


def test_family_rejects_unit_circle_parameter():
    with pytest.raises(InvalidParameterError):
        FamilyParams(1, ["0+1i"])
    with pytest.raises(InvalidParameterError):
        FamilyParams(1, ["3/5+4/5i"])


def test_family_rejects_zero_and_count_mismatch():
    with pytest.raises(InvalidParameterError):
        FamilyParams(1, ["0"])
    with pytest.raises(InvalidParameterError):
        FamilyParams(2, ["2+1i"])


def test_family_rejects_collisions():
    # a2 * conj(a1) = -1 makes (a2:1:0) collide with (1:-conj(a1):0)
    with pytest.raises(InvalidParameterError):
        family(FamilyParams(2, ["2+1i", "-2/5-1/5i"]))
    with pytest.raises(InvalidParameterError):
        family(FamilyParams(2, ["2+1i", "2+1i"]))


def test_certify_generic_default_pool():
    report = certify_generic(FamilyParams(1, ["2+1i"]))
    assert report.generic
    assert report.aut_order_s == 2
    assert report.aut_order_sprime == 2


def test_certify_generic_flags_real_parameter():
    # a real parameter leaves the configuration conjugation-stable and
    # enlarges the automorphism group
    report = certify_generic(FamilyParams(1, ["2"]))
    assert not report.generic
    assert report.aut_order_s > 2


def test_canonical_two_lines_fixes_canonical_set():
    g = canonical_two_lines(CANONICAL_FIVE)
    assert g is not None
    assert g.apply(CANONICAL_FIVE) == CANONICAL_FIVE


def test_canonical_two_lines_recovers_twists():
    rng = random.Random(40)
    for _ in range(20):
        twist = random_twist(rng)
        scrambled = twist.apply(CANONICAL_FIVE)
        g = canonical_two_lines(scrambled)
        assert g is not None
        assert g.apply(scrambled) == CANONICAL_FIVE


def test_canonical_two_lines_not_applicable_on_conic_points():
    config = PointConfig([
        pt(1, 0, 1), pt(0, 1, 1), pt(-1, 0, 1), pt(0, -1, 1),
        pt("3/5", "4/5", 1),
    ])
    assert canonical_two_lines(config) is None


def test_canonical_two_lines_not_applicable_on_line_plus_point():
    config = PointConfig([pt(k, 1, 0) for k in range(4)] + [pt(0, 0, 1)])
    assert canonical_two_lines(config) is None


def test_random_stable_configs_are_stable():
    rng = random.Random(41)
    for size in (1, 2, 3, 4, 5):
        for _ in range(10):
            config = random_real_stable_config(rng, size)
            assert len(config) == size
            assert config.conj() == config


def test_verify_paper_small_run():
    report = verify_paper(m_values=(1,), seed=0, battery_samples=3)
    assert report.passed
    assert len(report.cases) == 2
    for case in report.cases:
        assert case.generic and case.passed and not case.skipped
        assert case.normalizer_structure == "C4"
        assert case.certificate is not None
        assert not case.certificate.descends
    assert all(b.descended == b.samples for b in report.battery)


def test_verify_paper_skips_non_generic():
    report = verify_paper(m_values=(1,), pool=(gq("2"),), seed=0,
                          battery_samples=0)
    assert report.passed
    assert all(case.skipped and not case.generic for case in report.cases)


def test_verify_paper_enumerates_twice_per_family_case(monkeypatch):
    # S and S' each: Aut(S) once for genericity and the normalizer, and
    # conj(S) -> S once for the fom verdict, the normalizer and the descent
    calls = []
    enumerate_maps = equivalence_module._keyed_equivalences

    def counting(*args):
        calls.append(args)
        return enumerate_maps(*args)

    monkeypatch.setattr(equivalence_module, "_keyed_equivalences", counting)
    report = verify_paper(m_values=(1,), battery_samples=0)
    assert report.passed and len(report.cases) == 2
    assert len(calls) == 4


def test_verify_paper_empty_m_values():
    report = verify_paper(m_values=(), battery_samples=0)
    assert report.passed
    assert report.cases == ()
