import random

import pytest

import planar_descent.equivalence as equivalence_module
import planar_descent.families as families_module
from planar_descent.families import (
    FamilyParams,
    InvalidParameterError,
    _certify_generic,
    _variants,
    family,
    random_real_stable_config,
    verify_paper,
)
from planar_descent.plane import PointConfig, ProjPoint


def pt(a, b, c):
    return ProjPoint(a, b, c)


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


def test_family_rejects_an_unknown_variant():
    with pytest.raises(InvalidParameterError, match="unknown variant 'T'"):
        FamilyParams(1, ["2+1i"], "T")


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
    report = _certify_generic(_variants(FamilyParams(1, ["2+1i"])))
    assert report.generic
    assert report.aut_order_s == 2
    assert report.aut_order_sprime == 2


def test_certify_generic_flags_real_parameter():
    # a real parameter leaves the configuration conjugation-stable and
    # enlarges the automorphism group
    report = _certify_generic(_variants(FamilyParams(1, ["2"])))
    assert not report.generic
    assert report.aut_order_s > 2


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
    report = verify_paper(m_values=(1,), pool=("2",), seed=0,
                          battery_samples=0)
    assert report.passed
    assert all(case.skipped and not case.generic for case in report.cases)


def test_verify_paper_enumerates_once_per_family_case(monkeypatch):
    # S and S' each: conj(S) -> S once, for genericity, the fom verdict,
    # the normalizer and the descent; Aut(S) is read off it
    calls = []
    enumerate_maps = equivalence_module._keyed_equivalences

    def counting(*args):
        calls.append(args)
        return enumerate_maps(*args)

    monkeypatch.setattr(equivalence_module, "_keyed_equivalences", counting)
    report = verify_paper(m_values=(1,), battery_samples=0)
    assert report.passed and len(report.cases) == 2
    assert len(calls) == 2


def test_verify_paper_decides_families_past_twenty_points():
    pool = ("2+1i", "3+2i", "5+1i", "4+1i", "5+2i", "6+1i", "7+2i", "8+3i")
    report = verify_paper(m_values=(8,), pool=pool, battery_samples=0)
    assert report.passed
    assert [case.n for case in report.cases] == [20, 21]
    assert all(case.generic and case.normalizer_structure == "C4" for case in report.cases)


@pytest.mark.parametrize("m_values, message", [
    (range(1, 6), "m = 4 needs more parameters"),
    ((1, 0), "m must be at least 1"),
])
def test_verify_paper_refuses_a_bad_m_before_building_a_family(monkeypatch, m_values, message):
    built = []
    monkeypatch.setattr(families_module, "family", lambda params: built.append(params))
    with pytest.raises(InvalidParameterError, match=message):
        verify_paper(m_values=m_values, battery_samples=0)
    assert built == []


def test_verify_paper_empty_m_values():
    report = verify_paper(m_values=(), battery_samples=0)
    assert report.passed
    assert report.cases == ()
