import gc
import hashlib
import json
import math
import random

import pytest

import planar_descent.equivalence as equivalence_module
import zi_oracle
from planar_descent.cli import certificate_to_json
from planar_descent.errors import InternalError, InvalidInputError
from planar_descent.families import DEFAULT_POOL, FamilyParams, family, random_real_stable_config
from planar_descent.descent import (
    NotACocycleError,
    descends_real,
    fom_real,
    hilbert90_split,
    normalizer,
    real_model_check,
)
from planar_descent.equivalence import (
    NeedsReductionError,
    aut_group,
    classify,
    equivalences,
)
from planar_descent.plane import PointConfig, ProjPoint, SemiProjMap
from test_equivalence import (
    FAULT_MESSAGES,
    _paper_family,
    _random_twist,
    drop_involution_or_swap,
    oracle_map,
    oracle_matrix,
)


def pt(a, b, c):
    return ProjPoint(a, b, c)


M = SemiProjMap(((-1, 0, 0), (0, -1, 0), (0, 0, 1)))
J = SemiProjMap(((0, -1, 0), (1, 0, 0), (0, 0, 1)))
STANDARD_FRAME = PointConfig([pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1), pt(1, 1, 1)])


# --- normalizer --------------------------------------------------------------------


def test_paper_normalizer_is_c4():
    group = normalizer(_paper_family(["2+1i"]))
    assert group.order == 4
    assert group.structure == "C4"
    assert group.order_profile == (1, 2, 4, 4)
    keys = {g.key() for g in group.elements}
    assert SemiProjMap.identity().key() in keys
    assert M.key() in keys
    assert SemiProjMap.from_z(J.z, antiholo=True).key() in keys
    mj = oracle_map(zi_oracle.matmul(oracle_matrix(M.z), oracle_matrix(J.z)), antiholo=True)
    assert mj.key() in keys


def test_normalizer_of_stable_frame_set():
    group = normalizer(STANDARD_FRAME)
    assert group.order == 48
    assert len(group.holomorphic) == 24
    assert len(group.antiholomorphic) == 24
    identity_anti = SemiProjMap.identity().z
    assert any(g.z == identity_anti for g in group.antiholomorphic)
    assert group.structure == "other"


def test_normalizer_empty_antiholomorphic_part():
    # a frame plus a complex point on the line through the first two base
    # points: the conjugate configuration is inequivalent
    config = PointConfig([pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1), pt(1, 1, 1),
                          pt(1, "2+1i", 0)])
    group = normalizer(config)
    assert group.antiholomorphic == ()
    assert group.order == len(group.holomorphic)


def test_normalizer_degenerate_raises():
    config = PointConfig([pt(k, 1, 0) for k in range(4)])
    with pytest.raises(NeedsReductionError):
        normalizer(config)


SQUARE = [pt(1, 0, 1), pt(-1, 0, 1), pt(0, 1, 1), pt(0, -1, 1)]


def _matrix_order(g, cap):
    """The order of g, from powers of its matrix taken by the Z[i] oracle.

    The power g^k is (P, flag) acting as x -> P x, or P conj(x) when the
    flag is set, and g^(k+1) = g^k g is (P A, flag) or (P conj(A), not flag).
    """
    a = oracle_matrix(g.z)
    identity = oracle_matrix(SemiProjMap.identity().z)
    power, antiholo = zi_oracle.normal_matrix(a), g.antiholo
    for k in range(1, cap + 1):
        if not antiholo and power == identity:
            return k
        power = zi_oracle.normal_matrix(
            zi_oracle.matmul(power, zi_oracle.conj(a) if antiholo else a))
        antiholo ^= g.antiholo
    raise AssertionError(f"{g!r} has order above {cap}")


def test_normalizer_orders_and_closure_match_matrix_oracle():
    # the oracle composes and powers the matrices themselves
    assert _matrix_order(M, 2) == 2
    assert _matrix_order(SemiProjMap.from_z(J.z, antiholo=True), 4) == 4
    cases = [
        (STANDARD_FRAME, 48),
        (PointConfig(SQUARE + [pt(0, 0, 1)]), 16),
        (PointConfig(SQUARE + [pt(0, 0, 1), pt(1, "0+1i", 0)]), 8),
        (_random_twist(random.Random(4)).apply(_paper_family(["2+1i"])), 4),
    ]
    for config, order in cases:
        group = normalizer(config)
        assert group.order == order
        assert group.holomorphic == tuple(aut_group(config))
        elements = set(group.elements)
        assert len(elements) == order
        assert SemiProjMap.identity() in elements
        for g in group.elements:
            assert g.apply(config) == config
            assert g.inverse() in elements
            for h in group.elements:
                assert g * h in elements
        assert group.order_profile == tuple(
            sorted(_matrix_order(g, order) for g in group.elements)
        )


# Aut(S) read off a coset that lacks an antiholomorphic involution tau_j
# lacks tau_j tau_0^-1, which need not be an involution, so the inverse
# check fires before the composition check
COSET_FAULT_MESSAGES = {"drop": "not closed under inverse", "swap": "does not permute"}


@pytest.mark.parametrize("fault", sorted(FAULT_MESSAGES))
def test_normalizer_rejects_a_faulty_enumeration(monkeypatch, fault):
    # the normalizer enumerates only conj(S) -> S and reads Aut(S) off it,
    # so the fault reaches both parts and the check of the whole group
    # must fire
    enumerate_maps = equivalence_module._keyed_equivalences

    def faulty(*args):
        return drop_involution_or_swap(enumerate_maps(*args), fault)

    monkeypatch.setattr(equivalence_module, "_keyed_equivalences", faulty)
    # a fresh object: STANDARD_FRAME may keep symmetries from earlier tests
    with pytest.raises(InternalError, match=COSET_FAULT_MESSAGES[fault]):
        normalizer(PointConfig(STANDARD_FRAME.points))


@pytest.mark.parametrize("fault, message", [
    ("drop", "not a coset"), ("swap", "does not permute"),
])
def test_normalizer_rejects_a_faulty_conjugate_enumeration(monkeypatch, fault, message):
    # only conj(S) -> S is faulty.  Read first, it is the source of Aut(S),
    # and the check of the whole group must fire.  After `aut_group`,
    # Aut(S) is enumerated and passes its own check, and the coset-size
    # check or the check of the whole group must fire.
    enumerate_maps = equivalence_module._keyed_equivalences

    def faulty(source, anchor, target, *flag):
        maps = enumerate_maps(source, anchor, target, *flag)
        return maps if source is target else drop_involution_or_swap(maps, fault)

    monkeypatch.setattr(equivalence_module, "_keyed_equivalences", faulty)
    with pytest.raises(InternalError, match=COSET_FAULT_MESSAGES[fault]):
        normalizer(PointConfig(STANDARD_FRAME.points))
    config = PointConfig(STANDARD_FRAME.points)
    assert len(aut_group(config)) == 24
    with pytest.raises(InternalError, match=message):
        normalizer(config)


def test_structure_tags_cover_small_groups():
    # C2x C2: a conjugation-stable frame-plus-point set
    stable = PointConfig([pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1), pt(1, 1, 1),
                          pt(2, 3, 1)])
    group = normalizer(stable)
    assert group.structure == "C2xC2" and group.order_profile == (1, 2, 2, 2)

    # C2: no antiholomorphic symmetries, one nontrivial automorphism
    lopsided = PointConfig([pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1), pt(1, 1, 1),
                            pt(1, "2+1i", 0)])
    group = normalizer(lopsided)
    assert group.structure == "C2" and group.antiholomorphic == ()

    # trivial: no symmetries at all
    rigid = PointConfig([pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1), pt(1, 1, 1),
                         pt(2, 3, 1), pt(1, "2+1i", 0)])
    group = normalizer(rigid)
    assert group.structure == "trivial" and group.order == 1


# --- field-of-moduli test ------------------------------------------------------------


def test_fom_paper_family_witness_is_j():
    verdict, witness = fom_real(_paper_family(["2+1i"]))
    assert verdict
    assert witness.antiholo
    assert witness.z == J.z


def test_fom_conjugation_stable_witness_identity():
    verdict, witness = fom_real(STANDARD_FRAME)
    assert verdict
    assert witness.antiholo
    assert witness.z == SemiProjMap.identity().z


def test_fom_false_frame_case():
    config = PointConfig([pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1), pt(1, 1, 1),
                          pt(1, "2+1i", 0)])
    verdict, witness = fom_real(config)
    assert not verdict and witness is None


def test_fom_frame_plus_interior_point_matches_exhaustion():
    # frame plus (2+1i:1:1); decided by the complete enumeration, and the
    # enumeration says the conjugate point is not reachable
    config = PointConfig([pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1), pt(1, 1, 1),
                          pt("2+1i", 1, 1)])
    from planar_descent.equivalence import equivalences

    verdict, _ = fom_real(config)
    assert verdict == bool(equivalences(config.conj(), config))
    assert not verdict


def test_fom_witness_carries_conjugate_onto_input():
    rng = random.Random(31)
    from planar_descent.families import random_real_stable_config

    for size in (2, 4, 5):
        for _ in range(5):
            stable = random_real_stable_config(rng, size)
            config = _random_twist(rng).apply(stable)
            verdict, witness = fom_real(config)
            assert verdict
            holo = SemiProjMap.from_z(witness.z)
            assert holo.apply(config.conj()) == config


# --- Hilbert 90 ---------------------------------------------------------------------


def _cocycle(b):
    """B . conj(B)^-1 up to scalar, for a matrix B of the Z[i] oracle."""
    return zi_oracle.matmul(b, zi_oracle.adjugate(zi_oracle.conj(b)))


def test_split_identity_gives_identity():
    assert hilbert90_split(SemiProjMap.identity()) == SemiProjMap.identity()


def test_split_half_turn():
    b = oracle_matrix(hilbert90_split(M).z)
    # B conj(B)^-1 must equal M projectively; diag(i, i, 1) is one witness
    recovered = oracle_map(_cocycle(b))
    assert recovered == M
    diag_i = (((0, 1), (0, 0), (0, 0)), ((0, 0), (0, 1), (0, 0)),
              ((0, 0), (0, 0), (1, 0)))
    check = oracle_map(_cocycle(diag_i))
    assert check == M


def test_split_rejects_non_cocycle():
    with pytest.raises(NotACocycleError):
        hilbert90_split(J)
    # a 2x2 matrix is a typed error, not a ValueError from unpacking
    with pytest.raises(InvalidInputError):
        hilbert90_split(SemiProjMap(((0, 1), (1, 0))))


REFLECTION = ((1, 0, 0), (0, 1, 0), (0, 0, -1))


def test_split_random_exact_cocycles():
    rng = random.Random(32)
    reflection = oracle_matrix(SemiProjMap(REFLECTION).z)
    for _ in range(25):
        b = oracle_matrix(_random_twist(rng).z)
        # b . conj(b)^-1, and the twisted reflection b . diag(1, 1, -1) . conj(b)^-1
        for cocycle in (_cocycle(b),
                        zi_oracle.matmul(zi_oracle.matmul(b, reflection),
                                         zi_oracle.adjugate(zi_oracle.conj(b)))):
            split = oracle_matrix(hilbert90_split(oracle_map(cocycle)).z)
            recovered = oracle_map(_cocycle(split))
            assert recovered == oracle_map(cocycle)


def test_split_pinned_when_first_choice_is_singular():
    # c + mu^2 I = diag(0, 0, 2) is singular; the first basis among the six
    # fixed vectors is 2 e_3, 2i e_1, 2i e_2
    assert hilbert90_split(SemiProjMap(REFLECTION)) == SemiProjMap(
        ((0, 1, 0), (0, 0, 1), ("0-1i", 0, 0)))


# --- descent -------------------------------------------------------------------------


def test_paper_family_never_descends():
    for origin in (False, True):
        config = _paper_family(["2+1i"], origin)
        cert = descends_real(config)
        assert cert.fom_real and not cert.descends
        assert cert.real_model is None and cert.splitter is None
        assert len(cert.refutation) == 2
        for element, square in cert.refutation:
            assert element.antiholo and not square.antiholo
            assert square == M


def test_conjugation_stable_descends_trivially():
    cert = descends_real(STANDARD_FRAME)
    assert cert.descends
    assert cert.splitter == SemiProjMap.identity()
    assert cert.real_model == STANDARD_FRAME
    assert real_model_check(STANDARD_FRAME, cert) == (True, None)


def test_fom_false_certificate_has_empty_refutation():
    config = PointConfig([pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1), pt(1, 1, 1),
                          pt(1, "2+1i", 0)])
    cert = descends_real(config)
    assert not cert.fom_real and not cert.descends
    assert cert.refutation == ()


def test_random_twists_descend_with_equivalent_model():
    rng = random.Random(34)
    from planar_descent.families import random_real_stable_config
    from planar_descent.equivalence import equivalences, NeedsReductionError

    for size in (1, 2, 3, 4, 5):
        for _ in range(6):
            stable = random_real_stable_config(rng, size)
            config = _random_twist(rng).apply(stable)
            cert = descends_real(config)
            assert cert.descends, f"size {size} twist failed to descend"
            ok, reason = real_model_check(config, cert)
            assert ok, reason
            try:
                assert equivalences(cert.real_model, config)
            except NeedsReductionError:
                pass


def test_descent_certificate_round_trip_tampering():
    config = _random_twist(random.Random(35)).apply(STANDARD_FRAME)
    cert = descends_real(config)
    assert cert.descends
    assert real_model_check(config, cert) == (True, None)

    tampered_model = PointConfig(
        list(cert.real_model)[:-1] + [pt("3+1i", 1, 1)]
    )
    bad_model = type(cert)(
        fom_real=cert.fom_real, fom_witness=cert.fom_witness, descends=True,
        real_model=tampered_model, splitter=cert.splitter, cocycle=cert.cocycle,
        refutation=(), route=cert.route,
    )
    ok, reason = real_model_check(config, bad_model)
    assert not ok and reason == "conj-instability"

    rogue = _random_twist(random.Random(36))
    bad_splitter = type(cert)(
        fom_real=cert.fom_real, fom_witness=cert.fom_witness, descends=True,
        real_model=cert.real_model, splitter=rogue, cocycle=cert.cocycle,
        refutation=(), route=cert.route,
    )
    ok, reason = real_model_check(config, bad_splitter)
    assert not ok and reason == "cocycle-mismatch"


def test_real_model_check_requires_positive_certificate():
    cert = descends_real(_paper_family(["2+1i"]))
    with pytest.raises(Exception):
        real_model_check(_paper_family(["2+1i"]), cert)


def test_descent_verdict_matches_exhaustive_involution_search():
    # for frame configurations: descends iff some antiholomorphic coset
    # element squares to the identity, and a negative verdict lists the
    # whole coset
    from planar_descent.equivalence import equivalences
    from planar_descent.families import random_real_stable_config

    rng = random.Random(38)
    cases = [_paper_family(["2+1i"]), _paper_family(["2+1i"], origin=True),
             STANDARD_FRAME]
    for _ in range(6):
        stable = random_real_stable_config(rng, 5)
        cases.append(_random_twist(rng).apply(stable))
    cases.append(PointConfig([pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1),
                              pt(1, 1, 1), pt(1, "2+1i", 0)]))
    for config in cases:
        try:
            anti = [SemiProjMap.from_z(m.z, antiholo=True)
                    for m in equivalences(config.conj(), config)]
        except NeedsReductionError:
            continue
        cert = descends_real(config)
        exhaustive = any((tau * tau).is_identity() for tau in anti)
        assert cert.descends == exhaustive
        if cert.fom_real and not cert.descends:
            from planar_descent.equivalence import aut_group

            assert len(cert.refutation) == len(aut_group(config))


def test_antiholomorphic_coset_is_a_left_translate():
    group = normalizer(_paper_family(["2+1i"]))
    anti = group.antiholomorphic
    first = anti[0]
    translated = {(first * h).key() for h in group.holomorphic}
    assert translated == {g.key() for g in anti}


def test_collinear_complex_configurations():
    # twisted collinear sets take the line route and still produce models
    rng = random.Random(37)
    from planar_descent.families import random_real_stable_config

    count = 0
    while count < 8:
        stable = random_real_stable_config(rng, 4)
        from planar_descent.equivalence import classify, ConfigTag

        if classify(stable).tag is not ConfigTag.COLLINEAR:
            continue
        config = _random_twist(rng).apply(stable)
        cert = descends_real(config)
        assert cert.descends and cert.route == "line"
        assert real_model_check(config, cert) == (True, None)
        count += 1


def test_collinear_without_real_form():
    # four collinear points whose cross-ratio is not real and not carried
    # to its conjugate by any symmetry: the conjugate set is inequivalent
    config = PointConfig([
        pt(0, 1, 0), pt(1, 1, 0), pt(1, 0, 0), pt("2+3i", 1, 0),
    ])
    verdict, witness = fom_real(config)
    cert = descends_real(config)
    assert verdict == cert.fom_real
    if not verdict:
        assert not cert.descends and cert.refutation == ()


def test_line_route_uses_whole_coset_not_first_candidate():
    # pairs {z, 3/conj(z)}: the obvious symmetry z -> 3/conj(z) squares
    # to 3*I and 3 is not a sum of two squares, but with four points the
    # coset holds another symmetry that splits
    config = PointConfig([
        pt("1+1i", 1, 0), pt("3/2+3/2i", 1, 0), pt(3, 1, 0), pt(1, 1, 0),
    ])
    cert = descends_real(config)
    assert cert.descends and cert.route == "line"
    assert real_model_check(config, cert) == (True, None)


def test_line_route_model_outside_coordinate_field_is_reported():
    # same pair shape with six points: every candidate either fails to
    # square to a scalar or squares to a positive non-norm, so a real
    # model exists over the reals but not with Q(i) coordinates
    from planar_descent.descent import IrrationalModelError

    config = PointConfig([
        pt("1+1i", 1, 0), pt("3/2+3/2i", 1, 0),
        pt(2, 1, 0), pt("3/2", 1, 0),
        pt(5, 1, 0), pt("3/5", 1, 0),
    ])
    with pytest.raises(IrrationalModelError):
        descends_real(config)


def test_line_refutation_on_anisotropic_six_points():
    # pairs {z, -1/conj(z)} on one line: stable under the conjugation
    # z -> -1/conj(z), whose matrix squares to -I; the set is equivalent
    # to its conjugate yet has no real form on the line, hence none in
    # the plane either
    config = PointConfig([
        pt("1+1i", 1, 0), pt("-1/2-1/2i", 1, 0),
        pt(2, 1, 0), pt("-1/2", 1, 0),
        pt("0+3i", 1, 0), pt("0-1/3i", 1, 0),
    ])
    cert = descends_real(config)
    assert cert.fom_real
    assert not cert.descends
    assert cert.route == "line"
    assert len(cert.refutation) == 1
    for element, square in cert.refutation:
        assert element.antiholo
        assert not square.is_identity()
        assert element.apply(config) == config


# --- the order of maps ------------------------------------------------------------


def _assert_map_order(maps, group=True):
    """Sorted by (antiholo, not the identity, normal form); a group starts at the identity."""
    identity = SemiProjMap.identity().z
    keys = [(g.antiholo, g.z != identity, g.z) for g in maps]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert maps[0].is_identity() == group


def test_maps_sort_by_flag_identity_and_normal_form():
    rng = random.Random(31)
    square_and_centre = PointConfig([pt(1, 0, 1), pt(-1, 0, 1), pt(0, 1, 1), pt(0, -1, 1),
                                     pt(0, 0, 1)])
    for base in (STANDARD_FRAME, square_and_centre, _paper_family(["2+1i", "3+2i"])):
        for config in (base, _random_twist(rng).apply(base)):
            fresh = PointConfig(config.points)
            _assert_map_order(aut_group(fresh))
            _assert_map_order(equivalences(fresh, _random_twist(rng).apply(fresh)), False)
            group = normalizer(fresh)
            _assert_map_order(group.elements)
            assert [g.antiholo for g in group.elements] == sorted(
                g.antiholo for g in group.elements)


# --- pinned certificates, per route ---------------------------------------------

_TWIST = SemiProjMap(((1, "1+1i", 0), (2, -1, "0+1i"), (0, 3, 1)))
_COSET4 = [pt("1+1i", 1, 0), pt("3/2+3/2i", 1, 0), pt(3, 1, 0), pt(1, 1, 0)]
_ANISO6 = [
    pt("1+1i", 1, 0), pt("-1/2-1/2i", 1, 0), pt(2, 1, 0), pt("-1/2", 1, 0),
    pt("0+3i", 1, 0), pt("0-1/3i", 1, 0),
]
_NONREAL4 = [pt(0, 1, 0), pt(1, 1, 0), pt(1, 0, 0), pt("2+3i", 1, 0)]
_HARMONIC = [pt(0, 1, 0), pt(1, 0, 0), pt(1, 1, 0), pt(-1, 1, 0)]
_FRAME = [pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1), pt(1, 1, 1)]

# route -> name -> (points, tag, fom_real, descends, sha256 of the
# sorted-keys JSON dump of the certificate of the twisted points); a
# change that alters a digest on purpose must say so and why
ROUTE_PINS = {
    "line": {
        "collinear_descends": (
            _COSET4, "Collinear", True, True,
            "c1dd10bd9743e888a7c9f544503f44bfce51ce5bedf38fc53b21caa34b147447"),
        "collinear_refuted": (
            _ANISO6, "Collinear", True, False,
            "ca4e5767f1f7d880d294a3d25e1f98af3fcae444e5299eef723fc26c2e2958d7"),
        "collinear_not_fom": (
            _NONREAL4, "Collinear", False, False,
            "fe2fc16eec2f8ba51a6231fef0e9fb0671887001fd8629d1388c4dc5f67cd7c6"),
        "line_plus_point_descends": (
            _COSET4 + [pt(0, 0, 1)], "LinePlusPoint", True, True,
            "82065af79c4614d27cf62a1b724fcd627bb6eacbd5d0a2f8eedfc280a6dc8064"),
        "line_plus_point_refuted": (
            _ANISO6 + [pt(0, 0, 1)], "LinePlusPoint", True, False,
            "19bb4fb8e0d7c1b04d351d1d216363f16db5bb0ed5b2d7d5bb3bdc24203f5e65"),
        "line_plus_point_not_fom": (
            _NONREAL4 + [pt(0, 0, 1)], "LinePlusPoint", False, False,
            "fe2fc16eec2f8ba51a6231fef0e9fb0671887001fd8629d1388c4dc5f67cd7c6"),
        "harmonic_plus_point_descends": (
            _HARMONIC + [pt(1, 2, 1)], "LinePlusPoint", True, True,
            "e8283e23c7ee1cad3e48661f8d1af5dd47beb824a88c4f6f879c5b167ca092a8"),
    },
    "tiny": {
        "one_point": (
            [pt("2+1i", 1, 3)], "Tiny", True, True,
            "4cf416cfdc0b6285de82397fda030c5ebfd4f6d2e49ded7a511e08633e08264a"),
        "two_points": (
            [pt(1, "0+1i", 2), pt("1-1i", 3, 1)], "Tiny", True, True,
            "a9b1b739bcd1fcae97a47402fb1c1a90daad2d723bf3846075283cd9b27e56d6"),
        "three_points": (
            [pt("1+2i", 1, 0), pt(0, "3-1i", 1), pt(2, 1, "1+1i")], "Tiny", True, True,
            "83d30ffd8c63504b12cb1bbff5bd0bbb2f20e539c091e3788e63de05c796f727"),
        "three_collinear": (
            [pt("1+1i", 1, 0), pt(2, 1, 0), pt("0+3i", 1, 0)], "Tiny", True, True,
            "8898031969e03b815f95518382a11ddb2e31581334d61d1c39404d8d5ed43c41"),
    },
    "frame": {
        "descends": (
            _FRAME + [pt(2, 3, 1)], "HasFrame", True, True,
            "070dc734c4a062deb92f0e39cdfc6bf34922cba5917085087c38c83c81dd5602"),
        "refuted": (
            list(_paper_family(["2+1i"])), "HasFrame", True, False,
            "dea111d33fc1187f19b878bf8b3c37a123dd410b38f42b0e1125e89da13b118f"),
        "not_fom": (
            _FRAME + [pt(1, "2+1i", 0)], "HasFrame", False, False,
            "a1b17ecf1019fb457821283d8c54d8c06d878218fc7efa1d4b3a5d8cccc828ad"),
    },
}


def _check_pinned(route, name):
    points, tag, fom, descends, digest = ROUTE_PINS[route][name]
    config = _TWIST.apply(PointConfig(points))
    assert classify(config).tag.value == tag
    cert = descends_real(config)
    assert (cert.route, cert.fom_real, cert.descends) == (route, fom, descends)
    if descends:
        assert real_model_check(config, cert) == (True, None)
    text = json.dumps(certificate_to_json(cert), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(ROUTE_PINS["line"]))
def test_line_route_certificates_are_pinned(name):
    _check_pinned("line", name)


@pytest.mark.parametrize("route, name", [
    (route, name) for route in ("tiny", "frame") for name in sorted(ROUTE_PINS[route])
])
def test_route_certificates_are_pinned(route, name):
    _check_pinned(route, name)


# --- one classification and few enumerations per configuration object -----------


@pytest.mark.parametrize("route, name", [
    ("tiny", "three_points"), ("line", "line_plus_point_descends"), ("frame", "refuted"),
    ("frame", "not_fom"),
])
def test_each_decision_classifies_its_input_once(monkeypatch, route, name):
    # the decisions on one object share its Symmetries: together they
    # classify once, build one bracket table off the tiny route, and run
    # conj(S) -> S once; each enumeration is recorded as whether it ran
    # S -> S, which the normalizer runs only when the coset is empty
    classified, tabled, enumerated = [], [], []
    enumerate_maps = equivalence_module._keyed_equivalences
    brackets = equivalence_module._brackets

    def counting_classify(config, *args):
        classified.append(config)
        return classify(config, *args)

    def counting_brackets(points):
        tabled.append(points)
        return brackets(points)

    def counting_enumeration(source, anchor, target, *flag):
        enumerated.append(source is target)
        return enumerate_maps(source, anchor, target, *flag)

    monkeypatch.setattr(equivalence_module, "classify", counting_classify)
    monkeypatch.setattr(equivalence_module, "_brackets", counting_brackets)
    monkeypatch.setattr(equivalence_module, "_keyed_equivalences", counting_enumeration)
    config = _TWIST.apply(PointConfig(ROUTE_PINS[route][name][0]))
    assert config.conj() != config
    decisions = [descends_real, fom_real] + ([normalizer] if route == "frame" else [])
    fom = ROUTE_PINS[route][name][2]
    expected = {"tiny": [], "line": [False], "frame": [False] if fom else [False, True]}[route]
    # a fresh, equal object builds its own result and counts again
    for subject in (config, PointConfig(config.points)):
        classified.clear()
        tabled.clear()
        enumerated.clear()
        for decide in decisions + decisions:
            decide(subject)
        assert len(classified) == 1 and classified[0] is subject
        assert len(tabled) == (0 if route == "tiny" else 1)
        assert enumerated == expected


def test_aut_group_alone_enumerates_once(monkeypatch):
    # Aut(S) asked first is enumerated, S -> S, without the coset; the
    # normalizer then enumerates the coset and checks the whole group
    enumerated = []
    enumerate_maps = equivalence_module._keyed_equivalences

    def counting_enumeration(source, anchor, target, *flag):
        enumerated.append(source is target)
        return enumerate_maps(source, anchor, target, *flag)

    monkeypatch.setattr(equivalence_module, "_keyed_equivalences", counting_enumeration)
    config = _TWIST.apply(PointConfig(ROUTE_PINS["frame"]["refuted"][0]))
    assert len(aut_group(config)) == len(aut_group(config)) == 2
    assert enumerated == [True]
    assert normalizer(config).order == 4
    assert enumerated == [True, False]


def _stable_frame_inputs():
    """{name: configuration with a frame and conj(S) equivalent to S}."""
    rng = random.Random(43)
    inputs = {
        "frame48": STANDARD_FRAME,
        "square16": PointConfig(SQUARE + [pt(0, 0, 1)]),
        "circle8": PointConfig(SQUARE + [pt(0, 0, 1), pt(1, "0+1i", 0)]),
        "C2xC2": PointConfig([pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1), pt(1, 1, 1), pt(2, 3, 1)]),
    }
    for m in (1, 2, 3):
        for variant in ("S", "Sprime"):
            config = family(FamilyParams(m, DEFAULT_POOL[:m], variant))
            inputs[f"{variant} m={m}"] = _random_twist(rng).apply(config)
    while len(inputs) < 20:
        stable = random_real_stable_config(rng, rng.randint(4, 8))
        if classify(stable).tag.value == "HasFrame":
            inputs[f"stable {len(inputs)}"] = _random_twist(rng).apply(stable)
    return inputs


def test_aut_read_off_the_coset_is_the_enumerated_group():
    # Aut(S) = {A_k adj(A_0)} over the coset conj(S) -> S gives the maps,
    # in the order, of the S -> S enumeration on S's own table
    orders = {"frame48": 24, "square16": 8, "circle8": 4, "C2xC2": 2}
    for name, config in _stable_frame_inputs().items():
        sym = equivalence_module.Symmetries(config)
        assert sym.conjugate, name
        derived = sym.holomorphic
        table = sym.brackets
        enumerated = tuple(equivalence_module._keyed_equivalences(table, sym.anchor, table))
        assert derived == enumerated, name
        if name in orders or " m=" in name:  # S and S' have Aut(S) = {I, M}
            assert len(derived) == orders.get(name, 2), name
        elements, pairs = sym.group
        assert elements == tuple(sorted(derived + sym.conjugate, key=SemiProjMap.key))
        assert len(pairs) == 2 * len(derived)


def test_degenerate_quads_never_reach_the_exact_keys(monkeypatch):
    # a base or a quad whose bracket is 0 exactly is dropped in the
    # residue filter, so every frame matrix built, of a target quad or an
    # anchor ordering, is one of a frame
    frame_matrix = equivalence_module._frame_matrix
    returned = []

    def recording(table, frame):
        returned.append(frame_matrix(table, frame))
        return returned[-1]

    monkeypatch.setattr(equivalence_module, "_frame_matrix", recording)
    inputs = [_TWIST.apply(PointConfig(pin[0])) for pin in ROUTE_PINS["frame"].values()]
    for m in (2, 3):
        config = family(FamilyParams(m, DEFAULT_POOL[:m], "Sprime"))
        inputs += [config, _TWIST.apply(config)]
    for config in inputs:
        returned.clear()
        fom_real(config)
        normalizer(config)
        descends_real(config)
        assert returned and None not in returned


def test_symmetric_decisions_take_each_exact_bracket_once(monkeypatch):
    # the decisions read one table of S, the conjugate table reads its
    # exact brackets and its zero tests from it, and no determinant of
    # three points is taken twice
    taken = []
    det = equivalence_module.zdet3

    def counting(*vectors):
        taken.append(vectors)
        return det(*vectors)

    monkeypatch.setattr(equivalence_module, "zdet3", counting)
    config = family(FamilyParams(2, ("2+1i", "3+2i"), "S"))
    for decide in (fom_real, normalizer, descends_real):
        decide(config)
    assert taken and len(set(taken)) == len(taken) <= math.comb(len(config), 3)


def test_mutating_aut_group_leaves_the_shared_group_intact():
    config = PointConfig(STANDARD_FRAME.points)
    aut_group(config).clear()
    assert len(aut_group(config)) == 24
    assert normalizer(config).order == 48


def test_symmetric_decisions_leave_no_cyclic_garbage():
    # a config <-> Symmetries cycle would keep each decision's state
    # alive until the cyclic collector runs
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        config = _paper_family(["2+1i"])
        fom_real(config)
        normalizer(config)
        descends_real(config)
        del config
        gc.collect()
        leaked = [type(obj).__name__ for obj in gc.garbage
                  if type(obj).__module__.startswith("planar_descent")]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert leaked == []


# --- every output byte of a fixed input set ------------------------------------------


def _pinned_inputs():
    from planar_descent.families import random_real_stable_config

    inputs = []
    for size in (1, 2, 3, 4, 5):
        rng = random.Random(f"pinned:{size}")
        for _ in range(40):
            stable = random_real_stable_config(rng, size)
            inputs.append(_random_twist(rng).apply(stable))
    pool = ("2+1i", "3+2i")
    for m in (1, 2):
        for variant in ("S", "Sprime"):
            inputs.append(family(FamilyParams(m, pool[:m], variant)))
    return inputs + [PointConfig(STANDARD_FRAME.points)]


# sha256 of the sorted-keys JSON dump of every record below; a change that
# alters it on purpose must say so and why
PINNED_OUTPUTS_SHA256 = "4740f12a6ace18c1044d8d2f7d0864eae771f92b173eaf28c41fde19117a0997"


def test_decision_outputs_are_pinned():
    from planar_descent.cli import map_to_json

    records = []
    for config in _pinned_inputs():
        cert = descends_real(config)
        _, witness = fom_real(config)
        record = {
            "certificate": certificate_to_json(cert),
            "fom_witness": map_to_json(witness) if witness else None,
        }
        if cert.route == "frame":
            record["normalizer"] = [map_to_json(g) for g in normalizer(config).elements]
        records.append(record)
    text = json.dumps(records, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_OUTPUTS_SHA256


def _generic_pinned_inputs():
    """Twisted general-position sets past the sizes above: six stable and six random
    of 11 points, and one of each of 20 points, the CLI's default guard."""
    from test_equivalence import _random_config

    rng = random.Random("pinned:generic")
    inputs = []
    for size, count in ((11, 6), (20, 1)):
        stable = []
        while len(stable) < count:
            config = random_real_stable_config(rng, size)
            if classify(config).tag.value == "HasFrame":
                stable.append(_random_twist(rng).apply(config))
        inputs += stable
        inputs += [_random_twist(rng).apply(_random_config(rng, size)) for _ in range(count)]
    return inputs


# sha256 of the sorted-keys JSON dump of every record below, computed before
# the residue rows were built in batches; a change that alters it on purpose
# must say so and why
GENERIC_OUTPUTS_SHA256 = "9b1ec7c7c74f99f7ed6ecf3808cdb71867ec3eeef67fdf03b711b77ddb99b555"


def test_generic_outputs_are_pinned():
    from planar_descent.cli import map_to_json

    records = []
    for config in _generic_pinned_inputs():
        assert classify(config).tag.value == "HasFrame"
        _, witness = fom_real(config)
        records.append({
            "certificate": certificate_to_json(descends_real(config)),
            "fom_witness": map_to_json(witness) if witness else None,
        })
    text = json.dumps(records, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == GENERIC_OUTPUTS_SHA256
