import hashlib
import json
import random

import pytest

import planar_descent.equivalence as equivalence_module
from planar_descent.cli import certificate_to_json
from planar_descent.errors import InternalError, InvalidInputError
from planar_descent.gaussian import GaussianRational, gq
from planar_descent.descent import (
    NotACocycleError,
    descends_real,
    fom_real,
    hilbert90_split,
    normalizer,
    real_model_check,
)
from planar_descent.equivalence import NeedsReductionError, aut_group, classify, equivalences
from planar_descent.plane import PointConfig, ProjPoint, SemiProjMap
from test_equivalence import (
    FAULT_MESSAGES,
    adjugate,
    conj_matrix,
    det3,
    drop_involution_or_swap,
    matmul,
)


def pt(a, b, c):
    return ProjPoint(gq(a), gq(b), gq(c))


M = SemiProjMap(((-1, 0, 0), (0, -1, 0), (0, 0, 1)))
J = SemiProjMap(((0, -1, 0), (1, 0, 0), (0, 0, 1)))
STANDARD_FRAME = PointConfig([pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1), pt(1, 1, 1)])


def _paper_family(a_values, origin=False):
    points = [pt(1, 0, 1), pt(-1, 0, 1), pt(0, 1, 1), pt(0, -1, 1)]
    for a in a_values:
        a = gq(a)
        points.append(ProjPoint(a, gq(1), gq(0)))
        points.append(ProjPoint(gq(1), -a.conj(), gq(0)))
    if origin:
        points.append(pt(0, 0, 1))
    return PointConfig(points)


def _random_twist(rng):
    while True:
        rows = tuple(
            tuple(GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
                  for _ in range(3))
            for _ in range(3)
        )
        if any(x for row in rows for x in row) and det3(rows):
            return SemiProjMap(rows)


# --- normalizer --------------------------------------------------------------------


def test_paper_normalizer_is_c4():
    group = normalizer(_paper_family(["2+1i"]))
    assert group.order == 4
    assert group.structure == "C4"
    assert group.order_profile == (1, 2, 4, 4)
    keys = {g.key() for g in group.elements}
    assert SemiProjMap.identity().key() in keys
    assert M.key() in keys
    assert SemiProjMap(J.matrix, antiholo=True).key() in keys
    mj = SemiProjMap(matmul(M.matrix, J.matrix), antiholo=True)
    assert mj.key() in keys


def test_normalizer_of_stable_frame_set():
    group = normalizer(STANDARD_FRAME)
    assert group.order == 48
    assert len(group.holomorphic) == 24
    assert len(group.antiholomorphic) == 24
    identity_anti = SemiProjMap.identity().matrix
    assert any(g.matrix == identity_anti for g in group.antiholomorphic)
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
    power = g
    for k in range(1, cap + 1):
        if power.is_identity():
            return k
        power = power * g
    raise AssertionError(f"{g!r} has order above {cap}")


def test_normalizer_orders_and_closure_match_matrix_oracle():
    # the oracle composes and powers the matrices themselves
    assert _matrix_order(M, 2) == 2
    assert _matrix_order(SemiProjMap(J.matrix, antiholo=True), 4) == 4
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


@pytest.mark.parametrize("fault", sorted(FAULT_MESSAGES))
def test_normalizer_rejects_a_faulty_enumeration(monkeypatch, fault):
    # the fault hits the holomorphic and the antiholomorphic enumeration
    # alike, so the coset-size check passes and the group checks must fire
    enumerate_maps = equivalence_module._keyed_equivalences

    def faulty(*args):
        return drop_involution_or_swap(enumerate_maps(*args), fault)

    monkeypatch.setattr(equivalence_module, "_keyed_equivalences", faulty)
    with pytest.raises(InternalError, match=FAULT_MESSAGES[fault]):
        normalizer(STANDARD_FRAME)


@pytest.mark.parametrize("fault, message", [
    ("drop", "not a coset"), ("swap", "does not permute"),
])
def test_normalizer_rejects_a_faulty_conjugate_enumeration(monkeypatch, fault, message):
    # only conj(S) -> S is faulty, so Aut(S) passes its own check and the
    # coset-size check or the check of the whole group must fire
    enumerate_maps = equivalence_module._keyed_equivalences

    def faulty(source_frame, source, target):
        maps = enumerate_maps(source_frame, source, target)
        return maps if source is target else drop_involution_or_swap(maps, fault)

    monkeypatch.setattr(equivalence_module, "_keyed_equivalences", faulty)
    with pytest.raises(InternalError, match=message):
        normalizer(STANDARD_FRAME)


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
    assert witness.matrix == J.matrix


def test_fom_conjugation_stable_witness_identity():
    verdict, witness = fom_real(STANDARD_FRAME)
    assert verdict
    assert witness.antiholo
    assert witness.matrix == SemiProjMap.identity().matrix


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
            holo = SemiProjMap(witness.matrix)
            assert holo.apply(config.conj()) == config


# --- Hilbert 90 ---------------------------------------------------------------------


def test_split_identity_gives_identity():
    assert hilbert90_split(SemiProjMap.identity().matrix) == SemiProjMap.identity()


def test_split_half_turn():
    b = hilbert90_split(M.matrix).matrix
    # B conj(B)^-1 must equal M projectively; diag(i, i, 1) is one witness
    recovered = SemiProjMap(matmul(b, adjugate(conj_matrix(b))))
    assert recovered == M
    diag_i = ((gq("0+1i"), gq(0), gq(0)), (gq(0), gq("0+1i"), gq(0)),
              (gq(0), gq(0), gq(1)))
    check = SemiProjMap(matmul(diag_i, adjugate(conj_matrix(diag_i))))
    assert check == M


def test_split_rejects_non_cocycle():
    with pytest.raises(NotACocycleError):
        hilbert90_split(J.matrix)
    # a 2x2 matrix is a typed error, not a ValueError from unpacking
    with pytest.raises(InvalidInputError):
        hilbert90_split(((0, 1), (1, 0)))


def test_split_random_exact_cocycles():
    rng = random.Random(32)
    for _ in range(25):
        b = _random_twist(rng)
        cocycle = matmul(b.matrix, adjugate(conj_matrix(b.matrix)))
        split = hilbert90_split(cocycle, seed=5).matrix
        recovered = SemiProjMap(matmul(split, adjugate(conj_matrix(split))))
        assert recovered == SemiProjMap(cocycle)


def test_split_deterministic_under_seed():
    b = _random_twist(random.Random(33))
    cocycle = matmul(b.matrix, adjugate(conj_matrix(b.matrix)))
    assert hilbert90_split(cocycle, seed=9) == hilbert90_split(cocycle, seed=9)


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
            cert = descends_real(config, seed=3)
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
            anti = [SemiProjMap(m.matrix, antiholo=True)
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
        cert = descends_real(config, seed=11)
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
            "80d2ba62877db3e2705b75be7eb6f114b87ba495504e9ae98e90a9500b13406e"),
        "collinear_refuted": (
            _ANISO6, "Collinear", True, False,
            "ca4e5767f1f7d880d294a3d25e1f98af3fcae444e5299eef723fc26c2e2958d7"),
        "collinear_not_fom": (
            _NONREAL4, "Collinear", False, False,
            "fe2fc16eec2f8ba51a6231fef0e9fb0671887001fd8629d1388c4dc5f67cd7c6"),
        "line_plus_point_descends": (
            _COSET4 + [pt(0, 0, 1)], "LinePlusPoint", True, True,
            "186b1da34213a8cb0518ba23b0a42b075828169a0c7bd39cd656dd6fcd1b5568"),
        "line_plus_point_refuted": (
            _ANISO6 + [pt(0, 0, 1)], "LinePlusPoint", True, False,
            "19bb4fb8e0d7c1b04d351d1d216363f16db5bb0ed5b2d7d5bb3bdc24203f5e65"),
        "line_plus_point_not_fom": (
            _NONREAL4 + [pt(0, 0, 1)], "LinePlusPoint", False, False,
            "fe2fc16eec2f8ba51a6231fef0e9fb0671887001fd8629d1388c4dc5f67cd7c6"),
        "harmonic_plus_point_descends": (
            _HARMONIC + [pt(1, 2, 1)], "LinePlusPoint", True, True,
            "41c39b0129e8cfd0331f94c74b4128907bf60c1e31cb214d42f0ea7960e14aa1"),
    },
    "tiny": {
        "one_point": (
            [pt("2+1i", 1, 3)], "Tiny", True, True,
            "4cf416cfdc0b6285de82397fda030c5ebfd4f6d2e49ded7a511e08633e08264a"),
        "two_points": (
            [pt(1, "0+1i", 2), pt("1-1i", 3, 1)], "Tiny", True, True,
            "5be01d967c5afa0bf4ea63951c34ee503333c4f85e45aa6f10a7e295e9c32867"),
        "three_points": (
            [pt("1+2i", 1, 0), pt(0, "3-1i", 1), pt(2, 1, "1+1i")], "Tiny", True, True,
            "79de4c7e5ade4455aff6fcfee48d93a5b7e596b4d3d847bed28e3c92329e0b65"),
        "three_collinear": (
            [pt("1+1i", 1, 0), pt(2, 1, 0), pt("0+3i", 1, 0)], "Tiny", True, True,
            "3b577761ca9af3c4ff2e8335261a9d41a238a1a8c78ca9b1b2c052b5bbb8ca5c"),
    },
    "frame": {
        "descends": (
            _FRAME + [pt(2, 3, 1)], "HasFrame", True, True,
            "4ed4bef33d3a8ee1b9ccd118df2198ab30472c6d357051946d74a3e2e37e2a79"),
        "refuted": (
            list(_paper_family(["2+1i"])), "HasFrame", True, False,
            "5f03e39cb57b7d932f389f34218c26d06e7e9872459564dd069dd0add659d9b3"),
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


# --- one classification and few enumerations per public decision ---------------


@pytest.mark.parametrize("route, name", [
    ("tiny", "three_points"), ("line", "line_plus_point_descends"), ("frame", "refuted"),
])
def test_each_decision_classifies_its_input_once(monkeypatch, route, name):
    # each enumeration is recorded as whether it ran S -> S (source == target)
    classified, enumerated = [], []
    enumerate_maps = equivalence_module._keyed_equivalences

    def counting_classify(config, *args):
        classified.append(config)
        return classify(config, *args)

    def counting_enumeration(source_frame, source, target):
        enumerated.append(source == target)
        return enumerate_maps(source_frame, source, target)

    monkeypatch.setattr(equivalence_module, "classify", counting_classify)
    monkeypatch.setattr(equivalence_module, "_keyed_equivalences", counting_enumeration)
    config = _TWIST.apply(PointConfig(ROUTE_PINS[route][name][0]))
    assert config.conj() != config
    conjugate_only = [] if route == "tiny" else [False]
    decisions = [(descends_real, conjugate_only), (fom_real, conjugate_only)]
    if route == "frame":
        decisions.append((normalizer, [True, False]))
    for decide, expected in decisions:
        classified.clear()
        enumerated.clear()
        decide(config)
        assert classified == [config], decide.__name__
        assert enumerated == expected, decide.__name__
