"""Metamorphic properties: twists and conjugation keep every symmetry invariant."""

import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from planar_descent.cli import certificate_from_json, certificate_to_json
from planar_descent.descent import descends_real, fom_real, normalizer, real_model_check
from planar_descent.equivalence import ConfigTag, aut_group, classify
from planar_descent.errors import InvalidInputError
from planar_descent.families import FamilyParams, family
from planar_descent.gaussian import GaussianRational
from planar_descent.plane import PointConfig, ProjPoint, SemiProjMap
from test_equivalence import det3

SQUARE16 = PointConfig(
    [ProjPoint(1, 0, 1), ProjPoint(-1, 0, 1), ProjPoint(0, 1, 1),
     ProjPoint(0, -1, 1), ProjPoint(0, 0, 1)]
)
FAMILY_S1 = family(FamilyParams(1, ("2+1i",), "S"))
# conjugation-stable degenerate sets, twisted so that neither is real
_TWIST = SemiProjMap(((1, "1+1i", 0), (2, -1, "0+1i"), (0, 3, 1)))
_ON_LINE = [ProjPoint(1, 0, 0), ProjPoint(0, 1, 0), ProjPoint(1, "0+1i", 0),
            ProjPoint(1, "0-1i", 0)]
COLLINEAR = _TWIST.apply(PointConfig(_ON_LINE + [ProjPoint(1, 1, 0)]))
LINE_PLUS_POINT = _TWIST.apply(PointConfig(_ON_LINE + [ProjPoint(1, 2, 1)]))

small = st.integers(-2, 2)
gaussian_integers = st.builds(GaussianRational, small, small)
twists = (
    st.lists(gaussian_integers, min_size=9, max_size=9)
    .map(lambda v: (tuple(v[0:3]), tuple(v[3:6]), tuple(v[6:9])))
    .filter(lambda rows: bool(det3(rows)))
)


@st.composite
def random_configurations(draw):
    """5 or 6 points with small Gaussian-integer coordinates and a frame."""
    vectors = draw(st.lists(st.tuples(gaussian_integers, gaussian_integers,
                                      gaussian_integers), min_size=5, max_size=6))
    try:
        config = PointConfig(ProjPoint(*v) for v in vectors)
    except InvalidInputError:  # a zero vector or a repeated point
        assume(False)
    assume(classify(config).tag is ConfigTag.HAS_FRAME)
    return config


BASES = {
    "collinear": st.just(COLLINEAR),
    "line-plus-point": st.just(LINE_PLUS_POINT),
    "family-S-m1": st.just(FAMILY_S1),
    "square-plus-origin": st.just(SQUARE16),
    "random": random_configurations(),
}


@pytest.mark.parametrize("base", sorted(BASES))
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(data=st.data(), twist=twists, conjugate=st.booleans())
def test_symmetries_invariant_under_twist_and_conjugation(base, data, twist, conjugate):
    config = data.draw(BASES[base])
    moved = SemiProjMap(twist).apply(config)
    if conjugate:
        moved = moved.conj()
    tag = classify(config).tag
    assert classify(moved).tag is tag
    before, after = _decide(config), _decide(moved)
    assert (after.fom_real, after.descends) == (before.fom_real, before.descends)
    if tag is not ConfigTag.HAS_FRAME:
        return
    before, after = normalizer(config), normalizer(moved)
    assert after.order == before.order
    assert after.order_profile == before.order_profile
    assert after.structure == before.structure
    assert len(aut_group(moved)) == len(aut_group(config))


def _decide(config):
    """The descent certificate, checked against `fom_real` and, when positive,
    re-verified after a JSON round trip."""
    cert = descends_real(config)
    assert fom_real(config) == (cert.fom_real, cert.fom_witness)
    if cert.descends:
        data = json.loads(json.dumps(certificate_to_json(cert)))
        assert real_model_check(config, certificate_from_json(data)) == (True, None)
    return cert
