"""Metamorphic properties: twists and conjugation keep every symmetry invariant."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from planar_descent.descent import descends_real, normalizer
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
    before, after = normalizer(config), normalizer(moved)
    assert after.order == before.order
    assert after.order_profile == before.order_profile
    assert after.structure == before.structure
    assert len(aut_group(moved)) == len(aut_group(config))
    assert descends_real(moved).descends == descends_real(config).descends
