"""Acceptance suite: one test per criterion, each printing a verdict line.

Every check is exact (tolerance zero).  Run with  pytest -s
tests/test_acceptance.py  to see the per-criterion lines.
"""

import json
import random
import time

import zi_oracle
from test_equivalence import (
    _random_config,
    _random_twist,
    assert_matches_brute_force,
    oracle_map,
    oracle_matrix,
)

from planar_descent.cli import main as cli_main
from planar_descent.descent import (
    descends_real,
    fom_real,
    normalizer,
    real_model_check,
)
from planar_descent.equivalence import (
    ConfigTag,
    NeedsReductionError,
    aut_group,
    classify,
    equivalences,
)
from planar_descent.families import (
    FamilyParams,
    _certify_generic,
    _variants,
    family,
    random_real_stable_config,
    random_twist,
)
from planar_descent.plane import (
    PointConfig,
    ProjPoint,
    SemiProjMap,
    line_through,
)

POOL = ("2+1i", "3+2i", "5+1i")
M = SemiProjMap(((-1, 0, 0), (0, -1, 0), (0, 0, 1)))
J = SemiProjMap(((0, -1, 0), (1, 0, 0), (0, 0, 1)))


def pt(a, b, c):
    return ProjPoint(a, b, c)


def test_criterion_1_counterexample_reproduction():
    started = time.time()
    identity_key = SemiProjMap.identity().key()
    for m in (1, 2, 3):
        params = FamilyParams(m, POOL[:m])
        assert _certify_generic(_variants(params)).generic
        for variant in ("S", "Sprime"):
            config = family(FamilyParams(m, POOL[:m], variant))
            assert len(config) == (2 * m + 4 if variant == "S" else 2 * m + 5)

            verdict, witness = fom_real(config)
            assert verdict and witness is not None and witness.antiholo
            assert SemiProjMap.from_z(witness.z).apply(config.conj()) == config

            auts = aut_group(config)
            assert {g.key() for g in auts} == {identity_key, M.key()}

            group = normalizer(config)
            assert group.structure == "C4"
            assert group.order_profile == (1, 2, 4, 4)

            cert = descends_real(config)
            assert cert.fom_real and not cert.descends
            assert len(cert.refutation) == 2
            for element, square in cert.refutation:
                assert element.antiholo
                assert square == M
    elapsed = time.time() - started
    assert elapsed < 10, f"criterion 1 took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 counterexample reproduction (n=6..11): PASS "
          f"({elapsed:.1f}s)")


def test_criterion_2_witness_cross_check():
    config = family(FamilyParams(1, ["2+1i"]))
    anti_matrices = equivalences(config.conj(), config)
    assert any(m == J for m in anti_matrices)
    print("\nACCEPTANCE 2 explicit witness [[0,-1,0],[1,0,0],[0,0,1]]: PASS")


def test_criterion_3_positive_direction():
    started = time.time()
    total = 0
    for size in (1, 2, 3, 4, 5):
        for index in range(200):
            rng = random.Random(90_000 + size * 1_000 + index)
            stable = random_real_stable_config(rng, size)
            assert stable.conj() == stable
            config = random_twist(rng).apply(stable)
            cert = descends_real(config)
            assert cert.descends, f"size {size} sample {index} did not descend"
            ok, reason = real_model_check(config, cert)
            assert ok, f"size {size} sample {index}: {reason}"
            assert cert.real_model.conj() == cert.real_model
            total += 1
    elapsed = time.time() - started
    assert total == 1000
    assert elapsed < 60, f"criterion 3 took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 3 positive direction (1000 twisted configs of size "
          f"1..5 all descend): PASS ({elapsed:.1f}s)")


def test_criterion_4_round_trip_soundness():
    produced = 0
    attempt = 0
    while produced < 100:
        rng = random.Random(70_000 + attempt)
        attempt += 1
        stable = random_real_stable_config(rng, rng.choice((4, 5)))
        if classify(stable).tag is not ConfigTag.HAS_FRAME:
            continue
        config = random_twist(rng).apply(stable)
        cert = descends_real(config)
        assert cert.descends
        ok, reason = real_model_check(config, cert)
        assert ok, reason
        b = oracle_matrix(cert.splitter.z)
        recovered = oracle_map(
            zi_oracle.matmul(b, zi_oracle.adjugate(zi_oracle.conj(b))), antiholo=True)
        assert recovered.z == cert.cocycle.z
        assert (recovered * recovered).is_identity()
        produced += 1
    print("\nACCEPTANCE 4 round-trip soundness (100 framed twists split "
          "exactly): PASS")


def test_criterion_5_oracle_equivalence():
    rng = random.Random(50)
    checked = 0
    sizes = [4] * 20 + [5] * 20 + [6] * 10
    for size in sizes:
        source = _random_config(rng, size)
        if rng.random() < 0.5:
            target = _random_twist(rng).apply(source)
        else:
            target = _random_config(rng, size)
        try:
            fast = equivalences(source, target)
        except NeedsReductionError:
            continue
        assert_matches_brute_force(fast, source, target)
        try:
            auts = aut_group(source)
        except NeedsReductionError:
            continue
        keys = {g.key() for g in auts}
        assert SemiProjMap.identity().key() in keys
        assert all(g.inverse().key() in keys for g in auts)
        assert all((g * h).key() in keys for g in auts for h in auts)
        checked += 1
    assert checked >= 50
    print(f"\nACCEPTANCE 5 oracle equivalence ({checked} two-sided "
          f"enumerations agree): PASS")


def test_criterion_6_case_analysis_artifacts():
    # three points on each of two lines, sharing (0:0:1)
    two_lines = PointConfig([
        pt(0, 0, 1), pt(0, 1, 0), pt(1, 0, 0), pt(0, 1, 1), pt(1, 0, 1),
    ])
    order = len(aut_group(two_lines))
    rng = random.Random(60)
    for _ in range(20):
        scrambled = random_twist(rng).apply(two_lines)
        maps = equivalences(scrambled, two_lines)
        assert len(maps) == order
        assert all(g.apply(scrambled) == two_lines for g in maps)
    print("\nACCEPTANCE 6 case-analysis artifacts (two-line five-point set "
          "recovered from 20 twists): PASS")


def test_criterion_7_structural_lemma_check():
    square = PointConfig([pt(1, 0, 1), pt(-1, 0, 1), pt(0, 1, 1), pt(0, -1, 1)])
    auts = aut_group(square)
    assert len(auts) == 24
    origin = pt(0, 0, 1)
    infinity = line_through(pt(1, 0, 0), pt(0, 1, 0))
    dihedral = [
        g for g in auts
        if g.apply(origin) == origin
        and infinity.contains(g.apply(pt(1, 0, 0)))
        and infinity.contains(g.apply(pt(0, 1, 0)))
    ]
    assert len(dihedral) == 8
    print("\nACCEPTANCE 7 structural check (square symmetries: 24 total, "
          "8 fixing center and infinity): PASS")


def test_criterion_8_determinism(tmp_path, capsys):
    args = ["verify-paper", "--m-range", "1..1", "--samples", "10", "--seed", "0"]
    first = tmp_path / "run1.json"
    second = tmp_path / "run2.json"
    assert cli_main(args + ["--out", str(first)]) == 0
    assert cli_main(args + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    report = json.loads(first.read_text())
    assert report["passed"] is True
    print("\nACCEPTANCE 8 determinism (verify-paper byte-identical across "
          "runs): PASS")
