import hashlib
import json

import pytest

from planar_descent.cli import main

# sha256 of the report of `verify-paper --m-range 1..1 --samples 4 --seed 3`;
# a change that alters it on purpose must say so and why
SMALL_REPORT_SHA256 = "5cf1898a436d103540b5a441e1844df024a4244552084cf42801305c281e9e13"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(path, points):
    path.write_text(json.dumps({"points": points}), encoding="utf-8")
    return str(path)


def test_family_command_emits_paper_points(tmp_path, capsys):
    code, out, _ = run_cli(["family", "--variant", "S", "--a", "2+1i"], capsys)
    assert code == 0
    data = json.loads(out)
    assert sorted(data["points"]) == sorted([
        "(0:1:-1)", "(0:1:1)", "(1:-2+1i:0)", "(1:0:-1)", "(1:0:1)",
        "(1:2/5-1/5i:0)",
    ])


def test_family_m_cross_check(capsys):
    code, _, err = run_cli(["family", "--a", "2+1i", "--m", "2"], capsys)
    assert code == 2
    assert "error" in err


def test_descend_on_family_refuses(tmp_path, capsys):
    code, out, _ = run_cli(["family", "--variant", "S", "--a", "2+1i"], capsys)
    family_points = json.loads(out)["points"]
    infile = write_config(tmp_path / "s6.json", family_points)
    code, out, _ = run_cli(["descend", "--in", infile], capsys)
    assert code == 0
    cert = json.loads(out)
    assert cert["fom_real"] is True
    assert cert["descends"] is False
    assert len(cert["refutation"]) == 2


def test_aut_on_frame(tmp_path, capsys):
    infile = write_config(tmp_path / "frame.json",
                          ["(1:0:0)", "(0:1:0)", "(0:0:1)", "(1:1:1)"])
    code, out, _ = run_cli(["aut", "--in", infile], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 24
    assert len(data["automorphisms"]) == 24


def test_classify_command(tmp_path, capsys):
    infile = write_config(tmp_path / "col.json",
                          ["(0:1:0)", "(1:1:0)", "(2:1:0)", "(3:1:0)"])
    code, out, _ = run_cli(["classify", "--in", infile], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["class"] == "Collinear"
    assert data["line"] == "[0:0:1]"


def test_equiv_command(tmp_path, capsys):
    frame = ["(1:0:0)", "(0:1:0)", "(0:0:1)", "(1:1:1)"]
    a = write_config(tmp_path / "a.json", frame)
    b = write_config(tmp_path / "b.json", frame)
    code, out, _ = run_cli(["equiv", "--in", a, "--target", b], capsys)
    assert code == 0
    assert json.loads(out)["count"] == 24


def test_fom_command(tmp_path, capsys):
    infile = write_config(tmp_path / "stable.json",
                          ["(1:0:0)", "(0:1:0)", "(0:0:1)", "(1:1:1)"])
    code, out, _ = run_cli(["fom", "--in", infile], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["fom_real"] is True
    assert data["witness"]["antiholo"] is True


def test_normalizer_command(tmp_path, capsys):
    code, out, _ = run_cli(["family", "--variant", "S", "--a", "2+1i"], capsys)
    infile = write_config(tmp_path / "s.json", json.loads(out)["points"])
    code, out, _ = run_cli(["normalizer", "--in", infile], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 4
    assert data["structure"] == "C4"
    assert data["order_profile"] == [1, 2, 4, 4]


def test_certificate_round_trip_reverifies(tmp_path, capsys):
    from planar_descent.cli import certificate_from_json, config_from_json
    from planar_descent.descent import real_model_check

    # a twisted conjugation-stable set: emitted certificate must re-verify
    stable = ["(1:0:0)", "(0:1:0)", "(0:0:1)", "(1:1:1)", "(2:3:1)"]
    infile = write_config(tmp_path / "stable.json", stable)
    code, out, _ = run_cli(["descend", "--in", infile], capsys)
    assert code == 0
    cert = certificate_from_json(json.loads(out))
    assert cert.descends
    config = config_from_json({"points": stable})
    assert real_model_check(config, cert) == (True, None)


def test_refutation_round_trip_rechecks(tmp_path, capsys):
    from planar_descent.cli import certificate_from_json, config_from_json

    code, out, _ = run_cli(["family", "--variant", "S", "--a", "2+1i"], capsys)
    family_points = json.loads(out)["points"]
    infile = write_config(tmp_path / "s6.json", family_points)
    code, out, _ = run_cli(["descend", "--in", infile], capsys)
    assert code == 0
    cert = certificate_from_json(json.loads(out))
    config = config_from_json({"points": family_points})
    assert not cert.descends and len(cert.refutation) == 2
    for element, square in cert.refutation:
        assert element.antiholo
        assert element.apply(config) == config
        assert (element * element) == square
        assert not square.is_identity()


def test_certificate_input_errors_are_typed():
    from planar_descent.cli import certificate_from_json, map_from_json
    from planar_descent.errors import InvalidInputError

    identity = ["1", "0", "0", "0", "1", "0", "0", "0", "1"]
    assert map_from_json({"antiholo": True, "matrix": identity}).antiholo
    assert not map_from_json({"matrix": identity}).antiholo
    # "false" is a string, not the JSON boolean; it used to mean true
    with pytest.raises(InvalidInputError):
        map_from_json({"antiholo": "false", "matrix": identity})
    with pytest.raises(InvalidInputError):
        map_from_json({"matrix": [1, 0, 0, 0, 1, 0, 0, 0, 1]})
    element = {"antiholo": True, "matrix": identity}
    for refutation in (["x"], [{"element": element}], {"element": element}):
        with pytest.raises(InvalidInputError):
            certificate_from_json({"descends": False, "refutation": refutation})


def test_descend_without_qi_model_exit_code(tmp_path, capsys):
    # real descent holds, but every real model needs coordinates outside Q(i)
    infile = write_config(tmp_path / "irrational.json", [
        "(1+1i:1:0)", "(3/2+3/2i:1:0)", "(2:1:0)", "(3/2:1:0)", "(5:1:0)",
        "(3/5:1:0)",
    ])
    code, out, err = run_cli(["descend", "--in", infile], capsys)
    assert code == 4
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_invalid_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"points": ["(1:0)"]}', encoding="utf-8")
    code, _, err = run_cli(["classify", "--in", str(bad)], capsys)
    assert code == 2
    assert "error" in err
    code, _, err = run_cli(["classify", "--in", str(tmp_path / "nope.json")], capsys)
    assert code == 2


def test_malformed_coordinate_exit_code(tmp_path, capsys):
    bad = write_config(tmp_path / "bad2.json", ["(1+i:0:1)", "(0:1:0)"])
    code, _, err = run_cli(["classify", "--in", bad], capsys)
    assert code == 2


def test_verify_paper_small_and_deterministic(capsys, tmp_path):
    args = ["verify-paper", "--m-range", "1..1", "--samples", "4", "--seed", "3"]
    code, out1, _ = run_cli(args + ["--out", str(tmp_path / "r1.json")], capsys)
    assert code == 0
    code, _, _ = run_cli(args + ["--out", str(tmp_path / "r2.json")], capsys)
    assert code == 0
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
    digest = hashlib.sha256((tmp_path / "r1.json").read_bytes()).hexdigest()
    assert digest == SMALL_REPORT_SHA256
    report = json.loads((tmp_path / "r1.json").read_text())
    assert report["passed"] is True
    assert report["family_cases"][0]["normalizer_structure"] == "C4"


@pytest.mark.parametrize("args", [
    ["--m-range", "x"], ["--m-range", "1..y"], ["--m-range", "3..1"], ["--samples", "-1"],
])
def test_verify_paper_argument_errors_are_typed(capsys, args):
    code, out, err = run_cli(["verify-paper"] + args, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_verify_paper_accepts_zero_samples(capsys):
    code, out, _ = run_cli(["verify-paper", "--m-range", "1", "--samples", "0"], capsys)
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_seed_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PLANAR_DESCENT_SEED", "11")
    infile = write_config(tmp_path / "stable.json",
                          ["(1:0:0)", "(0:1:0)", "(0:0:1)", "(1:1:1)"])
    code, out, _ = run_cli(["descend", "--in", infile, "--seed", "4"], capsys)
    assert code == 0
    monkeypatch.setenv("PLANAR_DESCENT_SEED", "not-a-number")
    code, _, err = run_cli(["descend", "--in", infile], capsys)
    assert code == 2


def test_max_n_guard(tmp_path, capsys):
    many = [f"({k}:{k * k}:1)" for k in range(21)]
    infile = write_config(tmp_path / "many.json", many)
    code, _, err = run_cli(["classify", "--in", infile], capsys)
    assert code == 2 and "guard" in err
    code, out, _ = run_cli(["classify", "--in", infile, "--max-n", "25"], capsys)
    assert code == 0
    assert json.loads(out)["class"] == "HasFrame"


def test_output_file_writing(tmp_path, capsys):
    infile = write_config(tmp_path / "frame.json",
                          ["(1:0:0)", "(0:1:0)", "(0:0:1)", "(1:1:1)"])
    outfile = tmp_path / "out.json"
    code, out, _ = run_cli(["classify", "--in", infile, "--out", str(outfile)],
                           capsys)
    assert code == 0
    assert out == ""
    assert json.loads(outfile.read_text())["class"] == "HasFrame"
