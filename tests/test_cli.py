import hashlib
import json

import pytest

from planar_descent.cli import certificate_from_json, main, map_from_json
from planar_descent.errors import InvalidInputError

# sha256 of the report of `verify-paper --m-range 1..1 --samples 4 --seed 3`;
# a change that alters it on purpose must say so and why
SMALL_REPORT_SHA256 = "5cf1898a436d103540b5a441e1844df024a4244552084cf42801305c281e9e13"
# sha256 of the report of `verify-paper --seed 0` at every other default; same rule
DEFAULT_REPORT_SHA256 = "7b0d854efa227cdc0608db2da74faf8d1680baf84eb02d835056775a6b48c9de"


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
    infile = write_config(tmp_path / "lpp.json",
                          ["(0:1:0)", "(1:1:0)", "(2:1:0)", "(3:1:0)", "(0:0:1)"])
    code, out, _ = run_cli(["classify", "--in", infile], capsys)
    assert code == 0
    assert json.loads(out) == {"class": "LinePlusPoint", "line": "[0:0:1]", "residue": "(0:0:1)"}


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
    with pytest.raises(InvalidInputError, match='needs a "matrix" array'):
        map_from_json({"antiholo": True})
    with pytest.raises(InvalidInputError, match="nine entries"):
        map_from_json({"matrix": identity[:8]})
    with pytest.raises(InvalidInputError, match='needs a "descends" field'):
        certificate_from_json({"fom_real": True, "route": "frame"})
    element = {"antiholo": True, "matrix": identity}
    for refutation in (["x"], [{"element": element}], {"element": element}):
        with pytest.raises(InvalidInputError):
            certificate_from_json({"descends": False, "refutation": refutation})
    # strings are not JSON booleans, and a route is one of the three names
    for data in ({"descends": "false"}, {"descends": False, "fom_real": "false"},
                 {"descends": False, "route": 7}):
        with pytest.raises(InvalidInputError):
            certificate_from_json(data)


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


def _assert_one_error_line(code, out, err, text):
    assert code == 2 and out == ""
    assert err.startswith(f"error: {text}") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("text, message", [
    ('{"points": ["1:0:0"]}', "point '1:0:0' must look like (x:y:z)"),
    ('{"pts": ["(1:0:0)"]}', 'configuration JSON needs a "points" array'),
    ('{"points": [[1, 0, 0]]}', '"points" must be an array of strings'),
    ("points: (1:0:0)", "{path} is not valid JSON: "),
], ids=["no parentheses", "no points", "not strings", "not JSON"])
def test_malformed_input_file_exit_code(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.json"
    bad.write_text(text, encoding="utf-8")
    code, out, err = run_cli(["classify", "--in", str(bad)], capsys)
    _assert_one_error_line(code, out, err, message.format(path=bad))


def test_input_file_that_is_not_utf8_exit_code(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"points": ["(1:0:0)"], "note": "caf\u00e9"}'.encode("latin-1"))
    code, out, err = run_cli(["descend", "--in", str(bad)], capsys)
    _assert_one_error_line(code, out, err, f"cannot read {bad}")


@pytest.mark.parametrize("wrap", ["{}", '{{"points": {}}}'], ids=["top", "points"])
def test_input_file_nested_too_deep_exit_code(tmp_path, capsys, wrap):
    deep = tmp_path / "deep.json"
    deep.write_text(wrap.format("[" * 100000 + "]" * 100000), encoding="utf-8")
    code, out, err = run_cli(["descend", "--in", str(deep)], capsys)
    _assert_one_error_line(code, out, err, f"cannot read {deep}")


def test_output_path_that_cannot_be_written_exit_code(tmp_path, capsys):
    infile = write_config(tmp_path / "frame.json", ["(1:0:0)", "(0:1:0)", "(0:0:1)", "(1:1:1)"])
    outfile = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(["descend", "--in", infile, "--out", str(outfile)], capsys)
    _assert_one_error_line(code, out, err, f"cannot write {outfile}")


def test_integer_past_the_digit_limit_in_input_exit_code(tmp_path, capsys):
    point = "(" + "9" * 5000 + ":0:1)"
    infile = write_config(tmp_path / "long.json", [point])
    code, out, err = run_cli(["classify", "--in", infile], capsys)
    _assert_one_error_line(code, out, err, f"point {point!r}, coordinate 1 ")
    assert "digits" in err
    # a JSON number that long stops the JSON reader itself
    number = tmp_path / "number.json"
    number.write_text('{"points": [' + "9" * 5000 + "]}", encoding="utf-8")
    code, out, err = run_cli(["classify", "--in", str(number)], capsys)
    _assert_one_error_line(code, out, err, f"cannot read {number}")


def test_integer_past_the_digit_limit_in_output_exit_code(tmp_path, capsys):
    # inputs of at most about 800 digits whose certificate needs longer integers
    from planar_descent.cli import config_to_json
    from planar_descent.plane import PointConfig, ProjPoint, SemiProjMap

    e = 10 ** 399
    twist = SemiProjMap(((f"{e + 1}+{e}i", e + 2, 3), (5, f"{e + 7}-{e}i", e + 11),
                         (e + 13, 17, f"{e}+{e + 19}i")))
    config = twist.apply(PointConfig([ProjPoint(1, 0, 0), ProjPoint(0, 1, 0),
                                      ProjPoint(0, 0, 1), ProjPoint(1, 1, 1),
                                      ProjPoint(1, 2, 3)]))
    infile = tmp_path / "twisted.json"
    infile.write_text(json.dumps(config_to_json(config)), encoding="utf-8")
    code, out, err = run_cli(["descend", "--in", str(infile)], capsys)
    _assert_one_error_line(code, out, err, "an integer of the result is longer than ")
    assert "digits" in err


def test_malformed_coordinate_exit_code(tmp_path, capsys):
    bad = write_config(tmp_path / "bad2.json", ["(1+i:0:1)", "(0:1:0)"])
    code, _, err = run_cli(["classify", "--in", bad], capsys)
    assert code == 2


def test_malformed_coordinate_names_point_and_coordinate(tmp_path, capsys):
    for point, k, part in (("(1 : 0 : 0)", 1, "1 "), ("(0:1:2+3)", 3, "2+3")):
        bad = write_config(tmp_path / "bad3.json", ["(0:0:1)", point])
        code, out, err = run_cli(["classify", "--in", bad], capsys)
        assert code == 2 and out == ""
        assert f"point {point!r}, coordinate {k} {part!r}: " in err
        assert err.count("\n") == 1 and "Traceback" not in err


def test_malformed_matrix_entry_names_entry():
    entries = ["1", "0", "0", "0", "1 ", "0", "0", "0", "1"]
    for data in ({"matrix": entries}, {"antiholo": True, "matrix": entries}):
        with pytest.raises(InvalidInputError) as exc:
            map_from_json(data)
        assert str(exc.value).startswith("map matrix, entry 5 '1 ': ")
    cert = {"descends": False, "refutation": [
        {"element": {"antiholo": True, "matrix": entries}, "square": {"matrix": entries}}]}
    with pytest.raises(InvalidInputError, match="entry 5 '1 '"):
        certificate_from_json(cert)


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


def test_verify_paper_default_report_pinned(capsys, tmp_path):
    out = tmp_path / "r.json"
    code, _, _ = run_cli(["verify-paper", "--seed", "0", "--out", str(out)], capsys)
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DEFAULT_REPORT_SHA256


@pytest.mark.parametrize("args", [
    ["--m-range", "x"], ["--m-range", "1..y"], ["--m-range", "3..1"], ["--samples", "-1"],
    ["--m-range", "1..1000000000000000", "--samples", "0"],
])
def test_verify_paper_argument_errors_are_typed(capsys, args):
    code, out, err = run_cli(["verify-paper"] + args, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_verify_paper_refuses_an_empty_pool(capsys):
    code, out, err = run_cli(["verify-paper", "--a", "", "--samples", "0"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("max_n", ["-5", "0", "x"])
def test_max_n_must_be_a_positive_integer(tmp_path, capsys, max_n):
    infile = write_config(tmp_path / "frame.json",
                          ["(1:0:0)", "(0:1:0)", "(0:0:1)", "(1:1:1)"])
    with pytest.raises(SystemExit) as exc:
        main(["descend", "--in", infile, "--max-n", max_n])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --max-n" in captured.err and "enumeration guard" not in captured.err
    assert captured.err.count("error:") == 1 and "Traceback" not in captured.err


def test_verify_paper_accepts_zero_samples(capsys):
    code, out, _ = run_cli(["verify-paper", "--m-range", "1", "--samples", "0"], capsys)
    assert code == 0
    assert json.loads(out)["passed"] is True


@pytest.mark.parametrize("args", [
    ["descend", "--seed", "1"], ["classify", "--seed", "1"],
    ["family", "--max-n", "5", "--a", "2+1i"], ["verify-paper", "--max-n", "5"],
])
def test_flags_a_command_does_not_read_are_rejected(tmp_path, capsys, args):
    if args[0] in ("descend", "classify"):
        args = args + ["--in", write_config(tmp_path / "frame.json",
                                            ["(1:0:0)", "(0:1:0)", "(0:0:1)", "(1:1:1)"])]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments" in captured.err


def test_max_n_guard(tmp_path, capsys):
    many = [f"({k}:{k * k}:1)" for k in range(21)]
    infile = write_config(tmp_path / "many.json", many)
    few = write_config(tmp_path / "few.json", many[:4])
    guard = "21 points exceed the enumeration guard of 20"
    for args in (["classify", "--in", infile], ["descend", "--in", infile],
                 ["equiv", "--in", few, "--target", infile]):
        code, out, err = run_cli(args, capsys)
        _assert_one_error_line(code, out, err, guard)
    code, out, _ = run_cli(["classify", "--in", infile, "--max-n", "25"], capsys)
    assert code == 0
    assert json.loads(out)["class"] == "HasFrame"
    code, out, _ = run_cli(["descend", "--in", infile, "--max-n", "25"], capsys)
    assert code == 0
    assert json.loads(out)["descends"] is True  # the points are real


def test_output_file_writing(tmp_path, capsys):
    infile = write_config(tmp_path / "frame.json",
                          ["(1:0:0)", "(0:1:0)", "(0:0:1)", "(1:1:1)"])
    outfile = tmp_path / "out.json"
    code, out, _ = run_cli(["classify", "--in", infile, "--out", str(outfile)],
                           capsys)
    assert code == 0
    assert out == ""
    assert json.loads(outfile.read_text())["class"] == "HasFrame"
