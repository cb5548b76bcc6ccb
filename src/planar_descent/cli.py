"""Command-line interface and JSON serialization.

Configurations travel as {"points": ["(x:y:z)", ...]} with each
coordinate in the exact Q(i) grammar ("2+1i", "-3/4", ...); maps as
{"antiholo": bool, "matrix": [nine strings, row-major]}.  Output is
deterministic: keys sorted, no timestamps, randomness only through
--seed (overridden by the PLANAR_DESCENT_SEED environment variable).

Exit codes: 0 success; 1 a verification run asserted something the
mathematics refused; 2 invalid input; 3 internal invariant failure;
4 the configuration descends over the reals, but no real model has
Q(i) coordinates.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import InternalError, InvalidInputError
from .gaussian import format_gq, parse_gq
from .equivalence import aut_group, classify, equivalences
from .descent import (
    DescentCertificate,
    IrrationalModelError,
    descends_real,
    fom_real,
    normalizer,
)
from .families import (
    DEFAULT_POOL,
    FamilyParams,
    family,
    verify_paper,
)
from .plane import PointConfig, ProjPoint, SemiProjMap

SEED_ENV_VAR = "PLANAR_DESCENT_SEED"


# --- serialization ------------------------------------------------------------


def point_to_string(p: ProjPoint) -> str:
    return str(p)


def point_from_string(text: str) -> ProjPoint:
    stripped = text.strip()
    if not (stripped.startswith("(") and stripped.endswith(")")):
        raise InvalidInputError(f"point {text!r} must look like (x:y:z)")
    parts = stripped[1:-1].split(":")
    if len(parts) != 3:
        raise InvalidInputError(f"point {text!r} must have three coordinates")
    return ProjPoint(*(parse_gq(part) for part in parts))


def config_to_json(config: PointConfig) -> dict:
    return {"points": [point_to_string(p) for p in config]}


def config_from_json(data) -> PointConfig:
    if not isinstance(data, dict) or "points" not in data:
        raise InvalidInputError('configuration JSON needs a "points" array')
    points = data["points"]
    if not isinstance(points, list) or not all(isinstance(p, str) for p in points):
        raise InvalidInputError('"points" must be an array of strings')
    return PointConfig(point_from_string(p) for p in points)


def map_to_json(m: SemiProjMap) -> dict:
    return {
        "antiholo": m.antiholo,
        "matrix": [format_gq(x) for row in m.matrix for x in row],
    }


def map_from_json(data) -> SemiProjMap:
    if not isinstance(data, dict) or "matrix" not in data:
        raise InvalidInputError('map JSON needs a "matrix" array')
    entries = data["matrix"]
    if not isinstance(entries, list) or len(entries) != 9:
        raise InvalidInputError("map matrix must hold nine entries, row-major")
    if not all(isinstance(entry, str) for entry in entries):
        raise InvalidInputError("map matrix entries must be strings")
    antiholo = data.get("antiholo", False)
    if not isinstance(antiholo, bool):
        raise InvalidInputError('"antiholo" must be true or false')
    values = [parse_gq(entry) for entry in entries]
    return SemiProjMap((values[0:3], values[3:6], values[6:9]), antiholo)


def certificate_to_json(cert: DescentCertificate) -> dict:
    return {
        "fom_real": cert.fom_real,
        "fom_witness": map_to_json(cert.fom_witness) if cert.fom_witness else None,
        "descends": cert.descends,
        "real_model": config_to_json(cert.real_model) if cert.real_model else None,
        "splitter": map_to_json(cert.splitter) if cert.splitter else None,
        "cocycle": map_to_json(cert.cocycle) if cert.cocycle else None,
        "refutation": [
            {"element": map_to_json(g), "square": map_to_json(sq)}
            for g, sq in cert.refutation
        ],
        "route": cert.route,
    }


def certificate_from_json(data) -> DescentCertificate:
    """Rebuild a certificate emitted by `descend`, for re-verification."""
    if not isinstance(data, dict) or "descends" not in data:
        raise InvalidInputError('certificate JSON needs a "descends" field')

    def opt_map(key):
        return map_from_json(data[key]) if data.get(key) else None

    entries = data.get("refutation", [])
    if not isinstance(entries, list) or not all(
        isinstance(entry, dict) and "element" in entry and "square" in entry
        for entry in entries
    ):
        raise InvalidInputError('"refutation" must be an array of {"element", "square"} objects')
    refutation = tuple(
        (map_from_json(entry["element"]), map_from_json(entry["square"])) for entry in entries
    )
    return DescentCertificate(
        fom_real=bool(data.get("fom_real")),
        fom_witness=opt_map("fom_witness"),
        descends=bool(data["descends"]),
        real_model=config_from_json(data["real_model"])
        if data.get("real_model") else None,
        splitter=opt_map("splitter"),
        cocycle=opt_map("cocycle"),
        refutation=refutation,
        route=data.get("route", ""),
    )


def classification_to_json(cls) -> dict:
    out = {"class": cls.tag.value}
    if cls.frame is not None:
        out["frame"] = [point_to_string(p) for p in cls.frame]
    if cls.line is not None:
        out["line"] = str(cls.line)
    if cls.residue is not None:
        out["residue"] = point_to_string(cls.residue)
    return out


def report_to_json(report) -> dict:
    cases = []
    for case in report.cases:
        cases.append({
            "m": case.m,
            "variant": case.variant,
            "n": case.n,
            "generic": case.generic,
            "skipped": case.skipped,
            "passed": case.passed,
            "fom_real": case.fom_real,
            "fom_witness": map_to_json(case.fom_witness) if case.fom_witness else None,
            "normalizer_structure": case.normalizer_structure,
            "normalizer_profile": list(case.normalizer_profile),
            "certificate": certificate_to_json(case.certificate)
            if case.certificate else None,
            "failures": list(case.failures),
        })
    battery = []
    for summary in report.battery:
        battery.append({
            "size": summary.size,
            "samples": summary.samples,
            "descended": summary.descended,
            "failures": [
                {
                    "size": size,
                    "sample": index,
                    "reason": reason,
                    "configuration": config_to_json(config),
                }
                for size, index, reason, config in summary.failures
            ],
        })
    return {
        "seed": report.seed,
        "m_values": list(report.m_values),
        "parameter_pool": [format_gq(x) for x in report.pool],
        "parameter_pool_note": report.pool_note,
        "family_cases": cases,
        "small_battery": battery,
        "battery_samples_per_size": report.battery_samples,
        "passed": report.passed,
    }


# --- command implementations ----------------------------------------------------


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path} is not valid JSON: {exc}") from exc


def _emit(args, payload) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_aut(args):
    config = config_from_json(_load_json(args.infile))
    maps = aut_group(config, args.max_n)
    _emit(args, {"order": len(maps), "automorphisms": [map_to_json(g) for g in maps]})
    return 0


def _cmd_equiv(args):
    source = config_from_json(_load_json(args.infile))
    target = config_from_json(_load_json(args.target))
    maps = equivalences(source, target, args.max_n)
    _emit(args, {
        "count": len(maps),
        "equivalences": [map_to_json(g) for g in maps],
    })
    return 0


def _cmd_classify(args):
    config = config_from_json(_load_json(args.infile))
    _emit(args, classification_to_json(classify(config, args.max_n)))
    return 0


def _cmd_fom(args):
    config = config_from_json(_load_json(args.infile))
    verdict, witness = fom_real(config, args.max_n)
    _emit(args, {
        "fom_real": verdict,
        "witness": map_to_json(witness) if witness else None,
    })
    return 0


def _cmd_descend(args):
    config = config_from_json(_load_json(args.infile))
    cert = descends_real(config, seed=args.seed, max_points=args.max_n)
    _emit(args, certificate_to_json(cert))
    return 0


def _cmd_normalizer(args):
    config = config_from_json(_load_json(args.infile))
    group = normalizer(config, args.max_n)
    _emit(args, {
        "order": group.order,
        "structure": group.structure,
        "order_profile": list(group.order_profile),
        "elements": [map_to_json(g) for g in group.elements],
    })
    return 0


def _parse_pool(text):
    return tuple(parse_gq(part.strip()) for part in text.split(","))


def _cmd_family(args):
    pool = _parse_pool(args.a)
    m = args.m if args.m is not None else len(pool)
    params = FamilyParams(m, pool, args.variant)
    _emit(args, config_to_json(family(params)))
    return 0


def _parse_m_range(text):
    low, dots, high = text.partition("..")
    try:
        m_values = tuple(range(int(low), int(high if dots else low) + 1))
    except ValueError:
        raise InvalidInputError(
            f"--m-range {text!r} is not an integer or a range like 1..3") from None
    if not m_values:
        raise InvalidInputError(f"--m-range {text!r} is empty")
    return m_values


def _cmd_verify_paper(args):
    pool = _parse_pool(args.a) if args.a else DEFAULT_POOL
    m_values = _parse_m_range(args.m_range)
    report = verify_paper(
        m_values=m_values,
        pool=pool,
        seed=args.seed,
        battery_samples=args.samples,
    )
    _emit(args, report_to_json(report))
    return 0 if report.passed else 1


# --- argument parsing -------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="planar-descent",
        description=(
            "Exact decisions about point configurations in the complex "
            "projective plane: symmetries, conjugation-equivalence, and "
            "descent to the real plane, with re-checkable certificates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, needs_input=True):
        p = sub.add_parser(name, help=help_text)
        if needs_input:
            p.add_argument("--in", dest="infile", required=True,
                           help="input configuration JSON")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        p.add_argument("--max-n", dest="max_n", type=int, default=20,
                       help="enumeration guard (default 20)")
        p.set_defaults(func=func)
        return p

    add("aut", _cmd_aut, "automorphism group of a configuration")
    equiv = add("equiv", _cmd_equiv, "all maps carrying one configuration onto another")
    equiv.add_argument("--target", required=True, help="target configuration JSON")
    add("classify", _cmd_classify, "frame / line-plus-point / collinear / tiny")
    add("fom", _cmd_fom, "is the conjugate configuration equivalent to the input?")
    add("descend", _cmd_descend, "decide real descent and emit a certificate")
    add("normalizer", _cmd_normalizer, "full symmetry group including conjugations")

    fam = add("family", _cmd_family, "generate a counterexample family", needs_input=False)
    fam.add_argument("--variant", choices=("S", "Sprime"), default="S")
    fam.add_argument("--a", required=True,
                     help="comma-separated parameters, e.g. \"2+1i,3+2i\"")
    fam.add_argument("--m", type=int, default=None,
                     help="expected parameter count (cross-check)")

    verify = add("verify-paper", _cmd_verify_paper,
                 "certify the counterexample families and the small-size battery",
                 needs_input=False)
    verify.add_argument("--m-range", dest="m_range", default="1..3",
                        help='e.g. "1..3" (default) or a single integer')
    verify.add_argument("--a", default=None,
                        help="comma-separated parameter pool (default 2+1i,3+2i,5+1i)")
    verify.add_argument("--samples", type=int, default=200,
                        help="battery samples per size (default 200)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if SEED_ENV_VAR in os.environ:
        try:
            args.seed = int(os.environ[SEED_ENV_VAR])
        except ValueError:
            print(f"error: {SEED_ENV_VAR} must be an integer", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except IrrationalModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
