"""Decision benchmark for planar-descent.

    python3 decision_bench/run.py --workload battery|symmetric|generic \
        [--seed N] [--seconds S] [--trace 0|1] [--steady K]

Each decision is one closed-loop call from one thread, in this process:
`cli.config_from_json` parses the JSON text, the decision functions
run, and `cli.certificate_to_json` plus `json.dumps` serialize the
result.  The loop runs whole passes over the workload's seeded input
list until `--seconds` have passed and the workload's minimum decision
count is reached.  Every output is then checked by `check.py`, outside
the timed section.

--trace 0 prints the end-to-end metrics; --trace 1 runs one pass
untraced, one with layer spans and one under cProfile, and prints the
per-layer metrics.  --steady K runs the workload K times with seeds
N..N+K-1 and prints each end-to-end metric's median, quartiles and
spread against its bound in BENCHMARK.json.  The last line of stdout is
always one JSON object.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import check  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

# Tail percentile and the decision count every run reaches, chosen so
# that at least ten samples lie beyond the percentile.
TAIL = {"battery": (95, 200), "symmetric": (80, 50), "generic": (80, 50)}
# Fresh-interpreter imports before and after the timed loop; setup_s is
# their median, so a slow spell of the machine at either end weighs less.
SETUP_SAMPLES = 6

END_TO_END = ("decisions_per_s", "latency_p50_ms", "latency_tail_ms", "peak_rss_mb", "setup_s")


def load_program():
    if not (SRC / "planar_descent" / "__init__.py").is_file():
        raise SystemExit(f"error: no planar_descent package under {SRC}")
    sys.path.insert(0, str(SRC))
    import planar_descent
    import planar_descent.cli

    if Path(planar_descent.__file__).resolve().parent != SRC / "planar_descent":
        raise SystemExit("error: planar_descent was imported from outside the checkout")
    return planar_descent


# --- the three decision shapes ------------------------------------------------------


class Workload:
    """parse -> decide -> serialize, through the program's public functions."""

    def __init__(self, name, package):
        self.cli = package.cli
        self.descent = package.descent
        self.decide = getattr(self, "_decide_" + name)
        self.serialize = getattr(self, "_serialize_" + name)

    def parse(self, text):
        return self.cli.config_from_json(json.loads(text))

    def _dumps(self, payload):
        return json.dumps(payload, sort_keys=True, indent=2)

    def _decide_battery(self, config):
        cert = self.descent.descends_real(config)
        model_check = self.descent.real_model_check(config, cert) if cert.descends else None
        return cert, model_check

    def _serialize_battery(self, result):
        cert, model_check = result
        return self._dumps({
            "certificate": self.cli.certificate_to_json(cert),
            "model_check": list(model_check) if model_check else None,
        })

    def _decide_symmetric(self, config):
        fom, witness = self.descent.fom_real(config)
        group = self.descent.normalizer(config)
        cert = self.descent.descends_real(config)
        return fom, witness, group, cert

    def _serialize_symmetric(self, result):
        fom, witness, group, cert = result
        to_json = self.cli.map_to_json
        return self._dumps({
            "fom": {"fom_real": fom, "witness": to_json(witness) if witness else None},
            "normalizer": {
                "order": group.order,
                "structure": group.structure,
                "order_profile": list(group.order_profile),
                "elements": [to_json(g) for g in group.elements],
            },
            "certificate": self.cli.certificate_to_json(cert),
        })

    def _decide_generic(self, config):
        return self.descent.descends_real(config)

    def _serialize_generic(self, cert):
        return self._dumps({"certificate": self.cli.certificate_to_json(cert)})

    def run(self, text):
        return self.serialize(self.decide(self.parse(text)))

    def run_traced(self, text, tracer):
        config = tracer.span("cli.parse", self.parse, text)
        result = tracer.span("decide", self.decide, config)
        return tracer.span("cli.serialize", self.serialize, result)


class Outputs:
    """First output per case, plus any later output that differs from it.

    Later passes repeat the same inputs, so memory stays bounded by one
    pass while every output is still checked.
    """

    def __init__(self, size):
        self.first = [None] * size
        self.counts = [0] * size
        self.differing = []

    def add(self, index, text):
        self.counts[index] += 1
        if self.first[index] is None:
            self.first[index] = text
        elif text != self.first[index]:
            self.differing.append((index, text))


def _report_failure(case, exc):
    print(f"decision failed on {case.label}: {exc!r}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def run_pass(workload, cases, outputs, latencies, tracer=None):
    failed = 0
    for index, case in enumerate(cases):
        start = perf_counter()
        try:
            if tracer is None:
                text = workload.run(case.text)
            else:
                tracer.decision = index
                text = workload.run_traced(case.text, tracer)
        except Exception as exc:  # one failed decision must not end the run
            _report_failure(case, exc)
            failed += 1
            continue
        latencies.append(perf_counter() - start)
        outputs.add(index, text)
    return failed


def timed_loop(workload, cases, seconds, min_decisions):
    outputs = Outputs(len(cases))
    latencies = []
    attempted = failed = 0
    start = perf_counter()
    while True:
        failed += run_pass(workload, cases, outputs, latencies)
        attempted += len(cases)
        elapsed = perf_counter() - start
        if elapsed >= seconds and attempted >= min_decisions:
            return outputs, latencies, attempted, failed, elapsed


def measure_setup(samples, warm_up=False):
    """Seconds for fresh interpreters to import planar_descent and its CLI.

    With warm_up, one first import, which may also write bytecode
    caches, is made and discarded.
    """
    code = (
        "import time\n"
        "t0 = time.perf_counter()\n"
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import planar_descent, planar_descent.cli\n"
        "print(repr(time.perf_counter() - t0))\n"
    )
    times = []
    for k in range(samples + int(warm_up)):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120, cwd=ROOT)
        if proc.returncode:
            raise SystemExit(f"error: import of planar_descent failed:\n{proc.stderr}")
        if k or not warm_up:
            times.append(float(proc.stdout))
    return times


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(sorted_values, p):
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


# --- checking -----------------------------------------------------------------------


def check_outputs(name, cases, outputs):
    """(ok flag per case, problems) for every distinct output of the run."""
    ok = [False] * len(cases)
    problems = []
    for index, text in enumerate(outputs.first):
        if text is None:
            continue
        try:
            check.check_output(name, cases[index], json.loads(text))
            ok[index] = True
        except (check.CheckError, KeyError, TypeError, ValueError) as exc:
            problems.append(f"{cases[index].label} (case {index}): {exc}")
    for index, text in outputs.differing:
        try:
            check.check_output(name, cases[index], json.loads(text))
        except (check.CheckError, KeyError, TypeError, ValueError) as exc:
            ok[index] = False
            problems.append(f"{cases[index].label} (case {index}, later pass): {exc}")
    return ok, problems


def first_certificate(cases, outputs):
    for case, text in zip(cases, outputs.first):
        if text is not None and case.expect["descends"]:
            return case, json.loads(text)["certificate"]
    return None, None


def run_self_test(workload, cases, outputs):
    case, cert = first_certificate(cases, outputs)
    if cert is None:
        return ["no positive certificate to tamper with"]
    family = workloads.family_case("S/m=1", 1, "S", random.Random("self-test"))
    group = workload.descent.normalizer(workload.parse(family.text))
    anti = next(e for e in group.elements if e.antiholo)
    try:
        return check.self_test(case.points, cert, family.points, workload.cli.map_to_json(anti))
    except check.CheckError as exc:
        return [f"self-test inputs did not check: {exc}"]


def run_metamorphic(workload, cases, outputs, seed):
    """Generic negatives keep their verdict under a further twist and under conjugation."""
    problems = []
    for original, variant in workloads.metamorphic_variants(cases, seed):
        first = outputs.first[cases.index(original)]
        if first is None:
            problems.append(f"{variant.label}: the original decision failed")
            continue
        expected = check.verdict(json.loads(first)["certificate"])
        try:
            got = json.loads(workload.run(variant.text))["certificate"]
            check.check_generic(variant.points, got, original.expect)
        except Exception as exc:  # reported as a check failure
            problems.append(f"{variant.label}: {exc!r}")
            continue
        if check.verdict(got) != expected:
            problems.append(f"{variant.label}: verdict {check.verdict(got)} != {expected}")
    return problems


def verify(workload, name, cases, outputs, seed):
    ok, problems = check_outputs(name, cases, outputs)
    problems += run_self_test(workload, cases, outputs)
    if name == "generic":
        problems += run_metamorphic(workload, cases, outputs, seed)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return ok, not problems


# --- modes --------------------------------------------------------------------------


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, package):
    name = args.workload
    workload = Workload(name, package)
    cases = workloads.GENERATORS[name](args.seed)
    setup = measure_setup(SETUP_SAMPLES, warm_up=True)
    tail_p, min_decisions = TAIL[name]
    outputs, latencies, attempted, failed, elapsed = timed_loop(
        workload, cases, args.seconds, min_decisions)
    rss = peak_rss_mb()
    setup += measure_setup(SETUP_SAMPLES)
    ok, correct = verify(workload, name, cases, outputs, args.seed)
    checked = sum(count for count, good in zip(outputs.counts, ok) if good)
    ordered = sorted(latencies)
    metrics = {
        "decisions_per_s": metric(checked / elapsed, "1/s"),
        "latency_p50_ms": metric(statistics.median(ordered) * 1e3, "ms"),
        "latency_tail_ms": metric(percentile(ordered, tail_p) * 1e3, "ms"),
        "peak_rss_mb": metric(rss, "MB"),
        "setup_s": metric(statistics.median(setup), "s"),
    }
    print(f"workload {name}, seed {args.seed}: {attempted} decisions in {elapsed:.2f} s, "
          f"{len(cases)} per pass; latency_tail_ms is p{tail_p} of {len(latencies)}")
    return correct, attempted, failed, metrics


def traced(args, package):
    name = args.workload
    workload = Workload(name, package)
    cases = workloads.GENERATORS[name](args.seed)

    def one_pass(tracer=None):
        outputs, latencies = Outputs(len(cases)), []
        start = perf_counter()
        failed = run_pass(workload, cases, outputs, latencies, tracer)
        return outputs, failed, perf_counter() - start

    plain, failed_plain, plain_s = one_pass()
    tracer = layers.Tracer(package)
    tracer.install()
    try:
        spanned, failed_spans, spans_s = one_pass(tracer)
    finally:
        tracer.uninstall()
    (profiled, failed_profile, _), profile = layers.profile_pass(one_pass)

    ok, correct = verify(workload, name, cases, plain, args.seed)
    if spanned.first != plain.first or profiled.first != plain.first:
        print("check failed: traced outputs differ from untraced ones", file=sys.stderr)
        correct = False

    def seconds(span_name):
        return tracer.totals(span_name)[1]

    def calls(span_name):
        return tracer.totals(span_name)[0]

    m = {
        "cli.parse_s": metric(seconds("cli.parse"), "s"),
        "cli.serialize_s": metric(seconds("cli.serialize"), "s"),
        "cli.bytes_out": metric(sum(len(t.encode()) for t in plain.first if t), "bytes"),
        "gaussian.self_s": metric(profile["self_s"]["gaussian"], "s"),
        "gaussian.fractions_self_s": metric(profile["fractions_self_s"], "s"),
        "gaussian.fraction_constructions": metric(profile["fraction_constructions"], "count"),
        "gaussian.two_squares.calls": metric(calls("gaussian.two_squares"), "count"),
        "gaussian.two_squares_s": metric(seconds("gaussian.two_squares"), "s"),
        "plane.self_s": metric(profile["self_s"]["plane"], "s"),
        "plane.compose.calls": metric(calls("plane.compose"), "count"),
        "plane.inverse.calls": metric(calls("plane.inverse"), "count"),
        "plane.apply.calls": metric(calls("plane.apply"), "count"),
        "equivalence.equivalences.calls": metric(calls("equivalence.equivalences"), "count"),
        "equivalence.equivalences_s": metric(seconds("equivalence.equivalences"), "s"),
        "equivalence.self_s": metric(profile["self_s"]["equivalence"], "s"),
        "equivalence.maps_found": metric(tracer.maps_found, "count"),
        "equivalence.candidates": metric(tracer.candidates, "count"),
        "equivalence.accept_ratio": metric(
            tracer.maps_found / tracer.candidates if tracer.candidates else 0.0, "ratio"),
        "equivalence.aut_group_s": metric(seconds("equivalence.aut_group"), "s"),
        "equivalence.pgl2_equivalences_s": metric(seconds("equivalence.pgl2_equivalences"), "s"),
        "descent.self_s": metric(profile["self_s"]["descent"], "s"),
        "descent.normalizer_s": metric(seconds("descent.normalizer"), "s"),
        "descent.fom_real_s": metric(seconds("descent.fom_real"), "s"),
        "descent.hilbert90_split.calls": metric(calls("descent.hilbert90_split"), "count"),
        "descent.hilbert90_split_s": metric(seconds("descent.hilbert90_split"), "s"),
        "descent.real_model_check_s": metric(seconds("descent.real_model_check"), "s"),
        "trace.overhead_s": metric(spans_s - plain_s, "s"),
    }
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{name}-seed{args.seed}.json"
    trace_file.write_text(json.dumps({
        "workload": name,
        "seed": args.seed,
        "untraced_s": plain_s,
        "spans_s": spans_s,
        "metrics": m,
        "profile_top": profile["top"],
        "spans": [
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "decision": s[4]}
            for s in tracer.spans
        ],
    }) + "\n")
    print(f"workload {name}, seed {args.seed}: one pass of {len(cases)} decisions each "
          f"untraced ({plain_s:.2f} s), with spans ({spans_s:.2f} s) and under cProfile; "
          f"spans in {trace_file.relative_to(ROOT)}")
    attempted = 3 * len(cases)
    return correct, attempted, failed_plain + failed_spans + failed_profile, m


def steady(args):
    """Run the workload K times and report each end-to-end metric's spread."""
    bounds = {}
    spec = ROOT / "BENCHMARK.json"
    if spec.is_file():
        bounds = {e["name"]: e["bound"] for e in json.loads(spec.read_text())["end_to_end"]}
    runs = []
    for j in range(args.steady):
        seed = args.seed + j
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=900, cwd=ROOT)
        if proc.returncode:
            print(proc.stderr, file=sys.stderr)
            raise SystemExit(f"error: run with seed {seed} exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        values = "  ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}  {values}", flush=True)
    summary = {}
    print(f"{'metric':<18}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}  verdict")
    for metric_name in END_TO_END:
        values = [r["metrics"][metric_name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        spread = (q3 - q1) / median
        bound = bounds.get(metric_name)
        verdict = "no bound" if bound is None else (
            "steady" if spread < bound / 3 else "within bound" if spread <= bound else "TOO WIDE")
        summary[metric_name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                                "bound": bound, "values": values}
        print(f"{metric_name:<18}{median:>12.5g}{q1:>12.5g}{q3:>12.5g}{spread:>9.2%}"
              f"{'' if bound is None else bound:>7}  {verdict}")
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print(f"failed share per run: {shares}")
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"steady-{args.workload}-seed{args.seed}-k{args.steady}.json"
    out_file.write_text(json.dumps({"workload": args.workload, "seconds": args.seconds,
                                    "runs": runs, "summary": summary}, indent=1) + "\n")
    print(json.dumps({"workload": args.workload, "runs": len(runs),
                      "spreads": {k: v["spread"] for k, v in summary.items()}}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="K",
                        help="run the workload K times and report spreads")
    args = parser.parse_args(argv)
    if args.steady:
        return steady(args)
    package = load_program()
    mode = traced if args.trace else end_to_end
    correct, attempted, failed, metrics = mode(args, package)
    for metric_name, entry in metrics.items():
        print(f"{metric_name}: {entry['value']} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
