"""Reference figures for README.md, each timed through the command-line tool.

    python3 decision_bench/reference.py verify-paper
    python3 decision_bench/reference.py frame48-normalizer
    python3 decision_bench/reference.py generic20-descend
    python3 decision_bench/reference.py line-route --digits 14

Each figure is the wall time of one `python3 -m planar_descent ...`
process (interpreter start-up included) on an input this script writes
to decision_bench/out/.  verify-paper also prints the sha256 of its
report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import qi  # noqa: E402


def cli(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PLANAR_DESCENT_SEED", None)
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "planar_descent", *args], env=env,
                          cwd=ROOT, capture_output=True, text=True)
    return perf_counter() - start, proc


def write_input(name, points):
    OUT.mkdir(exist_ok=True)
    path = OUT / name
    path.write_text(json.dumps({"points": points}) + "\n")
    return str(path)


def verify_paper(_args):
    OUT.mkdir(exist_ok=True)
    report = OUT / "verify-paper-report.json"
    seconds, proc = cli("verify-paper", "--out", str(report))
    digest = hashlib.sha256(report.read_bytes()).hexdigest() if report.exists() else "-"
    return seconds, proc, f"report sha256 {digest}"


def frame48_normalizer(_args):
    path = write_input("frame48.json", ["(1:0:0)", "(0:1:0)", "(0:0:1)", "(1:1:1)"])
    seconds, proc = cli("normalizer", "--in", path)
    order = json.loads(proc.stdout)["order"] if proc.returncode == 0 else "-"
    return seconds, proc, f"order {order}"


def generic20_descend(_args):
    """20 points, real and imaginary parts uniform in [-9, 9] from random.Random(1)."""
    rng = random.Random(1)
    points = [
        qi.point_text(tuple((rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(3)))
        for _ in range(20)
    ]
    path = write_input("generic20.json", points)
    seconds, proc = cli("descend", "--in", path)
    verdict = json.loads(proc.stdout)["descends"] if proc.returncode == 0 else "-"
    return seconds, proc, f"descends {verdict}"


def _is_prime(n):
    """Miller-Rabin with the first twelve prime bases: exact below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _next_prime(n):
    while not _is_prime(n):
        n += 1
    return n


def line_route(args):
    """{0, oo, 2+i, r/(2-i)} on the line z = 0, r = p*q with p < q the first d-digit primes."""
    p = _next_prime(10 ** (args.digits - 1))
    q = _next_prime(p + 1)
    r = p * q
    # r / (2 - i) = r (2 + i) / 5
    far = qi.fmt((Fraction(2 * r, 5), Fraction(r, 5)))
    path = write_input(f"line-route-{args.digits}.json",
                       ["(0:1:0)", "(1:0:0)", "(2+1i:1:0)", f"({far}:1:0)"])
    seconds, proc = cli("descend", "--in", path)
    verdict = json.loads(proc.stdout)["descends"] if proc.returncode == 0 else "-"
    return seconds, proc, f"r = {p} * {q}, descends {verdict}"


FIGURES = {
    "verify-paper": verify_paper,
    "frame48-normalizer": frame48_normalizer,
    "generic20-descend": generic20_descend,
    "line-route": line_route,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("figure", choices=sorted(FIGURES))
    parser.add_argument("--digits", type=int, default=14,
                        help="digits of each prime factor for line-route (default 14)")
    args = parser.parse_args(argv)
    seconds, proc, detail = FIGURES[args.figure](args)
    print(f"{args.figure}: {seconds:.2f} s wall, exit {proc.returncode}, {detail}")
    if proc.returncode:
        print(proc.stderr, file=sys.stderr)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
