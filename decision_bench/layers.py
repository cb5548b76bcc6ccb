"""Per-layer measurement: spans around calls into each layer, and a cProfile pass.

Spans are recorded from the benchmark's side only: `Tracer.install`
replaces each listed public function with a wrapper that times the call
and records a span (name, start, end, parent, decision).  Modules that
bound the function through `from ... import` hold their own reference,
so the wrapper is rebound under every name that refers to the original
in every `planar_descent` module.  Methods are wrapped on their class.
"""

from __future__ import annotations

import cProfile
import functools
import itertools
import os
import pstats
import sys
from time import perf_counter

import qi

# (module, attribute or Class.method, span name)
WRAPPED = (
    ("equivalence", "equivalences", "equivalence.equivalences"),
    ("equivalence", "aut_group", "equivalence.aut_group"),
    ("equivalence", "pgl2_equivalences", "equivalence.pgl2_equivalences"),
    ("descent", "descends_real", "descent.descends_real"),
    ("descent", "normalizer", "descent.normalizer"),
    ("descent", "fom_real", "descent.fom_real"),
    ("descent", "hilbert90_split", "descent.hilbert90_split"),
    ("descent", "real_model_check", "descent.real_model_check"),
    ("gaussian", "two_squares", "gaussian.two_squares"),
    ("plane", "SemiProjMap.compose", "plane.compose"),
    ("plane", "SemiProjMap.inverse", "plane.inverse"),
    ("plane", "SemiProjMap.apply", "plane.apply"),
)

PROFILED_MODULES = ("gaussian", "plane", "equivalence", "descent")


class Tracer:
    """Spans kept in memory; equivalence calls also tallied for candidates."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.stack = []
        self.decision = -1
        self.maps_found = 0
        self.candidates = 0
        self._candidate_cache = {}
        self._restore = []

    # -- recording --

    def span(self, name, fn, *args, **kwargs):
        parent = self.stack[-1] if self.stack else None
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans[index] = (name, start, end, parent, self.decision)

    def _wrapper(self, name, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = self.span(name, original, *args, **kwargs)
            if name == "equivalence.equivalences":
                self._tally_equivalences(args, result)
            return result

        return wrapper

    def _tally_equivalences(self, args, result):
        source, target = args[0], args[1]
        self.maps_found += len(result)
        if len(source) == len(target):
            self.candidates += self.ordered_general_quads(target)

    def ordered_general_quads(self, config):
        """Ordered 4-tuples of the configuration with no three points collinear."""
        texts = tuple(self.package.cli.point_to_string(p) for p in config)
        if texts not in self._candidate_cache:
            points = [qi.parse_point(t) for t in texts]
            general = sum(
                1 for quad in itertools.combinations(points, 4)
                if all(qi.det3(t) != (0, 0) for t in itertools.combinations(quad, 3))
            )
            self._candidate_cache[texts] = 24 * general
        return self._candidate_cache[texts]

    # -- installing the wrappers --

    def install(self):
        for module_name, attr, name in WRAPPED:
            module = getattr(self.package, module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, self._wrapper(name, original))
                self._restore.append((cls, method, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrapper(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "planar_descent" and not mod_name.startswith("planar_descent."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- summaries --

    def totals(self, name):
        """(calls, inclusive seconds) of spans named `name`, outermost ones timed."""
        calls = 0
        seconds = 0.0
        for span in self.spans:
            if span[0] != name:
                continue
            calls += 1
            parent = span[3]
            nested = False
            while parent is not None:
                if self.spans[parent][0] == name:
                    nested = True
                    break
                parent = self.spans[parent][3]
            if not nested:
                seconds += span[2] - span[1]
        return calls, seconds


def profile_pass(run_pass):
    """Run one pass under cProfile; self seconds per module and Fraction counts."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = run_pass()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler).stats
    self_s = {m: 0.0 for m in PROFILED_MODULES}
    fractions_self_s = 0.0
    constructions = 0
    top = []
    for (filename, line, func), (cc, nc, tt, ct, callers) in stats.items():
        base = os.path.basename(filename)
        parent = os.path.basename(os.path.dirname(filename))
        if parent == "planar_descent" and base[:-3] in self_s:
            self_s[base[:-3]] += tt
        if base == "fractions.py":
            fractions_self_s += tt
            if func in ("__new__", "_from_coprime_ints"):
                constructions += nc
        top.append((tt, f"{parent}/{base}:{line}({func})", nc))
    top.sort(reverse=True)
    summary = {
        "self_s": self_s,
        "fractions_self_s": fractions_self_s,
        "fraction_constructions": constructions,
        "top": [{"function": f, "self_s": t, "calls": n} for t, f, n in top[:25]],
    }
    return result, summary
