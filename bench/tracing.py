"""Layer spans recorded around qbft's public functions, from outside qbft.

install() swaps each traced function for a wrapper in its defining module
and in every qbft module that bound the same object by name (for example
`from .bessel import j_nu_lattice` in transform), so calls made between
layers are seen as well as calls made by the benchmark.  Spans stay in
memory; summarize() turns them into per-layer call counts and self times.
"""

import functools
import sys
import time

# span name -> (module, attribute) pairs whose functions it records
LAYERS = {
    "core.constants": [("qbft.core", "constants")],
    "core.qpochhammer_infinite": [("qbft.core", "qpochhammer_infinite")],
    "bessel.j_nu_lattice": [("qbft.bessel", "j_nu_lattice")],
    "bessel.j_nu": [("qbft.bessel", "j_nu")],
    "bessel.lorentz": [("qbft.bessel", "g_a"), ("qbft.bessel", "k_nu")],
    "bessel.d_nu": [("qbft.bessel", "d_nu")],
    "transform.build_plan": [("qbft.transform", "build_plan")],
    "transform.apply": [("qbft.transform", name) for name in
                        ("fourier", "apply_multiplier", "convolve", "translate")],
    "transform.pointwise": [("qbft.transform", "triple_kernel"),
                            ("qbft.transform", "convolve_direct")],
    "kernels.composite_kernel": [("qbft.kernels", "composite_kernel")],
    "kernels.gauss": [("qbft.kernels", "gauss_kernel"),
                      ("qbft.kernels", "gauss_kernel_grid")],
    "kernels.approx_identity": [("qbft.kernels", "approx_identity_run")],
    "variation": [("qbft.variation", name) for name in
                  ("vd_check", "omega_series", "sign_changes")],
    "core.gridfunction_json": [("qbft.core", "gridfunction_to_json"),
                               ("qbft.core", "gridfunction_from_json")],
    "corpus.load_corpus": [("qbft.corpus", "load_corpus")],
    "cli.main": [("qbft.cli", "main")],
}

# layers whose arguments are remembered, to measure the memo opportunity
REPEAT_LAYERS = ("core.constants", "bessel.j_nu_lattice")


def _plan_counts(tracer, plan):
    points = plan.size()
    tracer.counts["transform.plan.lattice_points"] += points
    tracer.counts["transform.plan.entries"] += points * points

AFTER = {"transform.build_plan": _plan_counts}


class Tracer:
    """In-memory span log: [name, start, end, parent index] per call."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.seen = {name: set() for name in REPEAT_LAYERS}
        self.repeats = {name: 0 for name in REPEAT_LAYERS}
        self.counts = {"transform.plan.lattice_points": 0,
                       "transform.plan.entries": 0}
        self._patched = []

    def wrap(self, name, fn):
        spans = self.spans
        stack = self.stack
        seen = self.seen.get(name)
        after = AFTER.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # a layer calling into itself stays inside its outer span
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            if seen is not None:
                key = (args, tuple(sorted(kwargs.items())))
                if key in seen:
                    self.repeats[name] += 1
                else:
                    seen.add(key)
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            if after is not None:
                after(self, result)
            return result
        return traced

    def install(self):
        """Patch every traced function wherever a qbft module binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "qbft" or n.startswith("qbft."))]
        for name, targets in LAYERS.items():
            for module_name, attr in targets:
                home = sys.modules.get(module_name)
                if home is None:
                    continue
                original = getattr(home, attr)
                wrapper = self.wrap(name, original)
                for module in modules:
                    for bound, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, bound, wrapper)
                            self._patched.append((module, bound, original))

    def uninstall(self):
        for module, bound, original in reversed(self._patched):
            setattr(module, bound, original)
        self._patched = []

    def dump(self):
        """The log as plain data, for writing out or merging."""
        return {"spans": self.spans, "repeats": self.repeats,
                "calls_keyed": {n: len(s) + self.repeats[n]
                                for n, s in self.seen.items()},
                "counts": self.counts}


def summarize(logs):
    """Per-layer calls, self time and covered time over several span logs.

    A span's self time is its duration minus the durations of the spans it
    directly caused.  `covered_s` sums the top-level spans, i.e. the wall
    time spent inside any traced layer.
    """
    calls = {name: 0 for name in LAYERS}
    self_s = {name: 0.0 for name in LAYERS}
    repeats = {name: 0 for name in REPEAT_LAYERS}
    keyed = {name: 0 for name in REPEAT_LAYERS}
    counts = {"transform.plan.lattice_points": 0, "transform.plan.entries": 0}
    covered = 0.0
    for log in logs:
        spans = log["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if end is None:
                continue
            if parent is None:
                covered += end - start
            else:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            if end is None:
                continue
            calls[name] += 1
            self_s[name] += end - start - child[i]
        for name in REPEAT_LAYERS:
            repeats[name] += log["repeats"][name]
            keyed[name] += log["calls_keyed"][name]
        for name in counts:
            counts[name] += log["counts"][name]
    repeat_frac = {n: (repeats[n] / keyed[n] if keyed[n] else 0.0)
                   for n in REPEAT_LAYERS}
    return {"calls": calls, "self_s": self_s, "repeat_frac": repeat_frac,
            "counts": counts, "covered_s": covered}
