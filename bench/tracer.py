"""Spans around the calls into each spectrace layer, recorded from outside.

Tracer.install() replaces every public function of the layer modules at each
place it is looked up: the defining module and every spectrace module that
imported it by name, plus the class attribute Spectrum.up_to, the `quad`
name in spectrace.moments and the root span cli.main.  Each call appends a
span (name, start, end, parent) in memory; counts are taken at the same
wrappers.  uninstall() puts the originals back.
"""

from __future__ import annotations

import inspect
import sys
import time
import weakref
from collections import Counter

LAYERS = ("spectra", "traces", "fitkit", "riesz", "moments", "invariants")
POINT_TRACES = frozenset({"traces.heat_trace", "traces.cylinder_trace",
                          "traces.cylinder_trace_derivative"})
# spans whose whole duration is reported, besides their layer's self time
TOTAL_TIMES = {"spectra.load_spectrum": "spectra.load_s", "moments.quad": "moments.quad_s"}


class Tracer:
    def __init__(self):
        self.spans: list = []   # (name, start, end, parent index or -1)
        self._names: list[str] = []   # span names, known before the span ends
        self._stack: list[int] = []
        self._patches: list = []
        self.counts: Counter = Counter()
        self.max_condition = 0.0
        self._widest: dict = {}  # id(spectrum) -> (weakref, widest omega_max)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        spans, names, stack, perf = self.spans, self._names, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            names.append(name)
            stack.append(idx)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if after is not None:
                after(args, kwargs, result, parent)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        from spectrace import cli, moments
        from spectrace.spectra import Spectrum

        hooks = {
            "traces.heat_trace": self._after_point_trace,
            "traces.cylinder_trace": self._after_point_trace,
            "traces.cylinder_trace_derivative": self._after_point_trace,
            "fitkit.fit_expansion": self._after_fit,
            "fitkit.detect_log_term": self._after_detect,
            "riesz.riesz_mean": self._after_riesz_points,
            "riesz.riesz_mean_grid": self._after_riesz_points,
            "riesz.weyl_remainder": self._after_riesz_points,
            "moments.quad": self._after_quad,
        }
        wrapped = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = sys.modules[f"spectrace.{layer}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn):
                    name = f"{layer}.{attr}"
                    wrapped[id(fn)] = (fn, self._wrap(name, fn, hooks.get(name)))
        for name, fn in (("cli.main", cli.main), ("moments.quad", moments.quad)):
            wrapped[id(fn)] = (fn, self._wrap(name, fn, hooks.get(name)))

        for mod_name, module in list(sys.modules.items()):
            if mod_name != "spectrace" and not mod_name.startswith("spectrace."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrapped.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(module, attr, entry[1])
        self._patch(Spectrum, "up_to", self._wrap("spectra.up_to", Spectrum.up_to, self._after_up_to))

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- counts -----------------------------------------------------------

    def _after_up_to(self, args, kwargs, result, parent):
        spectrum = args[0]
        omega_max = args[1] if len(args) > 1 else kwargs["omega_max"]
        self.counts["spectra.up_to_calls"] += 1
        entry = self._widest.get(id(spectrum))
        widest = entry[1] if entry is not None and entry[0]() is spectrum else None
        if widest is not None and omega_max <= widest:
            self.counts["spectra.cache_hits"] += 1
        else:
            self.counts["spectra.terms_enumerated"] += len(result)
            self._widest[id(spectrum)] = (weakref.ref(spectrum), omega_max)
        if parent >= 0 and self._names[parent] in POINT_TRACES:
            self.counts["traces.rounds"] += 1

    def _after_point_trace(self, args, kwargs, result, parent):
        self.counts["traces.calls"] += 1
        self.counts["traces.terms_summed"] += result.terms_used

    def _after_fit(self, args, kwargs, result, parent):
        self.counts["fitkit.calls"] += 1
        self.max_condition = max(self.max_condition, result.condition_estimate)

    def _after_detect(self, args, kwargs, result, parent):
        self.counts["fitkit.calls"] += 1

    def _after_riesz_points(self, args, kwargs, result, parent):
        self.counts["riesz.points"] += len(result) if isinstance(result, list) else 1

    def _after_quad(self, args, kwargs, result, parent):
        self.counts["moments.quad_calls"] += 1

    # -- per-job results --------------------------------------------------

    def take_job(self) -> tuple[list, dict]:
        """The finished job's spans and its per-layer self and total times;
        clears the span list for the next job."""
        spans = self.spans[:]
        covered = [0.0] * len(spans)
        for _name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        times: Counter = Counter()
        for (name, start, end, _parent), child in zip(spans, covered):
            times[name.split(".", 1)[0] + ".self_s"] += (end - start) - child
            if name in TOTAL_TIMES:
                times[TOTAL_TIMES[name]] += end - start
        self.spans.clear()
        self._names.clear()
        self._widest.clear()
        return spans, times
