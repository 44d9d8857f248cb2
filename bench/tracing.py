"""Spans and counters around the calls into each invset layer.

``Tracer.installed()`` replaces every public module-level function of each
layer module with a timing wrapper: the module attribute itself and every
name bound to the same function in another invset module (for example
``invset.cli.to_text`` and ``invset.to_text``), so calls between layers are
seen too.  Leaving the block puts every original back.  Spans (name, start,
end, parent, op id) are kept in memory; ``layer_metrics`` turns them into
per-layer call counts and self times, where a span's self time is its
duration minus the durations of its child spans.  Work a wrapped function
hands to the standard library (``Fraction``, ``json``, ...) is self time of
that function's layer.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("exactmath", "padic", "samplespace", "multiqubit", "dirac", "experiments", "highprec", "cli")


# Counters taken from a wrapped call's result: function -> [(counter, value(result))].
_COUNTERS = {
    "exactmath.is_describable": [("exactmath.gate_calls", lambda r: 1), ("exactmath.gate_passes", int)],
    "samplespace.to_text": [("samplespace.labels_serialized", len)],
    "samplespace.from_text": [("samplespace.labels_parsed", lambda r: r.size)],
    "padic.cantor_iterates": [("padic.intervals_built", len)],
    "padic.is_prime": [("padic.primality_tests", lambda r: 1)],
}
# Multi-qubit samples built by a call from outside the layer: rows x 2^N.
_SAMPLE_BUILDERS = ("multi_sample", "two_qubit_sample", "bell_sample_from_amplitude", "bell_sample",
                    "compose_pair", "compose_many")
COUNTER_NAMES = tuple(c for hooks in _COUNTERS.values() for c, _ in hooks) + ("multiqubit.labels_composed",)
# Functions whose inclusive time is reported on its own.
_INCLUSIVE = {
    "samplespace.to_text": "samplespace.to_text_s",
    "samplespace.from_text": "samplespace.from_text_s",
    "padic.cantor_iterates": "padic.cantor_s",
    "padic.padic_dist": "padic.dist_s",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent index, op id)
        self.counters: Counter = Counter()
        self.op_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def _wrap(self, fn, name: str):
        spans, stack, counters = self.spans, self._stack, self.counters
        hooks = list(_COUNTERS.get(name, ()))
        layer = name.partition(".")[0]
        if layer == "multiqubit" and name.partition(".")[2] in _SAMPLE_BUILDERS:
            def composed(result):
                outer = not stack or not spans[stack[-1]][0].startswith("multiqubit.")
                return len(result.rows) << result.n_bits if outer else 0
            hooks.append(("multiqubit.labels_composed", composed))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append((name,))  # completed on return; children read the name
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
            for counter, value in hooks:
                counters[counter] += value(result)
            return result

        return wrapper

    def _layer_functions(self) -> dict[int, tuple[object, str]]:
        found = {}
        for layer in LAYERS:
            module = sys.modules[f"invset.{layer}"]
            for attr, obj in vars(module).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    found[id(obj)] = (obj, f"{layer}.{attr}")
        return found

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        functions = self._layer_functions()
        wrappers = {key: self._wrap(fn, name) for key, (fn, name) in functions.items()}
        modules = [m for n, m in list(sys.modules.items()) if n == "invset" or n.startswith("invset.")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in functions and functions[id(obj)][0] is obj:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])

    def remove(self) -> None:
        while self._saved:
            module, attr, obj = self._saved.pop()
            setattr(module, attr, obj)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls and self seconds, the inclusive seconds of the
        functions in ``_INCLUSIVE`` and the counters, over the spans recorded
        since the last reset.  Every key is present, zero when unused."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
        out.update(dict.fromkeys(_INCLUSIVE.values(), 0.0))
        for (name, start, end, parent, _), inner in zip(self.spans, child):
            layer = name.partition(".")[0]
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += end - start - inner
            if name in _INCLUSIVE and not (parent >= 0 and self.spans[parent][0] == name):
                out[_INCLUSIVE[name]] += end - start
        counts = dict.fromkeys(COUNTER_NAMES, 0)
        counts.update(self.counters)
        passes = counts.pop("exactmath.gate_passes")
        out.update(counts)
        calls = counts["exactmath.gate_calls"]
        out["exactmath.gate_pass_ratio"] = passes / calls if calls else 0.0
        return out


def write_spans(spans: list, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name,start_s,end_s,parent,op\n")
        for name, start, end, parent, op in spans:
            fh.write(f"{name},{start:.9f},{end:.9f},{parent},{op}\n")
