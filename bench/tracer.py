"""Spans around calls into liftedilc, recorded from outside the package.

The tracer wraps each named public function in every liftedilc module that
binds it, so calls between modules and within one module both pass through
the wrapper. A name that no longer exists is reported as absent. The
originals are restored by `uninstall`.

A span is a list [name, op, start, end, parent, tag]: parent is the index of
the enclosing span or None, tag is set by a hook (fast_forward marks "cold"
or "warm").
"""

import functools
import sys
import time
import weakref
from collections import defaultdict

# Layers the benchmark reports, as <module>.<function> within liftedilc.
TRACED = (
    "cli.main",
    "config.load_config",
    "lti.discretize_zoh",
    "lti.sampled_zeros",
    "lifted.build_lifted",
    "lifted.lifted_output",
    "lifted.pseudo_inverse_input",
    "experiments.build_lifted_pair",
    "experiments.run_experiment",
    "experiments.reproduce_figure",
    "experiments.write_history_csv",
    "svg.render_line_chart",
    "laws.build_gain",
    "laws.iteration_matrix",
    "laws.update_input",
    "engine.spectral_decompose",
    "engine.fast_forward",
    "engine.run_hybrid",
    "engine.run_iterations",
    "switching.evaluate_switch",
)

PACKAGE = "liftedilc"
NAME, OP, START, END, PARENT, TAG = range(6)


class IdentitySet:
    """Objects seen so far, held weakly where the type allows it."""

    def __init__(self):
        self._weak = weakref.WeakSet()
        self._ids = set()

    def add(self, obj):
        try:
            self._weak.add(obj)
        except TypeError:
            self._ids.add(id(obj))

    def __contains__(self, obj):
        try:
            return obj in self._weak
        except TypeError:
            return id(obj) in self._ids


class Tracer:
    def __init__(self, names=TRACED):
        self.names = tuple(names)
        self.spans = []
        self.op = None
        self.absent = []
        self.counts = defaultdict(int)
        self._stack = []
        self._patched = []
        self._worlds = IdentitySet()
        self._ff_models = IdentitySet()
        self._hooks = {
            "experiments.build_lifted_pair": self._on_pair,
            "lifted.lifted_output": self._on_output,
            "engine.fast_forward": self._on_fast_forward,
        }

    # hooks: counts measured at the boundary, from the arguments passed

    def _on_pair(self, span, args, result):
        self._worlds.add(result[0])

    def _on_output(self, span, args, result):
        if args and args[0] in self._worlds:
            self.counts["lifted.lifted_output.world_calls"] += 1

    def _on_fast_forward(self, span, args, result):
        model = args[0] if args else None
        span[TAG] = "warm" if model in self._ff_models else "cold"
        self._ff_models.add(model)

    def install(self):
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        self.absent = []
        for qualname in self.names:
            module_name, func = qualname.rsplit(".", 1)
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(home, func, None)
            if not callable(original):
                self.absent.append(qualname)
                continue
            wrapper = self._wrap(qualname, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        hook = self._hooks.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self.op, clock(), None, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if hook is not None:
                hook(span, args, result)
            return result

        return traced


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans):
    """Per span: its duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    result = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        clipped = [
            (max(s, start), min(e, end))
            for s, e in children.get(index, ())
            if min(e, end) > max(s, start)
        ]
        result.append((end - start) - _covered(clipped))
    return result


def layer_totals(spans, self_s_list):
    """calls, self_ms and inclusive cold/warm ms per span name."""
    totals = defaultdict(lambda: {"calls": 0, "self_ms": 0.0})
    for span, self_s in zip(spans, self_s_list):
        entry = totals[span[NAME]]
        entry["calls"] += 1
        entry["self_ms"] += 1e3 * self_s
        if span[TAG] is not None:
            key = f"{span[TAG]}_ms"
            entry[key] = entry.get(key, 0.0) + 1e3 * (span[END] - span[START])
    return totals


def op_shares(spans, self_s_list, names):
    """Per operation: the share of its traced time spent in `names` itself."""
    part = defaultdict(float)
    whole = defaultdict(float)
    for span, self_s in zip(spans, self_s_list):
        whole[span[OP]] += self_s
        if span[NAME] in names:
            part[span[OP]] += self_s
    return {op: part[op] / whole[op] for op in sorted(whole) if whole[op] > 0}
