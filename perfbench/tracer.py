"""Call tracing for lamkit from outside the package.

lamkit's modules import helpers by name (``from .core import
chords_cross``), so one function can be bound in several module
namespaces, the package re-exports included.  :class:`Patch` replaces a
function in every namespace that binds it and puts the originals back on
exit; :class:`Tracer` uses it to wrap every public function of the
layers with a timing wrapper.

Self time is a call's duration minus the time spent in wrapped calls it
made.  Coarse calls keep one span each (name, start, end, parent span);
hot leaf predicates, called up to a million times a pass, keep only
aggregated counters.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("circle", "core", "portraits", "fdl", "paramgraph", "pullback", "io")

# public methods that are traced besides the module-level functions
METHODS = (("core", "ClassLamination", "check"), ("core", "ChordSet", "check"))

# traced without spans, besides all of circle: the predicates that run
# once per pair of chords
HOT = frozenset({"core.chords_cross", "core.polygons_conflict", "pullback.leaf_distance"})

# work counters: a function of (args, result) added up per call
TALLIES = {
    "portraits.enumerate_all_portraits": lambda args, result: len(result),
    "fdl.enumerate_children": lambda args, result: len(result),
    "pullback.pullback_step": lambda args, result: len(result) - len(args[0]),
}


def lamkit_namespaces(package) -> list:
    """The package module and every loaded ``lamkit.*`` submodule."""
    prefix = package.__name__ + "."
    mods = [package]
    mods += [m for name, m in sorted(sys.modules.items()) if name.startswith(prefix) and m]
    return mods


class Patch:
    """Replace functions in every lamkit namespace that binds them.

    ``replacements`` maps original function objects to their stand-ins;
    ``methods`` maps (class, attribute) pairs to stand-ins.  Leaving the
    ``with`` block restores every binding, also after an exception.
    """

    def __init__(self, package, replacements: dict, methods: dict = None):
        self.package = package
        self.replacements = replacements
        self.methods = methods or {}
        self.saved: list = []

    def __enter__(self):
        for mod in lamkit_namespaces(self.package):
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in self.replacements:
                    self.saved.append((mod, name, value))
                    setattr(mod, name, self.replacements[value])
        for (cls, attr), stand_in in self.methods.items():
            self.saved.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, stand_in)
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self.saved):
            setattr(owner, name, original)
        self.saved.clear()
        return False


def stopwatch(package, module: str, function: str, laps: list, clock=time.perf_counter) -> Patch:
    """Append ``(start, end)`` of every call of ``module.function`` to ``laps``.

    One ``clock`` pair per call: a timestamp for latency samples, not
    tracing.
    """
    original = getattr(getattr(package, module), function)
    perf = clock

    @functools.wraps(original)
    def timed(*args, **kwargs):
        t0 = perf()
        try:
            return original(*args, **kwargs)
        finally:
            laps.append((t0, perf()))

    return Patch(package, {original: timed})


def traced_functions(package) -> dict:
    """Map ``layer.name`` to each public function or method traced."""
    targets = {}
    for layer in LAYERS:
        mod = getattr(package, layer)
        for name, value in vars(mod).items():
            if (
                inspect.isfunction(value)
                and value.__module__ == mod.__name__
                and not name.startswith("_")
            ):
                targets[f"{layer}.{name}"] = value
    for layer, cls_name, attr in METHODS:
        targets[f"{layer}.{cls_name}.{attr}"] = getattr(getattr(package, layer), cls_name)
    return targets


class Tracer:
    """Per-function calls, total time, self time and work tallies.

    ``stats[key]`` is ``[calls, total_s, self_s, tally]``; ``spans`` holds
    ``(key, start, end, parent)`` for coarse calls, where ``parent`` is the
    index of the enclosing span or -1.
    """

    def __init__(self, package, clock=time.perf_counter):
        self.package = package
        self.clock = clock
        self.stats: dict[str, list] = {}
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        replacements, methods = {}, {}
        for key, target in traced_functions(package).items():
            self.stats[key] = [0, 0.0, 0.0, 0]
            if inspect.isclass(target):
                attr = key.rsplit(".", 1)[1]
                methods[(target, attr)] = self._wrap(key, target.__dict__[attr])
            else:
                replacements[target] = self._wrap(key, target)
        self.patch = Patch(package, replacements, methods)

    def __enter__(self):
        self.patch.__enter__()
        return self

    def __exit__(self, *exc):
        return self.patch.__exit__(*exc)

    def _wrap(self, key, fn):
        stats = self.stats[key]
        stack = self._stack
        spans = self.spans
        tally = TALLIES.get(key)
        coarse = not (key.startswith("circle.") or key in HOT)
        perf = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # frame: [time spent in wrapped callees, span index of this call]
            span_id = parent = -1
            if coarse:
                span_id = len(spans)
                spans.append(None)
                parent = next((f[1] for f in reversed(stack) if f[1] >= 0), -1)
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dt = t1 - t0
                if stack:
                    stack[-1][0] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[0]
                if coarse:
                    spans[span_id] = (key, t0, t1, parent)
            if tally is not None:
                stats[3] += tally(args, result)
            return result

        return wrapper

    def calls(self) -> dict:
        return {key: s[0] for key, s in self.stats.items()}

    def dump(self, path: str, meta: dict):
        """Write the per-function counters and all coarse spans as JSON."""
        doc = {
            "meta": meta,
            "functions": {
                key: {"calls": s[0], "total_s": s[1], "self_s": s[2], "tally": s[3]}
                for key, s in sorted(self.stats.items())
                if s[0]
            },
            "spans": [list(s) for s in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")
