"""Spans and counters around calls into equichar, installed from outside.

The package is never edited: `install` replaces functions and methods of its
modules with timing wrappers and `uninstall` puts every original object back.
A span is (name, start, end, parent); spans stay in memory until `dump`.
The untraced benchmark passes never import this module.
"""

import json
import sys
import time
from collections import Counter

# (module, owner attribute or None, attribute, span name).  Module-level
# functions are replaced in every equichar module that imported them, so a
# call through any name is seen.
SPAN_POINTS = [
    ("equichar.moduli", "CharacterCalculator", "character", "moduli.character"),
    ("equichar.moduli", "CharacterCalculator", "_compute", "moduli.compute"),
    ("equichar.moduli", "CharacterCalculator", "_evaluate", "moduli.evaluate"),
    ("equichar.moduli", "CharacterCalculator", "_correction", "moduli.correction"),
    ("equichar.moduli", "CharacterCalculator", "_store", "moduli.store"),
    ("equichar.moduli", "CharacterCalculator", "_load", "moduli.load"),
    ("equichar.moduli", None, "git_base_even", "moduli.git_base"),
    ("equichar.moduli", None, "git_base_odd", "moduli.git_base"),
    ("equichar.moduli", None, "git_polynomial", "moduli.git_polynomial"),
    ("equichar.moduli", None, "blowup_fiber_character", "moduli.fiber"),
    ("equichar.bigraded", "BiSymFunc", "to_schur", "bigraded.to_schur"),
    ("equichar.bigraded", "BiSymFunc", "to_powersum", "bigraded.to_powersum"),
    ("equichar.bigraded", "BiSymFunc", "__mul__", "bigraded.mul"),
    ("equichar.bigraded", "BiSymFunc", "__rmul__", "bigraded.mul"),
    ("equichar.bigraded", "BiSymFunc", "__add__", "bigraded.add"),
    ("equichar.bigraded", "BiSymFunc", "__sub__", "bigraded.add"),
    ("equichar.bigraded", "BiSymFunc", "deriv_x", "bigraded.deriv_x"),
    ("equichar.bigraded", "BiSymFunc", "tensor", "bigraded.tensor"),
    ("equichar.bigraded", "BiSymFunc", "to_json_dict", "bigraded.json"),
    ("equichar.bigraded", "BiSymFunc", "from_json_dict", "bigraded.from_json"),
    ("equichar.bigraded", None, "restrict_full", "bigraded.restrict"),
    ("equichar.symfunc", "SymFunc", "to_schur", "symfunc.to_schur"),
    ("equichar.symfunc", "SymFunc", "to_powersum", "symfunc.to_powersum"),
    ("equichar.symfunc", "SymFunc", "pleth", "symfunc.pleth"),
    ("equichar.symfunc", "SymFunc", "kron", "symfunc.kron"),
    ("equichar.symfunc", "SymFunc", "pderiv", "symfunc.pderiv"),
    ("equichar.symfunc", "SymFunc", "__mul__", "symfunc.mul"),
    ("equichar.symfunc", "SymFunc", "__rmul__", "symfunc.mul"),
    ("equichar.symfunc", "SymFunc", "__add__", "symfunc.add"),
    ("equichar.symfunc", "SymFunc", "__sub__", "symfunc.add"),
    ("equichar.oracles", None, "expand", "oracles.expand"),
    ("equichar.oracles", None, "oracle_plethysm", "oracles.pleth"),
    ("equichar.oracles", None, "jacobi_trudi_to_powersum", "oracles.jacobi_trudi"),
    ("equichar.verify", None, "run_suite", "verify.suite"),
    ("equichar.lengths", None, "length_theorem_report", "lengths.report"),
    ("workloads", None, "render", "render.json"),
]

# QPoly arithmetic is too fine-grained for spans; a separate pass counts it.
COUNT_POINTS = [
    ("equichar.qpoly", "QPoly", "__mul__", "qpoly.mul_calls"),
    ("equichar.qpoly", "QPoly", "__rmul__", "qpoly.mul_calls"),
    ("equichar.qpoly", "QPoly", "__add__", "qpoly.add_calls"),
    ("equichar.qpoly", "QPoly", "__radd__", "qpoly.add_calls"),
    ("equichar.qpoly", "QPoly", "divexact", "qpoly.divexact_calls"),
]

LAYERS = ("moduli", "bigraded", "symfunc", "oracles", "verify", "lengths", "render")


class Patcher:
    """Replaces attributes and remembers the originals for `restore`."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, module_name, owner_name, attr, make_wrapper) -> None:
        module = sys.modules[module_name]
        if owner_name is not None:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(make_wrapper(raw.__func__))
            else:
                wrapped = make_wrapper(raw)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            return
        original = getattr(module, attr)
        wrapped = make_wrapper(original)
        for name, other in list(sys.modules.items()):
            if other is None or not (name == module_name or name.startswith("equichar")):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    self._saved.append((other, key, original))
                    setattr(other, key, wrapped)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


class Tracer:
    """In-memory spans, plus a few counts taken at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patcher = Patcher()

    def _wrapper(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts = self.counts
        convert = name in ("bigraded.to_schur", "bigraded.to_powersum")
        load = name == "moduli.load"

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if convert and result is not args[0]:
                counts[name + "_calls"] += 1
                counts[name + "_terms_in"] += len(args[0].terms)
                counts[name + "_terms_out"] += len(result.terms)
            elif load and result is not None:
                counts["moduli.keys_loaded"] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for module, owner, attr, name in SPAN_POINTS:
            self._patcher.patch(module, owner, attr, lambda fn, name=name: self._wrapper(name, fn))

    def uninstall(self) -> None:
        self._patcher.restore()

    def dump(self, path, wall: tuple[float, float]) -> None:
        path.write_text(json.dumps({"wall": list(wall), "spans": self.spans,
                                    "counts": dict(self.counts)}))


class CallCounter:
    """Counts calls of the QPoly arithmetic; no clock is read."""

    def __init__(self):
        self.counts: Counter = Counter()
        self._patcher = Patcher()

    def install(self) -> None:
        counts = self.counts

        for module, owner, attr, name in COUNT_POINTS:
            def make(fn, name=name):
                def wrapper(*args, **kwargs):
                    counts[name] += 1
                    return fn(*args, **kwargs)

                wrapper.__wrapped__ = fn
                return wrapper

            self._patcher.patch(module, owner, attr, make)

    def uninstall(self) -> None:
        self._patcher.restore()


def summarize(trace: dict) -> dict[str, float]:
    """Inclusive and self times per span name, and per layer.

    A span's self time is its duration minus the part its children cover.
    The inclusive time of a name sums only its outermost spans, so recursion
    is counted once.  Self times of all spans plus the uncovered remainder
    add up to the traced wall time.
    """
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    inclusive: Counter = Counter()
    self_time: Counter = Counter()
    calls: Counter = Counter()
    covered = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        self_time[name] += duration - child_time[i]
        calls[name] += 1
        if parent < 0:
            covered += duration
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            inclusive[name] += duration
    start, end = trace["wall"]
    out = {"trace.wall_s": end - start, "trace.uncovered_s": (end - start) - covered,
           "trace.spans": len(spans)}
    for name in set(calls):
        out[f"{name}.incl_s"] = inclusive[name]
        out[f"{name}.self_s"] = self_time[name]
        out[f"{name}.spans"] = calls[name]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in self_time.items() if k.startswith(layer + "."))
    out.update(trace["counts"])
    return out
