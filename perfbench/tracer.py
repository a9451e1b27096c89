"""Outside-in layer tracing: wrap dgmodels' public calls from the benchmark.

The program itself carries no tracing.  While a ``Tracer`` is active it
replaces each function or method named in ``SPECS`` by a wrapper that times
the call and updates that layer's counters, and on exit it puts every
original object back.  A module-level function is replaced under every name
that binds it in any ``dgmodels`` module, because sibling modules import
names directly (``circle`` calls its own ``minimal_model``, ``cli`` its own
``action_report``).

A layer's ``incl_s`` is its busy time including traced callees, counted
once for recursive calls; ``self_s`` subtracts the time its traced callees
cover.  The wrapper's own bookkeeping is charged to neither the callee nor
the caller, so the overhead only shows as the traced pass's longer wall
time, which the benchmark reports next to the untraced one.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


def _mul_counts(counters, args, result):
    a, b = args
    if result is NotImplemented:
        return
    counters["madds"] += a.rows * a.cols * b.cols
    counters["max_side"] = max(counters["max_side"], a.rows, a.cols, b.cols)


def _rref_counts(counters, args, result):
    m = args[0]
    counters["cells"] += m.rows * m.cols
    counters["nnz"] += sum(1 for row in m.data for x in row if x)


def _verify_counts(counters, args, result):
    counters["checks_run"] += result.checks_run


def _model_counts(counters, args, result):
    counters["batches"] += len(result.batches)
    counters["generators"] += result.module.gen_count


CIRCLE_REPORTS = (
    "model_of_total_space",
    "model_of_fixed_set",
    "equivariant_model",
    "equivariant_les",
    "formality_check",
    "localization_check",
    "extension_of_scalars_check",
    "action_report",
)

# (dgmodels module, attribute path, layer name, counter function or None)
SPECS = (
    ("linalg", "RatMatrix.__mul__", "linalg.mul", _mul_counts),
    ("linalg", "RatMatrix.rref", "linalg.rref", _rref_counts),
    ("linalg", "RatMatrix.solve", "linalg.solve", None),
    ("linalg", "RatMatrix.kernel_basis", "linalg.kernel_basis", None),
    ("linalg", "cohomology_at", "linalg.cohomology_at", None),
    ("linalg", "kron", "linalg.kron", None),
    ("cdga", "SullivanPresentation.poly_mul", "cdga.poly_mul", None),
    ("cdga", "SullivanPresentation.differential_matrix", "cdga.differential_matrix", None),
    ("cdga", "parse_polynomial", "cdga.parse_polynomial", None),
    ("dgmodule", "DgModuleMap.verify", "dgmodule.verify", _verify_counts),
    ("dgmodule", "cone", "dgmodule.cone", None),
    ("dgmodule", "free_cone", "dgmodule.free_cone", None),
    ("dgmodule", "module_cohomology", "dgmodule.module_cohomology", None),
    ("dgmodule", "cone_les", "dgmodule.cone_les", None),
    ("dgmodule", "tabulate", "dgmodule.tabulate", None),
    ("dgmodule", "map_from_generator_images", "dgmodule.map_from_generator_images", None),
    ("minmodel", "minimal_model", "minmodel.minimal_model", _model_counts),
    ("minmodel", "ks_step", "minmodel.ks_step", None),
    ("minmodel", "lift_section", "minmodel.lift_section", None),
    ("minmodel", "verify_minimal", "minmodel.verify_minimal", None),
    ("circle", "BasicData.validate", "circle.validate", None),
    *(("circle", name, f"circle.{name}", None) for name in CIRCLE_REPORTS),
    ("io", "loads_document", "io.loads_document", None),
    ("io", "dump_json", "io.dump_json", None),
    ("cli", "main", "cli.main", None),
)

# Counters that are not per-call timings; the key is the metric name.
_EXTRA = {
    "linalg.mul.madds": ("linalg.mul", "madds"),
    "linalg.mul.max_side": ("linalg.mul", "max_side"),
    "linalg.rref.cells": ("linalg.rref", "cells"),
    "linalg.rref.nnz": ("linalg.rref", "nnz"),
    "dgmodule.verify.checks_run": ("dgmodule.verify", "checks_run"),
    "minmodel.batches": ("minmodel.minimal_model", "batches"),
    "minmodel.generators": ("minmodel.minimal_model", "generators"),
}

# The per-layer metrics taken from a trace, in report order: (name, unit).
TRACE_METRICS = (
    *(
        (f"linalg.{f}.{c}", "count" if c == "calls" else "s")
        for f, cs in (
            ("mul", ("calls", "self_s")),
            ("rref", ("calls", "self_s")),
            ("solve", ("calls", "self_s")),
            ("kernel_basis", ("calls", "self_s")),
            ("cohomology_at", ("calls", "incl_s")),
            ("kron", ("calls", "self_s")),
        )
        for c in cs
    ),
    ("linalg.mul.madds", "count"),
    ("linalg.mul.max_side", "count"),
    ("linalg.rref.cells", "count"),
    ("linalg.rref.nnz", "count"),
    ("cdga.poly_mul.calls", "count"),
    ("cdga.poly_mul.self_s", "s"),
    ("cdga.differential_matrix.calls", "count"),
    ("cdga.parse_polynomial.calls", "count"),
    ("cdga.parse_polynomial.self_s", "s"),
    ("dgmodule.verify.calls", "count"),
    ("dgmodule.verify.incl_s", "s"),
    ("dgmodule.verify.self_s", "s"),
    ("dgmodule.verify.checks_run", "count"),
    ("dgmodule.cone.calls", "count"),
    ("dgmodule.cone.self_s", "s"),
    ("dgmodule.free_cone.calls", "count"),
    ("dgmodule.free_cone.incl_s", "s"),
    ("dgmodule.module_cohomology.calls", "count"),
    ("dgmodule.module_cohomology.incl_s", "s"),
    ("dgmodule.cone_les.incl_s", "s"),
    ("dgmodule.tabulate.incl_s", "s"),
    ("dgmodule.map_from_generator_images.self_s", "s"),
    ("minmodel.minimal_model.calls", "count"),
    ("minmodel.minimal_model.incl_s", "s"),
    ("minmodel.ks_step.calls", "count"),
    ("minmodel.ks_step.incl_s", "s"),
    ("minmodel.lift_section.incl_s", "s"),
    ("minmodel.verify_minimal.calls", "count"),
    ("minmodel.verify_minimal.incl_s", "s"),
    ("minmodel.batches", "count"),
    ("minmodel.generators", "count"),
    ("circle.validate.calls", "count"),
    *(
        (f"circle.{name}.{c}", "count" if c == "calls" else "s")
        for name in CIRCLE_REPORTS
        for c in ("calls", "incl_s")
    ),
    ("io.loads_document.incl_s", "s"),
    ("io.dump_json.incl_s", "s"),
    ("cli.main.incl_s", "s"),
)


class _Layer:
    __slots__ = ("calls", "incl_s", "self_s", "active", "counters")

    def __init__(self):
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.active = 0
        self.counters = {"madds": 0, "max_side": 0, "cells": 0, "nnz": 0,
                         "checks_run": 0, "batches": 0, "generators": 0}


class Tracer:
    """Context manager: patch every layer in ``SPECS``, restore on exit."""

    def __init__(self):
        self.layers = {layer: _Layer() for _, _, layer, _ in SPECS}
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def _call(self, layer, count, fn, args, kwargs):
        clock = time.perf_counter
        entered = clock()
        frame = [0.0]
        self._stack.append(frame)
        layer.active += 1
        returned = False
        start = clock()
        try:
            result = fn(*args, **kwargs)
            returned = True
        finally:
            elapsed = clock() - start
            self._stack.pop()
            layer.active -= 1
            layer.calls += 1
            layer.self_s += elapsed - frame[0]
            if not layer.active:
                layer.incl_s += elapsed
            if returned and count is not None:
                count(layer.counters, args, result)
            if self._stack:
                self._stack[-1][0] += clock() - entered
        return result

    def _wrap(self, fn, layer, count):
        call = self._call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return call(layer, count, fn, args, kwargs)

        return traced

    def __enter__(self) -> "Tracer":
        owners = {name: importlib.import_module(f"dgmodels.{name}") for name, _, _, _ in SPECS}
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "dgmodels" or name.startswith("dgmodels."))]
        try:
            for mod_name, path, layer_name, count in SPECS:
                owner = owners[mod_name]
                layer = self.layers[layer_name]
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[attr]
                    self._patch(cls, attr, self._wrap(original, layer, count))
                    continue
                original = getattr(owner, path)
                wrapper = self._wrap(original, layer, count)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def _patch(self, owner, name, wrapper):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def _restore(self):
        while self._patches:
            obj, name, original = self._patches.pop()
            setattr(obj, name, original)

    def __exit__(self, *exc) -> None:
        self._restore()

    def patched(self) -> list[tuple[object, str, object]]:
        """The (owner, attribute, original) triples currently replaced."""
        return list(self._patches)

    def metrics(self) -> dict[str, float | int]:
        """Every ``TRACE_METRICS`` value, by name."""
        out = {}
        for name, _unit in TRACE_METRICS:
            if name in _EXTRA:
                layer, key = _EXTRA[name]
                out[name] = self.layers[layer].counters[key]
            else:
                layer, _, field = name.rpartition(".")
                out[name] = getattr(self.layers[layer], field)
        return out
