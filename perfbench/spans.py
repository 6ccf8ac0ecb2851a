"""Span recorder wrapped around the package's public functions, from outside.

``install`` replaces each traced function by a recording wrapper in every
``soliton_stability`` module that binds it (``from .geometry import
point_geometry`` makes ``stability.point_geometry`` a second binding), and
on the two ``eval_jets`` methods.  Spans ``(name, start, end, parent,
run_id)`` stay in memory until the worker writes them out at exit.  Jet
arithmetic is counted, not spanned: it runs too often for a span each.

A layer's self time is its span's duration minus the durations of its direct
children; the program is single-threaded at ``--workers 1``, so children
never overlap and the self times of one invocation add up to its root span.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from collections import defaultdict

# metric name -> (module, attribute); "Class.method" attributes wrap the method
TRACED = {
    "cli.main": ("cli", "main"),
    "cli.load_config": ("cli", "load_config"),
    "quadrature.tensor_rule": ("quadrature", "tensor_rule"),
    "charts.eval_jets": ("charts", "eval_jets"),
    "geometry.point_geometry": ("geometry", "point_geometry"),
    "geometry.soliton_residual": ("geometry", "soliton_residual"),
    "stability.grid_geometry": ("stability", "grid_geometry"),
    "stability.prepare_variation": ("stability", "prepare_variation"),
    "stability.second_variation_operator": ("stability", "second_variation_operator"),
    "stability.second_variation_divergence": ("stability", "second_variation_divergence"),
    "stability.second_variation_square": ("stability", "second_variation_square"),
    "stability.second_variation_fd_oracle": ("stability", "second_variation_fd_oracle"),
    "stability.variation_scale": ("stability", "variation_scale"),
    "stability.first_variation": ("stability", "first_variation"),
    "variations.form_jets": ("variations", "OneFormField.eval_jets"),
    "variations.scalar_field_jets": ("variations", "ScalarField.eval_jets"),
    "variations.covariant_calculus": ("variations", "covariant_calculus"),
    "variations.variation_field_jets": ("variations", "variation_field_jets"),
    "reports.evaluate_variation": ("reports", "evaluate_variation"),
    "reports.run_variation_suite": ("reports", "run_variation_suite"),
    "reports.reports_to_json": ("reports", "reports_to_json"),
    "wirtinger.closed_form_deviations": ("wirtinger", "closed_form_deviations"),
    "wirtinger.cylinder_stability_integrals": ("wirtinger", "cylinder_stability_integrals"),
    "wirtinger.dirichlet_gap": ("wirtinger", "dirichlet_gap"),
}

# results whose array bytes are summed per call (computed from nbytes)
BYTES = ("charts.eval_jets", "geometry.point_geometry", "variations.form_jets")

JET_METHODS = (
    "__add__",
    "__radd__",
    "__neg__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__rtruediv__",
    "__pow__",
)
JET_FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt")


def result_nbytes(obj) -> int:
    """Bytes of the ndarray fields of a result dataclass, inputs excluded."""
    total = 0
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if f.name != "points" and hasattr(value, "nbytes"):
            total += int(value.nbytes)
    return total


def _rebind(modules, original, wrapped) -> None:
    """Point every module-level binding of ``original`` at ``wrapped``.

    Module-level dicts are searched one level deep, which covers the
    expression parser's table of jet functions.
    """
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if key.startswith("__"):
                continue
            if value is original:
                setattr(mod, key, wrapped)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = wrapped


class Recorder:
    """Spans, counters and gate values of one traced invocation."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.gates: dict[str, float] = {}
        self._jet_depth = 0

    def span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            index = len(self.spans)
            record = [name, time.perf_counter(), None, parent, self.run_id]
            self.spans.append(record)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self.stack.pop()
            self._observe(name, result)
            return result

        return wrapper

    def jet_op(self, fn):
        """Count outermost Jet operations (``a - b`` is one op, not three)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._jet_depth == 0:
                self.counts["jets.ops"] += 1
            self._jet_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._jet_depth -= 1

        return wrapper

    def _observe(self, name, result) -> None:
        """Counts and gate values read off a traced call's result."""
        if name in BYTES:
            self.counts[name + ".bytes"] += result_nbytes(result)
        elif name == "quadrature.tensor_rule":
            self.counts["quadrature.nodes"] += result.nodes.shape[0]
        elif name == "stability.grid_geometry":
            self._gate("geometry.max_soliton_residual", result.soliton_residual)
        elif name == "geometry.soliton_residual":
            self._gate("geometry.max_soliton_residual", result.max_soliton_residual)

    def _gate(self, key, value) -> None:
        self.gates[key] = max(self.gates.get(key, 0.0), float(value))

    def install(self, package: str = "soliton_stability") -> None:
        """Wrap every traced function in every module of ``package`` that binds it."""
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for name, (module, attr) in TRACED.items():
            owner = sys.modules[f"{package}.{module}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self.span(name, getattr(cls, method)))
            else:
                original = getattr(owner, attr)
                _rebind(modules, original, self.span(name, original))
        jets = sys.modules[f"{package}.jets"]
        for method in JET_METHODS:
            setattr(jets.Jet, method, self.jet_op(getattr(jets.Jet, method)))
        for fname in JET_FUNCTIONS:
            original = getattr(jets, fname)
            _rebind(modules, original, self.jet_op(original))

    def to_json(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "gates": self.gates}


def layer_times(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per layer name: summed self time, inclusive time and call count."""
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        row = out.setdefault(name, {"s": 0.0, "incl_s": 0.0, "calls": 0})
        row["s"] += (end - start) - child_time[i]
        row["calls"] += 1
        # inclusive time counts only outermost spans of a name
        ancestor, nested = parent, False
        while ancestor is not None:
            if spans[ancestor][0] == name:
                nested = True
                break
            ancestor = spans[ancestor][3]
        if not nested:
            row["incl_s"] += end - start
    return out
