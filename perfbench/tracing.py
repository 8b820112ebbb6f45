"""Spans and work counts for the benchmark's traced run.

The tracer wraps public functions of the `scorematch` modules from outside, in
the module that looks each name up at call time, so every call made from that
module goes through the wrapper. A name that no longer exists is skipped: its
metrics then read 0 instead of failing the run.

Each wrapped call records a span (label, parent span, phase, start, end) in
memory. A span's self time is its duration minus the durations of its child
spans; calls are single-threaded, so the children never overlap.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict

# (module, attribute, label). The label names the module that defines the
# function; the module is the one whose global lookup is replaced.
WRAPPED = (
    ("models", "log_unnorm", "models.log_unnorm"),
    ("models", "conditional_table", "models.conditional_table"),
    ("models", "sample", "models.sample"),
    ("models", "exact_normalize", "models.exact_normalize"),
    ("objectives", "log_unnorm", "models.log_unnorm"),
    ("objectives", "conditional_table", "models.conditional_table"),
    ("objectives", "grad_x_log", "models.grad_x_log"),
    ("objectives", "laplacian_x_log", "models.laplacian_x_log"),
    ("objectives", "quad", "grids.quad"),
    ("objectives", "grid_gradient", "operators.grid_gradient"),
    ("estimation", "sample", "models.sample"),
    ("estimation", "fit", "estimation.fit"),
    ("estimation", "objective_functions", "estimation.objective_functions"),
    ("estimation", "fd_gradient", "estimation.fd_gradient"),
    ("scalespace", "smooth", "scalespace.smooth"),
    ("scalespace", "kl_exact", "objectives.kl_exact"),
    ("scalespace", "fisher_exact", "objectives.fisher_exact"),
    ("scalespace", "entropy", "scalespace.entropy"),
    ("scalespace", "fisher_information", "scalespace.fisher_information"),
    ("scalespace", "divergence_curve", "scalespace.divergence_curve"),
    ("scalespace", "debruijn_residual", "scalespace.debruijn_residual"),
    ("scalespace", "quad", "grids.quad"),
    ("scalespace", "grid_gradient", "operators.grid_gradient"),
)

LAYERS = ("models", "objectives", "estimation", "scalespace", "operators", "grids")
OBJECTIVES = ("sm", "pl", "mle", "gsm", "rm")
POPULATION_OBJECTIVES = ("gsm", "rm", "pl", "mle")

# Every per-layer metric the traced run prints, with its unit. BENCHMARK.json
# lists the same names.
PER_LAYER = (
    [
        ("models.conditional_table.calls", "count"),
        ("models.conditional_table.cells", "count"),
        ("models.conditional_table.self_s", "s"),
        ("models.conditional_table.solve_share", "ratio"),
        ("models.log_unnorm.calls", "count"),
        ("models.log_unnorm.rows", "count"),
        ("models.log_unnorm.self_s", "s"),
        ("models.grad_x_log.calls", "count"),
        ("models.grad_x_log.self_s", "s"),
        ("models.laplacian_x_log.calls", "count"),
        ("models.laplacian_x_log.self_s", "s"),
        ("models.sample.calls", "count"),
        ("models.sample.s", "s"),
        ("models.exact_normalize.calls", "count"),
        ("models.exact_normalize.s", "s"),
    ]
    + [(f"objectives.{k}.{m}", u) for k in OBJECTIVES for m, u in (("calls", "count"), ("self_s", "s"))]
    + [
        (f"objectives.population.{k}.{m}", u)
        for k in POPULATION_OBJECTIVES
        for m, u in (("calls", "count"), ("self_s", "s"))
    ]
    + [
        ("objectives.kl_exact.calls", "count"),
        ("objectives.kl_exact.self_s", "s"),
        ("objectives.fisher_exact.calls", "count"),
        ("objectives.fisher_exact.self_s", "s"),
        ("estimation.fits", "count"),
        ("estimation.iters", "count"),
        ("estimation.value_evals", "count"),
        ("estimation.grad_evals", "count"),
        ("estimation.fd_gradient.calls", "count"),
        ("estimation.fd_value_evals", "count"),
        ("estimation.line_search_trials", "count"),
        ("estimation.step_accept_ratio", "ratio"),
        ("estimation.fd_share", "ratio"),
        ("estimation.objective_functions.self_s", "s"),
        ("estimation.fit.self_s", "s"),
        ("scalespace.smooth.calls", "count"),
        ("scalespace.smooth.macs", "MAC"),
        ("scalespace.smooth.self_s", "s"),
        ("scalespace.smooth.solve_share", "ratio"),
        ("scalespace.entropy.self_s", "s"),
        ("scalespace.fisher_information.self_s", "s"),
        ("scalespace.divergence_curve.s", "s"),
        ("operators.grid_gradient.calls", "count"),
        ("operators.grid_gradient.self_s", "s"),
        ("grids.quad.calls", "count"),
        ("grids.quad.self_s", "s"),
    ]
    + [(f"spans.{layer}", "count") for layer in LAYERS]
    + [
        ("trace.spans", "count"),
        ("trace.solve_s", "s"),
        ("trace.untraced_solve_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.count_mismatches", "count"),
    ]
)


def _rows(args) -> int:
    shape = getattr(args[1], "shape", None) if len(args) > 1 else None
    if shape is None or len(shape) == 1:
        return 1
    return int(shape[0])


def _cells(args) -> int:
    model, X = args[0], args[1]
    shape = getattr(X, "shape", (1,))
    n = 1 if len(shape) == 1 else int(shape[0])
    return n * int(model.dim) * int(model.alphabet_size)


class Tracer:
    """Installs the wrappers on enter and restores the originals on exit."""

    def __init__(self, package):
        self.package = package
        self.phase = "setup"
        self.spans = []  # [label, parent index or None, phase, start, end]
        self.stats = defaultdict(float)
        self.solve_inclusive = defaultdict(float)
        self._stack = []  # [span index, label, child seconds]
        self._saved = []
        self._radius_sigmas = float(getattr(package.scalespace, "KERNEL_RADIUS_SIGMAS", 8.0))

    def __enter__(self):
        extra = {
            "models.log_unnorm": lambda args, res: self._add("models.log_unnorm.rows", _rows(args)),
            "models.conditional_table": lambda args, res: self._add(
                "models.conditional_table.cells", _cells(args)
            ),
            "scalespace.smooth": lambda args, res: self._add("scalespace.smooth.macs", self._macs(args)),
            "estimation.fit": lambda args, res: self._add("estimation.iters", getattr(res, "iters", 0)),
            "estimation.fd_gradient": lambda args, res: self._add("estimation.grad_evals", 1),
        }
        for module_name, attr, label in WRAPPED:
            module = getattr(self.package, module_name, None)
            original = getattr(module, attr, None)
            if original is None:
                continue
            if label == "estimation.objective_functions":
                wrapper = self._objective_functions(original)
            else:
                wrapper = self._wrap(label, original, extra.get(label))
            self._saved.append((module, attr, original))
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def _add(self, key, amount):
        self.stats[key] += amount

    def _macs(self, args) -> int:
        """Multiply-accumulates of the direct convolution `smooth` runs, as
        computed from its inputs: one pass per axis, each costing grid points
        times kernel taps, taps = 2 * ceil(radius * sqrt(t) / h) + 1."""
        p, t = args[0], float(args[1])
        if t <= 0:
            return 0
        taps = sum(2 * math.ceil(self._radius_sigmas * math.sqrt(t) / h) + 1 for h in p.spacing)
        return int(p.values.size * taps)

    def call(self, label, fn, args, kwargs, extra=None):
        """Run fn inside a span labelled `label`."""
        index = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        span = [label, parent, self.phase, time.perf_counter(), None]
        self.spans.append(span)
        frame = [index, label, 0.0]
        self._stack.append(frame)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            span[4] = end = time.perf_counter()
            self._stack.pop()
            duration = end - span[3]
            if self._stack:
                self._stack[-1][2] += duration
            self.stats[f"{label}.calls"] += 1
            self.stats[f"{label}.s"] += duration
            self.stats[f"{label}.self_s"] += duration - frame[2]
            if self.phase == "solve":
                self.solve_inclusive[label] += duration
            if extra is not None:
                extra(args, result)

    def _wrap(self, label, fn, extra):
        def wrapper(*args, **kwargs):
            return self.call(label, fn, args, kwargs, extra)

        return wrapper

    def _objective_functions(self, fn):
        """Label the value and gradient callables by the objective they evaluate."""

        def wrapper(model, objective, data, *args, **kwargs):
            result = self.call("estimation.objective_functions", fn, (model, objective, data) + args, kwargs)
            try:
                value, grad = result
            except (TypeError, ValueError):
                return result
            kind = getattr(objective, "value", str(objective))
            population = hasattr(data, "probs")
            label = f"objectives.population.{kind}" if population else f"objectives.{kind}"

            def traced_value(theta, *a, **k):
                self.stats["estimation.value_evals"] += 1
                if self._stack and self._stack[-1][1] == "estimation.fd_gradient":
                    self.stats["estimation.fd_value_evals"] += 1
                return self.call(label, value, (theta,) + a, k)

            def traced_grad(theta, *a, **k):
                self.stats["estimation.grad_evals"] += 1
                return self.call(label, grad, (theta,) + a, k)

            return traced_value, (None if grad is None else traced_grad)

        return wrapper

    def counts(self) -> dict:
        """Work counters (not times); these must repeat exactly between passes."""
        return {
            k: int(v)
            for k, v in sorted(self.stats.items())
            if not (k.endswith(".s") or k.endswith("_s"))
        }

    def span_records(self) -> list:
        return [
            {"id": i, "name": s[0], "parent": s[1], "phase": s[2], "start": s[3], "end": s[4]}
            for i, s in enumerate(self.spans)
        ]


def layer_metrics(tracer: Tracer, solve_s: float, untraced_solve_s: float, mismatches: int) -> dict:
    """Per-layer metric values, keyed by the names in PER_LAYER."""
    st = tracer.stats
    fits = st["estimation.fit.calls"]
    iters = st["estimation.iters"]
    value_evals = st["estimation.value_evals"]
    fd_value_evals = st["estimation.fd_value_evals"]
    # Value evaluations outside finite differences, minus each fit's initial one.
    trials = value_evals - fd_value_evals - fits
    derived = {
        "models.conditional_table.solve_share": tracer.solve_inclusive["models.conditional_table"] / solve_s,
        "scalespace.smooth.solve_share": tracer.solve_inclusive["scalespace.smooth"] / solve_s,
        "estimation.fits": fits,
        "estimation.line_search_trials": trials,
        "estimation.step_accept_ratio": iters / trials if trials > 0 else 0.0,
        "estimation.fd_share": fd_value_evals / value_evals if value_evals > 0 else 0.0,
        "trace.spans": len(tracer.spans),
        "trace.solve_s": solve_s,
        "trace.untraced_solve_s": untraced_solve_s,
        "trace.overhead_s": solve_s - untraced_solve_s,
        "trace.count_mismatches": mismatches,
    }
    for layer in LAYERS:
        derived[f"spans.{layer}"] = sum(1 for s in tracer.spans if s[0].split(".", 1)[0] == layer)
    out = {}
    for name, unit in PER_LAYER:
        value = derived[name] if name in derived else st.get(name, 0.0)
        out[name] = int(value) if unit in ("count", "MAC") else float(value)
    return out
