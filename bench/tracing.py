"""Span tracing at the layer boundaries of the spindisk package.

`Tracer.install` replaces every public function of the traced modules,
in every spindisk module namespace that holds it, and the click command
callbacks, with a wrapper that records one span per call: layer name,
start, end, parent span and item id.  Spans stay in memory until the run
writes them out.  Nothing in the package itself is changed on disk.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from collections import Counter

#: Layer of each traced function.  A module name maps all of that
#: module's public functions to one layer; the split modules list theirs.
_MODULE_LAYERS = {
    "spindisk.circle": "circle",
    "spindisk.spectral": "spectral",
    "spindisk.bell": "bell",
    "spindisk.optimize": "optimize",
}
_FUNCTION_LAYERS = {
    "spindisk.correlation": {
        "exact_correlation": "correlation.curve",
        "mixture_correlation": "correlation.curve",
        "*": "correlation.metric",
    },
    "spindisk.montecarlo": {
        "classical_outcomes": "montecarlo.outcomes",
        "quantum_outcomes": "montecarlo.outcomes",
        "*": "montecarlo.run",
    },
}
_NAMESPACES = (
    "spindisk", "spindisk.circle", "spindisk.correlation", "spindisk.spectral",
    "spindisk.bell", "spindisk.lattice", "spindisk.montecarlo", "spindisk.optimize",
    "spindisk.cli",
)

LAYERS = (
    "circle", "correlation.curve", "correlation.metric", "spectral", "bell",
    "montecarlo.outcomes", "montecarlo.run", "optimize", "cli",
)

#: Span of one CLI invocation around its command callback; its self time
#: (argument parsing, output capture) belongs to the cli layer.
INVOKE = "cli.invoke"


def _grid_size(args, kwargs) -> int:
    step = kwargs.get("grid_step", args[1] if len(args) > 1 else math.pi / 90)
    return max(1, round(2.0 * math.pi / step))


def _improving_starts(result) -> int:
    best, improved = math.inf, 0
    for _, value in result.trace:
        if value < best:
            best, improved = value, improved + 1
    return improved


# Layer counters taken from a call's arguments and result.
_COUNTERS = {
    "exact_correlation": lambda a, kw, r: {"correlation.curve.breakpoints": r.breakpoints.size},
    "mixture_correlation": lambda a, kw, r: {"correlation.curve.breakpoints": r.breakpoints.size},
    "chsh_scan": lambda a, kw, r: {"bell.grid_points": _grid_size(a, kw)},
    "colouring_spectrum": lambda a, kw, r: {"spectral.coeffs": r.size},
    "pl_cosine_coeffs": lambda a, kw, r: {"spectral.coeffs": r.size},
    "classical_outcomes": lambda a, kw, r: {"montecarlo.outcomes.runs": r[0].size},
    "quantum_outcomes": lambda a, kw, r: {"montecarlo.outcomes.runs": r[0].size},
    "run_experiment": lambda a, kw, r: {"montecarlo.run.setting_pairs": len(r.counts)},
    "optimise_fixed_k": lambda a, kw, r: {
        "optimize.starts": kw.get("n_starts", 32),
        "optimize.improving_starts": _improving_starts(r),
    },
    "optimise_mixture": lambda a, kw, r: {"optimize.fw_iterations": len(r.gaps)},
}


def _layer_of(module: str, name: str) -> str | None:
    if module in _MODULE_LAYERS:
        return _MODULE_LAYERS[module]
    table = _FUNCTION_LAYERS.get(module)
    if table is None:
        return None  # lattice and the package root are never timed
    return table.get(name, table["*"])


class Tracer:
    """Records spans and counters; one instance per traced phase."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, item]
        self.counts: Counter = Counter()
        self.item: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, counter=None):
        """Wrap fn so each call records a span (and counters) under name."""
        spans, stack, counts = self.spans, self._stack, self.counts
        counted = name != INVOKE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.item]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if counted:
                counts[name + ".calls"] += 1
            if counter is not None:
                counts.update(counter(args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the traced functions in every namespace and the CLI callbacks."""
        modules = {name: importlib.import_module(name) for name in _NAMESPACES}
        wrappers = {}
        for mod in modules.values():
            for name, fn in inspect.getmembers(mod, inspect.isfunction):
                layer = _layer_of(fn.__module__, name)
                if name.startswith("_") or layer is None:
                    continue
                if fn not in wrappers:
                    wrappers[fn] = self.span(layer, fn, _COUNTERS.get(name))
                self._undo.append((mod, name, fn))
                setattr(mod, name, wrappers[fn])
        for command in modules["spindisk.cli"].main.commands.values():
            self._undo.append((command, "callback", command.callback))
            command.callback = self.span("cli", command.callback)

    def uninstall(self) -> None:
        for obj, name, original in reversed(self._undo):
            setattr(obj, name, original)
        self._undo.clear()

    def layer_metrics(self, wall: float) -> dict[str, float]:
        """Per-layer calls, self time, share of wall and layer counters.

        Self time is a span's duration minus the time covered by its child
        spans.  `objective_evals` counts curve calls whose parent span is
        an optimize call.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = Counter()
        optimize_s = 0.0
        evals = 0
        for i, (name, start, end, parent, _) in enumerate(spans):
            layer = "cli" if name == INVOKE else name
            self_s[layer] += end - start - child[i]
            if name == "optimize" and (parent < 0 or spans[parent][0] != "optimize"):
                optimize_s += end - start
            if name == "correlation.curve" and parent >= 0 and spans[parent][0] == "optimize":
                evals += 1
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.counts[f"{layer}.calls"]
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.share"] = self_s[layer] / wall
        for key in ("correlation.curve.breakpoints", "bell.grid_points", "spectral.coeffs",
                    "montecarlo.outcomes.runs", "montecarlo.run.setting_pairs",
                    "optimize.fw_iterations", "cli.bytes_out"):
            out[key] = self.counts[key]
        out["optimize.objective_evals"] = evals
        out["optimize.evals_per_s"] = evals / optimize_s if optimize_s > 0 else 0.0
        starts = self.counts["optimize.starts"]
        out["optimize.improving_start_ratio"] = (
            self.counts["optimize.improving_starts"] / starts if starts else 0.0
        )
        out["layer_share_total"] = sum(out[f"{layer}.share"] for layer in LAYERS)
        return out
