"""Span tracing of the patchtooth layers, recorded from outside the package.

`Tracer.install` wraps each public function named in LAYER_FUNCTIONS under
every `patchtooth.*` module name it is looked up by (the CLI and spectra, for
example, both import `symmetry_defect` by name), so calls made from inside the
package are traced too.  `uninstall` restores the originals, which lets one
process alternate traced and untraced runs.

Spans stay in memory as plain dicts: run id, span id, parent span, name,
layer, wall and process-CPU start and end, and a few counters.  Counters that
cost time to compute (stored entries and nonzeros of an assembled operator)
are taken in their own span of layer "trace", a sibling of the span they
describe, so that cost shows as tracing overhead and not as layer time.

`layer_metrics` turns the spans of one run into the per-layer metrics.  A
span's self time is its duration minus the time its child spans cover; the
self times listed in PARTITION add up to the duration of the root span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref
from pathlib import Path

LAYER_FUNCTIONS = {
    "assembly": ["assemble_patch_1d", "assemble_patch_2d", "assemble_wave", "symmetry_defect"],
    "spectra": ["eigen_symmetric", "eigen_general", "error_table", "convergence_slope"],
    "timestep": ["evolve_rk4", "evolve_exact", "conserved_mass", "stability_limit"],
    "coupling": ["weights_for"],
    "geometry": [
        "build_grid_1d", "build_grid_2d", "ratio_for_spacing",
        "validate_compatibility", "validate_compatibility_2d",
    ],
    "microscale": [
        "random_lognormal_profile", "random_lognormal_profile_2d",
        "full_lattice_operator_1d", "full_lattice_operator_2d",
    ],
    "ensemble": ["build_permutations_2d"],
    "homogenize": ["extract_coefficients", "slow_branch"],
}
LAYERS = ["cli", *LAYER_FUNCTIONS]
ROOT = "run"

# Metrics whose values add up to the root span's duration (trace.run_s).
PARTITION = [
    "cli.self_s", "assembly.self_s", "assembly.symmetry_s", "spectra.self_s",
    "timestep.integrate_s", "timestep.stability_s", "coupling.self_s",
    "geometry.self_s", "microscale.self_s", "ensemble.self_s",
    "homogenize.self_s", "trace.bookkeeping_s",
]

MB = 2.0 ** 20


class Tracer:
    """Records spans around the listed patchtooth functions while installed."""

    def __init__(self):
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self.run_id = 0
        self._stack: list[dict] = []
        self._next_id = 0
        self._built: dict[int, tuple[weakref.ref, dict]] = {}
        self._installed: list[tuple[object, str, object]] = []

    def _open(self, name: str, layer: str, **attrs) -> dict:
        span = {
            "run": self.run_id, "id": self._next_id,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name, "layer": layer, **attrs,
        }
        self._next_id += 1
        self._stack.append(span)
        span["c0"] = time.process_time()
        span["t0"] = time.perf_counter()
        return span

    def _close(self, span: dict) -> None:
        span["t1"] = time.perf_counter()
        span["c1"] = time.process_time()
        self._stack.pop()
        self.spans.append(span)

    def run(self, fn, *args):
        """Call fn(*args) as the root span of a new run."""
        self.run_id += 1
        span = self._open(ROOT, "cli")
        try:
            return fn(*args)
        finally:
            self._close(span)

    def _mark_used(self, args, kwargs) -> None:
        for value in (*args, *kwargs.values()):
            ref, span = self._built.get(id(value), (None, None))
            if ref is not None and ref() is value:
                span["used"] = True

    def _record_operator(self, op, top_level: bool) -> None:
        span = self._open("operator", "trace")
        try:
            span["stored_bytes"], span["entries"], span["nnz"] = storage(op.matrix)
            span["top_level"] = top_level
            span["used"] = False
            if top_level:
                self._built[id(op)] = (weakref.ref(op), span)
        finally:
            self._close(span)

    def _wrap(self, layer: str, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._mark_used(args, kwargs)
            attrs = {}
            if name.startswith("eigen") and args and hasattr(args[0], "matrix"):
                attrs["dim"] = int(args[0].matrix.shape[0])
            builds = name.startswith("assemble")
            top_level = builds and not any(
                s["name"].startswith("assemble") for s in tracer._stack
            )
            span = tracer._open(name, layer, **attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if builds:
                tracer._record_operator(result, top_level)
            elif name.startswith("evolve"):
                span["states_bytes"] = int(result.states.nbytes)
            return result

        return traced

    def install(self) -> None:
        """Wrap every listed function wherever a patchtooth module holds it."""
        homes = {}
        for layer in LAYER_FUNCTIONS:
            try:
                homes[layer] = importlib.import_module(f"patchtooth.{layer}")
            except ModuleNotFoundError:
                homes[layer] = None
        modules = [m for key, m in list(sys.modules.items())
                   if key == "patchtooth" or key.startswith("patchtooth.")]
        self.missing = []
        for layer, names in LAYER_FUNCTIONS.items():
            for name in names:
                original = getattr(homes[layer], name, None)
                if not callable(original):
                    self.missing.append(f"{layer}.{name}")
                    continue
                wrapped = self._wrap(layer, name, original)
                for module in modules:
                    if getattr(module, name, None) is original:
                        setattr(module, name, wrapped)
                        self._installed.append((module, name, original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._installed):
            setattr(module, name, original)
        self._installed = []
        self._built.clear()


def storage(matrix) -> tuple[int, int, int]:
    """Bytes stored, entries stored and nonzeros of a dense or scipy.sparse matrix."""
    if hasattr(matrix, "tocsr"):
        csr = matrix.tocsr()
        stored = csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
        return int(stored), int(csr.nnz), int(csr.count_nonzero())
    import numpy as np

    return int(matrix.nbytes), int(matrix.size), int(np.count_nonzero(matrix))


def reached_layers(fn, *args):
    """Call fn(*args) and return (its result, the patchtooth modules it entered)."""
    import patchtooth

    package = str(Path(patchtooth.__file__).resolve().parent) + "/"
    reached = set()

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename.startswith(package):
            reached.add(Path(filename).stem)

    sys.settrace(on_call)
    try:
        result = fn(*args)
    finally:
        sys.settrace(None)
    return result, reached - {"__init__", "__main__"}


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer metrics of one run's spans (see README.md for definitions)."""
    child_wall: dict[int, float] = {}
    child_cpu: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_wall[s["parent"]] = child_wall.get(s["parent"], 0.0) + s["t1"] - s["t0"]
            child_cpu[s["parent"]] = child_cpu.get(s["parent"], 0.0) + s["c1"] - s["c0"]

    def self_wall(s):
        return s["t1"] - s["t0"] - child_wall.get(s["id"], 0.0)

    def self_cpu(s):
        return s["c1"] - s["c0"] - child_cpu.get(s["id"], 0.0)

    def total(select, measure=self_wall):
        return sum(measure(s) for s in spans if select(s))

    def count(select):
        return sum(1 for s in spans if select(s))

    def named(*prefixes):
        return lambda s: s["name"].startswith(prefixes)

    def layer(name):
        return lambda s: s["layer"] == name

    assemble = named("assemble")
    operators = [s for s in spans if s["name"] == "operator"]
    top_level = sum(1 for s in operators if s["top_level"])
    used = sum(1 for s in operators if s["top_level"] and s["used"])
    root = [s for s in spans if s["name"] == ROOT]
    metrics = {
        "cli.self_s": total(layer("cli")),
        "assembly.self_s": total(assemble),
        "assembly.calls": count(assemble),
        "assembly.used_frac": used / top_level if top_level else 0.0,
        "assembly.stored_mb": sum(s["stored_bytes"] for s in operators) / MB,
        "assembly.nnz_frac": (sum(s["nnz"] for s in operators)
                              / max(sum(s["entries"] for s in operators), 1)),
        "assembly.symmetry_s": total(named("symmetry_defect")),
        "assembly.symmetry_calls": count(named("symmetry_defect")),
        "spectra.self_s": total(layer("spectra")),
        "spectra.calls": count(layer("spectra")),
        "spectra.cpu_s": total(layer("spectra"), self_cpu),
        "spectra.dim3_sum": float(sum(s["dim"] ** 3 for s in spans if "dim" in s)),
        "timestep.integrate_s": total(named("evolve", "conserved_mass")),
        "timestep.stability_s": total(named("stability_limit")),
        "timestep.cpu_s": total(layer("timestep"), self_cpu),
        "timestep.states_mb": sum(s.get("states_bytes", 0) for s in spans) / MB,
    }
    for name in ("coupling", "geometry", "microscale", "ensemble", "homogenize"):
        metrics[f"{name}.self_s"] = total(layer(name))
    metrics["trace.bookkeeping_s"] = total(layer("trace"))
    metrics["trace.run_s"] = sum(s["t1"] - s["t0"] for s in root)
    return metrics


def spanned_layers(spans: list[dict]) -> set[str]:
    return {s["layer"] for s in spans if s["layer"] in LAYERS}
