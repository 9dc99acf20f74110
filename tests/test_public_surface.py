"""The names the benchmark tracer wraps, and the package's exports, all exist."""

import importlib
import importlib.util
from pathlib import Path

import patchtooth as pt

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _layer_functions():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYER_FUNCTIONS


def test_traced_names_and_exports_resolve():
    for layer, names in _layer_functions().items():
        module = importlib.import_module(f"patchtooth.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"patchtooth.{layer}.{name}"
    for name in pt.__all__:
        assert hasattr(pt, name), name
