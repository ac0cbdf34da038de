"""The public names and the names the benchmark tracer wraps must exist, so a
deleted or renamed function fails here rather than in a traced run."""

import importlib
import importlib.util
import operator
from pathlib import Path

import momentkit

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def test_all_names_resolve():
    missing = [name for name in momentkit.__all__ if not hasattr(momentkit, name)]
    assert missing == []


def test_traced_layers_resolve():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, attr, _stats in spans.LAYERS:
        owner = importlib.import_module(f"momentkit.{module}")
        assert callable(operator.attrgetter(attr)(owner)), f"{module}.{attr}"
