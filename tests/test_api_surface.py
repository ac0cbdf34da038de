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


MOVED = {
    "univariate": ["gauss_rule", "GaussRule", "JacobiMatrix", "solve_1d", "Solve1DResult"],
    "multivariate": ["extract_atoms", "extract_atoms_auto"],
    "matrices": ["reproduction_residuals"],
}


def test_the_package_solves_through_one_dispatch_and_one_gate():
    assert {"propose", "solve", "require_reproduced"} <= set(momentkit.__all__)
    for module, names in MOVED.items():
        owner = importlib.import_module(f"momentkit.{module}")
        for name in names:
            assert not hasattr(momentkit, name), name
            assert name not in momentkit.__all__, name
            assert hasattr(owner, name), f"{module}.{name}"
