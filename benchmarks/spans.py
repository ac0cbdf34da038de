"""Span tracer for the benchmark's traced runs.

:meth:`Tracer.install` wraps each public function named in :data:`LAYERS`
in every ``momentkit`` module namespace that binds it (``from .matrices
import moment_matrix`` copies the binding into ``multivariate`` and
``univariate``), and :meth:`Tracer.uninstall` puts the originals back.  A
wrapper records a span (name, start, end, parent span, operation id) in
memory; a function's self time is its span minus its direct child spans.
The end-to-end numbers are always measured with the wrappers removed.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

#: (module, function or Class.method, reported statistics).  Functions
#: reporting ``self_ms`` get a span; the others only count calls.
LAYERS: list[tuple[str, str, tuple[str, ...]]] = [
    ("matrices", "moment_matrix", ("calls", "self_ms")),
    ("matrices", "localizing_matrix", ("calls", "self_ms")),
    ("matrices", "psd_check", ("calls", "self_ms")),
    ("matrices", "numerical_rank", ("calls", "self_ms")),
    ("matrices", "check_hypotheses", ("calls", "self_ms")),
    ("multivariate", "flat_rank", ("calls", "self_ms", "errors")),
    ("multivariate", "multiplication_operators", ("calls", "self_ms", "errors")),
    ("multivariate", "extract_atoms", ("calls", "self_ms", "errors")),
    ("multivariate", "extract_atoms_auto", ("calls", "self_ms", "errors")),
    ("univariate", "solve_1d", ("calls", "self_ms", "errors")),
    ("conditions", "normalize", ("calls", "self_ms")),
    ("conditions", "stieltjes_terms", ("calls", "self_ms")),
    ("conditions", "carleman_terms", ("calls", "self_ms")),
    ("conditions", "subsequence_terms", ("calls", "self_ms")),
    ("conditions", "check_subsequence_bounds", ("calls", "self_ms")),
    ("reduction", "check_generates", ("calls", "self_ms", "errors")),
    ("reduction", "pushforward_moments", ("calls", "self_ms", "errors")),
    ("reduction", "pull_back_atoms", ("calls", "self_ms", "errors")),
    ("reduction", "SemiAlgebraicPresentation.substitute", ("calls",)),
    ("polynomials", "Polynomial.__mul__", ("calls",)),
    ("polynomials", "MomentSequence.riesz", ("calls", "self_ms")),
    ("fixtures", "moments_of_atomic", ("self_ms",)),
    ("fixtures", "power_curve_fixture", ("self_ms",)),
    ("fixtures", "moments_factorial", ("self_ms",)),
    ("fixtures", "moments_lognormal", ("self_ms",)),
    ("fileformats", "read_moment_file", ("calls", "self_ms")),
    ("fileformats", "read_polynomials_file", ("calls", "self_ms")),
    ("fileformats", "write_measure_file", ("calls", "self_ms")),
    ("cli", "main", ("self_ms",)),
]

#: Ratios and counts derived from the spans, with their units.
DERIVED = {
    "matrices.entries_assembled": "count",
    "multivariate.moment_matrices_per_solve": "ratio",
    "multivariate.flat_hit_ratio": "ratio",
    "univariate.atoms_returned_ratio": "ratio",
    "reduction.pull_back_ms_per_atom": "ms",
}

STAT_UNITS = {"calls": "count", "self_ms": "ms", "errors": "count"}

_AUTO = "multivariate.extract_atoms_auto"


def _entries(tracer: "Tracer", args: tuple, result: Any, seconds: float) -> None:
    tracer.counters["entries_assembled"] += result.size**2


def _moment_matrix(tracer: "Tracer", args: tuple, result: Any, seconds: float) -> None:
    _entries(tracer, args, result, seconds)
    if any(frame[0] == _AUTO for frame in tracer.stack):
        tracer.counters["moment_matrices_in_solve"] += 1


def _flat_rank(tracer: "Tracer", args: tuple, result: Any, seconds: float) -> None:
    tracer.counters["flat_results"] += bool(result.is_flat)


def _pull_back(tracer: "Tracer", args: tuple, result: Any, seconds: float) -> None:
    tracer.counters["pull_back_atoms"] += len(args[0])
    tracer.counters["pull_back_s"] += seconds


_POST: dict[str, Callable[["Tracer", tuple, Any, float], None]] = {
    "matrices.moment_matrix": _moment_matrix,
    "matrices.localizing_matrix": _entries,
    "multivariate.flat_rank": _flat_rank,
    "reduction.pull_back_atoms": _pull_back,
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the tracer yields, with its unit, in order."""
    units = {}
    for module, attr, stats in LAYERS:
        for stat in stats:
            units[f"{module}.{attr}.{stat}"] = STAT_UNITS[stat]
    units.update(DERIVED)
    return units


class Tracer:
    """Spans and per-function statistics of one traced process."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent span index, operation id]``
        self.spans: list[list] = []
        #: name -> ``[calls, self seconds, typed errors]``
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0])
        self.counters: dict[str, float] = defaultdict(float)
        self.op: str | None = None
        #: open spans: ``[name, child seconds, span index]``
        self.stack: list[list] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # -- installation --------------------------------------------------

    def install(self) -> None:
        from momentkit.errors import MomentError

        modules = {
            m: importlib.import_module(f"momentkit.{m}") for m, _, _ in LAYERS
        }
        namespaces = [
            mod
            for name, mod in list(sys.modules.items())
            if name == "momentkit" or name.startswith("momentkit.")
        ]
        for module, attr, stats in LAYERS:
            name = f"{module}.{attr}"
            if "." in attr:
                cls_name, method = attr.split(".")
                owners = [getattr(modules[module], cls_name)]
                original = owners[0].__dict__[method]
            else:
                owners = namespaces
                original = getattr(modules[module], attr)
            wrapper = self._wrap(name, original, "self_ms" in stats, MomentError)
            # Every binding of the same object, aliases such as
            # ``Polynomial.__rmul__ = __mul__`` included.
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._undo.append((owner, key, original))
                        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    def _wrap(
        self, name: str, fn: Callable, spanned: bool, error_type: type
    ) -> Callable:
        tracer = self
        if not spanned:

            @functools.wraps(fn)
            def counted(*args: Any, **kwargs: Any) -> Any:
                tracer.stats[name][0] += 1
                return fn(*args, **kwargs)

            return counted

        post = _POST.get(name)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer.stack
            span = [name, 0.0, 0.0, stack[-1][2] if stack else None, tracer.op]
            frame = [name, 0.0, len(tracer.spans)]
            tracer.spans.append(span)
            stack.append(frame)
            stat = tracer.stats[name]
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except error_type:
                stat[2] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                seconds = end - start
                stat[0] += 1
                stat[1] += seconds - frame[1]
                if stack:
                    stack[-1][1] += seconds
                span[1], span[2] = start, end
            if post is not None:
                post(tracer, args, result, seconds)
            return result

        return traced

    # -- results -------------------------------------------------------

    def take(self) -> tuple[dict, dict]:
        """Statistics and counters gathered so far; both are then reset."""
        stats, counters = dict(self.stats), dict(self.counters)
        self.stats.clear()
        self.counters.clear()
        return stats, counters

    def write_spans(self, path: str) -> None:
        """All spans as JSON lines (times are ``perf_counter`` seconds of
        the process that recorded them)."""
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_metrics(
    stats: dict, counters: dict, passes: int, returned_ratio: float, setup_stats: dict
) -> dict[str, float]:
    """Per-layer metrics per pool pass of the traced passes; the fixtures'
    come from ``setup_stats`` of one set-up, where they run.

    ``returned_ratio`` (returned over true atoms of 1-D solves) comes from
    the answer checks, which alone know the true atom counts.
    """
    values: dict[str, float] = {}
    for module, attr, reported in LAYERS:
        name = f"{module}.{attr}"
        source, per = (setup_stats, 1) if module == "fixtures" else (stats, passes)
        calls, seconds, errors = source.get(name, (0, 0.0, 0))
        totals = {"calls": calls, "self_ms": seconds * 1e3, "errors": errors}
        for stat in reported:
            values[f"{name}.{stat}"] = totals[stat] / per

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values["matrices.entries_assembled"] = counters.get("entries_assembled", 0) / passes
    values["multivariate.moment_matrices_per_solve"] = ratio(
        counters.get("moment_matrices_in_solve", 0), stats.get(_AUTO, (0,))[0]
    )
    values["multivariate.flat_hit_ratio"] = ratio(
        counters.get("flat_results", 0), stats.get("multivariate.flat_rank", (0,))[0]
    )
    values["univariate.atoms_returned_ratio"] = returned_ratio
    values["reduction.pull_back_ms_per_atom"] = ratio(
        counters.get("pull_back_s", 0.0) * 1e3, counters.get("pull_back_atoms", 0)
    )
    return values
