"""The record ``tools/bench_record.py`` assembles from benchmark output.

Only the parsing and the assembly run here, on canned output; nothing
starts the benchmark."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

ENV = {"commit": "0123abc", "python": "3.12.3", "numpy": "2.4.6"}

#: The tally lines of a solve-1d run as ``benchmarks/run.py`` prints them,
#: with the note that follows them.
TALLIES = """\
# outcomes of 1296 operations: {"solved": 272, "refused": 64, "wrong": 960, "crash": 0}
#   exact atoms<8          {"wrong": 52, "solved": 140, "refused": 32}
#   exact atoms>=8         {"wrong": 416}
#   factorial              {"wrong": 8}
#   float atoms<8          {"solved": 132, "refused": 32, "wrong": 60}
#   float atoms>=8         {"wrong": 416}
#   lognormal              {"wrong": 8}
# latencies are each problem's median of 2 passes
"""
OUTCOMES = {
    "counts": {"solved": 272, "refused": 64, "wrong": 960, "crash": 0},
    "by_kind": {
        "exact atoms<8": {"wrong": 52, "solved": 140, "refused": 32},
        "exact atoms>=8": {"wrong": 416},
        "factorial": {"wrong": 8},
        "float atoms<8": {"solved": 132, "refused": 32, "wrong": 60},
        "float atoms>=8": {"wrong": 416},
        "lognormal": {"wrong": 8},
    },
}


def _stdout(
    metrics: dict, attempted: int = 240, failed: int = 0, tallies: str = TALLIES
) -> str:
    """What ``benchmarks/run.py`` prints: ``#`` lines, people's lines and
    one JSON line last."""
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return "\n".join(
        [
            "# momentkit benchmark: workload solve-md, seed 1, seconds 2, trace 0",
            "# env " + json.dumps(ENV),
            *(f"{k:<58} {v:>14.6g} {u}" for k, (v, u) in metrics.items()),
            *tallies.splitlines(),
            json.dumps(result),
        ]
    ) + "\n"


END_TO_END = {"problems_per_s": (580.5, "1/s"), "latency_p50_ms": (1.37, "ms")}
PER_LAYER = {"matrices.moment_matrix.calls": (1104.0, "count")}


class TestParseRun:
    def test_reads_the_last_line_and_the_environment(self):
        run = bench_record.parse_run(_stdout(END_TO_END))
        assert run["attempted"] == 240 and run["failed"] == 0
        assert run["metrics"]["problems_per_s"] == {"value": 580.5, "unit": "1/s"}
        assert run["env"] == ENV
        assert bench_record.run_failure(run) is None

    @pytest.mark.parametrize("stdout", ["", "# env {}\nnot json\n", "[1, 2]\n"])
    def test_output_without_a_result_line_is_refused(self, stdout):
        with pytest.raises(ValueError):
            bench_record.parse_run(stdout)

    def test_reads_the_outcome_tallies(self):
        run = bench_record.parse_run(_stdout(END_TO_END))
        assert run["outcomes"] == OUTCOMES

    @pytest.mark.parametrize(
        "tallies",
        [
            TALLIES.replace("# outcomes of", "# tallies of"),
            TALLIES.replace('{"wrong": 416}', '{"wrong": 416'),
        ],
        ids=["no-outcomes-line", "kind-not-json"],
    )
    def test_output_without_readable_tallies_is_refused(self, tallies):
        with pytest.raises(ValueError):
            bench_record.parse_run(_stdout(END_TO_END, tallies=tallies))

    def test_a_run_with_failed_operations_is_a_failure(self):
        run = bench_record.parse_run(_stdout(END_TO_END, attempted=10, failed=2))
        assert bench_record.run_failure(run) == "correct is false (2 of 10 failed)"


class TestAssemble:
    def test_layout(self):
        runs = {}
        for name in bench_record.WORKLOADS:
            runs[(name, 0)] = bench_record.parse_run(_stdout(END_TO_END))
            runs[(name, 1)] = bench_record.parse_run(_stdout(PER_LAYER, attempted=480))
        cold = {"import_ms": 250.0, "check_ms": 400.0, "work_ms": 150.0}
        record = bench_record.assemble("0123abc", 7, 2.0, runs, cold, [])
        assert json.loads(json.dumps(record)) == record
        assert record["sha"] == "0123abc"
        assert (record["seed"], record["seconds"]) == (7, 2.0)
        assert record["env"] == ENV
        assert record["cold_cli"] == cold
        assert record["failures"] == []
        assert list(record["workloads"]) == list(bench_record.WORKLOADS)
        for entry in record["workloads"].values():
            assert entry == {
                "attempted": 240,
                "failed": 0,
                "end_to_end": {
                    "problems_per_s": {"value": 580.5, "unit": "1/s"},
                    "latency_p50_ms": {"value": 1.37, "unit": "ms"},
                },
                "outcomes": OUTCOMES,
                "traced_attempted": 480,
                "traced_failed": 0,
                "per_layer": {
                    "matrices.moment_matrix.calls": {"value": 1104.0, "unit": "count"}
                },
            }

    def test_missing_runs_are_left_out_and_failures_kept(self):
        runs = {("solve-1d", 0): bench_record.parse_run(_stdout(END_TO_END))}
        record = bench_record.assemble("0123abc", 7, 2.0, runs, None, ["x: exit 2"])
        assert list(record["workloads"]) == ["solve-1d"]
        assert "per_layer" not in record["workloads"]["solve-1d"]
        assert record["cold_cli"] is None
        assert record["failures"] == ["x: exit 2"]
