"""The pair comparison of ``tools/bench_pairs.py``, on canned benchmark output.

No benchmark runs here: ``subprocess.run`` is replaced by a fake that hands
out canned ``benchmarks/run.py`` output for each checkout in turn."""

from __future__ import annotations

import importlib.util
import json
import subprocess
from fractions import Fraction
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

TALLIES = '# outcomes of 72 operations: {"solved": 71, "refused": 1}'


def _stdout(rate: float, p50: float = 3.5, correct: bool = True) -> str:
    """What ``benchmarks/run.py --trace 0`` prints, its JSON line last."""
    metrics = {
        "problems_per_s": {"value": rate, "unit": "1/s"},
        "latency_p50_ms": {"value": p50, "unit": "ms"},
    }
    result = {"correct": correct, "attempted": 72, "failed": 0 if correct else 1,
              "metrics": metrics}
    return "\n".join(["# env {}", TALLIES, json.dumps(result)]) + "\n"


def _run(rate: float, p50: float = 3.5) -> dict:
    return bench_pairs.bench_record.parse_run(_stdout(rate, p50))


def _pairs(parent: list[float], change: list[float]) -> list[dict]:
    return [{"parent": _run(p), "change": _run(c)} for p, c in zip(parent, change)]


PARENT = [100.0 + i for i in range(10)]  # quartiles 101.75 and 107.25


def _rate_row(change: list[float]) -> dict:
    return bench_pairs.compare(_pairs(PARENT, change), "problems_per_s", "higher")


class TestCompare:
    def test_gain_beyond_the_quartile_spread_holds(self):
        row = _rate_row([p + 10 for p in PARENT])
        assert (row["wins"], row["ties"], row["pairs"]) == (10, 0, 10)
        assert row["parent"] == pytest.approx((101.75, 104.5, 107.25))
        assert row["change"][1] == pytest.approx(114.5)
        assert row["spread"] == pytest.approx(5.5)
        assert row["holds"]

    def test_every_pair_won_inside_the_spread_does_not_hold(self):
        row = _rate_row([p + 1 for p in PARENT])
        assert row["wins"] == 10 and not row["holds"]

    @pytest.mark.parametrize("losses, holds", [(1, True), (2, False)])
    def test_nine_tenths_of_the_pairs_must_be_won(self, losses, holds):
        change = [p + 20 for p in PARENT]
        for i in range(losses):
            change[i] = PARENT[i] - 1
        row = _rate_row(change)
        assert row["wins"] == 10 - losses and row["holds"] is holds

    def test_ties_count_for_neither_side(self):
        change = [p + 20 for p in PARENT]
        change[0] = PARENT[0]
        row = _rate_row(change)
        assert (row["wins"], row["ties"], row["holds"]) == (9, 1, True)
        change[1] = PARENT[1]
        row = _rate_row(change)
        assert (row["wins"], row["ties"], row["holds"]) == (8, 2, False)

    def test_lower_is_better_for_a_latency(self):
        pairs = [
            {"parent": _run(100.0, p50=4.0 + i / 100),
             "change": _run(100.0, p50=3.0 + i / 100)}
            for i in range(10)
        ]
        latency = bench_pairs.compare(pairs, "latency_p50_ms", "lower")
        assert latency["wins"] == 10 and latency["holds"]
        rate = bench_pairs.compare(pairs, "problems_per_s", "higher")
        assert (rate["wins"], rate["ties"], rate["holds"]) == (0, 10, False)


def test_main_alternates_and_reports_a_failed_run(monkeypatch, capsys, tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    calls: list[str] = []
    outputs = {
        "parent": iter(_stdout(r) for r in PARENT),
        # The change's third run reports a wrong answer, its fifth crashes.
        "change": iter(
            _stdout(r + 10, correct=i != 2) if i != 4 else None
            for i, r in enumerate(PARENT)
        ),
    }

    def fake_run(argv, cwd, **kwargs):
        side = Path(cwd).name
        calls.append(side)
        assert argv[1:] == [str(Path(cwd) / "benchmarks" / "run.py"), "--workload",
                            "reduce-curve", "--seed", "7", "--seconds", "25.0",
                            "--trace", "0"]
        out = next(outputs[side])
        if out is None:
            return subprocess.CompletedProcess(argv, 1, "", "Traceback: boom")
        return subprocess.CompletedProcess(argv, 0, out, "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    code = bench_pairs.main(["--parent", str(parent), "--change", str(change),
                             "--workload", "reduce-curve", "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 1
    assert calls == ["parent", "change", "change", "parent"] * 5
    assert "pair  3 change failed" in out and "pair  5 change failed" in out
    assert "failed: pair 3 change: correct is false (1 of 72 failed)" in out
    assert "failed: pair 5 change: exit 1: Traceback: boom" in out
    # Eight pairs won of ten: the rule does not hold although every
    # completed pair was won.
    row = next(line for line in out.splitlines() if line.startswith("problems_per_s"))
    assert row.split()[-4:] == ["8", "0", "5.5", "no"]


class TestNoWorseVerdict:
    """``compare``'s verdict against a bound of 0.25, over ``PARENT``
    (median 104.5, so the limit is 26.125, and quartile spread 5.5)."""

    def _verdict(self, change: list[float], parent=PARENT, bound=0.25) -> str:
        pairs = _pairs(parent, change)
        return bench_pairs.compare(pairs, "problems_per_s", "higher", bound)["verdict"]

    def test_a_loss_within_the_bound_is_ok(self):
        assert self._verdict([p - 20 for p in PARENT]) == "ok"

    def test_a_loss_beyond_the_bound_is_worse(self):
        assert self._verdict([p - 30 for p in PARENT]) == "worse"

    def test_a_spread_wider_than_the_bound_is_unresolved(self):
        parent = [50.0, 150.0] * 5  # quartiles 50 and 150, median 100
        assert self._verdict([p + 1 for p in parent], parent) == "unresolved"
        # ... unless every change run beats every parent run.
        assert self._verdict([151.0 + i for i in range(10)], parent) == "ok"

    def test_a_loss_beyond_the_bound_is_worse_however_wide_the_spread(self):
        parent = [50.0, 150.0] * 5
        assert self._verdict([40.0] * 10, parent) == "worse"

    def test_lower_is_better_for_a_latency(self):
        pairs = [
            {"parent": _run(100.0, p50=4.0), "change": _run(100.0, p50=p50)}
            for p50 in (4.9, 5.1) * 5
        ]
        # The medians are 4.0 and 5.0, a loss of exactly the bound.
        row = bench_pairs.compare(pairs, "latency_p50_ms", "lower", 0.25)
        assert row["verdict"] == "ok"
        pairs = [{"parent": _run(100.0, p50=4.0), "change": _run(100.0, p50=5.1)}] * 10
        row = bench_pairs.compare(pairs, "latency_p50_ms", "lower", 0.25)
        assert row["verdict"] == "worse"

    def test_no_bound_gives_no_verdict(self):
        assert "verdict" not in _rate_row([p + 10 for p in PARENT])


def test_main_prints_a_verdict_per_metric(monkeypatch, capsys, tmp_path):
    outputs = {"parent": iter(_stdout(r) for r in PARENT),
               "change": iter(_stdout(r - 30, p50=3.6) for r in PARENT)}

    def fake_run(argv, cwd, **kwargs):
        return subprocess.CompletedProcess(argv, 0, next(outputs[Path(cwd).name]), "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    code = bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                             str(tmp_path / "change"), "--workload", "solve-md",
                             "--seed", "7"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    verdicts = lines[lines.index(
        "no worse than the parent, by each metric's bound in BENCHMARK.json") + 1:]
    assert verdicts[:3] == [
        f"  {'setup_s':<20} bound 0.25  -",
        f"  {'problems_per_s':<20} bound 0.25  worse",
        f"  {'latency_p50_ms':<20} bound 0.25  ok",
    ]


def _tallied(rate: float, kinds: dict[str, dict[str, int]]) -> str:
    """:func:`_stdout` with a ``#   <kind> {...}`` line per kind after the
    outcomes line."""
    lines = _stdout(rate).splitlines()
    rows = [f"#   {kind:<22} {json.dumps(row)}" for kind, row in kinds.items()]
    return "\n".join([*lines[:2], *rows, lines[2]]) + "\n"


def test_main_prints_each_sides_tallies_per_kind(monkeypatch, capsys, tmp_path):
    # The parent's runs make 8 and 4 passes over one pool: the same shares.
    # The change's third run answers one "a" problem wrongly.
    one_pass = {"a": {"solved": 3, "wrong": 1}, "b": {"refused": 2}}

    def times(n: int, kinds=one_pass) -> dict:
        return {k: {s: n * c for s, c in row.items()} for k, row in kinds.items()}

    moved = {"a": {"solved": 2, "wrong": 2}, "b": {"refused": 2}}
    outputs = {
        "parent": iter(_tallied(r, times(8 if i % 2 else 4)) for i, r in enumerate(PARENT)),
        "change": iter(
            _tallied(r, times(4, moved if i == 2 else one_pass))
            for i, r in enumerate(PARENT)
        ),
    }

    def fake_run(argv, cwd, **kwargs):
        return subprocess.CompletedProcess(argv, 0, next(outputs[Path(cwd).name]), "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    code = bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                             str(tmp_path / "change"), "--workload", "solve-1d",
                             "--seed", "7", "--pairs", "4"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    start = lines.index("outcome tallies per kind: share of its operations "
                        "solved / refused / wrong / crash")
    assert lines[start + 1:] == [
        f"  parent {'a':<22} 0.75 / 0 / 0.25 / 0",
        f"  parent {'b':<22} 0 / 1 / 0 / 0",
        "  parent: the same in all 4 completed runs",
        f"  change {'a':<22} 0.75 / 0 / 0.25 / 0",
        f"  change {'b':<22} 0 / 1 / 0 / 0",
        "  change: other shares in pair(s) 3 than in pair 1",
    ]


def test_kind_shares_are_exact_and_count_missing_statuses_as_zero():
    run = bench_pairs.bench_record.parse_run(_tallied(1.0, {"k": {"wrong": 1, "solved": 2}}))
    assert bench_pairs.kind_shares(run) == {
        "k": (Fraction(2, 3), Fraction(0), Fraction(1, 3), Fraction(0))
    }
