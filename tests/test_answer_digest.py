"""The options of ``tools/answer_digest.py`` and the order of its runs.

No pool is built here: the loop runs over empty pools."""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "answer_digest.py"
_WRITES_BYTECODE = sys.dont_write_bytecode
_SPEC = importlib.util.spec_from_file_location("answer_digest", _PATH)
answer_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(answer_digest)
sys.dont_write_bytecode = _WRITES_BYTECODE  # the tool turns it off for itself

ORDER = ("solve-md", "solve-1d", "reduce-curve")


class TestParseArgs:
    def test_one_workload_one_seed(self):
        args = answer_digest.parse_args(["--workload", "solve-1d", "--seed", "90210"])
        assert args.workloads == ("solve-1d",)
        assert args.seed == [90210]

    def test_seeds_repeat_in_the_order_given(self):
        args = answer_digest.parse_args(
            ["--seed", "777", "--workload", "solve-md", "--seed", "10", "--seed", "777"]
        )
        assert args.workloads == ("solve-md",)
        assert args.seed == [777, 10, 777]

    def test_all_is_every_workload_in_benchmark_order(self):
        args = answer_digest.parse_args(["--workload", "all", "--seed", "1"])
        assert args.workloads == ORDER

    @pytest.mark.parametrize(
        "argv",
        [
            ["--workload", "all"],
            ["--seed", "1"],
            ["--workload", "solve-2d", "--seed", "1"],
            ["--workload", "all", "--seed", "x"],
        ],
    )
    def test_bad_arguments_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            answer_digest.parse_args(argv)
        assert exc.value.code == 2


def test_one_all_line_per_workload_and_seed(monkeypatch, capsys):
    built = []

    def empty_pool(wl, seed, ctx, limit):
        built.append((wl.name, seed))
        return []

    monkeypatch.setattr(answer_digest.run, "pin_blas_threads", lambda: None)
    monkeypatch.setattr(answer_digest.run, "build_pool", empty_pool)
    assert answer_digest.main(["--workload", "all", "--seed", "5", "--seed", "6"]) == 0
    expected = [(name, seed) for name in ORDER for seed in (5, 6)]
    assert built == expected
    empty = hashlib.sha256().hexdigest()
    assert capsys.readouterr().out.splitlines() == [
        f"all\t{name}\t{seed}\t0\t{empty}" for name, seed in expected
    ]
