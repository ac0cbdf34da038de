"""The options of ``tools/answer_digest.py``, the order of its runs and what
``--pools`` digests.

No pool is built here: the loop runs over empty or hand-made pools."""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from momentkit import MomentSequence

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

    def test_pools_is_off_unless_given(self):
        assert not answer_digest.parse_args(["--workload", "all", "--seed", "1"]).pools
        args = answer_digest.parse_args(["--pools", "--workload", "all", "--seed", "1"])
        assert args.pools

    def test_all_is_every_workload_in_benchmark_order(self):
        args = answer_digest.parse_args(["--workload", "all", "--seed", "1"])
        assert args.workloads == ORDER

    def test_workloads_repeat_in_the_order_given(self):
        args = answer_digest.parse_args(
            ["--workload", "reduce-curve", "--seed", "1", "--workload", "solve-md"]
        )
        assert args.workloads == ("reduce-curve", "solve-md")
        args = answer_digest.parse_args(
            ["--workload", "solve-1d", "--workload", "all", "--seed", "1"]
        )
        assert args.workloads == ("solve-1d", *ORDER)

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


def test_every_workload_given_runs(monkeypatch, capsys):
    built = []

    def empty_pool(wl, seed, ctx, limit):
        built.append((wl.name, seed))
        return []

    monkeypatch.setattr(answer_digest.run, "pin_blas_threads", lambda: None)
    monkeypatch.setattr(answer_digest.run, "build_pool", empty_pool)
    argv = ["--workload", "reduce-curve", "--workload", "solve-md", "--seed", "5"]
    assert answer_digest.main(argv) == 0
    assert built == [("reduce-curve", 5), ("solve-md", 5)]
    assert [line.split("\t")[1] for line in capsys.readouterr().out.splitlines()] == [
        "reduce-curve",
        "solve-md",
    ]


class TestPoolDigests:
    def test_values_by_bits_and_type_and_logs(self):
        values = {(0,): 0.1, (1,): 3, (2,): Fraction(1, 2), (3,): 1.0}
        s = MomentSequence(1, 3, values, {(3,): 0.5})
        assert answer_digest.sequence_record(s) == (
            1,
            3,
            [
                ((0,), "0x1.999999999999ap-4"),
                ((1,), "int 3"),
                ((2,), "Fraction Fraction(1, 2)"),
                ((3,), "0x1.0000000000000p+0"),
            ],
            [((3,), "0x1.0000000000000p-1")],
        )
        # 1.0, Fraction(1) and 1 are equal values with three records
        ones = [MomentSequence(1, 3, {**values, (3,): one}) for one in (1.0, Fraction(1), 1)]
        assert len({repr(answer_digest.sequence_record(x)) for x in ones}) == 3

    def test_pools_digest_inputs_and_run_no_operation(
        self, monkeypatch, capsys, tmp_path
    ):
        moments, generators = tmp_path / "p.moments", tmp_path / "p.generators"
        moments.write_text("moments")
        generators.write_text("generators")
        s = MomentSequence(1, 1, {(0,): 1.0, (1,): 0.5})
        pools = {
            "solve-md": [SimpleNamespace(kind="md", data={"s": s, "level": 1})],
            "solve-1d": [SimpleNamespace(kind="1d", data={"s": s, "solve": s, "stride": 2})],
            "reduce-curve": [
                SimpleNamespace(
                    kind="k=1",
                    data={"moments": str(moments), "generators": str(generators)},
                )
            ],
        }

        def no_operation(*args):
            raise AssertionError("--pools runs no operation")

        monkeypatch.setattr(answer_digest.run, "pin_blas_threads", lambda: None)
        monkeypatch.setattr(answer_digest.run, "build_pool", lambda wl, *_: pools[wl.name])
        monkeypatch.setattr(answer_digest, "answer", no_operation)
        assert answer_digest.main(["--workload", "all", "--seed", "3", "--pools"]) == 0
        record = answer_digest.sequence_record(s)
        inputs = {
            "solve-md": (("s", record),),
            "solve-1d": (("s", record), ("solve", record)),
            "reduce-curve": (b"moments", b"generators"),
        }
        expected = []
        for name in ORDER:
            digest = hashlib.sha256(repr(inputs[name]).encode()).hexdigest()
            total = hashlib.sha256(digest.encode()).hexdigest()
            expected.append(f"0\t{pools[name][0].kind}\t{digest}")
            expected.append(f"all\t{name}\t3\t1\t{total}")
        assert capsys.readouterr().out.splitlines() == expected
