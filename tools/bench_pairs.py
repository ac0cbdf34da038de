"""Run two checkouts' benchmarks in alternating pairs and judge a speed claim.

Run from the repository root::

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload reduce-curve --seed 90210 --seconds 25 --pairs 10

Each pair runs ``benchmarks/run.py --trace 0`` of both checkouts, one after
the other: the parent first in pairs 1, 3, 5, ... and the change first in
the others, so a drift in host speed reaches both sides.  Each run's output
is read with ``bench_record.parse_run``.

The tool prints every run's end-to-end metrics (those ``BENCHMARK.json``
lists), then one row per metric: each side's median and quartiles
(``statistics.quantiles``, exclusive method), the pairs the change won and
tied, the parent's quartile spread, and whether the gain rule holds.  The
rule: the change reads better, in the metric's direction, in at least nine
tenths of all pairs run (a tie counts for neither side, nor does a pair
with a failed run), and the medians lie apart by more than the parent's
quartile spread.

Below that table the tool judges every metric "no worse" by its ``bound``
in ``BENCHMARK.json`` (a share of the parent's median): ``worse`` when the
change's median is worse than the parent's by more than the bound,
``unresolved`` when it is not but the parent's quartile spread is wider
than the bound, unless every run of the change beats every run of the
parent, and ``ok`` otherwise.

Last come each side's outcome tallies per kind of problem (``by_kind`` of
``parse_run``'s ``outcomes``): the share of the kind's operations that was
solved, refused, wrong and crashed, from the side's first completed run.
A run's tallies sum over its passes, and their number depends on the
host's speed, so runs are compared by these shares, exactly; the tool says
which of the side's runs read different shares from its first.

A run fails on a non-zero exit, output ``parse_run`` cannot read, or
``correct`` false.  Each failure is printed, and the exit status is then 1.
Nothing is written: the benchmarks run in their own checkouts.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parent / "bench_record.py"
)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

#: Share of all pairs run the change must win for a gain.
WIN_SHARE = 0.9
SIDES = ("parent", "change")
STATUSES = ("solved", "refused", "wrong", "crash")


def end_to_end_metrics() -> dict[str, tuple[str, float]]:
    """``name -> ("higher" | "lower", bound)`` of every end-to-end metric
    of ``BENCHMARK.json``, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One parsed run of ``root``'s benchmark.  Raises ``RuntimeError``
    naming why the run failed."""
    proc = subprocess.run(
        [sys.executable, str(root / "benchmarks" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    try:
        run = bench_record.parse_run(proc.stdout)
    except ValueError as exc:
        raise RuntimeError(str(exc)) from exc
    why = bench_record.run_failure(run)
    if why:
        raise RuntimeError(why)
    return run


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def compare(
    pairs: list[dict[str, dict | None]],
    metric: str,
    better: str,
    bound: float | None = None,
) -> dict:
    """One metric over the pairs (``{"parent": run, "change": run}``, a
    failed run ``None``): each side's quartiles over its good runs, the
    change's wins and ties, the parent's quartile spread, the rule and,
    given a ``bound``, the "no worse" verdict."""
    sign = 1.0 if better == "higher" else -1.0
    values: dict[str, list[float]] = {side: [] for side in SIDES}
    wins = ties = 0
    for pair in pairs:
        read = {
            side: run["metrics"][metric]["value"]
            for side, run in pair.items()
            if run is not None and metric in run["metrics"]
        }
        for side, value in read.items():
            values[side].append(value)
        if len(read) == 2:
            gap = sign * (read["change"] - read["parent"])
            wins += gap > 0
            ties += gap == 0
    row: dict = {"metric": metric, "better": better, "pairs": len(pairs),
                 "wins": wins, "ties": ties, "holds": False}
    for side in SIDES:
        row[side] = quartiles(values[side]) if values[side] else None
    if row["parent"] and row["change"]:
        q1, parent_median, q3 = row["parent"]
        row["spread"] = q3 - q1
        gap = sign * (row["change"][1] - parent_median)
        row["holds"] = wins >= WIN_SHARE * len(pairs) and gap > row["spread"]
        if bound is not None:
            limit = bound * abs(parent_median)
            if -gap > limit:
                row["verdict"] = "worse"
            elif row["spread"] > limit and not (
                min(sign * v for v in values["change"])
                > max(sign * v for v in values["parent"])
            ):
                row["verdict"] = "unresolved"
            else:
                row["verdict"] = "ok"
    return row


def kind_shares(run: dict) -> dict[str, tuple[Fraction, ...]]:
    """Each kind's tallies of a parsed run as exact shares of the kind's
    operations, in :data:`STATUSES` order."""
    shares = {}
    for kind, row in run["outcomes"]["by_kind"].items():
        total = sum(row.values())
        shares[kind] = tuple(Fraction(row.get(status, 0), total) for status in STATUSES)
    return shares


def tally_lines(pairs: list[dict[str, dict | None]]) -> list[str]:
    """Each side's per-kind shares from its first completed run, and which
    of its runs read other shares."""
    lines = [f"outcome tallies per kind: share of its operations "
             f"{' / '.join(STATUSES)}"]
    for side in SIDES:
        runs = [(i + 1, kind_shares(p[side])) for i, p in enumerate(pairs) if p[side]]
        if not runs:
            lines.append(f"  {side}: no completed run")
            continue
        (first, shares), rest = runs[0], runs[1:]
        for kind, row in shares.items():
            lines.append(f"  {side:<6} {kind:<22} "
                         + " / ".join(f"{float(x):.4g}" for x in row))
        differ = [str(n) for n, other in rest if other != shares]
        lines.append(
            f"  {side}: other shares in pair(s) {', '.join(differ)} than in pair {first}"
            if differ
            else f"  {side}: the same in all {len(runs)} completed runs"
        )
    return lines


def _quartile_text(q: tuple[float, float, float] | None) -> str:
    return "-" if q is None else f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="the parent's checkout")
    parser.add_argument("--change", required=True, type=Path, help="the change's checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = end_to_end_metrics()

    pairs: list[dict[str, dict | None]] = []
    failures: list[str] = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair: dict[str, dict | None] = {}
        for side in order:
            try:
                run = run_once(roots[side], args.workload, args.seed, args.seconds)
            except RuntimeError as exc:
                run = None
                failures.append(f"pair {i + 1} {side}: {exc}")
            pair[side] = run
            shown = "failed" if run is None else " ".join(
                f"{m}={run['metrics'][m]['value']:.6g}"
                for m in metrics
                if m in run["metrics"]
            )
            print(f"pair {i + 1:>2} {side:<6} {shown}", flush=True)
        pairs.append(pair)

    print(f"\n{args.workload}, seed {args.seed}, {args.seconds:g} s runs, "
          f"{args.pairs} pairs; medians [quartiles]")
    print(f"{'metric':<20} {'better':<6} {'parent':<32} {'change':<32} "
          f"{'wins':>4} {'ties':>4} {'spread':>10}  rule")
    rows = [compare(pairs, metric, *spec) for metric, spec in metrics.items()]
    for row in rows:
        spread = f"{row['spread']:.4g}" if "spread" in row else "-"
        print(f"{row['metric']:<20} {row['better']:<6} "
              f"{_quartile_text(row['parent']):<32} "
              f"{_quartile_text(row['change']):<32} {row['wins']:>4} "
              f"{row['ties']:>4} {spread:>10}  {'holds' if row['holds'] else 'no'}")
    print("\nno worse than the parent, by each metric's bound in BENCHMARK.json")
    for row, (_, bound) in zip(rows, metrics.values()):
        print(f"  {row['metric']:<20} bound {bound:<5g} {row.get('verdict', '-')}")
    print()
    print("\n".join(tally_lines(pairs)))
    for failure in failures:
        print(f"failed: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
