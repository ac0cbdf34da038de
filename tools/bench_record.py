"""Record one checkout's benchmark figures in ``BENCH_<short sha>.json``.

Run from the directory that should receive the file::

    python3 tools/bench_record.py --root PATH --seed 70001 --seconds 10

``PATH`` is a git checkout of momentkit.  Its own ``benchmarks/run.py``
runs every workload twice, with ``--trace 0`` (end-to-end metrics and the
outcome tallies: solved, refused, wrong and crash, in all and per kind of
problem) and with ``--trace 1`` (per-layer metrics).  A cold-CLI split
follows: the median wall time of a bare ``python3 -c pass``, of ``python3
-c "import momentkit.cli"`` and of ``python3 -m momentkit.cli check`` on a
power-curve fixture generated in a temporary directory.  Each runs once
untimed, then :data:`COLD_SAMPLES` times in alternating rounds, with the
checkout's ``src`` on ``PYTHONPATH`` and one BLAS thread.  ``work_ms`` is
the check's median less the import's.

``trace.overhead_pct`` and ``import.startup_ms`` come from the one traced
run of each workload, and the cold-CLI medians from one set of
:data:`COLD_SAMPLES` rounds.  Each is one run's figure: on a shared host
they move more between two recordings of the same code than a change
moves them, so they support no claim.

The file is written in the current directory.  The exit status is 1 when
any run fails (a non-zero exit, no JSON result line, no outcomes line, or
``correct`` false), and the file still lists what was recorded, with the
failures.  A speed claim cites two such files: the parent's and the
change's.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

WORKLOADS = ("solve-md", "solve-1d", "reduce-curve")
#: Timed subprocesses per cold-CLI figure.
COLD_SAMPLES = 5
#: The fixture the cold ``check`` reads: two atoms on the curve x2 = x1^2.
COLD_FIXTURE = {
    "fixture": "power-curve",
    "exponent": 2,
    "degree": 8,
    "atoms": [[0.5, 0.5, 0.25], [0.5, 1.0, 1.5]],
}
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse_outcomes(lines: list[str]) -> dict:
    """The outcome tallies of a run's output: the ``# outcomes of N
    operations: {...}`` line as ``counts``, and the ``#   <kind> {...}``
    lines that follow it as ``by_kind``.  Raises ``ValueError`` when the
    output holds no outcomes line or a tally is not JSON."""
    start = next(
        (i for i, ln in enumerate(lines) if ln.startswith("# outcomes of ")), None
    )
    if start is None:
        raise ValueError("the output holds no outcomes line")
    counts = json.loads(lines[start].partition(": ")[2])
    by_kind = {}
    for line in lines[start + 1 :]:
        if not line.startswith("#   "):
            break
        kind, _, row = line[4:].partition(" {")
        by_kind[kind.strip()] = json.loads("{" + row)
    return {"counts": counts, "by_kind": by_kind}


def parse_run(stdout: str) -> dict:
    """The result of one ``benchmarks/run.py`` run: its last line, which is
    one JSON object, the environment of its ``# env`` line and its
    :func:`parse_outcomes` tallies as ``outcomes``.  Raises ``ValueError``
    when the output holds no such last line or no tallies."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the run printed nothing")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise ValueError(f"the last line is not JSON: {lines[-1][:80]!r}") from exc
    if not isinstance(result, dict) or "metrics" not in result:
        raise ValueError("the last line holds no metrics")
    env = next(
        (json.loads(ln[len("# env ") :]) for ln in lines if ln.startswith("# env ")),
        None,
    )
    return {**result, "env": env, "outcomes": parse_outcomes(lines)}


def run_failure(run: dict) -> str | None:
    """Why a parsed run counts as failed, or ``None``."""
    if not run.get("correct", False):
        return f"correct is false ({run.get('failed')} of {run.get('attempted')} failed)"
    return None


def assemble(
    sha: str,
    seed: int,
    seconds: float,
    runs: dict[tuple[str, int], dict],
    cold: dict | None,
    failures: list[str],
) -> dict:
    """The record: per workload, the untraced run's end-to-end metrics with
    ``attempted``, ``failed`` and the outcome tallies, and the traced run's
    per-layer metrics; the cold-CLI split; the environment of the first
    run; the failures."""
    workloads = {}
    for name in WORKLOADS:
        untraced, traced = runs.get((name, 0)), runs.get((name, 1))
        entry: dict = {}
        if untraced is not None:
            entry["attempted"] = untraced["attempted"]
            entry["failed"] = untraced["failed"]
            entry["end_to_end"] = untraced["metrics"]
            entry["outcomes"] = untraced["outcomes"]
        if traced is not None:
            entry["traced_attempted"] = traced["attempted"]
            entry["traced_failed"] = traced["failed"]
            entry["per_layer"] = traced["metrics"]
        if entry:
            workloads[name] = entry
    env = next((r["env"] for r in runs.values() if r.get("env")), None)
    return {
        "sha": sha,
        "seed": seed,
        "seconds": seconds,
        "env": env,
        "workloads": workloads,
        "cold_cli": cold,
        "failures": failures,
    }


def _child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def _timed_ms(argv: list[str], env: dict[str, str], cwd: Path) -> float:
    start = perf_counter()
    subprocess.run(argv, env=env, cwd=cwd, check=True, capture_output=True)
    return (perf_counter() - start) * 1000.0


def cold_cli(root: Path) -> dict:
    """Median wall times of a bare interpreter, the CLI import and a CLI
    ``check``, each a fresh subprocess.  Raises ``CalledProcessError`` when
    a subprocess fails."""
    env = _child_env(root)
    with tempfile.TemporaryDirectory(prefix="bench-record-") as tmp:
        work = Path(tmp)
        spec = work / "spec.json"
        spec.write_text(json.dumps(COLD_FIXTURE))
        py = sys.executable
        subprocess.run(
            [py, "-m", "momentkit.cli", "generate", str(spec), "pc.mom",
             "--generators-out", "pc.gens", "--exact"],
            env=env, cwd=work, check=True, capture_output=True,
        )
        commands = {
            "bare_python": [py, "-c", "pass"],
            "import": [py, "-c", "import momentkit.cli"],
            "check": [py, "-m", "momentkit.cli", "check", "pc.mom", "pc.gens"],
        }
        for argv in commands.values():
            _timed_ms(argv, env, work)  # untimed: bytecode and file cache
        # Rounds alternate the commands, so a drift in host speed reaches all.
        samples: dict[str, list[float]] = {name: [] for name in commands}
        for _ in range(COLD_SAMPLES):
            for name, argv in commands.items():
                samples[name].append(_timed_ms(argv, env, work))
    medians = {name: statistics.median(ms) for name, ms in samples.items()}
    return {
        "samples": COLD_SAMPLES,
        "bare_python_ms": medians["bare_python"],
        "import_ms": medians["import"],
        "check_ms": medians["check"],
        "work_ms": medians["check"] - medians["import"],
        "samples_ms": samples,
    }


def short_sha(root: Path) -> str:
    out = subprocess.run(
        ["git", "-C", str(root), "rev-parse", "--short", "HEAD"],
        check=True, capture_output=True, text=True,
    )
    return out.stdout.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", required=True, type=Path, help="git checkout to measure")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    runner = root / "benchmarks" / "run.py"
    if not runner.is_file():
        print(f"no benchmark at {runner}", file=sys.stderr)
        return 2
    try:
        sha = short_sha(root)
    except (OSError, subprocess.CalledProcessError) as exc:
        print(f"cannot read the commit of {root}: {exc}", file=sys.stderr)
        return 2

    runs: dict[tuple[str, int], dict] = {}
    failures: list[str] = []
    for name in WORKLOADS:
        for trace in (0, 1):
            label = f"{name} --trace {trace}"
            print(f"running {label}", file=sys.stderr)
            proc = subprocess.run(
                [sys.executable, str(runner), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=root, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            try:
                run = parse_run(proc.stdout)
            except ValueError as exc:
                failures.append(f"{label}: {exc}")
                continue
            runs[(name, trace)] = run
            why = run_failure(run)
            if why:
                failures.append(f"{label}: {why}")

    cold = None
    try:
        cold = cold_cli(root)
    except (OSError, subprocess.CalledProcessError) as exc:
        failures.append(f"cold CLI: {exc}")

    record = assemble(sha, args.seed, args.seconds, runs, cold, failures)
    out = Path(f"BENCH_{sha}.json")
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    for failure in failures:
        print(f"failed: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
