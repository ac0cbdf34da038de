"""Closed-loop benchmark of momentkit.

Run from the repository root::

    python3 benchmarks/run.py --workload solve-md --seed 1 --seconds 20 --trace 0

A single client runs one operation at a time and sends the next only after
the previous answer arrived; the only threads are BLAS's own, pinned to one.
Set-up builds a pool of problems from ``--seed`` (see ``workloads.py`` for
each workload and why it was chosen), then whole passes over the pool run
until ``--seconds`` of operation time are measured.  Every answer is checked
against the ground truth the set-up generated.

Every end-to-end time is scaled to reference-host speed by ``speed.py``,
which times a fixed kernel between operations: on a shared host the
processor's speed swings by half or more from minute to minute.  The raw
wall-clock figures are printed too, on ``#`` lines.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced passes with passes whose library calls are wrapped by ``spans.py``
and prints the per-layer metrics, per pool pass.  Either way the last line
of standard output is one JSON object; the lines before it repeat the
metrics for people, with the answer breakdown and the environment.

Self-tests: ``python3 benchmarks/selftest.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Workload names; ``workloads.WORKLOADS`` defines them.
WORKLOADS_ORDER = ("solve-md", "solve-1d", "reduce-curve")
#: Set-up runs this many times per untraced run; ``setup_s`` is the median.
SETUP_REPEATS = 5
#: Operations run untimed at the end of each set-up.
WARM_UP_OPS = 3
#: Subprocesses timed for each ``import.*`` metric of a traced run.
IMPORT_SAMPLES = 5
#: A tail percentile must leave at least this many samples above it.
TAIL_BEYOND = 10

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: Per-layer metrics measured here rather than by the tracer.
RUN_LAYER_UNITS = {
    "import.startup_ms": "ms",
    "import.bare_python_ms": "ms",
    "trace.overhead_pct": "%",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "problems_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "solved_share": "share",
    "honest_share": "share",
    "residual_digits_min": "digits",
    "peak_rss_mb": "MB",
}


def pin_blas_threads() -> None:
    """One BLAS thread here and in every child process; this must run
    before numpy is first imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_library() -> float:
    """Import momentkit from this checkout's ``src`` and return the seconds
    it took.  Raises ``ImportError`` when the sources are missing."""
    package = SRC / "momentkit"
    if not (package / "__init__.py").is_file():
        raise ImportError(f"no momentkit sources at {package}")
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import momentkit
    import momentkit.cli  # noqa: F401

    seconds = perf_counter() - start
    loaded = Path(momentkit.__file__).resolve().parent
    if loaded != package.resolve():
        raise ImportError(f"momentkit was imported from {loaded}, not {package}")
    return seconds


@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    metrics: dict[str, float] = field(default_factory=dict)
    units: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: status counts over every operation, and per problem kind
    counts: dict[str, int] = field(default_factory=dict)
    by_kind: dict[str, dict[str, int]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    #: the answers of the first (traced, in traced runs) pass, in pool order
    answers: list = field(default_factory=list)


@dataclass
class Pass:
    #: wall seconds of each operation
    latencies: list[float]
    outcomes: list
    #: turns this pass's wall time into reference-host time
    scale: float

    @property
    def seconds(self) -> float:
        return sum(self.latencies)


def run_pass(wl, pool, ctx, label: str, meter, keep_answers: bool = False) -> Pass:
    """One closed-loop pass over the pool; only the operations are timed,
    and the speed samples are taken between them.  The answers are kept
    only if ``keep_answers``, so that memory does not grow with the number
    of passes and ``peak_rss_mb`` does not depend on the host's speed."""
    from momentkit.errors import MomentError

    from workloads import Outcome

    latencies, outcomes = [], []
    for i, problem in enumerate(pool):
        ctx.op = f"{label}:{i}"
        if ctx.tracer is not None:
            ctx.tracer.op = ctx.op
        meter.tick()
        start = perf_counter()
        try:
            answer, error = wl.op(problem, ctx), None
        except MomentError as exc:
            answer, error = None, Outcome("refused", reason=type(exc).__name__, key=type(exc).__name__)
        except Exception as exc:  # the harness keeps going and counts it
            traceback.print_exc()
            answer, error = None, Outcome("crash", reason=repr(exc), key=repr(exc))
        latencies.append(perf_counter() - start)
        outcome = error or wl.check(problem, answer)
        if not keep_answers:
            outcome.key = None
        outcomes.append(outcome)
    return Pass(latencies, outcomes, meter.scale())


def build_pool(wl, seed: int, ctx, limit: int | None) -> list:
    import numpy as np

    rng = np.random.default_rng([seed, WORKLOADS_ORDER.index(wl.name)])
    pool = wl.setup(rng, ctx)
    return [pool[i] for i in rng.permutation(len(pool))][:limit]


def warm_up(wl, pool, ctx) -> None:
    for i, problem in enumerate(pool[:WARM_UP_OPS]):
        ctx.op = f"warm-up:{i}"
        try:
            wl.op(problem, ctx)
        except Exception:  # the timed passes count failures
            pass


def tally(result: Result, pool, passes: list[Pass]) -> list:
    """Status counts over all passes; returns every outcome."""
    outcomes = [o for p in passes for o in p.outcomes]
    kinds = [problem.kind for _ in passes for problem in pool]
    for status in ("solved", "refused", "wrong", "crash"):
        result.counts[status] = sum(o.status == status for o in outcomes)
    for kind, o in zip(kinds, outcomes):
        row = result.by_kind.setdefault(kind, {})
        row[o.status] = row.get(o.status, 0) + 1
    result.attempted = len(outcomes)
    result.failed = result.counts["crash"]
    return outcomes


def end_to_end(
    result: Result, pool, passes: list[Pass], setup_s: float, wall_setup_s: float
) -> None:
    outcomes = tally(result, pool, passes)
    n = result.attempted
    scaled = [[x * p.scale for x in p.latencies] for p in passes]
    # One latency sample per problem: the median over the passes.
    latencies = sorted(statistics.median(times) for times in zip(*scaled))
    wall = sorted(statistics.median(times) for times in zip(*(p.latencies for p in passes)))
    k = len(latencies)
    tail_index = max(k - TAIL_BEYOND - 1, 0)
    solved = [o.residual for o in outcomes if o.status == "solved" and o.residual is not None]
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result.metrics = {
        "setup_s": setup_s,
        "problems_per_s": n / sum(map(sum, scaled)),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": latencies[tail_index] * 1e3,
        "solved_share": result.counts["solved"] / n,
        "honest_share": 1.0 - result.counts["wrong"] / n,
        "residual_digits_min": min(
            (-math.log10(max(r, 1e-16)) for r in solved), default=0.0
        ),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    result.units = dict(END_TO_END_UNITS)
    result.notes.append(
        f"latencies are each problem's median of {len(passes)} passes; "
        f"latency_tail_ms is p{100.0 * (tail_index + 1) / k:.2f} of {k} problems "
        f"({k - tail_index - 1} beyond it)"
    )
    scales = [p.scale for p in passes]
    result.notes.append(
        f"wall clock, unscaled: setup {wall_setup_s:.6g} s, "
        f"{n / sum(sum(p.latencies) for p in passes):.6g} problems/s, "
        f"latency p50 {statistics.median(wall) * 1e3:.6g} ms, "
        f"tail {wall[tail_index] * 1e3:.6g} ms; pass scales {min(scales):.3f}-{max(scales):.3f}"
    )


def median_subprocess_ms(cmd: list[str], env: dict) -> float:
    times = []
    for _ in range(IMPORT_SAMPLES):
        start = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, check=True)
        times.append((perf_counter() - start) * 1e3)
    return statistics.median(times)


def returned_ratio(outcomes) -> float:
    pairs = [o.atoms_1d for o in outcomes if o.atoms_1d is not None]
    true = sum(t for _, t in pairs)
    return sum(r for r, _ in pairs) / true if true else 0.0


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    import_s: float = 0.0,
    limit: int | None = None,
) -> Result:
    """Set up and measure one workload; ``limit`` keeps only the first
    problems of the pool (for self-tests)."""
    from speed import Speedometer
    from workloads import WORKLOADS, Context, child_env

    meter = Speedometer()
    workdir = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = Context(ROOT, workdir, child_env(ROOT))
    measure = measure_traced if trace else measure_untraced
    try:
        return measure(WORKLOADS[workload], seed, seconds, ctx, meter, import_s, limit)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_untraced(wl, seed, seconds, ctx, meter, import_s, limit) -> Result:
    result = Result(wl.name, seed, False)
    meter.settle()
    import_scale = meter.scale()
    setups, scaled = [], []
    for _ in range(SETUP_REPEATS):
        meter.settle()
        start = perf_counter()
        pool = build_pool(wl, seed, ctx, limit)
        warm_up(wl, pool, ctx)
        setups.append(perf_counter() - start)
        meter.settle()
        scaled.append(setups[-1] * meter.scale())
    passes = [run_pass(wl, pool, ctx, "pass0", meter, keep_answers=True)]
    while sum(p.seconds for p in passes) < seconds:
        passes.append(run_pass(wl, pool, ctx, f"pass{len(passes)}", meter))
    setup_s = import_s * import_scale + statistics.median(scaled)
    end_to_end(result, pool, passes, setup_s, import_s + statistics.median(setups))
    result.answers = [o.key for o in passes[0].outcomes]
    return result


def measure_traced(wl, seed, seconds, ctx, meter, import_s, limit) -> Result:
    """Alternate untraced and traced passes; per-layer metrics come from
    the traced ones, the fixtures' from one traced set-up."""
    import spans

    result = Result(wl.name, seed, True)
    tracer = spans.Tracer()
    tracer.op = "setup"
    tracer.install()
    try:
        pool = build_pool(wl, seed, ctx, limit)
    finally:
        tracer.uninstall()
    setup_stats, _ = tracer.take()
    warm_up(wl, pool, ctx)
    plain, traced, elapsed = [], [], 0.0
    # Another pair of passes only if it should still end within ``seconds``.
    while not traced or elapsed * (len(traced) + 1) / len(traced) <= seconds:
        start = perf_counter()
        plain.append(run_pass(wl, pool, ctx, f"plain{len(plain)}", meter, not plain))
        tracer.install()
        ctx.tracer = tracer
        try:
            traced.append(run_pass(wl, pool, ctx, f"traced{len(traced)}", meter, not traced))
        finally:
            tracer.uninstall()
            ctx.tracer = None
        elapsed += perf_counter() - start
    stats, counters = tracer.take()
    outcomes = tally(result, pool, plain + traced)
    result.metrics = spans.layer_metrics(
        stats, counters, len(traced), returned_ratio(outcomes), setup_stats
    )
    startup = [sys.executable, "-c", "import momentkit.cli"]
    result.metrics["import.startup_ms"] = median_subprocess_ms(startup, ctx.child_env)
    bare = [sys.executable, "-c", "pass"]
    result.metrics["import.bare_python_ms"] = median_subprocess_ms(bare, ctx.child_env)
    plain_s = statistics.median(p.seconds * p.scale for p in plain)
    traced_s = statistics.median(p.seconds * p.scale for p in traced)
    result.metrics["trace.overhead_pct"] = 100.0 * (traced_s - plain_s) / plain_s
    result.units = {**spans.metric_units(), **RUN_LAYER_UNITS}

    result.answers = [o.key for o in traced[0].outcomes]
    if result.answers != [o.key for o in plain[0].outcomes]:
        result.failed += 1
        result.notes.append("traced and untraced passes returned different answers")
    spans_file = ROOT / ".bench_work" / f"spans-{wl.name}-seed{seed}.jsonl"
    tracer.write_spans(str(spans_file))
    result.notes.append(f"{len(tracer.spans)} spans written to {spans_file.relative_to(ROOT)}")
    shares = layer_shares(stats)
    result.notes.append(
        "self time by layer: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items())
    )
    return result


def layer_shares(stats: dict) -> dict[str, float]:
    """Share of the traced self time spent in each module (set-up excluded),
    largest first; ``reduction.pull_back_atoms`` is also listed alone."""
    by_module: dict[str, float] = {}
    for name, (_, seconds, _) in stats.items():
        if not name.startswith("fixtures."):
            module = name.split(".")[0]
            by_module[module] = by_module.get(module, 0.0) + seconds
    total = sum(by_module.values()) or 1.0
    shares = {k: v / total for k, v in sorted(by_module.items(), key=lambda kv: -kv[1])}
    if "reduction.pull_back_atoms" in stats:
        shares["(reduction.pull_back_atoms)"] = stats["reduction.pull_back_atoms"][1] / total
    return shares


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def report(result: Result, seconds: float) -> None:
    print(f"# momentkit benchmark: workload {result.workload}, seed {result.seed}, "
          f"seconds {seconds:g}, trace {int(result.trace)}")
    print("# env " + json.dumps(environment()))
    for name, value in result.metrics.items():
        print(f"{name:<58} {value:>14.6g} {result.units[name]}")
    n = result.attempted
    if not result.trace:
        c = result.counts
        print(f"{'unsolved_share':<58} {(n - c['solved']) / n:>14.6g} share")
        print(f"{'wrong_share':<58} {c['wrong'] / n:>14.6g} share")
    print(f"# outcomes of {n} operations: " + json.dumps(result.counts))
    for kind, row in sorted(result.by_kind.items()):
        print(f"#   {kind:<22} " + json.dumps(row))
    for note in result.notes:
        print(f"# {note}")
    print(
        json.dumps(
            {
                "correct": result.failed == 0,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    k: {"value": v, "unit": result.units[k]}
                    for k, v in result.metrics.items()
                },
            }
        )
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS_ORDER)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_blas_threads()
    try:
        import_s = import_library()
    except ImportError as exc:
        print(f"benchmark cannot start: {exc}", file=sys.stderr)
        return 2
    import warnings

    # Clamped-node and ambiguity warnings are the library's to report;
    # answers are judged by the check alone.
    warnings.simplefilter("ignore")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    report(result, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
