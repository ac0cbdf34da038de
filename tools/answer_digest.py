"""One SHA-256 digest per answer of a benchmark workload's pool.

Run from the repository root::

    PYTHONPATH=src python3 tools/answer_digest.py --workload solve-md --seed 70001
    PYTHONPATH=src python3 tools/answer_digest.py --workload all --seed 1 --seed 2
    PYTHONPATH=src python3 tools/answer_digest.py --workload all --seed 1 --pools
    PYTHONPATH=src python3 tools/answer_digest.py --workload solve-md --workload solve-1d --seed 1

``--workload`` and ``--seed`` may each be given more than once, and
``--workload all`` stands for every workload in ``benchmarks/run.py``'s
order.  For each workload in the order given, and for each seed in the
order given, the pool is built exactly as ``benchmarks/run.py``
builds it.  Each problem's operation runs once, and one line per problem is
printed: its index, its kind and the SHA-256 of ``repr(answer)``.  A line
``all <workload> <seed> <problems> <digest>`` then digests all of them.  For
``solve-1d`` the answer is the operation's own answer, the full ``solve_1d``
outcome (the error's type and message, or the result's rank, residuals,
worst residual, Jacobi matrix and support flag) where the operation keeps
only the atoms or the error's type, and the full reports of its four growth
diagnostics (terms, partial sums, fit details, margins and
``hankel_level``), called with the operation's arguments, where the
operation keeps only the classifications and ``passed``.  For ``solve-md``
the answer is the operation's two calls with everything they return: the
full ``check_hypotheses`` report (every verdict's eigenvalue and tolerance)
and the ``extract_atoms_auto`` outcome with the error's message, which for a
refusal lists each level's failure, where the operation keeps only
``passed`` and the error's type.  For ``reduce-curve`` the answer is every
``check`` and ``pipeline`` exit code, its ``--format json`` and ``--format
text`` reports with the work directory masked, and the ``.atoms`` file the
pipeline wrote, so both report renderers are compared byte for byte.

With ``--pools`` no operation runs: each line digests the problem's
generated inputs instead, that is every value (``float.hex`` of a float,
the type name and ``repr`` of an exact value) and every stored log of each
moment sequence the problem holds, and for ``reduce-curve`` the bytes of its
moment file and generator file.  The ``all`` lines are printed as without
it.

momentkit is imported from ``PYTHONPATH``, so running the tool twice with
the sources of two checkouts and diffing the outputs shows whether a change
moves any answer.  Nothing is written under ``benchmarks/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
import warnings
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

import run  # noqa: E402  (benchmarks/run.py; imports nothing of momentkit)


def curve_answer(problem, workdir: Path) -> tuple:
    """Exit codes, masked JSON and text reports and the measure file of one
    reduce-curve problem."""
    from momentkit import cli

    d = problem.data
    outputs = []
    for command in (
        ["check", d["moments"], d["generators"]],
        ["pipeline", d["moments"], d["generators"], str(d["out"])],
    ):
        for fmt in ("json", "text"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([*command, "--format", fmt])
            text = (out.getvalue() + err.getvalue()).replace(str(workdir), "<work>")
            outputs.append((code, text))
    atoms = d["out"].read_text() if d["out"].exists() else None
    d["out"].unlink(missing_ok=True)
    return (*outputs, atoms)


def growth_reports(problem) -> tuple:
    """The four diagnostics of one solve-1d problem, as its operation calls
    them on the normalized data, with every field of their reports."""
    from momentkit import conditions

    d = problem.data
    sn = conditions.normalize(d["s"])
    degree, stride = sn.max_degree, d["stride"]
    return (
        conditions.stieltjes_terms(sn, 0, degree),
        conditions.carleman_terms(sn, 0, degree // 2),
        conditions.subsequence_terms(sn, 0, stride, degree // stride),
        conditions.check_subsequence_bounds(
            sn, 0, stride, stride * (degree // stride - 1)
        ),
    )


def solve_1d_outcome(problem):
    """The full ``solve_1d`` outcome of one solve-1d problem, called as its
    operation calls it: the error's type and message, or every field of the
    result but the measure, which the operation's answer already holds."""
    from momentkit import MomentError, univariate

    try:
        r = univariate.solve_1d(problem.data["solve"])
    except MomentError as exc:
        return f"{type(exc).__name__}: {exc}"
    return (r.rank, r.residuals, r.max_residual, r.jacobi, r.stieltjes_supported)


def md_details(problem) -> tuple:
    """The hypothesis report and the extraction outcome of one solve-md
    problem, called as its operation calls them, with every verdict and the
    full error message."""
    from momentkit import MomentError, matrices, multivariate

    d = problem.data
    hyp = matrices.check_hypotheses(d["s"], d["generators"], d["level"])
    try:
        measure, level = multivariate.extract_atoms_auto(d["s"])
        outcome = (measure.atoms, level)
    except MomentError as exc:
        outcome = f"{type(exc).__name__}: {exc}"
    return hyp, outcome


def sequence_record(s) -> tuple:
    """Every value and stored log of a moment sequence, floats by their
    bits and exact values with their type."""
    values = [
        (alpha, v.hex() if isinstance(v, float) else f"{type(v).__name__} {v!r}")
        for alpha, v in s.values.items()
    ]
    logs = sorted((alpha, lv.hex()) for alpha, lv in s.log_values.items())
    return s.dim, s.max_degree, values, logs


def pool_inputs(wl, problem) -> tuple:
    """What the ``--pools`` line of one problem digests."""
    from momentkit import MomentSequence

    d = problem.data
    if wl.name == "reduce-curve":
        return Path(d["moments"]).read_bytes(), Path(d["generators"]).read_bytes()
    return tuple(
        (key, sequence_record(v))
        for key, v in d.items()
        if isinstance(v, MomentSequence)
    )


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """The options, with ``workloads`` the workloads to run in order (each
    ``all`` expanded) and ``seed`` the list of seeds."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        action="append",
        choices=(*run.WORKLOADS_ORDER, "all"),
    )
    parser.add_argument("--seed", type=int, required=True, action="append")
    parser.add_argument(
        "--pools",
        action="store_true",
        help="digest each problem's generated inputs; run no operation",
    )
    args = parser.parse_args(argv)
    args.workloads = tuple(
        name
        for workload in args.workload
        for name in (run.WORKLOADS_ORDER if workload == "all" else (workload,))
    )
    return args


def answer(wl, problem, ctx, workdir: Path):
    """What the line of one problem digests."""
    if wl.name == "reduce-curve":
        return curve_answer(problem, workdir)
    if wl.name == "solve-1d":
        return (wl.op(problem, ctx), solve_1d_outcome(problem), growth_reports(problem))
    return md_details(problem)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    run.pin_blas_threads()
    import momentkit
    from workloads import WORKLOADS, Context, child_env

    print(f"# momentkit from {Path(momentkit.__file__).parent}", file=sys.stderr)
    warnings.simplefilter("ignore")
    for name in args.workloads:
        wl = WORKLOADS[name]
        for seed in args.seed:
            total = hashlib.sha256()
            with tempfile.TemporaryDirectory() as tmp:
                workdir = Path(tmp)
                ctx = Context(ROOT, workdir, child_env(ROOT))
                pool = run.build_pool(wl, seed, ctx, None)
                for i, problem in enumerate(pool):
                    if args.pools:
                        got = pool_inputs(wl, problem)
                    else:
                        got = answer(wl, problem, ctx, workdir)
                    digest = hashlib.sha256(repr(got).encode()).hexdigest()
                    total.update(digest.encode())
                    print(f"{i}\t{problem.kind}\t{digest}")
            print(f"all\t{name}\t{seed}\t{len(pool)}\t{total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
