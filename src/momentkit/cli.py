"""Command-line interface.

Subcommands::

    generate  FIXTURE.json OUT.moments         build fixture moment data
    check     MOMENTS [GENERATORS]             positivity + growth verdict
    diagnose  MOMENTS                          growth series in detail
    solve     MOMENTS OUT.atoms                recover an atomic measure
    reduce    MOMENTS GENERATORS OUT.moments   push data into image variables
    pipeline  MOMENTS GENERATORS OUT.atoms     reduce, solve, pull back, verify

Exit codes: 0 success/pass, 2 malformed input (an integer option below its
bound, a tolerance out of range, a level or an image degree deeper than the
data, ``solve --mode 1d`` with ``--level``, data too short to solve, a
fixture spec whose moments overflow) or unwritable output, 3 definitive
failure (positivity or generation), 4 inconclusive growth diagnostics, 5
solver failure (no flat level; for ``solve``, moments not reproduced), 6
pull-back failure or, for ``pipeline``, input moments not reproduced.

Each ``cmd_*`` function returns ``(report, code)``: a dict report and the
exit code.  None of them prints; :func:`main` renders the report once, as
text or JSON after ``--format``, and returns the code.  Text renders in one
pass over the report, writing a non-finite float as its ``repr``; JSON is
sanitized first (non-finite floats become those strings) and then dumped.  A file a command
cannot read or write, or finds malformed, reaches :func:`main` as an
``OSError`` or :class:`FileFormatError`, which it reports as
``{"error", "exit"}`` with exit 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings
from pathlib import Path
from typing import Any, Callable

from . import conditions, fileformats, fixtures, matrices, reduction, solver
from .errors import (
    DegreeOverflow,
    FileFormatError,
    MomentError,
    NegativeMoment,
    NotPositive,
    TrivialFunctional,
    ValidationFailure,
)
from .polynomials import AtomicMeasure, MomentSequence, Polynomial

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_FAIL = 3
EXIT_INCONCLUSIVE = 4
EXIT_SOLVE = 5
EXIT_PULLBACK = 6

#: What a command returns: its report and its exit code.
Outcome = tuple[dict, int]


# ---------------------------------------------------------------------------
# report rendering


def _sanitize(value: Any) -> Any:
    """Make a report JSON-friendly (non-finite floats become strings)."""
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(value)
    return value


def _scalar_text(value: Any) -> str:
    """A leaf as text: a non-finite float as its ``repr``, as :func:`_sanitize`
    writes it, anything else as ``str``."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return f"{value}"


def _text_lines(value: Any, indent: int = 0) -> list[str]:
    """The text form of a report, rendered in one pass: a tuple reads as a
    list and a leaf as :func:`_scalar_text`, so the lines are those of the
    report after :func:`_sanitize`."""
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list, tuple)):
                lines.append(f"{pad}{k}:")
                lines.extend(_text_lines(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {_scalar_text(v)}")
    elif isinstance(value, (list, tuple)):
        for v in value:
            if isinstance(v, (dict, list, tuple)):
                lines.append(f"{pad}-")
                lines.extend(_text_lines(v, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar_text(v)}")
    else:
        lines.append(f"{pad}{_scalar_text(value)}")
    return lines


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(_sanitize(report), indent=2))
    else:
        print("\n".join(_text_lines(report)))


def _fail_input(message: str) -> Outcome:
    return {"error": message, "exit": EXIT_INPUT}, EXIT_INPUT


def _fail_report(report: dict, exc: Exception, code: int) -> Outcome:
    report["error"] = {"type": type(exc).__name__, "message": str(exc)}
    report["exit"] = code
    return report, code


# ---------------------------------------------------------------------------
# shared helpers


def _verdict_of(v: matrices.PsdVerdict) -> dict:
    return {
        "psd": v.is_psd,
        "min_eigenvalue": v.min_eigenvalue,
        "tolerance": v.tolerance_used,
    }


def _diag_summary(report: conditions.DiagnosticReport, keep: int = 6) -> dict:
    terms = report.terms
    shown = terms if len(terms) <= keep else terms[:3] + terms[-3:]
    return {
        "classification": report.classification,
        "count": len(terms),
        "terms_head_tail": shown,
        "last_partial_sum": report.partial_sums[-1] if report.partial_sums else 0.0,
        "degenerate": report.degenerate,
        "fit": report.fit_details,
    }


def _measure_report(measure: AtomicMeasure) -> dict:
    return {
        "atom_count": len(measure),
        "total_mass": float(measure.total_mass),
        "atoms": [
            {"weight": float(w), "point": [float(x) for x in pt]}
            for pt, w in measure.sorted_atoms()
        ],
    }


def _series_entry(series: Any, *args: Any) -> dict:
    """Summary of one growth series, or the negative moment that stops it."""
    try:
        return _diag_summary(series(*args))
    except NegativeMoment as exc:
        return {"classification": "negative-moment", "reason": str(exc)}


def _with_warnings(call: Callable[..., Any], *args: Any) -> tuple[Any, list[str]]:
    """``call(*args)``, and the messages of the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call(*args)
    return result, [str(w.message) for w in caught]


# ---------------------------------------------------------------------------
# generate


def _measure_from_spec(entry: Any, dim: int) -> AtomicMeasure:
    atoms = []
    for row in entry:
        if len(row) != dim + 1:
            raise FileFormatError(
                f"atom row {row} must hold a weight and {dim} coordinates"
            )
        atoms.append((tuple(float(x) for x in row[1:]), float(row[0])))
    return AtomicMeasure(dim, atoms)


def cmd_generate(args: argparse.Namespace) -> Outcome:
    try:
        spec = json.loads(Path(args.spec).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return _fail_input(f"cannot read fixture spec: {exc}")
    try:
        kind = spec["fixture"]
        degree = int(spec["degree"])
        report: dict = {"fixture": kind, "degree": degree, "out": args.out}
        if kind == "atomic":
            dim = int(spec["dim"])
            measure = _measure_from_spec(spec["atoms"], dim)
            s = fixtures.moments_of_atomic(measure, degree, exact=args.exact)
            report["dim"] = dim
            report["atom_count"] = len(measure)
        elif kind == "factorial":
            s = fixtures.moments_factorial(degree)
            report["dim"] = 1
        elif kind == "lognormal":
            s = fixtures.moments_lognormal(degree)
            report["dim"] = 1
        elif kind == "power-curve":
            exponent = int(spec["exponent"])
            measure = _measure_from_spec(spec["atoms"], 2)
            fixture = fixtures.power_curve_fixture(
                exponent, measure, degree, exact=args.exact
            )
            s = fixture.moments
            generators = fixture.presentation.generators
            report.update(
                {"dim": 2, "exponent": exponent, "atom_count": len(measure)}
            )
        else:
            return _fail_input(f"unknown fixture kind {kind!r}")
    except (KeyError, ValueError, TypeError, OverflowError, MomentError) as exc:
        return _fail_input(f"bad fixture spec: {exc}")
    if kind == "power-curve" and args.generators_out:
        fileformats.write_polynomials_file(args.generators_out, generators, "x")
        report["generators_out"] = args.generators_out
    fileformats.write_moment_file(args.out, s)
    report["entries"] = len(s.values)
    return report, EXIT_OK


# ---------------------------------------------------------------------------
# check


def cmd_check(args: argparse.Namespace) -> Outcome:
    s = fileformats.read_moment_file(args.moments)
    if args.generators:
        generators = fileformats.read_polynomials_file(args.generators, s.dim, "x")
    else:
        generators = [Polynomial.variable(s.dim, j) for j in range(s.dim)]

    report: dict = {
        "moments": args.moments,
        "dim": s.dim,
        "degree": s.max_degree,
        "generators": [f.to_string() for f in generators],
    }

    try:
        s_norm = conditions.normalize(s)
    except TrivialFunctional:
        report["verdict"] = "pass"
        report["note"] = (
            "zero mass: the data is the zero functional, represented by the "
            "zero measure"
        )
        return report, EXIT_OK
    except NotPositive as exc:
        report["verdict"] = "fail"
        report["reason"] = str(exc)
        return report, EXIT_FAIL

    max_deg = max(
        (int(f.degree) for f in generators if not f.is_zero()), default=0
    )
    # Matrices need finite doubles; entries beyond the finite prefix still
    # feed the log-domain growth diagnostics below.
    finite_degree = s_norm.finite_degree()
    s_mat = s_norm.restrict(finite_degree)
    if finite_degree < s.max_degree:
        report["matrix_degree"] = finite_degree
    if max_deg > finite_degree:
        return _fail_input(
            f"constraint degree {max_deg} exceeds the finite part of the data "
            f"(degree {finite_degree})"
        )
    level = args.level if args.level is not None else (finite_degree - max_deg) // 2
    try:
        hyp = matrices.check_hypotheses(s_mat, generators, level, args.tol)
    except MomentError as exc:
        return _fail_input(str(exc))
    report["level"] = level
    report["moment_matrix"] = _verdict_of(hyp.moment_verdict)
    report["localizing"] = [
        {"generator": f.to_string(), **_verdict_of(v)}
        for f, v in zip(generators, hyp.localizing_verdicts)
    ]

    failed = not hyp.passed
    inconclusive = False
    growth = []
    for f in generators:
        deg = int(f.degree) if not f.is_zero() and f.degree > 0 else 0
        count = min(args.count, s.max_degree // deg) if deg else args.count
        pushed = reduction.pushed_power_sequence(s_norm, f, count)
        entry = {
            "generator": f.to_string(),
            "count": count,
            **_series_entry(conditions.stieltjes_terms, pushed, 0, count),
        }
        if entry["classification"] == "negative-moment":
            failed = True
        elif entry["classification"] != conditions.DIVERGENCE_CONSISTENT:
            inconclusive = True
        growth.append(entry)
    report["growth"] = growth

    if failed:
        report["verdict"] = "fail"
        return report, EXIT_FAIL
    if inconclusive:
        report["verdict"] = "inconclusive"
        return report, EXIT_INCONCLUSIVE
    report["verdict"] = "pass"
    return report, EXIT_OK


# ---------------------------------------------------------------------------
# diagnose


def cmd_diagnose(args: argparse.Namespace) -> Outcome:
    s = fileformats.read_moment_file(args.moments)
    if s.max_degree < 1:
        return _fail_input(
            "growth diagnostics need moments of degree 1 or more; the data "
            "has degree 0"
        )
    try:
        s_norm = conditions.normalize(s)
    except (TrivialFunctional, NotPositive) as exc:
        return _fail_input(f"cannot normalize: {exc}")

    axes = args.axis if args.axis else list(range(s.dim))
    report: dict = {"moments": args.moments, "dim": s.dim, "degree": s.max_degree}
    per_axis = []
    for axis in axes:
        if not 0 <= axis < s.dim:
            return _fail_input(f"axis {axis} out of range")
        entry: dict = {"axis": axis}
        count = min(args.count, s.max_degree)
        entry["stieltjes"] = _series_entry(
            conditions.stieltjes_terms, s_norm, axis, count
        )
        c_count = min(args.count, s.max_degree // 2)
        if c_count >= 1:
            entry["carleman"] = _series_entry(
                conditions.carleman_terms, s_norm, axis, c_count
            )
        if args.stride > 1:
            sub_count = min(args.count, s.max_degree // args.stride)
            if sub_count >= 1:
                entry["subsequence"] = _series_entry(
                    conditions.subsequence_terms,
                    s_norm,
                    axis,
                    args.stride,
                    sub_count,
                )
            bound_count = args.stride * max(
                (s.max_degree // args.stride) - 1, 1
            )
            try:
                bounds = conditions.check_subsequence_bounds(
                    s_norm, axis, args.stride, bound_count
                )
                entry["subsequence_bounds"] = {
                    "stride": bounds.stride,
                    "count": bounds.count,
                    "passed": bounds.passed,
                    "monotone_ok": bounds.monotone_ok,
                    "termwise_ok": bounds.termwise_ok,
                    "sum_ok": bounds.sum_ok,
                    "sum_lhs": bounds.sum_lhs,
                    "sum_rhs": bounds.sum_rhs,
                }
            except MomentError as exc:
                entry["subsequence_bounds"] = {"error": str(exc)}
        per_axis.append(entry)
    report["axes"] = per_axis
    return report, EXIT_OK


# ---------------------------------------------------------------------------
# solve


def _solve_exit(exc: Exception) -> int:
    # Data too short to solve, or a level with --mode 1d, is an input error.
    return EXIT_INPUT if isinstance(exc, (DegreeOverflow, ValueError)) else EXIT_SOLVE


def cmd_solve(args: argparse.Namespace) -> Outcome:
    s = fileformats.read_moment_file(args.moments)
    report: dict = {"moments": args.moments, "dim": s.dim, "degree": s.max_degree}
    finite_degree = s.finite_degree()
    if finite_degree < s.max_degree:
        # A refusal reports the degree the solver read, as a success does.
        report["solved_degree"] = finite_degree
    try:
        (measure, detail), caught = _with_warnings(
            solver.solve, s, args.mode, args.level, args.rank_tol, args.tol, args.seed
        )
    except (MomentError, ValueError) as exc:
        return _fail_report(report, exc, _solve_exit(exc))
    report.update(detail)
    if caught:
        report["warnings"] = caught
    report["measure"] = _measure_report(measure)
    try:
        fileformats.write_measure_file(args.out, measure)
    except OSError as exc:
        return _fail_report(report, exc, EXIT_INPUT)
    report["out"] = args.out
    return report, EXIT_OK


# ---------------------------------------------------------------------------
# reduce


def _read_reduction_inputs(
    args: argparse.Namespace,
) -> tuple[MomentSequence, reduction.SemiAlgebraicPresentation]:
    s = fileformats.read_moment_file(args.moments)
    generators = fileformats.read_polynomials_file(args.generators, s.dim, "x")
    return s, reduction.SemiAlgebraicPresentation(s.dim, generators)


def _generation_stage(
    pres: reduction.SemiAlgebraicPresentation, args: argparse.Namespace
) -> tuple[reduction.GenerationResult, dict]:
    budget = args.budget if args.budget is not None else max(2, pres.max_degree)
    gen = reduction.check_generates(pres, budget)
    entry: dict = {"budget": budget, "generated": gen.generated}
    if gen.generated and gen.witnesses:
        entry["witnesses"] = [w.to_string("y") for w in gen.witnesses]
    if not gen.generated:
        entry["note"] = (
            "constraints do not generate the full polynomial algebra within "
            "this budget; any recovered measure is certified only against "
            "the subalgebra they generate"
        )
    return gen, entry


def _image_degree(
    s: MomentSequence,
    pres: reduction.SemiAlgebraicPresentation,
    args: argparse.Namespace,
) -> int:
    if args.image_degree is not None:
        return args.image_degree
    return s.max_degree // max(1, pres.max_degree)


def cmd_reduce(args: argparse.Namespace) -> Outcome:
    s, pres = _read_reduction_inputs(args)
    report: dict = {
        "moments": args.moments,
        "generators": [f.to_string() for f in pres.generators],
    }
    gen, entry = _generation_stage(pres, args)
    report["generation"] = entry
    if not gen.generated and not args.allow_subalgebra:
        report["exit"] = EXIT_FAIL
        return report, EXIT_FAIL
    degree = _image_degree(s, pres, args)
    try:
        pushed = reduction.pushforward_moments(s, pres, degree)
    except MomentError as exc:
        return _fail_input(str(exc))
    fileformats.write_moment_file(args.out, pushed)
    report["pushforward"] = {
        "image_dim": pushed.dim,
        "image_degree": pushed.max_degree,
        "entries": len(pushed.values),
        "out": args.out,
    }
    return report, EXIT_OK


# ---------------------------------------------------------------------------
# pipeline


def cmd_pipeline(args: argparse.Namespace) -> Outcome:
    report: dict = {"stages": []}

    def stage(name: str, **data: Any) -> dict:
        entry = {"stage": name, **data}
        report["stages"].append(entry)
        return entry

    def finish(code: int) -> Outcome:
        report["exit"] = code
        return report, code

    try:
        s, pres = _read_reduction_inputs(args)
    except (OSError, FileFormatError, MomentError) as exc:
        stage("inputs", ok=False, error=str(exc))
        return finish(EXIT_INPUT)
    stage(
        "inputs",
        ok=True,
        dim=s.dim,
        degree=s.max_degree,
        generators=[f.to_string() for f in pres.generators],
    )

    gen, entry = _generation_stage(pres, args)
    stage("generation", ok=gen.generated, **entry)
    if not gen.generated and not args.allow_subalgebra:
        return finish(EXIT_FAIL)

    degree = _image_degree(s, pres, args)
    try:
        pushed = reduction.pushforward_moments(s, pres, degree)
    except MomentError as exc:
        # An image degree too deep for the data is an input error, as in
        # ``reduce``.
        stage("pushforward", ok=False, error=str(exc))
        return finish(EXIT_INPUT)
    stage(
        "pushforward",
        ok=True,
        image_dim=pushed.dim,
        image_degree=pushed.max_degree,
        entries=len(pushed.values),
    )

    # Pushed data carries the pushforward's rounding: verify judges the
    # answer on the input data.  Only flat extraction compares its atoms
    # with the pushed data, through degree 2L, as it does for any data.
    try:
        (nu, solve_detail), caught = _with_warnings(
            solver.propose, pushed, "auto", None, args.rank_tol, args.tol, args.seed
        )
    except MomentError as exc:
        stage(
            "solve", ok=False, error_type=type(exc).__name__, error=str(exc)
        )
        return finish(_solve_exit(exc))
    stage("solve", ok=True, atom_count=len(nu), **solve_detail, warnings=caught)

    # A generation certificate is the inverse of the evaluation map
    # (w_i(f_1, ..., f_m) = x_i exactly), so only an uncertified run, whose
    # witnesses are None, needs the Newton search.
    route = "witnesses" if gen.generated else "newton"
    try:
        mu, caught = _with_warnings(
            reduction.pull_back_atoms, nu, pres, gen.witnesses, args.tol
        )
    except MomentError as exc:
        stage(
            "pullback",
            ok=False,
            route=route,
            error_type=type(exc).__name__,
            error=str(exc),
        )
        return finish(EXIT_PULLBACK)
    stage(
        "pullback",
        ok=True,
        route=route,
        atom_count=len(mu),
        warnings=caught,
    )

    try:
        residuals = matrices.require_reproduced(mu, s, args.tol, "pulled-back measure")
    except ValidationFailure as exc:
        stage(
            "verify",
            ok=False,
            worst_residual=exc.worst,
            tolerance=args.tol,
            error=str(exc),
        )
        return finish(EXIT_PULLBACK)
    stage("verify", ok=True, worst_residual=max(residuals), tolerance=args.tol)

    try:
        fileformats.write_measure_file(args.out, mu)
    except OSError as exc:
        stage("write", ok=False, error=str(exc))
        return finish(EXIT_INPUT)
    report["measure"] = _measure_report(mu)
    report["out"] = args.out
    return finish(EXIT_OK)


# ---------------------------------------------------------------------------
# parser


def _int_at_least(low: int) -> Callable[[str], int]:
    """An argparse ``type`` for integers ``>= low``: a smaller value is a
    usage error (exit 2), like a value that is not an integer at all."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its error message
    return parse


def _finite_float(low: float, high: float | None = None) -> Callable[[str], float]:
    """An argparse ``type`` for finite floats ``>= low`` and, given ``high``,
    ``< high``: any other value, ``nan`` and ``inf`` among them, is a usage
    error (exit 2), like a value that is not a number at all."""
    bound = f">= {low:g}" if high is None else f"in [{low:g}, {high:g})"

    def parse(text: str) -> float:
        value = float(text)
        if not (math.isfinite(value) and value >= low and (high is None or value < high)):
            raise argparse.ArgumentTypeError(f"must be a finite number {bound}, got {text}")
        return value

    parse.__name__ = "float"
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing keeps no state
    in it)."""
    parser = argparse.ArgumentParser(
        prog="momentkit",
        description=(
            "Truncated moment problems: positivity and growth diagnostics, "
            "atomic measure recovery, and reduction onto semi-algebraic sets."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format",
            choices=["text", "json"],
            default="text",
            help="report format (default: text)",
        )

    def add_solver_options(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--rank-tol", type=_finite_float(0.0, 1.0), default=matrices.DEFAULT_RANK_TOL
        )
        p.add_argument("--tol", type=_finite_float(0.0), default=matrices.DEFAULT_PSD_TOL)
        p.add_argument("--seed", type=_int_at_least(0), default=0)

    def add_reduction_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--budget", type=_int_at_least(1), help="generation-check degree budget")
        p.add_argument("--image-degree", type=_int_at_least(0), help="pushed truncation degree")
        p.add_argument(
            "--allow-subalgebra",
            action="store_true",
            help="continue even when the constraints do not generate everything",
        )

    p = sub.add_parser("generate", help="write fixture moment data")
    p.add_argument("spec", help="fixture description (JSON)")
    p.add_argument("out", help="output moment file")
    p.add_argument("--generators-out", help="write constraint polynomials here")
    p.add_argument(
        "--exact",
        action="store_true",
        help="use exact rational arithmetic for atomic fixtures",
    )
    add_common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("check", help="positivity and growth verdict")
    p.add_argument("moments", help="moment file")
    p.add_argument(
        "generators",
        nargs="?",
        help="constraint polynomials (default: the coordinates)",
    )
    p.add_argument(
        "--level", type=_int_at_least(0), help="truncation level (default: largest feasible)"
    )
    p.add_argument("--tol", type=_finite_float(0.0), default=matrices.DEFAULT_PSD_TOL)
    p.add_argument(
        "--count", type=_int_at_least(1), default=60, help="growth series length cap"
    )
    add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("diagnose", help="growth series in detail")
    p.add_argument("moments", help="moment file")
    p.add_argument(
        "--axis",
        type=_int_at_least(0),
        action="append",
        help="axis to diagnose (repeatable; default: all)",
    )
    p.add_argument("--stride", type=_int_at_least(1), default=1, help="subsample stride")
    p.add_argument("--count", type=_int_at_least(1), default=60)
    add_common(p)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("solve", help="recover an atomic measure")
    p.add_argument("moments", help="moment file")
    p.add_argument("out", help="output measure file")
    p.add_argument("--mode", choices=solver.MODES, default="auto")
    p.add_argument(
        "--level", type=_int_at_least(1), help="flat extraction level (selects md mode)"
    )
    add_solver_options(p)
    add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("reduce", help="push data into image variables")
    p.add_argument("moments", help="moment file")
    p.add_argument("generators", help="constraint polynomial file")
    p.add_argument("out", help="output (pushed) moment file")
    add_reduction_options(p)
    add_common(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser(
        "pipeline", help="reduce, solve in image space, pull back, verify"
    )
    p.add_argument("moments", help="moment file")
    p.add_argument("generators", help="constraint polynomial file")
    p.add_argument("out", help="output measure file")
    add_reduction_options(p)
    add_solver_options(p)
    add_common(p)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # A file that cannot be read or written, or is malformed, exits 2 with a
    # bare error report whichever command meets it, so that rule is applied
    # here once; commands catch such errors only to report more than that.
    try:
        report, code = args.func(args)
    except (OSError, FileFormatError) as exc:
        report, code = _fail_input(str(exc))
    _emit(report, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
