"""Command-line interface.

Subcommands::

    generate  FIXTURE.json OUT.moments         build fixture moment data
    check     MOMENTS [GENERATORS]             positivity + growth verdict
    diagnose  MOMENTS                          growth series in detail
    solve     MOMENTS OUT.atoms                recover an atomic measure
    reduce    MOMENTS GENERATORS OUT.moments   push data into image variables
    pipeline  MOMENTS GENERATORS OUT.atoms     reduce, solve, pull back, verify

Exit codes: 0 success/pass, 2 malformed input (an integer option below its
bound, an image degree deeper than the data) or unwritable output, 3
definitive failure (positivity or generation), 4 inconclusive growth
diagnostics, 5 solver failure (no flat level / not positive semidefinite), 6
pull-back or final verification failure.
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

from . import conditions, fileformats, fixtures, matrices, multivariate, reduction, univariate
from .errors import (
    DegreeOverflow,
    FileFormatError,
    MomentError,
    NegativeMoment,
    NotPositive,
    TrivialFunctional,
)
from .polynomials import AtomicMeasure, MomentSequence, Polynomial

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_FAIL = 3
EXIT_INCONCLUSIVE = 4
EXIT_SOLVE = 5
EXIT_PULLBACK = 6


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


def _text_lines(value: Any, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.extend(_text_lines(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_text_lines(v, indent + 1))
            else:
                lines.append(f"{pad}- {v}")
    else:
        lines.append(f"{pad}{value}")
    return lines


def _emit(report: dict, fmt: str) -> None:
    report = _sanitize(report)
    if fmt == "json":
        print(json.dumps(report, indent=2))
    else:
        print("\n".join(_text_lines(report)))


def _fail_input(message: str, fmt: str) -> int:
    _emit({"error": message, "exit": EXIT_INPUT}, fmt)
    return EXIT_INPUT


def _fail_report(report: dict, exc: Exception, code: int, fmt: str) -> int:
    report["error"] = {"type": type(exc).__name__, "message": str(exc)}
    report["exit"] = code
    _emit(report, fmt)
    return code


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


def cmd_generate(args: argparse.Namespace) -> int:
    try:
        spec = json.loads(Path(args.spec).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return _fail_input(f"cannot read fixture spec: {exc}", args.format)
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
            return _fail_input(f"unknown fixture kind {kind!r}", args.format)
    except (KeyError, ValueError, TypeError, MomentError) as exc:
        return _fail_input(f"bad fixture spec: {exc}", args.format)
    try:
        if kind == "power-curve" and args.generators_out:
            fileformats.write_polynomials_file(args.generators_out, generators, "x")
            report["generators_out"] = args.generators_out
        fileformats.write_moment_file(args.out, s)
    except (OSError, MomentError) as exc:
        return _fail_input(str(exc), args.format)
    report["entries"] = len(s.values)
    _emit(report, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# check


def cmd_check(args: argparse.Namespace) -> int:
    try:
        s = fileformats.read_moment_file(args.moments)
        if args.generators:
            generators = fileformats.read_polynomials_file(
                args.generators, s.dim, "x"
            )
        else:
            generators = [
                Polynomial.variable(s.dim, j) for j in range(s.dim)
            ]
    except (OSError, FileFormatError) as exc:
        return _fail_input(str(exc), args.format)

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
        _emit(report, args.format)
        return EXIT_OK
    except NotPositive as exc:
        report["verdict"] = "fail"
        report["reason"] = str(exc)
        _emit(report, args.format)
        return EXIT_FAIL

    max_deg = max(
        (int(f.degree) for f in generators if not f.is_zero()), default=0
    )
    if max_deg > s.max_degree:
        return _fail_input(
            f"constraint degree {max_deg} exceeds data degree {s.max_degree}",
            args.format,
        )
    # Matrices need finite doubles; entries beyond the finite prefix still
    # feed the log-domain growth diagnostics below.
    finite_degree = s_norm.finite_degree()
    s_mat = s_norm if finite_degree == s.max_degree else s_norm.restrict(finite_degree)
    if finite_degree < s.max_degree:
        report["matrix_degree"] = finite_degree
    if max_deg > finite_degree:
        return _fail_input(
            f"constraint degree {max_deg} exceeds the finite part of the data "
            f"(degree {finite_degree})",
            args.format,
        )
    level = args.level if args.level is not None else (finite_degree - max_deg) // 2
    try:
        hyp = matrices.check_hypotheses(s_mat, generators, level, args.tol)
    except (DegreeOverflow, MomentError) as exc:
        return _fail_input(str(exc), args.format)
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
        entry: dict = {"generator": f.to_string(), "count": count}
        try:
            pushed = reduction.pushed_power_sequence(s_norm, f, count)
            diag = conditions.stieltjes_terms(pushed, 0, count)
            entry.update(_diag_summary(diag))
            if diag.classification != conditions.DIVERGENCE_CONSISTENT:
                inconclusive = True
        except NegativeMoment as exc:
            entry["classification"] = "negative-moment"
            entry["reason"] = str(exc)
            failed = True
        growth.append(entry)
    report["growth"] = growth

    if failed:
        report["verdict"] = "fail"
        _emit(report, args.format)
        return EXIT_FAIL
    if inconclusive:
        report["verdict"] = "inconclusive"
        _emit(report, args.format)
        return EXIT_INCONCLUSIVE
    report["verdict"] = "pass"
    _emit(report, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# diagnose


def cmd_diagnose(args: argparse.Namespace) -> int:
    try:
        s = fileformats.read_moment_file(args.moments)
    except (OSError, FileFormatError) as exc:
        return _fail_input(str(exc), args.format)
    try:
        s_norm = conditions.normalize(s)
    except (TrivialFunctional, NotPositive) as exc:
        return _fail_input(f"cannot normalize: {exc}", args.format)

    axes = args.axis if args.axis else list(range(s.dim))
    report: dict = {"moments": args.moments, "dim": s.dim, "degree": s.max_degree}
    per_axis = []
    for axis in axes:
        if not 0 <= axis < s.dim:
            return _fail_input(f"axis {axis} out of range", args.format)
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
    _emit(report, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve


def _solve_sequence(
    s: MomentSequence,
    mode: str,
    level: int | None,
    rank_tol: float,
    tol: float,
    seed: int,
) -> tuple[AtomicMeasure, dict]:
    if mode == "auto":
        mode = "1d" if s.dim == 1 else "md"
    if mode == "1d":
        result = univariate.solve_1d(s, rank_tol, tol)
        detail = {
            "mode": "1d",
            "rank": result.rank,
            "stieltjes_supported": result.stieltjes_supported,
            "max_residual": result.max_residual,
            "jacobi_diag": result.jacobi.diag,
            "jacobi_offdiag": result.jacobi.offdiag,
        }
        return result.measure, detail
    if level is not None:
        measure = multivariate.extract_atoms(s, level, rank_tol, tol, seed)
    else:
        measure, level = multivariate.extract_atoms_auto(s, rank_tol, tol, seed)
    return measure, {"mode": "md", "level": level, "rank": len(measure)}


def cmd_solve(args: argparse.Namespace) -> int:
    try:
        s = fileformats.read_moment_file(args.moments)
    except (OSError, FileFormatError) as exc:
        return _fail_input(str(exc), args.format)
    report: dict = {"moments": args.moments, "dim": s.dim, "degree": s.max_degree}
    finite_degree = s.finite_degree()
    if finite_degree < s.max_degree:
        s = s.restrict(finite_degree)
        report["solved_degree"] = finite_degree
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            measure, detail = _solve_sequence(
                s, args.mode, args.level, args.rank_tol, args.tol, args.seed
            )
    except MomentError as exc:
        return _fail_report(report, exc, EXIT_SOLVE, args.format)
    report.update(detail)
    if caught:
        report["warnings"] = [str(w.message) for w in caught]
    report["measure"] = _measure_report(measure)
    try:
        fileformats.write_measure_file(args.out, measure)
    except OSError as exc:
        return _fail_report(report, exc, EXIT_INPUT, args.format)
    report["out"] = args.out
    _emit(report, args.format)
    return EXIT_OK


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


def cmd_reduce(args: argparse.Namespace) -> int:
    try:
        s, pres = _read_reduction_inputs(args)
    except (OSError, FileFormatError, MomentError) as exc:
        return _fail_input(str(exc), args.format)
    report: dict = {
        "moments": args.moments,
        "generators": [f.to_string() for f in pres.generators],
    }
    gen, entry = _generation_stage(pres, args)
    report["generation"] = entry
    if not gen.generated and not args.allow_subalgebra:
        report["exit"] = EXIT_FAIL
        _emit(report, args.format)
        return EXIT_FAIL
    degree = _image_degree(s, pres, args)
    try:
        pushed = reduction.pushforward_moments(s, pres, degree)
        fileformats.write_moment_file(args.out, pushed)
    except (DegreeOverflow, MomentError, OSError) as exc:
        return _fail_input(str(exc), args.format)
    report["pushforward"] = {
        "image_dim": pushed.dim,
        "image_degree": pushed.max_degree,
        "entries": len(pushed.values),
        "out": args.out,
    }
    _emit(report, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# pipeline


def cmd_pipeline(args: argparse.Namespace) -> int:
    report: dict = {"stages": []}
    fmt = args.format

    def stage(name: str, **data: Any) -> dict:
        entry = {"stage": name, **data}
        report["stages"].append(entry)
        return entry

    def finish(code: int) -> int:
        report["exit"] = code
        _emit(report, fmt)
        return code

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
        return finish(
            EXIT_INPUT if isinstance(exc, DegreeOverflow) else EXIT_INCONCLUSIVE
        )
    stage(
        "pushforward",
        ok=True,
        image_dim=pushed.dim,
        image_degree=pushed.max_degree,
        entries=len(pushed.values),
    )

    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            nu, solve_detail = _solve_sequence(
                pushed, "auto", None, args.rank_tol, args.tol, args.seed
            )
    except MomentError as exc:
        stage(
            "solve", ok=False, error_type=type(exc).__name__, error=str(exc)
        )
        return finish(EXIT_SOLVE)
    solve_detail["warnings"] = [str(w.message) for w in caught]
    stage("solve", ok=True, atom_count=len(nu), **solve_detail)

    # A generation certificate is the inverse of the evaluation map
    # (w_i(f_1, ..., f_m) = x_i exactly), so only an uncertified run, whose
    # witnesses are None, needs the Newton search.
    route = "witnesses" if gen.generated else "newton"
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            mu = reduction.pull_back_atoms(nu, pres, gen.witnesses, args.tol)
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
        warnings=[str(w.message) for w in caught],
    )

    worst = max([0.0, *matrices.reproduction_residuals(mu, s, s.max_degree)])
    verify_tol = max(args.tol, 1e-6)
    if worst > verify_tol:
        stage("verify", ok=False, worst_residual=worst, tolerance=verify_tol)
        return finish(EXIT_PULLBACK)
    stage("verify", ok=True, worst_residual=worst, tolerance=verify_tol)

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
    p.add_argument("--tol", type=float, default=matrices.DEFAULT_PSD_TOL)
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
    p.add_argument("--mode", choices=["auto", "1d", "md"], default="auto")
    p.add_argument("--level", type=_int_at_least(1), help="extraction level (md mode)")
    p.add_argument("--rank-tol", type=float, default=matrices.DEFAULT_RANK_TOL)
    p.add_argument("--tol", type=float, default=matrices.DEFAULT_PSD_TOL)
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("reduce", help="push data into image variables")
    p.add_argument("moments", help="moment file")
    p.add_argument("generators", help="constraint polynomial file")
    p.add_argument("out", help="output (pushed) moment file")
    p.add_argument("--budget", type=_int_at_least(1), help="generation-check degree budget")
    p.add_argument("--image-degree", type=_int_at_least(0), help="pushed truncation degree")
    p.add_argument(
        "--allow-subalgebra",
        action="store_true",
        help="continue even when the constraints do not generate everything",
    )
    add_common(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser(
        "pipeline", help="reduce, solve in image space, pull back, verify"
    )
    p.add_argument("moments", help="moment file")
    p.add_argument("generators", help="constraint polynomial file")
    p.add_argument("out", help="output measure file")
    p.add_argument("--budget", type=_int_at_least(1), help="generation-check degree budget")
    p.add_argument("--image-degree", type=_int_at_least(0), help="pushed truncation degree")
    p.add_argument("--rank-tol", type=float, default=matrices.DEFAULT_RANK_TOL)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--allow-subalgebra", action="store_true")
    add_common(p)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
