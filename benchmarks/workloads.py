"""Workloads of the closed-loop benchmark.

Each workload builds a pool of problems from the seed in set-up, runs one
operation per problem through momentkit's public API, in-process (the
CLI through ``cli.main``), and classifies every outcome against the ground
truth it generated:

* ``solved``  -- an answer that passes the check in ``check.py``;
* ``refused`` -- a typed ``MomentError``, an inconclusive verdict, or a
  documented non-zero CLI exit;
* ``wrong``   -- success was reported but the answer fails the check (a
  silent wrong answer), or a definitive verdict contradicts the truth;
* ``crash``   -- any other exception or exit code.

The library only ever sees the generated moments, constraints and files.
Library functions are looked up through their module at call time, so the
tracer's wrappers take effect in traced runs.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

from momentkit import cli, conditions, fileformats, fixtures, matrices
from momentkit import multivariate, univariate
from momentkit.errors import MomentError
from momentkit.polynomials import AtomicMeasure, MomentSequence, Polynomial

import check

#: Tolerance ``solve_1d`` and ``extract_atoms_auto`` use by default;
#: answers are checked against the same value.
SOLVE_TOL = 1e-8
#: ``momentkit pipeline`` verifies its final measure at ``max(tol, 1e-6)``.
PIPELINE_TOL = 1e-6

DIVERGENT = conditions.DIVERGENCE_CONSISTENT
CONVERGENT = conditions.CONVERGENCE_CONSISTENT
_RANK = {"solved": 0, "refused": 1, "wrong": 2, "crash": 3}


@dataclass
class Problem:
    kind: str
    data: dict
    #: ground-truth atoms, ``None`` for moments of a density
    truth: list | None
    #: every input moment as ``(multi-indices, float values)`` for the check
    indices: np.ndarray
    targets: np.ndarray


@dataclass
class Outcome:
    status: str
    #: worst relative moment residual of the returned measure, if any
    residual: float | None = None
    reason: str = ""
    #: (returned, true) atom counts of a 1-D solve of atomic data
    atoms_1d: tuple[int, int] | None = None
    #: the answer itself, to compare traced with untraced runs
    key: Any = None


@dataclass
class Context:
    root: Path
    workdir: Path
    child_env: dict
    #: the active tracer during traced passes, else ``None``
    tracer: Any = None
    op: str = ""


@dataclass
class Workload:
    name: str
    why: str
    setup: Callable[[np.random.Generator, Context], list[Problem]]
    op: Callable[[Problem, Context], Any]
    check: Callable[[Problem, Any], Outcome]


# ---------------------------------------------------------------------------
# shared helpers


def moment_arrays(s: MomentSequence) -> tuple[np.ndarray, np.ndarray]:
    indices = list(s.values)
    targets = []
    for alpha in indices:
        try:
            targets.append(float(s.values[alpha]))
        except OverflowError:
            targets.append(math.inf)
    return np.array(indices, dtype=int), np.array(targets)


def judge_measure(p: Problem, atoms: list, tol: float) -> Outcome:
    residual = check.moment_residual(atoms, p.indices, p.targets)
    if residual > tol:
        return Outcome("wrong", residual, f"moment residual {residual:.2e} > {tol:g}")
    if p.truth is not None:
        ok, pos, wt = check.match_atoms(p.truth, atoms)
        if not ok:
            return Outcome(
                "wrong",
                residual,
                f"{len(atoms)} atoms returned for {len(p.truth)} true "
                f"(position error {pos:.1e} of allowed, weight error {wt:.1e})",
            )
    return Outcome("solved", residual)


def combine(parts: list[Outcome], key: Any) -> Outcome:
    """The worst of several sub-verdicts; the residual is the measure's."""
    worst = max(parts, key=lambda o: _RANK[o.status])
    residual = next((o.residual for o in parts if o.residual is not None), None)
    atoms_1d = next((o.atoms_1d for o in parts if o.atoms_1d is not None), None)
    return Outcome(worst.status, residual, worst.reason, atoms_1d, key)


def growth_verdict(label: str, got: str, expected: str) -> Outcome:
    if got == expected:
        return Outcome("solved")
    if got == conditions.INCONCLUSIVE:
        return Outcome("refused", reason=f"{label} inconclusive")
    return Outcome("wrong", reason=f"{label} says {got}, truth is {expected}")


#: Exit codes of ``momentkit`` and what they mean for valid, feasible data.
_EXIT_VERDICT = {0: "solved", 2: "refused", 3: "wrong", 4: "refused", 5: "refused", 6: "refused"}


def exit_verdict(command: str, code: int) -> Outcome:
    status = _EXIT_VERDICT.get(code, "crash")
    return Outcome(status, reason=f"{command} exited {code}" if code else "")


def measure_from_file(p: Problem, command: str, code: int, out: Path, tol: float) -> Outcome:
    if code != 0:
        out.unlink(missing_ok=True)
        return exit_verdict(command, code)
    atoms = check.parse_measure_file(str(out))
    out.unlink()
    outcome = judge_measure(p, atoms, tol)
    if p.truth is not None and len(p.truth[0][0]) == 1:
        outcome.atoms_1d = (len(atoms), len(p.truth))
    outcome.key = atoms
    return outcome


def flat_level(dim: int, atoms: int) -> int:
    """Smallest level ``L`` whose level ``L - 1`` basis can hold ``atoms``
    independent point evaluations, so a flat pair can exist at ``L``."""
    level = 1
    while math.comb(dim + level - 1, dim) < atoms:
        level += 1
    return level


def scattered_atoms(
    rng: np.random.Generator, dim: int, count: int, box: float = 10.0, min_sep: float = 0.5
) -> list[tuple[tuple[float, ...], float]]:
    """Atoms in ``[0, box]^dim``, pairwise at least ``min_sep`` apart,
    weights in ``[0.2, 2]``."""
    points: list[np.ndarray] = []
    while len(points) < count:
        cand = rng.uniform(0.0, box, size=dim)
        if all(np.linalg.norm(cand - p) >= min_sep for p in points):
            points.append(cand)
    weights = rng.uniform(0.2, 2.0, size=count)
    return [(tuple(float(x) for x in p), float(w)) for p, w in zip(points, weights)]


def dyadic_nodes(rng: np.random.Generator, count: int) -> list[tuple[tuple[Fraction], Fraction]]:
    """``count`` distinct nodes ``j / 64`` in ``[0.5, 3]`` with weights
    ``j / 4`` in ``[0.25, 2]``: exact rationals, also exact as floats."""
    picks = sorted(rng.choice(161, size=count, replace=False).tolist())
    return [
        ((Fraction(32 + j, 64),), Fraction(int(rng.integers(1, 9)), 4)) for j in picks
    ]


def curve_atoms(
    rng: np.random.Generator, exponent: int, count: int
) -> list[tuple[tuple[Fraction, Fraction], Fraction]]:
    """Distinct dyadic atoms on or above ``x2 = x1^k`` with ``0 <= x1 <= 1.25``."""
    atoms: dict[tuple[Fraction, Fraction], Fraction] = {}
    while len(atoms) < count:
        x1 = Fraction(int(rng.integers(0, 11)), 8)
        x2 = x1**exponent + Fraction(int(rng.integers(0, 9)), 8)
        atoms.setdefault((x1, x2), Fraction(int(rng.integers(1, 9)), 8))
    return list(atoms.items())


def as_float_atoms(atoms: list) -> list[tuple[tuple[float, ...], float]]:
    return [(tuple(float(x) for x in p), float(w)) for p, w in atoms]


# ---------------------------------------------------------------------------
# solve-md


# Pools draw every configuration several times, so that the shares and
# the latency mix change little from seed to seed; pass lengths stay a few
# seconds, well inside one run.
MD_DIMS = (2, 3, 4)
MD_ATOMS = range(2, 21, 2)
MD_DRAWS = 8


def md_problem(rng: np.random.Generator, dim: int, count: int) -> tuple[list, MomentSequence]:
    atoms = scattered_atoms(rng, dim, count)
    degree = 2 * flat_level(dim, count)
    return atoms, fixtures.moments_of_atomic(AtomicMeasure(dim, atoms), degree)


def md_setup(rng: np.random.Generator, ctx: Context) -> list[Problem]:
    pool = []
    for dim in MD_DIMS:
        for count in MD_ATOMS:
            for _ in range(MD_DRAWS):
                atoms, s = md_problem(rng, dim, count)
                data = {
                    "s": s,
                    "generators": [Polynomial.variable(dim, j) for j in range(dim)],
                    "level": (s.max_degree - 1) // 2,
                }
                kind = f"d={dim} atoms{'>=12' if count >= 12 else '<12'}"
                pool.append(Problem(kind, data, atoms, *moment_arrays(s)))
    return pool


def md_op(p: Problem, ctx: Context) -> dict:
    d = p.data
    hyp = matrices.check_hypotheses(d["s"], d["generators"], d["level"])
    try:
        measure, level = multivariate.extract_atoms_auto(d["s"])
    except MomentError as exc:
        return {"passed": hyp.passed, "error": type(exc).__name__}
    return {"passed": hyp.passed, "atoms": measure.atoms, "level": level}


def md_check(p: Problem, ans: dict) -> Outcome:
    key = sorted(ans.items())
    if not ans["passed"]:
        return Outcome("wrong", reason="hypotheses rejected consistent data", key=key)
    if "error" in ans:
        return Outcome("refused", reason=ans["error"], key=key)
    outcome = judge_measure(p, ans["atoms"], SOLVE_TOL)
    outcome.key = key
    return outcome


# ---------------------------------------------------------------------------
# solve-1d


ONE_D_ATOMS = range(1, 21)
ONE_D_DRAWS = 16
DENSITY_DEGREES = (60, 120)


def one_d_problem(
    rng: np.random.Generator, count: int, exact: bool
) -> tuple[list, MomentSequence]:
    atoms = dyadic_nodes(rng, count)
    if not exact:
        atoms = as_float_atoms(atoms)
    s = fixtures.moments_of_atomic(AtomicMeasure(1, atoms), 2 * count + 2, exact=exact)
    return as_float_atoms(atoms), s


def _one_d_entry(kind: str, s: MomentSequence, truth: list | None, expect: str, stride: int) -> Problem:
    finite = s.finite_degree()
    data = {
        "s": s,
        "solve": s if finite == s.max_degree else s.restrict(finite),
        "stride": stride,
        "expect": expect,
    }
    return Problem(kind, data, truth, *moment_arrays(s))


def one_d_setup(rng: np.random.Generator, ctx: Context) -> list[Problem]:
    pool = []
    for count in ONE_D_ATOMS:
        for exact in (False, True):
            for _ in range(ONE_D_DRAWS):
                truth, s = one_d_problem(rng, count, exact)
                stride = 2 if s.max_degree < 9 else int(rng.choice((2, 3)))
                kind = f"{'exact' if exact else 'float'} atoms{'>=8' if count >= 8 else '<8'}"
                pool.append(_one_d_entry(kind, s, truth, DIVERGENT, stride))
    for degree in DENSITY_DEGREES:
        for stride in (2, 3):
            pool.append(
                _one_d_entry("factorial", fixtures.moments_factorial(degree), None, DIVERGENT, stride)
            )
            pool.append(
                _one_d_entry("lognormal", fixtures.moments_lognormal(degree), None, CONVERGENT, stride)
            )
    return pool


def one_d_op(p: Problem, ctx: Context) -> dict:
    d = p.data
    try:
        measure: Any = univariate.solve_1d(d["solve"]).measure.atoms
    except MomentError as exc:
        measure = type(exc).__name__
    sn = conditions.normalize(d["s"])
    degree, stride = sn.max_degree, d["stride"]
    classes = (
        conditions.stieltjes_terms(sn, 0, degree).classification,
        conditions.carleman_terms(sn, 0, degree // 2).classification,
        conditions.subsequence_terms(sn, 0, stride, degree // stride).classification,
    )
    bounds = conditions.check_subsequence_bounds(
        sn, 0, stride, stride * (degree // stride - 1)
    ).passed
    return {"measure": measure, "classes": classes, "bounds": bounds}


def one_d_check(p: Problem, ans: dict) -> Outcome:
    measure = ans["measure"]
    if isinstance(measure, str):
        parts = [Outcome("refused", reason=measure)]
    else:
        solved = judge_measure(p, measure, SOLVE_TOL)
        if p.truth is not None:
            solved.atoms_1d = (len(measure), len(p.truth))
        parts = [solved]
    labels = ("stieltjes", "carleman", "subsequence")
    parts += [
        growth_verdict(label, got, p.data["expect"])
        for label, got in zip(labels, ans["classes"])
    ]
    if not ans["bounds"]:
        parts.append(Outcome("wrong", reason="subsequence bounds failed"))
    return combine(parts, sorted(ans.items()))


# ---------------------------------------------------------------------------
# reduce-curve


CURVE_EXPONENTS = (1, 2, 3)
CURVE_ATOMS = (1, 2, 3)
CURVE_DRAWS = 8
CURVE_DEGREE = 12


def curve_files(
    rng: np.random.Generator, exponent: int, count: int, stem: Path
) -> tuple[list, MomentSequence, str, str]:
    """Write an exact power-curve problem as moment and generator files."""
    atoms = curve_atoms(rng, exponent, count)
    fx = fixtures.power_curve_fixture(
        exponent, AtomicMeasure(2, atoms), CURVE_DEGREE, exact=True
    )
    moments, generators = f"{stem}.moments", f"{stem}.generators"
    fileformats.write_moment_file(moments, fx.moments)
    fileformats.write_polynomials_file(generators, fx.presentation.generators, "x")
    return as_float_atoms(atoms), fx.moments, moments, generators


def curve_setup(rng: np.random.Generator, ctx: Context) -> list[Problem]:
    pool = []
    for exponent in CURVE_EXPONENTS:
        for count in CURVE_ATOMS:
            for draw in range(CURVE_DRAWS):
                stem = ctx.workdir / f"curve-k{exponent}-n{count}-{draw}"
                truth, s, moments, generators = curve_files(rng, exponent, count, stem)
                data = {"moments": moments, "generators": generators, "out": Path(f"{stem}.atoms")}
                pool.append(Problem(f"k={exponent}", data, truth, *moment_arrays(s)))
    return pool


def curve_op(p: Problem, ctx: Context) -> dict:
    d = p.data
    with contextlib.redirect_stdout(io.StringIO()):
        checked = cli.main(["check", d["moments"], d["generators"]])
        piped = cli.main(["pipeline", d["moments"], d["generators"], str(d["out"])])
    return {"check": checked, "pipeline": piped}


def curve_check(p: Problem, ans: dict) -> Outcome:
    solved = measure_from_file(p, "pipeline", ans["pipeline"], p.data["out"], PIPELINE_TOL)
    return combine([exit_verdict("check", ans["check"]), solved], (ans["check"], solved.key))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "solve-md",
            "Matrix assembly and flat extraction do almost all the work; no "
            "reduction, no 1-D solve. Cached assembly and fewer redundant "
            "matrix builds must show here.",
            md_setup,
            md_op,
            md_check,
        ),
        Workload(
            "solve-1d",
            "The 1-D solver and growth diagnostics do the work on float and "
            "exact data; small Hankels only. Keeps the silent atom drop at "
            "8 or more atoms visible.",
            one_d_setup,
            one_d_op,
            one_d_check,
        ),
        Workload(
            "reduce-curve",
            "In-process check and pipeline on exact power-curve files: "
            "reduction (Newton pull-back, exact pushforward and generation "
            "certificate) dominates; matrices are small.",
            curve_setup,
            curve_op,
            curve_check,
        ),
    )
}


def child_env(root: Path) -> dict:
    """Environment of the subprocesses a traced run times: this
    checkout's sources first."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
