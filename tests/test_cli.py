"""End-to-end tests for the command line interface.

Each test drives ``momentkit.cli.main`` directly with an argv list, reads the
JSON report from stdout, and checks the exit code against the documented
contract: 0 success/pass, 2 malformed input or unwritable output, 3
definitive failure, 4 inconclusive, 5 solver failure, 6 pull-back or
verification failure.
"""

import json
import math

import pytest

from momentkit import fileformats, fixtures, reduction
from momentkit.cli import (
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_PULLBACK,
    EXIT_SOLVE,
    build_parser,
    main,
)
from momentkit.polynomials import AtomicMeasure


def run_json(capsys, *argv):
    """Run the CLI with ``--format json`` appended; return (code, report)."""
    code = main([*argv, "--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def write_spec(tmp_path, name, spec):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


def atomic_spec(dim, degree, atoms):
    return {"fixture": "atomic", "dim": dim, "degree": degree, "atoms": atoms}


# ---------------------------------------------------------------------------
# generate


def test_generate_atomic_roundtrip(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        "spec.json",
        atomic_spec(2, 4, [[0.5, 1.0, 2.0], [0.5, 3.0, 1.0]]),
    )
    out = str(tmp_path / "m.mom")
    code, report = run_json(capsys, "generate", spec, out)
    assert code == EXIT_OK
    assert report["dim"] == 2
    assert report["atom_count"] == 2
    # dim 2, degree 4: C(6, 2) = 15 monomials.
    assert report["entries"] == 15

    s = fileformats.read_moment_file(out)
    assert s.dim == 2 and s.max_degree == 4
    assert float(s.value((0, 0))) == pytest.approx(1.0)
    # s_(1,1) = 0.5*1*2 + 0.5*3*1 = 2.5
    assert float(s.value((1, 1))) == pytest.approx(2.5)


def test_generate_factorial_and_lognormal(tmp_path, capsys):
    spec = write_spec(tmp_path, "f.json", {"fixture": "factorial", "degree": 6})
    out = str(tmp_path / "fact.mom")
    code, report = run_json(capsys, "generate", spec, out)
    assert code == EXIT_OK and report["dim"] == 1
    s = fileformats.read_moment_file(out)
    # Factorial entries carry stored logs, so the file keeps the log token
    # and the reader reconstructs the value through exp().
    assert float(s.value((6,))) == pytest.approx(720.0, rel=1e-12)

    spec = write_spec(tmp_path, "l.json", {"fixture": "lognormal", "degree": 10})
    out = str(tmp_path / "logn.mom")
    code, report = run_json(capsys, "generate", spec, out)
    assert code == EXIT_OK
    s = fileformats.read_moment_file(out)
    # log s_n = n^2 / 2
    assert s.log_value((4,)) == pytest.approx(8.0)


def test_generate_power_curve_writes_generators(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        "pc.json",
        {
            "fixture": "power-curve",
            "degree": 12,
            "exponent": 2,
            "atoms": [[1.0, 1.5, 2.25]],
        },
    )
    out = str(tmp_path / "curve.mom")
    gens = str(tmp_path / "gens.txt")
    code, report = run_json(
        capsys,
        "generate",
        spec,
        out,
        "--exact",
        "--generators-out",
        gens,
    )
    assert code == EXIT_OK
    assert report["exponent"] == 2
    assert report["generators_out"] == gens
    assert "inverse_out" not in report

    generators = fileformats.read_polynomials_file(gens, 2, "x")
    assert len(generators) == 2
    # The written constraints carry their own inverse: the generation
    # certificate.
    gen = reduction.check_generates(
        reduction.SemiAlgebraicPresentation(2, generators), 2
    )
    assert gen.witnesses == fixtures.power_curve_inverse(2)


def test_generate_power_curve_beyond_double_range_writes_log_tokens(
    tmp_path, capsys
):
    # Degree-12 moments of the atom (1e14, 1e28) reach 1e336.
    spec = write_spec(
        tmp_path,
        "far.json",
        {
            "fixture": "power-curve",
            "degree": 12,
            "exponent": 2,
            "atoms": [[1.0, 1e14, 1e28]],
        },
    )
    out = str(tmp_path / "far.mom")
    code, report = run_json(capsys, "generate", spec, out, "--exact")
    assert code == EXIT_OK
    s = fileformats.read_moment_file(out)
    assert s.log_value((0, 12)) == pytest.approx(12 * math.log(1e28), rel=1e-15)
    assert s.value((0, 12)) == math.inf
    assert (1, 0) not in s.log_values


def test_generate_negative_entry_beyond_double_range_exits_2(tmp_path, capsys):
    spec = write_spec(
        tmp_path, "neg.json", atomic_spec(1, 11, [[1.0, -1e30]])
    )
    out = tmp_path / "neg.mom"
    code, report = run_json(capsys, "generate", spec, str(out), "--exact")
    assert code == EXIT_INPUT
    assert "(11,)" in report["error"]
    assert not out.exists()


def test_generate_into_missing_directory_exits_2(tmp_path, capsys):
    spec = write_spec(tmp_path, "f.json", {"fixture": "factorial", "degree": 4})
    code, report = run_json(
        capsys, "generate", spec, str(tmp_path / "missing" / "x.mom")
    )
    assert code == EXIT_INPUT
    assert "No such file" in report["error"]

    spec = write_spec(
        tmp_path,
        "pc.json",
        {
            "fixture": "power-curve",
            "degree": 4,
            "exponent": 2,
            "atoms": [[1.0, 1.5, 2.25]],
        },
    )
    code, report = run_json(
        capsys,
        "generate",
        spec,
        str(tmp_path / "curve.mom"),
        "--generators-out",
        str(tmp_path / "missing" / "gens.txt"),
    )
    assert code == EXIT_INPUT
    assert "No such file" in report["error"]


def test_generate_rejects_bad_specs(tmp_path, capsys):
    spec = write_spec(tmp_path, "bad.json", {"fixture": "nope", "degree": 4})
    code, report = run_json(capsys, "generate", spec, str(tmp_path / "o.mom"))
    assert code == EXIT_INPUT and "error" in report

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, report = run_json(
        capsys, "generate", str(broken), str(tmp_path / "o.mom")
    )
    assert code == EXIT_INPUT

    # Missing required keys.
    spec = write_spec(tmp_path, "nokeys.json", {"fixture": "atomic", "degree": 4})
    code, report = run_json(capsys, "generate", spec, str(tmp_path / "o.mom"))
    assert code == EXIT_INPUT


# ---------------------------------------------------------------------------
# check


def make_factorial_file(tmp_path, degree=12, name="fact.mom"):
    path = tmp_path / name
    fileformats.write_moment_file(path, fixtures.moments_factorial(degree))
    return str(path)


def test_check_factorial_passes(tmp_path, capsys):
    moments = make_factorial_file(tmp_path)
    code, report = run_json(capsys, "check", moments)
    assert code == EXIT_OK
    assert report["verdict"] == "pass"
    assert report["moment_matrix"]["psd"] is True
    assert report["localizing"][0]["generator"] == "x1"
    assert report["localizing"][0]["psd"] is True
    growth = report["growth"][0]
    assert growth["classification"] == "divergence-consistent"


def test_check_lognormal_inconclusive_restricts_matrices(tmp_path, capsys):
    path = tmp_path / "logn.mom"
    fileformats.write_moment_file(path, fixtures.moments_lognormal(60))
    code, report = run_json(capsys, "check", str(path))
    assert code == EXIT_INCONCLUSIVE
    assert report["verdict"] == "inconclusive"
    # Entries above degree 37 overflow doubles; matrices use the finite part.
    assert report["matrix_degree"] == 37
    assert report["moment_matrix"]["psd"] is True
    assert report["growth"][0]["classification"] == "convergence-consistent"


def test_check_off_curve_atom_fails(tmp_path, capsys):
    # Atom (1, 0.5) sits below the parabola: (x2 - x1^2)(atom) = -0.5 < 0.
    spec = write_spec(tmp_path, "off.json", atomic_spec(2, 4, [[1.0, 1.0, 0.5]]))
    moments = str(tmp_path / "off.mom")
    assert main(["generate", spec, moments]) == EXIT_OK
    capsys.readouterr()

    gens = tmp_path / "gens.txt"
    gens.write_text("x2 - x1^2\nx1\n")
    code, report = run_json(capsys, "check", moments, str(gens))
    assert code == EXIT_FAIL
    assert report["verdict"] == "fail"
    bad = [v for v in report["localizing"] if not v["psd"]]
    # Polynomials render in graded-lex term order.
    assert bad and bad[0]["generator"] == "-x1^2 + x2"


def test_check_point_mass_beyond_double_range_passes(tmp_path, capsys):
    # Degree-12 moments of the atom (1e14, 1e28): the localizing matrix of
    # x2 holds entries near 1e308 whose symmetrized sums would overflow.
    spec = write_spec(
        tmp_path,
        "far.json",
        {
            "fixture": "power-curve",
            "degree": 12,
            "exponent": 2,
            "atoms": [[1.0, 1e14, 1e28]],
        },
    )
    moments = str(tmp_path / "far.mom")
    assert main(["generate", spec, moments, "--exact"]) == EXIT_OK
    capsys.readouterr()

    code, report = run_json(capsys, "check", moments)
    assert code == EXIT_OK
    assert report["verdict"] == "pass"
    for verdict in [report["moment_matrix"], *report["localizing"]]:
        assert verdict["psd"] is True
        assert math.isfinite(verdict["min_eigenvalue"])
        assert math.isfinite(verdict["tolerance"])


def test_check_malformed_inputs(tmp_path, capsys):
    bad = tmp_path / "bad.mom"
    bad.write_text("not a moment file\n")
    code, report = run_json(capsys, "check", str(bad))
    assert code == EXIT_INPUT and "error" in report

    # Constraint degree beyond the data degree is an input error, not a fail.
    moments = make_factorial_file(tmp_path, degree=2)
    gens = tmp_path / "deep.txt"
    gens.write_text("x1^4\n")
    code, report = run_json(capsys, "check", moments, str(gens))
    assert code == EXIT_INPUT


def test_check_text_format_default(tmp_path, capsys):
    moments = make_factorial_file(tmp_path)
    code = main(["check", moments])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "verdict: pass" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_check_zero_mass_is_trivial_pass(tmp_path, capsys):
    path = tmp_path / "zero.mom"
    path.write_text(
        "momentfile v1 dim=1 degree=2\n0 0.0\n1 0.0\n2 0.0\n"
    )
    code, report = run_json(capsys, "check", str(path))
    assert code == EXIT_OK
    assert report["verdict"] == "pass"
    assert "zero mass" in report["note"]


# ---------------------------------------------------------------------------
# diagnose


def test_diagnose_reports_all_series(tmp_path, capsys):
    # Short series parse as geometric decay; sixty terms expose the
    # power-law tail on every diagnostic.
    moments = make_factorial_file(tmp_path, degree=120)
    code, report = run_json(capsys, "diagnose", moments, "--stride", "2")
    assert code == EXIT_OK
    entry = report["axes"][0]
    assert entry["axis"] == 0
    assert entry["stieltjes"]["classification"] == "divergence-consistent"
    assert entry["carleman"]["classification"] == "divergence-consistent"
    assert entry["subsequence"]["classification"] == "divergence-consistent"
    bounds = entry["subsequence_bounds"]
    assert bounds["stride"] == 2
    assert bounds["passed"] is True
    assert bounds["sum_lhs"] <= bounds["sum_rhs"] + 1e-9


def test_diagnose_axis_out_of_range(tmp_path, capsys):
    moments = make_factorial_file(tmp_path, degree=8)
    code, report = run_json(capsys, "diagnose", moments, "--axis", "1")
    assert code == EXIT_INPUT


# ---------------------------------------------------------------------------
# solve


def test_solve_factorial_writes_quadrature(tmp_path, capsys):
    moments = make_factorial_file(tmp_path, degree=8)
    out = str(tmp_path / "rule.msr")
    code, report = run_json(capsys, "solve", moments, out)
    assert code == EXIT_OK
    assert report["mode"] == "1d"
    assert report["rank"] == 4
    assert report["stieltjes_supported"] is True
    assert report["measure"]["atom_count"] == 4
    assert report["out"] == out

    mu = fileformats.read_measure_file(out)
    assert len(mu) == 4
    # A 4-node rule reproduces orders 0..7 of the data it was built from.
    for k in range(8):
        got = math.fsum(float(w) * float(pt[0]) ** k for pt, w in mu.atoms)
        assert got == pytest.approx(math.factorial(k), rel=1e-9)


def test_solve_into_missing_directory_exits_2(tmp_path, capsys):
    moments = make_factorial_file(tmp_path, degree=4)
    code, report = run_json(
        capsys, "solve", moments, str(tmp_path / "missing" / "out.atoms")
    )
    assert code == EXIT_INPUT
    assert report["exit"] == EXIT_INPUT
    assert report["error"]["type"] == "FileNotFoundError"


def test_solve_multivariate_md_mode(tmp_path, capsys):
    atoms = [[0.5, 1.0, 2.0], [0.3, 3.0, 1.0], [0.2, 5.0, 4.0]]
    spec = write_spec(tmp_path, "md.json", atomic_spec(2, 4, atoms))
    moments = str(tmp_path / "md.mom")
    assert main(["generate", spec, moments, "--exact"]) == EXIT_OK
    capsys.readouterr()

    out = str(tmp_path / "md.msr")
    code, report = run_json(capsys, "solve", moments, out, "--mode", "md")
    assert code == EXIT_OK
    assert report["mode"] == "md"
    assert report["measure"]["atom_count"] == 3
    recovered = {
        (round(a["point"][0], 6), round(a["point"][1], 6)): a["weight"]
        for a in report["measure"]["atoms"]
    }
    for w, x1, x2 in atoms:
        assert recovered[(x1, x2)] == pytest.approx(w, abs=1e-8)


def test_solve_non_flat_data_is_solver_failure(tmp_path, capsys):
    # Three atoms truncated at degree 2: no flat level pair exists.
    atoms = [[0.4, 1.0, 0.0], [0.4, 0.0, 1.0], [0.2, 2.0, 2.0]]
    spec = write_spec(tmp_path, "short.json", atomic_spec(2, 2, atoms))
    moments = str(tmp_path / "short.mom")
    assert main(["generate", spec, moments]) == EXIT_OK
    capsys.readouterr()

    code, report = run_json(
        capsys, "solve", moments, str(tmp_path / "no.msr")
    )
    assert code == EXIT_SOLVE
    assert report["error"]["type"] == "NotFlat"
    assert not (tmp_path / "no.msr").exists()


def test_solve_lognormal_restricts_to_finite_prefix(tmp_path, capsys):
    path = tmp_path / "logn.mom"
    fileformats.write_moment_file(path, fixtures.moments_lognormal(40))
    out = str(tmp_path / "logn.msr")
    code, report = run_json(capsys, "solve", str(path), out)
    # Entries beyond degree 37 overflow doubles; the solver works on the
    # finite prefix and reports which degree it actually used.
    assert report["solved_degree"] == 37
    assert code in (EXIT_OK, EXIT_SOLVE)


# ---------------------------------------------------------------------------
# reduce


def make_curve_inputs(tmp_path, capsys, atoms, exponent=2, degree=12):
    spec = write_spec(
        tmp_path,
        "curve.json",
        {
            "fixture": "power-curve",
            "degree": degree,
            "exponent": exponent,
            "atoms": atoms,
        },
    )
    moments = str(tmp_path / "curve.mom")
    gens = str(tmp_path / "curve-gens.txt")
    code = main(["generate", spec, moments, "--exact", "--generators-out", gens])
    assert code == EXIT_OK
    capsys.readouterr()
    return moments, gens


def test_reduce_on_curve_data(tmp_path, capsys):
    moments, gens = make_curve_inputs(tmp_path, capsys, [[1.0, 1.5, 2.25]])
    out = str(tmp_path / "pushed.mom")
    code, report = run_json(capsys, "reduce", moments, gens, out)
    assert code == EXIT_OK
    assert report["generation"]["generated"] is True
    assert len(report["generation"]["witnesses"]) == 2
    push = report["pushforward"]
    # Ambient degree 12 over generators of degree <= 2 -> image degree 6.
    assert push["image_dim"] == 2
    assert push["image_degree"] == 6

    pushed = fileformats.read_moment_file(out)
    assert pushed.dim == 2 and pushed.max_degree == 6
    # First generator vanishes on the curve: all its pushed powers are 0.
    assert float(pushed.value((1, 0))) == 0.0
    # Second generator is x1, so t_(0,b) = sum w * x1^b.
    assert float(pushed.value((0, 2))) == pytest.approx(1.5**2)


def test_reduce_into_missing_directory_exits_2(tmp_path, capsys):
    moments, gens = make_curve_inputs(tmp_path, capsys, [[1.0, 1.5, 2.25]])
    code, report = run_json(
        capsys, "reduce", moments, gens, str(tmp_path / "missing" / "p.mom")
    )
    assert code == EXIT_INPUT
    assert "No such file" in report["error"]


def test_reduce_non_generating_set_fails_without_override(tmp_path, capsys):
    moments = make_factorial_file(tmp_path, degree=12)
    gens = tmp_path / "sq.txt"
    gens.write_text("x1^2\n")
    out = str(tmp_path / "pushed.mom")

    code, report = run_json(capsys, "reduce", moments, str(gens), out)
    assert code == EXIT_FAIL
    assert report["generation"]["generated"] is False
    assert "subalgebra" in report["generation"]["note"]

    code, report = run_json(
        capsys, "reduce", moments, str(gens), out, "--allow-subalgebra"
    )
    assert code == EXIT_OK
    pushed = fileformats.read_moment_file(out)
    assert pushed.dim == 1
    # t_a = L(x1^(2a)) = (2a)!, up to the log-token roundtrip.
    assert float(pushed.value((3,))) == pytest.approx(
        math.factorial(6), rel=1e-12
    )


# ---------------------------------------------------------------------------
# pipeline


def stage_named(report, name):
    matches = [st for st in report["stages"] if st["stage"] == name]
    assert matches, f"stage {name!r} missing from {report['stages']!r}"
    return matches[-1]


def test_pipeline_recovers_curve_atoms_with_inverse(tmp_path, capsys):
    # The inverse map is the generation certificate's witnesses.
    atoms = [[0.75, 1.5, 2.25], [0.25, 0.25, 0.0625]]
    moments, gens = make_curve_inputs(tmp_path, capsys, atoms)
    out = str(tmp_path / "recovered.msr")
    code, report = run_json(capsys, "pipeline", moments, gens, out)
    assert code == EXIT_OK
    assert report["exit"] == EXIT_OK
    assert stage_named(report, "pullback")["route"] == "witnesses"
    assert stage_named(report, "verify")["ok"] is True
    assert stage_named(report, "solve")["atom_count"] == 2

    mu = fileformats.read_measure_file(out)
    recovered = sorted(((pt, float(w)) for pt, w in mu.atoms), key=lambda a: a[0][0])
    expected = sorted(atoms, key=lambda a: a[1])
    for (pt, w), (ew, ex1, ex2) in zip(recovered, expected):
        assert w == pytest.approx(ew, abs=1e-8)
        assert float(pt[0]) == pytest.approx(ex1, abs=1e-8)
        assert float(pt[1]) == pytest.approx(ex2, abs=1e-8)


def test_pipeline_certified_run_skips_newton(tmp_path, capsys, monkeypatch):
    def no_newton(*args, **kwargs):
        raise AssertionError("Newton search on a certified pipeline run")

    monkeypatch.setattr(reduction, "_newton_preimages", no_newton)
    for exponent in (1, 2, 3):
        work = tmp_path / f"k{exponent}"
        work.mkdir()
        atoms = [[1.0, 1.5, 1.5**exponent]]
        moments, gens = make_curve_inputs(work, capsys, atoms, exponent)
        out = str(work / "certified.msr")
        code, report = run_json(capsys, "pipeline", moments, gens, out)
        assert code == EXIT_OK
        assert stage_named(report, "generation")["generated"] is True
        assert stage_named(report, "pullback")["route"] == "witnesses"
        assert "inverse" not in stage_named(report, "inputs")
        mu = fileformats.read_measure_file(out)
        assert len(mu) == 1
        pt, w = mu.atoms[0]
        assert float(w) == pytest.approx(1.0, abs=1e-8)
        assert float(pt[0]) == pytest.approx(1.5, abs=1e-6)
        assert float(pt[1]) == pytest.approx(1.5**exponent, abs=1e-6)


def test_pipeline_subalgebra_run_pulls_back_by_newton(tmp_path, capsys):
    # x1^2 and x1^3 do not generate x1, but x -> (x^2, x^3) is injective,
    # so the Newton search finds the one preimage of the image atom.
    spec = write_spec(tmp_path, "one.json", atomic_spec(1, 12, [[1.0, 1.5]]))
    moments = str(tmp_path / "one.mom")
    assert main(["generate", spec, moments, "--exact"]) == EXIT_OK
    capsys.readouterr()
    gens = tmp_path / "sq-cube.txt"
    gens.write_text("x1^2\nx1^3\n")

    out = str(tmp_path / "one.msr")
    code, report = run_json(
        capsys, "pipeline", moments, str(gens), out, "--allow-subalgebra"
    )
    assert code == EXIT_OK
    assert stage_named(report, "generation")["generated"] is False
    assert stage_named(report, "pullback")["route"] == "newton"
    mu = fileformats.read_measure_file(out)
    assert len(mu) == 1
    assert float(mu.atoms[0][0][0]) == pytest.approx(1.5, abs=1e-6)


def test_pipeline_text_report_names_pullback_route(tmp_path, capsys):
    moments, gens = make_curve_inputs(tmp_path, capsys, [[1.0, 1.5, 2.25]])
    code = main(["pipeline", moments, gens, str(tmp_path / "text.msr")])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("    stage: pullback")
    assert "    route: witnesses" in lines[start:start + 4]


def test_pipeline_membership_violation_exits_6(tmp_path, capsys):
    # 1-D data of the unit mass at -2; constraints {x1^2, x1} generate the
    # algebra, but the recovered image atom pulls back to x = -2 where the
    # constraint x1 >= 0 is violated.
    spec = write_spec(
        tmp_path, "neg.json", atomic_spec(1, 12, [[1.0, -2.0]])
    )
    moments = str(tmp_path / "neg.mom")
    assert main(["generate", spec, moments, "--exact"]) == EXIT_OK
    capsys.readouterr()
    gens = tmp_path / "gens.txt"
    gens.write_text("x1^2\nx1\n")

    out = str(tmp_path / "neg.msr")
    code, report = run_json(capsys, "pipeline", moments, str(gens), out)
    assert code == EXIT_PULLBACK
    pull = stage_named(report, "pullback")
    assert pull["ok"] is False
    assert pull["error_type"] == "MembershipViolation"
    assert not (tmp_path / "neg.msr").exists()


def test_pipeline_subalgebra_pullback_fails_verification(tmp_path, capsys):
    # x1^2 alone cannot see the sign of the support: the pushed data of
    # (delta_2 + delta_-2)/2 looks like a single atom at 4, and any pull-back
    # reproduces the even moments only. Final verification must catch that.
    spec = write_spec(
        tmp_path,
        "sym.json",
        atomic_spec(1, 12, [[0.5, 2.0], [0.5, -2.0]]),
    )
    moments = str(tmp_path / "sym.mom")
    assert main(["generate", spec, moments, "--exact"]) == EXIT_OK
    capsys.readouterr()
    gens = tmp_path / "sq.txt"
    gens.write_text("x1^2\n")

    out = str(tmp_path / "sym.msr")
    code, report = run_json(
        capsys, "pipeline", moments, str(gens), out, "--allow-subalgebra"
    )
    assert code == EXIT_PULLBACK
    # The 1-D image solve goes through the same dispatch as ``solve``.
    solve = stage_named(report, "solve")
    assert solve["mode"] == "1d"
    assert {"max_residual", "jacobi_diag", "jacobi_offdiag"} <= solve.keys()
    verify = stage_named(report, "verify")
    assert verify["ok"] is False
    assert verify["worst_residual"] > verify["tolerance"]


def test_pipeline_rejects_non_generating_set_by_default(tmp_path, capsys):
    moments = make_factorial_file(tmp_path, degree=12)
    gens = tmp_path / "sq.txt"
    gens.write_text("x1^2\n")
    code, report = run_json(
        capsys, "pipeline", moments, str(gens), str(tmp_path / "o.msr")
    )
    assert code == EXIT_FAIL
    assert stage_named(report, "generation")["generated"] is False


def test_pipeline_malformed_moments(tmp_path, capsys):
    bad = tmp_path / "bad.mom"
    bad.write_text("momentfile v1 dim=1 degree=1\n0 1.0\n")
    gens = tmp_path / "g.txt"
    gens.write_text("x1\n")
    code, report = run_json(
        capsys, "pipeline", str(bad), str(gens), str(tmp_path / "o.msr")
    )
    assert code == EXIT_INPUT


def test_pipeline_into_missing_directory_exits_2(tmp_path, capsys):
    moments, gens = make_curve_inputs(tmp_path, capsys, [[1.0, 1.5, 2.25]])
    code, report = run_json(
        capsys, "pipeline", moments, gens, str(tmp_path / "missing" / "o.msr")
    )
    assert code == EXIT_INPUT
    assert report["exit"] == EXIT_INPUT
    assert stage_named(report, "verify")["ok"] is True
    write = stage_named(report, "write")
    assert write["ok"] is False
    assert "No such file" in write["error"]
    assert "out" not in report


def test_pipeline_too_deep_image_degree_exits_2_like_reduce(tmp_path, capsys):
    # Degree-12 data over generators of degree 2 pushes to degree 6 at most.
    moments, gens = make_curve_inputs(tmp_path, capsys, [[1.0, 1.5, 2.25]])
    code, report = run_json(
        capsys, "reduce", moments, gens, str(tmp_path / "p.mom"),
        "--image-degree", "9",
    )
    assert code == EXIT_INPUT
    assert "degree 18" in report["error"]

    code, report = run_json(
        capsys, "pipeline", moments, gens, str(tmp_path / "o.msr"),
        "--image-degree", "9",
    )
    assert code == EXIT_INPUT
    assert report["exit"] == EXIT_INPUT
    push = stage_named(report, "pushforward")
    assert push["ok"] is False
    assert "degree 18" in push["error"]


# ---------------------------------------------------------------------------
# option ranges


@pytest.mark.parametrize(
    "argv, flag, low",
    [
        (["check", "m.mom"], "--count", 1),
        (["check", "m.mom"], "--level", 0),
        (["diagnose", "m.mom"], "--count", 1),
        (["diagnose", "m.mom"], "--stride", 1),
        (["diagnose", "m.mom"], "--axis", 0),
        (["solve", "m.mom", "o.msr"], "--level", 1),
        (["reduce", "m.mom", "g.txt", "p.mom"], "--budget", 1),
        (["reduce", "m.mom", "g.txt", "p.mom"], "--image-degree", 0),
        (["pipeline", "m.mom", "g.txt", "o.msr"], "--budget", 1),
        (["pipeline", "m.mom", "g.txt", "o.msr"], "--image-degree", 0),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else str(v),
)
def test_integer_flag_below_its_bound_is_a_usage_error(argv, flag, low, capsys):
    parsed = build_parser().parse_args([*argv, flag, str(low)])
    assert getattr(parsed, flag[2:].replace("-", "_")) in (low, [low])

    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, str(low - 1)])
    assert exc.value.code == EXIT_INPUT
    assert f"{flag}: must be >= {low}, got {low - 1}" in capsys.readouterr().err


def test_non_integer_flag_keeps_the_argparse_message(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "m.mom", "--count", "abc"])
    assert exc.value.code == EXIT_INPUT
    assert "--count: invalid int value: 'abc'" in capsys.readouterr().err
