"""End-to-end tests for the command line interface.

Each test drives ``momentkit.cli.main`` directly with an argv list, reads the
JSON report from stdout, and checks the exit code against the documented
contract: 0 success/pass, 2 malformed input or unwritable output, 3
definitive failure, 4 inconclusive, 5 solver failure, 6 pull-back or
verification failure.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from momentkit import (
    fileformats,
    fixtures,
    matrices,
    multivariate,
    reduction,
    solver,
    univariate,
)
from momentkit.cli import (
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_PULLBACK,
    EXIT_SOLVE,
    _emit,
    build_parser,
    main,
)
from momentkit.errors import FileFormatError
from momentkit.polynomials import AtomicMeasure, MomentSequence, monomials_up_to
from conftest import measure_errors
from test_acceptance import feasible_region_measure


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


_PLANAR_ATOMS = [[0.5, 1.0, 2.0], [0.25, -3.0, 1e-3], [2.0, 0.1, 7.0]]
_CURVE_SPEC = {
    "fixture": "power-curve",
    "degree": 12,
    "exponent": 3,
    "atoms": [[0.5, 1.5, 4.0], [1.25, 0.3, 0.1]],
}


@pytest.mark.parametrize(
    "spec, exact",
    [
        (atomic_spec(2, 6, _PLANAR_ATOMS), False),
        (atomic_spec(2, 6, _PLANAR_ATOMS), True),
        (atomic_spec(3, 4, [[1.5, 0.3, -0.7, 2.0], [0.2, 5.0, 0.0, -1.0]]), False),
        (_CURVE_SPEC, False),
        (_CURVE_SPEC, True),
    ],
    ids=["atomic", "atomic-exact", "atomic-3d", "power-curve", "power-curve-exact"],
)
def test_generate_writes_the_per_monomial_moments(tmp_path, capsys, spec, exact):
    # the per-monomial loop that moments_of_atomic replaced
    from test_array_forms import _ref_moments_of_atomic

    out = tmp_path / "m.mom"
    spec_file = write_spec(tmp_path, "s.json", spec)
    code, _ = run_json(capsys, "generate", spec_file, str(out), *["--exact"] * exact)
    assert code == EXIT_OK
    atoms = [(tuple(row[1:]), row[0]) for row in spec["atoms"]]
    measure = AtomicMeasure(spec.get("dim", 2), atoms)
    want = _ref_moments_of_atomic(measure, spec["degree"], exact)
    assert out.read_bytes() == fileformats.format_moment_file(want).encode()


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


def test_generate_overflowing_float_entry_exits_2(tmp_path, capsys):
    # Float moments of weight 1e300 at 1e5 overflow at degree 2; the reader
    # would refuse the inf entry, so the writer refuses it.
    spec = write_spec(tmp_path, "big.json", atomic_spec(1, 2, [[1e300, 1e5]]))
    out = tmp_path / "big.mom"
    code, report = run_json(capsys, "generate", spec, str(out))
    assert code == EXIT_INPUT
    assert report == {
        "error": "moment (2,) is inf and has no stored log; a moment file "
        "cannot hold it",
        "exit": EXIT_INPUT,
    }
    assert not out.exists()


@pytest.mark.parametrize(
    "spec",
    [
        # Python's float power raises on 1e200 ** 2 instead of giving inf.
        atomic_spec(1, 2, [[1.0, 1e200]]),
        {"fixture": "power-curve", "exponent": 2, "degree": 2, "atoms": [[1.0, 1.0, 1e200]]},
    ],
)
def test_generate_float_power_overflow_is_a_bad_spec(tmp_path, capsys, spec):
    out = tmp_path / "big.mom"
    code, report = run_json(capsys, "generate", write_spec(tmp_path, "big.json", spec), str(out))
    assert code == EXIT_INPUT
    assert report == {
        "error": "bad fixture spec: (34, 'Numerical result out of range')",
        "exit": EXIT_INPUT,
    }
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


def test_generate_atom_row_of_wrong_length_exits_2(tmp_path, capsys):
    spec = write_spec(tmp_path, "short.json", atomic_spec(2, 2, [[1.0, 2.0]]))
    out = tmp_path / "o.mom"
    code, report = run_json(capsys, "generate", spec, str(out))
    assert code == EXIT_INPUT
    assert report == {
        "error": "bad fixture spec: atom row [1.0, 2.0] must hold a weight "
        "and 2 coordinates",
        "exit": EXIT_INPUT,
    }
    assert not out.exists()


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


@pytest.mark.parametrize(
    "generator, code, classification, rule",
    [
        ("2*x1^2", EXIT_OK, "divergence-consistent", "power-law"),
        ("x1 + x2", EXIT_OK, "divergence-consistent", "power-law"),
        ("x1^2 - x2", EXIT_INCONCLUSIVE, "inconclusive", "entry-without-value"),
    ],
)
def test_check_reads_pushed_markers_by_their_logs(
    tmp_path, capsys, generator, code, classification, rule
):
    # delta at (1e30, 3) plus 2 delta at (2, 1e25) to degree 14: markers from
    # degree 11 on.  2 x1^2 and x1 + x2 push them with logs, the log-sum of
    # positive terms, and the bounded support reads as divergence; x1^2 - x2
    # has a negative coefficient, so its images sum to inf with no log, an
    # entry without a value.
    spec = write_spec(
        tmp_path, "two.json", atomic_spec(2, 14, [[1.0, 1e30, 3.0], [2.0, 2.0, 1e25]])
    )
    moments = str(tmp_path / "two.mom")
    assert main(["generate", spec, moments, "--exact"]) == EXIT_OK
    capsys.readouterr()
    gens = tmp_path / "gens.txt"
    gens.write_text(generator + "\n")
    got, report = run_json(capsys, "check", moments, str(gens))
    assert got == code
    growth = report["growth"][0]
    assert (growth["classification"], growth["fit"]["rule"]) == (classification, rule)


def test_check_scaled_lognormal_stays_convergence_consistent(tmp_path, capsys):
    # 2 x1 keeps the log of every lognormal entry, so the terms beyond
    # double range are read from the logs: a geometric decay.
    path = tmp_path / "logn.mom"
    fileformats.write_moment_file(path, fixtures.moments_lognormal(60))
    gens = tmp_path / "gens.txt"
    gens.write_text("2*x1\n")
    code, report = run_json(capsys, "check", str(path), str(gens))
    assert code == EXIT_INCONCLUSIVE
    growth = report["growth"][0]
    assert growth["classification"] == "convergence-consistent"
    assert growth["fit"]["rule"] == "geometric-ratio"


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


def test_check_zero_denominator_in_generators_exits_2(tmp_path, capsys):
    moments = make_factorial_file(tmp_path, degree=2)
    gens = tmp_path / "zero.txt"
    gens.write_text("# constraint\n\nx1 + 3/0\n")
    code, report = run_json(capsys, "check", moments, str(gens))
    assert code == EXIT_INPUT
    assert report == {
        "error": "line 3: zero denominator at position 5: '3/0'",
        "exit": EXIT_INPUT,
    }


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


def test_check_negative_mass_fails(tmp_path, capsys):
    path = tmp_path / "neg.mom"
    path.write_text("momentfile v1 dim=1 degree=2\n0 -1.0\n1 0.0\n2 1.0\n")
    code, report = run_json(capsys, "check", str(path))
    assert code == EXIT_FAIL
    assert report == {
        "moments": str(path),
        "dim": 1,
        "degree": 2,
        "generators": ["x1"],
        "verdict": "fail",
        "reason": "mass s_0 = -1.0 is negative",
    }


@pytest.mark.parametrize(
    "text",
    [
        # A point mass at e^300: s_3 = e^900 and s_4 = e^1200 are past double
        # range, so matrices see degree 2 only, too shallow for x1^3.
        "momentfile v1 dim=1 degree=4\n"
        f"0 1.0\n1 {math.exp(300)!r}\n2 {math.exp(600)!r}\n"
        "3 log:900.0\n4 log:1200.0\n",
        # All-finite data of degree 2: its finite part is all of it.
        "momentfile v1 dim=1 degree=2\n0 1.0\n1 2.0\n2 5.0\n",
    ],
    ids=["past-double-range", "all-finite"],
)
def test_check_constraint_deeper_than_finite_prefix_exits_2(text, tmp_path, capsys):
    path = tmp_path / "far.mom"
    path.write_text(text)
    gens = tmp_path / "cube.txt"
    gens.write_text("x1^3\n")
    code, report = run_json(capsys, "check", str(path), str(gens))
    assert code == EXIT_INPUT
    assert report == {
        "error": "constraint degree 3 exceeds the finite part of the data "
        "(degree 2)",
        "exit": EXIT_INPUT,
    }


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


def point_mass_file(tmp_path, last):
    """A point mass at 2 written to degree 8, with ``last`` as the value of
    the degree-8 line."""
    lines = [f"{n} {2.0**n!r}" for n in range(8)] + [f"8 {last}"]
    path = tmp_path / "point.mom"
    path.write_text("momentfile v1 dim=1 degree=8\n" + "\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("command", ["diagnose", "check"])
@pytest.mark.parametrize("last", ["inf", "nan", "1e400"])
def test_non_finite_moment_value_exits_2(tmp_path, capsys, command, last):
    # Read as data, ``inf`` made bounded support look convergence-consistent
    # and ``nan`` gave a ``nan`` term.
    code, report = run_json(capsys, command, point_mass_file(tmp_path, last))
    assert code == EXIT_INPUT
    assert report["error"].startswith("line 10: ")
    assert "log:" in report["error"]


@pytest.mark.parametrize("command", ["diagnose", "check"])
def test_point_mass_with_log_token_is_read(tmp_path, capsys, command):
    # The same entry, 2^8, as a log token: bounded support reads divergent.
    last = f"log:{8 * math.log(2)!r}"
    code, report = run_json(capsys, command, point_mass_file(tmp_path, last))
    assert code == EXIT_OK
    if command == "diagnose":
        series = report["axes"][0]["stieltjes"]
    else:
        series = report["growth"][0]
    assert series["classification"] == "divergence-consistent"


def file_failure_case(tmp_path, case):
    """``(argv, message)`` for a command whose input file is missing or
    malformed; ``message`` is the reader's own error text."""
    moments = make_factorial_file(tmp_path, degree=4)
    if case == "check-missing-generators":
        bad = tmp_path / "none.txt"
        argv = ["check", moments, str(bad)]
    else:
        bad = tmp_path / "bad.mom"
        if case == "diagnose-malformed":
            bad.write_text("momentfile v1 dim=1 degree=2\n0 1.0\n")
        argv = ["diagnose", str(bad)]
    # A missing file fails the same way in every reader.
    with pytest.raises((OSError, FileFormatError)) as exc:
        fileformats.read_moment_file(bad)
    return argv, str(exc.value)


@pytest.mark.parametrize(
    "case", ["diagnose-missing", "diagnose-malformed", "check-missing-generators"]
)
def test_unreadable_input_file_exits_2_with_a_bare_report(tmp_path, capsys, case):
    argv, message = file_failure_case(tmp_path, case)
    code, report = run_json(capsys, *argv)
    assert code == EXIT_INPUT
    assert report == {"error": message, "exit": EXIT_INPUT}

    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().out == f"error: {message}\nexit: {EXIT_INPUT}\n"


def test_diagnose_axis_out_of_range(tmp_path, capsys):
    moments = make_factorial_file(tmp_path, degree=8)
    code, report = run_json(capsys, "diagnose", moments, "--axis", "1")
    assert code == EXIT_INPUT


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("dim", [1, 2])
def test_diagnose_degree_0_data_exits_2(tmp_path, capsys, dim, fmt):
    # No growth series has a term at degree 0; the report says so instead
    # of a traceback.
    path = tmp_path / "mass.mom"
    path.write_text(f"momentfile v1 dim={dim} degree=0\n{'0 ' * dim}1.0\n")
    code = main(["diagnose", str(path), "--format", fmt])
    out = capsys.readouterr().out
    assert code == EXIT_INPUT
    message = (
        "growth diagnostics need moments of degree 1 or more; the data has "
        "degree 0"
    )
    if fmt == "json":
        assert json.loads(out) == {"error": message, "exit": EXIT_INPUT}
    else:
        assert out == f"error: {message}\nexit: {EXIT_INPUT}\n"


@pytest.mark.parametrize(
    "mass, reason",
    [
        ("0.0", "mass s_0 = 0: a positive functional with zero mass is "
         "identically zero (zero measure)"),
        ("-1.0", "mass s_0 = -1.0 is negative"),
    ],
)
def test_diagnose_without_positive_mass_exits_2(tmp_path, capsys, mass, reason):
    path = tmp_path / "mass.mom"
    path.write_text(f"momentfile v1 dim=1 degree=2\n0 {mass}\n1 0.0\n2 1.0\n")
    code, report = run_json(capsys, "diagnose", str(path))
    assert code == EXIT_INPUT
    assert report == {"error": f"cannot normalize: {reason}", "exit": EXIT_INPUT}


def test_diagnose_negative_odd_moment_is_reported(tmp_path, capsys):
    # A point mass at -2: the Stieltjes series stops at s_1 = -2, the even
    # Carleman series still runs.
    path = tmp_path / "minus.mom"
    path.write_text(
        "momentfile v1 dim=1 degree=4\n"
        + "".join(f"{n} {(-2.0) ** n!r}\n" for n in range(5))
    )
    code, report = run_json(capsys, "diagnose", str(path))
    assert code == EXIT_OK
    entry = report["axes"][0]
    assert entry["stieltjes"] == {
        "classification": "negative-moment",
        "reason": "moment at (1,) is negative: -2.0",
    }
    assert entry["carleman"]["count"] == 2


def test_diagnose_subsequence_bounds_on_non_psd_hankel(tmp_path, capsys):
    # s_2 = 0.5 < s_1^2: the marginal Hankel at level 2 is not PSD, while
    # every entry is positive, so the growth series still run.
    path = tmp_path / "notpsd.mom"
    path.write_text(
        "momentfile v1 dim=1 degree=4\n0 1.0\n1 1.0\n2 0.5\n3 1.0\n4 1.0\n"
    )
    code, report = run_json(capsys, "diagnose", str(path), "--stride", "2")
    assert code == EXIT_OK
    entry = report["axes"][0]
    assert list(entry) == [
        "axis", "stieltjes", "carleman", "subsequence", "subsequence_bounds"
    ]
    assert list(entry["subsequence_bounds"]) == ["error"]
    assert entry["subsequence_bounds"]["error"].startswith(
        "marginal moment matrix at level 2 is not positive semidefinite"
    )


# ---------------------------------------------------------------------------
# solve


def test_solve_factorial_refuses_the_quadrature(tmp_path, capsys):
    # The 4-node rule reproduces orders 0..7 (``TestSolveFactorial`` pins
    # that on ``solve_1d``), but misses s_8 = 8! by 1/70 relative, and
    # ``solve`` checks every entry it was given.
    moments = make_factorial_file(tmp_path, degree=8)
    out = tmp_path / "rule.msr"
    code, report = run_json(capsys, "solve", moments, str(out))
    assert code == EXIT_SOLVE
    assert report["error"]["type"] == "ValidationFailure"
    worst = float(report["error"]["message"].split("residual ")[1].split()[0])
    assert worst == pytest.approx(1 / 70, rel=1e-5)
    assert not out.exists()


def test_solve_degree_one_data_places_one_atom(tmp_path, capsys):
    # Degree 1 is level 0 of the 1-D solve: the moment matrix is 1 x 1 and
    # the one-atom rule reads the first moment beside it.
    spec = write_spec(tmp_path, "d1.json", atomic_spec(1, 1, [[2.0, 1.5]]))
    moments = str(tmp_path / "d1.mom")
    assert main(["generate", spec, moments]) == EXIT_OK
    capsys.readouterr()

    code, report = run_json(capsys, "solve", moments, str(tmp_path / "d1.atoms"))
    assert code == EXIT_OK
    assert (report["mode"], report["rank"]) == ("1d", 1)
    assert report["measure"]["atom_count"] == 1
    ((point, weight),) = fileformats.read_measure_file(report["out"]).atoms
    assert (point, weight) == ((1.5,), 2.0)


def test_solve_into_missing_directory_exits_2(tmp_path, capsys):
    # Data that solves, so that only the missing directory stops the write.
    spec = write_spec(tmp_path, "two.json", atomic_spec(1, 4, [[0.5, 1.0], [0.5, 3.0]]))
    moments = str(tmp_path / "two.mom")
    assert main(["generate", spec, moments]) == EXIT_OK
    capsys.readouterr()
    code, report = run_json(
        capsys, "solve", moments, str(tmp_path / "missing" / "out.atoms")
    )
    assert code == EXIT_INPUT
    assert report["exit"] == EXIT_INPUT
    assert report["error"]["type"] == "FileNotFoundError"


def test_solve_missing_moment_file_exits_2(tmp_path, capsys):
    out = tmp_path / "o.atoms"
    code, report = run_json(capsys, "solve", str(tmp_path / "none.mom"), str(out))
    assert code == EXIT_INPUT
    assert list(report) == ["error", "exit"]
    assert report["exit"] == EXIT_INPUT
    assert "No such file" in report["error"]
    assert not out.exists()


def test_solve_reports_a_clamped_node(tmp_path, capsys):
    # Atoms at -1e-10 and 1: the node below zero is inside NODE_TOL, so it
    # is clamped to 0 with a warning that the report carries.
    path = tmp_path / "clamp.mom"
    path.write_text(
        "momentfile v1 dim=1 degree=4\n"
        + "".join(f"{n} {0.5 * (-1e-10) ** n + 0.5!r}\n" for n in range(5))
    )
    code, report = run_json(capsys, "solve", str(path), str(tmp_path / "o.atoms"))
    assert code == EXIT_OK
    assert list(report) == [
        "moments", "dim", "degree", "mode", "rank", "stieltjes_supported",
        "max_residual", "jacobi_diag", "jacobi_offdiag", "warnings",
        "measure", "out",
    ]
    (warning,) = report["warnings"]
    assert warning.startswith("clamped 1 slightly negative node(s) to zero")
    assert [a["point"] for a in report["measure"]["atoms"]] == [[0.0], [1.0]]


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


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("degree", [0, 1])
def test_solve_data_below_degree_two_exits_2_in_every_dim(tmp_path, capsys, dim, degree):
    # As solve_1d refuses 1-D data of degree 0: no level to extract at.
    path = tmp_path / "short.mom"
    fileformats.write_moment_file(
        path, fixtures.moments_of_atomic(AtomicMeasure(dim, [((1.0,) * dim, 1.0)]), degree)
    )
    out = tmp_path / "o.atoms"
    code, report = run_json(capsys, "solve", str(path), str(out))
    assert code == EXIT_INPUT
    assert report["exit"] == EXIT_INPUT
    assert report["error"] == {
        "type": "DegreeOverflow",
        "message": "flat extraction needs moments of degree 2 or more; the "
        f"data has degree {degree}",
    }
    assert not out.exists()


def one_d_atomic_file(tmp_path, capsys):
    """Degree-6 float moments of three atoms on the line."""
    spec = write_spec(
        tmp_path, "one.json", atomic_spec(1, 6, [[0.5, 1.0], [0.25, 2.0], [0.25, 4.0]])
    )
    moments = str(tmp_path / "one.mom")
    assert main(["generate", spec, moments]) == EXIT_OK
    capsys.readouterr()
    return moments


def test_solve_level_selects_flat_extraction_on_1d_data(tmp_path, capsys):
    moments = one_d_atomic_file(tmp_path, capsys)
    code, report = run_json(capsys, "solve", moments, str(tmp_path / "o.atoms"), "--level", "3")
    assert code == EXIT_OK
    assert (report["mode"], report["level"], report["rank"]) == ("md", 3, 3)
    points = [x for a in report["measure"]["atoms"] for x in a["point"]]
    assert points == pytest.approx([1.0, 2.0, 4.0], abs=1e-8)

    # A level deeper than the data is an input error, as under --mode md.
    out = tmp_path / "deep.atoms"
    code, report = run_json(capsys, "solve", moments, str(out), "--level", "9")
    assert code == EXIT_INPUT
    assert report["error"]["type"] == "DegreeOverflow"
    assert "degree 18" in report["error"]["message"]
    assert not out.exists()


def test_solve_mode_1d_with_level_exits_2(tmp_path, capsys):
    moments = one_d_atomic_file(tmp_path, capsys)
    out = tmp_path / "o.atoms"
    code, report = run_json(capsys, "solve", moments, str(out), "--mode", "1d", "--level", "2")
    assert code == EXIT_INPUT
    # The library's refusal, reported as every other solve refusal is.
    assert report == {
        "moments": moments,
        "dim": 1,
        "degree": 6,
        "error": {
            "type": "ValueError",
            "message": "mode '1d', level 2: no solve route "
            "(modes ('auto', '1d', 'md'); '1d' takes no level)",
        },
        "exit": EXIT_INPUT,
    }
    assert not out.exists()


def test_solve_lognormal_restricts_to_finite_prefix(tmp_path, capsys):
    path = tmp_path / "logn.mom"
    fileformats.write_moment_file(path, fixtures.moments_lognormal(40))
    out = str(tmp_path / "logn.msr")
    code, report = run_json(capsys, "solve", str(path), out)
    # Entries beyond degree 37 overflow doubles; the solver works on the
    # finite prefix and reports which degree it actually used.
    assert report["solved_degree"] == 37
    assert code in (EXIT_OK, EXIT_SOLVE)


@pytest.mark.parametrize(
    "flags, error_type",
    [(["--mode", "md"], "NotFlat"), (["--level", "15"], "ValidationFailure")],
    ids=["scan", "level"],
)
def test_solve_points_beyond_double_range_are_a_solver_failure(
    tmp_path, capsys, flags, error_type
):
    # Flat extraction of degree-37 lognormal data finds points whose powers
    # leave double range; that is a refusal, not a traceback.
    spec = write_spec(tmp_path, "ln.json", {"fixture": "lognormal", "degree": 37})
    moments = str(tmp_path / "ln.mom")
    assert main(["generate", spec, moments]) == EXIT_OK
    capsys.readouterr()
    out = tmp_path / "o.atoms"
    code, report = run_json(capsys, "solve", moments, str(out), *flags)
    assert code == EXIT_SOLVE
    assert report["exit"] == EXIT_SOLVE
    assert report["error"]["type"] == error_type
    assert "beyond double range" in report["error"]["message"]
    assert not out.exists()


def node_overflow_file(tmp_path, capsys):
    """Exact degree-7 moments of atoms 0.5138..., 1.7787... (weight 1) and
    1e105 (weight 1e-119): finite doubles through degree 4, ``log:`` markers
    from degree 5 on."""
    spec = write_spec(
        tmp_path,
        "ovf.json",
        atomic_spec(
            1,
            7,
            [[1.0, 0.5138143288314894], [1.0, 1.7787886843719507], [1e-119, 1e105]],
        ),
    )
    moments = tmp_path / "ovf.mom"
    assert main(["generate", spec, str(moments), "--exact"]) == EXIT_OK
    capsys.readouterr()
    return moments


def test_solve_1d_node_power_beyond_double_range_is_compared_exactly(
    tmp_path, capsys
):
    # A recovered node's cube leaves double range inside the prefix, so the
    # 1-D validation compares s_0 .. s_4 exactly, and the entries above the
    # prefix in logs; the 2-atom rule reproduces all of them.  max_residual
    # covers every entry, the ones compared in logs included.
    moments = node_overflow_file(tmp_path, capsys)
    out = tmp_path / "o.atoms"
    code, report = run_json(capsys, "solve", str(moments), str(out))
    assert code == EXIT_OK
    assert report["solved_degree"] == 4
    assert report["rank"] == 2
    assert report["max_residual"] <= 1e-12
    assert out.exists()


def test_pipeline_node_power_beyond_double_range_is_verified_exactly(
    tmp_path, capsys
):
    moments = node_overflow_file(tmp_path, capsys)
    gens = tmp_path / "x.txt"
    gens.write_text("x1\n")
    out = tmp_path / "o.atoms"
    argv = ["pipeline", str(moments), str(gens), str(out), "--image-degree", "4"]
    code, report = run_json(capsys, *argv)
    assert code == EXIT_OK
    verify = stage_named(report, "verify")
    assert verify["ok"] is True
    assert verify["worst_residual"] <= 1e-12
    assert out.exists()
    out.unlink()
    # s_4 moved by 1e-6 relative: verify compares it and refuses.
    lines = moments.read_text().splitlines()
    degree, value = lines[5].split()
    assert degree == "4"
    lines[5] = f"4 {float(value) * (1 + 1e-6)!r}"
    moments.write_text("\n".join(lines) + "\n")
    code, report = run_json(capsys, *argv)
    assert code in (EXIT_SOLVE, EXIT_PULLBACK)
    assert report["exit"] == code
    assert not out.exists()


@pytest.mark.parametrize(
    "flags", [["--rank-tol", "1e-14"], ["--mode", "1d", "--rank-tol", "0"]]
)
def test_solve_clamped_nodes_on_one_point_are_a_solver_failure(
    tmp_path, capsys, flags
):
    # Both atoms lie within NODE_TOL below zero; the clamp merges them into
    # one atom at 0, which misses s_1 = -6e-7.
    spec = write_spec(
        tmp_path, "clamp.json", atomic_spec(1, 4, [[1.0, -1e-7], [1.0, -5e-7]])
    )
    moments = str(tmp_path / "clamp.mom")
    assert main(["generate", spec, moments]) == EXIT_OK
    capsys.readouterr()
    out = tmp_path / "c.atoms"
    code, report = run_json(capsys, "solve", moments, str(out), *flags)
    assert code == EXIT_SOLVE
    assert report["error"]["type"] == "ValidationFailure"
    assert "worst relative residual 6e-07" in report["error"]["message"]
    assert not out.exists()


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


def test_reduce_overflowing_float_pushforward_exits_2(tmp_path, capsys):
    # Float data whose degree-4 entries are 5e307: (x1 + x2)^4 pushes them
    # past double range, and a file holding the inf entries would not read
    # back.
    lines = ["momentfile v1 dim=2 degree=4"]
    for alpha in monomials_up_to(2, 4):
        value = 5e307 if sum(alpha) == 4 else float(1 + sum(alpha))
        lines.append(f"{alpha[0]} {alpha[1]} {value!r}")
    moments = tmp_path / "big.mom"
    moments.write_text("\n".join(lines) + "\n")
    gens = tmp_path / "sum.txt"
    gens.write_text("x1 + x2\nx1\n")
    out = tmp_path / "pushed.mom"
    code, report = run_json(
        capsys, "reduce", str(moments), str(gens), str(out),
        "--image-degree", "4", "--allow-subalgebra",
    )
    assert code == EXIT_INPUT
    assert report == {
        "error": "moment (4, 0) is inf and has no stored log; a moment file "
        "cannot hold it",
        "exit": EXIT_INPUT,
    }
    assert not out.exists()


@pytest.mark.parametrize(
    "gens_text, message",
    [(None, "No such file"), ("x1 x2\n", "line 1")],
    ids=["missing", "malformed"],
)
def test_reduce_unreadable_generators_exits_2(tmp_path, capsys, gens_text, message):
    moments, _ = make_curve_inputs(tmp_path, capsys, [[1.0, 1.5, 2.25]])
    gens = tmp_path / "bad-gens.txt"
    if gens_text is not None:
        gens.write_text(gens_text)
    out = tmp_path / "p.mom"
    code, report = run_json(capsys, "reduce", moments, str(gens), str(out))
    assert code == EXIT_INPUT
    assert list(report) == ["error", "exit"]
    assert report["exit"] == EXIT_INPUT
    assert message in report["error"]
    assert not out.exists()


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
    verify = stage_named(report, "verify")
    assert verify["ok"] is True
    # Without --tol the verify stage checks at the default tolerance.
    assert verify["tolerance"] == matrices.DEFAULT_PSD_TOL
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
    # The 1-D image solve goes through the dispatch of ``solve``, with no
    # gate on the pushed data and so no residual.
    solve = stage_named(report, "solve")
    assert solve["mode"] == "1d"
    assert {"jacobi_diag", "jacobi_offdiag"} <= solve.keys()
    assert "max_residual" not in solve
    verify = stage_named(report, "verify")
    assert verify["ok"] is False
    assert verify["worst_residual"] > verify["tolerance"]


def test_pipeline_marker_miss_fails_verification(tmp_path, capsys):
    # Two atoms on the curve x2 = x1^2; their (0, 8) moment is 12.8, but the
    # file claims e^800. The solve and pull-back read through degree 4 only,
    # so the verify stage meets the entry as an inf marker, compares it in
    # logs and finds the relative residual |12.8 - e^800| / e^800 = 1.
    spec = write_spec(
        tmp_path,
        "pc.json",
        {
            "fixture": "power-curve",
            "exponent": 2,
            "degree": 8,
            "atoms": [[0.5, 0.5, 0.25], [0.5, 1.0, 1.5]],
        },
    )
    moments, gens = tmp_path / "pc.mom", tmp_path / "pc.gens"
    argv = ["generate", spec, str(moments), "--generators-out", str(gens), "--exact"]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    lines = moments.read_text().splitlines()
    bad = tmp_path / "bad.mom"
    bad.write_text(
        "\n".join("0 8 log:800" if ln.startswith("0 8 ") else ln for ln in lines)
        + "\n"
    )
    out = tmp_path / "out.atoms"
    code, report = run_json(capsys, "pipeline", str(bad), str(gens), str(out))
    assert code == EXIT_PULLBACK
    verify = stage_named(report, "verify")
    assert verify["ok"] is False
    assert verify["worst_residual"] == 1.0
    assert not out.exists()


def float_curve_files(tmp_path, fixture, s=None):
    """A power-curve fixture's float moment file (of ``s`` if given) and
    generator file."""
    moments, gens = tmp_path / "curve.mom", tmp_path / "curve.gens"
    fileformats.write_moment_file(moments, fixture.moments if s is None else s)
    fileformats.write_polynomials_file(gens, fixture.presentation.generators, "x")
    return str(moments), str(gens)


#: The float degree-12 moments of 1.5648 delta at (2.4785, 3.2385) above the
#: line x2 = x1.  Pushed forward by (x2 - x1, x1), whose degree-12 powers
#: cancel terms near 1e9, they miss the image of their own measure by
#: 1.26e-7 relative: the pushforward's rounding, above the default tol.
ROUNDING_FIXTURE = fixtures.power_curve_fixture(
    1, AtomicMeasure(2, [((2.4785, 3.2385), 1.5648)]), 12
)


def test_pipeline_judges_only_the_input_data(tmp_path, capsys):
    moments, gens = float_curve_files(tmp_path, ROUNDING_FIXTURE)
    out = tmp_path / "out.atoms"
    code, report = run_json(capsys, "pipeline", moments, gens, str(out))
    assert code == EXIT_OK
    assert stage_named(report, "verify")["worst_residual"] <= 1e-8
    [atom] = report["measure"]["atoms"]
    assert atom["point"] == pytest.approx([2.4785, 3.2385], abs=1e-6)
    assert atom["weight"] == pytest.approx(1.5648, abs=1e-6)
    assert out.exists()


def test_pipeline_refuses_a_moved_input_entry_at_verify(tmp_path, capsys):
    # The input's (12, 0) entry moved by 10 tol: the pushed data still gives
    # the atom, and verify refuses it on the input data.
    values = dict(ROUNDING_FIXTURE.moments.values)
    values[(12, 0)] *= 1 + 1e-7
    moved = MomentSequence(2, 12, values)
    moments, gens = float_curve_files(tmp_path, ROUNDING_FIXTURE, moved)
    out = tmp_path / "out.atoms"
    code, report = run_json(capsys, "pipeline", moments, gens, str(out))
    assert code == EXIT_PULLBACK
    assert stage_named(report, "pullback")["ok"] is True
    verify = stage_named(report, "verify")
    assert verify["ok"] is False
    assert verify["worst_residual"] == pytest.approx(1e-7, rel=1e-2)
    assert not out.exists()


@pytest.mark.parametrize("seed", [1002, 1004])
def test_pipeline_solves_float_curve_data_whose_pushforward_rounds(
    tmp_path, capsys, seed
):
    # The k = 1 cases of criterion 4's generator as float files.  On these
    # seeds the pushed data of several cases misses the pushed true measure
    # by more than tol, as the rounding fixture's does.
    rng = np.random.default_rng(seed)
    for _ in range(40):
        measure = feasible_region_measure(rng, 1, int(rng.integers(1, 4)))
        fixture = fixtures.power_curve_fixture(1, measure, 12)
        moments, gens = float_curve_files(tmp_path, fixture)
        code, report = run_json(capsys, "pipeline", moments, gens, str(tmp_path / "o"))
        assert code == EXIT_OK, report["stages"][-1]
        atoms = [(tuple(a["point"]), a["weight"]) for a in report["measure"]["atoms"]]
        assert max(measure_errors(measure, AtomicMeasure(2, atoms))) <= 1e-6


def far_atom_file(tmp_path, capsys):
    """Exact degree-12 moments of the point mass at 1e40: finite doubles
    through degree 7 (1e280), ``log:`` markers from degree 8 (1e320) on."""
    spec = write_spec(tmp_path, "far.json", atomic_spec(1, 12, [[1.0, 1e40]]))
    moments = tmp_path / "far.mom"
    assert main(["generate", spec, str(moments), "--exact"]) == EXIT_OK
    capsys.readouterr()
    return moments


def test_pipeline_power_beyond_double_range_is_verified_in_logs(tmp_path, capsys):
    # The atom 1e40 solves and pulls back at image degree 6, where its powers
    # reach 1e240; verify compares degrees 8..12, beyond double range, in logs.
    moments = far_atom_file(tmp_path, capsys)
    gens = tmp_path / "x.txt"
    gens.write_text("x1\n")
    out = tmp_path / "far.atoms"
    code, report = run_json(
        capsys, "pipeline", str(moments), str(gens), str(out), "--image-degree", "6"
    )
    assert code == EXIT_OK
    verify = stage_named(report, "verify")
    assert verify["ok"] is True
    assert verify["worst_residual"] <= verify["tolerance"]
    assert report["measure"]["atoms"] == [{"weight": 1.0, "point": [1e40]}]
    assert out.exists()


def test_pipeline_perturbed_marker_fails_verification(tmp_path, capsys):
    # The same file with the degree-12 log raised by 1e-5: a relative miss of
    # about 1e-5 on an entry beyond double range, which only verify reads.
    moments = far_atom_file(tmp_path, capsys)
    lines = moments.read_text().splitlines()
    log12 = float(lines[-1].split("log:")[1])
    lines[-1] = f"12 log:{log12 + 1e-5!r}"
    moments.write_text("\n".join(lines) + "\n")
    gens = tmp_path / "x.txt"
    gens.write_text("x1\n")
    out = tmp_path / "far.atoms"
    code, report = run_json(
        capsys, "pipeline", str(moments), str(gens), str(out), "--image-degree", "6"
    )
    assert code == EXIT_PULLBACK
    verify = stage_named(report, "verify")
    assert verify["ok"] is False
    assert verify["worst_residual"] == pytest.approx(1e-5, rel=1e-3)
    assert "misses the input moments" in verify["error"]
    assert not out.exists()


def test_reduce_keeps_the_markers_of_a_one_term_image(tmp_path, capsys):
    # x1 pushes each marker forward with its log, and ``solve`` answers the
    # written file as it answers the original one.
    moments = far_atom_file(tmp_path, capsys)
    gens = tmp_path / "x.txt"
    gens.write_text("x1\n")
    pushed = tmp_path / "pushed.mom"
    code, _ = run_json(capsys, "reduce", str(moments), str(gens), str(pushed))
    assert code == EXIT_OK
    assert fileformats.read_moment_file(pushed) == fileformats.read_moment_file(moments)
    code, report = run_json(capsys, "solve", str(pushed), str(tmp_path / "s.atoms"))
    assert code == EXIT_OK
    assert report["solved_degree"] == 7
    assert report["measure"]["atoms"] == [{"weight": 1.0, "point": [1e40]}]


@pytest.mark.parametrize("generator, code", [("x1 + 1", EXIT_OK), ("x1 - 1", EXIT_INPUT)])
def test_reduce_pushes_markers_through_positive_terms(tmp_path, capsys, generator, code):
    # The images of x1 + 1 sum positive terms, and their markers keep the
    # log of that sum: ``solve`` answers the written file with the atom
    # 1e40 + 1.  x1 - 1 has a negative coefficient: its sums are inf with
    # no log.
    moments = far_atom_file(tmp_path, capsys)
    gens = tmp_path / "x.txt"
    gens.write_text(generator + "\n")
    pushed = tmp_path / "pushed.mom"
    got, report = run_json(capsys, "reduce", str(moments), str(gens), str(pushed))
    assert got == code
    if code == EXIT_INPUT:
        assert "moment (8,) is inf and has no stored log" in report["error"]
        assert not pushed.exists()
        return
    code, report = run_json(capsys, "solve", str(pushed), str(tmp_path / "s.atoms"))
    assert code == EXIT_OK
    assert report["solved_degree"] == 7
    assert report["measure"]["atoms"] == [{"weight": 1.0, "point": [1e40]}]


@pytest.mark.parametrize("generator, code", [("x1 + 1", EXIT_OK), ("x1 - 1", EXIT_OK)])
def test_pipeline_pushes_markers_through_positive_terms(tmp_path, capsys, generator, code):
    moments = far_atom_file(tmp_path, capsys)
    gens = tmp_path / "x.txt"
    gens.write_text(generator + "\n")
    out = tmp_path / "far.atoms"
    got, report = run_json(capsys, "pipeline", str(moments), str(gens), str(out))
    assert got == code
    verify = stage_named(report, "verify")
    assert verify["ok"] is True
    assert report["measure"]["atoms"] == [{"weight": 1.0, "point": [1e40]}]
    if generator == "x1 - 1":
        # Its pushed entries from degree 8 on are inf with no log: the solve
        # stage reads the prefix through degree 7, and verify compares the
        # pulled-back atom with the input's markers.
        assert stage_named(report, "solve")["solved_degree"] == 7
        assert verify["worst_residual"] == 0.0


@pytest.mark.parametrize("shift, code", [(0.0, EXIT_OK), (1e-5, EXIT_SOLVE)])
def test_pipeline_solves_markers_at_the_default_image_degree(
    tmp_path, capsys, shift, code
):
    # At image degree 12 the pipeline proposes from the pushed markers and
    # verifies on the input's.  With the degree-12 log raised by 1e-5,
    # ``solve`` refuses the file (exit 5) and ``pipeline`` its verify stage
    # (exit 6), on the same residual.
    moments = far_atom_file(tmp_path, capsys)
    lines = moments.read_text().splitlines()
    log12 = float(lines[-1].split("log:")[1])
    lines[-1] = f"12 log:{log12 + shift!r}"
    moments.write_text("\n".join(lines) + "\n")
    (s_code, report), (p_code, p_report), p_solve = _solve_both_ways(
        tmp_path, capsys, moments
    )
    assert (s_code, p_code) == (code, EXIT_PULLBACK if code == EXIT_SOLVE else code)
    verify = stage_named(p_report, "verify")
    if code == EXIT_OK:
        assert verify["ok"] is True
        assert verify["worst_residual"] <= 1e-12
        assert p_report["measure"] == report["measure"]
    else:
        assert p_solve["ok"] is True
        assert report["error"]["type"] == "ValidationFailure"
        assert verify["ok"] is False
        for message in (report["error"]["message"], verify["error"]):
            assert "worst relative residual 9.99995e-06 exceeds" in message


def _solve_both_ways(tmp_path, capsys, moments, *pipeline_flags):
    """``solve`` and ``pipeline`` with the generator ``x1`` on one 1-D file:
    (code, report) of each, and the pipeline's solve stage."""
    gens = tmp_path / "x.txt"
    gens.write_text("x1\n")
    solved = run_json(capsys, "solve", str(moments), str(tmp_path / "s.atoms"))
    piped = run_json(
        capsys, "pipeline", str(moments), str(gens), str(tmp_path / "p.atoms"),
        *pipeline_flags,
    )
    return solved, piped, stage_named(piped[1], "solve")


def test_solve_and_pipeline_refuse_a_marker_the_prefix_misses(tmp_path, capsys):
    # The prefix 1, 2, 4 is the point mass at 2, whose s_3 is 8, not e^800.
    moments = tmp_path / "d2.mom"
    moments.write_text("momentfile v1 dim=1 degree=3\n0 1\n1 2\n2 4\n3 log:800\n")
    (code, report), (p_code, p_report), _ = _solve_both_ways(tmp_path, capsys, moments)
    assert (code, p_code) == (EXIT_SOLVE, EXIT_PULLBACK)
    assert report["solved_degree"] == 2
    assert report["error"]["type"] == "ValidationFailure"
    # ``solve`` and ``pipeline``'s verify stage compare the marker's log.
    verify = stage_named(p_report, "verify")
    assert verify["ok"] is False
    assert "worst relative residual 1 exceeds" in report["error"]["message"]
    assert "worst relative residual 1 exceeds" in verify["error"]


def test_solve_and_pipeline_refuse_lognormal_data(tmp_path, capsys):
    moments = tmp_path / "logn.mom"
    fileformats.write_moment_file(moments, fixtures.moments_lognormal(40))
    (code, report), (p_code, p_report), _ = _solve_both_ways(tmp_path, capsys, moments)
    assert (code, p_code) == (EXIT_SOLVE, EXIT_PULLBACK)
    assert report["error"]["type"] == "ValidationFailure"
    assert stage_named(p_report, "verify")["ok"] is False


def test_solve_and_pipeline_accept_a_point_beyond_double_range(tmp_path, capsys):
    moments = far_atom_file(tmp_path, capsys)
    (code, report), (p_code, p_report), _ = _solve_both_ways(
        tmp_path, capsys, moments, "--image-degree", "6"
    )
    assert (code, p_code) == (EXIT_OK, EXIT_OK)
    assert report["solved_degree"] == 7
    assert stage_named(p_report, "verify")["ok"] is True
    assert report["measure"] == p_report["measure"]
    assert report["measure"]["atoms"] == [{"weight": 1.0, "point": [1e40]}]


def test_solve_accepts_symmetric_atoms_beyond_double_range(tmp_path, capsys):
    # 1/2 (delta at -1e50 + delta at 1e50) to degree 16: the prefix stops at
    # degree 7, and the odd entries above it are 0, where the two terms of
    # about 1e450 and more cancel exactly.
    spec = write_spec(
        tmp_path, "sym.json", atomic_spec(1, 16, [[0.5, -1e50], [0.5, 1e50]])
    )
    moments = tmp_path / "sym.mom"
    assert main(["generate", spec, str(moments), "--exact"]) == EXIT_OK
    capsys.readouterr()
    code, report = run_json(capsys, "solve", str(moments), str(tmp_path / "s.atoms"))
    assert code == EXIT_OK
    assert report["solved_degree"] == 7
    points = [atom["point"][0] for atom in report["measure"]["atoms"]]
    assert points == pytest.approx([-1e50, 1e50])


def test_solve_and_pipeline_agree_on_finite_data(tmp_path, capsys):
    moments = one_d_atomic_file(tmp_path, capsys)
    (code, report), (p_code, p_report), p_solve = _solve_both_ways(
        tmp_path, capsys, moments
    )
    assert (code, p_code) == (EXIT_OK, EXIT_OK)
    # The report of finite data is the 1-D solver's result, key for key.
    result = univariate.solve_1d(fileformats.read_moment_file(moments))
    detail = {
        "mode": "1d",
        "rank": 3,
        "stieltjes_supported": True,
        "max_residual": result.max_residual,
        "jacobi_diag": result.jacobi.diag,
        "jacobi_offdiag": result.jacobi.offdiag,
    }
    assert report == {
        "moments": moments,
        "dim": 1,
        "degree": 6,
        **detail,
        "measure": {
            "atom_count": 3,
            "total_mass": float(result.measure.total_mass),
            "atoms": [
                {"weight": w, "point": list(pt)}
                for pt, w in result.measure.sorted_atoms()
            ],
        },
        "out": str(tmp_path / "s.atoms"),
    }
    assert list(report) == ["moments", "dim", "degree", *detail, "measure", "out"]
    # The pipeline's solve stage only proposes: it has no residual.
    proposed = {k: v for k, v in detail.items() if k != "max_residual"}
    assert {k: p_solve[k] for k in proposed} == proposed
    assert "max_residual" not in p_solve
    assert report["measure"] == p_report["measure"]


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


def test_pipeline_solve_failure_exits_5(tmp_path, capsys):
    # Three atoms on the parabola at degree 4 push to image degree 2, where
    # no flat level exists.
    atoms = [[0.4, 1.0, 1.0], [0.4, 2.0, 4.0], [0.2, 3.0, 9.0]]
    moments, gens = make_curve_inputs(tmp_path, capsys, atoms, degree=4)
    out = tmp_path / "o.atoms"
    code, report = run_json(capsys, "pipeline", moments, gens, str(out))
    assert code == EXIT_SOLVE
    assert list(report) == ["stages", "exit"]
    assert report["exit"] == EXIT_SOLVE
    assert [st["stage"] for st in report["stages"]] == [
        "inputs", "generation", "pushforward", "solve"
    ]
    solve = report["stages"][-1]
    assert list(solve) == ["stage", "ok", "error_type", "error"]
    assert solve["ok"] is False
    assert solve["error_type"] == "NotFlat"
    assert solve["error"].startswith("no truncation level up to 1")
    assert not out.exists()


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


@pytest.mark.parametrize("image_degree", ["0", "1"])
def test_pipeline_image_degree_too_short_to_solve_exits_2_like_solve(
    tmp_path, capsys, image_degree
):
    moments, gens = make_curve_inputs(tmp_path, capsys, [[1.0, 1.5, 2.25]])
    out = tmp_path / "o.atoms"
    code, report = run_json(
        capsys, "pipeline", moments, gens, str(out), "--image-degree", image_degree
    )
    assert code == EXIT_INPUT
    assert report["exit"] == EXIT_INPUT
    solve = stage_named(report, "solve")
    assert solve["ok"] is False
    assert solve["error_type"] == "DegreeOverflow"
    assert not out.exists()


def test_solve_level_deeper_than_data_exits_2_like_check(tmp_path, capsys):
    # Degree-12 data holds moment matrices up to level 6.
    moments, gens = make_curve_inputs(tmp_path, capsys, [[1.0, 1.5, 2.25]])
    code, report = run_json(capsys, "check", moments, "--level", "9")
    assert code == EXIT_INPUT
    assert "degree 18" in report["error"]

    out = tmp_path / "o.atoms"
    code, report = run_json(
        capsys, "solve", moments, str(out), "--mode", "md", "--level", "9"
    )
    assert code == EXIT_INPUT
    assert report["exit"] == EXIT_INPUT
    assert report["error"]["type"] == "DegreeOverflow"
    assert "degree 18" in report["error"]["message"]
    assert not out.exists()


# ---------------------------------------------------------------------------
# tolerance and seed options


def spy_on(monkeypatch, module, name):
    """Record the positional arguments of every call to ``module.name``,
    which still runs."""
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


#: Values no default has, so each one seen in a call came from its flag.
SOLVE_FLAGS = ["--rank-tol", "3e-11", "--tol", "2.5e-6", "--seed", "17"]


def test_check_tol_reaches_the_hypothesis_check(tmp_path, capsys, monkeypatch):
    calls = spy_on(monkeypatch, matrices, "check_hypotheses")
    code, _ = run_json(capsys, "check", make_factorial_file(tmp_path), "--tol", "2.5e-6")
    assert code == EXIT_OK
    assert [c[3] for c in calls] == [2.5e-6]


def test_solve_options_reach_the_solvers(tmp_path, capsys, monkeypatch):
    md = spy_on(monkeypatch, multivariate, "extract_atoms_auto")
    one_d = spy_on(monkeypatch, univariate, "gauss_rule")
    gate = spy_on(monkeypatch, solver, "require_reproduced")
    atoms = [[0.5, 1.0, 2.0], [0.3, 3.0, 1.0], [0.2, 5.0, 4.0]]
    spec = write_spec(tmp_path, "md.json", atomic_spec(2, 4, atoms))
    moments = str(tmp_path / "md.mom")
    assert main(["generate", spec, moments]) == EXIT_OK
    capsys.readouterr()

    code, _ = run_json(capsys, "solve", moments, str(tmp_path / "md.msr"), *SOLVE_FLAGS)
    assert code == EXIT_OK
    assert [c[1:] for c in md] == [(3e-11, 2.5e-6, 17)]

    spec = write_spec(tmp_path, "1d.json", atomic_spec(1, 8, [a[:2] for a in atoms]))
    moments = str(tmp_path / "1d.mom")
    assert main(["generate", spec, moments]) == EXIT_OK
    capsys.readouterr()
    code, _ = run_json(capsys, "solve", moments, str(tmp_path / "1d.msr"), *SOLVE_FLAGS)
    assert code == EXIT_OK
    assert [c[1:] for c in one_d] == [(3e-11,)]
    assert [c[2] for c in gate] == [2.5e-6, 2.5e-6]


def test_pipeline_options_reach_the_solver_and_pull_back(tmp_path, capsys, monkeypatch):
    atoms = [[0.75, 1.5, 2.25], [0.25, 0.25, 0.0625]]
    moments, gens = make_curve_inputs(tmp_path, capsys, atoms)
    md = spy_on(monkeypatch, multivariate, "extract_atoms_auto")
    pull = spy_on(monkeypatch, reduction, "pull_back_atoms")
    code, report = run_json(
        capsys, "pipeline", moments, gens, str(tmp_path / "r.msr"), *SOLVE_FLAGS
    )
    assert code == EXIT_OK
    assert [c[1:] for c in md] == [(3e-11, 2.5e-6, 17)]
    assert [c[3] for c in pull] == [2.5e-6]
    assert stage_named(report, "verify")["tolerance"] == 2.5e-6


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
        (["solve", "m.mom", "o.msr"], "--seed", 0),
        (["reduce", "m.mom", "g.txt", "p.mom"], "--budget", 1),
        (["reduce", "m.mom", "g.txt", "p.mom"], "--image-degree", 0),
        (["pipeline", "m.mom", "g.txt", "o.msr"], "--budget", 1),
        (["pipeline", "m.mom", "g.txt", "o.msr"], "--image-degree", 0),
        (["pipeline", "m.mom", "g.txt", "o.msr"], "--seed", 0),
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


@pytest.mark.parametrize(
    "argv, flag, bound, bad",
    [
        (["check", "m.mom"], "--tol", ">= 0", ["-1", "nan", "inf"]),
        (["solve", "m.mom", "o.msr"], "--tol", ">= 0", ["-1", "nan", "inf"]),
        (["pipeline", "m.mom", "g.txt", "o.msr"], "--tol", ">= 0", ["-1e-9", "nan"]),
        (["solve", "m.mom", "o.msr"], "--rank-tol", "in [0, 1)", ["-1", "1", "2", "nan"]),
        (["pipeline", "m.mom", "g.txt", "o.msr"], "--rank-tol", "in [0, 1)", ["1", "-inf"]),
    ],
    ids=["check-tol", "solve-tol", "pipeline-tol", "solve-rank-tol", "pipeline-rank-tol"],
)
def test_tolerance_flag_out_of_range_is_a_usage_error(argv, flag, bound, bad, capsys):
    # A negative or nan --tol failed PSD data and an inf one passed every
    # matrix; --rank-tol 1 or more counted no singular value at all.
    parsed = build_parser().parse_args([*argv, flag, "0"])
    assert getattr(parsed, flag[2:].replace("-", "_")) == 0.0

    for value in bad:
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"{flag}={value}"])
        assert exc.value.code == EXIT_INPUT
        assert f"{flag}: must be a finite number {bound}, got {value}" in capsys.readouterr().err

    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, "abc"])
    assert exc.value.code == EXIT_INPUT
    assert f"{flag}: invalid float value: 'abc'" in capsys.readouterr().err


def test_non_integer_flag_keeps_the_argparse_message(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "m.mom", "--count", "abc"])
    assert exc.value.code == EXIT_INPUT
    assert "--count: invalid int value: 'abc'" in capsys.readouterr().err



# ---------------------------------------------------------------------------
# report rendering


def _reference_sanitize(value):
    """The JSON pass the text renderer ran first, kept as the reference."""
    if isinstance(value, dict):
        return {k: _reference_sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_reference_sanitize(v) for v in value]
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(value)
    return value


def _reference_text_lines(value, indent=0):
    """The text renderer as it ran on a sanitized report."""
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.extend(_reference_text_lines(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_reference_text_lines(v, indent + 1))
            else:
                lines.append(f"{pad}- {v}")
    else:
        lines.append(f"{pad}{value}")
    return lines


_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0]),
)
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.text(max_size=6),
    _FLOATS,
    _FLOATS.map(np.float64),
)
_TREES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(report=st.dictionaries(st.text(max_size=4), _TREES, max_size=5))
def test_text_report_is_the_sanitized_report_rendered(report):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(report, "text")
    expected = "\n".join(_reference_text_lines(_reference_sanitize(report))) + "\n"
    assert out.getvalue() == expected


def test_text_report_writes_non_finite_floats_by_repr():
    report = {
        "worst": math.inf,
        "levels": (np.float64(-math.inf), math.nan, 1.5, np.float64(2.5)),
        "empty": {},
        "none": [],
    }
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(report, "text")
    assert out.getvalue().splitlines() == [
        "worst: inf",
        "levels:",
        f"  - {np.float64(-math.inf)!r}",
        "  - nan",
        "  - 1.5",
        "  - 2.5",
        "empty:",
        "none:",
    ]


# ---------------------------------------------------------------------------
# no traceback

#: Moment-file value tokens: ordinary, zero, negative, huge and tiny floats
#: and integers, and (but for the mass, which must be finite) ``log:``
#: tokens of entries inside and outside double range.
_FINITE_TOKENS = st.one_of(
    st.floats(-10.0, 10.0).map(repr),
    st.sampled_from(["0.0", "-0.0", "1e200", "-1e200", "1.7e308", "1e-200", "-5e-324"]),
    st.integers(-1000, 1000).map(str),
)
_VALUE_TOKENS = _FINITE_TOKENS | st.floats(-800.0, 800.0).map(lambda lv: f"log:{lv!r}")

#: s = (1, 1e200, 1): the growth scale 1e200 has a square beyond double
#: range, which the 1-D rule refuses as :class:`EigenFailure`.
_GROWTH_OVERFLOW = "momentfile v1 dim=1 degree=2\n0 1.0\n1 1e200\n2 1.0\n"


@st.composite
def _moment_files(draw):
    """The dimension and text of a valid moment file of dim 1-2 and degree
    1-7 with random tokens."""
    dim, degree = draw(st.integers(1, 2)), draw(st.integers(1, 7))
    lines = [f"momentfile v1 dim={dim} degree={degree}"]
    for alpha in monomials_up_to(dim, degree):
        token = draw(_VALUE_TOKENS if any(alpha) else _FINITE_TOKENS)
        lines.append(" ".join([*map(str, alpha), token]))
    return dim, "\n".join(lines) + "\n"


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=_moment_files())
@example(case=(1, _GROWTH_OVERFLOW))
def test_no_command_ends_in_a_traceback(tmp_path, capsys, case):
    dim, text = case
    moments = tmp_path / "random.mom"
    moments.write_text(text)
    gens = tmp_path / f"identity{dim}.txt"
    gens.write_text("".join(f"x{j + 1}\n" for j in range(dim)))
    out = str(tmp_path / "out.msr")
    for argv in (
        ["check", str(moments)],
        ["solve", str(moments), out],
        ["pipeline", str(moments), str(gens), out],
    ):
        code = main([*argv, "--format", "json"])
        capsys.readouterr()
        assert code in (EXIT_OK, 2, 3, 4, 5, 6), argv


@pytest.mark.parametrize("command", ["solve", "pipeline"])
def test_growth_scale_overflow_is_a_solver_failure(tmp_path, capsys, command):
    moments = tmp_path / "overflow.mom"
    moments.write_text(_GROWTH_OVERFLOW)
    gens = tmp_path / "identity.txt"
    gens.write_text("x1\n")
    inputs = [str(moments), str(gens)] if command == "pipeline" else [str(moments)]
    code, report = run_json(capsys, command, *inputs, str(tmp_path / "o.msr"))
    assert code == EXIT_SOLVE
    if command == "solve":
        assert report["error"]["type"] == "EigenFailure"
    else:
        assert stage_named(report, "solve")["error_type"] == "EigenFailure"


@pytest.mark.parametrize("command", ["solve", "pipeline"])
def test_growth_scale_beyond_double_range_is_a_solver_failure(tmp_path, capsys, command):
    # |s_4 / s_0| = 2e440: the growth scale itself is inf.
    values = ["4.8e-241", "2.7e-141", "-0.36", "-819", "1e200", "837", "0"]
    moments = tmp_path / "scale.mom"
    moments.write_text(
        "momentfile v1 dim=1 degree=6\n" + "".join(f"{k} {v}\n" for k, v in enumerate(values))
    )
    gens = tmp_path / "identity.txt"
    gens.write_text("x1\n")
    inputs = [str(moments), str(gens)] if command == "pipeline" else [str(moments)]
    code, report = run_json(capsys, command, *inputs, str(tmp_path / "o.msr"))
    assert code == EXIT_SOLVE
    if command == "solve":
        assert report["error"]["type"] == "EigenFailure"
    else:
        assert stage_named(report, "solve")["error_type"] == "EigenFailure"


def test_tiny_data_with_a_negative_second_moment_is_a_solver_failure(tmp_path, capsys):
    # (1, 0, -1) scaled by 1e-9: the one-atom rule misses s_2 by 1e-9 in
    # the caller's units and by 1 with the mass divided out.
    moments = tmp_path / "tiny.mom"
    moments.write_text("momentfile v1 dim=1 degree=2\n0 1e-9\n1 0.0\n2 -1e-9\n")
    code, report = run_json(capsys, "solve", str(moments), str(tmp_path / "o.msr"))
    assert code == EXIT_SOLVE
    assert report["error"]["type"] == "ValidationFailure"
