"""Moment matrix, localizing matrix, PSD verdicts, numerical rank."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from momentkit import (
    EigenFailure,
    MomentSequence,
    Polynomial,
    check_hypotheses,
    localizing_matrix,
    moment_matrix,
    moments_factorial,
    moments_of_atomic,
    numerical_rank,
    psd_check,
    AtomicMeasure,
)
from momentkit import matrices
from momentkit.matrices import (
    _require_table_reproduces,
    _require_within,
    _residuals,
    monomial_values,
    reproduction_residuals,
    require_reproduced,
)
from momentkit.polynomials import _log, _to_float, add_indices, monomials_up_to
from momentkit.errors import DegreeOverflow, DimMismatch, ValidationFailure
from test_array_forms import _ref_psd_check


class TestMomentMatrix:
    def test_factorial_level_two(self):
        # s_k = k! gives entries s_{i+j}:
        #   [[0!, 1!, 2!], [1!, 2!, 3!], [2!, 3!, 4!]].
        s = moments_factorial(4)
        m = moment_matrix(s, 2)
        assert m.basis == [(0,), (1,), (2,)]
        np.testing.assert_array_equal(
            m.entries, [[1.0, 1.0, 2.0], [1.0, 2.0, 6.0], [2.0, 6.0, 24.0]]
        )

    def test_two_dim_basis_order(self):
        mu = AtomicMeasure(2, [((1.0, 2.0), 1.0)])
        s = moments_of_atomic(mu, 2)
        m = moment_matrix(s, 1)
        assert m.basis == [(0, 0), (1, 0), (0, 1)]
        # Entry ((1,0), (0,1)) = s_(1,1) = 1 * 2.
        np.testing.assert_allclose(
            m.entries, [[1.0, 1.0, 2.0], [1.0, 1.0, 2.0], [2.0, 2.0, 4.0]]
        )

    def test_rank_equals_atom_count(self):
        mu = AtomicMeasure(
            2, [((1.0, 2.0), 0.5), ((3.0, 1.0), 0.3), ((5.0, 4.0), 0.2)]
        )
        s = moments_of_atomic(mu, 4)
        assert numerical_rank(moment_matrix(s, 2)) == 3
        assert numerical_rank(moment_matrix(s, 1)) == 3

    def test_symmetry_validated(self):
        from momentkit import SymmetricMatrixWithBasis

        with pytest.raises(ValueError):
            SymmetricMatrixWithBasis([(0,), (1,)], np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestLocalizingMatrix:
    def test_level_zero_is_riesz_value(self):
        # The 1 x 1 localizing matrix is exactly L(f).
        mu = AtomicMeasure(1, [((2.0,), 0.7)])
        s = moments_of_atomic(mu, 2, exact=True)
        f = Polynomial(1, {(1,): Fraction(1), (0,): Fraction(-3)})  # x - 3
        loc = localizing_matrix(s, f, 0)
        assert loc.entries.shape == (1, 1)
        assert loc.entries[0, 0] == pytest.approx(0.7 * (2.0 - 3.0))

    def test_coordinate_shift_on_factorial(self):
        # Localizing by f = x shifts every index by one: entries s_{i+j+1}.
        s = moments_factorial(3)
        loc = localizing_matrix(s, Polynomial.variable(1, 0), 1)
        np.testing.assert_array_equal(loc.entries, [[1.0, 2.0], [2.0, 6.0]])

    def test_zero_polynomial_gives_zero_matrix(self):
        s = moments_factorial(2)
        loc = localizing_matrix(s, Polynomial.zero(1), 1)
        np.testing.assert_array_equal(loc.entries, np.zeros((2, 2)))

    def test_atom_violating_constraint_not_psd(self):
        # f(atom) < 0 forces a negative localizing matrix for a point mass.
        mu = AtomicMeasure(1, [((2.0,), 1.0)])
        s = moments_of_atomic(mu, 4, exact=True)
        f = Polynomial(1, {(0,): Fraction(1), (1,): Fraction(-1)})  # 1 - x
        verdict = psd_check(localizing_matrix(s, f, 1))
        assert not verdict.is_psd


class TestPsdCheck:
    def test_indefinite_matrix(self):
        # Eigenvalues of [[1, 2], [2, 1]] are 3 and -1.
        verdict = psd_check(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert not verdict.is_psd
        assert verdict.min_eigenvalue == pytest.approx(-1.0)

    def test_identity(self):
        verdict = psd_check(np.eye(3))
        assert verdict.is_psd
        assert verdict.min_eigenvalue == pytest.approx(1.0)

    def test_huge_scale_no_overflow(self):
        verdict = psd_check(1e300 * np.eye(2))
        assert verdict.is_psd

    def test_entries_near_double_max(self):
        # Scaling comes before symmetrizing, and the verdict is taken in
        # scaled units: 1.5e308 + 1.5e308 and a row sum of 2e308 overflow.
        verdict = psd_check(np.diag([1.5e308, 1.0]))
        assert verdict.is_psd
        assert verdict.min_eigenvalue == pytest.approx(1.0)
        verdict = psd_check(np.array([[1e308, 1e308], [1e308, -1e308]]))
        assert not verdict.is_psd
        assert verdict.min_eigenvalue == pytest.approx(-math.sqrt(2) * 1e308)
        assert math.isfinite(verdict.tolerance_used)

    def test_subnormal_entries_keep_a_finite_tolerance(self):
        # 1 / scale overflows here; the tolerance is tol_rel * max(1, 1e-310).
        verdict = psd_check(np.diag([1e-310, -1e-311]))
        assert verdict.is_psd
        assert verdict.min_eigenvalue == -1e-311
        assert verdict.tolerance_used == 1e-8

    def test_tiny_negative_within_relative_tolerance(self):
        m = np.diag([1.0, -1e-12])
        assert psd_check(m).is_psd
        assert not psd_check(m, tol_rel=1e-14).is_psd

    def test_empty_matrix_is_psd(self):
        assert psd_check(np.zeros((0, 0))).is_psd

    def test_non_finite_entries_raise(self):
        with pytest.raises(EigenFailure):
            psd_check(np.array([[math.inf, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize(
        "entries",
        [
            [[7.0, 1.0], [1.0, math.nan]],  # NaN after a larger finite entry
            [[1.0, math.inf], [math.inf, 1.0]],
            [[2.0, 0.0], [0.0, -math.inf]],
        ],
        ids=["nan-after-larger", "+inf", "-inf"],
    )
    def test_non_finite_entry_found_from_the_scale(self, entries):
        with pytest.raises(EigenFailure, match="^matrix has non-finite entries$"):
            psd_check(np.array(entries))

    def test_all_subnormal_matrix_keeps_verdict_and_tolerance(self):
        m = np.array(
            [[3e-310, 1e-310, 0.0], [1e-310, 2e-310, -5e-324], [0.0, -5e-324, 1e-311]]
        )
        verdict = psd_check(m)
        assert verdict.is_psd
        assert verdict.tolerance_used == 1e-8
        assert verdict.min_eigenvalue == pytest.approx(
            float(np.linalg.eigvalsh(m * 1e300)[0]) / 1e300, rel=1e-9
        )
        # Every eigenvalue is within the tolerance tol_rel of zero.
        negative = psd_check(-m)
        assert negative.is_psd
        assert negative.min_eigenvalue < 0.0
        assert negative.tolerance_used == 1e-8


class TestNumericalRank:
    def test_rank_one(self):
        assert numerical_rank(np.array([[1.0, 1.0], [1.0, 1.0]])) == 1

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 3))) == 0

    def test_empty_matrix(self):
        assert numerical_rank(np.zeros((0, 0))) == 0

    def test_full_rank(self):
        assert numerical_rank(np.diag([3.0, 2.0, 1.0])) == 3

    def test_largest_singular_value_beyond_double_range(self):
        # sigma_1 = 2.55e308 overflows; the matrix scaled by 2**-1024 is ranked.
        assert numerical_rank(np.array([[1.7e308, 8.5e307], [8.5e307, 1.7e308]])) == 2

    def test_subnormal_matrix(self):
        assert numerical_rank(np.diag([5e-324, 5e-324])) == 2

    @settings(max_examples=200, deadline=None)
    @given(
        entries=st.lists(st.integers(-8, 8), min_size=1, max_size=25),
        n=st.integers(1, 5),
        k=st.integers(-1000, 1020) | st.integers(1014, 1020),
    )
    def test_scaling_by_a_power_of_two_keeps_the_rank(self, entries, n, k):
        # Small integers keep every nonzero singular value far above 1e-10
        # of the largest; 2**k keeps every entry normal and finite, while
        # sigma_1 overflows for the largest k.
        m = np.resize(np.array(entries, dtype=float), (n, n))
        assert numerical_rank(np.ldexp(m, k)) == numerical_rank(m)

    @pytest.mark.parametrize("marker", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_entry_raises(self, marker):
        m = np.eye(3)
        m[1, 2] = m[2, 1] = marker
        with pytest.raises(EigenFailure, match="^matrix has non-finite entries$"):
            numerical_rank(m)


class TestCheckHypotheses:
    def test_factorial_with_coordinate_constraint(self):
        # Factorial moments come from a measure on [0, inf), so both the
        # moment matrix and the x-localizing matrix are PSD.
        s = moments_factorial(6)
        report = check_hypotheses(s, [Polynomial.variable(1, 0)], level=2)
        assert report.passed
        assert report.moment_verdict.is_psd
        assert len(report.localizing_verdicts) == 1
        assert report.localizing_verdicts[0].is_psd

    def test_failing_constraint_reported(self):
        mu = AtomicMeasure(1, [((2.0,), 1.0)])
        s = moments_of_atomic(mu, 4, exact=True)
        f = Polynomial(1, {(0,): Fraction(1), (1,): Fraction(-1)})  # 1 - x
        report = check_hypotheses(s, [f], level=1)
        assert not report.passed
        assert report.moment_verdict.is_psd
        assert not report.localizing_verdicts[0].is_psd

    def test_indefinite_moment_matrix_fails(self):
        s = MomentSequence(1, 2, {(0,): 1.0, (1,): 0.0, (2,): -1.0})
        report = check_hypotheses(s, [], level=1)
        assert not report.passed
        assert not report.moment_verdict.is_psd


# check_hypotheses against one psd_check per matrix, in build order: each
# verdict is its matrix's own, and the first matrix, in that order, that
# cannot be built or checked decides the error.


def _one_check_per_matrix(s: MomentSequence, generators, level: int, tol_rel: float):
    moment = psd_check(moment_matrix(s, level), tol_rel)
    local = [psd_check(localizing_matrix(s, f, level), tol_rel) for f in generators]
    return repr(moment), [repr(v) for v in local]


def _line(values) -> MomentSequence:
    return MomentSequence(1, len(values) - 1, {(k,): v for k, v in enumerate(values)})


_X = Polynomial.variable(1, 0)
_BUILD_ERRORS = {
    "degree": (Polynomial(1, {(3,): Fraction(1)}), DegreeOverflow),
    "dim": (Polynomial.variable(2, 0), DimMismatch),
}
_MARKERS = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}


class TestCheckHypothesesIsOneCheckPerMatrix:
    @pytest.mark.parametrize("marker", _MARKERS.values(), ids=_MARKERS)
    @pytest.mark.parametrize("later", _BUILD_ERRORS.values(), ids=_BUILD_ERRORS)
    def test_non_finite_moment_matrix_raises_before_a_later_build_error(
        self, marker, later
    ):
        s = _line([1.0, marker, 2.0, 6.0, 24.0])
        with pytest.raises(EigenFailure, match="^matrix has non-finite entries$"):
            check_hypotheses(s, [Polynomial.zero(1), _X, later[0]], level=1)

    def test_non_finite_moment_matrix_raises_before_an_overflowing_entry(self):
        # The x-localizing matrix would convert the exact 10**400.
        s = _line([1, math.nan, 2, 10**400])
        with pytest.raises(EigenFailure, match="^matrix has non-finite entries$"):
            check_hypotheses(s, [_X], level=1)
        with pytest.raises(OverflowError):
            check_hypotheses(_line([1, 1, 2, 10**400]), [_X], level=1)

    @pytest.mark.parametrize("marker", _MARKERS.values(), ids=_MARKERS)
    @pytest.mark.parametrize("later", _BUILD_ERRORS.values(), ids=_BUILD_ERRORS)
    def test_non_finite_localizing_matrix_raises_before_the_next_build_error(
        self, marker, later
    ):
        # s_0 .. s_2 are finite; the x-localizing matrix reads s_3.
        s = _line([1.0, 1.0, 2.0, marker, 24.0])
        with pytest.raises(EigenFailure, match="^matrix has non-finite entries$"):
            check_hypotheses(s, [Polynomial.zero(1), _X, later[0]], level=1)
        # With every earlier matrix finite, the build error is raised.
        with pytest.raises(later[1]):
            check_hypotheses(s, [Polynomial.zero(1), later[0], _X], level=1)

    @pytest.mark.parametrize(
        "case",
        [
            "factorial",
            "near-double-max",
            "subnormal",
            "zeros",
            "random-float-2d",
            "random-exact-2d",
            "level-0",
        ],
    )
    @pytest.mark.parametrize("tol_rel", [1e-8, 0.0, 1e-14])
    # With no generators the stack holds the moment matrix alone.
    @pytest.mark.parametrize("alone", [False, True], ids=["generators", "moment-alone"])
    def test_verdicts_are_each_matrixs_own_bit_for_bit(self, case, tol_rel, alone):
        tiny = Polynomial(1, {(1,): Fraction(1e-320)})  # subnormal entries
        minus_one = Polynomial(1, {(0,): Fraction(1), (1,): Fraction(-1)})
        s, generators, level = {
            "factorial": (
                moments_factorial(6), [Polynomial.zero(1), _X, minus_one, tiny], 2
            ),
            "near-double-max": (
                moments_of_atomic(
                    AtomicMeasure(1, [((1.0,), 1e308), ((0.5,), 7e307)]), 5
                ),
                [_X, minus_one, Polynomial.zero(1), tiny, -1 * _X],
                2,
            ),
            "subnormal": (
                _line([1e-310, -1e-311, 3e-310, 5e-324, 2e-310, 0.0, 1e-309]),
                [tiny, _X, minus_one],
                2,
            ),
            "zeros": (_line([0.0] * 7), [Polynomial.zero(1), _X, minus_one], 2),
            "random-float-2d": (_random_data(2, 6, False, 7), _constraints(2), 2),
            "random-exact-2d": (_random_data(2, 6, True, 11), _constraints(2), 2),
            "level-0": (_random_data(2, 4, False, 3), _constraints(2), 0),
        }[case]
        if alone:
            generators = []
        report = check_hypotheses(s, generators, level, tol_rel)
        moment, local = _one_check_per_matrix(s, generators, level, tol_rel)
        assert report.level == level
        assert repr(report.moment_verdict) == moment
        assert [repr(v) for v in report.localizing_verdicts] == local
        assert report.passed == (
            report.moment_verdict.is_psd
            and all(v.is_psd for v in report.localizing_verdicts)
        )


# The PSD kernel on a stack: check_hypotheses runs it on the moment matrix
# with every localizing matrix.  Each verdict must be the one psd_check, a
# separate 2-D kernel, gives its matrix on its own.

_STACK_KINDS = ["zero", "near-double-max", "subnormal", "asymmetric", "gram", "indefinite"]


def _stack_matrix(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((n, n))
    symmetric = (a + a.T) / 2.0
    if kind == "zero":
        return np.zeros((n, n))
    if kind == "near-double-max":
        return symmetric / np.abs(symmetric).max() * 1.7e308
    if kind == "subnormal":
        return symmetric * 1e-310
    if kind == "asymmetric":  # an ndarray from outside, off by rounding
        return symmetric + 1e-12 * a
    if kind == "gram":
        return a @ a.T
    return symmetric * 10.0 ** int(rng.integers(-5, 6))


class TestPsdStack:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 20),
        kinds=st.lists(st.sampled_from(_STACK_KINDS), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
        tol_rel=st.sampled_from([1e-8, 0.0, 1e-3]),
    )
    def test_verdicts_are_each_matrixs_own(self, n, kinds, seed, tol_rel):
        rng = np.random.default_rng(seed)
        stack = np.stack([_stack_matrix(kind, n, rng) for kind in kinds])
        alone = [repr(psd_check(m.copy(), tol_rel)) for m in stack]
        assert [repr(v) for v in matrices._psd_verdicts(stack, tol_rel)] == alone
        assert alone == [repr(_ref_psd_check(m, tol_rel)) for m in stack]

    def test_row_sums_past_numpys_pairwise_block(self):
        # numpy sums a row of more than 128 entries in blocks.
        rng = np.random.default_rng(5)
        stack = np.stack([_stack_matrix(kind, 130, rng) for kind in _STACK_KINDS])
        alone = [repr(psd_check(m.copy())) for m in stack]
        assert [repr(v) for v in matrices._psd_verdicts(stack, 1e-8)] == alone
        assert alone == [repr(_ref_psd_check(m)) for m in stack]

    @pytest.mark.parametrize("at", [0, 2])
    @pytest.mark.parametrize("marker", _MARKERS.values(), ids=_MARKERS)
    def test_a_non_finite_entry_anywhere_raises(self, at, marker):
        stack = np.stack([np.eye(3), -np.eye(3), np.zeros((3, 3))])
        stack[at, 1, 2] = marker
        with pytest.raises(EigenFailure, match="^matrix has non-finite entries$"):
            psd_check(stack[at])
        with pytest.raises(EigenFailure, match="^matrix has non-finite entries$"):
            matrices._psd_verdicts(stack, 1e-8)

    def test_empty_matrices_are_psd(self):
        verdicts = matrices._psd_verdicts(np.zeros((2, 0, 0)), 1e-6)
        assert [repr(v) for v in verdicts] == [repr(psd_check(np.zeros((0, 0)), 1e-6))] * 2


# Per-entry reference definitions: every entry is looked up and converted on
# its own, and the localizing terms are added one at a time in graded-lex
# order of gamma.  The cached assembly must agree bit for bit.


def _reference_moment_matrix(s: MomentSequence, level: int) -> np.ndarray:
    basis = monomials_up_to(s.dim, level)
    m = np.empty((len(basis), len(basis)))
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            m[i, j] = float(s.value(add_indices(a, b)))
    return m


def _reference_localizing_matrix(
    s: MomentSequence, f: Polynomial, level: int
) -> np.ndarray:
    basis = monomials_up_to(s.dim, level)
    m = np.empty((len(basis), len(basis)))
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            total = 0.0
            for gamma, coeff in f.sorted_terms():
                total = total + coeff * s.value(add_indices(add_indices(a, b), gamma))
            m[i, j] = total
    return m


def _reference_monomial_values(dim: int, points, degree: int) -> list[list[float]]:
    return [
        [math.prod(float(x) ** e for x, e in zip(pt, alpha)) for pt in points]
        for alpha in monomials_up_to(dim, degree)
    ]


def _reference_residuals(measure, s: MomentSequence, degree: int) -> list[float]:
    out = []
    for alpha in monomials_up_to(s.dim, degree):
        reproduced = math.fsum(
            float(w) * math.prod(float(x) ** e for x, e in zip(pt, alpha))
            for pt, w in measure.atoms
        )
        target = float(s.value(alpha))
        out.append(abs(reproduced - target) / max(1.0, abs(target)))
    return out


def _random_data(dim: int, degree: int, exact: bool, seed: int) -> MomentSequence:
    rng = np.random.default_rng(seed)
    values = {}
    for alpha in monomials_up_to(dim, degree):
        if exact:
            values[alpha] = Fraction(
                int(rng.integers(-99, 100)), int(rng.integers(1, 60))
            )
        else:
            values[alpha] = float(rng.standard_normal() * 10.0 ** rng.integers(-3, 4))
    return MomentSequence(dim, degree, values)


def _constraints(dim: int) -> list[Polynomial]:
    square = tuple(2 if j == 0 else 0 for j in range(dim))
    last = tuple(1 if j == dim - 1 else 0 for j in range(dim))
    rational = Polynomial(
        dim, {(0,) * dim: Fraction(3, 7), square: Fraction(-5, 3), last: Fraction(1, 11)}
    )
    return [Polynomial.zero(dim), Polynomial.variable(dim, 0), rational]


class TestAssemblyMatchesReference:
    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_bit_identical_to_per_entry_definitions(self, dim, exact):
        s = _random_data(dim, 8, exact, seed=10 * dim + exact)
        for level in range(4):
            assert np.array_equal(
                moment_matrix(s, level).entries, _reference_moment_matrix(s, level)
            )
            for f in _constraints(dim):
                assert np.array_equal(
                    localizing_matrix(s, f, level).entries,
                    _reference_localizing_matrix(s, f, level),
                )

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_residuals_bit_identical_to_reference(self, dim, exact):
        rng = np.random.default_rng(dim)
        mu = AtomicMeasure(
            dim,
            [
                (tuple(float(v) for v in rng.uniform(0.5, 3.0, dim)), float(w))
                for w in rng.uniform(0.2, 2.0, 4)
            ],
        )
        s = _random_data(dim, 6, exact, seed=dim)
        for degree in range(7):
            assert reproduction_residuals(mu, s, degree) == _reference_residuals(
                mu, s, degree
            )
        truth = moments_of_atomic(mu, 6, exact=exact)
        assert max(reproduction_residuals(mu, truth, 6)) < 1e-14

    def test_entry_beyond_double_range_raises_only_when_read(self):
        values = {(k,): Fraction(k + 1) for k in range(6)}
        values[(6,)] = 10**400
        s = MomentSequence(1, 6, values)
        np.testing.assert_array_equal(
            moment_matrix(s, 2).entries, _reference_moment_matrix(s, 2)
        )
        with pytest.raises(OverflowError):
            moment_matrix(s, 3)
        x = Polynomial.variable(1, 0)
        np.testing.assert_array_equal(
            localizing_matrix(s, x, 2).entries, _reference_localizing_matrix(s, x, 2)
        )
        with pytest.raises(OverflowError):
            localizing_matrix(s, x * x, 2)

    def test_float_int_and_mixed_data_match_per_entry_products(self):
        # Float entries take one array product per term; an int entry above
        # 2**53 or a Fraction entry keeps the exact product of the term.
        dim, level = 2, 2
        f = Polynomial(
            dim, {(0, 0): Fraction(3, 7), (1, 0): Fraction(-5, 3), (0, 2): Fraction(1, 11)}
        )
        monomials = monomials_up_to(dim, 2 * level + 2)
        rng = np.random.default_rng(7)
        floats = {a: float(rng.standard_normal()) for a in monomials}
        ints = {a: 2**53 + int(rng.integers(1, 2**40)) for a in monomials}
        mixed = {
            a: Fraction(int(rng.integers(-99, 100)), 7) if k % 3 == 0 else floats[a]
            for k, a in enumerate(monomials)
        }
        for values in (floats, ints, mixed):
            s = MomentSequence(dim, 2 * level + 2, values)
            assert np.array_equal(
                localizing_matrix(s, f, level).entries,
                _reference_localizing_matrix(s, f, level),
            )
        # Rounding the int entries first would move the result, so the test
        # tells the exact path from the float one.
        rounded = {a: float(v) for a, v in ints.items()}
        assert not np.array_equal(
            localizing_matrix(MomentSequence(dim, 2 * level + 2, ints), f, level).entries,
            localizing_matrix(MomentSequence(dim, 2 * level + 2, rounded), f, level).entries,
        )


_COORDINATES = [Fraction(1, 3), -2.5, 0.0, 1.75, Fraction(-7, 5), 3.0, -1e-3]
_WEIGHTS = [0.5, Fraction(2, 3), 1.25, 3.0, 0.1]


def _points(dim: int) -> list[tuple]:
    return [
        tuple(_COORDINATES[(i + j) % len(_COORDINATES)] for j in range(dim))
        for i in range(len(_WEIGHTS))
    ]


class TestEvaluationMatchesReference:
    @pytest.mark.parametrize("degree", range(9))
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_monomial_values_bit_identical(self, dim, degree):
        values = monomial_values(dim, _points(dim), degree)
        reference = _reference_monomial_values(dim, _points(dim), degree)
        assert isinstance(values, np.ndarray)
        assert values.tolist() == reference
        assert np.array_equal(values, np.array(reference))

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("degree", range(9))
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_residuals_bit_identical(self, dim, degree, exact):
        mu = AtomicMeasure(dim, zip(_points(dim), _WEIGHTS))
        s = _random_data(dim, degree, exact, seed=100 * dim + degree)
        assert reproduction_residuals(mu, s, degree) == _reference_residuals(
            mu, s, degree
        )

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_empty_measure(self, dim):
        assert monomial_values(dim, [], 3).shape == (len(monomials_up_to(dim, 3)), 0)
        mu = AtomicMeasure(dim, [])
        s = _random_data(dim, 3, False, seed=dim)
        assert reproduction_residuals(mu, s, 3) == _reference_residuals(mu, s, 3)

    @settings(max_examples=100, deadline=None)
    @given(
        dim=st.integers(1, 3),
        degree=st.integers(0, 6),
        atoms=st.lists(
            st.tuples(
                st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
                st.floats(1e-6, 1e6),
            ),
            max_size=6,
        ),
        seed=st.integers(0, 2**16),
    )
    def test_random_points_and_weights(self, dim, degree, atoms, seed):
        try:
            mu = AtomicMeasure(dim, [(pt[:dim], w) for pt, w in atoms])
        except ValueError:  # coinciding atoms
            assume(False)
        points = [pt for pt, _ in mu.atoms]
        assert monomial_values(dim, points, degree).tolist() == (
            _reference_monomial_values(dim, points, degree)
        )
        s = _random_data(dim, degree, False, seed)
        assert reproduction_residuals(mu, s, degree) == _reference_residuals(
            mu, s, degree
        )

    def test_power_beyond_double_range_raises(self):
        with pytest.raises(OverflowError):
            _reference_monomial_values(1, [(1e200,)], 4)
        with pytest.raises(OverflowError):
            monomial_values(1, [(1e200,)], 4)

    @pytest.mark.parametrize("point", [(2.0, 1e200, 1.0), (1e200, 2.0, 1.0), (1.0, 2.0, -1e200)])
    def test_a_power_beyond_double_range_in_any_coordinate_raises(self, point):
        with pytest.raises(OverflowError) as reference:
            _reference_monomial_values(3, [(0.5, 0.25, 3.0), point], 4)
        with pytest.raises(OverflowError) as table:
            monomial_values(3, [(0.5, 0.25, 3.0), point], 4)
        assert str(table.value) == str(reference.value)

    def test_overflowing_products_are_infinite_like_math_prod(self):
        # No single power overflows, but inf * 0 and a weight times a value
        # do; numpy must neither warn nor differ from the Python products.
        points = [(math.inf, 0.0), (-math.inf, 2.0), (1e150, 1e-150)]
        values = monomial_values(2, points, 2)
        assert np.array_equal(
            values, np.array(_reference_monomial_values(2, points, 2)), equal_nan=True
        )
        mu = AtomicMeasure(1, [((1e200,), 1e200)])
        s = MomentSequence(1, 1, {(0,): 1.0, (1,): 1.0})
        residuals = reproduction_residuals(mu, s, 1)
        assert residuals == _reference_residuals(mu, s, 1)
        assert residuals[1] == math.inf


# On 1-D data the residuals are taken per node in Python floats.  Their
# reference is the table path every other dimension takes: the
# ``monomial_values`` table, the float weights, then ``_residuals``.

_ONE_D_NODES = (
    st.sampled_from([0.0, -0.0, 1.5, -2.25, 1e300, -1e300, 1e-300, -1e-300])
    | st.sampled_from([Fraction(1, 3), Fraction(-7, 5), Fraction(2**1023)])
    | st.floats(-1e3, 1e3)
    | st.fractions(-100, 100, max_denominator=1000)
)
_ONE_D_WEIGHTS = (
    st.sampled_from([1.0, 0.5, 2.0**100, 1e-300, 1e300, Fraction(1, 3), Fraction(2**100)])
    | st.floats(1e-6, 1e6)
)
_ONE_D_TARGETS = (
    st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e300, -1e300, Fraction(1, 3)])
    | st.sampled_from([math.inf, -math.inf, math.nan])
    | st.floats(-1e6, 1e6)
)


@st.composite
def _one_d_residual_cases(draw):
    """A 1-D measure of 0-8 atoms (``AtomicMeasure`` refuses a node beyond
    double range, so none is drawn): 0-5 drawn ones, in a third of the draws
    a pair at ``±2**1000`` (a float or a ``Fraction``) whose weighted terms
    may give ``inf - inf``, and in an eighth one of weight beyond double
    range.  1-D data through a degree of 0-6 (a finite mass), in an eighth
    with an exact entry beyond double range, and a degree from -1 to one
    above the data's."""
    atoms = draw(st.lists(st.tuples(_ONE_D_NODES, _ONE_D_WEIGHTS), max_size=5))
    if draw(st.integers(0, 2)) == 0:
        far = draw(st.sampled_from([2.0**1000, Fraction(2**1000)]))
        w = draw(st.sampled_from([2.0**100, 1.0, 2.0**-100, Fraction(2**100)]))
        atoms += [(far, w), (-far, w)]
    if draw(st.integers(0, 7)) == 0:
        atoms.insert(draw(st.integers(0, len(atoms))), (3.0, Fraction(10**400)))
    try:
        mu = AtomicMeasure(1, [((x,), w) for x, w in atoms], tol_atom=0.0)
    except ValueError:  # coinciding atoms
        assume(False)
    max_degree = draw(st.integers(0, 6))
    mass = draw(_ONE_D_TARGETS.filter(lambda v: not isinstance(v, float) or math.isfinite(v)))
    values = [mass, *draw(st.lists(_ONE_D_TARGETS, min_size=max_degree, max_size=max_degree))]
    if draw(st.integers(0, 7)) == 0:
        values[draw(st.integers(0, max_degree))] = draw(st.sampled_from([1, -1])) * Fraction(10**400)
    s = MomentSequence(1, max_degree, {(k,): v for k, v in enumerate(values)})
    return mu, s, draw(st.integers(-1, max_degree + 1))


def _residual_outcome(residuals, mu: AtomicMeasure, s: MomentSequence, degree: int):
    """The bytes of ``residuals(mu, s, degree)``, or the error's type and
    message."""
    try:
        got = residuals(mu, s, degree)
    except (OverflowError, ValueError, DegreeOverflow) as exc:
        return (type(exc), str(exc))
    assert got.dtype == np.float64 and got.shape == (degree + 1,)
    return got.tobytes()


def _table_residuals(mu: AtomicMeasure, s: MomentSequence, degree: int) -> np.ndarray:
    table = monomial_values(1, [pt for pt, _ in mu.atoms], degree)
    return _residuals(table, np.array([float(w) for _, w in mu.atoms]), s, degree)


class TestOneDimensionalResidualsMatchTheTable:
    @settings(max_examples=400, deadline=None)
    @given(case=_one_d_residual_cases())
    def test_same_bytes_or_the_same_error(self, case):
        mu, s, degree = case
        assert _residual_outcome(matrices._measure_residuals, mu, s, degree) == (
            _residual_outcome(_table_residuals, mu, s, degree)
        )

    @pytest.mark.parametrize(
        "atoms, values, degree, error",
        [
            # Each error in the table path's order; a case that holds two
            # ("power", "weight") must raise the earlier one's message.
            ([(1e200, Fraction(10**400))], [1.0, 2.0, 3.0], 2, OverflowError),
            ([(2.0, Fraction(10**400))], [1.0, 2.0], 5, OverflowError),
            ([(2.0, 1.0)], [1.0, 2.0], 2, DegreeOverflow),
            ([(2.0, 1.0)], [1.0, Fraction(10**400)], 1, OverflowError),
            ([(2.0**1000, 2.0**100), (-(2.0**1000), 2.0**100)], [1.0, 0.0], 1, ValueError),
            ([(2.0**1000, 2.0**23), (2.0**999, 2.0**24)], [1.0, 0.0], 1, OverflowError),
        ],
        ids=["power", "weight", "degree", "entry", "inf-inf", "fsum-overflow"],
    )
    def test_each_error_is_the_tables(self, atoms, values, degree, error):
        mu = AtomicMeasure(1, [((x,), w) for x, w in atoms])
        s = MomentSequence(1, len(values) - 1, {(k,): v for k, v in enumerate(values)})
        outcome = _residual_outcome(matrices._measure_residuals, mu, s, degree)
        assert outcome == _residual_outcome(_table_residuals, mu, s, degree)
        assert outcome[0] is error


# The power kernel takes Python's ``float ** int`` elementwise over an object
# array.  Its reference is the loop it replaced, one power at a time.


def _reference_powers(column, degree: int) -> np.ndarray:
    table = [[x**e for x in column] for e in range(degree + 1)]
    return np.array(table, dtype=float).reshape(degree + 1, len(column))


_POWER_BASES = (
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.0, -1.0])
    | st.sampled_from([math.inf, -math.inf, math.nan, 1e300, -1e300, 1.0000001])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.floats(-4.0, 4.0)
)


class TestPowerKernelMatchesTheLoop:
    @settings(max_examples=400, deadline=None)
    @given(
        column=st.lists(_POWER_BASES, max_size=25),
        degree=st.integers(0, 130),
    )
    def test_same_bits_or_the_same_overflow(self, column, degree):
        try:
            expected = _reference_powers(column, degree)
        except OverflowError:
            with pytest.raises(OverflowError):
                matrices._powers(column, degree)
            return
        got = matrices._powers(column, degree)
        assert got.shape == expected.shape and got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()

    def test_overflow_message_is_the_loops(self):
        with pytest.raises(OverflowError) as loop:
            _reference_powers([2.0, 1e200], 2)
        with pytest.raises(OverflowError) as kernel:
            matrices._powers([2.0, 1e200], 2)
        assert str(kernel.value) == str(loop.value)

    def test_gate_sized_table(self):
        # Nodes of a solve-1d rule against degree-42 data, where np.power on
        # floats may round some powers differently from the loop.
        column = [0.5 + k * 0.103 for k in range(20)]
        kernel = matrices._powers(column, 42)
        assert kernel.tobytes() == _reference_powers(column, 42).tobytes()
        assert kernel.flags.writeable


_DYADIC_COORDINATES = [0.5, -1.25, 2.0, 0.75, -3.5]
_DYADIC_WEIGHTS = [0.25, 1.5, 0.5]


def _dyadic_measure(dim: int, exact: bool, extra=()) -> AtomicMeasure:
    """Three dyadic atoms in ``dim`` coordinates, plus the atoms ``extra``;
    exact measures hold every coordinate and weight as a ``Fraction``."""
    atoms = [
        (
            tuple(_DYADIC_COORDINATES[(i + j) % 5] for j in range(dim)),
            _DYADIC_WEIGHTS[i],
        )
        for i in range(len(_DYADIC_WEIGHTS))
    ]
    atoms += list(extra)
    if exact:
        atoms = [(tuple(map(Fraction, pt)), Fraction(w)) for pt, w in atoms]
    return AtomicMeasure(dim, atoms)


class TestRequireReproduced:
    DEGREE = 4

    def _data(self, dim: int, exact: bool) -> MomentSequence:
        # The first atom's weight is off by 2**-10 against the measure.
        mu = _dyadic_measure(dim, exact)
        (pt, w), *rest = mu.atoms
        shifted = AtomicMeasure(dim, [(pt, w + 2.0**-10), *rest])
        return moments_of_atomic(shifted, self.DEGREE, exact=exact)

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_within_tol_returns_the_residuals(self, dim, exact):
        mu, s = _dyadic_measure(dim, exact), self._data(dim, exact)
        residuals = reproduction_residuals(mu, s, self.DEGREE)
        assert max(residuals) > 0.0
        got = require_reproduced(mu, s, max(residuals), "measure")
        assert got == residuals
        exact_fit = moments_of_atomic(mu, self.DEGREE, exact=exact)
        assert require_reproduced(mu, exact_fit, 0.0, "measure") == (
            reproduction_residuals(mu, exact_fit, self.DEGREE)
        )

    @pytest.mark.parametrize(
        "dim, exact, nan_at",
        [
            *(
                pytest.param(dim, exact, None, id=f"{dim}-{exact}")
                for dim in (1, 2, 3)
                for exact in (False, True)
            ),
            # A NaN entry past the first, whose residual max() would skip.
            pytest.param(2, False, -1, id="nan"),
        ],
    )
    def test_worst_residual_above_tol_raises(self, dim, exact, nan_at):
        mu, s = _dyadic_measure(dim, exact), self._data(dim, exact)
        if nan_at is not None:
            values = dict(s.values)
            values[monomials_up_to(dim, self.DEGREE)[nan_at]] = math.nan
            s = MomentSequence(dim, self.DEGREE, values)
        residuals = reproduction_residuals(mu, s, self.DEGREE)
        worst = float(np.max(residuals))
        tol = float(np.nanmax(residuals)) / 2
        message = (
            f"test measure misses the input moments: worst relative residual "
            f"{worst:g} exceeds {tol:g}"
        )
        with pytest.raises(ValidationFailure, match=f"^{message}$") as raised:
            require_reproduced(mu, s, tol, "test measure")
        np.testing.assert_equal(raised.value.worst, worst)

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_power_beyond_double_range_raises(self, dim, exact):
        # (2**300)**4 leaves double range; its lower powers do not.
        far = ((2.0**300,) * dim, 2.0**-20)
        mu = _dyadic_measure(dim, exact, extra=[far])
        s = self._data(dim, exact)
        with pytest.raises(OverflowError):
            reproduction_residuals(mu, s, self.DEGREE)
        # The gate compares every entry exactly instead: the far atom's
        # degree-4 moments, near 2**1180, miss the data by a residual that
        # rounds to inf, which a finite tol refuses.
        with pytest.raises(
            ValidationFailure,
            match="^measure misses the input moments: worst relative residual "
            "inf exceeds 1$",
        ) as raised:
            require_reproduced(mu, s, 1.0, "measure")
        assert raised.value.worst == math.inf
        # Through degree 3 every power is finite, and the residual decides.
        with pytest.raises(ValidationFailure, match="misses the input moments"):
            require_reproduced(mu, s.restrict(3), 1.0, "measure")
        # Data generated from the same measure is reproduced.
        truth = moments_of_atomic(mu, self.DEGREE, exact=True)
        residuals = require_reproduced(mu, truth, 1e-12, "measure")
        assert len(residuals) == len(monomials_up_to(dim, self.DEGREE))
        assert max(residuals) <= 1e-12

    @pytest.mark.parametrize("position", [1, -1])
    def test_nan_residual_is_a_miss(self, position):
        # A NaN entry gives a NaN residual; max() would skip it when it is
        # not the first element.
        mu = _dyadic_measure(2, False)
        values = dict(moments_of_atomic(mu, self.DEGREE).values)
        values[monomials_up_to(2, self.DEGREE)[position]] = math.nan
        s = MomentSequence(2, self.DEGREE, values)
        assert math.isnan(reproduction_residuals(mu, s, self.DEGREE)[position])
        with pytest.raises(
            ValidationFailure, match="worst relative residual nan exceeds inf"
        ):
            require_reproduced(mu, s, math.inf, "measure")


    def test_exact_entries_beyond_double_range_compare_in_logs(self):
        # s_2 = 10**310 leaves double range, so degrees 2..4 are compared in
        # logs; reading them as floats raised a bare OverflowError.
        mu = AtomicMeasure(1, [((10**5,), 10**300)])
        s = moments_of_atomic(mu, self.DEGREE, exact=True)
        assert s.finite_degree() == 1
        residuals = require_reproduced(mu, s, 1e-12, "measure")
        assert len(residuals) == 5
        assert max(residuals) < 1e-12
        values = dict(s.values)
        values[(3,)] *= Fraction(1000001, 1000000)
        with pytest.raises(
            ValidationFailure,
            match="^measure misses the input moments: worst relative residual "
            "9.99999e-07 exceeds 1e-08$",
        ) as raised:
            require_reproduced(mu, MomentSequence(1, 4, values), 1e-8, "measure")
        assert raised.value.worst == pytest.approx(1e-6 / (1 + 1e-6), rel=1e-9)

    def test_signed_and_zero_entries_beyond_double_range(self):
        # Atoms at (-1e200, 1) and (0, 3): every entry s[(k, l)] with k >= 2
        # is beyond double range, negative for odd k, and the second atom adds
        # nothing to it.
        mu = AtomicMeasure(2, [((-(10**200), 1), 1), ((0, 3), Fraction(1, 2))])
        s = moments_of_atomic(mu, self.DEGREE, exact=True)
        assert s.finite_degree() == 1
        assert s.value((3, 0)) < 0
        residuals = require_reproduced(mu, s, 1e-12, "measure")
        assert len(residuals) == 15
        assert max(residuals) < 1e-12
        values = dict(s.values)
        values[(3, 1)] = -values[(3, 1)]
        with pytest.raises(ValidationFailure) as raised:
            require_reproduced(mu, MomentSequence(2, 4, values), 1e-8, "measure")
        assert raised.value.worst == pytest.approx(2.0, rel=1e-12)

    def test_symmetric_atoms_beyond_double_range_cancel(self):
        # Every odd entry of 1/2 (delta at -10**200 + delta at 10**200) is 0,
        # the difference of two terms near 10**(200 k) that cancel exactly.
        far = 10**200
        mu = AtomicMeasure(1, [((-far,), Fraction(1, 2)), ((far,), Fraction(1, 2))])
        s = moments_of_atomic(mu, 8, exact=True)
        assert s.finite_degree() == 1
        residuals = require_reproduced(mu, s, 1e-12, "measure")
        assert residuals[3::2] == [0.0, 0.0, 0.0]
        assert max(residuals) < 1e-12
        # Weights 1/2 -+ 2**-30 put s_3 near -2**-29 * 10**600, not 0.
        tilt = Fraction(1, 2**30)
        lopsided = AtomicMeasure(
            1, [((-far,), Fraction(1, 2) + tilt), ((far,), Fraction(1, 2) - tilt)]
        )
        with pytest.raises(ValidationFailure) as raised:
            require_reproduced(lopsided, s, 1e-8, "measure")
        assert raised.value.worst == math.inf

    @pytest.mark.parametrize("marker", [math.inf, math.nan])
    def test_non_finite_entry_without_a_log_is_a_miss(self, marker):
        mu = _dyadic_measure(1, False)
        s = moments_of_atomic(mu, self.DEGREE)
        values = dict(s.values)
        values[(3,)] = marker
        logs = {(4,): s.log_value((4,))}
        values[(4,)] = math.inf
        with pytest.raises(
            ValidationFailure, match="worst relative residual nan exceeds inf"
        ):
            require_reproduced(mu, MomentSequence(1, 4, values, logs), math.inf, "m")
        # With its log, the marker compares like the value it stands for.
        logs[(3,)] = s.log_value((3,))
        residuals = require_reproduced(mu, MomentSequence(1, 4, values, logs), 1e-12, "m")
        assert max(residuals) < 1e-12

    @pytest.mark.parametrize("coordinate", [math.inf, math.nan])
    def test_non_finite_atom_above_the_prefix_is_a_miss(self, coordinate):
        # Above the prefix the moment is summed exactly, and a non-finite
        # atom has no exact value.
        s = MomentSequence(
            1,
            4,
            {(0,): 1.0, (1,): 1.0, (2,): 1.0, (3,): math.inf, (4,): math.inf},
            {(3,): 0.0, (4,): 0.0},
        )
        mu = AtomicMeasure(1, [((coordinate,), 1.0)])
        with pytest.raises(
            ValidationFailure, match="worst relative residual nan exceeds inf"
        ):
            require_reproduced(mu, s, math.inf, "measure")

    def test_exact_mass_beyond_double_range_is_compared_exactly(self):
        # Even s_0 = 10**400 leaves double range, so no entry can be read as
        # a float; the gate compares all of them exactly.
        mu = AtomicMeasure(1, [((2,), 10**400)])
        s = moments_of_atomic(mu, 3, exact=True)
        with pytest.raises(OverflowError):
            reproduction_residuals(mu, s, 3)
        assert require_reproduced(mu, s, 1e-8, "measure") == [0.0] * 4
        values = dict(s.values)
        values[(2,)] *= Fraction(1000001, 1000000)
        with pytest.raises(ValidationFailure) as raised:
            require_reproduced(mu, MomentSequence(1, 3, values), 1e-8, "measure")
        assert raised.value.worst == pytest.approx(1e-6 / (1 + 1e-6), rel=1e-9)

    def test_powers_beyond_double_range_inside_the_prefix(self):
        # The odd entries of 1/2 (delta at -10**50 + delta at 10**50) are 0,
        # so the data is finite through degree 7 while the atoms' 7th powers
        # are not: the prefix is compared exactly too.
        far = 10**50
        mu = AtomicMeasure(1, [((-far,), Fraction(1, 2)), ((far,), Fraction(1, 2))])
        s = moments_of_atomic(mu, 16, exact=True)
        assert s.finite_degree() == 7
        with pytest.raises(OverflowError):
            reproduction_residuals(mu, s, 7)
        residuals = require_reproduced(mu, s, 1e-8, "measure")
        assert residuals == [0.0] * 17
        values = dict(s.values)
        values[(7,)] += Fraction(1, 1000000)
        with pytest.raises(ValidationFailure) as raised:
            require_reproduced(mu, MomentSequence(1, 16, values), 1e-8, "measure")
        assert raised.value.worst == pytest.approx(1e-6, rel=1e-12)

    def test_terms_that_overflow_to_opposite_infinities(self):
        # s_1 = 0 is finite, but its weighted terms -2**1100 and 2**1100 are
        # -inf and inf as floats, where math.fsum raises ValueError: the
        # entries are compared exactly.
        mu = AtomicMeasure(1, [((-(2.0**1000),), 2.0**100), ((2.0**1000,), 2.0**100)])
        s = moments_of_atomic(mu, 2, exact=True)
        assert s.finite_degree() == 1
        with pytest.raises(ValueError):
            reproduction_residuals(mu, s, 1)
        assert require_reproduced(mu, s, 1e-8, "measure") == [0.0] * 3
        values = dict(s.values)
        values[(0,)] *= Fraction(1000001, 1000000)
        with pytest.raises(ValidationFailure) as raised:
            require_reproduced(mu, MomentSequence(1, 2, values), 1e-8, "measure")
        assert raised.value.worst == pytest.approx(1e-6 / (1 + 1e-6), rel=1e-9)


def _float_image(s: MomentSequence) -> MomentSequence:
    """Exact data rounded to doubles: an entry beyond double range becomes
    an ``inf`` marker carrying the log of its exact value."""
    values = {alpha: _to_float(v) for alpha, v in s.values.items()}
    logs = {alpha: _log(s.values[alpha]) for alpha, v in values.items() if v == math.inf}
    return MomentSequence(s.dim, s.max_degree, values, logs)


@st.composite
def _gate_cases(draw):
    """A measure of 1-6 atoms with coordinates and weights of at most three
    mantissa bits, so every product through degree 16 is exact in doubles;
    in half the draws it gains a far atom (``|x|`` in 2**200 .. 2**600,
    small weight) or a mirrored far pair.  Returned with its exact moments
    through a degree of 8 to 16, and whether no power leaves double range."""
    dim = draw(st.integers(1, 3))
    small = st.builds(
        lambda sign, m, e: Fraction(sign * m) * Fraction(2) ** e,
        st.sampled_from([-1, 1]),
        st.sampled_from([1, 3, 5, 7]),
        st.integers(-3, 2),
    )
    points = draw(
        st.lists(st.tuples(*[small] * dim), min_size=1, max_size=6, unique=True)
    )
    atoms = [(pt, draw(small.map(abs))) for pt in points]
    far = draw(st.sampled_from([None, None, "atom", "pair"]))
    if far is not None:
        point = tuple(
            draw(st.sampled_from([-1, 1])) * Fraction(2) ** draw(st.integers(200, 600))
            for _ in range(dim)
        )
        w = Fraction(1, 2 ** draw(st.integers(1, 40)))
        atoms.append((point, w))
        if far == "pair":
            atoms.append((tuple(-x for x in point), w))
    mu = AtomicMeasure(dim, atoms)
    return mu, moments_of_atomic(mu, draw(st.integers(8, 16)), exact=True), far is None


class TestOneReproductionRule:
    @settings(max_examples=60, deadline=None)
    @given(case=_gate_cases(), data=st.data())
    def test_accepts_the_truth_and_refuses_a_moved_entry(self, case, data):
        mu, exact, nothing_overflows = case
        # The float form of both; a negative entry beyond double range has
        # none, as an inf marker stands for a positive value.
        floats = _float_image(exact)
        forms = [(mu, exact)]
        if -math.inf not in floats.values.values():
            points = [(tuple(map(float, pt)), float(w)) for pt, w in mu.atoms]
            forms.append((AtomicMeasure(mu.dim, points), floats))
        degree = exact.max_degree
        for measure, s in forms:
            residuals = require_reproduced(measure, s, 1e-12, "measure")
            assert max(residuals) <= 1e-12
            if nothing_overflows:
                assert residuals == reproduction_residuals(measure, s, degree)
            alpha = data.draw(st.sampled_from(monomials_up_to(s.dim, degree)))
            values, logs = dict(s.values), dict(s.log_values)
            t = values[alpha]
            if t == math.inf:
                logs[alpha] += math.log1p(1e-6)
            elif isinstance(t, float):
                values[alpha] = t + 1e-6 * max(1.0, abs(t))
            else:
                values[alpha] = t + Fraction(1, 10**6) * max(1, abs(t))
            moved = MomentSequence(s.dim, degree, values, logs)
            with pytest.raises(ValidationFailure, match="misses the input moments"):
                require_reproduced(measure, moved, 1e-8, "measure")


class TestAssembledMatricesSkipTheSymmetryScan:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_graded_lex_bases_are_nested(self, dim):
        for level in range(1, 8):
            wider = monomials_up_to(dim, level)
            assert wider[: math.comb(dim + level - 1, dim)] == monomials_up_to(
                dim, level - 1
            )

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_assembled_matrices_are_exactly_symmetric(self, dim, exact):
        s = _random_data(dim, 8, exact, seed=20 * dim + exact)
        for level in range(4):
            m = moment_matrix(s, level)
            assert np.array_equal(m.entries, m.entries.T)
            for f in _constraints(dim):
                entries = localizing_matrix(s, f, level).entries
                assert np.array_equal(entries, entries.T)

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_leading_block_is_the_lower_level_matrix(self, dim, exact):
        s = _random_data(dim, 8, exact, seed=30 * dim + exact)
        for level in range(1, 5):
            block = moment_matrix(s, level)._leading(math.comb(dim + level - 1, dim))
            lower = moment_matrix(s, level - 1)
            assert block.basis == lower.basis
            assert block.entries.tobytes() == lower.entries.tobytes()
            assert np.array_equal(block.entries, block.entries.T)

    def test_public_constructor_still_rejects_asymmetry(self):
        from momentkit import SymmetricMatrixWithBasis

        m = moment_matrix(_random_data(2, 4, False, seed=1), 2)
        entries = m.entries.copy()
        entries[0, 3] += 1e-6 * max(1.0, float(np.max(np.abs(entries))))
        with pytest.raises(ValueError, match="not symmetric"):
            SymmetricMatrixWithBasis(m.basis, entries)
        assert np.array_equal(SymmetricMatrixWithBasis(m.basis, m.entries).entries, m.entries)


# ---------------------------------------------------------------------------
# The flat-extraction gate decides from a rounding bound and takes the fsum
# residuals only when the bound cannot decide.  Its reference is the gate as
# it was: every row's fsum residual, then the decision.


def _reference_table_gate(table, weights, s, degree, tol, label):
    return _require_within(_residuals(table, weights, s, degree), s, degree, tol, label)


def _gate_outcome(gate, table, weights, s, degree, tol):
    """``"pass"``, or the error's type and message, and for a miss its
    ``worst`` (by ``repr``, so NaN equals NaN), ``index`` and ``tolerance``."""
    try:
        gate(table, weights, s, degree, tol, "measure")
    except ValidationFailure as exc:
        return ("ValidationFailure", str(exc), repr(exc.worst), exc.index,
                repr(exc.tolerance))
    except (OverflowError, ValueError) as exc:
        return (type(exc).__name__, str(exc))
    return "pass"


_GATE_TOLS = [0.0, 1e-15, 1e-12, 1e-8, 1e-3, 1.0, math.inf, math.nan]
_GATE_SCALES = [0.0, 5e-324, 1e-310, 1e-300, 1e-20, 1.0, 1e20, 1e300, 1.7e308]


@st.composite
def _table_gate_cases(draw):
    """A table of 1-20 atom columns over the monomials of a 1- or 2-variable
    degree, float weights, targets and a tolerance.  Rows are finite,
    subnormal or cancelling, and in wild cases also near overflow (their
    exact sum may overflow) or hold an ``inf``; each target is the row's
    exact sum or a value within ``1e-16 * tol`` (relative) of the residual
    ``tol``, and in wild cases also a free float or a NaN or ``inf`` marker
    (never the mass, which is finite)."""
    dim = draw(st.integers(1, 2))
    degree = draw(st.integers(0, 3))
    rows = len(monomials_up_to(dim, degree))
    n = draw(st.integers(1, 20))
    tol = draw(st.sampled_from(_GATE_TOLS) | st.floats(0.0, 1.0))
    weights = np.array(draw(st.lists(
        st.sampled_from([1.0, 0.5, 2.0**-20, 3.0, 1e-300, 1e300])
        | st.floats(1e-30, 1e30), min_size=n, max_size=n)))
    # Half the cases keep to finite rows and exact or edge targets, so that
    # every row can pass and the bound decides the whole table.
    wild = draw(st.booleans())
    kinds = ["mixed", "scaled", "cancel", "subnormal"]
    wheres = ["exact", "edge", "edge"]
    if wild:
        kinds += ["overflow", "inf"]
        wheres += ["free", "nan", "inf"]
    table = np.empty((rows, n))
    targets = []
    for i in range(rows):
        kind = draw(st.sampled_from(kinds))
        if kind == "mixed":
            row = draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n))
        elif kind == "scaled":
            scale = draw(st.sampled_from(_GATE_SCALES))
            row = [scale * draw(st.floats(-2.0, 2.0)) for _ in range(n)]
        elif kind == "cancel":
            big = draw(st.sampled_from([1.0, 1e16, 1e150, 1e300]))
            row = [big * (-1.0) ** j for j in range(n)]
            row[-1] += draw(st.floats(-1.0, 1.0))
        elif kind == "overflow":
            row = [draw(st.sampled_from([1.7e308, -1.7e308, 1e308, 2.0]))
                   for _ in range(n)]
        elif kind == "inf":
            row = [draw(st.sampled_from([math.inf, -math.inf, 1.0]))
                   for _ in range(n)]
        else:
            row = [draw(st.sampled_from([5e-324, -5e-324, 2.2e-308, 1e-310]))
                   for _ in range(n)]
        table[i] = row
        with np.errstate(over="ignore", invalid="ignore"):
            terms = (table[i] * weights).tolist()
        try:
            exact = math.fsum(terms)
        except (OverflowError, ValueError):
            exact = draw(st.floats(-1e300, 1e300))
        where = draw(st.sampled_from(wheres))
        if where == "exact":
            t = exact
        elif where == "edge" and math.isfinite(exact) and math.isfinite(tol):
            # |exact - t| / max(1, |t|) within 1e-16 * tol of tol.
            step = tol * (1.0 + draw(st.integers(-2, 2)) * 1e-16)
            sign = draw(st.sampled_from([-1.0, 1.0]))
            if abs(exact) >= 1.0 and step < 1.0:
                t = exact / (1.0 - sign * step)
            else:
                t = exact + sign * step
            if not math.isfinite(t):
                t = exact
        elif where == "nan":
            t = math.nan
        elif where == "inf":
            t = draw(st.sampled_from([math.inf, -math.inf]))
        else:
            t = draw(st.floats(-1e308, 1e308))
        targets.append(t if i or math.isfinite(t) else 1.0)
    values = dict(zip(monomials_up_to(dim, degree), targets))
    return table, weights, MomentSequence(dim, degree, values), degree, tol


class TestTableGateMatchesTheFsumGate:
    @settings(max_examples=400, deadline=None)
    @given(case=_table_gate_cases())
    def test_same_outcome_as_the_reference(self, case):
        assert _gate_outcome(_require_table_reproduces, *case) == _gate_outcome(
            _reference_table_gate, *case
        )

    @staticmethod
    def _counting(monkeypatch) -> list:
        calls = []

        def counted(*args):
            calls.append(args)
            return _residuals(*args)

        monkeypatch.setattr(matrices, "_residuals", counted)
        return calls

    @staticmethod
    def _one_row(row, weights, target, tol=0.0):
        s = MomentSequence(1, 0, {(0,): target})
        return np.array([row]), np.array(weights), s, 0, tol

    def test_extracted_atoms_pass_on_the_bound_alone(self, monkeypatch):
        mu = _dyadic_measure(2, False)
        s = moments_of_atomic(mu, 6)
        table = monomial_values(2, [pt for pt, _ in mu.atoms], 6)
        weights = np.array([w for _, w in mu.atoms])
        calls = self._counting(monkeypatch)
        assert _require_table_reproduces(table, weights, s, 6, 1e-12, "m") is None
        assert calls == []

    def test_too_close_to_call_falls_back_and_passes(self, monkeypatch):
        # 0.5 + 0.25 is exact, but the bound cannot know: at tol 0 it
        # exceeds tol, and the fsum residual 0 decides.
        case = self._one_row([0.5, 0.25], [1.0, 1.0], 0.75)
        calls = self._counting(monkeypatch)
        assert _gate_outcome(_require_table_reproduces, *case) == "pass"
        assert len(calls) == 1

    def test_too_close_to_call_falls_back_and_refuses(self, monkeypatch):
        case = self._one_row([0.5, 0.25], [1.0, 1.0], 0.75 + 2.0**-52, tol=1e-16)
        calls = self._counting(monkeypatch)
        outcome = _gate_outcome(_require_table_reproduces, *case)
        assert outcome == _gate_outcome(_reference_table_gate, *case)
        # 2**-52 over the mass 0.75 + 2**-52: below a mass of 1 the gate
        # decides with the mass divided out.
        assert outcome[:2] == (
            "ValidationFailure",
            "measure misses the input moments: worst relative residual "
            "2.96059e-16 exceeds 1e-16",
        )
        assert outcome[3:] == ((0,), "1e-16")
        assert len(calls) == 1

    def test_a_sum_in_numpy_order_alone_would_pass_a_miss(self):
        # numpy adds 1 + 1e-16 + 1e-16 to 1.0, fsum to 1 + 2**-52; against
        # 1 - 2**-50 only the second misses tol 1e-15, so the slack must
        # send this row to the fsum residual.
        case = self._one_row([1.0, 1e-16, 1e-16], [1.0] * 3, 1.0 - 2.0**-50, 1e-15)
        assert np.sum(case[0]) == 1.0 and math.fsum(case[0][0]) == 1.0 + 2.0**-52
        outcome = _gate_outcome(_require_table_reproduces, *case)
        assert outcome == _gate_outcome(_reference_table_gate, *case)
        assert outcome[0] == "ValidationFailure"

    def test_an_exact_sum_beyond_double_range_raises_fsums_error(self):
        case = self._one_row([1e308, 1e308], [1.0, 1.0], 1.0, tol=1.0)
        with pytest.raises(OverflowError):
            _require_table_reproduces(*case, "m")
        # The sum overflows on the way, though the exact sum is 1e308.
        case = self._one_row([1.7e308, 1.7e308, -1.7e308], [1.0] * 3, 1.7e308, tol=1.0)
        with pytest.raises(OverflowError):
            _require_table_reproduces(*case, "m")

    def test_opposite_infinities_raise_fsums_error(self):
        case = self._one_row([math.inf, -math.inf], [1.0, 1.0], 0.0, tol=math.inf)
        with pytest.raises(ValueError):
            _require_table_reproduces(*case, "m")

    def test_a_nan_tolerance_refuses_as_the_reference_does(self):
        case = self._one_row([0.5, 0.25], [1.0, 1.0], 0.75, tol=math.nan)
        outcome = _gate_outcome(_require_table_reproduces, *case)
        assert outcome == _gate_outcome(_reference_table_gate, *case)
        assert outcome[0] == "ValidationFailure" and outcome[4] == "nan"


class TestGateMissCarriesItsEntry:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_index_and_tolerance_of_the_worst_entry(self, dim):
        mu = _dyadic_measure(dim, False)
        values = dict(moments_of_atomic(mu, 4).values)
        alpha = monomials_up_to(dim, 4)[-2]
        values[alpha] *= 1.001
        s = MomentSequence(dim, 4, values)
        with pytest.raises(ValidationFailure) as raised:
            require_reproduced(mu, s, 1e-8, "measure")
        assert raised.value.index == alpha
        assert raised.value.tolerance == 1e-8
        assert raised.value.worst == max(reproduction_residuals(mu, s, 4))

    def test_the_first_nan_names_the_entry(self):
        mu = _dyadic_measure(2, False)
        values = dict(moments_of_atomic(mu, 4).values)
        basis = monomials_up_to(2, 4)
        values[basis[3]] *= 2.0  # a finite miss before the NaNs
        values[basis[5]] = values[basis[9]] = math.nan
        with pytest.raises(ValidationFailure) as raised:
            require_reproduced(mu, MomentSequence(2, 4, values), 1e-8, "measure")
        assert math.isnan(raised.value.worst)
        assert raised.value.index == basis[5]


def _scaled(mu: AtomicMeasure, s: MomentSequence, factor: float):
    """``mu`` and ``s`` with every weight and entry times ``factor``."""
    nu = AtomicMeasure(mu.dim, [(pt, w * factor) for pt, w in mu.atoms])
    values = {alpha: v * factor for alpha, v in s.values.items()}
    return nu, MomentSequence(s.dim, s.max_degree, values)


def _verdict(mu: AtomicMeasure, s: MomentSequence, tol: float):
    """:func:`require_reproduced`'s and the table gate's outcomes, a miss by
    its message, ``worst`` (by ``repr``) and ``index``."""
    table = monomial_values(s.dim, [pt for pt, _ in mu.atoms], s.max_degree)
    weights = np.array([w for _, w in mu.atoms])
    outcomes = []
    for gate in (
        lambda: require_reproduced(mu, s, tol, "measure"),
        lambda: _require_table_reproduces(table, weights, s, s.max_degree, tol, "measure"),
    ):
        try:
            gate()
            outcomes.append("pass")
        except ValidationFailure as exc:
            outcomes.append((str(exc), repr(exc.worst), exc.index))
    return outcomes


class TestGateReadsTheMass:
    """Below a mass of 1 the gate divides out the mass as well, and the
    stricter comparison decides."""

    @pytest.mark.parametrize("mass", [4.0, 0.5])
    def test_returned_residuals_stay_in_the_callers_units(self, mass):
        # s_2 misses by 2e-9: 4e-9 with a mass of 0.5 divided out, within tol.
        mu = AtomicMeasure(1, [((0.0,), mass)])
        s = MomentSequence(1, 2, {(0,): mass, (1,): 0.0, (2,): -2e-9})
        assert require_reproduced(mu, s, 1e-8, "measure") == [0.0, 0.0, 2e-9]
        with pytest.raises(ValidationFailure) as raised:
            require_reproduced(mu, s, 1e-9, "measure")
        assert raised.value.worst == 2e-9 / min(mass, 1.0)

    @settings(max_examples=150, deadline=None)
    @given(
        dim=st.integers(1, 2),
        atoms=st.lists(
            st.tuples(st.integers(-16, 16), st.integers(-16, 16), st.integers(1, 4)),
            min_size=1,
            max_size=4,
            unique_by=lambda a: a[0],
        ),
        degree=st.integers(1, 6),
        moved=st.tuples(st.integers(0, 27), st.sampled_from([0.0, 1e-12, 1e-9, -1e-6, 1e-3])),
        k=st.integers(1, 60),
    )
    def test_verdict_is_the_same_at_every_mass_up_to_one(self, dim, atoms, degree, moved, k):
        # Dyadic atoms in [-4, 4]^dim with weights of 1/16 to 1/4, so the
        # mass is at most 1, and one entry moved; a power-of-two factor
        # scales every weight and entry exactly.
        mu = AtomicMeasure(dim, [((x / 4, y / 4)[:dim], w / 16) for x, y, w in atoms])
        values = dict(moments_of_atomic(mu, degree).values)
        alpha = monomials_up_to(dim, degree)[moved[0] % len(values)]
        values[alpha] *= 1.0 + moved[1]
        s = MomentSequence(dim, degree, values)
        assert _verdict(mu, s, 1e-8) == _verdict(*_scaled(mu, s, 2.0**-k), 1e-8)
