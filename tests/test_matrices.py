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
from momentkit.matrices import monomial_values, reproduction_residuals, require_psd
from momentkit.polynomials import add_indices, monomials_up_to
from momentkit.errors import NotPsd


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

    def test_require_psd_raises_with_context(self):
        with pytest.raises(NotPsd):
            require_psd(np.array([[-1.0]]), label="test matrix")


class TestNumericalRank:
    def test_rank_one(self):
        assert numerical_rank(np.array([[1.0, 1.0], [1.0, 1.0]])) == 1

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 3))) == 0

    def test_full_rank(self):
        assert numerical_rank(np.diag([3.0, 2.0, 1.0])) == 3


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
