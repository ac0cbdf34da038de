"""Built-in moment data fixtures."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from momentkit import (
    AtomicMeasure,
    MembershipViolation,
    Polynomial,
    moments_factorial,
    moments_lognormal,
    moments_of_atomic,
    power_curve_fixture,
    power_curve_inverse,
    power_curve_presentation,
)


class TestMomentsOfAtomic:
    def test_exact_rational_values(self):
        mu = AtomicMeasure(1, [((0.5,), 1.0)])
        s = moments_of_atomic(mu, 4, exact=True)
        assert s.value((3,)) == Fraction(1, 8)
        assert isinstance(s.value((3,)), Fraction)

    def test_float_values(self):
        mu = AtomicMeasure(2, [((2.0, 3.0), 0.5)])
        s = moments_of_atomic(mu, 3)
        assert s.value((1, 2)) == pytest.approx(0.5 * 2.0 * 9.0)

    def test_mass_is_total_weight(self):
        mu = AtomicMeasure(1, [((1.0,), 0.25), ((2.0,), 0.75)])
        s = moments_of_atomic(mu, 2)
        assert s.mass == pytest.approx(1.0)


class TestMomentsFactorial:
    def test_values_are_factorials(self):
        s = moments_factorial(6)
        assert s.value((0,)) == 1
        assert s.value((4,)) == 24
        assert s.value((6,)) == 720

    def test_log_values_supplied(self):
        s = moments_factorial(40)
        assert s.log_value((30,)) == pytest.approx(math.lgamma(31.0))

    def test_large_degree_values_exact_integers(self):
        s = moments_factorial(120)
        assert s.value((120,)) == math.factorial(120)
        assert s.finite_degree() == 120


class TestMomentsLognormal:
    def test_log_values(self):
        s = moments_lognormal(20)
        assert s.log_value((6,)) == pytest.approx(18.0)  # 6^2 / 2
        assert s.log_value((0,)) == 0.0

    def test_overflow_handled(self):
        # exp(n^2 / 2) exceeds double range from n = 38 on; the log entries
        # stay authoritative there.
        s = moments_lognormal(60)
        assert math.isfinite(float(s.value((37,))))
        assert float(s.value((38,))) == math.inf
        assert s.finite_degree() == 37
        assert s.log_value((60,)) == pytest.approx(1800.0)

    def test_mass_normalized(self):
        assert moments_lognormal(4).mass == 1.0


class TestPowerCurve:
    def test_presentation_polynomials(self):
        pres = power_curve_presentation(3)
        assert pres.dim == 2
        assert pres.generators[0].terms == {
            (0, 1): Fraction(1),
            (3, 0): Fraction(-1),
        }
        assert pres.generators[1].terms == {(1, 0): Fraction(1)}

    def test_inverse_polynomials(self):
        inv = power_curve_inverse(3)
        assert inv[0].terms == {(0, 1): Fraction(1)}
        assert inv[1].terms == {
            (1, 0): Fraction(1),
            (0, 3): Fraction(1),
        }

    def test_fixture_bundles_consistent_pieces(self):
        mu = AtomicMeasure(2, [((1.5, 3.375), 1.0)])  # on x2 = x1^3
        fx = power_curve_fixture(3, mu, max_degree=6, exact=True)
        assert fx.exponent == 3
        assert fx.measure is mu
        assert fx.moments == moments_of_atomic(mu, 6, exact=True)
        assert fx.presentation.contains((1.5, 3.375))

    def test_off_curve_atom_rejected(self):
        mu = AtomicMeasure(2, [((1.5, 3.0), 1.0)])
        with pytest.raises(MembershipViolation):
            power_curve_fixture(3, mu, max_degree=4)

    def test_negative_branch_rejected(self):
        # (-2, -8) lies on x2 = x1^3 but violates x1 >= 0.
        mu = AtomicMeasure(2, [((-2.0, -8.0), 1.0)])
        with pytest.raises(MembershipViolation):
            power_curve_fixture(3, mu, max_degree=4)

    def test_exponent_one_is_diagonal_line(self):
        pres = power_curve_presentation(1)
        assert pres.generators[0] == Polynomial(
            2, {(0, 1): Fraction(1), (1, 0): Fraction(-1)}
        )
