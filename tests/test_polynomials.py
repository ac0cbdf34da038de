"""Multi-index order, polynomial arithmetic, moment data, atomic measures."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from momentkit import (
    AtomicMeasure,
    DegreeOverflow,
    DimMismatch,
    MomentSequence,
    NegativeMoment,
    Polynomial,
    grlex_key,
    monomials_of_degree,
    monomials_up_to,
    total_degree,
)


class TestMonomialOrder:
    def test_degree_two_dim_two(self):
        # Graded order, first variable dominant within a degree:
        # 1; x1, x2; x1^2, x1 x2, x2^2.
        assert monomials_up_to(2, 2) == [
            (0, 0),
            (1, 0),
            (0, 1),
            (2, 0),
            (1, 1),
            (0, 2),
        ]

    def test_single_degree_slice(self):
        assert monomials_of_degree(2, 3) == [(3, 0), (2, 1), (1, 2), (0, 3)]

    def test_up_to_returns_a_fresh_list(self):
        first = monomials_up_to(2, 2)
        first.append((9, 9))
        second = monomials_up_to(2, 2)
        assert second is not first
        assert second == monomials_up_to(2, 2) and (9, 9) not in second

    def test_dim_three_count(self):
        # Number of monomials of degree <= 3 in 3 variables: C(6, 3) = 20.
        assert len(monomials_up_to(3, 3)) == 20

    def test_sorting_arbitrary_indices(self):
        idx = [(0, 2), (1, 0), (0, 0), (2, 0), (0, 1), (1, 1)]
        assert sorted(idx, key=grlex_key) == [
            (0, 0),
            (1, 0),
            (0, 1),
            (2, 0),
            (1, 1),
            (0, 2),
        ]

    def test_total_degree(self):
        assert total_degree((3, 0, 2)) == 5


class TestPolynomialArithmetic:
    def test_square_binomial(self):
        x = Polynomial.variable(1, 0)
        two = Polynomial.constant(1, 2)
        p = (x + two) * (x + two)
        assert p.terms == {(2,): 1, (1,): 4, (0,): 4}

    def test_difference_of_squares(self):
        x1 = Polynomial.variable(2, 0)
        x2 = Polynomial.variable(2, 1)
        p = (x1 - x2) * (x1 + x2)
        assert p.terms == {(2, 0): 1, (0, 2): -1}

    def test_power(self):
        x = Polynomial.variable(1, 0)
        one = Polynomial.constant(1, 1)
        p = (one + x) ** 3
        assert p.terms == {(0,): 1, (1,): 3, (2,): 3, (3,): 1}

    def test_zero_annihilates(self):
        x = Polynomial.variable(2, 0)
        z = Polynomial.zero(2)
        assert (x * z).is_zero()
        assert (x + z) == x

    def test_degree(self):
        p = Polynomial(2, {(3, 1): Fraction(2), (0, 0): Fraction(5)})
        assert p.degree == 4
        assert Polynomial.zero(2).degree == -math.inf

    def test_exact_rational_coefficients(self):
        x = Polynomial.variable(1, 0)
        third = Polynomial.constant(1, Fraction(1, 3))
        p = third * x
        assert (p + p + p) == x

    def test_evaluate(self):
        # p = 3 x1^2 x2 - 1/2 x2^3 at (2, 3): 3*4*3 - 27/2 = 36 - 13.5.
        p = Polynomial(2, {(2, 1): Fraction(3), (0, 3): Fraction(-1, 2)})
        assert p.evaluate((2.0, 3.0)) == pytest.approx(22.5)
        assert p.evaluate((Fraction(2), Fraction(3))) == Fraction(45, 2)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            Polynomial.variable(1, 0) + Polynomial.variable(2, 0)

    def test_coefficient_lookup(self):
        p = Polynomial(2, {(1, 1): Fraction(7)})
        assert p.coefficient((1, 1)) == 7
        assert p.coefficient((2, 0)) == 0

    def test_string_rendering_roundtrip_sign(self):
        p = Polynomial(2, {(0, 1): Fraction(1), (2, 0): Fraction(-1)})
        assert p.to_string() == "-x1^2 + x2"

    def test_mul_commutes_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = _random_poly(rng, dim=2, deg=3)
            b = _random_poly(rng, dim=2, deg=3)
            assert a * b == b * a
            assert a * (b + b) == a * b + a * b


def _random_poly(rng: np.random.Generator, dim: int, deg: int) -> Polynomial:
    terms = {}
    for alpha in monomials_up_to(dim, deg):
        c = int(rng.integers(-4, 5))
        if c:
            terms[alpha] = Fraction(c)
    return Polynomial(dim, terms)


def _point_mass_sequence() -> MomentSequence:
    # Moments of the unit point mass at (1, 2): s_(a,b) = 2^b.
    values = {
        (a, b): Fraction(2) ** b
        for a, b in monomials_up_to(2, 3)
    }
    return MomentSequence(2, 3, values)


class TestMomentSequence:
    def test_value_and_mass(self):
        s = _point_mass_sequence()
        assert s.mass == 1
        assert s.value((1, 2)) == 4

    def test_riesz_is_linear_functional(self):
        s = _point_mass_sequence()
        # L(2 x1 x2 + x2) = 2*2 + 2 = 6, by hand.
        p = Polynomial(2, {(1, 1): Fraction(2), (0, 1): Fraction(1)})
        assert s.riesz(p) == 6
        q = Polynomial(2, {(2, 1): Fraction(1)})
        assert s.riesz(p + q) == s.riesz(p) + s.riesz(q)

    def test_riesz_rejects_degree_beyond_data(self):
        s = _point_mass_sequence()
        with pytest.raises(DegreeOverflow):
            s.riesz(Polynomial(2, {(4, 0): Fraction(1)}))

    def test_marginal(self):
        s = _point_mass_sequence()
        assert s.marginal(1, 3) == 8
        assert s.marginal(0, 2) == 1

    def test_missing_entry_rejected(self):
        values = {(0,): 1.0, (2,): 2.0}
        with pytest.raises(ValueError):
            MomentSequence(1, 2, values)

    def test_store_is_canonical_and_graded_lex(self):
        # Keys that equal int tuples (numpy ints, bools) are stored as the
        # int tuples themselves, in graded-lex order whatever the input order.
        values = {(np.int64(1), 0): 2.0, (0, True): 3.0, (0, 0): 1.0}
        s = MomentSequence(2, 1, values)
        assert list(s.values) == [(0, 0), (1, 0), (0, 1)]
        assert all(type(a) is int for idx in s.values for a in idx)
        assert s.values == {(0, 0): 1.0, (1, 0): 2.0, (0, 1): 3.0}

    def test_log_value_of_zero_is_minus_inf(self):
        s = MomentSequence(1, 1, {(0,): 1.0, (1,): 0.0})
        assert s.log_value((1,)) == -math.inf

    def test_log_value_negative_rejected(self):
        s = MomentSequence(1, 1, {(0,): 1.0, (1,): -2.0})
        with pytest.raises(NegativeMoment):
            s.log_value((1,))

    def test_stored_log_values_take_precedence(self):
        # Entry too large for a double: value inf, log finite and usable.
        logs = {(2,): 800.0}
        s = MomentSequence(1, 2, {(0,): 1.0, (1,): 1.0, (2,): math.inf}, logs)
        assert s.log_value((2,)) == 800.0

    def test_finite_degree(self):
        values = {(k,): 1.0 for k in range(5)}
        values[(5,)] = math.inf
        values[(6,)] = math.inf
        s = MomentSequence(1, 6, values, {(5,): 900.0, (6,): 1100.0})
        assert s.finite_degree() == 4

    def test_restrict(self):
        s = _point_mass_sequence()
        r = s.restrict(2)
        assert r.max_degree == 2
        assert r.value((0, 2)) == 4
        with pytest.raises(DegreeOverflow):
            r.value((0, 3))

    def test_equality(self):
        assert _point_mass_sequence() == _point_mass_sequence()


class TestAtomicMeasure:
    def test_total_mass_and_sorting(self):
        m = AtomicMeasure(1, [((3.0,), 0.25), ((1.0,), 0.75)])
        assert m.total_mass == 1.0
        assert [x for (x,), _ in m.sorted_atoms()] == [1.0, 3.0]

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            AtomicMeasure(1, [((1.0,), 0.0)])
        with pytest.raises(ValueError):
            AtomicMeasure(1, [((1.0,), -0.5)])

    def test_coincident_atoms_rejected(self):
        with pytest.raises(ValueError):
            AtomicMeasure(2, [((1.0, 2.0), 0.5), ((1.0, 2.0), 0.5)])

    def test_dim_checked(self):
        with pytest.raises(DimMismatch):
            AtomicMeasure(2, [((1.0,), 0.5)])

    def test_len_is_atom_count(self):
        m = AtomicMeasure(1, [((0.0,), 1.0), ((2.0,), 1.0)])
        assert len(m) == 2


@pytest.mark.parametrize(
    "dim, degree, values, logs, error, message",
    [
        (1, 2, {(0,): 1.0, (1,): 1.0}, None, ValueError,
         "incomplete moment data: index (2,) is missing "
         "(every |alpha| <= 2 must be present)"),
        (1, 1, {(0,): 1.0, (1,): 1.0, ("1",): 2.0}, None, ValueError,
         "duplicate moment index (1,)"),
        (1, 1, {(0,): 1.0, (-1,): 1.0}, None, ValueError,
         "negative exponent in moment index (-1,)"),
        (1, 1, {(0,): 1.0, (1,): 1.0, (2,): 1.0}, None, DegreeOverflow,
         "moment index (2,) exceeds truncation degree 1"),
        (2, 0, {(0,): 1.0}, None, DimMismatch,
         "moment index (0,) has length 1, expected 2"),
        (1, 1, {(0,): 1.0, (1,): 1.0}, {(5,): 1.0}, ValueError,
         "log value for unknown moment index (5,)"),
        (1, 1, {(0,): math.inf, (1,): 1.0}, None, ValueError,
         "mass s_0 must be finite"),
    ],
    ids=[
        "missing", "duplicate", "negative", "overflow", "length",
        "unknown-log", "infinite-mass",
    ],
)
def test_moment_sequence_errors(dim, degree, values, logs, error, message):
    with pytest.raises(error) as exc:
        MomentSequence(dim, degree, values, logs)
    assert type(exc.value) is error
    assert str(exc.value) == message
