"""Multi-index order, polynomial arithmetic, moment data, atomic measures."""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def _reference_add(a: Polynomial, b: Polynomial) -> Polynomial:
    """``a + b`` through the public constructor, as every result was built
    before arithmetic skipped its checks."""
    acc = dict(a.terms)
    for alpha, c in b.terms.items():
        acc[alpha] = acc.get(alpha, Fraction(0)) + c
    return Polynomial(a.dim, acc)


def _reference_neg(a: Polynomial) -> Polynomial:
    return Polynomial(a.dim, {alpha: -c for alpha, c in a.terms.items()})


def _reference_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    acc: dict = {}
    for alpha, ca in a.terms.items():
        for beta, cb in b.terms.items():
            gamma = tuple(x + y for x, y in zip(alpha, beta))
            acc[gamma] = acc.get(gamma, Fraction(0)) + ca * cb
    return Polynomial(a.dim, acc)


def _reference_pow(a: Polynomial, exponent: int) -> Polynomial:
    result, base, e = Polynomial.constant(a.dim, 1), a, exponent
    while e:
        if e & 1:
            result = _reference_mul(result, base)
        base = _reference_mul(base, base) if e > 1 else base
        e >>= 1
    return result


@st.composite
def _polynomial_pairs(draw):
    """Two polynomials in one dimension, with zero, int, float and
    ``Fraction`` coefficients given to the public constructor."""
    dim = draw(st.integers(1, 3))
    coeff = st.one_of(
        st.just(0),
        st.integers(-3, 3),
        st.fractions(min_value=-3, max_value=3, max_denominator=5),
        st.sampled_from([0.5, -0.25, 1.5, 0.0]),
    )
    terms = st.dictionaries(st.sampled_from(monomials_up_to(dim, 3)), coeff, max_size=6)
    return Polynomial(dim, draw(terms)), Polynomial(dim, draw(terms))


class TestArithmeticResults:
    """``+``, ``-``, ``*`` and ``**`` build their results without the
    constructor's checks; each result is the public constructor's polynomial
    of the same terms, in the same insertion order, and its kept graded-lex
    order is the sorted one."""

    @settings(max_examples=200, deadline=None)
    @given(
        pair=_polynomial_pairs(),
        scalar=st.one_of(
            st.integers(-3, 3),
            st.fractions(min_value=-2, max_value=2, max_denominator=4),
            st.sampled_from([0.5, -1.25, 0.0]),
        ),
        exponent=st.integers(0, 3),
    )
    def test_results_equal_the_public_constructor(self, pair, scalar, exponent):
        a, b = pair
        c = Fraction(scalar)
        scaled = Polynomial(a.dim, {k: v * c for k, v in a.terms.items()})
        constant = Polynomial.constant(a.dim, scalar)
        cases = [
            (a + b, _reference_add(a, b)),
            (a - b, _reference_add(a, _reference_neg(b))),
            (-a, _reference_neg(a)),
            (a * b, _reference_mul(a, b)),
            (a * scalar, scaled),
            (scalar * a, scaled),
            (a + scalar, _reference_add(a, constant)),
            (scalar - a, _reference_add(_reference_neg(a), constant)),
            (a**exponent, _reference_pow(a, exponent)),
        ]
        for got, ref in cases:
            assert got == ref
            assert list(got.terms.items()) == list(ref.terms.items())
            assert all(type(v) is Fraction and v for v in got.terms.values())
            assert all(
                type(alpha) is tuple and all(type(e) is int for e in alpha)
                for alpha in got.terms
            )
            expected = [(k, ref.terms[k]) for k in sorted(ref.terms, key=grlex_key)]
            first = got.sorted_terms()
            assert first == ref.sorted_terms() == expected
            first.reverse()
            first.append(((9,) * got.dim, Fraction(1)))
            assert got.sorted_terms() == expected
            assert got.sorted_terms() is not got.sorted_terms()
            assert got.to_string() == ref.to_string()

    def test_kept_order_is_read_by_evaluation_and_rendering(self):
        p = Polynomial(2, {(0, 1): 3, (2, 0): -1, (0, 0): Fraction(1, 2), (1, 1): 2})
        listed = p.sorted_terms()
        listed.clear()
        assert p.to_string() == "2*x1*x2 - x1^2 + 3*x2 + 1/2"
        assert p.evaluate((Fraction(1), Fraction(2))) == Fraction(19, 2)
        assert [alpha for alpha, _ in p.sorted_terms()] == [(0, 0), (0, 1), (2, 0), (1, 1)]


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
    def test_non_canonical_keys_are_converted(self):
        # Keys that are not the canonical int tuples go through the checked
        # path, which converts each exponent with int().
        s = MomentSequence(1, 2, {("0",): 1.0, ("1",): 2.0, ("2",): 4.0})
        assert s == MomentSequence(1, 2, {(0,): 1.0, (1,): 2.0, (2,): 4.0})
        assert all(type(a) is int for alpha in s.values for a in alpha)

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

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 3), degree=st.integers(0, 5))
    def test_finite_degree_matches_the_nested_loop(self, data, dim, degree):
        entry = st.sampled_from(_ENTRIES)
        values = {
            alpha: data.draw(entry) for alpha in monomials_up_to(dim, degree)
        }
        values[(0,) * dim] = data.draw(st.sampled_from([1.0, Fraction(10**400, 3)]))
        s = MomentSequence(dim, degree, values)
        assert s.finite_degree() == _reference_finite_degree(s)

    def test_restrict(self):
        s = _point_mass_sequence()
        r = s.restrict(2)
        assert r.max_degree == 2
        assert r.value((0, 2)) == 4
        with pytest.raises(DegreeOverflow):
            r.value((0, 3))

    def test_restrict_to_its_own_degree_is_the_sequence_itself(self):
        s = _point_mass_sequence()
        assert s.restrict(s.max_degree) is s

    def test_equality(self):
        assert _point_mass_sequence() == _point_mass_sequence()


#: Moment entries as floats (finite, infinite, NaN) and as exact numbers in
#: and out of double range.
_ENTRIES = [
    2.5, -0.0, math.inf, -math.inf, math.nan, 3, Fraction(1, 3),
    10**400, -(10**400), Fraction(10**400, 7), Fraction(1, 10**400),
]


def _reference_finite_degree(s: MomentSequence) -> int:
    """:meth:`MomentSequence.finite_degree` as a loop over the degrees."""
    for t in range(1, s.max_degree + 1):
        for alpha in monomials_of_degree(s.dim, t):
            try:
                fv = float(s.values[alpha])
            except OverflowError:
                return t - 1
            if not math.isfinite(fv):
                return t - 1
    return s.max_degree


#: Coordinates that collide, differ by less than the tolerance, or are
#: NaN and infinite, which make NaN gaps.
_COORDINATES = [0.0, -0.0, 1.0, 1.0 + 2**-45, 2.0, Fraction(1, 3), math.nan, math.inf, -math.inf, 1e308, -1e308]


def _reference_coincidence(points, tol):
    """The distinctness check as a loop over pairs, with Python's ``max``."""
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            gap = max(abs(float(a) - float(b)) for a, b in zip(points[i], points[j]))
            if gap <= tol:
                return f"atoms {points[i]} and {points[j]} coincide within {tol}"
    return None


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

    def test_first_coincident_pair_is_named(self):
        # Pairs are scanned as (0, 1), (0, 2), ..., (1, 2), ...: atom 1 and
        # its near-duplicate at position 3 are met before atom 2 and its
        # duplicate at position 4.
        points = [
            (0.0, 0.0), (1.0, 2.0), (3.0, Fraction(1, 3)), (1.0, 2.0 + 2**-42),
            (3.0, Fraction(1, 3)), (9.0, 9.0),
        ]
        message = re.escape(
            "atoms (1.0, 2.0) and (1.0, 2.0000000000002274) coincide within 1e-12"
        )
        with pytest.raises(ValueError, match=f"^{message}$"):
            AtomicMeasure(2, [(p, 1.0) for p in points])
        message = re.escape(
            "atoms (3.0, Fraction(1, 3)) and (3.0, Fraction(1, 3)) coincide "
            "within 1e-12"
        )
        with pytest.raises(ValueError, match=f"^{message}$"):
            AtomicMeasure(2, [(p, 1.0) for p in points[2:]])

    def test_one_dimensional_pair_is_the_first_in_row_major_order(self):
        # Sorted, (1, 1+1e-13) is the first close pair; the scan meets
        # (0, 2), the atoms 3 and 3+1e-13, before it.
        points = [3.0, 1.0, 3.0 + 1e-13, 1.0 + 1e-13]
        message = re.escape(f"atoms (3.0,) and ({3.0 + 1e-13!r},) coincide within 1e-12")
        with pytest.raises(ValueError, match=f"^{message}$"):
            AtomicMeasure(1, [((x,), 1.0) for x in points])
        far = [3.0, 1.0, 3.0 + 1e-11, 1.0 - 1e-11]
        assert len(AtomicMeasure(1, [((x,), 1.0) for x in far])) == 4

    def test_one_dimensional_nan_and_inf_keep_the_scan(self):
        nan = math.nan
        assert len(AtomicMeasure(1, [((nan,), 1.0), ((nan,), 1.0), ((2.0,), 1.0)])) == 3
        with pytest.raises(ValueError, match=r"^atoms \(2\.0,\) and \(2\.0,\)"):
            AtomicMeasure(1, [((nan,), 1.0), ((2.0,), 1.0), ((nan,), 1.0), ((2.0,), 1.0)])
        with pytest.raises(ValueError, match=r"^atoms \(inf,\) and \(1\.0,\) coincide"):
            AtomicMeasure(1, [((math.inf,), 1.0), ((1.0,), 1.0)], tol_atom=math.inf)
        # The sorted gap of these two overflows to inf, quietly.
        assert len(AtomicMeasure(1, [((1e308,), 1.0), ((-1e308,), 1.0)])) == 2

    def test_nan_gaps_keep_the_rule_of_python_max(self):
        # The gap of a pair is max(|a_k - b_k|) taken by Python's max: a NaN
        # in the first coordinate is kept, so the pair never coincides; a
        # NaN in a later coordinate is skipped.
        nan, inf = math.nan, math.inf
        assert len(AtomicMeasure(2, [((nan, 1.0), 1.0), ((nan, 1.0), 1.0)])) == 2
        assert len(AtomicMeasure(2, [((inf, 1.0), 1.0), ((inf, 1.0), 1.0)])) == 2
        with pytest.raises(ValueError, match=r"^atoms \(1\.0, nan\) and \(1\.0, nan\)"):
            AtomicMeasure(2, [((1.0, nan), 1.0), ((1.0, nan), 1.0)])
        with pytest.raises(ValueError, match=r"^atoms \(1\.0, inf, 2\.0\) and"):
            AtomicMeasure(3, [((1.0, inf, 2.0), 1.0), ((1.0, inf, 2.0), 1.0)])
        assert len(AtomicMeasure(3, [((1.0, nan, 2.0), 1.0), ((1.0, 5.0, 2.5), 1.0)])) == 2

    @settings(max_examples=200, deadline=None)
    @given(
        dim=st.integers(1, 4),
        points=st.lists(
            st.lists(st.sampled_from(_COORDINATES), min_size=4, max_size=4),
            max_size=8,
        ),
    )
    def test_distinctness_matches_the_pairwise_loop(self, dim, points):
        points = [tuple(p[:dim]) for p in points]
        try:
            AtomicMeasure(dim, [(p, 1.0) for p in points])
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == _reference_coincidence(points, 1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        dim=st.integers(2, 4),
        points=st.lists(
            st.tuples(*[st.floats(-1e3, 1e3, allow_nan=False)] * 4),
            max_size=24,
            unique=True,
        ),
        close=st.lists(
            st.tuples(
                st.integers(0, 23),
                st.sampled_from([0.0, 2**-45, 1e-13, 1e-11]),
                st.sampled_from([0.0, 1e-13, 1.0]),
                st.integers(0, 30),
            ),
            max_size=3,
        ),
        special=st.lists(
            st.tuples(st.sampled_from([math.nan, math.inf, -math.inf]), st.integers(0, 30)),
            max_size=3,
        ),
    )
    def test_scattered_points_match_the_pairwise_loop(self, dim, points, close, special):
        # Distinct scattered points take the sorted axis-0 shortcut; a
        # point close to another on axis 0 only, or also on every other
        # axis, and a NaN or inf on axis 0 exercise its fallback.
        points = [p[:dim] for p in points]
        for k, first, rest, at in close:
            if points:
                base = points[k % len(points)]
                near = (base[0] + first, *(x + rest for x in base[1:]))
                points.insert(at % (len(points) + 1), near)
        for x, at in special:
            points.insert(at % (len(points) + 1), (x, *[float(at)] * (dim - 1)))
        try:
            AtomicMeasure(dim, [(p, 1.0) for p in points])
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == _reference_coincidence(points, 1e-12)

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
