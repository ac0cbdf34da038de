"""Generator substitution, generation checks, pushforward, pull-back."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from momentkit import (
    AmbiguousPreimageWarning,
    AtomicMeasure,
    DegreeOverflow,
    DimMismatch,
    MembershipViolation,
    MomentSequence,
    NoPreimage,
    Polynomial,
    SemiAlgebraicPresentation,
    check_generates,
    monomials_up_to,
    moments_of_atomic,
    power_curve_inverse,
    power_curve_presentation,
    pull_back_atoms,
    pushforward_moments,
    reduction,
)
from momentkit.reduction import _image_monomials, pushed_power_sequence


def _curve(exponent: int) -> SemiAlgebraicPresentation:
    return power_curve_presentation(exponent)


def _x(i: int, dim: int = 2) -> Polynomial:
    return Polynomial.variable(dim, i)


def _y_poly(terms: dict) -> Polynomial:
    return Polynomial(2, {a: Fraction(c) for a, c in terms.items()})


class TestPresentation:
    def test_values_and_membership(self):
        pres = _curve(2)  # constraints x2 - x1^2 and x1
        assert pres.values_at((3.0, 9.0)) == (0.0, 3.0)
        assert pres.contains((3.0, 9.0))
        assert not pres.contains((3.0, 8.0))
        assert not pres.contains((-1.0, 1.0))

    def test_max_degree(self):
        assert _curve(2).max_degree == 2
        assert _curve(5).max_degree == 5

    def test_substitute_by_hand(self):
        # Under y1 -> x2 - x1^2, y2 -> x1:
        #   y1 + y2^2  ->  x2  and  y1 y2  ->  x1 x2 - x1^3.
        pres = _curve(2)
        p = _y_poly({(1, 0): 1, (0, 2): 1})
        assert pres.substitute(p) == _x(1)
        q = _y_poly({(1, 1): 1})
        assert pres.substitute(q) == Polynomial(
            2, {(1, 1): Fraction(1), (3, 0): Fraction(-1)}
        )

    def test_substitute_is_ring_homomorphism(self):
        pres = _curve(3)
        rng = np.random.default_rng(3)
        for _ in range(25):
            p = _random_y_poly(rng)
            q = _random_y_poly(rng)
            assert pres.substitute(p * q) == pres.substitute(p) * pres.substitute(q)
            assert pres.substitute(p + q) == pres.substitute(p) + pres.substitute(q)

    def test_substitute_checks_dim(self):
        pres = _curve(2)
        with pytest.raises(DimMismatch):
            pres.substitute(Polynomial.variable(3, 0))


def _random_y_poly(rng: np.random.Generator) -> Polynomial:
    terms = {}
    for alpha in monomials_up_to(2, 2):
        c = int(rng.integers(-3, 4))
        if c:
            terms[alpha] = Fraction(c)
    return Polynomial(2, terms) if terms else Polynomial.constant(2, 1)


class TestCheckGenerates:
    def test_curve_generates_with_budget_two(self):
        pres = _curve(2)
        result = check_generates(pres, budget=2)
        assert result.generated
        assert result.witnesses is not None
        # Each witness substitutes exactly to its coordinate.
        for i, witness in enumerate(result.witnesses):
            assert pres.substitute(witness) == _x(i)

    def test_curve_needs_budget_matching_exponent(self):
        pres = _curve(3)
        assert not check_generates(pres, budget=2).generated
        assert check_generates(pres, budget=3).generated

    def test_square_alone_never_generates(self):
        # Images of x1^2 span only even-degree polynomials; the coordinate
        # x1 is out of reach at every budget.
        pres = SemiAlgebraicPresentation(
            1, [Polynomial(1, {(2,): Fraction(1)})]
        )
        for budget in range(1, 7):
            result = check_generates(pres, budget)
            assert not result.generated
            assert result.witnesses is None

    def test_coordinates_generate_immediately(self):
        pres = SemiAlgebraicPresentation(2, [_x(0), _x(1)])
        result = check_generates(pres, budget=1)
        assert result.generated


class TestPushforward:
    def test_point_mass_maps_to_image_point(self):
        # delta at (1, 3) pushed through (x2 - x1^2, x1) is delta at (2, 1):
        # pushed moments are 2^a * 1^b.
        pres = _curve(2)
        mu = AtomicMeasure(2, [((1.0, 3.0), 1.0)])
        s = moments_of_atomic(mu, 8, exact=True)
        pushed = pushforward_moments(s, pres, image_degree=4)
        assert pushed.dim == 2
        for a, b in monomials_up_to(2, 4):
            assert pushed.value((a, b)) == Fraction(2) ** a

    def test_adjoint_to_substitution(self):
        # The defining identity: pushed L applied to p equals L applied to
        # the substituted polynomial, exactly for exact data.
        pres = _curve(2)
        mu = AtomicMeasure(2, [((1.5, 2.25), 0.5), ((2.0, 4.0), 1.5)])
        s = moments_of_atomic(mu, 12, exact=True)
        pushed = pushforward_moments(s, pres, image_degree=3)
        rng = np.random.default_rng(17)
        for _ in range(25):
            p = _random_y_poly(rng)
            if p.degree > 3:
                continue
            assert pushed.riesz(p) == s.riesz(pres.substitute(p))

    def test_degree_budget_enforced(self):
        pres = _curve(2)
        mu = AtomicMeasure(2, [((1.0, 1.0), 1.0)])
        s = moments_of_atomic(mu, 6)
        with pytest.raises(DegreeOverflow):
            pushforward_moments(s, pres, image_degree=4)

    def test_dim_mismatch(self):
        pres = _curve(2)
        mu = AtomicMeasure(1, [((1.0,), 1.0)])
        s = moments_of_atomic(mu, 4)
        with pytest.raises(DimMismatch):
            pushforward_moments(s, pres, image_degree=1)


class TestPullBack:
    def test_explicit_inverse(self):
        # Image atom (2, 1) pulls back through g = (y2, y1 + y2^2) to (1, 3).
        pres = _curve(2)
        inverse = power_curve_inverse(2)
        nu = AtomicMeasure(2, [((2.0, 1.0), 0.8)])
        pulled = pull_back_atoms(nu, pres, inverse)
        assert pulled.atoms[0][0] == pytest.approx((1.0, 3.0))
        assert pulled.atoms[0][1] == 0.8

    def test_newton_search_matches_inverse(self):
        pres = _curve(2)
        inverse = power_curve_inverse(2)
        nu = AtomicMeasure(
            2, [((0.0, 1.5), 0.25), ((0.0, 3.0), 0.5), ((0.0, 0.25), 0.25)]
        )
        via_inverse = pull_back_atoms(nu, pres, inverse)
        via_newton = pull_back_atoms(nu, pres, None)
        a = via_inverse.sorted_atoms()
        b = via_newton.sorted_atoms()
        assert len(a) == len(b)
        for (p, w1), (q, w2) in zip(a, b):
            assert p == pytest.approx(q, abs=1e-6)
            assert w1 == pytest.approx(w2)

    def test_no_preimage(self):
        # Constraints (x1^2, x1) force target = (t^2, t); (4, 7) is
        # inconsistent, so no preimage exists.
        pres = SemiAlgebraicPresentation(
            1, [Polynomial(1, {(2,): Fraction(1)}), _x(0, dim=1)]
        )
        nu = AtomicMeasure(2, [((4.0, 7.0), 1.0)])
        with pytest.raises(NoPreimage):
            pull_back_atoms(nu, pres, None)

    def test_membership_violation(self):
        # Target (4, -2) has the consistent preimage x = -2, but that point
        # violates the constraint x >= 0.
        pres = SemiAlgebraicPresentation(
            1, [Polynomial(1, {(2,): Fraction(1)}), _x(0, dim=1)]
        )
        nu = AtomicMeasure(2, [((4.0, -2.0), 1.0)])
        with pytest.raises(MembershipViolation):
            pull_back_atoms(nu, pres, None)

    def test_ambiguous_preimage_warns(self):
        # With the single constraint x1^2, the target (4,) has the two
        # feasible preimages -2 and 2.
        pres = SemiAlgebraicPresentation(
            1, [Polynomial(1, {(2,): Fraction(1)})]
        )
        nu = AtomicMeasure(1, [((4.0,), 1.0)])
        with pytest.warns(AmbiguousPreimageWarning):
            pulled = pull_back_atoms(nu, pres, None)
        assert abs(pulled.atoms[0][0][0]) == pytest.approx(2.0, abs=1e-8)

    def test_roundtrip_through_pipeline_stages(self):
        # Push exact on-curve data forward, then pull the image atoms back:
        # the original measure returns.
        from momentkit import extract_atoms_auto

        pres = _curve(2)
        inverse = power_curve_inverse(2)
        mu = AtomicMeasure(2, [((1.5, 2.25), 0.5), ((3.0, 9.0), 1.5)])
        s = moments_of_atomic(mu, 12, exact=True)
        # Two atoms need a flat pair at level 2, hence image degree >= 4.
        pushed = pushforward_moments(s, pres, image_degree=4)
        nu, _level = extract_atoms_auto(pushed)
        for pulled in (
            pull_back_atoms(nu, pres, inverse),
            pull_back_atoms(nu, pres, None),
        ):
            atoms = pulled.sorted_atoms()
            assert len(atoms) == 2
            assert atoms[0][0] == pytest.approx((1.5, 2.25), abs=1e-8)
            assert atoms[1][0] == pytest.approx((3.0, 9.0), abs=1e-8)
            assert atoms[0][1] == pytest.approx(0.5, abs=1e-8)
            assert atoms[1][1] == pytest.approx(1.5, abs=1e-8)

    def test_dim_mismatch(self):
        pres = _curve(2)
        nu = AtomicMeasure(1, [((1.0,), 1.0)])
        with pytest.raises(DimMismatch):
            pull_back_atoms(nu, pres, None)


class TestInverseMap:
    def test_curve_inverse_components(self):
        # g1 = y2 and g2 = y1 + y2^k satisfy g(f(x)) = x on the curve.
        for k in (1, 2, 3):
            pres = _curve(k)
            inv = power_curve_inverse(k)
            for x1 in (0.0, 0.5, 2.0):
                x = (x1, x1**k)
                y = pres.values_at(x)
                assert [g.evaluate(y) for g in inv] == pytest.approx(x)

    def test_generation_witnesses_are_the_curve_inverse(self):
        # The certificate is the inverse map, term for term; pulling back
        # through either gives the same atoms to the last bit.  Exponent k
        # needs budget k (y2^k is a witness term).
        nu = AtomicMeasure(
            2, [((0.0, 1.5), 0.25), ((0.75, 0.5), 0.5), ((2.0, 3.0), 0.25)]
        )
        for k in (1, 2, 3):
            pres = _curve(k)
            gen = check_generates(pres, budget=max(2, k))
            inverse = power_curve_inverse(k)
            assert gen.witnesses == inverse
            via_witnesses = pull_back_atoms(nu, pres, gen.witnesses)
            assert via_witnesses.atoms == pull_back_atoms(nu, pres, inverse).atoms

    def test_shape_validated(self):
        # pull_back_atoms checks the witnesses' shape: one per coordinate,
        # each in the image variables.
        pres = _curve(2)
        nu = AtomicMeasure(2, [((2.0, 1.0), 1.0)])
        for witnesses in (
            [Polynomial.variable(2, 1)],
            [Polynomial.variable(3, 0), Polynomial.variable(3, 1)],
        ):
            with pytest.raises(DimMismatch):
                pull_back_atoms(nu, pres, witnesses)


class TestPushedPowerSequence:
    # f = x2 - x1^2 vanishes on the parabola x2 = x1^2.
    PARABOLA = Polynomial(2, {(0, 1): 1, (2, 0): -1})

    def test_coordinate_keeps_log_values(self):
        values = {a: 1.0 for a in monomials_up_to(2, 4)}
        values[(0, 4)] = math.inf
        s = MomentSequence(2, 4, values, {(0, 4): 800.0, (2, 0): 0.0})
        t = pushed_power_sequence(s, _x(1), 4)
        assert t.dim == 1 and t.max_degree == 4
        assert t.values == {(n,): s.marginal(1, n) for n in range(5)}
        assert t.log_values == {(4,): 800.0}
        assert t.log_value((4,)) == 800.0

    def test_float_data_on_curve_cancels_to_zero(self):
        mu = AtomicMeasure(
            2, [((1.5, 2.25), 0.6), ((0.7, 0.49), 0.4), ((1.1, 1.21), 0.3)]
        )
        s = moments_of_atomic(mu, 8)
        # Float roundoff leaves L(f^n) slightly off zero ...
        assert any(s.riesz(self.PARABOLA**n) != 0.0 for n in range(1, 5))
        t = pushed_power_sequence(s, self.PARABOLA, 4)
        # ... and the cancellation rule zeroes it; the mass is untouched.
        assert t.values[(0,)] == s.mass
        assert [t.values[(n,)] for n in range(1, 5)] == [0.0] * 4

    def test_off_curve_value_stays_nonzero(self):
        # An atom of weight 0.25 at (1, 2) has f = 1, so L(f^n) = 0.25.
        mu = AtomicMeasure(2, [((1.5, 2.25), 0.6), ((1.0, 2.0), 0.25)])
        t = pushed_power_sequence(moments_of_atomic(mu, 8), self.PARABOLA, 4)
        for n in range(1, 5):
            assert t.values[(n,)] == pytest.approx(0.25, rel=1e-12)


def _reference_images(
    pres: SemiAlgebraicPresentation, budget: int
) -> dict[tuple[int, ...], Polynomial]:
    """``f^alpha`` for ``|alpha| <= budget``, built afresh with no cache."""
    images: dict[tuple[int, ...], Polynomial] = {}
    for alpha in monomials_up_to(pres.num_generators, budget):
        if sum(alpha) == 0:
            images[alpha] = Polynomial.constant(pres.dim, 1)
            continue
        j = next(i for i, e in enumerate(alpha) if e)
        prev = tuple(e - (1 if i == j else 0) for i, e in enumerate(alpha))
        images[alpha] = images[prev] * pres.generators[j]
    return images


@st.composite
def _presentations(draw):
    dim = draw(st.integers(1, 3))
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    generators = draw(
        st.lists(
            st.dictionaries(
                st.sampled_from(monomials_up_to(dim, 2)), coeff, max_size=4
            ),
            min_size=1,
            max_size=3,
        )
    )
    return SemiAlgebraicPresentation(
        dim, [Polynomial(dim, terms) for terms in generators]
    )


class TestPresentationCache:
    def test_images_are_read_only(self):
        images = _image_monomials(_curve(2), 2)
        with pytest.raises(TypeError):
            images[(0, 0)] = Polynomial.constant(2, 2)  # type: ignore[index]
        assert images[(0, 0)] == Polynomial.constant(2, 1)

    def test_equal_contents_share_images_and_new_terms_do_not(self):
        reduction._image_algebra.cache_clear()
        first = _image_monomials(_curve(2), 2)
        # A rebuilt presentation with the same polynomials reads the cache.
        assert _image_monomials(_curve(2), 2) is first
        # x2 - 2 x1^2 in place of x2 - x1^2: fresh images, and the right ones.
        pres = _curve(2)
        pres.generators[0] = Polynomial(2, {(0, 1): 1, (2, 0): -2})
        rebuilt = _image_monomials(pres, 2)
        assert rebuilt is not first
        assert rebuilt[(1, 0)] == pres.generators[0]
        assert rebuilt[(2, 0)] == pres.generators[0] ** 2
        # Editing a generator's terms in place changes its key as well.
        pres.generators[1].terms[(0, 1)] = Fraction(1)
        assert _image_monomials(pres, 2)[(0, 1)] == _x(0) + _x(1)

    def test_edited_witness_list_does_not_reach_the_next_call(self):
        reduction._certificate.cache_clear()
        first = check_generates(_curve(2), 2)
        assert first.witnesses is not None
        expected = list(first.witnesses)
        first.witnesses.clear()
        second = check_generates(_curve(2), 2)
        assert second is not first
        assert second.witnesses == expected
        assert reduction._certificate.cache_info().hits == 1

    @settings(max_examples=60, deadline=None)
    @given(
        pres=_presentations(),
        budget=st.integers(0, 4),
        exact=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_cache_matches_a_fresh_build(self, pres, budget, exact, seed):
        reduction._image_algebra.cache_clear()
        reference = _reference_images(pres, budget)
        cached = _image_monomials(pres, budget)
        assert list(cached) == list(reference)
        assert dict(cached) == reference
        assert _image_monomials(pres, budget) is cached

        rng = np.random.default_rng(seed)
        degree = budget * pres.max_degree
        values = {
            alpha: (
                Fraction(int(rng.integers(-50, 51)), int(rng.integers(1, 8)))
                if exact
                else float(rng.uniform(-10.0, 10.0))
            )
            for alpha in monomials_up_to(pres.dim, degree)
        }
        s = MomentSequence(pres.dim, degree, values)
        pushed = pushforward_moments(s, pres, budget)
        expected = {alpha: s.riesz(image) for alpha, image in reference.items()}
        # repr tells -0.0 from 0.0 and a Fraction from an equal float.
        assert {a: repr(v) for a, v in pushed.values.items()} == {
            a: repr(v) for a, v in expected.items()
        }
