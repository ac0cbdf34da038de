"""Generator substitution, generation checks, pushforward, pull-back."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    fileformats,
    monomials_up_to,
    moments_of_atomic,
    normalize,
    power_curve_inverse,
    power_curve_presentation,
    pull_back_atoms,
    pushforward_moments,
    reduction,
)
from momentkit.polynomials import _log
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
        from momentkit.multivariate import extract_atoms_auto

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

    def test_wrong_witness_is_no_preimage(self):
        # Swapped witnesses map (2, 1) to (3, 1), whose image (-8, 3) is not
        # the atom.
        pres = _curve(2)
        x1, x2 = power_curve_inverse(2)
        nu = AtomicMeasure(2, [((2.0, 1.0), 0.8)])
        with pytest.raises(
            NoPreimage,
            match=r"^best candidate for atom \(2\.0, 1\.0\) has residual 10 above 1e-06$",
        ):
            pull_back_atoms(nu, pres, [x2, x1])

    def test_coincident_preimages_are_merged_with_a_warning(self):
        # Image atoms 1e-9 apart pull back to points 1e-9 apart, within tol:
        # one atom carrying both weights.
        pres = _curve(2)
        nu = AtomicMeasure(2, [((0.5, 1.0), 0.25), ((0.5 + 1e-9, 1.0), 0.75)])
        with pytest.warns(
            AmbiguousPreimageWarning,
            match="1 pulled-back atom\\(s\\) coincided and were merged",
        ):
            pulled = pull_back_atoms(nu, pres, power_curve_inverse(2))
        assert pulled.atoms == [((1.0, 1.5), 1.0)]

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

    def test_negative_data_on_a_cubic_cancels_to_zero(self):
        # On x2 = x1^3 with x1 < 0 every entry f^3 reads is negative: the
        # cancellation scale sums |c| |s|, not the signed products.
        cubic = Polynomial(2, {(0, 1): 1, (3, 0): -1})
        mu = AtomicMeasure(
            2, [((x, x**3), w) for x, w in [(-1.5, 0.6), (-0.7, 0.4), (-1.1, 0.3)]]
        )
        s = moments_of_atomic(mu, 12)
        assert s.riesz(cubic**3) != 0.0
        t = pushed_power_sequence(s, cubic, 4)
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


#: Float entries at the edges of double range: a signed zero, subnormals,
#: entries whose products with a coefficient overflow to ``inf``, and an
#: ``inf`` marker, which is stored with a log.
_EDGE_ENTRIES = (-0.0, 5e-324, -2.5e-320, 1e300, -1.7976931348623157e308, math.inf)
#: Kinds of moment data: the first two are uniform, ``edge`` mixes
#: :data:`_EDGE_ENTRIES` into floats, and ``int`` mixes ints into floats.
_DATA_KINDS = ("exact", "float", "edge", "int")


def _moment_data(dim: int, degree: int, kind: str, seed: int) -> MomentSequence:
    """Random data of one of :data:`_DATA_KINDS`; the mass is never an edge
    entry, and under ``int`` it is an int."""
    rng = np.random.default_rng(seed)
    values: dict = {}
    logs: dict = {}
    for alpha in monomials_up_to(dim, degree):
        if kind == "exact":
            values[alpha] = Fraction(int(rng.integers(-50, 51)), int(rng.integers(1, 8)))
            continue
        value = float(rng.uniform(-10.0, 10.0))
        if kind == "int" and not sum(alpha):
            value = int(rng.integers(-50, 51))
        elif sum(alpha) and kind != "float" and rng.random() < 0.4:
            if kind == "edge":
                value = _EDGE_ENTRIES[int(rng.integers(len(_EDGE_ENTRIES)))]
                if value == math.inf:
                    logs[alpha] = 800.0
            else:
                value = int(rng.integers(-50, 51))
        values[alpha] = value
    s = MomentSequence(dim, degree, values, logs)
    s._float_table()
    # Float and edge data take the float loop, the others the exact one.
    assert s._all_float == (kind in ("float", "edge"))
    return s


def _outcome(compute) -> dict | tuple[str, str]:
    """``repr`` of every value ``compute()`` returns (it tells -0.0 from 0.0
    and a Fraction from an equal float), or the message of the
    ``OverflowError`` it raises."""
    try:
        values = compute()
    except OverflowError as exc:
        return ("OverflowError", str(exc))
    return {a: repr(v) for a, v in values.items()}


def _reference_pushed_powers(s: MomentSequence, f: Polynomial, count: int) -> dict:
    """``pushed_power_sequence``'s values built by ``s.riesz(f**n)``, with
    its cancellation rule, as before the sums read the cached sorted terms."""
    values = {(0,): s.riesz(f**0)}
    for n in range(1, count + 1):
        power = f**n
        val = s.riesz(power)
        cancel_scale = 0.0
        for expo, coeff in power.terms.items():
            try:
                cancel_scale += abs(float(coeff)) * abs(float(s.value(expo)))
            except OverflowError:
                cancel_scale = math.inf
                break
        try:
            fv = float(val)
        except OverflowError:
            fv = math.inf
        if (
            math.isfinite(cancel_scale)
            and math.isfinite(fv)
            and fv != 0.0
            and abs(fv) <= reduction.RIESZ_CANCEL_TOL * cancel_scale
        ):
            val = 0.0
        values[(n,)] = val
    return values


class TestPushedPowersMatchRiesz:
    @settings(max_examples=200, deadline=None)
    @given(
        pres=_presentations(),
        count=st.integers(0, 5),
        kind=st.sampled_from(_DATA_KINDS),
        seed=st.integers(0, 2**16),
        axis=st.none() | st.integers(0, 2),
    )
    def test_equal_to_riesz_of_each_power(self, pres, count, kind, seed, axis):
        # A drawn axis replaces the generator by that coordinate.
        f = pres.generators[0]
        if axis is not None and axis < pres.dim:
            f = Polynomial.variable(pres.dim, axis)
        degree = max(count * max(pres.max_degree, f.degree), 1)
        s = _moment_data(pres.dim, degree, kind, seed)
        pushed = pushed_power_sequence(s, f, count)
        expected = _reference_pushed_powers(s, f, count)
        # repr tells -0.0 from 0.0 and a Fraction from an equal float.
        assert {a: repr(v) for a, v in pushed.values.items()} == {
            a: repr(v) for a, v in expected.items()
        }
        for (n,), v in pushed.values.items():
            if v != 0.0:
                assert repr(v) == repr(s.riesz(f**n))
        axes = [j for j in range(pres.dim) if f == Polynomial.variable(pres.dim, j)]
        if axes:
            # A plain coordinate keeps the stored logs of the marginal.
            assert pushed.log_values == s.marginal_sequence(axes[0], count).log_values

    @pytest.mark.parametrize("kind", _DATA_KINDS)
    @pytest.mark.parametrize(
        "coeff",
        [Fraction(10**400), Fraction(-1, 10**400), Fraction(-7, 3)],
        ids=["beyond-range", "below-range", "in-range"],
    )
    def test_coefficient_at_the_edge_of_double_range(self, kind, coeff):
        # f = c x1 + x2: on float data a coefficient beyond double range
        # raises the OverflowError of Fraction * float at its term, and one
        # below it rounds to -0.0 before it multiplies.
        f = Polynomial(2, {(1, 0): coeff, (0, 1): 1})
        pres = SemiAlgebraicPresentation(2, [f, _x(1)])
        images = _reference_images(pres, 2)
        for seed in range(4):
            s = _moment_data(2, 4, kind, seed)
            pushed = _outcome(lambda: pushed_power_sequence(s, f, 2).values)
            assert pushed == _outcome(lambda: _reference_pushed_powers(s, f, 2))
            expected = _outcome(
                lambda: {alpha: s.riesz(image) for alpha, image in images.items()}
            )
            assert _outcome(lambda: pushforward_moments(s, pres, 2).values) == expected
            if kind == "exact":
                assert all(v.startswith("Fraction(") for v in pushed.values())
            elif kind != "int" and coeff > 1:
                assert pushed == (
                    "OverflowError", "integer division result too large for a float"
                )

    def test_power_beyond_the_data_raises_pushforward_error(self):
        f = Polynomial(2, {(0, 1): 1, (2, 0): -1})
        s = moments_of_atomic(AtomicMeasure(2, [((1.0, 2.0), 1.0)]), 5)
        with pytest.raises(DegreeOverflow) as pushforward_error:
            pushforward_moments(s, SemiAlgebraicPresentation(2, [f]), 3)
        with pytest.raises(DegreeOverflow) as pushed_error:
            pushed_power_sequence(s, f, 3)
        assert str(pushed_error.value) == str(pushforward_error.value)
        assert "needs original entries up to degree 6" in str(pushed_error.value)


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
        # A generator's terms cannot be edited in place, so a cached key
        # never goes stale behind a polynomial.
        with pytest.raises(TypeError):
            pres.generators[1].terms[(0, 1)] = Fraction(1)  # type: ignore[index]
        assert pres.generators[1] == _x(0)
        assert _image_monomials(pres, 2)[(0, 1)] == _x(0)

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

    @settings(max_examples=100, deadline=None)
    @given(
        pres=_presentations(),
        budget=st.integers(0, 4),
        kind=st.sampled_from(_DATA_KINDS),
        seed=st.integers(0, 2**16),
    )
    # Images of one term with c > 0 (2 x1^2, x2^2), of one term with c < 0
    # (-x2, -2 x1^2 x2), of several positive terms (x1 + x2, 2 x1^3 + 2 x1^2
    # x2) and of several terms of either sign (-x1 x2 - x2^2).
    @example(
        pres=SemiAlgebraicPresentation(
            2, [Polynomial(2, {(2, 0): 2}), -_x(1), _x(0) + _x(1)]
        ),
        budget=2,
        kind="edge",
        seed=7,
    )
    def test_cache_matches_a_fresh_build(self, pres, budget, kind, seed):
        reduction._image_algebra.cache_clear()
        reference = _reference_images(pres, budget)
        cached = _image_monomials(pres, budget)
        assert list(cached) == list(reference)
        assert dict(cached) == reference
        assert _image_monomials(pres, budget) is cached

        s = _moment_data(pres.dim, budget * pres.max_degree, kind, seed)
        pushed = pushforward_moments(s, pres, budget)
        expected = {alpha: s.riesz(image) for alpha, image in reference.items()}
        # repr tells -0.0 from 0.0 and a Fraction from an equal float.
        assert {a: repr(v) for a, v in pushed.values.items()} == {
            a: repr(v) for a, v in expected.items()
        }
        # One log rule: an image sum c x^beta with every c > 0, every entry
        # s[beta] positive (a finite positive value or a stored log) and at
        # least one stored log has the log of its sum of terms; a one-term
        # image keeps log c + log s[beta] bit for bit.  No other image has a
        # log.  Beside the edge kind's markers, ``logged`` stores a log for
        # about half the entries, so that such images meet one often.
        rng = np.random.default_rng(seed)
        logged = MomentSequence(
            s.dim,
            s.max_degree,
            s.values,
            {a: float(rng.uniform(-5, 5)) for a in s.values if rng.random() < 0.5}
            | s.log_values,
        )
        for data in (s, logged):
            expected_logs = {}
            for alpha, image in reference.items():
                terms = image.terms.items()
                if any(beta in data.log_values for beta, _ in terms) and all(
                    c > 0
                    and (beta in data.log_values or 0 < data.values[beta] < math.inf)
                    for beta, c in terms
                ):
                    ells = [_log(c) + data.log_value(beta) for beta, c in terms]
                    if max(ells) > -math.inf:
                        expected_logs[alpha] = float(np.logaddexp.reduce(ells))
            got = pushforward_moments(data, pres, budget).log_values
            assert got.keys() == expected_logs.keys()
            for alpha, log_sum in expected_logs.items():
                if len(reference[alpha].terms) == 1:
                    assert got[alpha] == log_sum
                else:
                    assert got[alpha] == pytest.approx(log_sum, rel=1e-14, abs=1e-12)


def _assert_taken_over(got: MomentSequence) -> None:
    """``got``, built by taking over a store, is the public constructor's
    sequence of the same values and logs: the same keys in graded-lex order,
    the same values by ``repr``, the same logs in the same order, and the
    same float table."""
    ref = MomentSequence(got.dim, got.max_degree, dict(got.values), dict(got.log_values))
    assert list(got.values) == list(ref.values) == monomials_up_to(got.dim, got.max_degree)
    assert all(all(type(e) is int for e in alpha) for alpha in got.values)
    assert [repr(v) for v in got.values.values()] == [repr(v) for v in ref.values.values()]
    assert list(got.log_values.items()) == list(ref.log_values.items())
    assert all(type(lv) is float for lv in got.log_values.values())
    assert got == ref
    assert got._float_table().tobytes() == ref._float_table().tobytes()
    assert (got._all_float, got._overflow_at) == (ref._all_float, ref._overflow_at)


class TestLibraryBuiltStores:
    """The reader, ``normalize``, ``restrict``, ``pushforward_moments`` and
    ``pushed_power_sequence`` hand their stores over without the checks and
    the copy of ``MomentSequence.__init__``."""

    @settings(max_examples=100, deadline=None)
    @given(
        pres=_presentations(),
        budget=st.integers(1, 3),
        kind=st.sampled_from(_DATA_KINDS),
        seed=st.integers(0, 2**16),
    )
    def test_each_site_equals_the_public_constructor(self, pres, budget, kind, seed):
        s = _moment_data(pres.dim, budget * pres.max_degree, kind, seed)
        # A positive mass of the data's own kind, and a stored log on about
        # half the entries beside the edge kind's markers.
        rng = np.random.default_rng(seed)
        mass = Fraction(5, 2) if kind == "exact" else 3 if kind == "int" else 2.5
        data = MomentSequence(
            s.dim,
            s.max_degree,
            s.values | {(0,) * s.dim: mass},
            {a: float(rng.uniform(-5, 5)) for a in s.values if rng.random() < 0.5}
            | s.log_values,
        )
        _assert_taken_over(
            fileformats.parse_moment_file(fileformats.format_moment_file(data))
        )
        _assert_taken_over(normalize(data))
        for degree in range(data.max_degree):
            _assert_taken_over(data.restrict(degree))
        _assert_taken_over(pushforward_moments(data, pres, budget))
        _assert_taken_over(pushed_power_sequence(data, pres.generators[0], budget))
