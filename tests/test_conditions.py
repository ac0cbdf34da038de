"""Growth-series diagnostics and subsequence bound checks."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from momentkit import (
    CONVERGENCE_CONSISTENT,
    DIVERGENCE_CONSISTENT,
    INCONCLUSIVE,
    AtomicMeasure,
    DegreeOverflow,
    HypothesisFailure,
    MomentError,
    MomentSequence,
    NotNormalized,
    TrivialFunctional,
    carleman_terms,
    check_subsequence_bounds,
    moments_factorial,
    moments_lognormal,
    moments_of_atomic,
    normalize,
    stieltjes_terms,
    subsequence_terms,
)
from momentkit import conditions
from momentkit.errors import NegativeMoment, NotPositive
from momentkit.fileformats import format_moment_file, parse_moment_file
from momentkit.matrices import localizing_matrix, moment_matrix, psd_check
from momentkit.polynomials import Polynomial, _exp, _log, _to_float


class TestNormalize:
    def test_scales_mass_to_one(self):
        s = MomentSequence(1, 2, {(0,): 2.0, (1,): 4.0, (2,): 10.0})
        n = normalize(s)
        assert n.mass == 1.0
        assert n.value((1,)) == 2.0

    def test_zero_mass_is_trivial(self):
        s = MomentSequence(1, 1, {(0,): 0.0, (1,): 0.0})
        with pytest.raises(TrivialFunctional):
            normalize(s)

    def test_negative_mass_rejected(self):
        s = MomentSequence(1, 0, {(0,): -1.0})
        with pytest.raises(NotPositive):
            normalize(s)

    def test_log_values_shift_by_log_mass(self):
        s = MomentSequence(1, 1, {(0,): 2.0, (1,): math.inf}, {(1,): 1000.0})
        n = normalize(s)
        assert n.log_value((1,)) == pytest.approx(1000.0 - math.log(2.0))

    def test_exact_mass_beyond_double_range(self):
        mass = Fraction(10**400, 3)
        s = MomentSequence(
            1, 2, {(0,): mass, (1,): 2 * mass, (2,): 5 * mass}, {(2,): 2000.0}
        )
        n = normalize(s)
        assert n.values == {(0,): 1, (1,): 2, (2,): 5}
        assert n.log_value((1,)) == math.log(2)
        assert n.log_value((2,)) == pytest.approx(
            2000.0 - (400 * math.log(10) - math.log(3)), rel=1e-15
        )

    def test_unnormalized_mass_beyond_double_range(self):
        s = MomentSequence(1, 2, {(0,): 10**400, (1,): 10**400, (2,): 10**400})
        with pytest.raises(NotNormalized):
            stieltjes_terms(s, count=2)


class TestStieltjesTerms:
    def test_factorial_first_terms(self):
        # a_n = (n!)^(-1/(2n)): a_1 = 1, a_2 = 2^(-1/4), a_3 = 6^(-1/6).
        rep = stieltjes_terms(moments_factorial(10), count=10)
        assert rep.terms[0] == pytest.approx(1.0)
        assert rep.terms[1] == pytest.approx(2.0 ** (-0.25))
        assert rep.terms[2] == pytest.approx(6.0 ** (-1.0 / 6.0))

    def test_factorial_classified_divergence_consistent(self):
        rep = stieltjes_terms(moments_factorial(120), count=120)
        assert rep.classification == DIVERGENCE_CONSISTENT
        assert rep.fit_details["rule"] == "power-law"
        assert not rep.degenerate

    def test_lognormal_terms_are_exact_geometric(self):
        # log m_n = n^2 / 2, so a_n = exp(-n/4) on the nose.
        rep = stieltjes_terms(moments_lognormal(60), count=60)
        for n in range(1, 61):
            assert rep.terms[n - 1] == pytest.approx(
                math.exp(-n / 4.0), abs=1e-14
            )
        assert rep.classification == CONVERGENCE_CONSISTENT
        assert rep.fit_details["rule"] == "geometric-ratio"

    def test_partial_sums_accumulate(self):
        rep = stieltjes_terms(moments_factorial(6), count=6)
        assert rep.partial_sums[2] == pytest.approx(sum(rep.terms[:3]))

    def test_requires_normalized(self):
        s = MomentSequence(1, 2, {(0,): 2.0, (1,): 2.0, (2,): 4.0})
        with pytest.raises(NotNormalized):
            stieltjes_terms(s, count=2)

    def test_count_beyond_data(self):
        with pytest.raises(DegreeOverflow):
            stieltjes_terms(moments_factorial(5), count=6)

    def test_degenerate_zero_moment(self):
        # The point mass at 0 has every higher moment equal to zero; the
        # terms blow up and the verdict is divergence-consistent by the
        # degenerate rule.
        mu = AtomicMeasure(1, [((0.0,), 1.0)])
        rep = stieltjes_terms(moments_of_atomic(mu, 8), count=8)
        assert rep.degenerate
        assert rep.classification == DIVERGENCE_CONSISTENT
        assert rep.fit_details["rule"] == "degenerate-zero-moment"

    def test_vanishing_tail_terms(self):
        # log m_n = n^3: a_n = exp(-n^2/2) underflows to 0.0 late in the
        # tail, which can only happen under extremely fast growth.
        deg = 60
        values = {(0,): 1.0}
        logs = {}
        for n in range(1, deg + 1):
            values[(n,)] = math.inf
            logs[(n,)] = float(n**3)
        s = MomentSequence(1, deg, values, logs)
        rep = stieltjes_terms(s, count=deg)
        assert rep.classification == CONVERGENCE_CONSISTENT
        assert rep.fit_details["rule"] == "vanishing-terms"

    @pytest.mark.parametrize("entry", [math.inf, math.nan])
    @pytest.mark.parametrize("zero_at", [None, 3])
    def test_entry_without_a_value_is_inconclusive(self, entry, zero_at):
        # The data above with one entry that is inf or nan and has no log:
        # no term can be read from it, whatever the others say, a zero
        # moment's degenerate rule included.
        deg = 60
        values = {(0,): 1.0, **{(n,): math.inf for n in range(1, deg + 1)}}
        logs = {(n,): float(n**3) for n in range(1, deg + 1)}
        values[(50,)] = entry
        del logs[(50,)]
        if zero_at is not None:
            values[(zero_at,)] = 0.0
            del logs[(zero_at,)]
        rep = stieltjes_terms(MomentSequence(1, deg, values, logs), count=deg)
        assert rep.degenerate == (zero_at is not None)
        assert rep.classification == INCONCLUSIVE
        assert rep.fit_details == {"rule": "entry-without-value"}

    def test_inconclusive_between_rules(self):
        # a_n = n^(-2): decays too fast for the power-law rule
        # (exponent 2 > 1.05) but with ratios tending to 1, too slowly for
        # the geometric rule.
        deg = 80
        values = {(0,): 1.0}
        logs = {}
        for n in range(1, deg + 1):
            values[(n,)] = math.inf
            logs[(n,)] = 4.0 * n * math.log(n) if n > 1 else 0.0
        s = MomentSequence(1, deg, values, logs)
        rep = stieltjes_terms(s, count=deg)
        assert rep.terms[9] == pytest.approx(10.0 ** (-2.0), rel=1e-12)
        assert rep.classification == INCONCLUSIVE


class TestCarlemanTerms:
    def test_factorial_first_terms(self):
        # a_n = (s_{2n})^(-1/(2n)): a_1 = (2!)^(-1/2), a_2 = (4!)^(-1/4).
        rep = carleman_terms(moments_factorial(10), count=5)
        assert rep.terms[0] == pytest.approx(2.0 ** (-0.5))
        assert rep.terms[1] == pytest.approx(24.0 ** (-0.25))

    def test_factorial_classified_divergence_consistent(self):
        rep = carleman_terms(moments_factorial(120), count=60)
        assert rep.classification == DIVERGENCE_CONSISTENT

    def test_needs_even_orders(self):
        with pytest.raises(DegreeOverflow):
            carleman_terms(moments_factorial(10), count=6)


class TestSubsequenceTerms:
    def test_stride_one_matches_stieltjes(self):
        s = moments_factorial(12)
        a = subsequence_terms(s, stride=1, count=12)
        b = stieltjes_terms(s, count=12)
        assert a.terms == b.terms

    def test_stride_two_picks_even_orders(self):
        s = moments_factorial(12)
        rep = subsequence_terms(s, stride=2, count=6)
        # Term n is s_{2n}^(-1/(2*2n)); the Carleman-type term is
        # s_{2n}^(-1/(2n)), so each strided term is its square root.
        car = carleman_terms(s, count=6)
        assert rep.terms == pytest.approx([t**0.5 for t in car.terms])


def _alternating_sequence() -> MomentSequence:
    # s = (1, 0, 1, 0, 1): plain Hankel is PSD but the index-shifted one is
    # [[0, 1], [1, 0]] with eigenvalue -1.
    return MomentSequence(
        1, 4, {(0,): 1.0, (1,): 0.0, (2,): 1.0, (3,): 0.0, (4,): 1.0}
    )


class TestCheckSubsequenceBounds:
    def test_all_ones_has_zero_margins(self):
        s = MomentSequence(1, 12, {(k,): 1.0 for k in range(13)})
        rep = check_subsequence_bounds(s, stride=2, count=10)
        assert rep.passed
        assert rep.monotone_margin == pytest.approx(0.0, abs=1e-15)
        assert rep.termwise_margin == pytest.approx(0.0, abs=1e-15)
        assert rep.sum_lhs <= rep.sum_rhs

    def test_factorial_strides(self):
        s = moments_factorial(64)
        for stride in (2, 3, 4):
            rep = check_subsequence_bounds(s, stride=stride, count=60)
            assert rep.passed
            assert rep.stride == stride
            assert rep.monotone_margin >= 0.0
            assert rep.termwise_margin <= 0.0 + 1e-12

    def test_lognormal_strides(self):
        s = moments_lognormal(64)
        for stride in (2, 3, 4):
            assert check_subsequence_bounds(s, stride=stride, count=60).passed

    def test_atomic_measure_passes(self):
        mu = AtomicMeasure(1, [((0.5,), 0.4), ((2.0,), 0.3), ((7.0,), 0.3)])
        s = moments_of_atomic(mu, 64)
        rep = check_subsequence_bounds(s, stride=3, count=60)
        assert rep.passed

    def test_shifted_hankel_failure_raises(self):
        with pytest.raises(HypothesisFailure):
            check_subsequence_bounds(_alternating_sequence(), stride=2, count=2)

    @pytest.mark.parametrize(
        "second, matrix, level, name",
        [(-1.0, "plain", 2, "marginal"), (1.0, "shifted", 1, "index-shifted marginal")],
        ids=["plain", "shifted"],
    )
    def test_failure_carries_the_verdict(self, second, matrix, level, name):
        # (1, 0, -1, 0, 1): the plain Hankel has eigenvalues -1, 0 and 2;
        # (1, 0, 1, 0, 1): the index-shifted one is [[0, 1], [1, 0]].
        s = MomentSequence(
            1, 4, {(0,): 1.0, (1,): 0.0, (2,): second, (3,): 0.0, (4,): 1.0}
        )
        with pytest.raises(HypothesisFailure) as exc:
            check_subsequence_bounds(s, stride=2, count=2)
        failure = exc.value
        assert (failure.matrix, failure.level) == (matrix, level)
        assert failure.min_eigenvalue == pytest.approx(-1.0, abs=1e-12)
        assert str(failure) == (
            f"{name} moment matrix at level {level} is not positive "
            f"semidefinite (min eigenvalue {failure.min_eigenvalue:g})"
        )
        bare = HypothesisFailure("no verdict")
        assert (bare.min_eigenvalue, bare.level, bare.matrix) == (None, None, None)

    def test_count_below_stride_rejected(self):
        s = moments_factorial(12)
        with pytest.raises(ValueError):
            check_subsequence_bounds(s, stride=4, count=3)

    def test_data_too_short(self):
        s = moments_factorial(12)
        with pytest.raises(DegreeOverflow):
            check_subsequence_bounds(s, stride=4, count=12)


class TestExactEntriesOutsideDoubleRange:
    """Exact entries whose floats over- or underflow are read through their
    exact logs, in memory and after a moment file round trip alike."""

    def test_entries_above_range(self):
        mu = AtomicMeasure(1, [((1e30,), 0.5), ((2.0,), 0.5)])
        s = normalize(moments_of_atomic(mu, 12, exact=True))
        rep = stieltjes_terms(s, count=12)
        # s_12 = (1e30^12 + 2^12) / 2 is about 5e359.
        log_s12 = math.log(int(1e30) ** 12 + 2**12) - math.log(2)
        assert rep.terms[-1] == pytest.approx(math.exp(-log_s12 / 24), rel=1e-13)
        assert rep.classification == DIVERGENCE_CONSISTENT
        assert check_subsequence_bounds(s, stride=2, count=10).passed

    def test_entries_below_range(self):
        # s_n = 2^(-20 n): from s_54 on the float is 0.0, not the entry.
        unit = AtomicMeasure(1, [((Fraction(1, 2**20),), Fraction(1))])
        s = moments_of_atomic(unit, 60, exact=True)
        rep = stieltjes_terms(normalize(s), count=60)
        assert not rep.degenerate
        assert rep.terms == pytest.approx([2.0**10] * 60, rel=1e-13)

        text = format_moment_file(s)
        assert "\n60 log:" in text
        back = parse_moment_file(text)
        assert back.log_value((60,)) == s.log_value((60,))
        assert s.log_value((60,)) == pytest.approx(-1200 * math.log(2), rel=1e-15)
        assert stieltjes_terms(normalize(back), count=60) == rep

    def test_entry_at_the_top_of_double_range(self):
        # 2^1024 is past double range, but its rounded log is that of the
        # largest double: read back, it is still past range.
        mu = AtomicMeasure(1, [((Fraction(2**32),), Fraction(1))])
        s = moments_of_atomic(mu, 40, exact=True)
        back = parse_moment_file(format_moment_file(s))
        assert s.finite_degree() == back.finite_degree() == 31
        assert back.value((32,)) == math.inf
        assert check_subsequence_bounds(s, count=38) == check_subsequence_bounds(
            back, count=38
        )


@st.composite
def _dyadic_data(draw):
    """Exact moments of 1..4 atoms ``2^e``, ``e`` in [-40, 40], with
    ``Fraction`` weights summing to 1, through degree 4..40, so that entries
    leave double range both ways."""
    exponents = draw(st.lists(st.integers(-40, 40), min_size=1, max_size=4, unique=True))
    raw = draw(st.lists(st.integers(1, 9), min_size=len(exponents), max_size=len(exponents)))
    mu = AtomicMeasure(
        1,
        [
            ((Fraction(2) ** e,), Fraction(w, sum(raw)))
            for e, w in zip(exponents, raw)
        ],
        tol_atom=0.0,
    )
    return moments_of_atomic(mu, draw(st.integers(4, 40)), exact=True)


def _outcome(fn, s, *args):
    """The result of a diagnostic, or the type and message of its typed
    error."""
    try:
        return fn(s, 0, *args)
    except MomentError as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(s=_dyadic_data())
def test_diagnostics_survive_a_moment_file_round_trip(s):
    d = s.max_degree
    back = parse_moment_file(format_moment_file(s))
    calls = [
        (stieltjes_terms, d),
        (carleman_terms, d // 2),
        (subsequence_terms, 2, d // 2),
        (check_subsequence_bounds, 2, d - 2),
    ]
    for fn, *args in calls:
        assert _outcome(fn, normalize(s), *args) == _outcome(
            fn, normalize(back), *args
        )


class TestNormalizeBesideAnExactMass:
    """A float entry beside an exact mass whose float over- or underflows."""

    MASS = Fraction(10**400, 3)

    def test_inf_marker_stays_and_its_log_shifts(self):
        s = MomentSequence(
            1, 2, {(0,): self.MASS, (1,): self.MASS, (2,): math.inf}, {(2,): 2000.0}
        )
        n = normalize(s)
        assert n.values == {(0,): 1, (1,): 1, (2,): math.inf}
        assert n.log_value((2,)) == 2000.0 - _log(self.MASS)

    def test_finite_float_becomes_the_rounded_exact_quotient(self):
        tiny = 1 / self.MASS
        for mass, v in ((self.MASS, 5e300), (self.MASS, -2.5), (tiny, 5e-300)):
            s = MomentSequence(1, 2, {(0,): mass, (1,): v, (2,): mass})
            assert normalize(s).values[(1,)] == float(Fraction(v) / mass)

    def test_quotients_that_do_not_raise_are_unchanged(self):
        cases = [
            (2.0, [0.1, -0.0, math.inf, 3e-320]),
            (Fraction(3), [0.1, Fraction(1, 7), 2, 1e300]),
            (Fraction(1, 3), [0.1, Fraction(1, 7), 10**400]),
            (7, [0.1, 5, Fraction(2, 3)]),
        ]
        for mass, entries in cases:
            values = {(0,): mass, **{(n + 1,): v for n, v in enumerate(entries)}}
            got = normalize(MomentSequence(1, len(entries), values)).values
            for alpha, v in values.items():
                # an int over an int mass is their exact quotient, not v / mass
                exact = isinstance(v, int) and isinstance(mass, int)
                want = Fraction(v, mass) if exact else v / mass
                assert repr(got[alpha]) == repr(want)

    def test_integer_data_stays_exact(self):
        ints = normalize(MomentSequence(1, 2, {(0,): 3, (1,): 1, (2,): 10**400}))
        assert ints.values == {
            (0,): Fraction(1),
            (1,): Fraction(1, 3),
            (2,): Fraction(10**400, 3),
        }
        assert {type(v) for v in ints.values.values()} == {Fraction}
        assert ints.log_values == {}
        # the same terms as with the mass given as a Fraction; the entry
        # beyond double range is no zero term
        fraction_mass = normalize(
            MomentSequence(1, 2, {(0,): Fraction(3), (1,): 1, (2,): 10**400})
        )
        terms = stieltjes_terms(ints, count=2).terms
        assert terms == stieltjes_terms(fraction_mass, count=2).terms
        assert terms[1] == pytest.approx(1.316e-100, rel=1e-3)


_MASSES = (
    st.sampled_from([1, 3, 10**400, Fraction(13, 4), Fraction(10**400, 3)])
    | st.sampled_from([Fraction(1, 10**400), 2.0, 0.1, 5e-324, 1e300])
    | st.integers(1, 10**6)
    | st.fractions(min_value=Fraction(1, 10**6), max_value=10**6).filter(bool)
    | st.floats(min_value=5e-324, max_value=1e308)
)
_ENTRIES = (
    st.integers(-(10**6), 10**6)
    | st.sampled_from([0, 10**400, -(10**400), Fraction(10**400, 3), Fraction(1, 10**400)])
    | st.fractions(max_denominator=10**6)
    | st.floats(allow_nan=True, allow_infinity=True)
)


class TestNormalizeEqualsThePerEntryRule:
    """``normalize`` divides all entries in one comprehension and falls back
    to ``_divide`` entry by entry where a quotient raises; either way every
    value is ``_divide``'s, type and bits."""

    @staticmethod
    def _per_entry(s):
        return [repr(conditions._divide(v, s.mass)) for v in s.values.values()]

    @settings(max_examples=400, deadline=None)
    @given(mass=_MASSES, entries=st.lists(_ENTRIES, max_size=8))
    def test_values_by_repr(self, mass, entries):
        values = {(0,): mass, **{(n + 1,): v for n, v in enumerate(entries)}}
        s = MomentSequence(1, len(entries), values)
        got = normalize(s).values
        assert list(got) == list(s.values)
        assert [repr(v) for v in got.values()] == self._per_entry(s)

    def test_int_mass_keeps_int_entries_exact(self):
        s = MomentSequence(1, 3, {(0,): 6, (1,): 4, (2,): 0.5, (3,): Fraction(1, 3)})
        got = normalize(s).values
        assert [repr(v) for v in got.values()] == self._per_entry(s)
        assert got == {(0,): 1, (1,): Fraction(2, 3), (2,): 0.5 / 6, (3,): Fraction(1, 18)}

    def test_float_beside_an_exact_mass_beyond_double_range(self):
        mass = Fraction(10**400, 3)
        s = MomentSequence(
            1, 3, {(0,): mass, (1,): mass, (2,): math.inf, (3,): 5e300}, {(2,): 2000.0}
        )
        got = normalize(s).values
        assert [repr(v) for v in got.values()] == self._per_entry(s)
        assert got[(3,)] == float(Fraction(5e300) / mass)


class TestSignedMarginals:
    """Negative odd moments (atoms on both sides of 0) are read only where a
    diagnostic asks for them."""

    @staticmethod
    def signed():
        mu = AtomicMeasure(1, [((-2.0,), 0.5), ((1.0,), 0.5)])
        return normalize(moments_of_atomic(mu, 8))

    def test_carleman_returns_where_stieltjes_raises(self):
        s = self.signed()
        with pytest.raises(NegativeMoment) as per_entry:
            s.log_value((1,))
        assert carleman_terms(s, count=4).terms == [
            math.exp(-math.log(s.value((2 * n,))) / (2 * n)) for n in range(1, 5)
        ]
        with pytest.raises(NegativeMoment) as raised:
            stieltjes_terms(s, count=8)
        assert str(raised.value) == str(per_entry.value) == (
            "moment at (1,) is negative: -0.5"
        )
        with pytest.raises(NegativeMoment, match=r"moment at \(3,\) is negative"):
            subsequence_terms(s, stride=3, count=2)

    def test_hypothesis_failure_comes_before_negative_moment(self):
        with pytest.raises(HypothesisFailure):
            check_subsequence_bounds(self.signed(), stride=2, count=4)

    def test_stored_log_of_a_negative_entry_wins(self):
        s = MomentSequence(1, 2, {(0,): 1.0, (1,): -1.0, (2,): 1.0}, {(1,): 0.0})
        assert s.log_marginal(0, 1) == 0.0
        assert stieltjes_terms(s, count=2).terms == [1.0, 1.0]

    def test_log_marginal_argument_errors_are_unchanged(self):
        s = self.signed()
        for axis, order, error, message in [
            (1, 2, ValueError, "axis 1 out of range for dimension 1"),
            (1, -1, ValueError, "axis 1 out of range for dimension 1"),
            (0, -1, ValueError, "order must be >= 0, got -1"),
            (0, 9, DegreeOverflow, r"moment index \(9,\) exceeds truncation degree 8"),
            (0, 3, NegativeMoment, r"moment at \(3,\) is negative: -3.5"),
        ]:
            with pytest.raises(error, match=message):
                s.log_marginal(axis, order)


# -- the per-entry reference ----------------------------------------------
#
# The four diagnostics as they read one entry at a time: every log through
# ``log_value`` and the Hankels of ``check_subsequence_bounds`` from a
# marginal ``MomentSequence``.


def _reference_log_marginal(s, axis, order):
    return s.log_value(s._axis_index(axis, order))


def _reference_term(log_moment, root_order):
    return _exp(-log_moment / (2.0 * root_order))


def _reference_partial_sums(terms):
    sums = []
    for i in range(len(terms)):
        sums.append(math.fsum(terms[: i + 1]))
    return sums


def _reference_classify(terms):
    """``conditions._classify`` with its fit abscissae taken afresh."""
    half = len(terms) // 2
    tail = terms[half:]
    details = {"tail_start": half + 1}
    if len(tail) < 2:
        details["rule"] = "insufficient-tail"
        return INCONCLUSIVE, details
    if any(t == 0.0 for t in tail):
        details["rule"] = "vanishing-terms"
        return CONVERGENCE_CONSISTENT, details
    ratios = [tail[i + 1] / tail[i] for i in range(len(tail) - 1)]
    ordered = sorted(ratios)
    mid = len(ordered) // 2
    median_ratio = (
        ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2
    )
    max_ratio = max(ratios)
    details["median_ratio"] = median_ratio
    details["max_ratio"] = max_ratio
    if median_ratio <= conditions.RATIO_LIMIT and max_ratio <= conditions.RATIO_CEILING:
        details["rule"] = "geometric-ratio"
        return CONVERGENCE_CONSISTENT, details
    xs = [math.log(half + 1 + i) for i in range(len(tail))]
    ys = [math.log(t) for t in tail]
    x_mean = math.fsum(xs) / len(xs)
    y_mean = math.fsum(ys) / len(ys)
    var = math.fsum((x - x_mean) ** 2 for x in xs)
    cov = math.fsum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    slope = cov / var if var else 0.0
    intercept = y_mean - slope * x_mean
    residual = math.sqrt(
        math.fsum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
        / len(xs)
    )
    details["decay_exponent"] = -slope
    details["fit_residual"] = residual
    if -slope <= conditions.SLOPE_LIMIT and residual <= conditions.RESIDUAL_LIMIT:
        details["rule"] = "power-law"
        return DIVERGENCE_CONSISTENT, details
    details["rule"] = "unclassified-decay"
    return INCONCLUSIVE, details


def _reference_series(s, axis, count, order, root):
    conditions._require_normalized(s)
    if order < 1:
        raise ValueError(f"stride must be >= 1, got {order}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if order * count > s.max_degree:
        raise DegreeOverflow(
            f"need marginal moments up to order {order * count}, data stops "
            f"at {s.max_degree}"
        )
    terms = []
    degenerate = without_value = False
    for n in range(1, count + 1):
        lm = _reference_log_marginal(s, axis, n * order)
        if lm == -math.inf:
            degenerate = True
        if lm == math.inf or math.isnan(lm):
            without_value = True
        terms.append(_reference_term(lm, n * root))
    sums = _reference_partial_sums(terms)
    if without_value:
        classification = conditions.INCONCLUSIVE
        details = {"rule": "entry-without-value"}
    elif degenerate:
        classification = DIVERGENCE_CONSISTENT
        details = {"rule": "degenerate-zero-moment"}
    else:
        classification, details = _reference_classify(terms)
    return conditions.DiagnosticReport(
        terms, sums, classification, details, degenerate
    )


@st.composite
def _series_terms(draw):
    """Free positive floats, or terms decaying like a power of ``n`` or
    geometrically, with jitter, so that every rule of ``_classify`` is met."""
    count = draw(st.integers(0, 130))
    kind = draw(st.sampled_from(["free", "power", "geometric"]))
    if kind == "free":
        return draw(st.lists(st.floats(1e-300, 1e300), min_size=count, max_size=count))
    rate = draw(st.floats(0.05, 3.0))
    jitter = draw(st.lists(st.floats(0.9, 1.1), min_size=count, max_size=count))
    if kind == "power":
        return [j * (n + 1) ** -rate for n, j in enumerate(jitter)]
    return [j * math.exp(-rate * n) for n, j in enumerate(jitter)]


class TestClassifyEqualsTheUncachedReference:
    @settings(max_examples=400, deadline=None)
    @given(terms=_series_terms())
    def test_same_verdict_and_details(self, terms):
        reference = repr(_reference_classify(terms))
        # the second call reads the fit abscissae from the cache
        assert repr(conditions._classify(terms)) == reference
        assert repr(conditions._classify(terms)) == reference

    def test_every_rule_is_reached(self):
        rules = set()
        for terms in ([1.0], [1.0, 1.0, 0.0, 0.0], [0.5**n for n in range(40)],
                      [1.0 / n for n in range(1, 41)], [1.0 + n % 2 for n in range(40)]):
            verdict, details = conditions._classify(terms)
            assert repr((verdict, details)) == repr(_reference_classify(terms))
            rules.add(details["rule"])
        assert rules == {
            "insufficient-tail", "vanishing-terms", "geometric-ratio",
            "power-law", "unclassified-decay",
        }


def _reference_bounds(s, axis, stride, count):
    conditions._require_normalized(s)
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if count < stride:
        raise ValueError(f"count must be >= stride, got {count} < {stride}")
    high = stride * (count // stride + 1)
    if high > s.max_degree:
        raise DegreeOverflow(
            f"need marginal moments up to order {high}, data stops at "
            f"{s.max_degree}"
        )
    marginal = s.marginal_sequence(axis, high)
    reach = marginal.finite_degree()
    plain_level = reach // 2
    shift_level = (reach - 1) // 2
    plain = psd_check(moment_matrix(marginal, plain_level))
    if not plain.is_psd:
        raise HypothesisFailure(
            f"marginal moment matrix at level {plain_level} is not positive "
            f"semidefinite (min eigenvalue {plain.min_eigenvalue:g})"
        )
    if shift_level >= 0:
        x = Polynomial.variable(1, 0)
        shifted = psd_check(localizing_matrix(marginal, x, shift_level))
        if not shifted.is_psd:
            raise HypothesisFailure(
                f"index-shifted marginal moment matrix at level {shift_level} "
                f"is not positive semidefinite (min eigenvalue "
                f"{shifted.min_eigenvalue:g})"
            )
    g = {k: _reference_log_marginal(s, axis, k) / k for k in range(1, high + 1)}

    def diff(a, b):
        return 0.0 if a == b else a - b

    monotone_margin = min(diff(g[k + 1], g[k]) for k in range(1, high))
    termwise_margin = 0.0
    for q in range(1, count // stride + 1):
        base = q * stride
        for r in range(1, stride):
            idx = base + r
            if idx > count:
                break
            termwise_margin = max(termwise_margin, diff(g[base], g[idx]) / 2.0)

    def term(k):
        return _reference_term(g[k] * k, k)

    sum_lhs = math.fsum(term(n) for n in range(stride, count + 1))
    sum_rhs = stride * math.fsum(
        term(q * stride) for q in range(1, count // stride + 2)
    )
    if math.isinf(sum_lhs) and math.isinf(sum_rhs):
        sum_ok = True
    else:
        sum_ok = sum_lhs <= sum_rhs * (1.0 + conditions.INEQUALITY_SLACK)
    return conditions.SubsequenceBoundsReport(
        stride=stride,
        count=count,
        hankel_level=plain_level,
        monotone_ok=monotone_margin >= -conditions.INEQUALITY_SLACK,
        monotone_margin=monotone_margin,
        termwise_ok=termwise_margin <= conditions.INEQUALITY_SLACK,
        termwise_margin=termwise_margin,
        sum_ok=sum_ok,
        sum_lhs=sum_lhs,
        sum_rhs=sum_rhs,
    )


@pytest.mark.parametrize(
    "s",
    [
        MomentSequence(1, 6, {(k,): -0.0 if k % 2 else 1.0 for k in range(7)}),
        moments_factorial(12),
        moments_lognormal(44),
        normalize(
            moments_of_atomic(AtomicMeasure(1, [((Fraction(-1, 3),), 1)]), 9, exact=True)
        ),
    ],
)
def test_bound_hankels_are_the_marginal_matrices_bit_for_bit(s, monkeypatch):
    checked = []

    def spy(matrix, tol_rel):
        checked.append(getattr(matrix, "entries", matrix).tobytes())
        return psd_check(matrix, tol_rel)

    monkeypatch.setattr(conditions, "psd_check", spy)
    count = s.max_degree - 2
    try:
        check_subsequence_bounds(s, 0, 2, count)
    except HypothesisFailure:
        pass
    marginal = s.marginal_sequence(0, 2 * (count // 2 + 1))
    reach = marginal.finite_degree()
    expected = [moment_matrix(marginal, reach // 2).entries.tobytes()]
    if reach >= 1:
        x = Polynomial.variable(1, 0)
        expected.append(localizing_matrix(marginal, x, (reach - 1) // 2).entries.tobytes())
    assert checked == expected[: len(checked)] and checked


#: Atom coordinates: signed, zero, and far enough from 1 that high moments
#: leave double range both ways.
_COORDINATES = [
    Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2),
    Fraction(-1), Fraction(-3, 2), Fraction(2) ** 40, Fraction(1, 2**40),
]


@st.composite
def _edited_data(draw):
    """Exact moments of 1..4 atoms in one or two dimensions, kept exact or
    read as floats (an entry past double range then becomes ``inf`` with its
    log stored, as a moment file holds it), with some pure powers of one axis
    overwritten by zeros, negated, or replaced by ``log:`` entries."""
    dim = draw(st.integers(1, 2))
    degree = draw(st.integers(2, 30))
    points = draw(
        st.lists(
            st.tuples(*[st.sampled_from(_COORDINATES)] * dim),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    raw = draw(st.lists(st.integers(1, 9), min_size=len(points), max_size=len(points)))
    mu = AtomicMeasure(
        dim,
        [(p, Fraction(w, sum(raw))) for p, w in zip(points, raw)],
        tol_atom=0.0,
    )
    exact = moments_of_atomic(mu, degree, exact=True)
    values, logs = dict(exact.values), {}
    if not draw(st.booleans()):
        for alpha, v in exact.values.items():
            values[alpha] = _to_float(v)
            if values[alpha] == math.inf:
                logs[alpha] = _log(v)
    axis = draw(st.integers(0, dim - 1))
    kinds = st.sampled_from(["zero", "negative-zero", "negate", "log", "nan"])
    for order, kind in draw(st.dictionaries(st.integers(1, degree), kinds)).items():
        alpha = tuple(order if j == axis else 0 for j in range(dim))
        logs.pop(alpha, None)
        v = values[alpha]
        if kind == "zero":
            values[alpha] = 0.0 if isinstance(v, float) else Fraction(0)
        elif kind == "negative-zero":
            values[alpha] = -0.0
        elif kind == "negate":
            values[alpha] = -v
        elif kind == "log":
            logs[alpha] = draw(st.floats(-800.0, 3000.0))
            values[alpha] = _exp(logs[alpha])
        else:
            values[alpha] = math.nan
    return normalize(MomentSequence(dim, degree, values, logs))


def _full_outcome(fn, *args):
    """``repr`` of a report with every field, or the type and message of
    the error raised."""
    try:
        return repr(fn(*args))
    except (MomentError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(s=_edited_data(), data=st.data())
def test_diagnostics_equal_the_per_entry_reference(s, data):
    d = s.max_degree
    axis = data.draw(st.integers(0, s.dim))  # one past the last is an error
    count = data.draw(st.integers(1, d))
    stride = data.draw(st.integers(1, 3))
    bound_count = data.draw(st.integers(stride, max(stride, d - stride)))
    # The order of a solve-1d operation: the first call fills the view, the
    # others read it.
    half, strided = max(1, count // 2), max(1, count // stride)
    calls = [
        (stieltjes_terms, (count,), (count, 1, 1)),
        (carleman_terms, (half,), (half, 2, 1)),
        (subsequence_terms, (stride, strided), (strided, stride, stride)),
    ]
    for fn, args, ref_args in calls:
        assert _full_outcome(fn, s, axis, *args) == _full_outcome(
            _reference_series, s, axis, *ref_args
        )
    assert _full_outcome(
        check_subsequence_bounds, s, axis, stride, bound_count
    ) == _full_outcome(_reference_bounds, s, axis, stride, bound_count)
