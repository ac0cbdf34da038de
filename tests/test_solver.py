"""``momentkit.solve``: the measure it returns reproduces every entry it was
given, by an exact reference, or the call raises a typed error."""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

import pytest
from hypothesis import event, example, given, settings, strategies as st

from momentkit import (
    AtomicMeasure,
    ClampedNodeWarning,
    CommutatorTooLarge,
    EigenFailure,
    MomentError,
    MomentSequence,
    NotFlat,
    RankCollapse,
    ValidationFailure,
    fileformats,
    fixtures,
    moments_of_atomic,
    multivariate,
    propose,
    solve,
    univariate,
)
from momentkit.matrices import require_reproduced
from momentkit.polynomials import _log, monomials_up_to
from momentkit.reduction import pushforward_moments
from momentkit.univariate import gauss_rule, solve_1d
from test_matrices import _line

TOL = 1e-8


def _exact_moment(measure: AtomicMeasure, alpha: tuple[int, ...]) -> Fraction:
    return sum(
        (
            Fraction(w) * math.prod(Fraction(x) ** a for x, a in zip(pt, alpha))
            for pt, w in measure.atoms
        ),
        Fraction(0),
    )


def _reference_residual(m: Fraction, s: MomentSequence, alpha: tuple[int, ...]) -> float:
    """``|m - t| / max(1, |t|)``: exact for an exact entry ``t``, and in logs
    for an ``inf`` marker, which stands for ``exp`` of its stored log."""
    log_t = s.log_values.get(alpha)
    if log_t is None:
        t = Fraction(s.values[alpha])
        return float(abs(m - t) / max(1, abs(t)))
    if m <= 0:
        return math.inf
    log_m = math.log(m.numerator) - math.log(m.denominator)
    return min(1.0, math.exp(log_t)) * abs(math.expm1(log_m - log_t))


@st.composite
def _data(draw):
    """Moments of 1-8 dyadic atoms of either sign in dims 1-3 whose top
    degrees are beyond the finite prefix: float data with ``inf`` markers
    carrying their true logs for the positive entries above a cut degree, or
    exact data scaled by ``2**t`` so that every entry above the cut, unless
    it cancels, leaves double range.  In half the draws the atoms come in
    pairs x, -x of equal weight, whose odd entries cancel to 0.  In half the
    draws one entry ``t`` above the degree the route reads moves by
    ``1.5e-5 * max(1, |t|)``: ``2 * rank - 1`` on the 1-D route and
    ``2 * level`` on flat extraction, from a first solve of the unmoved data,
    or the finite prefix where that solve raises.  Returns the sequence,
    whether it was perturbed and the measure."""
    dim = draw(st.integers(1, 3))
    degree = draw(st.integers(2, 8 if dim == 1 else 6))
    cut = draw(st.integers(1, degree - 1))
    exact = draw(st.booleans())
    if exact:
        # Magnitudes (1 + k/8) * 2**t with either sign: degree cut + 1
        # reaches 2**1040 and more, degree cut stays below 2**960.
        scale = Fraction(2) ** math.ceil(1040 / (cut + 1))
        coordinate = st.builds(
            lambda k, sign: sign * (1 + Fraction(k, 8)) * scale,
            st.integers(0, 7),
            st.sampled_from([1, -1]),
        )
    else:
        coordinate = st.builds(Fraction, st.integers(-16, 16), st.just(4))
    mirrored = draw(st.booleans())
    points = draw(
        st.lists(
            st.tuples(*[coordinate] * dim),
            min_size=1,
            max_size=4 if mirrored else 8,
            unique_by=lambda pt: tuple(map(abs, pt)) if mirrored else pt,
        )
    )
    atoms = [(pt, Fraction(draw(st.integers(1, 16)), 8)) for pt in points]
    if mirrored:
        atoms += [(tuple(-x for x in pt), w) for pt, w in atoms if any(pt)]
    measure = AtomicMeasure(dim, atoms)
    exact_data = moments_of_atomic(measure, degree, exact=True)
    values = dict(exact_data.values)
    logs = {}
    if not exact:
        for alpha, v in values.items():
            # Above the cut a positive entry becomes a marker with its log;
            # a zero or negative one, which has none, stays a float.
            if sum(alpha) > cut and v > 0:
                values[alpha], logs[alpha] = math.inf, _log(v)
            else:
                values[alpha] = float(v)
    s = MomentSequence(dim, degree, values, logs)
    # Signed atoms can cancel every entry above the cut down to double range.
    read = _route_degree(s)
    above = [a for a in monomials_up_to(dim, degree) if sum(a) > read]
    perturb = bool(above) and draw(st.booleans())
    if perturb:
        alpha = draw(st.sampled_from(above))
        if alpha in logs:
            # t -> t + 1.5e-5 * max(1, t), the criterion's scale.
            logs[alpha] += math.log1p(1.5e-5 * math.exp(max(0.0, -logs[alpha])))
        else:
            values[alpha] += max(1, abs(values[alpha])) * Fraction(1, 2**16)
        s = MomentSequence(dim, degree, values, logs)
    return s, perturb, measure


def _route_degree(s: MomentSequence) -> int:
    """The degree through which ``solve``'s route reads and checks ``s``,
    or the finite prefix where ``solve`` raises."""
    try:
        with warnings.catch_warnings():
            # Drawing data is not the solve under test.
            warnings.simplefilter("ignore", ClampedNodeWarning)
            _, detail = solve(s, tol=TOL)
    except MomentError:
        return s.finite_degree()
    if detail["mode"] == "1d":
        return 2 * detail["rank"] - 1
    return 2 * detail["level"]


def _route_measure(s: MomentSequence) -> AtomicMeasure:
    """The measure ``solve``'s route finds on the finite prefix, unchecked
    beyond the degree it reads."""
    prefix = s.restrict(s.finite_degree())
    if s.dim == 1:
        return univariate.gauss_rule(prefix).measure
    return multivariate.extract_atoms_auto(prefix, tol=TOL)[0]


@settings(max_examples=150, deadline=None)
@given(case=_data())
def test_solve_reproduces_every_entry_above_the_prefix_or_raises(case):
    s, perturbed, _ = case
    finite = s.finite_degree()
    try:
        measure, detail = solve(s, tol=TOL)
    except ValidationFailure:
        try:
            # The route alone: a measure here means the refusal came from
            # the comparison of the entries it does not read.
            measure = _route_measure(s)
        except MomentError as exc:
            event(f"dim {s.dim}: {type(exc).__name__} in the route")
            return
        event(f"dim {s.dim}: refused beyond the route")
        # Unperturbed data is refused only for a measure that really misses.
        assert perturbed or _worst(measure, s) > TOL - 1e-12
        return
    except MomentError as exc:
        event(f"dim {s.dim}: {type(exc).__name__}")
        return
    event(f"dim {s.dim}: accepted")
    assert not perturbed, "a perturbed entry beyond the route was accepted"
    assert detail.get("solved_degree", s.max_degree) == finite
    assert _worst(measure, s) <= TOL + 1e-12


@settings(max_examples=150, deadline=None)
@given(case=_data())
def test_the_check_above_the_prefix_accepts_exactly_the_true_measure(case):
    # Entries that cancel, as the odd ones of mirrored atoms do, included.
    s, perturbed, measure = case
    if perturbed:
        with pytest.raises(ValidationFailure):
            require_reproduced(measure, s, TOL, "true measure")
    else:
        residuals = require_reproduced(measure, s, TOL, "true measure")
        assert max(residuals, default=0.0) <= 1e-12


def _worst(measure: AtomicMeasure, s: MomentSequence) -> float:
    """The worst :func:`_reference_residual` over every entry of ``s``."""
    return max(
        _reference_residual(_exact_moment(measure, alpha), s, alpha)
        for alpha in monomials_up_to(s.dim, s.max_degree)
    )


def test_solve_accepts_symmetric_atoms_beyond_double_range():
    # Exact degree-16 moments of 1/2 (delta at -10**50 + delta at 10**50):
    # the prefix stops at degree 7 and every odd entry above it is 0.
    far = 10**50
    mu = AtomicMeasure(1, [((-far,), Fraction(1, 2)), ((far,), Fraction(1, 2))])
    s = moments_of_atomic(mu, 16, exact=True)
    measure, detail = solve(s, tol=TOL)
    assert detail["solved_degree"] == 7
    assert [pt[0] for pt, _ in measure.sorted_atoms()] == pytest.approx([-1e50, 1e50])
    assert _worst(measure, s) <= TOL


def test_solve_of_finite_data_adds_no_solved_degree():
    s = moments_of_atomic(AtomicMeasure(1, [((1.0,), 0.5), ((2.0,), 0.5)]), 4)
    measure, detail = solve(s)
    assert "solved_degree" not in detail
    assert sorted(pt[0] for pt, _ in measure.atoms) == pytest.approx([1.0, 2.0])


def _moved(s: MomentSequence, alpha: tuple[int, ...], factor) -> MomentSequence:
    values = dict(s.values)
    values[alpha] *= factor
    return MomentSequence(s.dim, s.max_degree, values, s.log_values)


def test_flat_extraction_is_checked_above_its_level():
    # Three atoms in 2-D to degree 5: level 2 reads degree 4, and s_(5,0)
    # moved by 1e-3 relative is an entry no level reads.
    mu = AtomicMeasure(2, [((1.0, 2.0), 0.5), ((3.0, 1.0), 0.3), ((5.0, 4.0), 0.2)])
    s = moments_of_atomic(mu, 5)
    measure, detail = solve(s)
    assert (detail["level"], len(measure)) == (2, 3)
    with pytest.raises(ValidationFailure) as miss:
        solve(_moved(s, (5, 0), 1.001))
    assert miss.value.worst == pytest.approx(1e-3 / 1.001, rel=1e-6)


def test_pushed_curve_data_is_checked_above_its_level():
    # The atom (1/2, 5/4) above the curve x2 = x1, pushed by (x2 - x1, x1)
    # to the atom (3/4, 1/2) with exact degree-12 data: the level-1 atom
    # reads degree 2, and s_(0,12) = 2**-12 moved by 1e-3 relative misses.
    fx = fixtures.power_curve_fixture(
        1, AtomicMeasure(2, [((Fraction(1, 2), Fraction(5, 4)), 1)]), 12, exact=True
    )
    s = pushforward_moments(fx.moments, fx.presentation, 12)
    measure, detail = solve(s)
    assert (detail["level"], measure.atoms) == (1, [((0.75, 0.5), 1.0)])
    with pytest.raises(ValidationFailure) as miss:
        solve(_moved(s, (0, 12), Fraction(1001, 1000)))
    assert miss.value.worst == pytest.approx(2.0**-12 * 1e-3, rel=1e-6)


@st.composite
def _one_d_data(draw):
    """Moments of 1-20 distinct nodes ``j / 64`` in ``[0.5, 3]`` with
    weights ``k / 4`` in ``[0.25, 2]``, float or exact, of a degree from 1 to
    two beyond the ``2n - 1`` that ``n`` atoms need."""
    nodes = draw(st.lists(st.integers(32, 192), min_size=1, max_size=20, unique=True))
    weights = draw(st.lists(st.integers(1, 8), min_size=len(nodes), max_size=len(nodes)))
    exact = draw(st.booleans())
    atoms = [((Fraction(j, 64),), Fraction(k, 4)) for j, k in zip(nodes, weights)]
    if not exact:
        atoms = [((float(x),), float(w)) for (x,), w in atoms]
    degree = draw(st.integers(1, 2 * len(nodes) + 2))
    return moments_of_atomic(AtomicMeasure(1, atoms), degree, exact=exact)


def _inf_marker_file(moved: bool) -> MomentSequence:
    """A moment file of exact degree-7 data that holds ``log:`` markers from
    degree 5 on: atoms 0.5138..., 1.7787... (weight 1) and 1e105 (weight
    1e-119).  ``moved`` raises the degree-6 marker's log by 1e-6."""
    mu = AtomicMeasure(
        1, [((0.5138143288314894,), 1.0), ((1.7787886843719507,), 1.0), ((1e105,), 1e-119)]
    )
    text = fileformats.format_moment_file(moments_of_atomic(mu, 7, exact=True))
    if moved:
        marker = next(ln for ln in text.splitlines() if ln.startswith("6 log:"))
        log6 = float(marker.split("log:")[1])
        text = text.replace(marker, f"6 log:{log6 + 1e-6!r}")
    s = fileformats.parse_moment_file(text)
    assert s.finite_degree() == 4 and math.isinf(s.values[(7,)])
    return s


def _one_d_outcome(call) -> tuple:
    """``repr`` of the atoms of the measure a call returns, or its error's
    type, message and ``worst``."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ClampedNodeWarning)
            result = call()
    except MomentError as exc:
        return type(exc), str(exc), repr(getattr(exc, "worst", None))
    measure = result[0] if isinstance(result, tuple) else result.measure
    return (repr(measure.atoms),)


def _assert_one_contract(s: MomentSequence) -> tuple:
    """``solve`` in 1-D and ``solve_1d`` give one outcome, which is
    returned, and the Gauss rule of the finite prefix reproduces ``s_0 ..
    s_{2q-1}``."""
    outcome = _one_d_outcome(lambda: solve_1d(s))
    assert _one_d_outcome(lambda: solve(s, mode="1d")) == outcome
    prefix = s.restrict(s.finite_degree())
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ClampedNodeWarning)
            rule = gauss_rule(prefix)
    except MomentError as exc:
        assert outcome[:2] == (type(exc), str(exc))
        return outcome
    if rule.rank:
        require_reproduced(rule.measure, prefix.restrict(2 * rule.rank - 1), TOL, "rule")
    return outcome


@settings(max_examples=150, deadline=None)
@given(s=_one_d_data())
def test_solve_and_solve_1d_hold_one_contract(s):
    outcome = _assert_one_contract(s)
    event("solved" if len(outcome) == 1 else outcome[0].__name__)


@pytest.mark.parametrize("moved", [False, True], ids=["true", "moved"])
def test_one_contract_on_a_file_with_inf_markers(moved):
    outcome = _assert_one_contract(_inf_marker_file(moved))
    if moved:
        assert outcome[0] is ValidationFailure
    else:
        assert len(outcome) == 1


def test_propose_returns_the_rule_that_solve_refuses():
    # Lognormal data has no atomic measure: ``propose`` returns the Gauss
    # rule of its finite prefix, and only ``solve`` compares it with the data.
    s = fixtures.moments_lognormal(40)
    measure, detail = propose(s)
    prefix_rule = gauss_rule(s.restrict(s.finite_degree()))
    assert repr(measure.atoms) == repr(prefix_rule.measure.atoms)
    assert detail == {
        "mode": "1d",
        "rank": prefix_rule.rank,
        "stieltjes_supported": True,
        "jacobi_diag": prefix_rule.jacobi.diag,
        "jacobi_offdiag": prefix_rule.jacobi.offdiag,
        "solved_degree": s.finite_degree(),
    }
    with pytest.raises(ValidationFailure):
        solve(s)


@pytest.mark.parametrize("call", [propose, solve])
@pytest.mark.parametrize(
    "mode, level", [("1D", None), ("bogus", None), (None, None), ("1d", 2)]
)
def test_a_mode_with_no_route_is_refused_before_the_data_is_read(call, mode, level):
    # Every route refuses this data (md: NotFlat, 1d: ValidationFailure in
    # solve), so a ValueError shows the mode is checked first.
    with pytest.raises(ValueError, match=f"mode {mode!r}, level {level!r}: no solve route"):
        call(fixtures.moments_factorial(4), mode, level)


def test_the_commutator_gate_refuses_what_the_reproduction_gate_cannot_judge():
    # Two atoms at coordinate scale 1/100 with s_(2,0) moved by 1e-5
    # relative: the residual below |s_alpha| = 1 is absolute, so atoms that
    # miss the moved entry would pass the reproduction gate; only level 2's
    # commutators refuse the data.
    mu = AtomicMeasure(2, [((0.00375, 0.0075), 0.25), ((0.01375, 0.0125), 1.0)])
    s = moments_of_atomic(mu, 4)
    _, detail = solve(s, mode="md")
    assert (detail["level"], detail["rank"]) == (2, 2)
    with pytest.raises(NotFlat) as refused:
        solve(_moved(s, (2, 0), 1 + 1e-5), mode="md")
    [(level, failure)] = refused.value.failures
    assert level == 2 and isinstance(failure, CommutatorTooLarge)
    assert failure.pair == (0, 1)
    assert failure.norm > failure.bound == 1e-8


@pytest.mark.parametrize("dim", [1, 2])
def test_exact_mass_beyond_double_range_is_an_eigen_failure(dim):
    # finite_degree() does not vouch for the mass, and both routes read it
    # as a double; flat extraction refuses it however it is entered.
    values = {alpha: 1.0 for alpha in monomials_up_to(dim, 4)}
    values[(0,) * dim] = 10**320
    s = MomentSequence(dim, 4, values)
    with pytest.raises(EigenFailure):
        solve(s)
    for route in (
        lambda: solve(s, mode="md"),
        lambda: multivariate.extract_atoms(s, 2),
        lambda: multivariate.extract_atoms_auto(s),
    ):
        with pytest.raises(EigenFailure, match="exact entry beyond double range"):
            route()


@pytest.mark.parametrize(
    "values, refusals",
    [
        # s_2 < 0: the 1-D rule is one atom at 0, the md scan finds no flat level.
        ((1e-9, 0.0, -1e-9), {"1d": ((2,), ValidationFailure), "md": (None, NotFlat)}),
        # PSD, but s_2 = 0 leaves only an atom at 0, and s_4 != 0.
        ((1e-9, 0.0, 0.0, 0.0, 1e-9), {m: ((4,), ValidationFailure) for m in ("1d", "md")}),
        ((1e-9, 0.0, 0.0, 0.0, -1e-9), {m: ((4,), ValidationFailure) for m in ("1d", "md")}),
    ],
)
@pytest.mark.parametrize("mode", ["1d", "md"])
def test_tiny_data_that_no_measure_has_is_refused(values, refusals, mode):
    # The answers miss by 1e-9, within tol in the caller's units; the gate
    # divides out the mass below 1, where they miss by 1.
    s = MomentSequence(1, len(values) - 1, {(k,): v for k, v in enumerate(values)})
    index, error = refusals[mode]
    with pytest.raises(error) as raised:
        solve(s, mode=mode)
    if index is not None:
        assert raised.value.worst == 1.0 and raised.value.index == index


@st.composite
def _moved_atomic_data(draw):
    """Moments of 1-6 dyadic atoms in [-4, 4]^d, d = 1 or 2, float or
    exact, with one entry moved by a relative 1e-9, 1e-7, 1e-5, 1e-3 or
    1e-1, up or down: data that need not be any measure's, nor PSD."""
    dim = draw(st.integers(1, 2))
    coordinate = st.builds(Fraction, st.integers(-16, 16), st.just(4))
    points = draw(
        st.lists(st.tuples(*[coordinate] * dim), min_size=1, max_size=6, unique=True)
    )
    atoms = [(pt, Fraction(draw(st.integers(1, 16)), 8)) for pt in points]
    degree = draw(st.integers(2, 8 if dim == 1 else 6))
    s = moments_of_atomic(AtomicMeasure(dim, atoms), degree, exact=draw(st.booleans()))
    values = dict(s.values)
    alpha = draw(st.sampled_from(monomials_up_to(dim, degree)))
    exponent = draw(st.sampled_from([9, 7, 5, 3, 1]))
    factor = 1 + draw(st.sampled_from([-1, 1])) * Fraction(1, 10**exponent)
    v = values[alpha]
    values[alpha] = v * float(factor) if isinstance(v, float) else v * factor
    return MomentSequence(dim, degree, values)


@settings(max_examples=100, deadline=None)
@given(s=_moved_atomic_data())
def test_moved_data_is_answered_within_tol_or_refused_with_numbers(s):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ClampedNodeWarning)
            measure, _ = solve(s, tol=TOL)
    except MomentError as exc:
        event(f"dim {s.dim}: {type(exc).__name__}")
        if isinstance(exc, ValidationFailure):
            assert exc.worst is not None and exc.index is not None
        if isinstance(exc, RankCollapse):
            assert exc.mass is not None or exc.rank is not None
        return
    event(f"dim {s.dim}: accepted")
    require_reproduced(measure, s, TOL, "returned measure")


# Scaled moments near both ends of double range: the Gauss recurrence's
# ratio overflows, and at degree 6 the partial factor too.
_OVERFLOWING_1D = [
    (1.0, 0.0, 1e-250, 1e100, 0.0, 0.0),
    (1.0, 0.0, 1e-250, 1e100, 0.0, 0.0, 0.0),
]


@pytest.mark.parametrize("values", _OVERFLOWING_1D, ids=["degree-5", "degree-6"])
def test_an_overflowing_gauss_rule_is_refused_without_a_warning(values):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValidationFailure):
            solve(_line(values))
    assert [str(w.message) for w in caught] == []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationFailure):
            solve(_line(values))


_WILD_ENTRY = st.just(0.0) | st.builds(
    lambda sign, exponent: sign * 10.0**exponent,
    st.sampled_from([-1.0, 1.0]),
    st.floats(-320, 308),
)


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(_WILD_ENTRY, min_size=2, max_size=13),
    mode=st.sampled_from(["auto", "md"]),
)
@example(values=list(_OVERFLOWING_1D[0]), mode="auto")
@example(values=list(_OVERFLOWING_1D[1]), mode="auto")
def test_wild_1d_data_is_answered_or_refused_without_numpy_warnings(values, mode):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            solve(_line(values), mode=mode)
        except MomentError as exc:
            event(f"{mode}: {type(exc).__name__}")
    assert [
        str(w.message) for w in caught if not issubclass(w.category, ClampedNodeWarning)
    ] == []
