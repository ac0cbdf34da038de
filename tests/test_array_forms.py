"""Array forms of the 1-D solve, the growth diagnostics and the atomic
fixture against the scalar code they replaced: the Cholesky rows of
``solve_1d``, the marginal view, the ``psd_check`` guard and
``moments_of_atomic`` must equal the per-entry references byte for byte, and
so must ``normalize`` on float data and the float table of its copy."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from momentkit import AtomicMeasure, EigenFailure, MomentSequence, PsdVerdict, psd_check
from momentkit.conditions import _divide, normalize
from momentkit.fixtures import moments_of_atomic
from momentkit.polynomials import _log, _to_float, monomials_up_to
from momentkit.univariate import _partial_cholesky_rows
from test_float_table import _ref_marginal_view, _view_bytes

# ---------------------------------------------------------------------------
# the scalar code, kept as references


def _ref_partial_cholesky_rows(h: np.ndarray, rows: int) -> list[np.ndarray]:
    n = h.shape[1]
    r: list[np.ndarray] = []
    for i in range(rows):
        row = np.zeros(n, dtype=float)
        pivot = h[i, i] - sum(prev[i] * prev[i] for prev in r)
        if pivot <= 0.0 or not math.isfinite(pivot):
            break
        row[i] = math.sqrt(pivot)
        for j in range(i + 1, n):
            row[j] = (h[i, j] - sum(prev[i] * prev[j] for prev in r)) / row[i]
        r.append(row)
    return r


def _ref_normalize(s: MomentSequence) -> MomentSequence:
    mass = s.mass
    values = {a: _divide(v, mass) for a, v in s.values.items()}
    log_mass = _log(mass)
    logs = {a: lv - log_mass for a, lv in s.log_values.items()}
    return MomentSequence(s.dim, s.max_degree, values, logs)


def _ref_psd_check(m: np.ndarray, tol_rel: float = 1e-8) -> PsdVerdict:
    if m.size == 0:
        return PsdVerdict(True, 0.0, tol_rel)
    if not np.all(np.isfinite(m)):
        raise EigenFailure("matrix has non-finite entries")
    scale = float(np.max(np.abs(m)))
    if scale == 0.0:
        return PsdVerdict(True, 0.0, tol_rel)
    m = m / scale
    m = (m + m.T) / 2.0
    tolerance = tol_rel * max(1.0 / scale, float(np.max(np.sum(np.abs(m), axis=1))))
    min_eig = float(np.linalg.eigvalsh(m)[0])
    used = tol_rel if math.isinf(1.0 / scale) else tolerance * scale
    return PsdVerdict(min_eig >= -tolerance, min_eig * scale, used)


def _ref_moments_of_atomic(
    measure: AtomicMeasure, max_degree: int, exact: bool = False
) -> MomentSequence:
    atoms = []
    for point, weight in measure.atoms:
        if exact:
            atoms.append(
                (tuple(Fraction(x) for x in point), Fraction(weight))
            )
        else:
            atoms.append((tuple(float(x) for x in point), float(weight)))
    values = {}
    for alpha in monomials_up_to(measure.dim, max_degree):
        total = Fraction(0) if exact else 0.0
        for point, weight in atoms:
            term = weight
            for x, e in zip(point, alpha):
                if e:
                    term = term * x**e
            total = total + term
        values[alpha] = total
    return MomentSequence(measure.dim, max_degree, values)


# ---------------------------------------------------------------------------
# comparisons


def _rows_bytes(rows) -> list[bytes]:
    return [np.asarray(row, dtype=float).tobytes() for row in rows]


def _f(x: float) -> bytes:
    return np.float64(x).tobytes()


def _sequence_bytes(s: MomentSequence):
    """Every entry with its type and bits, and every stored log's bits."""
    return (
        [(type(v).__name__, _f(v) if isinstance(v, float) else v) for v in s.values.values()],
        {a: _f(lv) for a, lv in s.log_values.items()},
    )


def _psd_outcome(fn, m):
    try:
        v = fn(m)
    except EigenFailure as exc:
        return ("raises", str(exc))
    return (v.is_psd, _f(v.min_eigenvalue), _f(v.tolerance_used))


# ---------------------------------------------------------------------------
# _partial_cholesky_rows

_SPECIAL = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 3.0, 1e-300, 1e300, math.nan, math.inf, -math.inf]


@st.composite
def _hankels(draw):
    """A ``q x (q+1)`` Hankel block of scaled moments: of dyadic atoms, of
    such moments with some entries replaced by signed zeros, non-finite or
    extreme values, or of such values alone."""
    q = draw(st.integers(1, 14))
    kind = draw(st.sampled_from(["atomic", "perturbed", "raw"]))
    if kind == "raw":
        s = [draw(st.sampled_from(_SPECIAL)) for _ in range(2 * q + 1)]
    else:
        count = draw(st.integers(1, q + 2))
        nodes = [draw(st.integers(-128, 128)) / 64 for _ in range(count)]
        weights = [draw(st.integers(1, 16)) / 16 for _ in range(count)]
        s = [
            math.fsum(w * x**k for x, w in zip(nodes, weights)) / math.fsum(weights)
            for k in range(2 * q + 1)
        ]
        if kind == "perturbed":
            for _ in range(draw(st.integers(1, 3))):
                s[draw(st.integers(0, 2 * q))] = draw(st.sampled_from(_SPECIAL))
    h = np.array(s, dtype=float)[np.add.outer(np.arange(q), np.arange(q + 1))]
    return h, draw(st.integers(0, q))


class TestCholeskyRowsMatchTheScalarRecurrence:
    @settings(max_examples=300, deadline=None)
    @given(case=_hankels())
    def test_hypothesis_hankels(self, case):
        h, rows = case
        with np.errstate(all="ignore"):
            got = _partial_cholesky_rows(h, rows)
            want = _ref_partial_cholesky_rows(h, rows)
        assert isinstance(got, list)
        assert _rows_bytes(got) == _rows_bytes(want)

    def _same(self, h, rows, count):
        with np.errstate(all="ignore"):
            got = _partial_cholesky_rows(h, rows)
            want = _ref_partial_cholesky_rows(h, rows)
        assert len(got) == count
        assert _rows_bytes(got) == _rows_bytes(want)

    def test_negative_zero_entries(self):
        # The symmetric two-point measure on +-1 with its odd moments -0.0:
        # a sum over earlier rows starts from 0.0, so -0.0 - (-0.0 * 1)
        # keeps its sign exactly where the scalar sum keeps it.
        s = np.array([1.0, -0.0, 1.0, -0.0, 1.0, -0.0, 1.0])
        h = s[np.add.outer(np.arange(3), np.arange(4))]
        self._same(h, 3, 2)
        got = _partial_cholesky_rows(h, 3)
        assert np.signbit(got[0][1]) and np.signbit(got[1][2])

    def test_non_positive_pivot_partway(self):
        h = np.array(
            [[4.0, 2.0, 1.0, 0.5], [2.0, 5.0, 3.0, 1.0], [1.0, 3.0, 1.0, 7.0]]
        )
        # The third pivot is 1 - 0.5**2 - 1.25**2 < 0.
        self._same(h, 3, 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_pivot(self, bad):
        s = np.array([1.0, 0.5, 0.5, 0.375, 0.375, 0.3, 0.3])
        h = s[np.add.outer(np.arange(3), np.arange(4))]
        h[1, 1] = bad
        self._same(h, 3, 1)

    def test_fewer_rows_than_the_block(self):
        s = np.array([1.0, 0.25, 0.5, 0.3, 0.4, 0.35, 0.37, 0.36, 0.365])
        h = s[np.add.outer(np.arange(4), np.arange(5))]
        for rows in range(5):
            with np.errstate(all="ignore"):
                assert _rows_bytes(_partial_cholesky_rows(h, rows)) == _rows_bytes(
                    _ref_partial_cholesky_rows(h, rows)
                )


# ---------------------------------------------------------------------------
# normalize on float data

_FLOATS = [0.0, -0.0, 1.0, 2.5, -3.0, 5e-324, 1e-310, 2.2250738585072014e-308, 3e200, 1.7e308, math.nan]
_MASSES = [1.0, 3.0, 0.1, 5e-324, 1e-310, 1e300, 1.7e308]


@st.composite
def _float_sequences(draw):
    dim = draw(st.integers(1, 3))
    max_degree = draw(st.integers(0, {1: 10, 2: 5, 3: 4}[dim]))
    values, logs = {}, {}
    for alpha in monomials_up_to(dim, max_degree):
        if sum(alpha) and draw(st.integers(0, 5)) == 0:
            values[alpha] = math.inf  # an overflow marker with its log
            logs[alpha] = draw(st.floats(700.0, 2000.0))
        else:
            values[alpha] = draw(st.sampled_from(_FLOATS))
            if values[alpha] > 0 and draw(st.booleans()):
                logs[alpha] = math.log(values[alpha])
    values[(0,) * dim] = draw(st.sampled_from(_MASSES))
    logs.pop((0,) * dim, None)
    return MomentSequence(dim, max_degree, values, logs)


class TestFloatNormalizeMatchesPerEntryDivision:
    @settings(max_examples=200, deadline=None)
    @given(s=_float_sequences())
    def test_values_logs_and_table(self, s):
        got, want = normalize(s), _ref_normalize(s)
        assert _sequence_bytes(got) == _sequence_bytes(want)
        table = got._float_table()
        assert not table.flags.writeable
        assert table.tobytes() == np.array(
            [_to_float(v) for v in got.values.values()], dtype=float
        ).tobytes()
        fresh = MomentSequence(got.dim, got.max_degree, got.values, got.log_values)
        assert fresh._float_table().tobytes() == table.tobytes()
        assert (got._all_float, got._overflow_at) == (
            fresh._all_float,
            fresh._overflow_at,
        )
        for axis in range(s.dim):
            assert _view_bytes(got._marginal_view(axis)) == _view_bytes(
                _ref_marginal_view(want, axis)
            )

    def test_subnormals_negative_zero_and_markers(self):
        s = MomentSequence(
            1,
            5,
            {(0,): 1e-310, (1,): -0.0, (2,): 5e-324, (3,): math.inf, (4,): 1.0, (5,): 0.0},
            {(3,): 900.0},
        )
        got = normalize(s)
        assert _sequence_bytes(got) == _sequence_bytes(_ref_normalize(s))
        assert math.copysign(1.0, got.values[(1,)]) == -1.0
        assert got.values[(4,)] == math.inf  # 1 / 1e-310 overflows
        assert got.log_values[(3,)] == 900.0 - math.log(1e-310)

    def test_exact_data_keeps_the_division_per_entry(self):
        s = MomentSequence(
            1, 3, {(0,): 3, (1,): Fraction(1, 2), (2,): Fraction(10**400), (3,): 1.5}
        )
        got = normalize(s)
        assert _sequence_bytes(got) == _sequence_bytes(_ref_normalize(s))
        assert got.values[(1,)] == Fraction(1, 6)
        assert got.values[(2,)] == Fraction(10**400, 3)


# ---------------------------------------------------------------------------
# the marginal view of positive data without stored logs


@st.composite
def _positive_sequences(draw):
    dim = draw(st.integers(1, 3))
    max_degree = draw(st.integers(0, {1: 10, 2: 5, 3: 4}[dim]))
    exact = draw(st.booleans())
    pool = (
        [1, 3, Fraction(1, 3), Fraction(7, 2**60), 2**70 + 1]
        if exact
        else [1.0, 0.3, 5e-324, 1.7e308, 2.0**-60]
    )
    values = {a: draw(st.sampled_from(pool)) for a in monomials_up_to(dim, max_degree)}
    if draw(st.booleans()):  # one entry that takes the per-entry rule
        alpha = draw(st.sampled_from(monomials_up_to(dim, max_degree)))
        values[alpha] = draw(st.sampled_from([0, -2, 10**400, Fraction(1, 10**400), -0.0]))
    return MomentSequence(dim, max_degree, values)


@settings(max_examples=150, deadline=None)
@given(s=_positive_sequences())
def test_marginal_view_of_positive_data_logs_each_float(s):
    fresh = MomentSequence(s.dim, s.max_degree, s.values, s.log_values)
    for axis in range(s.dim):
        assert _view_bytes(s._marginal_view(axis)) == _view_bytes(
            _ref_marginal_view(fresh, axis)
        )
    with pytest.raises(ValueError, match=f"axis {s.dim} out of range"):
        s._marginal_view(s.dim)


# ---------------------------------------------------------------------------
# psd_check: one pass for the guard and the scale

_ENTRIES = [0.0, -0.0, 1.0, -1.0, 0.5, 1e-310, -5e-324, 1e308, -1e308, math.nan, math.inf, -math.inf]


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(0, 5),
    data=st.data(),
)
def test_psd_check_matches_the_two_pass_reference(n, data):
    flat = data.draw(st.lists(st.sampled_from(_ENTRIES), min_size=n * n, max_size=n * n))
    m = np.array(flat, dtype=float).reshape(n, n)
    with np.errstate(all="ignore"):
        if data.draw(st.booleans()):
            m = m + m.T  # symmetric, as every caller's matrix is
        assert _psd_outcome(psd_check, m) == _psd_outcome(_ref_psd_check, m)


# ---------------------------------------------------------------------------
# moments_of_atomic: power tables against the per-monomial loop

_COORDINATES = [
    0, 0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 1e150, -3e200,
    1.7e308, 10**150, -(10**160), Fraction(10**170, 3), Fraction(-1, 10**320),
]
_coordinates = st.one_of(
    st.sampled_from(_COORDINATES),
    st.integers(-64, 64),
    st.floats(allow_nan=False, allow_infinity=False),
    st.fractions(max_denominator=10**6),
)
_weights = st.one_of(
    st.sampled_from([5e-324, 1e-310, 1e150, 1.7e308, Fraction(1, 3), 10**155]),
    st.integers(1, 10**6),
    st.floats(min_value=5e-324, max_value=1e300),
    st.fractions(min_value=Fraction(1, 10**6), max_value=10**6),
)


@st.composite
def _atomic_measures(draw):
    """0-20 distinct atoms in dims 1-4 with int, float and ``Fraction``
    coordinates and weights, extremes included."""
    dim = draw(st.integers(1, 4))
    points = draw(
        st.lists(
            st.tuples(*[_coordinates] * dim),
            max_size=20,
            unique_by=lambda p: tuple(float(x) for x in p),
        )
    )
    atoms = [(p, draw(_weights)) for p in points]
    return AtomicMeasure(dim, atoms, tol_atom=0.0)


def _fixture_outcome(fn, measure, max_degree, exact):
    try:
        s = fn(measure, max_degree, exact)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return _sequence_bytes(s)


class TestMomentsOfAtomicMatchThePerMonomialLoop:
    @settings(max_examples=100, deadline=None)
    @given(
        measure=_atomic_measures(),
        max_degree=st.integers(-1, 12),
        exact=st.booleans(),
    )
    def test_hypothesis_measures(self, measure, max_degree, exact):
        assert _fixture_outcome(
            moments_of_atomic, measure, max_degree, exact
        ) == _fixture_outcome(_ref_moments_of_atomic, measure, max_degree, exact)

    def test_atoms_are_added_in_order(self):
        # 1 + 2**-53 rounds back to 1 at every step of the loop; a pairwise
        # or blocked sum adds some of the small weights together first.
        weights = [1.0] + [2.0**-53] * 15
        measure = AtomicMeasure(1, [((k / 8,), w) for k, w in enumerate(weights)])
        got = moments_of_atomic(measure, 4)
        assert _sequence_bytes(got) == _sequence_bytes(_ref_moments_of_atomic(measure, 4))
        assert got.values[(0,)] == 1.0
        assert float(np.sum(np.array(weights))) != 1.0

    def test_sum_starts_from_positive_zero(self):
        # 0.0 + -0.0 is 0.0: an odd power of -0.0 leaves no negative zero
        measure = AtomicMeasure(1, [((-0.0,), 1.0)])
        got = moments_of_atomic(measure, 3)
        assert _sequence_bytes(got) == _sequence_bytes(_ref_moments_of_atomic(measure, 3))
        assert math.copysign(1.0, got.values[(3,)]) == 1.0

    def test_power_beyond_double_range_raises_overflow_on_floats_only(self):
        measure = AtomicMeasure(2, [((1.0, 1e200), 2.0)])
        for fn in (moments_of_atomic, _ref_moments_of_atomic):
            with pytest.raises(OverflowError):
                fn(measure, 2)
        exact = moments_of_atomic(measure, 2, exact=True)
        assert exact.values[(0, 2)] == 2 * Fraction(1e200) ** 2

    @pytest.mark.parametrize("exact", [False, True])
    def test_negative_degree_raises_value_error(self, exact):
        measure = AtomicMeasure(1, [((2.0,), 1.0)])
        with pytest.raises(ValueError, match="max_degree must be >= 0, got -1"):
            moments_of_atomic(measure, -1, exact)
