"""Array forms of the 1-D solve and the growth diagnostics against the
scalar code they replaced: the Cholesky rows of ``solve_1d``, the float
``normalize``, the marginal view and the ``psd_check`` guard must equal the
per-entry references byte for byte."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from momentkit import EigenFailure, MomentSequence, PsdVerdict, psd_check
from momentkit.conditions import _divide, normalize
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
        table = got._floats  # seeded by normalize, not converted on a read
        assert table is not None and not table.flags.writeable
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
