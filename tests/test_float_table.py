"""The float table of a moment sequence against the per-entry conversions it
replaced: every moment vector, matrix, marginal and finite degree read
through the table must equal the per-entry code byte for byte."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from momentkit import (
    MomentSequence,
    NegativeMoment,
    Polynomial,
    localizing_matrix,
    moment_matrix,
)
from momentkit.matrices import assemble, moment_vector
from momentkit.polynomials import (
    NEG_INF,
    _log,
    _monomial_table,
    _to_float,
    add_indices,
    monomials_up_to,
)

# ---------------------------------------------------------------------------
# the per-entry code, kept as references


def _ref_moment_vector(s: MomentSequence, degree: int) -> np.ndarray:
    return np.array(
        [float(s.values[m]) for m in _monomial_table(s.dim, degree)], dtype=float
    )


def _ref_moment_matrix(s: MomentSequence, level: int) -> np.ndarray:
    return assemble(_ref_moment_vector(s, 2 * level), s.dim, level)


def _ref_localizing_matrix(s: MomentSequence, f: Polynomial, level: int) -> np.ndarray:
    total = np.zeros(len(_monomial_table(s.dim, 2 * level)))
    for gamma, coeff in f.sorted_terms():
        shifted = [add_indices(m, gamma) for m in _monomial_table(s.dim, 2 * level)]
        entries = [s.values[m] for m in shifted]
        if set(map(type, entries)) == {float}:
            with np.errstate(over="ignore", invalid="ignore"):
                term = float(coeff) * np.array(entries)
        else:
            term = np.array([float(coeff * v) for v in entries])
        total = total + term
    return assemble(total, s.dim, level)


def _ref_marginal_view(s: MomentSequence, axis: int):
    floats, logs = [], []
    for n in range(s.max_degree + 1):
        idx = tuple(n if j == axis else 0 for j in range(s.dim))
        v = s.values[idx]
        floats.append(_to_float(v))
        lv = s.log_values.get(idx)
        if lv is None:
            lv = None if v < 0 else NEG_INF if v == 0 else _log(v)
        logs.append(lv)
    return floats, logs


def _ref_finite_degree(s: MomentSequence) -> int:
    for alpha in _monomial_table(s.dim, s.max_degree)[1:]:
        if not math.isfinite(_to_float(s.values[alpha])):
            return sum(alpha) - 1
    return s.max_degree


def _outcome(fn, *args):
    """What a call gives, in bytes: an array's bytes, or the error's type
    and message."""
    try:
        out = fn(*args)
    except OverflowError as exc:
        return ("raises", type(exc).__name__, str(exc))
    if hasattr(out, "entries"):
        out = out.entries
    return ("returns", np.asarray(out).dtype.str, np.asarray(out).tobytes())


def _log_outcome(read):
    """What a log read gives, in bytes: the log's bytes, or the message of
    the :class:`NegativeMoment` it raises."""
    try:
        out = read()
    except NegativeMoment as exc:
        return ("raises", str(exc))
    return ("returns", np.float64(out).tobytes())


def _view_bytes(view):
    floats, logs = view
    return (
        np.array(floats, dtype=float).tobytes(),
        [None if lv is None else np.float64(lv).tobytes() for lv in logs],
    )


# ---------------------------------------------------------------------------
# data

_HUGE = 10**400


def _entry(kind: str, draw):
    if kind == "float":
        return draw(
            st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-300, 3.0e200, -1.5e-7])
        ) * draw(st.sampled_from([1.0, 0.1, 7.0]))
    if kind == "inf":
        return math.inf
    if kind == "int":
        return draw(st.sampled_from([0, 1, -3, 2**53 + 1, 3**40, -(2**60) - 7]))
    if kind == "fraction":
        return Fraction(
            draw(st.integers(-(10**20), 10**20)), draw(st.integers(1, 10**6))
        )
    if kind == "huge":
        return draw(st.sampled_from([_HUGE, -_HUGE, Fraction(_HUGE, 3)]))
    if kind == "tiny":
        return Fraction(1, _HUGE)
    raise AssertionError(kind)


@st.composite
def _sequences(draw):
    dim = draw(st.integers(1, 4))
    max_degree = draw(st.integers(0, {1: 8, 2: 6, 3: 5, 4: 4}[dim]))
    mode = draw(st.sampled_from(["float", "exact", "mixed"]))
    kinds = {
        "float": ["float", "float", "float", "inf"],
        "exact": ["int", "fraction", "fraction", "huge", "tiny"],
        "mixed": ["float", "float", "inf", "int", "fraction", "huge", "tiny"],
    }[mode]
    values, logs = {}, {}
    for alpha in monomials_up_to(dim, max_degree):
        kind = draw(st.sampled_from(kinds))
        values[alpha] = _entry(kind, draw)
        if kind == "inf":
            logs[alpha] = draw(st.floats(700.0, 2000.0))
        elif values[alpha] > 0 and draw(st.integers(0, 3)) == 0:
            # A stored log is authoritative: off the entry's own by 0.5, a
            # read that logs the entry instead shows.
            logs[alpha] = _log(values[alpha]) + draw(st.sampled_from([0.0, 0.5]))
    zero = (0,) * dim
    mass = draw(st.sampled_from(["keep", "one", "huge"]))
    if mass == "huge" and mode != "float":
        values[zero] = _HUGE  # an exact mass beyond double range
    elif mass == "one" or values[zero] == math.inf:
        values[zero] = 1.0 if mode == "float" else Fraction(1)
    logs.pop(zero, None)
    return MomentSequence(dim, max_degree, values, logs)


@st.composite
def _generators(draw, dim: int, max_degree: int):
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        degree = draw(st.integers(0, max_degree))
        parts = [0] * dim
        for _ in range(degree):
            parts[draw(st.integers(0, dim - 1))] += 1
        terms[tuple(parts)] = Fraction(
            draw(st.integers(-50, 50).filter(bool)), draw(st.integers(1, 13))
        )
    return Polynomial(dim, terms)


class TestTableMatchesPerEntryReads:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_every_float_read_equals_the_per_entry_code(self, data):
        s = data.draw(_sequences())
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf sums
            self._compare(s, data)

    def _compare(self, s, data):
        fresh = MomentSequence(s.dim, s.max_degree, s.values, s.log_values)
        for degree in range(s.max_degree + 1):
            assert _outcome(moment_vector, s, degree) == _outcome(
                _ref_moment_vector, fresh, degree
            )
        for level in range(s.max_degree // 2 + 1):
            assert _outcome(moment_matrix, s, level) == _outcome(
                _ref_moment_matrix, fresh, level
            )
            f = data.draw(_generators(s.dim, s.max_degree - 2 * level))
            assert _outcome(localizing_matrix, s, f, level) == _outcome(
                _ref_localizing_matrix, fresh, f, level
            )
        for axis in range(s.dim):
            assert _view_bytes(s._marginal_view(axis)) == _view_bytes(
                _ref_marginal_view(fresh, axis)
            )
            # log_marginal and log_value give the view's log, or both raise
            # what a diagnostic reading that entry raises.
            for n, lv in enumerate(s._marginal_view(axis)[1]):
                if lv is None:
                    orders = range(n, n + 1)
                    want = _log_outcome(lambda: fresh._marginal_logs(axis, orders)[0])
                    assert want[0] == "raises"
                else:
                    want = ("returns", np.float64(lv).tobytes())
                idx = fresh._axis_index(axis, n)
                assert _log_outcome(lambda: fresh.log_marginal(axis, n)) == want
                assert _log_outcome(lambda: fresh.log_value(idx)) == want
        assert s.finite_degree() == _ref_finite_degree(fresh)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_negative_zero_survives_vectors_and_becomes_zero_in_sums(self, dim):
        values = {a: -0.0 for a in monomials_up_to(dim, 4)}
        values[(0,) * dim] = 1.0
        s = MomentSequence(dim, 4, values)
        assert np.signbit(moment_vector(s, 4)[1:]).all()
        x = Polynomial.variable(dim, dim - 1)
        entries = localizing_matrix(s, Polynomial(dim, {(0,) * dim: 2}) * x, 1).entries
        assert not np.signbit(entries).any()
        assert entries.tobytes() == _ref_localizing_matrix(s, 2 * x, 1).tobytes()

    def test_exact_entries_among_floats_keep_the_exact_product(self):
        # 2**53 + 1 rounds to 2**53 as a float; times 1/3 the exact product
        # and the float product of the rounded entry differ in the last bit.
        third = Polynomial(1, {(1,): Fraction(1, 3)})
        values = {(0,): 1.0, (1,): 2**53 + 1, (2,): 0.5}
        s = MomentSequence(1, 2, values)
        got = localizing_matrix(s, third, 0).entries
        assert got.tobytes() == _ref_localizing_matrix(s, third, 0).tobytes()
        rounded = MomentSequence(1, 2, {a: float(v) for a, v in values.items()})
        assert got.tobytes() != localizing_matrix(rounded, third, 0).entries.tobytes()


class TestTableIsKept:
    def _data(self):
        values = {a: float(sum(a) + 1) for a in monomials_up_to(2, 4)}
        return MomentSequence(2, 4, values)

    def test_built_once_and_not_writable(self):
        s = self._data()
        table = s._float_table()
        assert s._float_table() is table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 5.0

    def test_writing_into_a_moment_vector_leaves_the_sequence_unchanged(self):
        s = self._data()
        before = moment_vector(s, 4).tobytes()
        vector = moment_vector(s, 4)
        vector[:] = -1.0
        assert moment_vector(s, 4).tobytes() == before
        assert moment_matrix(s, 2).entries.tobytes() == _ref_moment_matrix(s, 2).tobytes()
        assert s._float_table().tobytes() == before

    def test_overflow_only_where_the_prefix_reaches_an_exact_entry(self):
        values = {a: Fraction(sum(a) + 1, 3) for a in monomials_up_to(2, 6)}
        values[(0, 3)] = _HUGE  # position 9, the last of degree 3
        values[(2, 0)] = math.inf  # a float marker never raises
        s = MomentSequence(2, 6, values, {(2, 0): 1000.0})
        for degree in range(3):
            moment_vector(s, degree)
        moment_matrix(s, 1)
        with pytest.raises(OverflowError):
            moment_vector(s, 3)
        with pytest.raises(OverflowError):
            moment_matrix(s, 2)
        assert s.finite_degree() == 1
        assert s._marginal_view(1)[0][3] == math.inf

    def test_exact_mass_beyond_double_range(self):
        s = MomentSequence(1, 2, {(0,): _HUGE, (1,): 1, (2,): 2})
        with pytest.raises(OverflowError):
            moment_vector(s, 0)
        assert s.finite_degree() == 2
        assert s._marginal_view(0)[0][0] == math.inf
        assert s._marginal_view(0)[1][0] == pytest.approx(400 * math.log(10))
