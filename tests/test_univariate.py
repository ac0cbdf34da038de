"""One-dimensional atomic recovery through the tridiagonal recurrence."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from momentkit import (
    AtomicMeasure,
    ClampedNodeWarning,
    DegreeOverflow,
    DimMismatch,
    JacobiMatrix,
    MomentSequence,
    NotPsd,
    RankCollapse,
    moments_factorial,
    moments_of_atomic,
    solve_1d,
)
from momentkit import univariate
from momentkit.univariate import _growth_scale, _partial_cholesky_rows
from conftest import measure_errors, random_measure

SQRT2 = math.sqrt(2.0)


class TestJacobiMatrix:
    def test_dense_layout(self):
        j = JacobiMatrix([1.0, 3.0], [2.0])
        np.testing.assert_array_equal(j.to_dense(), [[1.0, 2.0], [2.0, 3.0]])

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            JacobiMatrix([1.0, 2.0], [1.0, 1.0])


class TestSolveFactorial:
    """s_k = k! is the moment sequence of the unit-rate exponential law;
    its degree-4 truncation admits the two-point rule with nodes 2 -+ sqrt(2)
    and weights (2 +- sqrt(2)) / 4 (the sign pairing is reversed), derived
    by solving the 2x2 recurrence by hand."""

    def test_nodes_and_weights(self):
        res = solve_1d(moments_factorial(4))
        atoms = res.measure.sorted_atoms()
        assert len(atoms) == 2
        assert atoms[0][0][0] == pytest.approx(2.0 - SQRT2, abs=1e-12)
        assert atoms[1][0][0] == pytest.approx(2.0 + SQRT2, abs=1e-12)
        assert atoms[0][1] == pytest.approx((2.0 + SQRT2) / 4.0, abs=1e-12)
        assert atoms[1][1] == pytest.approx((2.0 - SQRT2) / 4.0, abs=1e-12)

    def test_recurrence_coefficients(self):
        # The orthogonal polynomials for this data satisfy the recurrence
        # with centers 2k + 1 and couplings k: truncated at two terms the
        # tridiagonal matrix is [[1, 1], [1, 3]].
        res = solve_1d(moments_factorial(4))
        assert res.jacobi.diag == pytest.approx([1.0, 3.0], abs=1e-12)
        assert res.jacobi.offdiag == pytest.approx([1.0], abs=1e-12)

    def test_reproduction_and_support(self):
        res = solve_1d(moments_factorial(4))
        assert res.rank == 2
        assert res.stieltjes_supported
        assert res.max_residual <= 1e-12
        assert len(res.residuals) == 4


class TestSolveKnownMeasures:
    def test_two_atoms_by_hand(self):
        # Moments of (1/2) at 1 plus (1/2) at 4:
        # (1, 2.5, 8.5, 32.5, 128.5).
        s = MomentSequence(
            1, 4, {(0,): 1.0, (1,): 2.5, (2,): 8.5, (3,): 32.5, (4,): 128.5}
        )
        res = solve_1d(s)
        atoms = res.measure.sorted_atoms()
        assert [x for (x,), _ in atoms] == pytest.approx([1.0, 4.0], abs=1e-10)
        assert [w for _, w in atoms] == pytest.approx([0.5, 0.5], abs=1e-10)

    def test_all_ones_is_point_mass_at_one(self):
        s = MomentSequence(1, 6, {(k,): 1.0 for k in range(7)})
        res = solve_1d(s)
        assert res.rank == 1
        assert res.measure.atoms == [((1.0,), 1.0)]

    def test_density_data_yields_gaussian_rule(self):
        # s_k = 1/(k+1) (uniform on [0,1]) has full-rank truncations; the
        # recovered rule is the three-point Gaussian rule for that weight:
        # nodes 1/2 -+ sqrt(3/5)/2 and 1/2, weights 5/18, 4/9, 5/18.
        s = MomentSequence(1, 6, {(k,): 1.0 / (k + 1) for k in range(7)})
        res = solve_1d(s)
        atoms = res.measure.sorted_atoms()
        offset = math.sqrt(3.0 / 5.0) / 2.0
        assert [x for (x,), _ in atoms] == pytest.approx(
            [0.5 - offset, 0.5, 0.5 + offset], abs=1e-12
        )
        assert [w for _, w in atoms] == pytest.approx(
            [5.0 / 18.0, 4.0 / 9.0, 5.0 / 18.0], abs=1e-12
        )

    def test_zero_sequence_gives_empty_measure(self):
        s = MomentSequence(1, 4, {(k,): 0.0 for k in range(5)})
        res = solve_1d(s)
        assert len(res.measure) == 0
        assert res.rank == 0

    def test_large_scale_variables(self):
        mu = AtomicMeasure(1, [((1.0e4,), 0.5), ((2.0e4,), 1.5)])
        res = solve_1d(moments_of_atomic(mu, 6))
        atoms = res.measure.sorted_atoms()
        assert atoms[0][0][0] == pytest.approx(1.0e4, rel=1e-9)
        assert atoms[1][0][0] == pytest.approx(2.0e4, rel=1e-9)
        assert atoms[0][1] == pytest.approx(0.5, rel=1e-9)

    def test_random_recovery_accuracy(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            mu = random_measure(rng, dim=1, n_atoms=int(rng.integers(1, 5)))
            s = moments_of_atomic(mu, 2 * len(mu) + 2)
            res = solve_1d(s)
            pos, wt = measure_errors(mu, res.measure)
            assert pos <= 1e-8
            assert wt <= 1e-8


class TestSolveEdgeCases:
    def test_wrong_dim(self):
        values = {(a, b): 1.0 for a in range(2) for b in range(2) if a + b <= 1}
        with pytest.raises(DimMismatch):
            solve_1d(MomentSequence(2, 1, values))

    def test_mass_only_data_rejected(self):
        with pytest.raises(DegreeOverflow):
            solve_1d(MomentSequence(1, 0, {(0,): 1.0}))

    def test_zero_mass_with_content_rejected(self):
        s = MomentSequence(1, 2, {(0,): 0.0, (1,): 1.0, (2,): 1.0})
        with pytest.raises(RankCollapse):
            solve_1d(s)

    def test_indefinite_data_rejected(self):
        s = MomentSequence(1, 2, {(0,): 1.0, (1,): 0.0, (2,): -1.0})
        with pytest.raises(NotPsd):
            solve_1d(s)

    def test_slightly_negative_node_clamped(self):
        mu = AtomicMeasure(1, [((-1.0e-8,), 1.0), ((2.0,), 1.0)])
        s = moments_of_atomic(mu, 6)
        with pytest.warns(ClampedNodeWarning):
            res = solve_1d(s)
        assert res.stieltjes_supported
        assert min(x for (x,), _ in res.measure.atoms) == 0.0

    def test_genuinely_negative_node_not_supported(self):
        mu = AtomicMeasure(1, [((-1.0,), 1.0), ((2.0,), 1.0)])
        res = solve_1d(moments_of_atomic(mu, 6))
        assert not res.stieltjes_supported
        atoms = res.measure.sorted_atoms()
        assert atoms[0][0][0] == pytest.approx(-1.0, abs=1e-10)


def _reference_cholesky_rows(h, rows):
    """The factorization before it stopped at a failed pivot: it returned
    the index of that pivot instead of the rows."""
    n = h.shape[1]
    r = []
    for i in range(rows):
        row = np.zeros(n, dtype=float)
        pivot = h[i, i] - sum(prev[i] * prev[i] for prev in r)
        if pivot <= 0.0 or not math.isfinite(pivot):
            return i
        row[i] = math.sqrt(pivot)
        for j in range(i + 1, n):
            row[j] = (h[i, j] - sum(prev[i] * prev[j] for prev in r)) / row[i]
        r.append(row)
    return r


def _reference_rank_rows(scaled, q):
    """The refactor-and-retry loop: factor the q x (q+1) Hankel block and,
    when a pivot fails at row k, factor the k x (k+1) block afresh."""
    while q > 0:
        block = scaled[np.add.outer(np.arange(q), np.arange(q + 1))]
        got = _reference_cholesky_rows(block, q)
        if isinstance(got, list):
            return got
        q = got
    return []


def _scaled_hankel_data(s):
    """The scaled moments ``solve_1d`` factors."""
    values = [float(s.value((k,))) for k in range(s.max_degree + 1)]
    scale = _growth_scale(values)
    return np.array(
        [values[k] / (values[0] * scale**k) for k in range(len(values))]
    )


class TestPartialCholesky:
    """One factorization that stops at the first failed pivot gives the
    same rows, bit for bit, as refactoring the smaller block."""

    @settings(max_examples=150, deadline=None)
    @given(
        nodes=st.lists(st.integers(0, 160), min_size=1, max_size=5, unique=True),
        weights=st.lists(st.integers(1, 8), min_size=5, max_size=5),
        extra=st.integers(1, 3),
        exact=st.booleans(),
    )
    def test_matches_refactor_and_retry(self, nodes, weights, extra, exact):
        # Dyadic nodes j/64 in [0.5, 3] with weights j/4, asked for more
        # rows than the true rank.
        mu = AtomicMeasure(
            1,
            [
                ((Fraction(32 + j, 64),), Fraction(w, 4))
                for j, w in zip(sorted(nodes), weights)
            ],
        )
        q = len(nodes) + extra
        scaled = _scaled_hankel_data(moments_of_atomic(mu, 2 * q, exact=exact))
        block = scaled[np.add.outer(np.arange(q), np.arange(q + 1))]
        rows = _partial_cholesky_rows(block, q)
        expected = _reference_rank_rows(scaled, q)
        assert len(rows) == len(expected)
        for got, want in zip(rows, expected):
            assert np.array_equal(got[: len(want)], want)

    def test_stops_at_the_first_failed_pivot(self):
        # A point mass at one: every entry is 1, so the second pivot is 0.
        h = np.ones((3, 4))
        rows = _partial_cholesky_rows(h, 3)
        assert len(rows) == 1
        np.testing.assert_array_equal(rows[0], [1.0, 1.0, 1.0, 1.0])

    def test_no_positive_pivot_gives_no_rows(self):
        assert _partial_cholesky_rows(np.zeros((2, 3)), 2) == []

    def test_solve_survives_an_overstated_rank(self, monkeypatch):
        # With the rank overstated by two, the factorization stops at the
        # failed pivot and the rule has the true three atoms.
        real_rank = univariate.numerical_rank
        monkeypatch.setattr(
            univariate, "numerical_rank", lambda m, tol: real_rank(m, tol) + 2
        )
        mu = AtomicMeasure(1, [((0.5,), 1.0), ((1.0,), 0.5), ((2.0,), 0.25)])
        for exact in (False, True):
            res = solve_1d(moments_of_atomic(mu, 10, exact=exact))
            assert res.rank == 3
            pos, wt = measure_errors(mu, res.measure)
            assert pos <= 1e-10
            assert wt <= 1e-10
