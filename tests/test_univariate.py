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
    EigenFailure,
    MomentSequence,
    RankCollapse,
    ValidationFailure,
    moments_factorial,
    moments_of_atomic,
    solve,
)
from momentkit import univariate
from momentkit.matrices import require_reproduced
from momentkit.univariate import (
    JacobiMatrix,
    _growth_scale,
    _partial_cholesky_rows,
    gauss_rule,
    solve_1d,
)
from conftest import measure_errors, random_measure

SQRT2 = math.sqrt(2.0)


class TestJacobiMatrix:
    def test_dense_layout(self):
        j = JacobiMatrix([1.0, 3.0], [2.0])
        np.testing.assert_array_equal(j.to_dense(), [[1.0, 2.0], [2.0, 3.0]])

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            JacobiMatrix([1.0, 2.0], [1.0, 1.0])

    @settings(max_examples=100, deadline=None)
    @given(
        diag=st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=22),
        data=st.data(),
    )
    def test_dense_equals_the_entry_loop(self, diag, data):
        offdiag = data.draw(
            st.lists(
                st.floats(allow_nan=True, allow_infinity=True),
                min_size=max(len(diag) - 1, 0),
                max_size=max(len(diag) - 1, 0),
            )
        )
        n = len(diag)
        reference = np.zeros((n, n), dtype=float)
        for i, a in enumerate(diag):
            reference[i, i] = a
        for i, b in enumerate(offdiag):
            reference[i, i + 1] = b
            reference[i + 1, i] = b
        dense = JacobiMatrix(diag, offdiag).to_dense()
        assert dense.shape == (n, n) and dense.tobytes() == reference.tobytes()


def _refused_at(s: MomentSequence, index: tuple[int, ...]) -> None:
    """``solve_1d`` refuses ``s`` with a :class:`ValidationFailure` whose
    worst residual is the one of the entry at ``index``."""
    with pytest.raises(ValidationFailure, match="misses the input moments") as raised:
        solve_1d(s)
    assert raised.value.index == index
    assert raised.value.tolerance == 1e-8


class TestSolveFactorial:
    """s_k = k! is the moment sequence of the unit-rate exponential law;
    its degree-4 truncation admits the two-point Gauss rule with nodes
    2 -+ sqrt(2) and weights (2 +- sqrt(2)) / 4 (the sign pairing is
    reversed), derived by solving the 2x2 recurrence by hand.  The rule
    reproduces s_0 .. s_3 and misses s_4 = 24 (it gives 20), so
    ``solve_1d`` refuses the data there."""

    def test_nodes_and_weights(self):
        rule = gauss_rule(moments_factorial(4))
        atoms = rule.measure.sorted_atoms()
        assert len(atoms) == 2
        assert atoms[0][0][0] == pytest.approx(2.0 - SQRT2, abs=1e-12)
        assert atoms[1][0][0] == pytest.approx(2.0 + SQRT2, abs=1e-12)
        assert atoms[0][1] == pytest.approx((2.0 + SQRT2) / 4.0, abs=1e-12)
        assert atoms[1][1] == pytest.approx((2.0 - SQRT2) / 4.0, abs=1e-12)
        _refused_at(moments_factorial(4), (4,))

    def test_recurrence_coefficients(self):
        # The orthogonal polynomials for this data satisfy the recurrence
        # with centers 2k + 1 and couplings k: truncated at two terms the
        # tridiagonal matrix is [[1, 1], [1, 3]].
        rule = gauss_rule(moments_factorial(4))
        assert rule.jacobi.diag == pytest.approx([1.0, 3.0], abs=1e-12)
        assert rule.jacobi.offdiag == pytest.approx([1.0], abs=1e-12)
        _refused_at(moments_factorial(4), (4,))

    def test_reproduction_and_support(self):
        s = moments_factorial(4)
        rule = gauss_rule(s)
        assert rule.rank == 2
        assert rule.stieltjes_supported
        residuals = require_reproduced(rule.measure, s.restrict(3), 1e-12, "rule")
        assert len(residuals) == 4
        with pytest.raises(ValidationFailure) as raised:
            require_reproduced(rule.measure, s, 1e-8, "rule")
        assert raised.value.worst == pytest.approx(4.0 / 24.0, rel=1e-12)
        _refused_at(s, (4,))


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
        # Gauss rule is the three-point Gaussian rule for that weight:
        # nodes 1/2 -+ sqrt(3/5)/2 and 1/2, weights 5/18, 4/9, 5/18.  It
        # reproduces s_0 .. s_5 and misses s_6, so solve_1d refuses it.
        s = MomentSequence(1, 6, {(k,): 1.0 / (k + 1) for k in range(7)})
        _refused_at(s, (6,))
        rule = gauss_rule(s)
        atoms = rule.measure.sorted_atoms()
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

    @pytest.mark.parametrize(
        "mass, mean", [(2.0, 3.0), (Fraction(2), Fraction(3))], ids=["float", "exact"]
    )
    def test_degree_one_data_gives_one_atom_at_level_zero(self, mass, mean):
        # Level 0: the moment matrix is 1 x 1, and the one-atom rule reads
        # s_0 and s_1.
        res = solve_1d(MomentSequence(1, 1, {(0,): mass, (1,): mean}))
        assert res.measure.atoms == [((1.5,), 2.0)]
        assert res.rank == 1
        assert res.stieltjes_supported
        assert res.residuals == [0.0, 0.0]

    def test_degree_one_data_with_a_negative_mean_is_not_supported(self):
        res = solve_1d(MomentSequence(1, 1, {(0,): 1.0, (1,): -0.5}))
        assert res.measure.atoms == [((-0.5,), 1.0)]
        assert not res.stieltjes_supported

    def test_zero_mass_with_content_rejected(self):
        s = MomentSequence(1, 2, {(0,): 0.0, (1,): 1.0, (2,): 1.0})
        with pytest.raises(RankCollapse) as raised:
            solve_1d(s)
        assert raised.value.mass == 0.0
        assert raised.value.rank is None and raised.value.eigenvalue is None

    def test_negative_mass_is_a_rank_collapse_with_the_mass(self):
        s = MomentSequence(1, 2, {(0,): -2.0, (1,): 1.0, (2,): 1.0})
        with pytest.raises(RankCollapse, match="mass s_0 = -2.0") as raised:
            gauss_rule(s)
        assert raised.value.mass == -2.0

    def test_indefinite_data_rejected(self):
        # No positivity check: the rule is refused by the gate, at s_2.
        s = MomentSequence(1, 2, {(0,): 1.0, (1,): 0.0, (2,): -1.0})
        with pytest.raises(ValidationFailure) as raised:
            solve_1d(s)
        assert raised.value.worst == 1.0
        assert raised.value.index == (2,)

    def test_nodes_that_coincide_as_atoms_are_a_rank_collapse(self):
        # Non-PSD data whose rank-2 rule has a node clamped to 0.0 and one at
        # 1.7e-99: no measure holds both as atoms.
        values = [1e200, -2.2550504929190947, 299.0, -0.0, 1e-10, -18.0, 2.0632481054106616e275]
        s = MomentSequence(1, 6, {(k,): v for k, v in enumerate(values)})
        with pytest.warns(ClampedNodeWarning):
            with pytest.raises(RankCollapse, match="rank-2 rule: atoms") as raised:
                solve_1d(s)
        assert raised.value.rank == 2

    def test_growth_scale_power_beyond_double_range_is_an_eigen_failure(self):
        # c = s_1 / s_0 = 1e200, so c^2 overflows: s_1 outgrows s_2 as no
        # measure's moments do.
        s = MomentSequence(1, 2, {(0,): 1.0, (1,): 1e200, (2,): 1.0})
        with pytest.raises(EigenFailure, match="growth scale 1e\\+200"):
            solve_1d(s)

    def test_growth_scale_beyond_double_range_is_an_eigen_failure(self):
        # |s_4 / s_0| = 2e440 leaves double range, so the scale is inf, and
        # it is refused before any arithmetic with it.
        values = [4.8e-241, 2.7e-141, -0.36, -819.0, 1e200, 837.0, 0.0]
        s = MomentSequence(1, 6, {(k,): v for k, v in enumerate(values)})
        for route in (gauss_rule, solve_1d, solve):
            with pytest.raises(
                EigenFailure, match="^growth scale inf is beyond double range$"
            ) as raised:
                route(s)
            assert (raised.value.scale, raised.value.level) == (math.inf, None)

    def test_jacobi_entries_beyond_double_range_raise_no_numpy_warning(self):
        # The scale is finite, but times a recurrence coefficient it leaves
        # double range: the Jacobi entry is an np.float64 inf, and the rule
        # is refused by the gate, with no RuntimeWarning on the way.
        values = [1.765766286701659, 1e-200, 9.419652887847219e-141, -5.280040531254374e195, 1.0]
        s = MomentSequence(1, 4, {(k,): v for k, v in enumerate(values)})
        rule = gauss_rule(s)
        assert math.inf in map(abs, rule.jacobi.diag + rule.jacobi.offdiag)
        assert {type(x) for x in rule.jacobi.diag + rule.jacobi.offdiag} == {np.float64}
        with pytest.raises(ValidationFailure) as raised:
            solve(s)
        assert (raised.value.worst, raised.value.index) == (1.0, (3,))

    def test_growth_scale_power_refusal_carries_the_scale(self):
        s = MomentSequence(1, 2, {(0,): 1.0, (1,): 1e200, (2,): 1.0})
        with pytest.raises(EigenFailure) as raised:
            gauss_rule(s)
        assert (raised.value.scale, raised.value.level) == (1e200, None)
        assert str(raised.value) == "growth scale 1e+200 has a power beyond double range"

    def test_slightly_negative_node_clamped(self):
        mu = AtomicMeasure(1, [((-1.0e-8,), 1.0), ((2.0,), 1.0)])
        s = moments_of_atomic(mu, 6)
        with pytest.warns(ClampedNodeWarning):
            res = solve_1d(s)
        assert res.stieltjes_supported
        assert min(x for (x,), _ in res.measure.atoms) == 0.0

    def test_clamped_nodes_on_one_point_become_one_atom(self):
        # Both nodes lie within NODE_TOL below zero, so the clamp moves both
        # onto 0.0; they merge into one atom carrying both weights.
        mu = AtomicMeasure(1, [((-1e-7,), 1.0), ((-5e-7,), 1.0)])
        s = moments_of_atomic(mu, 4)
        with pytest.warns(ClampedNodeWarning, match="clamped 2"):
            with pytest.raises(
                ValidationFailure, match="worst relative residual 6e-07 exceeds 1e-08"
            ):
                solve_1d(s, rank_tol=1e-14)
        with pytest.warns(ClampedNodeWarning, match="clamped 2"):
            res = solve_1d(s, rank_tol=1e-14, tol=1e-6)
        ((point, weight),) = res.measure.atoms
        assert point == (0.0,)
        assert weight == pytest.approx(2.0, rel=1e-12)
        assert res.max_residual == pytest.approx(6e-7, rel=1e-9)

    def test_node_power_beyond_double_range_is_compared_exactly(self):
        # A tiny atom at 1e105 leaves the exact moments finite as doubles
        # through degree 4 only.  The recovered node's cube is beyond double
        # range, so the gate compares every entry, s_0 .. s_4, exactly, and
        # the 2-atom rule reproduces them.
        mu = AtomicMeasure(
            1,
            [
                ((0.5138143288314894,), 1.0),
                ((1.7787886843719507,), 1.0),
                ((1e105,), 1e-119),
            ],
        )
        s = moments_of_atomic(mu, 7, exact=True)
        assert s.finite_degree() == 4
        res = solve_1d(s.restrict(s.finite_degree()))
        assert res.rank == 2
        (near, w_near), (far, w_far) = res.measure.sorted_atoms()
        assert w_near == pytest.approx(2.0, rel=1e-12)
        assert far[0] == pytest.approx(1e105, rel=1e-12)
        assert w_far == pytest.approx(1e-119, rel=1e-12)
        # One residual per entry that the call validates.
        assert len(res.residuals) == 5
        assert res.max_residual <= 1e-15
        # s_3 moved by 1e-6 relative: the exact comparison refuses the rule.
        values = dict(s.values)
        values[(3,)] *= Fraction(1000001, 1000000)
        with pytest.raises(ValidationFailure, match="misses the input moments"):
            require_reproduced(
                res.measure, MomentSequence(1, 7, values), 1e-8, "recovered measure"
            )

    def test_rank_zero_with_positive_mass_is_a_rank_collapse(self):
        # No singular value exceeds rank_tol = 1 times the largest.
        s = moments_of_atomic(AtomicMeasure(1, [((1.0,), 1.0), ((2.0,), 1.0)]), 4)
        with pytest.raises(
            RankCollapse, match="numerical rank 0 despite positive mass"
        ) as raised:
            solve_1d(s, rank_tol=1.0)
        assert raised.value.rank == 0 and raised.value.mass is None

    def test_nan_residual_is_a_validation_failure(self):
        # The inf entry makes the growth scale inf, the node NaN and the
        # degree-1 residual NaN.
        s = MomentSequence(1, 3, {(0,): 1.0, (1,): 2.0, (2,): 4.0, (3,): math.inf})
        with pytest.raises(ValidationFailure, match="worst relative residual nan"):
            solve_1d(s)

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
