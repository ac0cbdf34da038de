"""Flat-rank extraction of atoms from multidimensional moment data."""

from __future__ import annotations

import math
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from momentkit import (
    AtomicMeasure,
    CommutatorTooLarge,
    DegreeOverflow,
    EigenFailure,
    IllConditionedWeights,
    MomentError,
    MomentSequence,
    NotFlat,
    Polynomial,
    RankCollapse,
    ValidationFailure,
    flat_rank,
    localizing_matrix,
    matrices,
    moment_matrix,
    moments_lognormal,
    moments_of_atomic,
    multiplication_operators,
    multivariate,
    numerical_rank,
)
from momentkit.matrices import (
    monomial_values,
    moment_vector,
    reproduction_residuals,
    require_reproduced,
)
from momentkit.multivariate import FlatRankResult, extract_atoms, extract_atoms_auto
from momentkit.univariate import solve_1d
from conftest import measure_errors, random_measure


def _three_atoms() -> AtomicMeasure:
    return AtomicMeasure(
        2, [((1.0, 2.0), 0.5), ((3.0, 1.0), 0.3), ((5.0, 4.0), 0.2)]
    )


def _ten_atoms_in_three_dims() -> AtomicMeasure:
    """Ten scattered atoms in [0, 10]^3 whose float degree-6 data is flat at
    level 3, where the extracted rule meets tol through degree 5 but misses
    the x3^6 moment by 1.36e-8."""
    points = [
        (1.153625604360139, 9.872545220817955, 5.868663824877757),
        (1.8571818348804847, 4.8370444131687, 8.756284898803703),
        (6.993307708588739, 7.717615373158909, 9.043832193954238),
        (4.930888455828802, 5.0730422409975615, 9.35730174672812),
        (7.349082055880464, 3.5748025157609242, 3.6134516686840454),
        (2.306481296462921, 5.039310244703805, 9.241387590153705),
        (3.196343708828672, 2.5791507984496786, 1.997386890045445),
        (3.7961321642618575, 7.585642425420089, 9.073632957217942),
        (0.01200241078049058, 2.3986916299508376, 8.374585931057336),
        (0.4257314146189095, 4.021498858135253, 6.112562037140736),
    ]
    weights = [
        1.526404881296979, 0.22690827788656578, 1.1286493435503415,
        1.1369059999678344, 0.873216259896118, 0.7057986149262785,
        1.4004593477686258, 1.4273021071365732, 0.35252116127444744,
        1.504034260951505,
    ]
    return AtomicMeasure(3, list(zip(points, weights)))


class TestFlatRank:
    def test_flat_at_level_two(self):
        s = moments_of_atomic(_three_atoms(), 4)
        fr = flat_rank(s, 2)
        assert fr.rank == 3
        assert fr.previous_rank == 3
        assert fr.is_flat

    def test_not_flat_at_level_one(self):
        # Level 0 sees only the mass (rank 1); three generic atoms give the
        # level-1 matrix rank 3.
        s = moments_of_atomic(_three_atoms(), 2)
        fr = flat_rank(s, 1)
        assert fr.previous_rank == 1
        assert fr.rank == 3
        assert not fr.is_flat

    def test_level_zero_rejected(self):
        s = moments_of_atomic(_three_atoms(), 2)
        with pytest.raises(ValueError):
            flat_rank(s, 0)


class TestMultiplicationOperators:
    def test_shapes_and_commutation(self):
        s = moments_of_atomic(_three_atoms(), 4)
        ops, rank = multiplication_operators(s, 2)
        assert rank == 3
        assert len(ops) == 2
        for op in ops:
            assert op.shape == (3, 3)
            np.testing.assert_allclose(op, op.T, atol=1e-12)
        comm = ops[0] @ ops[1] - ops[1] @ ops[0]
        scale = np.linalg.norm(ops[0]) * np.linalg.norm(ops[1])
        assert np.linalg.norm(comm) <= 1e-10 * max(1.0, scale)

    def test_spectrum_carries_coordinates(self):
        # Each compressed operator is similar to multiplication by its
        # coordinate on the support, so its eigenvalues are exactly the
        # atom coordinates in that direction.
        s = moments_of_atomic(_three_atoms(), 4)
        ops, _ = multiplication_operators(s, 2)
        eig0 = sorted(np.linalg.eigvalsh(ops[0]))
        assert eig0 == pytest.approx([1.0, 3.0, 5.0], abs=1e-9)
        eig1 = sorted(np.linalg.eigvalsh(ops[1]))
        assert eig1 == pytest.approx([1.0, 2.0, 4.0], abs=1e-9)

    def test_not_flat_raises(self):
        s = moments_of_atomic(_three_atoms(), 2)
        with pytest.raises(NotFlat):
            multiplication_operators(s, 1)

    def test_zero_data_yields_no_operators(self):
        values = {a: 0.0 for a in _all_indices(2, 4)}
        s = MomentSequence(2, 4, values)
        ops, rank = multiplication_operators(s, 2)
        assert ops == []
        assert rank == 0

    def test_nonpositive_compression_eigenvalue_is_a_rank_collapse(self):
        # The level-1 Hankel [[1, 0], [0, -d]] has rank 2 and the level-2
        # one (eigenvalues -d, 0, 1 + d**2) rank 2 as well: flat, and PSD
        # within tol 1e-5, yet -d is among the top two eigenvalues.
        d = 2.0**-20
        values = {(0,): 1.0, (1,): 0.0, (2,): -d, (3,): 0.0, (4,): d * d}
        s = MomentSequence(1, 4, values)
        with pytest.raises(
            RankCollapse, match="rank-2 compression hit a nonpositive eigenvalue"
        ) as raised:
            multiplication_operators(s, 2, tol=1e-5)
        assert raised.value.rank == 2
        assert raised.value.eigenvalue == pytest.approx(-d, rel=1e-6)
        assert raised.value.mass is None

    def test_operators_of_perturbed_data_do_not_commute(self):
        # Three atoms with s[(2, 1)] moved by 1e-6: the rank stays 3 at
        # rank_tol 1e-6, but the compressed operators no longer commute.
        values = dict(moments_of_atomic(_three_atoms(), 4).values)
        values[(2, 1)] += 1e-6
        s = MomentSequence(2, 4, values)
        with pytest.raises(
            CommutatorTooLarge, match="coordinate operators 0 and 1 do not commute"
        ):
            multiplication_operators(s, 2, rank_tol=1e-6)


def _all_indices(dim: int, degree: int):
    from momentkit import monomials_up_to

    return monomials_up_to(dim, degree)


class TestExtractAtoms:
    def test_three_atoms_recovered(self):
        mu = _three_atoms()
        s = moments_of_atomic(mu, 4)
        nu = extract_atoms(s, 2)
        pos, wt = measure_errors(mu, nu)
        assert pos <= 1e-10
        assert wt <= 1e-10

    def test_auto_finds_first_flat_level(self):
        mu = _three_atoms()
        s = moments_of_atomic(mu, 4)
        nu, level = extract_atoms_auto(s)
        assert level == 2
        pos, wt = measure_errors(mu, nu)
        assert pos <= 1e-10

    def test_single_atom_level_one(self):
        mu = AtomicMeasure(3, [((1.5, 0.5, 4.0), 2.0)])
        s = moments_of_atomic(mu, 2)
        nu = extract_atoms(s, 1)
        pos, wt = measure_errors(mu, nu)
        assert pos <= 1e-12
        assert wt <= 1e-12

    def test_seed_invariance(self):
        # The random probe combination must not affect the result.
        mu = _three_atoms()
        s = moments_of_atomic(mu, 4)
        a = extract_atoms(s, 2, seed=0)
        b = extract_atoms(s, 2, seed=1)
        pos, wt = measure_errors(a, b)
        assert pos <= 1e-8
        assert wt <= 1e-8

    def test_auto_rejects_short_truncation(self):
        # Degree-2 data never shows a flat pair for three generic atoms.
        s = moments_of_atomic(_three_atoms(), 2)
        with pytest.raises(NotFlat):
            extract_atoms_auto(s)

    def test_rank_zero_with_an_entry_beyond_double_range(self):
        # The matrices see only zeros; the degree-3 entry reads as inf.
        s = MomentSequence(1, 3, {(0,): 0, (1,): 0, (2,): 0, (3,): 10**400})
        with pytest.raises(NotFlat, match="rank 0 but moments reach inf"):
            extract_atoms_auto(s)

    @pytest.mark.parametrize("entry", [math.nan, 5.0])
    def test_rank_zero_with_a_nonzero_or_nan_entry_is_refused(self, entry):
        # Level 1 sees only zeros; a NaN entry at (0, 4) is a miss like 5.0,
        # and at level 2 the matrix holding the NaN cannot be ranked.
        values = {alpha: 0.0 for alpha in _all_indices(2, 4)}
        values[(0, 4)] = entry
        s = MomentSequence(2, 4, values)
        with pytest.raises(
            ValidationFailure, match=f"rank 0 but moments reach {entry:g}"
        ):
            extract_atoms(s, 1)
        with pytest.raises(MomentError):
            extract_atoms_auto(s)

    def test_overflowed_operators_give_a_point_that_is_not_finite(self):
        # Data that no measure represents, flat at level 2 with rank 2: no
        # positivity check stops it, the compressed operators overflow to
        # inf and NaN, and so does an extracted point.
        values = [
            0.0, 1.0, -1e200, 0.0, -539.0, -2.225073858507203e-309,
            3.2282084482936525e280, 1.1, 136.0, 9.72601759459138,
            108.0, 1e-200, 1e-12, 1e-200, -1000.0,
        ]
        s = MomentSequence(2, 4, dict(zip(_all_indices(2, 4), values)))
        with pytest.raises(ValidationFailure, match="beyond double range by degree 4") as raised:
            extract_atoms(s, 2)
        assert not math.isfinite(raised.value.worst)
        assert raised.value.tolerance == 1e-8
        with pytest.raises(NotFlat, match="level 2: an extracted point has a power"):
            extract_atoms_auto(s)

    def test_eigh_that_does_not_converge_is_an_eigen_failure(self):
        # An entry of 1.7e308 beside ones near 1e205: LAPACK's eigh of the
        # level-2 matrix does not converge.
        values = {a: 0.0 for a in _all_indices(2, 6)}
        values.update({(0, 1): math.exp(473.375), (1, 1): 1.7e308, (0, 3): math.exp(262.0)})
        s = MomentSequence(2, 6, values)
        with pytest.raises(EigenFailure, match="eigenvalue computation failed"):
            extract_atoms_auto(s)

    def test_point_with_powers_beyond_double_range_fails_validation(self):
        # Lognormal data: the points extracted at the deep levels have powers
        # past double range within the degrees the weight fit and the moment
        # check read, so the validation refuses them.
        s = moments_lognormal(37)
        with pytest.raises(ValidationFailure, match="beyond double range by degree 30") as raised:
            extract_atoms(s, 15)
        assert raised.value.worst == math.inf and raised.value.tolerance == 1e-8
        with pytest.raises(NotFlat, match="level 18: an extracted point has a power"):
            extract_atoms_auto(s)

    def test_auto_returns_the_empty_measure_for_zero_data(self):
        s = MomentSequence(2, 4, {a: 0.0 for a in _all_indices(2, 4)})
        nu, level = extract_atoms_auto(s)
        assert nu.atoms == []
        assert nu.dim == 2
        assert level == 1

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("degree", [0, 1])
    def test_auto_refuses_data_below_degree_two(self, dim, degree):
        # No level to scan: an input too short, not a scan that found
        # nothing flat.
        s = moments_of_atomic(AtomicMeasure(dim, [((1.0,) * dim, 1.0)]), degree)
        with pytest.raises(DegreeOverflow, match=f"has degree {degree}"):
            extract_atoms_auto(s)

    def test_dim_one_agrees_with_recurrence_solver(self):
        mu = AtomicMeasure(1, [((2.0,), 1.25), ((5.0,), 0.75)])
        s = moments_of_atomic(mu, 4)
        from_md = extract_atoms(s, 2)
        from_1d = solve_1d(s).measure
        pos, wt = measure_errors(from_md, from_1d)
        assert pos <= 1e-9
        assert wt <= 1e-9

    def test_flat_level_validated_through_degree_two_level(self):
        # A flat pair at level L certifies the moments through degree 2L, so
        # a rule that misses the degree-6 moment at level 3 is refused, not
        # returned.
        s = moments_of_atomic(_ten_atoms_in_three_dims(), 6)
        with pytest.raises(ValidationFailure):
            extract_atoms(s, 3)
        with pytest.raises(NotFlat, match="level 3"):
            extract_atoms_auto(s)

    def test_random_measures(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            dim = int(rng.integers(2, 4))
            n = int(rng.integers(1, 5))
            mu = random_measure(rng, dim, n)
            s = moments_of_atomic(mu, 2 * (n + 1))
            nu, _ = extract_atoms_auto(s)
            pos, wt = measure_errors(mu, nu)
            assert pos <= 1e-7
            assert wt <= 1e-7


# ---------------------------------------------------------------------------
# The level scan before it reused matrices, kept as the reference: each level
# assembles and ranks both moment matrices of its pair, and the shifted
# matrices are the localizing matrices of the coordinates.


def _reference_flat_rank(s: MomentSequence, level: int) -> FlatRankResult:
    matrix = moment_matrix(s, level)
    previous = moment_matrix(s, level - 1)
    return FlatRankResult(
        level, numerical_rank(matrix), numerical_rank(previous), matrix, previous
    )


def _reference_operators(s: MomentSequence, level: int, tol: float = 1e-8):
    fr = _reference_flat_rank(s, level)
    if not fr.is_flat:
        raise NotFlat(
            f"rank grows from {fr.previous_rank} to {fr.rank} between levels "
            f"{level - 1} and {level}"
        )
    r = fr.rank
    if r == 0:
        return [], 0
    eigenvalues, eigenvectors = np.linalg.eigh(fr.previous_matrix.entries)
    lam = eigenvalues[-r:]
    if float(lam[0]) <= 0.0:
        raise RankCollapse(
            f"rank-{r} compression hit a nonpositive eigenvalue {lam[0]:g}"
        )
    w = eigenvectors[:, -r:] / np.sqrt(lam)
    operators = []
    for axis in range(s.dim):
        x = Polynomial.variable(s.dim, axis)
        op = w.T @ localizing_matrix(s, x, level - 1).entries @ w
        operators.append((op + op.T) / 2.0)
    for i in range(len(operators)):
        norm_i = float(np.max(np.sum(np.abs(operators[i]), axis=1)))
        for j in range(i + 1, len(operators)):
            norm_j = float(np.max(np.sum(np.abs(operators[j]), axis=1)))
            comm = operators[i] @ operators[j] - operators[j] @ operators[i]
            comm_norm = float(np.max(np.sum(np.abs(comm), axis=1)))
            bound = tol * max(1.0, norm_i * norm_j)
            if comm_norm > bound:
                raise CommutatorTooLarge(
                    f"coordinate operators {i} and {j} do not commute: "
                    f"commutator norm {comm_norm:g} exceeds {bound:g}"
                )
    return operators, r


def _reference_extract(s: MomentSequence, level: int, tol: float = 1e-8):
    operators, r = _reference_operators(s, level, tol)
    if r == 0:
        worst = max(abs(float(v)) for v in s.values.values())
        if worst > tol:
            raise ValidationFailure(
                f"rank 0 but moments reach {worst:g}; data is inconsistent"
            )
        return AtomicMeasure(s.dim, [])
    coeffs = np.random.default_rng(0).standard_normal(s.dim)
    coeffs /= math.sqrt(float(coeffs @ coeffs))
    probe = sum(c * op for c, op in zip(coeffs, operators))
    probe = (probe + probe.T) / 2.0
    _, vectors = np.linalg.eigh(probe)
    points = [
        tuple(float(vectors[:, k] @ op @ vectors[:, k]) for op in operators)
        for k in range(r)
    ]
    a = monomial_values(s.dim, points, level)
    weights, _, lstsq_rank, _ = np.linalg.lstsq(a, moment_vector(s, level), rcond=None)
    if lstsq_rank < r:
        raise IllConditionedWeights(
            f"weight system has rank {lstsq_rank} < {r}; atoms are not "
            f"separated enough to assign weights"
        )
    if any(w <= 0.0 for w in weights):
        raise IllConditionedWeights(
            f"weight fit produced nonpositive weights: {list(weights)}"
        )
    measure = AtomicMeasure(s.dim, list(zip(points, (float(w) for w in weights))))
    degree = min(2 * level, s.max_degree)
    # Below a mass of 1 the gate decides over max(|s_0|, |t|) where |t| < 1,
    # and there the residual |m - t| / max(1, |t|) is |m - t| itself.
    floor = min(1.0, abs(float(s.values[(0,) * s.dim]))) or 1.0
    targets = moment_vector(s, degree)
    worst = max([0.0, *(
        r if abs(t) >= 1.0 else r / max(floor, abs(t))
        for r, t in zip(reproduction_residuals(measure, s, degree), targets)
    )])
    if worst > tol:
        raise ValidationFailure(
            f"extracted measure misses the input moments: worst relative "
            f"residual {worst:g} exceeds {tol:g}"
        )
    return measure


def _reference_auto(s: MomentSequence):
    failures = []
    for level in range(1, s.max_degree // 2 + 1):
        try:
            return _reference_extract(s, level), level
        except NotFlat:
            continue
        except (
            CommutatorTooLarge,
            IllConditionedWeights,
            ValidationFailure,
        ) as exc:
            failures.append(f"level {level}: {exc}")
    detail = f" ({'; '.join(failures)})" if failures else ""
    raise NotFlat(
        f"no truncation level up to {s.max_degree // 2} admits a validated "
        f"atomic extraction{detail}"
    )


def _plain(result):
    """A result with each measure replaced by its atoms."""
    if isinstance(result, AtomicMeasure):
        return result.atoms
    if isinstance(result, tuple):
        return tuple(_plain(x) for x in result)
    return result


def _outcome(fn, *args):
    """``repr`` of a call's result, measures by their atoms, or its error's
    type and message."""
    try:
        return repr(_plain(fn(*args)))
    except Exception as exc:  # compared between the two scans
        return f"{type(exc).__name__}: {exc}"


@st.composite
def _atomic_data(draw, min_dim=1, max_count=12):
    """Moments of 1..``max_count`` dyadic atoms in [0, 10]^d,
    d = ``min_dim``..4, as floats or Fractions, through 0..2 degrees beyond
    the first possible flat level."""
    dim = draw(st.integers(min_dim, 4))
    count = draw(st.integers(1, max_count))
    grid = st.integers(0, 80)
    points = draw(
        st.lists(
            st.tuples(*[grid] * dim), min_size=count, max_size=count, unique=True
        )
    )
    weights = draw(st.lists(st.integers(1, 16), min_size=count, max_size=count))
    mu = AtomicMeasure(
        dim,
        [
            (tuple(Fraction(x, 8) for x in pt), Fraction(w, 8))
            for pt, w in zip(points, weights)
        ],
    )
    level = 1
    while math.comb(dim + level - 1, dim) < count:
        level += 1
    degree = 2 * level + draw(st.integers(0, 2))
    return moments_of_atomic(mu, degree, exact=draw(st.booleans()))


class TestScanMatchesTheTwoBuildReference:
    @settings(max_examples=80, deadline=None)
    @given(s=_atomic_data())
    def test_answers_levels_and_operators_are_identical(self, s):
        seen = []

        def spy(s_, fr, tol):
            result = real(s_, fr, tol)
            seen.append((fr.level, result))
            return result

        real = multivariate._operators
        with mock.patch.object(multivariate, "_operators", spy):
            got = _outcome(extract_atoms_auto, s)
        assert got == _outcome(_reference_auto, s)
        # Every level the scan compressed, compressed the same matrices.
        for level, (ops, r) in seen:
            ref_ops, ref_r = _reference_operators(s, level)
            assert r == ref_r
            assert [op.tobytes() for op in ops] == [op.tobytes() for op in ref_ops]
        # And each level on its own, the public entry points included.
        for level in range(1, s.max_degree // 2 + 1):
            fr, ref = flat_rank(s, level), _reference_flat_rank(s, level)
            assert (fr.rank, fr.previous_rank) == (ref.rank, ref.previous_rank)
            assert fr.matrix.entries.tobytes() == ref.matrix.entries.tobytes()
            assert fr.previous_matrix.basis == ref.previous_matrix.basis
            assert (
                fr.previous_matrix.entries.tobytes()
                == ref.previous_matrix.entries.tobytes()
            )
            assert _outcome(
                lambda: [op.tobytes() for op in multiplication_operators(s, level)[0]]
            ) == _outcome(lambda: [op.tobytes() for op in _reference_operators(s, level)[0]])
            assert _outcome(extract_atoms, s, level) == _outcome(
                _reference_extract, s, level
            )

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_shift_blocks_equal_localizing_matrices(self, dim):
        # Atoms on x1 = 0 give zero moments wherever x1 appears; stored as
        # -0.0, the localizing matrix's sum from zero reads them as 0.0, and
        # so must the block of the moment matrix.
        rng = np.random.default_rng(dim)
        mu = AtomicMeasure(
            dim,
            [((0.0, *rng.uniform(1.0, 3.0, dim - 1)), w) for w in (0.5, 0.25)],
        )
        s = moments_of_atomic(mu, 6)
        s = MomentSequence(
            dim, 6, {a: (-0.0 if a[0] else v) for a, v in s.values.items()}
        )
        for level in range(1, 4):
            fr = flat_rank(s, level)
            for axis in range(dim):
                x = Polynomial.variable(dim, axis)
                assert (
                    multivariate._shift_matrix(dim, fr, axis).tobytes()
                    == localizing_matrix(s, x, level - 1).entries.tobytes()
                )
        assert np.signbit(flat_rank(s, 1).matrix.entries[0, 1])

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_stacked_shift_blocks_equal_the_single_ones(self, dim):
        rng = np.random.default_rng(10 + dim)
        mu = AtomicMeasure(
            dim, [(tuple(rng.uniform(-2.0, 2.0, dim)), w) for w in (0.5, 0.25, 1.0)]
        )
        s = moments_of_atomic(mu, 6)
        for level in range(1, 4):
            fr = flat_rank(s, level)
            stacked = multivariate._shift_matrix(dim, fr, np.arange(dim))
            assert stacked.shape == (dim, fr.previous_matrix.size, fr.previous_matrix.size)
            for axis in range(dim):
                single = multivariate._shift_matrix(dim, fr, axis)
                assert stacked[axis].tobytes() == single.tobytes()

    @pytest.mark.parametrize(
        "huge_degree, raising_level", [(3, 2), (4, 2), (5, 3), (6, 3), (7, None), (8, None)]
    )
    def test_entry_beyond_double_range_raises_at_the_level_that_reads_it(
        self, huge_degree, raising_level
    ):
        # Six generic atoms in the plane: ranks 3, 6, 6 at levels 1, 2, 3,
        # so the scan passes levels 1 and 2 and extracts at level 3, which
        # reads the data through degree 6 only.
        mu = AtomicMeasure(
            2,
            [
                ((Fraction(1), Fraction(2)), Fraction(1, 2)),
                ((Fraction(3), Fraction(1)), Fraction(1, 4)),
                ((Fraction(5), Fraction(4)), Fraction(1, 8)),
                ((Fraction(2), Fraction(5)), Fraction(3, 8)),
                ((Fraction(4), Fraction(3)), Fraction(5, 8)),
                ((Fraction(0), Fraction(1)), Fraction(3, 4)),
            ],
        )
        values = dict(moments_of_atomic(mu, 8, exact=True).values)
        values[(huge_degree, 0)] = Fraction(10**400, 3)
        s = MomentSequence(2, 8, values)

        def last_degree_read(fn):
            with mock.patch.object(
                matrices, "moment_vector", wraps=matrices.moment_vector
            ) as reads:
                outcome = _outcome(fn, s)
            return outcome, reads.call_args.args[1]

        got, got_degree = last_degree_read(extract_atoms_auto)
        want, want_degree = last_degree_read(_reference_auto)
        if raising_level is None:
            assert got == want
            assert got.endswith(", 3)")
        else:
            # The scan refuses, typed, where the reference raises a bare
            # OverflowError.
            assert want.startswith("OverflowError")
            assert got == (
                f"EigenFailure: exact entry beyond double range at level {raising_level}"
            )
            assert got_degree == want_degree == 2 * raising_level


def _fixed_direction(dim, seed):
    """Stands in for ``multivariate._probe_direction``: the probe direction
    is (1, ..., 1), normalized."""
    return np.ones(dim) / math.sqrt(dim)


class TestOneProbe:
    # Both atoms of each pair lie on one line x1 + x2 = c, so the probe
    # along (1, 1) has a double eigenvalue and its eigenvectors need not be
    # the atoms'.  The points they give either coincide, and the weight fit
    # has rank 1 (seen for the first pair), or are wrong and miss the
    # moments (seen for the second).
    @pytest.mark.parametrize(
        "points", [[(1.0, 0.0), (0.0, 1.0)], [(1.0, 3.0), (3.0, 1.0)]]
    )
    def test_a_direction_that_does_not_separate_is_refused(self, points):
        s = moments_of_atomic(AtomicMeasure(2, [(p, 0.5) for p in points]), 4)
        with mock.patch.object(multivariate, "_probe_direction", _fixed_direction):
            with pytest.raises(MomentError) as refused:
                extract_atoms(s, 2)
            assert isinstance(refused.value, (IllConditionedWeights, ValidationFailure))
            with pytest.raises(NotFlat, match=re.escape(f"level 2: {refused.value}")):
                extract_atoms_auto(s)
        # The seeded direction separates them.
        nu, level = extract_atoms_auto(s)
        assert level == 2
        pos, wt = measure_errors(AtomicMeasure(2, [(p, 0.5) for p in points]), nu)
        assert pos <= 1e-9
        assert wt <= 1e-9

    def test_a_miss_reads_as_the_shared_gate_reads_it(self):
        # Extraction validates from its own table of powers; a miss must
        # carry the message and worst residual that require_reproduced
        # gives for the same measure.
        points = [(1.0, 3.0), (3.0, 1.0)]
        s = moments_of_atomic(AtomicMeasure(2, [(p, 0.5) for p in points]), 4)
        built = []

        def recording(*args):
            built.append(AtomicMeasure(*args))
            return built[-1]

        with mock.patch.object(multivariate, "_probe_direction", _fixed_direction):
            with mock.patch.object(multivariate, "AtomicMeasure", recording):
                with pytest.raises(ValidationFailure) as extracted:
                    extract_atoms(s, 2)
        (measure,) = built
        with pytest.raises(ValidationFailure) as gated:
            require_reproduced(measure, s, 1e-8, "extracted measure")
        assert str(extracted.value) == str(gated.value)
        assert repr(extracted.value.worst) == repr(gated.value.worst)
        assert extracted.value.worst > 1e-8

    @pytest.mark.parametrize("dim, seed", [(1, 0), (2, 0), (3, 7), (4, 90210)])
    def test_direction_is_the_normalized_draw_shared_read_only(self, dim, seed):
        coeffs = np.random.default_rng(seed).standard_normal(dim)
        coeffs /= math.sqrt(float(coeffs @ coeffs))
        got = multivariate._probe_direction(dim, seed)
        assert got.tobytes() == coeffs.tobytes()
        assert multivariate._probe_direction(dim, seed) is got
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0] = 1.0

    @settings(max_examples=60, deadline=None)
    @given(s=_atomic_data(min_dim=2, max_count=8))
    def test_auto_reproduces_the_data_or_refuses(self, s):
        try:
            nu, level = extract_atoms_auto(s)
        except NotFlat:
            return
        degree = min(2 * level, s.max_degree)
        assert max([0.0, *reproduction_residuals(nu, s, degree)]) <= 1e-8
        assert all(w > 0.0 for _, w in nu.atoms)


# A flat level's points: the eigenvectors of the probe combination, and each
# operator's Rayleigh quotient at each.  The reference is the loop the two
# broadcast products replaced, one v @ op @ v per atom and axis.


def _reference_joint_points(operators: np.ndarray, coeffs: np.ndarray) -> list[tuple]:
    with np.errstate(over="ignore", invalid="ignore"):
        _, vectors = np.linalg.eigh(sum(c * op for c, op in zip(coeffs, operators)))
        return [
            tuple(float(vectors[:, k] @ op @ vectors[:, k]) for op in operators)
            for k in range(vectors.shape[1])
        ]


class TestJointPointsMatchThePerAtomLoop:
    @settings(max_examples=300, deadline=None)
    @given(
        dim=st.integers(1, 5),
        rank=st.integers(1, 25),
        seed=st.integers(0, 2**32 - 1),
        exponent=st.sampled_from([-300, -150, -8, 0, 3, 150, 307]),
        poison=st.sampled_from([None, math.inf, -math.inf, math.nan]),
    )
    def test_same_points_by_repr(self, dim, rank, seed, exponent, poison):
        # Entries up to 1e307, and poisoned ones (inf, -inf, NaN), as the
        # compression of data far from PSD leaves them.
        rng = np.random.default_rng(seed)
        with np.errstate(over="ignore"):
            a = rng.standard_normal((dim, rank, rank)) * 10.0**exponent
            operators = (a + a.transpose(0, 2, 1)) / 2.0
        if poison is not None:
            axis, i, j = (int(rng.integers(n)) for n in (dim, rank, rank))
            operators[axis, i, j] = operators[axis, j, i] = poison
        coeffs = rng.standard_normal(dim)
        coeffs /= math.sqrt(float(coeffs @ coeffs))
        try:
            expected = _reference_joint_points(operators, coeffs)
        except np.linalg.LinAlgError:  # LAPACK gives up on an inf entry
            with pytest.raises(np.linalg.LinAlgError):
                multivariate._joint_points(operators, coeffs)
            return
        points = multivariate._joint_points(operators, coeffs)
        assert repr(points) == repr(expected)
        assert [len(p) for p in points] == [dim] * rank

    @pytest.mark.parametrize("rank", [2, 3, 5, 25])
    def test_products_that_overflow(self, rank):
        # The probe sees only the first operator, whose eigenvector
        # (1, ..., 1) / sqrt(rank) sums the others' entries to beyond double
        # range: their quotients there are inf and -inf.
        operators = np.stack(
            [np.ones((rank, rank)), np.full((rank, rank), 1.7e308), np.full((rank, rank), -1e308)]
        )
        coeffs = np.array([1.0, 0.0, 0.0])
        points = multivariate._joint_points(operators, coeffs)
        assert repr(points) == repr(_reference_joint_points(operators, coeffs))
        assert points[-1][1:] == (math.inf, -math.inf)

    def test_operators_of_a_flat_level(self):
        s = moments_of_atomic(_three_atoms(), 4)
        operators, _ = multivariate._operators(s, flat_rank(s, 2), 1e-8)
        coeffs = multivariate._probe_direction(2, 0)
        points = multivariate._joint_points(operators, coeffs)
        assert repr(points) == repr(_reference_joint_points(operators, coeffs))


class TestRefusalsCarryTheirNumbers:
    """Each refusal of the level scan carries the numbers that decided it;
    its message is unchanged."""

    def test_commutator_pair_norm_and_bound(self):
        values = dict(moments_of_atomic(_three_atoms(), 4).values)
        values[(2, 1)] += 1e-6
        s = MomentSequence(2, 4, values)
        with pytest.raises(CommutatorTooLarge) as raised:
            multiplication_operators(s, 2, rank_tol=1e-6)
        failure = raised.value
        assert failure.pair == (0, 1)
        assert failure.norm > failure.bound >= 1e-8
        assert str(failure) == (
            f"coordinate operators 0 and 1 do not commute: commutator norm "
            f"{failure.norm:g} exceeds {failure.bound:g}"
        )

    def _coinciding(self):
        points = [(1.0, 0.0), (0.0, 1.0)]
        return moments_of_atomic(AtomicMeasure(2, [(p, 0.5) for p in points]), 4)

    def test_rank_deficient_weights_carry_the_rank(self):
        with mock.patch.object(multivariate, "_probe_direction", _fixed_direction):
            with pytest.raises(IllConditionedWeights) as raised:
                extract_atoms(self._coinciding(), 2)
        assert (raised.value.rank, raised.value.min_weight) == (1, None)

    def test_a_nonpositive_weight_carries_the_smallest(self):
        fit = np.linalg.lstsq

        def tilted(a, b, rcond=None):
            weights, *rest = fit(a, b, rcond=rcond)
            return (weights - [0.75, 0.0, 0.0], *rest)

        s = moments_of_atomic(_three_atoms(), 4)
        with mock.patch.object(multivariate.np.linalg, "lstsq", tilted):
            with pytest.raises(IllConditionedWeights) as raised:
                extract_atoms(s, 2)
        assert raised.value.rank is None
        assert raised.value.min_weight < 0.0
        assert str(raised.value).startswith("weight fit produced nonpositive weights")

    def test_not_flat_lists_each_levels_error(self):
        with mock.patch.object(multivariate, "_probe_direction", _fixed_direction):
            with pytest.raises(NotFlat) as raised:
                extract_atoms_auto(self._coinciding())
        ((level, error),) = raised.value.failures
        assert level == 2 and isinstance(error, IllConditionedWeights)
        assert error.rank == 1
        assert str(raised.value) == (
            f"no truncation level up to 2 admits a validated atomic extraction "
            f"(level 2: {error})"
        )

    def test_a_scan_with_no_failing_level_lists_none(self):
        # Rank 1 then 2 in one variable: no level is flat, so none fails a check.
        s = MomentSequence(1, 2, {(0,): 1.0, (1,): 0.0, (2,): 1.0})
        with pytest.raises(NotFlat) as raised:
            extract_atoms_auto(s)
        assert raised.value.failures == []

    @pytest.mark.parametrize("entry", [5.0, math.nan])
    def test_a_rank_zero_miss_carries_worst_and_tolerance(self, entry):
        values = {alpha: 0.0 for alpha in _all_indices(2, 4)}
        values[(0, 4)] = entry
        with pytest.raises(ValidationFailure) as raised:
            extract_atoms(MomentSequence(2, 4, values), 1, tol=1e-6)
        np.testing.assert_equal(raised.value.worst, entry)
        assert raised.value.tolerance == 1e-6
        assert raised.value.index is None

    def test_exact_entry_beyond_double_range_carries_the_level(self):
        values = {alpha: 1 for alpha in _all_indices(2, 4)}
        values[(0, 4)] = 10**400
        s = MomentSequence(2, 4, values)
        flat_rank(s, 1)  # the level-1 matrix stops at degree 2
        with pytest.raises(EigenFailure) as raised:
            flat_rank(s, 2)
        assert (raised.value.level, raised.value.scale) == (2, None)
        assert str(raised.value) == "exact entry beyond double range at level 2"

    def test_the_scan_refuses_an_exact_entry_beyond_double_range_at_its_level(self):
        # The level-2 matrix of delta(1, 1) + delta(1e100, 3) holds 1e400.
        mu = AtomicMeasure(2, [((1, 1), 1), ((10**100, 3), 1)])
        s = moments_of_atomic(mu, 4, exact=True)
        for route in (
            lambda: flat_rank(s, 2),
            lambda: extract_atoms(s, 2),
            lambda: extract_atoms_auto(s),
        ):
            with pytest.raises(EigenFailure) as raised:
                route()
            assert raised.value.level == 2

    def test_evidence_keywords_are_the_declared_ones(self):
        error = NotFlat("message", failures=[])
        assert (str(error), error.failures) == ("message", [])
        with pytest.raises(TypeError, match="NotFlat has no evidence 'worst'"):
            NotFlat("message", worst=1.0)
        # An attribute of every exception is not evidence.
        with pytest.raises(TypeError, match="MomentError has no evidence 'args'"):
            MomentError("message", args=())

    def test_gate_miss_carries_its_entry_and_tolerance(self):
        points = [(1.0, 3.0), (3.0, 1.0)]
        s = moments_of_atomic(AtomicMeasure(2, [(p, 0.5) for p in points]), 4)
        with mock.patch.object(multivariate, "_probe_direction", _fixed_direction):
            with pytest.raises(ValidationFailure) as raised:
                extract_atoms(s, 2)
        assert raised.value.index == (2, 2)
        assert raised.value.tolerance == 1e-8
        assert raised.value.worst > 1e-8
