"""Flat-rank extraction of atoms from multidimensional moment data."""

from __future__ import annotations

import numpy as np
import pytest

from momentkit import (
    AtomicMeasure,
    MomentSequence,
    NotFlat,
    ValidationFailure,
    extract_atoms,
    extract_atoms_auto,
    flat_rank,
    moments_of_atomic,
    multiplication_operators,
    solve_1d,
)
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
