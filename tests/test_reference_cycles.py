"""No refusal leaves a reference cycle.

An error kept in a local of the frame that raises it holds its traceback,
which holds that frame: a cycle that only the garbage collector frees.  So
every refusal is raised in one expression, and the level scan keeps the
errors it lists without their tracebacks.  With automatic collection off,
a manual ``gc.collect()`` after each refusal must find nothing to free."""

from __future__ import annotations

import gc
import math

import numpy as np
import pytest

from momentkit import (
    AtomicMeasure,
    CommutatorTooLarge,
    IllConditionedWeights,
    MomentSequence,
    EigenFailure,
    NotFlat,
    RankCollapse,
    ValidationFailure,
    moments_factorial,
    moments_lognormal,
    moments_of_atomic,
    multiplication_operators,
    multivariate,
)
from momentkit.multivariate import extract_atoms, extract_atoms_auto
from momentkit.polynomials import monomials_up_to
from momentkit.univariate import solve_1d


def _coinciding() -> MomentSequence:
    # Along the probe (1, 1) both atoms project to 1, so the weight fit is
    # rank deficient at level 2, the one level that is flat.
    points = [(1.0, 0.0), (0.0, 1.0)]
    return moments_of_atomic(AtomicMeasure(2, [(p, 0.5) for p in points]), 4)


def _not_commuting() -> MomentSequence:
    values = dict(
        moments_of_atomic(
            AtomicMeasure(2, [((1.0, 2.0), 0.5), ((3.0, 1.0), 0.3), ((5.0, 4.0), 0.2)]),
            4,
        ).values
    )
    values[(2, 1)] += 1e-6
    return MomentSequence(2, 4, values)


def _eigh_fails() -> MomentSequence:
    # LAPACK's eigh of the level-2 matrix does not converge.
    values = {a: 0.0 for a in monomials_up_to(2, 6)}
    values.update({(0, 1): math.exp(473.375), (1, 1): 1.7e308, (0, 3): math.exp(262.0)})
    return MomentSequence(2, 6, values)


REFUSALS = {
    "1-D gate miss": (lambda: solve_1d(moments_factorial(4)), ValidationFailure),
    # Raised outside the gate, by the rule's own mass check.
    "zero mass": (
        lambda: solve_1d(MomentSequence(1, 2, {(0,): 0.0, (1,): 1.0, (2,): 1.0})),
        RankCollapse,
    ),
    # Raised from the handler of an OverflowError, and of a LinAlgError.
    "growth overflow": (
        lambda: solve_1d(MomentSequence(1, 2, {(0,): 1.0, (1,): 1e200, (2,): 1.0})),
        EigenFailure,
    ),
    "eigh failure": (lambda: extract_atoms_auto(_eigh_fails()), EigenFailure),
    "level scan": (lambda: extract_atoms_auto(_coinciding()), NotFlat),
    # Its deep levels refuse points whose powers leave double range.
    "level scan, overflow": (lambda: extract_atoms_auto(moments_lognormal(37)), NotFlat),
    "commutator": (
        lambda: multiplication_operators(_not_commuting(), 2, rank_tol=1e-6),
        CommutatorTooLarge,
    ),
    "weights": (lambda: extract_atoms(_coinciding(), 2), IllConditionedWeights),
}


@pytest.fixture
def fixed_probe(monkeypatch):
    monkeypatch.setattr(
        multivariate, "_probe_direction", lambda dim, seed: np.ones(dim) / math.sqrt(dim)
    )


@pytest.mark.parametrize("name", list(REFUSALS))
def test_a_refusal_leaves_no_garbage_cycle(name, fixed_probe):
    call, error = REFUSALS[name]
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            try:
                call()
            except error as exc:
                if isinstance(exc, NotFlat):
                    assert exc.failures, "the scan should list the failed level"
            else:
                pytest.fail(f"{name} was not refused")
            assert gc.collect() == 0
    finally:
        gc.enable()
