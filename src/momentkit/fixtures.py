"""Ground-truth moment data with known representing measures (or known
growth behavior), for tests, demos, and the CLI's ``generate`` command.

Three families:

* atomic — moments of an explicit finite atomic measure, optionally with
  exact rational arithmetic.  Both routes read one power table per
  coordinate: floats take Python's ``float ** int`` powers and multiply
  and add in the order of the plain per-monomial, per-atom loop, so every
  float keeps that loop's bits; exact data is ``matrices._exact_sums``,
  the reproduction gate's exact moment, one ``Fraction`` per entry;
* exponential-type — 1-D moments ``n!`` (density ``exp(-x)`` on
  ``[0, inf)``), computed by the exact integer recursion; the associated
  root series decay like powers of ``n``, so growth diagnostics should find
  them divergence-consistent;
* lognormal-type — 1-D moments ``exp(n^2 / 2)`` (standard lognormal
  density), a classical indeterminate case; the root series decay
  geometrically, so diagnostics should find them convergence-consistent.
  Values overflow IEEE doubles past ``n = 37`` and are stored as ``inf``
  with authoritative log values alongside.

The power-curve family bundles moments, constraints, and the closed-form
inverse for end-to-end reduction runs: constraints ``x2 - x1^k`` and ``x1``
cut out the region on and above a power curve in the right half plane, and
the evaluation map ``(x1, x2) -> (x2 - x1^k, x1)`` is inverted by the two
polynomials ``(y1, y2) -> (y2, y1 + y2^k)``, the ground truth that tests
compare the generation witnesses of ``check_generates`` against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import MembershipViolation
from .matrices import _exact_sums, _exponents, _powers
from .polynomials import (
    AtomicMeasure,
    MomentSequence,
    Polynomial,
    Scalar,
    _exp,
    _monomial_table,
)
from .reduction import SemiAlgebraicPresentation


def moments_of_atomic(
    measure: AtomicMeasure, max_degree: int, exact: bool = False
) -> MomentSequence:
    """Moments ``sum_i w_i * x_i^alpha`` of a finite atomic measure.

    With ``exact=True`` every coordinate and weight is converted to the
    exact rational it represents and all entries come out as ``Fraction``.

    Both routes read power tables, one per coordinate, instead of taking a
    power per monomial and atom.  Floats multiply each atom's weight by its
    powers ``x_j ** alpha_j`` from ``matrices._powers`` over ``j = 0 ..
    dim - 1`` in order and add the atoms in order from ``0.0``, the order of
    the per-monomial loop, so every entry has the bits that loop gave (a
    factor ``x ** 0 = 1.0`` is exact); a power beyond double range raises
    ``OverflowError``.  Exact data (``matrices._exact_sums``) holds each
    coordinate as integers over one common denominator and the weights over
    another, so each entry is one integer sum of products over its
    denominator.
    """
    # A Fraction is kept as it is: Fraction(x) would only copy it.
    convert = _as_fraction if exact else float
    points: list[tuple[Scalar, ...]] = []
    weights: list[Scalar] = []
    for point, weight in measure.atoms:
        points.append(tuple(convert(x) for x in point))
        weights.append(convert(weight))
    dim = measure.dim
    columns = [[point[j] for point in points] for j in range(dim)]
    exponents = _exponents(dim, max_degree)
    if exact:
        entries = _exact_sums(columns, weights, exponents, max_degree)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            rows = np.array(weights, dtype=float)
            for j, column in enumerate(columns):
                rows = rows * _powers(column, max_degree)[exponents[:, j]]
            totals = np.zeros(len(exponents))
            for atom in rows.T:  # atoms in order: no regrouped sum
                totals += atom
        entries = totals.tolist()
    values = dict(zip(_monomial_table(dim, max_degree), entries))
    return MomentSequence(dim, max_degree, values)


def _as_fraction(x: Scalar) -> Fraction:
    return x if type(x) is Fraction else Fraction(x)


def moments_factorial(max_degree: int) -> MomentSequence:
    """1-D moments ``s_n = n!`` as exact integers, with log values.

    These are the moments of the unit-mass density ``exp(-x)`` on
    ``[0, inf)``.
    """
    values: dict[tuple[int, ...], Scalar] = {}
    logs: dict[tuple[int, ...], float] = {}
    fact = 1
    for n in range(max_degree + 1):
        if n:
            fact *= n
        values[(n,)] = fact
        logs[(n,)] = math.lgamma(n + 1)
    return MomentSequence(1, max_degree, values, logs)


def moments_lognormal(max_degree: int) -> MomentSequence:
    """1-D moments ``s_n = exp(n^2 / 2)`` of the standard lognormal density.

    Entries beyond the IEEE double range are stored as ``inf``; the log
    values ``n^2 / 2`` (exact in doubles) are always present and are what
    the growth diagnostics consume.
    """
    logs = {(n,): n * n / 2.0 for n in range(max_degree + 1)}
    values = {alpha: _exp(lv) for alpha, lv in logs.items()}
    return MomentSequence(1, max_degree, values, logs)


@dataclass
class PowerCurveFixture:
    """A reduction test problem: moments of an atomic measure supported on
    the region above a power curve, its constraint presentation, and the
    closed-form inverse of the evaluation map (one polynomial per
    coordinate)."""

    moments: MomentSequence
    presentation: SemiAlgebraicPresentation
    inverse: list[Polynomial]
    measure: AtomicMeasure
    exponent: int


def power_curve_presentation(exponent: int) -> SemiAlgebraicPresentation:
    """Constraints ``x2 - x1^k >= 0`` and ``x1 >= 0`` in two variables."""
    if exponent < 1:
        raise ValueError(f"curve exponent must be >= 1, got {exponent}")
    f1 = Polynomial(2, {(0, 1): 1, (exponent, 0): -1})
    f2 = Polynomial.variable(2, 0)
    return SemiAlgebraicPresentation(2, [f1, f2])


def power_curve_inverse(exponent: int) -> list[Polynomial]:
    """Exact inverse of ``(x1, x2) -> (x2 - x1^k, x1)``: the polynomials
    ``x1 = y2`` and ``x2 = y1 + y2^k`` in the image variables."""
    return [
        Polynomial.variable(2, 1),
        Polynomial(2, {(1, 0): 1, (0, exponent): 1}),
    ]


def power_curve_fixture(
    exponent: int,
    measure: AtomicMeasure,
    max_degree: int,
    exact: bool = False,
) -> PowerCurveFixture:
    """Bundle moments, constraints, and inverse for atoms above the curve.

    Raises :class:`MembershipViolation` when some atom does not satisfy the
    constraints (boundary points, where a constraint is exactly zero, are
    fine).
    """
    pres = power_curve_presentation(exponent)
    offenders = [
        (point, tuple(float(v) for v in pres.values_at(point)))
        for point, _ in measure.atoms
        if not pres.contains(point)
    ]
    if offenders:
        raise MembershipViolation(
            f"atoms violate the curve constraints: {offenders}"
        )
    moments = moments_of_atomic(measure, max_degree, exact=exact)
    return PowerCurveFixture(
        moments, pres, power_curve_inverse(exponent), measure, exponent
    )
