"""Atomic measure recovery for one-dimensional moment data.

The route is classical quadrature recovery: Cholesky-factor the Hankel
moment matrix, read off the three-term recurrence coefficients of the
orthogonal polynomials, assemble the symmetric tridiagonal (Jacobi) matrix,
and diagonalize it.  Eigenvalues are the support points; the squared first
components of the normalized eigenvectors, times the mass, are the weights.
:func:`gauss_rule` returns that rule (``q`` atoms reproduce ``s_0 ..
s_{2q-1}``), and :func:`solve_1d` only a rule that reproduces every entry.

Two implementation details matter for robustness:

* the numerical rank ``r`` of the Hankel matrix decides how many recurrence
  rows exist, and the Cholesky factorization is run *partially* — only the
  first ``r`` rows are formed — so exactly-atomic data never touches the
  singular trailing block;
* the variable is rescaled by a power of the moment growth before factoring
  (and the result mapped back), which keeps the factorization
  well-conditioned when moments span many orders of magnitude.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ClampedNodeWarning,
    DegreeOverflow,
    DimMismatch,
    EigenFailure,
    RankCollapse,
)
from .matrices import (
    DEFAULT_PSD_TOL,
    DEFAULT_RANK_TOL,
    assemble,
    numerical_rank,
    require_reproduced,
)
from .polynomials import AtomicMeasure, MomentSequence

#: Nodes no lower than this are treated as supported on ``[0, inf)``;
#: negative nodes above it are clamped to zero (with a warning).
NODE_TOL = 1e-6


@dataclass
class JacobiMatrix:
    """Symmetric tridiagonal recurrence matrix: ``diag`` holds the recurrence
    centers, ``offdiag`` the (positive) coupling coefficients."""

    diag: list[float]
    offdiag: list[float]

    def __post_init__(self) -> None:
        if len(self.offdiag) != max(len(self.diag) - 1, 0):
            raise ValueError(
                f"offdiag length {len(self.offdiag)} does not fit diag length "
                f"{len(self.diag)}"
            )

    @property
    def size(self) -> int:
        return len(self.diag)

    def to_dense(self) -> np.ndarray:
        n = self.size
        m = np.zeros((n, n), dtype=float)
        flat = m.reshape(-1)  # a view: m is C-contiguous
        flat[:: n + 1] = self.diag
        flat[1 :: n + 1] = flat[n :: n + 1] = self.offdiag
        return m


@dataclass
class GaussRule:
    """The ``rank``-atom Gauss rule of 1-D moment data, from its Jacobi
    matrix: it reproduces ``s_0 .. s_{2 rank - 1}``, and no more is claimed."""

    measure: AtomicMeasure
    jacobi: JacobiMatrix
    rank: int
    stieltjes_supported: bool


@dataclass
class Solve1DResult(GaussRule):
    """A Gauss rule that reproduces every entry of the data, with each
    entry's residual (:func:`~momentkit.matrices.require_reproduced`)."""

    max_residual: float
    residuals: list[float]


def _growth_scale(values: list[float]) -> float:
    """A power-of-growth scale ``c`` making ``values[k] / c**k`` order one."""
    scale = 1.0
    for k in range(1, len(values)):
        ratio = abs(values[k] / values[0])
        if ratio > 0.0:
            scale = max(scale, ratio ** (1.0 / k))
    return scale


def _partial_cholesky_rows(h: np.ndarray, rows: int) -> list[np.ndarray]:
    """Leading rows, at most ``rows`` of them, of the upper Cholesky factor
    of ``h``.

    Only the leading pivots are formed, so a matrix of exact rank ``rows``
    factors cleanly.  Factoring stops before the first pivot that is not
    positive and finite.  Row ``i`` reads only ``h[i, :]`` and the rows
    before it, so the rows returned are exactly those of the factor of the
    leading block of that size.
    """
    n = h.shape[1]
    r = np.zeros((rows, n), dtype=float)
    for i in range(rows):
        # h[i, :] less row i's inner products with every column, summed over
        # the earlier rows in order from 0.0: a reduction over the outer axis
        # adds whole rows one after another, with no pairwise regrouping.
        rest = h[i] - np.add.reduce(r[:i, i, None] * r[:i], axis=0, initial=0.0)
        pivot = rest[i]
        if pivot <= 0.0 or not math.isfinite(pivot):
            return list(r[:i])
        r[i, i] = root = math.sqrt(pivot)
        r[i, i + 1 :] = rest[i + 1 :] / root
    return list(r)


def solve_1d(
    s: MomentSequence,
    rank_tol: float = DEFAULT_RANK_TOL,
    tol: float = DEFAULT_PSD_TOL,
) -> Solve1DResult:
    """:func:`gauss_rule` of the finite prefix ``s.restrict(s.finite_degree())``,
    returned only if :func:`~momentkit.matrices.require_reproduced` finds every
    entry of ``s`` (``inf`` markers and exact entries beyond double range
    included) reproduced within ``tol``, with one residual per entry; a miss
    raises :class:`ValidationFailure`."""
    rule = gauss_rule(s.restrict(s.finite_degree()), rank_tol)
    residuals = require_reproduced(rule.measure, s, tol, "recovered measure")
    return Solve1DResult(**vars(rule), max_residual=max(residuals), residuals=residuals)


def gauss_rule(s: MomentSequence, rank_tol: float = DEFAULT_RANK_TOL) -> GaussRule:
    """The Gauss rule of 1-D moment data, not compared with the data, nor
    checked for positivity: :func:`solve_1d` refuses a rule that misses.

    Parameters
    ----------
    s : MomentSequence
        One-dimensional data of truncation degree ``D``, read as doubles, so
        ``inf`` markers and exact entries beyond double range need
        :func:`solve_1d`.
    rank_tol : float
        Relative singular-value threshold for the rank decision.

    Returns
    -------
    GaussRule
        ``measure`` has ``rank`` atoms (the numerical rank of the moment
        matrix, capped at ``D // 2`` since a larger rule would need moments
        beyond the data); a ``q``-atom rule reproduces ``s_0 .. s_{2q-1}``
        up to rounding.  ``stieltjes_supported`` is true iff all nodes lie
        in ``[0, inf)`` up to :data:`NODE_TOL`; nodes negative by less than
        that are clamped to zero with a :class:`ClampedNodeWarning`, and
        nodes clamped onto the same point become one atom carrying their
        summed weight.

    Raises
    ------
    RankCollapse
        If the mass cannot carry the data, the rank decision is 0, or two
        nodes coincide as atoms; ``mass`` or ``rank`` is set.
    EigenFailure
        If the growth scale is not finite, or the scaled moments are not
        finite doubles; ``scale`` is set.
    """
    if s.dim != 1:
        raise DimMismatch(f"the Gauss rule needs 1-dimensional data, got dim {s.dim}")
    level = s.max_degree // 2
    values = s._float_table().tolist()
    mass = values[0]
    if mass <= 0.0:
        if all(v == 0.0 for v in values):
            return GaussRule(AtomicMeasure(1, []), JacobiMatrix([], []), 0, True)
        raise RankCollapse(f"mass s_0 = {mass} cannot carry nonzero moments", mass=mass)
    if s.max_degree < 1:
        raise DegreeOverflow("placing an atom needs at least the first-order moment")

    scale = _growth_scale(values)
    if not math.isfinite(scale):  # a ratio |s_k / s_0| beyond double range
        raise EigenFailure(f"growth scale {scale:g} is beyond double range", scale=scale)
    # r_k = s_k / (s_0 c^k), the moments of the normalized variable over c.
    # The rank-q factorization below reads r_0 .. r_{2q-1}, and q reaches 1
    # even at level 0.  c^k overflows only where an entry outgrows later ones.
    try:
        scaled = np.array([values[k] / (mass * scale**k) for k in range(max(2 * level + 1, 2))])
    except OverflowError:
        raise EigenFailure(
            f"growth scale {scale:g} has a power beyond double range", scale=scale
        ) from None
    rank = numerical_rank(assemble(scaled, 1, level), rank_tol)
    if rank == 0:
        raise RankCollapse("moment matrix has numerical rank 0 despite positive mass", rank=0)
    # A q-atom rule needs moments through order 2q-1, so q cannot exceed
    # level even when the matrix has full rank (density-like data).
    q = min(rank, level) if level > 0 else 1

    # Scaled moments near the ends of double range can overflow anywhere
    # from the factor to the Jacobi scaling; the inf or NaN that results is
    # refused downstream (by the caller's gate), so numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        block = scaled[np.add.outer(np.arange(q), np.arange(q + 1))]
        rows = _partial_cholesky_rows(block, q)
        # A pivot that fails at row k leaves the rank-k rule.
        q = len(rows)

        diag: list[float] = []
        offdiag: list[float] = []
        prev_ratio = 0.0
        for j in range(q):
            ratio = rows[j][j + 1] / rows[j][j]
            diag.append(ratio - prev_ratio)
            if j > 0:
                offdiag.append(rows[j][j] / rows[j - 1][j - 1])
            prev_ratio = ratio

        eigenvalues, eigenvectors = np.linalg.eigh(JacobiMatrix(diag, offdiag).to_dense())
        nodes = [scale * x for x in eigenvalues.tolist()]
        # q >= 1: the first pivot is r_0 = s_0 / s_0 = 1.
        weights = [mass * v**2 for v in eigenvectors[0].tolist()]

        supported = all(x >= -NODE_TOL for x in nodes)
        clamped = [x for x in nodes if -NODE_TOL <= x < 0.0]
        nodes = [0.0 if -NODE_TOL <= x < 0.0 else x for x in nodes]
        if clamped:
            warnings.warn(
                f"clamped {len(clamped)} slightly negative node(s) to zero: "
                f"{clamped}",
                ClampedNodeWarning,
            )

        # The clamp can move several nodes onto 0.0; they become one atom.
        merged: dict[float, float] = {}
        for x, w in zip(nodes, weights):
            merged[x] = merged.get(x, 0.0) + w
        try:
            measure = AtomicMeasure(1, [((x,), w) for x, w in merged.items() if w > 0.0])
        except ValueError as exc:  # two nodes within the atoms' tol_atom
            raise RankCollapse(f"rank-{q} rule: {exc}", rank=q) from None
        jacobi = JacobiMatrix([scale * a for a in diag], [scale * b for b in offdiag])
    return GaussRule(measure, jacobi, q, supported)
