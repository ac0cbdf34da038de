"""Atomic measure recovery for one-dimensional moment data.

The route is classical quadrature recovery: Cholesky-factor the Hankel
moment matrix, read off the three-term recurrence coefficients of the
orthogonal polynomials, assemble the symmetric tridiagonal (Jacobi) matrix,
and diagonalize it.  Eigenvalues are the support points; the squared first
components of the normalized eigenvectors, times the mass, are the weights.

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
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ClampedNodeWarning,
    DegreeOverflow,
    DimMismatch,
    RankCollapse,
    ValidationFailure,
)
from .matrices import (
    DEFAULT_PSD_TOL,
    DEFAULT_RANK_TOL,
    assemble,
    numerical_rank,
    reproduction_residuals,
    require_psd,
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
        for i, a in enumerate(self.diag):
            m[i, i] = a
        for i, b in enumerate(self.offdiag):
            m[i, i + 1] = b
            m[i + 1, i] = b
        return m


@dataclass
class Solve1DResult:
    """Outcome of 1-D atomic recovery."""

    measure: AtomicMeasure
    jacobi: JacobiMatrix
    rank: int
    stieltjes_supported: bool
    max_residual: float
    residuals: list[float] = field(default_factory=list)


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


def solve_1d(
    s: MomentSequence,
    rank_tol: float = DEFAULT_RANK_TOL,
    tol: float = DEFAULT_PSD_TOL,
) -> Solve1DResult:
    """Recover an atomic measure reproducing 1-D moment data.

    Parameters
    ----------
    s : MomentSequence
        One-dimensional data of truncation degree ``D``; the moment matrix
        at level ``D // 2`` must be positive semidefinite.
    rank_tol : float
        Relative singular-value threshold for the rank decision.
    tol : float
        Relative tolerance both for the positivity precondition and for the
        final moment-reproduction validation.

    Returns
    -------
    Solve1DResult
        ``measure`` has ``rank`` atoms (the numerical rank of the moment
        matrix, capped at ``D // 2`` since a larger rule would need moments
        beyond the data); it reproduces ``s_0 .. s_{2q-1}`` (``q`` atoms)
        within ``tol`` relative.  ``stieltjes_supported`` is true iff all
        nodes lie in ``[0, inf)`` up to :data:`NODE_TOL`; nodes negative by
        less than that are clamped to zero with a
        :class:`ClampedNodeWarning`.

    Raises
    ------
    NotPsd
        If the moment matrix fails the positivity precondition.
    RankCollapse
        If the rank decision is inconsistent with positive mass.
    ValidationFailure
        If the recovered measure does not reproduce the moments.
    """
    if s.dim != 1:
        raise DimMismatch(f"solve_1d needs 1-dimensional data, got dim {s.dim}")
    level = s.max_degree // 2
    values = []
    for k in range(s.max_degree + 1):
        try:
            values.append(float(s.value((k,))))
        except OverflowError:
            values.append(math.inf)
    mass = values[0]
    if mass <= 0.0:
        if all(v == 0.0 for v in values):
            return Solve1DResult(
                AtomicMeasure(1, []), JacobiMatrix([], []), 0, True, 0.0, []
            )
        raise RankCollapse(f"mass s_0 = {mass} cannot carry nonzero moments")
    if s.max_degree < 1:
        raise DegreeOverflow(
            "placing an atom needs at least the first-order moment"
        )

    scale = _growth_scale(values)
    # r_k = s_k / (s_0 c^k), the moments of the normalized variable over c.
    # The rank-q factorization below reads r_0 .. r_{2q-1}, and q reaches 1
    # even at level 0.
    scaled = np.array(
        [values[k] / (mass * scale**k) for k in range(max(2 * level + 1, 2))],
        dtype=float,
    )
    hankel = assemble(scaled, 1, level)
    require_psd(hankel, tol, label="moment matrix")
    rank = numerical_rank(hankel, rank_tol)
    if rank == 0:
        raise RankCollapse(
            "moment matrix has numerical rank 0 despite positive mass"
        )
    # A q-atom rule needs moments through order 2q-1, so q cannot exceed
    # level even when the matrix has full rank (density-like data).
    q = min(rank, level) if level > 0 else 1

    block = scaled[np.add.outer(np.arange(q), np.arange(q + 1))]
    rows = _partial_cholesky_rows(block, q)
    if not rows:
        raise RankCollapse("no positive pivot in the moment matrix factorization")
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

    jacobi_scaled = JacobiMatrix(diag, offdiag)
    eigenvalues, eigenvectors = np.linalg.eigh(jacobi_scaled.to_dense())
    nodes = [scale * float(x) for x in eigenvalues]
    weights = [mass * float(eigenvectors[0, k]) ** 2 for k in range(q)]

    supported = all(x >= -NODE_TOL for x in nodes)
    clamped: list[float] = []
    for i, x in enumerate(nodes):
        if -NODE_TOL <= x < 0.0:
            clamped.append(x)
            nodes[i] = 0.0
    if clamped:
        warnings.warn(
            f"clamped {len(clamped)} slightly negative node(s) to zero: "
            f"{clamped}",
            ClampedNodeWarning,
        )

    atoms = [((x,), w) for x, w in zip(nodes, weights) if w > 0.0]
    measure = AtomicMeasure(1, atoms)

    residuals = reproduction_residuals(measure, s, min(2 * q - 1, s.max_degree))
    max_residual = max(residuals)
    if max_residual > tol:
        raise ValidationFailure(
            f"recovered measure misses the input moments: worst relative "
            f"residual {max_residual:g} exceeds {tol:g}"
        )

    jacobi = JacobiMatrix(
        [scale * a for a in jacobi_scaled.diag],
        [scale * b for b in jacobi_scaled.offdiag],
    )
    return Solve1DResult(measure, jacobi, q, supported, max_residual, residuals)
