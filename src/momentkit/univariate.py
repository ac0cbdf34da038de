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
  well-conditioned when moments span many orders of magnitude;
* the rule from the eigen-decomposition is polished by a few Gauss-Newton
  least-squares steps on the moment equations, recovering the digits the
  factorization loses on closely spaced or ill-scaled data.
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


def _scaled_moments(values: list[float], scale: float, count: int) -> np.ndarray:
    """``r_k = values[k] / (values[0] * scale**k)`` for ``k < count``: the
    moments of the normalized variable divided by ``scale``."""
    return np.array(
        [values[k] / (values[0] * scale**k) for k in range(count)], dtype=float
    )


def _growth_scale(values: list[float]) -> float:
    """A power-of-growth scale ``c`` making ``values[k] / c**k`` order one."""
    scale = 1.0
    for k in range(1, len(values)):
        ratio = abs(values[k] / values[0])
        if ratio > 0.0:
            scale = max(scale, ratio ** (1.0 / k))
    return scale


def _polish_rule(
    values: list[float],
    nodes: list[float],
    weights: list[float],
    scale: float,
    steps: int = 4,
) -> tuple[list[float], list[float]]:
    """Gauss-Newton polish of a quadrature rule against every finite moment.

    The factorization route delivers nodes and weights limited by the
    conditioning of the Cholesky factor; a few least-squares Newton steps on
    the (scaled) moment equations push both to near machine precision.

    Every finite moment enters the fit (consistent extra rows average down
    the noise) and steps are kept while the overall least-squares residual
    improves and every weight stays positive.  A ``q``-point rule owes
    exactness only on orders ``0 .. 2q-1``, so the polished rule is adopted
    only if it reproduces that contracted range at least as well as the
    input rule; for density-like data — where the higher rows are genuinely
    unreachable and the fit would trade them against the contracted range —
    this final gate returns the unpolished rule unchanged.
    """
    q = len(nodes)
    rows = 0
    while rows < len(values) and math.isfinite(values[rows]):
        rows += 1
    if q == 0 or rows < 2 * q:
        return nodes, weights
    rhs = _scaled_moments(values, scale, rows)
    x = np.array([v / scale for v in nodes], dtype=float)
    w = np.array([v / values[0] for v in weights], dtype=float)

    def residual(xv: np.ndarray, wv: np.ndarray) -> np.ndarray:
        powers = np.vstack([xv**k for k in range(rows)])
        return powers @ wv - rhs

    def contract_err(xv: np.ndarray, wv: np.ndarray) -> float:
        return float(np.max(np.abs(residual(xv, wv)[: 2 * q])))

    best_x, best_w = x.copy(), w.copy()
    best_err = float(np.max(np.abs(residual(x, w))))
    for _ in range(steps):
        if best_err < 1e-15:
            break
        jac = np.empty((rows, 2 * q), dtype=float)
        for k in range(rows):
            jac[k, :q] = best_x**k
            jac[k, q:] = (
                k * best_w * best_x ** (k - 1) if k > 0 else np.zeros(q)
            )
        delta, _, _, _ = np.linalg.lstsq(
            jac, -residual(best_x, best_w), rcond=None
        )
        cand_w = best_w + delta[:q]
        cand_x = best_x + delta[q:]
        if np.any(cand_w <= 0.0) or not np.all(np.isfinite(cand_x)):
            break
        err = float(np.max(np.abs(residual(cand_x, cand_w))))
        if err >= best_err:
            break
        best_x, best_w, best_err = cand_x, cand_w, err

    if contract_err(best_x, best_w) > contract_err(x, w):
        return nodes, weights
    return (
        [scale * float(v) for v in best_x],
        [values[0] * float(v) for v in best_w],
    )


def _partial_cholesky_rows(h: np.ndarray, rows: int) -> list[np.ndarray] | int:
    """First ``rows`` rows of the upper Cholesky factor of ``h``.

    Only the leading ``rows`` pivots are formed, so a matrix of exact rank
    ``rows`` factors cleanly.  Returns the number of clean rows instead of
    the row list if a pivot fails early.
    """
    n = h.shape[1]
    r: list[np.ndarray] = []
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
    # The rank-q factorization below reads r_0 .. r_{2q-1}, and q reaches 1
    # even at level 0.
    scaled = _scaled_moments(values, scale, max(2 * level + 1, 2))
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

    rows = None
    while q > 0:
        block = scaled[np.add.outer(np.arange(q), np.arange(q + 1))]
        got = _partial_cholesky_rows(block, q)
        if isinstance(got, list):
            rows = got
            break
        q = got  # pivot failed at row `got`; retry with the smaller rank
    if rows is None or q == 0:
        raise RankCollapse("no positive pivot in the moment matrix factorization")

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
    nodes, weights = _polish_rule(values, nodes, weights, scale)

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
