"""Moment and localizing matrices on graded-lex monomial bases, plus
tolerance-based positive-semidefiniteness verdicts.

For a truncated moment sequence ``s`` the moment matrix at level ``n`` is
indexed by all monomials of degree <= ``n`` and holds ``s[alpha + beta]``;
the localizing matrix of a polynomial ``f`` holds
``sum_gamma f_gamma * s[alpha + beta + gamma]``.  Both are the Gram matrices
of the functional on products, so a representing nonnegative measure (on the
set where ``f >= 0``) forces them to be positive semidefinite.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DegreeOverflow, DimMismatch, EigenFailure, NotPsd
from .polynomials import (
    AtomicMeasure,
    MomentSequence,
    MultiIndex,
    Polynomial,
    Scalar,
    add_indices,
    monomials_up_to,
)

DEFAULT_PSD_TOL = 1e-8
DEFAULT_RANK_TOL = 1e-10


@dataclass
class SymmetricMatrixWithBasis:
    """A symmetric matrix together with the monomial basis labeling its rows
    and columns (graded-lex order)."""

    basis: list[MultiIndex]
    entries: np.ndarray

    def __post_init__(self) -> None:
        self.entries = np.asarray(self.entries, dtype=float)
        n = len(self.basis)
        if self.entries.shape != (n, n):
            raise ValueError(
                f"entries shape {self.entries.shape} does not match basis of size {n}"
            )
        if n and np.all(np.isfinite(self.entries)):
            scale = float(np.max(np.abs(self.entries)))
            asym = float(np.max(np.abs(self.entries - self.entries.T)))
            if asym > 1e-14 * max(1.0, scale):
                raise ValueError(f"matrix is not symmetric (asymmetry {asym:g})")

    @property
    def size(self) -> int:
        return len(self.basis)


@dataclass
class PsdVerdict:
    """Outcome of a positive-semidefiniteness test."""

    is_psd: bool
    min_eigenvalue: float
    tolerance_used: float


@dataclass
class HypothesesReport:
    """Joint verdict on the moment matrix and one localizing matrix per
    generator, all truncated at the same level."""

    level: int
    moment_verdict: PsdVerdict
    localizing_verdicts: list[PsdVerdict] = field(default_factory=list)
    passed: bool = False


@functools.lru_cache(maxsize=64)
def _monomials(dim: int, degree: int) -> tuple[MultiIndex, ...]:
    return tuple(monomials_up_to(dim, degree))


@functools.lru_cache(maxsize=32)
def _sum_positions(dim: int, level: int) -> np.ndarray:
    """Graded-lex position of ``basis[i] + basis[j]`` among the monomials of
    degree <= ``2 * level``.

    The sums hold every one of those monomials, so ``np.unique`` lists them
    in lexicographic order, and the ``u``-th of them is ``lex[u]`` in the
    graded-lex list.
    """
    basis = np.array(_monomials(dim, level))
    lex = np.lexsort(np.array(_monomials(dim, 2 * level)).T[::-1])
    sums = (basis[:, None, :] + basis[None, :, :]).reshape(-1, dim)
    _, inverse = np.unique(sums, axis=0, return_inverse=True)
    positions = lex[inverse].reshape(len(basis), len(basis))
    positions.setflags(write=False)  # shared by every caller through the cache
    return positions


def assemble(values: np.ndarray, dim: int, level: int) -> np.ndarray:
    """The matrix ``values[alpha + beta]`` over the level basis, for values
    listed per monomial of degree <= ``2 * level`` in graded-lex order."""
    return np.asarray(values, dtype=float)[_sum_positions(dim, level)]


def moment_vector(s: MomentSequence, degree: int) -> np.ndarray:
    """Every entry of ``s`` of degree <= ``degree`` as a float, in graded-lex
    order.  Only these entries are converted, so an exact entry beyond
    double range raises ``OverflowError`` only when it is asked for."""
    if degree > s.max_degree:
        raise DegreeOverflow(
            f"need entries up to degree {degree}, data stops at {s.max_degree}"
        )
    return np.array(
        [float(s.values[m]) for m in _monomials(s.dim, degree)], dtype=float
    )


def moment_matrix(s: MomentSequence, level: int) -> SymmetricMatrixWithBasis:
    """Moment matrix of ``s`` truncated at ``level``.

    Parameters
    ----------
    s : MomentSequence
        Needs entries up to degree ``2 * level``.
    level : int
        Truncation level (basis = all monomials of degree <= level).

    Returns
    -------
    SymmetricMatrixWithBasis
        Entry ``(alpha, beta)`` is ``s[alpha + beta]`` as a float.
    """
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    if 2 * level > s.max_degree:
        raise DegreeOverflow(
            f"moment matrix at level {level} needs degree {2 * level} entries, "
            f"data stops at {s.max_degree}"
        )
    return SymmetricMatrixWithBasis(
        list(_monomials(s.dim, level)),
        assemble(moment_vector(s, 2 * level), s.dim, level),
    )


def localizing_matrix(
    s: MomentSequence, f: Polynomial, level: int
) -> SymmetricMatrixWithBasis:
    """Localizing matrix of ``f`` for ``s`` truncated at ``level``.

    Parameters
    ----------
    s : MomentSequence
        Needs entries up to degree ``2 * level + deg(f)``.
    f : Polynomial
        The constraint polynomial; the zero polynomial yields a zero matrix.
    level : int
        Truncation level.

    Returns
    -------
    SymmetricMatrixWithBasis
        Entry ``(alpha, beta)`` is ``sum_gamma f_gamma * s[alpha+beta+gamma]``,
        each term rounded to a float and added in graded-lex order of
        ``gamma``.
    """
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    if f.dim != s.dim:
        raise DimMismatch(
            f"constraint in {f.dim} variables against {s.dim}-dimensional moments"
        )
    terms = f.sorted_terms()
    if terms and 2 * level + int(f.degree) > s.max_degree:
        raise DegreeOverflow(
            f"localizing matrix at level {level} for a degree-{int(f.degree)} "
            f"constraint needs degree {2 * level + int(f.degree)} entries, "
            f"data stops at {s.max_degree}"
        )
    inner = _monomials(s.dim, 2 * level)
    total = np.zeros(len(inner))
    for gamma, coeff in terms:
        shifted = [s.values[add_indices(m, gamma)] for m in inner]
        total = total + np.array([float(coeff * v) for v in shifted])
    return SymmetricMatrixWithBasis(
        list(_monomials(s.dim, level)), assemble(total, s.dim, level)
    )


def monomial_values(
    dim: int, points: Sequence[Sequence[Scalar]], degree: int
) -> list[list[float]]:
    """``prod_j x_j ** alpha_j`` in floats, one row per monomial ``alpha`` of
    degree <= ``degree`` (graded-lex order) and one column per point."""
    return [
        [math.prod(float(x) ** e for x, e in zip(pt, alpha)) for pt in points]
        for alpha in _monomials(dim, degree)
    ]


def reproduction_residuals(
    measure: AtomicMeasure, s: MomentSequence, degree: int
) -> list[float]:
    """How well an atomic measure reproduces the data, moment by moment.

    Returns ``|sum_i w_i x_i^alpha - s_alpha| / max(1, |s_alpha|)`` for every
    ``|alpha| <= degree`` in graded-lex order, each sum taken with
    :func:`math.fsum` over the atoms.
    """
    weights = [float(w) for _, w in measure.atoms]
    rows = monomial_values(s.dim, [pt for pt, _ in measure.atoms], degree)
    return [
        abs(math.fsum(map(operator.mul, weights, row)) - t) / max(1.0, abs(t))
        for row, t in zip(rows, moment_vector(s, degree).tolist())
    ]


def _as_array(matrix: SymmetricMatrixWithBasis | np.ndarray) -> np.ndarray:
    if isinstance(matrix, SymmetricMatrixWithBasis):
        return matrix.entries
    return np.asarray(matrix, dtype=float)


def psd_check(
    matrix: SymmetricMatrixWithBasis | np.ndarray, tol_rel: float = DEFAULT_PSD_TOL
) -> PsdVerdict:
    """Decide positive semidefiniteness up to a relative tolerance.

    The verdict is ``min_eigenvalue >= -tol_rel * max(1, ||M||_inf)`` with
    ``||.||_inf`` the maximum absolute row sum of the symmetric part.  The
    matrix is rescaled by its largest absolute entry before anything else
    (semidefiniteness is invariant under positive scaling) and the verdict
    is taken in scaled units, so entries and row sums beyond the double range
    neither overflow the symmetrization nor turn the tolerance into ``inf``.
    """
    m = _as_array(matrix)
    if m.size == 0:
        return PsdVerdict(True, 0.0, tol_rel)
    if not np.all(np.isfinite(m)):
        raise EigenFailure("matrix has non-finite entries")
    scale = float(np.max(np.abs(m)))
    if scale == 0.0:
        return PsdVerdict(True, 0.0, tol_rel)
    m = m / scale
    m = (m + m.T) / 2.0
    tolerance = tol_rel * max(1.0 / scale, float(np.max(np.sum(np.abs(m), axis=1))))
    try:
        min_eig = float(np.linalg.eigvalsh(m)[0])
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy internal
        raise EigenFailure(f"eigenvalue computation failed: {exc}") from exc
    return PsdVerdict(min_eig >= -tolerance, min_eig * scale, tolerance * scale)


def numerical_rank(
    matrix: SymmetricMatrixWithBasis | np.ndarray, tol: float = DEFAULT_RANK_TOL
) -> int:
    """Number of singular values above ``tol`` times the largest one."""
    m = _as_array(matrix)
    if m.size == 0:
        return 0
    if not np.all(np.isfinite(m)):
        raise EigenFailure("matrix has non-finite entries")
    sigma = np.linalg.svd(m, compute_uv=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int(np.count_nonzero(sigma > tol * sigma[0]))


def check_hypotheses(
    s: MomentSequence,
    generators: list[Polynomial],
    level: int,
    tol_rel: float = DEFAULT_PSD_TOL,
) -> HypothesesReport:
    """Check the moment matrix and every localizing matrix at one level.

    Parameters
    ----------
    s : MomentSequence
        Moment data; must extend far enough for every matrix at ``level``.
    generators : list of Polynomial
        Constraint polynomials cutting out the feasible set.
    level : int
        Common truncation level for all matrices.
    tol_rel : float
        Relative eigenvalue tolerance passed to :func:`psd_check`.

    Returns
    -------
    HypothesesReport
        ``passed`` is true iff the moment matrix and all localizing
        matrices are positive semidefinite within tolerance.  A failure
        here is definitive for the truncation: no nonnegative measure on
        the feasible set matches the data.  A pass certifies only the
        tested level.
    """
    moment_verdict = psd_check(moment_matrix(s, level), tol_rel)
    localizing_verdicts = [
        psd_check(localizing_matrix(s, f, level), tol_rel) for f in generators
    ]
    passed = moment_verdict.is_psd and all(v.is_psd for v in localizing_verdicts)
    return HypothesesReport(level, moment_verdict, localizing_verdicts, passed)


def require_psd(
    matrix: SymmetricMatrixWithBasis | np.ndarray,
    tol_rel: float = DEFAULT_PSD_TOL,
    label: str = "matrix",
) -> PsdVerdict:
    """Like :func:`psd_check` but raises :class:`NotPsd` on failure."""
    verdict = psd_check(matrix, tol_rel)
    if not verdict.is_psd:
        raise NotPsd(
            f"{label} is not positive semidefinite: min eigenvalue "
            f"{verdict.min_eigenvalue:g} below -{verdict.tolerance_used:g}"
        )
    return verdict
