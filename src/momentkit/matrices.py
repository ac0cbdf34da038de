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
    _monomial_table,
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
def _exponents(dim: int, degree: int) -> np.ndarray:
    """The monomials of degree <= ``degree`` in graded-lex order as the rows
    of an exponent matrix."""
    exponents = np.array(_monomial_table(dim, degree))
    exponents.setflags(write=False)  # shared by every caller through the cache
    return exponents


@functools.lru_cache(maxsize=32)
def _sum_positions(dim: int, level: int) -> np.ndarray:
    """Graded-lex position of ``basis[i] + basis[j]`` among the monomials of
    degree <= ``2 * level``.

    The sums hold every one of those monomials, so ``np.unique`` lists them
    in lexicographic order, and the ``u``-th of them is ``lex[u]`` in the
    graded-lex list.
    """
    basis = _exponents(dim, level)
    lex = np.lexsort(_exponents(dim, 2 * level).T[::-1])
    sums = (basis[:, None, :] + basis[None, :, :]).reshape(-1, dim)
    _, inverse = np.unique(sums, axis=0, return_inverse=True)
    positions = lex[inverse].reshape(len(basis), len(basis))
    positions.setflags(write=False)  # shared by every caller through the cache
    return positions


@functools.lru_cache(maxsize=256)
def _shifted(dim: int, degree: int, gamma: MultiIndex) -> tuple[MultiIndex, ...]:
    """``m + gamma`` for every monomial ``m`` of degree <= ``degree``, in
    graded-lex order of ``m``."""
    return tuple(add_indices(m, gamma) for m in _monomial_table(dim, degree))


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
        [float(s.values[m]) for m in _monomial_table(s.dim, degree)], dtype=float
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
        monomials_up_to(s.dim, level),
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
    total = np.zeros(len(_monomial_table(s.dim, 2 * level)))
    for gamma, coeff in terms:
        entries = [s.values[m] for m in _shifted(s.dim, 2 * level, gamma)]
        if set(map(type, entries)) == {float}:
            # Fraction * float rounds the coefficient first and multiplies
            # in floats, so one array product gives the same bits.
            with np.errstate(over="ignore", invalid="ignore"):
                term = float(coeff) * np.array(entries)
        else:
            term = np.array([float(coeff * v) for v in entries])
        total = total + term
    return SymmetricMatrixWithBasis(
        monomials_up_to(s.dim, level), assemble(total, s.dim, level)
    )


def monomial_values(
    dim: int, points: Sequence[Sequence[Scalar]], degree: int
) -> np.ndarray:
    """``prod_j x_j ** alpha_j`` in floats, as an array with one row per
    monomial ``alpha`` of degree <= ``degree`` (graded-lex order) and one
    column per point.

    Every power is Python's ``float ** int`` (``np.power`` rounds some of
    them differently), so a power beyond double range raises
    ``OverflowError``; the powers are multiplied over ``j = 0 .. dim - 1``
    in order, as :func:`math.prod` does, and a product that overflows is
    ``inf``.
    """
    coords = [[float(x) for x in pt] for pt in points]
    exponents = _exponents(dim, degree)
    values = np.ones((len(exponents), len(coords)))
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(dim):
            powers = np.array([[c[j] ** e for c in coords] for e in range(degree + 1)])
            values = values * powers[exponents[:, j]]
    return values


def reproduction_residuals(
    measure: AtomicMeasure, s: MomentSequence, degree: int
) -> list[float]:
    """How well an atomic measure reproduces the data, moment by moment.

    Returns ``|sum_i w_i x_i^alpha - s_alpha| / max(1, |s_alpha|)`` for every
    ``|alpha| <= degree`` in graded-lex order, each sum taken with
    :func:`math.fsum` over the atoms.
    """
    weights = np.array([float(w) for _, w in measure.atoms])
    values = monomial_values(s.dim, [pt for pt, _ in measure.atoms], degree)
    targets = moment_vector(s, degree)
    with np.errstate(over="ignore", invalid="ignore"):
        sums = np.array([math.fsum(row) for row in (values * weights).tolist()])
        # fmax, like max(1.0, t), ignores a NaN target.
        return (np.abs(sums - targets) / np.fmax(1.0, np.abs(targets))).tolist()


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
    neither overflow the symmetrization nor turn the tolerance into ``inf``,
    and neither do entries that are all subnormal.
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
    # 1 / scale overflows when every entry is subnormal; ||M||_inf < 1 then,
    # and the tolerance in matrix units is tol_rel itself.
    used = tol_rel if math.isinf(1.0 / scale) else tolerance * scale
    return PsdVerdict(min_eig >= -tolerance, min_eig * scale, used)


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
