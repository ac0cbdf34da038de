"""Moment and localizing matrices on graded-lex monomial bases, plus
tolerance-based positive-semidefiniteness verdicts.

For a truncated moment sequence ``s`` the moment matrix at level ``n`` is
indexed by all monomials of degree <= ``n`` and holds ``s[alpha + beta]``;
the localizing matrix of a polynomial ``f`` holds
``sum_gamma f_gamma * s[alpha + beta + gamma]``.  Both are the Gram matrices
of the functional on products, so a representing nonnegative measure (on the
set where ``f >= 0``) forces them to be positive semidefinite.

Whether a measure reproduces the data is decided by one rule, that of
:func:`require_reproduced`: the residual ``|m - t| / max(1, |t|)`` of each
entry, ``m`` the ``math.fsum`` of the atoms' terms, against ``tol``, and below
a mass of 1 also ``|m - t| / max(|s_0|, |t|)``.
:func:`require_reproduced` returns those residuals, and ``solve_1d``,
``solve`` on 1-D data and ``pipeline``'s ``verify`` stage report them, so
it takes every row's ``fsum``.  Flat
extraction only needs the verdict: its gate bounds every row's residual in
one array pass from a sum in any order and the rounding error that order
can make, and takes the ``fsum`` residuals only when the bound cannot
decide, so its verdict and refusal are those of the same rule.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from typing import Sequence

import numpy as np

from .errors import (
    DegreeOverflow,
    DimMismatch,
    EigenFailure,
    ValidationFailure,
)
from .polynomials import (
    AtomicMeasure,
    MomentSequence,
    MultiIndex,
    Polynomial,
    Scalar,
    _exp,
    _log,
    _monomial_index,
    _monomial_table,
    _to_float,
    add_indices,
    monomials_up_to,
)

DEFAULT_PSD_TOL = 1e-8
DEFAULT_RANK_TOL = 1e-10
#: Largest relative tail ``sigma_{q+1} / sigma_1`` that a rank cut reads as
#: rounding.  A tail above it, yet at most ``rank_tol``, leaves the cut
#: undecided in doubles (:func:`rank_decision`).  On the 1-D Gauss rules of
#: six seeds of the benchmark's solve-1d pool, correct rules had tails up to
#: 1.08e-16 and rules with too few atoms from 2.49e-16; the floor sits
#: between them, nearer the correct side, so a wrong rule is refused first.
RANK_FLOOR = 1.5e-16
_EPS = float(np.finfo(float).eps)


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

    @classmethod
    def _assembled(
        cls, basis: list[MultiIndex], entries: np.ndarray
    ) -> "SymmetricMatrixWithBasis":
        """Wrap a float matrix gathered through a symmetric index table
        (``values[T]`` with ``T == T.T``), which is exactly symmetric, so the
        symmetry scan of ``__post_init__`` is skipped."""
        matrix = cls.__new__(cls)
        matrix.basis = basis
        matrix.entries = entries
        return matrix

    @property
    def size(self) -> int:
        return len(self.basis)

    def _leading(self, size: int) -> "SymmetricMatrixWithBasis":
        """The leading ``size x size`` block, as a contiguous copy.

        Graded-lex bases are nested: the first ``N`` monomials of degree
        ``<= level`` are the basis of degree ``<= level - 1``, so the leading
        block of the moment matrix at ``level`` is the moment matrix at
        ``level - 1``, bit for bit.
        """
        return SymmetricMatrixWithBasis._assembled(
            self.basis[:size], np.ascontiguousarray(self.entries[:size, :size])
        )


@dataclass
class RankDecision:
    """A numerical rank and the singular values on both sides of its cut,
    each over the largest: ``sigma_q`` the smallest kept, ``sigma_next`` the
    largest dropped (0.0 where there is none, or for a zero matrix), and
    the ``floor`` below which a dropped value is read as rounding."""

    rank: int
    sigma_q: float
    sigma_next: float
    floor: float = RANK_FLOOR


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
    exponents = np.array(_monomial_table(dim, degree), dtype=np.intp).reshape(-1, dim)
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
def _shifted_positions(dim: int, degree: int, gamma: MultiIndex) -> np.ndarray:
    """Graded-lex position of ``m + gamma`` for every monomial ``m`` of
    degree <= ``degree``, in graded-lex order of ``m``."""
    position = _monomial_index(dim, degree + sum(gamma))
    positions = np.array(
        [position[add_indices(m, gamma)] for m in _monomial_table(dim, degree)],
        dtype=np.intp,
    )
    positions.setflags(write=False)  # shared by every caller through the cache
    return positions


def assemble(values: np.ndarray, dim: int, level: int) -> np.ndarray:
    """The matrix ``values[alpha + beta]`` over the level basis, for values
    listed per monomial of degree <= ``2 * level`` in graded-lex order."""
    return np.asarray(values, dtype=float)[_sum_positions(dim, level)]


def moment_vector(s: MomentSequence, degree: int) -> np.ndarray:
    """Every entry of ``s`` of degree <= ``degree`` as a float, in graded-lex
    order: a writable copy of the leading slice of the sequence's float
    table, which converts each entry once.  An exact entry beyond double
    range raises ``OverflowError`` only when the slice reaches it."""
    if degree > s.max_degree:
        raise DegreeOverflow(
            f"need entries up to degree {degree}, data stops at {s.max_degree}"
        )
    return s._float_prefix(len(_monomial_table(s.dim, degree))).copy()


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
    return SymmetricMatrixWithBasis._assembled(
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
    terms = f._grlex_terms()
    if terms and 2 * level + int(f.degree) > s.max_degree:
        raise DegreeOverflow(
            f"localizing matrix at level {level} for a degree-{int(f.degree)} "
            f"constraint needs degree {2 * level + int(f.degree)} entries, "
            f"data stops at {s.max_degree}"
        )
    table = s._float_table()
    # A sequence with an exact entry multiplies exactly, entry by entry.
    exact = None if s._all_float else list(s.values.values())
    total = np.zeros(len(_monomial_table(s.dim, 2 * level)))
    for gamma, coeff in terms:
        positions = _shifted_positions(s.dim, 2 * level, gamma)
        if exact is None:
            # Fraction * float rounds the coefficient first and multiplies
            # in floats, so one array product gives the same bits.
            with np.errstate(over="ignore", invalid="ignore"):
                term = float(coeff) * table[positions]
        else:
            term = np.array([float(coeff * exact[p]) for p in positions.tolist()])
        total = total + term
    return SymmetricMatrixWithBasis._assembled(
        monomials_up_to(s.dim, level), assemble(total, s.dim, level)
    )


def _powers(column: Sequence[float] | np.ndarray, degree: int) -> np.ndarray:
    """``x ** e`` with one row per ``e = 0 .. degree`` and one column per
    float ``x`` of ``column``; for a 2-D object array of floats, entry
    ``[e, j, i]`` is its entry ``[i, j]`` to the power ``e``.

    Every power is Python's ``float ** int``, taken elementwise over an
    object array (``np.power`` on floats rounds some of them differently),
    so a power beyond double range raises ``OverflowError``.
    """
    exponents = np.arange(degree + 1)
    return np.power.outer(np.array(column, dtype=object), exponents).astype(float).T


def _exact_sums(
    columns: list[list[Fraction]],
    weights: list[Fraction],
    exponents: np.ndarray,
    max_degree: int,
) -> list[Fraction]:
    """``sum_i w_i * prod_j x_ij ** alpha_j`` for each row ``alpha`` of
    ``exponents``, from integer numerators over common denominators."""
    numerators, denominator = _over_common_denominator(weights)
    sums = np.array(numerators, dtype=object)
    denominators = np.full(len(exponents), denominator, dtype=object)
    for j, column in enumerate(columns):
        numerators, denominator = _over_common_denominator(column)
        powers = [[1] * len(numerators)]  # one product per further degree
        for _ in range(max_degree):
            powers.append([p * n for p, n in zip(powers[-1], numerators)])
        scales = [denominator**e for e in range(len(powers))]
        sums = sums * np.array(powers, dtype=object)[exponents[:, j]]
        denominators = denominators * np.array(scales, dtype=object)[exponents[:, j]]
    return [
        Fraction(n, d) for n, d in zip(sums.sum(axis=1).tolist(), denominators.tolist())
    ]


def _over_common_denominator(values: list[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of ``values`` over their least common denominator."""
    common = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (common // v.denominator) for v in values], common


def monomial_values(
    dim: int, points: Sequence[Sequence[Scalar]], degree: int
) -> np.ndarray:
    """``prod_j x_j ** alpha_j`` in floats, as an array with one row per
    monomial ``alpha`` of degree <= ``degree`` (graded-lex order) and one
    column per point.

    The powers of every coordinate come from one :func:`_powers` table, so
    one beyond double range raises ``OverflowError``; they are multiplied
    over ``j = 0 .. dim - 1`` in order, as :func:`math.prod` does, and a
    product that overflows is ``inf``.
    """
    coords = np.array([float(x) for pt in points for x in pt], dtype=object)
    powers = _powers(coords.reshape(len(points), dim), degree)
    exponents = _exponents(dim, degree)
    values = powers[exponents[:, 0], 0]
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, dim):
            values = values * powers[exponents[:, j], j]
    return values


def reproduction_residuals(
    measure: AtomicMeasure, s: MomentSequence, degree: int
) -> list[float]:
    """How well an atomic measure reproduces the data, moment by moment.

    Returns ``|sum_i w_i x_i^alpha - s_alpha| / max(1, |s_alpha|)`` for every
    ``|alpha| <= degree`` in graded-lex order, each sum taken with
    :func:`math.fsum` over the atoms.  On 1-D data they are taken per node
    in Python floats, in more dimensions from the :func:`monomial_values`
    table, with the same bits.
    """
    return _measure_residuals(measure, s, degree).tolist()


def _measure_residuals(
    measure: AtomicMeasure, s: MomentSequence, degree: int
) -> np.ndarray:
    """:func:`reproduction_residuals` as an array.

    On 1-D data it is taken per node in Python floats: the powers, products,
    ``fsum`` and formula that :func:`_residuals` takes on the
    :func:`monomial_values` table, so the same bits, and the same errors in
    the same order (a coordinate, a power, a weight beyond double range,
    then :func:`moment_vector`'s, then ``fsum``'s)."""
    if s.dim != 1:
        table = monomial_values(s.dim, [pt for pt, _ in measure.atoms], degree)
        return _residuals(table, np.array([float(w) for _, w in measure.atoms]), s, degree)
    xs = [float(x) for (x,), _ in measure.atoms]
    top = max(degree, 0)  # degree -1 takes no power, and x**0 is 1.0
    for x in xs:
        x**top  # the largest power is the first to leave double range
    ws = [float(w) for _, w in measure.atoms]
    targets = moment_vector(s, degree).tolist()
    ks = range(len(targets))
    terms = [[x**k * w for k in ks] for x, w in zip(xs, ws)]  # one column per node
    sums = map(math.fsum, zip(*terms)) if terms else repeat(0.0)  # fsum([]) with no atom
    return np.array([abs(m - t) / max(1.0, abs(t)) for m, t in zip(sums, targets)])


def _residuals(
    table: np.ndarray, weights: np.ndarray, s: MomentSequence, degree: int
) -> np.ndarray:
    """:func:`reproduction_residuals`, as an array, from the measure's
    :func:`monomial_values` table through ``degree`` and its float
    weights."""
    targets = moment_vector(s, degree)
    with np.errstate(over="ignore", invalid="ignore"):
        rows = (table * weights).tolist()
        sums = np.fromiter(map(math.fsum, rows), dtype=float, count=len(rows))
        # fmax, like max(1.0, t), ignores a NaN target.
        return np.abs(sums - targets) / np.fmax(1.0, np.abs(targets))


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

    A NaN or infinite entry raises :class:`EigenFailure`.  It is found from
    the scale itself, which is NaN or ``inf`` exactly when such an entry is
    present, so one pass over the matrix serves both.

    The check runs on the one matrix, in 2-D arithmetic;
    :func:`_psd_verdicts` gives each matrix of a stack this verdict, bit for
    bit.
    """
    m = _as_array(matrix)
    scale = float(np.abs(m).max()) if m.size else 0.0
    if not math.isfinite(scale):
        raise EigenFailure("matrix has non-finite entries")
    if scale == 0.0:
        return _verdict(0.0, 0.0, 0.0, tol_rel)
    m = m / scale
    m += m.T  # numpy reads m.T from a copy, as m + m.T does
    m /= 2.0
    row_sum = float(np.abs(m).sum(axis=1).max())
    try:
        min_eig = float(np.linalg.eigvalsh(m)[0])
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy internal
        raise EigenFailure(f"eigenvalue computation failed: {exc}") from exc
    return _verdict(scale, row_sum, min_eig, tol_rel)


def _psd_verdicts(stack: np.ndarray, tol_rel: float) -> list[PsdVerdict]:
    """:func:`psd_check` of every matrix of a stack of same-size matrices,
    in one pass of array calls, for :func:`check_hypotheses`, its caller:
    the scale, symmetrization and row sums are elementwise or reduce within
    one matrix, and the stacked ``eigvalsh`` runs LAPACK on each matrix
    alone, so each verdict has the bits of a check of its matrix by itself.
    A non-finite entry anywhere raises :class:`EigenFailure`."""
    if stack.size == 0:
        return [_verdict(0.0, 0.0, 0.0, tol_rel) for _ in range(len(stack))]
    scales = np.abs(stack).max(axis=(1, 2)).tolist()
    if not all(map(math.isfinite, scales)):
        raise EigenFailure("matrix has non-finite entries")
    # A zero matrix is divided by 1; its verdict is the zero-scale one.
    m = stack / np.array([scale or 1.0 for scale in scales])[:, None, None]
    m += m.transpose(0, 2, 1)  # numpy reads the transpose from a copy, as m + m.T does
    m /= 2.0
    row_sums = np.abs(m).sum(axis=2).max(axis=1).tolist()
    try:
        min_eigs = np.linalg.eigvalsh(m)[:, 0].tolist()
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy internal
        raise EigenFailure(f"eigenvalue computation failed: {exc}") from exc
    return [_verdict(*args, tol_rel) for args in zip(scales, row_sums, min_eigs)]


def _verdict(scale: float, row_sum: float, min_eig: float, tol_rel: float) -> PsdVerdict:
    """The verdict on a matrix of largest absolute entry ``scale``, from the
    largest absolute row sum and the least eigenvalue of its symmetric part
    divided by ``scale``; a zero matrix (``scale == 0``) is PSD."""
    if scale == 0.0:
        return PsdVerdict(True, 0.0, tol_rel)
    tolerance = tol_rel * max(1.0 / scale, row_sum)
    # 1 / scale overflows when every entry is subnormal; ||M||_inf < 1
    # then, and the tolerance in matrix units is tol_rel itself.
    used = tol_rel if math.isinf(1.0 / scale) else tolerance * scale
    return PsdVerdict(min_eig >= -tolerance, min_eig * scale, used)


def rank_decision(
    matrix: SymmetricMatrixWithBasis | np.ndarray, tol: float = DEFAULT_RANK_TOL
) -> RankDecision:
    """The number of singular values above ``tol`` times the largest one,
    with the singular values on both sides of that cut, from one SVD.

    A matrix whose largest singular value overflows to ``inf`` is ranked
    again after scaling by the power of two that brings its largest
    absolute entry into ``[1/2, 1)``, which moves no bit of a normal entry;
    its decision reads that scaled spectrum.  A NaN or infinite entry
    raises :class:`EigenFailure`."""
    m = _as_array(matrix)
    if m.size == 0:
        return RankDecision(0, 0.0, 0.0)
    if not np.isfinite(m).all():
        raise EigenFailure("matrix has non-finite entries")
    sigma = np.linalg.svd(m, compute_uv=False)
    if not math.isfinite(sigma[0]):
        m = np.ldexp(m, -math.frexp(float(np.abs(m).max()))[1])
        sigma = np.linalg.svd(m, compute_uv=False)
    top = float(sigma[0])
    if top == 0.0:
        return RankDecision(0, 0.0, 0.0)
    rank = int(np.count_nonzero(sigma > tol * top))
    return RankDecision(
        rank,
        float(sigma[rank - 1]) / top if rank else 0.0,
        float(sigma[rank]) / top if rank < len(sigma) else 0.0,
    )


def numerical_rank(
    matrix: SymmetricMatrixWithBasis | np.ndarray, tol: float = DEFAULT_RANK_TOL
) -> int:
    """Number of singular values above ``tol`` times the largest one: the
    ``rank`` of :func:`rank_decision`."""
    return rank_decision(matrix, tol).rank


def check_hypotheses(
    s: MomentSequence,
    generators: list[Polynomial],
    level: int,
    tol_rel: float = DEFAULT_PSD_TOL,
) -> HypothesesReport:
    """Check the moment matrix and every localizing matrix at one level.

    The matrices are checked as one stack, and each verdict is the one
    :func:`psd_check` gives its matrix alone.  The first matrix, in the
    order moment matrix then generators, that cannot be built or checked
    raises: one that cannot be built raises once the matrices before it
    have passed the non-finite check.

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
    stack = [moment_matrix(s, level).entries]
    for f in generators:
        try:
            stack.append(localizing_matrix(s, f, level).entries)
        except Exception:
            _psd_verdicts(np.stack(stack), tol_rel)  # raises first on a non-finite one
            raise
    moment_verdict, *localizing_verdicts = _psd_verdicts(np.stack(stack), tol_rel)
    passed = moment_verdict.is_psd and all(v.is_psd for v in localizing_verdicts)
    return HypothesesReport(level, moment_verdict, localizing_verdicts, passed)


def require_reproduced(
    measure: AtomicMeasure, s: MomentSequence, tol: float, label: str
) -> list[float]:
    """The moment-reproduction check of every solve: the residual of every
    entry of ``s``, :func:`reproduction_residuals` in floats through the
    finite prefix (``s.finite_degree()``) and :func:`_residuals_above`,
    exact, above it, or at every degree when doubles cannot hold the prefix
    (an atom's power or an exact entry there leaves double range, where
    :func:`reproduction_residuals` raises ``OverflowError``, or its ``fsum``
    a ``ValueError`` on terms that overflow to ``inf`` and ``-inf``).  Raises
    :class:`ValidationFailure` when the worst residual exceeds ``tol`` or is
    NaN; that miss carries the residual as the error's ``worst``."""
    degree, finite = s.max_degree, s.finite_degree()
    try:
        residuals = _measure_residuals(measure, s, finite)
    except (OverflowError, ValueError):
        finite, residuals = -1, np.empty(0)  # every entry lies above degree -1
    if finite < degree:
        above = _residuals_above(measure, s, finite, degree)
        residuals = np.concatenate((residuals, above))
    return _require_within(residuals, s, degree, tol, label)


def _residuals_above(
    measure: AtomicMeasure, s: MomentSequence, low: int, degree: int
) -> list[float]:
    """``|m - t| / max(1, |t|)`` for every entry ``t`` of degree ``low + 1 ..
    degree``, with no float power: ``m = sum w x^alpha`` is :func:`_exact_sums`
    of the measure, so terms that cancel leave their true difference.  A finite
    or exact ``t`` is compared exactly and an ``inf`` marker in logs, by its
    stored log.  A non-finite float with no stored log has no value to
    compare, and a non-finite atom no exact moment: their residuals are NaN.
    """
    start = len(_monomial_table(s.dim, low))
    alphas = _monomial_table(s.dim, degree)[start:]
    try:
        weights = [Fraction(w) for _, w in measure.atoms]
        columns = [[Fraction(pt[j]) for pt, _ in measure.atoms] for j in range(s.dim)]
    except (ValueError, OverflowError):
        return [math.nan] * len(alphas)
    moments = _exact_sums(columns, weights, _exponents(s.dim, degree)[start:], degree)
    residuals = []
    for alpha, m in zip(alphas, moments):
        v = s.values[alpha]
        if isinstance(v, float) and not math.isfinite(v):
            log_t = math.nan if v < 0 else s.log_values.get(alpha, math.nan)
            log_m = _log(abs(m)) if m else -math.inf
            top = max(log_m, log_t)  # |m - t| over exp(top), then scaled
            diff = abs((-1 if m < 0 else 1) * math.exp(log_m - top) - math.exp(log_t - top))
            residuals.append(_exp(math.log(diff) + top - max(0.0, log_t)) if diff else 0.0)
        else:
            t = Fraction(v)
            residuals.append(_to_float(abs(m - t) / max(1, abs(t))))
    return residuals


def _require_table_reproduces(
    table: np.ndarray,
    weights: np.ndarray,
    s: MomentSequence,
    degree: int,
    tol: float,
    label: str,
) -> None:
    """The decision of :func:`require_reproduced`, on a measure's
    :func:`monomial_values` table through ``degree`` (its powers already
    checked) and its float weights, for a caller that holds the table.

    The decision is first taken from a bound in one array pass.  Each row's
    terms summed in any order lie within ``gamma_{n-1} * sum |t|`` of their
    exact sum (Higham 2002, section 4.2), ``n`` the number of atoms, so the
    exact sum lies between ``sums - slack`` and ``sums + slack`` with
    ``slack = 4 * eps * n * sum |t|``; rounding is monotone, so the larger
    residual of the two endpoints is at least the ``fsum`` residual of
    :func:`_residuals`.  When that bound (over ``max(u, |t|)``, as decided)
    is within ``tol`` for every row the data is reproduced.  Otherwise (a row
    too close to call, a NaN, an ``inf``, an endpoint that overflows, or a
    NaN ``tol``) the ``fsum`` residuals decide, so every verdict, message and
    ``fsum`` error is that of :func:`_residuals` and :func:`_require_within`.
    """
    targets = moment_vector(s, degree)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = table * weights
        sums = terms.sum(axis=1)
        slack = (4.0 * _EPS * terms.shape[1]) * np.abs(terms).sum(axis=1)
        bound = np.maximum(
            np.abs((sums + slack) - targets), np.abs((sums - slack) - targets)
        ) / np.fmax(_residual_floor(s), np.abs(targets))
    if not bound.max() <= tol:
        _require_within(_residuals(table, weights, s, degree), s, degree, tol, label)


def _require_within(
    residuals: np.ndarray, s: MomentSequence, degree: int, tol: float, label: str
) -> list[float]:
    """:func:`require_reproduced`'s decision on the residuals of the entries
    of ``s`` through ``degree``, returned as a list: ``np.max`` keeps a NaN,
    a miss, decided over ``max(u, |t|)`` (:func:`_residual_floor`).  The
    miss carries the worst such residual as ``worst``, the entry it belongs
    to (the first NaN's, if any) as ``index`` and ``tol`` as ``tolerance``."""
    decided = residuals  # where |t| < 1 a residual is |m - t| itself
    if (floor := _residual_floor(s)) < 1.0:
        with np.errstate(over="ignore"):
            decided = residuals / np.clip(np.abs(s._float_table()[: len(residuals)]), floor, 1.0)
    worst = float(np.max(decided, initial=0.0))
    if not worst <= tol:
        raise ValidationFailure(
            f"{label} misses the input moments: worst relative residual "
            f"{worst:g} exceeds {tol:g}",
            worst=worst,
            index=_monomial_table(s.dim, degree)[int(np.argmax(decided))],
            tolerance=tol,
        )
    return residuals.tolist()


def _residual_floor(s: MomentSequence) -> float:
    """``u`` of the gate's ``max(u, |t|)``: the mass ``|s_0|`` strictly
    between 0 and 1, else 1, so that the stricter of the caller's units and
    the mass's decides, and ``(1e-9, 0, -1e-9)`` misses by 1, not 1e-9."""
    return min(1.0, abs(float(s._float_table()[0]))) or 1.0
