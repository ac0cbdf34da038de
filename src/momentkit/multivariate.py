"""Atomic measure extraction from multidimensional moment data by rank
stabilization and compressed multiplication operators.

When the moment matrix at level ``n`` has the same numerical rank ``r`` as
the one at level ``n - 1`` (a *flat* pair), the data at that level is the
moment data of an ``r``-atom measure, and the atoms can be read off
spectrally: compress the coordinate-shifted moment matrices onto the top
eigenspace of the level-``(n-1)`` matrix, giving ``r x r`` symmetric
operators, one per coordinate, that commute for consistent data.  Their
joint spectrum is the atoms, so the eigenvectors of one seeded random linear
combination diagonalize them all whenever the combination separates the
atoms, which a random direction does with probability one.  The joint
eigenvalues are the atom coordinates, read as each operator's Rayleigh
quotient at each eigenvector, in two broadcast products that make the gemv
and dot calls of a loop over atoms and axes, bit for bit
(:func:`_joint_points`); weights follow from a monomial-evaluation
least-squares fit.  A draw that does not separate the
atoms is not retried: coinciding points make the weight fit rank deficient
(:class:`IllConditionedWeights`), and any other wrong points fail the moment
check (:class:`ValidationFailure`).

The coordinate-shifted matrices are not assembled: the one for ``x_j`` at
level ``n - 1`` is the block of the flat pair's level-``n`` moment matrix
with rows ``alpha + e_j`` and columns ``beta``.  The level scan of
:func:`extract_atoms_auto` assembles and ranks each level's moment matrix
once and reuses it as the next level's previous matrix.

Each extraction builds one table of monomial values at its atoms, through
degree ``2 * level``: the weight fit reads its leading rows, the monomials
of degree <= ``level``, and the moment check reads all of it, through the decision that
:func:`~momentkit.matrices.require_reproduced` takes.  The probe
direction depends only on the dimension and the seed, so it is drawn once
per ``(dim, seed)`` and shared read-only.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CommutatorTooLarge,
    DegreeOverflow,
    EigenFailure,
    IllConditionedWeights,
    MomentError,
    NotFlat,
    RankCollapse,
    ValidationFailure,
)
from .matrices import (
    DEFAULT_PSD_TOL,
    DEFAULT_RANK_TOL,
    SymmetricMatrixWithBasis,
    _require_table_reproduces,
    _sum_positions,
    moment_matrix,
    moment_vector,
    monomial_values,
    numerical_rank,
)
from .polynomials import AtomicMeasure, MomentSequence

@dataclass
class FlatRankResult:
    """Rank comparison between two consecutive truncation levels, with the
    moment matrices at ``level`` and ``level - 1`` that were ranked."""

    level: int
    rank: int
    previous_rank: int
    matrix: SymmetricMatrixWithBasis = field(repr=False, compare=False)
    previous_matrix: SymmetricMatrixWithBasis = field(repr=False, compare=False)

    @property
    def is_flat(self) -> bool:
        return self.rank == self.previous_rank


def flat_rank(
    s: MomentSequence, level: int, rank_tol: float = DEFAULT_RANK_TOL
) -> FlatRankResult:
    """Numerical ranks of the moment matrices at ``level`` and ``level - 1``.

    ``is_flat`` (equal ranks) is the extraction precondition: it certifies
    that enlarging the basis from degree ``level - 1`` to ``level`` adds no
    new directions, so the data is atomic with ``rank`` atoms.  The matrix at
    ``level - 1`` is the leading block of the one at ``level``.  An exact
    entry there beyond double range (a mass, say) raises :class:`EigenFailure`.
    """
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    matrix = _moment_matrix(s, level)
    previous = matrix._leading(math.comb(s.dim + level - 1, s.dim))
    return FlatRankResult(
        level,
        numerical_rank(matrix, rank_tol),
        numerical_rank(previous, rank_tol),
        matrix,
        previous,
    )


def _moment_matrix(s: MomentSequence, level: int) -> SymmetricMatrixWithBasis:
    """The moment matrix at ``level``, or :class:`EigenFailure` when an exact
    entry there lies beyond double range."""
    try:
        return moment_matrix(s, level)
    except OverflowError:
        raise EigenFailure(
            f"exact entry beyond double range at level {level}", level=level
        ) from None


def multiplication_operators(
    s: MomentSequence,
    level: int,
    rank_tol: float = DEFAULT_RANK_TOL,
    tol: float = DEFAULT_PSD_TOL,
) -> tuple[list[np.ndarray], int]:
    """Compressed coordinate-multiplication operators at a flat level.

    Returns one symmetric ``r x r`` matrix per coordinate (``r`` the flat
    rank) whose joint spectrum carries the atom coordinates, along with
    ``r``, with no positivity check.  Raises :class:`NotFlat` when the rank
    has not stabilized, :class:`RankCollapse` (:class:`EigenFailure`) when a
    top-``r`` eigenvalue of the level-``(level - 1)`` matrix is not positive
    (cannot be computed), and
    :class:`CommutatorTooLarge` when the operators fail to commute within
    ``tol`` (relative to their norms) — the signature of data that is not
    consistently atomic at this level.
    """
    operators, r = _operators(s, flat_rank(s, level, rank_tol), tol)
    return list(operators), r


def _shift_matrix(
    dim: int, fr: FlatRankResult, axis: int | np.ndarray
) -> np.ndarray:
    """The localizing matrix of ``x_axis`` at level ``fr.level - 1``, read
    out of the moment matrix at ``fr.level``; for an array of axes, one
    such matrix per axis, stacked, in one indexed read.

    Its entries ``s[alpha + e_axis + beta]`` sit in rows ``alpha + e_axis``
    and columns ``beta``, where ``basis[1 + axis]`` is ``e_axis``.  Adding
    0.0 turns a -0.0 entry into 0.0, as the localizing matrix's sum from
    zero does, so the two agree bit for bit.
    """
    n = fr.previous_matrix.size
    rows = _sum_positions(dim, fr.level)[:n, 1 + axis]
    return 0.0 + fr.matrix.entries[:, :n][rows.T]


def _operators(
    s: MomentSequence, fr: FlatRankResult, tol: float
) -> tuple[np.ndarray, int]:
    """:func:`multiplication_operators` on a level's ranked moment matrices,
    with the operators stacked, one slice per coordinate (none at rank 0)."""
    level = fr.level
    if not fr.is_flat:
        raise NotFlat(
            f"rank grows from {fr.previous_rank} to {fr.rank} between levels "
            f"{level - 1} and {level}"
        )
    r = fr.rank
    if r == 0:
        return np.empty((0, 0, 0)), 0

    try:  # LAPACK gives up on some matrices with entries near the double limit
        eigenvalues, eigenvectors = np.linalg.eigh(fr.previous_matrix.entries)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"eigenvalue computation failed: {exc}") from None
    # top-r eigenpairs span the column space; whiten so the compression is a
    # congruence by an orthonormal-in-measure basis
    lam = eigenvalues[-r:]
    if float(lam[0]) <= 0.0:
        raise RankCollapse(
            f"rank-{r} compression hit a nonpositive eigenvalue {lam[0]:g}",
            eigenvalue=float(lam[0]), rank=r,
        )
    u = eigenvectors[:, -r:]
    w = u / np.sqrt(lam)

    # Stacked products run the same gemm on every slice as one product per
    # axis or pair would, so each operator and commutator keeps its bits;
    # an overflow to inf or NaN gives a point that _extract refuses.
    pairs = list(itertools.combinations(range(s.dim), 2))  # row-major
    first, second = [i for i, _ in pairs], [j for _, j in pairs]
    with np.errstate(over="ignore", invalid="ignore"):
        ops = w.T @ _shift_matrix(s.dim, fr, np.arange(s.dim)) @ w
        ops = (ops + ops.transpose(0, 2, 1)) / 2.0
        norms = np.abs(ops).sum(axis=2).max(axis=1).tolist()
        comms = ops[first] @ ops[second] - ops[second] @ ops[first]
        comm_norms = np.abs(comms).sum(axis=2).max(axis=1).tolist()
    for i, j, comm_norm in zip(first, second, comm_norms):
        bound = tol * max(1.0, norms[i] * norms[j])
        if comm_norm > bound:
            raise CommutatorTooLarge(
                f"coordinate operators {i} and {j} do not commute: "
                f"commutator norm {comm_norm:g} exceeds {bound:g}",
                pair=(i, j), norm=comm_norm, bound=bound,
            )
    return ops, r


@functools.lru_cache(maxsize=64, typed=True)
def _probe_direction(dim: int, seed: int) -> np.ndarray:
    """The unit direction of :func:`extract_atoms`'s probe: a normal draw
    from ``default_rng(seed)``, normalized.  It depends on nothing else,
    so it is drawn once per ``(dim, seed)`` and shared read-only."""
    coeffs = np.random.default_rng(seed).standard_normal(dim)
    coeffs /= math.sqrt(float(coeffs @ coeffs))
    coeffs.setflags(write=False)  # shared by every caller through the cache
    return coeffs


def _joint_points(operators: np.ndarray, coeffs: np.ndarray) -> list[tuple[float, ...]]:
    """One point per eigenvector ``v`` of ``sum_j coeffs[j] * operators[j]``:
    the Rayleigh quotients ``v @ op @ v`` of the stacked operators, one per
    axis.

    Both products broadcast: the first is one gemv ``v @ op`` per (atom,
    axis) and the second one dot of each such row with its ``v``, the calls
    a loop over atoms and axes makes, so every point has that loop's bits.
    Operators that overflowed give points that are not finite, with no
    numpy warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        _, vectors = np.linalg.eigh(sum(c * op for c, op in zip(coeffs, operators)))
        vt = vectors.T
        rows = vt[:, None, None, :] @ operators
        return list(map(tuple, (rows @ vt[:, None, :, None])[:, :, 0, 0].tolist()))


def extract_atoms(
    s: MomentSequence,
    level: int,
    rank_tol: float = DEFAULT_RANK_TOL,
    tol: float = DEFAULT_PSD_TOL,
    seed: int = 0,
) -> AtomicMeasure:
    """Extract the atomic measure certified by a flat level.

    Parameters
    ----------
    s : MomentSequence
        Multidimensional moment data.
    level : int
        A level at which :func:`flat_rank` reports ``is_flat``.
    rank_tol, tol : float
        Rank threshold and the shared tolerance for the commutator and
        validation checks (no positivity check is made).
    seed : int
        Seed for the one random linear combination of the operators whose
        eigenvectors diagonalize them; the result is deterministic given a
        seed, and any draw that separates the atoms yields the same measure
        up to ``tol``-level noise.  A draw that does not raises
        :class:`IllConditionedWeights` or :class:`ValidationFailure`.

    Returns
    -------
    AtomicMeasure
        ``r`` atoms reproducing every moment of degree <= ``2*level`` (the
        range a flat pair certifies) within ``tol`` relative.

    Raises
    ------
    ValidationFailure
        If the atoms miss a moment of degree <= ``2*level`` by more than
        ``tol`` relative, or a point's power through that degree leaves
        double range (checked before the weight fit), or the flat rank is 0
        while some moment exceeds ``tol``.
    """
    return _extract(s, flat_rank(s, level, rank_tol), tol, seed)


def _extract(
    s: MomentSequence, fr: FlatRankResult, tol: float, seed: int
) -> AtomicMeasure:
    """:func:`extract_atoms` on a level's ranked moment matrices."""
    level = fr.level
    operators, r = _operators(s, fr, tol)
    if r == 0:
        # np.max keeps a NaN entry, and a NaN is a miss.
        worst = float(np.max(np.abs(s._float_table())))
        if not worst <= tol:
            raise ValidationFailure(
                f"rank 0 but moments reach {worst:g}; data is inconsistent",
                worst=worst, tolerance=tol,
            )
        return AtomicMeasure(s.dim, [])

    # One seeded probe: a draw that does not separate the atoms is refused
    # below by the weight fit or the moment check.  Each point is the
    # Rayleigh quotients of one eigenvector, one per axis, from two
    # broadcast products with the bits of one v @ op @ v per atom and axis.
    points = _joint_points(operators, _probe_direction(s.dim, seed))

    # A flat pair at ``level`` certifies the moments through degree 2*level.
    # One table of powers through that degree serves both the weight fit,
    # on its leading rows (the monomials of degree <= level, nested in
    # graded-lex order), and the moment check.
    degree = 2 * level
    try:
        table = monomial_values(s.dim, points, degree)
    except OverflowError:  # refused below, unchained: its traceback holds the scan's frame
        coordinates = np.array([math.inf])
    else:
        coordinates = table[1 : 1 + s.dim]  # inf or NaN where the operators overflowed
    if not np.isfinite(coordinates).all():
        raise ValidationFailure(
            f"an extracted point has a power beyond double range by degree "
            f"{degree}; it cannot reproduce the input moments",
            worst=float(coordinates[~np.isfinite(coordinates)][0]), tolerance=tol,
        )

    a = table[: math.comb(s.dim + level, s.dim)]
    weights, _, lstsq_rank, _ = np.linalg.lstsq(a, moment_vector(s, level), rcond=None)
    if lstsq_rank < r:
        raise IllConditionedWeights(
            f"weight system has rank {lstsq_rank} < {r}; atoms are not "
            f"separated enough to assign weights", rank=int(lstsq_rank),
        )
    if any(w <= 0.0 for w in weights):
        raise IllConditionedWeights(
            f"weight fit produced nonpositive weights: {list(weights)}",
            min_weight=float(min(weights)),
        )

    measure = AtomicMeasure(s.dim, list(zip(points, (float(w) for w in weights))))
    _require_table_reproduces(table, weights, s, degree, tol, "extracted measure")
    return measure


def extract_atoms_auto(
    s: MomentSequence,
    rank_tol: float = DEFAULT_RANK_TOL,
    tol: float = DEFAULT_PSD_TOL,
    seed: int = 0,
) -> tuple[AtomicMeasure, int]:
    """Scan truncation levels and extract at the first one that works.

    Tries ``level = 1 .. max_degree // 2`` in order, skipping levels that
    are not flat or where extraction fails its internal checks, and returns
    ``(measure, level)`` for the first success.  Raises
    :class:`DegreeOverflow` when the data stops below degree 2, where there
    is no level to scan, :class:`EigenFailure` when a scanned level's
    matrix holds an exact entry beyond double range, and :class:`NotFlat`
    when no level admits a validated extraction.  The data is read as
    doubles; :func:`momentkit.solve` takes data with ``inf`` markers or
    exact entries beyond double range.
    """
    if s.max_degree < 2:
        raise DegreeOverflow(
            f"flat extraction needs moments of degree 2 or more; the data "
            f"has degree {s.max_degree}"
        )
    failures: list[tuple[int, MomentError]] = []
    fr: FlatRankResult | None = None
    for level in range(1, s.max_degree // 2 + 1):
        if fr is None:
            fr = flat_rank(s, level, rank_tol)
        else:
            # The previous level's matrix and rank are this level's
            # previous ones.
            matrix = _moment_matrix(s, level)
            fr = FlatRankResult(
                level, numerical_rank(matrix, rank_tol), fr.rank, matrix, fr.matrix
            )
        if not fr.is_flat:
            continue
        try:
            return _extract(s, fr, tol, seed), level
        except (CommutatorTooLarge, IllConditionedWeights, ValidationFailure) as exc:
            # Without its traceback, which holds this frame and so this list.
            failures.append((level, exc.with_traceback(None)))
    detail = "; ".join(f"level {level}: {exc}" for level, exc in failures)
    raise NotFlat(
        f"no truncation level up to {s.max_degree // 2} admits a validated "
        f"atomic extraction{f' ({detail})' if detail else ''}",
        failures=failures,
    )
