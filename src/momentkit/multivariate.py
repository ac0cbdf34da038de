"""Atomic measure extraction from multidimensional moment data by rank
stabilization and compressed multiplication operators.

When the moment matrix at level ``n`` has the same numerical rank ``r`` as
the one at level ``n - 1`` (a *flat* pair), the data at that level is the
moment data of an ``r``-atom measure, and the atoms can be read off
spectrally: compress the coordinate-shifted moment matrices onto the top
eigenspace of the level-``(n-1)`` matrix, giving ``r x r`` symmetric
operators, one per coordinate, that commute for consistent data and are
simultaneously diagonalized by the spectrum of a random linear combination.
The joint eigenvalues are the atom coordinates; weights follow from a
monomial-evaluation least-squares fit.

The coordinate-shifted matrices are not assembled: the one for ``x_j`` at
level ``n - 1`` is the block of the flat pair's level-``n`` moment matrix
with rows ``alpha + e_j`` and columns ``beta``.  The level scan of
:func:`extract_atoms_auto` assembles and ranks each level's moment matrix
once and reuses it as the next level's previous matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CommutatorTooLarge,
    DegenerateSpectrum,
    IllConditionedWeights,
    NotFlat,
    RankCollapse,
    ValidationFailure,
)
from .matrices import (
    DEFAULT_PSD_TOL,
    DEFAULT_RANK_TOL,
    SymmetricMatrixWithBasis,
    _sum_positions,
    moment_matrix,
    moment_vector,
    monomial_values,
    numerical_rank,
    reproduction_residuals,
    require_psd,
)
from .polynomials import AtomicMeasure, MomentSequence, _to_float

#: Minimum (relative) spectral gap for a random probe to count as separating.
GAP_TOL = 1e-6
#: How many random probes to try before giving up on a separating spectrum.
MAX_PROBES = 5


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
    ``level - 1`` is the leading block of the one at ``level``.
    """
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    matrix = moment_matrix(s, level)
    previous = matrix._leading(math.comb(s.dim + level - 1, s.dim))
    return FlatRankResult(
        level,
        numerical_rank(matrix, rank_tol),
        numerical_rank(previous, rank_tol),
        matrix,
        previous,
    )


def multiplication_operators(
    s: MomentSequence,
    level: int,
    rank_tol: float = DEFAULT_RANK_TOL,
    tol: float = DEFAULT_PSD_TOL,
) -> tuple[list[np.ndarray], int]:
    """Compressed coordinate-multiplication operators at a flat level.

    Returns one symmetric ``r x r`` matrix per coordinate (``r`` the flat
    rank) whose joint spectrum carries the atom coordinates, along with
    ``r``.  Raises :class:`NotFlat` when the rank has not stabilized,
    :class:`NotPsd` when the moment matrix is not positive semidefinite, and
    :class:`CommutatorTooLarge` when the operators fail to commute within
    ``tol`` (relative to their norms) — the signature of data that is not
    consistently atomic at this level.
    """
    return _operators(s, flat_rank(s, level, rank_tol), tol)


def _shift_matrix(dim: int, fr: FlatRankResult, axis: int) -> np.ndarray:
    """The localizing matrix of ``x_axis`` at level ``fr.level - 1``, read
    out of the moment matrix at ``fr.level``.

    Its entries ``s[alpha + e_axis + beta]`` sit in rows ``alpha + e_axis``
    and columns ``beta``, where ``basis[1 + axis]`` is ``e_axis``.  Adding
    0.0 turns a -0.0 entry into 0.0, as the localizing matrix's sum from
    zero does, so the two agree bit for bit.
    """
    n = fr.previous_matrix.size
    rows = _sum_positions(dim, fr.level)[:n, 1 + axis]
    return 0.0 + fr.matrix.entries[rows][:, :n]


def _operators(
    s: MomentSequence, fr: FlatRankResult, tol: float
) -> tuple[list[np.ndarray], int]:
    """:func:`multiplication_operators` on a level's ranked moment matrices."""
    level = fr.level
    if not fr.is_flat:
        raise NotFlat(
            f"rank grows from {fr.previous_rank} to {fr.rank} between levels "
            f"{level - 1} and {level}"
        )
    require_psd(fr.matrix, tol, label=f"moment matrix (level {level})")
    r = fr.rank
    if r == 0:
        return [], 0

    eigenvalues, eigenvectors = np.linalg.eigh(fr.previous_matrix.entries)
    # top-r eigenpairs span the column space; whiten so the compression is a
    # congruence by an orthonormal-in-measure basis
    lam = eigenvalues[-r:]
    if float(lam[0]) <= 0.0:
        raise RankCollapse(
            f"rank-{r} compression hit a nonpositive eigenvalue {lam[0]:g}"
        )
    u = eigenvectors[:, -r:]
    w = u / np.sqrt(lam)

    operators: list[np.ndarray] = []
    for axis in range(s.dim):
        op = w.T @ _shift_matrix(s.dim, fr, axis) @ w
        operators.append((op + op.T) / 2.0)

    norms = [float(np.max(np.sum(np.abs(op), axis=1))) for op in operators]
    for i in range(len(operators)):
        for j in range(i + 1, len(operators)):
            comm = operators[i] @ operators[j] - operators[j] @ operators[i]
            comm_norm = float(np.max(np.sum(np.abs(comm), axis=1)))
            bound = tol * max(1.0, norms[i] * norms[j])
            if comm_norm > bound:
                raise CommutatorTooLarge(
                    f"coordinate operators {i} and {j} do not commute: "
                    f"commutator norm {comm_norm:g} exceeds {bound:g}"
                )
    return operators, r


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
        Rank threshold and the shared tolerance for positivity, commutator,
        and validation checks.
    seed : int
        Seed for the random separating linear combination; the result is
        deterministic given a seed, and any separating draw yields the same
        measure up to ``tol``-level noise.

    Returns
    -------
    AtomicMeasure
        ``r`` atoms reproducing every moment of degree <= ``2*level`` (the
        range a flat pair certifies) within ``tol`` relative (checked;
        :class:`ValidationFailure` if not).
    """
    return _extract(s, flat_rank(s, level, rank_tol), tol, seed)


def _extract(
    s: MomentSequence, fr: FlatRankResult, tol: float, seed: int
) -> AtomicMeasure:
    """:func:`extract_atoms` on a level's ranked moment matrices."""
    level = fr.level
    operators, r = _operators(s, fr, tol)
    if r == 0:
        worst = max(abs(_to_float(v)) for v in s.values.values())
        if worst > tol:
            raise ValidationFailure(
                f"rank 0 but moments reach {worst:g}; data is inconsistent"
            )
        return AtomicMeasure(s.dim, [])

    rng = np.random.default_rng(seed)
    vectors = None
    for _ in range(MAX_PROBES):
        coeffs = rng.standard_normal(s.dim)
        coeffs /= math.sqrt(float(coeffs @ coeffs))
        probe = sum(c * op for c, op in zip(coeffs, operators))
        eigenvalues, eigenvectors = np.linalg.eigh(probe)
        if r == 1:
            vectors = eigenvectors
            break
        spread = max(float(eigenvalues[-1] - eigenvalues[0]), 1.0)
        gaps = np.diff(eigenvalues)
        if float(np.min(gaps)) > GAP_TOL * spread:
            vectors = eigenvectors
            break
    if vectors is None:
        raise DegenerateSpectrum(
            f"no random probe separated the {r} operator eigenvalues in "
            f"{MAX_PROBES} attempts"
        )

    points = []
    for k in range(r):
        v = vectors[:, k]
        points.append(tuple(float(v @ op @ v) for op in operators))

    a = monomial_values(s.dim, points, level)
    weights, _, lstsq_rank, _ = np.linalg.lstsq(a, moment_vector(s, level), rcond=None)
    if lstsq_rank < r:
        raise IllConditionedWeights(
            f"weight system has rank {lstsq_rank} < {r}; atoms are not "
            f"separated enough to assign weights"
        )
    if any(w <= 0.0 for w in weights):
        raise IllConditionedWeights(
            f"weight fit produced nonpositive weights: {list(weights)}"
        )

    measure = AtomicMeasure(s.dim, list(zip(points, (float(w) for w in weights))))

    # A flat pair at ``level`` certifies the moments through degree 2*level.
    degree = min(2 * level, s.max_degree)
    worst = max([0.0, *reproduction_residuals(measure, s, degree)])
    if worst > tol:
        raise ValidationFailure(
            f"extracted measure misses the input moments: worst relative "
            f"residual {worst:g} exceeds {tol:g}"
        )
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
    ``(measure, level)`` for the first success.  Raises :class:`NotFlat`
    when no level admits a validated extraction.
    """
    failures: list[str] = []
    fr: FlatRankResult | None = None
    for level in range(1, s.max_degree // 2 + 1):
        if fr is None:
            fr = flat_rank(s, level, rank_tol)
        else:
            # The previous level's matrix and rank are this level's
            # previous ones.
            matrix = moment_matrix(s, level)
            fr = FlatRankResult(
                level, numerical_rank(matrix, rank_tol), fr.rank, matrix, fr.matrix
            )
        try:
            return _extract(s, fr, tol, seed), level
        except NotFlat:
            continue
        except (
            CommutatorTooLarge,
            DegenerateSpectrum,
            IllConditionedWeights,
            ValidationFailure,
        ) as exc:
            failures.append(f"level {level}: {exc}")
    detail = f" ({'; '.join(failures)})" if failures else ""
    raise NotFlat(
        f"no truncation level up to {s.max_degree // 2} admits a validated "
        f"atomic extraction{detail}"
    )
