"""Reduction of a constrained moment problem to an unconstrained one in the
image of its constraint polynomials.

A semi-algebraic presentation is a list of polynomials ``f_1, ..., f_m`` in
``d`` variables; the feasible set is ``{x : f_j(x) >= 0 for all j}``.  The
substitution ``y_j -> f_j`` is a unital algebra homomorphism from
``m``-variable polynomials to ``d``-variable ones, and composing it with the
moment functional of ``s`` produces pushed-forward moment data in the image
variables.  If an atomic measure represents the pushed data on the closed
positive orthant, pulling each atom back through the joint evaluation map
``x -> (f_1(x), ..., f_m(x))`` produces an atomic representing measure for
the original data supported on the feasible set.  When the constraint
polynomials generate the full polynomial algebra, the evaluation map is
injective and the pull-back is unambiguous; :func:`check_generates` decides
that property exactly within a degree budget, and its witnesses are the
inverse map that :func:`pull_back_atoms` evaluates.

The images ``f^alpha`` and the generation certificate depend only on the
presentation, not on the data.  Each is built once per process for every
presentation (compared by its polynomials' contents) and degree budget, and
read from a fixed-size cache after that.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    AmbiguousPreimageWarning,
    DegreeOverflow,
    DimMismatch,
    MembershipViolation,
    NoPreimage,
)
from .polynomials import (
    AtomicMeasure,
    MomentSequence,
    MultiIndex,
    Polynomial,
    Scalar,
    _monomial_table,
    grlex_key,
)

#: Convergence tolerance for the Newton preimage search.
NEWTON_TOL = 1e-10
#: Iteration cap per Newton start.
NEWTON_STEPS = 40
#: Number of Newton starting points (spread over a box).
NEWTON_STARTS = 50
#: A Riesz value whose magnitude is below this fraction of the
#: no-cancellation scale ``sum_a |c_a| |s_a|`` is roundoff noise from exact
#: cancellation (data supported where the polynomial vanishes) and is
#: treated as zero.
RIESZ_CANCEL_TOL = 1e-12


@dataclass
class SemiAlgebraicPresentation:
    """Constraint polynomials ``f_1..f_m`` in ``d`` variables; the feasible
    set is where all of them are nonnegative."""

    dim: int
    generators: list[Polynomial]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dim}")
        if not self.generators:
            raise ValueError("a presentation needs at least one polynomial")
        for f in self.generators:
            if f.dim != self.dim:
                raise DimMismatch(
                    f"constraint in {f.dim} variables inside a "
                    f"{self.dim}-dimensional presentation"
                )

    @property
    def num_generators(self) -> int:
        return len(self.generators)

    @property
    def max_degree(self) -> int:
        """Largest constraint degree (at least 0 even if all are constant)."""
        return max(max(int(f.degree), 0) if not f.is_zero() else 0
                   for f in self.generators)

    def values_at(self, point: Sequence[Scalar]) -> tuple[Scalar, ...]:
        """The joint evaluation map ``x -> (f_1(x), ..., f_m(x))``."""
        return tuple(f.evaluate(point) for f in self.generators)

    def contains(self, point: Sequence[Scalar], tol: float = 0.0) -> bool:
        """Whether every constraint is ``>= -tol`` at ``point``."""
        return all(float(v) >= -tol for v in self.values_at(point))

    def substitute(self, poly: Polynomial) -> Polynomial:
        """Apply the homomorphism ``y_j -> f_j`` to an ``m``-variable
        polynomial, exactly.

        The result is ``sum_alpha poly_alpha * f^alpha`` with exact rational
        arithmetic, so ``substitute(p * q) == substitute(p) * substitute(q)``
        and ``substitute(p + q) == substitute(p) + substitute(q)`` hold as
        identities, not approximations.
        """
        if poly.dim != self.num_generators:
            raise DimMismatch(
                f"polynomial in {poly.dim} variables under a presentation "
                f"with {self.num_generators} constraints"
            )
        images = _image_monomials(self, 0 if poly.is_zero() else int(poly.degree))
        result = Polynomial.zero(self.dim)
        for alpha, coeff in poly.sorted_terms():
            result = result + images[alpha] * coeff
        return result


@dataclass
class GenerationResult:
    """Outcome of the exact generation check."""

    generated: bool
    budget: int
    witnesses: list[Polynomial] | None


#: A presentation's contents: its dimension and each generator's terms.
_PresentationKey = tuple[int, tuple[tuple[tuple[MultiIndex, Fraction], ...], ...]]


class _ImageAlgebra(NamedTuple):
    """The images ``f^alpha`` of one presentation for all ``|alpha| <=
    budget``, in graded-lex order of ``alpha``."""

    #: Read-only ``alpha -> f^alpha``.
    images: Mapping[MultiIndex, Polynomial]
    #: ``(alpha, terms of f^alpha in graded-lex order)`` for every image.
    sorted_terms: tuple[tuple[MultiIndex, tuple[tuple[MultiIndex, Fraction], ...]], ...]


def _presentation_key(pres: SemiAlgebraicPresentation) -> _PresentationKey:
    """A hashable copy of the generators' contents.

    Two presentations share a key only when their polynomials are equal, so
    a rebuilt or edited generator never reads another one's images.  Sorting
    compares multi-indices only: they are distinct within one polynomial.
    """
    return (
        pres.dim,
        tuple(tuple(sorted(f.terms.items())) for f in pres.generators),
    )


@functools.lru_cache(maxsize=32)
def _image_algebra(key: _PresentationKey, budget: int) -> _ImageAlgebra:
    """Build the images incrementally, each from one of degree one less."""
    dim, generator_terms = key
    generators = [Polynomial(dim, dict(terms)) for terms in generator_terms]
    images: dict[MultiIndex, Polynomial] = {}
    for alpha in _monomial_table(len(generators), budget):
        if sum(alpha) == 0:
            images[alpha] = Polynomial.constant(dim, 1)
            continue
        j = next(i for i, e in enumerate(alpha) if e)
        prev = tuple(e - (1 if i == j else 0) for i, e in enumerate(alpha))
        images[alpha] = images[prev] * generators[j]
    return _ImageAlgebra(
        MappingProxyType(images),
        tuple((alpha, tuple(image.sorted_terms())) for alpha, image in images.items()),
    )


def _image_monomials(
    pres: SemiAlgebraicPresentation, budget: int
) -> Mapping[MultiIndex, Polynomial]:
    """Read-only images ``f^alpha`` for all ``|alpha| <= budget``."""
    return _image_algebra(_presentation_key(pres), budget).images


def _solve_exact(
    columns: list[dict[MultiIndex, Fraction]],
    targets: list[dict[MultiIndex, Fraction]],
) -> list[dict[int, Fraction] | None]:
    """Solve ``A x = t`` exactly for several targets over the rationals.

    ``columns[j]`` is the sparse j-th column of ``A`` (rows keyed by
    multi-index); returns, per target, a sparse solution keyed by column
    index, or ``None`` when that target is outside the column span.
    """
    rows = sorted(
        {k for col in columns for k in col}
        | {k for t in targets for k in t},
        key=grlex_key,
    )
    row_pos = {k: i for i, k in enumerate(rows)}
    n_rows, n_cols, n_targets = len(rows), len(columns), len(targets)
    mat = [
        [Fraction(0)] * (n_cols + n_targets) for _ in range(n_rows)
    ]
    for j, col in enumerate(columns):
        for k, v in col.items():
            mat[row_pos[k]][j] = v
    for t, target in enumerate(targets):
        for k, v in target.items():
            mat[row_pos[k]][n_cols + t] = v

    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(n_cols):
        pivot_row = next(
            (i for i in range(row, n_rows) if mat[i][col]), None
        )
        if pivot_row is None:
            continue
        mat[row], mat[pivot_row] = mat[pivot_row], mat[row]
        inv = 1 / mat[row][col]
        mat[row] = [v * inv for v in mat[row]]
        for i in range(n_rows):
            if i != row and mat[i][col]:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[row])]
        pivots.append((row, col))
        row += 1
        if row == n_rows:
            break

    solutions: list[dict[int, Fraction] | None] = []
    for t in range(n_targets):
        rhs_col = n_cols + t
        consistent = all(
            not mat[i][rhs_col]
            for i in range(n_rows)
            if all(not mat[i][c] for c in range(n_cols))
        )
        if not consistent:
            solutions.append(None)
            continue
        sol = {
            col: mat[r][rhs_col] for r, col in pivots if mat[r][rhs_col]
        }
        solutions.append(sol)
    return solutions


def check_generates(
    pres: SemiAlgebraicPresentation, budget: int
) -> GenerationResult:
    """Decide exactly whether products of the constraints up to a degree
    budget span every coordinate.

    Parameters
    ----------
    pres : SemiAlgebraicPresentation
        The constraint polynomials.
    budget : int
        Images ``f^alpha`` with ``|alpha| <= budget`` are admitted.

    Returns
    -------
    GenerationResult
        ``generated`` is true iff every coordinate ``x_i`` is an exact
        rational combination of the admitted images; ``witnesses`` then
        holds one ``m``-variable polynomial per coordinate whose
        substitution equals that coordinate exactly.  A negative answer is
        only negative *for this budget*; generation might still hold with a
        larger one.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    witnesses = _certificate(_presentation_key(pres), budget)
    if witnesses is None:
        return GenerationResult(False, budget, None)
    return GenerationResult(True, budget, list(witnesses))


@functools.lru_cache(maxsize=32)
def _certificate(
    key: _PresentationKey, budget: int
) -> tuple[Polynomial, ...] | None:
    """The witnesses of :func:`check_generates`, or ``None`` when the
    admitted images do not span every coordinate."""
    dim, generator_terms = key
    images = _image_algebra(key, budget).images
    order = list(images)  # graded-lex, as built
    columns = [dict(images[alpha].terms) for alpha in order]
    targets = [dict(Polynomial.variable(dim, i).terms) for i in range(dim)]
    solved = _solve_exact(columns, targets)
    if any(sol is None for sol in solved):
        return None
    return tuple(
        Polynomial(len(generator_terms), {order[j]: c for j, c in sol.items()})
        for sol in solved  # type: ignore[union-attr]
    )


def pushforward_moments(
    s: MomentSequence, pres: SemiAlgebraicPresentation, image_degree: int
) -> MomentSequence:
    """Moment data of the functional composed with the substitution map.

    The pushed entry at ``alpha`` (an ``m``-multi-index) is the original
    functional applied to ``f^alpha``.  Exact when ``s`` is exact.

    Requires ``image_degree * max_degree(pres) <= s.max_degree`` so that the
    deepest image stays inside the data.
    """
    if pres.dim != s.dim:
        raise DimMismatch(
            f"presentation in {pres.dim} variables against "
            f"{s.dim}-dimensional moments"
        )
    if image_degree < 0:
        raise ValueError(f"image degree must be >= 0, got {image_degree}")
    need = image_degree * pres.max_degree
    if need > s.max_degree:
        raise DegreeOverflow(
            f"pushing forward to degree {image_degree} needs original entries "
            f"up to degree {need}, data stops at {s.max_degree}"
        )
    # Each sum is MomentSequence.riesz's, term for term, without its sort.
    algebra = _image_algebra(_presentation_key(pres), image_degree)
    values: dict[MultiIndex, Scalar] = {}
    for alpha, terms in algebra.sorted_terms:
        total: Scalar = 0
        for beta, coeff in terms:
            total = total + coeff * s.values[beta]
        values[alpha] = total
    return MomentSequence(pres.num_generators, image_degree, values)


def pushed_power_sequence(
    s: MomentSequence, f: Polynomial, count: int
) -> MomentSequence:
    """1-D data ``t_n = L(f^n)`` for ``n = 0..count``.

    For a plain coordinate this is the marginal and keeps any stored log
    values (so entries beyond double range stay classifiable); otherwise the
    powers are substituted exactly and evaluated through the functional, and
    a value that cancels to within :data:`RIESZ_CANCEL_TOL` becomes zero.
    """
    for axis in range(s.dim):
        if f == Polynomial.variable(s.dim, axis):
            return s.marginal_sequence(axis, count)
    powers = _image_monomials(SemiAlgebraicPresentation(s.dim, [f]), count)
    values: dict[MultiIndex, Scalar] = {(0,): s.riesz(powers[(0,)])}
    for n in range(1, count + 1):
        power = powers[(n,)]
        val = s.riesz(power)
        cancel_scale = 0.0
        for expo, coeff in power.terms.items():
            try:
                cancel_scale += abs(float(coeff)) * abs(float(s.value(expo)))
            except OverflowError:
                cancel_scale = math.inf
                break
        try:
            fv = float(val)
        except OverflowError:
            fv = math.inf
        if (
            math.isfinite(cancel_scale)
            and math.isfinite(fv)
            and fv != 0.0
            and abs(fv) <= RIESZ_CANCEL_TOL * cancel_scale
        ):
            val = 0.0
        values[(n,)] = val
    return MomentSequence(1, count, values)


def _newton_preimages(
    pres: SemiAlgebraicPresentation,
    target: Sequence[float],
    tol: float,
) -> list[tuple[float, ...]]:
    """Distinct Newton solutions of ``values_at(x) = target`` from a grid of
    starting points (numerical Jacobian, least-squares steps)."""
    d = pres.dim
    target_arr = np.asarray([float(t) for t in target])
    per_axis = max(3, math.ceil(NEWTON_STARTS ** (1.0 / d)))
    # Cover both signs: the feasible set need not sit in the positive
    # orthant, and distinct preimages of one atom often differ in sign.
    axis_points = np.linspace(-10.0, 10.0, per_axis)
    found: list[tuple[float, ...]] = []

    def residual(x: np.ndarray) -> np.ndarray:
        return (
            np.asarray([float(v) for v in pres.values_at(tuple(x))])
            - target_arr
        )

    for start in itertools.product(axis_points, repeat=d):
        x = np.asarray(start, dtype=float)
        ok = False
        for _ in range(NEWTON_STEPS):
            f = residual(x)
            if float(np.max(np.abs(f))) <= NEWTON_TOL:
                ok = True
                break
            jac = np.empty((len(f), d))
            for j in range(d):
                h = 1e-7 * max(1.0, abs(float(x[j])))
                xh = x.copy()
                xh[j] += h
                jac[:, j] = (residual(xh) - f) / h
            step, *_ = np.linalg.lstsq(jac, -f, rcond=None)
            if not np.all(np.isfinite(step)):
                break
            x = x + step
            if float(np.max(np.abs(step))) <= 1e-14 * max(
                1.0, float(np.max(np.abs(x)))
            ):
                f = residual(x)
                ok = float(np.max(np.abs(f))) <= NEWTON_TOL
                break
        if not ok or not np.all(np.isfinite(x)):
            continue
        candidate = tuple(float(v) for v in x)
        cluster_tol = max(tol, 1e-8)
        if all(
            max(abs(a - b) for a, b in zip(candidate, prev)) > cluster_tol
            for prev in found
        ):
            found.append(candidate)
    return found


def pull_back_atoms(
    nu: AtomicMeasure,
    pres: SemiAlgebraicPresentation,
    witnesses: Sequence[Polynomial] | None = None,
    tol: float = 1e-6,
) -> AtomicMeasure:
    """Pull an atomic measure on the image variables back to the feasible set.

    Parameters
    ----------
    nu : AtomicMeasure
        Atoms in the ``m`` image variables (one coordinate per constraint).
    pres : SemiAlgebraicPresentation
        The constraints defining the evaluation map and the feasible set.
    witnesses : sequence of Polynomial, optional
        One polynomial per coordinate in the ``m`` image variables with
        ``w_i(f_1, ..., f_m) = x_i`` (the inverse of the evaluation map, as
        :func:`check_generates` certifies it); when omitted, each preimage is
        found by a multi-start Newton search on the evaluation map.
    tol : float
        Residual tolerance for ``values_at(preimage) = atom`` and slack for
        the feasible-set membership test.

    Returns
    -------
    AtomicMeasure
        One preimage point per atom, carrying the same weight.  Preimages
        that coincide within ``tol`` are merged (weights added).

    Raises
    ------
    NoPreimage
        If some atom has no preimage within ``tol``.
    MembershipViolation
        If a preimage violates a constraint by more than ``tol``.

    Warns
    -----
    AmbiguousPreimageWarning
        If the Newton search finds several distinct feasible preimages for
        one atom (possible when the constraints do not generate the full
        algebra); the one with the smallest residual is kept.
    """
    if nu.dim != pres.num_generators:
        raise DimMismatch(
            f"atoms in {nu.dim} image variables against {pres.num_generators} "
            f"constraints"
        )
    if witnesses is not None and (
        len(witnesses) != pres.dim
        or any(w.dim != pres.num_generators for w in witnesses)
    ):
        raise DimMismatch("witness shape does not match the presentation")

    pulled: list[tuple[tuple[float, ...], Scalar]] = []
    for point, weight in nu.atoms:
        if witnesses is not None:
            candidates = [tuple(float(w.evaluate(point)) for w in witnesses)]
        else:
            candidates = _newton_preimages(pres, [float(v) for v in point], tol)
            if not candidates:
                raise NoPreimage(
                    f"no preimage found for atom {point} (Newton search failed)"
                )

        scored = []
        for x in candidates:
            values = pres.values_at(x)
            res = max(abs(float(v) - float(t)) for v, t in zip(values, point))
            scored.append((res, x))
        scored.sort(key=lambda rx: (rx[0], rx[1]))
        feasible = [
            (res, x) for res, x in scored
            if res <= tol and pres.contains(x, tol)
        ]
        if not feasible:
            best_res, best_x = scored[0]
            if best_res <= tol:
                violations = [
                    (j, float(v))
                    for j, v in enumerate(pres.values_at(best_x))
                    if float(v) < -tol
                ]
                raise MembershipViolation(
                    f"preimage {best_x} of atom {point} violates constraints "
                    f"{violations}"
                )
            raise NoPreimage(
                f"best candidate for atom {point} has residual {best_res:g} "
                f"above {tol:g}"
            )
        if len(feasible) > 1:
            warnings.warn(
                f"atom {point} has {len(feasible)} distinct feasible "
                f"preimages; keeping the smallest-residual one",
                AmbiguousPreimageWarning,
            )
        pulled.append((feasible[0][1], weight))

    merged: list[tuple[tuple[float, ...], Scalar]] = []
    for x, w in pulled:
        for i, (y, wy) in enumerate(merged):
            if max(abs(a - b) for a, b in zip(x, y)) <= tol:
                merged[i] = (y, wy + w)
                break
        else:
            merged.append((x, w))
    if len(merged) < len(pulled):
        warnings.warn(
            f"{len(pulled) - len(merged)} pulled-back atom(s) coincided and "
            f"were merged",
            AmbiguousPreimageWarning,
        )
    return AtomicMeasure(pres.dim, merged)
