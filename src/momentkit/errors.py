"""Exception hierarchy and warning categories shared across the package."""

from __future__ import annotations

import functools


class MomentError(Exception):
    """Base class for all errors raised by this package.  Keywords set the
    evidence attributes the class declares, e.g. ``ValidationFailure(message,
    worst=w, index=alpha, tolerance=tol)``; any other raises ``TypeError``."""

    def __init__(self, *args: object, **evidence: object) -> None:
        super().__init__(*args)
        declared = _evidence_names(type(self))
        for name, value in evidence.items():
            if name not in declared:
                raise TypeError(f"{type(self).__name__} has no evidence {name!r}")
            setattr(self, name, value)


@functools.cache
def _evidence_names(cls: type) -> frozenset[str]:
    """The evidence attributes ``cls`` and its bases declare (annotate)."""
    return frozenset(
        name for c in cls.__mro__ for name in vars(c).get("__annotations__", ())
    )


class DimMismatch(MomentError):
    """Objects with incompatible ambient dimensions were combined."""


class DegreeOverflow(MomentError):
    """An operation needs moment entries beyond the truncation degree."""


class FileFormatError(MomentError):
    """A moment, measure, or polynomial file violates its format."""


class ZeroMass(MomentError):
    """The mass ``s_0`` does not allow normalization."""


class TrivialFunctional(ZeroMass):
    """``s_0 = 0``: a positive functional with zero mass vanishes identically."""


class NotPositive(ZeroMass):
    """``s_0 < 0``: the data cannot come from a nonnegative measure."""


class NegativeMoment(MomentError):
    """A moment that must be nonnegative is negative."""


class NotNormalized(MomentError):
    """An operation that requires ``s_0 = 1`` received unnormalized data."""


class EigenFailure(MomentError):
    """An eigenvalue or singular-value computation failed or hit non-finite data.

    ``scale`` is the growth scale of a 1-D Gauss rule when it, or one of its
    powers, leaves double range, and ``level`` the level of a flat-rank
    moment matrix with an exact entry beyond double range; each is ``None``
    when it played no part.
    """

    scale: float | None = None
    level: int | None = None


class HypothesisFailure(MomentError):
    """A precondition of a diagnostic check does not hold for the data.

    When a marginal moment matrix is not positive semidefinite,
    ``min_eigenvalue`` is its smallest eigenvalue, ``level`` its level and
    ``matrix`` ``"plain"`` or ``"shifted"`` (the index-shifted one); each is
    ``None`` otherwise.
    """

    min_eigenvalue: float | None = None
    level: int | None = None
    matrix: str | None = None


class RankCollapse(MomentError):
    """The numerical rank of the moment matrix is inconsistent with the data:
    ``mass`` an ``s_0`` that cannot carry it, ``rank`` the rank decided and
    ``eigenvalue`` a nonpositive one among a flat level's top ``rank``, each
    ``None`` when it played no part."""

    mass: float | None = None
    rank: int | None = None
    eigenvalue: float | None = None


class NotFlat(MomentError):
    """No truncation level exhibits the rank stabilization needed for extraction.

    When a level scan refuses, ``failures`` holds a ``(level, error)`` pair
    for each level whose extraction failed a check, in scan order; it is
    ``None`` when no scan was run.
    """

    failures: list[tuple[int, MomentError]] | None = None


class CommutatorTooLarge(MomentError):
    """Compressed multiplication operators fail to commute within tolerance.

    ``pair`` is the ``(i, j)`` of the first pair of coordinate operators that
    failed, ``norm`` its commutator norm and ``bound`` the norm it exceeded;
    each is ``None`` when no pair was compared.
    """

    pair: tuple[int, int] | None = None
    norm: float | None = None
    bound: float | None = None


class IllConditionedWeights(MomentError):
    """The weight-recovery least-squares problem is rank deficient or yields
    nonpositive weights.

    ``rank`` is the least-squares rank when it fell short, and
    ``min_weight`` the smallest weight when one was not positive; the other
    is ``None``.
    """

    rank: int | None = None
    min_weight: float | None = None


class ValidationFailure(MomentError):
    """A reconstructed measure does not reproduce the input moments within
    tolerance.

    ``worst`` is the worst relative residual that decided the miss, NaN
    included, ``index`` the multi-index of its entry (of the first NaN
    residual, if any) and ``tolerance`` the tolerance it exceeded; each is
    ``None`` when no residual was taken.
    """

    worst: float | None = None
    index: tuple[int, ...] | None = None
    tolerance: float | None = None


class NoPreimage(MomentError):
    """No point of the ambient space maps onto a solved atom within tolerance."""


class MembershipViolation(MomentError):
    """A point violates the inequalities that cut out the feasible set."""


class ClampedNodeWarning(UserWarning):
    """A slightly negative quadrature node was clamped to zero."""


class AmbiguousPreimageWarning(UserWarning):
    """Several distinct feasible preimages were found for one atom."""
