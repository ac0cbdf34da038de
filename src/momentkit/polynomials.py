"""Sparse polynomials with exact rational coefficients, graded-lex multi-index
helpers, truncated moment sequences, and finite atomic measures.

Multi-indices are plain ``tuple[int, ...]``.  Everything that enumerates
monomials does so in graded lexicographic order: ascending total degree, and
within one degree descending powers of the first variable first, so that for
two variables the order reads ``1, x1, x2, x1^2, x1*x2, x2^2, ...``.
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

from .errors import DegreeOverflow, DimMismatch, NegativeMoment

__all__ = [
    "MultiIndex",
    "Scalar",
    "total_degree",
    "grlex_key",
    "monomials_of_degree",
    "monomials_up_to",
    "add_indices",
    "Polynomial",
    "MomentSequence",
    "AtomicMeasure",
]

MultiIndex = tuple[int, ...]
Scalar = Union[int, float, Fraction]

NEG_INF = float("-inf")


def total_degree(alpha: Sequence[int]) -> int:
    """Total degree ``|alpha|`` of a multi-index."""
    return sum(alpha)


def grlex_key(alpha: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Sort key realizing the graded lexicographic order."""
    return (sum(alpha), tuple(-a for a in alpha))


def _compositions(total: int, parts: int) -> Iterator[MultiIndex]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def monomials_of_degree(dim: int, degree: int) -> list[MultiIndex]:
    """All multi-indices of exact total degree ``degree`` in graded-lex order."""
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    if degree < 0:
        return []
    return list(_compositions(degree, dim))


@functools.lru_cache(maxsize=128)
def _monomial_table(dim: int, degree: int) -> tuple[MultiIndex, ...]:
    """The multi-indices of :func:`monomials_up_to`, enumerated once per
    ``(dim, degree)`` and shared by every caller through the cache."""
    out: list[MultiIndex] = []
    for t in range(degree + 1):
        out.extend(monomials_of_degree(dim, t))
    return tuple(out)


@functools.lru_cache(maxsize=128)
def _monomial_set(dim: int, degree: int) -> frozenset[MultiIndex]:
    return frozenset(_monomial_table(dim, degree))


@functools.lru_cache(maxsize=128)
def _monomial_index(dim: int, degree: int) -> Mapping[MultiIndex, int]:
    """Graded-lex position of every multi-index of degree <= ``degree``, read
    only (every caller shares it through the cache).  The order is nested,
    so a position holds in every longer table."""
    return MappingProxyType(
        {alpha: i for i, alpha in enumerate(_monomial_table(dim, degree))}
    )


@functools.lru_cache(maxsize=128)
def _axis_positions(dim: int, degree: int, axis: int) -> np.ndarray:
    """Graded-lex position of the pure power ``n * e_axis`` for ``n = 0 ..
    degree``, read only (every caller shares it through the cache)."""
    position = _monomial_index(dim, degree)
    positions = np.array(
        [
            position[tuple(n if j == axis else 0 for j in range(dim))]
            for n in range(degree + 1)
        ],
        dtype=np.intp,
    )
    positions.setflags(write=False)
    return positions


def monomials_up_to(dim: int, degree: int) -> list[MultiIndex]:
    """All multi-indices with total degree <= ``degree`` in graded-lex order."""
    return list(_monomial_table(dim, degree))


def add_indices(alpha: Sequence[int], beta: Sequence[int]) -> MultiIndex:
    if len(alpha) != len(beta):
        raise DimMismatch(f"multi-index lengths differ: {len(alpha)} vs {len(beta)}")
    return tuple(a + b for a, b in zip(alpha, beta))


def _coerce_coeff(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, float)):
        return Fraction(value)
    raise TypeError(f"cannot use {type(value).__name__} as a coefficient")


def _to_float(value: Scalar) -> float:
    """``float(value)``, or ``+-inf`` when an exact value's magnitude leaves
    double range (one that underflows is ``0.0``, as ``float`` gives it)."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


#: Rounded log of the largest double, and so of exact values just past it.
_LOG_MAX = math.log(sys.float_info.max)


def _exp(log_value: float) -> float:
    """``exp(log_value)``, or ``inf`` from :data:`_LOG_MAX` on, where the exp
    overflows or may stand for a value past double range."""
    return math.inf if log_value >= _LOG_MAX else math.exp(log_value)


def _log(value: Scalar, fv: float | None = None) -> float:
    """Natural log of a positive entry, given its :func:`_to_float` as ``fv``
    when the caller has it.  An exact entry whose float over- or underflows
    is logged as ``log(numerator) - log(denominator)``."""
    if fv is None:
        fv = _to_float(value)
    if not isinstance(value, (int, Fraction)) or 0.0 < fv < math.inf:
        return math.log(fv)
    exact = Fraction(value)
    return math.log(exact.numerator) - math.log(exact.denominator)


class Polynomial:
    """Immutable sparse polynomial with exact ``Fraction`` coefficients.

    Parameters
    ----------
    dim : int
        Number of variables (at least 1).
    terms : mapping from multi-index to coefficient, optional
        Zero coefficients are dropped; an empty mapping is the zero
        polynomial.  Coefficients may be ``int``, ``float``, or ``Fraction``
        and are stored exactly as rationals (a float contributes the exact
        rational it represents).

    ``terms`` is a read-only view of the private dict, so nothing changes
    the terms after construction, and their graded-lex order is sorted on
    its first read and kept (:meth:`sorted_terms` hands out a copy).
    Arithmetic and the image algebra of :mod:`momentkit.reduction` read the
    dict itself.  The results of ``+``, ``-``, ``*`` and ``**`` are built
    from canonical indices and ``Fraction`` coefficients, so they skip the
    constructor's checks and only drop their zero coefficients.
    """

    __slots__ = ("dim", "_terms", "_grlex")

    def __init__(self, dim: int, terms: Mapping[Sequence[int], Scalar] | None = None):
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        clean: dict[MultiIndex, Fraction] = {}
        for alpha, coeff in (terms or {}).items():
            idx = tuple(int(a) for a in alpha)
            if len(idx) != dim:
                raise DimMismatch(
                    f"multi-index {idx} has length {len(idx)}, expected {dim}"
                )
            if any(a < 0 for a in idx):
                raise ValueError(f"negative exponent in multi-index {idx}")
            c = _coerce_coeff(coeff)
            if c:
                clean[idx] = c
        self.dim = dim
        self._terms = clean
        self._grlex: tuple[tuple[MultiIndex, Fraction], ...] | None = None

    @classmethod
    def _from_terms(cls, dim: int, terms: dict[MultiIndex, Fraction]) -> "Polynomial":
        """The polynomial of ``terms``, whose indices are canonical ``int``
        tuples of length ``dim`` and whose coefficients are ``Fraction``
        values, as arithmetic builds them: only zero coefficients are dropped."""
        poly = cls.__new__(cls)
        poly.dim = dim
        poly._terms = {alpha: c for alpha, c in terms.items() if c}
        poly._grlex = None
        return poly

    @property
    def terms(self) -> Mapping[MultiIndex, Fraction]:
        """Read-only ``multi-index -> coefficient`` of the nonzero terms."""
        return MappingProxyType(self._terms)

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "Polynomial":
        return cls(dim, {})

    @classmethod
    def constant(cls, dim: int, value: Scalar) -> "Polynomial":
        return cls(dim, {(0,) * dim: value})

    @classmethod
    def variable(cls, dim: int, index: int) -> "Polynomial":
        """The coordinate polynomial ``x_{index+1}`` (``index`` is 0-based)."""
        if not 0 <= index < dim:
            raise ValueError(f"variable index {index} out of range for dim {dim}")
        alpha = tuple(1 if j == index else 0 for j in range(dim))
        return cls(dim, {alpha: 1})

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> float:
        """Total degree; ``-inf`` for the zero polynomial."""
        if not self._terms:
            return NEG_INF
        return max(sum(alpha) for alpha in self._terms)

    def coefficient(self, alpha: Sequence[int]) -> Fraction:
        return self._terms.get(tuple(alpha), Fraction(0))

    def sorted_terms(self) -> list[tuple[MultiIndex, Fraction]]:
        """Terms in graded-lex order of their multi-indices."""
        return list(self._grlex_terms())

    def _grlex_terms(self) -> tuple[tuple[MultiIndex, Fraction], ...]:
        """:meth:`sorted_terms`, sorted on the first call and kept."""
        if self._grlex is None:
            self._grlex = tuple(
                (a, self._terms[a]) for a in sorted(self._terms, key=grlex_key)
            )
        return self._grlex

    def is_zero(self) -> bool:
        return not self._terms

    # -- arithmetic ---------------------------------------------------------

    def _require_same_dim(self, other: "Polynomial") -> None:
        if self.dim != other.dim:
            raise DimMismatch(
                f"polynomials in {self.dim} and {other.dim} variables"
            )

    def __add__(self, other: "Polynomial | Scalar") -> "Polynomial":
        if isinstance(other, (int, float, Fraction)):
            other = Polynomial.constant(self.dim, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_dim(other)
        acc = dict(self._terms)
        for alpha, c in other._terms.items():
            acc[alpha] = acc.get(alpha, Fraction(0)) + c
        return Polynomial._from_terms(self.dim, acc)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._from_terms(self.dim, {a: -c for a, c in self._terms.items()})

    def __sub__(self, other: "Polynomial | Scalar") -> "Polynomial":
        return self + (-other if isinstance(other, Polynomial) else -_coerce_coeff(other))

    def __rsub__(self, other: Scalar) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other: "Polynomial | Scalar") -> "Polynomial":
        if isinstance(other, (int, float, Fraction)):
            c = _coerce_coeff(other)
            return Polynomial._from_terms(
                self.dim, {a: v * c for a, v in self._terms.items()}
            )
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_dim(other)
        acc: dict[MultiIndex, Fraction] = {}
        for alpha, ca in self._terms.items():
            for beta, cb in other._terms.items():
                gamma = add_indices(alpha, beta)
                acc[gamma] = acc.get(gamma, Fraction(0)) + ca * cb
        return Polynomial._from_terms(self.dim, acc)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        result = Polynomial._from_terms(self.dim, {(0,) * self.dim: Fraction(1)})
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.dim == other.dim and self._terms == other._terms

    __hash__ = None  # type: ignore[assignment]

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, point: Sequence[Scalar]) -> Scalar:
        """Evaluate at ``point``; exact when the coordinates are exact.

        Terms are accumulated in graded-lex order so that repeated
        evaluations follow one deterministic arithmetic path.
        """
        if len(point) != self.dim:
            raise DimMismatch(
                f"point of length {len(point)} for a {self.dim}-variable polynomial"
            )
        total: Scalar = 0
        for alpha, coeff in self._grlex_terms():
            value: Scalar = coeff
            for x, a in zip(point, alpha):
                if a:
                    value = value * x**a
            total = total + value
        return total

    def __repr__(self) -> str:
        return f"Polynomial({self.dim}, {self.to_string()!r})"

    def to_string(self, var_prefix: str = "x") -> str:
        """Human-readable infix form, highest-degree terms first."""
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for alpha, coeff in reversed(self._grlex_terms()):
            factors = [
                f"{var_prefix}{j + 1}" + (f"^{a}" if a > 1 else "")
                for j, a in enumerate(alpha)
                if a
            ]
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)


def _checked_moments(
    dim: int, max_degree: int, values: Mapping[Sequence[int], Scalar]
) -> dict[MultiIndex, Scalar]:
    """Moment data keyed by canonical multi-indices, or the error that says
    why ``values`` is not one entry for every ``|alpha| <= max_degree``."""
    store: dict[MultiIndex, Scalar] = {}
    for alpha, v in values.items():
        idx = tuple(int(a) for a in alpha)
        if len(idx) != dim:
            raise DimMismatch(
                f"moment index {idx} has length {len(idx)}, expected {dim}"
            )
        if any(a < 0 for a in idx):
            raise ValueError(f"negative exponent in moment index {idx}")
        if sum(idx) > max_degree:
            raise DegreeOverflow(
                f"moment index {idx} exceeds truncation degree {max_degree}"
            )
        if idx in store:
            raise ValueError(f"duplicate moment index {idx}")
        store[idx] = v
    for alpha in _monomial_table(dim, max_degree):
        if alpha not in store:
            raise ValueError(
                f"incomplete moment data: index {alpha} is missing "
                f"(every |alpha| <= {max_degree} must be present)"
            )
    return store


class MomentSequence:
    """Truncated moment data: one value for every multi-index ``|alpha| <= D``.

    Parameters
    ----------
    dim : int
        Ambient dimension.
    max_degree : int
        Truncation degree ``D``.
    values : mapping from multi-index to number
        Must contain every multi-index of total degree <= ``D`` exactly once.
        Values may be ``int``/``Fraction`` (exact mode) or ``float``; a float
        ``inf`` is allowed as an overflow marker provided the corresponding
        logarithm is supplied in ``log_values``.
    log_values : mapping from multi-index to float, optional
        Natural logarithms for (some) entries.  When present for an index it
        is authoritative for log-domain computations, which is how entries
        too large for IEEE doubles stay usable.

    The object is immutable: nothing changes ``values`` or ``log_values``
    after construction, so what is derived from them may be kept.  Every
    float read of the library goes through one read-only table of
    ``_to_float`` of each entry in graded-lex order, converted on the first
    float read (:meth:`_float_table`); the marginal view of the growth
    diagnostics reads the same table.  A store the library builds itself,
    complete and in graded-lex order (a parsed moment file, normalized,
    restricted or pushed-forward data), is taken over without the key check
    and the copy; its mass is checked all the same.
    """

    __slots__ = (
        "dim",
        "max_degree",
        "values",
        "log_values",
        "_marginals",
        "_floats",
        "_all_float",
        "_overflow_at",
    )

    def __init__(
        self,
        dim: int,
        max_degree: int,
        values: Mapping[Sequence[int], Scalar],
        log_values: Mapping[Sequence[int], float] | None = None,
    ):
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        if max_degree < 0:
            raise ValueError(f"max_degree must be >= 0, got {max_degree}")
        if values.keys() != _monomial_set(dim, max_degree):
            values = _checked_moments(dim, max_degree, values)
        # Keyed by the table's own tuples, so every index is a canonical
        # ``int`` tuple and the store reads in graded-lex order.
        store = {alpha: values[alpha] for alpha in _monomial_table(dim, max_degree)}
        logs: dict[MultiIndex, float] = {}
        for alpha, lv in (log_values or {}).items():
            idx = tuple(int(a) for a in alpha)
            if idx not in store:
                raise ValueError(f"log value for unknown moment index {idx}")
            logs[idx] = float(lv)
        self._take(dim, max_degree, store, logs)

    @classmethod
    def _assembled(
        cls,
        dim: int,
        max_degree: int,
        store: dict[MultiIndex, Scalar],
        logs: dict[MultiIndex, float],
    ) -> "MomentSequence":
        """Take over a store the library built: one entry for every index
        of ``_monomial_table(dim, max_degree)``, keyed by canonical ``int``
        tuples in that order, and float ``logs`` keyed by some of them.  The
        key check and the copy of ``__init__`` are skipped; the mass check
        is kept."""
        s = cls.__new__(cls)
        s._take(dim, max_degree, store, logs)
        return s

    def _take(
        self,
        dim: int,
        max_degree: int,
        store: dict[MultiIndex, Scalar],
        logs: dict[MultiIndex, float],
    ) -> None:
        """Check the mass and keep ``store`` and ``logs`` as they are."""
        s0 = store[(0,) * dim]
        if isinstance(s0, float) and not math.isfinite(s0):
            raise ValueError("mass s_0 must be finite")
        self.dim = dim
        self.max_degree = max_degree
        self.values = store
        self.log_values = logs
        # axis -> (floats, logs) of its pure powers, made on the first read
        self._marginals: dict | None = None
        # the float table; _all_float and _overflow_at are set with it
        self._floats: np.ndarray | None = None

    # -- access ----------------------------------------------------------

    def _float_table(self) -> np.ndarray:
        """:func:`_to_float` of every entry in graded-lex order, converted
        on the first call and kept read-only.

        Building it also sets ``_all_float`` (every entry is a ``float``)
        and ``_overflow_at``, the position of the first exact entry beyond
        double range (the table's length when there is none).
        """
        if self._floats is None:
            values = list(self.values.values())
            self._all_float = set(map(type, values)) == {float}
            if self._all_float:
                table = np.array(values, dtype=float)
                self._overflow_at = len(values)
            else:
                table = np.array([_to_float(v) for v in values], dtype=float)
                self._overflow_at = next(
                    (
                        int(i)
                        for i in np.flatnonzero(~np.isfinite(table))
                        if not isinstance(values[i], float)
                    ),
                    len(values),
                )
            table.setflags(write=False)
            self._floats = table
        return self._floats

    def _float_prefix(self, count: int) -> np.ndarray:
        """The first ``count`` entries of :meth:`_float_table`, read-only.

        Raises ``OverflowError``, as ``float`` does, when they reach an
        exact entry beyond double range.
        """
        table = self._float_table()
        if count > self._overflow_at:
            alpha = _monomial_table(self.dim, self.max_degree)[self._overflow_at]
            float(self.values[alpha])  # raises OverflowError
        return table[:count]

    def indices(self) -> list[MultiIndex]:
        """All stored multi-indices in graded-lex order."""
        return monomials_up_to(self.dim, self.max_degree)

    def value(self, alpha: Sequence[int]) -> Scalar:
        idx = tuple(alpha)
        if len(idx) != self.dim:
            raise DimMismatch(
                f"moment index of length {len(idx)} for dimension {self.dim}"
            )
        if sum(idx) > self.max_degree:
            raise DegreeOverflow(
                f"moment index {idx} exceeds truncation degree {self.max_degree}"
            )
        return self.values[idx]

    def log_value(self, alpha: Sequence[int]) -> float:
        """Natural log of the entry; ``-inf`` for a zero entry.

        Falls back to the log of the value when no stored log exists (an
        exact value outside double range is logged exactly); raises
        :class:`NegativeMoment` if the entry is negative.
        """
        idx = tuple(alpha)
        v = self.value(idx)
        lv = self._entry_log(idx)
        if lv is None:
            raise NegativeMoment(f"moment at {idx} is negative: {v}")
        return lv

    def _entry_log(self, idx: MultiIndex, fv: float | None = None) -> float | None:
        """The stored log of the entry at ``idx``, else ``-inf`` for a zero
        entry, ``None`` for a negative one and :func:`_log` of any other
        (``fv`` is its :func:`_to_float` when the caller has it)."""
        lv = self.log_values.get(idx)
        if lv is None:
            v = self.values[idx]
            lv = None if v < 0 else NEG_INF if v == 0 else _log(v, fv)
        return lv

    def marginal(self, axis: int, order: int) -> Scalar:
        """The pure-power entry ``s[order * e_axis]``."""
        return self.value(self._axis_index(axis, order))

    def log_marginal(self, axis: int, order: int) -> float:
        """:meth:`log_value` of the pure-power entry ``s[order * e_axis]``."""
        return self.log_value(self._axis_index(axis, order))

    def _marginal_logs(self, axis: int, orders: range) -> list[float]:
        """:meth:`log_marginal` of every order in ``orders``, from the
        marginal view; the first negative entry read raises."""
        logs = self._marginal_view(axis)[1]
        picked = [logs[n] for n in orders]
        if None in picked:
            n = orders[picked.index(None)]
            self.log_value(self._axis_index(axis, n))  # raises NegativeMoment
        return picked

    def _marginal_view(self, axis: int) -> tuple[list[float], list[float | None]]:
        """``_to_float`` and :meth:`log_value` of ``s[n * e_axis]`` for
        ``n = 0..max_degree``, converted on the first read of ``axis`` and
        kept.  A negative entry without a stored log has the log ``None``,
        so that :class:`NegativeMoment` is raised only where it is read
        (:meth:`_marginal_logs`)."""
        if self._marginals is None:
            self._marginals = {}
        view = self._marginals.get(axis)
        if view is None:
            self._axis_index(axis, 0)  # raises on an axis out of range
            picked = self._float_table()[
                _axis_positions(self.dim, self.max_degree, axis)
            ]
            floats: list[float] = picked.tolist()
            logs: list[float | None]
            if not self.log_values and 0.0 < picked.min() and picked.max() < math.inf:
                # Every entry is positive with a finite float, which is the
                # one ``_log`` logs.
                logs = list(map(math.log, floats))
            else:
                logs = [
                    self._entry_log(self._axis_index(axis, n), fv)
                    for n, fv in enumerate(floats)
                ]
            view = self._marginals[axis] = (floats, logs)
        return view

    def marginal_sequence(self, axis: int, max_order: int) -> "MomentSequence":
        """The 1-D data ``m_n = s[n * e_axis]`` for ``n = 0..max_order``,
        keeping the stored log of every entry that has one."""
        idx = [self._axis_index(axis, n) for n in range(max_order + 1)]
        values = {(n,): self.value(i) for n, i in enumerate(idx)}
        logs = {
            (n,): self.log_values[i]
            for n, i in enumerate(idx)
            if i in self.log_values
        }
        return MomentSequence(1, max_order, values, logs)

    def _axis_index(self, axis: int, order: int) -> MultiIndex:
        if not 0 <= axis < self.dim:
            raise ValueError(f"axis {axis} out of range for dimension {self.dim}")
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        return tuple(order if j == axis else 0 for j in range(self.dim))

    @property
    def mass(self) -> Scalar:
        return self.values[(0,) * self.dim]

    def finite_degree(self) -> int:
        """Largest degree whose entries (and all below) are finite doubles.

        Entries beyond it — ``inf`` markers or exact integers too large for
        IEEE doubles — are still usable through :meth:`log_value`, but no
        matrix can be built from them.
        """
        # Degree 0 is skipped: a float mass is checked finite on
        # construction, and an exact one may overflow.
        bad = np.flatnonzero(~np.isfinite(self._float_table()[1:]))
        if bad.size:
            return sum(_monomial_table(self.dim, self.max_degree)[bad[0] + 1]) - 1
        return self.max_degree

    # -- the associated linear functional ---------------------------------

    def riesz(self, poly: Polynomial) -> Scalar:
        """Apply the linear functional ``x^alpha -> s_alpha`` to ``poly``.

        Exact when both the coefficients and the touched moment values are
        exact.  Terms are consumed in graded-lex order so equal inputs take
        one deterministic arithmetic path.
        """
        if poly.dim != self.dim:
            raise DimMismatch(
                f"polynomial in {poly.dim} variables against "
                f"{self.dim}-dimensional moments"
            )
        if poly.degree > self.max_degree:
            raise DegreeOverflow(
                f"polynomial degree {poly.degree} exceeds truncation degree "
                f"{self.max_degree}"
            )
        total: Scalar = 0
        for alpha, coeff in poly._grlex_terms():
            total = total + coeff * self.values[alpha]
        return total

    def restrict(self, max_degree: int) -> "MomentSequence":
        """The data truncated to ``max_degree`` (``self`` at its own degree)."""
        if max_degree > self.max_degree:
            raise DegreeOverflow(
                f"cannot extend degree {self.max_degree} data to {max_degree}"
            )
        if max_degree == self.max_degree:
            return self
        keep = {a: v for a, v in self.values.items() if sum(a) <= max_degree}
        logs = {a: v for a, v in self.log_values.items() if sum(a) <= max_degree}
        return MomentSequence._assembled(self.dim, max_degree, keep, logs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MomentSequence):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.max_degree == other.max_degree
            and self.values == other.values
            and self.log_values == other.log_values
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"MomentSequence(dim={self.dim}, max_degree={self.max_degree}, "
            f"{len(self.values)} entries)"
        )


def _first_coincident_pair(
    points: Sequence[tuple[Scalar, ...]], tol: float
) -> tuple[int, int] | None:
    """The first pair ``(i, j)``, ``i < j``, in row-major order whose points
    lie within ``tol`` of each other in the max norm, or ``None``.

    The gap of a pair is Python's ``max`` over ``|float(a) - float(b)|``
    coordinate by coordinate, which keeps a leading NaN (never within
    ``tol``) and skips a later one.  So a pair within ``tol`` is within
    ``tol`` on axis 0, and has no NaN there.  When every gap between
    neighbours among the sorted non-NaN axis-0 coordinates exceeds ``tol``,
    no pair is, and the answer is ``None`` without a pairwise scan.
    Otherwise every pair is scanned in row-major order.  Both run in plain
    Python, which at a few dozen points is cheaper than numpy's fixed cost.
    """
    count = len(points)
    if count < 2:
        return None
    rows = [[float(x) for x in pt] for pt in points]
    firsts = sorted(row[0] for row in rows if row[0] == row[0])
    # A float gap between sorted neighbours bounds every other one below;
    # a NaN gap (inf - inf) is not above ``tol``, and keeps the scan.
    if all(b - a > tol for a, b in zip(firsts, firsts[1:])):
        return None
    for i in range(count):
        for j in range(i + 1, count):
            if max(abs(a - b) for a, b in zip(rows[i], rows[j])) <= tol:
                return i, j
    return None


class AtomicMeasure:
    """A finite nonnegative combination of point masses.

    ``atoms`` is a sequence of ``(point, weight)`` pairs with strictly
    positive weights and pairwise-distinct points (no two points within
    ``tol_atom`` of each other in the max norm).  An empty atom list is the
    zero measure.
    """

    __slots__ = ("dim", "atoms")

    def __init__(
        self,
        dim: int,
        atoms: Iterable[tuple[Sequence[Scalar], Scalar]] = (),
        tol_atom: float = 1e-12,
    ):
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        cleaned: list[tuple[tuple[Scalar, ...], Scalar]] = []
        for point, weight in atoms:
            pt = tuple(point)
            if len(pt) != dim:
                raise DimMismatch(
                    f"atom {pt} has length {len(pt)}, expected {dim}"
                )
            if not weight > 0:
                raise ValueError(f"atom weight must be positive, got {weight}")
            cleaned.append((pt, weight))
        pair = _first_coincident_pair([pt for pt, _ in cleaned], tol_atom)
        if pair is not None:
            i, j = pair
            raise ValueError(
                f"atoms {cleaned[i][0]} and {cleaned[j][0]} coincide "
                f"within {tol_atom}"
            )
        self.dim = dim
        self.atoms = cleaned

    @property
    def total_mass(self) -> Scalar:
        total: Scalar = 0
        for _, w in self.atoms:
            total = total + w
        return total

    def __len__(self) -> int:
        return len(self.atoms)

    def sorted_atoms(self) -> list[tuple[tuple[Scalar, ...], Scalar]]:
        """Atoms sorted by point coordinates — a canonical order for
        comparing two measures."""
        return sorted(self.atoms, key=lambda aw: tuple(float(x) for x in aw[0]))

    def __repr__(self) -> str:
        return f"AtomicMeasure(dim={self.dim}, atoms={len(self.atoms)})"
