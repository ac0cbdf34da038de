"""Growth diagnostics for truncated moment data.

Determinacy-style sufficient conditions ask whether series such as

* ``sum_n  s[n e_j]^(-1/(2n))``              (Stieltjes-type condition) or
* ``sum_n  s[2n e_j]^(-1/(2n))``             (Carleman-type condition)

diverge.  A truncation can never prove divergence, so this module computes
the finite term lists and classifies their decay:

* ``divergence-consistent`` — the tail decays no faster than ``c / n``
  (power-law fit with exponent <= ``SLOPE_LIMIT`` and small residual), so the
  full series plausibly diverges;
* ``convergence-consistent`` — the tail ratios show geometric decay
  (median ratio <= ``RATIO_LIMIT``), so the full series plausibly converges;
* ``inconclusive`` — neither pattern fits, or an entry read is ``inf`` or
  ``nan`` with no stored log and so gives no term.

The classification is a heuristic about the visible histogram of terms, not
a theorem about the underlying measure; the thresholds below are part of
this package's contract.  All term arithmetic runs on natural logarithms of
the moments, so entries far outside IEEE double range stay usable: a float
entry through its supplied log value, an exact one through the log of its
numerator and denominator, whether it over- or underflows as a float.

The pure-power entries ``s[n e_j]`` are converted to floats and logged once
per sequence and axis, on the first read, and kept on the sequence, which is
immutable; every diagnostic run on one sequence reads that one conversion.
:func:`normalize` divides every entry by the mass with one rule: an exact
entry over an exact mass stays exact, an ``int`` over an ``int`` included,
and any other quotient is the IEEE float one, an overflow a quiet ``inf``.
Terms, partial sums and margins are computed entry by entry with
``math.exp`` and ``math.fsum``: numpy's ``exp`` and ``cumsum`` round some of
them differently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    DegreeOverflow,
    HypothesisFailure,
    NotNormalized,
    NotPositive,
    TrivialFunctional,
)
from .matrices import DEFAULT_PSD_TOL, PsdVerdict, assemble, psd_check
from .polynomials import _LOG_MAX, MomentSequence, Scalar, _log, _to_float

DIVERGENCE_CONSISTENT = "divergence-consistent"
CONVERGENCE_CONSISTENT = "convergence-consistent"
INCONCLUSIVE = "inconclusive"

#: Tail ratios with median at or below this value count as geometric decay.
RATIO_LIMIT = 0.95
#: ... provided no tail ratio exceeds this value.
RATIO_CEILING = 0.99
#: Largest power-law decay exponent still consistent with divergence.
SLOPE_LIMIT = 1.05
#: Largest RMS residual (in log-log coordinates) for a trusted power-law fit.
RESIDUAL_LIMIT = 0.1
#: Relative slack for the exact inequalities in subsequence bound checks.
INEQUALITY_SLACK = 1e-12


@dataclass
class DiagnosticReport:
    """Finite series diagnostic: terms, partial sums, and a decay verdict."""

    terms: list[float]
    partial_sums: list[float]
    classification: str
    fit_details: dict = field(default_factory=dict)
    degenerate: bool = False


@dataclass
class SubsequenceBoundsReport:
    """Finite checks of the root-growth inequalities behind stride-``m``
    subsampling of a Stieltjes-type series.

    For data whose plain and index-shifted moment matrices are positive
    semidefinite, the roots ``s_k^(1/k)`` are nondecreasing; consequently
    each term ``a(n) = s_n^(-1/(2n))`` is bounded by the term at the next
    multiple of the stride below it, and the full series is bounded by
    ``stride`` times its subsampled series.  ``passed`` requires all three
    finite inequalities to hold within :data:`INEQUALITY_SLACK`.
    """

    stride: int
    count: int
    hankel_level: int
    monotone_ok: bool
    monotone_margin: float
    termwise_ok: bool
    termwise_margin: float
    sum_ok: bool
    sum_lhs: float
    sum_rhs: float

    @property
    def passed(self) -> bool:
        return self.monotone_ok and self.termwise_ok and self.sum_ok


def normalize(s: MomentSequence) -> MomentSequence:
    """Rescale so the mass ``s_0`` equals 1.

    Raises
    ------
    NotPositive
        If ``s_0 < 0``.
    TrivialFunctional
        If ``s_0 = 0``: a functional that is nonnegative on squares and has
        zero mass vanishes identically, so there is nothing to normalize.
    """
    mass = s.mass
    if mass < 0:
        raise NotPositive(f"mass s_0 = {mass} is negative")
    if mass == 0:
        raise TrivialFunctional(
            "mass s_0 = 0: a positive functional with zero mass is identically "
            "zero (zero measure)"
        )
    # An int mass divides as a Fraction, so an int entry stays exact; every
    # other quotient is the one _divide takes.  Where one raises, every entry
    # takes _divide's rule.
    divisor = Fraction(mass) if isinstance(mass, int) else mass
    try:
        values = {a: v / divisor for a, v in s.values.items()}
    except (OverflowError, ZeroDivisionError):
        values = {a: _divide(v, mass) for a, v in s.values.items()}
    log_mass = _log(mass)
    logs = {a: lv - log_mass for a, lv in s.log_values.items()}
    return MomentSequence._assembled(s.dim, s.max_degree, values, logs)


def _divide(value: Scalar, mass: Scalar) -> Scalar:
    """``value / mass``, an exact ``Fraction`` when both are exact (an
    ``int`` over an ``int`` too, which ``/`` would round to a float).
    Where the quotient raises, because a float meets an exact number whose
    float over- or underflows, a non-finite float stays as it is and any
    other entry becomes the correctly rounded float of the exact quotient."""
    if isinstance(value, int) and isinstance(mass, int):
        return Fraction(value, mass)
    try:
        return value / mass
    except (OverflowError, ZeroDivisionError):
        if isinstance(value, float) and not math.isfinite(value):
            return value
        return _to_float(Fraction(value) / Fraction(mass))


def _require_normalized(s: MomentSequence) -> None:
    if abs(_to_float(s.mass) - 1.0) > 1e-9:
        raise NotNormalized(
            f"mass s_0 = {s.mass}; call normalize() before running diagnostics"
        )


def _partial_sums(terms: list[float]) -> list[float]:
    return [math.fsum(terms[:i]) for i in range(1, len(terms) + 1)]


@functools.lru_cache(maxsize=256)
def _fit_abscissae(
    start: int, length: int
) -> tuple[tuple[float, ...], tuple[float, ...], float, float]:
    """The abscissae ``x_i = log(start + i)``, ``i < length``, of the
    log-log fit of :func:`_classify`, each less their mean, their mean and
    the ``fsum`` of their squared deviations."""
    xs = tuple(math.log(start + i) for i in range(length))
    x_mean = math.fsum(xs) / length
    deviations = tuple(x - x_mean for x in xs)
    return xs, deviations, x_mean, math.fsum(d**2 for d in deviations)


def _classify(terms: list[float]) -> tuple[str, dict]:
    half = len(terms) // 2
    tail = terms[half:]
    details: dict = {"tail_start": half + 1}
    if len(tail) < 2:
        details["rule"] = "insufficient-tail"
        return INCONCLUSIVE, details
    if any(t == 0.0 for t in tail):
        details["rule"] = "vanishing-terms"
        return CONVERGENCE_CONSISTENT, details
    ratios = [tail[i + 1] / tail[i] for i in range(len(tail) - 1)]
    ordered = sorted(ratios)
    mid = len(ordered) // 2
    median_ratio = (
        ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2
    )
    max_ratio = max(ratios)
    details["median_ratio"] = median_ratio
    details["max_ratio"] = max_ratio
    if median_ratio <= RATIO_LIMIT and max_ratio <= RATIO_CEILING:
        details["rule"] = "geometric-ratio"
        return CONVERGENCE_CONSISTENT, details
    xs, deviations, x_mean, var = _fit_abscissae(half + 1, len(tail))
    ys = [math.log(t) for t in tail]
    y_mean = math.fsum(ys) / len(ys)
    cov = math.fsum(d * (y - y_mean) for d, y in zip(deviations, ys))
    slope = cov / var if var else 0.0
    intercept = y_mean - slope * x_mean
    residual = math.sqrt(
        math.fsum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
        / len(xs)
    )
    decay_exponent = -slope
    details["decay_exponent"] = decay_exponent
    details["fit_residual"] = residual
    if decay_exponent <= SLOPE_LIMIT and residual <= RESIDUAL_LIMIT:
        details["rule"] = "power-law"
        return DIVERGENCE_CONSISTENT, details
    details["rule"] = "unclassified-decay"
    return INCONCLUSIVE, details


def _series_report(
    s: MomentSequence, axis: int, count: int, order: int, root: int
) -> DiagnosticReport:
    """Terms ``s[n*order e_axis]^(-1/(2*n*root))`` for ``n = 1..count`` with
    a decay verdict, after the checks the three public series share."""
    _require_normalized(s)
    if order < 1:
        raise ValueError(f"stride must be >= 1, got {order}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if order * count > s.max_degree:
        raise DegreeOverflow(
            f"need marginal moments up to order {order * count}, data stops "
            f"at {s.max_degree}"
        )
    logs = s._marginal_logs(axis, range(order, order * count + 1, order))
    # exp(-lm / (2 n root)), inf from _LOG_MAX on, as polynomials._exp gives it.
    terms = [
        math.inf if (x := -lm / (2.0 * (n * root))) >= _LOG_MAX else math.exp(x)
        for n, lm in enumerate(logs, 1)
    ]
    degenerate = -math.inf in logs
    sums = _partial_sums(terms)
    if not all(lm < math.inf for lm in logs):  # a +inf or NaN log
        classification = INCONCLUSIVE
        details = {"rule": "entry-without-value"}
    elif degenerate:
        classification = DIVERGENCE_CONSISTENT
        details = {"rule": "degenerate-zero-moment"}
    else:
        classification, details = _classify(terms)
    return DiagnosticReport(terms, sums, classification, details, degenerate)


def stieltjes_terms(s: MomentSequence, axis: int = 0, count: int = 60) -> DiagnosticReport:
    """Terms ``s[n e_axis]^(-1/(2n))`` for ``n = 1..count`` with a decay verdict.

    Requires normalized data (``s_0 = 1``) and ``count <= max_degree``.
    A zero moment makes its term ``+inf`` and forces the classification
    ``divergence-consistent`` with the ``degenerate`` flag set.
    """
    return _series_report(s, axis, count, 1, 1)


def carleman_terms(s: MomentSequence, axis: int = 0, count: int = 60) -> DiagnosticReport:
    """Terms ``s[2n e_axis]^(-1/(2n))`` for ``n = 1..count`` with a decay verdict.

    Requires ``2 * count <= max_degree``.  This is the even-order variant of
    :func:`stieltjes_terms`; on data supported in ``[0, inf)`` its divergence
    is the stronger requirement.
    """
    return _series_report(s, axis, count, 2, 1)


def subsequence_terms(
    s: MomentSequence, axis: int = 0, stride: int = 2, count: int = 30
) -> DiagnosticReport:
    """Terms ``s[n*stride e_axis]^(-1/(2*n*stride))`` for ``n = 1..count``.

    The stride-1 case coincides with :func:`stieltjes_terms`.  Divergence of
    a strided subseries forces divergence of the full series, which is what
    makes subsampled data usable.
    """
    return _series_report(s, axis, count, stride, stride)


def _not_psd(verdict: PsdVerdict, level: int, matrix: str) -> HypothesisFailure:
    """The :class:`HypothesisFailure` of the ``"plain"`` or ``"shifted"``
    marginal matrix at ``level``, carrying its verdict's numbers."""
    name = "index-shifted marginal" if matrix == "shifted" else "marginal"
    return HypothesisFailure(
        f"{name} moment matrix at level {level} is not positive "
        f"semidefinite (min eigenvalue {verdict.min_eigenvalue:g})",
        min_eigenvalue=verdict.min_eigenvalue, level=level, matrix=matrix,
    )


def check_subsequence_bounds(
    s: MomentSequence,
    axis: int = 0,
    stride: int = 2,
    count: int = 60,
    tol_rel: float = DEFAULT_PSD_TOL,
) -> SubsequenceBoundsReport:
    """Verify the finite root-growth inequalities behind stride subsampling.

    Checks, on the marginal moments ``m_k = s[k e_axis]`` of normalized data:

    1. monotone roots: ``m_k^(1/k) <= m_{k+1}^(1/(k+1))``;
    2. termwise bound: ``a(q*stride + r) <= a(q*stride)`` for
       ``1 <= r < stride``, where ``a(k) = m_k^(-1/(2k))``;
    3. sum bound: ``sum_{n=stride}^{count} a(n) <=
       stride * sum_{q=1}^{floor(count/stride)+1} a(q*stride)``.

    All three hold exactly whenever the plain and index-shifted moment
    matrices of the marginal are positive semidefinite, so that is checked
    first (at the largest level whose entries are finite doubles) and a
    failure raises :class:`HypothesisFailure`.  The inequalities themselves
    are evaluated in the log domain with relative slack
    :data:`INEQUALITY_SLACK`; margins are reported so callers can see how
    much room was left.

    Requires marginals up to ``stride * (floor(count/stride) + 1)``.
    """
    _require_normalized(s)
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if count < stride:
        raise ValueError(f"count must be >= stride, got {count} < {stride}")
    high = stride * (count // stride + 1)
    if high > s.max_degree:
        raise DegreeOverflow(
            f"need marginal moments up to order {high}, data stops at "
            f"{s.max_degree}"
        )

    floats = s._marginal_view(axis)[0]
    # Matrices take the finite doubles m_0 .. m_reach.
    reach = next(
        (k - 1 for k in range(1, high + 1) if not math.isfinite(floats[k])), high
    )
    plain_level = reach // 2
    shift_level = (reach - 1) // 2
    hankel = assemble(floats[: 2 * plain_level + 1], 1, plain_level)
    plain = psd_check(hankel, tol_rel)
    if not plain.is_psd:
        raise _not_psd(plain, plain_level, "plain")
    if shift_level >= 0:
        # ``0.0 +`` turns a -0.0 entry into 0.0, as the localizing matrix of
        # ``x`` sums its terms onto zeros.
        shift = 0.0 + np.array(floats[1 : 2 * shift_level + 2])
        shifted = psd_check(assemble(shift, 1, shift_level), tol_rel)
        if not shifted.is_psd:
            raise _not_psd(shifted, shift_level, "shifted")

    # g_k = log(m_k) / k; roots are exp(g_k) and terms are exp(-g_k / 2).
    logs = s._marginal_logs(axis, range(1, high + 1))
    g = [0.0] + [lm / k for k, lm in enumerate(logs, 1)]  # g[0] is not read

    def diff(a: float, b: float) -> float:
        # a - b with the convention that equal infinities cancel to zero.
        return 0.0 if a == b else a - b

    monotone_margin = min(map(diff, g[2:], g[1:high]))
    monotone_ok = monotone_margin >= -INEQUALITY_SLACK

    termwise_margin = 0.0
    for q in range(1, count // stride + 1):
        base = q * stride
        for r in range(1, stride):
            idx = base + r
            if idx > count:
                break
            termwise_margin = max(termwise_margin, diff(g[base], g[idx]) / 2.0)
    termwise_ok = termwise_margin <= INEQUALITY_SLACK

    # a(k) = exp(-g_k k / (2 k)) for k = 1 .. high, each computed once for
    # both sums, inf from _LOG_MAX on, as polynomials._exp gives it.
    terms = [0.0] + [
        math.inf if (x := -(g[k] * k) / (2.0 * k)) >= _LOG_MAX else math.exp(x)
        for k in range(1, high + 1)
    ]
    sum_lhs = math.fsum(terms[stride : count + 1])
    sum_rhs = stride * math.fsum(terms[stride : high + 1 : stride])
    if math.isinf(sum_lhs) and math.isinf(sum_rhs):
        sum_ok = True
    else:
        sum_ok = sum_lhs <= sum_rhs * (1.0 + INEQUALITY_SLACK)

    return SubsequenceBoundsReport(
        stride=stride,
        count=count,
        hankel_level=plain_level,
        monotone_ok=monotone_ok,
        monotone_margin=monotone_margin,
        termwise_ok=termwise_ok,
        termwise_margin=termwise_margin,
        sum_ok=sum_ok,
        sum_lhs=sum_lhs,
        sum_rhs=sum_rhs,
    )
