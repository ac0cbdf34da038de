"""One dispatch for any moment data, and one solve checked against every entry."""

from __future__ import annotations

from . import multivariate, univariate
from .matrices import DEFAULT_PSD_TOL, DEFAULT_RANK_TOL, require_reproduced
from .polynomials import AtomicMeasure, MomentSequence

MODES = ("auto", "1d", "md")


def propose(
    s: MomentSequence,
    mode: str = "auto",
    level: int | None = None,
    rank_tol: float = DEFAULT_RANK_TOL,
    tol: float = DEFAULT_PSD_TOL,
    seed: int = 0,
) -> tuple[AtomicMeasure, dict]:
    """A candidate atomic measure for ``s``, and a dict detailing the route
    taken; the measure is not compared with every entry of ``s``.

    ``mode="1d"`` runs :func:`~momentkit.univariate.gauss_rule`, ``"md"``
    flat extraction at ``level`` or by scanning, and ``"auto"`` picks
    ``"1d"`` for 1-D data with no ``level``.  Each route reads the finite
    prefix ``s.restrict(s.finite_degree())``; when it stops short of
    ``s.max_degree`` the detail gains ``solved_degree``.  The 1-D rule is
    compared with nothing; flat extraction at level ``L`` refuses atoms
    that miss an entry of the prefix through degree ``2L``.  A mode outside
    :data:`MODES`, or a level with ``"1d"``, raises ``ValueError`` before reading ``s``."""
    if mode not in MODES or (mode == "1d" and level is not None):
        raise ValueError(
            f"mode {mode!r}, level {level!r}: no solve route (modes {MODES}; '1d' takes no level)"
        )
    finite_degree = s.finite_degree()
    prefix = s.restrict(finite_degree)
    if mode == "auto":
        # A level is a flat-extraction level, so giving one selects it.
        mode = "1d" if s.dim == 1 and level is None else "md"
    if mode == "1d":
        rule = univariate.gauss_rule(prefix, rank_tol)
        measure = rule.measure
        detail = {
            "mode": "1d",
            "rank": rule.rank,
            "stieltjes_supported": rule.stieltjes_supported,
            "jacobi_diag": rule.jacobi.diag,
            "jacobi_offdiag": rule.jacobi.offdiag,
        }
    else:
        if level is not None:
            measure = multivariate.extract_atoms(prefix, level, rank_tol, tol, seed)
        else:
            measure, level = multivariate.extract_atoms_auto(prefix, rank_tol, tol, seed)
        detail = {"mode": "md", "level": level, "rank": len(measure)}
    if finite_degree < s.max_degree:
        detail["solved_degree"] = finite_degree
    return measure, detail


def solve(
    s: MomentSequence,
    mode: str = "auto",
    level: int | None = None,
    rank_tol: float = DEFAULT_RANK_TOL,
    tol: float = DEFAULT_PSD_TOL,
    seed: int = 0,
) -> tuple[AtomicMeasure, dict]:
    """:func:`propose`, returned only if :func:`~momentkit.matrices.require_reproduced`
    finds every entry of ``s`` within ``tol`` (a miss is :class:`ValidationFailure`);
    a 1-D detail gains the worst entry's residual as ``max_residual``."""
    measure, detail = propose(s, mode, level, rank_tol, tol, seed)
    one_d = detail["mode"] == "1d"
    label = "recovered measure" if one_d else "extracted measure"
    residuals = require_reproduced(measure, s, tol, label)
    if one_d:
        items = list(detail.items())
        detail = dict(items[:3] + [("max_residual", max(residuals))] + items[3:])
    return measure, detail
