"""One solve for any moment data, checked against every entry."""

from __future__ import annotations

from . import multivariate, univariate
from .matrices import DEFAULT_PSD_TOL, DEFAULT_RANK_TOL, require_reproduced
from .polynomials import AtomicMeasure, MomentSequence


def solve(
    s: MomentSequence,
    mode: str = "auto",
    level: int | None = None,
    rank_tol: float = DEFAULT_RANK_TOL,
    tol: float = DEFAULT_PSD_TOL,
    seed: int = 0,
) -> tuple[AtomicMeasure, dict]:
    """An atomic measure for ``s``, and a dict detailing the route taken.

    ``mode="1d"`` runs :func:`~momentkit.univariate.solve_1d`, ``"md"`` flat
    extraction at ``level`` or by scanning, and ``"auto"`` picks ``"1d"`` for
    1-D data with no ``level``.  Each route reads the finite prefix
    ``s.restrict(s.finite_degree())``, and every entry of ``s`` is compared
    (:func:`~momentkit.matrices.require_reproduced`; a miss is
    :class:`ValidationFailure`).  When the prefix stops short of
    ``s.max_degree`` the detail gains ``solved_degree``."""
    finite_degree = s.finite_degree()
    prefix = s.restrict(finite_degree)
    if mode == "auto":
        # A level is a flat-extraction level, so giving one selects it.
        mode = "1d" if s.dim == 1 and level is None else "md"
    if mode == "1d":
        result = univariate.solve_1d(s, rank_tol, tol)
        measure = result.measure
        detail = {
            "mode": "1d",
            "rank": result.rank,
            "stieltjes_supported": result.stieltjes_supported,
            "max_residual": result.max_residual,
            "jacobi_diag": result.jacobi.diag,
            "jacobi_offdiag": result.jacobi.offdiag,
        }
    else:
        if level is not None:
            measure = multivariate.extract_atoms(prefix, level, rank_tol, tol, seed)
        else:
            measure, level = multivariate.extract_atoms_auto(prefix, rank_tol, tol, seed)
        require_reproduced(measure, s, tol, "extracted measure")
        detail = {"mode": "md", "level": level, "rank": len(measure)}
    if finite_degree < s.max_degree:
        detail["solved_degree"] = finite_degree
    return measure, detail
