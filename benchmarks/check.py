"""Independent answer check for the benchmark.

A returned measure passes when it reproduces *every* finite moment the
library was given (not only the orders a solver owes) within the tolerance
the call used, and when its atoms match the ground truth one to one by
nearest neighbour.  Nothing here imports momentkit: moments are recomputed
from the atoms with numpy, so a defect in the library cannot also hide in
the check.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

Atoms = Sequence[tuple[Sequence[float], float]]

#: A matched atom may sit at most this share of the smallest distance
#: between two true atoms (of ``1 + max |coordinate|`` for a single atom)
#: from its true position: the matching then identifies every atom, while
#: the digits are judged by the moment residual, in the data's own scale.
POSITION_SHARE = 0.1
#: Largest weight error of a matched atom, relative to the true total mass.
#: Correct recoveries of closely spaced 1-D nodes are off by up to ~1e-4 at
#: moment residuals near 1e-12; the conditioning, not the solver, sets that.
WEIGHT_TOL = 1e-3


def moment_residual(
    atoms: Atoms, indices: np.ndarray, targets: np.ndarray
) -> float:
    """Worst ``|m_alpha - s_alpha| / max(1, |s_alpha|)`` over every finite
    ``s_alpha``, where ``m`` are the moments of ``atoms``.

    ``indices`` is an ``(M, d)`` integer array of multi-indices and
    ``targets`` the ``M`` input moments as floats (``inf`` marks an entry
    beyond double range, which is skipped).  Non-finite reproduced moments
    give ``inf``.
    """
    finite = np.isfinite(targets)
    idx = indices[finite]
    tgt = targets[finite]
    if tgt.size == 0:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        if len(atoms):
            points = np.array([[float(x) for x in p] for p, _ in atoms])
            weights = np.array([float(w) for _, w in atoms])
            powers = np.prod(points[:, None, :] ** idx[None, :, :], axis=2)
            reproduced = weights @ powers
        else:
            reproduced = np.zeros_like(tgt)
        res = np.abs(reproduced - tgt) / np.maximum(1.0, np.abs(tgt))
    if not np.all(np.isfinite(res)):
        return math.inf
    return float(res.max())


def match_atoms(truth: Atoms, got: Atoms) -> tuple[bool, float, float]:
    """Match every true atom to its nearest returned atom.

    Returns ``(ok, position_error, weight_error)``: the largest distance of
    a true atom to its match, as a share of the allowed distance (see
    :data:`POSITION_SHARE`), and the largest weight error relative to the
    true mass.  ``ok`` needs equal atom counts, a one to one
    nearest-neighbour matching, ``position_error <= 1`` and
    ``weight_error <= WEIGHT_TOL``.
    """
    if len(truth) != len(got):
        return False, math.inf, math.inf
    if not len(truth):
        return True, 0.0, 0.0
    t_pts = np.array([[float(x) for x in p] for p, _ in truth])
    g_pts = np.array([[float(x) for x in p] for p, _ in got])
    t_w = np.array([float(w) for _, w in truth])
    g_w = np.array([float(w) for _, w in got])
    dist = np.linalg.norm(t_pts[:, None, :] - g_pts[None, :, :], axis=2)
    nearest = dist.argmin(axis=1)
    if len(set(nearest.tolist())) != len(truth):
        return False, math.inf, math.inf
    if len(truth) > 1:
        gaps = np.linalg.norm(t_pts[:, None, :] - t_pts[None, :, :], axis=2)
        scale = float(gaps[~np.eye(len(truth), dtype=bool)].min())
    else:
        scale = 1.0 + float(np.abs(t_pts).max())
    rows = np.arange(len(truth))
    pos = float(dist[rows, nearest].max()) / (POSITION_SHARE * scale)
    wt = float(np.abs(t_w - g_w[nearest]).max()) / float(t_w.sum())
    return pos <= 1.0 and wt <= WEIGHT_TOL, pos, wt


def parse_measure_file(path: str) -> list[tuple[tuple[float, ...], float]]:
    """Atoms of a ``atoms v1 dim=<d>`` file as written by the CLI."""
    with open(path) as fh:
        lines = [ln.split() for ln in fh if ln.strip()]
    header = lines[0]
    if header[:2] != ["atoms", "v1"]:
        raise ValueError(f"{path}: not a measure file")
    dim = int(header[2].removeprefix("dim="))
    atoms = []
    for row in lines[1:]:
        if len(row) != dim + 1:
            raise ValueError(f"{path}: bad atom row {row}")
        atoms.append((tuple(float(x) for x in row[1:]), float(row[0])))
    return atoms
