"""Perturbation-stable weights: center a weight inside its top-k cell.

Given a subset that some weight in the region puts on top, the cell of
weights keeping it on top is the intersection of pairwise score
halfspaces.  The stable weight is the center of the largest ball (in the
projected weight coordinates) inscribed in that cell intersected with the
region; the ball radius is the reported margin.  One Chebyshev-center LP
(Boyd and Vandenberghe, Convex Optimization, section 8.5) serves every
dimension.

Only pairs of cutoff-band candidates (geometry.band_split) get a row.  A
sure-in score exceeds the (k+1)-th largest score by more than TIE_EPS
everywhere in the region, and a sure-out score stays below the k-th.  So
at a region point where every band member outscores every band
non-member, a sure-in member ranks above every non-member and a sure-out
non-member below every member: region and band pairs cut out exactly the
region's part of the cell, and the dropped pairs never bind.

A selected candidate sharing its attribute point with an unselected one
ties with it under every weight, so the cell has no interior.  Such pairs
add no row; the weight is still the center of the cell the other pairs
leave, but the margin is reported as zero with the degenerate flag set:
the tie survives every perturbation although the subset stays valid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TIE_EPS, WeightVector
from .geometry import (
    LpProblem,
    band_split,
    lift_weight,
    project_points,
    projected_region_rows,
    simplex_lp,
)

_ZERO_ROW = 1e-12


@dataclass(frozen=True)
class StableResult:
    """Centered weight with its guaranteed score-separation radius.

    margin is an L2 radius in the projected (first d-1 components) weight
    space; box_radius is the per-component half-width guaranteed safe for
    independent perturbations of the projected components.
    """

    weight: WeightVector
    margin: float
    subset: tuple
    degenerate: bool
    box_radius: float


def stable_weight(dataset, k, subset, region):
    """Largest inscribed ball of the subset's cell within the region.

    Solves one LP over (projected weight, radius): every band
    member/non-member score row and every region row, each normalized to
    unit L2 length, must clear the radius.  Returns None when the cell
    misses the region.
    """
    if len(subset) != k:
        raise ValueError(f"subset size {len(subset)} does not match k={k}")
    d = dataset.d
    pts = dataset.points
    _, sure_in, sure_out, _, _ = band_split(pts, k, region)
    member = np.isin(dataset.id_array, subset)
    if np.any(sure_in & ~member) or np.any(sure_out & member):
        return None  # a sure candidate on the wrong side: top-k nowhere
    band = ~(sure_in | sure_out)
    ins, outs = np.nonzero(band & member)[0], np.nonzero(band & ~member)[0]
    Q, r = project_points(pts)
    g = (Q[ins, None, :] - Q[None, outs, :]).reshape(-1, d - 1)
    h = (r[ins, None] - r[None, outs]).reshape(-1)
    same = np.all(pts[ins, None, :] == pts[None, outs, :], axis=2).reshape(-1)
    degenerate = bool(same.any())
    g, h = g[~same], h[~same]
    rows = []
    for gi, hi in list(zip(g, h)) + projected_region_rows(region):
        norm = float(np.linalg.norm(gi))
        if norm <= _ZERO_ROW:
            if hi < -TIE_EPS:
                return None  # violated under every weight, cell empty
            continue
        rows.append((np.append(gi / norm, -1.0), ">=", -hi / norm))
    radius = np.eye(d)[d - 1]
    rows.append((radius, ">=", 0.0))
    out = simplex_lp(LpProblem(radius, rows, "max"))
    if out.status != "optimal":
        return None
    margin = max(0.0, float(out.value))
    if margin <= TIE_EPS:
        degenerate = True
    if degenerate:
        margin = 0.0
    max_l1 = max([1.0] + [float(np.abs(row[: d - 1]).sum()) for row, _, _ in rows])
    return StableResult(
        weight=lift_weight(out.x[: d - 1]),
        margin=margin,
        subset=tuple(sorted(subset)),
        degenerate=degenerate,
        box_radius=margin / max_l1,
    )
