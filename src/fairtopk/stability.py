"""Perturbation-stable weights: center a weight inside its top-k cell.

Given a subset that some weight in the region puts on top, the cell of
weights keeping it on top is the intersection of pairwise score
halfspaces.  The stable weight is the center of the largest ball (in the
projected weight coordinates) inscribed in that cell intersected with the
region; the ball radius is the reported margin.  A margin of zero with
the degenerate flag set means the cell has no interior, which happens
exactly when a selected candidate shares its attribute point with an
unselected one: such ties survive every perturbation, so no positive
margin exists even though the subset itself stays valid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TIE_EPS, WeightVector
from .geometry import (
    LpProblem,
    lift_weight,
    project_point,
    projected_region_rows,
    region_interval,
    solve_lp,
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


def stable_weight_2d(dataset, k, subset, region):
    """Exact interval midpoint for two attributes.

    The cell is an interval of the first weight component; the stable
    weight sits at its midpoint and the margin is the half-width.
    Returns None when the subset is top-k nowhere in the region.
    """
    if dataset.d != 2:
        raise ValueError("stable_weight_2d needs exactly two attributes")
    if len(subset) != k:
        raise ValueError(f"subset size {len(subset)} does not match k={k}")
    bounds = region_interval(region)
    if bounds is None:
        return None
    lo, hi = bounds
    member = set(subset)
    outs = [c for c in dataset.candidates if c.cid not in member]
    degenerate = False
    for cid in subset:
        p_in = dataset.by_id(cid).point
        q_in, r_in = project_point(p_in)
        for other in outs:
            if other.point == p_in:
                degenerate = True  # tie survives every perturbation
                continue
            q_out, r_out = project_point(other.point)
            a = float(q_in[0] - q_out[0])
            b = r_in - r_out
            if abs(a) <= _ZERO_ROW:
                if b < -TIE_EPS:
                    return None
                continue
            bound = -b / a
            if a > 0:
                lo = max(lo, bound)
            else:
                hi = min(hi, bound)
    if lo > hi + TIE_EPS:
        return None
    lo, hi = min(lo, hi), max(lo, hi)
    mid = 0.5 * (lo + hi)
    margin = 0.5 * (hi - lo)
    if degenerate or margin <= TIE_EPS:
        if margin <= TIE_EPS:
            degenerate = True
        margin = 0.0
    return StableResult(
        weight=lift_weight([mid]),
        margin=float(margin),
        subset=tuple(sorted(subset)),
        degenerate=degenerate,
        box_radius=float(margin),
    )


def stable_weight_md(dataset, k, subset, region):
    """Largest inscribed ball of the subset's cell, any dimension.

    Builds one LP over (projected weight, radius): every pairwise
    member/non-member score row and every region row, each normalized to
    unit L2 length, must clear the radius.  Identical-point cross pairs
    contribute a zero row that pins the radius to zero, flagging the
    degenerate case.  Returns None when the cell misses the region.
    """
    if len(subset) != k:
        raise ValueError(f"subset size {len(subset)} does not match k={k}")
    d = dataset.d
    member = set(subset)
    ins = [dataset.by_id(cid) for cid in sorted(subset)]
    outs = [c for c in dataset.candidates if c.cid not in member]
    nv = d  # y (d-1) plus the radius
    rows = []
    degenerate = False
    for cin in ins:
        q_in, r_in = project_point(cin.point)
        for cout in outs:
            if cout.point == cin.point:
                degenerate = True
                continue
            q_out, r_out = project_point(cout.point)
            g = np.asarray(q_in) - np.asarray(q_out)
            h = r_in - r_out
            norm = float(np.linalg.norm(g))
            if norm <= _ZERO_ROW:
                if h < -TIE_EPS:
                    return None  # dominated everywhere, cell empty
                continue
            a = np.zeros(nv)
            a[: d - 1] = g / norm
            a[d - 1] = -1.0
            rows.append((a, ">=", -h / norm))
    for g, off in projected_region_rows(region):
        g = np.asarray(g, dtype=float)
        norm = float(np.linalg.norm(g))
        if norm <= _ZERO_ROW:
            continue
        a = np.zeros(nv)
        a[: d - 1] = g / norm
        a[d - 1] = -1.0
        rows.append((a, ">=", -off / norm))
    if degenerate:
        a = np.zeros(nv)
        a[d - 1] = 1.0
        rows.append((a, "<=", 0.0))
    a = np.zeros(nv)
    a[d - 1] = 1.0
    rows.append((a, ">=", 0.0))
    c = np.zeros(nv)
    c[d - 1] = 1.0
    out = solve_lp(LpProblem(c, rows, "max"))
    if out.status != "optimal":
        return None
    y = out.x[: d - 1]
    margin = max(0.0, float(out.value))
    if margin <= TIE_EPS:
        margin = 0.0
        degenerate = True
    max_l1 = 1.0
    for a, _, _ in rows:
        l1 = float(np.abs(a[: d - 1]).sum())
        max_l1 = max(max_l1, l1)
    return StableResult(
        weight=lift_weight(y),
        margin=margin,
        subset=tuple(sorted(subset)),
        degenerate=degenerate,
        box_radius=margin / max_l1,
    )


def stable_weight(dataset, k, subset, region):
    """Dimension dispatch: exact interval code for d=2, the LP otherwise."""
    if dataset.d == 2:
        return stable_weight_2d(dataset, k, subset, region)
    return stable_weight_md(dataset, k, subset, region)
