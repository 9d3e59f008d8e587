"""Perturbation-stable weights: center a weight inside its top-k cell.

Given a subset that some weight in the region puts on top, the cell of
weights keeping it on top is the intersection of pairwise score
halfspaces.  The stable weight is the center of the largest ball (in the
projected weight coordinates) inscribed in that cell intersected with the
region; the ball radius is the reported margin.  It is the Chebyshev
centre of geometry.TopkCell, one LP in every dimension.

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

from .core import WeightVector
from .geometry import CutoffBand, TopkCell


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

    The Chebyshev centre of geometry.TopkCell over the cutoff band.
    Returns None when the cell misses the region; raises ValueError when
    subset is not k distinct ids of the dataset.
    """
    if len(subset) != k:
        raise ValueError(f"subset size {len(subset)} does not match k={k}")
    band = CutoffBand(dataset, k, region)
    seats = band.seats(subset)
    got = None if seats is None else TopkCell(band, seats).center()
    if got is None:
        return None
    weight, margin, box_radius, degenerate = got
    return StableResult(weight, margin, tuple(sorted(subset)), degenerate, box_radius)
