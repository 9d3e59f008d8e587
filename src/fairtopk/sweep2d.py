"""Two-dimensional engine: sweep the weight interval left to right.

With d = 2 every weight is (x, 1-x) and every candidate becomes a dual
line over x.  The top-k subset changes only at the vertices of the k-th
level of that line arrangement, where a line from the bottom set overtakes
the lowest line of the top set, so the sweep walks the level one lowest
member line at a time (Edelsbrunner and Welzl, Constructing belts in
two-dimensional arrangements, 1986).  Only the cutoff band (the lines in
some but not every top-k over the interval, geometry.band_split) can take
part in an exchange, so the walk holds the band lines alone.  Fairness at
every visited position is delegated to the verify module, which owns tie
handling and always sees the full dataset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cmp_to_key

import numpy as np

from .core import W_DIFFERENCE
from .geometry import band_split, dual_line, lift_weight
from .tolerances import KEY_EPS
from .verify import finish_result, max_fair_utility, verify_fair


def cross_x(a, b):
    """Abscissa where two non-parallel lines meet."""
    return (b.intercept - a.intercept) / (a.slope - b.slope)


def line_above(a, b, x):
    """Is line a strictly above line b just to the right of x.

    Ties in value resolve by slope (the steeper line wins rightward), then
    by owner id, so the order is total for distinct owners.  The test is
    analytic: it never compares floating evaluations of nearly equal
    values, only the crossing abscissa against x.
    """
    if a.slope == b.slope:
        if a.intercept != b.intercept:
            return a.intercept > b.intercept
        return a.owner > b.owner
    if x >= cross_x(a, b):
        return a.slope > b.slope
    return a.slope < b.slope


@dataclass(frozen=True)
class SweepEvent:
    x: float
    swaps: tuple  # ((out_owner, in_owner), ...)


def sweep_events(dataset, k, x0, x_end, rows=None):
    """Yield membership exchanges while the sweep line moves from x0 to x_end.

    The exchanges are the vertices of the k-th level of the arrangement, so
    the walk follows the lowest member line: its next crossing with a member
    falling below it or a non-member rising above it is the next vertex.
    There the lines that meet it, with its identical copies, re-rank by
    (slope, owner) descending, which is line_above's order just to the right;
    an event is yielded only when a non-member enters, and simultaneous
    crossings collapse into one event carrying all swapped pairs, each the
    lowest leaving member paired with the highest entering line.  Lines
    through one vertex whose crossings with the new lowest member round to
    or below it join the vertex, as line_above counts x >= cross_x crossed.
    Each step is O(band) numpy work: dense levels over large bands are slow.

    rows picks the candidates whose lines take part (all by default); k
    counts the members among them and may be 0 or all of them.
    """
    if dataset.d != 2:
        raise ValueError("the sweep engine needs two attributes")
    cands = dataset.candidates if rows is None else [dataset.candidates[i] for i in rows]
    if not 0 <= k <= len(cands):
        raise ValueError(f"k={k} outside 0..{len(cands)}")
    lines = [dual_line(c.cid, c.point) for c in cands]
    lines.sort(key=cmp_to_key(lambda a, b: -1 if line_above(b, a, x0) else 1))
    n = len(lines)
    if k in (0, n):
        return
    slope, icpt = np.array([[ln.slope for ln in lines], [ln.intercept for ln in lines]])
    rank = [(ln.slope, ln.owner) for ln in lines]
    member = np.arange(n) >= n - k
    low, x, at, group, seats, was = n - k, x0, np.zeros(n, dtype=bool), [], 0, {}
    while True:
        s = slope[low]
        with np.errstate(divide="ignore", invalid="ignore"):
            # cross_x(low, i); a parallel line gives inf, low and its copies nan
            cx = (icpt - icpt[low]) / (s - slope)
        toward = np.where(member, slope < s, slope > s)
        nxt = cx[toward].min(initial=math.inf)
        if nxt > x:
            # the vertex at x is settled: report it and move on to the next
            entering = [lines[i].owner for i in group[:seats] if not was[i]]
            if entering and x > x0:
                leaving = [lines[i].owner for i in reversed(group[seats:]) if was[i]]
                yield SweepEvent(float(x), tuple(zip(leaving, entering)))
            x = nxt
            if x > x_end:
                return
            at, was = cx == x, {}
        # low's copies and the lines that cross it at x join the re-rank, also
        # those whose crossing rounds below x: line_above counts them crossed
        at |= (toward & (cx <= x)) | np.isnan(cx)
        group = sorted(np.flatnonzero(at).tolist(), key=rank.__getitem__, reverse=True)
        prior = member[group].tolist()
        was = dict(zip(group, prior)) | was  # membership before this vertex
        seats = sum(prior)
        member[group] = np.arange(len(group)) < seats
        low = group[seats - 1]


def sweep_select(dataset, k, spec, region):
    """Best fair weight over a 2-d region, or None when none exists.

    Walks the arrangement positions (interval endpoints, every exchange
    abscissa, the cells between them) from left to right.  Under the
    w-difference objective the best position in a fair cell is the point
    of the closed cell nearest the reference abscissa; under utility loss
    utilities fall monotonically with distance from the reference, so the
    first fair position at or beyond it settles the right side.
    """
    spec.validate(k)
    if region.d != 2 or dataset.d != 2:
        raise ValueError("the sweep engine needs two attributes")
    if not 1 <= k <= len(dataset):
        raise ValueError(f"k={k} outside 1..{len(dataset)}")
    verts, sure_in, sure_out, _, _ = band_split(dataset.points, k, region)
    if not len(verts):
        return None
    lb, ub = float(verts[0, 0]), float(verts[-1, 0])
    wo = region.reference
    wo_x = wo[0]
    objective = region.objective

    # lines sure in (out of) every top-k over [lb, ub] clear the cutoff by
    # more than TIE_EPS everywhere, so every exchange is between band lines
    band = np.flatnonzero(~(sure_in | sure_out))
    events = sweep_events(dataset, k - int(sure_in.sum()), lb, ub, band)

    def positions():
        yield ("point", lb, lb)
        prev = lb
        for ev in events:
            if ev.x > prev:
                yield ("cell", prev, ev.x)
            yield ("point", ev.x, ev.x)
            prev = ev.x
        if ub > prev:
            yield ("cell", prev, ub)
            yield ("point", ub, ub)

    # (key, distance, rep, probe); key = objective value (wdiff) or -utility,
    # equal keys resolved toward the reference abscissa
    best = None
    for kind, a, b in positions():
        if kind == "point":
            probe = rep = a
        else:
            probe = 0.5 * (a + b)
            rep = min(max(wo_x, a), b)
        w_probe = lift_weight([probe])
        if objective == W_DIFFERENCE:
            if not verify_fair(dataset, k, spec, w_probe):
                continue
            key = 2.0 * abs(rep - wo_x)
        else:
            hit = max_fair_utility(dataset, k, spec, w_probe, wo)
            if hit is None:
                continue
            key = -hit[1]
        dist = abs(rep - wo_x)
        if (
            best is None
            or key < best[0] - KEY_EPS
            or (key < best[0] + KEY_EPS and dist < best[1] - KEY_EPS)
        ):
            best = (key, dist, rep, probe)
        if rep >= wo_x - KEY_EPS:
            break  # nothing right of here can improve either objective

    if best is None:
        return None
    # a clamped cell boundary may lose fairness to rounding: the probe backs it up
    _, _, rep, probe = best
    return finish_result(
        dataset, k, spec, region, [lift_weight([rep]), lift_weight([probe])], "sweep2d"
    )
