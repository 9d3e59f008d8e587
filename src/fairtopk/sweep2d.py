"""Two-dimensional engine: sweep the weight interval, judge it outward.

With d = 2 every weight is (x, 1-x) and every candidate becomes a dual
line over x.  The top-k subset changes only at the vertices of the k-th
level of that line arrangement, where a line from the bottom set overtakes
the lowest line of the top set, so the sweep walks the level one lowest
member line at a time (Edelsbrunner and Welzl, Constructing belts in
two-dimensional arrangements, 1986).  Only the cutoff band (the lines in
some but not every top-k over the interval, geometry.band_split) can take
part in an exchange, so the walk holds the band lines alone.  Positions
are judged outward from the reference (Asudeh, Jagadish, Stoyanovich and
Das, Designing fair ranking schemes, 2019), and the walk stops past the
first fair one on its right.  Fairness at a judged position is delegated
to the verify module, which owns tie handling; its resolver holds the rows
that can reach the cutoff anywhere in the interval.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cmp_to_key

import numpy as np

from .core import W_DIFFERENCE, WeightVector
from .geometry import band_split, dual_line, lift_weight
from .tolerances import KEY_EPS
from .verify import TieResolver, finish_result


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


def weight_at(x):
    """lift_weight([x]) without its numpy calls: on [0, 1] lifting clips
    nothing, so (x, 1 - x) is the same vector.  Abscissae a vertex solve put
    just outside go through lift_weight's clip."""
    return WeightVector((x, 1.0 - x)) if 0.0 <= x <= 1.0 else lift_weight([x])


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

    The one left-to-right walk yields the arrangement positions (interval
    endpoints, every exchange abscissa, the cells between them), each
    represented by its point nearest the reference abscissa wo_x.  They are
    judged outward from wo_x: the positions left of it are buffered unjudged
    and taken from their nearest end, the rest of the walk lazily, and the
    first fair position on each side is that side's best.  Under the
    w-difference objective the key is the distance itself, so the sides merge
    by distance, the left first on equal distance as a left-to-right scan
    prefers, and the first fair position answers.  Under utility loss, take
    x1 < x2 <= wo_x and a line in the top-k at x2 but not at x1: it scores at
    wo at least as high as the line it displaced, since their difference is
    <= 0 at x1 and >= 0 at x2, so >= 0 at wo.  Utility at wo only rises
    toward wo_x, from either side, so each side stops at its first fair
    position and the better key wins; keys equal within KEY_EPS relative to
    1 + |key| resolve toward wo_x, then to the left.
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
    resolver = TieResolver(
        dataset, k, spec, None if objective == W_DIFFERENCE else wo, np.flatnonzero(~sure_out)
    )

    def positions():
        """(rep, probe) left to right: a cell is probed at its midpoint and
        represented by its point nearest wo_x."""
        yield lb, lb
        prev = lb
        for ev in events:
            if ev.x > prev:
                yield min(max(wo_x, prev), ev.x), 0.5 * (prev + ev.x)
            yield ev.x, ev.x
            prev = ev.x
        if ub > prev:
            yield min(max(wo_x, prev), ub), 0.5 * (prev + ub)
            yield ub, ub

    # buffer the positions left of wo_x unjudged; the walk goes on lazily
    right, left = positions(), []
    for pos in right:
        if pos[0] >= wo_x - KEY_EPS:
            right = itertools.chain([pos], right)
            break
        left.append(pos)
    left = reversed(left)  # nearest first

    def outward():
        """Both sides by distance from wo_x, the left first within KEY_EPS."""
        lpos, rpos = next(left, None), next(right, None)
        while lpos is not None or rpos is not None:
            if rpos is None or (lpos is not None and wo_x - lpos[0] <= rpos[0] - wo_x + KEY_EPS):
                yield lpos
                lpos = next(left, None)
            else:
                yield rpos
                rpos = next(right, None)

    def first_fair(side):
        """(key, distance, rep, probe) of the side's first fair position;
        key = objective value (wdiff) or -utility."""
        for rep, probe in side:
            w_probe = weight_at(probe)
            if objective == W_DIFFERENCE:
                if resolver.fair(w_probe):
                    return 2.0 * abs(rep - wo_x), abs(rep - wo_x), rep, probe
            else:
                hit = resolver.best(w_probe)
                if hit is not None:
                    return -hit[1], abs(rep - wo_x), rep, probe
        return None

    sides = [outward()] if objective == W_DIFFERENCE else [left, right]
    hits = [hit for hit in map(first_fair, sides) if hit is not None]
    if not hits:
        return None
    best = hits[0]
    for hit in hits[1:]:
        tol = KEY_EPS * (1.0 + abs(best[0]))
        if hit[0] < best[0] - tol or (hit[0] <= best[0] + tol and hit[1] < best[1] - KEY_EPS):
            best = hit
    # a clamped cell boundary may lose fairness to rounding: the probe backs it up
    _, _, rep, probe = best
    return finish_result(dataset, k, spec, region, [weight_at(rep), weight_at(probe)], "sweep2d")
