"""Two-dimensional engine: sweep the weight interval left to right.

With d = 2 every weight is (x, 1-x) and every candidate becomes a dual
line over x.  The top-k subset changes only where a line from the bottom
set overtakes a line of the top set, so two kinetic tournament trees (the
top set keyed by its minimum, the bottom set by its maximum) drive the
sweep from one exchange to the next.  Only the cutoff band (the lines in
some but not every top-k over the interval, geometry.band_split) can take
part in an exchange, so the trees hold the band lines alone.  Fairness at
every visited position is delegated to the verify module, which owns tie
handling and always sees the full dataset.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cmp_to_key

import numpy as np

from .core import W_DIFFERENCE
from .geometry import band_split, dual_line, lift_weight
from .tolerances import KEY_EPS
from .verify import finish_result, max_fair_utility, verify_fair

_INF = math.inf


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


class KineticTournament:
    """Tournament tree over dual lines with crossing certificates.

    mode "min" keeps the lowest line at the root, "max" the highest, under
    the just-after-x order of line_above.  Certificates record the abscissa
    where a node's winner is overtaken; advance() replays them in order so
    the root stays correct while x moves right.
    """

    def __init__(self, lines, mode, x0):
        if mode not in ("min", "max"):
            raise ValueError(f"bad mode {mode!r}")
        self.mode = mode
        self.x = float(x0)
        self.entries = list(lines)
        size = 1
        while size < max(len(self.entries), 1):
            size *= 2
        self.size = size
        self.win = [-1] * (2 * size)
        self.cert = [_INF] * size
        self.heap = []
        self._serial = 0
        for slot, line in enumerate(self.entries):
            self.win[size + slot] = slot
        for node in range(size - 1, 0, -1):
            self._refresh(node)

    def __len__(self):
        return len(self.entries)

    @property
    def root_slot(self):
        return self.win[1] if self.entries else -1

    @property
    def root_line(self):
        slot = self.root_slot
        return self.entries[slot] if slot >= 0 else None

    def leaves(self):
        return tuple(self.entries)

    def _better(self, u, v):
        a, b = self.entries[u], self.entries[v]
        if self.mode == "min":
            return u if line_above(b, a, self.x) else v
        return u if line_above(a, b, self.x) else v

    def _refresh(self, node):
        l, r = self.win[2 * node], self.win[2 * node + 1]
        if l < 0 or r < 0:
            self.win[node] = max(l, r)
            self.cert[node] = _INF
            return
        w = self._better(l, r)
        self.win[node] = w
        loser = r if w == l else l
        a, b = self.entries[w], self.entries[loser]
        if a.slope == b.slope:
            self.cert[node] = _INF
        else:
            overtakes = a.slope > b.slope if self.mode == "min" else a.slope < b.slope
            self.cert[node] = cross_x(a, b) if overtakes else _INF
        if self.cert[node] < _INF:
            self._serial += 1
            heapq.heappush(self.heap, (self.cert[node], self._serial, node))

    def _refresh_path(self, node):
        while node >= 1:
            self._refresh(node)
            node //= 2

    def replace(self, slot, line):
        """Swap the line at a leaf slot and rebuild its path."""
        self.entries[slot] = line
        self._refresh_path((self.size + slot) // 2)

    def next_cert(self):
        while self.heap:
            cx, _, node = self.heap[0]
            if self.cert[node] == cx:
                return cx
            heapq.heappop(self.heap)
        return _INF

    def advance(self, x_to):
        """Process certificates up to x_to; root is then valid just after x_to."""
        while True:
            cx = self.next_cert()
            if cx > x_to:
                break
            _, _, node = heapq.heappop(self.heap)
            self.x = cx
            self._refresh_path(node)
        self.x = max(self.x, x_to)

    def recount(self, x):
        """Direct recompute of the root for the soundness checks."""
        if not self.entries:
            return None
        best = self.entries[0]
        for line in self.entries[1:]:
            if self.mode == "min":
                if line_above(best, line, x):
                    best = line
            else:
                if line_above(line, best, x):
                    best = line
        return best


@dataclass(frozen=True)
class SweepEvent:
    x: float
    swaps: tuple  # ((out_owner, in_owner), ...)


def build_tournaments(dataset, k, x0, rows=None):
    """Split the lines at x0 into the top-k min-tree and the rest max-tree.

    rows picks the candidates whose lines the trees hold (all by default);
    k counts the top-set members among them and may be 0 or all of them,
    which leaves one tree empty.
    """
    if dataset.d != 2:
        raise ValueError("the sweep engine needs two attributes")
    cands = dataset.candidates if rows is None else [dataset.candidates[i] for i in rows]
    if not 0 <= k <= len(cands):
        raise ValueError(f"k={k} outside 0..{len(cands)}")
    lines = [dual_line(c.cid, c.point) for c in cands]

    def cmp(a, b):
        return -1 if line_above(b, a, x0) else 1

    lines.sort(key=cmp_to_key(cmp))  # ascending: lowest line first
    bottom, top = lines[: len(lines) - k], lines[len(lines) - k:]
    return KineticTournament(top, "min", x0), KineticTournament(bottom, "max", x0)


def sweep_events(s1, s2, x_end):
    """Yield membership exchanges while the sweep line moves to x_end.

    Internal tournament certificates are replayed silently; an event is
    emitted only when a bottom line overtakes a top line, so every event
    changes the top-k membership.  Simultaneous crossings collapse into
    one event carrying all swapped pairs.
    """
    while True:
        r1, r2 = s1.root_line, s2.root_line
        bridge = _INF
        if r1 is not None and r2 is not None and r2.slope > r1.slope:
            bridge = cross_x(r1, r2)
        e = min(s1.next_cert(), s2.next_cert(), bridge)
        if e > x_end or e == _INF:
            s1.advance(x_end)
            s2.advance(x_end)
            return
        s1.advance(e)
        s2.advance(e)
        swaps = []
        while True:
            r1, r2 = s1.root_line, s2.root_line
            if r1 is None or r2 is None or not line_above(r2, r1, e):
                break
            slot1, slot2 = s1.root_slot, s2.root_slot
            s1.replace(slot1, r2)
            s2.replace(slot2, r1)
            swaps.append((r1.owner, r2.owner))
        if swaps:
            yield SweepEvent(e, tuple(swaps))


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
    s1, s2 = build_tournaments(dataset, k - int(sure_in.sum()), lb, band)
    events = sweep_events(s1, s2, ub)

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
