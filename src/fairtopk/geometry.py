"""Weight-space geometry and the LP kernel.

Weights live on the standard simplex, so every d-dimensional weight vector
is handled in the projected space of its first d-1 components; the last
component is implied.  Scores become affine functions of the projected
point, and in two dimensions each candidate turns into a dual line.

Every LP of the package goes through one kernel, the dense simplex_lp.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import LpStallError, WeightVector, weight_components
from .tolerances import (
    FEAS_TOL, PHASE_ONE_GAP, PHASE_ONE_TOL, PIVOT_TOL, RATIO_TIE, REDUCED_COST_TOL, RHS_SNAP,
    TIE_EPS, ZERO,
)


# ----------------------------------------------------------------------
# projection between the simplex and its first d-1 coordinates
# ----------------------------------------------------------------------

def project_weight(w):
    """Drop the last component."""
    comps = weight_components(w)
    return np.asarray(comps[:-1], dtype=float)


def lift_weight(y):
    """Recover the full vector; the last component closes the simplex sum.

    Components within FEAS_TOL below zero are solver noise and get clipped,
    then the vector is rescaled so the clip cannot break the simplex sum.
    """
    y = np.asarray(y, dtype=float)
    last = 1.0 - float(y.sum())
    comps = np.append(y, last)
    low = comps.min()
    if low < -FEAS_TOL:
        raise ValueError(f"point lies {-low:.3e} outside the weight simplex")
    if low < 0.0:
        comps = np.clip(comps, 0.0, None)
        comps /= comps.sum()
    return WeightVector(tuple(comps))


def project_points(points):
    """Affine score forms, one per row: score(w) = Q[i] . y + r[i] for projected y."""
    p = np.asarray(points, dtype=float)
    return p[:, :-1] - p[:, -1:], p[:, -1].copy()


def project_halfspace(coeffs, offset):
    """Rewrite coeffs . w + offset >= 0 over projected coordinates."""
    a = np.asarray(coeffs, dtype=float)
    return a[:-1] - a[-1], float(a[-1] + offset)


def simplex_rows_projected(d):
    """Projected nonnegativity rows: y_i >= 0 and 1 - sum(y) >= 0."""
    rows = []
    for i in range(d - 1):
        e = np.zeros(d - 1)
        e[i] = 1.0
        rows.append((e, 0.0))
    rows.append((-np.ones(d - 1), 1.0))
    return rows


def projected_region_rows(region):
    """All projected rows of a WeightRegion, simplex included."""
    rows = simplex_rows_projected(region.d)
    for coeffs, offset in region.halfspaces:
        rows.append(project_halfspace(coeffs, offset))
    return rows


@dataclass(frozen=True)
class DualLine:
    """Score of a 2-d candidate as a line over x = w_1: y = slope*x + intercept."""

    owner: int
    slope: float
    intercept: float


def dual_line(cid, point):
    px, py = (float(v) for v in point)
    return DualLine(cid, px - py, py)


# ----------------------------------------------------------------------
# LP problems
# ----------------------------------------------------------------------

@dataclass
class LpProblem:
    """min or max of c . x over rows a . x {<=, >=, =} b; variables free."""

    c: np.ndarray
    rows: list
    direction: str = "min"

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        if self.direction not in ("min", "max"):
            raise ValueError(f"bad direction {self.direction!r}")
        norm = []
        for a, rel, b in self.rows:
            a = np.asarray(a, dtype=float)
            if a.shape != self.c.shape:
                raise ValueError("row length does not match variable count")
            if rel not in ("<=", ">=", "="):
                raise ValueError(f"bad relation {rel!r}")
            norm.append((a, rel, float(b)))
        self.rows = norm

    @property
    def nvars(self):
        return len(self.c)


@dataclass
class LpOutcome:
    status: str            # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray = None
    value: float = None


# ----------------------------------------------------------------------
# dense two-phase simplex with an anti-cycling fallback
# ----------------------------------------------------------------------

def simplex_lp(problem, pivot_budget=20000):
    """Two-phase tableau simplex over split free variables.

    Rows with a negative right-hand side, and ">=" rows with a zero one,
    are negated first.  A row whose slack then has coefficient +1 starts
    with that slack in the basis.  Only "=" rows, ">=" rows with b > 0
    and "<=" rows with b < 0 get an artificial column, and phase 1 runs
    only when there is one.  Entering columns follow the most-negative
    reduced cost until a run of degenerate pivots, after which Bland's
    least-index rule takes over so the method cannot cycle.  Exceeding
    the pivot budget raises LpStallError rather than returning a wrong
    answer, and so does a phase-1 basis that drift has made singular.
    """
    sign = 1.0 if problem.direction == "min" else -1.0
    n = problem.nvars
    m = len(problem.rows)
    if m == 0:
        # unconstrained: bounded only if the objective is identically zero
        if np.any(np.abs(problem.c) > ZERO):
            return LpOutcome("unbounded")
        return LpOutcome("optimal", np.zeros(n), 0.0)

    # columns: x+ (n), x- (n), slack/surplus (one per inequality), artificials
    rel = np.array([r for _, r, _ in problem.rows])
    b = np.array([rhs for _, _, rhs in problem.rows])
    slack_rows = np.nonzero(rel != "=")[0]
    slack_cols = 2 * n + np.arange(len(slack_rows))
    n_cols = 2 * n + len(slack_rows)
    A = np.zeros((m, n_cols))
    A[:, :n] = [a for a, _, _ in problem.rows]
    A[:, n:2 * n] = -A[:, :n]
    A[slack_rows, slack_cols] = np.where(rel[slack_rows] == "<=", 1.0, -1.0)
    # negate the rows with b < 0, and the ">=" rows with b = 0: a slack that
    # then reads +1 starts basic, and only the other rows get an artificial
    flip = (b < 0) | ((b == 0) & (rel == ">="))
    A[flip] *= -1.0
    b[flip] *= -1.0
    basis = np.full(m, -1)
    plus = A[slack_rows, slack_cols] > 0
    basis[slack_rows[plus]] = slack_cols[plus]
    art_rows = np.nonzero(basis < 0)[0]
    art_cols = n_cols + np.arange(len(art_rows))
    basis[art_rows] = art_cols
    basis = basis.tolist()
    used = 0
    if len(art_rows):
        A = np.hstack([A, np.zeros((m, len(art_rows)))])
        A[art_rows, art_cols] = 1.0
        A0, b0 = A.copy(), b.copy()
        # phase 1: drive the artificial total to zero
        cost1 = np.zeros(A.shape[1])
        cost1[n_cols:] = 1.0
        _, used = _simplex_iterate(A, b, basis, cost1, pivot_budget, phase=1)
        if float(cost1[basis] @ b) > PHASE_ONE_GAP:
            return LpOutcome("infeasible")
        # pivoting drifts the tableau; re-derive it from the rows at the final basis
        try:
            A = np.linalg.solve(A0[:, basis], A0)
            b = np.linalg.solve(A0[:, basis], b0)
        except np.linalg.LinAlgError:
            raise LpStallError("the phase-1 basis drifted into a singular matrix") from None
        if float(cost1[basis] @ b) > PHASE_ONE_TOL:
            return LpOutcome("infeasible")
        # pivot artificials out of the basis where possible, drop dead rows
        rows_keep = []
        for i in range(m):
            if basis[i] >= n_cols:
                piv = None
                for j in range(n_cols):
                    if abs(A[i, j]) > PIVOT_TOL:
                        piv = j
                        break
                if piv is None:
                    continue  # redundant row
                _pivot(A, b, i, piv)
                basis[i] = piv
            rows_keep.append(i)
        A = A[rows_keep][:, :n_cols]
        b = b[rows_keep]
        basis = [basis[i] for i in rows_keep]

    cost2 = np.concatenate([sign * problem.c, -sign * problem.c, np.zeros(len(slack_rows))])
    try:
        (A, b), _ = _simplex_iterate(A, b, basis, cost2, pivot_budget - used, phase=2)
    except _Unbounded:
        return LpOutcome("unbounded")
    x_split = np.zeros(n_cols)
    x_split[basis] = b
    x = x_split[:n] - x_split[n:2 * n]
    return LpOutcome("optimal", x, float(problem.c @ x))


def seidel_lp(problem):
    """simplex_lp under the name the benchmark tracer spans.  Not an alias:
    the tracer swaps every attribute that is the spanned object, so an alias
    would file all simplex_lp calls under this name."""
    return simplex_lp(problem)


class _Unbounded(Exception):
    pass


def _pivot(A, b, row, col):
    piv = A[row, col]
    A[row] /= piv
    b[row] /= piv
    f = A[:, col]
    hit = np.abs(f) > ZERO
    hit[row] = False
    f = f[hit]
    A[hit] -= np.outer(f, A[row])
    bh = b[hit] - f * b[row]
    bh[(bh < 0) & (bh > -RHS_SNAP)] = 0.0
    b[hit] = bh


def _simplex_iterate(A, b, basis, cost, budget, phase):
    m = len(b)
    degenerate_run = 0
    bland = False
    last_obj = math.inf
    skip = []  # phase-1 columns passed over since the last pivot
    for it in range(max(budget, 1)):
        cb = cost[basis]
        reduced = cost - cb @ A
        reduced[basis] = 0.0
        if skip:
            reduced[skip] = 0.0
        if bland:
            neg = np.nonzero(reduced < -REDUCED_COST_TOL)[0]
            if len(neg) == 0:
                return (A, b), it
            col = int(neg[0])
        else:
            col = int(np.argmin(reduced))
            if reduced[col] >= -REDUCED_COST_TOL:
                return (A, b), it
        pos = A[:, col] > PIVOT_TOL
        if not np.any(pos):
            if phase == 2:
                raise _Unbounded
            # the phase-1 cost is bounded below, so this descent is drift
            skip.append(col)
            continue
        skip = []
        ratios = np.full(m, np.inf)
        ratios[pos] = b[pos] / A[pos, col]
        rmin = float(ratios.min())
        # break ratio ties toward the least basis index (Bland's exit rule);
        # without it the entering-side rule alone still admits cycles
        tied = np.nonzero(ratios <= rmin + RATIO_TIE * (1.0 + abs(rmin)))[0]
        row = int(min(tied, key=lambda i: basis[i]))
        _pivot(A, b, row, col)
        basis[row] = col
        obj = float(cost[basis] @ b)
        if obj >= last_obj - ZERO:
            degenerate_run += 1
            if degenerate_run >= 12:
                bland = True
        else:
            degenerate_run = 0
        last_obj = obj
    raise LpStallError(f"simplex exceeded {budget} pivots in phase {phase}")


# ----------------------------------------------------------------------
# region vertices and hyperplane side tests (projected space)
# ----------------------------------------------------------------------

def region_extreme_points(region):
    """Vertices of the projected region polytope, sorted lexicographically.

    Brute-force vertex enumeration: every (d-1)-subset of rows with a
    nonsingular matrix is solved as a linear system, all in one stacked
    solve, and kept when it satisfies all rows.  Intended for the handful
    of rows a weight region carries, not for large polytopes.  An empty
    list means the region is empty.
    """
    rows = projected_region_rows(region)
    A = np.array([r[0] for r in rows])
    off = np.array([r[1] for r in rows])
    combs = np.array(list(itertools.combinations(range(len(rows)), region.d - 1)))
    M = A[combs]
    solvable = np.linalg.det(M) != 0.0
    V = np.linalg.solve(M[solvable], -off[combs[solvable]][..., None])[..., 0]
    V = V[np.all(np.isfinite(V), axis=1)]
    verts = []
    for v in V[np.min(V @ A.T + off, axis=1) >= -FEAS_TOL]:
        if not any(np.max(np.abs(v - u)) <= FEAS_TOL for u in verts):
            verts.append(v)
    verts.sort(key=tuple)
    return verts


def region_interval(region):
    """Projected 1-d region (d = 2) as a closed interval, or None if empty."""
    if region.d != 2:
        raise ValueError("region_interval needs a 2-d region")
    verts = region_extreme_points(region)
    if not verts:
        return None
    xs = [float(v[0]) for v in verts]
    return min(xs), max(xs)


def hyperplane_side(coeffs, offsets, points):
    """Per hyperplane coeffs . y + offset = 0: +1 or -1 when all points lie
    strictly on that side, else 0.  coeffs stacks the normals on its last
    axis and offsets has the shape of the rest, so one call tests many."""
    offsets = np.asarray(offsets, dtype=float)
    if len(points) == 0:
        return np.zeros(offsets.shape, dtype=int)
    vals = np.asarray(coeffs, dtype=float) @ np.asarray(points, dtype=float).T
    vals += offsets[..., None]
    above, below = np.all(vals > FEAS_TOL, axis=-1), np.all(vals < -FEAS_TOL, axis=-1)
    return np.where(above, 1, np.where(below, -1, 0))


def band_split(points, k, region):
    """Cutoff band of the top-k over the region.

    Returns (verts, sure_in, sure_out, lambda_hi, lambda_lo): the projected
    region vertices, masks of the candidates inside (outside) every top-k
    anywhere in the region, and the lowest sure-in minimum (highest
    sure-out maximum) score, which bound the cutoff from above (below).
    An empty region puts every candidate in the band.
    """
    verts = np.array(region_extreme_points(region)).reshape(-1, region.d - 1)
    n = len(points)
    if not len(verts):
        return verts, np.zeros(n, dtype=bool), np.zeros(n, dtype=bool), None, None
    sv = points[:, :-1] @ verts.T + np.outer(points[:, -1], 1.0 - verts.sum(axis=1))
    smin, smax = sv.min(axis=1), sv.max(axis=1)
    if n > k:
        u = np.partition(smax, n - k - 1)[n - k - 1]  # (k+1)-th largest max
        v = np.partition(smin, n - k)[n - k]          # k-th largest min
        sure_in = smin > u + TIE_EPS
        sure_out = smax < v - TIE_EPS
    else:
        sure_in, sure_out = np.ones(n, dtype=bool), np.zeros(n, dtype=bool)
    lambda_hi = float(smin[sure_in].min()) if sure_in.any() else None
    lambda_lo = float(smax[sure_out].max()) if sure_out.any() else None
    return verts, sure_in, sure_out, lambda_hi, lambda_lo


def l1_envelope_rows(wo, nvars, phi):
    """Rows phi_i >= |w_i - wo_i|, weights in columns 0..d-1, phi from column phi."""
    rows = []
    for i in range(len(wo)):
        for sign in (-1.0, 1.0):
            a = np.zeros(nvars)
            a[phi + i] = 1.0
            a[i] = sign
            rows.append((a, ">=", sign * wo[i]))
    return rows


_RELATION = {1: ">=", -1: "<=", 0: "="}  # class side of the cutoff: above, below, on


def _wall_rows(walls, nv):
    """Rows h . y + off >= 0 over the leading projected columns of nv."""
    rows = []
    for h, off in walls:
        a = np.zeros(nv)
        a[: len(h)] = h
        rows.append((a, ">=", -off))
    return rows


class CutoffBand:
    """What every top-k cell of one (dataset, k, region) shares.

    band_split's sure rows stay on one side of the cutoff everywhere in the
    region.  The band rows fall into duplicate-point classes, numbered by
    their first band row so every cell LP keeps the band's row order; each
    class has a size and one projected score form (Q, r).  walls are the
    region's projected rows, simplex first.  One hyperplane_side call over
    the class pairs gives the band's r-dominance order, two boolean
    matrices: crosses[a, b] tells whether the tie hyperplane of classes a
    and b meets the region, so that moving a seat between them can change
    the top-k there, and above[a, b] whether class a scores above class b
    at every weight in the region.
    """

    def __init__(self, dataset, k, region):
        self.dataset, self.k, self.region, self.d = dataset, k, region, dataset.d
        points = dataset.points
        split = band_split(points, k, region)
        self.verts, self.sure_in, self.sure_out, self.lambda_hi, self.lambda_lo = split
        self.rows = np.nonzero(~(self.sure_in | self.sure_out))[0]
        _, first, inverse = np.unique(
            points[self.rows], axis=0, return_index=True, return_inverse=True
        )
        rank = np.argsort(np.argsort(first))  # class numbers in first-band-row order
        self.cls = rank[inverse.reshape(-1)]  # the inverse's shape varies across numpy 2.0.x
        self.size = np.bincount(self.cls, minlength=len(first))
        self.Q, self.r = project_points(points[self.rows[np.sort(first)]])
        self.walls = projected_region_rows(region)

        side = hyperplane_side(self.Q[:, None] - self.Q[None], self.r[:, None] - self.r[None],
                               self.verts)
        self.crosses, self.above = side == 0, side == 1

    def seats(self, subset):
        """Seats the subset, a sequence of ids, takes in each class, or None
        when it leaves out a sure-in row or takes a sure-out one: then it is
        top-k nowhere in the region."""
        member = np.isin(self.dataset.id_array, subset)
        if int(member.sum()) != len(subset):
            raise ValueError(f"subset {tuple(subset)} repeats an id or has one not in the data")
        if np.any(self.sure_in & ~member) or np.any(self.sure_out & member):
            return None
        return tuple(np.bincount(self.cls[member[self.rows]], minlength=len(self.size)).tolist())

    def subset(self, seats):
        """The ids of a seat tuple: every sure-in id and the lowest of each class."""
        ids = self.dataset.id_array
        out = ids[self.sure_in].tolist()
        for c, s in enumerate(seats):
            out += sorted(ids[self.rows[self.cls == c]].tolist())[:s]
        return tuple(sorted(out))


_last_band = None


def cutoff_band(dataset, k, region):
    """CutoffBand(dataset, k, region), or the last band this built when that
    was for the same dataset and region objects and the same k: an engine
    and the stable_weight after it share one band."""
    global _last_band
    band = _last_band
    if band is None or band.dataset is not dataset or band.region is not region or band.k != k:
        band = _last_band = CutoffBand(dataset, k, region)
    return band


class TopkCell:
    """The weights of the region that keep one subset on top: a top-k cell.

    A view over a CutoffBand and the subset's seats in its classes.  Each
    class gets one score row against the cutoff lambda: a fully taken class
    lies above it, an untouched one below, and a split class rides exactly
    on it, so a subset that splits classes gets the face where they all
    tie.  The sure rows are stood in for by the lambda_hi and lambda_lo
    cutoff rows.
    """

    def __init__(self, band, seats):
        self.band = band
        seats = np.asarray(seats, dtype=int)
        self.side = np.where(seats == band.size, 1, np.where(seats == 0, -1, 0))

    def _cut_rows(self, nv, xi=None):
        """Class score rows and cutoff rows over (y, lambda, ...); a xi
        column, when given, is the margin both must clear."""
        band, d = self.band, self.band.d
        rows = []
        for q, r, side in zip(band.Q, band.r, self.side):
            a = np.zeros(nv)
            a[: d - 1] = q
            a[d - 1] = -1.0
            if xi is not None and side:
                a[xi] = -side
            rows.append((a, _RELATION[side], -r))
        for bound, rel, sign in ((band.lambda_hi, "<=", 1.0), (band.lambda_lo, ">=", -1.0)):
            if bound is not None:
                a = np.zeros(nv)
                a[d - 1] = 1.0
                if xi is not None:
                    a[xi] = sign
                rows.append((a, rel, bound))
        return rows

    def witness(self):
        """A relative-interior point of the cell (of the tie face, when the
        subset splits classes) in projected coordinates, or None.

        Maximizes the margin xi <= 1 by which the classes clear the cutoff;
        the point counts only when xi exceeds TIE_EPS.
        """
        d = self.band.d
        nv = d + 1  # y (d-1), lambda, xi
        walls = self.band.walls[d:] + self.band.walls[:d]  # region rows, then the simplex's
        rows = self._cut_rows(nv, xi=d) + _wall_rows(walls, nv)
        a = np.zeros(nv)
        a[d] = 1.0
        rows.append((a, "<=", 1.0))
        out = simplex_lp(LpProblem(a, rows, "max"))
        if out.status != "optimal" or out.value <= TIE_EPS:
            return None
        return tuple(float(v) for v in out.x[: d - 1])

    def closest(self):
        """The closed cell's point closest in L1 to the region's reference:
        (weight, distance), or None when the cell misses the region."""
        d = self.band.d
        nv = 2 * d  # y (d-1), lambda, phi (d)
        wo = self.band.region.reference.weights
        eye = np.eye(d)
        # phi_i >= |w_i - wo_i|, one row per sign
        envelope = _wall_rows(
            [project_halfspace(s * eye[i], -s * wo[i]) for i in range(d) for s in (-1.0, 1.0)], nv
        )
        for j, (a, _, _) in enumerate(envelope):
            a[d + j // 2] = 1.0
        rows = self._cut_rows(nv) + _wall_rows(self.band.walls, nv) + envelope
        c = np.zeros(nv)
        c[d:] = 1.0
        out = simplex_lp(LpProblem(c, rows, "min"))
        if out.status != "optimal":
            return None
        return lift_weight(out.x[: d - 1]), float(out.value)

    def center(self):
        """Chebyshev centre of the cell (Boyd and Vandenberghe, section 8.5):
        (weight, radius, box radius, degenerate), or None.

        The largest ball in projected coordinates that clears every pair of
        a band class on or above the cutoff and another on or below it, and
        every region row, each scaled to unit L2 length.  A split class ties
        with itself under every weight, so the cell has no interior: its own
        pair adds no row, the weight is the centre of the cell the other
        rows leave, and the radius reads 0 with the degenerate flag set, as
        it does for a radius within FEAS_TOL of 0.  The box radius is the
        per-component half-width that no wall can cross.
        """
        band, d = self.band, self.band.d
        ins, outs = np.nonzero(self.side >= 0)[0], np.nonzero(self.side <= 0)[0]
        g = (band.Q[ins, None, :] - band.Q[None, outs, :]).reshape(-1, d - 1)
        h = (band.r[ins, None] - band.r[None, outs]).reshape(-1)
        other = (ins[:, None] != outs[None, :]).reshape(-1)
        rows = []
        for gi, hi in list(zip(g[other], h[other])) + band.walls:
            norm = float(np.linalg.norm(gi))
            if norm <= ZERO:
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
        degenerate = bool(np.any(self.side == 0)) or margin <= FEAS_TOL
        if degenerate:
            margin = 0.0
        max_l1 = max([1.0] + [float(np.abs(row[: d - 1]).sum()) for row, _, _ in rows])
        return lift_weight(out.x[: d - 1]), margin, margin / max_l1, degenerate

