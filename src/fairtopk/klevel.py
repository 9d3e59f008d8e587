"""Multi-dimensional engine: walk top-k cells of the weight region.

The arrangement of score-equality hyperplanes partitions the region into
cells, each with a fixed top-k subset, and faces where duplicate-point
classes tie at the cutoff.  From witness points the traversal expands
these nodes breadth-first through single-candidate swaps, each found by an
LP inside the region.  Fairness of every visited node is delegated to the
verify module at its witness, so split classes tied there stay exact.

A cutoff band keeps the LPs small: candidates provably inside every top-k
over the region are fixed in, candidates provably outside are fixed out,
and two cutoff rows keep the reduced model equivalent to the full one.

The walk is serial, one first-in first-out queue: its work is pure-Python
LP code that holds the GIL, so threads cannot overlap it and only add
contention (a thread pool took 86 s with two workers against 70 s with one
on the three-attribute acceptance suite).  The workers argument is
accepted and has no effect.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import BudgetExceededError, UTILITY_LOSS, WeightVector
from .geometry import (
    LpProblem,
    band_split,
    cell_min_wdiff,
    hyperplane_side,
    lift_weight,
    project_halfspace,
    project_points,
    simplex_rows_projected,
    solve_lp,
)
from .verify import decompose_topk, finish_result, max_fair_utility, verify_fair

CELL_TOL = 1e-9
DEFAULT_SWAP_BUDGET = 5_000_000


@dataclass(frozen=True)
class CellNode:
    """A cell, or the face where the duplicate classes it splits tie at
    the cutoff: its canonical subset and a relative-interior witness."""

    subset: tuple
    witness: tuple
    depth: int = 0


@dataclass
class TraversalLedger:
    """Work accounting for budget enforcement and the soundness tests."""

    cells_visited: int = 0
    swap_tests: int = 0
    pruned_by_region: int = 0
    fair_cells: int = 0


class _Workspace:
    """Per-run geometry shared by every LP of a traversal."""

    def __init__(self, dataset, k, region):
        self.dataset = dataset
        self.k = k
        self.region = region
        self.d = dataset.d
        pts = dataset.points
        self.split = band_split(pts, k, region)
        self.verts, self.sure_in, self.sure_out, self.lambda_hi, self.lambda_lo = self.split
        self.band = ~(self.sure_in | self.sure_out)
        self.Q, self.r = project_points(pts)
        self.ids = dataset.id_array
        self.pos = {cid: i for i, cid in enumerate(dataset.ids)}
        self.region_rows = [project_halfspace(c, o) for c, o in region.halfspaces]
        # duplicate-point classes for canonical subset keys
        classes = {}
        for c in dataset.candidates:
            classes.setdefault(c.point, []).append(c.cid)
        self.dup_class = {}
        for members in classes.values():
            members.sort()
            for cid in members:
                self.dup_class[cid] = tuple(members)

    def canonical(self, ids):
        """Replace duplicate-point picks by the lowest ids of their class."""
        picked = {}
        for cid in ids:
            cls = self.dup_class[cid]
            picked[cls] = picked.get(cls, 0) + 1
        out = []
        for cls, m in picked.items():
            out.extend(cls[:m])
        return tuple(sorted(out))

    def swap_problem(self, new_subset):
        """max xi so the band part of new_subset separates strictly in V.

        Separation works on duplicate-point classes: a fully taken class
        must clear the threshold from above, an untouched one from below,
        and every split class rides exactly on it, so a subset that splits
        classes gets the face where they all tie at the pivot.  A split or
        missed sure-in class (or the reverse for sure-out) is impossible
        anywhere in the region and yields None.
        """
        d = self.d
        nv = d + 1  # variables: y (d-1), lambda, xi
        rows = []
        member = set(new_subset)
        seen = set()
        for i in range(len(self.ids)):
            cid = int(self.ids[i])
            cls = self.dup_class[cid]
            if cls in seen:
                continue
            seen.add(cls)
            taken = sum(1 for c in cls if c in member)
            if not self.band[i]:
                impossible = (self.sure_in[i] and taken < len(cls)) or (
                    self.sure_out[i] and taken > 0
                )
                if impossible:
                    return None
                continue
            a = np.zeros(nv)
            a[: d - 1] = self.Q[i]
            a[d - 1] = -1.0
            if taken == len(cls):
                a[d] = -1.0
                rows.append((a, ">=", -self.r[i]))
            elif taken == 0:
                a[d] = 1.0
                rows.append((a, "<=", -self.r[i]))
            else:
                rows.append((a, "=", -self.r[i]))
        if self.lambda_hi is not None:
            a = np.zeros(nv)
            a[d - 1] = 1.0
            a[d] = 1.0
            rows.append((a, "<=", self.lambda_hi))
        if self.lambda_lo is not None:
            a = np.zeros(nv)
            a[d - 1] = 1.0
            a[d] = -1.0
            rows.append((a, ">=", self.lambda_lo))
        for h, off in self.region_rows + simplex_rows_projected(d):
            a = np.zeros(nv)
            a[: d - 1] = h
            rows.append((a, ">=", -off))
        a = np.zeros(nv)
        a[d] = 1.0
        rows.append((a, "<=", 1.0))
        c = np.zeros(nv)
        c[d] = 1.0
        return LpProblem(c, rows, "max")


def initial_cell(dataset, k, region, witness=None):
    """Cell containing a witness (default: the region vertex centroid)."""
    ws = _Workspace(dataset, k, region)
    return _initial_cell(ws, witness)


def _initial_cell(ws, witness=None):
    if witness is None:
        if not len(ws.verts):
            return None
        witness = ws.verts.mean(axis=0)
    w = lift_weight(witness)
    decomp = decompose_topk(ws.dataset, ws.k, w)
    subset = ws.canonical(decomp.order[: ws.k])
    return CellNode(subset=subset, witness=tuple(float(v) for v in witness))


def swap_feasible(dataset, k, subset, c_out, c_in, region):
    """Witness of the node (cell or tie face) of subset - c_out + c_in, or None."""
    ws = _Workspace(dataset, k, region)
    return _swap_feasible(ws, subset, c_out, c_in)


def _swap_feasible(ws, subset, c_out, c_in):
    new_subset = tuple(sorted(set(subset) - {c_out} | {c_in}))
    problem = ws.swap_problem(new_subset)
    if problem is None:
        return None
    out = solve_lp(problem)
    if out.status != "optimal" or out.value <= CELL_TOL:
        return None
    return tuple(float(v) for v in out.x[: ws.d - 1])


def traverse(dataset, k, spec, region, workers=1, swap_budget=DEFAULT_SWAP_BUDGET,
             ledger=None):
    """Best fair weight by breadth-first search over reachable cells.

    Expands every reachable cell whose interior meets the region, seeded
    from the region centroid, its extreme points and the reference weight.
    Under w-difference each fair cell contributes its closest point to the
    reference; under utility loss its witness utility.  Exceeding the swap
    budget raises BudgetExceededError with the best solution so far
    attached as partial.  workers is accepted and ignored: the walk is
    serial (see the module docstring).
    """
    spec.validate(k)
    if workers > 1:
        warnings.warn(
            f"klevel traversal is serial; workers={workers} has no effect", stacklevel=2
        )
    if ledger is None:
        ledger = TraversalLedger()
    ws = _Workspace(dataset, k, region)
    if not len(ws.verts):
        return None
    objective = region.objective
    wo = region.reference

    seeds = [ws.verts.mean(axis=0)]
    seeds.extend(ws.verts)
    if region.contains(wo):
        seeds.append(np.asarray(wo.weights[:-1]))

    visited = set()
    work = deque()
    for s in seeds:
        node = _initial_cell(ws, s)
        if node is not None and node.subset not in visited:
            visited.add(node.subset)
            work.append(node)

    band_ids = [int(i) for i in ws.ids[ws.band]]
    band_set = set(band_ids)
    point_of = {c.cid: c.point for c in dataset.candidates}
    sols = []  # (objective key, subset, interior witness, closest cell point)

    def evaluate(node):
        ledger.cells_visited += 1
        w_node = lift_weight(node.witness)
        if objective == UTILITY_LOSS:
            hit = max_fair_utility(dataset, k, spec, w_node, wo)
            if hit is not None:
                ledger.fair_cells += 1
                sols.append((-hit[1], node.subset, node.witness, None))
        elif verify_fair(dataset, k, spec, w_node):
            member = np.isin(ws.ids, node.subset)
            cell = cell_min_wdiff(dataset.points, member, ws.split, region)
            if cell is not None:
                ledger.fair_cells += 1
                sols.append((cell[1], node.subset, node.witness, cell[0]))

    def expand(node):
        """Queue the unseen neighbour cells; False once the budget is spent."""
        members = set(node.subset)
        for c_out in [c for c in node.subset if c in band_set]:
            for c_in in band_ids:
                if c_in in members or point_of[c_out] == point_of[c_in]:
                    continue  # same cell under any weight
                i_out, i_in = ws.pos[c_out], ws.pos[c_in]
                diff = ws.Q[i_in] - ws.Q[i_out]
                off = ws.r[i_in] - ws.r[i_out]
                if hyperplane_side(diff, off, ws.verts) != 0:
                    ledger.pruned_by_region += 1
                    continue
                ledger.swap_tests += 1
                if ledger.swap_tests > swap_budget:
                    return False
                witness = _swap_feasible(ws, node.subset, c_out, c_in)
                if witness is None:
                    continue
                new_subset = ws.canonical(tuple(sorted(members - {c_out} | {c_in})))
                if new_subset not in visited:
                    visited.add(new_subset)
                    work.append(CellNode(new_subset, witness, node.depth + 1))
        return True

    within_budget = True
    while work and within_budget:
        node = work.popleft()
        evaluate(node)
        within_budget = expand(node)

    result = None
    if sols:
        # subsets are unique, so (key, subset) orders the solutions totally
        _, subset, witness, point = min(sols, key=lambda s: (s[0], s[1]))
        if point is None:  # utility: prefer the cell point closest to the reference
            member = np.isin(ws.ids, subset)
            cell = cell_min_wdiff(dataset.points, member, ws.split, region)
            point = cell[0] if cell is not None else None
        weights = [lift_weight(witness)]
        if point is not None:
            weights.insert(0, WeightVector(point))
        result = finish_result(dataset, k, spec, region, weights, "klevel")
    if not within_budget:
        raise BudgetExceededError(
            f"swap budget {swap_budget} exceeded after {ledger.cells_visited} cells",
            partial=result,
        )
    return result
