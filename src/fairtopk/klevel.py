"""Multi-dimensional engine: walk top-k cells of the weight region.

The arrangement of score-equality hyperplanes partitions the region into
cells, each with a fixed top-k subset, and faces where duplicate-point
classes tie at the cutoff.  From witness points the traversal expands
these nodes breadth-first through single-candidate swaps; each distinct
subset a swap reaches gets one witness LP of its geometry.TopkCell, which
holds only the cutoff band's rows.  Fairness of every visited node is
delegated to the verify module at its witness, so split classes tied there
stay exact; a fair node's weight is its cell's closest point to the
reference.

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

from .core import BudgetExceededError, UTILITY_LOSS
from .geometry import TopkCell, band_split, hyperplane_side, lift_weight, project_points
from .verify import decompose_topk, finish_result, max_fair_utility, verify_fair

DEFAULT_SWAP_BUDGET = 5_000_000


@dataclass(frozen=True)
class CellNode:
    """A cell, or the face where the duplicate classes it splits tie at
    the cutoff: its canonical subset and a relative-interior witness."""

    subset: tuple
    witness: tuple


@dataclass
class TraversalLedger:
    """Work accounting for budget enforcement and the soundness tests."""

    cells_visited: int = 0
    swap_tests: int = 0  # cell LPs, one per distinct subset a swap reaches
    pruned_by_region: int = 0
    fair_cells: int = 0


class _Workspace:
    """Per-run geometry shared by every cell of a traversal."""

    def __init__(self, dataset, k, region):
        self.dataset = dataset
        self.k = k
        self.region = region
        pts = dataset.points
        self.split = band_split(pts, k, region)
        self.verts, sure_in, sure_out, _, _ = self.split
        self.band = ~(sure_in | sure_out)
        self.Q, self.r = project_points(pts)
        self.ids = dataset.id_array
        self.pos = {cid: i for i, cid in enumerate(dataset.ids)}
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

    def cell(self, subset):
        """The top-k cell of subset over the region."""
        member = np.isin(self.ids, subset)
        return TopkCell(self.dataset.points, member, self.split, self.region)


def initial_cell(dataset, k, region, witness=None):
    """Cell containing a witness (default: the region vertex centroid)."""
    ws = _Workspace(dataset, k, region)
    if witness is None:
        if not len(ws.verts):
            return None
        witness = ws.verts.mean(axis=0)
    return _initial_cell(ws, witness)


def _initial_cell(ws, witness):
    decomp = decompose_topk(ws.dataset, ws.k, lift_weight(witness))
    subset = ws.canonical(decomp.order[: ws.k])
    return CellNode(subset=subset, witness=tuple(float(v) for v in witness))


def traverse(dataset, k, spec, region, workers=1, swap_budget=DEFAULT_SWAP_BUDGET,
             ledger=None):
    """Best fair weight by breadth-first search over reachable cells.

    Expands every reachable cell whose interior meets the region, seeded
    from the region centroid, its extreme points and the reference weight.
    Under w-difference each fair cell contributes its closest point to the
    reference; under utility loss its witness utility.  ledger.swap_tests
    counts one cell LP per distinct subset a swap reaches; more than
    swap_budget of them raise BudgetExceededError with the best so far as
    partial.  workers is accepted and ignored: the walk is serial (see the
    module docstring).
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

    seen = set()  # subsets a seed produced or a cell LP was asked about
    work = deque()
    for s in seeds:
        node = _initial_cell(ws, s)
        if node.subset not in seen:
            seen.add(node.subset)
            work.append(node)

    band_ids = [int(i) for i in ws.ids[ws.band]]
    band_set = set(band_ids)
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
            cell = ws.cell(node.subset).closest()
            if cell is not None:
                ledger.fair_cells += 1
                sols.append((cell[1], node.subset, node.witness, cell[0]))

    def expand(node):
        """Queue the unseen neighbour nodes; False once the budget is spent."""
        members = set(node.subset)
        for c_out in [c for c in node.subset if c in band_set]:
            for c_in in band_ids:
                if c_in in members:
                    continue
                i_out, i_in = ws.pos[c_out], ws.pos[c_in]
                diff, off = ws.Q[i_in] - ws.Q[i_out], ws.r[i_in] - ws.r[i_out]
                if hyperplane_side(diff, off, ws.verts) != 0:
                    ledger.pruned_by_region += 1
                    continue
                subset = ws.canonical(members - {c_out} | {c_in})
                if subset in seen:
                    continue  # also every swap inside a duplicate class
                seen.add(subset)
                ledger.swap_tests += 1
                if ledger.swap_tests > swap_budget:
                    return False
                witness = ws.cell(subset).witness()
                if witness is not None:
                    work.append(CellNode(subset, witness))
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
            cell = ws.cell(subset).closest()
            point = cell[0] if cell is not None else None
        weights = [lift_weight(witness)]
        if point is not None:
            weights.insert(0, point)
        result = finish_result(dataset, k, spec, region, weights, "klevel")
    if not within_budget:
        raise BudgetExceededError(
            f"swap budget {swap_budget} exceeded after {ledger.cells_visited} cells",
            partial=result,
        )
    return result
