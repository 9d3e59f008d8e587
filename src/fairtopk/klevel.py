"""Multi-dimensional engine: walk top-k cells of the weight region.

The arrangement of score-equality hyperplanes partitions the region into
cells, each with a fixed top-k subset, and faces where duplicate-point
classes tie at the cutoff.  What no cell changes is worked out once per
traversal in a geometry.CutoffBand: the sure rows, the band's duplicate
classes and the class pairs whose tie hyperplane meets the region.  A node
is the seats its subset takes in each class.  From witness points the
traversal expands nodes breadth-first by moving one seat between two such
classes; each distinct seat tuple a move reaches gets one witness LP of its
geometry.TopkCell.  Fairness of every visited node is delegated to the
verify module at its witness, so split classes tied there stay exact; a
fair node's weight is its cell's closest point to the reference.

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
from .geometry import CutoffBand, TopkCell, lift_weight
from .verify import decompose_topk, finish_result, max_fair_utility, verify_fair

DEFAULT_SWAP_BUDGET = 5_000_000


@dataclass(frozen=True)
class CellNode:
    """A cell, or the face where the duplicate classes it splits tie at
    the cutoff: its seats in the band's classes and a relative-interior
    witness."""

    seats: tuple
    witness: tuple


@dataclass
class TraversalLedger:
    """Work accounting for budget enforcement and the soundness tests."""

    cells_visited: int = 0
    swap_tests: int = 0  # cell LPs, one per distinct seat tuple a swap reaches
    pruned_by_region: int = 0  # class pairs whose tie hyperplane misses the region
    fair_cells: int = 0


def initial_cell(dataset, k, region, witness=None):
    """Cell containing a witness (default: the region vertex centroid)."""
    band = CutoffBand(dataset, k, region)
    if witness is None:
        if not len(band.verts):
            return None
        witness = band.verts.mean(axis=0)
    return _initial_cell(band, k, witness)


def _initial_cell(band, k, witness):
    decomp = decompose_topk(band.dataset, k, lift_weight(witness))
    return CellNode(band.seats(decomp.order[:k]), tuple(float(v) for v in witness))


def traverse(dataset, k, spec, region, workers=1, swap_budget=DEFAULT_SWAP_BUDGET,
             ledger=None):
    """Best fair weight by breadth-first search over reachable cells.

    Expands every reachable cell whose interior meets the region, seeded
    from the region centroid, its extreme points and the reference weight.
    Under w-difference each fair cell contributes its closest point to the
    reference; under utility loss its witness utility.  ledger.swap_tests
    counts one cell LP per distinct seat tuple a move reaches; more than
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
    band = CutoffBand(dataset, k, region)
    if not len(band.verts):
        return None
    objective = region.objective
    wo = region.reference

    seeds = [band.verts.mean(axis=0)]
    seeds.extend(band.verts)
    if region.contains(wo):
        seeds.append(np.asarray(wo.weights[:-1]))

    seen = set()  # seat tuples a seed produced or a cell LP was asked about
    work = deque()
    for s in seeds:
        node = _initial_cell(band, k, s)
        if node.seats is not None and node.seats not in seen:
            seen.add(node.seats)
            work.append(node)

    size, crosses = band.size.tolist(), band.crosses
    sols = []  # (objective key, id subset, node, closest cell point)

    def evaluate(node):
        ledger.cells_visited += 1
        w_node = lift_weight(node.witness)
        if objective == UTILITY_LOSS:
            hit = max_fair_utility(dataset, k, spec, w_node, wo)
            if hit is not None:
                ledger.fair_cells += 1
                sols.append((-hit[1], band.subset(node.seats), node, None))
        elif verify_fair(dataset, k, spec, w_node):
            cell = TopkCell(band, node.seats).closest()
            if cell is not None:
                ledger.fair_cells += 1
                sols.append((cell[1], band.subset(node.seats), node, cell[0]))

    def expand(node):
        """Queue the unseen neighbour nodes; False once the budget is spent.

        A swap moves one seat from a class to another it does not fill."""
        seats = node.seats
        free = [b for b, (s, n) in enumerate(zip(seats, size)) if s < n]
        for a in (a for a, s in enumerate(seats) if s):
            for b in free:
                if b == a:
                    continue
                if not crosses[a][b]:
                    ledger.pruned_by_region += 1
                    continue
                moved = list(seats)
                moved[a] -= 1
                moved[b] += 1
                moved = tuple(moved)
                if moved in seen:
                    continue
                seen.add(moved)
                ledger.swap_tests += 1
                if ledger.swap_tests > swap_budget:
                    return False
                witness = TopkCell(band, moved).witness()
                if witness is not None:
                    work.append(CellNode(moved, witness))
        return True

    within_budget = True
    while work and within_budget:
        node = work.popleft()
        evaluate(node)
        within_budget = expand(node)

    result = None
    if sols:
        # subsets are unique, so (key, subset) orders the solutions totally
        _, _, node, point = min(sols, key=lambda s: (s[0], s[1]))
        if point is None:  # utility: prefer the cell point closest to the reference
            cell = TopkCell(band, node.seats).closest()
            point = cell[0] if cell is not None else None
        weights = [lift_weight(node.witness)]
        if point is not None:
            weights.insert(0, point)
        result = finish_result(dataset, k, spec, region, weights, "klevel")
    if not within_budget:
        raise BudgetExceededError(
            f"swap budget {swap_budget} exceeded after {ledger.cells_visited} cells",
            partial=result,
        )
    return result
