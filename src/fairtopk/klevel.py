"""Multi-dimensional engine: walk top-k cells of the weight region.

The arrangement of score-equality hyperplanes partitions the region into
cells, each with a fixed top-k subset, and faces where duplicate-point
classes tie at the cutoff.  What no cell changes is worked out once per
traversal in a geometry.CutoffBand: the sure rows, the band's duplicate
classes and the class pairs whose tie hyperplane meets the region.  A node
is the seats its subset takes in each class.  From witness points the
traversal expands nodes breadth-first by moving one seat between two such
classes; each distinct seat tuple a move reaches gets one witness LP of its
geometry.TopkCell, unless the band's r-dominance order proves the cell
empty (Ciaccia and Martinenghi, PVLDB 2017).  Every taken class sits on or
above the cutoff and every class that is not full on or below it, so a
move is skipped when a taken class lies below the donor everywhere in the
region, or a class left not full lies above the receiver everywhere.
Fairness of every visited node is delegated to the verify module at its
witness, so split classes tied there stay exact; a fair node's weight is
its cell's closest point to the reference.

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
from .verify import TieResolver, finish_result

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
    swap_tests: int = 0  # cell LPs, one per distinct open seat tuple a swap reaches
    pruned_by_region: int = 0  # class pairs whose tie hyperplane misses the region
    pruned_by_order: int = 0  # seat tuples the band's order proves empty, no LP
    fair_cells: int = 0


def _seed_node(band, witness):
    """The node of the top k at a projected witness: the first k rows by
    (score desc, id asc), which is decompose_topk's order there."""
    dataset = band.dataset
    scores = dataset.scores(lift_weight(witness))
    member = np.zeros(len(dataset), dtype=bool)
    member[np.lexsort((dataset.id_array, -scores))[: band.k]] = True
    return CellNode(band.member_seats(member), tuple(float(v) for v in witness))


def traverse(dataset, k, spec, region, workers=1, swap_budget=DEFAULT_SWAP_BUDGET,
             ledger=None):
    """Best fair weight by breadth-first search over reachable cells.

    Expands every reachable cell whose interior meets the region, seeded
    from the region centroid, its extreme points and the reference weight.
    Under w-difference each fair cell contributes its closest point to the
    reference; under utility loss its witness utility.  ledger.swap_tests
    counts one cell LP per distinct seat tuple a move reaches and the
    band's order leaves open (ledger.pruned_by_order the others); more than
    swap_budget of them raise BudgetExceededError with the best so far as
    partial.  The result, partial or not, carries the walk's CutoffBand as
    its band.  workers is accepted and ignored: the walk is serial (see the
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

    seeds = [band.centroid]
    seeds.extend(band.verts)
    if region.contains(wo):
        seeds.append(np.asarray(wo.weights[:-1]))

    seen = set()  # seat tuples a seed produced or a cell LP was asked about
    work = deque()
    for s in seeds:
        node = _seed_node(band, s)
        if node.seats is not None and node.seats not in seen:
            seen.add(node.seats)
            work.append(node)

    size, crosses, above = band.size.tolist(), band.crosses.tolist(), band.above.tolist()
    resolver = TieResolver(dataset, k, spec, wo if objective == UTILITY_LOSS else None)
    sols = []  # (objective key, id subset, node, closest cell point)

    def evaluate(node):
        ledger.cells_visited += 1
        w_node = lift_weight(node.witness)
        if objective == UTILITY_LOSS:
            hit = resolver.best(w_node)
            if hit is not None:
                ledger.fair_cells += 1
                sols.append((-hit[1], band.subset(node.seats), node, None))
        elif resolver.fair(w_node):
            cell = TopkCell(band, node.seats).closest()
            if cell is not None:
                ledger.fair_cells += 1
                sols.append((cell[1], band.subset(node.seats), node, cell[0]))

    def expand(node):
        """Queue the unseen neighbour nodes; False once the budget is spent.

        A swap moves one seat from a class to another it does not fill."""
        seats = node.seats
        taken = [a for a, s in enumerate(seats) if s]
        free = [b for b, (s, n) in enumerate(zip(seats, size)) if s < n]
        # the order rules a move out when a taken class lies below the donor
        # a everywhere, or a class left not full lies above the receiver b;
        # b itself, and a itself, fall to the crosses prune first
        outranked = {b: any(above[e][b] for e in free) for b in free}
        for a in taken:
            outranks = any(above[a][c] for c in taken)
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
                if outranks or outranked[b]:
                    ledger.pruned_by_order += 1
                    continue
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
        result = finish_result(dataset, k, spec, region, weights, "klevel", band)
    if not within_budget:
        raise BudgetExceededError(
            f"swap budget {swap_budget} exceeded after {ledger.cells_visited} cells",
            partial=result,
        )
    return result
