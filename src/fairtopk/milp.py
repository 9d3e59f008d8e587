"""Mixed-integer formulation of fair weight synthesis, with its own solver.

One binary per candidate marks top-k membership; a score threshold variable
ties the binaries to the linear scores through unit big-M rows, which is
valid because attributes are required to lie in [0,1] so every score and
the threshold live in [0,1] too.  Group count rows encode fairness, the
region rows restrict the weights, and the objective is either the L1
distance to the reference weights or the selected reference utility.

The solver is a best-first branch and bound over the dense-simplex
relaxation, reduced to the cutoff band.  Integral relaxation points are
checked and placed by the top-k cell that klevel walks
(geometry.TopkCell): the incumbent weight is the cell's closest point to
the reference, and a subset whose cell misses the region gets a no-good
cut.  The answer's witness and value come from verify.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .core import TIE_EPS, BudgetExceededError, W_DIFFERENCE
from .geometry import CutoffBand, LpProblem, TopkCell, l1_envelope_rows, simplex_lp
from .verify import finish_result

INT_TOL = 1e-6
CUT_TOL = 1e-12
DEFAULT_NODE_BUDGET = 200_000


@dataclass
class MilpModel:
    """Full model: variables w, threshold, one binary per candidate, and
    L1 envelope variables when the objective is the weight difference."""

    dataset: object
    k: int
    spec: object
    region: object
    objective: str
    c: np.ndarray
    direction: str
    rows: list            # (coeffs, relation, rhs) in build order
    bounds: list          # (lo, hi) per variable, None for free
    binaries: list        # variable indices of the membership binaries
    names: list

    @property
    def nvars(self):
        return len(self.c)


def build_milp(dataset, k, spec, region):
    """Assemble the model rows in a fixed, documented order."""
    spec.validate(k)
    if region.d != dataset.d:
        raise ValueError("region dimension does not match the dataset")
    pts = dataset.points
    if pts.min() < -TIE_EPS or pts.max() > 1.0 + TIE_EPS:
        raise ValueError("attributes must lie in [0,1] for the milp engine")
    d, n = dataset.d, len(dataset)
    wo = region.reference
    wdiff = region.objective == W_DIFFERENCE
    nv = d + 1 + n + (d if wdiff else 0)
    names = [f"w{i}" for i in range(d)] + ["lam"]
    names += [f"d{cid}" for cid in dataset.ids]
    if wdiff:
        names += [f"p{i}" for i in range(d)]

    rows = []
    # score rows: member -> score >= lam, non-member -> score <= lam
    for i in range(n):
        a = np.zeros(nv)
        a[:d] = pts[i]
        a[d] = -1.0
        a[d + 1 + i] = -1.0
        rows.append((a, "<=", 0.0))
        rows.append((a.copy(), ">=", -1.0))
    a = np.zeros(nv)
    a[d + 1: d + 1 + n] = 1.0
    rows.append((a, "=", float(k)))
    for j in range(spec.n_protected):
        mask = dataset.group_member_mask(j)
        a = np.zeros(nv)
        a[d + 1: d + 1 + n][mask] = 1.0
        rows.append((a.copy(), ">=", float(spec.lower[j])))
        rows.append((a, "<=", float(spec.upper[j])))
    a = np.zeros(nv)
    a[:d] = 1.0
    rows.append((a, "=", 1.0))
    for coeffs, off in region.halfspaces:
        a = np.zeros(nv)
        a[:d] = coeffs
        rows.append((a, ">=", -off))
    if wdiff:
        rows.extend(l1_envelope_rows(wo, nv, d + 1 + n))

    bounds = [(0.0, 1.0)] * d + [(0.0, 1.0)]
    bounds += [(0.0, 1.0)] * n
    if wdiff:
        bounds += [(0.0, None)] * d

    c = np.zeros(nv)
    if wdiff:
        c[d + 1 + n:] = 1.0
        direction = "min"
    else:
        c[d + 1: d + 1 + n] = pts @ wo.as_array()
        direction = "max"
    return MilpModel(
        dataset=dataset, k=k, spec=spec, region=region,
        objective=region.objective, c=c, direction=direction, rows=rows,
        bounds=bounds, binaries=list(range(d + 1, d + 1 + n)), names=names,
    )


def export_lp(model):
    """LP-format text: objective, constraints in build order, bounds,
    binary section, End."""
    out = ["\\ fair top-k selection model"]
    out.append("Minimize" if model.direction == "min" else "Maximize")
    out.append(" obj: " + _lincomb(model.c, model.names))
    out.append("Subject To")
    rel = {"<=": "<=", ">=": ">=", "=": "="}
    for i, (a, r, b) in enumerate(model.rows):
        out.append(f" r{i}: " + _lincomb(a, model.names) + f" {rel[r]} {_num(b)}")
    out.append("Bounds")
    for i, (lo, hi) in enumerate(model.bounds):
        lo_s = "-inf" if lo is None else _num(lo)
        hi_s = "+inf" if hi is None else _num(hi)
        out.append(f" {lo_s} <= {model.names[i]} <= {hi_s}")
    out.append("Binaries")
    out.append(" " + " ".join(model.names[i] for i in model.binaries))
    out.append("End")
    return "\n".join(out) + "\n"


def _lincomb(coeffs, names):
    terms = []
    for v, name in zip(coeffs, names):
        if v == 0.0:
            continue
        sign = "-" if v < 0 else ("+" if terms else "")
        terms.append(f"{sign} {_num(abs(v))} {name}".strip())
    return " ".join(terms) if terms else "0 " + names[0]


def _num(v):
    return f"{v:.12g}"


@dataclass(order=True)
class _Node:
    bound: float
    depth: int
    serial: int
    fixings: dict = field(compare=False)


def _relaxation_rows(model, band):
    """Per-node rows: band score rows, cutoff rows and the rest of the
    model, with the sure-in and sure-out binaries fixed instead."""
    d, n = model.dataset.d, len(model.dataset)
    base_fix = {d + 1 + int(i): 1.0 for i in np.nonzero(band.sure_in)[0]}
    base_fix.update({d + 1 + int(i): 0.0 for i in np.nonzero(band.sure_out)[0]})
    rows = [model.rows[2 * int(i) + j] for i in band.rows for j in (0, 1)]
    for bound, rel in ((band.lambda_hi, "<="), (band.lambda_lo, ">=")):
        if bound is not None:
            a = np.zeros(model.nvars)
            a[d] = 1.0
            rows.append((a, rel, bound))
    rows.extend(model.rows[2 * n:])
    return rows, base_fix


def solve_milp(model, node_budget=DEFAULT_NODE_BUDGET):
    """Optimal fair weights by best-first branch and bound, or None.

    Branches on the most fractional binary (ties: smallest candidate id),
    explores nodes in (bound, depth, serial) order and accepts an integral
    subset only through its cell LP, whose point becomes the incumbent.
    """
    band = CutoffBand(model.dataset, model.k, model.region)
    base_rows, base_fix = _relaxation_rows(model, band)
    cuts = []
    sense = 1.0 if model.direction == "min" else -1.0

    def relax(fixings):
        rows = list(base_rows) + list(cuts)
        for idx, val in fixings.items():
            a = np.zeros(model.nvars)
            a[idx] = 1.0
            rows.append((a, "=", val))
        for i, (lo, hi) in enumerate(model.bounds):
            a = np.zeros(model.nvars)
            a[i] = 1.0
            if lo is not None:
                rows.append((a, ">=", lo))
            if hi is not None:
                rows.append((a.copy(), "<=", hi))
        return simplex_lp(LpProblem(model.c, rows, model.direction))

    def finish():
        """Report the incumbent weight through verify."""
        if incumbent is None:
            return None
        return finish_result(
            model.dataset, model.k, model.spec, model.region,
            [incumbent], "milp",
        )

    serial = 0
    heap = []
    root = relax(base_fix)
    if root.status != "optimal":
        return None
    heapq.heappush(heap, _Node(sense * root.value, 0, serial, dict(base_fix)))
    incumbent = None
    best = math.inf
    nodes = 0
    n_cuts = 0

    while heap:
        node = heapq.heappop(heap)
        if node.bound >= best - CUT_TOL:
            continue
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(
                f"node budget {node_budget} exceeded", partial=finish()
            )
        out = relax(node.fixings)
        if out.status != "optimal":
            continue
        if sense * out.value >= best - CUT_TOL:
            continue
        delta = out.x[model.binaries]
        frac = np.abs(delta - np.round(delta))
        if frac.max() <= INT_TOL:
            ones = np.round(delta) > 0.5
            seats = band.seats(model.dataset.id_array[ones])
            cell = None if seats is None else TopkCell(band, seats).closest()
            if cell is not None:
                if model.objective == W_DIFFERENCE:
                    value = cell[1]
                else:
                    value = -float(model.c[model.binaries] @ ones)
                if value < best - CUT_TOL:
                    best = value
                    incumbent = cell[0]
            else:
                # exclude exactly this membership pattern and move on
                a = np.zeros(model.nvars)
                for pos, idx in enumerate(model.binaries):
                    a[idx] = 1.0 if ones[pos] else -1.0
                cuts.append((a, "<=", float(ones.sum()) - 1.0))
                n_cuts += 1
                serial += 1
                heapq.heappush(
                    heap, _Node(sense * out.value, node.depth, serial, node.fixings)
                )
            continue
        order = np.lexsort((model.dataset.id_array, -frac))
        pick = int(order[0])
        idx = model.binaries[pick]
        for val in (1.0, 0.0):
            serial += 1
            child = dict(node.fixings)
            child[idx] = val
            heapq.heappush(
                heap, _Node(sense * out.value, node.depth + 1, serial, child)
            )

    result = finish()
    if result is not None:
        result.extras["nodes"] = nodes
        result.extras["cuts"] = n_cuts
    return result
