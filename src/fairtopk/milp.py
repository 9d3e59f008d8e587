"""Mixed-integer formulation of fair weight synthesis, with its own solver.

The model is written over the cutoff band (geometry.CutoffBand): sure-in
candidates are constants that take their seats and group counts off the
bounds, sure-out ones drop out, and one binary per band row marks top-k
membership.  A score threshold variable ties the binaries to the linear
scores through unit big-M rows, which is valid because attributes are
required to lie in [0,1] so every score and the threshold live in [0,1]
too; the band's cutoff rows bound the threshold.  Group count rows encode
fairness, the region rows restrict the weights, and the objective is
either the L1 distance to the reference weights or the selected band
rows' reference utility.  Precedence rows delta_q <= delta_p follow the
band's r-dominance order: when every row p of one class scores above
every row q of another at every weight of the region, q is never taken
without p.  They are valid inequalities, so they cut off no integral
point, only fractional ones; one pair of classes per edge of the order's
transitive reduction suffices.

The solver is a best-first branch and bound over the dense-simplex
relaxation.  Integral relaxation points are checked and placed by the
top-k cell that klevel walks (geometry.TopkCell): the incumbent weight is
the cell's closest point to the reference, and a subset whose cell misses
the region gets a no-good cut.  The answer's witness and value come from
verify.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .core import BudgetExceededError, W_DIFFERENCE
from .geometry import (
    CutoffBand, LpProblem, TopkCell, l1_envelope_rows, simplex_lp,
)
from .tolerances import CUT_TOL, INT_TOL, TIE_EPS
from .verify import finish_result

DEFAULT_NODE_BUDGET = 200_000


@dataclass
class MilpModel:
    """Model over the cutoff band: variables w, threshold, one binary per
    band row and L1 envelope variables when the objective is the weight
    difference.  band is the CutoffBand the model was written over."""

    dataset: object
    k: int
    spec: object
    region: object
    objective: str
    band: CutoffBand
    c: np.ndarray
    direction: str
    rows: list            # (coeffs, relation, rhs) in build order, precedence rows last
    bounds: list          # (lo, hi) per variable, None for free
    binaries: list        # variable indices of the membership binaries
    names: list

    @property
    def nvars(self):
        return len(self.c)


def build_milp(dataset, k, spec, region):
    """Assemble the model over the cutoff band, rows in a fixed order: two
    score rows per band row, the cutoff rows, cardinality, two rows per
    group, the simplex row, the region rows, for wdiff the L1 envelope
    rows, and last one precedence row per pair of band rows whose classes
    are an edge of the transitive reduction of band.above.  The
    cardinality and group bounds have the sure-in rows' seats and counts
    taken off."""
    spec.validate(k)
    if region.d != dataset.d:
        raise ValueError("region dimension does not match the dataset")
    pts = dataset.points
    if pts.min() < -TIE_EPS or pts.max() > 1.0 + TIE_EPS:
        raise ValueError("attributes must lie in [0,1] for the milp engine")
    band = CutoffBand(dataset, k, region)
    d, m = dataset.d, len(band.rows)
    wo = region.reference
    wdiff = region.objective == W_DIFFERENCE
    nv = d + 1 + m + (d if wdiff else 0)
    names = [f"w{i}" for i in range(d)] + ["lam"]
    names += [f"d{cid}" for cid in dataset.id_array[band.rows]]
    if wdiff:
        names += [f"p{i}" for i in range(d)]

    rows = []
    # score rows: member -> score >= lam, non-member -> score <= lam
    for pos, i in enumerate(band.rows):
        a = np.zeros(nv)
        a[:d] = pts[i]
        a[d] = -1.0
        a[d + 1 + pos] = -1.0
        rows.append((a, "<=", 0.0))
        rows.append((a.copy(), ">=", -1.0))
    for bound, rel in ((band.lambda_hi, "<="), (band.lambda_lo, ">=")):
        if bound is not None:
            a = np.zeros(nv)
            a[d] = 1.0
            rows.append((a, rel, bound))
    a = np.zeros(nv)
    a[d + 1: d + 1 + m] = 1.0
    rows.append((a, "=", float(k - np.count_nonzero(band.sure_in))))
    member = dataset.profiles(spec.n_protected)[1].astype(bool)
    for j, mask in enumerate(member):
        taken = np.count_nonzero(mask & band.sure_in)
        a = np.zeros(nv)
        a[d + 1: d + 1 + m][mask[band.rows]] = 1.0
        rows.append((a.copy(), ">=", float(spec.lower[j] - taken)))
        rows.append((a, "<=", float(spec.upper[j] - taken)))
    a = np.zeros(nv)
    a[:d] = 1.0
    rows.append((a, "=", 1.0))
    for coeffs, off in region.halfspaces:
        a = np.zeros(nv)
        a[:d] = coeffs
        rows.append((a, ">=", -off))
    if wdiff:
        rows.extend(l1_envelope_rows(wo, nv, d + 1 + m))
    # edges of the transitive reduction of the order: no class lies between
    above = band.above.astype(int)
    edges = band.above & ~(above @ above > 0)
    for p, q in zip(*np.nonzero(edges[band.cls][:, band.cls])):
        a = np.zeros(nv)
        a[d + 1 + q] = 1.0
        a[d + 1 + p] = -1.0
        rows.append((a, "<=", 0.0))

    bounds = [(0.0, 1.0)] * (d + 1 + m) + [(0.0, None)] * (d if wdiff else 0)

    c = np.zeros(nv)
    if wdiff:
        c[d + 1 + m:] = 1.0
        direction = "min"
    else:
        c[d + 1: d + 1 + m] = pts[band.rows] @ wo.as_array()
        direction = "max"
    return MilpModel(
        dataset=dataset, k=k, spec=spec, region=region,
        objective=region.objective, band=band, c=c, direction=direction,
        rows=rows, bounds=bounds, binaries=list(range(d + 1, d + 1 + m)), names=names,
    )


def export_lp(model):
    """LP-format text of the band model: objective, constraints in build
    order, bounds, binary section (left out when the band is empty), End."""
    out = ["\\ fair top-k selection model"]
    out.append("Minimize" if model.direction == "min" else "Maximize")
    out.append(" obj: " + _lincomb(model.c, model.names))
    out.append("Subject To")
    for i, (a, r, b) in enumerate(model.rows):
        out.append(f" r{i}: " + _lincomb(a, model.names) + f" {r} {_num(b)}")
    out.append("Bounds")
    for i, (lo, hi) in enumerate(model.bounds):
        lo_s = "-inf" if lo is None else _num(lo)
        hi_s = "+inf" if hi is None else _num(hi)
        out.append(f" {lo_s} <= {model.names[i]} <= {hi_s}")
    if model.binaries:
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


def solve_milp(model, node_budget=DEFAULT_NODE_BUDGET):
    """Optimal fair weights by best-first branch and bound, or None.

    Branches on the most fractional binary (ties: smallest candidate id),
    explores nodes in (bound, depth, serial) order and accepts an integral
    subset only through its cell LP, whose point becomes the incumbent.
    The result, partial or not, carries the model's CutoffBand as its band.
    """
    band = model.band
    cuts = []
    sense = 1.0 if model.direction == "min" else -1.0

    def relax(fixings):
        rows = list(model.rows) + list(cuts)
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
        """Report the incumbent weight through verify, with the band."""
        if incumbent is None:
            return None
        return finish_result(
            model.dataset, model.k, model.spec, model.region,
            [incumbent], "milp", band,
        )

    serial = 0
    heap = [_Node(-math.inf, 0, serial, {})]  # the loop solves the root like any node
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
        if np.all(frac <= INT_TOL):  # also when the band is empty
            ones = np.round(delta) > 0.5
            cell = TopkCell(band, np.bincount(band.cls[ones], minlength=len(band.size))).closest()
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
        order = np.lexsort((model.dataset.id_array[band.rows], -frac))
        idx = model.binaries[int(order[0])]
        for val in (1.0, 0.0):
            serial += 1
            child = dict(node.fixings)
            child[idx] = val
            heapq.heappush(
                heap, _Node(sense * out.value, node.depth + 1, serial, child)
            )

    result = finish()
    if result is not None:
        result.extras.update(nodes=nodes, cuts=n_cuts)
    return result
