"""Independent checks of every answer, with the benchmark's own numpy code
and scipy's HiGHS as the optimisation oracle.

Nothing here imports the program.  Answers arrive as plain dicts (see
``run.answer_of``), inputs as the arrays the benchmark generated.

Tolerances:

* ``TIE``: two scores within 1e-9 tie, as in the program's documented
  semantics; a witness is a top-k at w when some cut score t has every
  member at least t - TIE and every non-member at most t + TIE.
* ``BOX``: the weight may leave the simplex or the epsilon box by 1e-9.
* ``VALUE``: a reported objective value must equal the one recomputed from
  the weight or subset within 1e-9.
* ``OPTIMUM``: it must also lie within 1e-6 of the oracle's optimum window
  (see ``select_oracle``).
* ``MARGIN``: a stable weight's ball may cross a hyperplane by 1e-7, and its
  margin must match the Chebyshev-centre LP within 1e-6.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from workloads import band_split, region_vertices

TIE = 1e-9
BOX = 1e-9
VALUE = 1e-9
OPTIMUM = 1e-6
MARGIN = 1e-7
MARGIN_MATCH = 1e-6
_MILP_OPTIONS = {"mip_rel_gap": 1e-9, "time_limit": 60.0, "presolve": True}
_LP_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def count_bounds(protected, k):
    """Integer count intervals from fraction bounds (ceil / floor of f * k)."""
    return [
        (math.ceil(p["lower"] * k - 1e-9), min(math.floor(p["upper"] * k + 1e-9), k))
        for p in protected
    ]


def group_matrix(table, protected):
    """Membership columns of the protected groups, in config order."""
    cols = [table["names"].index(p["name"]) for p in protected]
    return table["member"][:, cols]


def reference_utility(pts, k, wo):
    return float(np.sort(pts @ wo)[::-1][:k].sum())


def is_topk(pts, subset, w):
    scores = pts @ w
    inside = np.zeros(len(pts), bool)
    inside[list(subset)] = True
    if inside.all():
        return True
    return scores[inside].min() >= scores[~inside].max() - 2 * TIE


def _subset_problems(pts, groups, bounds, k, subset, w):
    problems = []
    if len(subset) != k or len(set(subset)) != k:
        return [f"witness has {len(set(subset))} distinct ids, expected {k}"]
    if min(subset) < 0 or max(subset) >= len(pts):
        return ["witness names an unknown id"]
    if not is_topk(pts, subset, w):
        problems.append("witness is not a top-k at the weight")
    counts = groups[list(subset)].sum(axis=0)
    for g, (lo, hi) in enumerate(bounds):
        if not lo <= counts[g] <= hi:
            problems.append(f"group {g} count {counts[g]} outside [{lo}, {hi}]")
    return problems


# ----------------------------------------------------------------------
# select: HiGHS big-M model over the candidates that can enter the top-k
# ----------------------------------------------------------------------

def select_oracle(pts, groups, bounds, k, wo, eps, objective, restrict, presolve=True):
    """Window (low, high) for the optimal value over the region, or None
    when no fair weight exists.

    high is the exact optimum of the best subset; low is HiGHS's optimum
    with its own tolerances, which also admits weights where the engines'
    1e-9 tie band makes a subset a top-k a hair before the exact crossing.

    The model: weights w in the box and simplex, a cut score lam, one binary
    per candidate that may enter the top-k; members score >= lam, others
    <= lam (unit big-M, scores lie in [0, 1]); group counts in bounds.
    With ``restrict`` the candidates in every top-k of the region are fixed
    in and those in none are fixed out.  Each incumbent subset is re-solved
    as an LP at tight tolerances; a subset that is top-k only within the
    MILP's feasibility tolerance gets a no-good cut and the search repeats.
    ``presolve`` switches HiGHS's presolve, which ``check_select`` turns
    off for a second opinion (see there).
    """
    n, d = pts.shape
    verts = region_vertices(wo, eps)
    if not len(verts):
        return None
    sure_in = sure_out = np.zeros(n, bool)
    keep = np.arange(n)
    if restrict:
        # a wider margin than the generator's, so no band candidate is fixed
        sure_in, sure_out, smin, smax = band_split(pts, k, verts, tol=1e-7)
        # a fixed candidate's row "score >= lam" (in) or "score <= lam" (out)
        # can bind only when its score range overlaps the other candidates'
        others_max = smax[~sure_in].max() if (~sure_in).any() else -np.inf
        rest_min = smin[~sure_out].min()
        keep = np.nonzero(~(sure_in | sure_out)
                          | (sure_in & (smin < others_max + 1e-9))
                          | (sure_out & (smax > rest_min - 1e-9)))[0]
    band = np.nonzero(~(sure_in | sure_out))[0]
    fixed_in = np.nonzero(sure_in)[0]
    keep_in = keep[sure_in[keep]]
    keep_out = keep[sure_out[keep]]
    base = groups[fixed_in].sum(axis=0)
    b = len(band)
    wdiff = objective == "wdiff"
    nv = d + 1 + b + (d if wdiff else 0)
    lo = np.zeros(nv)
    hi = np.ones(nv)
    lo[:d] = np.maximum(wo - eps, 0.0)
    hi[:d] = np.minimum(wo + eps, 1.0)
    if wdiff:
        hi[d + 1 + b:] = np.inf
    integrality = np.zeros(nv)
    integrality[d + 1: d + 1 + b] = 1
    A, rl, ru = [], [], []

    def row(coeffs, low, high):
        A.append(coeffs)
        rl.append(low)
        ru.append(high)

    a = np.zeros(nv)
    a[:d] = 1.0
    row(a, 1.0, 1.0)
    for pos, i in enumerate(band):
        a = np.zeros(nv)
        a[:d] = pts[i]
        a[d] = -1.0
        a[d + 1 + pos] = -1.0
        row(a, -1.0, 0.0)
    for i in keep_in:
        a = np.zeros(nv)
        a[:d] = pts[i]
        a[d] = -1.0
        row(a, 0.0, np.inf)
    for i in keep_out:
        a = np.zeros(nv)
        a[:d] = pts[i]
        a[d] = -1.0
        row(a, -np.inf, 0.0)
    a = np.zeros(nv)
    a[d + 1: d + 1 + b] = 1.0
    need = k - len(fixed_in)
    if need < 0 or need > b:
        return None
    row(a, need, need)
    for g, (glo, ghi) in enumerate(bounds):
        a = np.zeros(nv)
        a[d + 1: d + 1 + b] = groups[band, g]
        row(a, glo - base[g], ghi - base[g])
    c = np.zeros(nv)
    so = pts @ wo
    if wdiff:
        for i in range(d):
            a = np.zeros(nv)
            a[d + 1 + b + i] = 1.0
            a[i] = -1.0
            row(a, -wo[i], np.inf)
            a = np.zeros(nv)
            a[d + 1 + b + i] = 1.0
            a[i] = 1.0
            row(a, wo[i], np.inf)
        c[d + 1 + b:] = 1.0
    else:
        c[d + 1: d + 1 + b] = -so[band]
    uref = reference_utility(pts, k, wo)
    fixed_utility = float(so[fixed_in].sum())
    best = None
    for _ in range(50):
        res = milp(
            c, integrality=integrality, bounds=Bounds(lo, hi),
            constraints=LinearConstraint(np.array(A), rl, ru),
            options=dict(_MILP_OPTIONS, presolve=presolve),
        )
        if res.status == 2:
            return None
        if res.status != 0:
            raise RuntimeError(f"HiGHS milp status {res.status}: {res.message}")
        # the first optimum is the most optimistic, ties within tolerance included
        if best is None:
            best = res.fun if wdiff else 1.0 - (fixed_utility - res.fun) / uref
        chosen = band[res.x[d + 1: d + 1 + b] > 0.5]
        subset = np.concatenate([fixed_in, chosen]).astype(int)
        exact = subset_lp(pts[keep], np.nonzero(np.isin(keep, subset))[0], wo, eps)
        if exact is not None:
            if not wdiff:
                exact = 1.0 - float(so[subset].sum()) / uref
            return min(best, exact), exact
        # top-k only within the MILP tolerance: exclude this subset exactly
        a = np.zeros(nv)
        pick = res.x[d + 1: d + 1 + b] > 0.5
        a[d + 1: d + 1 + b] = np.where(pick, 1.0, -1.0)
        row(a, -np.inf, pick.sum() - 1.0)
    raise RuntimeError("HiGHS oracle kept returning tolerance-only subsets")


def subset_lp(pts, subset, wo, eps):
    """Exact check that subset is a top-k somewhere in the region, with no
    tie tolerance, as the engines place weights on exact crossings.

    Returns the least L1 distance to wo over the subset's cell, or None
    when the cell misses the region.
    """
    n, d = pts.shape
    inside = np.zeros(n, bool)
    inside[subset] = True
    # variables: w (d), lam, t (d); members score >= lam, others <= lam
    nv = 2 * d + 1
    sign = np.where(inside, -1.0, 1.0)
    A_ub = np.zeros((n + 2 * d, nv))
    A_ub[:n, :d] = sign[:, None] * pts
    A_ub[:n, d] = -sign
    b_ub = np.zeros(n + 2 * d)
    for i in range(d):
        # t_i >= |w_i - wo_i|
        A_ub[n + 2 * i, [i, d + 1 + i]] = (1.0, -1.0)
        b_ub[n + 2 * i] = wo[i]
        A_ub[n + 2 * i + 1, [i, d + 1 + i]] = (-1.0, -1.0)
        b_ub[n + 2 * i + 1] = -wo[i]
    A_eq = np.zeros((1, nv))
    A_eq[0, :d] = 1.0
    bounds = [(max(wo[i] - eps, 0.0), min(wo[i] + eps, 1.0)) for i in range(d)]
    bounds += [(0.0, 1.0)] + [(0.0, None)] * d
    c = np.zeros(nv)
    c[d + 1:] = 1.0
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=[1.0],
                  bounds=bounds, method="highs", options=_LP_OPTIONS)
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"HiGHS linprog status {res.status}: {res.message}")
    return float(res.fun)


def check_select(query, table, answer, expected):
    """Problems with one select answer; an empty list means it is right.

    expected is the oracle's (low, high) optimum window, or None when no
    fair weight exists in the region.
    """
    cfg = query["config"]
    k, eps, objective = cfg["k"], cfg["epsilon"], cfg["objective"]
    wo = np.asarray(cfg["wo"], dtype=float)
    pts = table["pts"]
    groups = group_matrix(table, cfg["protected"])
    bounds = count_bounds(cfg["protected"], k)
    if answer is None:
        if expected is not None:
            return [f"no answer, but HiGHS finds one with value {expected[1]:.9g}"]
        return []
    if expected is None:
        # a second opinion without presolve, as for a too-good value below
        expected = expected_answer(query, table, presolve=False)
        if expected is None:
            return ["an answer, but HiGHS finds no fair weight in the region"]
    w = np.asarray(answer["weight"], dtype=float)
    problems = []
    if w.min() < -BOX or abs(w.sum() - 1.0) > BOX:
        problems.append("weight is off the simplex")
    if np.abs(w - wo).max() > eps + BOX:
        problems.append("weight is outside the epsilon box")
    subset = [int(i) for i in answer["subset"]]
    problems += _subset_problems(pts, groups, bounds, k, subset, w)
    if problems:
        return problems
    if objective == "wdiff":
        value = float(np.abs(w - wo).sum())
    else:
        value = 1.0 - float((pts[subset] @ wo).sum()) / reference_utility(pts, k, wo)
    if abs(answer["value"] - value) > VALUE:
        problems.append(f"value {answer['value']:.12g} but recomputed {value:.12g}")
    low, high = expected
    if answer["value"] < low - OPTIMUM:
        # The answer passed every property check above, so it is a fair top-k
        # in the region that HiGHS's optimum claims cannot exist.  HiGHS's
        # presolve has been seen to cut off such optima (a d=2 wdiff query
        # whose reference top-k is fair, reported optimum 0.0162), so the
        # lower of its optima with and without presolve bounds the value.
        second = expected_answer(query, table, presolve=False)
        if second is not None:
            low, high = min(low, second[0]), min(high, second[1])
    if not low - OPTIMUM <= answer["value"] <= high + OPTIMUM:
        problems.append(f"value {answer['value']:.9g} but HiGHS optimum {high:.9g}")
    if cfg.get("stable"):
        problems += check_stable(pts, subset, wo, eps, answer)
    return problems


# ----------------------------------------------------------------------
# stability: the certified ball, and the Chebyshev centre by HiGHS
# ----------------------------------------------------------------------

def _cell_rows(pts, subset, wo, eps):
    """Rows g . y + h >= 0 over projected weights y = w[:-1].

    Region rows (simplex and box) and one row per member/non-member pair
    of distinct points.  Returns (G, h, degenerate) where degenerate means
    a member shares its point with a non-member.
    """
    n, d = pts.shape
    Q = pts[:, :-1] - pts[:, -1:]
    r = pts[:, -1]
    rows_g, rows_h = [], []
    for i in range(d - 1):
        e = np.zeros(d - 1)
        e[i] = 1.0
        rows_g += [e, e, -e]
        rows_h += [0.0]
        rows_h += [-(wo[i] - eps), wo[i] + eps]
    ones = np.ones(d - 1)
    rows_g += [-ones, -ones, ones]
    rows_h += [1.0, 1.0 - (wo[-1] - eps), (wo[-1] + eps) - 1.0]
    inside = np.zeros(n, bool)
    inside[subset] = True
    degenerate = False
    for i in np.nonzero(inside)[0]:
        for j in np.nonzero(~inside)[0]:
            if np.array_equal(pts[i], pts[j]):
                degenerate = True
                continue
            g = Q[i] - Q[j]
            if np.linalg.norm(g) <= 1e-12:
                continue
            rows_g.append(g)
            rows_h.append(r[i] - r[j])
    return np.array(rows_g), np.array(rows_h), degenerate


def chebyshev_margin(G, h):
    """Radius of the largest L2 ball in {y : G y + h >= 0}, by HiGHS."""
    norms = np.linalg.norm(G, axis=1)
    keep = norms > 1e-12
    G, h, norms = G[keep], h[keep], norms[keep]
    dim = G.shape[1]
    # max r  s.t.  -G y + norms r <= h
    A = np.hstack([-G, norms[:, None]])
    c = np.zeros(dim + 1)
    c[-1] = -1.0
    bounds = [(None, None)] * dim + [(0.0, None)]
    res = linprog(c, A_ub=A, b_ub=h, bounds=bounds, method="highs", options=_LP_OPTIONS)
    if res.status != 0:
        return None
    return float(res.x[-1])


def check_stable(pts, subset, wo, eps, answer):
    if answer.get("stable_weight") is None:
        return ["stable weight requested but missing"]
    y = np.asarray(answer["stable_weight"], dtype=float)[:-1]
    margin = float(answer["margin"])
    G, h, degenerate = _cell_rows(pts, subset, wo, eps)
    problems = []
    slack = (G @ y + h) / np.maximum(np.linalg.norm(G, axis=1), 1e-300)
    if slack.min() < margin - MARGIN:
        problems.append(f"stable ball of radius {margin:.3g} crosses a cell or region wall")
    expected = 0.0 if degenerate else chebyshev_margin(G, h)
    if expected is None:
        problems.append("HiGHS finds the subset's cell empty")
    elif abs(margin - expected) > MARGIN_MATCH:
        problems.append(f"margin {margin:.9g} but Chebyshev radius {expected:.9g}")
    return problems


# ----------------------------------------------------------------------
# verify: HiGHS feasibility over the tie band
# ----------------------------------------------------------------------

def verify_oracle(pts, groups, bounds, k, w):
    """Does some top-k at w meet every bound, with ties handled exactly."""
    scores = pts @ w
    pivot = np.sort(scores)[::-1][k - 1]
    strict = scores > pivot + TIE
    band = np.nonzero(np.abs(scores - pivot) <= TIE)[0]
    base = groups[strict].sum(axis=0)
    slack = k - int(strict.sum())
    b = len(band)
    A = [np.ones(b)]
    rl, ru = [slack], [slack]
    for g, (lo, hi) in enumerate(bounds):
        A.append(groups[band, g].astype(float))
        rl.append(lo - base[g])
        ru.append(hi - base[g])
    res = milp(np.zeros(b), integrality=np.ones(b), bounds=Bounds(0, 1),
               constraints=LinearConstraint(np.array(A), rl, ru), options=_MILP_OPTIONS)
    if res.status not in (0, 2):
        raise RuntimeError(f"HiGHS milp status {res.status}: {res.message}")
    return res.status == 0


def check_verify(query, table, answer, expected):
    """Problems with one verify answer (verdict and witness)."""
    cfg = query["config"]
    k = cfg["k"]
    w = np.asarray(query["weight"], dtype=float)
    groups = group_matrix(table, cfg["protected"])
    bounds = count_bounds(cfg["protected"], k)
    problems = []
    if answer["fair"] != expected:
        problems.append(f"verdict {answer['fair']} but HiGHS says {expected}")
    if query.get("expect") is not None and answer["fair"] != query["expect"]:
        problems.append(f"verdict {answer['fair']} but brute force says {query['expect']}")
    if answer["fair"]:
        if answer["witness"] is None:
            problems.append("fair verdict without a witness")
        else:
            problems += _subset_problems(
                table["pts"], groups, bounds, k, [int(i) for i in answer["witness"]], w
            )
    elif answer["witness"] is not None:
        problems.append("unfair verdict with a witness")
    return problems


def expected_answer(query, table, presolve=True):
    """Oracle answer for one query: optimum value (select) or verdict."""
    cfg = query["config"]
    groups = group_matrix(table, cfg["protected"])
    bounds = count_bounds(cfg["protected"], cfg["k"])
    if query["kind"] == "verify":
        return verify_oracle(table["pts"], groups, bounds, cfg["k"],
                             np.asarray(query["weight"], dtype=float))
    return select_oracle(
        table["pts"], groups, bounds, cfg["k"], np.asarray(cfg["wo"], dtype=float),
        cfg["epsilon"], cfg["objective"], restrict=len(table["pts"]) > 500,
        presolve=presolve,
    )


def check(query, table, answer, expected):
    if query["kind"] == "verify":
        return check_verify(query, table, answer, expected)
    return check_select(query, table, answer, expected)
