"""Seeded input generation for the four benchmark workloads.

Every input is drawn here with the benchmark's own numpy code and written
as CSV (``id,a1..ad,groups``) plus one ``queries.json`` holding the run
configs; the program only ever sees those files.  The same ``(workload,
seed)`` pair always writes the same bytes.

A workload is a list of datasets and a list of queries.  Each ``select``
query carries a ``RunConfig`` payload that names its engine, so a change
to the ``auto`` dispatch rule cannot move queries between workloads.
Each ``verify`` query carries a config, a weight and, for the reduction
instances, the answer known by brute force.
"""

from __future__ import annotations

import csv
import json
import os
from itertools import combinations, product

import numpy as np

WORKLOADS = ("sweep2d-large", "klevel-3d", "milp-3d", "verify-ties")


def _rng(workload, seed, part):
    # SeedSequence entries must be non-negative
    return np.random.default_rng([int(seed) % 2**64, WORKLOADS.index(workload), part])


def _points(rng, n, d, dup_rate):
    """Uniform points; with probability dup_rate a row repeats an earlier one."""
    pts = rng.random((n, d))
    for i in range(1, n):
        if rng.random() < dup_rate:
            pts[i] = pts[int(rng.integers(i))]
    return pts


def _memberships(rng, n, n_groups, lo=0.2, hi=0.45):
    shares = rng.uniform(lo, hi, size=n_groups)
    return _cover_columns(rng, rng.random((n, n_groups)) < shares)


def _cover_columns(rng, member):
    """Give every empty column one member: load_csv refuses a protected
    group that never appears."""
    for j in np.nonzero(~member.any(axis=0))[0]:
        member[int(rng.integers(len(member))), j] = True
    return member


def _write_csv(path, pts, member, names):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow(["id"] + [f"a{j + 1}" for j in range(pts.shape[1])] + ["groups"])
        for i, row in enumerate(pts):
            groups = "|".join(names[j] for j in np.nonzero(member[i])[0])
            out.writerow([i] + [repr(float(v)) for v in row] + [groups])


def reference_counts(pts, member, k, wo):
    """Group counts of the top-k at wo, ties broken by id as the program does."""
    scores = pts @ wo
    order = np.lexsort((np.arange(len(pts)), -scores))
    return member[order[:k]].sum(axis=0)


def region_vertices(wo, epsilon):
    """Vertices (full weight vectors) of the simplex cut by the epsilon box.

    Every choice of d-1 active rows plus the simplex sum is solved at once;
    the solutions that satisfy all rows are the vertices.
    """
    d = len(wo)
    eye = np.eye(d)
    # rows a . w >= b: w >= 0, w >= wo - eps, -w >= -(wo + eps)
    A = np.vstack([eye, eye, -eye])
    b = np.concatenate([np.zeros(d), wo - epsilon, -(wo + epsilon)])
    active = np.array(list(combinations(range(len(A)), d - 1)))
    M = np.concatenate([A[active], np.ones((len(active), 1, d))], axis=1)
    rhs = np.concatenate([b[active], np.ones((len(active), 1))], axis=1)
    regular = np.abs(np.linalg.det(M)) > 1e-12
    M, rhs = M[regular], rhs[regular]
    V = np.linalg.solve(M, rhs[..., None])[..., 0]
    V = V[np.all(V @ A.T >= b - 1e-12, axis=1)]
    return np.unique(np.round(V, 12), axis=0)


def band_split(pts, k, verts, tol=1e-9):
    """Masks of the candidates in every top-k of the region (sure_in) and in
    none (sure_out), with each candidate's score range (smin, smax).

    Scores are linear in w, so their range over the region is spanned by
    its vertices.  A candidate whose lowest score beats the (k+1)-th highest
    is in every top-k; one whose highest is below the k-th lowest is in
    none.  The band is everything else.
    """
    sv = pts @ verts.T
    smin, smax = sv.min(axis=1), sv.max(axis=1)
    n = len(pts)
    if n <= k:
        return np.ones(n, bool), np.zeros(n, bool), smin, smax
    u = np.partition(smax, n - k - 1)[n - k - 1]
    v = np.partition(smin, n - k)[n - k]
    return smin > u + tol, smax < v - tol, smin, smax


def band_size(pts, k, verts):
    sure_in, sure_out, _, _ = band_split(pts, k, verts)
    return int((~(sure_in | sure_out)).sum())


def epsilon_for_band(pts, k, wo, target, lo=0.002, hi=0.3):
    """Smallest box half-width whose band holds at least target candidates.

    The band only grows with epsilon, and its size sets how much work every
    engine does, so fixing it keeps query costs comparable across seeds.
    """
    if band_size(pts, k, region_vertices(wo, hi)) < target:
        return hi
    for _ in range(24):
        mid = 0.5 * (lo + hi)
        if band_size(pts, k, region_vertices(wo, mid)) >= target:
            hi = mid
        else:
            lo = mid
    return hi


def _bounds(rng, counts, k, movable=None):
    """Integer count bounds around the reference counts.

    With movable groups given, one of them asks for one seat more than the
    reference top-k gives it, so the answer has to move off the reference
    weight; otherwise the reference itself is fair.
    """
    lower = np.maximum(counts - 1, 0)
    upper = np.minimum(counts + 1, k)
    if movable is not None and len(movable):
        j = int(movable[0])
        others = np.arange(len(counts)) != j
        lower[others] = np.maximum(counts[others] - 2, 0)
        upper[others] = np.minimum(counts[others] + 2, k)
        lower[j] = counts[j] + 1
        upper[j] = k
    return [(int(lo), int(hi)) for lo, hi in zip(lower, upper)]


def movable_groups(pts, member, k, wo, band):
    """Groups that could gain a seat by a swap inside the band.

    A group qualifies when a band candidate outside the reference top-k
    belongs to it and a band candidate inside does not; the groups come
    most entrants first.
    """
    scores = pts @ wo
    order = np.lexsort((np.arange(len(pts)), -scores))
    inside = np.zeros(len(pts), bool)
    inside[order[:k]] = True
    entrants = member[band & ~inside].sum(axis=0)
    leave = (~member[band & inside]).any(axis=0)
    ok = np.nonzero((entrants > 0) & leave)[0]
    return ok[np.argsort(-entrants[ok], kind="stable")]


def _select_config(names, bounds, k, epsilon, objective, engine, wo, stable=False):
    return {
        "k": int(k),
        "epsilon": float(epsilon),
        "objective": objective,
        "engine": engine,
        "protected": [
            {"name": name, "lower": lo / k, "upper": hi / k}
            for name, (lo, hi) in zip(names, bounds)
        ],
        "wo": [float(v) for v in wo],
        "stable": bool(stable),
        "workers": 1,
        "seed": 0,
    }


def _select_workload(workload, seed, out_dir, *, d, sizes, n_datasets,
                     queries_per_dataset, dup_rate, groups, ks, bands, engine,
                     pressure_share, objectives, stable_utility=False):
    datasets, queries = [], []
    for di in range(n_datasets):
        n = sizes[di % len(sizes)]
        rng = _rng(workload, seed, di)
        # the group count cycles too, rather than being drawn: query costs
        # then differ between seeds by the geometry alone
        n_groups = groups[0] + di % (groups[1] - groups[0] + 1)
        names = [f"g{j}" for j in range(n_groups)]
        pts = _points(rng, n, d, dup_rate)
        member = _memberships(rng, n, n_groups)
        name = f"data{di}"
        path = os.path.join(out_dir, f"{name}.csv")
        _write_csv(path, pts, member, names)
        datasets.append({"name": name, "csv": path, "protected": names,
                         "table": {"pts": pts, "member": member, "names": names}})
        for qi in range(queries_per_dataset):
            # one global round-robin over (objective, k, band) keeps the mix
            # the same in every run whatever the seed
            g = di * queries_per_dataset + qi
            objective = objectives[g % len(objectives)]
            k = int(ks[(g // len(objectives)) % len(ks)])
            wo = rng.dirichlet(np.full(d, 4.0))
            band = int(bands[(g // (len(objectives) * len(ks))) % len(bands)])
            epsilon = round(epsilon_for_band(pts, k, wo, band), 6)
            movable = None
            # pressure_share of the queries, spread evenly over the sequence
            if int((g + 1) * pressure_share) > int(g * pressure_share):
                sure_in, sure_out, _, _ = band_split(pts, k, region_vertices(wo, epsilon))
                movable = movable_groups(pts, member, k, wo, ~(sure_in | sure_out))
            bounds = _bounds(rng, reference_counts(pts, member, k, wo), k, movable)
            stable = stable_utility and objective == "utility"
            queries.append({
                "kind": "select",
                "data": name,
                "config": _select_config(
                    names, bounds, k, epsilon, objective, engine, wo, stable
                ),
            })
    return datasets, queries


# ----------------------------------------------------------------------
# verify-ties: reduction instances and tie-heavy data at fixed weights
# ----------------------------------------------------------------------

def min_cover_size(universe, sets):
    """Smallest number of sets covering range(universe), by enumeration."""
    full = (1 << universe) - 1
    masks = [sum(1 << e for e in s) for s in sets]
    for size in range(1, len(masks) + 1):
        for pick in combinations(masks, size):
            acc = 0
            for m in pick:
                acc |= m
            if acc == full:
                return size
    return None


def tuple_exists(sides):
    """Is there one vector per side with no coordinate set in all of them."""
    dim = sides[0].shape[1]
    for vecs in product(*[list(s) for s in sides]):
        if all(min(int(v[j]) for v in vecs) == 0 for j in range(dim)):
            return True
    return False


def _verify_query(name, k, names, bounds, weight, objective, expect=None):
    return {
        "kind": "verify",
        "data": name,
        "config": {
            "k": int(k),
            "epsilon": 0.1,
            "objective": objective,
            "engine": "auto",
            "protected": [
                {"name": g, "lower": lo / k, "upper": hi / k}
                for g, (lo, hi) in zip(names, bounds)
            ],
            "workers": 1,
            "seed": 0,
        },
        "weight": [float(v) for v in weight],
        "expect": expect,
    }


def _dataset(out_dir, name, pts, member, names):
    path = os.path.join(out_dir, f"{name}.csv")
    _write_csv(path, pts, member, names)
    return {"name": name, "csv": path, "protected": names,
            "table": {"pts": pts, "member": member, "names": names}}


def _tied_dataset(out_dir, name, member, names, d=3):
    return _dataset(out_dir, name, np.full((len(member), d), 0.5), member, names)


def _verify_ties(seed, out_dir, scale):
    wl = "verify-ties"
    datasets, queries = [], []
    objectives = ("wdiff", "utility")
    uniform = np.full(3, 1.0 / 3.0)

    # all-tied data: memberships drawn from a few profiles, exact bounds
    for i in range(scale["tied"]):
        rng = _rng(wl, seed, 100 + i)
        n_groups = 3 + i % 4
        profiles = rng.random((12, n_groups)) < 0.4
        member = _cover_columns(rng, profiles[rng.integers(len(profiles), size=40)])
        names = [f"t{j}" for j in range(n_groups)]
        name = f"tied{i}"
        datasets.append(_tied_dataset(out_dir, name, member, names))
        for k in scale["tied_ks"]:
            exact = np.clip(np.round(member.mean(axis=0) * k
                                     + rng.integers(-1, 2, n_groups)), 0, k)
            bounds = [(int(c), int(c)) for c in exact]
            queries.append(_verify_query(name, k, names, bounds, uniform, "wdiff"))

    # set cover: fair at k = minimum cover size, unfair one below it
    for i in range(scale["setcover"]):
        rng = _rng(wl, seed, 200 + i)
        universe, n_sets = 7 + i % 3, 14 + i % 5
        incidence = rng.random((n_sets, universe)) < 0.3
        for e in np.nonzero(~incidence.any(axis=0))[0]:
            incidence[int(rng.integers(n_sets)), e] = True
        sets = [set(np.nonzero(row)[0].tolist()) for row in incidence]
        cover = min_cover_size(universe, sets)
        names = [f"e{j}" for j in range(universe)]
        name = f"cover{i}"
        datasets.append(_tied_dataset(out_dir, name, incidence, names))
        for k, expect in ((cover, True), (cover - 1, False)):
            if k >= 1:
                queries.append(_verify_query(
                    name, k, names, [(1, k)] * universe, uniform, "wdiff", expect,
                ))

    # orthogonal vectors (t = 2) and t-wise orthogonal vectors (t = 3)
    for i in range(scale["ov"]):
        rng = _rng(wl, seed, 300 + i)
        t = 2 if i % 2 == 0 else 3
        per_side, dim = (8, 6) if t == 2 else (5, 5)
        vecs = _cover_columns(rng, rng.random((t * per_side, dim)) < 0.55).astype(int)
        sides = [vecs[s * per_side:(s + 1) * per_side] for s in range(t)]
        rows = []
        for s, side in enumerate(sides):
            for vec in side:
                marker = np.zeros(t, dtype=bool)
                marker[s] = True
                rows.append(np.concatenate([vec.astype(bool), marker]))
        member = np.array(rows)
        names = [f"c{j}" for j in range(dim)] + [f"side{s}" for s in range(t)]
        name = f"ov{i}"
        datasets.append(_tied_dataset(out_dir, name, member, names))
        bounds = [(0, t - 1)] * dim + [(1, 1)] * t
        queries.append(_verify_query(
            name, t, names, bounds, uniform, "wdiff", tuple_exists(sides)
        ))

    # ordinary 3-d data with duplicate points at random weights
    for i in range(scale["dups"]):
        rng = _rng(wl, seed, 400 + i)
        n, n_groups = 120, 2 + i % 3
        pts = _points(rng, n, 3, 0.15 + 0.15 * rng.random())
        member = _memberships(rng, n, n_groups)
        names = [f"g{j}" for j in range(n_groups)]
        name = f"dups{i}"
        datasets.append(_dataset(out_dir, name, pts, member, names))
        for j in range(scale["dup_weights"]):
            k = 10 + (i + 2 * j) % 11
            w = rng.dirichlet(np.full(3, 2.0))
            counts = reference_counts(pts, member, k, w)
            movable = np.arange(n_groups) if rng.random() < 0.5 else None
            bounds = _bounds(rng, counts, k, movable)
            queries.append(_verify_query(name, k, names, bounds, w, objectives[j % 2]))
    return datasets, queries


# Query mixes.  sweep2d-large and klevel-3d have just under 200 distinct
# queries, so the tail is p90 with about twenty beyond it, and a round short
# enough that a 40 s run holds three; milp-3d has just over 100.
FULL = {
    "sweep2d-large": dict(
        d=2, sizes=(1000, 1500, 2000), n_datasets=18, queries_per_dataset=11,
        dup_rate=0.15, groups=(2, 3), ks=(10, 20, 30), bands=(30, 50),
        engine="sweep2d", pressure_share=0.8, objectives=("wdiff", "utility"),
    ),
    "klevel-3d": dict(
        d=3, sizes=(30, 40, 50), n_datasets=196, queries_per_dataset=1,
        dup_rate=0.0, groups=(1, 3), ks=(6, 8, 10, 12), bands=(6,),
        engine="klevel", pressure_share=0.8, objectives=("wdiff", "utility"),
        stable_utility=True,
    ),
    "milp-3d": dict(
        d=3, sizes=(16, 18, 20, 22, 24), n_datasets=105, queries_per_dataset=1,
        dup_rate=0.15, groups=(2, 3), ks=(5, 6, 8), bands=(7,),
        engine="milp", pressure_share=1.0, objectives=("utility",),
        stable_utility=True,
    ),
    "verify-ties": dict(tied=120, tied_ks=(8, 10, 12, 14, 16), setcover=30, ov=30,
                        dups=10, dup_weights=10),
}

TINY = {
    "sweep2d-large": dict(FULL["sweep2d-large"], sizes=(300,), n_datasets=1,
                          queries_per_dataset=4),
    "klevel-3d": dict(FULL["klevel-3d"], sizes=(20,), n_datasets=4, ks=(4, 5)),
    "milp-3d": dict(FULL["milp-3d"], sizes=(15,), n_datasets=4, ks=(4, 6)),
    "verify-ties": dict(tied=2, tied_ks=(6, 8), setcover=2, ov=2, dups=1, dup_weights=2),
}


def make(workload, seed, out_dir, tiny=False):
    """Write the inputs of one workload.

    Returns the manifest (also written as queries.json) and the generated
    arrays of each dataset, which the checker uses in place of the CSV.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(out_dir, exist_ok=True)
    params = (TINY if tiny else FULL)[workload]
    if workload == "verify-ties":
        datasets, queries = _verify_ties(seed, out_dir, params)
    else:
        datasets, queries = _select_workload(workload, seed, out_dir, **params)
    tables = {d["name"]: d.pop("table") for d in datasets}
    manifest = {"workload": workload, "seed": int(seed), "datasets": datasets,
                "queries": queries}
    with open(os.path.join(out_dir, "queries.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
    return manifest, tables
