"""Ingestion, preprocessing, the engine-selecting driver, and benchmarks.

Data arrives as CSV (id, attribute columns, '|'-separated group names) and
run settings as a JSON config.  The driver reorders group ids so protected
groups occupy 0..n_p-1, converts fraction bounds to count intervals,
builds the allowable weight region as the simplex intersected with a
per-component box around the reference weights, picks an engine, and
optionally centers the answer for stability.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import time
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .core import (
    BudgetExceededError,
    Candidate,
    DataFormatError,
    Dataset,
    FairnessSpec,
    OBJECTIVES,
    UTILITY_LOSS,
    W_DIFFERENCE,
    WeightRegion,
    WeightVector,
)
from .geometry import region_interval
from .klevel import traverse
from .milp import build_milp, solve_milp
from .stability import stable_weight
from .sweep2d import sweep_select
from .tolerances import KEY_EPS, TIE_EPS
from .verify import TieResolver, finish_result

ENGINES = ("auto", "sweep2d", "klevel", "milp")
KLEVEL_BASE_K = 120.0


def _is(value, kind):
    """isinstance, but a bool passes only as a bool: json gives true for a mistyped 1."""
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def _floats(values, key):
    """A list or tuple of numbers as floats, or a ValueError naming the config key."""
    if not (isinstance(values, (list, tuple, np.ndarray))
            and all(_is(v, numbers.Real) for v in values)):
        raise ValueError(f"{key} must be a sequence of numbers, got {values!r}")
    return tuple(float(v) for v in values)


@dataclass
class RunConfig:
    """Validated run settings, and the one place that turns them into the
    question: protected entries are (name, lower, upper) fraction triples,
    read back as group names, count bounds and a weight region."""

    k: int
    epsilon: float
    objective: str = W_DIFFERENCE
    engine: str = "auto"
    protected: tuple = ()
    wo: tuple = None
    extra_halfspaces: tuple = ()
    seed: int = 0
    workers: int = 1  # accepted, no effect: the klevel walk is serial
    stable: bool = False

    def __post_init__(self):
        for key, kind, noun in (
            ("k", numbers.Integral, "an integer"), ("epsilon", numbers.Real, "a number"),
            ("seed", numbers.Integral, "an integer"), ("workers", numbers.Integral, "an integer"),
            ("stable", bool, "true or false"),
        ):
            if not _is(getattr(self, key), kind):
                raise ValueError(f"{key} must be {noun}, got {getattr(self, key)!r}")
        for key in ("k", "workers"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be positive, got {getattr(self, key)}")
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}")
        cleaned = []
        for entry in self.protected:
            try:
                if isinstance(entry, dict):
                    entry = entry["name"], entry["lower"], entry["upper"]
                name, lo, hi = entry
                name, lo, hi = str(name), float(lo), float(hi)
            except (KeyError, TypeError, ValueError):
                raise ValueError(f"protected entry {entry!r} needs name, lower, upper") from None
            if not (0.0 <= lo <= hi <= 1.0):
                raise ValueError(f"bounds for {name!r} must satisfy 0 <= lower <= upper <= 1")
            if name in (seen for seen, _, _ in cleaned):
                raise ValueError(f"protected group {name!r} is named twice")
            cleaned.append((name, lo, hi))
        self.protected = tuple(cleaned)
        if self.wo is not None:
            self.wo = _floats(self.wo, "wo")
        rows = self.extra_halfspaces
        if not isinstance(rows, (list, tuple, np.ndarray)):
            raise ValueError(f"extra_halfspaces must be a sequence of rows, got {rows!r}")
        self.extra_halfspaces = tuple(_floats(row, "extra_halfspaces row") for row in rows)

    @property
    def names(self):
        """Protected group names, in the order that gives them ids 0..n_p-1."""
        return tuple(name for name, _, _ in self.protected)

    @property
    def spec(self):
        """Count bounds of the protected groups at this k."""
        return FairnessSpec.from_fractions([(lo, hi) for _, lo, hi in self.protected], self.k)

    def region(self, d):
        """The epsilon box around the reference weight, uniform unless wo is set."""
        wo = self.wo if self.wo is not None else [1.0 / d] * d
        if len(wo) != d:
            raise ValueError(f"wo has {len(wo)} components, data has {d}")
        extra = self.extra_halfspaces
        return WeightRegion.box(WeightVector(wo), self.epsilon, self.objective, extra=extra)

    def group_counts(self, dataset, ids):
        """Members of each protected group among the candidate ids, by name."""
        members = [dataset.by_id(i).groups for i in ids]
        gids = {name: dataset.group_names.index(name) for name in self.names}
        return {name: sum(g in m for m in members) for name, g in gids.items()}

    @classmethod
    def from_json(cls, payload):
        if isinstance(payload, str):
            payload = json.loads(payload)
        if not isinstance(payload, dict):
            raise ValueError(f"config must be a JSON object, got {type(payload).__name__}")
        unknown = set(payload) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        missing = {"k", "epsilon"} - set(payload)
        if missing:
            raise ValueError(f"missing config keys: {sorted(missing)}")
        return cls(**payload)


# ----------------------------------------------------------------------
# CSV ingestion
# ----------------------------------------------------------------------

def load_csv(path, protected=()):
    """Parse the candidate table; protected names take group ids 0..n_p-1.

    Header: id,<attr1>,...,<attrD>,groups.  The groups cell is a
    '|'-separated list of names, empty for no memberships.  Any protected
    name never seen in the data is an error: its lower bound could not be
    met and silently dropping it would change the question.
    """
    name_to_id = {str(name): i for i, name in enumerate(protected)}
    names = list(name_to_id)
    cands = []
    group_sets = {}  # one shared frozenset per distinct membership
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 4 or header[0] != "id" or header[-1] != "groups":
            raise DataFormatError(
                "header must be id,<attr1>,...,<attrD>,groups with d >= 2", line=1
            )
        d = len(header) - 2
        seen_names = set()
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != d + 2:
                raise DataFormatError(
                    f"expected {d + 2} fields, found {len(row)}", line=lineno
                )
            groups = set()
            cell = row[-1].strip()
            if cell:
                for name in cell.split("|"):
                    name = name.strip()
                    if not name:
                        raise DataFormatError("empty group name", line=lineno)
                    if name not in name_to_id:
                        name_to_id[name] = len(names)
                        names.append(name)
                    groups.add(name_to_id[name])
                    seen_names.add(name)
            groups = frozenset(groups)
            groups = group_sets.setdefault(groups, groups)
            try:
                point = tuple(float(v) for v in row[1:-1])
                cands.append(Candidate(cid=int(row[0]), point=point, groups=groups))
            except (ValueError, DataFormatError) as exc:
                raise DataFormatError(str(exc), line=lineno) from None
    missing = [name for name in protected if name not in seen_names]
    if missing:
        raise DataFormatError(f"protected groups never appear in the data: {missing}")
    return Dataset(cands, group_names=names)


def write_csv(path, dataset):
    """Inverse of load_csv; floats keep full precision via repr."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["id"] + [f"attr{i + 1}" for i in range(dataset.d)] + ["groups"]
        )
        for c in dataset.candidates:
            cell = "|".join(dataset.group_names[g] for g in sorted(c.groups))
            writer.writerow([c.cid] + [repr(v) for v in c.point] + [cell])


# ----------------------------------------------------------------------
# preprocessing
# ----------------------------------------------------------------------

def normalize(dataset):
    """Min-max scale every attribute to [0,1]; constant columns become 0."""
    pts = dataset.points
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = hi - lo
    scaled = np.where(span > 0, (pts - lo) / np.where(span > 0, span, 1.0), 0.0)
    cands = [
        Candidate(cid=c.cid, point=tuple(scaled[i]), groups=c.groups)
        for i, c in enumerate(dataset.candidates)
    ]
    return Dataset(cands, group_names=dataset.group_names)


def kskyband(dataset, k):
    """Keep candidates strictly dominated by fewer than k others.

    A dominator must beat the candidate by more than the score tie
    tolerance in every attribute, so it outscores the candidate beyond a
    tie under every simplex weight, zero components included; a candidate
    with k such dominators is in no top-k, not even through a tie.
    """
    pts = dataset.points
    keep = []
    for i in range(len(dataset)):
        dominators = int(np.count_nonzero(np.all(pts > pts[i] + TIE_EPS, axis=1)))
        if dominators < k:
            keep.append(dataset.candidates[i])
    return Dataset(keep, group_names=dataset.group_names)


@dataclass(frozen=True)
class SampleReport:
    """Unfair-weight sampling outcome; ratio mirrors found/tried."""

    weights: tuple
    tried: int
    found: int
    seed: int

    @property
    def ratio(self):
        return self.found / self.tried if self.tried else 0.0


def sample_unfair(dataset, k, spec, count, seed, tried_budget=100_000):
    """Uniform simplex samples (symmetric Dirichlet) that verify unfair.

    Deterministic per seed.  Raises BudgetExceededError carrying the
    partial report when count unfair vectors cannot be found in budget.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = np.random.default_rng(seed)
    resolver = TieResolver(dataset, k, spec)
    hits = []
    tried = 0
    while len(hits) < count and tried < tried_budget:
        w = WeightVector(rng.dirichlet(np.ones(dataset.d)))
        tried += 1
        if not resolver.fair(w):
            hits.append(w)
    report = SampleReport(weights=tuple(hits), tried=tried, found=len(hits), seed=seed)
    if len(hits) < count:
        raise BudgetExceededError(
            f"found {len(hits)}/{count} unfair vectors in {tried} draws",
            partial=report,
        )
    return report


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------

def reorder_protected(dataset, names):
    """Dataset whose group ids put the named groups first, in order.

    The dataset itself comes back when its names already start that way.
    """
    if dataset.group_names[: len(names)] == tuple(names):
        return dataset
    current = list(dataset.group_names)
    for name in names:
        if name not in current:
            raise DataFormatError(f"protected group {name!r} not present in the data")
    rest = [g for g in current if g not in names]
    new_names = list(names) + rest
    remap = {current.index(name): i for i, name in enumerate(new_names)}
    cands = [
        Candidate(cid=c.cid, point=c.point, groups={remap[g] for g in c.groups})
        for c in dataset.candidates
    ]
    return Dataset(cands, group_names=new_names)


def choose_engine(d, k, objective, engine="auto"):
    """Dispatch rule: sweeps in 2-D, cells for small k, MILP otherwise."""
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    if engine != "auto":
        return engine
    if d == 2:
        return "sweep2d"
    threshold = math.ceil(KLEVEL_BASE_K / 2 ** (d - 2))
    if objective == W_DIFFERENCE:
        threshold *= 1.5
    return "klevel" if k <= threshold else "milp"


def run_engine(engine, data, k, spec, region, workers=1):
    """Answer with one resolved engine.

    A reference weight inside the region that is already fair is optimal
    under both objectives, so it is reported without running the search.
    finish_result checks both conditions and builds the witness from one
    tie search.
    """
    if engine == "sweep2d" and data.d != 2:
        raise ValueError("sweep2d engine needs exactly two attributes")
    result = finish_result(data, k, spec, region, [region.reference], engine)
    if result is not None:
        return result
    if engine == "sweep2d":
        return sweep_select(data, k, spec, region)
    if engine == "klevel":
        return traverse(data, k, spec, region, workers=workers)
    return solve_milp(build_milp(data, k, spec, region))


def select(dataset, config):
    """Fair weight synthesis driver; returns a FairResult or None.

    The dataset's protected groups are reordered per the config, bounds
    convert from fractions, and the chosen engine runs over the epsilon
    box.  The stability post-process replaces nothing: it adds the
    centered weight and margin on top of the engine's answer, over the
    cutoff band the engine hands back (FairResult.band) when it has one.
    """
    data = reorder_protected(dataset, config.names) if config.names else dataset
    region = config.region(data.d)
    engine = choose_engine(data.d, config.k, config.objective, config.engine)
    result = run_engine(engine, data, config.k, config.spec, region, config.workers)
    if result is None:
        return None
    if config.stable:
        if config.objective == W_DIFFERENCE:
            warnings.warn(
                "stability centering after the distance objective forfeits "
                "distance optimality",
                stacklevel=2,
            )
        sr = stable_weight(data, config.k, result.subset, region, band=result.band)
        if sr is not None:
            result.stable_weight = sr.weight
            result.margin = sr.margin
            result.extras["stable_degenerate"] = sr.degenerate
            result.extras["box_radius"] = sr.box_radius
    return result


def result_json(dataset, config, result, elapsed_ms):
    """Result schema shared by the CLI and the benchmark harness."""
    payload = {
        "fair": result is not None,
        "weight": list(result.weight.weights) if result else None,
        "objective_value": result.value if result else None,
        "engine": result.engine if result else choose_engine(
            dataset.d, config.k, config.objective, config.engine
        ),
        "topk_ids": list(result.subset) if result else [],
        "group_counts": config.group_counts(dataset, result.subset) if result else {},
        "elapsed_ms": elapsed_ms,
        "seed": config.seed,
    }
    if result is not None and result.stable_weight is not None:
        payload["stable_weight"] = list(result.stable_weight.weights)
        payload["margin"] = result.margin
    return payload


# ----------------------------------------------------------------------
# 2-D brute-force oracle
# ----------------------------------------------------------------------

def brute_select_2d(dataset, k, spec, region):
    """Ground-truth 2-D synthesis by sheer position enumeration.

    Positions: region endpoints, the reference abscissa, every pairwise
    score-line crossing inside the region, and midpoints between
    consecutive positions.  Exact for the closed-cell semantics because
    every cell and every cell boundary contributes a position.  A cell is
    probed at its midpoint and represented by its point nearest the
    reference abscissa wo_x, as sweep_select does; keys equal within
    KEY_EPS relative to 1 + |key| resolve toward wo_x, then to the left.
    """
    if dataset.d != 2:
        raise ValueError("brute_select_2d needs exactly two attributes")
    spec.validate(k)
    wo, objective = region.reference, region.objective
    bounds = region_interval(region)
    if bounds is None:
        return None
    lb, ub = bounds
    pts = dataset.points
    slope = pts[:, 0] - pts[:, 1]
    inter = pts[:, 1]
    positions = {lb, ub}
    wo_x = wo[0]
    if lb - KEY_EPS <= wo_x <= ub + KEY_EPS:
        positions.add(min(max(wo_x, lb), ub))
    n = len(dataset)
    for i in range(n):
        dm = slope[i] - slope[np.arange(i + 1, n)]
        db = inter[np.arange(i + 1, n)] - inter[i]
        with np.errstate(divide="ignore", invalid="ignore"):
            xs = db / dm
        for x in xs[np.isfinite(xs)]:
            if lb <= x <= ub:
                positions.add(float(x))
    order = sorted(positions)
    probes = [(x, x) for x in order]
    for a, b in zip(order, order[1:]):
        if b - a > KEY_EPS:
            probes.append((0.5 * (a + b), min(max(wo_x, a), b)))
    probes.sort(key=lambda p: p[1])  # left to right by rep, positions first

    resolver = TieResolver(dataset, k, spec, None if objective == W_DIFFERENCE else wo)
    best = None
    for probe, rep in probes:
        w_probe = WeightVector((probe, 1.0 - probe))
        if objective == W_DIFFERENCE:
            if not resolver.fair(w_probe):
                continue
            key = 2.0 * abs(rep - wo_x)
        else:
            hit = resolver.best(w_probe)
            if hit is None:
                continue
            key = -hit[1]
        dist = abs(rep - wo_x)
        if best is not None:
            tol = KEY_EPS * (1.0 + abs(best[0]))
            if key > best[0] + tol or (key >= best[0] - tol and dist >= best[1] - KEY_EPS):
                continue
        best = (key, dist, rep, probe)
    if best is None:
        return None
    _, _, rep, probe = best
    weights = [WeightVector((x, 1.0 - x)) for x in (rep, probe)]
    return finish_result(dataset, k, spec, region, weights, "brute2d")


# ----------------------------------------------------------------------
# benchmark harness
# ----------------------------------------------------------------------

BENCH_COLUMNS = (
    "dataset", "engine", "objective", "k", "epsilon", "n", "d",
    "mean_ms", "found", "unfair_sampled", "seed", "mean_objective",
)


def _nanmean(values):
    finite = [v for v in values if not math.isnan(v)]
    return float(np.mean(finite)) if finite else float("nan")


def bench(cases, seed=0, reps=3, sample_count=30):
    """Rows of engine timings over generated instances.

    Each case is a dict with n, d, k, epsilon and optional engines /
    objectives / name.  Objective columns are deterministic per seed;
    times of course are not.
    """
    from .generators import random_instance, random_spec

    rows = []
    for index, case in enumerate(cases):
        rng = np.random.default_rng(seed + index)
        n, d, k = case["n"], case["d"], case["k"]
        epsilon = case.get("epsilon", 0.1)
        name = case.get("name", f"rand-n{n}-d{d}")
        n_protected = case.get("n_protected", 2)
        data = random_instance(rng, n=n, d=d, n_protected=n_protected, dup_rate=0.15)
        spec = random_spec(rng, data, k, n_protected)
        wo = WeightVector([1.0 / d] * d)
        try:
            report = sample_unfair(
                data, k, spec, 1, seed + index, tried_budget=sample_count
            )
            unfair = report.found / report.tried
        except BudgetExceededError as exc:
            unfair = exc.partial.found / max(exc.partial.tried, 1)
        for objective in case.get("objectives", (W_DIFFERENCE, UTILITY_LOSS)):
            region = WeightRegion.box(wo, epsilon, objective)
            for engine in case.get("engines", ("auto",)):
                resolved = choose_engine(d, k, objective, engine)
                times, values = [], []
                result = None
                for _ in range(max(1, reps)):
                    t0 = time.perf_counter()
                    result = run_engine(resolved, data, k, spec, region)
                    times.append((time.perf_counter() - t0) * 1000.0)
                    values.append(result.value if result else float("nan"))
                rows.append({
                    "dataset": name,
                    "engine": resolved,
                    "objective": objective,
                    "k": k,
                    "epsilon": epsilon,
                    "n": n,
                    "d": d,
                    "mean_ms": sum(times) / len(times),
                    "found": result is not None,
                    "unfair_sampled": unfair,
                    "seed": seed + index,
                    "mean_objective": _nanmean(values) if values else "",
                })
    return rows


def write_bench_csv(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(BENCH_COLUMNS))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
