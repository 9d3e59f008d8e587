"""Shared vocabulary for fair top-k selection.

A candidate is a point in [0, 1]^d plus a set of group memberships.  A
weight vector w on the standard simplex scores candidates linearly, and a
fairness constraint asks that some top-k subset under w contain, for every
protected group, a number of members inside a closed integer interval.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .tolerances import FEAS_TOL, FRACTION_EPS, SIMPLEX_SUM_TOL, TIE_EPS

W_DIFFERENCE = "wdiff"
UTILITY_LOSS = "utility"
OBJECTIVES = (W_DIFFERENCE, UTILITY_LOSS)


class FairTopkError(Exception):
    """Base class for errors raised by this package."""


class DataFormatError(FairTopkError):
    """Malformed input data; carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class BudgetExceededError(FairTopkError):
    """A bounded search refused to continue; partial results attached."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class LpStallError(FairTopkError):
    """The simplex solver hit its pivot budget without converging."""


@dataclass(frozen=True, slots=True)
class Candidate:
    cid: int
    point: tuple
    groups: frozenset

    def __post_init__(self):
        object.__setattr__(self, "point", tuple(float(v) for v in self.point))
        groups = self.groups
        # a frozenset of plain ints is kept as given, so loaders can share one
        if type(groups) is not frozenset or any(type(g) is not int for g in groups):
            object.__setattr__(self, "groups", frozenset(int(g) for g in groups))
        for v in self.point:
            if not math.isfinite(v):
                raise DataFormatError(f"candidate {self.cid} has non-finite attribute {v}")


class Dataset:
    """Immutable candidate table with cached numeric views."""

    def __init__(self, candidates, group_names=None):
        candidates = tuple(candidates)
        if not candidates:
            raise DataFormatError("dataset has no candidates")
        d = len(candidates[0].point)
        if d < 2:
            raise DataFormatError("candidates need at least two attributes")
        seen = set()
        for c in candidates:
            if len(c.point) != d:
                raise DataFormatError(f"candidate {c.cid} has {len(c.point)} attributes, expected {d}")
            if c.cid in seen:
                raise DataFormatError(f"duplicate candidate id {c.cid}")
            seen.add(c.cid)
        self.candidates = candidates
        self.d = d
        self.ids = tuple(c.cid for c in candidates)
        self.id_array = np.array(self.ids)
        self.id_array.setflags(write=False)
        max_group = max((g for c in candidates for g in c.groups), default=-1)
        if group_names is None:
            group_names = tuple(f"G{j}" for j in range(max_group + 1))
        else:
            group_names = tuple(group_names)
            if len(group_names) < max_group + 1:
                raise DataFormatError("fewer group names than group ids in use")
        self.group_names = group_names
        self._points = np.array([c.point for c in candidates], dtype=float)
        self._points.setflags(write=False)
        self._profiles = {}

    def __len__(self):
        return len(self.candidates)

    @property
    def n(self):
        return len(self.candidates)

    @property
    def points(self):
        """(n, d) float array in candidate order."""
        return self._points

    def by_id(self, cid):
        try:
            return self.candidates[self._index_of(cid)]
        except KeyError:
            raise KeyError(f"no candidate with id {cid}") from None

    def _index_of(self, cid):
        idx = getattr(self, "_id_index", None)
        if idx is None:
            idx = {c.cid: i for i, c in enumerate(self.candidates)}
            self._id_index = idx
        return idx[cid]

    def profiles(self, n_protected):
        """(codes, member) over the protected groups 0..n_protected-1.

        codes holds each row's encode_profile in the smallest unsigned dtype
        that fits, and member the (n_protected, n) uint8 matrix it unpacks
        to, one membership row per group.  Built on first use, in one pass
        that encodes each distinct group set once, and kept with the dataset.
        """
        view = self._profiles.get(n_protected)
        if view is None:
            code_of = {}
            for c in self.candidates:
                if c.groups not in code_of:
                    code_of[c.groups] = encode_profile(c.groups, n_protected)
            dtype = np.min_scalar_type((1 << n_protected) - 1)
            codes = np.array([code_of[c.groups] for c in self.candidates], dtype=dtype)
            member = ((codes >> np.arange(n_protected)[:, None]) & 1).astype(np.uint8)
            view = self._profiles[n_protected] = codes, member
        return view

    def scores(self, w):
        w = np.asarray(weight_components(w, self.d), dtype=float)
        return self._points @ w


def weight_components(w, d=None):
    comps = w.weights if isinstance(w, WeightVector) else tuple(float(v) for v in w)
    if d is not None and len(comps) != d:
        raise ValueError(f"weight has {len(comps)} components, expected {d}")
    return comps


@dataclass(frozen=True)
class WeightVector:
    """Point on the standard simplex.

    Inputs whose components sum to 1 only within SIMPLEX_SUM_TOL are kept
    as-is; anything farther off is renormalized with a warning.  Negative
    components are rejected outright.
    """

    weights: tuple

    def __init__(self, weights):
        weights = tuple(float(v) for v in weights)
        if len(weights) < 2:
            raise ValueError("weight vector needs at least two components")
        if any(not math.isfinite(v) for v in weights):
            raise ValueError("weight vector has non-finite components")
        if min(weights) < -SIMPLEX_SUM_TOL:
            raise ValueError(f"negative weight component {min(weights)}")
        weights = tuple(max(v, 0.0) for v in weights)
        total = sum(weights)
        if abs(total - 1.0) > SIMPLEX_SUM_TOL:
            if total <= 0.0:
                raise ValueError("weight vector sums to zero")
            warnings.warn(
                f"weight components sum to {total}; renormalizing", stacklevel=2
            )
            weights = tuple(v / total for v in weights)
        object.__setattr__(self, "weights", weights)

    @property
    def d(self):
        return len(self.weights)

    def as_array(self):
        return np.asarray(self.weights, dtype=float)

    def __iter__(self):
        return iter(self.weights)

    def __len__(self):
        return len(self.weights)

    def __getitem__(self, i):
        return self.weights[i]


def subset_utility(dataset, ids, wo):
    w = np.asarray(weight_components(wo, dataset.d))
    rows = [dataset._index_of(i) for i in ids]
    return float((dataset.points[rows] @ w).sum()) if rows else 0.0


def w_difference(w, wo):
    """L1 distance between two weight vectors of equal dimension."""
    a = weight_components(w)
    b = weight_components(wo, len(a))
    return float(sum(abs(x - y) for x, y in zip(a, b)))


def utility_loss(fair_utility, reference_utility):
    """Relative loss 1 - fair/reference, with the zero-reference rule.

    A zero reference utility yields 0.0 when the fair utility is also zero
    (nothing was lost) and is otherwise a domain error.
    """
    if reference_utility < 0 or fair_utility < -TIE_EPS:
        raise ValueError("utilities must be nonnegative")
    if reference_utility == 0.0:
        if abs(fair_utility) <= TIE_EPS:
            return 0.0
        raise ValueError("positive fair utility with zero reference utility")
    return 1.0 - fair_utility / reference_utility


def encode_profile(groups, n_protected):
    """Bitmask of protected memberships: bit j set iff group j is held."""
    code = 0
    for g in groups:
        if 0 <= g < n_protected:
            code |= 1 << g
    return code


@dataclass(frozen=True)
class FairnessSpec:
    """Closed per-group count intervals for the protected groups 0..n_p-1."""

    lower: tuple
    upper: tuple

    def __init__(self, lower, upper):
        lower = tuple(int(v) for v in lower)
        upper = tuple(int(v) for v in upper)
        if len(lower) != len(upper):
            raise ValueError("lower and upper bound lists differ in length")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def n_protected(self):
        return len(self.lower)

    def validate(self, k):
        for j, (lo, hi) in enumerate(zip(self.lower, self.upper)):
            if not 0 <= lo <= hi <= k:
                raise ValueError(f"group {j}: bounds [{lo}, {hi}] invalid for k={k}")

    @classmethod
    def vacuous(cls, n_protected, k):
        return cls((0,) * n_protected, (k,) * n_protected)

    @classmethod
    def from_fractions(cls, pairs, k):
        """Integer bounds from per-group fraction pairs.

        lower = ceil(lf * k), upper = floor(uf * k) clamped to k, with a
        FRACTION_EPS guard so exact count/k fractions survive float rounding.
        """
        lower, upper = [], []
        for lf, uf in pairs:
            if not (0.0 <= lf <= uf <= 1.0):
                raise ValueError(f"fraction bounds ({lf}, {uf}) outside [0, 1]")
            lower.append(int(math.ceil(lf * k - FRACTION_EPS)))
            upper.append(min(int(math.floor(uf * k + FRACTION_EPS)), k))
        spec = cls(lower, upper)
        spec.validate(k)
        return spec


def group_counts(dataset, ids, n_protected):
    """Protected-group membership counts of a candidate id subset."""
    counts = [0] * n_protected
    for i in ids:
        for g in dataset.by_id(i).groups:
            if g < n_protected:
                counts[g] += 1
    return tuple(counts)


def is_fair_counts(counts, spec):
    """Do per-group counts sit inside the spec's closed intervals."""
    return all(
        lo <= c <= hi for c, lo, hi in zip(counts, spec.lower, spec.upper)
    )


@dataclass(frozen=True)
class WeightRegion:
    """Allowed weight vectors: the simplex intersected with affine rows.

    Each halfspace (coeffs, offset) means coeffs . w + offset >= 0 over the
    full d components.  The simplex itself (nonnegativity, sum to one) is
    implied and never stored.
    """

    d: int
    halfspaces: tuple
    reference: WeightVector
    objective: str

    def __init__(self, d, halfspaces, reference, objective):
        d = int(d)
        rows = []
        for coeffs, offset in halfspaces:
            coeffs = tuple(float(v) for v in coeffs)
            if len(coeffs) != d:
                raise ValueError(f"halfspace has {len(coeffs)} coefficients, expected {d}")
            rows.append((coeffs, float(offset)))
        if not isinstance(reference, WeightVector):
            reference = WeightVector(reference)
        if reference.d != d:
            raise ValueError("reference weight dimension mismatch")
        if objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {objective!r}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "halfspaces", tuple(rows))
        object.__setattr__(self, "reference", reference)
        object.__setattr__(self, "objective", objective)

    @classmethod
    def box(cls, reference, epsilon, objective=W_DIFFERENCE, extra=()):
        """Per-component box |w_i - wo_i| <= epsilon around the reference.

        The box constrains every component, including the last one that the
        simplex already ties to the others.
        """
        if not isinstance(reference, WeightVector):
            reference = WeightVector(reference)
        if epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        d = reference.d
        rows = []
        for i in range(d):
            e = [0.0] * d
            e[i] = 1.0
            rows.append((tuple(e), epsilon - reference[i]))
            e = [0.0] * d
            e[i] = -1.0
            rows.append((tuple(e), epsilon + reference[i]))
        for row in extra:
            coeffs, offset = tuple(row[:-1]), row[-1]
            rows.append((coeffs, offset))
        return cls(d, rows, reference, objective)

    def contains(self, w, tol=FEAS_TOL):
        comps = weight_components(w, self.d)
        if any(v < -tol for v in comps):
            return False
        if abs(sum(comps) - 1.0) > max(tol, SIMPLEX_SUM_TOL):
            return False
        return all(
            sum(a * v for a, v in zip(coeffs, comps)) + off >= -tol
            for coeffs, off in self.halfspaces
        )


@dataclass
class FairResult:
    """A fair weight vector with its witness subset and objective value.

    band is the geometry.CutoffBand the klevel or milp engine searched,
    handed on so the stability step centres over it; None for sweep2d
    answers and for a fair in-region reference reported without a search.
    """

    weight: WeightVector
    objective: str
    value: float
    subset: tuple
    engine: str
    utility: float = None
    stable_weight: WeightVector = None
    margin: float = None
    extras: dict = field(default_factory=dict)
    band: object = field(default=None, compare=False, repr=False)
