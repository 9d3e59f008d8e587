"""Instance generators whose fairness answer is known by construction.

Three families reduce classic decision problems to fairness verification
by giving every candidate the same attribute point, so all candidates tie
and the verdict depends only on how tied seats can be distributed:

* set cover: one group per universe element with a lower bound of one;
  k sets can cover the universe iff verification succeeds at k, so the
  smallest verifying k is the minimum cover size.
* orthogonal vectors: one group per coordinate with an upper bound of
  one, marker groups forcing one pick per side, k = 2; an orthogonal
  pair exists iff the instance verifies.
* t-wise orthogonal vectors: coordinate upper bounds of k - 1 with t
  marker groups, k = t; a t-tuple with no all-ones coordinate exists iff
  the instance verifies.

Every instance carries the brute-force answer so verification can be
cross-checked at scale.  Plain random-instance helpers for benchmarks
and tests live here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .core import Candidate, Dataset, FairnessSpec

_TIE_POINT = (0.5, 0.5)


@dataclass(frozen=True)
class GeneratedInstance:
    """Dataset plus the question it encodes and the brute-force answer.

    expected is the minimum cover size for setcover instances and the
    existence verdict (bool) for the orthogonality families.
    """

    dataset: Dataset
    k: int
    spec: FairnessSpec
    expected: object
    tag: str

    def any_weight(self):
        """All points coincide, so every weight is equivalent."""
        return tuple([1.0 / self.dataset.d] * self.dataset.d)

    def spec_for(self, k):
        """Bounds at a different k (upper bounds of cover instances move)."""
        if self.tag == "setcover":
            m = self.spec.n_protected
            return FairnessSpec(lower=[1] * m, upper=[k] * m)
        return self.spec


def gen_setcover(universe_size, collection):
    """Cover instance: smallest verifying k = minimum cover size.

    collection is a list of iterables over universe elements 0..U-1.
    Raises when some element is not covered by any set.
    """
    sets = [frozenset(int(e) for e in s) for s in collection]
    universe = set(range(universe_size))
    for s in sets:
        if not s <= universe:
            raise ValueError(f"set {sorted(s)} leaves the universe")
    covered = set().union(*sets) if sets else set()
    if covered != universe:
        missing = sorted(universe - covered)
        raise ValueError(f"universe elements {missing} are uncoverable")
    cands = [Candidate(cid=i, point=_TIE_POINT, groups=s) for i, s in enumerate(sets)]
    names = [f"elem{j}" for j in range(universe_size)]
    dataset = Dataset(cands, group_names=names)
    min_cover = None
    for size in range(1, len(sets) + 1):
        if any(
            set().union(*(sets[i] for i in pick)) == universe
            for pick in combinations(range(len(sets)), size)
        ):
            min_cover = size
            break
    spec = FairnessSpec(lower=[1] * universe_size, upper=[min_cover] * universe_size)
    return GeneratedInstance(dataset, min_cover, spec, min_cover, "setcover")


def gen_ov(left, right):
    """Orthogonal-vectors instance: verifies iff an orthogonal pair exists."""
    left = np.atleast_2d(np.asarray(left, dtype=int))
    right = np.atleast_2d(np.asarray(right, dtype=int))
    if left.shape[1] != right.shape[1]:
        raise ValueError("vector sides must share the dimension")
    dim = left.shape[1]
    marker_left, marker_right = dim, dim + 1
    cands = []
    for i, vec in enumerate(left):
        groups = {j for j in range(dim) if vec[j]} | {marker_left}
        cands.append(Candidate(cid=i, point=_TIE_POINT, groups=groups))
    for i, vec in enumerate(right):
        groups = {j for j in range(dim) if vec[j]} | {marker_right}
        cands.append(Candidate(cid=len(left) + i, point=_TIE_POINT, groups=groups))
    names = [f"coord{j}" for j in range(dim)] + ["left", "right"]
    dataset = Dataset(cands, group_names=names)
    spec = FairnessSpec(lower=[0] * dim + [1, 1], upper=[1] * dim + [1, 1])
    expected = bool(any(int(np.dot(a, b)) == 0 for a in left for b in right))
    return GeneratedInstance(dataset, 2, spec, expected, "ov")


def gen_tov(sides):
    """t-wise variant: one vector per side with no coordinate all ones."""
    sides = [np.atleast_2d(np.asarray(s, dtype=int)) for s in sides]
    t = len(sides)
    if t < 2:
        raise ValueError("need at least two sides")
    dim = sides[0].shape[1]
    if any(s.shape[1] != dim for s in sides):
        raise ValueError("vector sides must share the dimension")
    cands = []
    cid = 0
    for s, side in enumerate(sides):
        for vec in side:
            groups = {j for j in range(dim) if vec[j]} | {dim + s}
            cands.append(Candidate(cid=cid, point=_TIE_POINT, groups=groups))
            cid += 1
    names = [f"coord{j}" for j in range(dim)] + [f"side{s}" for s in range(t)]
    dataset = Dataset(cands, group_names=names)
    spec = FairnessSpec(
        lower=[0] * dim + [1] * t,
        upper=[t - 1] * dim + [1] * t,
    )
    expected = bool(
        any(
            all(min(int(vecs[s][j]) for s in range(t)) == 0 for j in range(dim))
            for vecs in product(*[list(side) for side in sides])
        )
    )
    return GeneratedInstance(dataset, t, spec, expected, "tov")


def random_setcover(rng, universe_size=5, n_sets=8, cover_bias=0.5):
    """Random coverable collection; one covering set guards feasibility."""
    sets = []
    for _ in range(n_sets - 1):
        members = {int(j) for j in range(universe_size) if rng.random() < cover_bias}
        if not members:
            members = {int(rng.integers(universe_size))}
        sets.append(members)
    covered = set().union(*sets) if sets else set()
    leftover = set(range(universe_size)) - covered
    extra = {int(j) for j in range(universe_size) if rng.random() < cover_bias}
    sets.append(extra | leftover if (extra | leftover) else {0})
    return gen_setcover(universe_size, sets)


def random_ov(rng, n_left=6, n_right=6, dim=5, one_bias=0.5):
    left = (rng.random((n_left, dim)) < one_bias).astype(int)
    right = (rng.random((n_right, dim)) < one_bias).astype(int)
    return gen_ov(left, right)


def random_tov(rng, t=3, per_set=4, dim=4, one_bias=0.6):
    sides = [(rng.random((per_set, dim)) < one_bias).astype(int) for _ in range(t)]
    return gen_tov(sides)


def random_instance(rng, n=20, d=2, n_protected=2, dup_rate=0.0, group_bias=0.45):
    """Random dataset for benchmarks and tests.

    dup_rate reuses earlier attribute points, creating the duplicate ties
    the tie handling has to survive.
    """
    points = []
    for _ in range(n):
        if points and rng.random() < dup_rate:
            points.append(points[int(rng.integers(len(points)))])
        else:
            points.append(tuple(float(v) for v in rng.random(d)))
    cands = []
    for i in range(n):
        groups = {j for j in range(n_protected) if rng.random() < group_bias}
        cands.append(Candidate(cid=i, point=points[i], groups=groups))
    return Dataset(cands)


def random_spec(rng, dataset, k, n_protected):
    """Count intervals drawn around the group sizes so many are feasible."""
    lower, upper = [], []
    n = len(dataset)
    for size in dataset.profiles(n_protected)[1].sum(axis=1).tolist():
        center = size / max(n, 1) * k
        lo = max(0, int(np.floor(center - rng.integers(0, 2))))
        hi = min(k, int(np.ceil(center + rng.integers(0, 2))))
        if lo > hi:
            lo, hi = hi, lo
        lower.append(lo)
        upper.append(hi)
    return FairnessSpec(lower=lower, upper=upper)
