"""Fairness verification of a fixed weight vector under exact tie handling.

A weight vector is fair when at least one of its top-k subsets satisfies
every per-group count interval.  Candidates tied with the k-th score are
interchangeable, so verification reduces to distributing the slack (the
tied seats) over membership profiles: bitmasks of protected-group
membership.  A bounded backtracking search over those integer assignments
decides the question without enumerating individual candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import (
    BudgetExceededError,
    FairResult,
    UTILITY_LOSS,
    W_DIFFERENCE,
    encode_profile,
    group_counts,
    is_fair_counts,
    subset_utility,
    utility_loss,
    w_difference,
    weight_components,
)
from .tolerances import KEY_EPS, TIE_EPS


@dataclass(frozen=True)
class TieDecomposition:
    """Top-k cut of the score order with the tie band made explicit.

    order is the canonical top-k subset, its ids sorted by (score desc,
    id asc).  strict holds the ids scoring strictly above the pivot band,
    tied_in the remaining members of the canonical top-k, tied_out the
    non-members inside the band; each is in that same order.
    """

    order: tuple
    strict: tuple
    tied_in: tuple
    tied_out: tuple
    pivot: int
    pivot_score: float
    slack: int

    @property
    def tied(self):
        return self.tied_in + self.tied_out


def decompose_topk(dataset, k, w):
    """Deterministic tie decomposition of the top-k cut under w.

    Linear in n: the pivot score comes from a partition, and only the
    strict part and the tie band are sorted.
    """
    n = len(dataset)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside 1..{n}")
    scores = dataset.scores(w)
    pivot_score = float(np.partition(scores, n - k)[n - k])
    strict = _ranked(dataset, scores, np.flatnonzero(scores > pivot_score + TIE_EPS))
    band = _ranked(dataset, scores, np.flatnonzero(np.abs(scores - pivot_score) <= TIE_EPS))
    order = strict + band[: k - len(strict)]
    return TieDecomposition(
        order=order,
        strict=strict,
        tied_in=order[len(strict):],
        tied_out=band[k - len(strict):],
        pivot=order[-1],
        pivot_score=pivot_score,
        slack=k - len(strict),
    )


def _ranked(dataset, scores, rows):
    """Ids at rows sorted by (score desc, id asc)."""
    ids = dataset.ids
    perm = np.lexsort((dataset.id_array[rows], -scores[rows]))
    return tuple(ids[i] for i in rows[perm].tolist())


@dataclass
class ProfileTally:
    """Aggregated view of a tie decomposition by membership profile.

    base holds per-protected-group counts contributed by the strict part.
    avail maps profile code -> number of tied candidates carrying it, and
    prefix maps profile code -> descending-reference-score prefix sums over
    those candidates (prefix[p][m] = best utility of m picks), present only
    when a reference weight was supplied.
    """

    n_protected: int
    base: tuple
    avail: dict
    prefix: dict = None
    members: dict = None

    @classmethod
    def from_decomposition(cls, dataset, decomp, n_protected, wo=None):
        base = group_counts(dataset, decomp.strict, n_protected)
        avail, members = {}, {}
        for cid in decomp.tied:
            code = encode_profile(dataset.by_id(cid).groups, n_protected)
            avail[code] = avail.get(code, 0) + 1
            members.setdefault(code, []).append(cid)
        prefix = None
        if wo is not None:
            wo_arr = np.asarray(weight_components(wo, dataset.d))
            rows = [dataset._index_of(c) for c in decomp.tied]
            ref = dict(zip(decomp.tied, (dataset.points[rows] @ wo_arr).tolist()))
            prefix = {}
            for code, cids in members.items():
                scored = sorted(cids, key=lambda c: (-ref[c], c))
                members[code] = scored
                sums = [0.0]
                for c in scored:
                    sums.append(sums[-1] + ref[c])
                prefix[code] = tuple(sums)
        else:
            for code in members:
                members[code] = sorted(members[code])
        return cls(
            n_protected=n_protected,
            base=base,
            avail=avail,
            prefix=prefix,
            members=members,
        )


@dataclass
class SearchStats:
    """Counters exposed for the leaf-bound guarantee tests."""

    leaves: int = 0
    nodes: int = 0


def assignment_leaf_bound(slack, tally):
    """Combinatorial cap on fair-assignment leaves: C(t + beta - 1, beta - 1)."""
    beta = sum(1 for v in tally.avail.values() if v > 0)
    if beta == 0:
        return 1
    return math.comb(slack + beta - 1, beta - 1)


def _profile_groups(code):
    groups = []
    j = 0
    while code:
        if code & 1:
            groups.append(j)
        code >>= 1
        j += 1
    return groups


def _search(tally, slack, spec, best=False, stats=None):
    """Enumerate per-profile seat counts summing to slack.

    By default the first fair assignment is returned; with best every fair
    leaf is scanned and (assignment, tied-part utility) of the largest
    utility comes back.  None means no assignment is fair.  Branches die
    early when a group already exceeds its upper bound (counts only grow)
    or when the seats still to place cannot lift every group to its lower
    bound.
    """
    if stats is None:
        stats = SearchStats()
    profiles = sorted(
        (code for code, a in tally.avail.items() if a > 0),
        key=lambda code: (-tally.avail[code], code),
    )
    n_profiles = len(profiles)
    avail = [tally.avail[p] for p in profiles]
    groups_of = [_profile_groups(p) for p in profiles]
    suffix = [0] * (n_profiles + 1)
    for i in range(n_profiles - 1, -1, -1):
        suffix[i] = suffix[i + 1] + avail[i]
    # per-group availability in the suffix, for the lower-bound prune
    rem = [[0] * spec.n_protected for _ in range(n_profiles + 1)]
    for i in range(n_profiles - 1, -1, -1):
        rem[i] = rem[i + 1][:]
        for g in groups_of[i]:
            rem[i][g] += avail[i]
    if slack > suffix[0]:
        return None
    counts = list(tally.base)
    lower, upper = spec.lower, spec.upper

    best_assign, best_util = None, -math.inf

    def feasible_here(i, remaining):
        for g in range(spec.n_protected):
            c = counts[g]
            if c > upper[g]:
                return False
            if c + min(remaining, rem[i][g]) < lower[g]:
                return False
        return True

    assign = [0] * n_profiles

    def walk(i, remaining):
        nonlocal best_assign, best_util
        stats.nodes += 1
        if not feasible_here(i, remaining):
            return None
        if remaining == 0 or i == n_profiles:
            if remaining != 0:
                return None
            stats.leaves += 1
            if all(lower[g] <= counts[g] <= upper[g] for g in range(spec.n_protected)):
                taken = {profiles[j]: assign[j] for j in range(i) if assign[j]}
                if not best:
                    return taken
                util = sum(tally.prefix[p][m] for p, m in taken.items())
                if util > best_util + KEY_EPS:
                    best_util, best_assign = util, taken
            return None
        hi = min(avail[i], remaining)
        lo = max(0, remaining - suffix[i + 1])
        for m in range(hi, lo - 1, -1):
            assign[i] = m
            for g in groups_of[i]:
                counts[g] += m
            hit = walk(i + 1, remaining - m)
            for g in groups_of[i]:
                counts[g] -= m
            assign[i] = 0
            if hit is not None:
                return hit
        return None

    hit = walk(0, slack)
    if best:
        return None if best_assign is None else (best_assign, best_util)
    return hit


def backtrack_tiebreak(tally, slack, spec, stats=None):
    """First distribution of the tied seats that satisfies every bound.

    Returns {profile code: seats} or None when no assignment is fair.
    """
    return _search(tally, slack, spec, stats=stats)


def max_utility_tiebreak(tally, slack, spec, wo, stats=None):
    """Best reference-weight utility over fair tied-seat assignments.

    Returns (assignment, tied_utility) or None when no assignment is fair.
    """
    if tally.prefix is None:
        raise ValueError("tally was built without a reference weight")
    return _search(tally, slack, spec, best=True, stats=stats)


def _group_interval_prune(tally, slack, spec):
    """Necessary per-group reach test; False means provably unfair."""
    total = sum(tally.avail.values())
    if slack > total:
        return False
    for g in range(spec.n_protected):
        in_avail = sum(a for code, a in tally.avail.items() if code >> g & 1)
        out_avail = total - in_avail
        hi = tally.base[g] + min(slack, in_avail)
        lo = tally.base[g] + max(0, slack - out_avail)
        if hi < spec.lower[g] or lo > spec.upper[g]:
            return False
    return True


def _resolve(dataset, k, spec, w, wo=None):
    """The one tie-resolution path: (decomp, tally, hit), or None if unfair.

    Validates, decomposes the top-k cut under w, tallies the tied part by
    profile and settles the cases without open seats or with a failed
    reach test.  Only then are the tied seats searched: without wo, hit is
    backtrack_tiebreak's first fair assignment; with wo, the tally carries
    reference prefix sums and hit is max_utility_tiebreak's (assignment,
    tied utility).  hit is None when the strict part fills every seat.
    """
    spec.validate(k)
    decomp = decompose_topk(dataset, k, w)
    tally = ProfileTally.from_decomposition(dataset, decomp, spec.n_protected, wo=wo)
    if decomp.slack == 0:
        return (decomp, tally, None) if is_fair_counts(tally.base, spec) else None
    if not _group_interval_prune(tally, decomp.slack, spec):
        return None
    if wo is None:
        hit = backtrack_tiebreak(tally, decomp.slack, spec)
    else:
        hit = max_utility_tiebreak(tally, decomp.slack, spec, wo)
    return None if hit is None else (decomp, tally, hit)


def _materialize(decomp, tally, assignment):
    chosen = list(decomp.strict)
    for code, m in (assignment or {}).items():
        chosen.extend(tally.members[code][:m])
    return tuple(sorted(chosen))


def verify_fair(dataset, k, spec, w):
    """Is some top-k subset under w inside every group-count interval."""
    return _resolve(dataset, k, spec, w) is not None


def fair_topk_witness(dataset, k, spec, w, objective=UTILITY_LOSS):
    """A concrete fair top-k subset under w, or None when w is unfair.

    The tied seats go to the first fair assignment found, with tied
    candidates of one profile taken in id order: every tied seat is worth
    the same under w itself.  objective is accepted and ignored;
    max_fair_utility gives the best-utility witness for a reference weight.
    """
    found = _resolve(dataset, k, spec, w)
    return None if found is None else _materialize(*found)


def max_fair_utility(dataset, k, spec, w, wo):
    """(witness subset, total reference utility) of the best fair tie choice.

    Returns None when w is unfair.  The strict part contributes its full
    utility; the tied seats are assigned by max_utility_tiebreak.
    """
    found = _resolve(dataset, k, spec, w, wo)
    if found is None:
        return None
    decomp, tally, hit = found
    assignment, tied_util = hit or ({}, 0.0)
    strict_util = subset_utility(dataset, decomp.strict, wo)
    return _materialize(decomp, tally, assignment), strict_util + tied_util


def reference_topk_utility(dataset, k, wo):
    """Utility of the unconstrained top-k under the reference weights."""
    return float(sum(np.sort(dataset.scores(wo))[::-1][:k]))


def finish_result(dataset, k, spec, region, weights, engine):
    """FairResult at the first candidate weight that lies in the region and
    verifies fair, or None.

    Engines hand over their candidate weights in order of preference;
    witness, value and utility are always recomputed here, so every engine
    reports its numbers from this one code path.
    """
    wo = region.reference
    for weight in weights:
        if not region.contains(weight):
            continue
        if region.objective == W_DIFFERENCE:
            witness = fair_topk_witness(dataset, k, spec, weight)
            if witness is None:
                continue
            util, value = None, w_difference(weight, wo)
        else:
            hit = max_fair_utility(dataset, k, spec, weight, wo)
            if hit is None:
                continue
            witness, util = hit
            value = utility_loss(util, reference_topk_utility(dataset, k, wo))
        return FairResult(
            weight=weight,
            objective=region.objective,
            value=value,
            subset=tuple(sorted(witness)),
            engine=engine,
            utility=util,
        )
    return None


def naive_verify_oracle(dataset, k, spec, w, budget=2_000_000):
    """Reference answer by enumerating every tie-break of the top-k cut.

    Refuses (BudgetExceededError) when the number of tied-seat choices
    exceeds the budget.  It backs `fair-topk oracle` and the tests.
    """
    spec.validate(k)
    decomp = decompose_topk(dataset, k, w)
    if spec.n_protected == 0:
        return True
    tied = decomp.tied
    total = math.comb(len(tied), decomp.slack)
    if total > budget:
        raise BudgetExceededError(
            f"{total} tie-break choices exceed the oracle budget {budget}"
        )
    base = [0] * spec.n_protected
    for cid in decomp.strict:
        for g in dataset.by_id(cid).groups:
            if g < spec.n_protected:
                base[g] += 1
    for pick in combinations(tied, decomp.slack):
        counts = base[:]
        for cid in pick:
            for g in dataset.by_id(cid).groups:
                if g < spec.n_protected:
                    counts[g] += 1
        if is_fair_counts(counts, spec):
            return True
    return False
