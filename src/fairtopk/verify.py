"""Fairness verification of a fixed weight vector under exact tie handling.

A weight vector is fair when at least one of its top-k subsets satisfies
every per-group count interval.  Candidates tied with the k-th score are
interchangeable, so verification reduces to distributing the slack (the
tied seats) over membership profiles: bitmasks of protected-group
membership.  A bounded backtracking search over those integer assignments
decides the question without enumerating individual candidates.

One TieResolver answers one query (dataset, k, spec, reference weight) at
any number of weights.  The spec is validated and the dataset's profile
codes and membership matrix (core.Dataset.profiles) are looked up once per
query; per weight it decomposes the top-k cut into strict and tied rows,
counts the strict part with one membership sum and the few tied rows by
their cached codes, and lists the tied members and searches their seats
only when those counts pass the reach test.  verify_fair,
fair_topk_witness, max_fair_utility and finish_result are resolver calls,
and the engines hold one resolver per query across all their weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .core import (
    BudgetExceededError,
    FairResult,
    UTILITY_LOSS,
    W_DIFFERENCE,
    is_fair_counts,
    utility_loss,
    w_difference,
    weight_components,
)
from .tolerances import KEY_EPS, TIE_EPS


@dataclass(eq=False)
class TieDecomposition:
    """Top-k cut of the score order with the tie band made explicit.

    strict_rows are the dataset rows scoring more than TIE_EPS above the
    pivot score and band_rows those within TIE_EPS of it, each with its
    scores and in no set order.  The id views are built on first read:
    order is the canonical top-k subset, its ids sorted by (score desc,
    id asc); strict holds the ids of strict_rows, tied_in the remaining
    members of the canonical top-k, tied_out the non-members inside the
    band; each is in that same order.
    """

    dataset: object
    strict_rows: np.ndarray
    strict_scores: np.ndarray
    band_rows: np.ndarray
    band_scores: np.ndarray
    pivot_score: float
    slack: int

    @cached_property
    def ranked_strict_rows(self):
        return _ranked(self.dataset, self.strict_rows, self.strict_scores)

    @cached_property
    def tied_rows(self):
        """band_rows in (score desc, id asc) order: tied_in's rows, then tied_out's."""
        return _ranked(self.dataset, self.band_rows, self.band_scores)

    @cached_property
    def strict(self):
        return _ids(self.dataset, self.ranked_strict_rows)

    @cached_property
    def tied(self):
        return _ids(self.dataset, self.tied_rows)

    @property
    def tied_in(self):
        return self.tied[: self.slack]

    @property
    def tied_out(self):
        return self.tied[self.slack:]

    @property
    def order(self):
        return self.strict + self.tied_in

    @property
    def pivot(self):
        return self.order[-1]


def decompose_topk(dataset, k, w, rows=None):
    """Deterministic tie decomposition of the top-k cut under w.

    Linear in n: the pivot score comes from a partition, and nothing is
    sorted until an id view is read.  rows, an index array, restricts the
    cut to those dataset rows; it is the cut over all rows when rows holds
    every row scoring within TIE_EPS of the pivot or above it.
    """
    points = dataset.points if rows is None else dataset.points[rows]
    n = len(points)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside 1..{n}")
    scores = points @ np.asarray(weight_components(w, dataset.d), dtype=float)
    pivot_score = float(np.partition(scores, n - k)[n - k])
    strict = (scores > pivot_score + TIE_EPS).nonzero()[0]
    band = (np.abs(scores - pivot_score) <= TIE_EPS).nonzero()[0]
    return TieDecomposition(
        dataset=dataset,
        strict_rows=strict if rows is None else rows[strict],
        strict_scores=scores[strict],
        band_rows=band if rows is None else rows[band],
        band_scores=scores[band],
        pivot_score=pivot_score,
        slack=k - len(strict),
    )


def _ranked(dataset, rows, scores):
    """rows sorted by (score desc, id asc)."""
    if len(rows) < 2:
        return rows
    return rows[np.lexsort((dataset.id_array[rows], -scores))]


def _ids(dataset, rows):
    """The dataset's own id objects at rows: fresh ints would cost memory
    wherever answers are kept."""
    ids = dataset.ids
    return tuple(ids[i] for i in rows.tolist())


@dataclass
class ProfileTally:
    """Aggregated view of a tie decomposition by membership profile.

    base holds per-protected-group counts contributed by the strict part.
    avail maps profile code -> number of tied candidates carrying it, and
    prefix maps profile code -> descending-reference-score prefix sums over
    those candidates (prefix[p][m] = best utility of m picks), present only
    when a reference weight was supplied.  members maps profile code -> the
    tied ids carrying it, in id order, or in prefix order with a reference.
    counts builds base and avail alone; add_members fills the rest.
    """

    n_protected: int
    base: tuple
    avail: dict
    prefix: dict = None
    members: dict = None

    @classmethod
    def from_decomposition(cls, dataset, decomp, n_protected, wo=None):
        tally = cls.counts(dataset, decomp, n_protected)
        tally.add_members(dataset, decomp, wo)
        return tally

    @classmethod
    def counts(cls, dataset, decomp, n_protected):
        """base and avail alone, all that the reach test reads: one
        membership sum over the strict rows and the tied rows' cached codes."""
        codes, member = dataset.profiles(n_protected)
        base = tuple(member.take(decomp.strict_rows, axis=1).sum(axis=1).tolist())
        avail = {}
        for code in codes[decomp.band_rows].tolist():
            avail[code] = avail.get(code, 0) + 1
        return cls(n_protected=n_protected, base=base, avail=avail)

    def add_members(self, dataset, decomp, wo=None):
        """Fill members, and prefix when wo is given."""
        codes, _ = dataset.profiles(self.n_protected)
        # reference scores are taken over the ranked tied rows, whose order
        # a one-row product can round differently from a longer one
        rows = decomp.band_rows if wo is None else decomp.tied_rows
        ids = dataset.ids
        members = {}
        for row, code in zip(rows.tolist(), codes[rows].tolist()):
            members.setdefault(code, []).append(row)
        if wo is None:
            for code, got in members.items():
                members[code] = sorted(ids[r] for r in got)
        else:
            wo_arr = np.asarray(weight_components(wo, dataset.d))
            ref = dict(zip(rows.tolist(), (dataset.points[rows] @ wo_arr).tolist()))
            self.prefix = {}
            for code, got in members.items():
                scored = sorted(got, key=lambda r: (-ref[r], ids[r]))
                members[code] = [ids[r] for r in scored]
                sums = [0.0]
                for r in scored:
                    sums.append(sums[-1] + ref[r])
                self.prefix[code] = tuple(sums)
        self.members = members


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


class TieResolver:
    """Exact tie resolution of one query at any number of weights.

    Built once per (dataset, k, spec, reference weight wo), where the spec
    is validated.  rows, an index array, restricts every cut to those
    dataset rows; it must hold every row that scores within TIE_EPS of the
    pivot or above it at each weight asked about, so the cut is the one
    over all rows (sweep2d passes the rows band_split does not mark
    sure-out).  Without wo the tied seats go to backtrack_tiebreak's first
    fair assignment; with wo the tally carries reference prefix sums and
    they go to max_utility_tiebreak's best one.
    """

    def __init__(self, dataset, k, spec, wo=None, rows=None):
        spec.validate(k)
        self.dataset, self.k, self.spec, self.wo, self.rows = dataset, k, spec, wo, rows

    def resolve(self, w):
        """(decomp, tally, assignment, tied utility) at w, or None if w is unfair.

        Decomposes the top-k cut under w and counts the tied part by
        profile; the cases without open seats or with a failed reach test are
        settled from the counts alone, and only then are the tied members
        listed and their seats searched.  assignment maps profile code ->
        tied seats; the tied utility is 0.0 without wo.
        """
        spec = self.spec
        decomp = decompose_topk(self.dataset, self.k, w, self.rows)
        tally = ProfileTally.counts(self.dataset, decomp, spec.n_protected)
        if decomp.slack == 0:
            if not is_fair_counts(tally.base, spec):
                return None
        elif not _group_interval_prune(tally, decomp.slack, spec):
            return None
        tally.add_members(self.dataset, decomp, self.wo)
        if decomp.slack == 0:
            hit = {}, 0.0
        elif self.wo is None:
            assignment = backtrack_tiebreak(tally, decomp.slack, spec)
            hit = None if assignment is None else (assignment, 0.0)
        else:
            hit = max_utility_tiebreak(tally, decomp.slack, spec, self.wo)
        return None if hit is None else (decomp, tally, *hit)

    def fair(self, w):
        """Is some top-k subset under w inside every group-count interval."""
        return self.resolve(w) is not None

    def witness(self, w):
        """A fair top-k id subset under w, sorted, or None when w is unfair."""
        found = self.resolve(w)
        return None if found is None else _materialize(*found[:3])

    def best(self, w):
        """(witness, total reference utility) of the best fair tie choice at w,
        or None when w is unfair.  The strict part contributes its full
        utility, summed in (score desc, id asc) order."""
        if self.wo is None:
            raise ValueError("resolver was built without a reference weight")
        found = self.resolve(w)
        if found is None:
            return None
        decomp, tally, assignment, tied_util = found
        rows = decomp.ranked_strict_rows
        wo_arr = np.asarray(weight_components(self.wo, self.dataset.d))
        strict_util = float((self.dataset.points[rows] @ wo_arr).sum()) if len(rows) else 0.0
        return _materialize(decomp, tally, assignment), strict_util + tied_util


def _materialize(decomp, tally, assignment):
    ids = decomp.dataset.ids
    chosen = [ids[i] for i in decomp.strict_rows.tolist()]
    for code, m in assignment.items():
        chosen.extend(tally.members[code][:m])
    return tuple(sorted(chosen))


def verify_fair(dataset, k, spec, w):
    """Is some top-k subset under w inside every group-count interval."""
    return TieResolver(dataset, k, spec).fair(w)


def fair_topk_witness(dataset, k, spec, w, objective=UTILITY_LOSS):
    """A concrete fair top-k subset under w, or None when w is unfair.

    The tied seats go to the first fair assignment found, with tied
    candidates of one profile taken in id order: every tied seat is worth
    the same under w itself.  objective is accepted and ignored;
    max_fair_utility gives the best-utility witness for a reference weight.
    """
    return TieResolver(dataset, k, spec).witness(w)


def max_fair_utility(dataset, k, spec, w, wo):
    """(witness subset, total reference utility) of the best fair tie choice.

    Returns None when w is unfair.  The strict part contributes its full
    utility; the tied seats are assigned by max_utility_tiebreak.
    """
    return TieResolver(dataset, k, spec, wo).best(w)


def reference_topk_utility(dataset, k, wo):
    """Utility of the unconstrained top-k under the reference weights."""
    return float(sum(np.sort(dataset.scores(wo))[::-1][:k]))


def finish_result(dataset, k, spec, region, weights, engine, band=None):
    """FairResult at the first candidate weight that lies in the region and
    verifies fair, or None.

    Engines hand over their candidate weights in order of preference, and
    the cutoff band they searched, if any, for the result to carry;
    witness, value and utility are always recomputed here, so every engine
    reports its numbers from this one code path.  Its resolver keeps every
    row: region.contains accepts weights up to FEAS_TOL outside the region,
    where an engine's row restriction need not hold.
    """
    wo = region.reference
    wdiff = region.objective == W_DIFFERENCE
    resolver = TieResolver(dataset, k, spec, None if wdiff else wo)
    for weight in weights:
        if not region.contains(weight):
            continue
        if wdiff:
            witness = resolver.witness(weight)
            if witness is None:
                continue
            util, value = None, w_difference(weight, wo)
        else:
            hit = resolver.best(weight)
            if hit is None:
                continue
            witness, util = hit
            value = utility_loss(util, reference_topk_utility(dataset, k, wo))
        return FairResult(
            weight=weight,
            objective=region.objective,
            value=value,
            subset=witness,
            engine=engine,
            utility=util,
            band=band,
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
