"""Tie decomposition, fairness verification, and tie-break search."""

import math
from itertools import combinations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fairtopk import verify
from fairtopk.core import (
    BudgetExceededError,
    Candidate,
    Dataset,
    FairnessSpec,
    UTILITY_LOSS,
    WeightVector,
    group_counts,
    is_fair_counts,
    subset_utility,
)
from fairtopk.verify import (
    ProfileTally,
    SearchStats,
    assignment_leaf_bound,
    backtrack_tiebreak,
    decompose_topk,
    fair_topk_witness,
    max_fair_utility,
    max_utility_tiebreak,
    naive_verify_oracle,
    reference_topk_utility,
    verify_fair,
)
from conftest import tied_instance


class TestDecompose:
    def test_five_candidate_cut(self, five_dataset, wo_half):
        decomp = decompose_topk(five_dataset, 2, wo_half)
        assert decomp.order == (4, 0)
        assert decomp.strict == (4,)
        assert decomp.tied_in == (0,)
        assert decomp.tied_out == (1,)
        assert decomp.slack == 1
        assert decomp.pivot == 0
        assert_allclose(decomp.pivot_score, 0.55, atol=1e-15)

    def test_partition_invariants(self):
        rng = np.random.default_rng(17)
        for trial in range(60):
            data, spec = tied_instance(rng, n=18, dup_rate=0.6)
            k = int(rng.integers(1, 10))
            w = WeightVector(tuple(rng.dirichlet(np.ones(2))))
            decomp = decompose_topk(data, k, w)
            scores = dict(zip(data.ids, data.scores(w)))
            # reference: the full (score desc, id asc) order by one lexsort
            ids = np.asarray(data.ids)
            full = tuple(int(i) for i in ids[np.lexsort((ids, -data.scores(w)))])
            assert decomp.order == full[:k]
            assert decomp.pivot_score == scores[full[k - 1]]
            assert decomp.tied_out == tuple(
                c for c in full[k:] if abs(scores[c] - decomp.pivot_score) <= 1e-9
            )
            assert decomp.strict + decomp.tied_in == decomp.order
            assert len(decomp.strict) + decomp.slack == k
            assert not set(decomp.strict) & set(decomp.tied)
            assert decomp.pivot == decomp.order[k - 1]
            for c in decomp.strict:
                assert scores[c] > decomp.pivot_score + 1e-9
            for c in decomp.tied:
                assert abs(scores[c] - decomp.pivot_score) <= 1e-9
            for c in set(data.ids) - set(decomp.order) - set(decomp.tied_out):
                assert scores[c] < decomp.pivot_score - 1e-9

    def test_ids_are_the_datasets_own(self):
        rng = np.random.default_rng(5)
        data, _ = tied_instance(rng, n=30, dup_rate=0.5)
        # ids beyond the small-int cache, so identity means shared objects
        data = Dataset(Candidate(10**9 + c.cid, c.point, c.groups) for c in data.candidates)
        decomp = decompose_topk(data, 7, WeightVector((0.4, 0.6)))
        own = {id(c) for c in data.ids}
        assert all(id(c) in own for c in decomp.order + decomp.tied_out)

    def test_witness_ids_are_the_datasets_own(self):
        # answers are kept per round, so fresh ints would cost memory each round
        rng = np.random.default_rng(5)
        data, _ = tied_instance(rng, n=30, dup_rate=0.5)
        data = Dataset(Candidate(10**9 + c.cid, c.point, c.groups) for c in data.candidates)
        own = {id(c) for c in data.ids}
        spec = FairnessSpec.vacuous(2, 7)
        w = WeightVector((0.4, 0.6))
        assert decompose_topk(data, 7, w).slack > 0
        for witness in (fair_topk_witness(data, 7, spec, w),
                        max_fair_utility(data, 7, spec, w, WeightVector((0.7, 0.3)))[0]):
            assert len(witness) == 7 and all(id(c) in own for c in witness)

    def test_duplicate_points_share_the_band(self):
        cands = [Candidate(i, (0.5, 0.5), set()) for i in range(4)]
        cands.append(Candidate(4, (0.9, 0.9), set()))
        data = Dataset(cands)
        decomp = decompose_topk(data, 3, WeightVector((0.3, 0.7)))
        assert decomp.strict == (4,)
        assert decomp.slack == 2
        assert set(decomp.tied) == {0, 1, 2, 3}

    def test_k_bounds_checked(self, five_dataset, wo_half):
        with pytest.raises(ValueError):
            decompose_topk(five_dataset, 0, wo_half)
        with pytest.raises(ValueError):
            decompose_topk(five_dataset, 6, wo_half)


class TestProfileTallyAndBound:
    def test_tally_counts(self, five_dataset, wo_half):
        decomp = decompose_topk(five_dataset, 2, wo_half)
        tally = ProfileTally.from_decomposition(five_dataset, decomp, 1)
        assert tally.base == (0,)
        assert tally.avail == {0: 2}

    def test_prefix_sums_sorted_by_reference_score(self, five_dataset, wo_half):
        decomp = decompose_topk(five_dataset, 4, wo_half)
        tally = ProfileTally.from_decomposition(five_dataset, decomp, 1, wo=wo_half)
        for code, sums in tally.prefix.items():
            gaps = np.diff(sums)
            assert np.all(np.diff(gaps) <= 1e-12), "marginal gains must not increase"

    def test_leaf_bound_formula(self):
        tally = ProfileTally(n_protected=2, base=(0, 0), avail={0: 3, 1: 2, 3: 4})
        assert assignment_leaf_bound(5, tally) == math.comb(5 + 2, 2)

    def test_backtrack_leaves_within_bound(self):
        rng = np.random.default_rng(29)
        checked = 0
        for trial in range(120):
            data, _ = tied_instance(rng, n=24, n_protected=3, dup_rate=0.8)
            k = int(rng.integers(2, 12))
            w = WeightVector(tuple(rng.dirichlet(np.ones(2))))
            decomp = decompose_topk(data, k, w)
            if decomp.slack == 0:
                continue
            spec = FairnessSpec.vacuous(3, k)
            tally = ProfileTally.from_decomposition(data, decomp, 3)
            stats = SearchStats()
            backtrack_tiebreak(tally, decomp.slack, spec, stats)
            assert stats.leaves <= assignment_leaf_bound(decomp.slack, tally)
            checked += 1
        assert checked > 40


class TestVerifyAgainstNaive:
    def test_random_tied_instances(self):
        rng = np.random.default_rng(101)
        agree = unfair_seen = 0
        for trial in range(300):
            n_protected = int(rng.integers(1, 4))
            k = int(rng.integers(1, 8))
            data, spec = tied_instance(
                rng, n=16, n_protected=n_protected, k=k,
                dup_rate=float(rng.uniform(0.3, 0.9)),
            )
            w = WeightVector(tuple(rng.dirichlet(np.ones(2))))
            got = verify_fair(data, k, spec, w)
            want = naive_verify_oracle(data, k, spec, w)
            assert got == want, f"trial {trial}: verify {got} vs oracle {want}"
            agree += 1
            unfair_seen += not want
        assert unfair_seen > 20, "suite must exercise unfair cases"

    def test_crossing_weights_force_two_point_ties(self):
        rng = np.random.default_rng(103)
        for trial in range(200):
            k = int(rng.integers(1, 7))
            data, spec = tied_instance(rng, n=14, n_protected=2, k=k, dup_rate=0.0)
            pts = data.points
            i, j = rng.choice(len(pts), size=2, replace=False)
            di = pts[i][0] - pts[i][1]
            dj = pts[j][0] - pts[j][1]
            if abs(di - dj) < 1e-9:
                continue
            x = (pts[j][1] - pts[i][1]) / (di - dj)
            if not 0.0 <= x <= 1.0:
                continue
            w = WeightVector((float(x), float(1.0 - x)))
            assert verify_fair(data, k, spec, w) == naive_verify_oracle(data, k, spec, w)

    def test_witness_is_fair_and_topk(self):
        rng = np.random.default_rng(107)
        found = 0
        for trial in range(200):
            n_protected = int(rng.integers(1, 4))
            k = int(rng.integers(1, 8))
            data, spec = tied_instance(rng, n=15, n_protected=n_protected, k=k, dup_rate=0.6)
            w = WeightVector(tuple(rng.dirichlet(np.ones(2))))
            witness = fair_topk_witness(data, k, spec, w)
            if witness is None:
                assert not verify_fair(data, k, spec, w)
                continue
            found += 1
            assert len(witness) == k
            assert is_fair_counts(group_counts(data, witness, n_protected), spec)
            # witness must be a valid top-k: nonmember scores never beat members
            scores = {c: float(s) for c, s in zip(data.ids, data.scores(w))}
            worst_in = min(scores[c] for c in witness)
            best_out = max(scores[c] for c in data.ids if c not in witness)
            assert worst_in >= best_out - 1e-9
        assert found > 60

    def test_oracle_budget_refusal(self):
        cands = [Candidate(i, (0.5, 0.5), {0} if i % 2 else set()) for i in range(30)]
        data = Dataset(cands)
        spec = FairnessSpec.vacuous(1, 15)
        with pytest.raises(BudgetExceededError):
            naive_verify_oracle(data, 15, spec, WeightVector((0.5, 0.5)))
        assert verify_fair(data, 15, spec, WeightVector((0.5, 0.5)))


class TestMaxUtilityTiebreak:
    def brute_best(self, data, k, spec, w, wo):
        decomp = decompose_topk(data, k, w)
        base = list(decomp.strict)
        best = None
        for pick in combinations(decomp.tied, decomp.slack):
            subset = tuple(sorted(base + list(pick)))
            counts = group_counts(data, subset, spec.n_protected)
            if not is_fair_counts(counts, spec):
                continue
            u = subset_utility(data, subset, wo)
            if best is None or u > best + 1e-12:
                best = u
        return best

    def test_matches_enumeration(self):
        rng = np.random.default_rng(109)
        compared = 0
        for trial in range(150):
            n_protected = int(rng.integers(0, 4))
            k = int(rng.integers(2, 8))
            data, spec = tied_instance(rng, n=14, n_protected=n_protected, k=k, dup_rate=0.7)
            w = WeightVector(tuple(rng.dirichlet(np.ones(2))))
            wo = WeightVector(tuple(rng.dirichlet(np.ones(2))))
            want = self.brute_best(data, k, spec, w, wo)
            got = max_fair_utility(data, k, spec, w, wo)
            if want is None:
                assert got is None
                continue
            compared += 1
            subset, util = got
            assert_allclose(util, want, atol=1e-9)
            assert_allclose(subset_utility(data, subset, wo), util, atol=1e-9)
            assert is_fair_counts(group_counts(data, subset, n_protected), spec)
        assert compared > 50

    def test_tiebreak_assignment_counts(self, five_dataset, five_spec, wo_half):
        decomp = decompose_topk(five_dataset, 2, wo_half)
        tally = ProfileTally.from_decomposition(five_dataset, decomp, 1, wo=wo_half)
        hit = max_utility_tiebreak(tally, decomp.slack, five_spec, wo_half)
        assert hit is None, "cut {4,0}+{1} has no protected candidate available"

    def test_utility_witness_without_reference_skips_the_scan(self, monkeypatch):
        # every candidate ties, so all tied seats are worth the same under w
        # and the first fair assignment is as good as the best one
        def refuse(*args, **kwargs):
            raise AssertionError("best-utility scan run without a reference weight")

        monkeypatch.setattr(verify, "max_utility_tiebreak", refuse)
        rng = np.random.default_rng(10)
        n, k, n_protected = 40, 14, 6
        data = Dataset(
            Candidate(i, (0.5, 0.5), set(np.nonzero(rng.random(n_protected) < 0.4)[0].tolist()))
            for i in range(n)
        )
        pick = rng.choice(n, size=k, replace=False).tolist()
        counts = group_counts(data, pick, n_protected)
        spec = FairnessSpec([max(0, c - 1) for c in counts], [min(k, c + 1) for c in counts])
        witness = fair_topk_witness(data, k, spec, WeightVector((0.5, 0.5)), UTILITY_LOSS)
        assert witness is not None and len(witness) == k
        assert is_fair_counts(group_counts(data, witness, n_protected), spec)


class TestWorkedExample:
    def test_reference_utility(self, five_dataset, wo_half):
        assert_allclose(reference_topk_utility(five_dataset, 2, wo_half), 1.45, atol=1e-15)

    def test_unfair_at_reference(self, five_dataset, five_spec, wo_half):
        assert not verify_fair(five_dataset, 2, five_spec, wo_half)

    def test_fair_at_crossing(self, five_dataset, five_spec):
        w = WeightVector((5 / 9, 4 / 9))
        assert verify_fair(five_dataset, 2, five_spec, w)
        got = max_fair_utility(five_dataset, 2, five_spec, w, WeightVector((0.5, 0.5)))
        assert got is not None
        subset, util = got
        assert subset == (2, 4)
        assert_allclose(util, 1.425, atol=1e-12)

    def test_fair_at_second_crossing(self, five_dataset, five_spec):
        w = WeightVector((0.6, 0.4))
        got = max_fair_utility(five_dataset, 2, five_spec, w, WeightVector((0.5, 0.5)))
        subset, util = got
        assert subset == (2, 4)
        assert_allclose(util, 1.425, atol=1e-12)

    def test_below_first_crossing_unfair(self, five_dataset, five_spec):
        w = WeightVector((0.52, 0.48))
        assert not verify_fair(five_dataset, 2, five_spec, w)

    def test_between_crossings_fair(self, five_dataset, five_spec):
        assert verify_fair(five_dataset, 2, five_spec, WeightVector((0.58, 0.42)))
