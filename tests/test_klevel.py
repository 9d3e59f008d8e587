"""Cell traversal engine: swap tests, per-cell optima, budget, determinism."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fairtopk.core import (
    BudgetExceededError,
    Candidate,
    Dataset,
    FairnessSpec,
    UTILITY_LOSS,
    W_DIFFERENCE,
    WeightRegion,
    WeightVector,
)
from fairtopk.geometry import band_split, cell_min_wdiff, lift_weight
from fairtopk.klevel import TraversalLedger, initial_cell, swap_feasible, traverse
from fairtopk.sweep2d import sweep_select
from fairtopk.verify import decompose_topk, verify_fair
from conftest import tied_instance


def full_region(wo, objective=W_DIFFERENCE):
    return WeightRegion.box(wo, epsilon=1.0, objective=objective)


def cell_point(data, k, subset, region):
    """The shared cell LP for a subset given by its ids."""
    member = np.isin(data.id_array, subset)
    return cell_min_wdiff(data.points, member, band_split(data.points, k, region), region)


class TestCells:
    def test_initial_cell_is_topk_at_centroid(self, five_dataset):
        region = full_region(WeightVector((0.5, 0.5)))
        node = initial_cell(five_dataset, 2, region)
        w = lift_weight(np.asarray(node.witness))
        decomp = decompose_topk(five_dataset, 2, w)
        assert set(node.subset) == set(decomp.order[:2])

    def test_swap_witness_lands_in_the_new_cell(self, five_dataset):
        region = full_region(WeightVector((0.5, 0.5)))
        for target, c_out, c_in in [((1, 4), 0, 1), ((2, 4), 0, 2), ((3, 4), 0, 3)]:
            witness = swap_feasible(five_dataset, 2, (0, 4), c_out, c_in, region)
            assert witness is not None, f"cell {target} must be reachable"
            decomp = decompose_topk(five_dataset, 2, lift_weight(np.asarray(witness)))
            assert set(decomp.order[:2]) == set(target)
            # interior witness: nothing ties across the cut except the pivot
            assert decomp.tied_out == ()
            assert decomp.tied_in == (decomp.pivot,)

    def test_dominant_candidate_cannot_be_swapped_out(self, five_dataset):
        # (0.9, 0.9) beats every other point at every weight
        region = full_region(WeightVector((0.5, 0.5)))
        assert swap_feasible(five_dataset, 2, (0, 4), 4, 1, region) is None

    def test_swap_respects_region_bounds(self, five_dataset):
        region = WeightRegion.box(WeightVector((0.5, 0.5)), epsilon=0.03)
        # cell of {2, 4} needs x > 5/9, outside [0.47, 0.53]
        assert swap_feasible(five_dataset, 2, (0, 4), 0, 2, region) is None

    def test_cell_min_wdiff_clamps_to_cell_border(self, five_dataset):
        region = full_region(WeightVector((0.5, 0.5)))
        got = cell_point(five_dataset, 2, (2, 4), region)
        assert got is not None
        point, value = got
        assert_allclose(value, 1 / 9, atol=1e-9)
        assert_allclose(point[0], 5 / 9, atol=1e-9)

    def test_cell_min_wdiff_zero_inside_own_cell(self, five_dataset):
        region = full_region(WeightVector((0.58, 0.42)))
        got = cell_point(five_dataset, 2, (2, 4), region)
        point, value = got
        assert_allclose(value, 0.0, atol=1e-12)
        assert_allclose(point, (0.58, 0.42), atol=1e-9)

    def test_cell_min_wdiff_split_duplicate_class_rides_on_the_cut(self):
        # candidates 1 and 2 share a point; the subset {1, 3} splits them,
        # so its closed cell is where that class sits exactly at the cutoff
        points = [(0.4, 0.7), (0.6, 0.5), (0.6, 0.5), (0.9, 0.9)]
        data = Dataset([Candidate(i, p, set()) for i, p in enumerate(points)])
        region = full_region(WeightVector((0.3, 0.7)))
        got = cell_point(data, 2, (1, 3), region)
        assert got is not None
        point, value = got
        # the class clears candidate 0 only from w_1 = 0.5 on
        assert_allclose(point, (0.5, 0.5), atol=1e-9)
        assert_allclose(value, 0.4, atol=1e-9)
        decomp = decompose_topk(data, 2, WeightVector(point))
        assert decomp.strict == (3,)
        assert {1, 2} <= set(decomp.tied)


class TestTraverse:
    def test_worked_example_both_objectives(self, five_dataset, five_spec):
        wo = WeightVector((0.5, 0.5))
        res = traverse(five_dataset, 2, five_spec, full_region(wo, W_DIFFERENCE))
        assert_allclose(res.value, 1 / 9, atol=1e-9)
        assert res.subset == (2, 4)
        res = traverse(five_dataset, 2, five_spec, full_region(wo, UTILITY_LOSS))
        assert_allclose(res.value, 0.025 / 1.45, atol=1e-9)
        assert res.subset == (2, 4)
        assert_allclose(res.utility, 1.425, atol=1e-9)

    @pytest.mark.parametrize("objective", [W_DIFFERENCE, UTILITY_LOSS])
    def test_matches_sweep_on_2d(self, objective):
        rng = np.random.default_rng(71)
        solved = 0
        for trial in range(40):
            n_protected = int(rng.integers(1, 3))
            k = int(rng.integers(2, 6))
            data, spec = tied_instance(
                rng, n=12, n_protected=n_protected, k=k, dup_rate=float(rng.uniform(0, 0.4))
            )
            wo = WeightVector(tuple(rng.dirichlet(np.ones(2))))
            region = WeightRegion.box(wo, float(rng.uniform(0.1, 0.5)), objective=objective)
            a = traverse(data, k, spec, region)
            b = sweep_select(data, k, spec, region)
            if a is None or b is None:
                assert a is None and b is None, f"trial {trial}: {a} vs {b}"
                continue
            solved += 1
            assert_allclose(a.value, b.value, atol=1e-7), f"trial {trial}"
            assert region.contains(a.weight)
            assert verify_fair(data, k, spec, a.weight)
        assert solved > 15

    def test_three_attributes_smoke(self):
        rng = np.random.default_rng(73)
        for trial in range(10):
            data, spec = tied_instance(rng, n=10, d=3, n_protected=1, k=3, dup_rate=0.3)
            wo = WeightVector(tuple(rng.dirichlet(np.ones(3))))
            region = WeightRegion.box(wo, 0.15, objective=W_DIFFERENCE)
            res = traverse(data, 3, spec, region)
            if res is None:
                continue
            assert region.contains(res.weight, tol=1e-6)
            assert verify_fair(data, 3, spec, res.weight)

    def test_worker_count_does_not_change_the_answer(self):
        rng = np.random.default_rng(79)
        for trial in range(8):
            data, spec = tied_instance(rng, n=12, d=3, n_protected=2, k=3, dup_rate=0.4)
            wo = WeightVector(tuple(rng.dirichlet(np.ones(3))))
            for objective in (W_DIFFERENCE, UTILITY_LOSS):
                region = WeightRegion.box(wo, 0.2, objective=objective)
                results = [
                    traverse(data, 3, spec, region, workers=w) for w in (1, 4)
                ]
                if results[0] is None:
                    assert results[1] is None
                    continue
                assert_allclose(results[0].value, results[1].value, atol=0)
                assert results[0].subset == results[1].subset
                assert_allclose(
                    results[0].weight.as_array(), results[1].weight.as_array(), atol=0
                )

    def test_budget_exhaustion_carries_partial(self, five_dataset, five_spec):
        region = full_region(WeightVector((0.5, 0.5)))
        with pytest.raises(BudgetExceededError) as err:
            traverse(five_dataset, 2, five_spec, region, swap_budget=1)
        # whatever was found before the cutoff rides along (may be None)
        assert hasattr(err.value, "partial")

    def test_ledger_counters(self, five_dataset):
        ledger = TraversalLedger()
        spec = FairnessSpec.vacuous(1, 2)
        region = WeightRegion.box(WeightVector((0.5, 0.5)), 0.05)
        traverse(five_dataset, 2, spec, region, ledger=ledger)
        assert ledger.cells_visited >= 2
        assert ledger.swap_tests >= 1
        assert ledger.fair_cells >= 1

    def test_region_pruning_skips_lps_in_3d(self):
        # with three attributes the band keeps pairs whose swap hyperplane
        # misses the region; those must be discarded before any LP runs
        rng = np.random.default_rng(83)
        pruned = 0
        for trial in range(6):
            data, spec = tied_instance(rng, n=14, d=3, n_protected=1, k=4, dup_rate=0.2)
            wo = WeightVector(tuple(rng.dirichlet(np.ones(3))))
            region = WeightRegion.box(wo, 0.12)
            ledger = TraversalLedger()
            traverse(data, 4, spec, region, ledger=ledger)
            pruned += ledger.pruned_by_region
        assert pruned >= 10

    def test_empty_region_returns_none(self, five_dataset, five_spec):
        region = WeightRegion.box(
            WeightVector((0.5, 0.5)), 0.1, extra=[(1.0, 0.0, -0.9)]
        )
        assert traverse(five_dataset, 2, five_spec, region) is None

    def test_unsatisfiable_spec_returns_none(self, five_dataset):
        spec = FairnessSpec(lower=[2], upper=[2])
        region = WeightRegion.box(WeightVector((0.05, 0.95)), 0.02)
        assert traverse(five_dataset, 2, spec, region) is None
