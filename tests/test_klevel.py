"""Cell traversal engine: cell LPs, per-cell optima, budget, determinism."""

import dataclasses
from collections import deque

import numpy as np
import pytest
from numpy.testing import assert_allclose

import fairtopk.geometry
import fairtopk.klevel
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
from fairtopk.generators import random_instance
from fairtopk.geometry import CutoffBand, TopkCell, lift_weight
from fairtopk.klevel import TraversalLedger, _seed_node, traverse
from fairtopk.milp import build_milp, solve_milp
from fairtopk.pipeline import RunConfig, select
from fairtopk.sweep2d import sweep_select
from fairtopk.verify import decompose_topk, finish_result, max_fair_utility, verify_fair
from conftest import tied_instance


def full_region(wo, objective=W_DIFFERENCE):
    return WeightRegion.box(wo, epsilon=1.0, objective=objective)


def seat_off_reference(data, k, wo):
    """(lower, upper) seats of group 0: one more, or one fewer, than the
    top-k at wo holds, so wo is unfair and an engine has to search."""
    top = decompose_topk(data, k, WeightVector(wo)).order[:k]
    held = sum(0 in data.candidates[data.ids.index(c)].groups for c in top)
    return (held + 1, k) if held < k else (0, k - 1)


def cell_of(data, k, subset, region):
    """The top-k cell of a subset given by its ids."""
    band = CutoffBand(data, k, region)
    return TopkCell(band, band.seats(subset))


class TestCells:
    def test_initial_cell_is_topk_at_centroid(self, five_dataset):
        region = full_region(WeightVector((0.5, 0.5)))
        band = CutoffBand(five_dataset, 2, region)
        node = _seed_node(band, band.centroid)
        w = lift_weight(np.asarray(node.witness))
        decomp = decompose_topk(five_dataset, 2, w)
        assert set(band.subset(node.seats)) == set(decomp.order[:2])

    def test_seed_seats_are_decompose_topk_order(self):
        # seeds take the top k by (score desc, id asc) in one sort; at the
        # region's vertices duplicate classes and near-ties straddle the
        # cutoff, and ids out of row order make the id tie-break count
        rng = np.random.default_rng(61)
        tied = 0
        for trial in range(12):
            d = 3 + trial % 2
            data, _ = tied_instance(rng, n=20, d=d, n_protected=1, k=5, dup_rate=0.3)
            ids = rng.permutation(len(data)) * 3 + 1
            data = Dataset([Candidate(int(i), c.point, c.groups)
                            for i, c in zip(ids, data.candidates)])
            wo = WeightVector(tuple(rng.dirichlet(np.ones(d))))
            region = WeightRegion.box(wo, float(rng.uniform(0.05, 0.3)))
            band = CutoffBand(data, 5, region)
            for w in [band.centroid, *band.verts, np.asarray(wo.weights[:-1])]:
                decomp = decompose_topk(data, 5, lift_weight(w))
                assert _seed_node(band, w).seats == band.seats(decomp.order[:5])
                tied += len(decomp.tied_out) > 0
        assert tied >= 10

    def test_started_cell_lps_take_half_the_pivots(self, monkeypatch):
        # the witness, closest-point and centre LPs of the cells a walk
        # finds, each solved from its start and again from the origin
        count = {"pivots": 0, "phase1": 0}
        real_lp, real_pivot = fairtopk.geometry.simplex_lp, fairtopk.geometry._pivot
        real_iterate = fairtopk.geometry._simplex_iterate

        def pivot(*args):
            count["pivots"] += 1
            return real_pivot(*args)

        def iterate(A, b, basis, cost, budget, phase):
            count["phase1"] += phase == 1
            return real_iterate(A, b, basis, cost, budget, phase)

        def solve(problem):
            count.update(pivots=0, phase1=0)
            return real_lp(problem), count["pivots"], count["phase1"]

        found = []  # seat tuples whose witness LP found a cell

        class RecordingCell(TopkCell):
            def __init__(self, band, seats):
                super().__init__(band, seats)
                self.seats = seats

            def witness(self):
                got = super().witness()
                if got is not None:
                    found.append(self.seats)
                return got

        monkeypatch.setattr(fairtopk.klevel, "TopkCell", RecordingCell)
        rng = np.random.default_rng(29)
        data = random_instance(rng, n=40, d=3, n_protected=1, dup_rate=0.15)
        wo = WeightVector((0.3, 0.3, 0.4))
        lo, hi = seat_off_reference(data, 6, wo)
        region = WeightRegion.box(wo, 0.3)
        traverse(data, 6, FairnessSpec(lower=[lo], upper=[hi]), region)
        band = CutoffBand(data, 6, region)
        cells = [TopkCell(band, seats) for seats in found]

        solved = []  # (problem, outcome, pivots, phase-1 runs)
        monkeypatch.setattr(fairtopk.geometry, "_pivot", pivot)
        monkeypatch.setattr(fairtopk.geometry, "_simplex_iterate", iterate)

        def recording(problem):
            solved.append((problem, *solve(problem)))
            return solved[-1][1]

        monkeypatch.setattr(fairtopk.geometry, "simplex_lp", recording)
        whole = started = origin = 0
        for cell in cells:
            solved.clear()
            cell.witness()
            if not np.any(cell.side == 0):
                whole += 1
                assert solved[0][3] == 0, "a witness LP without split classes ran phase 1"
            cell.closest()
            cell.center()
            for problem, out, pivots, _ in solved:
                again, again_pivots, _ = solve(dataclasses.replace(problem, start=None))
                assert out.status == again.status
                if out.status == "optimal":
                    assert abs(out.value - again.value) <= 1e-9
                started += pivots
                origin += again_pivots
        assert len(cells) >= 24 and 12 <= whole < len(cells)
        assert 2 * started <= origin, (started, origin)

    def test_swap_witness_lands_in_the_new_cell(self, five_dataset):
        region = full_region(WeightVector((0.5, 0.5)))
        for target in [(1, 4), (2, 4), (3, 4)]:
            witness = cell_of(five_dataset, 2, target, region).witness()
            assert witness is not None, f"cell {target} must be reachable"
            decomp = decompose_topk(five_dataset, 2, lift_weight(np.asarray(witness)))
            assert set(decomp.order[:2]) == set(target)
            # interior witness: nothing ties across the cut except the pivot
            assert decomp.tied_out == ()
            assert decomp.tied_in == (decomp.pivot,)

    def test_dominant_candidate_cannot_be_swapped_out(self, five_dataset):
        # (0.9, 0.9) beats every other point at every weight
        region = full_region(WeightVector((0.5, 0.5)))
        assert CutoffBand(five_dataset, 2, region).seats((0, 1)) is None

    def test_swap_respects_region_bounds(self, five_dataset):
        region = WeightRegion.box(WeightVector((0.5, 0.5)), epsilon=0.03)
        # cell of {2, 4} needs x > 5/9, outside [0.47, 0.53]: there 2 is
        # below the top-2 throughout, so the band refuses the subset
        assert CutoffBand(five_dataset, 2, region).seats((2, 4)) is None

    def test_closest_clamps_to_cell_border(self, five_dataset):
        region = full_region(WeightVector((0.5, 0.5)))
        got = cell_of(five_dataset, 2, (2, 4), region).closest()
        assert got is not None
        point, value = got
        assert_allclose(value, 1 / 9, atol=1e-9)
        assert_allclose(point[0], 5 / 9, atol=1e-9)

    def test_closest_zero_inside_own_cell(self, five_dataset):
        region = full_region(WeightVector((0.58, 0.42)))
        got = cell_of(five_dataset, 2, (2, 4), region).closest()
        point, value = got
        assert_allclose(value, 0.0, atol=1e-12)
        assert_allclose(point, (0.58, 0.42), atol=1e-9)

    def test_closest_split_duplicate_class_rides_on_the_cut(self):
        # candidates 1 and 2 share a point; the subset {1, 3} splits them,
        # so its closed cell is where that class sits exactly at the cutoff
        points = [(0.4, 0.7), (0.6, 0.5), (0.6, 0.5), (0.9, 0.9)]
        data = Dataset([Candidate(i, p, set()) for i, p in enumerate(points)])
        region = full_region(WeightVector((0.3, 0.7)))
        got = cell_of(data, 2, (1, 3), region).closest()
        assert got is not None
        point, value = got
        # the class clears candidate 0 only from w_1 = 0.5 on
        assert_allclose(point, (0.5, 0.5), atol=1e-9)
        assert_allclose(value, 0.4, atol=1e-9)
        decomp = decompose_topk(data, 2, point)
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
        # every neighbour of this box is a seed cell, so no cell LP runs
        assert ledger.swap_tests == 0
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

    def test_each_cell_lp_runs_once(self, monkeypatch):
        real = fairtopk.geometry.simplex_lp
        seen = []

        def recording(problem):
            if problem.direction == "max":  # witness LPs; closest() minimizes
                seen.append((tuple(problem.c), tuple(
                    (tuple(a), rel, b) for a, rel, b in problem.rows)))
            return real(problem)

        monkeypatch.setattr(fairtopk.geometry, "simplex_lp", recording)
        rng = np.random.default_rng(91)
        total = 0
        for trial in range(6):
            data, spec = tied_instance(rng, n=14, d=3, n_protected=2, k=4, dup_rate=0.3)
            wo = WeightVector(tuple(rng.dirichlet(np.ones(3))))
            region = WeightRegion.box(wo, 0.15)
            ledger = TraversalLedger()
            seen.clear()
            traverse(data, 4, spec, region, ledger=ledger)
            assert len(set(seen)) == len(seen), f"trial {trial}: a cell LP repeats"
            assert len(seen) == ledger.swap_tests, f"trial {trial}"
            total += len(seen)
        assert total >= 10

    @pytest.mark.parametrize("d", [3, 4], ids=["d=3", "d=4"])
    def test_engine_lps_never_reach_seidel(self, d, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an engine LP reached seidel_lp")

        monkeypatch.setattr(fairtopk.geometry, "seidel_lp", refuse)
        rng = np.random.default_rng(97 + d)
        moved = 0
        for trial in range(6):
            data, _ = tied_instance(rng, n=12, d=d, n_protected=1, k=3, dup_rate=0.2)
            wo = tuple(rng.dirichlet(np.ones(d)))
            lo, hi = seat_off_reference(data, 3, wo)
            protected = [("G0", lo / 3, hi / 3)]
            for objective in (W_DIFFERENCE, UTILITY_LOSS):
                config = RunConfig(
                    k=3, epsilon=0.3, objective=objective, engine="klevel",
                    protected=protected, wo=wo, stable=objective == UTILITY_LOSS,
                )
                res = select(data, config)
                if res is not None and max(
                    abs(a - b) for a, b in zip(res.weight.weights, wo)
                ) > 1e-9:
                    moved += 1
        assert moved >= 4

    @pytest.mark.parametrize("d", [4, 5], ids=["d=4", "d=5"])
    @pytest.mark.parametrize("objective", [W_DIFFERENCE, UTILITY_LOSS])
    def test_klevel_matches_milp_in_higher_dimensions(self, d, objective):
        rng = np.random.default_rng(101 + d)
        solved = 0
        for trial in range(5):
            data, _ = tied_instance(rng, n=12, d=d, n_protected=1, k=3, dup_rate=0.2)
            wo = WeightVector(tuple(rng.dirichlet(np.ones(d))))
            lo, hi = seat_off_reference(data, 3, wo)
            spec = FairnessSpec(lower=[lo], upper=[hi])
            region = WeightRegion.box(wo, 0.3, objective=objective)
            a = traverse(data, 3, spec, region)
            b = solve_milp(build_milp(data, 3, spec, region))
            if a is None or b is None:
                assert a is None and b is None, f"trial {trial}: {a} vs {b}"
                continue
            solved += 1
            assert_allclose(a.value, b.value, atol=1e-7, err_msg=f"trial {trial}")
        assert solved >= 3

    def test_empty_region_returns_none(self, five_dataset, five_spec):
        region = WeightRegion.box(
            WeightVector((0.5, 0.5)), 0.1, extra=[(1.0, 0.0, -0.9)]
        )
        assert traverse(five_dataset, 2, five_spec, region) is None

    def test_unsatisfiable_spec_returns_none(self, five_dataset):
        spec = FairnessSpec(lower=[2], upper=[2])
        region = WeightRegion.box(WeightVector((0.05, 0.95)), 0.02)
        assert traverse(five_dataset, 2, spec, region) is None

    @pytest.mark.parametrize("objective", [W_DIFFERENCE, UTILITY_LOSS])
    def test_relabelled_ids_change_nothing(self, objective):
        # metamorphic: ids out of row order only rename the candidates
        rng = np.random.default_rng(103)
        solved = 0
        for trial in range(8):
            data, _ = tied_instance(rng, n=16, d=3, n_protected=1, k=4, dup_rate=0.3)
            ids = rng.permutation(len(data)) * 5 + 3
            relabelled = Dataset(
                [Candidate(int(i), c.point, c.groups) for i, c in zip(ids, data.candidates)]
            )
            wo = WeightVector(tuple(rng.dirichlet(np.ones(3))))
            lo, hi = seat_off_reference(data, 4, wo)
            spec = FairnessSpec(lower=[lo], upper=[hi])
            region = WeightRegion.box(wo, 0.3, objective=objective)
            ledgers = TraversalLedger(), TraversalLedger()
            a = traverse(data, 4, spec, region, ledger=ledgers[0])
            b = traverse(relabelled, 4, spec, region, ledger=ledgers[1])
            for field in ("cells_visited", "swap_tests", "fair_cells"):
                assert getattr(ledgers[0], field) == getattr(ledgers[1], field), (trial, field)
            if a is None or b is None:
                assert a is None and b is None, f"trial {trial}"
                continue
            solved += 1
            assert_allclose(a.value, b.value, atol=1e-12, rtol=0, err_msg=f"trial {trial}")
            assert_allclose(a.weight.as_array(), b.weight.as_array(), atol=1e-12, rtol=0)
        assert solved >= 5


class TestDuplicateTieFaces:
    """Optima that exist only where two duplicate-point classes tie at the cutoff.

    Both instances are d=3 utility queries with 15% duplicate points; the
    expected values are the milp engine's.
    """

    def solve(self, rows, k, bounds, wo, epsilon):
        data = Dataset([Candidate(i, r[:3], r[3]) for i, r in enumerate(rows)])
        spec = FairnessSpec.from_fractions(bounds, k)
        region = WeightRegion.box(WeightVector(wo), epsilon, objective=UTILITY_LOSS)
        res = traverse(data, k, spec, region)
        assert res is not None
        assert region.contains(res.weight, tol=1e-9)
        assert verify_fair(data, k, spec, res.weight)
        return res

    def test_two_split_classes_hold_the_only_fair_subsets(self):
        # the optimum splits the classes {0, 1, 12} and {10, 15}
        rows = [
            (0.5578561017127485, 0.02312001154715626, 0.7080144267254687, set()),
            (0.5578561017127485, 0.02312001154715626, 0.7080144267254687, {1}),
            (0.9910280295634182, 0.6594649095250277, 0.9155594317938559, set()),
            (0.8230859808822736, 0.0548309233612041, 0.3514012088652332, {0, 1}),
            (0.37268170090527797, 0.11175897978861293, 0.8678346840133497, set()),
            (0.937281505290474, 0.6016757188295139, 0.41734230854749965, set()),
            (0.37137598428950824, 0.4676778226794266, 0.5910139968465202, {0}),
            (0.5187737225789523, 0.5416693892754613, 0.6051279162138165, {1}),
            (0.3176525494358845, 0.7912744786329047, 0.2490027538845373, set()),
            (0.33650538620777304, 0.8171868633106509, 0.10302454184239496, {1}),
            (0.17140685552209967, 0.6755377148877649, 0.6044357133912729, {0}),
            (0.9428116925539398, 0.9558063734812468, 0.5727161578800267, {0}),
            (0.5578561017127485, 0.02312001154715626, 0.7080144267254687, set()),
            (0.8914799747502519, 0.7374448617112423, 0.22359200367015197, set()),
            (0.08189820566057149, 0.6016944869900247, 0.90497309807257, {0}),
            (0.17140685552209967, 0.6755377148877649, 0.6044357133912729, {0, 1}),
            (0.024630131834049718, 0.7838251861484222, 0.40192082834120146, set()),
            (0.0004487776562774881, 0.8406650884928026, 0.3557131521521847, {0}),
        ]
        wo = (0.23884571830798446, 0.22834542294580487, 0.5328088587462105)
        res = self.solve(rows, 8, [(0.25, 0.75), (0.375, 1.0)], wo, 0.014329)
        assert_allclose(res.value, 0.00029578967531729283, atol=1e-9)

    def test_two_split_classes_beat_every_cell(self):
        # the optimum splits the classes {3, 4} and {6, 8}
        rows = [
            (0.08278275772700472, 0.7322094745518839, 0.7030205414252981, set()),
            (0.1668043982147509, 0.6560319623203396, 0.5498965643989768, {0, 1}),
            (0.4399822119217529, 0.7215805534789843, 0.18904886244227614, {0}),
            (0.7984410409903553, 0.34187869842017626, 0.3167937933324485, {1}),
            (0.7984410409903553, 0.34187869842017626, 0.3167937933324485, set()),
            (0.9153857811816503, 0.3795088313075713, 0.8198624629632143, set()),
            (0.647004147213342, 0.31282858535290814, 0.733559522876565, {0, 1}),
            (0.7297063744994018, 0.1851556490998688, 0.940974192674753, set()),
            (0.647004147213342, 0.31282858535290814, 0.733559522876565, set()),
            (0.39992094134886336, 0.6734295284816868, 0.4462249361210322, {1}),
            (0.3742758914525476, 0.7532407599707187, 0.5374729339051483, {1}),
            (0.0723481227199686, 0.6060366841670456, 0.621743131163683, {0}),
            (0.5538947214951094, 0.5965859081748797, 0.702258507900507, set()),
            (0.9871943573326571, 0.9236628784967691, 0.9358190331014167, {1}),
            (0.3208538271519168, 0.1248280647540797, 0.11968040452157525, set()),
            (0.03697346035500915, 0.78368620179737, 0.7800615880079258, {1}),
            (0.1668043982147509, 0.6560319623203396, 0.5498965643989768, {0, 1}),
            (0.9569540109588652, 0.6442179514450762, 0.9875101223987816, set()),
            (0.7953164615025653, 0.7555914976833464, 0.974304589065097, set()),
            (0.1045269537172101, 0.06875791442964496, 0.9861119817060365, {1}),
        ]
        wo = (0.45340374944687006, 0.24865015257213122, 0.2979460979809987)
        res = self.solve(rows, 8, [(0.0, 0.375), (0.375, 1.0)], wo, 0.106827)
        assert_allclose(res.value, 0.008209236175097945, atol=1e-9)


def unfiltered_walk(dataset, k, spec, region):
    """The walk without the band's order check: every distinct seat tuple a
    move reaches gets its witness LP.  Returns (ledger, {seat tuple: its
    cell is empty}, result)."""
    ledger = TraversalLedger()
    band = CutoffBand(dataset, k, region)
    objective, wo = region.objective, region.reference
    seeds = [band.verts.mean(axis=0), *band.verts]
    if region.contains(wo):
        seeds.append(np.asarray(wo.weights[:-1]))
    seen, work, empty, sols = set(), deque(), {}, []
    for s in seeds:
        seats = band.seats(decompose_topk(dataset, k, lift_weight(s)).order[:k])
        if seats is not None and seats not in seen:
            seen.add(seats)
            work.append((seats, tuple(float(v) for v in s)))
    size = band.size.tolist()
    while work:
        seats, witness = work.popleft()
        ledger.cells_visited += 1
        w_node = lift_weight(witness)
        if objective == UTILITY_LOSS:
            hit = max_fair_utility(dataset, k, spec, w_node, wo)
            if hit is not None:
                ledger.fair_cells += 1
                sols.append((-hit[1], band.subset(seats), seats, witness, None))
        elif verify_fair(dataset, k, spec, w_node):
            cell = TopkCell(band, seats).closest()
            if cell is not None:
                ledger.fair_cells += 1
                sols.append((cell[1], band.subset(seats), seats, witness, cell[0]))
        free = [b for b, (s, n) in enumerate(zip(seats, size)) if s < n]
        for a in (a for a, s in enumerate(seats) if s):
            for b in free:
                if b == a:
                    continue
                if not band.crosses[a][b]:
                    ledger.pruned_by_region += 1
                    continue
                moved = list(seats)
                moved[a] -= 1
                moved[b] += 1
                moved = tuple(moved)
                if moved in seen:
                    continue
                seen.add(moved)
                ledger.swap_tests += 1
                found = TopkCell(band, moved).witness()
                empty[moved] = found is None
                if found is not None:
                    work.append((moved, found))
    if not sols:
        return ledger, empty, None
    _, _, seats, witness, point = min(sols, key=lambda s: (s[0], s[1]))
    if point is None:
        cell = TopkCell(band, seats).closest()
        point = cell[0] if cell is not None else None
    weights = [lift_weight(witness)] if point is None else [point, lift_weight(witness)]
    return ledger, empty, finish_result(dataset, k, spec, region, weights, "klevel")


class TestOrderFilter:
    """The band's r-dominance order skips only swaps whose cell is empty:
    the walk, its counts and its answers match the unfiltered walk."""

    @pytest.mark.parametrize("d, ks, seed", [(3, (4, 5, 6, 7, 8), 131), (4, (3, 4, 5), 137)],
                             ids=["d=3", "d=4"])
    def test_filter_skips_only_empty_cells(self, d, ks, seed, monkeypatch):
        asked = []

        class RecordingCell(TopkCell):
            def __init__(self, band, seats):
                super().__init__(band, seats)
                self.seats = seats

            def witness(self):
                asked.append(self.seats)
                return super().witness()

        monkeypatch.setattr(fairtopk.klevel, "TopkCell", RecordingCell)
        rng = np.random.default_rng(seed)
        skipped = tests = 0
        for trial in range(10):
            k = ks[trial % len(ks)]
            data, _ = tied_instance(rng, n=2 * k + 4, d=d, n_protected=1, k=k,
                                    dup_rate=float(rng.uniform(0.2, 0.3)))
            wo = WeightVector(tuple(rng.dirichlet(np.ones(d))))
            lo, hi = seat_off_reference(data, k, wo)
            spec = FairnessSpec(lower=[lo], upper=[hi])
            for objective in (W_DIFFERENCE, UTILITY_LOSS):
                region = WeightRegion.box(wo, float(rng.uniform(0.1, 0.3)), objective=objective)
                ledger = TraversalLedger()
                asked.clear()
                got = traverse(data, k, spec, region, ledger=ledger)
                want_ledger, empty, want = unfiltered_walk(data, k, spec, region)
                at = f"trial {trial} {objective}"
                for field in ("cells_visited", "fair_cells", "pruned_by_region"):
                    assert getattr(ledger, field) == getattr(want_ledger, field), (at, field)
                assert ledger.swap_tests + ledger.pruned_by_order == want_ledger.swap_tests, at
                assert len(asked) == ledger.swap_tests and set(asked) <= set(empty), at
                missed = set(empty) - set(asked)
                assert len(missed) == ledger.pruned_by_order, at
                band = CutoffBand(data, k, region)
                for seats in missed:
                    assert empty[seats], f"{at}: skipped seats {seats} have a non-empty cell"
                    assert TopkCell(band, seats).witness() is None, at
                skipped += ledger.pruned_by_order
                tests += ledger.swap_tests
                if want is None:
                    assert got is None, at
                    continue
                assert_allclose(got.value, want.value, atol=1e-12, rtol=0, err_msg=at)
                assert_allclose(got.weight.as_array(), want.weight.as_array(), atol=1e-12, rtol=0)
                assert got.subset == want.subset, at
        assert skipped >= 20 and tests >= 20, (skipped, tests)
