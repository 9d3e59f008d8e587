"""Kinetic tournaments and the 2-d sweep engine."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fairtopk.core import (
    Candidate,
    Dataset,
    FairnessSpec,
    WeightRegion,
    WeightVector,
    UTILITY_LOSS,
    W_DIFFERENCE,
)
from fairtopk.geometry import dual_line
from fairtopk.sweep2d import (
    KineticTournament,
    build_tournaments,
    cross_x,
    line_above,
    sweep_events,
    sweep_select,
)
from conftest import tied_instance


def random_lines(rng, n):
    return [dual_line(i, tuple(rng.random(2))) for i in range(n)]


class TestLinePrimitives:
    def test_cross_x_is_the_equality_abscissa(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = dual_line(0, tuple(rng.random(2)))
            b = dual_line(1, tuple(rng.random(2)))
            if abs(a.slope - b.slope) < 1e-12:
                continue
            x = cross_x(a, b)
            assert_allclose(a.slope * x + a.intercept, b.slope * x + b.intercept, atol=1e-9)

    def test_line_above_breaks_ties_by_slope(self):
        flat = dual_line(0, (0.5, 0.5))
        steep = dual_line(1, (0.9, 0.1))
        # both score 0.5 at x = 0.5; just after, the steeper line is higher
        assert line_above(steep, flat, 0.5)
        assert not line_above(flat, steep, 0.5)


class TestKineticTournament:
    def test_root_matches_recount_while_advancing(self):
        rng = np.random.default_rng(19)
        for trial in range(30):
            lines = random_lines(rng, int(rng.integers(2, 17)))
            mode = "min" if trial % 2 else "max"
            tree = KineticTournament(lines, mode, 0.0)
            for x in sorted(rng.uniform(0.0, 1.0, size=12)):
                tree.advance(float(x))
                want = tree.recount(float(x))
                got = tree.root_line
                # equal lines may swap roots; compare values, not owners
                assert_allclose(
                    got.slope * x + got.intercept,
                    want.slope * x + want.intercept,
                    atol=1e-12,
                )

    def test_replace_keeps_tree_consistent(self):
        rng = np.random.default_rng(23)
        lines = random_lines(rng, 8)
        tree = KineticTournament(lines, "max", 0.2)
        for step in range(20):
            slot = int(rng.integers(0, 8))
            tree.replace(slot, dual_line(100 + step, tuple(rng.random(2))))
            x = tree.x
            want = tree.recount(x)
            got = tree.root_line
            assert_allclose(
                got.slope * x + got.intercept,
                want.slope * x + want.intercept,
                atol=1e-12,
            )

    def test_single_line_tree(self):
        tree = KineticTournament([dual_line(7, (0.3, 0.4))], "min", 0.0)
        tree.advance(0.9)
        assert tree.root_line.owner == 7


class TestSweepEvents:
    def test_events_on_worked_example(self, five_dataset):
        s1, s2 = build_tournaments(five_dataset, 2, 0.5)
        assert {l.owner for l in s1.leaves()} == {1, 4}
        events = list(sweep_events(s1, s2, 0.62))
        assert_allclose([ev.x for ev in events], [5 / 9, 3 / 5], atol=1e-12)
        assert events[0].swaps == ((1, 2),)
        assert events[1].swaps == ((2, 3),)
        assert {l.owner for l in s1.leaves()} == {3, 4}

    def test_membership_matches_direct_sort_at_stops(self):
        rng = np.random.default_rng(37)
        for trial in range(40):
            data, _ = tied_instance(rng, n=14, dup_rate=0.3)
            k = int(rng.integers(1, 8))
            stops = sorted(float(x) for x in rng.uniform(0.0, 1.0, size=6)) + [1.0]
            s1, s2 = build_tournaments(data, k, 0.0)
            for stop in stops:
                for _ in sweep_events(s1, s2, stop):
                    pass
                # scores just after the stop decide membership; equal scores
                # make several top-k sets valid, so compare score multisets
                probe = min(stop + 1e-7, 1.0)
                scores = data.points @ np.array([probe, 1.0 - probe])
                member_scores = sorted(
                    (float(scores[data._index_of(l.owner)]) for l in s1.leaves()),
                    reverse=True,
                )
                all_scores = sorted((float(s) for s in scores), reverse=True)
                assert_allclose(member_scores, all_scores[:k], atol=1e-6)

    def test_simultaneous_crossings_collapse(self):
        # dyadic coordinates: all four lines meet at exactly x = 0.5
        cands = [
            Candidate(0, (0.75, 0.25), set()),
            Candidate(1, (0.625, 0.375), set()),
            Candidate(2, (0.375, 0.625), set()),
            Candidate(3, (0.25, 0.75), set()),
        ]
        data = Dataset(cands)
        s1, s2 = build_tournaments(data, 2, 0.4)
        assert {l.owner for l in s1.leaves()} == {2, 3}
        events = list(sweep_events(s1, s2, 0.6))
        assert len(events) == 1
        assert_allclose(events[0].x, 0.5, atol=1e-12)
        assert {l.owner for l in s1.leaves()} == {0, 1}


def brute_positions_best(data, k, spec, region, n_grid=2000):
    """Dense-grid reference for sweep_select, objective-aware."""
    from fairtopk.geometry import region_interval
    from fairtopk.verify import max_fair_utility, verify_fair
    from fairtopk.core import utility_loss, w_difference

    interval = region_interval(region)
    if interval is None:
        return None
    lb, ub = interval
    wo = region.reference
    xs = np.unique(np.concatenate([
        np.linspace(lb, ub, n_grid),
        np.clip([wo[0]], lb, ub),
    ]))
    best = None
    for x in xs:
        w = WeightVector((float(x), float(1.0 - x)))
        if region.objective == W_DIFFERENCE:
            if verify_fair(data, k, spec, w):
                val = w_difference(w, wo)
                if best is None or val < best - 1e-12:
                    best = val
        else:
            hit = max_fair_utility(data, k, spec, w, wo)
            if hit is not None:
                from fairtopk.verify import reference_topk_utility
                val = utility_loss(hit[1], reference_topk_utility(data, k, wo))
                if best is None or val < best - 1e-12:
                    best = val
    return best


class TestSweepSelect:
    def test_worked_example_wdiff(self, five_dataset, five_spec):
        wo = WeightVector((0.5, 0.5))
        region = WeightRegion.box(wo, epsilon=0.5, objective=W_DIFFERENCE)
        res = sweep_select(five_dataset, 2, five_spec, region)
        assert res is not None
        assert_allclose(res.value, 1 / 9, atol=1e-12)
        assert_allclose(res.weight[0], 5 / 9, atol=1e-12)
        assert res.subset == (2, 4)

    def test_worked_example_utility(self, five_dataset, five_spec):
        wo = WeightVector((0.5, 0.5))
        region = WeightRegion.box(wo, epsilon=0.5, objective=UTILITY_LOSS)
        res = sweep_select(five_dataset, 2, five_spec, region)
        assert res is not None
        assert_allclose(res.value, 0.025 / 1.45, atol=1e-12)
        assert res.subset == (2, 4)
        assert_allclose(res.utility, 1.425, atol=1e-12)

    def test_reference_already_fair_returns_it(self, five_dataset):
        wo = WeightVector((0.5, 0.5))
        spec = FairnessSpec.vacuous(1, 2)
        for objective in (W_DIFFERENCE, UTILITY_LOSS):
            region = WeightRegion.box(wo, epsilon=0.2, objective=objective)
            res = sweep_select(five_dataset, 2, spec, region)
            assert_allclose(res.value, 0.0, atol=1e-15)
            assert_allclose(res.weight.as_array(), wo.as_array(), atol=1e-12)

    def test_empty_region_returns_none(self, five_dataset, five_spec):
        wo = WeightVector((0.5, 0.5))
        region = WeightRegion.box(wo, epsilon=0.1, extra=[(1.0, 0.0, -0.9)])
        assert sweep_select(five_dataset, 2, five_spec, region) is None

    def test_infeasible_spec_returns_none(self, five_dataset):
        # demanding two members from a group with one high scorer everywhere
        spec = FairnessSpec(lower=[2], upper=[2])
        wo = WeightVector((0.05, 0.95))
        region = WeightRegion.box(wo, epsilon=0.02)
        res = sweep_select(five_dataset, 2, spec, region)
        assert res is None

    @pytest.mark.parametrize("objective", [W_DIFFERENCE, UTILITY_LOSS])
    def test_matches_grid_reference(self, objective):
        rng = np.random.default_rng(61)
        solved = 0
        for trial in range(60):
            n_protected = int(rng.integers(1, 3))
            k = int(rng.integers(2, 7))
            data, spec = tied_instance(
                rng, n=12, n_protected=n_protected, k=k, dup_rate=float(rng.uniform(0, 0.5))
            )
            wo = WeightVector(tuple(rng.dirichlet(np.ones(2))))
            region = WeightRegion.box(wo, float(rng.uniform(0.05, 0.4)), objective=objective)
            res = sweep_select(data, k, spec, region)
            ref = brute_positions_best(data, k, spec, region)
            if res is None:
                # the grid may step over a hairline fair sliver; never the reverse
                if ref is not None:
                    raise AssertionError(f"trial {trial}: sweep missed value {ref}")
                continue
            solved += 1
            from fairtopk.verify import verify_fair

            assert region.contains(res.weight)
            assert verify_fair(data, k, spec, res.weight)
            if ref is not None:
                # the grid evaluates a position subset, so it upper-bounds
                assert res.value <= ref + 1e-9, f"trial {trial}: {res.value} > grid {ref}"
        assert solved > 25
