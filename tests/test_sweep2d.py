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
from fairtopk import sweep2d
from fairtopk.geometry import band_split, dual_line
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


def grid_instance(rng, n, n_protected=2):
    """Points on a 1/8 grid: duplicates, equal slopes, concurrent crossings."""
    pts = rng.integers(0, 9, size=(n, 2)) / 8.0
    cands = [
        Candidate(i, tuple(p), {j for j in range(n_protected) if rng.random() < 0.45})
        for i, p in enumerate(pts)
    ]
    return Dataset(cands)


def event_trace(data, k, region, band_only):
    """(x, swaps) of every exchange over the region's interval."""
    verts, sure_in, sure_out, _, _ = band_split(data.points, k, region)
    lb, ub = float(verts[0, 0]), float(verts[-1, 0])
    if band_only:
        rows = np.flatnonzero(~(sure_in | sure_out))
        s1, s2 = build_tournaments(data, k - int(sure_in.sum()), lb, rows)
    else:
        s1, s2 = build_tournaments(data, k, lb)
    return [(ev.x, ev.swaps) for ev in sweep_events(s1, s2, ub)]


def separated_instance(k, n):
    """k lines far above a tangle of crossing lines: every seat sure-in."""
    cands = [Candidate(i, (0.9 + 0.01 * i, 0.95 - 0.01 * i), set()) for i in range(k)]
    cands += [
        Candidate(k + i, (0.1 + 0.3 * (i % 2), 0.4 - 0.3 * (i % 2) + 0.01 * i), {0})
        for i in range(n - k)
    ]
    return Dataset(cands)


class TestBandSweep:
    """Tournaments over the cutoff band replay the all-lines sweep exactly."""

    def test_band_events_equal_all_line_events(self):
        rng = np.random.default_rng(71)
        nonempty = 0
        for trial in range(300):
            n = int(rng.integers(2, 40))
            if trial % 2:
                data = grid_instance(rng, n)
            else:
                data, _ = tied_instance(rng, n=n, dup_rate=float(rng.uniform(0, 0.6)))
            k = int(rng.integers(1, n + 1))
            wo = WeightVector(tuple(rng.dirichlet(np.ones(2))))
            region = WeightRegion.box(wo, float(rng.uniform(0.05, 0.5)))
            full = event_trace(data, k, region, band_only=False)
            assert event_trace(data, k, region, band_only=True) == full, trial
            nonempty += bool(full)
        assert nonempty > 100

    @pytest.mark.parametrize("n", [3, 4, 12])
    def test_degenerate_bands(self, n):
        # n == k, or k members (crossing each other at x = 0.5) above the rest:
        # k' = 0 and no non-member in the band, so both trees are empty
        data, k = separated_instance(3, n), 3
        region = WeightRegion.box(WeightVector((0.5, 0.5)), 0.5)
        _, sure_in, sure_out, _, _ = band_split(data.points, k, region)
        band = np.flatnonzero(~(sure_in | sure_out))
        assert int(sure_in.sum()) == k and len(band) == 0
        s1, s2 = build_tournaments(data, 0, 0.0, band)
        assert list(sweep_events(s1, s2, 1.0)) == []
        assert event_trace(data, k, region, band_only=False) == []

    def test_band_boundaries_accept_empty_trees(self, five_dataset):
        for k, rows in ((0, [0, 1]), (2, [0, 1]), (0, [])):
            s1, s2 = build_tournaments(five_dataset, k, 0.0, rows)
            assert (len(s1), len(s2)) == (k, len(rows) - k)
            assert list(sweep_events(s1, s2, 1.0)) == []
        with pytest.raises(ValueError):
            build_tournaments(five_dataset, 3, 0.0, [0, 1])

    @pytest.mark.parametrize("objective", [W_DIFFERENCE, UTILITY_LOSS])
    def test_results_equal_all_line_sweep(self, objective, monkeypatch):
        rng = np.random.default_rng(83)
        cases = []
        for trial in range(40):
            n_protected = int(rng.integers(1, 3))
            n = int(rng.integers(8, 40))
            k = int(rng.integers(2, min(n, 10)))
            data, spec = tied_instance(
                rng, n=n, n_protected=n_protected, k=k, dup_rate=float(rng.uniform(0, 0.5))
            )
            wo = WeightVector(tuple(rng.dirichlet(np.ones(2))))
            region = WeightRegion.box(wo, float(rng.uniform(0.05, 0.4)), objective=objective)
            cases.append((data, k, spec, region))
        band = [sweep_select(*case) for case in cases]
        split = [band_split(data.points, k, region) for data, k, _, region in cases]
        assert sum(bool(s[1].any() or s[2].any()) for s in split) > 30

        def no_sure_lines(points, k, region):
            # every line in the band: the tournaments hold all n lines
            none = np.zeros(len(points), dtype=bool)
            return band_split(points, k, region)[0], none, none, None, None

        monkeypatch.setattr(sweep2d, "band_split", no_sure_lines)
        full = [sweep_select(*case) for case in cases]
        assert sum(r is not None for r in full) > 20
        for got, want in zip(band, full):
            if want is None:
                assert got is None
                continue
            assert got.weight == want.weight
            assert got.value == want.value
            assert got.subset == want.subset
            assert got.utility == want.utility
            assert got.engine == want.engine
