"""The k-level walk and the 2-d sweep engine."""

from collections import Counter
from fractions import Fraction
from functools import cmp_to_key

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
from fairtopk.generators import random_spec
from fairtopk.geometry import band_split, dual_line, lift_weight, region_interval
from fairtopk.pipeline import brute_select_2d
from fairtopk.sweep2d import cross_x, line_above, sweep_events, sweep_select, weight_at
from fairtopk.verify import TieResolver
from conftest import tied_instance


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


def replay(members, events):
    """Owners in the top set after applying each event's swaps in turn."""
    members = set(members)
    for ev in events:
        for out, into in ev.swaps:
            assert out in members and into not in members
            members = (members - {out}) | {into}
    return members


def line_key(cand):
    """(slope, intercept) of a candidate's dual line: equal for duplicates."""
    line = dual_line(cand.cid, cand.point)
    return line.slope, line.intercept


def level_oracle(data, k, x0, x_end, rows):
    """Brute-force k-th level: every pairwise crossing in (x0, x_end] and the
    top-k line multiset of each cell of the arrangement between them.

    tops[0] is the cell starting at x0 and tops[j] the cell right of
    crossings[j - 1]; the last cell ends at the first crossing beyond x_end,
    or at x_end + 1.  Each top is the Counter of line keys among the k best
    lines by (score desc, id) at the cell's midpoint.
    """
    lines = [dual_line(data.candidates[i].cid, data.candidates[i].point) for i in rows]
    cuts = sorted({
        cross_x(a, b)
        for i, a in enumerate(lines)
        for b in lines[i + 1:]
        if a.slope != b.slope and cross_x(a, b) > x0
    })
    crossings = [c for c in cuts if c <= x_end]
    bounds = [x0] + crossings + [next((c for c in cuts if c > x_end), x_end + 1.0)]
    tops = []
    for lo, hi in zip(bounds, bounds[1:]):
        mid = 0.5 * (lo + hi)
        ranked = sorted(lines, key=lambda ln: (-(ln.slope * mid + ln.intercept), ln.owner))
        tops.append(Counter((ln.slope, ln.intercept) for ln in ranked[:k]))
    return crossings, tops


def check_against_oracle(data, k, x0, x_end, rows):
    """The walk yields exactly the crossings where the oracle's top set
    changes, and its swaps keep the top set equal to the oracle's in every
    cell.  Returns the events."""
    events = list(sweep_events(data, k, x0, x_end, rows))
    crossings, tops = level_oracle(data, k, x0, x_end, rows)
    changes = [c for j, c in enumerate(crossings) if tops[j] != tops[j + 1]]
    assert [ev.x for ev in events] == changes
    # of identical lines, line_above ranks the higher owner above
    by_owner = sorted((data.candidates[i] for i in rows), key=lambda c: -c.cid)

    def owners(top):
        left, chosen = Counter(top), set()
        for cand in by_owner:
            if left[line_key(cand)] > 0:
                left[line_key(cand)] -= 1
                chosen.add(cand.cid)
        return chosen

    members = owners(tops[0])
    pending = iter(events)
    for j, top in enumerate(tops):
        if j and tops[j - 1] != top:
            members = replay(members, [next(pending)])
        assert members == owners(top)
    return events


def check_against_exact_level(data, k, x0, x_end, rows, tol=1e-9):
    """check_against_oracle in exact rational arithmetic, for coordinates
    whose float crossings at one vertex round apart (a 1/10 grid).

    Every event lies within tol of an exact crossing where the top line
    multiset changes; every such crossing inside (x0 + tol, x_end - tol) has
    an event within tol; and replaying the swaps from line_above's order at
    x0 gives the exact top multiset in every cell wider than 2 tol."""
    lines = [dual_line(data.candidates[i].cid, data.candidates[i].point) for i in rows]
    exact = {ln.owner: (Fraction(ln.slope), Fraction(ln.intercept)) for ln in lines}
    cuts = sorted({
        (b[1] - a[1]) / (a[0] - b[0])
        for i, a in enumerate(exact.values())
        for b in list(exact.values())[i + 1:]
        if a[0] != b[0]
    })
    lo, hi = Fraction(x0), Fraction(x_end)
    bounds = [min([lo, *cuts]) - 1, *cuts, max([hi, *cuts]) + 1]

    def top(x):
        return Counter(sorted(exact.values(), key=lambda ln: -(ln[0] * x + ln[1]))[:k])

    tops = [top((a + b) / 2) for a, b in zip(bounds, bounds[1:])]
    changes = [float(c) for j, c in enumerate(cuts) if tops[j] != tops[j + 1]]
    events = list(sweep_events(data, k, x0, x_end, rows))
    for ev in events:
        assert any(abs(ev.x - c) <= tol for c in changes), ev
    for c in changes:
        assert not x0 + tol < c < x_end - tol or any(abs(ev.x - c) <= tol for ev in events), c
    start = sorted(lines, key=cmp_to_key(lambda a, b: -1 if line_above(a, b, x0) else 1))
    members, pending = {ln.owner for ln in start[:k]}, list(events)
    for j, (a, b) in enumerate(zip(bounds, bounds[1:])):
        a, b = max(a, lo), min(b, hi)
        if b - a <= 2 * tol:
            continue
        while pending and pending[0].x < (a + b) / 2:
            members = replay(members, [pending.pop(0)])
        assert Counter(exact[o] for o in members) == tops[j], (float(a), float(b))
    return events


class TestSweepEvents:
    def test_events_on_worked_example(self, five_dataset):
        events = list(sweep_events(five_dataset, 2, 0.5, 0.62))
        assert_allclose([ev.x for ev in events], [5 / 9, 3 / 5], atol=1e-12)
        assert events[0].swaps == ((1, 2),)
        assert events[1].swaps == ((2, 3),)
        assert replay({1, 4}, events) == {3, 4}

    def test_simultaneous_crossings_collapse(self):
        # dyadic coordinates: all four lines meet at exactly x = 0.5
        cands = [
            Candidate(0, (0.75, 0.25), set()),
            Candidate(1, (0.625, 0.375), set()),
            Candidate(2, (0.375, 0.625), set()),
            Candidate(3, (0.25, 0.75), set()),
        ]
        events = list(sweep_events(Dataset(cands), 2, 0.4, 0.6))
        assert len(events) == 1 and events[0].x == 0.5
        # lowest leaving member with highest entering line, then the next pair
        assert events[0].swaps == ((3, 0), (2, 1))

    def test_concurrent_crossings_that_round_apart(self):
        # the three lines meet at x = 0.5, but B's crossing with A and A's
        # with C round to 0.5 - 2**-54 while B's with C is exactly 0.5: once A
        # is the lowest member, C has already crossed it and must still enter
        cands = [Candidate(i, p, set()) for i, p in enumerate([(0.1, 0.7), (0.3, 0.5), (0.5, 0.3)])]
        events = list(sweep_events(Dataset(cands), 2, 0.0, 1.0))
        assert len(events) == 1 and events[0].swaps == ((0, 2),)
        assert abs(events[0].x - 0.5) <= 2.0**-53

    @pytest.mark.parametrize("family", ["tied", "duplicates", "grid", "decimal"])
    def test_matches_level_oracle(self, family):
        rng = np.random.default_rng({"tied": 37, "duplicates": 41, "grid": 43, "decimal": 47}[family])
        check = check_against_exact_level if family == "decimal" else check_against_oracle
        events = []
        for trial in range(150):
            n = int(rng.integers(2, 30))
            if family == "grid":
                data = grid_instance(rng, n)
            elif family == "decimal":
                data = grid_instance(rng, n, steps=10)
            else:
                dup_rate = 0.3 if family == "tied" else float(rng.uniform(0.6, 0.9))
                data, _ = tied_instance(rng, n=n, k=1, dup_rate=dup_rate)
            rows = np.arange(n) if trial % 3 else np.sort(rng.choice(n, (n + 1) // 2, replace=False))
            k = int(rng.integers(0, len(rows) + 1))
            x0, x_end = sorted(float(v) for v in rng.integers(0, 9, size=2) / 8.0)
            if trial % 2:
                x0, x_end = 0.0, 1.0
            events += check(data, k, x0, x_end, rows)
        assert len(events) > 100
        # concurrent lines exchange several pairs at one abscissa
        assert family != "grid" or sum(len(ev.swaps) > 1 for ev in events) > 5


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

    def test_vertex_whose_crossings_round_apart(self):
        # only C is protected and it joins the top 2 at x = 0.5, where the
        # three lines' pairwise crossings round to two different floats
        pts = [(0.1, 0.7), (0.3, 0.5), (0.5, 0.3)]
        data = Dataset([Candidate(i, p, {0} if i == 2 else set()) for i, p in enumerate(pts)])
        region = WeightRegion.box(WeightVector((0.45, 0.55)), 0.45)
        res = sweep_select(data, 2, FairnessSpec(lower=[1], upper=[2]), region)
        assert_allclose(res.weight[0], 0.5, atol=1e-12)
        assert_allclose(res.value, 0.1, atol=1e-12)

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


def grid_instance(rng, n, n_protected=2, steps=8):
    """Points on a 1/steps grid: duplicates, equal slopes, concurrent crossings."""
    pts = rng.integers(0, steps + 1, size=(n, 2)) / steps
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
        events = sweep_events(data, k - int(sure_in.sum()), lb, ub, rows)
    else:
        events = sweep_events(data, k, lb, ub)
    return [(ev.x, ev.swaps) for ev in events]


def separated_instance(k, n):
    """k lines far above a tangle of crossing lines: every seat sure-in."""
    cands = [Candidate(i, (0.9 + 0.01 * i, 0.95 - 0.01 * i), set()) for i in range(k)]
    cands += [
        Candidate(k + i, (0.1 + 0.3 * (i % 2), 0.4 - 0.3 * (i % 2) + 0.01 * i), {0})
        for i in range(n - k)
    ]
    return Dataset(cands)


class TestBandSweep:
    """The walk over the cutoff band replays the all-lines sweep exactly."""

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
        # k' = 0 and no non-member in the band, so the walk has no lines
        data, k = separated_instance(3, n), 3
        region = WeightRegion.box(WeightVector((0.5, 0.5)), 0.5)
        _, sure_in, sure_out, _, _ = band_split(data.points, k, region)
        band = np.flatnonzero(~(sure_in | sure_out))
        assert int(sure_in.sum()) == k and len(band) == 0
        assert list(sweep_events(data, 0, 0.0, 1.0, band)) == []
        assert event_trace(data, k, region, band_only=False) == []

    def test_band_boundaries_accept_empty_sides(self, five_dataset):
        # no member, no non-member, or no line at all: nothing can exchange
        for k, rows in ((0, [0, 1]), (2, [0, 1]), (0, [])):
            assert list(sweep_events(five_dataset, k, 0.0, 1.0, rows)) == []
        with pytest.raises(ValueError):
            list(sweep_events(five_dataset, 3, 0.0, 1.0, [0, 1]))

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
            # every line in the band: the walk holds all n lines
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


def outward_cases(seed, count, n_lo, n_hi):
    """(data, k, spec, wo, epsilon) over uniform, 1/4- and 1/8-grid points."""
    rng = np.random.default_rng(seed)
    cases = []
    for trial in range(count):
        n = int(rng.integers(n_lo, n_hi))
        k = int(rng.integers(2, min(n, 10)))
        if trial % 3 == 0:
            data, spec = tied_instance(rng, n=n, k=k, dup_rate=0.0)
        else:
            data = grid_instance(rng, n, steps=4 if trial % 3 == 1 else 8)
            spec = random_spec(rng, data, k, 2)
        wo = WeightVector(tuple(rng.dirichlet(np.ones(2))))
        cases.append((data, k, spec, wo, float(rng.uniform(0.05, 0.4))))
    return cases


class TestOutwardOrder:
    """Positions judged outward from the reference, first fair one per side."""

    @pytest.mark.parametrize("objective", [W_DIFFERENCE, UTILITY_LOSS])
    def test_matches_brute_force(self, objective):
        solved = 0
        for trial, (data, k, spec, wo, eps) in enumerate(outward_cases(97, 150, 8, 31)):
            region = WeightRegion.box(wo, eps, objective=objective)
            got = sweep_select(data, k, spec, region)
            want = brute_select_2d(data, k, spec, region)
            assert (got is None) == (want is None), trial
            if want is None:
                continue
            solved += 1
            assert abs(got.value - want.value) <= 1e-9, trial
            # brute resolves equal keys as the sweep does: never nearer than it
            assert abs(got.weight[0] - wo[0]) <= abs(want.weight[0] - wo[0]) + 1e-12, trial
        assert solved > 40

    def test_judges_fewer_positions(self, monkeypatch):
        judged = Counter()

        class Counted(sweep2d.TieResolver):
            def resolve(self, w):
                judged["positions"] += 1
                return super().resolve(w)

        monkeypatch.setattr(sweep2d, "TieResolver", Counted)
        for data, k, spec, wo, eps in outward_cases(101, 80, 30, 61):
            for objective in (W_DIFFERENCE, UTILITY_LOSS):
                sweep_select(data, k, spec, WeightRegion.box(wo, eps, objective=objective))
        # a left-to-right scan, judging every position up to the first fair
        # one at or past the reference, judged 766 here; outward, 468
        assert judged["positions"] <= 0.75 * 766

    def test_equal_utility_keys_resolve_toward_the_reference(self):
        # utilities near 20, where an absolute 1e-15 is below half the float
        # spacing; mirroring the points mirrors the sides about wo = (0.5, 0.5),
        # so an answer resolved toward wo keeps its distance, not its side
        region = WeightRegion.box(WeightVector((0.5, 0.5)), 0.3, objective=UTILITY_LOSS)
        answered = 0
        for trial, (data, k, spec) in enumerate(equal_utility_draws(60)):
            mirrored = Dataset([Candidate(c.cid, c.point[::-1], c.groups) for c in data.candidates])
            got = sweep_select(data, k, spec, region)
            flip = sweep_select(mirrored, k, spec, region)
            assert (got is None) == (flip is None), trial
            if got is None:
                continue
            answered += 1
            assert abs(got.value - flip.value) <= 1e-12, trial
            assert abs(abs(got.weight[0] - 0.5) - abs(flip.weight[0] - 0.5)) <= 1e-12, trial
        assert answered > 15

    def test_brute_resolves_equal_keys_as_the_sweep(self):
        # a cell stands for its point nearest wo_x in both, and equal keys
        # resolve toward wo_x: brute once kept the leftmost, as far as 0.4588
        region = WeightRegion.box(WeightVector((0.5, 0.5)), 0.3, objective=UTILITY_LOSS)
        answered = 0
        for trial, (data, k, spec) in enumerate(equal_utility_draws(25)):
            got = sweep_select(data, k, spec, region)
            want = brute_select_2d(data, k, spec, region)
            assert (got is None) == (want is None), trial
            if got is None:
                continue
            answered += 1
            assert abs(got.value - want.value) <= 1e-12, trial
            assert abs(got.weight[0] - want.weight[0]) <= 1e-12, trial
        assert answered >= 8


def equal_utility_draws(count):
    """(data, k, spec) whose fair answers tie in utility near 20, seeded."""
    rng = np.random.default_rng(5)
    for _ in range(count):
        n, k = int(rng.integers(30, 46)), int(rng.integers(18, 26))
        pts = rng.uniform(0.5, 1.0, size=(n, 2))
        member = rng.random(n) < 0.35
        data = Dataset([
            Candidate(i, tuple(p), {0} if m else set()) for i, (p, m) in enumerate(zip(pts, member))
        ])
        yield data, k, FairnessSpec(lower=[round(0.35 * k) + 2], upper=[k])


class TestReachRows:
    """Positions are resolved over the rows band_split does not mark sure-out."""

    @pytest.mark.parametrize("objective", [W_DIFFERENCE, UTILITY_LOSS])
    def test_equals_all_rows_at_every_position(self, objective):
        rng = np.random.default_rng(131)
        restricted = positions = 0
        for trial in range(150):
            n = int(rng.integers(20, 80))
            k = int(rng.integers(2, min(n, 16)))
            dup_rate = float(rng.uniform(0.15, 0.4))
            if trial % 3 == 0:
                data, spec = tied_instance(rng, n=n, k=k, dup_rate=dup_rate)
            else:
                data = grid_instance(rng, n, steps=4 if trial % 3 == 1 else 8)
                spec = random_spec(rng, data, k, 2)
            wo = WeightVector(tuple(rng.dirichlet(np.ones(2))))
            region = WeightRegion.box(wo, float(rng.uniform(0.05, 0.4)), objective=objective)
            verts, sure_in, sure_out, _, _ = band_split(data.points, k, region)
            lb, ub = float(verts[0, 0]), float(verts[-1, 0])
            band = np.flatnonzero(~(sure_in | sure_out))
            events = sweep_events(data, k - int(sure_in.sum()), lb, ub, band)
            xs = [lb] + [ev.x for ev in events] + [ub]
            xs += [0.5 * (a + b) for a, b in zip(xs, xs[1:])]  # cell probes
            ref = None if objective == W_DIFFERENCE else wo
            reach = TieResolver(data, k, spec, ref, np.flatnonzero(~sure_out))
            every = TieResolver(data, k, spec, ref)
            restricted += bool(sure_out.any())
            for x in xs:
                w = weight_at(x)
                if ref is None:
                    assert reach.witness(w) == every.witness(w), (trial, x)
                else:
                    assert reach.best(w) == every.best(w), (trial, x)
                positions += 1
        assert restricted > 100 and positions > 1200


def test_weight_at_is_lift_weight():
    rng = np.random.default_rng(17)
    xs = rng.random(200).tolist() + [0.0, 1.0, -0.0, -5e-10, 1.0 + 5e-10]
    for _ in range(100):
        wo = WeightVector(tuple(rng.dirichlet(np.ones(2))))
        xs.extend(region_interval(WeightRegion.box(wo, float(rng.uniform(0.01, 0.6)))))
    for x in xs:
        assert weight_at(x).weights == lift_weight([x]).weights, x
