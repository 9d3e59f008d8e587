"""Perturbation-stable weights: cell centering and margins."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import linprog

import fairtopk.geometry
from fairtopk.core import UTILITY_LOSS, Candidate, Dataset, WeightRegion, WeightVector
from fairtopk.generators import random_instance, random_spec
from fairtopk.geometry import (
    CutoffBand,
    TopkCell,
    band_split,
    lift_weight,
    projected_region_rows,
    region_interval,
)
from fairtopk.klevel import traverse
from fairtopk.milp import build_milp, solve_milp
from fairtopk.stability import stable_weight
from fairtopk.verify import decompose_topk
from conftest import tied_instance


def region_box(wo, eps):
    return WeightRegion.box(WeightVector(wo), epsilon=eps)


def interval_reference(data, k, subset, region):
    """Exact d = 2 cell as an interval of w_1: (midpoint, margin, degenerate).

    Every member/non-member pair bounds the interval from one side; an
    identical-point pair adds no bound but sets the degenerate flag, which
    also zeroes the margin.  None when the interval is empty.
    """
    bounds = region_interval(region)
    if bounds is None:
        return None
    lo, hi = bounds
    member = set(subset)
    degenerate = False
    for cid in subset:
        p = data.by_id(cid).point
        for other in data.candidates:
            q = other.point
            if other.cid in member:
                continue
            if q == p:
                degenerate = True
                continue
            a = (p[0] - p[1]) - (q[0] - q[1])
            b = p[1] - q[1]
            if abs(a) <= 1e-12:
                if b < -1e-9:
                    return None
                continue
            if a > 0:
                lo = max(lo, -b / a)
            else:
                hi = min(hi, -b / a)
    if lo > hi + 1e-9:
        return None
    lo, hi = min(lo, hi), max(lo, hi)
    half = 0.5 * (hi - lo)
    degenerate = degenerate or half <= 1e-9
    return 0.5 * (lo + hi), 0.0 if degenerate else half, degenerate


def chebyshev_reference(data, subset, region):
    """Chebyshev radius over all k(n-k) pairs plus the region rows (HiGHS).

    Identical-point pairs add no wall.  Returns (radius, walls) with walls
    as unit-normalized (g, h) meaning g . y + h >= 0, or None when the
    cell misses the region.
    """
    member = set(subset)
    walls = []
    for cid in subset:
        p = np.asarray(data.by_id(cid).point, dtype=float)
        for other in data.candidates:
            q = np.asarray(other.point, dtype=float)
            if other.cid in member or np.array_equal(p, q):
                continue
            walls.append(((p[:-1] - p[-1]) - (q[:-1] - q[-1]), p[-1] - q[-1]))
    walls += projected_region_rows(region)
    unit = []
    for g, h in walls:
        norm = float(np.linalg.norm(g))
        if norm <= 1e-12:
            if h < -1e-9:
                return None
            continue
        unit.append((np.asarray(g) / norm, h / norm))
    d = data.d
    # variables (y, r): maximize r with g . y + h >= r, r >= 0
    A = np.array([np.append(-g, 1.0) for g, _ in unit])
    b = np.array([h for _, h in unit])
    c = np.zeros(d)
    c[-1] = -1.0
    out = linprog(c, A_ub=A, b_ub=b, bounds=[(None, None)] * (d - 1) + [(0, None)],
                  method="highs")
    if out.status != 0:
        return None
    return -out.fun, unit


def l1_reference(data, subset, region):
    """L1 distance from the reference to the closed cell (HiGHS), or None.

    Variables (w, lambda, phi) over the full weight: one score row per
    candidate, phi >= |w - wo|, the simplex and the region rows.
    """
    d, n = data.d, data.n
    wo = np.asarray(region.reference.weights)
    pts = data.points
    member = np.isin(data.id_array, subset)
    eye = np.eye(d)
    # rows A x <= b over x = (w, lambda, phi)
    A = [np.concatenate([-p if m else p, [1.0 if m else -1.0], np.zeros(d)])
         for p, m in zip(pts, member)]
    b = [0.0] * n
    for i in range(d):
        for s in (-1.0, 1.0):
            A.append(np.concatenate([s * eye[i], [0.0], -eye[i]]))
            b.append(s * wo[i])
    for coeffs, off in region.halfspaces:
        A.append(np.concatenate([-np.asarray(coeffs), np.zeros(d + 1)]))
        b.append(off)
    c = np.concatenate([np.zeros(d + 1), np.ones(d)])
    bounds = [(0, None)] * d + [(None, None)] * (d + 1)
    out = linprog(c, A_ub=np.array(A), b_ub=np.array(b),
                  A_eq=np.concatenate([np.ones(d), np.zeros(d + 1)])[None, :], b_eq=[1.0],
                  bounds=bounds, method="highs")
    return None if out.status == 2 else out.fun


def point_in_box(rng, wo, eps):
    """A weight within eps of wo in every component, on the simplex."""
    u = rng.dirichlet(np.ones(len(wo)))
    return WeightVector(tuple((1 - eps / 2) * np.asarray(wo) + eps / 2 * u))


def three_d_with_sure_candidates():
    """d = 3 data whose band leaves out a sure-in and some sure-out rows."""
    rng = np.random.default_rng(331)
    cands = [Candidate(0, (0.95, 0.97, 0.96), set())]
    cands += [Candidate(i, tuple(rng.random(3) * 0.6), set()) for i in range(1, 14)]
    cands += [Candidate(14, (0.02, 0.01, 0.03), set())]
    return Dataset(cands)


class TestWorkedExample:
    def test_interval_midpoint_and_margin(self, five_dataset):
        region = region_box((0.5, 0.5), 1.0)
        res = stable_weight(five_dataset, 2, (2, 4), region)
        assert res is not None
        assert_allclose(res.weight[0], 26 / 45, atol=1e-12)
        assert_allclose(res.margin, 1 / 45, atol=1e-12)
        assert_allclose(res.box_radius, res.margin, atol=0)
        assert not res.degenerate
        # midpoint +- margin reaches exactly the cell border crossings
        assert_allclose(res.weight[0] - res.margin, 5 / 9, atol=1e-12)
        assert_allclose(res.weight[0] + res.margin, 3 / 5, atol=1e-12)
        # the exact interval agrees with the LP
        mid, margin, degenerate = interval_reference(five_dataset, 2, (2, 4), region)
        assert_allclose((res.weight[0], res.margin), (mid, margin), atol=1e-12)
        assert not degenerate

    def test_unreachable_subset_returns_none(self, five_dataset):
        # {0, 1} requires beating (0.9, 0.9), impossible anywhere
        region = region_box((0.5, 0.5), 1.0)
        assert stable_weight(five_dataset, 2, (0, 1), region) is None

    def test_region_clamps_the_cell(self, five_dataset):
        # cell of {2,4} is [5/9, 3/5]; region cuts it at 0.58
        region = WeightRegion.box(
            WeightVector((0.5, 0.5)), 1.0, extra=[(-1.0, 0.0, 0.58)]
        )
        res = stable_weight(five_dataset, 2, (2, 4), region)
        assert_allclose(res.weight[0], 0.5 * (5 / 9 + 0.58), atol=1e-12)
        assert_allclose(res.margin, 0.5 * (0.58 - 5 / 9), atol=1e-12)

    def test_wrong_subset_size_rejected(self, five_dataset):
        region = region_box((0.5, 0.5), 1.0)
        with pytest.raises(ValueError):
            stable_weight(five_dataset, 2, (2,), region)
        with pytest.raises(ValueError):
            stable_weight(five_dataset, 2, (0, 2, 4), region)

    @pytest.mark.parametrize("subset", [(4, 4), (4, 99)], ids=["repeated", "unknown"])
    def test_malformed_subset_rejected(self, five_dataset, subset):
        # k ids, but as a mask they are one row: (4,) alone has a cell with
        # a positive margin, so answering would pass off a 1-subset as a 2-subset
        region = region_box((0.5, 0.5), 1.0)
        with pytest.raises(ValueError):
            stable_weight(five_dataset, 2, subset, region)


class TestAgreementAcrossImplementations:
    def test_random_2d_instances(self):
        rng = np.random.default_rng(307)
        compared = 0
        for trial in range(80):
            k = int(rng.integers(1, 6))
            data, _ = tied_instance(rng, n=12, k=k, dup_rate=float(rng.uniform(0, 0.5)))
            x = float(rng.uniform(0, 1))
            subset = tuple(decompose_topk(data, k, WeightVector((x, 1 - x))).order[:k])
            region = region_box(tuple(rng.dirichlet(np.ones(2))), float(rng.uniform(0.1, 0.6)))
            ref = interval_reference(data, k, subset, region)
            res = stable_weight(data, k, subset, region)
            if ref is None or res is None:
                assert (ref is None) == (res is None), f"trial {trial}"
                continue
            compared += 1
            mid, margin, degenerate = ref
            assert_allclose(res.margin, margin, atol=1e-8, err_msg=f"trial {trial}")
            assert_allclose(res.weight[0], mid, atol=1e-7, err_msg=f"trial {trial}")
            assert res.degenerate == degenerate, f"trial {trial}"
        assert compared > 30

    @pytest.mark.parametrize("d", [3, 4])
    def test_band_rows_give_the_full_chebyshev_radius(self, d):
        # the cutoff band drops every pair with a sure candidate; the radius
        # over all k(n-k) pairs must not change, nor the closest point over
        # all n score rows, and a subset that drops a sure-in candidate gets
        # no seats: it is top-k nowhere in the region
        rng = np.random.default_rng(337 + d)
        compared = reduced = dropped = 0
        for trial in range(30):
            k = int(rng.integers(1, 6))
            data, _ = tied_instance(rng, n=14, d=d, k=k, dup_rate=0.25)
            wo = tuple(rng.dirichlet(np.ones(d)))
            eps = float(rng.uniform(0.05, 0.4))
            region = region_box(wo, eps)
            subset = tuple(decompose_topk(data, k, point_in_box(rng, wo, eps)).order[:k])
            band = CutoffBand(data, k, region)
            sure_in, sure_out = band.sure_in, band.sure_out
            member = np.isin(data.id_array, subset)
            closest = TopkCell(band, band.seats(subset)).closest()
            l1 = l1_reference(data, subset, region)
            assert (closest is None) == (l1 is None), f"trial {trial}"
            if closest is not None:
                assert abs(closest[1] - l1) <= 1e-9, f"trial {trial}"
                assert region.contains(closest[0]), f"trial {trial}"
            if sure_in.any():
                dropped += 1
                short = member & ~(sure_in & (np.cumsum(sure_in) == 1))
                assert band.seats(data.id_array[short]) is None, f"trial {trial}"
            res = stable_weight(data, k, subset, region)
            ref = chebyshev_reference(data, subset, region)
            assert (res is None) == (ref is None), f"trial {trial}"
            if res is None:
                continue
            compared += 1
            reduced += bool(sure_in.any() or sure_out.any())
            radius, _ = ref
            expected = 0.0 if res.degenerate else radius
            assert abs(res.margin - expected) <= 1e-9, f"trial {trial}"
        assert compared > 20
        assert reduced > 10
        assert dropped > 5

    def test_lp_holds_only_band_pairs(self, monkeypatch):
        data = three_d_with_sure_candidates()
        k = 4
        region = region_box((0.3, 0.3, 0.4), 0.1)
        _, sure_in, sure_out, _, _ = band_split(data.points, k, region)
        assert sure_in.any() and sure_out.any()
        subset = tuple(sorted(decompose_topk(data, k, WeightVector((0.3, 0.3, 0.4))).order[:k]))
        member = np.isin(data.id_array, subset)
        band = ~(sure_in | sure_out)
        band_pairs = int((band & member).sum()) * int((band & ~member).sum())
        seen = []
        real = fairtopk.geometry.simplex_lp

        def recording(problem):
            seen.append(problem)
            return real(problem)

        monkeypatch.setattr(fairtopk.geometry, "simplex_lp", recording)
        assert stable_weight(data, k, subset, region) is not None
        assert len(seen) == 1
        assert band_pairs < k * (data.n - k)
        assert len(seen[0].rows) == band_pairs + len(projected_region_rows(region)) + 1


class TestMarginSemantics:
    def test_duplicate_cross_pair_is_degenerate(self):
        cands = [
            Candidate(0, (0.9, 0.9), set()),
            Candidate(1, (0.5, 0.5), set()),
            Candidate(2, (0.5, 0.5), set()),
            Candidate(3, (0.1, 0.2), set()),
        ]
        data = Dataset(cands)
        region = region_box((0.5, 0.5), 1.0)
        res = stable_weight(data, 2, (0, 1), region)
        assert res is not None
        assert res.degenerate
        assert res.margin == 0.0

    def test_duplicate_cross_pair_keeps_the_cell_center_in_3d(self):
        rng = np.random.default_rng(347)
        k = 4
        wo = (0.3, 0.45, 0.25)
        region = region_box(wo, 0.2)
        points = [tuple(float(v) for v in rng.random(3)) for _ in range(11)]
        order = decompose_topk(
            Dataset([Candidate(i, p, set()) for i, p in enumerate(points)]), k, WeightVector(wo)
        ).order
        points.append(points[order[k - 1]])  # a non-member copy of the k-th member
        data = Dataset([Candidate(i, p, set()) for i, p in enumerate(points)])
        subset = tuple(sorted(order[:k]))
        res = stable_weight(data, k, subset, region)
        assert res is not None
        assert res.degenerate
        assert res.margin == 0.0
        radius, walls = chebyshev_reference(data, subset, region)
        assert radius > 1e-3
        y = np.asarray(res.weight.weights[:-1])
        clearance = min(float(g @ y + h) for g, h in walls)
        assert clearance >= radius - 1e-9

    def test_leaving_out_a_sure_in_candidate_returns_none(self):
        data = three_d_with_sure_candidates()
        k = 4
        region = region_box((0.3, 0.3, 0.4), 0.1)
        _, sure_in, _, _, _ = band_split(data.points, k, region)
        assert sure_in[0]
        top = decompose_topk(data, k + 1, WeightVector((0.3, 0.3, 0.4))).order
        subset = tuple(sorted(c for c in top if c != 0))[:k]
        assert len(subset) == k and 0 not in subset
        assert stable_weight(data, k, subset, region) is None

    def test_margin_never_grows_when_region_shrinks(self):
        rng = np.random.default_rng(311)
        for trial in range(25):
            d = int(rng.integers(2, 4))
            k = int(rng.integers(1, 5))
            data, _ = tied_instance(rng, n=10, d=d, k=k, dup_rate=0.2)
            wo = tuple(rng.dirichlet(np.ones(d)))
            w_seed = WeightVector(tuple(rng.dirichlet(np.ones(d))))
            subset = tuple(decompose_topk(data, k, w_seed).order[:k])
            big = stable_weight(data, k, subset, region_box(wo, 0.4))
            small = stable_weight(data, k, subset, region_box(wo, 0.1))
            if small is None:
                continue
            assert big is not None, "shrinking cannot create feasibility"
            assert big.margin >= small.margin - 1e-9

    def test_perturbations_inside_box_radius_keep_the_subset(self):
        rng = np.random.default_rng(313)
        exercised = 0
        for trial in range(40):
            d = int(rng.integers(2, 5))
            k = int(rng.integers(1, 6))
            data, _ = tied_instance(rng, n=11, d=d, k=k, dup_rate=0.0)
            w_seed = WeightVector(tuple(rng.dirichlet(np.ones(d))))
            subset = tuple(sorted(decompose_topk(data, k, w_seed).order[:k]))
            res = stable_weight(data, k, subset, region_box(tuple(w_seed), 0.3))
            if res is None or res.margin <= 1e-9:
                continue
            exercised += 1
            y0 = np.asarray(res.weight.weights[:-1])
            for _ in range(25):
                delta = rng.uniform(-1, 1, size=d - 1) * 0.9 * res.box_radius
                y = np.asarray(y0) + delta
                if np.any(y < 0) or y.sum() > 1.0:
                    continue  # outside the simplex, lift would distort
                w = lift_weight(y)
                got = tuple(sorted(decompose_topk(data, k, w).order[:k]))
                assert got == subset, f"trial {trial}: {got} != {subset}"
        assert exercised > 10

    def test_stable_weight_is_inside_the_region(self):
        rng = np.random.default_rng(317)
        for trial in range(30):
            d = int(rng.integers(2, 4))
            k = int(rng.integers(1, 5))
            data, _ = tied_instance(rng, n=10, d=d, k=k, dup_rate=0.3)
            wo = tuple(rng.dirichlet(np.ones(d)))
            w_seed = WeightVector(tuple(rng.dirichlet(np.ones(d))))
            subset = tuple(decompose_topk(data, k, w_seed).order[:k])
            region = region_box(wo, 0.25)
            res = stable_weight(data, k, subset, region)
            if res is None:
                continue
            assert region.contains(res.weight, tol=1e-7)


class TestBandHandOff:
    @pytest.mark.parametrize("d", [3, 4])
    def test_engine_band_gives_the_same_result(self, d):
        # the band an engine hands back and one built by stable_weight give
        # bit-identical results, on the engines' own answers
        rng = np.random.default_rng(503 + d)
        compared = 0
        for trial in range(16):
            k = int(rng.integers(2, 6))
            data = random_instance(rng, n=14, d=d, n_protected=1, dup_rate=0.2)
            spec = random_spec(rng, data, k, 1)
            wo = tuple(rng.dirichlet(np.ones(d)))
            region = WeightRegion.box(WeightVector(wo), float(rng.uniform(0.1, 0.3)), UTILITY_LOSS)
            if trial % 2:
                result = traverse(data, k, spec, region)
            else:
                result = solve_milp(build_milp(data, k, spec, region))
            if result is None:
                continue
            handed = stable_weight(data, k, result.subset, region, band=result.band)
            built = stable_weight(data, k, result.subset, region)
            assert handed == built, f"trial {trial}"
            compared += handed is not None
        assert compared >= 8

    def test_band_of_another_query_is_refused(self):
        rng = np.random.default_rng(509)
        data = random_instance(rng, n=14, d=3, n_protected=1)
        wo = WeightVector((0.4, 0.35, 0.25))
        region = region_box(wo, 0.2)
        subset = tuple(decompose_topk(data, 4, wo).order[:4])
        expected = stable_weight(data, 4, subset, region)
        assert expected is not None and expected.margin > 0.0
        # an equal region built again is the same region
        assert stable_weight(data, 4, subset, region,
                             band=CutoffBand(data, 4, region_box(wo, 0.2))) == expected
        others = (
            CutoffBand(data, 5, region),
            CutoffBand(data, 4, region_box(wo, 0.1)),
            CutoffBand(Dataset(data.candidates), 4, region),
        )
        for band in others:
            with pytest.raises(ValueError, match="another dataset, k or region"):
                stable_weight(data, 4, subset, region, band=band)
