"""LP kernels, simplex projection, and region vertex enumeration."""

import itertools
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import linprog

import fairtopk.geometry
from fairtopk.core import (
    W_DIFFERENCE,
    Candidate,
    Dataset,
    LpStallError,
    WeightRegion,
    WeightVector,
)
from fairtopk.geometry import (
    CutoffBand,
    LpProblem,
    TopkCell,
    dual_line,
    hyperplane_side,
    lift_weight,
    project_halfspace,
    project_points,
    projected_region_rows,
    region_extreme_points,
    region_interval,
    simplex_lp,
    simplex_rows_projected,
)
from fairtopk.generators import random_instance
from fairtopk.tolerances import FEAS_TOL, RHS_SNAP, ZERO


def random_lp(rng, nvars, nrows, feasible_bias=True):
    """Random bounded LP; when feasible_bias, rows are anchored to a point."""
    c = rng.normal(size=nvars)
    rows = []
    if feasible_bias:
        x0 = rng.normal(size=nvars)
        for _ in range(nrows):
            a = rng.normal(size=nvars)
            slack = rng.uniform(0.0, 2.0)
            rows.append((a, "<=", float(a @ x0) + slack))
    else:
        for _ in range(nrows):
            a = rng.normal(size=nvars)
            rows.append((a, "<=", rng.normal()))
    # box rows keep the LP bounded so the three solvers agree
    for i in range(nvars):
        e = np.zeros(nvars)
        e[i] = 1.0
        rows.append((e, "<=", 50.0))
        rows.append((e, ">=", -50.0))
    return LpProblem(c, rows, direction="min")


def mixed_lp(rng, kind, start=None):
    """Random LP over "<=", ">=" and "=" rows with right-hand sides of both
    signs, anchored at a point so it is feasible, plus one redundant
    equality when there are equalities.  kind "infeasible" adds two rows no
    point meets; "unbounded" leaves out the box rows.  start "anchor"
    starts the simplex at the anchor, which meets every inequality row but
    one of the infeasible pair; "random" at a point that misses some."""
    nvars = int(rng.integers(2, 6))
    x0 = rng.normal(size=nvars)
    rows = []
    for _ in range(int(rng.integers(2, 10))):
        a = rng.normal(size=nvars)
        rel = ("<=", ">=", "=")[int(rng.integers(3))]
        gap = {"<=": 1.0, ">=": -1.0, "=": 0.0}[rel] * rng.uniform(0.0, 1.0)
        rows.append((a, rel, float(a @ x0) + gap))
    eq = [(a, b) for a, rel, b in rows if rel == "="]
    if eq:
        mix = rng.normal(size=len(eq))
        rows.append((sum(f * a for f, (a, _) in zip(mix, eq)), "=",
                     float(sum(f * b for f, (_, b) in zip(mix, eq)))))
    if kind == "infeasible":
        a = rng.normal(size=nvars)
        rows += [(a, "<=", float(a @ x0)), (-a, "<=", -float(a @ x0) - 0.5)]
    if kind != "unbounded":
        for i in range(nvars):
            e = np.eye(nvars)[i]
            rows += [(e, "<=", 50.0), (e, ">=", -50.0)]
    order = rng.permutation(len(rows))
    direction = ("min", "max")[int(rng.integers(2))]
    c = rng.normal(size=nvars)
    at = x0 if start == "anchor" else 3.0 * rng.normal(size=nvars) if start == "random" else None
    return LpProblem(c, [rows[i] for i in order], direction, at)


def row_loop_pivot(A, b, row, col):
    """geometry._pivot as one update per row: the reference it must equal."""
    piv = A[row, col]
    A[row] /= piv
    b[row] /= piv
    for i in range(len(b)):
        if i != row and abs(A[i, col]) > ZERO:
            f = A[i, col]
            A[i] -= f * A[row]
            b[i] -= f * b[row]
            if b[i] < 0 and b[i] > -RHS_SNAP:
                b[i] = 0.0


DATA = Path(__file__).parent / "data"


def scipy_reference(problem):
    sign = 1.0 if problem.direction == "min" else -1.0
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for a, rel, b in problem.rows:
        if rel == "<=":
            A_ub.append(a)
            b_ub.append(b)
        elif rel == ">=":
            A_ub.append(-a)
            b_ub.append(-b)
        else:
            A_eq.append(a)
            b_eq.append(b)
    res = linprog(
        sign * problem.c,
        A_ub=np.array(A_ub) if A_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(A_eq) if A_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=[(None, None)] * problem.nvars,
        method="highs",
    )
    if res.status == 2:
        return "infeasible", None
    if res.status == 3:
        return "unbounded", None
    return "optimal", sign * res.fun


class TestLpKernels:
    def test_known_2d_optimum(self):
        # min -x - y over x <= 3, y <= 4, x + y <= 5
        prob = LpProblem(
            [-1.0, -1.0],
            [((1, 0), "<=", 3), ((0, 1), "<=", 4), ((1, 1), "<=", 5)],
        )
        out = simplex_lp(prob)
        assert out.status == "optimal"
        assert_allclose(out.value, -5.0, atol=1e-9)

    def test_infeasible_detected(self):
        prob = LpProblem([1.0, 0.0], [((1, 0), "<=", 0), ((1, 0), ">=", 1)])
        assert simplex_lp(prob).status == "infeasible"

    def test_unbounded_detected(self):
        prob = LpProblem([1.0, 0.0], [((1, 0), "<=", 5)], direction="max")
        # only x is capped; maximizing x is bounded, minimizing is not
        assert simplex_lp(prob).status == "optimal"
        low = LpProblem([1.0, 0.0], [((1, 0), "<=", 5)], direction="min")
        assert simplex_lp(low).status == "unbounded"

    def test_equality_rows(self):
        prob = LpProblem(
            [1.0, 1.0, 0.0],
            [((1, 1, 1), "=", 1), ((0, 0, 1), "<=", 0.75),
             ((1, 0, 0), ">=", 0), ((0, 1, 0), ">=", 0)],
            direction="min",
        )
        # x + y = 1 - z >= 0.25
        out = simplex_lp(prob)
        assert out.status == "optimal"
        assert_allclose(out.value, 0.25, atol=1e-9)

    def test_three_solver_agreement_random(self):
        rng = np.random.default_rng(42)
        for trial in range(120):
            nvars = int(rng.integers(2, 5))
            nrows = int(rng.integers(1, 12))
            prob = random_lp(rng, nvars, nrows, feasible_bias=trial % 3 != 0)
            ref_status, ref_value = scipy_reference(prob)
            mout = simplex_lp(prob)
            assert mout.status == ref_status, f"trial {trial}: simplex {mout.status} vs {ref_status}"
            if ref_status == "optimal":
                assert_allclose(mout.value, ref_value, atol=1e-6, rtol=1e-6)

    def test_simplex_handles_many_variables(self):
        rng = np.random.default_rng(9)
        prob = random_lp(rng, 12, 20)
        ref_status, ref_value = scipy_reference(prob)
        out = simplex_lp(prob)
        assert out.status == ref_status == "optimal"
        assert_allclose(out.value, ref_value, atol=1e-6, rtol=1e-6)

    def test_maximization_sign_convention(self):
        prob = LpProblem([2.0, 1.0], [((1, 1), "<=", 1), ((1, 0), ">=", 0), ((0, 1), ">=", 0)], direction="max")
        out = simplex_lp(prob)
        assert_allclose(out.value, 2.0, atol=1e-9)

    def test_mixed_rows_agree_with_highs(self):
        rng = np.random.default_rng(2024)
        seen = {"optimal": 0, "infeasible": 0, "unbounded": 0}
        for trial in range(240):
            prob = mixed_lp(rng, ("feasible", "infeasible", "unbounded")[trial % 3])
            ref_status, ref_value = scipy_reference(prob)
            out = simplex_lp(prob)
            assert out.status == ref_status, f"trial {trial}: {out.status} vs {ref_status}"
            seen[ref_status] += 1
            if ref_status == "optimal":
                assert_allclose(out.value, ref_value, atol=1e-6, rtol=1e-6)
                for a, rel, b in prob.rows:
                    gap = float(a @ out.x) - b
                    excess = {"<=": gap, ">=": -gap, "=": abs(gap)}[rel]
                    assert excess <= 1e-7 * (1.0 + abs(b)), f"trial {trial}"
        assert min(seen.values()) >= 30, seen

    def test_started_lps_agree_with_highs(self):
        # from a start inside every inequality row and from one outside
        # some, on feasible, infeasible and unbounded problems
        rng = np.random.default_rng(2121)
        seen = Counter()
        for trial in range(240):
            kind = ("feasible", "infeasible", "unbounded")[trial % 3]
            start = ("anchor", "random")[trial // 3 % 2]
            prob = mixed_lp(rng, kind, start)
            ref_status, ref_value = scipy_reference(prob)
            out = simplex_lp(prob)
            assert out.status == ref_status, f"trial {trial}: {out.status} vs {ref_status}"
            seen[ref_status, start] += 1
            if ref_status == "optimal":
                assert abs(out.value - ref_value) <= 1e-9, f"trial {trial}"
        assert len(seen) == 6 and min(seen.values()) >= 15, seen

    def test_a_start_inside_every_inequality_row_skips_phase_one(self, monkeypatch):
        phases = []
        real = fairtopk.geometry._simplex_iterate

        def recording(A, b, basis, cost, budget, phase):
            phases.append(phase)
            return real(A, b, basis, cost, budget, phase)

        monkeypatch.setattr(fairtopk.geometry, "_simplex_iterate", recording)
        rng = np.random.default_rng(4)
        skipped = 0
        for trial in range(60):
            prob = mixed_lp(rng, "feasible", "anchor")
            phases.clear()
            assert simplex_lp(prob).status == "optimal"
            # "=" rows get an artificial wherever the start lies
            equalities = any(rel == "=" for _, rel, _ in prob.rows)
            assert (1 in phases) == equalities, f"trial {trial}"
            skipped += not equalities
        assert skipped >= 10

    def test_rank_one_pivot_matches_the_row_loop(self):
        rng = np.random.default_rng(8)
        snapped = 0
        for _ in range(200):
            m, n = int(rng.integers(2, 12)), int(rng.integers(1, 16))
            A = rng.normal(size=(m, n))
            A[rng.random((m, n)) < 0.3] = 0.0
            A[rng.random((m, n)) < 0.1] = 1e-13  # below ZERO: the row is left alone
            b = rng.uniform(0.0, 1.0, size=m)
            row, col = int(rng.integers(m)), int(rng.integers(n))
            A[row, col] = rng.uniform(0.5, 2.0)
            # row j's right-hand side lands a hair below zero, where it snaps to 0
            j = (row + 1) % m
            b[j] = A[j, col] * b[row] / A[row, col] - 1e-12
            A1, b1, A2, b2 = A.copy(), b.copy(), A.copy(), b.copy()
            fairtopk.geometry._pivot(A1, b1, row, col)
            row_loop_pivot(A2, b2, row, col)
            assert np.array_equal(A1, A2) and np.array_equal(b1, b2)
            snapped += b1[j] == 0.0
        assert snapped > 50

    def test_slack_feasible_rows_skip_phase_one(self, monkeypatch):
        phases = []
        real = fairtopk.geometry._simplex_iterate

        def recording(A, b, basis, cost, budget, phase):
            phases.append(phase)
            return real(A, b, basis, cost, budget, phase)

        monkeypatch.setattr(fairtopk.geometry, "_simplex_iterate", recording)
        # every "<=" right-hand side is >= 0 and every ">=" one <= 0: the
        # slack basis is feasible at x = 0
        rows = [((1.0, 2.0), "<=", 4.0), ((3.0, -1.0), "<=", 0.0),
                ((1.0, 0.0), ">=", -2.0), ((0.0, 1.0), ">=", -0.0)]
        out = simplex_lp(LpProblem([-1.0, -1.0], rows))
        assert phases == [2]
        assert out.status == "optimal"
        assert_allclose(out.x, [4.0 / 7.0, 12.0 / 7.0], atol=1e-12)
        # a ">=" row with a positive right-hand side needs an artificial
        phases.clear()
        out = simplex_lp(LpProblem([-1.0, -1.0], rows + [((1.0, 1.0), ">=", 1.0)]))
        assert phases == [1, 2]
        assert_allclose(out.value, -16.0 / 7.0, atol=1e-12)

    def test_cell_lps_match_highs(self, monkeypatch):
        # the witness, closest-point and centre LPs of the top-k cell at the
        # region centroid, on seeded d = 3 and d = 4 instances
        seen = []
        real = fairtopk.geometry.simplex_lp

        def recording(problem):
            seen.append(problem)
            return real(problem)

        monkeypatch.setattr(fairtopk.geometry, "simplex_lp", recording)
        rng = np.random.default_rng(77)
        for d in (3, 3, 4):
            data = random_instance(rng, n=30, d=d, n_protected=1)
            wo = WeightVector(tuple(rng.dirichlet(np.ones(d))))
            band = CutoffBand(data, 5, WeightRegion.box(wo, 0.15))
            scores = data.points @ lift_weight(band.verts.mean(axis=0)).weights
            cell = TopkCell(band, band.seats(data.id_array[np.argsort(-scores)[:5]]))
            assert cell.witness() is not None
            assert cell.closest() is not None
            assert cell.center() is not None
        assert len(seen) == 9
        for problem in seen:
            status, value = scipy_reference(problem)
            out = real(problem)
            assert out.status == status == "optimal"
            assert abs(out.value - value) <= 1e-9

    @pytest.mark.parametrize("name", ["singular_phase_one_lp", "singular_phase_one_child_lp"])
    def test_drifted_phase_one_answers_infeasible(self, name):
        # two branch-and-bound nodes of solve_milp on 81 kskyband rows
        # (default_rng(1030): random_instance n=90, d=3, 10% duplicates;
        # k=30, wdiff box 0.08), 88 variables and 302 rows (63 of them "=")
        # or, one fixing deeper, 303 (64).  Pivoting on ratio-test entries
        # near 1e-11 drifted the tableau until phase 1 ended on a singular
        # basis, with an artificial total of 360.5 or of 0
        with np.load(DATA / f"{name}.npz") as f:
            rows = [(a, str(rel), b) for a, rel, b in zip(f["a"], f["relation"], f["b"])]
            prob = LpProblem(f["c"], rows, str(f["direction"]))
        assert scipy_reference(prob)[0] == "infeasible"
        assert simplex_lp(prob).status == "infeasible"

    def test_phase_one_passes_over_a_drifted_descent_column(self):
        # root relaxation of solve_milp's band model (a d = 3, n = 20, k = 6
        # utility query, 6 band rows): 46 rows, 10 variables.  Under Bland's
        # rule phase 1 met a column whose negative reduced cost came from
        # entries below the pivot tolerance, stopped there at an artificial
        # total of 33.3 and called a feasible LP infeasible
        with np.load(DATA / "drift_column_phase_one_lp.npz") as f:
            rows = [(a, str(rel), b) for a, rel, b in zip(f["a"], f["relation"], f["b"])]
            prob = LpProblem(f["c"], rows, str(f["direction"]))
        status, value = scipy_reference(prob)
        assert status == "optimal"
        out = simplex_lp(prob)
        assert out.status == "optimal"
        assert_allclose(out.value, value, atol=1e-9)

    @pytest.mark.parametrize("final", [[0, 1], [2, 2]], ids=["zero-total", "positive-total"])
    def test_singular_phase_one_basis(self, final, monkeypatch):
        # columns: x+ 0, x- 1 (parallel), artificials 2 and 3.  A singular
        # final basis is a stall, unless its artificial total (2 for [2, 2])
        # already proves the LP infeasible
        def drifted(A, b, basis, cost, budget, phase):
            basis[:] = final
            return (A, b), 0

        monkeypatch.setattr(fairtopk.geometry, "_simplex_iterate", drifted)
        prob = LpProblem([1.0], [((1.0,), "=", 1.0), ((1.0,), "=", 1.0)])
        if final == [2, 2]:
            assert simplex_lp(prob).status == "infeasible"
        else:
            with pytest.raises(LpStallError):
                simplex_lp(prob)


class TestProjection:
    def test_project_lift_roundtrip(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            d = int(rng.integers(2, 6))
            w = WeightVector(tuple(rng.dirichlet(np.ones(d))))
            y = np.asarray(w.weights[:-1])
            assert len(y) == d - 1
            back = lift_weight(y)
            assert_allclose(back.as_array(), w.as_array(), atol=1e-12)

    def test_lift_rejects_negative_last_component(self):
        with pytest.raises(ValueError):
            lift_weight(np.array([0.7, 0.6]))

    def test_lift_clips_vertex_noise(self):
        w = lift_weight(np.array([1.0 + 5e-10, -3e-10]))
        arr = w.as_array()
        assert np.all(arr >= 0)
        assert_allclose(arr.sum(), 1.0, atol=1e-12)

    def test_project_points_preserves_scores(self):
        # scores in projected coordinates: Q[i] . y + r[i] == p[i] . w
        rng = np.random.default_rng(22)
        for _ in range(40):
            d = int(rng.integers(2, 6))
            p = rng.random((int(rng.integers(1, 5)), d))
            w = WeightVector(tuple(rng.dirichlet(np.ones(d))))
            Q, r = project_points(p)
            y = np.asarray(w.weights[:-1])
            assert_allclose(Q @ y + r, p @ w.as_array(), atol=1e-12)

    def test_project_halfspace_consistency(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            d = int(rng.integers(2, 6))
            coeffs = rng.normal(size=d)
            offset = rng.normal()
            w = WeightVector(tuple(rng.dirichlet(np.ones(d))))
            a, b = project_halfspace(coeffs, offset)
            y = np.asarray(w.weights[:-1])
            assert_allclose(
                float(np.dot(a, y) + b),
                float(np.dot(coeffs, w.as_array()) + offset),
                atol=1e-12,
            )

    def test_simplex_rows_cut_out_the_simplex(self):
        rows = simplex_rows_projected(3)
        inside = np.asarray(WeightVector((0.2, 0.3, 0.5)).weights[:-1])
        outside = np.array([0.8, 0.8])
        assert all(np.dot(a, inside) + b >= -1e-12 for a, b in rows)
        assert any(np.dot(a, outside) + b < 0 for a, b in rows)


class TestDualLines:
    def test_dual_line_evaluates_score(self, five_dataset):
        # at parameter x = w_1 the dual line value equals the 2-d score
        for c in five_dataset.candidates:
            ln = dual_line(c.cid, c.point)
            for x in (0.0, 0.3, 1.0):
                w = WeightVector((x, 1.0 - x))
                expect = float(np.dot(c.point, w.as_array()))
                assert_allclose(ln.slope * x + ln.intercept, expect, atol=1e-12)


class TestRegions:
    def test_box_region_vertices_2d(self):
        wo = WeightVector((0.5, 0.5))
        region = WeightRegion.box(wo, epsilon=0.1)
        verts = region_extreme_points(region)
        xs = sorted(float(v[0]) for v in verts)
        assert_allclose(xs, [0.4, 0.6], atol=1e-12)
        assert region_interval(region) == pytest.approx((0.4, 0.6))

    def test_box_clipped_by_simplex(self):
        wo = WeightVector((0.95, 0.05))
        region = WeightRegion.box(wo, epsilon=0.2)
        lo, hi = region_interval(region)
        assert_allclose(hi, 1.0, atol=1e-12)
        assert_allclose(lo, 0.75, atol=1e-12)

    def test_empty_region(self):
        wo = WeightVector((0.5, 0.5))
        region = WeightRegion.box(wo, epsilon=0.1, extra=[(1.0, 0.0, -0.9)])
        assert region_interval(region) is None

    def test_3d_box_vertices_satisfy_all_rows(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            wo = WeightVector(tuple(rng.dirichlet(np.ones(3))))
            region = WeightRegion.box(wo, epsilon=0.15)
            rows = projected_region_rows(region)
            verts = region_extreme_points(region)
            assert verts, "box around an interior point cannot be empty"
            for v in verts:
                assert all(np.dot(a, v) + b >= -1e-9 for a, b in rows)
            # vertices are lexicographically sorted
            assert verts == sorted(verts, key=tuple)

    def test_vertices_contain_the_reference_hull(self):
        wo = WeightVector((0.4, 0.35, 0.25))
        region = WeightRegion.box(wo, epsilon=0.1)
        verts = np.array(region_extreme_points(region))
        y = np.asarray(wo.weights[:-1])
        # reference is a convex combination of vertices: check via LP
        prob = LpProblem(
            np.zeros(len(verts)),
            [(verts[:, 0], "=", y[0]), (verts[:, 1], "=", y[1]),
             (np.ones(len(verts)), "=", 1.0)]
            + [(row, ">=", 0.0) for row in np.eye(len(verts))],
        )
        assert simplex_lp(prob).status == "optimal"

    @staticmethod
    def looped_extreme_points(region):
        """The one-subset-at-a-time enumeration the stacked solve replaced."""
        rows = projected_region_rows(region)
        A = np.array([r[0] for r in rows])
        off = np.array([r[1] for r in rows])
        verts = []
        for comb in itertools.combinations(range(len(rows)), region.d - 1):
            try:
                v = np.linalg.solve(A[list(comb)], -off[list(comb)])
            except np.linalg.LinAlgError:
                continue
            if not np.all(np.isfinite(v)) or np.min(A @ v + off) < -1e-9:
                continue
            if not any(np.max(np.abs(v - u)) <= 1e-9 for u in verts):
                verts.append(v)
        verts.sort(key=tuple)
        return verts

    def test_stacked_solve_matches_the_subset_loop(self):
        rng = np.random.default_rng(2024)
        regions = [
            WeightRegion.box(WeightVector((0.5, 0.5)), 0.1, extra=[(1.0, 0.0, -0.9)]),  # empty
            WeightRegion.box(WeightVector((0.2, 0.3, 0.5)), 1.0),
            WeightRegion.box(WeightVector((0.1, 0.2, 0.3, 0.4)), 1.5),
        ]
        for trial in range(120):
            d = int(rng.integers(2, 6))
            wo = WeightVector(tuple(rng.dirichlet(np.ones(d))))
            extra = []
            if trial % 5 == 0:
                a = rng.normal(size=d)
                extra.append(tuple(a) + (float(-a @ wo.as_array() + rng.uniform(-0.05, 0.1)),))
            regions.append(WeightRegion.box(wo, float(rng.uniform(0.01, 1.0)), extra=extra))
        for i, region in enumerate(regions):
            got, want = region_extreme_points(region), self.looped_extreme_points(region)
            assert len(got) == len(want), i
            for u, v in zip(got, want):
                assert np.array_equal(u, v), i
        assert region_extreme_points(regions[0]) == []


class TestHyperplaneSide:
    def test_sides(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert hyperplane_side((0.0, 1.0), -1.0, pts) == -1
        assert hyperplane_side((0.0, 1.0), 1.0, pts) == 1
        assert hyperplane_side((1.0, 0.0), -0.5, pts) == 0

    def test_batch_matches_one_plane_at_a_time(self):
        rng = np.random.default_rng(5)
        pts = rng.random((6, 2))
        coeffs = rng.normal(size=(5, 4, 2))
        offsets = rng.normal(size=(5, 4)) * 0.3
        offsets[0] = -(coeffs[0] @ pts[0])  # planes through a point
        got = hyperplane_side(coeffs, offsets, pts)
        assert got.shape == (5, 4)
        for i in range(5):
            for j in range(4):
                vals = pts @ coeffs[i, j] + offsets[i, j]
                want = 1 if np.all(vals > 1e-9) else (-1 if np.all(vals < -1e-9) else 0)
                assert got[i, j] == want, (i, j)
        assert set(got[1:].ravel()) == {-1, 0, 1}
        assert not np.any(got[0])
        assert not np.any(hyperplane_side(coeffs, offsets, np.zeros((0, 2))))


# witness LP rows over (y, lambda, xi) that every case below ends with: the
# simplex walls of the projected weight y and the margin cap xi <= 1; and
# the Chebyshev rows over (y, radius) that every centre LP ends with
WITNESS_TAIL = [((1.0, 0.0, 0.0), ">=", 0.0), ((-1.0, 0.0, 0.0), ">=", -1.0),
                ((0.0, 0.0, 1.0), "<=", 1.0)]
CENTER_TAIL = [((1.0, -1.0), ">=", 0.0), ((-1.0, -1.0), ">=", -1.0), ((0.0, 1.0), ">=", 0.0)]


class TestCutoffBandClasses:
    """Duplicate-point classes of the band, pinned to the sides and LP rows
    that grouping by pairwise point equality gives."""

    CASES = {
        # -0.0 equals 0.0, so rows 0 and 1 form one class, split by the subset
        "negative_zero": (
            [(0.0, 0.5), (-0.0, 0.5), (0.5, 0.25), (0.25, 0.0)], (0, 2), [0, 1, -1],
            [((-0.5, -1.0, 0.0), "=", -0.5), ((0.25, -1.0, -1.0), ">=", -0.25),
             ((0.25, -1.0, 1.0), "<=", 0.0)],
            [((-1.0, -1.0), ">=", -0.6666666666666666), ((1.0, -1.0), ">=", 0.3333333333333333)],
        ),
        # n == k: every row is sure-in and the band is empty
        "n_equals_k": ([(0.2, 0.8), (0.6, 0.4)], (0, 1), [],
                       [((0.0, 1.0, 1.0), "<=", 0.2)], []),
        "every_row_sure": (
            [(0.9, 0.9), (0.8, 0.8), (0.1, 0.1), (0.2, 0.2)], (0, 1), [],
            [((0.0, 1.0, 1.0), "<=", 0.8), ((0.0, 1.0, -1.0), ">=", 0.2)], [],
        ),
        # rows 1-3 are the whole band and one class, with one seat taken
        "one_class_band": (
            [(0.9, 0.9), (0.6, 0.4), (0.6, 0.4), (0.6, 0.4), (0.1, 0.1)], (0, 2), [0],
            [((0.19999999999999996, -1.0, 0.0), "=", -0.4), ((0.0, 1.0, 1.0), "<=", 0.9),
             ((0.0, 1.0, -1.0), ">=", 0.1)],
            [],
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_sides_and_rows(self, case, monkeypatch):
        points, subset, side, witness_rows, center_rows = self.CASES[case]
        seen = []
        real = fairtopk.geometry.simplex_lp

        def recording(problem):
            seen.append([(tuple(a), rel, b) for a, rel, b in problem.rows])
            return real(problem)

        monkeypatch.setattr(fairtopk.geometry, "simplex_lp", recording)
        data = Dataset([Candidate(i, p, set()) for i, p in enumerate(points)])
        region = WeightRegion(2, [], (0.5, 0.5), W_DIFFERENCE)  # the whole simplex
        band = CutoffBand(data, 2, region)
        seats = band.seats(subset)
        cell = TopkCell(band, seats)
        assert cell.side.tolist() == side
        assert band.seats(band.subset(seats)) == seats
        assert cell.witness() is not None
        assert cell.center() is not None
        assert seen == [witness_rows + WITNESS_TAIL, center_rows + CENTER_TAIL]


class TestBandOrder:
    """crosses and above, read from one sign matrix over the band's class
    pairs, against per-vertex scores."""

    def bands(self):
        rng = np.random.default_rng(151)
        for trial in range(16):
            d = 3 + trial % 2
            data = random_instance(rng, n=int(rng.integers(10, 25)), d=d, n_protected=1,
                                   dup_rate=float(rng.uniform(0.2, 0.4)))
            wo = WeightVector(tuple(rng.dirichlet(np.ones(d))))
            region = WeightRegion.box(wo, float(rng.uniform(0.05, 0.3)))
            yield CutoffBand(data, int(rng.integers(2, 7)), region)
        whole = WeightRegion(2, [], (0.5, 0.5), W_DIFFERENCE)
        for points in TestCutoffBandClasses.CASES["n_equals_k"][0], \
                TestCutoffBandClasses.CASES["one_class_band"][0]:
            yield CutoffBand(Dataset([Candidate(i, p, set()) for i, p in enumerate(points)]),
                             2, whole)

    def test_order_matches_vertex_scores(self):
        sizes, pairs, shared = [], 0, 0
        for band in self.bands():
            n = len(band.size)
            sizes.append(n)
            above, crosses = band.above, band.crosses
            # class scores at each region vertex, from the class's own rows
            first = np.array([band.rows[band.cls == c][0] for c in range(n)], dtype=int)
            weights = np.array([lift_weight(v).as_array() for v in band.verts])
            scores = band.dataset.points[first] @ weights.T
            gap = scores[:, None, :] - scores[None, :, :]
            assert np.array_equal(above, np.all(gap > FEAS_TOL, axis=-1))
            below = np.all(gap < -FEAS_TOL, axis=-1)
            assert np.array_equal(crosses, ~above & ~below)
            assert not np.any(np.diag(above))
            assert not np.any(above & above.T)
            assert not np.any(above & crosses)
            closure = (above.astype(int) @ above.astype(int)) > 0
            assert not np.any(closure & ~above), "above is not transitive"
            pairs += int(above.sum())
            shared += int(np.count_nonzero(band.size > 1))
        assert sizes[-2:] == [0, 1]
        assert pairs >= 50 and shared >= 10 and max(sizes) >= 5
