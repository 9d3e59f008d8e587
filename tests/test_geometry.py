"""LP kernels, simplex projection, and region vertex enumeration."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import linprog

from fairtopk.core import WeightRegion, WeightVector
from fairtopk.geometry import (
    LpProblem,
    dual_line,
    hyperplane_side,
    lift_weight,
    project_halfspace,
    project_points,
    project_weight,
    projected_region_rows,
    region_extreme_points,
    region_interval,
    seidel_lp,
    simplex_lp,
    simplex_rows_projected,
)


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
        for solver in (seidel_lp, simplex_lp):
            out = solver(prob)
            assert out.status == "optimal"
            assert_allclose(out.value, -5.0, atol=1e-9)

    def test_infeasible_detected(self):
        prob = LpProblem([1.0, 0.0], [((1, 0), "<=", 0), ((1, 0), ">=", 1)])
        assert seidel_lp(prob).status == "infeasible"
        assert simplex_lp(prob).status == "infeasible"

    def test_unbounded_detected(self):
        prob = LpProblem([1.0, 0.0], [((1, 0), "<=", 5)], direction="max")
        # only x is capped; maximizing x is bounded, minimizing is not
        assert seidel_lp(prob).status == "optimal"
        low = LpProblem([1.0, 0.0], [((1, 0), "<=", 5)], direction="min")
        assert seidel_lp(low).status == "unbounded"
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
        out2 = seidel_lp(prob)
        assert_allclose(out2.value, 0.25, atol=1e-9)

    def test_three_solver_agreement_random(self):
        rng = np.random.default_rng(42)
        for trial in range(120):
            nvars = int(rng.integers(2, 5))
            nrows = int(rng.integers(1, 12))
            prob = random_lp(rng, nvars, nrows, feasible_bias=trial % 3 != 0)
            ref_status, ref_value = scipy_reference(prob)
            sout = seidel_lp(prob, seed=trial)
            mout = simplex_lp(prob)
            assert sout.status == ref_status, f"trial {trial}: seidel {sout.status} vs {ref_status}"
            assert mout.status == ref_status, f"trial {trial}: simplex {mout.status} vs {ref_status}"
            if ref_status == "optimal":
                assert_allclose(sout.value, ref_value, atol=1e-6, rtol=1e-6)
                assert_allclose(mout.value, ref_value, atol=1e-6, rtol=1e-6)

    def test_simplex_handles_many_variables(self):
        rng = np.random.default_rng(9)
        prob = random_lp(rng, 12, 20)
        ref_status, ref_value = scipy_reference(prob)
        out = simplex_lp(prob)
        assert out.status == ref_status == "optimal"
        assert_allclose(out.value, ref_value, atol=1e-6, rtol=1e-6)

    def test_seidel_seed_determinism(self):
        rng = np.random.default_rng(13)
        prob = random_lp(rng, 3, 9)
        a = seidel_lp(prob, seed=5)
        b = seidel_lp(prob, seed=5)
        assert_allclose(a.x, b.x, atol=0)

    def test_maximization_sign_convention(self):
        prob = LpProblem([2.0, 1.0], [((1, 1), "<=", 1), ((1, 0), ">=", 0), ((0, 1), ">=", 0)], direction="max")
        out = seidel_lp(prob)
        assert_allclose(out.value, 2.0, atol=1e-9)
        out = simplex_lp(prob)
        assert_allclose(out.value, 2.0, atol=1e-9)


class TestProjection:
    def test_project_lift_roundtrip(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            d = int(rng.integers(2, 6))
            w = WeightVector(tuple(rng.dirichlet(np.ones(d))))
            y = project_weight(w)
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
            y = project_weight(w)
            assert_allclose(Q @ y + r, p @ w.as_array(), atol=1e-12)

    def test_project_halfspace_consistency(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            d = int(rng.integers(2, 6))
            coeffs = rng.normal(size=d)
            offset = rng.normal()
            w = WeightVector(tuple(rng.dirichlet(np.ones(d))))
            a, b = project_halfspace(coeffs, offset)
            y = project_weight(w)
            assert_allclose(
                float(np.dot(a, y) + b),
                float(np.dot(coeffs, w.as_array()) + offset),
                atol=1e-12,
            )

    def test_simplex_rows_cut_out_the_simplex(self):
        rows = simplex_rows_projected(3)
        inside = project_weight(WeightVector((0.2, 0.3, 0.5)))
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
        y = project_weight(wo)
        # reference is a convex combination of vertices: check via LP
        prob = LpProblem(
            np.zeros(len(verts)),
            [(verts[:, 0], "=", y[0]), (verts[:, 1], "=", y[1]),
             (np.ones(len(verts)), "=", 1.0)]
            + [(row, ">=", 0.0) for row in np.eye(len(verts))],
        )
        assert simplex_lp(prob).status == "optimal"


class TestHyperplaneSide:
    def test_sides(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert hyperplane_side((0.0, 1.0), -1.0, pts) == -1
        assert hyperplane_side((0.0, 1.0), 1.0, pts) == 1
        assert hyperplane_side((1.0, 0.0), -0.5, pts) == 0
