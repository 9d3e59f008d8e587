"""Mixed-integer engine: model assembly, export, branch and bound."""

from itertools import combinations

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
    group_counts,
    is_fair_counts,
)
from fairtopk.generators import random_instance, random_spec
from fairtopk.geometry import LpProblem, simplex_lp
from fairtopk.klevel import traverse
from fairtopk.milp import build_milp, export_lp, solve_milp
from fairtopk.pipeline import kskyband
from fairtopk.verify import verify_fair
from conftest import tied_instance


def subset_feasibility_lp(data, region, subset, objective):
    """Subset realizable as a (tie-tolerant) top-k somewhere in the region.

    Returns the best objective value for the subset (min L1 distance to the
    reference, or 0.0 under the utility objective) or None if unrealizable.
    """
    d, n = data.d, len(data)
    pts = data.points
    member = set(subset)
    wdiff = objective == W_DIFFERENCE
    nv = d + 1 + (d if wdiff else 0)  # w, lambda, phi
    rows = []
    for i in range(n):
        a = np.zeros(nv)
        a[:d] = pts[i]
        a[d] = -1.0
        rows.append((a, ">=" if int(data.ids[i]) in member else "<=", 0.0))
    a = np.zeros(nv)
    a[:d] = 1.0
    rows.append((a, "=", 1.0))
    for i in range(d):
        a = np.zeros(nv)
        a[i] = 1.0
        rows.append((a, ">=", 0.0))
    for coeffs, off in region.halfspaces:
        a = np.zeros(nv)
        a[:d] = coeffs
        rows.append((a, ">=", -off))
    wo = region.reference
    if wdiff:
        for i in range(d):
            a = np.zeros(nv)
            a[d + 1 + i] = 1.0
            a[i] = -1.0
            rows.append((a, ">=", -wo[i]))
            a = np.zeros(nv)
            a[d + 1 + i] = 1.0
            a[i] = 1.0
            rows.append((a, ">=", wo[i]))
        c = np.zeros(nv)
        c[d + 1:] = 1.0
    else:
        c = np.zeros(nv)
    out = simplex_lp(LpProblem(c, rows, "min"))
    if out.status != "optimal":
        return None
    return float(out.value)


def fair_subsets(data, k, spec, region):
    """(value, subset) of every fair k-subset that is a top-k somewhere in
    the region, by an LP per subset."""
    wo = region.reference
    for subset in combinations(data.ids, k):
        if not is_fair_counts(group_counts(data, subset, spec.n_protected), spec):
            continue
        got = subset_feasibility_lp(data, region, subset, region.objective)
        if got is None:
            continue
        if region.objective == W_DIFFERENCE:
            yield got, subset
        else:
            yield -sum(float(np.dot(data.by_id(c).point, wo.as_array())) for c in subset), subset


def enumerate_best(data, k, spec, region):
    """Independent reference: try every k-subset with an LP."""
    return min((value for value, _ in fair_subsets(data, k, spec, region)), default=None)


def precedence_rows(model):
    """The model's delta_q - delta_p <= 0 rows, as (p, q) binary columns."""
    out = []
    for a, rel, b in model.rows:
        nz = np.nonzero(a)[0]
        if rel == "<=" and b == 0.0 and len(nz) == 2 and set(nz) <= set(model.binaries) \
                and sorted(a[nz]) == [-1.0, 1.0]:
            out.append((int(nz[a[nz] < 0][0]), int(nz[a[nz] > 0][0])))
    return out


class TestModelAssembly:
    # in the 0.2 box candidate 4, at (0.9, 0.9), tops every ranking: it is
    # sure-in, a constant that takes one of the k seats and gets no binary

    def test_row_layout(self, five_dataset, five_spec):
        region = WeightRegion.box(WeightVector((0.5, 0.5)), 0.2)
        model = build_milp(five_dataset, 2, five_spec, region)
        band, m, d = model.band, 4, 2
        assert band.rows.tolist() == [0, 1, 2, 3]
        assert band.sure_in.tolist() == [False, False, False, False, True]
        # 2m score rows, lambda_hi, cardinality, 2 per group, simplex,
        # 4 box rows, 2d envelopes
        assert len(model.rows) == 2 * m + 1 + 1 + 2 + 1 + 4 + 2 * d
        assert model.names[:3] == ["w0", "w1", "lam"]
        assert model.names[3:7] == ["d0", "d1", "d2", "d3"]
        assert model.binaries == [3, 4, 5, 6]
        assert model.direction == "min"
        # the cutoff stays at or below candidate 4's lowest score
        a, rel, b = model.rows[2 * m]
        assert rel == "<=" and b == band.lambda_hi
        assert_allclose(a, np.eye(model.nvars)[2])
        # cardinality row demands the k - 1 picks candidate 4 leaves
        a, rel, b = model.rows[2 * m + 1]
        assert rel == "=" and b == 1.0
        assert_allclose(a[3:7], 1.0)

    def test_utility_objective_maximizes_reference_scores(self, five_dataset, five_spec):
        region = WeightRegion.box(WeightVector((0.5, 0.5)), 0.2, objective=UTILITY_LOSS)
        model = build_milp(five_dataset, 2, five_spec, region)
        assert model.direction == "max"
        assert model.nvars == 7
        assert_allclose(model.c[3:7], five_dataset.points[:4] @ np.array([0.5, 0.5]))

    def test_attribute_range_guard(self):
        data = Dataset([Candidate(0, (1.4, 0.2), set()), Candidate(1, (0.3, 0.4), set())])
        region = WeightRegion.box(WeightVector((0.5, 0.5)), 0.2)
        with pytest.raises(ValueError):
            build_milp(data, 1, FairnessSpec.vacuous(0, 1), region)

    def test_export_lp_format(self, five_dataset, five_spec):
        region = WeightRegion.box(WeightVector((0.5, 0.5)), 0.2)
        model = build_milp(five_dataset, 2, five_spec, region)
        text = export_lp(model)
        lines = text.splitlines()
        assert lines[1] == "Minimize"
        assert "Subject To" in lines
        assert "Bounds" in lines
        assert "Binaries" in lines
        assert lines[-1] == "End"
        bin_line = lines[lines.index("Binaries") + 1]
        assert bin_line.split() == ["d0", "d1", "d2", "d3"]
        assert "d4" not in text
        # every row label appears exactly once and in order
        row_lines = [l for l in lines if l.startswith(" r")]
        assert len(row_lines) == len(model.rows) == 21
        assert row_lines[0].startswith(" r0:")


class TestPrecedenceRows:
    """Rows delta_q <= delta_p from the band's r-dominance order."""

    def test_rows_follow_the_reduced_order(self):
        rng = np.random.default_rng(233)
        rows = 0
        for trial in range(10):
            data = random_instance(rng, n=20, d=3, n_protected=1, dup_rate=0.3)
            region = WeightRegion.box(WeightVector(tuple(rng.dirichlet(np.ones(3)))), 0.1)
            model = build_milp(data, 5, FairnessSpec.vacuous(1, 5), region)
            band, above = model.band, model.band.above
            pos = {idx: j for j, idx in enumerate(model.binaries)}
            got = {(band.cls[pos[p]], band.cls[pos[q]]) for p, q in precedence_rows(model)}
            for a, b in got:
                assert above[a, b], f"trial {trial}: a row against the order"
                assert not np.any(above[a] & above[:, b]), f"trial {trial}: ({a}, {b}) not reduced"
            for a, b in zip(*np.nonzero(above)):
                # every ordered pair is implied by a chain of rows
                assert (a, b) in got or np.any(above[a] & above[:, b]), f"trial {trial}"
            want = sum(band.size[a] * band.size[b] for a, b in got)
            assert len(precedence_rows(model)) == want
            rows += want
        assert rows >= 20

    @pytest.mark.parametrize("objective", [W_DIFFERENCE, UTILITY_LOSS])
    def test_fair_subsets_satisfy_every_row(self, objective):
        rng = np.random.default_rng(239)
        checked = 0
        for trial in range(12):
            k = int(rng.integers(3, 5))
            data, spec = tied_instance(rng, n=10, d=3, n_protected=1, k=k, dup_rate=0.3)
            wo = WeightVector(tuple(rng.dirichlet(np.ones(3))))
            region = WeightRegion.box(wo, float(rng.uniform(0.1, 0.3)), objective=objective)
            model = build_milp(data, k, spec, region)
            rows = precedence_rows(model)
            found = list(fair_subsets(data, k, spec, region))
            if not found:
                continue
            best = min(value for value, _ in found)
            res = solve_milp(model)
            assert_allclose(res.value if objective == W_DIFFERENCE else -res.utility, best,
                            atol=1e-7, err_msg=f"trial {trial}")
            ids = data.id_array[model.band.rows]
            for value, subset in found:
                delta = dict(zip(model.binaries, np.isin(ids, subset)))
                for p, q in rows:
                    assert delta[q] <= delta[p], f"trial {trial}: {subset} breaks ({p}, {q})"
                checked += bool(rows) and value <= best + 1e-9
        assert checked >= 6


class TestSolve:
    def test_worked_example_wdiff(self, five_dataset, five_spec):
        region = WeightRegion.box(WeightVector((0.5, 0.5)), 0.5, objective=W_DIFFERENCE)
        res = solve_milp(build_milp(five_dataset, 2, five_spec, region))
        assert res is not None
        assert_allclose(res.value, 1 / 9, atol=1e-8)
        assert res.subset == (2, 4)
        assert res.engine == "milp"
        assert res.extras["nodes"] >= 1

    def test_worked_example_utility(self, five_dataset, five_spec):
        region = WeightRegion.box(WeightVector((0.5, 0.5)), 0.5, objective=UTILITY_LOSS)
        res = solve_milp(build_milp(five_dataset, 2, five_spec, region))
        assert_allclose(res.utility, 1.425, atol=1e-8)
        assert_allclose(res.value, 0.025 / 1.45, atol=1e-8)
        assert res.subset == (2, 4)

    @pytest.mark.parametrize("objective", [W_DIFFERENCE, UTILITY_LOSS])
    def test_matches_subset_enumeration(self, objective):
        rng = np.random.default_rng(211)
        solved = 0
        for trial in range(25):
            n_protected = int(rng.integers(1, 3))
            k = int(rng.integers(2, 5))
            data, spec = tied_instance(
                rng, n=9, d=int(rng.integers(2, 4)), n_protected=n_protected,
                k=k, dup_rate=float(rng.uniform(0, 0.4)),
            )
            wo = WeightVector(tuple(rng.dirichlet(np.ones(data.d))))
            region = WeightRegion.box(wo, float(rng.uniform(0.1, 0.4)), objective=objective)
            res = solve_milp(build_milp(data, k, spec, region))
            want = enumerate_best(data, k, spec, region)
            if res is None:
                assert want is None, f"trial {trial}: enumeration found {want}"
                continue
            solved += 1
            if objective == W_DIFFERENCE:
                assert_allclose(res.value, want, atol=1e-7)
            else:
                assert_allclose(-res.utility, want, atol=1e-7)
            assert region.contains(res.weight, tol=1e-9)
        assert solved > 10

    def test_integral_subset_with_a_nonempty_cell_is_kept(self):
        # n=20, d=3, k=5 wdiff query without duplicate points: the optimal
        # subset's cell is non-empty, and a check that wrongly calls it empty
        # cuts the subset off and reports no fair weight
        rows = [
            (0.7742789229100857, 0.5102000851171317, 0.16028349405896525, {0}),
            (0.4331375544537154, 0.47183676005570974, 0.16571884919969493, set()),
            (0.9697373876725731, 0.6130906717946751, 0.9046539783722595, set()),
            (0.7163489154115716, 0.0767536915442204, 0.9120071684450958, set()),
            (0.1972048586056736, 0.4619470275321804, 0.5369265482393668, set()),
            (0.602528481788632, 0.2599587762304624, 0.24343635215082038, {0}),
            (0.04788896609290971, 0.20425883624228702, 0.9188748544644001, {0}),
            (0.8574976587004424, 0.3517238902290848, 0.6760054287824555, {0}),
            (0.969847914493495, 0.2687031125809711, 0.7330987744971251, {0}),
            (0.8073215479705579, 0.601337096526458, 0.9479724213603143, {0}),
            (0.09941927224345304, 0.6535218979750235, 0.1559182289977138, {0, 1}),
            (0.990120727247722, 0.8585474253260185, 0.09945791635853074, {0, 1}),
            (0.576470470674496, 0.3772601441655665, 0.051121377781931154, {1}),
            (0.48408078327005244, 0.9386346541354027, 0.9277698997908506, {0}),
            (0.6027016103306999, 0.53931825091572, 0.45138604720393916, set()),
            (0.09199770351934977, 0.8631147427756748, 0.5904012350542358, set()),
            (0.5205605095104311, 0.28786188862243545, 0.10209591904064597, set()),
            (0.8850104269751647, 0.0930159480177567, 0.6252141184007368, set()),
            (0.8574985212932024, 0.20207507318833984, 0.8864291481578898, {0}),
            (0.327093415126561, 0.8092788599770313, 0.04391085000540307, {1}),
        ]
        data = Dataset([Candidate(i, r[:3], r[3]) for i, r in enumerate(rows)])
        spec = FairnessSpec.from_fractions([(0.4, 1.0), (0.2, 1.0)], 5)
        wo = WeightVector((0.2765990547544819, 0.30652293094823824, 0.41687801429727994))
        region = WeightRegion.box(wo, 0.081903, objective=W_DIFFERENCE)
        res = solve_milp(build_milp(data, 5, spec, region))
        assert res is not None
        assert_allclose(res.value, 0.1249290227, atol=1e-9)
        assert res.subset == (2, 8, 9, 11, 13)

    def test_phase_one_drift_does_not_cut_a_feasible_node(self):
        # n=22, d=3, k=8 wdiff query with duplicate points: one node
        # relaxation is feasible, but the pivoted tableau drifts so far
        # that its phase-1 residual reads as infeasible; dropping that node
        # leaves milp at 0.1036002012
        rows = [
            (0.11225420007151776, 0.24621739376170226, 0.628951964793763, {0}),
            (0.15904178953862136, 0.2343468238084483, 0.9386910728602194, {0}),
            (0.03515956184206581, 0.09885683584392435, 0.648077238059413, {1}),
            (0.8743142117463529, 0.01196616619527302, 0.17664663192524954, set()),
            (0.2793382689645202, 0.41632019567587975, 0.590053998827785, {1}),
            (0.9179229624020999, 0.22462776389561334, 0.9110367946042831, {0}),
            (0.5208509702140716, 0.08972108043043314, 0.2422467946275012, set()),
            (0.33239791606475577, 0.10833849027946085, 0.10857087105049135, {1}),
            (0.9352921977181826, 0.4528949567388224, 0.9053740975733632, set()),
            (0.127957181243472, 0.31062092212279735, 0.6330916007079904, {1}),
            (0.9847077676424125, 0.4121695181872549, 0.09287162702124918, {0}),
            (0.9179229624020999, 0.22462776389561334, 0.9110367946042831, set()),
            (0.6360427792135299, 0.19961470258682612, 0.874773110860422, {0}),
            (0.9179229624020999, 0.22462776389561334, 0.9110367946042831, {0}),
            (0.3500903791156854, 0.9054677363527007, 0.3518506986910299, {0, 1}),
            (0.0880531536177449, 0.008916589159656985, 0.06823273259294871, set()),
            (0.15904178953862136, 0.2343468238084483, 0.9386910728602194, {1}),
            (0.7946495594642272, 0.23250239196341027, 0.5835610816417892, {0}),
            (0.5208509702140716, 0.08972108043043314, 0.2422467946275012, set()),
            (0.16556764796170165, 0.7289412496400842, 0.62583422904267, {1}),
            (0.4808453333646543, 0.9302086483707104, 0.9108143714835963, {0}),
            (0.7946495594642272, 0.23250239196341027, 0.5835610816417892, set()),
        ]
        data = Dataset([Candidate(i, r[:3], r[3]) for i, r in enumerate(rows)])
        spec = FairnessSpec.from_fractions([(0.75, 1.0), (0.0, 0.5)], 8)
        wo = WeightVector((0.2878212498295595, 0.3870969891251741, 0.3250817610452664))
        region = WeightRegion.box(wo, 0.068227, objective=W_DIFFERENCE)
        res = solve_milp(build_milp(data, 8, spec, region))
        assert res is not None
        assert_allclose(res.value, 0.0441556921, atol=1e-9)
        assert verify_fair(data, 8, spec, res.weight)

    def test_node_budget(self, five_dataset, five_spec):
        region = WeightRegion.box(WeightVector((0.5, 0.5)), 0.5)
        with pytest.raises(BudgetExceededError) as err:
            solve_milp(build_milp(five_dataset, 2, five_spec, region), node_budget=1)
        assert hasattr(err.value, "partial")

    def test_unsatisfiable_spec_returns_none(self, five_dataset):
        spec = FairnessSpec(lower=[2], upper=[2])
        region = WeightRegion.box(WeightVector((0.05, 0.95)), 0.02)
        assert solve_milp(build_milp(five_dataset, 2, spec, region)) is None

    def test_result_weight_is_actually_fair(self):
        rng = np.random.default_rng(227)
        for trial in range(15):
            k = int(rng.integers(2, 5))
            data, spec = tied_instance(rng, n=10, n_protected=1, k=k, dup_rate=0.5)
            wo = WeightVector(tuple(rng.dirichlet(np.ones(2))))
            region = WeightRegion.box(wo, 0.3)
            res = solve_milp(build_milp(data, k, spec, region))
            if res is None:
                continue
            assert verify_fair(data, k, spec, res.weight)


def highs_optimum(model):
    """The model's optimum by scipy's HiGHS MILP with presolve off, or None."""
    opt = pytest.importorskip("scipy.optimize")
    a = np.array([row for row, _, _ in model.rows])
    rhs = np.array([b for _, _, b in model.rows])
    rel = np.array([r for _, r, _ in model.rows])
    integrality = np.zeros(model.nvars)
    integrality[model.binaries] = 1
    sense = 1.0 if model.direction == "min" else -1.0
    out = opt.milp(
        sense * model.c,
        constraints=opt.LinearConstraint(
            a, np.where(rel == "<=", -np.inf, rhs), np.where(rel == ">=", np.inf, rhs)
        ),
        bounds=opt.Bounds(
            [lo for lo, _ in model.bounds],
            [np.inf if hi is None else hi for _, hi in model.bounds],
        ),
        integrality=integrality,
        options={"presolve": False},
    )
    return None if out.x is None else sense * out.fun


class TestBandModel:
    """The model covers the cutoff band only; sure-in rows are constants."""

    @pytest.mark.parametrize("objective", [W_DIFFERENCE, UTILITY_LOSS])
    @pytest.mark.parametrize("lower, upper", [((0,), (5,)), ((5,), (5,))])
    def test_empty_band(self, objective, lower, upper):
        # n == k: every row is sure-in, so the model has no binary at all
        data = random_instance(np.random.default_rng(5), n=5, d=3, n_protected=1)
        spec = FairnessSpec(lower, upper)
        region = WeightRegion.box(WeightVector((0.3, 0.3, 0.4)), 0.1, objective=objective)
        model = build_milp(data, 5, spec, region)
        assert model.binaries == []
        assert export_lp(model).splitlines()[-1] == "End"
        res = solve_milp(model)
        kl = traverse(data, 5, spec, region)
        want = enumerate_best(data, 5, spec, region)
        assert (res is None) == (kl is None) == (want is None)
        assert (res is None) == (lower == (5,))  # three of the five are protected
        if res is not None:
            assert res.subset == kl.subset == (0, 1, 2, 3, 4)
            assert_allclose(res.value, kl.value, atol=1e-9)
            got = res.value if objective == W_DIFFERENCE else -res.utility
            assert_allclose(got, want, atol=1e-9)

    @pytest.mark.parametrize("objective", [W_DIFFERENCE, UTILITY_LOSS])
    @pytest.mark.parametrize(
        "lower, upper, solvable",
        [
            ((0, 0), (1, 4), False),  # sure-in 0 and 1 alone exceed group 0's upper bound
            ((0, 3), (4, 4), False),  # two seats left, group 1 needs three
            ((4, 0), (4, 4), False),  # group 0 needs two band rows, only 2 is in it
            ((0, 0), (2, 4), True),   # group 0 is full, so band row 2, top at wo, stays out
            ((3, 0), (4, 4), True),   # sure-in 0 and 1 count towards the three
        ],
    )
    def test_sure_in_counts_fold_into_group_bounds(self, objective, lower, upper, solvable):
        rows = [
            (0.9, 0.9, 0.9, {0}), (0.85, 0.8, 0.9, {0}),  # sure-in
            (0.62, 0.42, 0.5, {0}), (0.4, 0.6, 0.5, {1}),
            (0.5, 0.5, 0.52, {1}), (0.45, 0.55, 0.5, set()),
            (0.1, 0.05, 0.1, {1}),  # sure-out
        ]
        data = Dataset([Candidate(i, r[:3], r[3]) for i, r in enumerate(rows)])
        spec = FairnessSpec(lower, upper)
        region = WeightRegion.box(WeightVector((0.3, 0.3, 0.4)), 0.1, objective=objective)
        model = build_milp(data, 4, spec, region)
        assert model.band.rows.tolist() == [2, 3, 4, 5]
        assert np.nonzero(model.band.sure_in)[0].tolist() == [0, 1]
        res = solve_milp(model)
        kl = traverse(data, 4, spec, region)
        assert (res is not None) == (kl is not None) == solvable
        if solvable:
            assert_allclose(res.value, kl.value, atol=1e-9)
            assert verify_fair(data, 4, spec, res.weight)

    def test_highs_agrees_on_the_model(self):
        rng = np.random.default_rng(41)
        answered = ordered = 0
        for trial in range(30):
            k, n_protected = int(rng.integers(3, 8)), int(rng.integers(1, 3))
            data = random_instance(
                rng, n=int(rng.integers(15, 36)), d=3, n_protected=n_protected, dup_rate=0.2
            )
            data = kskyband(data, k)
            spec = random_spec(rng, data, k, n_protected)
            wo = WeightVector(tuple(rng.dirichlet((4.0, 4.0, 4.0))))
            eps = float(rng.uniform(0.05, 0.12))
            for objective in (W_DIFFERENCE, UTILITY_LOSS):
                region = WeightRegion.box(wo, eps, objective=objective)
                model = build_milp(data, k, spec, region)
                ordered += bool(precedence_rows(model))
                res = solve_milp(model)
                want = highs_optimum(model)
                assert (res is None) == (want is None), f"trial {trial} {objective}"
                if res is None:
                    continue
                answered += 1
                if objective == W_DIFFERENCE:
                    assert abs(want - res.value) <= 1e-9, f"trial {trial}"
                else:
                    # the model's objective leaves out the sure-in utility
                    sure = data.points[model.band.sure_in].sum(axis=0) @ wo.as_array()
                    assert abs(want + sure - res.utility) <= 1e-9, f"trial {trial}"
        assert answered > 40
        assert ordered >= 20  # a third of the 60 models carry precedence rows
