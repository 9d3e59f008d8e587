"""Ingestion, preprocessing, driver dispatch, and benchmark harness tests."""

import csv
import gc
import json
import math
import weakref

import numpy as np
import pytest

from fairtopk.core import (
    BudgetExceededError,
    Candidate,
    DataFormatError,
    Dataset,
    FairnessSpec,
    UTILITY_LOSS,
    W_DIFFERENCE,
    WeightRegion,
    WeightVector,
)
from fairtopk import pipeline, verify
from fairtopk.geometry import CutoffBand
from fairtopk.klevel import traverse
from fairtopk.milp import build_milp, solve_milp
from fairtopk.pipeline import (
    BENCH_COLUMNS,
    KLEVEL_BASE_K,
    RunConfig,
    bench,
    brute_select_2d,
    choose_engine,
    kskyband,
    load_csv,
    normalize,
    reorder_protected,
    result_json,
    sample_unfair,
    select,
    write_bench_csv,
    write_csv,
)
from fairtopk.sweep2d import sweep_select
from fairtopk.verify import verify_fair

from conftest import FIVE_POINTS, tied_instance


def write_five_csv(path, protected_ids=(2, 3), group="blue"):
    """Worked example as a CSV file; two attributes, one named group."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,attr1,attr2,groups\n")
        for i, (x, y) in enumerate(FIVE_POINTS):
            cell = group if i in protected_ids else ""
            fh.write(f"{i},{x!r},{y!r},{cell}\n")
    return path


def five_config(**overrides):
    base = dict(
        k=2,
        epsilon=0.12,
        objective=W_DIFFERENCE,
        engine="auto",
        protected=[("blue", 0.5, 1.0)],
    )
    base.update(overrides)
    return RunConfig(**base)


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig(k=3, epsilon=0.1)
        assert cfg.objective == W_DIFFERENCE
        assert cfg.engine == "auto"
        assert cfg.protected == ()
        assert cfg.workers == 1 and cfg.stable is False

    @pytest.mark.parametrize("k", [0, -2])
    def test_bad_k(self, k):
        with pytest.raises(ValueError, match="k must be positive"):
            RunConfig(k=k, epsilon=0.1)

    @pytest.mark.parametrize("k", ["2", 2.5, 2.0, True, None])
    def test_k_must_be_an_integer(self, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            RunConfig(k=k, epsilon=0.1)

    def test_numpy_integer_k_accepted(self):
        assert RunConfig(k=np.int64(3), epsilon=0.1).k == 3

    @pytest.mark.parametrize("eps", ["0.1", None, True, [0.1]])
    def test_epsilon_must_be_a_number(self, eps):
        with pytest.raises(ValueError, match="epsilon must be a number"):
            RunConfig(k=2, epsilon=eps)

    @pytest.mark.parametrize("entry", [
        {"name": "a", "lower": 0.1},
        {"lower": 0.1, "upper": 0.5},
        ("a", 0.1),
        ("a", 0.1, 0.5, 0.9),
        ("a", "low", 0.5),
        7,
    ])
    def test_malformed_protected_entry(self, entry):
        with pytest.raises(ValueError, match="protected entry"):
            RunConfig(k=2, epsilon=0.1, protected=[entry])

    @pytest.mark.parametrize("payload", ["[2, 0.1]", '["k", "epsilon"]', "7", "null"])
    def test_from_json_needs_an_object(self, payload):
        with pytest.raises(ValueError, match="JSON object"):
            RunConfig.from_json(payload)

    @pytest.mark.parametrize("eps", [0.0, -0.1, 1.5])
    def test_bad_epsilon(self, eps):
        with pytest.raises(ValueError, match="epsilon"):
            RunConfig(k=2, epsilon=eps)

    def test_bad_objective_and_engine(self):
        with pytest.raises(ValueError, match="objective"):
            RunConfig(k=2, epsilon=0.1, objective="l2")
        with pytest.raises(ValueError, match="engine"):
            RunConfig(k=2, epsilon=0.1, engine="sat")

    def test_protected_dict_entries_normalize(self):
        cfg = RunConfig(
            k=4,
            epsilon=0.2,
            protected=[{"name": "a", "lower": 0.25, "upper": 0.5}, ("b", 0, 1)],
        )
        assert cfg.protected == (("a", 0.25, 0.5), ("b", 0.0, 1.0))

    def test_protected_bad_bounds(self):
        with pytest.raises(ValueError, match="bounds"):
            RunConfig(k=2, epsilon=0.1, protected=[("a", 0.7, 0.3)])
        with pytest.raises(ValueError, match="bounds"):
            RunConfig(k=2, epsilon=0.1, protected=[("a", 0.0, 1.5)])

    def test_protected_name_given_twice(self):
        with pytest.raises(ValueError, match="'blue' is named twice"):
            RunConfig(k=2, epsilon=0.1, protected=[("blue", 0.0, 1.0), ("red", 0.0, 1.0),
                                                   {"name": "blue", "lower": 0.5, "upper": 1.0}])

    def test_from_json_rejects_unknown_keys(self):
        payload = {"k": 2, "epsilon": 0.1, "tolerance": 1e-6}
        with pytest.raises(ValueError, match="unknown config keys"):
            RunConfig.from_json(payload)

    def test_from_json_names_missing_keys(self):
        with pytest.raises(ValueError, match=r"missing config keys: \['k'\]"):
            RunConfig.from_json({"epsilon": 0.1})

    def test_from_json_accepts_string(self):
        cfg = RunConfig.from_json(json.dumps({"k": 2, "epsilon": 0.3, "seed": 7}))
        assert cfg.k == 2 and cfg.seed == 7

    def test_wo_coerced_to_floats(self):
        cfg = RunConfig(k=2, epsilon=0.1, wo=[1, 0])
        assert cfg.wo == (1.0, 0.0)

    @pytest.mark.parametrize("key, value", [
        ("wo", 5),
        ("wo", "0.5,0.5"),
        ("wo", [0.5, "0.5"]),
        ("wo", [True, False]),
        ("extra_halfspaces", 5),
        ("extra_halfspaces", [5]),
        ("extra_halfspaces", [[1.0, 0.0, "0.6"]]),
        ("stable", "no"),
        ("stable", 1),
        ("seed", "7"),
        ("seed", 1.5),
        ("seed", True),
        ("workers", "2"),
        ("workers", 2.0),
        ("workers", True),
        ("workers", 0),
    ])
    def test_every_field_is_validated(self, key, value):
        with pytest.raises(ValueError, match=key):
            RunConfig(k=2, epsilon=0.1, **{key: value})

    def test_numpy_values_accepted(self):
        cfg = RunConfig(k=2, epsilon=0.1, wo=np.array([0.5, 0.5]), seed=np.int64(3),
                        extra_halfspaces=[np.array([1.0, 0.0, 0.6])], workers=2, stable=True)
        assert cfg.wo == (0.5, 0.5) and cfg.extra_halfspaces == ((1.0, 0.0, 0.6),)

    def test_names_and_spec_follow_the_protected_entries(self):
        cfg = RunConfig(k=4, epsilon=0.1, protected=[("a", 0.25, 0.5), ("b", 0.0, 1.0)])
        assert cfg.names == ("a", "b")
        assert cfg.spec == FairnessSpec(lower=[1, 0], upper=[2, 4])
        assert RunConfig(k=4, epsilon=0.1).spec.n_protected == 0


class TestCsvRoundTrip:
    def test_bit_exact_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        cands = [
            Candidate(i, tuple(rng.random(3)), {0} if i % 3 == 0 else {1})
            for i in range(12)
        ]
        data = Dataset(cands, group_names=("blue", "red"))
        path = tmp_path / "t.csv"
        write_csv(path, data)
        back = load_csv(path, protected=("blue", "red"))
        assert back.ids == data.ids
        assert np.array_equal(back.points, data.points)
        assert back.group_names == data.group_names
        for a, b in zip(data.candidates, back.candidates):
            assert a.groups == b.groups

    def test_protected_names_take_leading_ids(self, tmp_path):
        path = write_five_csv(tmp_path / "t.csv")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("5,0.1,0.1,red\n")
        data = load_csv(path, protected=("red",))
        assert data.group_names[0] == "red"
        assert data.by_id(5).groups == {0}
        assert data.by_id(2).groups == {1}

    def test_equal_memberships_share_one_group_set(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "id,attr1,attr2,groups\n0,0.1,0.2,a|b\n1,0.3,0.4,b|a\n2,0.5,0.6,a\n"
            "3,0.7,0.8,\n4,0.9,0.1,\n"
        )
        data = load_csv(path, protected=("a",))
        c = data.candidates
        assert c[0].groups is c[1].groups
        assert c[3].groups is c[4].groups
        assert c[0].groups == {0, 1} and c[2].groups == {0} and c[3].groups == set()

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,attr1,attr2,groups\n\n0,0.1,0.2,\n   \n1,0.3,0.4,a\n")
        data = load_csv(path)
        assert len(data) == 2

    def test_header_errors(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,attr1,groups\n0,0.1,\n")
        with pytest.raises(DataFormatError, match="line 1") as exc:
            load_csv(path)
        assert exc.value.line == 1
        path.write_text("name,attr1,attr2,groups\n")
        with pytest.raises(DataFormatError, match="header"):
            load_csv(path)

    def test_field_count_error_carries_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "id,attr1,attr2,groups\n0,0.1,0.2,\n1,0.3,0.4,a\n2,0.5,\n"
        )
        with pytest.raises(DataFormatError, match="line 4") as exc:
            load_csv(path)
        assert exc.value.line == 4

    def test_parse_error_carries_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,attr1,attr2,groups\n0,0.1,oops,\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_csv(path)
        path.write_text("id,attr1,attr2,groups\nzero,0.1,0.2,\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_csv(path)
        path.write_text("id,attr1,attr2,groups\n2,nan,0.3,\n")
        with pytest.raises(DataFormatError, match="line 2: .*non-finite") as exc:
            load_csv(path)
        assert exc.value.line == 2

    def test_empty_group_name_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,attr1,attr2,groups\n0,0.1,0.2,a||b\n")
        with pytest.raises(DataFormatError, match="empty group name"):
            load_csv(path)

    def test_missing_protected_group_rejected(self, tmp_path):
        path = write_five_csv(tmp_path / "t.csv")
        with pytest.raises(DataFormatError, match="ghost"):
            load_csv(path, protected=("blue", "ghost"))


class TestPreprocess:
    def test_normalize_ranges_and_order(self):
        rng = np.random.default_rng(11)
        pts = rng.random((15, 3)) * np.array([10.0, 1.0, 5.0]) - 2.0
        pts[:, 1] = 0.7
        cands = [Candidate(i, tuple(p), {0}) for i, p in enumerate(pts)]
        out = normalize(Dataset(cands))
        q = out.points
        assert q.min() >= 0.0 and q.max() <= 1.0 + 1e-12
        assert np.allclose(q[:, 1], 0.0)
        for col in (0, 2):
            assert np.array_equal(np.argsort(pts[:, col]), np.argsort(q[:, col]))
            assert q[:, col].min() == 0.0 and q[:, col].max() == 1.0
        assert out.ids == tuple(range(15))

    def test_kskyband_drops_dominated(self):
        cands = [
            Candidate(0, (0.9, 0.9), set()),
            Candidate(1, (0.5, 0.5), set()),
            Candidate(2, (0.2, 0.95), set()),
            Candidate(3, (0.5, 0.5), set()),
        ]
        data = Dataset(cands)
        assert kskyband(data, 1).ids == (0, 2)
        assert kskyband(data, 2).ids == (0, 1, 2, 3)

    def test_kskyband_k_at_least_n_is_identity(self):
        rng = np.random.default_rng(5)
        data, _ = tied_instance(rng, n=14, k=3)
        assert kskyband(data, len(data)).ids == data.ids

    def test_kskyband_keeps_ties_at_boundary_weights(self):
        # w = (1, 0) ties both points; only the protected one makes k=1 fair
        data = Dataset([Candidate(0, (1.0, 0.5), set()), Candidate(1, (1.0, 0.2), {0})])
        spec = FairnessSpec(lower=[1], upper=[1])
        w = WeightVector((1.0, 0.0))
        assert verify_fair(data, 1, spec, w)
        assert verify_fair(kskyband(data, 1), 1, spec, w)

    def test_kskyband_preserves_topk_scores(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            data, _ = tied_instance(rng, n=18, d=3, k=4, dup_rate=0.3)
            pruned = kskyband(data, 4)
            for _ in range(4):
                w = rng.dirichlet(np.ones(3))
                full = np.sort(data.points @ w)[-4:]
                kept = np.sort(pruned.points @ w)[-4:]
                assert np.allclose(full, kept, atol=1e-12)


class TestSampleUnfair:
    def test_deterministic_per_seed(self, five_dataset, five_spec):
        a = sample_unfair(five_dataset, 2, five_spec, 5, seed=42)
        b = sample_unfair(five_dataset, 2, five_spec, 5, seed=42)
        assert a.found == b.found == 5
        assert [w.weights for w in a.weights] == [w.weights for w in b.weights]
        c = sample_unfair(five_dataset, 2, five_spec, 5, seed=43)
        assert [w.weights for w in a.weights] != [w.weights for w in c.weights]

    def test_samples_verify_unfair(self, five_dataset, five_spec):
        report = sample_unfair(five_dataset, 2, five_spec, 6, seed=1)
        for w in report.weights:
            assert not verify_fair(five_dataset, 2, five_spec, w)
        assert 0.0 < report.ratio <= 1.0

    def test_budget_exceeded_carries_partial(self):
        cands = [Candidate(i, (0.5, 0.5), {0} if i < 9 else set()) for i in range(30)]
        data = Dataset(cands)
        spec = FairnessSpec(lower=[1], upper=[2])
        with pytest.raises(BudgetExceededError) as exc:
            sample_unfair(data, 2, spec, 1, seed=0, tried_budget=40)
        partial = exc.value.partial
        assert partial.tried == 40 and partial.found == 0
        assert partial.ratio == 0.0

    def test_count_must_be_positive(self, five_dataset, five_spec):
        with pytest.raises(ValueError, match="count"):
            sample_unfair(five_dataset, 2, five_spec, 0, seed=0)


class TestReorderProtected:
    def test_named_groups_move_to_front(self):
        cands = [
            Candidate(0, (0.1, 0.2), {0}),
            Candidate(1, (0.3, 0.4), {1, 2}),
            Candidate(2, (0.5, 0.6), {2}),
        ]
        data = Dataset(cands, group_names=("a", "b", "c"))
        out = reorder_protected(data, ["c", "a"])
        assert out.group_names == ("c", "a", "b")
        assert out.by_id(0).groups == {1}
        assert out.by_id(1).groups == {0, 2}
        assert out.by_id(2).groups == {0}

    def test_leading_names_return_the_dataset_itself(self):
        cands = [Candidate(0, (0.1, 0.2), {0}), Candidate(1, (0.3, 0.4), {1, 2})]
        data = Dataset(cands, group_names=("a", "b", "c"))
        assert reorder_protected(data, ["a", "b"]) is data
        assert reorder_protected(data, ("a",)) is data
        assert reorder_protected(data, ["b"]) is not data

    def test_missing_name_rejected(self, five_dataset):
        with pytest.raises(DataFormatError, match="ghost"):
            reorder_protected(five_dataset, ["ghost"])


class TestChooseEngine:
    def test_explicit_engine_passthrough(self):
        for engine in ("sweep2d", "klevel", "milp"):
            assert choose_engine(6, 50, UTILITY_LOSS, engine) == engine

    def test_unknown_engine_rejected(self, five_dataset):
        # an unknown name used to run milp, labelled with the unknown name
        with pytest.raises(ValueError, match="unknown engine 'klevell'"):
            choose_engine(3, 5, UTILITY_LOSS, "klevell")
        with pytest.raises(ValueError, match="unknown engine 'klevell'"):
            bench([{"n": 10, "d": 2, "k": 3, "engines": ("klevell",)}], reps=1)
        config = RunConfig(k=2, epsilon=0.5)
        config.engine = "bogus"  # past the config-time check
        with pytest.raises(ValueError, match="unknown engine 'bogus'"):
            select(five_dataset, config)

    def test_two_attributes_always_sweep(self):
        assert choose_engine(2, 1, W_DIFFERENCE) == "sweep2d"
        assert choose_engine(2, 500, UTILITY_LOSS) == "sweep2d"

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_k_threshold_halves_per_attribute(self, d):
        cut = math.ceil(KLEVEL_BASE_K / 2 ** (d - 2))
        assert choose_engine(d, cut, UTILITY_LOSS) == "klevel"
        assert choose_engine(d, cut + 1, UTILITY_LOSS) == "milp"

    def test_distance_objective_stretches_threshold(self):
        cut = math.ceil(KLEVEL_BASE_K / 2)
        assert choose_engine(3, int(cut * 1.5), W_DIFFERENCE) == "klevel"
        assert choose_engine(3, int(cut * 1.5) + 1, W_DIFFERENCE) == "milp"
        assert choose_engine(3, cut + 1, W_DIFFERENCE) == "klevel"


class TestBuildRegion:
    def test_default_reference_is_uniform(self, five_dataset):
        cfg = five_config()
        region = cfg.region(five_dataset.d)
        assert region.reference.weights == (0.5, 0.5)
        assert len(region.halfspaces) == 4
        assert region.objective == W_DIFFERENCE

    def test_explicit_reference_and_extra_rows(self, five_dataset):
        cfg = five_config(wo=(0.6, 0.4), extra_halfspaces=((-1.0, 0.0, 0.58),))
        region = cfg.region(five_dataset.d)
        assert region.reference.weights == (0.6, 0.4)
        assert region.halfspaces[-1] == ((-1.0, 0.0), 0.58)

    def test_dimension_mismatch(self, five_dataset):
        with pytest.raises(ValueError, match="components"):
            five_config(wo=(0.3, 0.3, 0.4)).region(five_dataset.d)


class TestSelectDriver:
    def test_worked_example_distance(self, tmp_path):
        data = load_csv(write_five_csv(tmp_path / "t.csv"), protected=("blue",))
        result = select(data, five_config())
        assert result is not None
        assert result.engine == "sweep2d"
        assert result.value == pytest.approx(1.0 / 9.0, abs=1e-9)
        assert result.weight[0] == pytest.approx(5.0 / 9.0, abs=1e-9)

    def test_worked_example_utility(self, tmp_path):
        data = load_csv(write_five_csv(tmp_path / "t.csv"), protected=("blue",))
        result = select(data, five_config(objective=UTILITY_LOSS))
        assert result is not None
        assert result.value == pytest.approx(0.025 / 1.45, abs=1e-9)
        assert result.subset == (2, 4)

    def test_engines_agree_on_worked_example(self, tmp_path):
        data = load_csv(write_five_csv(tmp_path / "t.csv"), protected=("blue",))
        for objective in (W_DIFFERENCE, UTILITY_LOSS):
            values = {}
            for engine in ("sweep2d", "klevel", "milp"):
                r = select(data, five_config(objective=objective, engine=engine))
                assert r is not None
                values[engine] = r.value
            spread = max(values.values()) - min(values.values())
            assert spread <= 1e-6, values

    def test_stable_postprocess_attaches_center(self, tmp_path):
        data = load_csv(write_five_csv(tmp_path / "t.csv"), protected=("blue",))
        result = select(data, five_config(objective=UTILITY_LOSS, stable=True))
        assert result.subset == (2, 4)
        assert result.stable_weight[0] == pytest.approx(26.0 / 45.0, abs=1e-9)
        assert result.margin == pytest.approx(1.0 / 45.0, abs=1e-9)
        assert result.extras["stable_degenerate"] is False
        assert result.extras["box_radius"] > 0.0

    @pytest.mark.parametrize("engine", ["klevel", "milp", "sweep2d"])
    def test_stable_select_builds_one_band(self, tmp_path, monkeypatch, engine):
        # klevel and milp hand their band to the stability step; sweep2d
        # builds none, so the stability step builds the one band itself
        built = []
        real = CutoffBand.__init__

        def counting(self, *args):
            built.append(args)
            real(self, *args)

        monkeypatch.setattr(CutoffBand, "__init__", counting)
        data = load_csv(write_five_csv(tmp_path / "t.csv"), protected=("blue",))
        result = select(data, five_config(objective=UTILITY_LOSS, engine=engine, stable=True))
        assert result.subset == (2, 4)
        assert result.stable_weight[0] == pytest.approx(26.0 / 45.0, abs=1e-9)
        assert (result.band is None) == (engine == "sweep2d")
        assert len(built) == 1

    @pytest.mark.parametrize("run", ["klevel", "milp", "sweep2d", "traverse", "build_milp"])
    def test_dataset_freed_once_dropped(self, tmp_path, run):
        # no module keeps a query's band, and with it the caller's dataset,
        # once the caller drops the dataset and the answer
        data = load_csv(write_five_csv(tmp_path / "t.csv"), protected=("blue",))
        engine = run if run in ("klevel", "milp", "sweep2d") else "auto"
        config = five_config(objective=UTILITY_LOSS, engine=engine, stable=True)
        if run == "traverse":
            result = traverse(data, 2, config.spec, config.region(2))
        elif run == "build_milp":
            result = solve_milp(build_milp(data, 2, config.spec, config.region(2)))
        else:
            result = select(data, config)
            assert result.stable_weight is not None
        assert result is not None
        ref = weakref.ref(data)
        del data, result
        gc.collect()
        assert ref() is None

    def test_stable_after_distance_objective_warns(self, tmp_path):
        data = load_csv(write_five_csv(tmp_path / "t.csv"), protected=("blue",))
        with pytest.warns(UserWarning, match="forfeits distance optimality"):
            result = select(data, five_config(stable=True))
        assert result.stable_weight is not None

    def test_unreachable_bounds_return_none(self, tmp_path):
        data = load_csv(write_five_csv(tmp_path / "t.csv"), protected=("blue",))
        cfg = five_config(protected=[("blue", 1.0, 1.0)])
        assert select(data, cfg) is None

    def test_fair_reference_skips_the_search(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the search ran although the reference is fair")

        monkeypatch.setattr(pipeline, "solve_milp", refuse)
        cands = [
            Candidate(0, (0.9, 0.8, 0.7), {0}),
            Candidate(1, (0.6, 0.5, 0.4), set()),
            Candidate(2, (0.3, 0.2, 0.1), {0}),
            Candidate(3, (0.2, 0.3, 0.2), set()),
        ]
        data = Dataset(cands, group_names=("P0",))
        cfg = RunConfig(k=2, epsilon=0.1, engine="milp", protected=[("P0", 0.5, 1.0)])
        result = select(data, cfg)
        assert result.engine == "milp"
        assert result.weight == WeightVector((1 / 3, 1 / 3, 1 / 3))
        assert result.value == 0.0
        assert result.subset == (0, 1)

    @pytest.mark.parametrize("objective", [W_DIFFERENCE, UTILITY_LOSS])
    def test_fair_reference_resolves_its_ties_once(self, monkeypatch, objective):
        # one tie search both decides that the reference is fair and gives
        # the reported witness
        decompose, calls = verify.decompose_topk, []

        def counted(*args):
            calls.append(args)
            return decompose(*args)

        monkeypatch.setattr(verify, "decompose_topk", counted)
        cands = [
            Candidate(0, (0.9, 0.8, 0.7), {0}),
            Candidate(1, (0.6, 0.5, 0.4), set()),
            Candidate(2, (0.3, 0.2, 0.1), {0}),
            Candidate(3, (0.2, 0.3, 0.2), set()),
        ]
        data = Dataset(cands, group_names=("P0",))
        cfg = RunConfig(k=2, epsilon=0.1, engine="milp", objective=objective,
                        protected=[("P0", 0.5, 1.0)])
        result = select(data, cfg)
        assert result.weight == WeightVector((1 / 3, 1 / 3, 1 / 3))
        assert result.subset == (0, 1)
        assert len(calls) == 1

    def test_sweep_engine_needs_two_attributes(self):
        rng = np.random.default_rng(0)
        data, _ = tied_instance(rng, n=10, d=3, k=3)
        cfg = five_config(engine="sweep2d", protected=[("P0", 0.0, 1.0)])
        data = Dataset(data.candidates, group_names=("P0",) + data.group_names[1:])
        with pytest.raises(ValueError, match="two attributes"):
            select(data, cfg)


class TestResultJson:
    def test_schema_with_result(self, tmp_path):
        data = load_csv(write_five_csv(tmp_path / "t.csv"), protected=("blue",))
        cfg = five_config(seed=9)
        result = select(data, cfg)
        payload = result_json(data, cfg, result, 12.5)
        assert payload["fair"] is True
        assert payload["engine"] == "sweep2d"
        assert payload["weight"][0] == pytest.approx(5.0 / 9.0, abs=1e-9)
        assert payload["objective_value"] == pytest.approx(1.0 / 9.0, abs=1e-9)
        assert payload["group_counts"] == {"blue": 1}
        assert payload["elapsed_ms"] == 12.5 and payload["seed"] == 9
        assert sorted(payload["topk_ids"]) == list(payload["topk_ids"])

    def test_schema_without_result(self, tmp_path):
        data = load_csv(write_five_csv(tmp_path / "t.csv"), protected=("blue",))
        cfg = five_config()
        payload = result_json(data, cfg, None, 3.0)
        assert payload["fair"] is False
        assert payload["weight"] is None and payload["objective_value"] is None
        assert payload["topk_ids"] == [] and payload["group_counts"] == {}
        assert payload["engine"] == "sweep2d"
        assert "stable_weight" not in payload

    def test_counts_by_name_whatever_the_group_order(self):
        # blue is group 1 here; select reorders its own copy, result_json
        # counts in the dataset as given
        cands = [
            Candidate(i, p, {1} if i in (2, 3) else {0}) for i, p in enumerate(FIVE_POINTS)
        ]
        data = Dataset(cands, group_names=("red", "blue"))
        cfg = five_config()
        payload = result_json(data, cfg, select(data, cfg), 0.0)
        assert payload["group_counts"] == {"blue": 1}

    def test_stable_fields_appear(self, tmp_path):
        data = load_csv(write_five_csv(tmp_path / "t.csv"), protected=("blue",))
        cfg = five_config(objective=UTILITY_LOSS, stable=True)
        payload = result_json(data, cfg, select(data, cfg), 1.0)
        assert payload["stable_weight"][0] == pytest.approx(26.0 / 45.0, abs=1e-9)
        assert payload["margin"] == pytest.approx(1.0 / 45.0, abs=1e-9)


class TestBrute2d:
    def test_worked_example_distance(self, five_dataset, five_spec, wo_half):
        region = WeightRegion.box(wo_half, 0.12, W_DIFFERENCE)
        result = brute_select_2d(five_dataset, 2, five_spec, region)
        assert result.value == pytest.approx(1.0 / 9.0, abs=1e-9)
        assert result.weight[0] == pytest.approx(5.0 / 9.0, abs=1e-9)
        assert result.engine == "brute2d"

    def test_worked_example_utility(self, five_dataset, five_spec, wo_half):
        region = WeightRegion.box(wo_half, 0.12, UTILITY_LOSS)
        result = brute_select_2d(five_dataset, 2, five_spec, region)
        assert result.value == pytest.approx(0.025 / 1.45, abs=1e-9)
        assert result.subset == (2, 4)
        assert result.utility == pytest.approx(1.425, abs=1e-12)

    def test_needs_two_attributes(self):
        rng = np.random.default_rng(1)
        data, spec = tied_instance(rng, n=8, d=3, k=2)
        region = WeightRegion.box(WeightVector([1 / 3] * 3), 0.2, W_DIFFERENCE)
        with pytest.raises(ValueError, match="two attributes"):
            brute_select_2d(data, 2, spec, region)

    def test_empty_region_returns_none(self, five_dataset, five_spec, wo_half):
        region = WeightRegion.box(
            wo_half, 0.12, W_DIFFERENCE, extra=((1.0, 0.0, -0.99),)
        )
        assert brute_select_2d(five_dataset, 2, five_spec, region) is None

    @pytest.mark.parametrize("objective", [W_DIFFERENCE, UTILITY_LOSS])
    def test_matches_sweep_on_random_instances(self, objective):
        rng = np.random.default_rng(23)
        agreements = 0
        for trial in range(30):
            data, spec = tied_instance(rng, n=rng.integers(6, 14), k=3)
            wo = WeightVector(rng.dirichlet((4.0, 4.0)))
            region = WeightRegion.box(wo, float(rng.uniform(0.05, 0.3)), objective)
            fast = sweep_select(data, 3, spec, region)
            slow = brute_select_2d(data, 3, spec, region)
            assert (fast is None) == (slow is None), f"trial {trial}"
            if fast is not None:
                assert fast.value == pytest.approx(slow.value, abs=1e-7), f"trial {trial}"
                agreements += 1
        assert agreements >= 12


class TestBench:
    CASES = [
        {
            "n": 12,
            "d": 2,
            "k": 3,
            "epsilon": 0.15,
            "engines": ("sweep2d",),
            "objectives": (W_DIFFERENCE, UTILITY_LOSS),
            "name": "tiny",
        }
    ]

    def test_rows_carry_all_columns(self):
        rows = bench(self.CASES, seed=4, reps=1, sample_count=15)
        assert len(rows) == 2
        for row in rows:
            assert set(row) == set(BENCH_COLUMNS)
            assert row["dataset"] == "tiny" and row["engine"] == "sweep2d"
            assert row["mean_ms"] > 0.0
            assert 0.0 <= row["unfair_sampled"] <= 1.0
        assert BENCH_COLUMNS[-1] == "mean_objective"

    def test_objective_columns_deterministic_per_seed(self):
        a = bench(self.CASES, seed=4, reps=1, sample_count=15)
        b = bench(self.CASES, seed=4, reps=1, sample_count=15)
        for ra, rb in zip(a, b):
            assert ra["found"] == rb["found"]
            assert ra["unfair_sampled"] == rb["unfair_sampled"]
            if not (isinstance(ra["mean_objective"], float) and math.isnan(ra["mean_objective"])):
                assert ra["mean_objective"] == rb["mean_objective"]

    def test_csv_writer_round_trips(self, tmp_path):
        rows = bench(self.CASES, seed=4, reps=1, sample_count=15)
        path = tmp_path / "bench.csv"
        write_bench_csv(path, rows)
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == list(BENCH_COLUMNS)
            back = list(reader)
        assert len(back) == len(rows)
        for raw, row in zip(back, rows):
            assert int(raw["k"]) == row["k"]
            assert float(raw["mean_ms"]) == pytest.approx(row["mean_ms"])
