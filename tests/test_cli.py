"""End-to-end command line tests driven through main(argv)."""

import csv
import json

import pytest

import fairtopk.cli
from fairtopk import verify
from fairtopk.cli import main
from fairtopk.core import (
    BudgetExceededError, FairResult, LpStallError, W_DIFFERENCE, WeightVector,
)
from fairtopk.pipeline import RunConfig, load_csv

from conftest import FIVE_POINTS


def write_data(path, protected_ids=(2, 3)):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,attr1,attr2,groups\n")
        for i, (x, y) in enumerate(FIVE_POINTS):
            cell = "blue" if i in protected_ids else ""
            fh.write(f"{i},{x!r},{y!r},{cell}\n")
    return str(path)


def write_config(path, **overrides):
    payload = {
        "k": 2,
        "epsilon": 0.12,
        "objective": "wdiff",
        "protected": [{"name": "blue", "lower": 0.5, "upper": 1.0}],
    }
    payload.update(overrides)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return str(path)


@pytest.fixture
def workdir(tmp_path):
    return {
        "data": write_data(tmp_path / "data.csv"),
        "config": write_config(tmp_path / "config.json"),
        "tmp": tmp_path,
    }


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class TestVerifyCommand:
    def test_reference_weight_is_unfair(self, workdir, capsys):
        code = main(["verify", "--data", workdir["data"], "--config", workdir["config"]])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fair"] is False
        assert payload["weight"] == [0.5, 0.5]
        assert payload["topk_ids"] == []

    def test_explicit_weight_fair_with_counts(self, workdir):
        out = workdir["tmp"] / "verify.json"
        code = main(
            [
                "verify",
                "--data", workdir["data"],
                "--config", workdir["config"],
                "--weight", "0.58,0.42",
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = read_json(out)
        assert payload["fair"] is True
        assert payload["topk_ids"] == [2, 4]
        assert payload["group_counts"] == {"blue": 1}

    @pytest.mark.parametrize("weight, fair, topk_ids, group_counts", [
        ("0.58,0.42", True, [2, 4], {"blue": 1}),
        ("0.5,0.5", False, [], {}),
    ])
    def test_one_tie_search_per_answer(self, workdir, capsys, monkeypatch,
                                       weight, fair, topk_ids, group_counts):
        decompose, calls = verify.decompose_topk, []

        def counted(*args):
            calls.append(args)
            return decompose(*args)

        monkeypatch.setattr(verify, "decompose_topk", counted)
        code = main(["verify", "--data", workdir["data"], "--config", workdir["config"],
                     "--weight", weight])
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {
            "fair": fair,
            "weight": [float(v) for v in weight.split(",")],
            "k": 2,
            "topk_ids": topk_ids,
            "group_counts": group_counts,
        }
        assert len(calls) == 1


class TestSelectCommand:
    def test_distance_objective(self, workdir):
        out = workdir["tmp"] / "select.json"
        code = main(
            ["select", "--data", workdir["data"], "--config", workdir["config"],
             "--out", str(out)]
        )
        assert code == 0
        payload = read_json(out)
        assert payload["fair"] is True
        assert payload["engine"] == "sweep2d"
        assert payload["objective_value"] == pytest.approx(1.0 / 9.0, abs=1e-9)
        assert payload["weight"][0] == pytest.approx(5.0 / 9.0, abs=1e-9)
        assert payload["group_counts"]["blue"] in (1, 2)

    def test_stable_utility_objective(self, workdir, tmp_path):
        config = write_config(
            tmp_path / "cfg2.json", objective="utility", stable=True
        )
        out = workdir["tmp"] / "select2.json"
        code = main(
            ["select", "--data", workdir["data"], "--config", config,
             "--out", str(out)]
        )
        assert code == 0
        payload = read_json(out)
        assert payload["topk_ids"] == [2, 4]
        assert payload["stable_weight"][0] == pytest.approx(26.0 / 45.0, abs=1e-9)
        assert payload["margin"] == pytest.approx(1.0 / 45.0, abs=1e-9)

    def test_infeasible_bounds_exit_two(self, workdir, tmp_path, capsys):
        config = write_config(
            tmp_path / "cfg3.json",
            protected=[{"name": "blue", "lower": 1.0, "upper": 1.0}],
        )
        code = main(["select", "--data", workdir["data"], "--config", config])
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["fair"] is False and payload["weight"] is None


class TestPreprocessCommand:
    def test_normalize_and_prune(self, tmp_path, capsys):
        src = tmp_path / "raw.csv"
        with open(src, "w", encoding="utf-8") as fh:
            fh.write("id,attr1,attr2,groups\n")
            rows = [
                (0, 10.0, 50.0, "a"),
                (1, 2.0, 10.0, ""),
                (2, 9.0, 45.0, "a"),
                (3, 1.0, 5.0, "b"),
            ]
            for cid, x, y, cell in rows:
                fh.write(f"{cid},{x},{y},{cell}\n")
        out = tmp_path / "clean.csv"
        code = main(
            ["preprocess", "--data", str(src), "--out-data", str(out),
             "--normalize", "--kskyband", "2"]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_in"] == 4 and summary["normalized"] is True
        cleaned = load_csv(out)
        assert summary["n_out"] == len(cleaned) <= 4
        assert cleaned.points.min() >= 0.0 and cleaned.points.max() <= 1.0


class TestGenCommand:
    def test_setcover_emits_data_and_config(self, tmp_path, capsys):
        data_path = tmp_path / "sc.csv"
        config_path = tmp_path / "sc.json"
        code = main(
            ["gen", "--kind", "setcover", "--seed", "3",
             "--out-data", str(data_path), "--out-config", str(config_path)]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["kind"] == "setcover" and summary["k"] >= 1
        cfg = RunConfig.from_json(read_json(config_path))
        data = load_csv(data_path, protected=cfg.names)
        assert len(data) == summary["n"]

    @pytest.mark.parametrize("kind,flags", [
        ("ov", ["--left", "4", "--right", "4", "--dim", "4"]),
        ("tov", ["--t", "3", "--per-set", "3", "--dim", "4"]),
    ])
    def test_orthogonality_kinds(self, tmp_path, capsys, kind, flags):
        data_path = tmp_path / f"{kind}.csv"
        code = main(
            ["gen", "--kind", kind, "--seed", "5", "--out-data", str(data_path)]
            + flags
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["kind"] == kind
        assert isinstance(summary["expected"], bool)
        assert data_path.exists()


class TestBenchCommand:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main(
            ["bench", "--out", str(out), "--cases", "10:2:2:0.15",
             "--engines", "sweep2d", "--objectives", "wdiff", "--reps", "1"]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["rows"] == 1
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1 and rows[0]["engine"] == "sweep2d"

    def test_malformed_case_exits_one(self, tmp_path, capsys):
        code = main(["bench", "--out", str(tmp_path / "b.csv"), "--cases", "10:2"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_engine_exits_one(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        code = main(["bench", "--out", str(out), "--cases", "10:3:3", "--engines", "bogus",
                     "--reps", "1"])
        assert code == 1
        assert "error: unknown engine 'bogus'" in capsys.readouterr().err
        assert not out.exists()


class TestOracleCommand:
    def test_brute_matches_select(self, workdir, capsys):
        code = main(["oracle", "--data", workdir["data"], "--config", workdir["config"]])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fair"] is False
        brute = payload["brute"]
        assert brute["fair"] is True
        assert brute["objective_value"] == pytest.approx(1.0 / 9.0, abs=1e-9)
        assert brute["weight"][0] == pytest.approx(5.0 / 9.0, abs=1e-9)


class TestErrorPaths:
    def test_missing_data_file(self, workdir, capsys):
        code = main(["verify", "--data", "/nonexistent.csv", "--config", workdir["config"]])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_config_key(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"k": 2, "epsilon": 0.1, "mystery": 1}')
        code = main(["verify", "--data", workdir["data"], "--config", str(bad)])
        assert code == 1
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        '{"k": "2", "epsilon": 0.1}',
        '{"k": 2.5, "epsilon": 0.1}',
        '{"k": true, "epsilon": 0.1}',
        '{"k": 2, "epsilon": "0.1"}',
        '{"k": 2, "epsilon": 0.1, "protected": [{"name": "blue", "lower": 0.1}]}',
        '{"k": 2, "epsilon": 0.1, "protected": [["blue", 0.1]]}',
        '{"k": 2, "epsilon": 0.1, "wo": 5}',
        '[2, 0.1]',
        '{"epsilon": 0.1}',
    ])
    def test_malformed_config_value(self, workdir, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code = main(["verify", "--data", workdir["data"], "--config", str(bad)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err

    def test_protected_name_given_twice(self, workdir, tmp_path, capsys):
        entry = {"name": "blue", "lower": 0.5, "upper": 1.0}
        config = write_config(tmp_path / "twice.json", protected=[entry, entry])
        code = main(["select", "--data", workdir["data"], "--config", config])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: protected group 'blue' is named twice\n"

    def test_malformed_csv_reports_line(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,attr1,attr2,groups\n0,0.1,nope,\n")
        code = main(["verify", "--data", str(bad), "--config", workdir["config"]])
        assert code == 1
        assert "line 2" in capsys.readouterr().err


class TestSearchFailures:
    """A spent budget exits 3 and keeps its partial result; a stalled LP exits 4."""

    def raising(self, monkeypatch, exc):
        def select(data, config):
            raise exc

        monkeypatch.setattr(fairtopk.cli, "select", select)

    def test_budget_writes_the_partial_result(self, workdir, monkeypatch, capsys):
        partial = FairResult(WeightVector((0.6, 0.4)), W_DIFFERENCE, 0.2, (2, 4), "klevel")
        self.raising(monkeypatch, BudgetExceededError("swap budget 1 exceeded", partial=partial))
        out = workdir["tmp"] / "partial.json"
        code = main(["select", "--data", workdir["data"], "--config", workdir["config"],
                     "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == "error: swap budget 1 exceeded\n"
        payload = read_json(out)
        assert payload["partial"] is True and payload["fair"] is True
        assert payload["weight"] == [0.6, 0.4] and payload["topk_ids"] == [2, 4]
        assert payload["objective_value"] == 0.2 and payload["group_counts"] == {"blue": 1}

    def test_budget_without_a_partial_result_writes_nothing(self, workdir, monkeypatch, capsys):
        self.raising(monkeypatch, BudgetExceededError("node budget 1 exceeded"))
        code = main(["select", "--data", workdir["data"], "--config", workdir["config"]])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: node budget 1 exceeded\n"

    def test_lp_stall_exits_four(self, workdir, monkeypatch, capsys):
        self.raising(monkeypatch, LpStallError("simplex exceeded 20000 pivots in phase 2"))
        code = main(["select", "--data", workdir["data"], "--config", workdir["config"]])
        assert code == 4
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: simplex exceeded")
