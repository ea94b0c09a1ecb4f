"""Command wiring: config validation, command composition, report coverage."""

from __future__ import annotations

import csv
import json
import time
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from conftest import make_record, synthetic_matrix

from reviewtime import dataset as ds
from reviewtime.cli import build_parser, main
from reviewtime.config import load_run_config
from reviewtime.errors import ConfigError
from reviewtime.evaluation import EvalRecord, EvalResult
from reviewtime.stats import compare_pairwise


def write_config(path: Path, base_url: str | None = None, repeats: int = 2,
                 pipelines=None, out_dir: str = "out") -> Path:
    doc = {
        "seed": 7,
        "out_dir": out_dir,
        "filter": {"min_hours": 24.0, "max_hours": 504.0},
        "evaluation": {
            "repeats": repeats,
            "pipelines": pipelines if pipelines is not None else [
                {"algorithm": "LR", "hyperparameters": {}},
                {"algorithm": "KNN", "grid": {"k": [1, 5]}},
            ],
        },
    }
    if base_url:
        doc["crawl"] = {"base_url": base_url, "page_size": 10,
                        "min_request_interval_ms": 0}
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return path


class TestConfig:
    def test_unknown_top_level_key(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"sede": 1}', encoding="utf-8")
        with pytest.raises(ConfigError, match="sede"):
            load_run_config(path)

    def test_unknown_nested_key(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"filter": {"min_hour": 10}}', encoding="utf-8")
        with pytest.raises(ConfigError, match="min_hour"):
            load_run_config(path)

    def test_per_pipeline_repeats_is_an_unknown_key(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"evaluation": {"pipelines": [
            {"algorithm": "LR", "repeats": 2}]}}), encoding="utf-8")
        with pytest.raises(ConfigError,
                           match="unknown key 'repeats' in evaluation.pipelines"):
            load_run_config(path)

    def test_base_seed_is_an_unknown_key(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"evaluation": {"base_seed": 11}}', encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown key 'base_seed' in evaluation"):
            load_run_config(path)

    def test_syntax_error_names_line(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{\n  "seed": 1,\n  broken\n}', encoding="utf-8")
        with pytest.raises(ConfigError, match="line 3"):
            load_run_config(path)

    def test_bad_pipeline_algorithm(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "evaluation": {"pipelines": [{"algorithm": "XGB"}]},
        }), encoding="utf-8")
        with pytest.raises(ConfigError, match="algorithm"):
            load_run_config(path)

    def test_seed_override(self, tmp_path):
        path = write_config(tmp_path / "c.json")
        config = load_run_config(path, seed_override=99)
        assert config.seed == 99

    def test_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text('{"sede": 1}', encoding="utf-8")
        code = main(["filter", "--config", str(path), "--in", "x.jsonl"])
        assert code == 2
        assert "sede" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, where", [
        ({"evaluation": {"pipelines": [
            {"algorithm": "GB", "hyperparameters": {"depth": 3}}]}},
         "evaluation.pipelines[0]"),
        ({"evaluation": {"pipelines": [{"algorithm": "KNN", "grid": {"k": []}}]}},
         "evaluation.pipelines[0]"),
        ({"evaluation": {"pipelines": [{"algorithm": "KNN", "grid": {"kk": [1]}}]}},
         "evaluation.pipelines[0]"),
        ({"features": {"window_days": "abc"}}, "features"),
        ({"seed": "x"}, "top level"),
        ({"filter": 3}, "filter"),
        ({"crawl": {"base_url": 5}}, "crawl"),
        ({"evaluation": {"pipelines": [
            {"algorithm": "KNN", "hyperparameters": {"k": "x"}}]}},
         "evaluation.pipelines[0]"),
        ({"evaluation": {"pipelines": [
            {"algorithm": "KNN", "hyperparameters": {"k": True}}]}},
         "evaluation.pipelines[0]"),
        ({"evaluation": {"pipelines": [
            {"algorithm": "KNN", "hyperparameters": {"k": 2.5}}]}},
         "evaluation.pipelines[0]"),
        ({"evaluation": {"pipelines": [
            {"algorithm": "RR", "hyperparameters": {"alpha": False}}]}},
         "evaluation.pipelines[0]"),
        ({"evaluation": {"pipelines": [{"algorithm": "KNN", "grid": {"k": ["x", 3]}}]}},
         "evaluation.pipelines[0]"),
        ({"evaluation": {"pipelines": [
            {"algorithm": "KNN", "hyperparameters": {"k": 3}, "grid": {"k": [1, 5]}}]}},
         "evaluation.pipelines[0]"),
        ({"evaluation": {"repeats": 2.7}}, "evaluation"),
        ({"evaluation": {"repeats": True}}, "evaluation"),
        ({"evaluation": {"pipelines": [{"algorithm": "LR", "normalizer": "z"}]}},
         "evaluation.pipelines[0]"),
        ({"features": {"window_days": 0}}, "features"),
        ({"features": {"window_days": -5}}, "features"),
        ({"evaluation": {"pipelines": [
            {"algorithm": "GB", "hyperparameters": {"max_depth": None}}]}},
         "evaluation.pipelines[0]"),
        ({"evaluation": {"pipelines": [
            {"algorithm": "AdaDT", "grid": {"max_depth": [None, 3]}}]}},
         "evaluation.pipelines[0]"),
        ({"keywords": {"refactoring_keywords": "refactor"}}, "keywords"),
        ({"crawl": {"base_url": "http://x.invalid", "bot_accounts": "Jenkins"}},
         "crawl"),
        ({"crawl": {"base_url": "http://x.invalid", "bot_accounts": ["bot", 5]}},
         "crawl"),
        ({"seed": 2.5}, "top level"),
        ({"seed": True}, "top level"),
        ({"seed": -1}, "top level"),
        ({"evaluation": {"repeats": 0}}, "evaluation"),
        ({"evaluation": {"pipelines": 5}}, "evaluation"),
        ({"filter": {"drop_reopened": "no"}}, "filter"),
        ({"filter": {"drop_self_reviewed": 0}}, "filter"),
        ({"crawl": {"base_url": "http://x.invalid", "fetch_file_diffs": "no"}},
         "crawl"),
        ({"crawl": {"base_url": "http://x.invalid", "page_size": 2.5}}, "crawl"),
        ({"crawl": {"base_url": "http://x.invalid", "page_size": True}}, "crawl"),
        ({"crawl": {"base_url": "http://x.invalid", "max_retries": 1.5}}, "crawl"),
        ({"crawl": {"base_url": "http://x.invalid", "max_retries": False}}, "crawl"),
        ({"crawl": {"base_url": "http://x.invalid", "max_changes": 10.5}}, "crawl"),
        ({"crawl": {"base_url": "http://x.invalid", "max_changes": True}}, "crawl"),
        ({"crawl": {"base_url": "http://x.invalid", "request_timeout": "30"}},
         "crawl"),
        ({"crawl": {"base_url": "http://x.invalid", "request_timeout": True}},
         "crawl"),
        ({"crawl": {"base_url": "http://x.invalid", "request_timeout": 0}}, "crawl"),
        ({"crawl": {"base_url": "http://x.invalid", "min_request_interval_ms": True}},
         "crawl"),
        ({"filter": {"min_hours": True}}, "filter"),
        ({"filter": {"min_hours": 0, "max_hours": True}}, "filter"),
        ({"crawl": {"base_url": "http://x.invalid", "query": 5}}, "crawl"),
    ])
    def test_malformed_value_is_a_config_error(self, tmp_path, capsys, doc, where):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            load_run_config(path)
        assert str(exc.value).startswith(where)
        code = main(["filter", "--config", str(path), "--in", "x.jsonl",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_numeric_hyperparameters_load(self, tmp_path):
        path = write_config(tmp_path / "c.json", pipelines=[
            {"algorithm": "RR", "hyperparameters": {"alpha": 1}},
            {"algorithm": "DT", "grid": {"max_depth": [None, 4]}},
        ])
        rr, dt = load_run_config(path).pipelines
        assert rr.spec.hyperparameters["alpha"] == 1
        assert dt.grid.points() == [{"max_depth": None}, {"max_depth": 4}]

    def test_negative_seed_override_is_a_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json")
        with pytest.raises(ConfigError, match="^top level: seed"):
            load_run_config(path, seed_override=-1)
        code = main(["filter", "--config", str(path), "--seed", "-1",
                     "--in", "x.jsonl", "--out", str(tmp_path / "out")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["filter", "--in", "x.jsonl"],
        ["featurize", "--in", "x.jsonl"],
        ["evaluate", "--features", "x.csv"],
        ["compare", "x.csv", "y.csv"],
        ["ablate", "--features", "x.csv"],
        ["rank", "--features", "x.csv"],
        ["report"],
    ])
    def test_jobs_only_on_crawl(self, tmp_path, capsys, argv):
        path = write_config(tmp_path / "c.json", out_dir=str(tmp_path / "out"))
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--config", str(path), "--jobs", "2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        args = build_parser().parse_args(["crawl", "--config", str(path), "--jobs", "2"])
        assert args.jobs == 2


@pytest.fixture()
def crawled_dir(fixture_server, tmp_path):
    config_path = write_config(tmp_path / "run.json", fixture_server.base_url,
                               out_dir=str(tmp_path / "out"))
    code = main(["crawl", "--config", str(config_path),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    return tmp_path, config_path


class TestCommands:
    def test_filter_accounting(self, crawled_dir, capsys):
        tmp_path, config_path = crawled_dir
        out = tmp_path / "out"
        code = main(["filter", "--config", str(config_path),
                     "--in", str(out / "changes.jsonl"), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "filter_report.json").read_text())
        total = sum(report.values())
        assert total == 25

    def test_pipeline_composition(self, crawled_dir):
        tmp_path, config_path = crawled_dir
        out = tmp_path / "out"
        assert main(["filter", "--config", str(config_path),
                     "--in", str(out / "changes.jsonl"), "--out", str(out)]) == 0
        assert main(["featurize", "--config", str(config_path),
                     "--in", str(out / "filtered.jsonl"),
                     "--history", str(out / "changes.jsonl"),
                     "--out", str(out)]) == 0
        assert main(["evaluate", "--config", str(config_path),
                     "--features", str(out / "features.csv"),
                     "--out", str(out)]) == 0
        for name in ("LR", "KNN"):
            lines = (out / f"eval_{name}.csv").read_text().strip().splitlines()
            assert len(lines) == 1 + 2 * 5  # header + repeats x iterations
        assert main(["compare", "--config", str(config_path),
                     "--out", str(out),
                     str(out / "eval_LR.csv"), str(out / "eval_KNN.csv")]) == 0
        assert (out / "comparisons.csv").exists()
        assert main(["rank", "--config", str(config_path),
                     "--features", str(out / "features.csv"),
                     "--by", "dimension", "--out", str(out)]) == 0
        assert (out / "loco_dimension.csv").exists()
        assert main(["report", "--config", str(config_path),
                     "--out", str(out)]) == 0
        report = (out / "report.md").read_text()
        artifacts = [p for p in out.rglob("*")
                     if p.is_file() and "meta" not in p.parts
                     and p.name != "report.md"]
        for artifact in artifacts:
            rel = artifact.relative_to(out).as_posix()
            assert report.count(f"[{rel}]") == 1, rel

    def test_replay_is_byte_identical(self, crawled_dir):
        tmp_path, config_path = crawled_dir
        out = tmp_path / "out"
        assert main(["filter", "--config", str(config_path),
                     "--in", str(out / "changes.jsonl"), "--out", str(out)]) == 0
        assert main(["featurize", "--config", str(config_path),
                     "--in", str(out / "filtered.jsonl"),
                     "--history", str(out / "changes.jsonl"),
                     "--out", str(out)]) == 0
        first = {}
        for run in range(2):
            assert main(["evaluate", "--config", str(config_path),
                         "--features", str(out / "features.csv"),
                         "--out", str(out)]) == 0
            payloads = {p.name: p.read_bytes()
                        for p in out.glob("eval_*.csv")}
            payloads["eval_summary.json"] = (out / "eval_summary.json").read_bytes()
            if run == 0:
                first = payloads
            else:
                assert payloads == first

    def test_missing_input_fails_cleanly(self, tmp_path, capsys):
        config_path = write_config(tmp_path / "c.json")
        code = main(["filter", "--config", str(config_path),
                     "--in", str(tmp_path / "absent.jsonl"),
                     "--out", str(tmp_path / "out")])
        assert code == 1

    def test_meta_records_start_time(self, tmp_path, monkeypatch):
        ds.write_dataset([make_record()], tmp_path / "in.jsonl")
        read = ds.read_dataset

        def slow_read(path):
            time.sleep(0.5)
            return read(path)

        monkeypatch.setattr(ds, "read_dataset", slow_read)
        out = tmp_path / "out"
        config_path = write_config(tmp_path / "c.json", out_dir=str(out))
        assert main(["filter", "--config", str(config_path),
                     "--in", str(tmp_path / "in.jsonl")]) == 0
        returned = datetime.now(timezone.utc)
        meta = json.loads((out / "meta" / "filter.json").read_text())
        started = datetime.fromisoformat(meta["started_at"])
        assert meta["duration_seconds"] >= 0.5
        # the duration is rounded to the millisecond
        finished = started + timedelta(seconds=meta["duration_seconds"] - 0.001)
        assert finished <= returned

    def test_evaluate_with_every_iteration_failed(self, tmp_path, capsys):
        out = tmp_path / "out"
        data = synthetic_matrix(n=60)
        data.X[:, 0] = np.nan  # every training set is non-finite
        data.to_csv(tmp_path / "features.csv")
        config_path = write_config(
            tmp_path / "c.json", out_dir=str(out),
            pipelines=[{"algorithm": "KNN", "hyperparameters": {"k": 3}}])
        code = main(["evaluate", "--config", str(config_path),
                     "--features", str(tmp_path / "features.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert "KNN" in err
        records = EvalResult.from_csv(out / "eval_KNN.csv").records
        assert records and all(r.failed for r in records)
        assert records[0].error in err
        summary = json.loads((out / "eval_summary.json").read_text())
        assert summary["KNN"]["mae"] == {"mean": None, "median": None}
        assert main(["report", "--config", str(config_path)]) == 0
        assert "| KNN | n/a | n/a | n/a | n/a |" in (out / "report.md").read_text()

    def test_compare_pairs_samples_by_key(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        maes = {"A": rng.uniform(5, 10, 10), "B": rng.uniform(5, 10, 10)}
        failed_at = {"A": {(0, 1)}, "B": {(1, 3)}}
        for name, values in maes.items():
            records = []
            for i, value in enumerate(values):
                key = divmod(i, 5)
                failed = key in failed_at[name]
                records.append(EvalRecord(
                    *key, float("nan") if failed else float(value), 0.5, 0.1,
                    20, 5, (0, 20), (20, 25), failed, "boom" if failed else ""))
            EvalResult(name, records).to_csv(tmp_path / f"eval_{name}.csv")
        out = tmp_path / "out"
        config_path = write_config(tmp_path / "c.json", out_dir=str(out))
        assert main(["compare", "--config", str(config_path),
                     str(tmp_path / "eval_A.csv"), str(tmp_path / "eval_B.csv")]) == 0
        assert "[(0, 1), (1, 3)]" in capsys.readouterr().out
        kept = [i for i in range(10) if i not in (1, 8)]
        expected = compare_pairwise({name: values[kept]
                                     for name, values in maes.items()})[0]
        with (out / "comparisons.csv").open() as fh:
            row = list(csv.DictReader(fh))[0]
        assert float(row["w"]) == expected.w_statistic
        assert float(row["p_value"]) == expected.p_value
        assert float(row["cliffs_d"]) == expected.cliffs_d


class TestMalformedInput:
    def test_crawl_resume_names_the_corrupt_line(self, crawled_dir, capsys):
        tmp_path, config_path = crawled_dir
        path = tmp_path / "out" / "changes.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = "{broken"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["crawl", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert "SchemaError" in err and "line 3" in err

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.pop("project"),
        lambda doc: doc.update(owner="x"),
        lambda doc: doc.update(count="25"),
    ], ids=["missing-key", "unknown-key", "bad-value"])
    def test_filter_rejects_a_malformed_manifest(self, tmp_path, capsys, edit):
        path = tmp_path / "in.jsonl"
        ds.write_dataset([make_record(1)], path, project="p")
        manifest = tmp_path / "manifest.json"
        doc = json.loads(manifest.read_text(encoding="utf-8"))
        edit(doc)
        manifest.write_text(json.dumps(doc), encoding="utf-8")
        config_path = write_config(tmp_path / "c.json", out_dir=str(tmp_path / "out"))
        assert main(["filter", "--config", str(config_path), "--in", str(path)]) == 1
        err = capsys.readouterr().err
        assert "SchemaError" in err and str(manifest) in err

    def test_compare_names_the_malformed_line(self, tmp_path, capsys):
        records = [EvalRecord(0, i, 1.0 + i, 0.5, 0.1, 20, 5, (0, 20), (20, 25))
                   for i in range(5)]
        for name in ("A", "B"):
            EvalResult(name, records).to_csv(tmp_path / f"eval_{name}.csv")
        path = tmp_path / "eval_B.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[3] = lines[3].replace("3.0", "x", 1)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        config_path = write_config(tmp_path / "c.json", out_dir=str(tmp_path / "out"))
        assert main(["compare", "--config", str(config_path),
                     str(tmp_path / "eval_A.csv"), str(path)]) == 1
        err = capsys.readouterr().err
        assert "SchemaError" in err and f"{path} line 4" in err

    @pytest.mark.parametrize("field, value", [
        ("status", "BOGUS"),
        ("created_at", "2021-04-26 10:00"),
        ("created_at", "2021-4-26T10:0:0.1Z"),
        ("files", 3),
        ("owner_id", "100"),
        ("reviewers", [101]),
    ])
    def test_filter_names_the_malformed_line(self, tmp_path, capsys, field, value):
        path = tmp_path / "in.jsonl"
        ds.write_dataset([make_record(1), make_record(2)], path)
        lines = path.read_text(encoding="utf-8").splitlines()
        doc = json.loads(lines[1])
        doc[field] = value
        path.write_text(lines[0] + "\n" + json.dumps(doc) + "\n", encoding="utf-8")
        config_path = write_config(tmp_path / "c.json", out_dir=str(tmp_path / "out"))
        assert main(["filter", "--config", str(config_path), "--in", str(path)]) == 1
        err = capsys.readouterr().err
        assert "SchemaError" in err and "line 2" in err

    def test_featurize_names_the_malformed_segments(self, tmp_path, capsys):
        path = tmp_path / "in.jsonl"
        ds.write_dataset([make_record(1), make_record(2)], path)
        lines = path.read_text(encoding="utf-8").splitlines()
        doc = json.loads(lines[1])
        doc["files"][0]["segments"] = [1, "x", 0]
        path.write_text(lines[0] + "\n" + json.dumps(doc) + "\n", encoding="utf-8")
        config_path = write_config(tmp_path / "c.json", out_dir=str(tmp_path / "out"))
        assert main(["featurize", "--config", str(config_path), "--in", str(path)]) == 1
        err = capsys.readouterr().err
        assert "SchemaError" in err and "line 2: segments" in err

    @pytest.mark.parametrize("last_cells", [[], ["abc"]],
                             ids=["short-row", "non-numeric-cell"])
    def test_evaluate_names_the_malformed_row(self, tmp_path, capsys, last_cells):
        path = tmp_path / "features.csv"
        synthetic_matrix(n=60).to_csv(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[5] = ",".join(lines[5].split(",")[:-1] + last_cells)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        config_path = write_config(tmp_path / "c.json", out_dir=str(tmp_path / "out"))
        assert main(["evaluate", "--config", str(config_path),
                     "--features", str(path)]) == 1
        err = capsys.readouterr().err
        assert "SchemaError" in err and f"{path} line 6" in err

    @pytest.mark.parametrize("edit", [lambda cells: cells + ["extra"],
                                      lambda cells: cells[:-1]],
                             ids=["cell-too-many", "cell-too-few"])
    def test_compare_names_a_row_of_the_wrong_width(self, tmp_path, capsys, edit):
        records = [EvalRecord(0, i, 1.0 + i, 0.5, 0.1, 20, 5, (0, 20), (20, 25))
                   for i in range(5)]
        for name in ("A", "B"):
            EvalResult(name, records).to_csv(tmp_path / f"eval_{name}.csv")
        path = tmp_path / "eval_B.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = ",".join(edit(lines[2].split(",")))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        config_path = write_config(tmp_path / "c.json", out_dir=str(tmp_path / "out"))
        assert main(["compare", "--config", str(config_path),
                     str(tmp_path / "eval_A.csv"), str(path)]) == 1
        err = capsys.readouterr().err
        assert "SchemaError" in err and f"{path} line 3" in err

    @pytest.mark.parametrize("command, name, line", [
        ("evaluate", "features.csv", 4), ("compare", "eval_B.csv", 3)])
    def test_a_result_file_that_is_not_utf8_names_the_line(self, tmp_path, capsys,
                                                          command, name, line):
        synthetic_matrix(n=60).to_csv(tmp_path / "features.csv")
        records = [EvalRecord(0, i, 1.0 + i, 0.5, 0.1, 20, 5, (0, 20), (20, 25))
                   for i in range(5)]
        for algo in ("A", "B"):
            EvalResult(algo, records).to_csv(tmp_path / f"eval_{algo}.csv")
        path = tmp_path / name
        lines = path.read_bytes().split(b"\n")
        lines[line - 1] = lines[line - 1].replace(b",", b",\xe9", 1)
        path.write_bytes(b"\n".join(lines))
        config_path = write_config(tmp_path / "c.json", out_dir=str(tmp_path / "out"))
        args = ["--features", str(path)] if command == "evaluate" \
            else [str(tmp_path / "eval_A.csv"), str(path)]
        assert main([command, "--config", str(config_path), *args]) == 1
        err = capsys.readouterr().err
        assert "SchemaError" in err and f"{path} line {line}" in err

    def test_filter_names_a_dataset_line_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "in.jsonl"
        ds.write_dataset([make_record(1), make_record(2)], path)
        lines = path.read_bytes().split(b"\n")
        lines[1] = lines[1].replace(b"Fix crash", b"Fix \xff crash", 1)
        path.write_bytes(b"\n".join(lines))
        config_path = write_config(tmp_path / "c.json", out_dir=str(tmp_path / "out"))
        assert main(["filter", "--config", str(config_path), "--in", str(path)]) == 1
        err = capsys.readouterr().err
        assert "SchemaError" in err and f"{path} line 2" in err

    def test_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_bytes(b'{"out_dir": "caf\xe9"}')
        assert main(["filter", "--config", str(path), "--in", "x.jsonl"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(path) in err

    def test_compare_with_no_common_key(self, tmp_path, capsys):
        records = [EvalRecord(0, i, 1.0 + i, 0.5, 0.1, 20, 5, (0, 20), (20, 25))
                   for i in range(5)]
        EvalResult("LR", records).to_csv(tmp_path / "eval_LR.csv")
        EvalResult("GB", []).to_csv(tmp_path / "eval_GB.csv")
        config_path = write_config(tmp_path / "c.json", out_dir=str(tmp_path / "out"))
        assert main(["compare", "--config", str(config_path),
                     str(tmp_path / "eval_LR.csv"), str(tmp_path / "eval_GB.csv")]) == 1
        err = capsys.readouterr().err
        assert "no (repeat, iteration) is scored in every result file" in err

    @pytest.mark.parametrize("text", ['{"KNN": {"mae": ', '{"KNN": {"sa": {}}}'],
                             ids=["not-json", "no-mae"])
    def test_report_names_a_malformed_summary(self, tmp_path, capsys, text):
        out = tmp_path / "out"
        out.mkdir()
        (out / "eval_summary.json").write_text(text, encoding="utf-8")
        config_path = write_config(tmp_path / "c.json", out_dir=str(out))
        assert main(["report", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert "SchemaError" in err and str(out / "eval_summary.json") in err
