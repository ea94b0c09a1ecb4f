"""Command wiring: config validation, command composition, report coverage."""

from __future__ import annotations

import base64
import csv
import json
import socket
import time
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from pathlib import Path
from types import SimpleNamespace
from urllib.parse import urlparse

import numpy as np
import pytest
import requests
from conftest import make_message, make_record, synthetic_matrix

from reviewtime import dataset as ds
from reviewtime import gerrit
from reviewtime.cli import build_parser, main
from reviewtime.config import load_run_config
from reviewtime.errors import ConfigError
from reviewtime.evaluation import EvalRecord, EvalResult
from reviewtime.features import DIMENSIONS
from reviewtime.gerrit_fixture import (FixtureGerritServer, _FixtureHandler,
                                       generate_corpus, render_patch)
from reviewtime.stats import compare_pairwise


NO_SERVER = "http://127.0.0.1:1"  # nothing listens on port 1


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

    def test_fetch_file_diffs_is_an_unknown_key(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text('{"crawl": {"base_url": "http://x.invalid", '
                        '"fetch_file_diffs": true}}', encoding="utf-8")
        with pytest.raises(ConfigError,
                           match="unknown key 'fetch_file_diffs' in crawl"):
            load_run_config(path)
        assert main(["crawl", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

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
        ({"crawl": {"base_url": "http://x.invalid", "max_retries": -1}}, "crawl"),
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
        ({"evaluation": {"pipelines": [
            {"algorithm": "KNN", "hyperparameters": {"k": 1}},
            {"algorithm": "LR"},
            {"algorithm": "KNN", "hyperparameters": {"k": 20}}]}},
         "evaluation.pipelines[2]"),
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

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_crawl_jobs_below_one_is_a_usage_error(self, capsys, jobs):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["crawl", "--config", "c.json", "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_each_command_takes_its_own_options(self):
        common = {"-h", "--help", "--config", "--seed", "--out"}
        expected = {
            "crawl": {"--jobs"},
            "filter": {"--in"},
            "featurize": {"--in", "--history"},
            "evaluate": {"--features"},
            "compare": {"results"},
            "ablate": {"--features"},
            "rank": {"--features", "--by"},
            "report": set(),
        }
        commands = next(action.choices for action in build_parser()._actions
                        if isinstance(action.choices, dict))
        assert list(commands) == list(expected)
        for name, parser in commands.items():
            found = {s for action in parser._actions
                     for s in action.option_strings or [action.dest]}
            assert found == common | expected[name], name


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

    def test_crawl_resumed_after_a_filter_drops_the_filter_manifest(
            self, fixture_server, tmp_path):
        # filter writes its manifest into the crawl's directory, over the
        # crawl's own
        config_path = write_config(tmp_path / "run.json", fixture_server.base_url)
        doc = json.loads(config_path.read_text())
        doc["crawl"]["max_changes"] = 20
        config_path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        crawl = ["crawl", "--config", str(config_path), "--out", str(out)]
        assert main(crawl) == 0
        crawled = ds.read_manifest(out / "changes.jsonl")
        assert main(["filter", "--config", str(config_path),
                     "--in", str(out / "changes.jsonl"), "--out", str(out)]) == 0
        filtered = ds.read_manifest(out / "changes.jsonl")
        assert filtered.filter_policy is not None and filtered.count != 20
        assert main(crawl) == 0
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["filter_policy"] is None and doc["count"] == 20
        resumed = ds.read_manifest(out / "changes.jsonl")
        assert resumed.created_at > filtered.created_at
        assert replace(resumed, created_at=crawled.created_at) == crawled

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

    def test_ablate_compares_all_with_each_dimension(self, crawled_dir):
        tmp_path, config_path = crawled_dir
        out = tmp_path / "out"
        assert main(["filter", "--config", str(config_path),
                     "--in", str(out / "changes.jsonl"), "--out", str(out)]) == 0
        assert main(["featurize", "--config", str(config_path),
                     "--in", str(out / "filtered.jsonl"),
                     "--history", str(out / "changes.jsonl"),
                     "--out", str(out)]) == 0
        assert main(["ablate", "--config", str(config_path),
                     "--features", str(out / "features.csv"),
                     "--out", str(out)]) == 0
        for mode in ("all", *DIMENSIONS):
            assert (out / f"ablation_{mode}.csv").exists(), mode
        with (out / "ablation_comparisons.csv").open() as fh:
            pairs = [(row["left"], row["right"]) for row in csv.DictReader(fh)]
        assert pairs == [("all", dim) for dim in DIMENSIONS]

    def test_filter_prints_each_rule_count_in_order(self, tmp_path, capsys):
        owner_only = (make_message(100),)
        records = [
            make_record(1, duration_hours=None),
            *(make_record(n, duration_hours=100.0, reopened=True) for n in range(2, 4)),
            *(make_record(n, duration_hours=100.0, messages=owner_only)
              for n in range(4, 7)),
            *(make_record(n, duration_hours=10.0) for n in range(7, 11)),
            *(make_record(n, duration_hours=600.0) for n in range(11, 16)),
            *(make_record(n, duration_hours=100.0) for n in range(16, 22)),
        ]
        ds.write_dataset(records, tmp_path / "in.jsonl")
        out = tmp_path / "out"
        config_path = write_config(tmp_path / "c.json", out_dir=str(out))
        assert main(["filter", "--config", str(config_path),
                     "--in", str(tmp_path / "in.jsonl")]) == 0
        assert capsys.readouterr().out == (
            "kept 6 of 21 records (incomplete 1, reopened 2, self 3, short 4, long 5)"
            f" -> {out / 'filtered.jsonl'}\n")

    def test_report_of_a_run_under_a_directory_named_meta(self, tmp_path, capsys):
        run = tmp_path / "meta" / "run"
        run.mkdir(parents=True)
        (run / "features.csv").write_text("number\n", encoding="utf-8")
        config_path = write_config(tmp_path / "c.json", out_dir=str(run))
        assert main(["report", "--config", str(config_path)]) == 0
        assert capsys.readouterr().out == (
            f"report covering 1 artifacts -> {run / 'report.md'}\n")
        assert "[features.csv](features.csv)" in (run / "report.md").read_text()

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
                    20, 5, failed, "boom" if failed else ""))
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

    def test_compare_with_one_non_zero_difference(self, tmp_path):
        maes = {"LR": [1.0, 2.0, 3.0, 4.0, 5.0], "GB": [1.0, 2.0, 3.5, 4.0, 5.0]}
        for name, values in maes.items():
            records = [EvalRecord(0, i, value, 0.5, 0.1, 20, 5)
                       for i, value in enumerate(values, start=1)]
            EvalResult(name, records).to_csv(tmp_path / f"eval_{name}.csv")
        out = tmp_path / "out"
        config_path = write_config(tmp_path / "c.json", out_dir=str(out))
        assert main(["compare", "--config", str(config_path),
                     str(tmp_path / "eval_LR.csv"), str(tmp_path / "eval_GB.csv")]) == 0
        with (out / "comparisons.csv").open() as fh:
            (row,) = csv.DictReader(fh)
        assert float(row["p_value"]) == 1.0
        assert row["significant"] == "0"


def serve_without_a_server(monkeypatch, listing, status=200) -> list[str]:
    """Answer a crawl's GETs in place of ``requests.Session.get``: the change
    listing with ``status`` and ``listing`` as JSON, a listed change's patch
    with its rendered ``_diffs``.  Returns the URLs asked for, in order."""
    monkeypatch.setattr(gerrit, "RETRY_BACKOFF_SECONDS", 0.0)
    patches = {f"/changes/{doc['_number']}/revisions/1/patch": render_patch(doc)
               for doc in listing if isinstance(doc, dict)}
    urls = []

    def get(session, url, **kwargs):
        urls.append(url)
        patch = patches.get(urlparse(url).path)
        if patch is not None:
            return SimpleNamespace(status_code=200,
                                   content=base64.b64encode(patch.encode()))
        return SimpleNamespace(status_code=status,
                               content=b")]}'\n" + json.dumps(listing).encode())

    monkeypatch.setattr(requests.Session, "get", get)
    return urls


class TestCrawlFailures:
    def test_a_missing_diff_falls_back_to_no_segments(self, tmp_path):
        corpus = generate_corpus(25, seed=3)
        doc = next(d for d in corpus if len(d["_diffs"]) >= 2)
        missing = next(iter(doc["_diffs"]))
        del doc["_diffs"][missing]
        out = tmp_path / "out"
        with FixtureGerritServer(corpus) as server:
            config_path = write_config(tmp_path / "run.json", server.base_url,
                                       out_dir=str(out))
            assert main(["crawl", "--config", str(config_path)]) == 0
        records, _ = ds.read_dataset(out / "changes.jsonl")
        (record,) = [r for r in records if r.number == doc["_number"]]
        segments = {f.path: f.segments for f in record.files}
        assert set(segments) == {missing, *doc["_diffs"]}
        assert segments[missing] is None
        assert all(segments[path] is not None for path in doc["_diffs"])

    @pytest.mark.parametrize("status, body", [
        (404, b""), (200, b"not base64!"), (503, b"")],
        ids=["not-found", "bad-base64", "server-error"])
    def test_a_failed_patch_leaves_its_change_without_segments(
            self, tmp_path, monkeypatch, status, body):
        corpus = generate_corpus(25, seed=3)
        broken = corpus[4]["_number"]
        do_get = _FixtureHandler.do_GET

        def do_get_failing_one_patch(handler):
            if handler.path == f"/changes/{broken}/revisions/1/patch":
                handler._send(status, body)  # every retry of a 503 too
            else:
                do_get(handler)

        monkeypatch.setattr(gerrit, "RETRY_BACKOFF_SECONDS", 0.0)
        crawled = {}
        for name in ("clean", "broken"):
            if name == "broken":
                monkeypatch.setattr(_FixtureHandler, "do_GET", do_get_failing_one_patch)
            out = tmp_path / name
            with FixtureGerritServer(corpus) as server:
                config_path = write_config(tmp_path / f"{name}.json", server.base_url,
                                           out_dir=str(out))
                assert main(["crawl", "--config", str(config_path)]) == 0
            crawled[name], _ = ds.read_dataset(out / "changes.jsonl")
        assert crawled["broken"] == [
            replace(r, files=tuple(replace(f, segments=None) for f in r.files))
            if r.number == broken else r for r in crawled["clean"]]
        assert all(f.segments is not None for r in crawled["clean"] for f in r.files)

    def test_a_crawl_whose_patches_have_no_hunks_still_claims_them(self, tmp_path):
        # segments_from_diff says the crawl asked for each change's patch; a
        # file the patch gives no hunks keeps null segments
        corpus = generate_corpus(10, seed=3)
        for doc in corpus:
            del doc["_diffs"]
        out = tmp_path / "out"
        with FixtureGerritServer(corpus) as server:
            config_path = write_config(tmp_path / "run.json", server.base_url,
                                       out_dir=str(out))
            assert main(["crawl", "--config", str(config_path)]) == 0
        records, manifest = ds.read_dataset(out / "changes.jsonl")
        files = [f for r in records for f in r.files]
        assert len(records) == 10 and files
        assert all(f.segments is None for f in files)
        assert manifest.segments_from_diff is True

    @pytest.mark.parametrize("status, listing, error", [
        (200, {"_number": 1}, "MalformedJsonError: change listing is not a JSON array"),
        (200, [5], "SchemaError: raw change payload is not a JSON object"),
        (403, [], "HttpError: request failed (403)"),
    ], ids=["listing-not-an-array", "change-not-an-object", "forbidden"])
    def test_a_rejected_listing_exits_1_after_one_request(
            self, tmp_path, capsys, monkeypatch, status, listing, error):
        urls = serve_without_a_server(monkeypatch, listing, status)
        config_path = write_config(tmp_path / "run.json", NO_SERVER,
                                   out_dir=str(tmp_path / "out"))
        doc = json.loads(config_path.read_text())
        doc["crawl"]["max_retries"] = 3  # a 403 is not retried
        config_path.write_text(json.dumps(doc))
        assert main(["crawl", "--config", str(config_path)]) == 1
        assert error in capsys.readouterr().err
        assert len(urls) == 1
        assert ds.read_manifest(tmp_path / "out" / "changes.jsonl").complete is False

    def test_a_merged_change_without_a_close_time_is_not_written(
            self, tmp_path, capsys, monkeypatch):
        corpus = generate_corpus(3, seed=1)
        broken = corpus[1]
        broken["status"] = "MERGED"
        broken.pop("submitted", None)
        del broken["updated"]
        serve_without_a_server(monkeypatch, corpus)
        out = tmp_path / "out"
        config_path = write_config(tmp_path / "run.json", NO_SERVER, out_dir=str(out))
        assert main(["crawl", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert "SchemaError: change 2: no submitted/updated timestamp" in err
        records, manifest = ds.read_dataset(out / "changes.jsonl")
        assert [r.number for r in records] == [1]
        assert manifest.complete is False

    def test_transport_failure_exits_1_and_leaves_an_incomplete_manifest(
            self, tmp_path, capsys):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        # the port is closed again, so nothing listens on it
        config_path = write_config(tmp_path / "run.json", f"http://127.0.0.1:{port}",
                                   out_dir=str(tmp_path / "out"))
        doc = json.loads(config_path.read_text())
        doc["crawl"]["max_retries"] = 0
        config_path.write_text(json.dumps(doc))
        assert main(["crawl", "--config", str(config_path)]) == 1
        assert "transport failure" in capsys.readouterr().err
        manifest = ds.read_manifest(tmp_path / "out" / "changes.jsonl")
        assert manifest.complete is False


def _first_file(doc: dict) -> dict:
    """The line counts of the first file of a change document's revision."""
    (revision,) = doc["revisions"].values()
    return next(iter(revision["files"].values()))


def _first_commit_author(doc: dict) -> dict:
    """The commit author of a change document's revision."""
    (revision,) = doc["revisions"].values()
    return revision["commit"]["author"]


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
        lambda doc: doc["messages"][0].update(_revision_number="1"),
        lambda doc: doc.update(created="yesterday"),
        lambda doc: doc["messages"][0].pop("date"),
        lambda doc: doc.pop("owner"),
        lambda doc: doc["owner"].pop("_account_id"),
        lambda doc: _first_file(doc).update(lines_inserted=-1),
        lambda doc: doc["owner"].update(_account_id=111.9),
        lambda doc: doc["messages"][0]["author"].update(_account_id="112"),
        lambda doc: _first_file(doc).update(lines_inserted="7"),
        lambda doc: _first_commit_author(doc).update(tz=60.7),
    ], ids=["revision_number", "created", "message-date", "owner",
            "owner-account", "negative-lines", "float-owner-account",
            "string-author-account", "string-lines", "float-tz"])
    def test_crawl_names_a_change_it_could_not_read_back(self, tmp_path, capsys, edit):
        corpus = generate_corpus(5, seed=1)
        edit(corpus[2])
        with FixtureGerritServer(corpus) as server:
            config_path = write_config(tmp_path / "run.json", server.base_url,
                                       out_dir=str(tmp_path / "out"))
            assert main(["crawl", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert "SchemaError" in err and "change 3:" in err

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
        records = [EvalRecord(0, i, 1.0 + i, 0.5, 0.1, 20, 5)
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
        ("closed_at", None),
        ("status", "NEW"),
        ("closed_at", "2000-01-01T00:00:00.000000Z"),
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
        records = [EvalRecord(0, i, 1.0 + i, 0.5, 0.1, 20, 5)
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
        records = [EvalRecord(0, i, 1.0 + i, 0.5, 0.1, 20, 5)
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
        records = [EvalRecord(0, i, 1.0 + i, 0.5, 0.1, 20, 5)
                   for i in range(5)]
        EvalResult("LR", records).to_csv(tmp_path / "eval_LR.csv")
        EvalResult("GB", []).to_csv(tmp_path / "eval_GB.csv")
        config_path = write_config(tmp_path / "c.json", out_dir=str(tmp_path / "out"))
        assert main(["compare", "--config", str(config_path),
                     str(tmp_path / "eval_LR.csv"), str(tmp_path / "eval_GB.csv")]) == 1
        err = capsys.readouterr().err
        assert "no (repeat, iteration) is scored in every result file" in err

    def test_compare_rejects_a_repeated_result_name(self, tmp_path, capsys):
        records = [EvalRecord(0, i, 1.0 + i, 0.5, 0.1, 20, 5)
                   for i in range(5)]
        paths = [tmp_path / "a" / "eval_GB.csv", tmp_path / "b" / "eval_GB.csv",
                 tmp_path / "a" / "eval_LR.csv"]
        for path in paths:
            path.parent.mkdir(exist_ok=True)
            EvalResult(path.stem.removeprefix("eval_"), records).to_csv(path)
        out = tmp_path / "out"
        config_path = write_config(tmp_path / "c.json", out_dir=str(out))
        assert main(["compare", "--config", str(config_path), *map(str, paths)]) == 1
        err = capsys.readouterr().err
        assert "'GB'" in err and str(paths[0]) in err and str(paths[1]) in err
        assert not (out / "comparisons.csv").exists()

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
