"""Acceptance gate: nine oracle- and property-based criteria at desk scale.

Each test prints one `[PASS]`/`[FAIL]` line (visible with `pytest -s` or in
the captured output of a failing run) and enforces its runtime budget.
"""

from __future__ import annotations

import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest

import graph_oracles as oracle
from conftest import synthetic_matrix
from golden_fixtures import all_records, target_records

from reviewtime import collab, dataset as ds
from reviewtime.cli import main
from reviewtime.evaluation import (
    PipelineConfig,
    make_online_folds,
    run_online_validation,
    sa,
)
from reviewtime.features import FEATURE_NAMES, extract_all
from reviewtime.importance import loco_all
from reviewtime.regressors import Algorithm, RegressorSpec, fit
from reviewtime.regressors.mlp import init_params, loss_and_gradients
from reviewtime.stats import cliffs_delta, scott_knott_esd, wilcoxon_signed_rank

from test_collab import assert_matches_oracle
from test_dataset import boundary_records
from test_regressors import normal_equations
from test_stats import WILCOXON_CRITICAL


class criterion:
    """Context manager printing the pass/fail line and checking the budget."""

    def __init__(self, number: int, label: str, budget_seconds: float | None = None):
        self.number = number
        self.label = label
        self.budget = budget_seconds

    def __enter__(self):
        self.started = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.started
        outcome = "PASS" if exc_type is None else "FAIL"
        print(f"[{outcome}] criterion {self.number}: {self.label} "
              f"({elapsed:.1f}s)")
        if exc_type is None and self.budget is not None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget "
                f"({elapsed:.1f}s)")
        return False


def test_criterion_1_graph_metric_oracles():
    with criterion(1, "six graph metrics match brute-force oracles", 60):
        for n in range(1, 6):
            for edges in oracle.enumerate_graphs(n):
                assert_matches_oracle(edges, n)
        rng = np.random.default_rng(2024)
        pairs = list(itertools.combinations(range(6), 2))
        for _ in range(2000):
            mask = rng.random(len(pairs)) < rng.uniform(0.05, 0.95)
            edges = tuple(e for e, keep in zip(pairs, mask) if keep)
            assert_matches_oracle(edges, 6)


def test_criterion_2_regressor_oracles():
    with criterion(2, "regressors match independent numerical oracles", 120):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(25, 201))
            p = int(rng.integers(2, 21))
            X = rng.normal(size=(n, p))
            y = rng.normal(5.0) + X @ rng.normal(size=p) + 0.3 * rng.normal(size=n)
            coef, intercept = normal_equations(X, y)
            lr = fit(RegressorSpec(Algorithm.LR), X, y)
            np.testing.assert_allclose(lr.state["coef"], coef, atol=1e-8)
            assert abs(lr.state["intercept"] - intercept) < 1e-8
            alpha = float(rng.uniform(0.1, 10.0))
            rr = fit(RegressorSpec(Algorithm.RR, {"alpha": alpha}), X, y)
            xc = X - X.mean(axis=0)
            ridge_coef = np.linalg.solve(xc.T @ xc + alpha * np.eye(p),
                                         xc.T @ (y - y.mean()))
            np.testing.assert_allclose(rr.state["coef"], ridge_coef, atol=1e-8)

        for seed in range(20):
            rng2 = np.random.default_rng(seed)
            n = int(rng2.integers(50, 201))
            p = int(rng2.integers(2, 21))
            X = rng2.normal(size=(n, p))
            y = X @ rng2.normal(size=p) + 0.2 * rng2.normal(size=n)
            lasso = fit(RegressorSpec(Algorithm.LaR, {"alpha": 0.0}), X, y)
            lr = fit(RegressorSpec(Algorithm.LR), X, y)
            np.testing.assert_allclose(lasso.state["coef"], lr.state["coef"],
                                       atol=1e-6)

        rng3 = np.random.default_rng(11)
        X = rng3.normal(size=(60, 5))
        y = rng3.uniform(5, 50, 60)
        Q = rng3.normal(size=(25, 5))
        for k in (1, 3, 7):
            model = fit(RegressorSpec(Algorithm.KNN, {"k": k}), X, y)
            pred = model.predict(Q)
            for i, q in enumerate(Q):
                d = np.sum((X - q) ** 2, axis=1)
                order = sorted(range(60), key=lambda j: (d[j], j))
                assert pred[i] == y[list(order[:k])].mean()

        rng4 = np.random.default_rng(13)
        X = rng4.normal(size=(10, 3))
        y = rng4.normal(size=10)
        params = init_params(3, 5, rng4)
        _, grads = loss_and_gradients(params, X, y)
        h = 1e-6
        for key in params:
            flat = params[key].reshape(-1)
            for idx in range(flat.size):
                original = flat[idx]
                flat[idx] = original + h
                up, _ = loss_and_gradients(params, X, y)
                flat[idx] = original - h
                down, _ = loss_and_gradients(params, X, y)
                flat[idx] = original
                numeric = (up - down) / (2 * h)
                analytic = grads[key].reshape(-1)[idx]
                denom = max(abs(numeric), abs(analytic), 1e-8)
                assert abs(numeric - analytic) / denom < 1e-5

        for seed in range(20):
            rng5 = np.random.default_rng(100 + seed)
            X = rng5.uniform(size=(60, 4))
            y = 40 * X[:, 0] + rng5.normal(0, 2, 60) + 60
            model = fit(RegressorSpec(Algorithm.GB, {"rounds": 50}, seed=seed), X, y)
            curve = model.state["train_mse_curve"]
            assert all(b <= a + 1e-9 for a, b in zip(curve, curve[1:]))


def test_criterion_3_statistical_golden_suite():
    with criterion(3, "statistical tests match tables and brute force", 60):
        for alpha, table in WILCOXON_CRITICAL.items():
            for n, critical in table.items():
                ranks = np.arange(1, n + 1, dtype=float)
                for w_target, significant in ((critical, True), (critical + 1, False)):
                    signs = np.ones(n)
                    remaining = w_target
                    for r in range(n, 0, -1):
                        if remaining >= r:
                            signs[r - 1] = -1.0
                            remaining -= r
                    diffs = signs * ranks
                    _, p = wilcoxon_signed_rank(diffs, np.zeros(n))
                    assert (p <= alpha) is significant, (alpha, n, w_target, p)

        rng = np.random.default_rng(5)
        for _ in range(500):
            a = rng.integers(0, 30, size=int(rng.integers(1, 51))).astype(float)
            b = rng.integers(0, 30, size=int(rng.integers(1, 51))).astype(float)
            d, _ = cliffs_delta(a, b)
            gt = sum(1 for x in a for y_ in b if x > y_)
            lt = sum(1 for x in a for y_ in b if x < y_)
            assert d == pytest.approx((gt - lt) / (len(a) * len(b)), abs=1e-12)

        singles = 0
        for seed in range(100):
            rng2 = np.random.default_rng(seed)
            groups = {"a": rng2.normal(10, 1, 30), "b": rng2.normal(10, 1, 30)}
            singles += len(scott_knott_esd(groups).clusters) == 1
        assert singles >= 95, f"identical groups split too often ({singles}/100)"

        for seed in range(100):
            rng3 = np.random.default_rng(1000 + seed)
            groups = {"low": np.abs(rng3.normal(1, 0.1, 30)),
                      "high": rng3.normal(100, 10, 30)}
            ranking = scott_knott_esd(groups)
            assert ranking.clusters == (("high",), ("low",)), seed


def test_criterion_4_temporal_soundness():
    with criterion(4, "online protocol never trains on the future"):
        rng = np.random.default_rng(99)
        for trial in range(50):
            n = int(rng.integers(10, 501))
            data = synthetic_matrix(n=n, seed=trial, names=[f"x{i}" for i in range(8)])
            config = PipelineConfig(Algorithm.LR, spec=RegressorSpec(Algorithm.LR),
                                    repeats=2, base_seed=trial)
            result = run_online_validation(data, config)
            assert len(result.records) == 10 and result.failures == 0
            folds = make_online_folds(n)
            per_repeat: dict[int, list] = {}
            for record in result.records:
                train_created = data.created_at[:record.train_range[1]]
                test_created = data.created_at[record.test_range[0]:
                                               record.test_range[1]]
                assert max(train_created) < min(test_created)
                expected_train_stop = folds[record.iteration + 3][1]
                assert record.train_range == (0, expected_train_stop)
                assert record.test_range == folds[record.iteration + 4]
                per_repeat.setdefault(record.repeat, []).append(record)
            for records in per_repeat.values():
                records.sort(key=lambda r: r.iteration)
                stops = [r.train_range[1] for r in records]
                assert stops == sorted(stops) and len(set(stops)) == 5
                assert records[0].train_range[1] == folds[4][1]
                assert records[0].test_range == folds[5]
                assert records[4].train_range[1] == folds[8][1]
                assert records[4].test_range == folds[9]


def test_criterion_5_loco_planted_signal():
    with criterion(5, "LOCO isolates a planted signal", 300):
        top_alone = 0
        reruns = 20
        for rerun in range(reruns):
            names = [f"x{i + 1}" for i in range(10)]
            data = synthetic_matrix(n=500, seed=rerun, signal_col=0,
                                    signal_scale=10.0, noise=1.0, names=names)
            config = PipelineConfig(Algorithm.LR, spec=RegressorSpec(Algorithm.LR),
                                    repeats=30, base_seed=rerun)
            result = loco_all(data, config)
            if result.ranking.clusters[0] == ("x1",):
                top_alone += 1
            mae_full = float(np.median(result.mae_full))
            for name in names[1:]:
                delta_median = float(np.median(result.unit_deltas[name]))
                assert abs(delta_median) <= 0.05 * mae_full, (rerun, name)
        assert top_alone >= 0.95 * reruns, f"{top_alone}/{reruns}"


def test_criterion_6_sa_calibration():
    with criterion(6, "standardized accuracy calibrates against guessing"):
        rng = np.random.default_rng(17)
        train = np.maximum(rng.normal(60, 20, 400), 1.0)
        actual = np.maximum(rng.normal(60, 20, 80), 1.0)

        assert sa(actual, actual, train, seed=1) == 100.0

        mean_model = np.full(80, train.mean())
        assert sa(mean_model, actual, train, seed=1) > 0

        values = [sa(np.random.default_rng(5000 + t).choice(train, size=80),
                     actual, train, seed=1) for t in range(1000)]
        assert -5.0 < float(np.mean(values)) < 5.0


def test_criterion_7_filter_semantics():
    with criterion(7, "filter rules match the boundary fixture exactly"):
        records = boundary_records()
        assert len(records) == 12
        kept, report = ds.apply_filters(records, ds.FilterPolicy())
        assert report == ds.FilterReport(
            kept=4, dropped_reopened=1, dropped_self=2, dropped_short=2,
            dropped_long=2, dropped_incomplete=1)
        assert report.total == 12
        assert {r.number for r in kept} == {7, 8, 11, 12}


def _run_cli_pipeline(base_url: str, workdir: Path) -> dict[str, bytes]:
    config_path = workdir / "run.json"
    config_path.write_text(json.dumps({
        "seed": 11,
        "out_dir": str(workdir / "out"),
        "crawl": {"base_url": base_url, "page_size": 50,
                  "min_request_interval_ms": 0},
        "filter": {},
        "evaluation": {
            "repeats": 5,
            "pipelines": [
                {"algorithm": "GB",
                 "hyperparameters": {"rounds": 100, "learning_rate": 0.1}},
                {"algorithm": "LR", "hyperparameters": {}},
            ],
        },
    }, indent=2), encoding="utf-8")
    out = workdir / "out"
    steps = [
        ["crawl", "--config", str(config_path), "--out", str(out)],
        ["filter", "--config", str(config_path),
         "--in", str(out / "changes.jsonl"), "--out", str(out)],
        ["featurize", "--config", str(config_path),
         "--in", str(out / "filtered.jsonl"),
         "--history", str(out / "changes.jsonl"), "--out", str(out)],
        ["evaluate", "--config", str(config_path),
         "--features", str(out / "features.csv"), "--out", str(out)],
        ["compare", "--config", str(config_path), "--out", str(out),
         str(out / "eval_GB.csv"), str(out / "eval_LR.csv")],
        ["rank", "--config", str(config_path),
         "--features", str(out / "features.csv"), "--by", "dimension",
         "--out", str(out)],
    ]
    for step in steps:
        assert main(step) == 0, step
    return {
        p.relative_to(out).as_posix(): p.read_bytes()
        for p in sorted(out.rglob("*"))
        if p.is_file() and "meta" not in p.parts and p.name != "manifest.json"
    }


def test_criterion_8_end_to_end_fixture_run(tmp_path):
    from reviewtime.gerrit_fixture import FixtureGerritServer, generate_corpus

    with criterion(8, "deterministic end-to-end run on the fixture corpus", 600):
        corpus = generate_corpus(200, seed=5)
        outputs = []
        for run in range(2):
            workdir = tmp_path / f"run{run}"
            workdir.mkdir()
            with FixtureGerritServer(corpus) as server:
                outputs.append(_run_cli_pipeline(server.base_url, workdir))
        assert outputs[0].keys() == outputs[1].keys()
        for name in outputs[0]:
            assert outputs[0][name] == outputs[1][name], f"{name} differs"
        summary = json.loads(outputs[0]["eval_summary.json"])
        assert summary["GB"]["sa"]["mean"] > 0, summary["GB"]["sa"]


def test_criterion_9_feature_vector_golden_file():
    with criterion(9, "extract_all reproduces the hand-computed vectors"):
        golden = json.loads(
            (Path(__file__).parent / "data" / "golden_vectors.json")
            .read_text(encoding="utf-8"))
        records = all_records()
        for target in target_records():
            graph = collab.build_graph(records, as_of=target.created_at)
            vector = extract_all(target, records, graph)
            expected = golden[str(target.number)]
            assert vector.target_hours == expected["target_hours"]
            assert len(vector.values) == 50
            for name in FEATURE_NAMES:
                got = vector.values[name]
                want = float(expected["values"][name])
                if name in ("change_entropy", "closeness_centrality",
                            "eigenvector_centrality", "betweenness_centrality",
                            "degree_centrality", "clustering_coefficient") \
                        or "duration" in name or "ratio" in name \
                        or "avg" in name or "std" in name:
                    assert got == pytest.approx(want, abs=1e-9), (target.number, name)
                else:
                    assert got == want, (target.number, name)
