"""LOCO importance, ESD ranking of deltas, and the dimension ablation."""

from __future__ import annotations

import numpy as np
import pytest

from reviewtime import evaluation
from reviewtime.errors import ReviewTimeError, UnknownUnitError
from reviewtime.evaluation import PipelineConfig, run_online_validation
from reviewtime.features import FEATURE_NAMES
from reviewtime.importance import (
    dimension_ablation,
    loco_all,
    loco_importance,
    rank_features,
)
from reviewtime.regressors import Algorithm, RegressorSpec

from conftest import synthetic_matrix


def lr_config(repeats=2, **kwargs):
    return PipelineConfig(Algorithm.LR, spec=RegressorSpec(Algorithm.LR),
                          repeats=repeats, **kwargs)


def planted(n=200, p=10, seed=0, scale=10.0, noise=1.0):
    names = [f"x{i + 1}" for i in range(p)]
    return synthetic_matrix(n=n, seed=seed, signal_col=0, signal_scale=scale,
                            noise=noise, names=names)


class TestLocoImportance:
    def test_planted_signal_dominates(self):
        data = planted()
        config = lr_config()
        deltas = {name: loco_importance(data, config, name)
                  for name in data.feature_names}
        signal = np.median(deltas["x1"])
        others = [np.median(d) for name, d in deltas.items() if name != "x1"]
        assert signal > 0
        assert signal > max(others)
        assert np.mean(loco_importance(data, config, "x1") > 0) >= 0.95

    def test_null_features_center_at_zero(self):
        data = planted(noise=2.0)
        config = lr_config()
        full = run_online_validation(data, config)
        mae_full = np.median(full.metric("mae"))
        for name in ("x3", "x7"):
            delta = loco_importance(data, config, name)
            assert abs(np.median(delta)) < 0.05 * mae_full

    def test_constant_feature_delta_exactly_zero(self):
        data = planted(n=80, p=5)
        data.X[:, 2] = 7.0  # constant column
        for algorithm in (Algorithm.DT, Algorithm.KNN):
            config = PipelineConfig(algorithm, spec=RegressorSpec(algorithm),
                                    repeats=1)
            delta = loco_importance(data, config, "x3")
            np.testing.assert_array_equal(delta, 0.0)

    def test_unknown_unit(self):
        data = planted(n=60)
        with pytest.raises(UnknownUnitError):
            loco_importance(data, lr_config(), "not_a_feature")

    def test_duplicated_collinear_feature_blind(self):
        # one-at-a-time removal cannot see a feature duplicated elsewhere
        data = planted(n=150, p=6)
        data.X[:, 1] = data.X[:, 0]
        config = PipelineConfig(Algorithm.RR,
                                spec=RegressorSpec(Algorithm.RR, {"alpha": 0.01}),
                                repeats=1)
        full = run_online_validation(data, config)
        mae_full = np.median(full.metric("mae"))
        for copy in ("x1", "x2"):
            delta = loco_importance(data, config, copy, full_result=full)
            assert abs(np.median(delta)) < 0.05 * mae_full

    def test_failed_iteration_raises(self, monkeypatch):
        # the reduced run's second iteration fails; its NaN must not become a delta
        data = planted(n=100)
        real_fit = evaluation.fit
        calls = []

        def failing_fit(spec, X, y, names):
            calls.append(len(names))
            if len(calls) == 7:
                raise RuntimeError("injected failure")
            return real_fit(spec, X, y, names)

        monkeypatch.setattr(evaluation, "fit", failing_fit)
        with pytest.raises(ReviewTimeError, match=r"\(0, 2\).*injected failure"):
            loco_importance(data, lr_config(), "x4")
        assert calls[6] == len(data.feature_names) - 1

    def test_fold_plan_and_seeds_unchanged(self):
        data = planted(n=100)
        config = lr_config()
        full_a = run_online_validation(data, config)
        reduced = run_online_validation(data.restrict(
            [n for n in data.feature_names if n != "x4"]), config)
        for a, b in zip(full_a.records, reduced.records):
            assert (a.repeat, a.iteration) == (b.repeat, b.iteration)
            assert a.train_range == b.train_range
            assert a.test_range == b.test_range

    def test_dimension_unit_removes_block(self):
        data = synthetic_matrix(n=100)  # all 50 canonical features
        config = lr_config(repeats=1)
        delta = loco_importance(data, config, "code")
        assert delta.shape == (5,)


class TestRankFeatures:
    def test_planted_signal_top_cluster_alone(self):
        data = planted(n=300, noise=1.0)
        result = loco_all(data, lr_config(repeats=3))
        assert result.ranking.clusters[0] == ("x1",)

    def test_all_null_single_cluster(self):
        rng = np.random.default_rng(0)
        distributions = {f"f{i}": rng.normal(0, 0.1, 30) for i in range(4)}
        ranking = rank_features(distributions)
        assert len(ranking.clusters) == 1

    def test_two_equal_signals_share_top(self):
        rng = np.random.default_rng(1)
        strong_a = rng.normal(5.0, 0.2, 40)
        strong_b = rng.normal(5.0, 0.2, 40)
        weak = rng.normal(0.0, 0.2, 40)
        ranking = rank_features({"a": strong_a, "b": strong_b, "weak": weak})
        assert set(ranking.clusters[0]) == {"a", "b"}

    def test_negative_deltas_handled_via_shift(self):
        rng = np.random.default_rng(2)
        distributions = {
            "harmful": rng.normal(-3.0, 0.1, 30),
            "helpful": rng.normal(4.0, 0.1, 30),
        }
        ranking = rank_features(distributions)
        assert ranking.clusters == (("helpful",), ("harmful",))

    def test_input_order_invariance(self):
        rng = np.random.default_rng(3)
        dists = {name: rng.normal(loc, 0.1, 25)
                 for name, loc in (("a", 1.0), ("b", 5.0), ("c", 5.1))}
        r1 = rank_features(dict(sorted(dists.items())))
        r2 = rank_features(dict(sorted(dists.items(), reverse=True)))
        assert r1.clusters == r2.clusters

    def test_csv_export(self, tmp_path):
        data = planted(n=120, p=4)
        result = loco_all(data, lr_config(repeats=1))
        result.to_csv(tmp_path / "loco.csv")
        lines = (tmp_path / "loco.csv").read_text().strip().splitlines()
        assert len(lines) == 5  # header + 4 units


class TestDimensionAblation:
    def test_modes_and_comparisons(self):
        data = synthetic_matrix(n=100)
        config = lr_config(repeats=1)
        ablation = dimension_ablation(data, config)
        assert set(ablation.results) == {"all", "date", "collaboration", "code",
                                         "text", "owner", "file_history"}
        assert len(ablation.comparisons) == 6
        for c in ablation.comparisons:
            assert c.p_adjusted == pytest.approx(min(1.0, c.p_value * 6))

    def test_informative_dimension_close_to_all(self):
        # target depends only on a code-dimension column
        data = synthetic_matrix(n=200, signal_col=FEATURE_NAMES.index("Code_churn"),
                                noise=1.0)
        config = lr_config(repeats=2)
        ablation = dimension_ablation(data, config)
        mae = {mode: np.median(result.metric("mae"))
               for mode, result in ablation.results.items()}
        assert mae["code"] < mae["date"]
        assert mae["code"] < mae["owner"]
        assert mae["code"] <= mae["all"] * 2.0

    def test_all_mode_matches_standalone_run(self):
        data = synthetic_matrix(n=100)
        config = lr_config(repeats=2)
        ablation = dimension_ablation(data, config)
        standalone = run_online_validation(data, config)
        assert ablation.results["all"].records == standalone.records
