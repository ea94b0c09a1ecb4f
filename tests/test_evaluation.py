"""Fold construction, the online protocol, and the three metrics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reviewtime.errors import (
    EmptyInputError,
    LengthMismatchError,
    NonPositiveActualError,
    TooFewRecordsError,
)
from reviewtime.evaluation import (
    EvalResult,
    PipelineConfig,
    make_online_folds,
    mae,
    mre,
    run_online_validation,
    sa,
)
from reviewtime.preprocess import NormalizerKind
from reviewtime.regressors import Algorithm, HyperGrid, RegressorSpec
from reviewtime.regressors.base import TrainedModel

from conftest import synthetic_matrix


class TestFoldPlan:
    def test_even_split(self):
        plan = make_online_folds(100)
        assert all(b - a == 10 for a, b in plan.boundaries)

    def test_remainder_to_earliest(self):
        plan = make_online_folds(103)
        sizes = [b - a for a, b in plan.boundaries]
        assert sizes == [11, 11, 11, 10, 10, 10, 10, 10, 10, 10]

    def test_too_few(self):
        with pytest.raises(TooFewRecordsError):
            make_online_folds(9)

    @given(st.integers(10, 2000))
    def test_partition_properties(self, n):
        plan = make_online_folds(n)
        sizes = [b - a for a, b in plan.boundaries]
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1
        assert plan.boundaries[0][0] == 0
        for (_, stop), (start, _) in zip(plan.boundaries, plan.boundaries[1:]):
            assert stop == start


class TestMetrics:
    def test_mae_zero(self):
        assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_mae_shifted(self):
        assert mae([2.0, 3.0], [1.0, 2.0]) == 1.0

    def test_mae_example(self):
        assert mae([30.0, 50.0], [40.0, 40.0]) == 10.0

    def test_mae_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            mae([1.0], [1.0, 2.0])

    def test_mae_empty(self):
        with pytest.raises(EmptyInputError):
            mae([], [])

    def test_mre_zero(self):
        assert mre([40.0], [40.0]) == 0.0

    def test_mre_half(self):
        assert mre([20.0], [40.0]) == 0.5

    def test_mre_example(self):
        assert mre([30.0, 60.0], [40.0, 40.0]) == pytest.approx(0.375)

    def test_mre_nonpositive_actual(self):
        with pytest.raises(NonPositiveActualError):
            mre([1.0], [0.0])

    @given(st.lists(st.floats(1.0, 1e6), min_size=1, max_size=30),
           st.randoms(use_true_random=False))
    def test_permutation_invariance(self, actual, rnd):
        rng = np.random.default_rng(0)
        pred = [a + float(rng.normal()) for a in actual]
        order = list(range(len(actual)))
        rnd.shuffle(order)
        pred2 = [pred[i] for i in order]
        actual2 = [actual[i] for i in order]
        assert mae(pred, actual) == pytest.approx(mae(pred2, actual2))
        assert mre(pred, actual) == pytest.approx(mre(pred2, actual2))


class TestSA:
    def test_perfect_predictor_is_100(self):
        actual = np.array([10.0, 20.0, 30.0])
        assert sa(actual, actual, np.array([5.0, 15.0])) == 100.0

    def test_degenerate_constant_training(self):
        # both the model and every guess predict c, so SA collapses to 0
        actual = np.array([40.0, 50.0])
        assert sa(np.array([30.0, 30.0]), actual, np.array([30.0])) == \
            pytest.approx(0.0, abs=1e-9)

    def test_random_guess_centers_at_zero(self):
        rng = np.random.default_rng(5)
        train = rng.uniform(20, 100, 300)
        actual = rng.uniform(20, 100, 60)
        values = []
        for trial in range(200):
            guess = np.random.default_rng(1000 + trial).choice(train, size=60)
            values.append(sa(guess, actual, train, seed=9))
        assert abs(np.mean(values)) < 5.0

    def test_mean_predictor_beats_guessing(self):
        rng = np.random.default_rng(6)
        train = rng.uniform(20, 100, 300)
        actual = rng.uniform(20, 100, 60)
        assert sa(np.full(60, train.mean()), actual, train, seed=9) > 0

    def test_empty_training_targets(self):
        with pytest.raises(EmptyInputError):
            sa([1.0], [1.0], [])

    def test_seeded_baseline_reproducible(self):
        rng = np.random.default_rng(7)
        train = rng.uniform(20, 100, 50)
        pred = rng.uniform(20, 100, 10)
        actual = rng.uniform(20, 100, 10)
        assert sa(pred, actual, train, seed=3) == sa(pred, actual, train, seed=3)


def quick_config(algorithm=Algorithm.LR, **kwargs):
    kwargs.setdefault("spec", RegressorSpec(algorithm))
    kwargs.setdefault("repeats", 2)
    return PipelineConfig(algorithm, **kwargs)


class TestOnlineValidation:
    def test_record_arity(self):
        data = synthetic_matrix(n=60)
        result = run_online_validation(data, quick_config(repeats=3))
        assert len(result.records) == 3 * 5
        assert result.failures == 0

    def test_iteration_fold_identities(self):
        data = synthetic_matrix(n=100)
        result = run_online_validation(data, quick_config())
        by_iteration = {r.iteration: r for r in result.records if r.repeat == 0}
        assert by_iteration[1].train_range == (0, 50)
        assert by_iteration[1].test_range == (50, 60)
        assert by_iteration[5].train_range == (0, 90)
        assert by_iteration[5].test_range == (90, 100)

    def test_temporal_soundness(self):
        data = synthetic_matrix(n=83)
        result = run_online_validation(data, quick_config())
        for r in result.records:
            train_created = data.created_at[:r.train_range[1]]
            test_created = data.created_at[r.test_range[0]:r.test_range[1]]
            assert max(train_created) < min(test_created)

    def test_training_sets_grow(self):
        data = synthetic_matrix(n=70)
        result = run_online_validation(data, quick_config())
        stops = [r.train_range[1] for r in sorted(result.records,
                                                  key=lambda r: r.iteration)
                 if r.repeat == 0]
        assert stops == sorted(stops) and len(set(stops)) == 5

    def test_deterministic_algorithm_replicates_records(self):
        data = synthetic_matrix(n=60)
        config = PipelineConfig(Algorithm.DT, spec=RegressorSpec(Algorithm.DT),
                                repeats=3)
        result = run_online_validation(data, config)
        for iteration in range(1, 6):
            rows = [r for r in result.records if r.iteration == iteration]
            assert len(rows) == 3
            assert len({(r.mae, r.mre, r.sa) for r in rows}) == 1

    def test_stochastic_algorithm_varies_across_repeats(self):
        data = synthetic_matrix(n=60, noise=10.0)
        config = PipelineConfig(Algorithm.RF,
                                spec=RegressorSpec(Algorithm.RF, {"n_trees": 10}),
                                repeats=3)
        result = run_online_validation(data, config)
        rows = [r.mae for r in result.records if r.iteration == 1]
        assert len(set(rows)) > 1

    def test_identical_config_identical_result(self):
        data = synthetic_matrix(n=60)
        config = PipelineConfig(Algorithm.GB,
                                spec=RegressorSpec(Algorithm.GB, {"rounds": 20}),
                                repeats=2, base_seed=4)
        a = run_online_validation(data, config)
        b = run_online_validation(data, config)
        assert a.records == b.records

    def test_metrics_finite_and_sane(self):
        data = synthetic_matrix(n=80)
        result = run_online_validation(data, quick_config())
        for r in result.records:
            assert np.isfinite([r.mae, r.mre, r.sa]).all()
            assert r.mae >= 0 and r.mre >= 0 and r.sa <= 100

    def test_grid_search_path(self):
        data = synthetic_matrix(n=60)
        config = PipelineConfig(Algorithm.KNN, grid=HyperGrid(Algorithm.KNN,
                                                              {"k": [1, 5]}),
                                repeats=1)
        result = run_online_validation(data, config)
        assert result.failures == 0

    def test_selection_path(self):
        data = synthetic_matrix(n=60, n_features=8)
        config = PipelineConfig(Algorithm.LR, spec=RegressorSpec(Algorithm.LR),
                                selection="rfe", repeats=1)
        result = run_online_validation(data, config)
        assert result.failures == 0

    def test_normalizer_enforced_for_nn(self):
        data = synthetic_matrix(n=60, n_features=5)
        data.X[:, 0] *= 1e4  # wild scale that un-normalized SGD cannot survive
        config = PipelineConfig(
            Algorithm.NN,
            spec=RegressorSpec(Algorithm.NN, {"epochs": 30, "hidden_units": 8}),
            normalizer=NormalizerKind.NONE, repeats=1)
        result = run_online_validation(data, config)
        assert result.failures == 0
        assert all(np.isfinite(r.mae) for r in result.records)

    def test_non_finite_predictions_fail_the_iteration(self, monkeypatch):
        monkeypatch.setattr(TrainedModel, "predict",
                            lambda self, X: np.full(len(X), np.nan))
        result = run_online_validation(synthetic_matrix(n=60), quick_config())
        assert result.failures == len(result.records) == 10
        assert all("NonFinitePredictionError" in r.error for r in result.records)
        assert result.summary()["mae"]["mean"] is None

    def test_too_few_records(self):
        data = synthetic_matrix(n=9)
        with pytest.raises(TooFewRecordsError):
            run_online_validation(data, quick_config())

    def test_csv_roundtrip(self, tmp_path):
        data = synthetic_matrix(n=60)
        result = run_online_validation(data, quick_config())
        result.to_csv(tmp_path / "eval.csv")
        loaded = EvalResult.from_csv(tmp_path / "eval.csv")
        assert len(loaded.records) == len(result.records)
        np.testing.assert_allclose(loaded.metric("mae"), result.metric("mae"))
        np.testing.assert_allclose(loaded.metric("sa"), result.metric("sa"))
