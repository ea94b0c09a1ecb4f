"""Normalization fitting/applying and the two feature-selection strategies."""

from __future__ import annotations

import numpy as np
import pytest

from reviewtime.errors import EmptyTrainingSetError, UnsupportedEstimatorError
from reviewtime.preprocess import (
    NormalizerKind,
    apply_normalizer,
    chronological_split,
    fit_normalizer,
    rfe_select,
    sequential_forward_select,
)
from reviewtime.regressors import Algorithm, RegressorSpec


class TestNormalizer:
    def test_minmax_maps_train_to_unit(self):
        X = np.array([[2.0], [4.0], [6.0]])
        spec = fit_normalizer(NormalizerKind.MINMAX, X)
        np.testing.assert_allclose(apply_normalizer(spec, X)[:, 0], [0.0, 0.5, 1.0])

    def test_minmax_extrapolates(self):
        spec = fit_normalizer(NormalizerKind.MINMAX, np.array([[2.0], [4.0], [6.0]]))
        assert apply_normalizer(spec, np.array([[8.0]]))[0, 0] == pytest.approx(1.5)

    def test_zscore_constant_column(self):
        X = np.full((5, 1), 3.0)
        spec = fit_normalizer(NormalizerKind.ZSCORE, X)
        np.testing.assert_array_equal(apply_normalizer(spec, X), np.zeros((5, 1)))

    def test_minmax_constant_column(self):
        X = np.full((5, 1), 3.0)
        spec = fit_normalizer(NormalizerKind.MINMAX, X)
        np.testing.assert_array_equal(apply_normalizer(spec, X), np.zeros((5, 1)))

    def test_zscore_standardizes(self):
        rng = np.random.default_rng(0)
        X = rng.normal(5, 3, size=(200, 4))
        spec = fit_normalizer(NormalizerKind.ZSCORE, X)
        Z = apply_normalizer(spec, X)
        np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(Z.std(axis=0), 1.0, atol=1e-12)

    def test_none_is_identity(self):
        X = np.arange(12.0).reshape(4, 3)
        spec = fit_normalizer(NormalizerKind.NONE, X)
        assert apply_normalizer(spec, X) is X

    def test_empty_raises(self):
        with pytest.raises(EmptyTrainingSetError):
            fit_normalizer(NormalizerKind.MINMAX, np.empty((0, 3)))

    def test_params_depend_only_on_training_rows(self):
        rng = np.random.default_rng(1)
        train = rng.normal(size=(50, 3))
        test_a = rng.normal(size=(20, 3))
        test_b = test_a + 100.0
        spec = fit_normalizer(NormalizerKind.MINMAX, train)
        np.testing.assert_array_equal(
            apply_normalizer(spec, test_a) + 0,  # force copies
            apply_normalizer(fit_normalizer(NormalizerKind.MINMAX, train), test_a))
        # perturbing unseen rows never changes the fitted parameters
        spec_again = fit_normalizer(NormalizerKind.MINMAX, train)
        np.testing.assert_array_equal(spec.shift, spec_again.shift)
        np.testing.assert_array_equal(spec.scale, spec_again.scale)
        assert not np.array_equal(apply_normalizer(spec, test_a),
                                  apply_normalizer(spec, test_b))


def planted_signal(seed=0, n=100, p=5, scale=5.0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    y = scale * X[:, 0] + 0.1 * rng.normal(size=n)
    names = [f"x{i + 1}" for i in range(p)]
    return X, y, names


class TestRfeSelect:
    def test_planted_signal_survives(self):
        X, y, names = planted_signal()
        result = rfe_select(RegressorSpec(Algorithm.LR), X, y, names)
        assert "x1" in result.selected

    def test_knn_unsupported(self):
        X, y, names = planted_signal()
        with pytest.raises(UnsupportedEstimatorError):
            rfe_select(RegressorSpec(Algorithm.KNN), X, y, names)

    def test_scores_cover_all_cardinalities(self):
        X, y, names = planted_signal(p=4)
        result = rfe_select(RegressorSpec(Algorithm.LR), X, y, names)
        assert [n for n, _ in result.scores] == [4, 3, 2, 1]


class TestSequentialSelect:
    def test_signal_selected_first(self):
        X, y, names = planted_signal()
        result = sequential_forward_select(RegressorSpec(Algorithm.LR), X, y, names)
        assert result.scores[0][0] == 1
        assert "x1" in result.selected

    def test_pure_noise_stops_early(self):
        small = 0
        runs = 20
        for seed in range(runs):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(80, 20))
            y = rng.normal(size=80)
            result = sequential_forward_select(RegressorSpec(Algorithm.LR), X, y,
                                               [f"x{i}" for i in range(20)])
            if len(result.selected) < 5:
                small += 1
        assert small >= 0.9 * runs


class TestChronologicalSplit:
    def test_last_fifth(self):
        fit_part, val_part = chronological_split(100)
        assert fit_part == slice(0, 80) and val_part == slice(80, 100)

    def test_tiny(self):
        fit_part, val_part = chronological_split(2)
        assert fit_part == slice(0, 1) and val_part == slice(1, 2)

    def test_too_small(self):
        with pytest.raises(EmptyTrainingSetError):
            chronological_split(1)
