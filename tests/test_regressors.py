"""Per-algorithm contracts: oracle equivalences, determinism, invariances."""

from __future__ import annotations

import numpy as np
import pytest

from reviewtime.errors import (
    AllPointsFailedError,
    FeatureMismatchError,
)
from reviewtime.regressors import (
    Algorithm,
    HyperGrid,
    RegressorSpec,
    fit,
    grid_search,
    is_deterministic,
    supports_importance,
)
from reviewtime.regressors.mlp import init_params, loss_and_gradients
from reviewtime.regressors.tree import _GAIN_EPS, RegressionTree


def linear_data(seed=0, n=50, p=5, noise=0.0, intercept=1.0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    beta = rng.normal(size=p)
    y = intercept + X @ beta + noise * rng.normal(size=n)
    return X, y, beta


def normal_equations(X, y):
    """Independent least-squares oracle over the intercept-augmented design."""
    design = np.column_stack([X, np.ones(len(X))])
    solution, *_ = np.linalg.lstsq(design, y, rcond=None)
    return solution[:-1], solution[-1]


class TestSpecValidation:
    def test_unknown_hyperparameter_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            RegressorSpec(Algorithm.KNN, {"bogus": 3})

    def test_defaults_merged(self):
        spec = RegressorSpec(Algorithm.GB, {"rounds": 7})
        assert spec.hyperparameters["rounds"] == 7
        assert spec.hyperparameters["learning_rate"] == 0.1

    def test_importance_support_map(self):
        assert supports_importance(Algorithm.LR)
        assert supports_importance(Algorithm.GB)
        assert not supports_importance(Algorithm.KNN)
        assert not supports_importance(Algorithm.NN)

    def test_grid_unknown_param(self):
        with pytest.raises(ValueError):
            HyperGrid(Algorithm.KNN, {"bogus": [1]})


class TestLinearFamily:
    def test_lr_exact_line(self):
        x = np.linspace(0, 9, 10).reshape(-1, 1)
        y = 2 * x[:, 0] + 1
        model = fit(RegressorSpec(Algorithm.LR), x, y)
        assert model.state["coef"][0] == pytest.approx(2.0, abs=1e-8)
        assert model.state["intercept"] == pytest.approx(1.0, abs=1e-8)
        assert model.predict(np.array([[5.0]]))[0] == pytest.approx(11.0, abs=1e-8)

    def test_lr_matches_normal_equations(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(30, 200))
            p = int(rng.integers(2, 20))
            X, y, _ = linear_data(seed, n=n, p=p, noise=0.5)
            model = fit(RegressorSpec(Algorithm.LR), X, y)
            coef, intercept = normal_equations(X, y)
            np.testing.assert_allclose(model.state["coef"], coef, atol=1e-8)
            assert model.state["intercept"] == pytest.approx(intercept, abs=1e-8)

    def test_lr_singular_fallback(self):
        X = np.ones((10, 2))  # duplicated constant columns
        y = np.arange(10.0)
        model = fit(RegressorSpec(Algorithm.LR), X, y)
        assert "singular_fallback" in model.flags
        assert np.isfinite(model.predict(X)).all()

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "known defect (ROADMAP item 9): fit_linear detects rank deficiency "
        "only through np.linalg.cholesky, which passes on this centred design"))
    def test_lr_flags_exactly_collinear_column(self):
        rng = np.random.default_rng(0)
        X = rng.integers(0, 80, size=(60, 4)).astype(float)
        # the sum column, as Code_churn = #lines_added + #lines_deleted
        X = np.column_stack([X, X[:, 0] + X[:, 1]])
        y = rng.uniform(0, 100, 60)
        xc = X - X.mean(axis=0)
        if np.linalg.matrix_rank(xc) != 4:
            pytest.fail("the design must have rank 4 of 5")
        np.linalg.cholesky(xc.T @ xc)  # passes despite the rank deficiency
        model = fit(RegressorSpec(Algorithm.LR), X, y)
        assert "singular_fallback" in model.flags

    def test_ridge_limit_shrinks_to_zero(self):
        X, y, _ = linear_data(3, noise=0.1)
        model = fit(RegressorSpec(Algorithm.RR, {"alpha": 1e12}), X, y)
        assert np.max(np.abs(model.state["coef"])) < 1e-6

    def test_ridge_matches_closed_form(self):
        X, y, _ = linear_data(5, n=80, p=6, noise=0.3)
        alpha = 2.5
        model = fit(RegressorSpec(Algorithm.RR, {"alpha": alpha}), X, y)
        xc = X - X.mean(axis=0)
        yc = y - y.mean()
        coef = np.linalg.solve(xc.T @ xc + alpha * np.eye(6), xc.T @ yc)
        np.testing.assert_allclose(model.state["coef"], coef, atol=1e-10)

    def test_lasso_zero_penalty_matches_lr(self):
        for seed in range(5):
            X, y, _ = linear_data(seed, n=120, p=8, noise=0.5)
            lasso = fit(RegressorSpec(Algorithm.LaR, {"alpha": 0.0}), X, y)
            lr = fit(RegressorSpec(Algorithm.LR), X, y)
            np.testing.assert_allclose(lasso.state["coef"], lr.state["coef"],
                                       atol=1e-6)

    def test_lasso_large_penalty_sparsifies(self):
        X, y, _ = linear_data(7, n=100, p=6, noise=0.1)
        model = fit(RegressorSpec(Algorithm.LaR, {"alpha": 1e6}), X, y)
        np.testing.assert_allclose(model.state["coef"], 0.0, atol=1e-12)

    def test_bayesian_ridge_recovers_signal(self):
        X, y, beta = linear_data(11, n=200, p=5, noise=0.1)
        model = fit(RegressorSpec(Algorithm.BLaR), X, y)
        np.testing.assert_allclose(model.state["coef"], beta, atol=0.05)


class TestKNN:
    def test_query_at_training_point(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([5.0, 7.0, 9.0])
        model = fit(RegressorSpec(Algorithm.KNN, {"k": 1}), X, y)
        assert model.predict(np.array([[1.0]]))[0] == 7.0

    def test_feature_mismatch(self):
        X = np.zeros((5, 3))
        model = fit(RegressorSpec(Algorithm.KNN, {"k": 1}), X, np.arange(5.0))
        with pytest.raises(FeatureMismatchError):
            model.predict(np.zeros((2, 4)))

    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 4))
        y = rng.uniform(10, 50, 40)
        Q = rng.normal(size=(15, 4))
        for k in (1, 3, 5):
            model = fit(RegressorSpec(Algorithm.KNN, {"k": k}), X, y)
            pred = model.predict(Q)
            for i, q in enumerate(Q):
                d = np.sum((X - q) ** 2, axis=1)
                order = sorted(range(len(X)), key=lambda j: (d[j], j))
                assert pred[i] == y[list(order[:k])].mean()

    def test_distance_tie_broken_by_row_index(self):
        X = np.array([[1.0], [-1.0], [3.0]])
        y = np.array([10.0, 20.0, 30.0])
        model = fit(RegressorSpec(Algorithm.KNN, {"k": 1}), X, y)
        # query at 0 is equidistant from rows 0 and 1; row 0 wins
        assert model.predict(np.array([[0.0]]))[0] == 10.0


class TestTrees:
    def test_unbounded_tree_memorizes(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(60, 4))
        y = rng.uniform(0, 100, 60)
        model = fit(RegressorSpec(Algorithm.DT, {"max_depth": None}), X, y)
        np.testing.assert_allclose(model.predict(X), y, atol=1e-12)

    def test_split_between_adjacent_floats_keeps_both_children(self):
        # the midpoint of two adjacent floats rounds up to the larger one,
        # which would send both rows left and recurse without end
        X = np.array([[1.0000000000000002], [1.0000000000000004]])
        y = np.array([0.0, 1.0])
        tree = RegressionTree().fit(X, y)
        assert tree.threshold[0] == X[0, 0]
        assert tree.predict(X).tolist() == [0.0, 1.0]

    def test_max_depth_respected(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(100, 3))
        y = rng.normal(size=100) + 50
        model = fit(RegressorSpec(Algorithm.DT, {"max_depth": 2}), X, y)
        assert len(np.unique(model.predict(X))) <= 4

    def test_min_samples_leaf(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(50, 2))
        y = rng.normal(size=50) + 50
        model = fit(RegressorSpec(Algorithm.DT, {"min_samples_leaf": 20}), X, y)
        tree = model.state["tree"]
        # every leaf must hold >= 20 training rows
        leaf_ids = {}
        for i, row in enumerate(X):
            node = 0
            while tree.feature[node] >= 0:
                node = tree.left[node] if row[tree.feature[node]] <= tree.threshold[node] \
                    else tree.right[node]
            leaf_ids.setdefault(node, 0)
            leaf_ids[node] += 1
        assert all(count >= 20 for count in leaf_ids.values())

    def test_importance_finds_signal(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(size=(200, 6))
        y = 100 * (X[:, 2] > 0.5) + rng.normal(0, 0.1, 200)
        model = fit(RegressorSpec(Algorithm.DT), X, y)
        assert int(np.argmax(model.importance)) == 2

    @pytest.mark.parametrize("algorithm", [Algorithm.DT, Algorithm.GB])
    def test_monotone_transform_invariance(self, algorithm):
        rng = np.random.default_rng(6)
        X = rng.uniform(1.0, 2.0, size=(80, 3))
        y = 10 * X[:, 0] + rng.normal(0, 0.5, 80)
        spec = RegressorSpec(algorithm, seed=9)
        baseline = fit(spec, X, y).predict(X)
        X2 = X.copy()
        X2[:, 0] = np.exp(X2[:, 0])  # strictly monotone transform of one column
        transformed = fit(spec, X2, y).predict(X2)
        np.testing.assert_allclose(baseline, transformed, atol=1e-9)

    def test_monotone_transform_preserves_forest_structure(self):
        # bootstrap resampling means out-of-bag rows may cross a moved
        # midpoint threshold, so the forest invariant is structural: the same
        # split features, topology and leaf values
        rng = np.random.default_rng(6)
        X = rng.uniform(1.0, 2.0, size=(80, 3))
        y = 10 * X[:, 0] + rng.normal(0, 0.5, 80)
        spec = RegressorSpec(Algorithm.RF, {"n_trees": 10}, seed=9)
        forest_a = fit(spec, X, y).state["trees"]
        X2 = X.copy()
        X2[:, 0] = np.exp(X2[:, 0])
        forest_b = fit(spec, X2, y).state["trees"]
        for ta, tb in zip(forest_a, forest_b):
            assert ta.feature == tb.feature
            assert ta.left == tb.left and ta.right == tb.right
            np.testing.assert_allclose(ta.value, tb.value, atol=1e-9)

    @pytest.mark.parametrize("data", ["random", "tied", "single_column",
                                      "constant_target"])
    @pytest.mark.parametrize("params", [
        {},
        {"max_depth": 3},
        {"min_samples_leaf": 4},
        {"max_depth": 5, "min_samples_leaf": 2, "max_features": 2},
        {"max_features": 1},
    ])
    def test_split_search_matches_per_feature_loop(self, data, params):
        rng = np.random.default_rng(11)
        n = 70
        if data == "random":
            X, y = rng.normal(size=(n, 5)), rng.uniform(0, 100, n)
        elif data == "tied":
            X = rng.integers(0, 3, size=(n, 5)).astype(float)
            y = 10.0 * rng.integers(0, 4, n)
        elif data == "single_column":
            X, y = np.round(rng.normal(size=(n, 1)), 1), rng.gamma(2.0, 20.0, n)
        else:
            X, y = rng.normal(size=(n, 5)), np.full(n, 42.0)
        fitted = [cls(**params, rng=np.random.default_rng(5)).fit(X, y)
                  for cls in (RegressionTree, PerFeatureLoopTree)]
        for attr in ("feature", "threshold", "left", "right", "value"):
            assert getattr(fitted[0], attr) == getattr(fitted[1], attr), attr
        assert fitted[0].importances_.tolist() == fitted[1].importances_.tolist()


class PerFeatureLoopTree(RegressionTree):
    """Reference split search: one sort and one gain vector per feature."""

    def _grow(self, X, y, idx, depth):
        node = self._new_node()
        sub_y = y[idx]
        self.value[node] = float(sub_y.mean())
        n = idx.size
        if (self.max_depth is not None and depth >= self.max_depth) \
                or n < 2 * self.min_samples_leaf:
            return node
        total, total_sq = sub_y.sum(), (sub_y ** 2).sum()
        parent_sse = total_sq - total * total / n
        if parent_sse <= _GAIN_EPS:
            return node
        best_gain, best_feature, best_threshold = 0.0, -1, 0.0
        counts = np.arange(1, n)
        lo, hi = self.min_samples_leaf, n - self.min_samples_leaf
        for f in self._candidate_features(X.shape[1]):
            order = np.argsort(X[idx, f], kind="stable")
            v, sy = X[idx, f][order], sub_y[order]
            cum, cum_sq = np.cumsum(sy)[:-1], np.cumsum(sy ** 2)[:-1]
            valid = (v[1:] > v[:-1]) & (counts >= lo) & (counts <= hi)
            if not valid.any():
                continue
            left_sse = cum_sq - cum ** 2 / counts
            right_sse = (total_sq - cum_sq) - (total - cum) ** 2 / (n - counts)
            gains = parent_sse - (left_sse + right_sse)
            gains[~valid] = -np.inf
            pos = int(np.argmax(gains))
            if gains[pos] > best_gain + _GAIN_EPS:
                best_gain, best_feature = float(gains[pos]), int(f)
                best_threshold = float((v[pos] + v[pos + 1]) / 2.0)
        if best_feature < 0:
            return node
        self.importances_[best_feature] += best_gain
        go_left = X[idx, best_feature] <= best_threshold
        self.feature[node] = best_feature
        self.threshold[node] = best_threshold
        self.left[node] = self._grow(X, y, idx[go_left], depth + 1)
        self.right[node] = self._grow(X, y, idx[~go_left], depth + 1)
        return node


class TestEnsembles:
    def test_rf_is_mean_of_trees(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(60, 4))
        y = rng.uniform(0, 50, 60)
        model = fit(RegressorSpec(Algorithm.RF, {"n_trees": 20}, seed=3), X, y)
        Q = rng.normal(size=(10, 4))
        expected = np.mean([t.predict(Q) for t in model.state["trees"]], axis=0)
        np.testing.assert_allclose(model.predict(Q), expected, atol=1e-12)

    def test_gb_training_mse_non_increasing(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            X = rng.uniform(size=(60, 4))
            y = 30 * X[:, 0] + rng.normal(0, 1, 60) + 50
            model = fit(RegressorSpec(Algorithm.GB, {"rounds": 60}, seed=seed), X, y)
            curve = model.state["train_mse_curve"]
            assert all(b <= a + 1e-9 for a, b in zip(curve, curve[1:]))

    def test_adaboost_improves_over_single_stump_data(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(size=(120, 3))
        y = 40 * np.sin(6 * X[:, 0]) + 100
        single = fit(RegressorSpec(Algorithm.DT, {"max_depth": 4}), X, y)
        boosted = fit(RegressorSpec(Algorithm.AdaDT, {"rounds": 30}, seed=1), X, y)
        mae_single = np.mean(np.abs(single.predict(X) - y))
        mae_boost = np.mean(np.abs(boosted.predict(X) - y))
        assert mae_boost <= mae_single + 1e-9


class TestMLP:
    def test_gradient_check(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(12, 4))
        y = rng.normal(size=12)
        params = init_params(4, 6, rng)
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
                assert numeric == pytest.approx(analytic, rel=1e-5, abs=1e-8), key

    def test_learns_linear_map(self):
        rng = np.random.default_rng(10)
        X = rng.uniform(0, 1, size=(200, 3))
        y = 3 * X[:, 0] + 1
        spec = RegressorSpec(Algorithm.NN, {"hidden_units": 16, "epochs": 300}, seed=4)
        model = fit(spec, X, y)
        mae = np.mean(np.abs(model.predict(X) - y))
        assert mae < 0.2


class TestPredictionContract:
    @pytest.mark.parametrize("algorithm", list(Algorithm))
    def test_determinism(self, algorithm):
        rng = np.random.default_rng(12)
        X = rng.uniform(size=(50, 5))
        y = rng.uniform(10, 60, 50)
        Q = rng.uniform(size=(10, 5))
        spec = RegressorSpec(algorithm, seed=77)
        a = fit(spec, X, y).predict(Q)
        b = fit(spec, X, y).predict(Q)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("algorithm", list(Algorithm))
    def test_predictions_clipped_at_zero(self, algorithm):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(30, 3))
        y = rng.normal(-100, 1, 30)  # negative targets force negative raw output
        model = fit(RegressorSpec(algorithm, seed=1), X, y)
        assert (model.predict(X) >= 0).all()

    def test_deterministic_flag(self):
        assert is_deterministic(Algorithm.DT)
        assert is_deterministic(Algorithm.KNN)
        assert is_deterministic(Algorithm.GB)
        assert not is_deterministic(Algorithm.RF)
        assert not is_deterministic(Algorithm.NN)
        assert not is_deterministic(Algorithm.AdaDT)


class TestLearnerTable:
    def test_rows_match_learner_behaviour(self):
        rng = np.random.default_rng(21)
        X = rng.uniform(size=(40, 3))
        y = rng.uniform(10, 60, 40)
        for algorithm in Algorithm:
            for point in HyperGrid.default(algorithm).points():
                RegressorSpec(algorithm, point)
            first, second = (fit(RegressorSpec(algorithm, seed=seed), X, y)
                             for seed in (1, 2))
            assert supports_importance(algorithm) == \
                (first.importance is not None), algorithm
            # a wrong flag would copy one repeat of a stochastic learner
            same = np.array_equal(first.predict(X), second.predict(X))
            assert is_deterministic(algorithm) == same, algorithm


class TestGridSearch:
    def test_single_point(self):
        X, y, _ = linear_data(1, n=40)
        grid = HyperGrid(Algorithm.RR, {"alpha": [0.5]})
        spec = grid_search(Algorithm.RR, grid, X, y)
        assert spec.hyperparameters["alpha"] == 0.5

    def test_knn_prefers_local_k_on_piecewise_signal(self):
        rng = np.random.default_rng(14)
        X = np.sort(rng.uniform(0, 1, 120)).reshape(-1, 1)
        y = np.floor(X[:, 0] * 10) * 25 + rng.normal(0, 0.1, 120)
        grid = HyperGrid(Algorithm.KNN, {"k": [1, 50]})
        best = grid_search(Algorithm.KNN, grid, X, y)
        # verify against direct evaluation of both candidates
        from reviewtime.preprocess import chronological_split
        fit_part, val_part = chronological_split(len(X))
        maes = {}
        for k in (1, 50):
            model = fit(RegressorSpec(Algorithm.KNN, {"k": k}), X[fit_part], y[fit_part])
            maes[k] = np.mean(np.abs(model.predict(X[val_part]) - y[val_part]))
        assert best.hyperparameters["k"] == min(maes, key=maes.get) == 1

    def test_all_points_failed(self):
        X = np.zeros((1, 2))  # too few rows for any fit
        y = np.zeros(1)
        grid = HyperGrid(Algorithm.RR, {"alpha": [0.1, 1.0]})
        with pytest.raises(AllPointsFailedError):
            grid_search(Algorithm.RR, grid, X, y)

    def test_tie_keeps_first_point(self):
        X, y, _ = linear_data(2, n=40)
        grid = HyperGrid(Algorithm.KNN, {"k": [2, 2]})
        best = grid_search(Algorithm.KNN, grid, X, y)
        assert best.hyperparameters["k"] == 2

