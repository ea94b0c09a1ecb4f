"""CART regression tree with variance-reduction splitting.

Thresholds are midpoints between consecutive distinct sorted values; equal
split gains resolve to the lowest feature index, then the lowest threshold,
so fitting is fully deterministic.  Serves as the base learner for the
forest and boosting ensembles.
"""

from __future__ import annotations

import numpy as np

from .base import RegressorSpec, check_training_inputs

_GAIN_EPS = 1e-12


class RegressionTree:
    def __init__(self, max_depth: int | None = None, min_samples_leaf: int = 1,
                 max_features: int | None = None,
                 rng: np.random.Generator | None = None):
        self.max_depth = max_depth
        self.min_samples_leaf = max(1, int(min_samples_leaf))
        self.max_features = max_features
        self.rng = rng
        # flat node arrays; feature == -1 marks a leaf
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []
        self.importances_: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RegressionTree":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        self.importances_ = np.zeros(X.shape[1])
        self._grow(X, y, np.arange(X.shape[0]), depth=0)
        return self

    def _new_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def _candidate_features(self, p: int) -> np.ndarray:
        if self.max_features is None or self.max_features >= p:
            return np.arange(p)
        chosen = self.rng.choice(p, size=self.max_features, replace=False)
        return np.sort(chosen)

    def _grow(self, X: np.ndarray, y: np.ndarray, idx: np.ndarray, depth: int) -> int:
        node = self._new_node()
        sub_y = y[idx]
        self.value[node] = float(sub_y.mean())
        n = idx.size
        if (self.max_depth is not None and depth >= self.max_depth) \
                or n < 2 * self.min_samples_leaf:
            return node
        total = sub_y.sum()
        total_sq = (sub_y ** 2).sum()
        parent_sse = total_sq - total * total / n
        if parent_sse <= _GAIN_EPS:
            return node
        best_gain = 0.0
        best_feature = -1
        best_threshold = 0.0
        for f in self._candidate_features(X.shape[1]):
            col = X[idx, f]
            order = np.argsort(col, kind="stable")
            v = col[order]
            sy = sub_y[order]
            cum = np.cumsum(sy)
            cum_sq = np.cumsum(sy ** 2)
            counts = np.arange(1, n)
            distinct = v[1:] > v[:-1]
            lo = self.min_samples_leaf
            hi = n - self.min_samples_leaf
            valid = distinct & (counts >= lo) & (counts <= hi)
            if not valid.any():
                continue
            left_sse = cum_sq[:-1] - cum[:-1] ** 2 / counts
            right_counts = n - counts
            right_sum = total - cum[:-1]
            right_sse = (total_sq - cum_sq[:-1]) - right_sum ** 2 / right_counts
            gains = parent_sse - (left_sse + right_sse)
            gains[~valid] = -np.inf
            pos = int(np.argmax(gains))  # first max: lowest threshold wins ties
            gain = float(gains[pos])
            if gain > best_gain + _GAIN_EPS:
                best_gain = gain
                best_feature = int(f)
                best_threshold = float((v[pos] + v[pos + 1]) / 2.0)
        if best_feature < 0:
            return node
        self.importances_[best_feature] += best_gain
        col = X[idx, best_feature]
        go_left = col <= best_threshold
        left_idx = idx[go_left]
        right_idx = idx[~go_left]
        self.feature[node] = best_feature
        self.threshold[node] = best_threshold
        self.left[node] = self._grow(X, y, left_idx, depth + 1)
        self.right[node] = self._grow(X, y, right_idx, depth + 1)
        return node

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        out = np.empty(X.shape[0])
        stack = [(0, np.arange(X.shape[0]))]
        while stack:
            node, rows = stack.pop()
            if rows.size == 0:
                continue
            f = self.feature[node]
            if f < 0:
                out[rows] = self.value[node]
                continue
            go_left = X[rows, f] <= self.threshold[node]
            stack.append((self.left[node], rows[go_left]))
            stack.append((self.right[node], rows[~go_left]))
        return out


def fit_decision_tree(spec: RegressorSpec, X: np.ndarray, y: np.ndarray) -> dict:
    X, y = check_training_inputs(X, y)
    max_depth = spec.hyperparameters["max_depth"]
    tree = RegressionTree(
        max_depth=None if max_depth is None else int(max_depth),
        min_samples_leaf=int(spec.hyperparameters["min_samples_leaf"]),
    ).fit(X, y)
    total = tree.importances_.sum()
    importance = tree.importances_ / total if total > 0 else tree.importances_
    return {"tree": tree, "importance": importance}


def predict_decision_tree(state: dict, X: np.ndarray) -> np.ndarray:
    return state["tree"].predict(X)
