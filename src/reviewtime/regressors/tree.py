"""CART regression tree with variance-reduction splitting.

Thresholds are midpoints between consecutive distinct sorted values, or the
lower value where the midpoint rounds up to the upper one, so that neither
child is ever empty (scikit-learn's splitter does the same).  Each
node scores every candidate feature in one vectorized pass.  Within one
feature, exact gain ties go to the lowest threshold; across features, a
later candidate replaces the best so far only if its gain is larger by more
than ``_GAIN_EPS``, so gains within ``_GAIN_EPS`` go to the earlier feature.
Fitting is therefore fully deterministic.  Serves as the base learner for
the forest and boosting ensembles.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .base import RegressorSpec

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
        n = idx.size
        total = sub_y.sum()
        self.value[node] = float(total / n)  # == sub_y.mean(), bit for bit
        if (self.max_depth is not None and depth >= self.max_depth) \
                or n < 2 * self.min_samples_leaf:
            return node
        total_sq = (sub_y ** 2).sum()
        parent_sse = total_sq - total * total / n
        if parent_sse <= _GAIN_EPS:
            return node
        feats = self._candidate_features(X.shape[1])
        cols = X[idx[:, None], feats]
        order = np.argsort(cols, axis=0, kind="stable")
        columns = np.arange(feats.size)
        v = cols[order, columns]
        sy = sub_y[order]
        cum = np.cumsum(sy, axis=0)[:-1]
        cum_sq = np.cumsum(sy ** 2, axis=0)[:-1]
        counts = np.arange(1, n)[:, None]
        lo = self.min_samples_leaf
        valid = (v[1:] > v[:-1]) & (counts >= lo) & (counts <= n - lo)
        left_sse = cum_sq - cum ** 2 / counts
        right_sse = (total_sq - cum_sq) - (total - cum) ** 2 / (n - counts)
        gains = np.where(valid, parent_sse - (left_sse + right_sse), -np.inf)
        pos = gains.argmax(axis=0)  # first max: lowest threshold wins ties
        best_gain, best = 0.0, -1
        # a later feature must beat the best so far by more than _GAIN_EPS
        for j, gain in enumerate(gains[pos, columns].tolist()):
            if gain > best_gain + _GAIN_EPS:
                best_gain = gain
                best = j
        if best < 0:
            return node
        best_feature = int(feats[best])
        low, high = v[pos[best], best], v[pos[best] + 1, best]
        best_threshold = float((low + high) / 2.0)
        if best_threshold >= high:  # adjacent floats: the midpoint rounds up
            best_threshold = float(low)
        self.importances_[best_feature] += best_gain
        go_left = X[idx, best_feature] <= best_threshold
        self.feature[node] = best_feature
        self.threshold[node] = best_threshold
        self.left[node] = self._grow(X, y, idx[go_left], depth + 1)
        self.right[node] = self._grow(X, y, idx[~go_left], depth + 1)
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


def share(v: np.ndarray) -> np.ndarray:
    """``v`` as shares of its sum; ``v`` itself when the sum is not positive."""
    total = v.sum()
    return v / total if total > 0 else v


def fit_decision_tree(spec: RegressorSpec, X: np.ndarray, y: np.ndarray) -> dict:
    max_depth = spec.hyperparameters["max_depth"]
    tree = RegressionTree(
        max_depth=None if max_depth is None else int(max_depth),
        min_samples_leaf=int(spec.hyperparameters["min_samples_leaf"]),
    ).fit(X, y)
    return {"tree": tree, "importance": share(tree.importances_)}


def predict_decision_tree(state: dict, X: np.ndarray) -> np.ndarray:
    return state["tree"].predict(X)
