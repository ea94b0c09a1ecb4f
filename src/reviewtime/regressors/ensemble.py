"""Tree ensembles: bagged forest, AdaBoost.R2 boosting, gradient boosting."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .tree import RegressionTree, share

if TYPE_CHECKING:
    from .base import RegressorSpec


def fit_random_forest(spec: RegressorSpec, X: np.ndarray, y: np.ndarray) -> dict:
    """Bootstrap-aggregated trees with ceil(p/3) candidate features per split."""
    n, p = X.shape
    n_trees = int(spec.hyperparameters["n_trees"])
    min_leaf = int(spec.hyperparameters["min_samples_leaf"])
    max_features = max(1, math.ceil(p / 3))
    rng = np.random.default_rng(spec.seed)
    trees: list[RegressionTree] = []
    importances = np.zeros(p)
    for _ in range(n_trees):
        tree_rng = np.random.default_rng(rng.integers(0, 2 ** 63))
        sample = tree_rng.integers(0, n, size=n)
        tree = RegressionTree(min_samples_leaf=min_leaf,
                              max_features=max_features, rng=tree_rng)
        tree.fit(X[sample], y[sample])
        trees.append(tree)
        importances += share(tree.importances_)
    return {"trees": trees, "importance": share(importances)}


def predict_random_forest(state: dict, Q: np.ndarray) -> np.ndarray:
    preds = np.zeros(Q.shape[0])
    for tree in state["trees"]:
        preds += tree.predict(Q)
    return preds / len(state["trees"])


def fit_adaboost(spec: RegressorSpec, X: np.ndarray, y: np.ndarray) -> dict:
    """AdaBoost.R2 with linear loss over shallow trees.

    Each round trains on a weight-proportional bootstrap resample; rounds
    stop early on a perfect fit or when the weighted average loss reaches
    0.5.  Prediction is the weighted median of the member predictions.
    """
    n = X.shape[0]
    rounds = int(spec.hyperparameters["rounds"])
    max_depth = int(spec.hyperparameters["max_depth"])
    rng = np.random.default_rng(spec.seed)
    weights = np.full(n, 1.0 / n)
    trees: list[RegressionTree] = []
    log_inv_betas: list[float] = []
    for _ in range(rounds):
        sample = rng.choice(n, size=n, replace=True, p=weights)
        tree = RegressionTree(max_depth=max_depth).fit(X[sample], y[sample])
        errors = np.abs(tree.predict(X) - y)
        max_error = errors.max()
        if max_error <= 0:
            trees.append(tree)
            log_inv_betas.append(math.log(1e12))
            break
        losses = errors / max_error
        avg_loss = float(weights @ losses)
        if avg_loss >= 0.5:
            if not trees:
                trees.append(tree)
                log_inv_betas.append(0.0)
            break
        beta = avg_loss / (1.0 - avg_loss)
        trees.append(tree)
        log_inv_betas.append(math.log(1.0 / beta))
        weights = weights * beta ** (1.0 - losses)
        weights = weights / weights.sum()

    member_weights = np.asarray(log_inv_betas)

    importances = np.zeros(X.shape[1])
    for tree, w in zip(trees, member_weights):
        total = tree.importances_.sum()
        if total > 0 and w > 0:  # not w * share(...), which rounds differently
            importances += w * tree.importances_ / total
    return {"trees": trees, "weights": member_weights,
            "importance": share(importances)}


def predict_adaboost(state: dict, Q: np.ndarray) -> np.ndarray:
    """Weighted median of the member predictions."""
    preds = np.column_stack([tree.predict(Q) for tree in state["trees"]])
    order = np.argsort(preds, axis=1)
    cdf = np.cumsum(state["weights"][order], axis=1)
    half = 0.5 * cdf[:, -1]
    pick = (cdf >= half[:, None]).argmax(axis=1)
    rows = np.arange(Q.shape[0])
    return preds[rows, order[rows, pick]]


def fit_gradient_boosting(spec: RegressorSpec, X: np.ndarray, y: np.ndarray) -> dict:
    """Squared-loss gradient boosting over depth-limited trees.

    Starts from the target mean; each round fits a tree to the current
    residuals and adds it scaled by the learning rate.
    """
    rounds = int(spec.hyperparameters["rounds"])
    learning_rate = float(spec.hyperparameters["learning_rate"])
    max_depth = int(spec.hyperparameters["max_depth"])
    base = float(y.mean())
    current = np.full(X.shape[0], base)
    trees: list[RegressionTree] = []
    train_curve: list[float] = []
    for _ in range(rounds):
        residual = y - current
        tree = RegressionTree(max_depth=max_depth).fit(X, residual)
        current = current + learning_rate * tree.predict(X)
        trees.append(tree)
        train_curve.append(float(np.mean((y - current) ** 2)))

    importances = np.zeros(X.shape[1])
    for tree in trees:
        importances += tree.importances_
    return {"trees": trees, "base": base, "learning_rate": learning_rate,
            "train_mse_curve": train_curve, "importance": share(importances)}


def predict_gradient_boosting(state: dict, Q: np.ndarray) -> np.ndarray:
    preds = np.full(Q.shape[0], state["base"])
    for tree in state["trees"]:
        preds += state["learning_rate"] * tree.predict(Q)
    return preds
