"""One-hidden-layer rectifier network trained by mini-batch SGD on squared loss."""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .base import RegressorSpec


def init_params(p: int, hidden: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    return {
        "W1": rng.normal(0.0, np.sqrt(2.0 / p), size=(p, hidden)),
        "b1": np.zeros(hidden),
        "W2": rng.normal(0.0, np.sqrt(2.0 / hidden), size=(hidden, 1)),
        "b2": np.zeros(1),
    }


def predict_mlp(params: dict[str, np.ndarray], X: np.ndarray) -> np.ndarray:
    hidden = np.maximum(X @ params["W1"] + params["b1"], 0.0)
    return (hidden @ params["W2"] + params["b2"])[:, 0]


def loss_and_gradients(params: dict[str, np.ndarray], X: np.ndarray,
                       y: np.ndarray) -> tuple[float, dict[str, np.ndarray]]:
    """Half mean squared error and its analytic gradients."""
    n = X.shape[0]
    pre = X @ params["W1"] + params["b1"]
    hidden = np.maximum(pre, 0.0)
    pred = (hidden @ params["W2"] + params["b2"])[:, 0]
    err = pred - y
    loss = 0.5 * float(err @ err) / n
    d_pred = (err / n)[:, None]
    grads = {
        "W2": hidden.T @ d_pred,
        "b2": d_pred.sum(axis=0),
    }
    d_hidden = (d_pred @ params["W2"].T) * (pre > 0.0)
    grads["W1"] = X.T @ d_hidden
    grads["b1"] = d_hidden.sum(axis=0)
    return loss, grads


def fit_mlp(spec: RegressorSpec, X: np.ndarray, y: np.ndarray) -> dict:
    """The state is the network's parameters: W1, b1, W2 and b2."""
    hidden_units = int(spec.hyperparameters["hidden_units"])
    epochs = int(spec.hyperparameters["epochs"])
    learning_rate = float(spec.hyperparameters["learning_rate"])
    batch_size = int(spec.hyperparameters["batch_size"])
    n = X.shape[0]
    rng = np.random.default_rng(spec.seed)
    params = init_params(X.shape[1], hidden_units, rng)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = order[start:start + batch_size]
            _, grads = loss_and_gradients(params, X[batch], y[batch])
            for key in params:
                params[key] = params[key] - learning_rate * grads[key]
    return params
