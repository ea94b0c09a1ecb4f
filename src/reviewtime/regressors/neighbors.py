"""k-nearest-neighbor regression and linear support-vector regression."""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .base import RegressorSpec


def fit_knn(spec: RegressorSpec, X: np.ndarray, y: np.ndarray) -> dict:
    """Brute-force Euclidean kNN; uniform mean of the k nearest targets."""
    k = min(int(spec.hyperparameters["k"]), X.shape[0])
    return {"k": k, "train_X": X.copy(), "train_y": y.copy()}


def predict_knn(state: dict, Q: np.ndarray) -> np.ndarray:
    """Uniform mean of the k nearest training targets.

    Distance ties go to the lower training-row index (a stable sort), so
    predictions do not depend on floating-point sort instability.
    """
    d2 = ((Q[:, None, :] - state["train_X"][None, :, :]) ** 2).sum(axis=2)
    nearest = np.argsort(d2, axis=1, kind="stable")[:, :state["k"]]
    return state["train_y"][nearest].mean(axis=1)


def fit_svr(spec: RegressorSpec, X: np.ndarray, y: np.ndarray) -> dict:
    """Linear epsilon-insensitive SVR by averaged full-batch subgradient descent.

    Targets are standardized internally so the epsilon tube and the C grid
    keep their meaning across datasets; the regularization strength is
    1/(C*n) in the mean-loss objective with a Pegasos step schedule for the
    weights.  Returned parameters average the second half of the iterates.
    Inputs are assumed normalized (the pipeline enforces it for this learner).
    """
    C = float(spec.hyperparameters["C"])
    epsilon = float(spec.hyperparameters["epsilon"])
    epochs = int(spec.hyperparameters["epochs"])
    n, p = X.shape
    y_mean = float(y.mean())
    y_std = float(y.std()) or 1.0
    target = (y - y_mean) / y_std
    lam = 1.0 / (C * n)
    w = np.zeros(p)
    b = 0.0
    w_sum = np.zeros(p)
    b_sum = 0.0
    averaged = 0
    radius = 1.0 / np.sqrt(lam)  # the optimum lies within this ball
    for t in range(epochs):
        residual = target - (X @ w + b)
        sign = np.sign(residual) * (np.abs(residual) > epsilon)
        step_w = 1.0 / (lam * (t + 1))
        w = (1.0 - 1.0 / (t + 1)) * w + step_w * (sign @ X) / n
        norm = np.linalg.norm(w)
        if norm > radius:
            w *= radius / norm
        b += sign.mean() / (t + 1) ** 0.5
        if t >= epochs // 2:
            w_sum += w
            b_sum += b
            averaged += 1
    w = w_sum / averaged
    b = b_sum / averaged

    return {"w": w, "b": b, "y_std": y_std, "y_mean": y_mean,
            "importance": np.abs(w)}


def predict_svr(state: dict, Q: np.ndarray) -> np.ndarray:
    return (Q @ state["w"] + state["b"]) * state["y_std"] + state["y_mean"]
