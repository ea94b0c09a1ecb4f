"""Linear model family: least squares, ridge, lasso, Bayesian ridge.

All four fit an unpenalized intercept by centering the design; importance is
the absolute value of the fitted coefficients.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .base import RegressorSpec

LASSO_TOL = 1e-7
LASSO_MAX_SWEEPS = 10_000
BLAR_TOL = 1e-6


def _linear_state(coef: np.ndarray, intercept: float,
                  flags: tuple[str, ...] = ()) -> dict:
    return {"coef": coef, "intercept": intercept,
            "importance": np.abs(coef), "flags": flags}


def predict_linear(state: dict, X: np.ndarray) -> np.ndarray:
    return X @ state["coef"] + state["intercept"]


def fit_linear(spec: RegressorSpec, X: np.ndarray, y: np.ndarray) -> dict:
    """Ordinary least squares via the normal equations.

    A rank-deficient design falls back to a ridge solve with lambda = 1e-8
    and flags the model.
    """
    xm = X.mean(axis=0)
    ym = y.mean()
    xc = X - xm
    yc = y - ym
    gram = xc.T @ xc
    rhs = xc.T @ yc
    flags: tuple[str, ...] = ()
    try:
        np.linalg.cholesky(gram)  # raises when the design is rank-deficient
        coef = np.linalg.solve(gram, rhs)
        if not np.isfinite(coef).all():
            raise np.linalg.LinAlgError("non-finite solution")
    except np.linalg.LinAlgError:
        coef = np.linalg.solve(gram + 1e-8 * np.eye(gram.shape[0]), rhs)
        flags = ("singular_fallback",)
    intercept = float(ym - xm @ coef)
    return _linear_state(coef, intercept, flags)


def fit_ridge(spec: RegressorSpec, X: np.ndarray, y: np.ndarray) -> dict:
    """Ridge regression; the penalty excludes the intercept (centered solve)."""
    alpha = float(spec.hyperparameters["alpha"])
    xm = X.mean(axis=0)
    ym = y.mean()
    xc = X - xm
    coef = np.linalg.solve(xc.T @ xc + alpha * np.eye(X.shape[1]), xc.T @ (y - ym))
    intercept = float(ym - xm @ coef)
    return _linear_state(coef, intercept)


def fit_lasso(spec: RegressorSpec, X: np.ndarray, y: np.ndarray) -> dict:
    """L1-penalized least squares by cyclic coordinate descent.

    Objective: (1/2n)||y - Xb - c||^2 + alpha * ||b||_1 with soft-threshold
    updates; converges when the largest coefficient change in a sweep drops
    below tolerance.
    """
    alpha = float(spec.hyperparameters["alpha"])
    n, p = X.shape
    xm = X.mean(axis=0)
    ym = y.mean()
    xc = X - xm
    yc = y - ym
    col_sq = (xc ** 2).sum(axis=0) / n
    coef = np.zeros(p)
    residual = yc.copy()
    flags: tuple[str, ...] = ()
    for _ in range(LASSO_MAX_SWEEPS):
        max_delta = 0.0
        for j in range(p):
            if col_sq[j] == 0.0:
                continue
            rho = xc[:, j] @ residual / n + col_sq[j] * coef[j]
            new = np.sign(rho) * max(abs(rho) - alpha, 0.0) / col_sq[j]
            delta = new - coef[j]
            if delta != 0.0:
                residual -= delta * xc[:, j]
                coef[j] = new
                max_delta = max(max_delta, abs(delta))
        if max_delta < LASSO_TOL:
            break
    else:
        flags = ("non_convergence",)
    intercept = float(ym - xm @ coef)
    return _linear_state(coef, intercept, flags)


def fit_bayesian_ridge(spec: RegressorSpec, X: np.ndarray, y: np.ndarray) -> dict:
    """Evidence-approximation Bayesian ridge.

    Iteratively re-estimates the noise precision and the shared weight-prior
    precision from the posterior until the coefficient mean stabilizes.
    """
    max_iter = int(spec.hyperparameters["max_iter"])
    n, p = X.shape
    xm = X.mean(axis=0)
    ym = y.mean()
    xc = X - xm
    yc = y - ym
    y_var = yc.var()
    noise_prec = 1.0 / y_var if y_var > 0 else 1.0
    weight_prec = 1.0
    gram = xc.T @ xc
    xty = xc.T @ yc
    eigvals = np.linalg.eigvalsh(gram)
    coef = np.zeros(p)
    flags: tuple[str, ...] = ()
    converged = False
    for _ in range(max_iter):
        posterior_prec = weight_prec * np.eye(p) + noise_prec * gram
        coef_new = noise_prec * np.linalg.solve(posterior_prec, xty)
        gamma = float(np.sum(noise_prec * eigvals / (weight_prec + noise_prec * eigvals)))
        sq_norm = float(coef_new @ coef_new)
        weight_prec = gamma / sq_norm if sq_norm > 0 else 1e12
        sse = float(np.sum((yc - xc @ coef_new) ** 2))
        noise_prec = (n - gamma) / sse if sse > 0 else 1e12
        if np.max(np.abs(coef_new - coef)) < BLAR_TOL:
            coef = coef_new
            converged = True
            break
        coef = coef_new
    if not converged:
        flags = ("non_convergence",)
    intercept = float(ym - xm @ coef)
    return _linear_state(coef, intercept, flags)
