"""The eleven regression algorithms behind a uniform fit/predict contract."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import ensemble, linear, mlp, neighbors, tree
from .base import (
    ALGORITHM_PARAMS,
    DEFAULT_GRIDS,
    Algorithm,
    HyperGrid,
    RegressorSpec,
    TrainedModel,
    grid_search,
    is_deterministic,
    supports_importance,
)
from .tree import RegressionTree

# fitter(spec, X, y) -> plain state dict
_FITTERS = {
    Algorithm.LR: linear.fit_linear,
    Algorithm.LaR: linear.fit_lasso,
    Algorithm.RR: linear.fit_ridge,
    Algorithm.BLaR: linear.fit_bayesian_ridge,
    Algorithm.SVM: neighbors.fit_svr,
    Algorithm.KNN: neighbors.fit_knn,
    Algorithm.DT: tree.fit_decision_tree,
    Algorithm.NN: mlp.fit_mlp,
    Algorithm.RF: ensemble.fit_random_forest,
    Algorithm.AdaDT: ensemble.fit_adaboost,
    Algorithm.GB: ensemble.fit_gradient_boosting,
}

# predictor(state, X) -> unclipped predictions; TrainedModel.predict dispatches here
_PREDICTORS = {
    Algorithm.LR: linear.predict_linear,
    Algorithm.LaR: linear.predict_linear,
    Algorithm.RR: linear.predict_linear,
    Algorithm.BLaR: linear.predict_linear,
    Algorithm.SVM: neighbors.predict_svr,
    Algorithm.KNN: neighbors.predict_knn,
    Algorithm.DT: tree.predict_decision_tree,
    Algorithm.NN: mlp.predict_mlp,
    Algorithm.RF: ensemble.predict_random_forest,
    Algorithm.AdaDT: ensemble.predict_adaboost,
    Algorithm.GB: ensemble.predict_gradient_boosting,
}


def fit(spec: RegressorSpec, X: np.ndarray, y: np.ndarray,
        feature_names: Sequence[str] | None = None) -> TrainedModel:
    X = np.asarray(X, dtype=float)
    if feature_names is None:
        feature_names = tuple(f"f{i}" for i in range(X.shape[1]))
    return TrainedModel(spec, feature_names,
                        _FITTERS[Algorithm(spec.algorithm)](spec, X, y))


__all__ = [
    "ALGORITHM_PARAMS",
    "DEFAULT_GRIDS",
    "Algorithm",
    "HyperGrid",
    "RegressionTree",
    "RegressorSpec",
    "TrainedModel",
    "fit",
    "grid_search",
    "is_deterministic",
    "supports_importance",
]
