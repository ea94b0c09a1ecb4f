"""Uniform fit/predict contract for the eleven regression algorithms.

All randomness flows from ``RegressorSpec.seed``; identical (spec, data)
always yields bit-identical predictions.  Predictions are clipped below at 0
since the target is a duration in hours.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Mapping, Sequence

import numpy as np

from ..errors import (
    AllPointsFailedError,
    EmptyTrainingSetError,
    FeatureMismatchError,
)
from . import ensemble, linear, mlp, neighbors, tree

HOLDOUT_FRACTION = 0.2  # trailing share of the training rows held out


class Algorithm(str, Enum):
    LR = "LR"
    LaR = "LaR"
    RR = "RR"
    BLaR = "BLaR"
    SVM = "SVM"
    KNN = "KNN"
    DT = "DT"
    NN = "NN"
    RF = "RF"
    AdaDT = "AdaDT"
    GB = "GB"


@dataclass(frozen=True)
class Learner:
    """One row of ``LEARNERS``: everything the package knows about an algorithm."""

    fit: Callable  # fit(spec, X, y) -> plain state, on checked inputs
    predict: Callable  # predict(state, X) -> unclipped predictions
    defaults: Mapping[str, object]  # the accepted hyperparameters, with defaults
    grid: Mapping[str, list]  # the default tuning grid
    deterministic: bool = True  # no randomness: one run represents all repeats
    importance: bool = True  # the state carries a per-feature importance
    scaled: bool = False  # min-max scaled when the pipeline asks for no normalizer


LEARNERS: dict[Algorithm, Learner] = {
    Algorithm.LR: Learner(linear.fit_linear, linear.predict_linear, {}, {}),
    Algorithm.LaR: Learner(linear.fit_lasso, linear.predict_linear, {"alpha": 0.01},
                           {"alpha": [0.001, 0.01, 0.1, 1.0]}),
    Algorithm.RR: Learner(linear.fit_ridge, linear.predict_linear, {"alpha": 1.0},
                          {"alpha": [0.1, 1.0, 10.0]}),
    Algorithm.BLaR: Learner(linear.fit_bayesian_ridge, linear.predict_linear,
                            {"max_iter": 300}, {}),
    Algorithm.SVM: Learner(neighbors.fit_svr, neighbors.predict_svr,
                           {"C": 1.0, "epsilon": 0.1, "epochs": 500},
                           {"C": [0.1, 1.0, 10.0], "epsilon": [0.01, 0.1]},
                           scaled=True),
    Algorithm.KNN: Learner(neighbors.fit_knn, neighbors.predict_knn, {"k": 5},
                           {"k": [1, 3, 5, 10, 20]}, importance=False),
    Algorithm.DT: Learner(tree.fit_decision_tree, tree.predict_decision_tree,
                          {"max_depth": None, "min_samples_leaf": 1},
                          {"max_depth": [4, 8, 16, None],
                           "min_samples_leaf": [1, 5, 20]}),
    Algorithm.NN: Learner(mlp.fit_mlp, mlp.predict_mlp,
                          {"hidden_units": 16, "epochs": 100, "learning_rate": 0.01,
                           "batch_size": 32},
                          {"hidden_units": [16, 64], "epochs": [100]},
                          deterministic=False, importance=False, scaled=True),
    Algorithm.RF: Learner(ensemble.fit_random_forest, ensemble.predict_random_forest,
                          {"n_trees": 100, "min_samples_leaf": 1},
                          {"n_trees": [100, 300]}, deterministic=False),
    Algorithm.AdaDT: Learner(ensemble.fit_adaboost, ensemble.predict_adaboost,
                             {"rounds": 50, "max_depth": 4}, {"rounds": [50, 100]},
                             deterministic=False),
    Algorithm.GB: Learner(ensemble.fit_gradient_boosting,
                          ensemble.predict_gradient_boosting,
                          {"rounds": 100, "learning_rate": 0.1, "max_depth": 3},
                          {"learning_rate": [0.05, 0.1], "rounds": [100, 300]}),
}


def _check_hyperparameter(algorithm: Algorithm, name: str, value) -> None:
    """Raise ValueError for an unknown ``name`` or a ``value`` of the wrong type.

    An int default takes an int and a float default an int or a float; a
    None default also takes None.  A bool is never a number here.
    """
    defaults = LEARNERS[algorithm].defaults
    if name not in defaults:
        raise ValueError(f"unknown hyperparameter {name!r} for {algorithm.value}")
    if value is None and defaults[name] is None:
        return
    if isinstance(defaults[name], float):
        expected, kind = numbers.Real, "a number"
    else:
        expected, kind = numbers.Integral, "an integer"
    if isinstance(value, bool) or not isinstance(value, expected):
        raise ValueError(f"{algorithm.value} hyperparameter {name!r} must be "
                         f"{kind}, got {value!r}")


@dataclass(frozen=True)
class RegressorSpec:
    algorithm: Algorithm
    hyperparameters: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        algorithm = Algorithm(self.algorithm)
        object.__setattr__(self, "algorithm", algorithm)
        for name, value in self.hyperparameters.items():
            _check_hyperparameter(algorithm, name, value)
        merged = {**LEARNERS[algorithm].defaults, **self.hyperparameters}
        object.__setattr__(self, "hyperparameters", merged)

    def with_seed(self, seed: int) -> "RegressorSpec":
        return RegressorSpec(self.algorithm, dict(self.hyperparameters), seed)


@dataclass(frozen=True)
class HyperGrid:
    algorithm: Algorithm
    values: dict[str, list]

    def __post_init__(self):
        object.__setattr__(self, "algorithm", Algorithm(self.algorithm))
        for name, candidates in self.values.items():
            if not candidates:
                raise ValueError(f"empty candidate list for {name!r}")
            for value in candidates:
                _check_hyperparameter(self.algorithm, name, value)

    def points(self) -> list[dict]:
        if not self.values:
            return [{}]
        names = list(self.values)
        combos = itertools.product(*(self.values[n] for n in names))
        return [dict(zip(names, combo)) for combo in combos]

    @classmethod
    def default(cls, algorithm: Algorithm) -> "HyperGrid":
        algorithm = Algorithm(algorithm)
        return cls(algorithm, {k: list(v) for k, v in LEARNERS[algorithm].grid.items()})


class TrainedModel:
    """A fitted predictor with the feature ordering used at fit time.

    ``state`` is the plain fitted state its algorithm's predictor reads; the
    optional ``importance`` and ``flags`` entries are exposed as attributes.
    """

    def __init__(self, spec: RegressorSpec, feature_names: Sequence[str],
                 state: Mapping):
        self.spec = spec
        self.feature_names = tuple(feature_names)
        self.state = dict(state)
        self.importance: np.ndarray | None = self.state.get("importance")
        self.flags: tuple[str, ...] = tuple(self.state.get("flags", ()))

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != len(self.feature_names):
            raise FeatureMismatchError(
                f"expected {len(self.feature_names)} features, got "
                f"{X.shape[1] if X.ndim == 2 else 'non-matrix input'}"
            )
        pred = np.asarray(LEARNERS[self.spec.algorithm].predict(self.state, X),
                          dtype=float)
        return np.maximum(pred, 0.0)


def supports_importance(algorithm: Algorithm) -> bool:
    return LEARNERS[Algorithm(algorithm)].importance


def is_deterministic(algorithm: Algorithm) -> bool:
    return LEARNERS[Algorithm(algorithm)].deterministic


def fit(spec: RegressorSpec, X: np.ndarray, y: np.ndarray,
        feature_names: Sequence[str] | None = None) -> TrainedModel:
    """Check the training inputs, then fit ``spec``'s learner on them."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be a 2-d array")
    if X.shape[0] != y.shape[0]:
        raise ValueError("X and y row counts differ")
    if X.shape[0] < 2:
        raise EmptyTrainingSetError("need at least 2 training rows")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("training data must be finite")
    if feature_names is None:
        feature_names = tuple(f"f{i}" for i in range(X.shape[1]))
    return TrainedModel(spec, feature_names,
                        LEARNERS[spec.algorithm].fit(spec, X, y))


def chronological_split(n: int) -> tuple[slice, slice]:
    """Split [0, n) into a leading fit part and a trailing holdout part."""
    if n < 2:
        raise EmptyTrainingSetError("need at least 2 rows for a chronological split")
    holdout = max(1, int(n * HOLDOUT_FRACTION))
    holdout = min(holdout, n - 1)
    return slice(0, n - holdout), slice(n - holdout, n)


def holdout_mae(spec: RegressorSpec, X: np.ndarray, y: np.ndarray) -> float:
    """MAE of ``spec`` fitted on the leading rows and scored on the holdout."""
    fit_part, val_part = chronological_split(X.shape[0])
    model = fit(spec, X[fit_part], y[fit_part])
    pred = model.predict(X[val_part])
    return float(np.mean(np.abs(pred - y[val_part])))


def grid_search(algorithm: Algorithm, grid: HyperGrid, X: np.ndarray,
                y: np.ndarray, seed: int = 0) -> RegressorSpec:
    """Pick the grid point with the lowest chronological-holdout MAE.

    Rows are assumed chronologically sorted; each point fits on the leading
    80% and scores on the trailing 20%.  Ties keep the first point in grid
    iteration order; points whose fit raises are skipped.
    """
    algorithm = Algorithm(algorithm)
    if grid.algorithm is not algorithm:
        raise ValueError("grid is for a different algorithm")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    try:
        chronological_split(X.shape[0])
    except EmptyTrainingSetError as exc:
        raise AllPointsFailedError(f"cannot split training data: {exc}") from exc
    best: tuple[float, int, RegressorSpec] | None = None
    failures: list[str] = []
    for order, params in enumerate(grid.points()):
        spec = RegressorSpec(algorithm, params, seed)
        try:
            mae = holdout_mae(spec, X, y)
        except Exception as exc:  # noqa: BLE001 - per-point failures are skipped
            failures.append(f"{params}: {exc}")
            continue
        if best is None or mae < best[0]:
            best = (mae, order, spec)
    if best is None:
        raise AllPointsFailedError(
            f"every grid point failed for {algorithm.value}: {failures}"
        )
    return best[2]
