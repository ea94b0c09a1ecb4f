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
from typing import Mapping, Sequence

import numpy as np

from ..errors import (
    AllPointsFailedError,
    EmptyTrainingSetError,
    FeatureMismatchError,
)


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


# hyperparameter names accepted per algorithm, with defaults
ALGORITHM_PARAMS: dict[Algorithm, dict[str, object]] = {
    Algorithm.LR: {},
    Algorithm.LaR: {"alpha": 0.01},
    Algorithm.RR: {"alpha": 1.0},
    Algorithm.BLaR: {"max_iter": 300},
    Algorithm.SVM: {"C": 1.0, "epsilon": 0.1, "epochs": 500},
    Algorithm.KNN: {"k": 5},
    Algorithm.DT: {"max_depth": None, "min_samples_leaf": 1},
    Algorithm.NN: {"hidden_units": 16, "epochs": 100, "learning_rate": 0.01,
                   "batch_size": 32},
    Algorithm.RF: {"n_trees": 100, "min_samples_leaf": 1},
    Algorithm.AdaDT: {"rounds": 50, "max_depth": 4},
    Algorithm.GB: {"rounds": 100, "learning_rate": 0.1, "max_depth": 3},
}

DEFAULT_GRIDS: dict[Algorithm, dict[str, list]] = {
    Algorithm.LR: {},
    Algorithm.LaR: {"alpha": [0.001, 0.01, 0.1, 1.0]},
    Algorithm.RR: {"alpha": [0.1, 1.0, 10.0]},
    Algorithm.BLaR: {},
    Algorithm.SVM: {"C": [0.1, 1.0, 10.0], "epsilon": [0.01, 0.1]},
    Algorithm.KNN: {"k": [1, 3, 5, 10, 20]},
    Algorithm.DT: {"max_depth": [4, 8, 16, None], "min_samples_leaf": [1, 5, 20]},
    Algorithm.RF: {"n_trees": [100, 300]},
    Algorithm.AdaDT: {"rounds": [50, 100]},
    Algorithm.GB: {"learning_rate": [0.05, 0.1], "rounds": [100, 300]},
    Algorithm.NN: {"hidden_units": [16, 64], "epochs": [100]},
}

# algorithms whose fit involves no randomness: one run represents all repeats
DETERMINISTIC_ALGORITHMS = frozenset({
    Algorithm.LR, Algorithm.LaR, Algorithm.RR, Algorithm.BLaR,
    Algorithm.SVM, Algorithm.KNN, Algorithm.DT, Algorithm.GB,
})

# algorithms exposing a per-feature importance vector after fitting
IMPORTANCE_ALGORITHMS = frozenset({
    Algorithm.LR, Algorithm.LaR, Algorithm.RR, Algorithm.BLaR, Algorithm.SVM,
    Algorithm.DT, Algorithm.RF, Algorithm.AdaDT, Algorithm.GB,
})


def _check_hyperparameter(algorithm: Algorithm, name: str, value) -> None:
    """Raise ValueError for an unknown ``name`` or a ``value`` of the wrong type.

    An int default takes an int and a float default an int or a float;
    ``max_depth`` also takes None (unbounded).  A bool is never a number here.
    """
    if name not in ALGORITHM_PARAMS[algorithm]:
        raise ValueError(f"unknown hyperparameter {name!r} for {algorithm.value}")
    if name == "max_depth" and value is None:
        return
    if isinstance(ALGORITHM_PARAMS[algorithm][name], float):
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
        merged = {**ALGORITHM_PARAMS[algorithm], **self.hyperparameters}
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
        return cls(algorithm, {k: list(v) for k, v in DEFAULT_GRIDS[algorithm].items()})


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
        from . import _PREDICTORS

        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != len(self.feature_names):
            raise FeatureMismatchError(
                f"expected {len(self.feature_names)} features, got "
                f"{X.shape[1] if X.ndim == 2 else 'non-matrix input'}"
            )
        pred = np.asarray(_PREDICTORS[self.spec.algorithm](self.state, X),
                          dtype=float)
        return np.maximum(pred, 0.0)


def supports_importance(algorithm: Algorithm) -> bool:
    return Algorithm(algorithm) in IMPORTANCE_ALGORITHMS


def is_deterministic(algorithm: Algorithm) -> bool:
    return Algorithm(algorithm) in DETERMINISTIC_ALGORITHMS


def check_training_inputs(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
    return X, y


def grid_search(algorithm: Algorithm, grid: HyperGrid, X: np.ndarray,
                y: np.ndarray, seed: int = 0) -> RegressorSpec:
    """Pick the grid point with the lowest chronological-holdout MAE.

    Rows are assumed chronologically sorted; each point fits on the leading
    80% and scores on the trailing 20%.  Ties keep the first point in grid
    iteration order; points whose fit raises are skipped.
    """
    from ..preprocess import chronological_split, holdout_mae

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
