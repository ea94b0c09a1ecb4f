"""Feature normalization and selection, fitted exclusively on training rows.

Inner validation for selection, as for hyperparameter grids, is
``regressors.holdout_mae``: a chronological last-20% holdout of the training
data.  Rows are assumed sorted by creation time, so random splits would leak
future information.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import EmptyTrainingSetError, UnsupportedEstimatorError
from .regressors import chronological_split, fit, holdout_mae, supports_importance

MIN_RELATIVE_IMPROVEMENT = 0.1  # forward selection's stopping margin


class NormalizerKind(str, Enum):
    NONE = "none"
    MINMAX = "minmax"
    ZSCORE = "zscore"


@dataclass(frozen=True)
class NormalizerSpec:
    """Per-feature ``(x - shift) / scale``.

    MINMAX shifts by the min and scales by max - min; ZSCORE shifts by the
    mean and scales by the population std; NONE has neither.
    """

    kind: NormalizerKind
    shift: np.ndarray | None = None
    scale: np.ndarray | None = None


@dataclass(frozen=True)
class SelectionResult:
    selected: tuple[str, ...]
    scores: tuple[tuple[int, float], ...]  # (cardinality, validation MAE) per step

    def __post_init__(self):
        if not self.selected:
            raise ValueError("selection must keep at least one feature")


def fit_normalizer(kind: NormalizerKind, X: np.ndarray) -> NormalizerSpec:
    if X.shape[0] == 0:
        raise EmptyTrainingSetError("cannot fit a normalizer on an empty training set")
    if kind is NormalizerKind.NONE:
        return NormalizerSpec(kind)
    if kind is NormalizerKind.MINMAX:
        low = X.min(axis=0)
        return NormalizerSpec(kind, shift=low, scale=X.max(axis=0) - low)
    return NormalizerSpec(kind, shift=X.mean(axis=0), scale=X.std(axis=0))


def apply_normalizer(spec: NormalizerSpec, X: np.ndarray) -> np.ndarray:
    if spec.kind is NormalizerKind.NONE:
        return X
    scale = np.where(spec.scale == 0, 1.0, spec.scale)
    # constant training columns map to 0 everywhere
    return np.where(spec.scale == 0, 0.0, (X - spec.shift) / scale)


def rfe_select(estimator_spec, X: np.ndarray, y: np.ndarray,
               feature_names: Sequence[str]) -> SelectionResult:
    """Recursive feature elimination driven by model importance.

    Removes the lowest-importance feature each round, scoring every
    cardinality on the chronological holdout; returns the best-scoring set
    (ties resolved toward fewer features).
    """
    if X.shape[0] == 0:
        raise EmptyTrainingSetError("empty training set")
    if not supports_importance(estimator_spec.algorithm):
        raise UnsupportedEstimatorError(
            f"{estimator_spec.algorithm.value} exposes no per-feature importance; "
            "use sequential selection instead"
        )
    names = list(feature_names)
    current = list(range(len(names)))
    steps: list[tuple[int, float]] = []
    best_sets: dict[int, list[int]] = {}
    fit_part, _ = chronological_split(X.shape[0])
    while current:
        cols = np.array(current)
        steps.append((len(current), holdout_mae(estimator_spec, X[:, cols], y)))
        best_sets[len(current)] = list(current)
        if len(current) == 1:
            break
        model = fit(estimator_spec, X[fit_part][:, cols], y[fit_part])
        importance = model.importance
        weakest = int(np.argmin(importance))
        current.pop(weakest)
    best_n, _ = min(steps, key=lambda s: (s[1], s[0]))
    selected = tuple(names[i] for i in best_sets[best_n])
    return SelectionResult(selected=selected, scores=tuple(steps))


def sequential_forward_select(estimator_spec, X: np.ndarray, y: np.ndarray,
                              feature_names: Sequence[str]) -> SelectionResult:
    """Greedy forward selection on chronological-holdout MAE.

    Picking the best of many candidates is biased toward spurious holdout
    gains, so an addition must beat the current score by the relative margin
    ``MIN_RELATIVE_IMPROVEMENT`` to count as an improvement; otherwise (or
    once every feature is chosen) selection stops.  Candidate ties go to
    canonical order.
    """
    if X.shape[0] == 0:
        raise EmptyTrainingSetError("empty training set")
    names = list(feature_names)
    chosen: list[int] = []
    remaining = list(range(len(names)))
    best_mae = np.inf
    steps: list[tuple[int, float]] = []
    while remaining:
        candidate_scores = []
        for j in remaining:
            cols = np.array(chosen + [j])
            candidate_scores.append((holdout_mae(estimator_spec, X[:, cols], y), j))
        mae, j = min(candidate_scores, key=lambda s: (s[0], s[1]))
        if np.isfinite(best_mae) and mae >= best_mae * (1.0 - MIN_RELATIVE_IMPROVEMENT):
            break
        best_mae = mae
        chosen.append(j)
        remaining.remove(j)
        steps.append((len(chosen), mae))
    selected = tuple(names[i] for i in sorted(chosen))
    return SelectionResult(selected=selected, scores=tuple(steps))
