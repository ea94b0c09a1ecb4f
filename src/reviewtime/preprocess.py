"""Feature normalization and selection, fitted exclusively on training rows.

Inner validation for selection, as for hyperparameter grids, is
``regressors.holdout_fit``: a chronological last-20% holdout of the training
data.  Rows are assumed sorted by creation time, so random splits would leak
future information.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import EmptyTrainingSetError, UnsupportedEstimatorError
from .regressors import holdout_fit

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
    selected: tuple[int, ...]  # the kept column indices, ascending
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


def rfe_select(estimator_spec, X: np.ndarray, y: np.ndarray) -> SelectionResult:
    """Recursive feature elimination driven by model importance.

    Removes the lowest-importance feature each round, scoring every
    cardinality on the chronological holdout; returns the best-scoring set
    (ties resolved toward fewer features).  A learner whose fitted state has
    no importance (KNN, NN) is refused after its first fit.
    """
    current = list(range(X.shape[1]))
    steps: list[tuple[int, float]] = []
    best_sets: dict[int, tuple[int, ...]] = {}
    while current:
        model, mae = holdout_fit(estimator_spec, X[:, np.array(current)], y)
        if model.importance is None:
            raise UnsupportedEstimatorError(
                f"{estimator_spec.algorithm.value} exposes no per-feature importance; "
                "use sequential selection instead"
            )
        steps.append((len(current), mae))
        best_sets[len(current)] = tuple(current)
        if len(current) == 1:
            break
        current.pop(int(np.argmin(model.importance)))
    best_n, _ = min(steps, key=lambda s: (s[1], s[0]))
    return SelectionResult(selected=best_sets[best_n], scores=tuple(steps))


def sequential_forward_select(estimator_spec, X: np.ndarray,
                              y: np.ndarray) -> SelectionResult:
    """Greedy forward selection on chronological-holdout MAE.

    Picking the best of many candidates is biased toward spurious holdout
    gains, so an addition must beat the current score by the relative margin
    ``MIN_RELATIVE_IMPROVEMENT`` to count as an improvement; otherwise (or
    once every feature is chosen) selection stops.  Candidate ties go to
    canonical order.
    """
    chosen: list[int] = []
    remaining = list(range(X.shape[1]))
    best_mae = np.inf
    steps: list[tuple[int, float]] = []
    while remaining:
        candidate_scores = []
        for j in remaining:
            cols = np.array(chosen + [j])
            candidate_scores.append((holdout_fit(estimator_spec, X[:, cols], y)[1], j))
        mae, j = min(candidate_scores, key=lambda s: (s[0], s[1]))
        if np.isfinite(best_mae) and mae >= best_mae * (1.0 - MIN_RELATIVE_IMPROVEMENT):
            break
        best_mae = mae
        chosen.append(j)
        remaining.remove(j)
        steps.append((len(chosen), mae))
    return SelectionResult(selected=tuple(sorted(chosen)), scores=tuple(steps))
