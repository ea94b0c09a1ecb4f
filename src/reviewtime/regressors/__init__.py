"""The eleven regression algorithms behind a uniform fit/predict contract."""

from __future__ import annotations

from .base import (
    LEARNERS,
    Algorithm,
    HyperGrid,
    RegressorSpec,
    TrainedModel,
    chronological_split,
    fit,
    grid_search,
    holdout_fit,
    is_deterministic,
)
from .tree import RegressionTree

__all__ = [
    "LEARNERS",
    "Algorithm",
    "HyperGrid",
    "RegressionTree",
    "RegressorSpec",
    "TrainedModel",
    "chronological_split",
    "fit",
    "grid_search",
    "holdout_fit",
    "is_deterministic",
]
