"""Leave-one-covariate-out importance and the dimension-ablation study.

LOCO refits the full pipeline without one feature (or one dimension) and
records the per-(repeat, iteration) increase in test MAE.  Feature selection
is disabled inside LOCO runs so the measured delta reflects the removed
covariate, not selection variance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .dataset import write_table
from .errors import ReviewTimeError, UnknownUnitError
from .evaluation import EvalResult, PipelineConfig, run_online_validation
from .features import DIMENSIONS, FeatureMatrix, dimension_features
from .stats import ComparisonResult, EsdRanking, compare_pairwise, scott_knott_esd


@dataclass(frozen=True)
class ImportanceResult:
    unit_deltas: dict[str, np.ndarray]  # per unit: delta MAE over repeats x iterations
    ranking: EsdRanking
    mae_full: np.ndarray

    def to_csv(self, path: str | Path) -> None:
        rank = self.ranking.rank_of
        write_table(path, ("unit", "rank", "delta_median", "delta_mean", "n"), (
            (name, rank(name), np.median(deltas), deltas.mean(), deltas.size)
            for name, deltas in sorted(self.unit_deltas.items(),
                                       key=lambda item: (rank(item[0]), item[0]))))


@dataclass(frozen=True)
class AblationResult:
    results: dict[str, EvalResult]          # "all" plus one entry per dimension
    comparisons: list[ComparisonResult]     # all-vs-each on MAE records


def _dimension_columns(data: FeatureMatrix, dim: str) -> list[str]:
    return [n for n in dimension_features(dim) if n in data.feature_names]


def _unit_columns(data: FeatureMatrix, unit: str) -> list[str]:
    if unit in data.feature_names:
        return [unit]
    if unit in DIMENSIONS and (columns := _dimension_columns(data, unit)):
        return columns
    raise UnknownUnitError(f"unknown feature or dimension {unit!r}")


def _no_selection(config: PipelineConfig) -> PipelineConfig:
    return replace(config, selection="none") if config.selection != "none" else config


def _successful_mae(result: EvalResult) -> np.ndarray:
    """Per-(repeat, iteration) MAE of a run in which no iteration failed."""
    failed = [r for r in result.records if r.failed]
    if failed:
        keys = [(r.repeat, r.iteration) for r in failed]
        raise ReviewTimeError(
            f"{result.algorithm}: iterations failed at (repeat, iteration) "
            f"{keys}; first error: {failed[0].error}")
    return np.array([r.mae for r in result.records])


def loco_importance(data: FeatureMatrix, config: PipelineConfig,
                    unit: str, full_result: EvalResult | None = None) -> np.ndarray:
    """Delta MAE distribution for removing one feature or one dimension."""
    columns = _unit_columns(data, unit)
    config = _no_selection(config)
    if full_result is None:
        full_result = run_online_validation(data, config)
    keep = [n for n in data.feature_names if n not in columns]
    reduced = run_online_validation(data.restrict(keep), config)
    return _successful_mae(reduced) - _successful_mae(full_result)


def loco_all(data: FeatureMatrix, config: PipelineConfig,
             units: Sequence[str] | None = None) -> ImportanceResult:
    """LOCO deltas for every unit, ranked by the ESD procedure."""
    if units is None:
        units = list(data.feature_names)
    config = _no_selection(config)
    full_result = run_online_validation(data, config)
    deltas = {
        unit: loco_importance(data, config, unit, full_result=full_result)
        for unit in units
    }
    return ImportanceResult(
        unit_deltas=deltas,
        ranking=rank_features(deltas),
        mae_full=_successful_mae(full_result),
    )


def rank_features(distributions: Mapping[str, np.ndarray]) -> EsdRanking:
    """ESD ranking of delta distributions, larger delta = more important.

    Deltas can be negative (removal helped), so every distribution is shifted
    by the global minimum before the ln(x+1) transform.
    """
    if not distributions:
        raise UnknownUnitError("no distributions to rank")
    global_min = min(float(np.min(d)) for d in distributions.values())
    shift = -global_min if global_min < 0 else 0.0
    shifted = {name: np.asarray(d, dtype=float) + shift
               for name, d in distributions.items()}
    return scott_knott_esd(shifted)


def dimension_ablation(data: FeatureMatrix, config: PipelineConfig) -> AblationResult:
    """Full-feature run against each single-dimension run, with comparisons."""
    results: dict[str, EvalResult] = {"all": run_online_validation(data, config)}
    for dim in DIMENSIONS:
        results[dim] = run_online_validation(
            data.restrict(_dimension_columns(data, dim)), config)
    mae_samples = {name: _successful_mae(result) for name, result in results.items()}
    all_sample = mae_samples["all"]
    m = len(DIMENSIONS)
    comparisons = []
    for dim in DIMENSIONS:
        pair = compare_pairwise({"all": all_sample, dim: mae_samples[dim]}, m=m)
        comparisons.extend(pair)
    return AblationResult(results=results, comparisons=comparisons)
