"""Declarative run configuration: one JSON file drives every command.

Unknown keys are rejected (naming the offending key); JSON syntax errors
surface with their line number, and a malformed value with the section that
holds it.  All randomness in a run derives from the single top-level seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, TypeVar

from .collab import DEFAULT_WINDOW_DAYS, MAX_WINDOW_DAYS
from .dataset import FilterPolicy
from .errors import ConfigError
from .evaluation import DEFAULT_REPEATS, PipelineConfig
from .features import KeywordPolicy
from .gerrit import CrawlConfig
from .regressors import Algorithm, HyperGrid, RegressorSpec

T = TypeVar("T")


@dataclass(frozen=True)
class RunConfig:
    crawl: CrawlConfig | None
    filter_policy: FilterPolicy
    keywords: KeywordPolicy
    pipelines: tuple[PipelineConfig, ...]
    window_days: int
    out_dir: Path


_TOP_KEYS = {"crawl", "filter", "keywords", "features", "evaluation", "out_dir", "seed"}
_FEATURE_KEYS = {"window_days"}
_EVAL_KEYS = {"repeats", "pipelines"}
_PIPELINE_KEYS = {"algorithm", "normalizer", "selection", "hyperparameters", "grid"}


def _section(doc, where: str, allowed: set[str], build: Callable[[dict], T]) -> T:
    """Build one section from a JSON object whose keys are all in ``allowed``.

    A malformed value, which the constructors reject with TypeError,
    ValueError or AttributeError, becomes a ConfigError naming ``where``.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown key {sorted(unknown)[0]!r} in {where}")
    try:
        return build(doc)
    except (TypeError, ValueError, AttributeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _dataclass_section(doc: dict, key: str, cls: Callable[..., T]) -> T:
    """The section ``key`` as the dataclass ``cls``, whose fields are its keys."""
    return _section(doc.get(key, {}), key, {f.name for f in fields(cls)},
                    lambda section: cls(**section))


def _integer(value, name: str, least: int, most: int | None = None) -> int:
    """``value`` if it is an integer of at least ``least`` and, when given, at
    most ``most``; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    if most is not None and value > most:
        raise ValueError(f"{name} must be at most {most}, got {value!r}")
    return value


def _pipeline(entry: dict, repeats: int, base_seed: int) -> PipelineConfig:
    try:
        algorithm = Algorithm(entry.get("algorithm"))
    except ValueError:
        raise ValueError("missing or unknown algorithm") from None
    if "hyperparameters" in entry and "grid" in entry:
        raise ValueError("give either hyperparameters or grid, not both")
    spec = grid = None
    if "hyperparameters" in entry:
        spec = RegressorSpec(algorithm, dict(entry["hyperparameters"]), base_seed)
    elif "grid" in entry:
        values = {k: list(v) for k, v in dict(entry["grid"]).items()}
        grid = HyperGrid(algorithm, values)
    return PipelineConfig(
        algorithm=algorithm,
        normalizer=entry.get("normalizer", "none"),
        selection=entry.get("selection", "none"),
        spec=spec,
        grid=grid,
        repeats=repeats,
        base_seed=base_seed,
    )


def _evaluation(section: dict, seed: int) -> tuple[PipelineConfig, ...]:
    repeats = _integer(section.get("repeats", DEFAULT_REPEATS), "repeats", 1)
    pipelines = tuple(
        _section(entry, f"evaluation.pipelines[{i}]", _PIPELINE_KEYS,
                 lambda e: _pipeline(e, repeats, seed))
        for i, entry in enumerate(section.get("pipelines", [])))
    # evaluate names each result file after its algorithm, eval_<ALGO>.csv
    first: dict[Algorithm, int] = {}
    for i, pipeline in enumerate(pipelines):
        j = first.setdefault(pipeline.algorithm, i)
        if j != i:
            raise ConfigError(f"evaluation.pipelines[{i}]: algorithm "
                              f"{pipeline.algorithm.value} is already evaluated "
                              f"by evaluation.pipelines[{j}]")
    return pipelines


def _run_config(doc: dict, seed_override: int | None,
                out_override: str | None) -> RunConfig:
    seed = _integer(doc.get("seed", 0) if seed_override is None else seed_override,
                    "seed", 0)
    crawl = _dataclass_section(doc, "crawl", CrawlConfig) if "crawl" in doc else None
    return RunConfig(
        crawl=crawl,
        filter_policy=_dataclass_section(doc, "filter", FilterPolicy),
        keywords=_dataclass_section(doc, "keywords", KeywordPolicy),
        pipelines=_section(doc.get("evaluation", {}), "evaluation", _EVAL_KEYS,
                           lambda section: _evaluation(section, seed)),
        window_days=_section(doc.get("features", {}), "features", _FEATURE_KEYS,
                             lambda section: _integer(
                                 section.get("window_days", DEFAULT_WINDOW_DAYS),
                                 "window_days", 1, MAX_WINDOW_DAYS)),
        out_dir=Path(out_override or doc.get("out_dir", "runs/out")),
    )


def load_run_config(path: str | Path, seed_override: int | None = None,
                    out_override: str | None = None) -> RunConfig:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    return _section(doc, "top level", _TOP_KEYS,
                    lambda top: _run_config(top, seed_override, out_override))
