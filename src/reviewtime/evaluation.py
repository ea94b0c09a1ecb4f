"""Time-ordered online validation and the MAE / MRE / SA metrics.

The dataset (already sorted by creation time) is split into 10 contiguous
folds; iteration i trains on folds 1..i+4 and tests on fold i+5, for i in
1..5.  Each repeat reseeds the learner; fully deterministic learners run once
and their record is replicated across repeats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import read_table, write_table
from .errors import (
    EmptyInputError,
    LengthMismatchError,
    NonPositiveActualError,
    TooFewRecordsError,
)
from .features import FeatureMatrix
from .preprocess import (
    NormalizerKind,
    apply_normalizer,
    fit_normalizer,
    rfe_select,
    sequential_forward_select,
)
from .regressors import (
    LEARNERS,
    Algorithm,
    HyperGrid,
    RegressorSpec,
    fit,
    grid_search,
    is_deterministic,
)

N_FOLDS = 10
N_ITERATIONS = 5
SA_TRIALS = 1000
DEFAULT_REPEATS = 30


def make_online_folds(n: int) -> tuple[tuple[int, int], ...]:
    """Ten contiguous chronological half-open ``(start, stop)`` ranges; the
    remainder goes to the earliest folds."""
    if n < N_FOLDS:
        raise TooFewRecordsError(f"need at least {N_FOLDS} records, got {n}")
    base = n // N_FOLDS
    remainder = n % N_FOLDS
    boundaries = []
    start = 0
    for i in range(N_FOLDS):
        size = base + (1 if i < remainder else 0)
        boundaries.append((start, start + size))
        start += size
    return tuple(boundaries)


@dataclass(frozen=True)
class PipelineConfig:
    algorithm: Algorithm
    normalizer: NormalizerKind = NormalizerKind.NONE
    selection: str = "none"  # none | rfe | sequential
    spec: RegressorSpec | None = None      # fixed hyperparameters; skips the grid
    grid: HyperGrid | None = None          # defaults to the algorithm's grid
    repeats: int = DEFAULT_REPEATS
    base_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "algorithm", Algorithm(self.algorithm))
        object.__setattr__(self, "normalizer", NormalizerKind(self.normalizer))
        if self.selection not in ("none", "rfe", "sequential"):
            raise ValueError(f"unknown selection method {self.selection!r}")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.spec is not None and self.spec.algorithm is not self.algorithm:
            raise ValueError("spec algorithm does not match pipeline algorithm")
        if self.grid is not None and self.grid.algorithm is not self.algorithm:
            raise ValueError("grid algorithm does not match pipeline algorithm")


@dataclass(frozen=True)
class EvalRecord:
    repeat: int
    iteration: int
    mae: float
    mre: float
    sa: float
    n_train: int
    n_test: int
    failed: bool = False
    error: str = ""

    @property
    def train_range(self) -> tuple[int, int]:  # online training starts at row 0
        return 0, self.n_train

    @property
    def test_range(self) -> tuple[int, int]:  # the fold after the training rows
        return self.n_train, self.n_train + self.n_test


@dataclass
class EvalResult:
    algorithm: str
    records: list[EvalRecord] = field(default_factory=list)

    @property
    def failures(self) -> int:
        return sum(1 for r in self.records if r.failed)

    def metric(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records if not r.failed])

    def summary(self) -> dict:
        out: dict = {
            "algorithm": self.algorithm,
            "records": len(self.records),
            "failures": self.failures,
        }
        for name in ("mae", "mre", "sa"):
            values = self.metric(name)
            out[name] = {
                "mean": float(values.mean()) if values.size else None,
                "median": float(np.median(values)) if values.size else None,
            }
        return out

    def to_csv(self, path: str | Path) -> None:
        write_table(path, _CSV_HEADER, (
            (r.repeat, r.iteration, r.mae, r.mre, r.sa, r.n_train, r.n_test,
             r.failed, r.error) for r in self.records))

    @classmethod
    def from_csv(cls, path: str | Path) -> "EvalResult":
        _, records = read_table(path, _CSV_HEADER, _parse_record)
        return cls(algorithm=Path(path).stem, records=records)


_CSV_HEADER = ("repeat", "iteration", "mae", "mre", "sa", "n_train", "n_test",
               "failed", "error")


def _parse_record(row: list[str]) -> EvalRecord:
    n_train, n_test = int(row[5]), int(row[6])
    if row[7] not in ("0", "1"):
        raise ValueError(f"failed must be 0 or 1, not {row[7]!r}")
    failed = row[7] == "1"
    metrics = float(row[2]), float(row[3]), float(row[4])
    # a scored row's metrics are averaged by summary(); only a failed row is nan
    if not failed and not all(map(math.isfinite, metrics)):
        raise ValueError(f"a scored row needs finite mae, mre and sa, not {row[2:5]}")
    return EvalRecord(int(row[0]), int(row[1]), *metrics, n_train, n_test,
                      failed, row[8])


def _paired(name: str, pred: Sequence[float], actual: Sequence[float],
            ) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if pred.shape != actual.shape:
        raise LengthMismatchError("pred and actual lengths differ")
    if pred.size == 0:
        raise EmptyInputError(f"{name} of empty input")
    return pred, actual


def mae(pred: Sequence[float], actual: Sequence[float]) -> float:
    pred, actual = _paired("mae", pred, actual)
    return float(np.mean(np.abs(pred - actual)))


def mre(pred: Sequence[float], actual: Sequence[float]) -> float:
    pred, actual = _paired("mre", pred, actual)
    if np.any(actual <= 0):
        raise NonPositiveActualError("mre requires strictly positive actuals")
    return float(np.mean(np.abs(pred - actual) / actual))


def sa(pred: Sequence[float], actual: Sequence[float],
       train_targets: Sequence[float], seed: int = 0) -> float:
    """Standardized accuracy: percent MAE improvement over random guessing.

    The baseline predicts, for every test case, a uniformly sampled training
    target; its MAE is averaged over a fixed number of seeded trials.
    """
    train_targets = np.asarray(train_targets, dtype=float)
    if train_targets.size == 0:
        raise EmptyInputError("sa needs non-empty training targets")
    model_mae = mae(pred, actual)
    if model_mae == 0.0:
        return 100.0
    actual = np.asarray(actual, dtype=float)
    rng = np.random.default_rng(seed)
    guesses = rng.choice(train_targets, size=(SA_TRIALS, actual.size), replace=True)
    guess_mae = float(np.mean(np.abs(guesses - actual[None, :])))
    if guess_mae == 0.0:
        return 0.0
    return (1.0 - model_mae / guess_mae) * 100.0


def _sa_seed(base_seed: int, iteration: int) -> int:
    # shared across repeats so deterministic configs replicate exactly
    return (base_seed * 1_000_003 + iteration) % (2 ** 31)


def _fit_iteration(data: FeatureMatrix, config: PipelineConfig, iteration: int,
                   train_stop: int, test_range: tuple[int, int], seed: int,
                   ) -> tuple[float, float, float]:
    X_train = data.X[:train_stop]
    y_train = data.y[:train_stop]
    X_test = data.X[test_range[0]:test_range[1]]
    y_test = data.y[test_range[0]:test_range[1]]

    # some learners assume comparable feature scales
    norm_kind = config.normalizer
    if norm_kind is NormalizerKind.NONE and LEARNERS[config.algorithm].scaled:
        norm_kind = NormalizerKind.MINMAX
    norm = fit_normalizer(norm_kind, X_train)
    X_train = apply_normalizer(norm, X_train)
    X_test = apply_normalizer(norm, X_test)

    spec = (config.spec or RegressorSpec(config.algorithm)).with_seed(seed)
    if config.selection != "none":
        select = rfe_select if config.selection == "rfe" else sequential_forward_select
        cols = select(spec, X_train, y_train).selected
        X_train = X_train[:, cols]
        X_test = X_test[:, cols]

    if config.spec is None:
        grid = config.grid if config.grid is not None \
            else HyperGrid.default(config.algorithm)
        spec = grid_search(config.algorithm, grid, X_train, y_train, seed)

    model = fit(spec, X_train, y_train)
    pred = model.predict(X_test)
    iteration_sa = sa(pred, y_test, y_train,
                      seed=_sa_seed(config.base_seed, iteration))
    return mae(pred, y_test), mre(pred, y_test), iteration_sa


def run_online_validation(data: FeatureMatrix, config: PipelineConfig) -> EvalResult:
    """Run the 10-fold chronological protocol for every repeat and iteration."""
    folds = make_online_folds(len(data))
    result = EvalResult(algorithm=config.algorithm.value)
    deterministic = is_deterministic(config.algorithm)
    for repeat in range(config.repeats):
        if deterministic and repeat > 0:
            result.records.extend(replace(record, repeat=repeat)
                                  for record in result.records[:N_ITERATIONS])
            continue
        seed = config.base_seed + repeat
        for iteration in range(1, N_ITERATIONS + 1):
            train_stop = folds[iteration + 3][1]  # folds 1..i+4
            test_range = folds[iteration + 4]     # fold i+5
            scores, error = (float("nan"),) * 3, ""
            try:
                scores = _fit_iteration(data, config, iteration, train_stop,
                                        test_range, seed)
            except Exception as exc:  # noqa: BLE001 - recorded, not fatal
                error = f"{type(exc).__name__}: {exc}"
            result.records.append(EvalRecord(
                repeat, iteration, *scores,
                n_train=train_stop, n_test=test_range[1] - test_range[0],
                failed=bool(error), error=error))
    return result
