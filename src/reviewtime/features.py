"""Extraction of the 50 socio-technical features for one change.

Features span six dimensions: date, collaboration, code, text, owner
experience and file history.  Extraction is pure: values depend only on the
change itself, the strictly-earlier completed history, and the interaction
graph snapshot taken at the change's creation time.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timedelta
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import collab
from .dataset import (completion_time_hours, parse_timestamp, read_table,
                      sort_by_creation, write_table)
from .errors import EmptyInputError, SchemaError
from .gerrit import ChangeRecord, ChangeStatus, check_field_types

_QUAD = ("min", "max", "avg", "std")

# The one feature table: each dimension's names, in canonical order.
FEATURES: dict[str, tuple[str, ...]] = {
    "date": (
        "days_of_the_weeks_of_date_created",
        "is_created_date_a_weekend",
        "author_timezone",
    ),
    "collaboration": (
        "degree_centrality",
        "closeness_centrality",
        "betweenness_centrality",
        "eigenvector_centrality",
        "clustering_coefficient",
        "core_number",
    ),
    "code": (
        "#lines_added",
        "#lines_deleted",
        "Code_churn",
        "#files",
        "#files_type",
        "#directory",
        "#segs_added",
        "#segs_deleted",
        "#segs_modify",
        "change_entropy",
    ),
    "text": (
        "subject_length",
        "subject_word_count",
        "msg_length",
        "msg_word_count",
        "is_non_fonctional",
        "is_perfective",
        "is_refactoring",
    ),
    "owner": (
        "#owner_prior_changes",
        "#prior_merged_changes",
        "#prior_abandoned_changes",
        "merge_ratio",
        "#prior_subsystem_changes",
        *(f"prior_code_reviews_duration_{s}" for s in _QUAD),
        "#prior_owner_subsystem_changes",
        "prior_owner_subsystem_changes_ratio",
        "#reviewed_changes_owner",
        "#owner_previous_message",
        "#owner_exchanged_messages",
        *(f"#owner_messages_avg_per_changes_{s}" for s in _QUAD),
    ),
    "file_history": (
        *(f"files_changes_duration_{s}" for s in _QUAD),
        "#developers_file",
        "#prior_changes_files",
    ),
}
DIMENSIONS = tuple(FEATURES)
FEATURE_DIMENSIONS: dict[str, str] = {
    name: dim for dim, names in FEATURES.items() for name in names}
FEATURE_NAMES: tuple[str, ...] = tuple(FEATURE_DIMENSIONS)
assert len(FEATURE_NAMES) == 50

DEFAULT_REFACTORING_KEYWORDS = (
    "refactor", "refactoring", "restructure", "cleanup", "clean up",
    "rename", "move code",
)
DEFAULT_PERFECTIVE_KEYWORDS = (
    "improve", "enhancement", "polish", "simplify", "optimize",
)
DEFAULT_NON_FUNCTIONAL_KEYWORDS = (
    "doc", "documentation", "typo", "license", "copyright", "comment",
    "format", "style",
)


@dataclass(frozen=True)
class KeywordPolicy:
    refactoring_keywords: tuple[str, ...] = DEFAULT_REFACTORING_KEYWORDS
    perfective_keywords: tuple[str, ...] = DEFAULT_PERFECTIVE_KEYWORDS
    non_functional_keywords: tuple[str, ...] = DEFAULT_NON_FUNCTIONAL_KEYWORDS

    def __post_init__(self):
        check_field_types(KeywordPolicy, vars(self))
        for name in (f.name for f in fields(self)):
            terms = tuple(getattr(self, name))
            if not terms:
                raise ValueError(f"{name} must be non-empty")
            if any(t != t.lower() for t in terms):
                raise ValueError(f"{name} must be lowercase")
            object.__setattr__(self, name, terms)


@dataclass(frozen=True)
class FeatureVector:
    """One change's values, keyed by ``FEATURE_NAMES`` in order."""
    change_number: int
    created_at: datetime
    target_hours: float
    values: dict[str, float]

    def __post_init__(self):
        for name, value in self.values.items():
            if not math.isfinite(value):
                raise ValueError(f"non-finite value for feature {name}")


@dataclass
class FeatureMatrix:
    feature_names: tuple[str, ...]
    X: np.ndarray          # shape (n, len(feature_names))
    y: np.ndarray          # target hours, shape (n,)
    change_numbers: np.ndarray
    created_at: list[datetime]

    @classmethod
    def from_vectors(cls, rows: Sequence[FeatureVector]) -> "FeatureMatrix":
        rows = sorted(rows, key=lambda r: (r.created_at, r.change_number))
        X = np.array([[r.values[name] for name in FEATURE_NAMES] for r in rows],
                     dtype=float).reshape(len(rows), len(FEATURE_NAMES))
        y = np.array([r.target_hours for r in rows], dtype=float)
        numbers = np.array([r.change_number for r in rows], dtype=int)
        created = [r.created_at for r in rows]
        return cls(FEATURE_NAMES, X, y, numbers, created)

    def __len__(self) -> int:
        return self.X.shape[0]

    def restrict(self, names: Sequence[str]) -> "FeatureMatrix":
        index = {n: i for i, n in enumerate(self.feature_names)}
        missing = [n for n in names if n not in index]
        if missing:
            raise KeyError(f"unknown features: {missing}")
        cols = [index[n] for n in names]
        return FeatureMatrix(tuple(names), self.X[:, cols], self.y,
                             self.change_numbers, self.created_at)

    def to_csv(self, path: str | Path) -> None:
        write_table(path, (*_CSV_HEAD, *self.feature_names),
                    ((number, created, y, *x) for number, created, y, x in zip(
                        self.change_numbers.tolist(), self.created_at,
                        self.y.tolist(), self.X.tolist())))

    @classmethod
    def from_csv(cls, path: str | Path) -> "FeatureMatrix":
        header, rows = read_table(path, (*_CSV_HEAD, "..."), lambda row: (
            int(row[0]), parse_timestamp(row[1]), float(row[2]),
            [float(v) for v in row[3:]]))
        names = tuple(header[len(_CSV_HEAD):])
        X = np.array([r[3] for r in rows], dtype=float).reshape(len(rows), len(names))
        return cls(names, X, np.array([r[2] for r in rows], dtype=float),
                   np.array([r[0] for r in rows], dtype=int), [r[1] for r in rows])


_CSV_HEAD = ("change_number", "created_at", "target_hours")


def dimension_features(dimension: str) -> tuple[str, ...]:
    if dimension not in FEATURES:
        raise KeyError(f"unknown dimension {dimension!r}")
    return FEATURES[dimension]


def _quadruple(values: Sequence[float]) -> tuple[float, float, float, float]:
    """(min, max, mean, population std); all zeros on empty support."""
    if not values:
        return 0.0, 0.0, 0.0, 0.0
    arr = np.asarray(values, dtype=float)
    return float(arr.min()), float(arr.max()), float(arr.mean()), float(arr.std())


def subsystem_of(path: str) -> str:
    return path.split("/", 1)[0]


def extract_date_features(record: ChangeRecord) -> dict[str, float]:
    local = record.created_at + timedelta(minutes=record.owner_tz_offset_minutes)
    day = local.weekday()  # Monday = 0
    return {
        "days_of_the_weeks_of_date_created": float(day),
        "is_created_date_a_weekend": 1.0 if day >= 5 else 0.0,
        "author_timezone": float(record.owner_tz_offset_minutes),
    }


def change_entropy(file_churns: Sequence[float]) -> float:
    """Normalized Shannon entropy of the churn distribution over files."""
    if len(file_churns) == 0:
        raise EmptyInputError("change_entropy needs at least one churn value")
    positive = [c for c in file_churns if c > 0]
    total = sum(positive)
    if total == 0 or len(positive) < 2:
        return 0.0
    entropy = 0.0
    for churn in positive:
        p = churn / total
        entropy -= p * math.log2(p)
    return entropy / math.log2(len(positive))


def _file_segments(f) -> tuple[int, int, int]:
    if f.segments is not None:
        return f.segments
    # no diff content: one segment per file, classified by its line counts
    if f.lines_inserted > 0 and f.lines_deleted > 0:
        return 0, 0, 1
    if f.lines_inserted > 0:
        return 1, 0, 0
    if f.lines_deleted > 0:
        return 0, 1, 0
    return 0, 0, 0


def extract_code_features(record: ChangeRecord) -> dict[str, float]:
    files = record.files
    added = sum(f.lines_inserted for f in files)
    deleted = sum(f.lines_deleted for f in files)
    extensions = {
        (f.path.rsplit("/", 1)[-1].rsplit(".", 1)[1]
         if "." in f.path.rsplit("/", 1)[-1] else "")
        for f in files
    }
    directories = {
        (f.path.rsplit("/", 1)[0] if "/" in f.path else ".")
        for f in files
    }
    segs = [_file_segments(f) for f in files]
    churns = [f.lines_inserted + f.lines_deleted for f in files]
    entropy = change_entropy(churns) if files else 0.0
    return {
        "#lines_added": float(added),
        "#lines_deleted": float(deleted),
        "Code_churn": float(added + deleted),
        "#files": float(len(files)),
        "#files_type": float(len(extensions)),
        "#directory": float(len(directories)),
        "#segs_added": float(sum(s[0] for s in segs)),
        "#segs_deleted": float(sum(s[1] for s in segs)),
        "#segs_modify": float(sum(s[2] for s in segs)),
        "change_entropy": entropy,
    }


def extract_text_features(record: ChangeRecord,
                          policy: KeywordPolicy = KeywordPolicy()) -> dict[str, float]:
    description = record.message_body.lower()

    def has_any(terms: Sequence[str]) -> float:
        return 1.0 if any(t in description for t in terms) else 0.0

    return {
        "subject_length": float(len(record.subject)),
        "subject_word_count": float(len(record.subject.split())),
        "msg_length": float(len(record.message_body)),
        "msg_word_count": float(len(record.message_body.split())),
        "is_non_fonctional": has_any(policy.non_functional_keywords),
        "is_perfective": has_any(policy.perfective_keywords),
        "is_refactoring": has_any(policy.refactoring_keywords),
    }


class PriorHistory:
    """Completed changes created before a record, indexed by owner, subsystem,
    path and participant.

    Changes enter only through :meth:`add` and keep the position at which
    they entered; each index lists positions in that order, so every
    aggregate reads its changes in entry order (creation order in
    :func:`featurize`).  Completion hours and message counts are derived once
    per change.  ``len`` counts the changes added.
    """

    def __init__(self, changes: Iterable[ChangeRecord] = ()):
        self.owners: list[int] = []
        self.statuses: list[ChangeStatus] = []
        self.hours: list[float] = []
        self.human_messages: list[int] = []
        self.owner_messages: list[int] = []
        self.by_owner: dict[int, list[int]] = {}
        self.by_subsystem: dict[str, list[int]] = {}
        self.by_path: dict[str, list[int]] = {}
        self.by_participant: dict[int, list[int]] = {}
        for change in changes:
            self.add(change)

    def __len__(self) -> int:
        return len(self.owners)

    def add(self, change: ChangeRecord) -> None:
        position = len(self.owners)
        owner = change.owner_id
        human = [m for m in change.messages if not m.from_bot]
        self.owners.append(owner)
        self.statuses.append(change.status)
        self.hours.append(completion_time_hours(change))
        self.human_messages.append(len(human))
        self.owner_messages.append(sum(1 for m in human if m.author_id == owner))
        self.by_owner.setdefault(owner, []).append(position)
        for subsystem in {subsystem_of(f.path) for f in change.files}:
            self.by_subsystem.setdefault(subsystem, []).append(position)
        for path in {f.path for f in change.files}:
            self.by_path.setdefault(path, []).append(position)
        for participant in change.participants:
            self.by_participant.setdefault(participant, []).append(position)


def _as_prior_history(prior: Sequence[ChangeRecord] | PriorHistory) -> PriorHistory:
    return prior if isinstance(prior, PriorHistory) else PriorHistory(prior)


def _positions(index: dict, keys: Iterable) -> set[int]:
    return set().union(*(index.get(key, ()) for key in keys))


def extract_owner_experience(record: ChangeRecord,
                             prior_history: Sequence[ChangeRecord] | PriorHistory,
                             ) -> dict[str, float]:
    """Owner-experience features over ``prior_history``, read in its order.

    ``prior_history`` must hold only the completed changes created before
    ``record``; a plain sequence is indexed first.
    """
    prior = _as_prior_history(prior_history)
    owner = record.owner_id
    own = prior.by_owner.get(owner, [])
    merged = sum(1 for p in own if prior.statuses[p] is ChangeStatus.MERGED)
    abandoned = sum(1 for p in own if prior.statuses[p] is ChangeStatus.ABANDONED)

    subsystem_changes = _positions(prior.by_subsystem,
                                   {subsystem_of(f.path) for f in record.files})
    own_subsystem = sum(1 for p in own if p in subsystem_changes)

    dur_quad = _quadruple([prior.hours[p] for p in own])

    reviewed = len(prior.by_participant.get(owner, ()))
    own_messages = sum(prior.owner_messages[p] for p in own)
    exchanged_per_change = [prior.human_messages[p] for p in own]
    msg_quad = _quadruple(exchanged_per_change)

    values = {
        "#owner_prior_changes": float(len(own)),
        "#prior_merged_changes": float(merged),
        "#prior_abandoned_changes": float(abandoned),
        "merge_ratio": merged / len(own) if own else 0.0,
        "#prior_subsystem_changes": float(len(subsystem_changes)),
        "#prior_owner_subsystem_changes": float(own_subsystem),
        "prior_owner_subsystem_changes_ratio":
            own_subsystem / len(own) if own else 0.0,
        "#reviewed_changes_owner": float(reviewed),
        "#owner_previous_message": float(own_messages),
        "#owner_exchanged_messages": float(sum(exchanged_per_change)),
    }
    for suffix, value in zip(_QUAD, dur_quad):
        values[f"prior_code_reviews_duration_{suffix}"] = value
    for suffix, value in zip(_QUAD, msg_quad):
        values[f"#owner_messages_avg_per_changes_{suffix}"] = value
    return values


def extract_file_history(record: ChangeRecord,
                         prior_history: Sequence[ChangeRecord] | PriorHistory,
                         ) -> dict[str, float]:
    """File-history features over ``prior_history``, read in its order.

    ``prior_history`` must hold only the completed changes created before
    ``record``; a plain sequence is indexed first.
    """
    prior = _as_prior_history(prior_history)
    overlapping = sorted(_positions(prior.by_path, {f.path for f in record.files}))
    quad = _quadruple([prior.hours[p] for p in overlapping])
    values = {f"files_changes_duration_{s}": v for s, v in zip(_QUAD, quad)}
    values["#developers_file"] = float(len({prior.owners[p] for p in overlapping}))
    values["#prior_changes_files"] = float(len(overlapping))
    return values


def extract_all(record: ChangeRecord, history: Sequence[ChangeRecord],
                graph: collab.InteractionGraph,
                policy: KeywordPolicy = KeywordPolicy()) -> FeatureVector:
    """Assemble the full 50-value vector in canonical order.

    ``history`` may hold any changes; only the completed ones created before
    ``record`` reach the owner-experience and file-history extractors.
    """
    prior = PriorHistory(c for c in history
                         if c.created_at < record.created_at and c.closed_at is not None)
    return _assemble(record, graph, prior, policy)


def _assemble(record: ChangeRecord, graph: collab.InteractionGraph,
              prior: PriorHistory, policy: KeywordPolicy) -> FeatureVector:
    """The one place that puts the 50 values in ``FEATURE_NAMES`` order."""
    values: dict[str, float] = {}
    values.update(extract_date_features(record))
    values.update(asdict(collab.collab_features(graph, record.owner_id)))
    values.update(extract_code_features(record))
    values.update(extract_text_features(record, policy))
    values.update(extract_owner_experience(record, prior))
    values.update(extract_file_history(record, prior))
    ordered = {name: float(values[name]) for name in FEATURE_NAMES}
    return FeatureVector(
        change_number=record.number,
        created_at=record.created_at,
        target_hours=completion_time_hours(record),
        values=ordered,
    )


def _check_change_numbers(records: Sequence[ChangeRecord],
                          history: Sequence[ChangeRecord]) -> None:
    """Reject a history that holds a change twice or disagrees with a record."""
    created: dict[int, datetime] = {}
    for change in history:
        if change.number in created:
            raise SchemaError(f"change {change.number} appears twice in the history")
        created[change.number] = change.created_at
    for record in records:
        if created.get(record.number, record.created_at) != record.created_at:
            raise SchemaError(
                f"change {record.number} was created at {record.created_at}, "
                f"but the history has it created at {created[record.number]}")


def featurize(records: Sequence[ChangeRecord],
              history: Sequence[ChangeRecord] | None = None,
              window_days: int = collab.DEFAULT_WINDOW_DAYS,
              policy: KeywordPolicy = KeywordPolicy()) -> FeatureMatrix:
    """Extract features for every completed record, chronologically sorted.

    ``history`` defaults to the records themselves; pass the unfiltered
    dataset so short/long/self-reviewed changes still count as experience.
    History is read in creation order, so its input order does not matter;
    a change number may appear in it once, with the creation time the
    records give it.  One sweep in creation order feeds the changes created
    before each record into one :class:`PriorHistory` (the completed ones)
    and into the previous record's graph, which is rebuilt only when a
    change leaves the window (that can change the order betweenness sums
    in).  A record costs its own keys plus the changes entering its window.
    """
    history = sort_by_creation(records if history is None else history)
    _check_change_numbers(records, history)
    created = [change.created_at for change in history]
    window = timedelta(days=window_days)
    prior = PriorHistory()
    added = 0
    graph, graph_start = None, -1
    vectors = []
    for record in sort_by_creation(records):
        if record.closed_at is None:
            continue
        end = bisect_left(created, record.created_at, added)
        entered = history[added:end]
        for change in entered:
            if change.closed_at is not None:
                prior.add(change)
        added = end
        start = bisect_left(created, record.created_at - window, 0, end)
        if start == graph_start:
            graph = collab.grow_graph(graph, entered)
        else:
            graph = collab.build_graph(history[start:end], as_of=record.created_at,
                                       window_days=window_days)
            graph_start = start
        vectors.append(_assemble(record, graph, prior, policy))
    return FeatureMatrix.from_vectors(vectors)
