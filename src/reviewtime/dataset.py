"""Dataset and result-file persistence, the completion-time target, and filters.

Records are stored as one JSON object per line (UTF-8) with a `manifest.json`
document next to the data file; the keys of each object are the fields of its
dataclass.  Filtering drops incomplete, reopened,
self-reviewed, too-short (<= min_hours) and too-long (> max_hours) reviews,
attributing each dropped record to the first matching rule.
"""

from __future__ import annotations

import csv
import io
import json
import re
from contextlib import contextmanager
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .errors import NotCompletedError, SchemaError
from .gerrit import ChangeRecord, ChangeStatus, FileDiff, ReviewMessage, check_field_types

SCHEMA_VERSION = "1"
MANIFEST_NAME = "manifest.json"


@dataclass(frozen=True)
class FilterPolicy:
    min_hours: float = 24.0
    max_hours: float = 504.0  # 3 weeks
    drop_reopened: bool = True
    drop_self_reviewed: bool = True

    def __post_init__(self):
        check_field_types(FilterPolicy, vars(self))
        if not (0 <= self.min_hours < self.max_hours):
            raise ValueError("require 0 <= min_hours < max_hours")


@dataclass(frozen=True)
class FilterReport:
    kept: int = 0
    dropped_reopened: int = 0
    dropped_self: int = 0
    dropped_short: int = 0
    dropped_long: int = 0
    dropped_incomplete: int = 0

    @property
    def total(self) -> int:
        return (self.kept + self.dropped_reopened + self.dropped_self
                + self.dropped_short + self.dropped_long + self.dropped_incomplete)


@dataclass(frozen=True)
class DatasetManifest:
    project: str
    crawl_query: str
    created_at: datetime
    count: int
    schema_version: str = SCHEMA_VERSION
    complete: bool = True
    filter_policy: FilterPolicy | None = None
    segments_from_diff: bool = False

    def __post_init__(self):
        check_field_types(DatasetManifest, vars(self))


def completion_time_hours(record: ChangeRecord) -> float:
    """Elapsed hours from change creation to merge or abandonment."""
    if record.closed_at is None:
        raise NotCompletedError(f"change {record.number} has no closing timestamp")
    return (record.closed_at - record.created_at).total_seconds() / 3600.0


def is_self_reviewed(record: ChangeRecord) -> bool:
    """True when no human other than the owner took part (``participants``)."""
    return not record.participants


def apply_filters(records: Sequence[ChangeRecord],
                  policy: FilterPolicy) -> tuple[list[ChangeRecord], FilterReport]:
    """Drop irrelevant records, counting each under its first matching rule."""
    kept: list[ChangeRecord] = []
    incomplete = reopened = self_reviewed = short = long_ = 0
    for record in records:
        if record.closed_at is None:
            incomplete += 1
            continue
        if policy.drop_reopened and record.reopened:
            reopened += 1
            continue
        if policy.drop_self_reviewed and is_self_reviewed(record):
            self_reviewed += 1
            continue
        duration = completion_time_hours(record)
        if duration <= policy.min_hours:
            short += 1
            continue
        if duration > policy.max_hours:
            long_ += 1
            continue
        kept.append(record)
    report = FilterReport(
        kept=len(kept),
        dropped_reopened=reopened,
        dropped_self=self_reviewed,
        dropped_short=short,
        dropped_long=long_,
        dropped_incomplete=incomplete,
    )
    return kept, report


def sort_by_creation(records: Sequence[ChangeRecord]) -> list[ChangeRecord]:
    """Stable ascending sort by creation time, ties broken by change number."""
    return sorted(records, key=lambda r: (r.created_at, r.number))


# --- serialization ---

_TIMESTAMP = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}"
                        r"\.[0-9]{6}Z")


def format_timestamp(dt: datetime | None) -> str | None:
    """UTC ``YYYY-MM-DDTHH:MM:SS.ffffffZ``, the one shape the files hold."""
    if dt is None:
        return None
    return dt.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%S.%fZ")


def parse_timestamp(value: str | None) -> datetime | None:
    """Read what :func:`format_timestamp` writes; any other shape is a ValueError."""
    if value is None:
        return None
    if not isinstance(value, str) or not _TIMESTAMP.fullmatch(value):
        raise ValueError(f"timestamp {value!r} is not of the form "
                         "YYYY-MM-DDTHH:MM:SS.ffffffZ")
    return datetime.fromisoformat(value[:-1]).replace(tzinfo=timezone.utc)


def _to_json(value):
    """``json.dumps`` hook: a timestamp in the files' one shape, a dataclass as
    its fields."""
    if isinstance(value, datetime):
        return format_timestamp(value)
    return {f.name: getattr(value, f.name) for f in fields(value)}


def write_json(path: str | Path, doc) -> None:
    """Write ``doc`` in the one JSON layout: sorted keys, indent 2, a final newline."""
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2, default=_to_json)
                          + "\n", encoding="utf-8")


def _cell(value):
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):  # np.float64 too, whose repr is "np.float64(x)"
        return repr(float(value))
    if isinstance(value, datetime):
        return format_timestamp(value)
    return value


def write_table(path: str | Path, header: Sequence[str],
                rows: Iterable[Sequence]) -> None:
    """Write a CSV result table: a float as ``repr(float(v))``, which reads back
    exactly, a bool as 0 or 1, a timestamp by :func:`format_timestamp`, the rest
    as it is."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


def read_table(path: str | Path, header: Sequence[str],
               parse: Callable[[list[str]], object]) -> tuple[list[str], list]:
    """The header and the rows, each through ``parse``, of a table :func:`write_table`
    wrote.  Bytes that are not UTF-8, a header other than ``header`` (whose last
    column may be ``"..."``, for any further columns), a row of a width other than
    the header's, and a row ``parse`` rejects (ValueError, TypeError or KeyError)
    are each a SchemaError naming the file and the line."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise SchemaError(f"{path} line {lineno}: {exc}") from exc
    reader = csv.reader(io.StringIO(text, newline=""))
    found = next(reader, [])
    expected = list(header)
    if expected[-1] == "...":
        expected[-1:] = found[len(expected) - 1:]
    if found != expected:
        raise SchemaError(f"{path} line 1: expected the header {','.join(header)}, "
                          f"got {','.join(found)}")
    rows = []
    for row in reader:
        try:
            if len(row) != len(found):
                raise ValueError(f"expected {len(found)} cells, got {len(row)}")
            rows.append(parse(row))
        except (ValueError, TypeError, KeyError) as exc:
            raise SchemaError(f"{path} line {reader.line_num}: {exc}") from exc
    return found, rows


def _from_json(cls, doc: dict):
    """``cls(**doc)`` once ``doc`` passes :func:`check_field_types`, with the
    values that JSON cannot hold decoded first."""
    check_field_types(cls, doc)
    return cls(**doc | {name: decode(doc[name])
                        for name, decode in _DECODERS.get(cls, {}).items() if name in doc})


# per dataclass, how its fields that JSON cannot hold are read back
_DECODERS = {
    ChangeRecord: {
        "status": ChangeStatus,
        "created_at": parse_timestamp,
        "closed_at": parse_timestamp,
        "files": lambda docs: tuple(_from_json(FileDiff, d) for d in docs),
        "messages": lambda docs: tuple(_from_json(ReviewMessage, d) for d in docs),
    },
    FileDiff: {"segments": lambda value: None if value is None else tuple(value)},
    ReviewMessage: {"posted_at": parse_timestamp},
    DatasetManifest: {
        "created_at": parse_timestamp,
        "filter_policy": lambda doc: None if doc is None else _from_json(FilterPolicy, doc),
    },
}


def manifest_path(data_path: Path) -> Path:
    return Path(data_path).parent / MANIFEST_NAME


def write_manifest(manifest: DatasetManifest, data_path: str | Path) -> None:
    write_json(manifest_path(Path(data_path)), manifest)


def read_manifest(data_path: str | Path) -> DatasetManifest:
    """The manifest next to ``data_path``; any malformed one is a SchemaError."""
    path = manifest_path(Path(data_path))
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        if doc.get("schema_version") != SCHEMA_VERSION:
            raise SchemaError(f"{path}: unsupported dataset schema version "
                              f"{doc.get('schema_version')!r}")
        return _from_json(DatasetManifest, doc)
    except (TypeError, ValueError, AttributeError) as exc:
        raise SchemaError(f"malformed manifest {path}: {exc!r}") from exc


@contextmanager
def dataset_appender(path: str | Path):
    """Single-consumer append channel for a JSONL dataset file."""
    path = Path(path)
    with path.open("a", encoding="utf-8") as fh:
        def append(record: ChangeRecord) -> None:
            fh.write(json.dumps(record, sort_keys=True, default=_to_json) + "\n")
            fh.flush()
        yield append


def write_dataset(records: Iterable[ChangeRecord], path: str | Path, *,
                  project: str = "", query: str = "",
                  filter_policy: FilterPolicy | None = None,
                  segments_from_diff: bool = False) -> DatasetManifest:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    first_project = project
    with path.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True, default=_to_json) + "\n")
            count += 1
            if not first_project:
                first_project = record.project
    manifest = DatasetManifest(
        project=first_project,
        crawl_query=query,
        created_at=datetime.now(timezone.utc),
        count=count,
        complete=True,
        filter_policy=filter_policy,
        segments_from_diff=segments_from_diff,
    )
    write_manifest(manifest, path)
    return manifest


def read_dataset(path: str | Path) -> tuple[list[ChangeRecord], DatasetManifest]:
    path = Path(path)
    records: list[ChangeRecord] = []
    with path.open("rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            # bytes that are not UTF-8 and text that is not JSON are ValueErrors
            try:
                line = line.decode("utf-8").strip()
                if line:
                    records.append(_from_json(ChangeRecord, json.loads(line)))
            except (SchemaError, ValueError, TypeError, AttributeError) as exc:
                raise SchemaError(f"{path} line {lineno}: {exc}") from exc
    manifest = read_manifest(path)
    return records, manifest
