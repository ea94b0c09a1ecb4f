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
        return sum(vars(self).values())


@dataclass(frozen=True)
class DatasetManifest:
    project: str
    crawl_query: str
    created_at: datetime
    count: int
    schema_version: str = SCHEMA_VERSION
    complete: bool = True
    filter_policy: FilterPolicy | None = None
    # the crawl that wrote every record asked for its change's patch; a file's
    # segments are still null for a failed patch, a binary file or a rename
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


# the filters in the order they are tried: each drops the records it names,
# counted in the FilterReport field dropped_<rule>
FILTER_RULES: dict[str, Callable[[ChangeRecord, FilterPolicy], bool]] = {
    "incomplete": lambda record, policy: record.closed_at is None,
    "reopened": lambda record, policy: policy.drop_reopened and record.reopened,
    "self": lambda record, policy: (policy.drop_self_reviewed
                                    and is_self_reviewed(record)),
    "short": lambda record, policy: completion_time_hours(record) <= policy.min_hours,
    "long": lambda record, policy: completion_time_hours(record) > policy.max_hours,
}


def apply_filters(records: Sequence[ChangeRecord],
                  policy: FilterPolicy) -> tuple[list[ChangeRecord], FilterReport]:
    """Drop irrelevant records, counting each under its first matching rule."""
    kept: list[ChangeRecord] = []
    dropped = dict.fromkeys(FILTER_RULES, 0)
    for record in records:
        for rule, drops in FILTER_RULES.items():
            if drops(record, policy):
                dropped[rule] += 1
                break
        else:
            kept.append(record)
    return kept, FilterReport(len(kept), **{f"dropped_{rule}": count
                                            for rule, count in dropped.items()})


def sort_by_creation(records: Sequence[ChangeRecord]) -> list[ChangeRecord]:
    """Stable ascending sort by creation time, ties broken by change number."""
    return sorted(records, key=lambda r: (r.created_at, r.number))


# --- serialization ---

_TIMESTAMP = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}"
                        r"\.[0-9]{6}Z")


def format_timestamp(dt: datetime | None) -> str | None:
    """UTC ``YYYY-MM-DDTHH:MM:SS.ffffffZ``, the one shape the files hold, with
    the year zero-padded to four digits (glibc's ``%Y`` writes 999 as ``999``).  A
    time whose UTC instant falls outside the years 1 to 9999 is a SchemaError."""
    if dt is None:
        return None
    try:
        utc = dt.astimezone(timezone.utc).replace(tzinfo=None)
    except OverflowError as exc:
        raise SchemaError(f"the time {dt.isoformat()} falls outside the years "
                          "1 to 9999 in UTC") from exc
    return utc.isoformat(timespec="microseconds") + "Z"


def parse_timestamp(value: str | None) -> datetime | None:
    """Read what :func:`format_timestamp` writes; any other shape is a ValueError."""
    if value is None:
        return None
    if not isinstance(value, str) or not _TIMESTAMP.fullmatch(value):
        raise ValueError(f"timestamp {value!r} is not of the form "
                         "YYYY-MM-DDTHH:MM:SS.ffffffZ")
    # an explicit offset, not the Z that fromisoformat reads only from 3.11 on;
    # it gives timezone.utc, faster than a replace(tzinfo=...) call
    return datetime.fromisoformat(value[:-1] + "+00:00")


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
    column may be ``"..."``, for any further columns), a header that names a column
    twice, a row of a width other than the header's, and a row ``parse`` rejects
    (ValueError, TypeError or KeyError) are each a SchemaError naming the file and
    the line."""
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
    repeated = next((name for i, name in enumerate(found) if name in found[:i]), None)
    if repeated is not None:
        raise SchemaError(f"{path} line 1: the header names {repeated!r} twice")
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


# A record line is its ChangeRecord as one JSON object with sorted keys: a
# field per key, the files and messages as objects of their own, timestamps
# by format_timestamp.  The writer names every field, where a json.dumps hook
# would look each dataclass's fields up; a test holds it to the bytes of that
# hook.  Lines are read back by _from_json.

def _file_json(f: FileDiff) -> dict:
    return {"lines_deleted": f.lines_deleted, "lines_inserted": f.lines_inserted,
            "path": f.path, "segments": f.segments}


def _message_json(m: ReviewMessage) -> dict:
    return {"author_id": m.author_id, "author_name": m.author_name,
            "from_bot": m.from_bot, "posted_at": format_timestamp(m.posted_at),
            "revision_number": m.revision_number, "text": m.text}


def _record_line(r: ChangeRecord) -> str:
    """The record's line of a dataset file, its newline included."""
    return json.dumps({
        "branch": r.branch, "change_id": r.change_id,
        "closed_at": format_timestamp(r.closed_at),
        "created_at": format_timestamp(r.created_at),
        "deletions_total": r.deletions_total,
        "files": [_file_json(f) for f in r.files],
        "insertions_total": r.insertions_total,
        "message_body": r.message_body,
        "messages": [_message_json(m) for m in r.messages],
        "number": r.number, "owner_id": r.owner_id, "owner_name": r.owner_name,
        "owner_tz_offset_minutes": r.owner_tz_offset_minutes,
        "project": r.project, "reopened": r.reopened, "status": r.status,
        "subject": r.subject, "tz_offset_missing": r.tz_offset_missing,
    }, sort_keys=True) + "\n"


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
            fh.write(_record_line(record))
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
            fh.write(_record_line(record))
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


def read_dataset(path: str | Path, *, lines: dict[bytes, ChangeRecord] | None = None,
                 ) -> tuple[list[ChangeRecord], DatasetManifest]:
    """The records of a JSONL dataset file, in file order, and its manifest.

    A malformed line is a SchemaError naming the file and the line.  With
    ``lines``, a line whose bytes it holds gives that record object, not one
    decoded again, and each line decoded is added to it.
    """
    path = Path(path)
    records: list[ChangeRecord] = []
    with path.open("rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            record = None if lines is None else lines.get(line)
            if record is None:
                # bytes that are not UTF-8 and text that is not JSON are ValueErrors
                try:
                    text = line.decode("utf-8").strip()
                    if not text:
                        continue
                    record = _from_json(ChangeRecord, json.loads(text))
                except (SchemaError, ValueError, TypeError, AttributeError) as exc:
                    raise SchemaError(f"{path} line {lineno}: {exc}") from exc
                if lines is not None:
                    lines[line] = record
            records.append(record)
    manifest = read_manifest(path)
    return records, manifest
