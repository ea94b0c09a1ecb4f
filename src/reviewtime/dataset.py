"""Dataset persistence, the completion-time target, and training-data filters.

Records are stored as one JSON object per line (UTF-8) with a `manifest.json`
document next to the data file.  Filtering drops incomplete, reopened,
self-reviewed, too-short (<= min_hours) and too-long (> max_hours) reviews,
attributing each dropped record to the first matching rule.
"""

from __future__ import annotations

import json
import re
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Sequence

from .errors import NotCompletedError, SchemaError
from .gerrit import (
    DEFAULT_BOT_ACCOUNTS,
    ChangeRecord,
    ChangeStatus,
    FileDiff,
    ReviewMessage,
    is_bot_account,
    require_number,
)

SCHEMA_VERSION = "1"
MANIFEST_NAME = "manifest.json"


@dataclass(frozen=True)
class FilterPolicy:
    min_hours: float = 24.0
    max_hours: float = 504.0  # 3 weeks
    drop_reopened: bool = True
    drop_self_reviewed: bool = True

    def __post_init__(self):
        require_number(self.min_hours, "min_hours", float)
        require_number(self.max_hours, "max_hours", float)
        if not (0 <= self.min_hours < self.max_hours):
            raise ValueError("require 0 <= min_hours < max_hours")
        for name in ("drop_reopened", "drop_self_reviewed"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false, "
                                 f"got {getattr(self, name)!r}")


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
        require_number(self.count, "count", int)
        for name in ("complete", "segments_from_diff"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false, "
                                 f"got {getattr(self, name)!r}")


def completion_time_hours(record: ChangeRecord) -> float:
    """Elapsed hours from change creation to merge or abandonment."""
    if record.closed_at is None:
        raise NotCompletedError(f"change {record.number} has no closing timestamp")
    return (record.closed_at - record.created_at).total_seconds() / 3600.0


def is_self_reviewed(record: ChangeRecord,
                     bot_accounts: Sequence[str] = DEFAULT_BOT_ACCOUNTS) -> bool:
    """True when no message comes from a human other than the owner."""
    for msg in record.messages:
        if msg.author_id == record.owner_id:
            continue
        if msg.from_bot or is_bot_account(msg.author_name, bot_accounts):
            continue
        return False
    return True


def apply_filters(records: Sequence[ChangeRecord], policy: FilterPolicy,
                  bot_accounts: Sequence[str] = DEFAULT_BOT_ACCOUNTS,
                  ) -> tuple[list[ChangeRecord], FilterReport]:
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
        if policy.drop_self_reviewed and is_self_reviewed(record, bot_accounts):
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


def record_to_json(record: ChangeRecord) -> dict:
    return {
        "change_id": record.change_id,
        "number": record.number,
        "project": record.project,
        "branch": record.branch,
        "status": record.status.value,
        "created_at": format_timestamp(record.created_at),
        "closed_at": format_timestamp(record.closed_at),
        "owner_id": record.owner_id,
        "owner_name": record.owner_name,
        "owner_tz_offset_minutes": record.owner_tz_offset_minutes,
        "subject": record.subject,
        "message_body": record.message_body,
        "files": [
            {
                "path": f.path,
                "lines_inserted": f.lines_inserted,
                "lines_deleted": f.lines_deleted,
                "segments": list(f.segments) if f.segments is not None else None,
            }
            for f in record.files
        ],
        "messages": [
            {
                "author_id": m.author_id,
                "author_name": m.author_name,
                "posted_at": format_timestamp(m.posted_at),
                "text": m.text,
                "revision_number": m.revision_number,
                "from_bot": m.from_bot,
            }
            for m in record.messages
        ],
        "reopened": record.reopened,
        "insertions_total": record.insertions_total,
        "deletions_total": record.deletions_total,
        "tz_offset_missing": record.tz_offset_missing,
    }


def record_from_json(doc: dict) -> ChangeRecord:
    try:
        for name in ("number", "owner_id", "owner_tz_offset_minutes",
                     "insertions_total", "deletions_total"):
            require_number(doc[name], name, int)
        for f in doc["files"]:
            require_number(f["lines_inserted"], "lines_inserted", int)
            require_number(f["lines_deleted"], "lines_deleted", int)
        for m in doc["messages"]:
            require_number(m["author_id"], "author_id", int)
        return ChangeRecord(
            change_id=doc["change_id"],
            number=doc["number"],
            project=doc["project"],
            branch=doc["branch"],
            status=ChangeStatus(doc["status"]),
            created_at=parse_timestamp(doc["created_at"]),
            closed_at=parse_timestamp(doc["closed_at"]),
            owner_id=doc["owner_id"],
            owner_name=doc["owner_name"],
            owner_tz_offset_minutes=doc["owner_tz_offset_minutes"],
            subject=doc["subject"],
            message_body=doc["message_body"],
            files=tuple(
                FileDiff(
                    path=f["path"],
                    lines_inserted=f["lines_inserted"],
                    lines_deleted=f["lines_deleted"],
                    segments=tuple(f["segments"]) if f.get("segments") is not None else None,
                )
                for f in doc["files"]
            ),
            messages=tuple(
                ReviewMessage(
                    author_id=m["author_id"],
                    author_name=m["author_name"],
                    posted_at=parse_timestamp(m["posted_at"]),
                    text=m["text"],
                    revision_number=m["revision_number"],
                    from_bot=m["from_bot"],
                )
                for m in doc["messages"]
            ),
            reopened=doc["reopened"],
            insertions_total=doc["insertions_total"],
            deletions_total=doc["deletions_total"],
            tz_offset_missing=doc.get("tz_offset_missing", False),
        )
    except KeyError as exc:
        raise SchemaError(f"record missing key {exc.args[0]!r}") from exc


def manifest_path(data_path: Path) -> Path:
    return Path(data_path).parent / MANIFEST_NAME


def write_manifest(manifest: DatasetManifest, data_path: str | Path) -> None:
    doc = {**asdict(manifest), "created_at": format_timestamp(manifest.created_at)}
    path = manifest_path(Path(data_path))
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def read_manifest(data_path: str | Path) -> DatasetManifest:
    """The manifest next to ``data_path``; any malformed one is a SchemaError."""
    path = manifest_path(Path(data_path))
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        if doc.get("schema_version") != SCHEMA_VERSION:
            raise SchemaError(f"{path}: unsupported dataset schema version "
                              f"{doc.get('schema_version')!r}")
        policy = doc.get("filter_policy")
        return DatasetManifest(**{
            **doc, "created_at": parse_timestamp(doc["created_at"]),
            "filter_policy": FilterPolicy(**policy) if policy else None})
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise SchemaError(f"malformed manifest {path}: {exc!r}") from exc


@contextmanager
def dataset_appender(path: str | Path):
    """Single-consumer append channel for a JSONL dataset file."""
    path = Path(path)
    with path.open("a", encoding="utf-8") as fh:
        def append(record: ChangeRecord) -> None:
            fh.write(json.dumps(record_to_json(record), sort_keys=True) + "\n")
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
            fh.write(json.dumps(record_to_json(record), sort_keys=True) + "\n")
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
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"corrupted dataset line {lineno}: {exc}") from exc
            try:
                records.append(record_from_json(doc))
            except (SchemaError, ValueError, TypeError, AttributeError) as exc:
                raise SchemaError(f"malformed record on dataset line {lineno}: "
                                  f"{exc}") from exc
    manifest = read_manifest(path)
    return records, manifest
