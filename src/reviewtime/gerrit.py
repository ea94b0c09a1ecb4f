"""Gerrit REST ingestion: fetch change data and normalize it into ChangeRecords.

The transport layer speaks the Gerrit changes REST protocol (XSSI guard,
`_more_changes` pagination, a listing that asks for the ALL_REVISIONS /
ALL_COMMITS / ALL_FILES / MESSAGES / DETAILED_ACCOUNTS options, so each page
carries full change documents, and per-file revision diffs).  Normalization
turns the raw JSON documents into :class:`ChangeRecord` values;
:func:`crawl_project` streams them into a JSONL dataset with idempotent resume
by change number.
"""

from __future__ import annotations

import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from enum import Enum
from functools import cache, cached_property
from pathlib import Path
from types import UnionType
from typing import (Any, Callable, Iterator, Mapping, Sequence, get_args,
                    get_origin, get_type_hints)
from urllib.parse import quote

from .errors import HttpError, MalformedJsonError, NotFoundError, SchemaError

XSSI_GUARD = b")]}'"
RETRY_BACKOFF_SECONDS = 0.25
AUTH_USER_ENV = "GERRIT_HTTP_USER"
AUTH_PASSWORD_ENV = "GERRIT_HTTP_PASSWORD"

DEFAULT_BOT_ACCOUNTS = ("bot", "CI", "Jenkins", "Zuul", "SonarQube")

DETAIL_OPTIONS = (
    "ALL_REVISIONS",
    "ALL_COMMITS",
    "ALL_FILES",
    "MESSAGES",
    "DETAILED_ACCOUNTS",
)

PSEUDO_FILES = ("/COMMIT_MSG", "/MERGE_LIST")

RESTORE_MARKER = "Restored"


class ChangeStatus(str, Enum):
    MERGED = "MERGED"
    ABANDONED = "ABANDONED"
    NEW = "NEW"


# the test a value of each scalar field type passes (a bool is never a
# number), and what one and many such values are called
_SCALARS = {
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool),
          "an integer", "integers"),
    float: (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
            "a number", "numbers"),
    str: (lambda v: isinstance(v, str), "a string", "strings"),
    bool: (lambda v: isinstance(v, bool), "true or false", "booleans"),
}


@cache
def _field_tests(cls: type) -> dict[str, tuple[Callable[[Any], bool], str]]:
    """For each field of ``cls`` typed a scalar or a tuple of one, either
    perhaps ``| None``: the test its values pass, and what they must be."""
    tests = {}
    for name, hint in get_type_hints(cls).items():
        args = get_args(hint)
        nullable = isinstance(hint, UnionType) and len(args) == 2 and type(None) in args
        if nullable:
            hint = args[0] if args[1] is type(None) else args[1]
            args = get_args(hint)
        if get_origin(hint) is tuple and args[0] in _SCALARS \
                and set(args) <= {args[0], ...}:
            item, _, many = _SCALARS[args[0]]
            size = 0 if args[-1] is ... else len(args)  # 0: any length

            def test(v, item=item, size=size):
                return (isinstance(v, (list, tuple)) and size in (0, len(v))
                        and all(map(item, v)))
            what = f"a list of {size} {many}" if size else f"a list of {many}"
        elif hint in _SCALARS:
            test, what, _ = _SCALARS[hint]
        else:
            continue
        if nullable:
            test, what = (lambda v, test=test: v is None or test(v)), f"{what} or null"
        tests[name] = test, what
    return tests


def check_field_types(cls: type, values: Mapping[str, Any]) -> None:
    """Reject a value in ``values`` that its annotated field of ``cls`` does not take.

    An ``int`` field takes an int, never a bool; a ``float`` field an int
    or a float; ``str`` and ``bool`` fields exactly that type; ``X | None``
    also null; and a tuple field of scalars a list or tuple of them, of the
    annotation's length when it fixes one.  Other field types are left to
    their constructors, and absent names to the dataclass.
    """
    for name, (test, what) in _field_tests(cls).items():
        if name in values and not test(values[name]):
            raise ValueError(f"{name} must be {what}, got {values[name]!r}")


@dataclass(frozen=True)
class CrawlConfig:
    base_url: str
    query: str = "status:merged OR status:abandoned"
    page_size: int = 100
    max_changes: int | None = None
    request_timeout: float = 30.0
    max_retries: int = 3
    min_request_interval_ms: float = 0.0
    bot_accounts: tuple[str, ...] = DEFAULT_BOT_ACCOUNTS
    fetch_file_diffs: bool = True

    def __post_init__(self):
        check_field_types(CrawlConfig, vars(self))
        if self.page_size < 1:
            raise ValueError("page_size must be >= 1")
        if self.request_timeout <= 0:
            raise ValueError("request_timeout must be > 0")
        if self.min_request_interval_ms < 0:
            raise ValueError("min_request_interval_ms must be >= 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not (self.base_url.startswith("http://") or self.base_url.startswith("https://")):
            raise ValueError("base_url must be an absolute http(s) URL")
        if self.max_changes is not None and self.max_changes < 1:
            raise ValueError("max_changes must be >= 1 when set")
        object.__setattr__(self, "bot_accounts", tuple(self.bot_accounts))


@dataclass(frozen=True)
class RawChange:
    data: dict
    fetched_at: datetime

    def __post_init__(self):
        if not isinstance(self.data, dict):
            raise SchemaError("raw change payload is not a JSON object")
        for key in ("_number", "status", "created"):
            if key not in self.data:
                raise SchemaError(f"raw change missing required key {key!r}")


@dataclass(frozen=True)
class FileDiff:
    path: str
    lines_inserted: int
    lines_deleted: int
    # per-file edit segment counts (added, deleted, modified) parsed from the
    # revision diff; None when diff content was not fetched
    segments: tuple[int, int, int] | None = None

    def __post_init__(self):
        if not self.path:
            raise SchemaError("file path must be non-empty")
        if self.lines_inserted < 0 or self.lines_deleted < 0:
            raise SchemaError("negative line counts")


@dataclass(frozen=True)
class ReviewMessage:
    author_id: int
    author_name: str
    posted_at: datetime
    text: str
    revision_number: int | None = None
    from_bot: bool = False


@dataclass(frozen=True)
class ChangeRecord:
    change_id: str
    number: int
    project: str
    branch: str
    status: ChangeStatus
    created_at: datetime
    closed_at: datetime | None
    owner_id: int
    owner_name: str
    owner_tz_offset_minutes: int
    subject: str
    message_body: str
    files: tuple[FileDiff, ...]
    messages: tuple[ReviewMessage, ...]
    reopened: bool
    insertions_total: int
    deletions_total: int
    tz_offset_missing: bool = False

    def __post_init__(self):
        closed = self.status in (ChangeStatus.MERGED, ChangeStatus.ABANDONED)
        if closed and self.closed_at is None:
            raise SchemaError(f"change {self.number}: closed status without closed_at")
        if not closed and self.closed_at is not None:
            raise SchemaError(f"change {self.number}: closed_at on open change")
        if self.closed_at is not None and self.closed_at < self.created_at:
            raise SchemaError(f"change {self.number}: closed_at precedes created_at")

    @cached_property
    def interaction_pairs(self) -> tuple[tuple[int, int], ...]:
        """Sorted (owner, participant) keys, one per distinct participant.

        Participants are the human message authors other than the owner,
        taken in the iteration order of their set.  Built once per record,
        so every window graph that holds the record counts the same keys in
        the same order.
        """
        owner = self.owner_id
        participants = {m.author_id for m in self.messages
                        if m.author_id != owner and not m.from_bot}
        return tuple((owner, p) if owner < p else (p, owner)
                     for p in participants)


def parse_gerrit_json(body: bytes | str) -> Any:
    """Parse a Gerrit REST response, stripping the XSSI guard when present."""
    if isinstance(body, str):
        body = body.encode("utf-8")
    if body.startswith(XSSI_GUARD):
        body = body[len(XSSI_GUARD):]
        if body.startswith(b"\n"):
            body = body[1:]
    try:
        return json.loads(body)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedJsonError(f"response is not valid JSON: {exc}") from exc


def parse_gerrit_timestamp(value: str) -> datetime:
    """Parse Gerrit's 'YYYY-MM-DD HH:MM:SS.nnnnnnnnn' UTC format.

    Nanosecond digits beyond microseconds are truncated, not rounded.
    """
    main, _, frac = value.partition(".")
    dt = datetime.strptime(main, "%Y-%m-%d %H:%M:%S")
    micros = int(frac[:6].ljust(6, "0")) if frac else 0
    return dt.replace(microsecond=micros, tzinfo=timezone.utc)


def is_bot_account(name: str, bot_accounts: Sequence[str]) -> bool:
    return any(marker in name for marker in bot_accounts)


def parse_diff_segments(diff_doc: dict) -> tuple[int, int, int]:
    """Count maximal contiguous edit hunks in a revision file diff document.

    The diff content is a list of blocks: ``ab`` runs are unchanged context;
    blocks carrying ``a`` (removed lines) and/or ``b`` (inserted lines) are
    edits.  A segment with only insertions counts as added, only deletions as
    deleted, both as modified.
    """
    added = deleted = modified = 0
    for block in diff_doc.get("content", []):
        has_a = bool(block.get("a"))
        has_b = bool(block.get("b"))
        if has_a and has_b:
            modified += 1
        elif has_b:
            added += 1
        elif has_a:
            deleted += 1
    return added, deleted, modified


class GerritClient:
    """Paced, retrying HTTP client for the Gerrit changes REST API.

    The environment is read once, here: the proxies for ``base_url``
    (``*_PROXY``, ``NO_PROXY``), basic auth from ``GERRIT_HTTP_USER`` /
    ``GERRIT_HTTP_PASSWORD`` or else ``.netrc``, and the CA bundle from
    ``REQUESTS_CA_BUNDLE`` / ``CURL_CA_BUNDLE``.  Every request goes to the
    host of ``base_url``, so what ``requests`` would look up per request is
    the same each time.  Call :meth:`close` when done.
    """

    def __init__(self, config: CrawlConfig):
        import requests  # only a crawl needs it; importing it costs every command

        self.config = config
        self.session = requests.Session()
        self.session.trust_env = False
        base_url = config.base_url
        self.session.proxies = requests.utils.get_environ_proxies(base_url)
        user = os.environ.get(AUTH_USER_ENV)
        password = os.environ.get(AUTH_PASSWORD_ENV)
        self.session.auth = (user, password) if user and password \
            else requests.utils.get_netrc_auth(base_url)
        self.session.verify = os.environ.get("REQUESTS_CA_BUNDLE") \
            or os.environ.get("CURL_CA_BUNDLE") or True
        self.request_log: list[float] = []
        self._pace_lock = threading.Lock()
        self._last_request_start: float | None = None

    def _pace(self):
        interval = self.config.min_request_interval_ms / 1000.0
        with self._pace_lock:
            now = time.monotonic()
            if self._last_request_start is not None and interval > 0:
                earliest = self._last_request_start + interval
                if now < earliest:
                    time.sleep(earliest - now)
                    now = time.monotonic()
            self._last_request_start = now
            self.request_log.append(now)

    def close(self) -> None:
        """Close the session and its pooled connections."""
        self.session.close()

    def _get(self, path: str, params: dict | None = None) -> Any:
        import requests

        url = self.config.base_url.rstrip("/") + path
        last_exc: Exception | None = None
        for attempt in range(self.config.max_retries + 1):
            self._pace()
            try:
                resp = self.session.get(url, params=params, timeout=self.config.request_timeout)
            except requests.RequestException as exc:
                last_exc = HttpError(f"transport failure for {url}: {exc}")
            else:
                if resp.status_code == 404:
                    raise NotFoundError(f"not found: {url}", status=404)
                if resp.status_code >= 500 or resp.status_code == 429:
                    last_exc = HttpError(f"server error {resp.status_code} for {url}",
                                         status=resp.status_code)
                elif resp.status_code >= 400:
                    raise HttpError(f"request failed ({resp.status_code}) for {url}",
                                    status=resp.status_code)
                else:
                    return parse_gerrit_json(resp.content)
            if attempt < self.config.max_retries:
                time.sleep(RETRY_BACKOFF_SECONDS * (2 ** attempt))
        raise last_exc  # type: ignore[misc]

    def fetch_change_page(self, start_offset: int) -> tuple[list[RawChange], bool]:
        if start_offset < 0:
            raise ValueError("start_offset must be >= 0")
        payload = self._get(
            "/changes/",
            params={"q": self.config.query, "n": self.config.page_size,
                    "start": start_offset, "o": list(DETAIL_OPTIONS)},
        )
        if not isinstance(payload, list):
            raise MalformedJsonError("change listing is not a JSON array")
        now = datetime.now(timezone.utc)
        changes = [RawChange(data=doc, fetched_at=now) for doc in payload]
        more = bool(payload and payload[-1].get("_more_changes"))
        return changes, more

    def fetch_change_detail(self, doc: dict) -> RawChange:
        """Complete a listing document: attach its per-file revision diffs.

        The listing already carries the detail options, so this fetches
        only the diffs, and nothing when ``fetch_file_diffs`` is off.
        """
        if self.config.fetch_file_diffs:
            doc = {**doc, "_file_diffs": self._fetch_revision_diffs(doc)}
        return RawChange(data=doc, fetched_at=datetime.now(timezone.utc))

    def _fetch_revision_diffs(self, doc: dict) -> dict[str, dict]:
        revision = _first_revision(doc)
        if revision is None:
            return {}
        number = doc.get("_number")
        diffs: dict[str, dict] = {}
        for path in revision.get("files", {}):
            if path in PSEUDO_FILES:
                continue
            quoted = quote(path, safe="")
            try:
                diffs[path] = self._get(
                    f"/changes/{number}/revisions/1/files/{quoted}/diff"
                )
            except (HttpError, MalformedJsonError):
                continue  # fall back to per-file segment classification
        return diffs

    def iter_pages(self) -> Iterator[list[dict]]:
        """Yield the change listing page by page, bounded by ``max_changes``."""
        limit = self.config.max_changes
        offset = 0
        while True:
            page, more = self.fetch_change_page(offset)
            docs = [raw.data for raw in page]
            if limit is not None and offset + len(docs) >= limit:
                yield docs[:limit - offset]
                return
            yield docs
            if not more or not docs:
                return
            offset += len(docs)


def _first_revision(doc: dict) -> dict | None:
    revisions = doc.get("revisions") or {}
    best = None
    for rev in revisions.values():
        num = rev.get("_number")
        if num == 1:
            return rev
        if best is None or (num is not None and num < best.get("_number", 1 << 30)):
            best = rev
    return best


def _require(doc: dict, key: str):
    if key not in doc:
        raise SchemaError(f"change document missing required key {key!r}")
    return doc[key]


def normalize_change(raw: RawChange, config: CrawlConfig) -> ChangeRecord:
    """Normalize a raw Gerrit change document into a ChangeRecord."""
    doc = raw.data
    number = int(_require(doc, "_number"))
    status = ChangeStatus(_require(doc, "status"))
    created_at = parse_gerrit_timestamp(_require(doc, "created"))
    owner = _require(doc, "owner")
    owner_id = int(_require(owner, "_account_id"))
    owner_name = owner.get("name", "")
    subject = doc.get("subject", "")

    closed_at = None
    if status in (ChangeStatus.MERGED, ChangeStatus.ABANDONED):
        closed_raw = doc.get("submitted") if status is ChangeStatus.MERGED else None
        if closed_raw is None:
            closed_raw = doc.get("updated")
        if closed_raw is None:
            raise SchemaError(f"change {number}: no submitted/updated timestamp")
        closed_at = parse_gerrit_timestamp(closed_raw)

    revision = _first_revision(doc)
    tz_offset = 0
    tz_missing = True
    message_body = ""
    files: list[FileDiff] = []
    if revision is not None:
        commit = revision.get("commit") or {}
        author = commit.get("author") or {}
        if "tz" in author:
            tz_offset = int(author["tz"])
            tz_missing = False
        message_body = commit.get("message", "")
        file_diffs = doc.get("_file_diffs") or {}
        for path in sorted(revision.get("files", {})):
            if path in PSEUDO_FILES:
                continue
            info = revision["files"][path]
            segments = None
            if path in file_diffs:
                segments = parse_diff_segments(file_diffs[path])
            files.append(FileDiff(
                path=path,
                lines_inserted=int(info.get("lines_inserted", 0)),
                lines_deleted=int(info.get("lines_deleted", 0)),
                segments=segments,
            ))

    messages: list[ReviewMessage] = []
    for msg in doc.get("messages", []):
        author = msg.get("author") or {}
        name = author.get("name", "")
        messages.append(ReviewMessage(
            author_id=int(author.get("_account_id", -1)),
            author_name=name,
            posted_at=parse_gerrit_timestamp(_require(msg, "date")),
            text=msg.get("message", ""),
            revision_number=msg.get("_revision_number"),
            from_bot=is_bot_account(name, config.bot_accounts),
        ))

    reopened = any(m.text.startswith(RESTORE_MARKER) for m in messages)

    return ChangeRecord(
        change_id=doc.get("change_id", doc.get("id", str(number))),
        number=number,
        project=doc.get("project", ""),
        branch=doc.get("branch", ""),
        status=status,
        created_at=created_at,
        closed_at=closed_at,
        owner_id=owner_id,
        owner_name=owner_name,
        owner_tz_offset_minutes=tz_offset,
        subject=subject,
        message_body=message_body,
        files=tuple(files),
        messages=tuple(messages),
        reopened=reopened,
        insertions_total=sum(f.lines_inserted for f in files),
        deletions_total=sum(f.lines_deleted for f in files),
        tz_offset_missing=tz_missing,
    )


def crawl_project(config: CrawlConfig, output_path: str | Path, jobs: int = 1):
    """Crawl all changes matching the config query into a JSONL dataset.

    Appends incrementally, so an interrupted crawl can be resumed by
    re-running: an existing output file is read and validated with
    :func:`dataset.read_dataset`, its change numbers are skipped, and its
    manifest is carried on.  Each listing page carries full change
    documents; the changes' file diffs may be fetched concurrently
    (``jobs``, with as many pooled connections), at most one listing page of
    them ahead of the writer; writes are serialized.
    Returns the final DatasetManifest.
    """
    from . import dataset as ds

    output_path = Path(output_path)
    output_path.parent.mkdir(parents=True, exist_ok=True)
    if output_path.exists():
        records, manifest = ds.read_dataset(output_path)
    else:
        records, manifest = [], ds.DatasetManifest(
            project="", crawl_query="", created_at=datetime.now(timezone.utc),
            count=0)
    seen = {record.number for record in records}
    project = manifest.project or next((r.project for r in records), "")
    del records  # only the numbers are needed while crawling
    # records already crawled without diffs keep a resumed dataset from
    # claiming segments from diffs
    manifest = replace(manifest, crawl_query=config.query, count=len(seen),
                       complete=False, segments_from_diff=config.fetch_file_diffs
                       and (manifest.segments_from_diff or not seen))
    ds.write_manifest(manifest, output_path)

    import requests

    client = GerritClient(config)
    # one pooled connection per worker; requests keeps 10 per host otherwise
    client.session.mount(config.base_url,
                         requests.adapters.HTTPAdapter(pool_maxsize=jobs))

    def fetch_and_normalize(doc: dict) -> ChangeRecord:
        return normalize_change(client.fetch_change_detail(doc), config)

    exhausted = False
    try:
        # at jobs=1 no thread starts: the built-in map fetches in this thread
        with (ds.dataset_appender(output_path) as append,
              ThreadPoolExecutor(jobs) if jobs > 1 else nullcontext() as pool):
            # Executor.map drains its input up front, so fetch one listing
            # page at a time: the next page is listed after this one is written
            for page in client.iter_pages():
                unseen = [doc for doc in page if doc["_number"] not in seen]
                for record in (pool.map if pool else map)(fetch_and_normalize, unseen):
                    append(record)
                    seen.add(record.number)
                    project = project or record.project
        exhausted = True
    finally:
        client.close()
        manifest = replace(manifest, project=project, count=len(seen),
                           complete=exhausted)
        ds.write_manifest(manifest, output_path)
    return manifest
