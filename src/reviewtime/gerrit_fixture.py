"""Local stand-in for a Gerrit server, plus a synthetic review corpus.

The corpus generator plants a learnable signal: completion time grows with
churn, file count and weekend creation, so pipeline runs on fixture data have
something to predict.  The server speaks enough of the changes REST protocol
for the crawler: listing with pagination (full change documents when asked
for options with ``o``), per-file diffs, the XSSI guard on every response,
and HTTP/1.1 persistent connections.
"""

from __future__ import annotations

import json
import re
import threading
from datetime import datetime, timedelta, timezone
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, unquote, urlparse

import numpy as np

_EPOCH = datetime(2020, 1, 6, 8, 0, 0, tzinfo=timezone.utc)  # a Monday
_PROJECT = "fixture/project"

_DIRS = ("core", "net", "ui", "docs", "tests")
_EXTS = ("c", "h", "py", "rst")
_SUBJECT_WORDS = (
    "Fix crash in parser", "Add retry logic", "Refactor session cache",
    "Improve logging", "Update docs for api", "Simplify error paths",
    "Handle timeout edge case", "Optimize lookup table", "Fix typo in comment",
    "Add integration hooks",
)

_TZ_CHOICES = (-480, -300, 0, 60, 120, 330, 540)


def _fmt(dt: datetime) -> str:
    return dt.strftime("%Y-%m-%d %H:%M:%S.%f") + "000"


def _account(account_id: int, name: str) -> dict:
    return {"_account_id": account_id, "name": name}


def _make_diff(rng: np.random.Generator, inserted: int, deleted: int) -> dict:
    """Fabricate a diff document with 1-3 edit hunks matching the line counts."""
    content: list[dict] = [{"ab": ["ctx"] * int(rng.integers(1, 5))}]
    hunks = int(rng.integers(1, 4))
    # one uniform hunk per line, drawn in one call: the stream of a draw per line
    ins_split = np.bincount(rng.integers(0, hunks, size=inserted), minlength=hunks)
    del_split = np.bincount(rng.integers(0, hunks, size=deleted), minlength=hunks)
    for h in range(hunks):
        block: dict = {}
        if del_split[h]:
            block["a"] = ["old"] * int(del_split[h])
        if ins_split[h]:
            block["b"] = ["new"] * int(ins_split[h])
        if block:
            content.append(block)
            content.append({"ab": ["ctx"] * int(rng.integers(1, 5))})
    return {"content": content}


def generate_corpus(n_changes: int = 200, seed: int = 0) -> list[dict]:
    """Synthesize Gerrit change-detail documents with a planted duration signal."""
    rng = np.random.default_rng(seed)
    developers = [(100 + i, f"dev-{i:02d}") for i in range(18)]
    bots = [(900, "Jenkins Build"), (901, "Zuul CI")]
    changes = []
    created = _EPOCH
    for number in range(1, n_changes + 1):
        created = created + timedelta(hours=float(rng.uniform(4.0, 16.0)),
                                      minutes=float(rng.uniform(0, 59)))
        owner = developers[int(rng.integers(0, len(developers)))]
        tz = int(_TZ_CHOICES[rng.integers(0, len(_TZ_CHOICES))])

        n_files = int(rng.integers(1, 6))
        files = {}
        total_churn = 0
        for _ in range(n_files):
            directory = _DIRS[int(rng.integers(0, len(_DIRS)))]
            ext = _EXTS[int(rng.integers(0, len(_EXTS)))]
            path = f"{directory}/{'module' if rng.random() < 0.5 else 'util'}_{int(rng.integers(0, 6))}.{ext}"
            if path in files:
                continue
            inserted = int(rng.integers(0, 80))
            deleted = int(rng.integers(0, 40))
            if inserted == 0 and deleted == 0:
                inserted = 1
            files[path] = {"lines_inserted": inserted, "lines_deleted": deleted}
            total_churn += inserted + deleted

        subject = _SUBJECT_WORDS[int(rng.integers(0, len(_SUBJECT_WORDS)))]
        message = subject + "\n\nLonger description of the change." \
            + (" Includes refactoring work." if rng.random() < 0.2 else "")

        local_created = created + timedelta(minutes=tz)
        weekend = local_created.weekday() >= 5

        # planted signal: churn, breadth and weekend creation slow reviews down
        duration_h = (
            30.0
            + 0.55 * total_churn
            + 9.0 * n_files
            + 40.0 * weekend
            + float(rng.normal(0.0, 12.0))
        )
        roll = rng.random()
        if roll < 0.06:
            duration_h = float(rng.uniform(0.5, 23.0))     # urgent fast-path
        elif roll < 0.10:
            duration_h = float(rng.uniform(520.0, 900.0))  # stalled review
        duration_h = max(duration_h, 0.2)
        closed = created + timedelta(hours=duration_h)

        status = "MERGED" if rng.random() < 0.8 else "ABANDONED"
        is_new = rng.random() < 0.04
        if is_new:
            status = "NEW"

        reviewer_pool = [d for d in developers if d[0] != owner[0]]
        n_reviewers = int(rng.integers(1, 4))
        reviewers = [reviewer_pool[int(i)] for i in
                     rng.choice(len(reviewer_pool), size=n_reviewers, replace=False)]
        self_reviewed = rng.random() < 0.05
        reopened = rng.random() < 0.04

        messages = []
        msg_time = created
        n_msgs = int(rng.integers(1, 5))
        for m in range(n_msgs):
            msg_time = msg_time + timedelta(hours=float(rng.uniform(1.0, 20.0)))
            if self_reviewed:
                author = owner if rng.random() < 0.7 else bots[int(rng.integers(0, 2))]
            else:
                author = reviewers[m % len(reviewers)] if rng.random() < 0.75 else owner
            messages.append({
                "author": _account(*author),
                "date": _fmt(min(msg_time, closed)),
                "message": f"Patch Set 1: comment {m}",
                "_revision_number": 1,
            })
        if reopened:
            messages.append({
                "author": _account(*owner),
                "date": _fmt(created + timedelta(hours=1.0)),
                "message": "Restored\n\nBringing this back.",
                "_revision_number": 1,
            })

        revision_files = dict(files)
        revision_files["/COMMIT_MSG"] = {"lines_inserted": 7, "lines_deleted": 0}
        diff_rng = np.random.default_rng(seed * 100_003 + number)
        diffs = {
            path: _make_diff(diff_rng, info["lines_inserted"], info["lines_deleted"])
            for path, info in files.items()
        }

        doc = {
            "id": f"{_PROJECT.replace('/', '%2F')}~main~I{number:06d}",
            "change_id": f"I{number:06d}",
            "project": _PROJECT,
            "branch": "main",
            "_number": number,
            "status": status,
            "created": _fmt(created),
            "updated": _fmt(closed if status != "NEW" else created),
            "subject": subject,
            "owner": _account(*owner),
            "messages": messages,
            "revisions": {
                f"sha{number:06d}": {
                    "_number": 1,
                    "commit": {
                        "author": {"name": owner[1], "tz": tz},
                        "message": message,
                    },
                    "files": revision_files,
                }
            },
            "_diffs": diffs,
        }
        if status == "MERGED":
            doc["submitted"] = _fmt(closed)
        changes.append(doc)
    return changes


class _FixtureHandler(BaseHTTPRequestHandler):
    server_version = "FixtureGerrit/1.0"
    # keep connections open, as Gerrit does.  The headers and the body go
    # out in two sends, so without TCP_NODELAY Nagle's algorithm holds the
    # body until the client's delayed ACK: ~40 ms per response.
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def log_message(self, fmt, *args):  # quiet test output
        pass

    def setup(self):
        super().setup()
        with self.server.stats_lock:
            self.server.connection_count += 1

    def _send_json(self, payload, status: int = 200) -> None:
        body = b")]}'\n" + json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):  # noqa: N802 - http.server API
        server = self.server  # ThreadingHTTPServer carrying the fixture state
        with server.stats_lock:
            server.request_count += 1
            if server.fail_next > 0:
                server.fail_next -= 1
                self.send_response(503)
                self.send_header("Content-Length", "0")
                self.end_headers()
                return
        parsed = urlparse(self.path)
        params = parse_qs(parsed.query)
        path = parsed.path

        diff = re.fullmatch(r"/changes/(\d+)/revisions/1/files/(.+)/diff", path)
        if path == "/changes/":
            start = int(params.get("start", ["0"])[0])
            limit = int(params.get("n", ["25"])[0])
            page = server.listing[start:start + limit]
            if "o" in params:  # any option: the full document
                docs = [{k: v for k, v in doc.items() if k != "_diffs"}
                        for doc in page]
            else:
                light_keys = ("id", "change_id", "project", "branch", "_number",
                              "status", "created", "updated", "subject")
                docs = [{k: doc[k] for k in light_keys if k in doc} for doc in page]
            if docs and start + limit < len(server.listing):
                docs[-1]["_more_changes"] = True
            self._send_json(docs)
        elif diff:
            number = int(diff.group(1))
            file_path = unquote(diff.group(2))
            doc = server.by_number.get(number)
            diffs = doc.get("_diffs", {}) if doc else {}
            if file_path not in diffs:
                self.send_response(404)
                self.send_header("Content-Length", "0")
                self.end_headers()
                return
            self._send_json(diffs[file_path])
        else:
            self.send_response(404)
            self.send_header("Content-Length", "0")
            self.end_headers()


class FixtureGerritServer:
    """Threaded HTTP server that answers Gerrit-style change queries."""

    def __init__(self, changes: list[dict], port: int = 0):
        self._httpd = ThreadingHTTPServer(("127.0.0.1", port), _FixtureHandler)
        self._httpd.listing = sorted(changes, key=lambda d: d["created"])
        self._httpd.by_number = {d["_number"]: d for d in changes}
        self._httpd.stats_lock = threading.Lock()
        self._httpd.request_count = 0
        self._httpd.connection_count = 0
        self._httpd.fail_next = 0  # inject this many 503 responses
        self._thread: threading.Thread | None = None

    @property
    def base_url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    @property
    def request_count(self) -> int:
        with self._httpd.stats_lock:
            return self._httpd.request_count

    @property
    def connection_count(self) -> int:
        """Connections accepted so far."""
        with self._httpd.stats_lock:
            return self._httpd.connection_count

    def set_fail_next(self, count: int) -> None:
        with self._httpd.stats_lock:
            self._httpd.fail_next = count

    def __enter__(self) -> "FixtureGerritServer":
        # shutdown() waits for serve_forever's next poll (0.5 s by default)
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        kwargs={"poll_interval": 0.05}, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
