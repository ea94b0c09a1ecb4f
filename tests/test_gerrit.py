"""Transport parsing, normalization, and crawl behaviour against the fixture server."""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from datetime import datetime, timezone

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reviewtime import dataset as ds
from reviewtime.errors import (
    HttpError,
    MalformedJsonError,
    NotFoundError,
    SchemaError,
)
from reviewtime.gerrit import (
    ChangeStatus,
    CrawlConfig,
    GerritClient,
    RawChange,
    crawl_project,
    normalize_change,
    parse_diff_segments,
    parse_gerrit_json,
    parse_gerrit_timestamp,
)


def make_config(base_url="http://localhost:1", **kwargs):
    kwargs.setdefault("max_retries", 0)
    kwargs.setdefault("fetch_file_diffs", False)
    return CrawlConfig(base_url=base_url, **kwargs)


class TestParseGerritJson:
    def test_guard_stripped(self):
        assert parse_gerrit_json(b")]}'\n[]") == []

    def test_guard_optional(self):
        assert parse_gerrit_json(b"[]") == []

    def test_object_roundtrip(self):
        assert parse_gerrit_json(b")]}'\n{\"_number\":42}") == {"_number": 42}

    def test_malformed(self):
        with pytest.raises(MalformedJsonError):
            parse_gerrit_json(b")]}'\n{nope")

    @given(st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(),
        lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
        max_leaves=10,
    ))
    def test_guard_prefix_is_identity(self, value):
        body = json.dumps(value).encode()
        assert parse_gerrit_json(b")]}'\n" + body) == parse_gerrit_json(body)


class TestTimestamps:
    def test_nanoseconds_truncated(self):
        dt = parse_gerrit_timestamp("2021-04-27 10:00:00.123456789")
        assert dt == datetime(2021, 4, 27, 10, 0, 0, 123456, tzinfo=timezone.utc)

    def test_no_fraction(self):
        dt = parse_gerrit_timestamp("2021-04-27 10:00:00")
        assert dt.microsecond == 0


def detail_doc(number=101, status="MERGED", files=None, messages=None, tz=60):
    files = files if files is not None else {
        "a.c": {"lines_inserted": 10, "lines_deleted": 2},
        "b/y.h": {"lines_inserted": 0, "lines_deleted": 5},
    }
    return {
        "id": "p~main~I1",
        "change_id": f"I{number:06d}",
        "project": "p",
        "branch": "main",
        "_number": number,
        "status": status,
        "created": "2021-04-27 10:00:00.000000000",
        "updated": "2021-04-29 10:00:00.000000000",
        "submitted": "2021-04-29 10:00:00.000000000",
        "subject": "Fix crash",
        "owner": {"_account_id": 100, "name": "dev-a"},
        "messages": messages if messages is not None else [],
        "revisions": {
            "sha1": {
                "_number": 1,
                "commit": {"author": {"name": "dev-a", "tz": tz},
                           "message": "Fix crash\n\nBody."},
                "files": files,
            }
        },
    }


def as_raw(doc):
    return RawChange(data=doc, fetched_at=datetime.now(timezone.utc))


class TestNormalizeChange:
    def test_created_is_utc_identity(self):
        record = normalize_change(as_raw(detail_doc()), make_config())
        assert record.created_at == datetime(2021, 4, 27, 10, 0, tzinfo=timezone.utc)
        assert record.status is ChangeStatus.MERGED
        assert record.closed_at == datetime(2021, 4, 29, 10, 0, tzinfo=timezone.utc)

    def test_restore_message_marks_reopened(self):
        doc = detail_doc(messages=[{
            "author": {"_account_id": 101, "name": "dev-b"},
            "date": "2021-04-28 09:00:00.000000000",
            "message": "Restored\n\nBack again.",
        }])
        record = normalize_change(as_raw(doc), make_config())
        assert record.reopened is True

    def test_pseudo_files_excluded(self):
        doc = detail_doc(files={
            "/COMMIT_MSG": {"lines_inserted": 5, "lines_deleted": 0},
            "a.c": {"lines_inserted": 3, "lines_deleted": 1},
        })
        record = normalize_change(as_raw(doc), make_config())
        assert [f.path for f in record.files] == ["a.c"]
        assert record.insertions_total == 3
        assert record.deletions_total == 1

    def test_missing_tz_flags_record(self):
        doc = detail_doc()
        del doc["revisions"]["sha1"]["commit"]["author"]["tz"]
        record = normalize_change(as_raw(doc), make_config())
        assert record.owner_tz_offset_minutes == 0
        assert record.tz_offset_missing is True

    def test_bot_messages_marked(self):
        doc = detail_doc(messages=[
            {"author": {"_account_id": 900, "name": "Jenkins Build"},
             "date": "2021-04-28 09:00:00.000000000", "message": "Build OK"},
            {"author": {"_account_id": 101, "name": "dev-b"},
             "date": "2021-04-28 10:00:00.000000000", "message": "LGTM"},
        ])
        record = normalize_change(as_raw(doc), make_config())
        assert [m.from_bot for m in record.messages] == [True, False]

    def test_missing_key_raises_schema_error(self):
        doc = detail_doc()
        del doc["owner"]
        with pytest.raises(SchemaError, match="owner"):
            normalize_change(as_raw(doc), make_config())

    def test_raw_change_requires_mandatory_keys(self):
        with pytest.raises(SchemaError, match="_number"):
            as_raw({"status": "NEW", "created": "2021-01-01 00:00:00"})


class TestDiffSegments:
    def test_classification(self):
        doc = {"content": [
            {"ab": ["ctx"]},
            {"b": ["ins"]},              # added
            {"ab": ["ctx"]},
            {"a": ["del"], "b": ["new"]},  # modified
            {"a": ["del"]},              # deleted
        ]}
        assert parse_diff_segments(doc) == (1, 1, 1)

    def test_empty(self):
        assert parse_diff_segments({"content": [{"ab": ["x"]}]}) == (0, 0, 0)


class TestFetch:
    def test_page_smaller_than_corpus(self, fixture_server):
        config = make_config(fixture_server.base_url, page_size=10)
        page, more = GerritClient(config).fetch_change_page(0)
        assert len(page) == 10 and more is True

    def test_last_page(self, fixture_server):
        config = make_config(fixture_server.base_url, page_size=10)
        page, more = GerritClient(config).fetch_change_page(20)
        assert len(page) == 5 and more is False

    def test_offset_beyond_corpus(self, fixture_server):
        config = make_config(fixture_server.base_url, page_size=10)
        page, more = GerritClient(config).fetch_change_page(400)
        assert page == [] and more is False

    def test_whole_corpus_one_page(self, fixture_server):
        config = make_config(fixture_server.base_url, page_size=50)
        page, more = GerritClient(config).fetch_change_page(0)
        assert len(page) == 25 and more is False

    def test_detail_has_files_and_messages(self, fixture_server):
        config = make_config(fixture_server.base_url)
        raw = GerritClient(config).fetch_change_detail(5)
        assert "revisions" in raw.data and "messages" in raw.data

    def test_unknown_number_not_found(self, fixture_server):
        config = make_config(fixture_server.base_url)
        with pytest.raises(NotFoundError):
            GerritClient(config).fetch_change_detail(99999)

    def test_retry_then_success(self, fixture_server):
        config = make_config(fixture_server.base_url, max_retries=2)
        fixture_server.set_fail_next(2)
        page, _ = GerritClient(config).fetch_change_page(0)
        assert len(page) > 0

    def test_retries_exhausted(self, fixture_server):
        config = make_config(fixture_server.base_url, max_retries=1)
        fixture_server.set_fail_next(5)
        with pytest.raises(HttpError):
            GerritClient(config).fetch_change_page(0)

    def test_request_pacing(self, fixture_server):
        config = make_config(fixture_server.base_url, page_size=5,
                             min_request_interval_ms=40)
        client = GerritClient(config)
        for offset in (0, 5, 10, 15):
            client.fetch_change_page(offset)
        gaps = [b - a for a, b in zip(client.request_log, client.request_log[1:])]
        assert all(gap >= 0.040 - 1e-6 for gap in gaps)


class TestCrawl:
    def test_full_crawl_counts(self, fixture_server, tmp_path):
        config = make_config(fixture_server.base_url, page_size=10)
        manifest = crawl_project(config, tmp_path / "changes.jsonl")
        assert manifest.count == 25 and manifest.complete is True
        records, _ = ds.read_dataset(tmp_path / "changes.jsonl")
        assert len(records) == 25

    def test_max_changes_bound(self, fixture_server, tmp_path):
        config = make_config(fixture_server.base_url, page_size=10, max_changes=10)
        manifest = crawl_project(config, tmp_path / "changes.jsonl")
        assert manifest.count == 10

    def test_resume_without_duplicates(self, fixture_server, tmp_path):
        out = tmp_path / "changes.jsonl"
        partial = make_config(fixture_server.base_url, page_size=10, max_changes=7)
        manifest = crawl_project(partial, out)
        assert manifest.count == 7 and manifest.complete is True
        full = make_config(fixture_server.base_url, page_size=10)
        manifest = crawl_project(full, out)
        assert manifest.count == 25
        records, _ = ds.read_dataset(out)
        numbers = [r.number for r in records]
        assert len(numbers) == len(set(numbers)) == 25

    def test_interrupted_crawl_leaves_valid_partial(self, fixture_server, tmp_path):
        out = tmp_path / "changes.jsonl"
        config = make_config(fixture_server.base_url, page_size=10, max_retries=0)
        # crawl part of the corpus, then kill a rerun with an injected failure
        done = crawl_project(make_config(fixture_server.base_url, page_size=10,
                                         max_changes=12), out)
        assert done.count == 12
        fixture_server.set_fail_next(1)
        with pytest.raises(HttpError):
            crawl_project(config, out)
        manifest = ds.read_manifest(out)
        assert manifest.complete is False
        assert manifest.count >= 12
        records, _ = ds.read_dataset(out)
        numbers = [r.number for r in records]
        assert len(numbers) == len(set(numbers))
        # resume to completion
        final = crawl_project(make_config(fixture_server.base_url, page_size=10), out)
        assert final.count == 25 and final.complete is True

    def test_crawled_records_satisfy_closure_invariant(self, fixture_server, tmp_path):
        config = make_config(fixture_server.base_url, page_size=10)
        crawl_project(config, tmp_path / "c.jsonl")
        records, _ = ds.read_dataset(tmp_path / "c.jsonl")
        for r in records:
            if r.status in (ChangeStatus.MERGED, ChangeStatus.ABANDONED):
                assert r.closed_at is not None and r.closed_at >= r.created_at

    def test_concurrent_detail_fetches(self, fixture_server, tmp_path):
        config = make_config(fixture_server.base_url, page_size=10)
        manifest = crawl_project(config, tmp_path / "c.jsonl", jobs=4)
        assert manifest.count == 25
        records, _ = ds.read_dataset(tmp_path / "c.jsonl")
        assert len({r.number for r in records}) == 25

    def test_parallel_crawl_writes_before_listing_ends(self, tmp_path, monkeypatch):
        from reviewtime.gerrit_fixture import FixtureGerritServer, generate_corpus

        events = []
        list_page = GerritClient.fetch_change_page
        appender = ds.dataset_appender

        def logged_list_page(client, offset):
            events.append("list")
            return list_page(client, offset)

        @contextmanager
        def logged_appender(path):
            with appender(path) as append:
                yield lambda record: (events.append("write"), append(record))

        monkeypatch.setattr(GerritClient, "fetch_change_page", logged_list_page)
        monkeypatch.setattr(ds, "dataset_appender", logged_appender)
        with FixtureGerritServer(generate_corpus(60, seed=1)) as server:
            config = make_config(server.base_url, page_size=10)
            manifest = crawl_project(config, tmp_path / "c.jsonl", jobs=2)
        assert manifest.count == 60 and events.count("list") >= 6
        last_list = len(events) - 1 - events[::-1].index("list")
        assert events.index("write") < last_list
