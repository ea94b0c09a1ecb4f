"""Transport parsing, normalization, and crawl behaviour against the fixture server."""

from __future__ import annotations

import base64
import json
import os
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np
import pytest
import requests
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
from reviewtime.gerrit_fixture import _make_diff


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


def make_diff_per_line(rng, inserted, deleted):
    """The fixture's diff generator as first written, one hunk draw per line."""
    content = [{"ab": ["ctx"] * int(rng.integers(1, 5))}]
    hunks = int(rng.integers(1, 4))
    ins_split = np.zeros(hunks, dtype=int)
    del_split = np.zeros(hunks, dtype=int)
    for _ in range(inserted):
        ins_split[rng.integers(0, hunks)] += 1
    for _ in range(deleted):
        del_split[rng.integers(0, hunks)] += 1
    for h in range(hunks):
        block = {}
        if del_split[h]:
            block["a"] = ["old"] * int(del_split[h])
        if ins_split[h]:
            block["b"] = ["new"] * int(ins_split[h])
        if block:
            content.append(block)
            content.append({"ab": ["ctx"] * int(rng.integers(1, 5))})
    return {"content": content}


class TestFixtureDiffs:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_a_draw_per_line(self, seed):
        """Drawing every line's hunk in one call leaves the diffs and the
        generator's stream as a draw per line left them."""
        counts = np.random.default_rng(seed).integers(0, 300, size=(6, 2))
        fast, slow = np.random.default_rng(seed + 1000), np.random.default_rng(seed + 1000)
        for inserted, deleted in [(0, 0), (1, 0), (0, 1), *counts.tolist()]:
            assert _make_diff(fast, inserted, deleted) \
                == make_diff_per_line(slow, inserted, deleted)
            assert fast.bit_generator.state == slow.bit_generator.state


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
        # the listing asks for the detail options, so it carries full documents
        config = make_config(fixture_server.base_url, fetch_file_diffs=True)
        client = GerritClient(config)
        page, _ = client.fetch_change_page(0)
        doc = page[4].data
        assert "revisions" in doc and "messages" in doc
        assert "_diffs" not in doc and "_file_diffs" not in doc
        raw = client.fetch_change_detail(doc)
        files = next(iter(doc["revisions"].values()))["files"]
        assert set(raw.data["_file_diffs"]) == set(files) - {"/COMMIT_MSG"}

    def test_unknown_number_not_found(self, fixture_server):
        # the per-number detail route is gone: the listing carries the details
        client = GerritClient(make_config(fixture_server.base_url))
        with pytest.raises(NotFoundError):
            client._get("/changes/5/detail")
        with pytest.raises(NotFoundError):
            client._get("/changes/99999/revisions/1/files/a.c/diff")

    def test_listing_without_options_is_light(self, fixture_server):
        client = GerritClient(make_config(fixture_server.base_url))
        docs = client._get("/changes/", params={"n": 3})
        assert [sorted(doc) for doc in docs[:2]] == [[
            "_number", "branch", "change_id", "created", "id", "project",
            "status", "subject", "updated"]] * 2

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

    def test_kept_alive_requests_do_not_wait_for_delayed_ack(self, fixture_server):
        # with Nagle's algorithm on, the fixture's second send (the body)
        # waits for the client's delayed ACK: ~40 ms per response
        client = GerritClient(make_config(fixture_server.base_url, page_size=1))
        durations = []
        for offset in range(12):
            start = time.perf_counter()
            client.fetch_change_page(offset)
            durations.append(time.perf_counter() - start)
        client.close()
        assert fixture_server.connection_count == 1
        assert sorted(durations)[6] < 0.020

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

    def test_resume_with_nothing_new_keeps_the_manifest(self, fixture_server,
                                                        tmp_path):
        out = tmp_path / "changes.jsonl"
        config = make_config(fixture_server.base_url, page_size=10)
        first = crawl_project(config, out)
        assert first.project == "fixture/project"
        assert crawl_project(config, out) == first == ds.read_manifest(out)

    def test_resume_with_diffs_keeps_a_diffless_start_unclaimed(self, fixture_server,
                                                                tmp_path):
        out = tmp_path / "changes.jsonl"
        fresh = make_config(fixture_server.base_url, page_size=10, max_changes=7,
                            fetch_file_diffs=True)
        assert crawl_project(fresh, tmp_path / "fresh" / "changes.jsonl") \
            .segments_from_diff is True
        crawl_project(replace(fresh, fetch_file_diffs=False), out)
        resumed = crawl_project(replace(fresh, max_changes=20), out)
        assert resumed.count == 20
        assert resumed.segments_from_diff is False
        assert ds.read_manifest(out).segments_from_diff is False

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

    def test_one_request_per_listing_page_and_per_file(self, fixture_server,
                                                       fixture_corpus, tmp_path):
        out = tmp_path / "changes.jsonl"
        config = make_config(fixture_server.base_url, page_size=10,
                             fetch_file_diffs=True)
        crawl_project(config, out)
        files = sum(len(doc["_diffs"]) for doc in fixture_corpus)  # no pseudo files
        assert fixture_server.request_count == 3 + files
        records, _ = ds.read_dataset(out)
        assert records == [
            normalize_change(as_raw({**doc, "_file_diffs": doc["_diffs"]}), config)
            for doc in sorted(fixture_corpus, key=lambda d: d["created"])]

    def test_resume_fetches_diffs_of_unseen_changes_only(self, fixture_server,
                                                         fixture_corpus, tmp_path):
        out = tmp_path / "changes.jsonl"
        partial = make_config(fixture_server.base_url, page_size=10, max_changes=7,
                              fetch_file_diffs=True)
        crawl_project(partial, out)
        before = fixture_server.request_count
        crawl_project(replace(partial, max_changes=None), out)
        listing = sorted(fixture_corpus, key=lambda d: d["created"])
        unseen_files = sum(len(doc["_diffs"]) for doc in listing[7:])
        assert fixture_server.request_count - before == 3 + unseen_files

    def test_crawl_reuses_one_connection_through_a_retry(self, fixture_server,
                                                         tmp_path):
        config = make_config(fixture_server.base_url, page_size=10,
                             fetch_file_diffs=True, max_retries=1)
        fixture_server.set_fail_next(1)
        crawl_project(config, tmp_path / "c.jsonl", jobs=1)
        assert fixture_server.request_count > 25
        assert fixture_server.connection_count == 1

    @pytest.mark.parametrize("fail", [0, 1])
    def test_crawl_closes_its_session(self, fixture_server, tmp_path,
                                      monkeypatch, fail):
        closed = []
        session_close = requests.Session.close
        monkeypatch.setattr(requests.Session, "close",
                            lambda session: (closed.append(session),
                                             session_close(session)))
        fixture_server.set_fail_next(fail)
        config = make_config(fixture_server.base_url, page_size=10)
        with pytest.raises(HttpError) if fail else nullcontext():
            crawl_project(config, tmp_path / "c.jsonl")
        assert len(closed) == 1

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

    def test_parallel_crawl_keeps_one_connection_per_job(self, tmp_path):
        from reviewtime.gerrit_fixture import FixtureGerritServer, generate_corpus

        with FixtureGerritServer(generate_corpus(100, seed=1)) as server:
            config = make_config(server.base_url, page_size=50,
                                 fetch_file_diffs=True)
            manifest = crawl_project(config, tmp_path / "c.jsonl", jobs=16)
            assert manifest.count == 100
            assert server.connection_count <= 16

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


def basic_auth(user, password):
    return "Basic " + base64.b64encode(f"{user}:{password}".encode()).decode()


@pytest.fixture()
def sent(monkeypatch):
    """Record each request's auth header, proxies and verify setting as sent."""
    calls = []
    adapter_send = requests.adapters.HTTPAdapter.send

    def send(adapter, request, **kwargs):
        calls.append((request.headers.get("Authorization"),
                      kwargs["proxies"].get("http"), kwargs["verify"]))
        return adapter_send(adapter, request, **kwargs)

    monkeypatch.setattr(requests.adapters.HTTPAdapter, "send", send)
    for name in list(os.environ):
        if name.lower().endswith("_proxy") or name in (
                "NETRC", "REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE",
                "GERRIT_HTTP_USER", "GERRIT_HTTP_PASSWORD"):
            monkeypatch.delenv(name)
    return calls


@pytest.fixture()
def lookups(monkeypatch):
    """Count environment lookups, wherever requests would make them."""
    counts = Counter()
    for name in ("get_environ_proxies", "get_netrc_auth"):
        original = getattr(requests.utils, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in (requests.utils, requests.sessions):
            monkeypatch.setattr(module, name, counted)
    return counts


class TestClientEnvironment:
    def test_proxy_netrc_and_ca_bundle_are_read_once(
            self, fixture_server, tmp_path, monkeypatch, sent, lookups):
        netrc = tmp_path / "netrc"
        netrc.write_text("machine 127.0.0.1 login netrc-user password netrc-pw\n")
        netrc.chmod(0o600)
        bundle = tmp_path / "ca.pem"
        bundle.write_text("")
        monkeypatch.setenv("NETRC", str(netrc))
        monkeypatch.setenv("REQUESTS_CA_BUNDLE", str(bundle))
        # nothing listens on port 1: only the proxy, the fixture, can answer
        monkeypatch.setenv("HTTP_PROXY", fixture_server.base_url)
        client = GerritClient(make_config("http://127.0.0.1:1", page_size=5))
        for name in ("NETRC", "REQUESTS_CA_BUNDLE", "HTTP_PROXY"):
            monkeypatch.delenv(name)
        for offset in (0, 5, 10):
            page, _ = client.fetch_change_page(offset)
            assert len(page) == 5
        assert lookups == {"get_environ_proxies": 1, "get_netrc_auth": 1}
        assert sent == [(basic_auth("netrc-user", "netrc-pw"),
                         fixture_server.base_url, str(bundle))] * 3

    def test_no_proxy_and_gerrit_credentials_win(
            self, fixture_server, tmp_path, monkeypatch, sent, lookups):
        netrc = tmp_path / "netrc"
        netrc.write_text("machine 127.0.0.1 login netrc-user password netrc-pw\n")
        netrc.chmod(0o600)
        monkeypatch.setenv("NETRC", str(netrc))
        monkeypatch.setenv("CURL_CA_BUNDLE", str(tmp_path / "curl.pem"))
        monkeypatch.setenv("HTTP_PROXY", "http://127.0.0.1:1")
        monkeypatch.setenv("NO_PROXY", "127.0.0.1")
        monkeypatch.setenv("GERRIT_HTTP_USER", "gerrit-user")
        monkeypatch.setenv("GERRIT_HTTP_PASSWORD", "gerrit-pw")
        client = GerritClient(make_config(fixture_server.base_url, page_size=5))
        client.fetch_change_page(0)
        client.fetch_change_page(5)
        assert lookups == {"get_environ_proxies": 1}
        assert sent == [(basic_auth("gerrit-user", "gerrit-pw"), None,
                         str(tmp_path / "curl.pem"))] * 2
