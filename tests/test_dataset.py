"""Target variable, filter rules, persistence round-trips, chronological sort."""

from __future__ import annotations

import json
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reviewtime import collab
from reviewtime import dataset as ds
from reviewtime.errors import NotCompletedError, SchemaError
from reviewtime.features import PriorHistory
from reviewtime.gerrit import (ChangeRecord, ChangeStatus, CrawlConfig, FileDiff,
                               RawChange, ReviewMessage, normalize_change)
from reviewtime.gerrit_fixture import generate_corpus

from conftest import BASE_TIME, make_message, make_record


class TestCompletionTime:
    def test_arithmetic(self):
        record = make_record(duration_hours=36.0)
        assert ds.completion_time_hours(record) == 36.0

    def test_zero_duration(self):
        record = make_record(duration_hours=0.0)
        assert ds.completion_time_hours(record) == 0.0

    def test_new_change_raises(self):
        record = make_record(duration_hours=None)
        with pytest.raises(NotCompletedError):
            ds.completion_time_hours(record)


class TestSelfReviewed:
    def test_only_owner_messages(self):
        record = make_record(messages=(make_message(100),), owner=100)
        assert ds.is_self_reviewed(record) is True

    def test_one_reviewer_message(self):
        record = make_record(messages=(make_message(101),), owner=100)
        assert ds.is_self_reviewed(record) is False

    def test_owner_plus_bot_only(self):
        record = make_record(owner=100, messages=(
            make_message(100),
            make_message(900, name="Jenkins Build", from_bot=True),
        ))
        assert ds.is_self_reviewed(record) is True

    def test_no_messages(self):
        record = make_record(messages=())
        assert ds.is_self_reviewed(record) is True


@pytest.mark.parametrize("seed", range(4))
def test_filter_graph_and_history_agree_on_participants(seed):
    """The self-review filter, the interaction graph and the history index
    see the same people take part in each crawled change."""
    config = CrawlConfig(base_url="http://fixture.invalid")
    records = [normalize_change(RawChange(doc, BASE_TIME), config)
               for doc in generate_corpus(200, seed=seed)]
    closed = [r for r in records if r.closed_at is not None]
    history = PriorHistory(closed)
    indexed = [set() for _ in closed]
    for participant, positions in history.by_participant.items():
        for position in positions:
            indexed[position].add(participant)
    assert any(ds.is_self_reviewed(r) for r in closed)
    assert any(any(m.from_bot for m in r.messages) for r in closed)
    for record, participants in zip(closed, indexed):
        graph = collab.build_graph([record], record.created_at + timedelta(seconds=1))
        in_graph = graph.nodes - {record.owner_id}
        assert participants == in_graph == set(record.participants)
        assert ds.is_self_reviewed(record) == (not graph.nodes)


def boundary_records():
    """Twelve records hitting every filter rule and boundary."""
    second = 1.0 / 3600.0
    return [
        make_record(1, duration_hours=None),                       # incomplete (NEW)
        make_record(2, duration_hours=100.0, reopened=True),       # reopened
        make_record(3, duration_hours=100.0,
                    messages=(make_message(100),)),                # self (owner only)
        make_record(4, duration_hours=100.0, messages=(
            make_message(100), make_message(900, name="CI runner", from_bot=True),
        )),                                                        # self (owner + bot)
        make_record(5, duration_hours=24.0),                       # short: exactly 24h
        make_record(6, duration_hours=10.0),                       # short
        make_record(7, duration_hours=24.0 + second),              # kept: 24h + 1s
        make_record(8, duration_hours=504.0),                      # kept: exactly 504h
        make_record(9, duration_hours=504.0 + second),             # long: 504h + 1s
        make_record(10, duration_hours=600.0),                     # long
        make_record(11, duration_hours=100.0),                     # kept
        make_record(12, duration_hours=48.0),                      # kept
    ]


class TestApplyFilters:
    def test_boundary_report(self):
        kept, report = ds.apply_filters(boundary_records(), ds.FilterPolicy())
        assert report == ds.FilterReport(
            kept=4, dropped_reopened=1, dropped_self=2, dropped_short=2,
            dropped_long=2, dropped_incomplete=1,
        )
        assert {r.number for r in kept} == {7, 8, 11, 12}

    def test_counts_sum_to_input(self):
        records = boundary_records()
        _, report = ds.apply_filters(records, ds.FilterPolicy())
        assert report.total == len(records)

    def test_short_drop(self):
        _, report = ds.apply_filters([make_record(duration_hours=10.0)],
                                     ds.FilterPolicy())
        assert report.dropped_short == 1

    def test_long_drop(self):
        _, report = ds.apply_filters([make_record(duration_hours=600.0)],
                                     ds.FilterPolicy())
        assert report.dropped_long == 1

    def test_normal_kept(self):
        kept, _ = ds.apply_filters([make_record(duration_hours=100.0)],
                                   ds.FilterPolicy())
        assert len(kept) == 1

    def test_first_matching_rule_wins(self):
        # reopened AND short counts as reopened only
        record = make_record(duration_hours=5.0, reopened=True)
        _, report = ds.apply_filters([record], ds.FilterPolicy())
        assert report.dropped_reopened == 1 and report.dropped_short == 0

    def test_idempotent(self):
        kept, _ = ds.apply_filters(boundary_records(), ds.FilterPolicy())
        again, report = ds.apply_filters(kept, ds.FilterPolicy())
        assert again == kept
        assert report.kept == len(kept) and report.total == len(kept)

    def test_policy_toggles(self):
        policy = ds.FilterPolicy(drop_reopened=False, drop_self_reviewed=False)
        kept, report = ds.apply_filters(boundary_records(), policy)
        assert report.dropped_reopened == 0 and report.dropped_self == 0
        assert {r.number for r in kept} >= {2, 3, 4}

    def test_kept_records_satisfy_rules(self):
        policy = ds.FilterPolicy()
        kept, _ = ds.apply_filters(boundary_records(), policy)
        for r in kept:
            duration = ds.completion_time_hours(r)
            assert policy.min_hours < duration <= policy.max_hours
            assert not r.reopened
            assert not ds.is_self_reviewed(r)

    def test_policy_invariant(self):
        with pytest.raises(ValueError):
            ds.FilterPolicy(min_hours=100, max_hours=10)


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        records = [make_record(i, duration_hours=30.0 + i) for i in range(1, 4)]
        manifest = ds.write_dataset(records, tmp_path / "d.jsonl", query="q")
        assert manifest.count == 3
        lines = (tmp_path / "d.jsonl").read_text().strip().splitlines()
        assert len(lines) == 3
        loaded, manifest2 = ds.read_dataset(tmp_path / "d.jsonl")
        assert loaded == records
        assert manifest2.count == 3 and manifest2.crawl_query == "q"

    def test_empty_dataset(self, tmp_path):
        manifest = ds.write_dataset([], tmp_path / "d.jsonl")
        assert manifest.count == 0
        loaded, _ = ds.read_dataset(tmp_path / "d.jsonl")
        assert loaded == []

    def test_corrupted_line_names_lineno(self, tmp_path):
        records = [make_record(1), make_record(2)]
        ds.write_dataset(records, tmp_path / "d.jsonl")
        data = (tmp_path / "d.jsonl").read_text().splitlines()
        data[1] = "{broken"
        (tmp_path / "d.jsonl").write_text("\n".join(data) + "\n")
        with pytest.raises(SchemaError, match="line 2"):
            ds.read_dataset(tmp_path / "d.jsonl")

    def test_version_mismatch(self, tmp_path):
        ds.write_dataset([make_record(1)], tmp_path / "d.jsonl")
        manifest_file = tmp_path / "manifest.json"
        manifest_file.write_text(
            manifest_file.read_text().replace('"schema_version": "1"',
                                              '"schema_version": "99"'))
        with pytest.raises(SchemaError, match="version"):
            ds.read_dataset(tmp_path / "d.jsonl")

    @pytest.mark.parametrize("text", [
        "{broken", "[]", '{"schema_version": "1"}',
    ], ids=["bad-json", "not-an-object", "missing-keys"])
    def test_malformed_manifest_names_the_file(self, tmp_path, text):
        ds.write_dataset([make_record(1)], tmp_path / "d.jsonl")
        (tmp_path / "manifest.json").write_text(text)
        with pytest.raises(SchemaError, match="manifest.json"):
            ds.read_dataset(tmp_path / "d.jsonl")

    def test_manifest_without_segments_flag_loads(self, tmp_path):
        written = ds.write_dataset([make_record(1)], tmp_path / "d.jsonl",
                                   project="p", filter_policy=ds.FilterPolicy())
        manifest_file = tmp_path / "manifest.json"
        doc = json.loads(manifest_file.read_text())
        del doc["segments_from_diff"]
        manifest_file.write_text(json.dumps(doc))
        assert ds.read_manifest(tmp_path / "d.jsonl") == written

    def test_statuses_roundtrip(self, tmp_path):
        records = [
            make_record(1, duration_hours=40.0, status=ChangeStatus.MERGED),
            make_record(2, duration_hours=40.0, status=ChangeStatus.ABANDONED),
            make_record(3, duration_hours=None),
            make_record(4, duration_hours=40.0,
                        files=(FileDiff("a.c", 1, 2, segments=(1, 0, 1)),)),
        ]
        ds.write_dataset(records, tmp_path / "d.jsonl")
        loaded, _ = ds.read_dataset(tmp_path / "d.jsonl")
        assert loaded == records


class TestTimestamps:
    def test_round_trip_to_the_microsecond(self):
        stamp = BASE_TIME + timedelta(microseconds=123_456)
        text = ds.format_timestamp(stamp)
        assert text == "2021-04-26T10:00:00.123456Z"
        assert ds.parse_timestamp(text) == stamp
        assert ds.parse_timestamp(text).tzinfo is not None

    @pytest.mark.parametrize("value", [
        "2019-3-4T5:6:7.1Z",
        "2019-03-04T05:06:07.100000",
        "2019-03-04T05:06:07.100000+00:00",
        "2019-03-04 05:06:07.100000Z",
        "2019-03-04T05:06:07Z",
        "2019-13-04T05:06:07.100000Z",
        "２０１９-03-04T05:06:07.100000Z",
        20190304,
    ])
    def test_other_shapes_are_rejected(self, value):
        with pytest.raises(ValueError):
            ds.parse_timestamp(value)


def rewrite_second_record(path, edit):
    lines = path.read_text(encoding="utf-8").splitlines()
    doc = json.loads(lines[1])
    edit(doc)
    path.write_text(lines[0] + "\n" + json.dumps(doc) + "\n", encoding="utf-8")


class TestRecordTypes:
    @pytest.mark.parametrize("part, field, value", [
        (None, "number", "2"),
        (None, "owner_id", "100"),
        (None, "owner_id", 100.0),
        (None, "owner_tz_offset_minutes", True),
        ("files", "lines_inserted", 1.5),
        ("files", "lines_deleted", "2"),
        ("messages", "author_id", "101"),
    ])
    def test_wrong_type_names_field_and_line(self, tmp_path, part, field, value):
        path = tmp_path / "d.jsonl"
        ds.write_dataset([make_record(1), make_record(2)], path)
        rewrite_second_record(
            path, lambda doc: (doc[part][0] if part else doc).update({field: value}))
        with pytest.raises(SchemaError, match=f"line 2: {field} must be an integer"):
            ds.read_dataset(path)

    def test_short_timestamp_names_the_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        ds.write_dataset([make_record(1), make_record(2)], path)
        rewrite_second_record(
            path, lambda d: d["messages"][0].update(posted_at="2021-4-26T11:0:0.1Z"))
        with pytest.raises(SchemaError, match="line 2: timestamp"):
            ds.read_dataset(path)


@pytest.mark.parametrize("part, field, value", [
    (None, "reopened", "no"),
    ("messages", "from_bot", "false"),
    (None, "owner_name", 7),
    ("messages", "text", None),
    ("messages", "revision_number", "1"),
    ("files", "segments", [1, "x", 0]),
    ("files", "segments", [1, 2]),
])
def test_every_record_field_is_type_checked(tmp_path, part, field, value):
    path = tmp_path / "d.jsonl"
    ds.write_dataset([make_record(1), make_record(2)], path)
    rewrite_second_record(
        path, lambda doc: (doc[part][0] if part else doc).update({field: value}))
    with pytest.raises(SchemaError, match=f"line 2: {field} must be"):
        ds.read_dataset(path)


LAYOUT_DIR = Path(__file__).parent / "data" / "dataset"
LAYOUT_POLICY = ds.FilterPolicy(min_hours=12.5, drop_reopened=False)


def layout_record() -> ChangeRecord:
    """A record that sets every field, as the files in ``data/dataset`` hold it."""
    created = BASE_TIME + timedelta(microseconds=123_456)
    return ChangeRecord(
        change_id="I0123456789abcdef", number=4242, project="platform/core",
        branch="stable/2.1", status=ChangeStatus.MERGED, created_at=created,
        closed_at=created + timedelta(hours=49, microseconds=7),
        owner_id=100, owner_name="Zoë Owner", owner_tz_offset_minutes=0,
        subject="Fix crash in parser ✓",
        message_body='Fix crash\n\nDetails "quoted".',
        files=(FileDiff("core/parser.c", 12, 3, segments=(2, 1, 1)),
               FileDiff("docs/README", 1, 0)),
        messages=(ReviewMessage(101, "Rev Iewer", created + timedelta(hours=3),
                                "Patch Set 1: Code-Review+2", revision_number=1),
                  ReviewMessage(900, "Jenkins CI", created + timedelta(hours=4),
                                "Build Successful", from_bot=True)),
        reopened=True, insertions_total=13, deletions_total=3,
        tz_offset_missing=True)


class TestFileLayout:
    """The bytes of a dataset line and its manifest, pinned by committed files."""

    def test_write_reproduces_the_pinned_bytes(self, tmp_path):
        ds.write_dataset([layout_record()], tmp_path / "changes.jsonl",
                         project="platform/core", query="status:merged",
                         filter_policy=LAYOUT_POLICY, segments_from_diff=True)
        assert (tmp_path / "changes.jsonl").read_bytes() \
            == (LAYOUT_DIR / "changes.jsonl").read_bytes()

        def without_created_at(path):
            return [line for line in path.read_bytes().splitlines(keepends=True)
                    if not line.startswith(b'  "created_at": ')]
        assert without_created_at(tmp_path / "manifest.json") \
            == without_created_at(LAYOUT_DIR / "manifest.json")

    def test_read_gives_the_record_back(self):
        records, manifest = ds.read_dataset(LAYOUT_DIR / "changes.jsonl")
        assert records == [layout_record()]
        assert manifest == ds.DatasetManifest(
            project="platform/core", crawl_query="status:merged",
            created_at=manifest.created_at, count=1, filter_policy=LAYOUT_POLICY,
            segments_from_diff=True)


class TestSort:
    def test_idempotent_on_sorted(self):
        records = [make_record(i, created=BASE_TIME + timedelta(hours=i))
                   for i in range(5)]
        assert ds.sort_by_creation(records) == records

    def test_reversed(self):
        records = [make_record(i, created=BASE_TIME + timedelta(hours=i))
                   for i in range(5)]
        assert ds.sort_by_creation(list(reversed(records))) == records

    def test_ties_broken_by_number(self):
        a = make_record(7, created=BASE_TIME)
        b = make_record(3, created=BASE_TIME)
        assert ds.sort_by_creation([a, b]) == [b, a]

    @given(st.permutations(list(range(8))))
    def test_is_permutation(self, order):
        records = [make_record(i + 1, created=BASE_TIME + timedelta(hours=i % 3))
                   for i in range(8)]
        shuffled = [records[i] for i in order]
        result = ds.sort_by_creation(shuffled)
        assert sorted(r.number for r in result) == sorted(r.number for r in shuffled)
        keys = [(r.created_at, r.number) for r in result]
        assert keys == sorted(keys)
