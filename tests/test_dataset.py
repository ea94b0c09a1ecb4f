"""Target variable, filter rules, persistence round-trips, chronological sort."""

from __future__ import annotations

import json
import re
import tempfile
from dataclasses import fields
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reviewtime import collab
from reviewtime import dataset as ds
from reviewtime.errors import NotCompletedError, SchemaError
from reviewtime.features import PriorHistory
from reviewtime.gerrit import (ChangeRecord, ChangeStatus, CrawlConfig, FileDiff,
                               RawChange, ReviewMessage, _field_tests,
                               check_field_types, normalize_change)
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

    @pytest.mark.parametrize("year, text", [
        (1, "0001-02-03T04:05:06.000007Z"),
        (999, "0999-02-03T04:05:06.000007Z"),
        (1000, "1000-02-03T04:05:06.000007Z"),
    ])
    def test_a_short_year_is_padded_to_four_digits(self, year, text):
        stamp = datetime(year, 2, 3, 4, 5, 6, 7, tzinfo=timezone.utc)
        assert ds.format_timestamp(stamp) == text
        assert ds.parse_timestamp(text) == stamp

    @pytest.mark.parametrize("stamp", [
        datetime(1, 1, 1, 2, tzinfo=timezone(timedelta(hours=5))),
        datetime(9999, 12, 31, 22, tzinfo=timezone(timedelta(hours=-5))),
    ], ids=["before-year-1", "after-year-9999"])
    def test_a_utc_instant_outside_the_four_digit_years_is_refused(self, stamp):
        message = f"^the time {re.escape(stamp.isoformat())} falls outside the years"
        with pytest.raises(SchemaError, match=message):
            ds.format_timestamp(stamp)

    def test_a_year_of_four_digits_is_written_as_strftime_writes_it(self):
        stamp = datetime(1000, 1, 1, tzinfo=timezone(timedelta(hours=-8)))
        assert ds.format_timestamp(stamp) == stamp.astimezone(timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%S.%fZ")


def datetime_fields(cls):
    """The names of ``cls``'s fields typed ``datetime``, and of those typed
    ``datetime | None``."""
    hints = get_type_hints(cls)
    return ([name for name, hint in hints.items() if hint is datetime],
            [name for name, hint in hints.items() if hint == datetime | None])


class TestNullTimestamps:
    @pytest.mark.parametrize("cls", [ChangeRecord, ReviewMessage, ds.DatasetManifest])
    def test_only_a_nullable_timestamp_field_takes_null(self, cls):
        required, nullable = datetime_fields(cls)
        assert required
        for name in required:
            with pytest.raises(ValueError, match=f"^{name} must be a timestamp, got None$"):
                check_field_types(cls, {name: None})
        for name in nullable:
            check_field_types(cls, {name: None})

    def test_the_record_fields_are_the_ones_read_below(self):
        assert datetime_fields(ChangeRecord) == (["created_at"], ["closed_at"])
        assert datetime_fields(ReviewMessage) == (["posted_at"], [])
        assert datetime_fields(ds.DatasetManifest) == (["created_at"], [])

    @pytest.mark.parametrize("duration_hours", [48.0, None], ids=["closed", "open"])
    def test_a_null_created_at_names_the_field_and_the_line(self, tmp_path,
                                                            duration_hours):
        path = tmp_path / "d.jsonl"
        ds.write_dataset([make_record(1), make_record(2, duration_hours=duration_hours)],
                         path)
        rewrite_second_record(path, lambda doc: doc.update(created_at=None))
        with pytest.raises(SchemaError) as info:
            ds.read_dataset(path)
        assert str(info.value) == \
            f"{path} line 2: created_at must be a timestamp, got None"

    def test_a_null_posted_at_names_the_field_and_the_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        ds.write_dataset([make_record(1), make_record(2)], path)
        rewrite_second_record(path, lambda doc: doc["messages"][0].update(posted_at=None))
        with pytest.raises(SchemaError) as info:
            ds.read_dataset(path)
        assert str(info.value) == \
            f"{path} line 2: posted_at must be a timestamp, got None"

    def test_a_null_manifest_created_at_names_the_field_and_the_file(self, tmp_path):
        ds.write_dataset([make_record(1)], tmp_path / "d.jsonl")
        manifest_file = tmp_path / "manifest.json"
        doc = json.loads(manifest_file.read_text())
        manifest_file.write_text(json.dumps(doc | {"created_at": None}))
        with pytest.raises(SchemaError, match="manifest.json.*created_at must be a "
                                              "timestamp, got None"):
            ds.read_dataset(tmp_path / "d.jsonl")

    def test_an_open_change_reads_back_without_closed_at(self, tmp_path):
        records = [make_record(1), make_record(2, duration_hours=None)]
        ds.write_dataset(records, tmp_path / "d.jsonl")
        assert '"closed_at": null' in (tmp_path / "d.jsonl").read_text()
        assert ds.read_dataset(tmp_path / "d.jsonl")[0] == records


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


# --- the record codec against the one it replaced ----------------------------

def reference_to_json(value):
    """The ``json.dumps`` hook that wrote record lines before the direct codec."""
    if isinstance(value, datetime):
        return ds.format_timestamp(value)
    return {f.name: getattr(value, f.name) for f in fields(value)}


def reference_line(record: ChangeRecord) -> str:
    return json.dumps(record, sort_keys=True, default=reference_to_json) + "\n"


def reference_timestamp(value):
    if value is None:
        return None
    if not isinstance(value, str) or not re.fullmatch(
            r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}\.[0-9]{6}Z", value):
        raise ValueError(f"timestamp {value!r} is not of the form "
                         "YYYY-MM-DDTHH:MM:SS.ffffffZ")
    return datetime.fromisoformat(value[:-1]).replace(tzinfo=timezone.utc)


def reference_check_field_types(cls, values):
    """check_field_types running each field's test, with no exact-type pass."""
    for name, (_, test, what) in _field_tests(cls).items():
        if name in values and not test(values[name]):
            raise ValueError(f"{name} must be {what}, got {values[name]!r}")


def reference_from_json(cls, doc):
    """The decoder as it read record lines before exact JSON types passed the
    field-type check as they are."""
    reference_check_field_types(cls, doc)
    return cls(**doc | {name: decode(doc[name])
                        for name, decode in REFERENCE_DECODERS.get(cls, {}).items()
                        if name in doc})


REFERENCE_DECODERS = {
    ChangeRecord: {
        "status": ChangeStatus,
        "created_at": reference_timestamp,
        "closed_at": reference_timestamp,
        "files": lambda docs: tuple(reference_from_json(FileDiff, d) for d in docs),
        "messages": lambda docs: tuple(reference_from_json(ReviewMessage, d)
                                       for d in docs),
    },
    FileDiff: {"segments": lambda value: None if value is None else tuple(value)},
    ReviewMessage: {"posted_at": reference_timestamp},
}


def reference_error(doc) -> str:
    with pytest.raises((SchemaError, ValueError, TypeError, AttributeError)) as info:
        reference_from_json(ChangeRecord, doc)
    return str(info.value)


# every year a file's four-digit timestamps hold, a day inside the ends so
# that each offset still has a UTC time
stamps = st.datetimes(min_value=datetime(1, 1, 2), max_value=datetime(9999, 12, 30),
                      timezones=st.sampled_from([timezone.utc,
                                                 timezone(timedelta(hours=5, minutes=30)),
                                                 timezone(timedelta(hours=-8))]))
counts = st.integers(0, 2**40)
ids = st.integers(-2**63, 2**63)
file_diffs = st.builds(FileDiff, path=st.text(min_size=1), lines_inserted=counts,
                       lines_deleted=counts,
                       segments=st.none() | st.tuples(counts, counts, counts))
review_messages = st.builds(ReviewMessage, author_id=ids, author_name=st.text(),
                            posted_at=stamps, text=st.text(),
                            revision_number=st.none() | ids, from_bot=st.booleans())


@st.composite
def change_records(draw):
    status = draw(st.sampled_from(ChangeStatus))
    created = draw(stamps)
    closed = None if status is ChangeStatus.NEW \
        else created + draw(st.timedeltas(timedelta(0), timedelta(days=400)))
    return ChangeRecord(
        change_id=draw(st.text()), number=draw(ids), project=draw(st.text()),
        branch=draw(st.text()), status=status, created_at=created, closed_at=closed,
        owner_id=draw(ids), owner_name=draw(st.text()),
        owner_tz_offset_minutes=draw(st.integers(-900, 900)), subject=draw(st.text()),
        message_body=draw(st.text()),
        files=tuple(draw(st.lists(file_diffs, max_size=4))),
        messages=tuple(draw(st.lists(review_messages, max_size=4))),
        reopened=draw(st.booleans()), insertions_total=draw(counts),
        deletions_total=draw(counts), tz_offset_missing=draw(st.booleans()))


class TestRecordCodec:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(change_records(), max_size=3))
    def test_lines_and_records_match_the_reflective_codec(self, records):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.jsonl"
            ds.write_dataset(records, path)
            data = path.read_text(encoding="utf-8")
            assert data == "".join(map(reference_line, records))
            loaded, _ = ds.read_dataset(path)
        assert loaded == records
        assert loaded == [reference_from_json(ChangeRecord, json.loads(line))
                          for line in data.splitlines()]

    def test_the_appender_writes_the_same_lines(self, tmp_path):
        records = [layout_record(), make_record(2, duration_hours=None)]
        with ds.dataset_appender(tmp_path / "d.jsonl") as append:
            for record in records:
                append(record)
        assert (tmp_path / "d.jsonl").read_text(encoding="utf-8") \
            == "".join(map(reference_line, records))

    @pytest.mark.parametrize("part, field, value", [
        *((None, name, value) for name, values in {
            "change_id": (7, None), "number": ("2", 2.0, True, None),
            "project": (1, [],), "branch": (False,),
            "owner_id": ("100", 100.0, False), "owner_name": (7,),
            "owner_tz_offset_minutes": (True, 1.5), "subject": (None,),
            "message_body": ({},), "reopened": ("no", 0, None),
            "insertions_total": ("13", 1.0), "deletions_total": (None,),
            "tz_offset_missing": (1, "true"),
            "status": ("merged", 1, None), "created_at": ("2021-04-26", 7, None),
            "closed_at": ("2021-04-26T10:00:00Z",), "files": (None, 3, "x", [7]),
            "messages": (None, 3, [[]]),
        }.items() for value in values),
        *(("files", name, value) for name, values in {
            "path": (7, None, ""), "lines_inserted": (1.5, "2", True, -1),
            "lines_deleted": (None,), "segments": ([1, "x", 0], [1, 2], [1, 2, 3, 4],
                                                  "abc", [1, 2, True], [1.0, 2, 3]),
        }.items() for value in values),
        *(("messages", name, value) for name, values in {
            "author_id": ("101", 1.0, False), "author_name": (7,), "text": (None,),
            "revision_number": ("1", 1.5, True), "from_bot": ("false", 0, None),
            "posted_at": ("2021-4-26T11:0:0.1Z", 1),
        }.items() for value in values),
    ])
    def test_a_wrongly_typed_field_raises_the_reference_error(self, tmp_path, part,
                                                              field, value):
        path = tmp_path / "d.jsonl"
        ds.write_dataset([layout_record(), layout_record()], path)
        rewrite_second_record(
            path, lambda doc: (doc[part][0] if part else doc).update({field: value}))
        doc = json.loads(path.read_text(encoding="utf-8").splitlines()[1])
        with pytest.raises(SchemaError) as info:
            ds.read_dataset(path)
        assert str(info.value) == f"{path} line 2: {reference_error(doc)}"

    @pytest.mark.parametrize("line", [
        "[]", '["number", "status"]', "7", "null", '"number status"', "{}",
        '{"extra": 1}',
    ])
    def test_a_line_that_is_no_record_raises_the_reference_error(self, tmp_path, line):
        path = tmp_path / "d.jsonl"
        ds.write_dataset([layout_record()], path)
        path.write_text(path.read_text(encoding="utf-8") + line + "\n", encoding="utf-8")
        with pytest.raises(SchemaError) as info:
            ds.read_dataset(path)
        assert str(info.value) == f"{path} line 2: {reference_error(json.loads(line))}"

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.pop("number"), lambda doc: doc.update(surplus=1),
        lambda doc: doc["files"][0].pop("path"), lambda doc: doc["files"][0].update(x=1),
        lambda doc: doc["messages"][0].pop("text"),
        lambda doc: doc.update(closed_at=None),
        lambda doc: doc.update(created_at="2021-13-26T10:00:00.000000Z"),
    ], ids=["no-number", "surplus-key", "file-without-path", "file-surplus-key",
            "message-without-text", "closed-without-time", "month-13"])
    def test_a_malformed_record_raises_the_reference_error(self, tmp_path, edit):
        path = tmp_path / "d.jsonl"
        ds.write_dataset([layout_record(), layout_record()], path)
        rewrite_second_record(path, edit)
        doc = json.loads(path.read_text(encoding="utf-8").splitlines()[1])
        with pytest.raises(SchemaError) as info:
            ds.read_dataset(path)
        assert str(info.value) == f"{path} line 2: {reference_error(doc)}"

    def test_a_known_line_gives_its_record_and_a_new_one_is_added(self, tmp_path):
        first, second = layout_record(), make_record(7)
        ds.write_dataset([first, second], tmp_path / "d.jsonl")
        lines = {}
        loaded, _ = ds.read_dataset(tmp_path / "d.jsonl", lines=lines)
        assert loaded == [first, second] and list(lines.values()) == loaded
        again, _ = ds.read_dataset(tmp_path / "d.jsonl", lines=lines)
        assert all(a is b for a, b in zip(again, loaded))
