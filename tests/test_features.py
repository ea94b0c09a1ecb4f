"""Feature extraction: per-dimension examples, invariants, temporal hygiene."""

from __future__ import annotations

from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reviewtime import collab
from reviewtime.dataset import sort_by_creation
from reviewtime.errors import EmptyInputError, SchemaError
from reviewtime.features import (
    FEATURE_DIMENSIONS,
    FEATURE_NAMES,
    FeatureMatrix,
    KeywordPolicy,
    change_entropy,
    dimension_features,
    extract_all,
    extract_code_features,
    extract_date_features,
    extract_file_history,
    extract_owner_experience,
    extract_text_features,
    featurize,
)
from reviewtime.gerrit import (
    ChangeStatus,
    CrawlConfig,
    FileDiff,
    RawChange,
    normalize_change,
)
from reviewtime.gerrit_fixture import generate_corpus

from conftest import BASE_TIME, make_record

EMPTY_GRAPH = collab.build_graph([], as_of=BASE_TIME)


class TestCanonicalNames:
    def test_fifty_names(self):
        assert len(FEATURE_NAMES) == 50
        assert len(set(FEATURE_NAMES)) == 50

    def test_dimension_sizes(self):
        sizes = {d: len(dimension_features(d)) for d in
                 ("date", "collaboration", "code", "text", "owner", "file_history")}
        assert sizes == {"date": 3, "collaboration": 6, "code": 10, "text": 7,
                         "owner": 18, "file_history": 6}

    def test_every_name_has_a_dimension(self):
        assert set(FEATURE_DIMENSIONS) == set(FEATURE_NAMES)


class TestDateFeatures:
    def test_monday_utc(self):
        record = make_record(created=BASE_TIME, tz_offset=0)  # Monday 10:00 UTC
        values = extract_date_features(record)
        assert values["days_of_the_weeks_of_date_created"] == 0
        assert values["is_created_date_a_weekend"] == 0

    def test_offset_crosses_midnight_forward(self):
        # Sunday 23:30 UTC, +120 minutes -> Monday 01:30 local
        created = BASE_TIME.replace(day=25, hour=23, minute=30)
        record = make_record(created=created, tz_offset=120)
        values = extract_date_features(record)
        assert values["days_of_the_weeks_of_date_created"] == 0
        assert values["is_created_date_a_weekend"] == 0
        assert values["author_timezone"] == 120

    def test_offset_shifts_monday_back_to_sunday(self):
        created = BASE_TIME.replace(hour=0, minute=10)  # Monday 00:10 UTC
        record = make_record(created=created, tz_offset=-720)
        values = extract_date_features(record)
        assert values["days_of_the_weeks_of_date_created"] == 6
        assert values["is_created_date_a_weekend"] == 1


class TestChangeEntropy:
    def test_single_file(self):
        assert change_entropy([10]) == 0.0

    def test_uniform_two_files(self):
        assert change_entropy([5, 5]) == pytest.approx(1.0)

    def test_skewed_pair(self):
        assert change_entropy([3, 1]) == pytest.approx(0.8113, abs=1e-4)

    def test_zero_churn(self):
        assert change_entropy([0, 0]) == 0.0

    def test_empty_raises(self):
        with pytest.raises(EmptyInputError):
            change_entropy([])

    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=20))
    def test_in_unit_interval(self, churns):
        assert 0.0 <= change_entropy(churns) <= 1.0 + 1e-12

    @given(st.lists(st.integers(0, 1000), min_size=2, max_size=12),
           st.randoms(use_true_random=False))
    def test_permutation_invariant(self, churns, rnd):
        shuffled = list(churns)
        rnd.shuffle(shuffled)
        assert change_entropy(churns) == pytest.approx(change_entropy(shuffled))


class TestCodeFeatures:
    def test_two_file_example(self):
        record = make_record(files=(FileDiff("a/x.c", 10, 2), FileDiff("b/y.h", 0, 5)))
        values = extract_code_features(record)
        assert values["#lines_added"] == 10
        assert values["#lines_deleted"] == 7
        assert values["Code_churn"] == 17
        assert values["#files"] == 2
        assert values["#files_type"] == 2
        assert values["#directory"] == 2

    def test_empty_files(self):
        record = make_record(files=())
        values = extract_code_features(record)
        assert all(v == 0.0 for v in values.values())

    def test_same_dir_same_ext(self):
        record = make_record(files=(FileDiff("x.c", 1, 0), FileDiff("y.c", 1, 0)))
        values = extract_code_features(record)
        assert values["#files_type"] == 1
        assert values["#directory"] == 1

    def test_segment_fallback_classification(self):
        record = make_record(files=(
            FileDiff("a.c", 5, 0),   # added
            FileDiff("b.c", 0, 5),   # deleted
            FileDiff("c.c", 5, 5),   # modified
        ))
        values = extract_code_features(record)
        assert (values["#segs_added"], values["#segs_deleted"],
                values["#segs_modify"]) == (1, 1, 1)

    def test_segments_from_diff_preferred(self):
        record = make_record(files=(FileDiff("a.c", 5, 5, segments=(2, 1, 3)),))
        values = extract_code_features(record)
        assert (values["#segs_added"], values["#segs_deleted"],
                values["#segs_modify"]) == (2, 1, 3)


class TestTextFeatures:
    def test_subject_counts(self):
        record = make_record(subject="Fix crash", message_body="")
        values = extract_text_features(record)
        assert values["subject_length"] == 9
        assert values["subject_word_count"] == 2

    def test_refactoring_keyword(self):
        record = make_record(message_body="We refactor the parser here")
        assert extract_text_features(record)["is_refactoring"] == 1

    def test_empty_description(self):
        record = make_record(subject="", message_body="")
        values = extract_text_features(record)
        assert all(v == 0.0 for v in values.values())

    def test_keyword_policy_is_configurable(self):
        policy = KeywordPolicy(non_functional_keywords=("zebra",))
        record = make_record(message_body="A Zebra appears")
        assert extract_text_features(record, policy)["is_non_fonctional"] == 1


class TestOwnerExperience:
    def test_first_change_all_zero(self):
        record = make_record(owner=1)
        values = extract_owner_experience(record, [])
        assert all(v == 0.0 for v in values.values())

    def test_duration_quadruple(self):
        priors = [
            make_record(1, owner=1, created=BASE_TIME - timedelta(days=10),
                        duration_hours=30.0),
            make_record(2, owner=1, created=BASE_TIME - timedelta(days=5),
                        duration_hours=50.0),
        ]
        record = make_record(3, owner=1)
        values = extract_owner_experience(record, priors)
        assert values["prior_code_reviews_duration_min"] == 30.0
        assert values["prior_code_reviews_duration_max"] == 50.0
        assert values["prior_code_reviews_duration_avg"] == 40.0
        assert values["prior_code_reviews_duration_std"] == 10.0

    def test_merge_ratio(self):
        priors = [
            make_record(i, owner=1, created=BASE_TIME - timedelta(days=i + 1),
                        duration_hours=40.0,
                        status=ChangeStatus.MERGED if i < 2 else ChangeStatus.ABANDONED)
            for i in range(3)
        ]
        record = make_record(9, owner=1)
        values = extract_owner_experience(record, priors)
        assert values["merge_ratio"] == pytest.approx(2 / 3)
        assert values["#prior_merged_changes"] == 2
        assert values["#prior_abandoned_changes"] == 1

    def test_merged_plus_abandoned_equals_priors(self):
        priors = [
            make_record(i, owner=1, created=BASE_TIME - timedelta(days=i + 1),
                        duration_hours=40.0,
                        status=ChangeStatus.MERGED if i % 2 else ChangeStatus.ABANDONED)
            for i in range(5)
        ]
        values = extract_owner_experience(make_record(9, owner=1), priors)
        assert (values["#prior_merged_changes"] + values["#prior_abandoned_changes"]
                == values["#owner_prior_changes"])


class TestFileHistory:
    def test_no_overlap(self):
        priors = [make_record(1, created=BASE_TIME - timedelta(days=1),
                              files=(FileDiff("other/q.c", 1, 1),))]
        record = make_record(2, files=(FileDiff("core/a.c", 1, 1),))
        values = extract_file_history(record, priors)
        assert all(v == 0.0 for v in values.values())

    def test_two_overlapping(self):
        priors = [
            make_record(1, owner=1, created=BASE_TIME - timedelta(days=2),
                        duration_hours=40.0, files=(FileDiff("core/a.c", 1, 1),)),
            make_record(2, owner=2, created=BASE_TIME - timedelta(days=1),
                        duration_hours=60.0, files=(FileDiff("core/a.c", 2, 2),)),
        ]
        record = make_record(3, files=(FileDiff("core/a.c", 1, 0),))
        values = extract_file_history(record, priors)
        assert values["files_changes_duration_avg"] == 50.0
        assert values["#developers_file"] == 2
        assert values["#prior_changes_files"] == 2

    def test_single_overlap_std_zero(self):
        priors = [make_record(1, created=BASE_TIME - timedelta(days=1),
                              duration_hours=40.0,
                              files=(FileDiff("core/a.c", 1, 1),))]
        record = make_record(2, files=(FileDiff("core/a.c", 1, 0),))
        values = extract_file_history(record, priors)
        assert values["files_changes_duration_std"] == 0.0


class TestExtractAll:
    def test_arity(self):
        record = make_record()
        vec = extract_all(record, [], EMPTY_GRAPH)
        assert len(vec.values) == 50
        assert tuple(vec.values.keys()) == FEATURE_NAMES

    def test_empty_history_blocks_zero(self):
        record = make_record()
        vec = extract_all(record, [], EMPTY_GRAPH)
        for name in FEATURE_NAMES:
            if FEATURE_DIMENSIONS[name] in ("collaboration", "owner", "file_history"):
                assert vec.values[name] == 0.0, name

    def test_temporal_hygiene(self):
        history = [
            make_record(1, owner=1, created=BASE_TIME - timedelta(days=3),
                        duration_hours=30.0),
        ]
        future = [
            make_record(5, owner=1, created=BASE_TIME + timedelta(days=1),
                        duration_hours=99.0, files=(FileDiff("core/a.c", 9, 9),)),
            make_record(6, owner=1, created=BASE_TIME, duration_hours=77.0),
        ]
        record = make_record(2, owner=1, created=BASE_TIME)
        graph = collab.build_graph(history, as_of=record.created_at)
        baseline = extract_all(record, history, graph)
        spiked = extract_all(record, history + future, graph)
        assert baseline.values == spiked.values

    def test_quadruple_order_invariant(self):
        rng = np.random.default_rng(4)
        priors = [
            make_record(i, owner=1, created=BASE_TIME - timedelta(days=30 - i),
                        duration_hours=float(rng.uniform(1, 300)),
                        files=(FileDiff("core/a.c", 1, 1),))
            for i in range(1, 9)
        ]
        record = make_record(99, owner=1, files=(FileDiff("core/a.c", 1, 0),))
        vec = extract_all(record, priors, EMPTY_GRAPH)
        for stem in ("prior_code_reviews_duration", "files_changes_duration"):
            lo = vec.values[f"{stem}_min"]
            hi = vec.values[f"{stem}_max"]
            avg = vec.values[f"{stem}_avg"]
            std = vec.values[f"{stem}_std"]
            assert lo <= avg <= hi and std >= 0.0

    def test_deterministic(self):
        history = [make_record(1, owner=1, created=BASE_TIME - timedelta(days=2))]
        record = make_record(2, owner=1)
        graph = collab.build_graph(history, as_of=record.created_at)
        assert extract_all(record, history, graph) == \
            extract_all(record, history, graph)


@pytest.fixture(scope="module")
def corpus_records():
    """60 fixture changes in creation order, with messages, files and owners."""
    config = CrawlConfig(base_url="http://fixture.invalid")
    return [normalize_change(RawChange(doc, BASE_TIME), config)
            for doc in generate_corpus(60, seed=1)]


class TestFeaturize:
    def test_history_order_does_not_matter(self, corpus_records):
        shuffled = list(corpus_records)
        np.random.default_rng(0).shuffle(shuffled)
        assert shuffled != corpus_records
        in_order = featurize(corpus_records, history=corpus_records)
        assert np.array_equal(featurize(corpus_records, history=shuffled).X, in_order.X)

    def test_matches_record_by_record_definition(self, corpus_records):
        # on creation-ordered history, the per-record prefix view must give
        # what the whole history gives each record
        expected = [
            extract_all(r, corpus_records,
                        collab.build_graph(corpus_records, as_of=r.created_at))
            for r in corpus_records if r.closed_at is not None
        ]
        matrix = featurize(corpus_records)
        assert np.array_equal(matrix.X, FeatureMatrix.from_vectors(expected).X)

    def test_skips_incomplete_and_sorts(self):
        records = [
            make_record(3, created=BASE_TIME + timedelta(days=2), duration_hours=40.0),
            make_record(1, created=BASE_TIME, duration_hours=30.0),
            make_record(2, created=BASE_TIME + timedelta(days=1), duration_hours=None),
        ]
        matrix = featurize(records)
        assert list(matrix.change_numbers) == [1, 3]
        assert matrix.created_at == sorted(matrix.created_at)

    def test_csv_roundtrip(self, tmp_path):
        records = [make_record(i, created=BASE_TIME + timedelta(days=i),
                               duration_hours=30.0 + i) for i in range(1, 6)]
        matrix = featurize(records)
        matrix.to_csv(tmp_path / "f.csv")
        loaded = FeatureMatrix.from_csv(tmp_path / "f.csv")
        assert loaded.feature_names == matrix.feature_names
        np.testing.assert_array_equal(loaded.X, matrix.X)
        np.testing.assert_array_equal(loaded.y, matrix.y)
        np.testing.assert_array_equal(loaded.change_numbers, matrix.change_numbers)
        assert loaded.created_at == matrix.created_at

    def test_csv_short_timestamp_names_the_row(self, tmp_path):
        records = [make_record(i, created=BASE_TIME + timedelta(days=i),
                               duration_hours=30.0 + i) for i in range(1, 4)]
        featurize(records).to_csv(tmp_path / "f.csv")
        lines = (tmp_path / "f.csv").read_text(encoding="utf-8").splitlines()
        cells = lines[2].split(",")
        cells[1] = "2021-4-28T10:0:0.0Z"
        lines[2] = ",".join(cells)
        (tmp_path / "f.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="line 3: timestamp"):
            FeatureMatrix.from_csv(tmp_path / "f.csv")

    def test_restrict(self):
        records = [make_record(i, created=BASE_TIME + timedelta(days=i),
                               duration_hours=30.0) for i in range(1, 12)]
        matrix = featurize(records)
        sub = matrix.restrict(["Code_churn", "#files"])
        assert sub.feature_names == ("Code_churn", "#files")
        assert sub.X.shape == (11, 2)
        with pytest.raises(KeyError):
            matrix.restrict(["nope"])


@pytest.fixture(scope="module")
def shuffled_history():
    """120 fixture changes over about seven weeks, in shuffled order."""
    config = CrawlConfig(base_url="http://fixture.invalid")
    records = [normalize_change(RawChange(doc, BASE_TIME), config)
               for doc in generate_corpus(120, seed=4)]
    np.random.default_rng(1).shuffle(records)
    return records


class TestSweep:
    @pytest.mark.parametrize("window_days", [7, 30, 365])
    def test_matches_per_record_definition(self, shuffled_history, window_days):
        # the sweep's running index and window slice must give the bytes of
        # each record's own view of the creation-ordered history
        ordered = sort_by_creation(shuffled_history)
        expected = [
            extract_all(r, ordered, collab.build_graph(ordered, r.created_at,
                                                       window_days))
            for r in ordered if r.closed_at is not None
        ]
        matrix = featurize(shuffled_history, history=shuffled_history,
                           window_days=window_days)
        assert matrix.X.tobytes() == FeatureMatrix.from_vectors(expected).X.tobytes()

    @pytest.mark.parametrize("window_days", [7, 365])
    def test_graph_is_rebuilt_only_when_the_window_start_moves(
            self, shuffled_history, window_days, monkeypatch):
        rebuilt = []
        build_graph = collab.build_graph

        def counting(history, as_of, window_days):
            rebuilt.append(as_of)
            return build_graph(history, as_of, window_days)

        monkeypatch.setattr(collab, "build_graph", counting)
        featurize(shuffled_history, history=shuffled_history, window_days=window_days)
        ordered = sort_by_creation(shuffled_history)
        scored = [r.created_at for r in ordered if r.closed_at is not None]
        starts = [sum(c.created_at < t - timedelta(days=window_days) for c in ordered)
                  for t in scored]
        moved = [t for t, before, start in zip(scored, [None, *starts], starts)
                 if start != before]
        assert rebuilt == moved
        assert len(moved) < len(scored)

    def test_change_twice_in_history_is_rejected(self):
        history = [make_record(i, created=BASE_TIME + timedelta(days=i))
                   for i in range(1, 5)]
        with pytest.raises(SchemaError, match="change 2 "):
            featurize(history[3:], history=history + [history[1]])

    def test_record_created_at_another_time_is_rejected(self):
        history = [make_record(i, created=BASE_TIME + timedelta(days=i))
                   for i in range(1, 5)]
        record = make_record(3, created=BASE_TIME + timedelta(days=9))
        with pytest.raises(SchemaError, match="change 3 "):
            featurize([record], history=history)
