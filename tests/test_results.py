"""The result-file layout: one table writer, one table reader, one JSON writer.

The files under ``data/results`` pin the bytes of each kind of result file.
"""

from __future__ import annotations

import json
import math
from dataclasses import astuple
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from conftest import BASE_TIME

from reviewtime import dataset as ds
from reviewtime.cli import main
from reviewtime.errors import SchemaError
from reviewtime.evaluation import EvalRecord, EvalResult
from reviewtime.features import FeatureMatrix
from reviewtime.importance import ImportanceResult
from reviewtime.stats import EsdRanking

RESULTS_DIR = Path(__file__).parent / "data" / "results"
DATASET = Path(__file__).parent / "data" / "dataset" / "changes.jsonl"
NAN = float("nan")


def pinned_matrix() -> FeatureMatrix:
    """The matrix ``data/results/features.csv`` holds."""
    created = [BASE_TIME + timedelta(microseconds=123_456),
               BASE_TIME + timedelta(hours=5),
               BASE_TIME + timedelta(days=30, microseconds=999_999)]
    X = np.array([[0.1 + 0.2, 1.0, -0.0],
                  [1 / 3, 0.0, 1e-300],
                  [2.5e17, NAN, -7.125]])
    return FeatureMatrix(("#lines_added", "is_weekend", "owner_tz_offset"), X,
                         np.array([25.5, 1 / 7, 503.999]),
                         np.array([3, 17, 4242]), created)


_MAES = {"KNN": [10.1, 12.25, 1 / 3, 9.0, NAN, 0.1 + 0.2],
         "LR": [11.5, 12.0, 2 / 3, 8.75, 4.0, 1e-3]}
_FAILURE = 'ValueError: k must be at most 5, got "7", not 5'


def pinned_eval(name: str) -> EvalResult:
    """The result ``data/results/eval_<name>.csv`` holds: two repeats of three
    iterations, where KNN failed (1, 1) with an error holding a comma and a quote."""
    records = []
    for i, mae in enumerate(_MAES[name]):
        repeat, iteration = divmod(i, 3)
        n_train = 20 + 5 * iteration
        failed = math.isnan(mae)
        records.append(EvalRecord(
            repeat, iteration, mae, NAN if failed else mae / 40, NAN if failed else 1 - mae / 20,
            n_train, 5, (0, n_train), (n_train, n_train + 5), failed,
            _FAILURE if failed else ""))
    return EvalResult(name, records)


def pinned_importance() -> ImportanceResult:
    """The LOCO result ``data/results/loco_feature.csv`` holds."""
    return ImportanceResult(
        unit_deltas={"b": np.array([0.5, 0.25, 1 / 3]),
                     "a": np.array([0.1, 0.2, 0.3, 0.4]),
                     "c": np.array([-0.0, 0.0, 1e-9])},
        ranking=EsdRanking(clusters=(("b",), ("a", "c"))),
        mae_full=np.array([1.0, 2.0, 3.0]))


def pinned_summaries() -> dict:
    """The summaries ``data/results/eval_summary.json`` holds; every SVM
    iteration failed, so its means are null."""
    failed = EvalResult("SVM", [EvalRecord(0, 0, NAN, NAN, NAN, 20, 5, (0, 20),
                                           (20, 25), True, _FAILURE)])
    return {name: result.summary()
            for name, result in (("KNN", pinned_eval("KNN")),
                                 ("LR", pinned_eval("LR")), ("SVM", failed))}


def write_config(tmp_path: Path) -> Path:
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"out_dir": str(tmp_path / "out")}), encoding="utf-8")
    return path


class TestPinnedBytes:
    def test_feature_matrix(self, tmp_path):
        pinned_matrix().to_csv(tmp_path / "features.csv")
        assert (tmp_path / "features.csv").read_bytes() \
            == (RESULTS_DIR / "features.csv").read_bytes()

    @pytest.mark.parametrize("name", ["KNN", "LR"])
    def test_eval_result(self, tmp_path, name):
        pinned_eval(name).to_csv(tmp_path / f"eval_{name}.csv")
        assert (tmp_path / f"eval_{name}.csv").read_bytes() \
            == (RESULTS_DIR / f"eval_{name}.csv").read_bytes()

    def test_loco_ranking(self, tmp_path):
        pinned_importance().to_csv(tmp_path / "loco_feature.csv")
        assert (tmp_path / "loco_feature.csv").read_bytes() \
            == (RESULTS_DIR / "loco_feature.csv").read_bytes()

    def test_comparisons(self, tmp_path):
        assert main(["compare", "--config", str(write_config(tmp_path)),
                     str(RESULTS_DIR / "eval_KNN.csv"),
                     str(RESULTS_DIR / "eval_LR.csv")]) == 0
        assert (tmp_path / "out" / "comparisons.csv").read_bytes() \
            == (RESULTS_DIR / "comparisons.csv").read_bytes()

    def test_filter_report(self, tmp_path):
        assert main(["filter", "--config", str(write_config(tmp_path)),
                     "--in", str(DATASET)]) == 0
        assert (tmp_path / "out" / "filter_report.json").read_bytes() \
            == (RESULTS_DIR / "filter_report.json").read_bytes()

    def test_eval_summary(self, tmp_path):
        ds.write_json(tmp_path / "eval_summary.json", pinned_summaries())
        assert (tmp_path / "eval_summary.json").read_bytes() \
            == (RESULTS_DIR / "eval_summary.json").read_bytes()


class TestPinnedRead:
    def test_feature_matrix(self):
        loaded = FeatureMatrix.from_csv(RESULTS_DIR / "features.csv")
        expected = pinned_matrix()
        assert loaded.feature_names == expected.feature_names
        np.testing.assert_array_equal(loaded.X, expected.X)
        np.testing.assert_array_equal(np.signbit(loaded.X), np.signbit(expected.X))
        np.testing.assert_array_equal(loaded.y, expected.y)
        np.testing.assert_array_equal(loaded.change_numbers, expected.change_numbers)
        assert loaded.created_at == expected.created_at

    @pytest.mark.parametrize("name", ["KNN", "LR"])
    def test_eval_result(self, name):
        loaded = EvalResult.from_csv(RESULTS_DIR / f"eval_{name}.csv")
        assert loaded.algorithm == f"eval_{name}"
        np.testing.assert_equal([astuple(r) for r in loaded.records],
                                [astuple(r) for r in pinned_eval(name).records])


class TestTableRule:
    def test_cells(self, tmp_path):
        ds.write_table(tmp_path / "t.csv", ("a", "b", "c", "d", "e", "f"), [
            (True, np.float64(0.1), BASE_TIME, 7, 'say "hi", then\nleave', None),
            (False, 1e-300, None, np.int64(8), "", np.float64(NAN))])
        assert (tmp_path / "t.csv").read_bytes() == (
            b'a,b,c,d,e,f\r\n'
            b'1,0.1,2021-04-26T10:00:00.000000Z,7,"say ""hi"", then\nleave",\r\n'
            b'0,1e-300,,8,,nan\r\n')

    def test_rows_read_back(self, tmp_path):
        rows = [("x,y", 'a "b"', "multi\nline"), ("", "1", "2")]
        ds.write_table(tmp_path / "t.csv", ("p", "q", "r"), rows)
        header, read = ds.read_table(tmp_path / "t.csv", ("p", "q", "r"), tuple)
        assert header == ["p", "q", "r"] and read == rows

    def test_open_ended_header(self, tmp_path):
        ds.write_table(tmp_path / "t.csv", ("p", "q", "r"), [(1, 2, 3)])
        header, rows = ds.read_table(tmp_path / "t.csv", ("p", "..."), list)
        assert header == ["p", "q", "r"] and rows == [["1", "2", "3"]]

    @pytest.mark.parametrize("header", [("p", "q"), ("p", "q", "r", "s"),
                                        ("q", "..."), ("p", "q", "r", "s", "...")])
    def test_wrong_header_names_line_1(self, tmp_path, header):
        path = tmp_path / "t.csv"
        ds.write_table(path, ("p", "q", "r"), [(1, 2, 3)])
        with pytest.raises(SchemaError, match=f"{path} line 1: expected the header"):
            ds.read_table(path, header, list)

    def test_empty_file_names_line_1(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"")
        with pytest.raises(SchemaError, match=f"{path} line 1"):
            ds.read_table(path, ("p",), list)

    @pytest.mark.parametrize("row", [b"1,2", b"1,2,3,4", b""])
    def test_row_of_the_wrong_width_names_its_line(self, tmp_path, row):
        path = tmp_path / "t.csv"
        path.write_bytes(b"p,q,r\r\n1,2,3\r\n" + row + b"\r\n")
        with pytest.raises(SchemaError, match=f"{path} line 3: expected 3 cells"):
            ds.read_table(path, ("p", "q", "r"), list)

    @pytest.mark.parametrize("exc", [ValueError, TypeError, KeyError])
    def test_rejected_cell_names_its_line(self, tmp_path, exc):
        path = tmp_path / "t.csv"
        path.write_bytes(b'p\r\n1\r\n"2\nstill 2"\r\nbad\r\n')

        def parse(row):
            if row[0] == "bad":
                raise exc("no good")
            return row[0]
        with pytest.raises(SchemaError, match=f"{path} line 5: .*no good"):
            ds.read_table(path, ("p",), parse)

    @pytest.mark.parametrize("row, message", [
        (b"2,0,1.0,0.1,50.0,20,5,2,", "failed must be 0 or 1, not '2'"),
        (b"2,0,1.0,0.1,50.0,20,5,-1,", "failed must be 0 or 1, not '-1'"),
        (b"2,0,nan,nan,nan,20,5,0,", "a scored row needs finite mae, mre and sa"),
        (b"2,0,1.0,inf,50.0,20,5,0,", "a scored row needs finite mae, mre and sa"),
    ], ids=["failed-2", "failed-minus-1", "scored-nan", "scored-inf"])
    def test_eval_row_rule_names_its_line(self, tmp_path, row, message):
        path = tmp_path / "eval_X.csv"
        path.write_bytes((RESULTS_DIR / "eval_KNN.csv").read_bytes() + row + b"\r\n")
        with pytest.raises(SchemaError, match=f"{path} line 8: {message}"):
            EvalResult.from_csv(path)

    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"p,q\r\n1,2\r\n3,\xff\r\n")
        with pytest.raises(SchemaError, match=f"{path} line 3: .*utf-8"):
            ds.read_table(path, ("p", "q"), list)

    def test_json_layout(self, tmp_path):
        ds.write_json(tmp_path / "d.json", {"b": [BASE_TIME, (1, 2)], "a": None})
        assert (tmp_path / "d.json").read_text(encoding="utf-8") == (
            '{\n  "a": null,\n  "b": [\n    "2021-04-26T10:00:00.000000Z",\n'
            '    [\n      1,\n      2\n    ]\n  ]\n}\n')
