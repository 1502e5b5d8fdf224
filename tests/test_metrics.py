"""Unit tests for the metrics schema and its two byte-stable sinks."""

import json

import numpy as np
import pytest

from fedasync.metrics import (
    CSV_HEADER,
    MetricsRecord,
    read_csv,
    save_params,
    write_metrics_csv,
    write_metrics_jsonl,
)


def _records():
    return [
        MetricsRecord(0, 0, 2.5, 4.0, None, 0.0, 0, 0.0),
        MetricsRecord(1, 7, 1.25, 0.5, 0.875, 0.6, 0, 0.1),
        MetricsRecord(2, 15, 0.7071067811865476, 0.01, 0.9, 0.3, 2, 1.5),
    ]


class TestCsv:
    def test_header_and_row_layout(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics_csv(_records(), str(path), {"seed": 0, "task": "quadratic"})
        lines = path.read_text().splitlines()
        assert lines[0] == "# seed=0"
        assert lines[1] == "# task=quadratic"
        assert lines[2] == CSV_HEADER
        assert lines[3].startswith("0,0,2.5,4.0,,")
        assert len(lines) == 3 + 3

    def test_missing_accuracy_is_empty_field(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics_csv(_records()[:1], str(path))
        row = path.read_text().splitlines()[-1].split(",")
        assert row[4] == ""

    def test_round_trip(self, tmp_path):
        path = tmp_path / "m.csv"
        original = _records()
        write_metrics_csv(original, str(path), {"alpha": 0.6})
        comments, rows = read_csv(str(path))
        assert comments == {"alpha": "0.6"}
        assert rows == [rec.cells() for rec in original]

    def test_identical_bytes_on_rewrite(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_metrics_csv(_records(), str(a), {"seed": 3})
        write_metrics_csv(_records(), str(b), {"seed": 3})
        assert a.read_bytes() == b.read_bytes()

    def test_floats_survive_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        recs = [
            MetricsRecord(
                i,
                i * 3,
                float(rng.standard_normal()),
                float(abs(rng.standard_normal())),
                float(rng.uniform()),
                float(rng.uniform()),
                int(rng.integers(0, 5)),
                float(rng.uniform() * 100),
            )
            for i in range(50)
        ]
        path = tmp_path / "r.csv"
        write_metrics_csv(recs, str(path))
        _, rows = read_csv(str(path))
        assert len(rows) == len(recs)
        for orig, row in zip(recs, rows):
            assert orig.loss == float(row[2])
            assert orig.grad_norm_sq == float(row[3])
            assert orig.accuracy == float(row[4])

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("epoch,loss\n1,2.0\n")
        with pytest.raises(ValueError, match="header"):
            read_csv(str(path))


class TestJsonl:
    def test_one_object_per_line_schema_order(self, tmp_path):
        path = tmp_path / "m.jsonl"
        write_metrics_jsonl(_records(), str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        first = json.loads(lines[0])
        assert list(first) == CSV_HEADER.split(",")
        assert first["accuracy"] is None
        second = json.loads(lines[1])
        assert second["accuracy"] == 0.875

    def test_identical_bytes_on_rewrite(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        write_metrics_jsonl(_records(), str(a))
        write_metrics_jsonl(_records(), str(b))
        assert a.read_bytes() == b.read_bytes()


class TestParamsFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        params = rng.standard_normal(64)
        path = tmp_path / "p.txt"
        save_params(params, str(path))
        back = np.loadtxt(path, ndmin=1)
        np.testing.assert_array_equal(back, params)
        assert back.dtype == np.float64

    def test_one_value_per_line(self, tmp_path):
        path = tmp_path / "p.txt"
        save_params(np.array([1.0, -0.5]), str(path))
        assert path.read_text() == "1.0\n-0.5\n"
