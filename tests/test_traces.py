"""Tests for the JSON-lines trace file format."""

import json

import numpy as np
import pytest

from actmon.errors import FormatVersionError, SchemaError
from actmon.traces import TraceHeader, TraceRecord, read_traces, write_traces


def sample_records(count=5, width=4, seed=0):
    rng = np.random.default_rng(seed)
    return [
        TraceRecord(id=f"s{i}", true_label=int(rng.integers(0, 3)),
                    pred_label=int(rng.integers(0, 3)),
                    activations=rng.normal(size=width))
        for i in range(count)
    ]


HEADER = {"format": "actmon-trace", "version": 1, "layer": 1, "width": 1,
          "classes": 2}
RECORD = {"id": "s0", "true_label": 1, "pred_label": 0, "activations": [1.0]}


class TestRoundTrip:
    def test_preserves_records_exactly(self, tmp_path):
        path = tmp_path / "t.jsonl"
        header = TraceHeader(layer=1, width=4, classes=3)
        records = sample_records()
        write_traces(path, header, records)
        loaded_header, loaded = read_traces(path)
        assert loaded_header == header
        assert len(loaded) == len(records)
        for a, b in zip(records, loaded):
            assert a.id == b.id
            assert a.true_label == b.true_label
            assert a.pred_label == b.pred_label
            assert np.array_equal(a.activations, b.activations)  # full precision

    def test_write_is_deterministic(self, tmp_path):
        header = TraceHeader(layer=1, width=4, classes=3)
        records = sample_records()
        write_traces(tmp_path / "a.jsonl", header, records)
        write_traces(tmp_path / "b.jsonl", header, records)
        assert (tmp_path / "a.jsonl").read_bytes() \
            == (tmp_path / "b.jsonl").read_bytes()

    def test_header_line_first(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_traces(path, TraceHeader(2, 4, 3), sample_records())
        first = json.loads(path.read_text().splitlines()[0])
        assert first == {"format": "actmon-trace", "version": 1,
                         "layer": 2, "width": 4, "classes": 3}


class TestValidation:
    def _write_valid(self, path):
        write_traces(path, TraceHeader(1, 4, 3), sample_records())

    def test_record_width_checked_on_write(self, tmp_path):
        header = TraceHeader(layer=1, width=3, classes=3)
        with pytest.raises(ValueError, match="width"):
            write_traces(tmp_path / "t.jsonl", header, sample_records(width=4))

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("old contents\n")
        records = sample_records()
        records[1].activations = records[1].activations[:3]
        with pytest.raises(ValueError, match="width"):
            write_traces(path, TraceHeader(1, 4, 3), records)
        assert path.read_text() == "old contents\n"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("field, value", [
        ("true_label", 3), ("pred_label", 7), ("true_label", -1)])
    def test_label_checked_on_write(self, tmp_path, field, value):
        path = tmp_path / "t.jsonl"
        path.write_text("old contents\n")
        records = sample_records()
        setattr(records[2], field, value)
        with pytest.raises(ValueError, match=f"label {value} outside 0..2"):
            write_traces(path, TraceHeader(1, 4, 3), records)
        assert path.read_text() == "old contents\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_missing_header(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"id":"s0","true_label":0,"pred_label":0,'
                        '"activations":[1.0]}\n')
        with pytest.raises(SchemaError, match="header"):
            read_traces(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("")
        with pytest.raises(SchemaError, match="empty"):
            read_traces(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"format":"actmon-trace","version":7,"layer":1,'
                        '"width":2,"classes":2}\n')
        with pytest.raises(FormatVersionError):
            read_traces(path)

    def test_record_width_mismatch(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"format":"actmon-trace","version":1,"layer":1,"width":3,'
            '"classes":2}\n'
            '{"id":"s0","true_label":0,"pred_label":1,"activations":[1.0]}\n')
        with pytest.raises(SchemaError, match="width"):
            read_traces(path)

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"format":"actmon-trace","version":1,"layer":1,"width":1,'
            '"classes":2}\n'
            '{"id":"s0","true_label":5,"pred_label":0,"activations":[1.0]}\n')
        with pytest.raises(SchemaError, match="label"):
            read_traces(path)

    def test_malformed_record_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"format":"actmon-trace","version":1,"layer":1,"width":1,'
            '"classes":2}\n'
            'this is not json\n')
        with pytest.raises(SchemaError, match="line 2"):
            read_traces(path)

    @pytest.mark.parametrize("part, field, value", [
        ("header", "layer", 1.9),
        ("header", "layer", True),
        ("header", "width", 1.0),
        ("header", "classes", "2"),
        ("record", "true_label", 1.9),
        ("record", "pred_label", False),
        ("record", "true_label", "1"),
    ])
    def test_integer_field_must_be_exact(self, tmp_path, part, field, value):
        path = tmp_path / "t.jsonl"
        header, record = dict(HEADER), dict(RECORD)
        path.write_text(f"{json.dumps(header)}\n{json.dumps(record)}\n")
        read_traces(path)  # the unedited file is valid
        (header if part == "header" else record)[field] = value
        path.write_text(f"{json.dumps(header)}\n{json.dumps(record)}\n")
        with pytest.raises(SchemaError, match=f"{field} must be an integer"):
            read_traces(path)
