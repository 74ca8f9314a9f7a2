"""Tests for the JSON-lines trace file format."""

import json
import math
import random
import re

import numpy as np
import pytest

from actmon import traces
from actmon.cli import main
from actmon.errors import (JSON_LINE, FormatVersionError, SchemaError,
                           all_finite)
from actmon.network import (decide, evaluate_accuracy, forward, load_model,
                            make_blobs)
from actmon.traces import (TraceHeader, TraceRecord, extract, read_traces,
                           write_traces)


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
# the least value of each bounded header field
HEADER_LEAST = {"layer": 0, "width": 1, "classes": 2}
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

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join([
            json.dumps(HEADER), "", json.dumps(RECORD), "  \t",
            json.dumps({**RECORD, "id": "s1"}), ""]) + "\n")
        header, records = read_traces(path)
        assert header == TraceHeader(layer=1, width=1, classes=2)
        assert [r.id for r in records] == ["s0", "s1"]

    def test_header_line_first(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_traces(path, TraceHeader(2, 4, 3), sample_records())
        first = json.loads(path.read_text().splitlines()[0])
        assert first == {"format": "actmon-trace", "version": 1,
                         "layer": 2, "width": 4, "classes": 3}


BLOCK = traces._BLOCK
# ids the JSON encoder escapes: a quote, a backslash, a non-ASCII letter,
# a newline and a line separator
ODD_IDS = ['q"', "b\\", "\u00e9", "n\n", "\u2028"]
# values with the float reprs that differ most: signed zeros, the least
# subnormal, exponent forms, values whose squares overflow
ODD_VALUES = [0.0, -0.0, 5e-324, 1e-05, 1e+16, 1e200, -1e200, 2.0, 0.1]


def odd_records(count, width=6, kind="float64", seed=0):
    """``count`` records over 3 classes whose values repeat, whose ids need
    escaping, and whose labels are Python or numpy integers; every row has
    its own id.  The first block holds ``0.0`` and ``-0.0``, but for the
    float64 kinds whose cells are all ``0.0`` ("zeros"), none of them zero
    ("no-zeros"), or each ``0.0`` or ``-0.0`` ("signed-zeros")."""
    rng = np.random.default_rng(seed)
    acts = np.where(rng.random((count, width)) < 0.6,
                    rng.choice(ODD_VALUES, (count, width)),
                    rng.normal(size=(count, width)))
    if count:
        acts[0, :2] = 0.0, -0.0
    if kind == "zeros":
        acts[:] = 0.0
    elif kind == "no-zeros":
        acts[acts == 0.0] = 0.25  # -0.0 too
    elif kind == "signed-zeros":
        acts = np.copysign(0.0, acts)
    labels = rng.integers(0, 3, (count, 2))
    records = []
    for i, (row, (true_label, pred_label)) in enumerate(zip(acts, labels)):
        if kind == "float32":
            # float32 has no 1e200
            row = np.where(abs(row) < 1e30, row, 3.5).astype(np.float32)
        records.append(TraceRecord(
            f"{ODD_IDS[i % len(ODD_IDS)]}{i}",
            int(true_label) if i % 2 else np.int64(true_label),
            np.uint8(pred_label) if i % 3 else int(pred_label),
            row.tolist() if kind == "list" else row))
    return records


def per_record_bytes(header, records) -> bytes:
    """A trace file as one ``JSON_LINE`` call per record's dict: the
    reference the block-wise writer must equal, in its bytes and in what
    it raises."""
    lines = [JSON_LINE({"format": "actmon-trace", "version": 1,
                        **vars(header)})]
    for record in records:
        true_label, pred_label, acts = traces._writable(
            record.id, record.true_label, record.pred_label,
            record.activations, header)
        try:
            lines.append(JSON_LINE({"id": record.id, "true_label": true_label,
                                    "pred_label": pred_label,
                                    "activations": acts.tolist()}))
        except ValueError:
            raise ValueError(f"record {record.id!r}: non-finite activation "
                             f"value") from None
    return "".join(line + "\n" for line in lines).encode()


class TestBlockWriter:
    """``write_traces`` checks a block of records at once and formats each
    distinct nonzero value once per block; its bytes and refusals are
    those of the per-record rule."""

    HEADER = TraceHeader(layer=1, width=6, classes=3)

    @pytest.mark.parametrize("kind", ["float64", "float32", "list", "zeros",
                                      "no-zeros", "signed-zeros"])
    @pytest.mark.parametrize("count", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1,
                                       2 * BLOCK + 1])
    def test_bytes_equal_the_per_record_rule(self, tmp_path, count, kind):
        path = tmp_path / "t.jsonl"
        records = odd_records(count, kind=kind)
        write_traces(path, self.HEADER, records)
        assert path.read_bytes() == per_record_bytes(self.HEADER, records)
        header, loaded = read_traces(path)
        assert header == self.HEADER
        assert [(r.id, r.true_label, r.pred_label) for r in loaded] \
            == [(r.id, int(r.true_label), int(r.pred_label))
                for r in records]
        want = np.array([np.asarray(r.activations, np.float64)
                         for r in records]).reshape(count, 6)
        got = np.array([r.activations for r in loaded]).reshape(count, 6)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_each_value_has_its_json_text(self, tmp_path):
        path = tmp_path / "t.jsonl"
        records = [TraceRecord("s0", 0, 0, np.array(ODD_VALUES[:6])),
                   TraceRecord("s1", 1, 1, np.array(ODD_VALUES[3:]))]
        write_traces(path, self.HEADER, records)
        assert path.read_text().splitlines()[1:] == [
            '{"id":"s0","true_label":0,"pred_label":0,"activations":'
            '[0.0,-0.0,5e-324,1e-05,1e+16,1e+200]}',
            '{"id":"s1","true_label":1,"pred_label":1,"activations":'
            '[1e-05,1e+16,1e+200,-1e+200,2.0,0.1]}']

    def test_one_shot_generator_written_in_full(self, tmp_path):
        path = tmp_path / "t.jsonl"
        records = odd_records(2 * BLOCK + 1)
        write_traces(path, self.HEADER, (r for r in records))
        assert path.read_bytes() == per_record_bytes(self.HEADER, records)

    @pytest.mark.parametrize("k, j", [
        (5, 9), (9, 5), (BLOCK - 1, BLOCK), (BLOCK, BLOCK - 1),
        (3, BLOCK + 3), (BLOCK + 3, 3), (7, 7)])
    @pytest.mark.parametrize("fault", ["label", "width", "type"])
    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    def test_first_fault_in_the_file_is_named(self, tmp_path, k, j, fault,
                                              value):
        path = tmp_path / "t.jsonl"
        path.write_text("old contents\n")
        records = odd_records(BLOCK + 10)
        records[k].activations[2] = value
        if fault == "label":
            records[j].pred_label = 3
        elif fault == "width":
            records[j].activations = records[j].activations[:5]
        else:
            records[j].true_label = True
        with pytest.raises(ValueError) as want:
            per_record_bytes(self.HEADER, records)
        first = records[min(k, j)].id
        assert str(want.value).startswith(f"record {first!r}: ")
        with pytest.raises(ValueError) as got:
            write_traces(path, self.HEADER, records)
        assert str(got.value) == str(want.value)
        assert path.read_text() == "old contents\n"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("nan_at", [None, 3])
    @pytest.mark.parametrize("failure", ["source", "not-a-record"])
    def test_other_failures_come_after_earlier_faults(self, tmp_path,
                                                      nan_at, failure):
        path = tmp_path / "t.jsonl"
        path.write_text("old contents\n")
        records = odd_records(10)
        if nan_at is not None:
            records[nan_at].activations[0] = math.nan

        def source():
            yield from records[:7]
            if failure == "source":
                raise RuntimeError("the source failed")
            yield "not a record"
            yield from records[7:]

        with pytest.raises(Exception) as want:
            per_record_bytes(self.HEADER, source())
        assert (want.type is ValueError) == (nan_at is not None)
        with pytest.raises(Exception) as got:
            write_traces(path, self.HEADER, source())
        assert (got.type, str(got.value)) == (want.type, str(want.value))
        assert path.read_text() == "old contents\n"
        assert list(tmp_path.iterdir()) == [path]



def per_line_read(path):
    """``read_traces`` one line at a time: the reference the block-wise
    reader must equal, in what it returns and in what it raises."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            first = fh.readline()
            if not first.strip():
                raise SchemaError("trace file is empty")
            header = traces._parse_header(first)
            records = []
            for line_no, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                records.append(traces._parse_record(line, line_no, header))
        except UnicodeDecodeError as exc:
            raise SchemaError(f"trace file is not UTF-8 text: {exc}") from exc
    if records and not all_finite(
            np.concatenate([r.activations for r in records])):
        bad = next(r for r in records if not all_finite(r.activations))
        raise SchemaError(f"record {bad.id!r}: non-finite activation value")
    return header, records


def outcome(read, path):
    """What ``read`` makes of ``path``: the header and each record's
    fields, label types and activation bits, or the exception's class and
    message."""
    try:
        header, records = read(path)
    except Exception as exc:
        return type(exc), str(exc)
    return header, [(r.id, type(r.true_label), r.true_label,
                     type(r.pred_label), r.pred_label, r.activations.dtype,
                     r.activations.shape, r.activations.tobytes())
                    for r in records]


def fault(kind, line):
    """A record line of ``odd_records`` broken in one way."""
    record = json.loads(line)
    if kind == "label":
        record["true_label"] = 3
    elif kind == "bool-label":
        record["pred_label"] = True
    elif kind == "width":
        record["activations"].pop()
    elif kind == "string-value":
        record["activations"][0] = "0.5"
    elif kind == "huge-int":
        record["activations"][0] = 10 ** 400
    elif kind == "id":
        record["id"] = 5
    elif kind == "missing-key":
        del record["pred_label"]
    elif kind == "not-a-record":
        record = [record]
    elif kind == "truncated":
        return line[:-3]
    elif kind == "extra-data":
        return line + line
    elif kind == "deep":
        return "[" * 100_000
    return JSON_LINE(record)


class TestBlockReader:
    """``read_traces`` checks a block of lines at once; what it returns
    and what it refuses are those of the per-line reader."""

    HEADER = TraceHeader(layer=1, width=6, classes=3)

    @pytest.fixture(scope="class")
    def clean(self, tmp_path_factory):
        """The lines of a file of two full blocks and three records."""
        path = tmp_path_factory.mktemp("reader") / "t.jsonl"
        write_traces(path, self.HEADER, odd_records(2 * BLOCK + 3))
        return path.read_text().splitlines()

    @pytest.fixture
    def lines(self, clean, tmp_path):
        """A copy of the clean lines to edit, and where to write them."""
        return tmp_path / "t.jsonl", list(clean)

    @pytest.mark.parametrize("line", [BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 2,
                                      BLOCK + 3])
    @pytest.mark.parametrize("kind", [
        "label", "bool-label", "width", "string-value", "huge-int", "id",
        "missing-key", "not-a-record", "truncated", "extra-data", "deep"])
    def test_fault_at_a_block_edge_names_its_line(self, lines, line, kind):
        path, lines = lines
        lines[line - 1] = fault(kind, lines[line - 1])
        path.write_text("\n".join(lines) + "\n")
        want = outcome(per_line_read, path)
        assert want[0] is SchemaError
        assert want[1].startswith(f"line {line}: malformed trace record: ")
        assert outcome(read_traces, path) == want

    @pytest.mark.parametrize("malformed", [None, 6, BLOCK + 5])
    def test_non_finite_check_runs_after_the_parse(self, lines, malformed):
        path, lines = lines
        record = json.loads(lines[4])
        record["activations"][1] = 12345.678
        lines[4] = JSON_LINE(record).replace("12345.678", "1e999")
        if malformed is not None:
            lines[malformed - 1] = fault("truncated", lines[malformed - 1])
        path.write_text("\n".join(lines) + "\n")
        want = outcome(per_line_read, path)
        assert want[1].startswith(
            f"record {record['id']!r}: non-finite" if malformed is None
            else f"line {malformed}: malformed trace record: ")
        assert outcome(read_traces, path) == want

    @pytest.mark.parametrize("odd", ["blank", "whitespace-led",
                                     "trailing-whitespace", "crlf",
                                     "extra-data"])
    def test_odd_lines_in_a_full_block(self, lines, odd, monkeypatch):
        path, lines = lines
        ids = [json.loads(line)["id"] for line in lines[1:]]
        for at in (3, BLOCK // 2, BLOCK - 1):
            if odd == "blank":
                lines[at] = "\n  \t\n" + lines[at] + "\n"
            elif odd == "whitespace-led":
                lines[at] = " \t" + lines[at]
            elif odd == "trailing-whitespace":
                lines[at] += " \t"
            elif odd == "extra-data":
                lines[at] = fault("extra-data", lines[at])
        newline = "\r\n" if odd == "crlf" else "\n"
        path.write_bytes((newline.join(lines) + newline).encode())
        want = outcome(per_line_read, path)
        if odd == "extra-data":
            assert want[1].startswith("line 4: malformed trace record: "
                                      "Extra data")
        else:
            assert [row[0] for row in want[1]] == ids
        assert outcome(read_traces, path) == want
        # each odd line but a blank one is read again alone, not its block
        read_again = []
        parse = traces._parse_record

        def counted(line, line_no, header):
            read_again.append(line_no)
            return parse(line, line_no, header)

        monkeypatch.setattr(traces, "_parse_record", counted)
        assert outcome(read_traces, path) == want
        assert read_again == {
            "whitespace-led": [4, BLOCK // 2 + 1, BLOCK],
            "trailing-whitespace": [4, BLOCK // 2 + 1, BLOCK],
            "extra-data": [4]}.get(odd, [])

    def test_records_own_their_rows(self, lines):
        path, lines = lines
        path.write_text("\n".join(lines) + "\n")
        _, records = read_traces(path)
        _, again = read_traces(path)
        records[BLOCK - 1].activations[:] = 7.0
        for i, (a, b) in enumerate(zip(records, again)):
            if i != BLOCK - 1:
                assert a.activations.tobytes() == b.activations.tobytes()

    # tokens a mutation puts where a number, label or id was
    TOKENS = ["1e999", "-1e999", "NaN", "true", "null", '"0.5"', "1" * 400,
              "2", "-0.0", "1e-400", "3", "-1", "1.0", "[]", "{}"]

    @pytest.mark.parametrize("seed", range(3))
    def test_equals_the_per_line_reader(self, lines, seed):
        # seeded mutations of a file of two full blocks and three lines,
        # many at the block edges: the same header and bit-identical
        # records, or the same exception class and message
        rng = random.Random(seed)
        path, clean = lines
        for _ in range(20):
            lines = list(clean)
            for _ in range(rng.randint(1, 3)):
                at = rng.choice((rng.randrange(1, len(lines)),
                                 rng.randint(BLOCK - 2, BLOCK + 3),
                                 rng.randint(2 * BLOCK - 1, len(lines) - 1)))
                at = min(at, len(lines) - 1)
                line = lines[at]
                # a byte that is not UTF-8 fails the whole file: rarely
                op = rng.choices(range(9), [3, 2, 4, 1, 1, 2, 2, 2, 0.3])[0]
                if op == 0 and line:  # one character changed
                    i = rng.randrange(len(line))
                    line = line[:i] + rng.choice('09"-.,:[]{} et') \
                        + line[i + 1:]
                elif op == 1 and line:  # one character gone
                    i = rng.randrange(len(line))
                    line = line[:i] + line[i + 1:]
                elif op == 2:  # a token in place of a value
                    spans = [i for i, c in enumerate(line) if c in ":,["]
                    if spans:
                        i = rng.choice(spans) + 1
                        j = min((k for k in (line.find(",", i),
                                             line.find("]", i),
                                             line.find("}", i)) if k >= 0),
                                default=len(line))
                        line = line[:i] + rng.choice(self.TOKENS) + line[j:]
                elif op == 3:  # joined with the next line
                    if at + 1 < len(lines):
                        line += lines.pop(at + 1)
                elif op == 4:  # split in two
                    i = rng.randrange(len(line) + 1)
                    line = line[:i] + "\n" + line[i:]
                elif op == 5:  # a blank line before
                    line = rng.choice(["", " ", "\t "]) + "\n" + line
                elif op == 6:
                    line = rng.choice([" ", "\t"]) + line
                elif op == 7:
                    line = fault(rng.choice(["label", "width", "id",
                                             "extra-data", "deep"]),
                                 clean[at]) if at else line
                else:  # a byte that is not UTF-8
                    line = line.replace('"', '"\udcff', 1)
                lines[at] = line
            text = "\n".join(lines) + "\n"
            path.write_bytes(text.encode("utf-8", "surrogateescape"))
            assert outcome(read_traces, path) \
                == outcome(per_line_read, path), lines

class TestRecord:
    def test_slotted(self):
        record = sample_records(count=1)[0]
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.score = 0.5
        record.pred_label = 2  # its own fields stay writable
        assert record.pred_label == 2


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
        bound = "<= 2" if value > 0 else ">= 0"
        with pytest.raises(ValueError,
                           match=f"label must be {bound}, got {value}"):
            write_traces(path, TraceHeader(1, 4, 3), records)
        assert path.read_text() == "old contents\n"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_activation_not_written(self, tmp_path, value):
        path = tmp_path / "t.jsonl"
        path.write_text("old contents\n")
        records = sample_records()
        records[3].activations[1] = value
        with pytest.raises(ValueError,
                           match="record 's3': non-finite activation"):
            write_traces(path, TraceHeader(1, 4, 3), records)
        assert path.read_text() == "old contents\n"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("width", [10 ** 8, 10 ** 15, 10 ** 20])
    def test_huge_width_on_short_lines(self, tmp_path, capsys, width):
        # the block's array is sized from its lines, not from the header
        path = tmp_path / "t.jsonl"
        record = JSON_LINE({**RECORD, "activations": [1.0, 0.0]})
        path.write_text(JSON_LINE({**HEADER, "width": width}) + "\n"
                        + (record + "\n") * 3)
        message = (f"line 2: malformed trace record: activation shape (2,) "
                   f"does not match header width {width}")
        with pytest.raises(SchemaError) as exc:
            read_traces(path)
        assert str(exc.value) == message
        out = tmp_path / "m.json"
        assert main(["build", "--traces", str(path), "--gamma", "0",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_version_must_be_an_exact_int(self, tmp_path, version):
        path = tmp_path / "t.jsonl"
        path.write_text(f"{json.dumps({**HEADER, 'version': version})}\n"
                        f"{json.dumps(RECORD)}\n")
        with pytest.raises(FormatVersionError,
                           match=f"^unsupported trace version {version}$"):
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

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_token_names_the_line(self, tmp_path, token):
        path = tmp_path / "t.jsonl"
        lines = [json.dumps(HEADER)] + [json.dumps(RECORD)] * 3
        lines[2] = lines[2].replace("[1.0]", f"[{token}]")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match="line 3: .*non-finite"):
            read_traces(path)

    def test_non_finite_token_in_header(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps(HEADER).replace('"width": 1',
                                                   '"width": NaN') + "\n")
        with pytest.raises(SchemaError, match="header .*non-finite"):
            read_traces(path)

    @pytest.mark.parametrize("line", [1, 2])
    def test_not_utf8_is_schema_error(self, tmp_path, line):
        path = tmp_path / "t.jsonl"
        lines = [json.dumps(HEADER).encode(), json.dumps(RECORD).encode()]
        lines[line - 1] = lines[line - 1].replace(b'"', b'"\xff', 1)
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(SchemaError, match="not UTF-8"):
            read_traces(path)

    @pytest.mark.parametrize("activations, bad", [
        (["0.5", True], "'0.5'"), ([0.5, True], "True"),
        ([False, 0.5], "False"), ([None, 1.0], "None"),
        ([[1.0], 2.0], r"\[1\.0\]"), (1.0, r"1\.0"), ("0.5", "'0.5'"),
        ({"a": 1.0}, r"\{'a': 1\.0\}"),
    ], ids=["string", "true", "false", "null", "nested", "scalar",
            "string-value", "object"])
    def test_activations_must_be_a_list_of_numbers(self, tmp_path,
                                                   activations, bad):
        path = tmp_path / "t.jsonl"
        record = dict(RECORD, activations=activations)
        path.write_text(f"{json.dumps(dict(HEADER, width=2))}\n"
                        f"{json.dumps(record)}\n")
        with pytest.raises(SchemaError, match=(
                f"^line 2: malformed trace record: activations must hold "
                f"numbers, got {bad}$")):
            read_traces(path)

    def test_integer_activations_read_as_floats(self, tmp_path):
        path = tmp_path / "t.jsonl"
        record = dict(RECORD, activations=[0, 2, 1.5])
        path.write_text(f"{json.dumps(dict(HEADER, width=3))}\n"
                        f"{json.dumps(record)}\n")
        acts = read_traces(path)[1][0].activations
        assert acts.dtype == np.float64 and acts.tolist() == [0.0, 2.0, 1.5]

    @pytest.mark.parametrize("part, field, value", [
        ("header", "layer", 1.9),
        ("header", "layer", True),
        ("header", "width", 1.0),
        ("header", "classes", "2"),
        ("header", "width", 0),
        ("header", "classes", 1),
        ("header", "layer", -1),
        ("header", "layer", 2 ** 63),
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
        message = f"{field} {value!r} is not an integer" \
            if type(value) is not int \
            else f"{field} must be >= {HEADER_LEAST[field]}, got {value}" \
            if value < HEADER_LEAST[field] \
            else f"{field} must be <= {2 ** 63 - 1}, got {value}"
        with pytest.raises(SchemaError, match=f"{re.escape(message)}$"):
            read_traces(path)


def per_row_extract(model, inputs, labels, layer):
    """``extract`` one row at a time through the per-record rule: the
    reference the block-wise ``extract`` must equal, in what it returns
    and in what it raises."""
    header = TraceHeader(layer, model.layer_width(layer), model.class_count)
    trace = forward(model, inputs)
    rows = zip(labels, decide(trace.final), trace.outputs[layer], strict=True)
    return header, [
        TraceRecord(f"s{i}", *traces._writable(f"s{i}", *row, header))
        for i, row in enumerate(rows)]


def with_label(labels, at, value):
    """A list of ``labels`` with ``value`` at ``at``."""
    labels = labels.tolist()
    labels[at] = value
    return labels


# label inputs for a dataset of two blocks and a few rows, as functions of
# its int64 labels
EXTRACT_LABELS = {
    "int-list": lambda y: y.tolist(),
    "int64-array": lambda y: y,
    "int32-array": lambda y: y.astype(np.int32),
    "uint8-array": lambda y: y.astype(np.uint8),
    "numpy-scalars": list,
    "bool-array": lambda y: y.astype(bool),
    "float-array": lambda y: y.astype(np.float64),
    "fractional-array": lambda y: y + 0.5,
    "true": lambda y: with_label(y, 5, True),
    "string": lambda y: with_label(y, BLOCK - 1, "2"),
    "above": lambda y: with_label(y, BLOCK, 3),
    "negative": lambda y: with_label(y, BLOCK + 2, -1),
    "shorter": lambda y: y.tolist()[:-1],
    "longer": lambda y: y.tolist() + [0],
    "short-bad-first": lambda y: ["x", 1, 2],
    "generator": lambda y: (int(v) for v in y),
    "object-array": lambda y: y.astype(object),
    "empty": lambda y: [],
}


class TestExtract:
    @pytest.fixture(scope="class")
    def model_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("extract") / "model.json"
        assert main(["train-toy", "--seed", "5", "--per-class", "40",
                     "--epochs", "5", "--out", str(path)]) == 0
        return path

    def test_same_bytes_as_the_cli(self, model_path, tmp_path):
        cli_out = tmp_path / "cli.jsonl"
        assert main(["extract", "--model", str(model_path), "--layer", "1",
                     "--seed", "5", "--per-class", "40",
                     "--out", str(cli_out)]) == 0
        x, y = make_blobs(seed=5, per_class=40)
        header, records = extract(load_model(model_path), x, y, 1)
        lib_out = tmp_path / "lib.jsonl"
        write_traces(lib_out, header, records)
        assert lib_out.read_bytes() == cli_out.read_bytes()
        assert read_traces(lib_out)[0] == header
        assert [r.id for r in records] == [f"s{i}" for i in range(len(y))]

    def test_non_relu_layer_rejected(self, model_path):
        x, y = make_blobs(seed=5, per_class=2)
        with pytest.raises(ValueError, match="layer 2 is not a ReLU layer"):
            extract(load_model(model_path), x, y, 2)

    def test_no_rows(self, model_path):
        header, records = extract(load_model(model_path), [], [], 1)
        assert records == [] and header.width == 14

    @pytest.mark.parametrize("inputs, message", [
        (np.ones((2, 3)), r"^input shape \(2, 3\) does not match layer 0 "
                          r"input width 2$"),
        (np.ones((3, 1, 2)), r"^inputs must be a 2-D batch, got shape "
                             r"\(3, 1, 2\)$"),
        (np.ones(4), r"^inputs must be a 2-D batch, got shape \(4,\)$"),
    ], ids=["wide-rows", "3-D", "flat"])
    def test_inputs_must_be_rows_of_the_input_width(self, model_path, inputs,
                                                     message):
        with pytest.raises(ValueError, match=message):
            extract(load_model(model_path), inputs, list(range(len(inputs))),
                    1)

    @pytest.mark.parametrize("drop", ["inputs", "labels"])
    def test_length_mismatch_rejected(self, model_path, drop):
        x, y = make_blobs(seed=5, per_class=2)
        if drop == "inputs":
            x = x[:-1]
        else:
            y = y[:-1]
        with pytest.raises(ValueError, match=r"zip\(\) argument 2"):
            extract(load_model(model_path), x, y, 1)

    @pytest.mark.parametrize("labels, message", [
        ([1.9, True, 7], "record 's0': true_label 1.9 is not an integer"),
        ([1, True, 2], "record 's1': true_label True is not an integer"),
        ([1, np.True_, 2],
         "record 's1': true_label np.True_ is not an integer"),
        ([0, 1, "2"], "record 's2': true_label '2' is not an integer"),
        ([0, 1, 2.0], "record 's2': true_label 2.0 is not an integer"),
        ([0, 1, 3], "record 's2': true_label must be <= 2, got 3"),
        ([0, -1, 1], "record 's1': true_label must be >= 0, got -1"),
        ([0, np.int64(7), 1], "record 's1': true_label must be <= 2, got 7"),
    ], ids=["float", "bool", "numpy-bool", "string", "integral-float",
            "above", "negative", "numpy-above"])
    def test_label_must_be_a_class_index(self, model_path, labels, message):
        x, _ = make_blobs(seed=5, per_class=1)
        with pytest.raises(ValueError, match=message):
            extract(load_model(model_path), x, labels, 1)

    @pytest.mark.parametrize("labels", [
        [0, 1, 2],
        np.array([0, 1, 2], dtype=np.int64),
        [np.int32(0), np.uint8(1), np.int64(2)],
    ], ids=["int", "int64-array", "numpy-scalars"])
    def test_python_and_numpy_integers_accepted(self, model_path, labels):
        x, _ = make_blobs(seed=5, per_class=1)
        _, records = extract(load_model(model_path), x, labels, 1)
        assert [r.true_label for r in records] == [0, 1, 2]
        assert all(type(r.true_label) is int for r in records)

    @pytest.mark.parametrize("kind", EXTRACT_LABELS)
    def test_equals_the_per_row_extract(self, model_path, kind):
        # the same ids, label types and values and activation bytes, or
        # the same exception class and message
        model = load_model(model_path)
        x, y = make_blobs(seed=5, per_class=BLOCK // 3 + 2)
        labels = EXTRACT_LABELS[kind]
        want = outcome(
            lambda _: per_row_extract(model, x, labels(y), 1), None)
        got = outcome(lambda _: extract(model, x, labels(y), 1), None)
        assert got == want
        if got[0] is not ValueError:
            assert [row[2] for row in got[1]] == y.tolist()


class TestBatchMatchesRows:
    """``extract`` and ``evaluate_accuracy`` run the network once on the
    whole batch; every row must come out as a pass of that row alone."""

    @pytest.fixture(scope="class")
    def toy(self):
        from test_acceptance import toy_data
        return toy_data(7, offset=2.0)

    @pytest.mark.parametrize("layer", [0, 1])
    @pytest.mark.parametrize("split", ["train", "shifted"])
    def test_records_match_per_row_forward(self, toy, layer, split):
        model, train, shifted = toy
        x, y = train if split == "train" else shifted
        _, records = extract(model, x, y, layer)
        assert len(records) == len(y)
        for row, record in zip(x, records):
            trace = forward(model, row)
            assert record.activations.tobytes() \
                == trace.outputs[layer].tobytes()
            assert record.pred_label == decide(trace.final)

    def test_accuracy_is_the_per_row_hit_count(self, toy):
        model, *datasets = toy
        for x, y in datasets:
            hits = sum(decide(forward(model, row).final) == label
                       for row, label in zip(x, y))
            assert evaluate_accuracy(model, x, y) == hits / len(y)

    @pytest.mark.parametrize("inputs", [[], np.zeros((0, 2))],
                             ids=["list", "array"])
    def test_no_inputs_give_no_records(self, toy, inputs):
        header, records = extract(toy[0], inputs, [], 1)
        assert header == TraceHeader(layer=1, width=14, classes=3)
        assert records == []

    @pytest.mark.parametrize("inputs", [[0.5, 1.0], np.zeros((4, 3))],
                             ids=["one-row", "too-wide"])
    def test_inputs_must_be_rows_of_input_width(self, toy, inputs):
        with pytest.raises(ValueError):
            extract(toy[0], inputs, [0] * len(inputs), 1)


def integer_like(value):
    """The oracle of ``as_int``: a Python or numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) \
        and not isinstance(value, (bool, np.bool_))


# field values a caller may hand the writer: valid, numpy, and the kinds of
# value a JSON reader would refuse
FIELD_VALUES = [0, 1, 2, 3, -1, np.int64(2), np.int32(1), np.uint8(3), True,
                False, np.True_, 2.0, 1.5, "2", None]


class TestWriterRefusesWhatReaderRefuses:
    @pytest.mark.parametrize("header, message", [
        (TraceHeader(0, 2, 1), "classes must be >= 2, got 1"),
        (TraceHeader(0, 0, 3), "width must be >= 1, got 0"),
        (TraceHeader(True, 2, 3), "layer True is not an integer"),
        (TraceHeader(0, 2.0, 3), "width 2.0 is not an integer"),
        (TraceHeader(0, 2, "3"), "classes '3' is not an integer"),
        (TraceHeader(-1, 2, 3), "layer must be >= 0, got -1"),
        (TraceHeader(2 ** 63, 2, 3),
         f"layer must be <= {2 ** 63 - 1}, got {2 ** 63}"),
    ], ids=["one-class", "zero-width", "bool-layer", "float-width",
            "string-classes", "negative-layer", "layer-beyond-int64"])
    def test_bad_header_not_written(self, tmp_path, header, message):
        path = tmp_path / "t.jsonl"
        path.write_text("old contents\n")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            write_traces(path, header, [])
        assert path.read_text() == "old contents\n"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("label", [True, np.True_, 1.0, "1", None])
    def test_non_integer_label_not_written(self, tmp_path, label):
        path = tmp_path / "t.jsonl"
        path.write_text("old contents\n")
        records = sample_records()
        records[2].pred_label = label
        with pytest.raises(ValueError, match="record 's2': pred_label"):
            write_traces(path, TraceHeader(1, 4, 3), records)
        assert path.read_text() == "old contents\n"

    @pytest.mark.parametrize("rid", [5, None], ids=["int", "none"])
    def test_id_is_a_string_on_both_sides(self, tmp_path, rid):
        path = tmp_path / "t.jsonl"
        path.write_text("old contents\n")
        records = sample_records()
        records[2].id = rid
        with pytest.raises(ValueError, match=f"record {rid!r}: id"):
            write_traces(path, TraceHeader(1, 4, 3), records)
        assert path.read_text() == "old contents\n"
        assert list(tmp_path.iterdir()) == [path]
        # the reader refuses the same id, naming its line
        records[2].id = "s2"
        write_traces(path, TraceHeader(1, 4, 3), records)
        lines = path.read_text().splitlines()
        lines[3] = lines[3].replace('"s2"', json.dumps(rid))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match=(
                f"line 4: malformed trace record: id {rid!r} is not a "
                f"string")):
            read_traces(path)

    @pytest.mark.parametrize("field, value, message", [
        ("true_label", 3, "true_label must be <= 2, got 3"),
        ("pred_label", -1, "pred_label must be >= 0, got -1"),
        ("true_label", True, "true_label True is not an integer"),
        ("pred_label", 1.5, "pred_label 1.5 is not an integer"),
        ("id", 5, "id 5 is not a string"),
        ("activations", [0.5, 1.0, 2.0],
         "activation shape (3,) does not match header width 4"),
        ("activations", [10 ** 400, 0.0, 0.0, 0.0],
         "activations beyond the float64 range"),
        ("activations", ["0.5", True, 0.0, 0.0],
         "activations must hold numbers, got '0.5'"),
        ("activations", [None, 1.0, 0.0, 0.0],
         "activations must hold numbers, got None"),
        ("activations", {"a": 1.0},
         "activations must hold numbers, got {'a': 1.0}"),
    ], ids=["true-above", "pred-negative", "bool-label", "float-label",
            "int-id", "short-row", "int-beyond-float64", "string-and-bool",
            "none", "dict"])
    def test_one_fault_in_the_same_words(self, tmp_path, field, value,
                                         message):
        """The writer's message after ``record '<id>': `` is the reader's
        after ``line N: malformed trace record: `` for the same fault."""
        header = TraceHeader(1, 4, 3)
        good = {"id": "s0", "true_label": 1, "pred_label": 2,
                "activations": [0.5, 0.0, -1.0, 2.0]}
        bad = {**good, "id": "s1", field: value}
        path = tmp_path / "t.jsonl"
        path.write_text("old contents\n")
        with pytest.raises(ValueError) as written:
            write_traces(path, header, [TraceRecord(**good),
                                        TraceRecord(**bad)])
        assert path.read_text() == "old contents\n"
        path.write_text("".join(JSON_LINE(line) + "\n" for line in [
            {"format": "actmon-trace", "version": 1, **vars(header)},
            good, bad]))
        with pytest.raises(SchemaError) as read:
            read_traces(path)
        assert str(written.value) == f"record {bad['id']!r}: {message}"
        assert str(read.value) == f"line 3: malformed trace record: {message}"

    def test_a_bool_is_a_number_only_among_numbers(self, tmp_path):
        """The writer reads activations as numpy does: a bool among
        numbers is 0 or 1, and bools alone are no numbers."""
        path = tmp_path / "t.jsonl"
        header = TraceHeader(1, 2, 3)
        write_traces(path, header, [TraceRecord("s0", 0, 0, [True, 0.5])])
        assert read_traces(path)[1][0].activations.tolist() == [1.0, 0.5]
        for acts in ([True, False], np.array([True, False])):
            with pytest.raises(ValueError, match=(
                    "^record 's0': activations must hold numbers, got True$")):
                write_traces(path, header, [TraceRecord("s0", 0, 0, acts)])

    @pytest.mark.parametrize("bools_first", [True, False],
                             ids=["bools-first", "floats-first"])
    def test_bools_alone_are_refused_in_any_block(self, tmp_path,
                                                  bools_first):
        """A record of bools alone is refused beside a float record of its
        block, in either order, as it is alone."""
        path = tmp_path / "t.jsonl"
        path.write_text("old contents\n")
        records = [TraceRecord("s0", 0, 0, [True, False]),
                   TraceRecord("s1", 0, 0, [0.5, 1.0])]
        with pytest.raises(ValueError, match=(
                "^record 's0': activations must hold numbers, got True$")):
            write_traces(path, TraceHeader(1, 2, 3),
                         records if bools_first else records[::-1])
        assert path.read_text() == "old contents\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_numpy_integers_written_as_ints(self, tmp_path):
        path = tmp_path / "t.jsonl"
        records = sample_records()
        for record in records:
            record.true_label = np.int64(record.true_label)
            record.pred_label = np.uint8(record.pred_label)
        write_traces(path, TraceHeader(np.int64(1), np.int32(4),
                                       np.int64(3)), records)
        header, loaded = read_traces(path)
        assert header == TraceHeader(1, 4, 3)
        assert [(r.true_label, r.pred_label) for r in loaded] \
            == [(int(r.true_label), int(r.pred_label)) for r in records]

    @pytest.mark.parametrize("seed", range(4))
    def test_round_trip_or_refusal(self, tmp_path, seed):
        # random record lists that mix valid records with bad ones: either
        # the writer refuses (ValueError, old file kept), or the reader
        # returns the same header and records; the oracle says which
        rng = random.Random(seed)
        path = tmp_path / "t.jsonl"
        for case in range(100):
            fields = [rng.choice(FIELD_VALUES) if rng.random() < 0.15
                      else rng.randint(1, 3) for _ in range(3)]
            header = TraceHeader(*fields)
            valid = all(map(integer_like, fields)) \
                and fields[1] >= 1 and fields[2] >= 2
            records = []
            for i in range(rng.randint(0, 4)):
                width = fields[1] if integer_like(fields[1]) else 2
                if rng.random() < 0.1:
                    width = max(0, int(width) + rng.choice((-1, 1)))
                acts = [rng.uniform(-2.0, 2.0) for _ in range(width)]
                if acts and rng.random() < 0.1:
                    acts[rng.randrange(width)] = rng.choice(
                        (math.nan, math.inf, -math.inf))
                labels = [rng.choice(FIELD_VALUES) if rng.random() < 0.1
                          else rng.randint(0, 1) for _ in range(2)]
                valid = valid and len(acts) == fields[1] \
                    and all(map(math.isfinite, acts)) and all(
                        integer_like(x) and 0 <= x < fields[2]
                        for x in labels)
                records.append(TraceRecord(f"s{i}", *labels, np.array(
                    acts) if rng.random() < 0.5 else acts))
            path.write_text("old contents\n")
            try:
                write_traces(path, header, records)
            except ValueError:
                assert not valid, (case, header, records)
                assert path.read_text() == "old contents\n"
                assert list(tmp_path.iterdir()) == [path]
                continue
            assert valid, (case, header, records)
            loaded_header, loaded = read_traces(path)
            assert loaded_header == TraceHeader(*map(int, fields))
            assert len(loaded) == len(records)
            for a, b in zip(records, loaded):
                assert (b.id, b.true_label, b.pred_label) \
                    == (a.id, int(a.true_label), int(a.pred_label))
                assert type(b.true_label) is type(b.pred_label) is int
                assert np.array_equal(b.activations, a.activations)


class TestOverflowingLiteral:
    def _write(self, path, activation):
        path.write_text(f"{json.dumps(HEADER)}\n{json.dumps(RECORD)}\n"
                        + json.dumps(RECORD).replace('"s0"', '"s1"').replace(
                            "[1.0]", f"[{activation}]") + "\n")

    def test_values_whose_squares_overflow_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        records = [TraceRecord("s0", 0, 1, np.array([1e200, -1e200])),
                   TraceRecord("s1", 1, 1, np.array([-0.0, 1e-300]))]
        write_traces(path, TraceHeader(1, 2, 2), records)
        _, loaded = read_traces(path)
        assert [r.activations.tolist() for r in loaded] \
            == [[1e200, -1e200], [-0.0, 1e-300]]

    def test_bad_record_found_past_huge_values(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(f"{json.dumps(HEADER)}\n" + "".join(
            json.dumps(dict(RECORD, id=f"s{i}")).replace("[1.0]", f"[{v}]")
            + "\n" for i, v in enumerate(["1e200", "-1e200", "1e999"])))
        with pytest.raises(SchemaError,
                           match="record 's2': non-finite activation"):
            read_traces(path)

    def test_huge_integer_names_the_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self._write(path, "1" * 400)
        with pytest.raises(SchemaError, match="line 3: "):
            read_traces(path)

    @pytest.mark.parametrize("literal", ["1e999", "-1e999", "1" * 400 + ".0"],
                             ids=["inf", "minus-inf", "huge-float"])
    def test_overflowing_float_is_schema_error(self, tmp_path, literal):
        path = tmp_path / "t.jsonl"
        self._write(path, literal)
        with pytest.raises(SchemaError,
                           match="record 's1': non-finite activation"):
            read_traces(path)
