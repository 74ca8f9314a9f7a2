"""JSON-lines trace files: the interchange format between a network run
and the monitor.

Line 1 is a header object::

    {"format":"actmon-trace","version":1,"layer":4,"width":40,"classes":10}

Every following line is one record::

    {"id":"s1","true_label":3,"pred_label":3,"activations":[0.0,1.25,...]}

``layer`` names the monitored layer, ``width`` its neuron count (the length
of every activation vector), ``classes`` the number of classes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (FormatVersionError, SchemaError, exact_int,
                     replace_on_success)

TRACE_FORMAT = "actmon-trace"
TRACE_VERSION = 1


@dataclass
class TraceHeader:
    layer: int
    width: int
    classes: int


@dataclass
class TraceRecord:
    """One sample's monitored-layer activations plus both labels."""

    id: str
    true_label: int
    pred_label: int
    activations: np.ndarray


def write_traces(path, header: TraceHeader, records) -> None:
    with replace_on_success(path) as fh:
        head = {
            "format": TRACE_FORMAT,
            "version": TRACE_VERSION,
            "layer": header.layer,
            "width": header.width,
            "classes": header.classes,
        }
        fh.write(json.dumps(head, separators=(",", ":")) + "\n")
        for record in records:
            acts = np.asarray(record.activations, dtype=np.float64)
            if acts.shape != (header.width,):
                raise ValueError(
                    f"record {record.id!r}: activation width {acts.shape} "
                    f"does not match header width {header.width}")
            for label in (record.true_label, record.pred_label):
                if not 0 <= label < header.classes:
                    raise ValueError(f"record {record.id!r}: label {label} "
                                     f"outside 0..{header.classes - 1}")
            line = {
                "id": record.id,
                "true_label": record.true_label,
                "pred_label": record.pred_label,
                "activations": acts.tolist(),
            }
            fh.write(json.dumps(line, separators=(",", ":")) + "\n")


def read_traces(path) -> tuple[TraceHeader, list[TraceRecord]]:
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first.strip():
            raise SchemaError("trace file is empty")
        header = _parse_header(first)
        records = []
        for line_no, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            records.append(_parse_record(line, line_no, header))
    return header, records


def _parse_header(line: str) -> TraceHeader:
    try:
        head = json.loads(line)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"trace header is not valid JSON: {exc}") from exc
    if not isinstance(head, dict) or head.get("format") != TRACE_FORMAT:
        raise SchemaError("first line must be an actmon-trace header")
    if head.get("version") != TRACE_VERSION:
        raise FormatVersionError(
            f"unsupported trace version {head.get('version')!r}")
    try:
        header = TraceHeader(
            layer=exact_int(head["layer"], "layer"),
            width=exact_int(head["width"], "width"),
            classes=exact_int(head["classes"], "classes"),
        )
    except (KeyError, SchemaError) as exc:
        raise SchemaError(f"malformed trace header: {exc}") from exc
    if header.width < 1 or header.classes < 2:
        raise SchemaError("trace header width/classes out of range")
    return header


def _parse_record(line: str, line_no: int, header: TraceHeader) -> TraceRecord:
    try:
        row = json.loads(line)
        record = TraceRecord(
            id=str(row["id"]),
            true_label=exact_int(row["true_label"], "true_label"),
            pred_label=exact_int(row["pred_label"], "pred_label"),
            activations=np.asarray(row["activations"], dtype=np.float64),
        )
    except (KeyError, TypeError, ValueError, SchemaError) as exc:
        raise SchemaError(f"line {line_no}: malformed trace record: {exc}") \
            from exc
    if record.activations.shape != (header.width,):
        raise SchemaError(
            f"line {line_no}: activation width "
            f"{record.activations.shape[0] if record.activations.ndim == 1 else record.activations.shape} "
            f"does not match header width {header.width}")
    for label in (record.true_label, record.pred_label):
        if not 0 <= label < header.classes:
            raise SchemaError(
                f"line {line_no}: label {label} outside 0..{header.classes - 1}")
    return record
