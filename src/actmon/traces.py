"""JSON-lines trace files: the interchange format between a network run
and the monitor.

Line 1 is a header object::

    {"format":"actmon-trace","version":1,"layer":4,"width":40,"classes":10}

Every following line is one record::

    {"id":"s1","true_label":3,"pred_label":3,"activations":[0.0,1.25,...]}

``layer`` names the monitored layer, ``width`` its neuron count (the length
of every activation vector), ``classes`` the number of classes.
:func:`extract` makes the header and records by running a model over a
dataset.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (JSON_DECODER, FormatVersionError, SchemaError, as_int,
                     exact_int, replace_on_success)
from .network import ModelSpec, decide, forward

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


def extract(model: ModelSpec, inputs, labels, layer: int) \
        -> tuple[TraceHeader, list[TraceRecord]]:
    """Run each input through ``model`` and record layer ``layer``.

    Record ``i`` is ``s{i}``: ``labels[i]`` is its true label and the
    model's decision its predicted label.  Returns the pair
    :func:`read_traces` returns for the written file.  Inputs and labels
    of different lengths raise ``ValueError``, and so does a label that
    is not a Python or numpy integer (a float, bool or string) or lies
    outside ``0..class_count-1``.
    """
    if not model.is_relu_layer(layer):
        raise ValueError(f"layer {layer} is not a ReLU layer")
    records = []
    for i, (row, label) in enumerate(zip(inputs, labels, strict=True)):
        label = as_int(label, f"record 's{i}': label")
        if not 0 <= label < model.class_count:
            raise ValueError(f"record 's{i}': label {label} outside "
                             f"0..{model.class_count - 1}")
        trace = forward(model, row)
        records.append(TraceRecord(
            id=f"s{i}",
            true_label=label,
            pred_label=decide(trace.final),
            activations=trace.outputs[layer],
        ))
    header = TraceHeader(layer, model.layer_width(layer), model.class_count)
    return header, records


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
            try:
                text = json.dumps(line, separators=(",", ":"),
                                  allow_nan=False)
            except ValueError as exc:  # JSON has no NaN or infinity
                raise ValueError(f"record {record.id!r}: non-finite "
                                 f"activation value") from exc
            fh.write(text + "\n")


def read_traces(path) -> tuple[TraceHeader, list[TraceRecord]]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            first = fh.readline()
            if not first.strip():
                raise SchemaError("trace file is empty")
            header = _parse_header(first)
            records = []
            for line_no, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                records.append(_parse_record(line, line_no, header))
        except UnicodeDecodeError as exc:
            raise SchemaError(f"trace file is not UTF-8 text: {exc}") from exc
    return header, records


def _parse_header(line: str) -> TraceHeader:
    try:
        head = JSON_DECODER.decode(line)
    except ValueError as exc:
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
        row = JSON_DECODER.decode(line)
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
