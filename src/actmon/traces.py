"""JSON-lines trace files: the interchange format between a network run
and the monitor.

Line 1 is a header object::

    {"format":"actmon-trace","version":1,"layer":4,"width":40,"classes":10}

Every following line is one record::

    {"id":"s1","true_label":3,"pred_label":3,"activations":[0.0,1.25,...]}

``layer`` names the monitored layer, ``width`` its neuron count (the length
of every activation vector), ``classes`` the number of classes.
:func:`extract` makes the header and records by running a model over a
dataset.  Writer and reader share one header rule and one record rule,
so :func:`write_traces` refuses what :func:`read_traces` refuses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (JSON_DECODER, JSON_LINE, FormatVersionError,
                     SchemaError, all_finite, as_int, exact_int,
                     replace_on_success)
from .network import ModelSpec, decide, forward

TRACE_FORMAT = "actmon-trace"
TRACE_VERSION = 1


@dataclass
class TraceHeader:
    layer: int
    width: int
    classes: int


@dataclass(slots=True)
class TraceRecord:
    """One sample's monitored-layer activations plus both labels; slotted,
    since a trace set holds one record per sample."""

    id: str
    true_label: int
    pred_label: int
    activations: np.ndarray


def extract(model: ModelSpec, inputs, labels, layer: int) \
        -> tuple[TraceHeader, list[TraceRecord]]:
    """Run the input rows through ``model`` at once, recording ``layer``.

    Record ``i`` is ``s{i}``: ``labels[i]`` is its true label and the
    model's decision its predicted label.  Returns the pair
    :func:`read_traces` returns for the written file.  Inputs and labels
    of different lengths raise ``ValueError``, and so does a label that
    :func:`write_traces` would refuse.
    """
    layer = as_int(layer, "layer")
    if not model.is_relu_layer(layer):
        raise ValueError(f"layer {layer} is not a ReLU layer")
    header = TraceHeader(layer, model.layer_width(layer), model.class_count)
    x = np.asarray(inputs, dtype=np.float64)
    # rows of the model's input width; ``[]`` is a batch of zero rows
    trace = forward(model, x.reshape(len(x), model.input_dim))
    rows = zip(labels, decide(trace.final), trace.outputs[layer], strict=True)
    return header, [TraceRecord(f"s{i}", *_writable(f"s{i}", *row, header))
                    for i, row in enumerate(rows)]


def _check_header(header: TraceHeader) -> TraceHeader:
    """The header rule of writer and reader (else ``ValueError``)."""
    if header.width < 1 or header.classes < 2:
        raise ValueError(f"width {header.width} must be >= 1 and classes "
                         f"{header.classes} >= 2")
    return header


def _check_record(header: TraceHeader, rid: str, true_label: int,
                  pred_label: int, activations: np.ndarray) -> None:
    """The record rule of writer and reader: a string id, activations of
    the header's width, both labels in ``0..classes-1``; else
    ``ValueError``."""
    if not isinstance(rid, str):
        raise ValueError(f"id {rid!r} is not a string")
    if activations.shape != (header.width,):
        raise ValueError(f"activation shape {activations.shape} does not "
                         f"match header width {header.width}")
    for label in (true_label, pred_label):
        if not 0 <= label < header.classes:
            raise ValueError(f"label {label} outside 0..{header.classes - 1}")


def _writable(rid: str, true_label, pred_label, activations,
              header: TraceHeader) -> tuple[int, int, np.ndarray]:
    """The labels through :func:`~actmon.errors.as_int` and the activations
    as float64, under the record rule; else ``ValueError`` naming ``rid``."""
    try:
        fields = (as_int(true_label, "label"), as_int(pred_label, "label"),
                  np.asarray(activations, np.float64))
        _check_record(header, rid, *fields)
    except ValueError as exc:
        raise ValueError(f"record {rid!r}: {exc}") from exc
    return fields


def write_traces(path, header: TraceHeader, records) -> None:
    """Write a trace file, refusing with ``ValueError`` (the old file kept)
    what :func:`read_traces` refuses; integers go through ``as_int``."""
    header = _check_header(TraceHeader(
        as_int(header.layer, "layer"), as_int(header.width, "width"),
        as_int(header.classes, "classes")))
    with replace_on_success(path) as fh:
        fh.write(JSON_LINE({"format": TRACE_FORMAT, "version": TRACE_VERSION,
                            **vars(header)}) + "\n")
        for record in records:
            true_label, pred_label, acts = _writable(
                record.id, record.true_label, record.pred_label,
                record.activations, header)
            try:
                text = JSON_LINE({"id": record.id, "true_label": true_label,
                                  "pred_label": pred_label,
                                  "activations": acts.tolist()})
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
    # JSON reads 1e999 as infinity; one check per file, not per record
    if records and not all_finite(
            np.concatenate([r.activations for r in records])):
        bad = next(r for r in records if not all_finite(r.activations))
        raise SchemaError(f"record {bad.id!r}: non-finite activation value")
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
        return _check_header(TraceHeader(
            layer=exact_int(head["layer"], "layer"),
            width=exact_int(head["width"], "width"),
            classes=exact_int(head["classes"], "classes"),
        ))
    except (KeyError, ValueError, SchemaError) as exc:
        raise SchemaError(f"malformed trace header: {exc}") from exc


def _parse_record(line: str, line_no: int, header: TraceHeader) -> TraceRecord:
    try:
        row = JSON_DECODER.decode(line)
        record = TraceRecord(
            id=row["id"],
            true_label=exact_int(row["true_label"], "true_label"),
            pred_label=exact_int(row["pred_label"], "pred_label"),
            activations=np.asarray(row["activations"], dtype=np.float64),
        )
        _check_record(header, record.id, record.true_label,
                      record.pred_label, record.activations)
    except (KeyError, TypeError, ValueError, OverflowError,
            SchemaError) as exc:
        raise SchemaError(f"line {line_no}: malformed trace record: {exc}") \
            from exc
    return record
