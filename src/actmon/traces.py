"""JSON-lines trace files: the interchange format between a network run
and the monitor.

Line 1 is a header object::

    {"format":"actmon-trace","version":1,"layer":4,"width":40,"classes":10}

Every following line is one record::

    {"id":"s1","true_label":3,"pred_label":3,"activations":[0.0,1.25,...]}

``layer`` names the monitored layer, ``width`` its neuron count (the length
of every activation vector), ``classes`` the number of classes.
:func:`extract` makes the header and records by running a model over a
dataset.  Writer and reader share one header rule and one record rule:
:func:`write_traces` refuses what :func:`read_traces` refuses, in the same
words, and the reader also refuses a JSON bool among the activations.

A record line is the compact ``json`` encoding of the record's dict.
Both directions work a block of ``_BLOCK`` records at a time.  The writer,
and :func:`extract` with it, checks a block at once and a failed block one
record at a time; the reader checks each line as it decodes it and reads
a failed line again alone.  So a refusal names the first bad record or
line, and each direction has one record check and one fallback.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (INT64_MAX, JSON_DECODER, JSON_LINE, JSON_NUMBERS,
                     FormatVersionError, SchemaError, all_finite, as_int,
                     float_array, replace_on_success)
from .network import ModelSpec, decide, forward

TRACE_FORMAT = "actmon-trace"
TRACE_VERSION = 1
# records the writer formats at once; one block's arrays are alive at once
_BLOCK = 1024


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
    :func:`read_traces` returns for the written file.  Inputs not an (N,
    input width) batch or ``[]``, inputs and labels of different lengths,
    and a record that :func:`write_traces` refuses raise ``ValueError``.
    The records go through the writer's block check, and a 1-D integer
    label array is read as Python ints, which that check takes at once.
    """
    layer = as_int(layer, "layer")
    if not model.is_relu_layer(layer):
        raise ValueError(f"layer {layer} is not a ReLU layer")
    header = TraceHeader(layer, model.layer_width(layer), model.class_count)
    x = float_array(inputs, "inputs")
    if x.shape == (0,):  # ``[]`` is a batch of zero rows
        x = x.reshape(0, model.input_dim)
    if x.ndim != 2:
        raise ValueError(f"inputs must be a 2-D batch, got shape {x.shape}")
    trace = forward(model, x)
    if isinstance(labels, np.ndarray) and labels.ndim == 1 \
            and labels.dtype.kind in "iu":
        labels = labels.tolist()
    rows = ((f"s{i}", *row) for i, row in enumerate(zip(
        labels, decide(trace.final).tolist(), trace.outputs[layer],
        strict=True)))
    records = []
    for block in _blocks(rows):
        records += map(TraceRecord, *_block_columns(block, header))
    return header, records


def _check_header(layer, width, classes) -> TraceHeader:
    """The header of writer and reader: three integers, ``layer`` at least
    0, ``width`` at least 1 and ``classes`` at least 2; else ``ValueError``."""
    return TraceHeader(as_int(layer, "layer", 0, INT64_MAX),
                       as_int(width, "width", 1),
                       as_int(classes, "classes", 2))


def _row(rid, true_label, pred_label, activations,
         header: TraceHeader) -> tuple[int, int, np.ndarray]:
    """The record rule of writer and reader: a string id, both labels by
    ``as_int`` in ``0..classes-1`` and float64 activations of the header's
    width, by :func:`~actmon.errors.float_array`; returns labels and
    activations, else raises ``ValueError``."""
    if not isinstance(rid, str):
        raise ValueError(f"id {rid!r} is not a string")
    true_label = as_int(true_label, "true_label", 0, header.classes - 1)
    pred_label = as_int(pred_label, "pred_label", 0, header.classes - 1)
    values = float_array(activations, "activations")
    if values.shape != (header.width,):
        raise ValueError(f"activation shape {values.shape} does not "
                         f"match header width {header.width}")
    return true_label, pred_label, values


def _writable(rid, true_label, pred_label, activations,
              header: TraceHeader) -> tuple[int, int, np.ndarray]:
    """:func:`_row`'s labels and activations, also finite (JSON has no NaN
    or infinity); else ``ValueError`` naming ``rid``."""
    try:
        fields = _row(rid, true_label, pred_label, activations, header)
        if not all_finite(fields[2]):
            raise ValueError("non-finite activation value")
    except ValueError as exc:
        raise ValueError(f"record {rid!r}: {exc}") from exc
    return fields


def write_traces(path, header: TraceHeader, records) -> None:
    """Write a trace file, refusing with ``ValueError`` (the old file kept)
    what :func:`read_traces` refuses: the header's fields and the labels
    are Python or numpy integers under the reader's bounds, by ``as_int``.

    The bytes are those of ``JSON_LINE`` on each record's dict, with the
    activations as a list of Python floats.  Records go in blocks of
    ``_BLOCK`` rows, checked under the record rule a block at a time.  A
    ``+0.0`` cell is written as ``0.0`` directly, and each distinct
    nonzero value of a block (by bit pattern, so ``-0.0`` stays apart
    from ``0.0``) is formatted once, by the ``float.__repr__`` the
    ``json`` encoder uses.  A refusal names the first bad record of the
    file; an exception from ``records`` itself comes after the faults of
    the records before it.
    """
    header = _check_header(header.layer, header.width, header.classes)
    with replace_on_success(path) as fh:
        fh.write(JSON_LINE({"format": TRACE_FORMAT, "version": TRACE_VERSION,
                            **vars(header)}) + "\n")
        for block in _blocks(map(_RECORD_FIELDS, records)):
            fh.writelines(_block_lines(*_block_columns(block, header)))


def _blocks(items):
    """The iterator ``items`` in lists of up to ``_BLOCK`` items.  If
    ``items`` raises, the items it gave before come first as one more
    list, so a fault among them is found before its exception."""
    while True:
        block = []
        try:
            # extend keeps the items it took when the iterator raises
            block.extend(itertools.islice(items, _BLOCK))
        except Exception:
            if block:
                yield block
            raise
        if not block:
            return
        yield block


# a record's fields in the order of a record line
_RECORD_FIELDS = operator.attrgetter("id", "true_label", "pred_label",
                                     "activations")


def _block_columns(block: list, header: TraceHeader) -> tuple:
    """The columns of a block of (id, true label, predicted label,
    activations) rows under the record rule: ids, both labels as ints,
    and the activations as one finite (n, width) float64 array, each
    record's by :func:`~actmon.errors.float_array`, the rest checked once
    per block.  A block that fails goes through :func:`_writable` row by
    row, so a refusal names its first bad record."""
    try:  # whatever fails here fails again, in file order, below
        ids, trues, preds, acts = zip(*block)
        labels = trues + preds
        values = np.array([float_array(row, "activations") for row in acts])
        if {*map(type, ids)} == {str} and {*map(type, labels)} == {int} \
                and 0 <= min(labels) and max(labels) < header.classes \
                and values.shape == (len(block), header.width) \
                and all_finite(values):
            return ids, trues, preds, values
    except Exception:
        pass
    ids, trues, preds, acts = zip(*[(rid, *_writable(rid, *fields, header))
                                    for rid, *fields in block])
    return ids, trues, preds, np.array(acts)


def _block_lines(ids, trues, preds, values: np.ndarray) -> list[str]:
    """The lines of a block's columns, each distinct nonzero value
    formatted once."""
    bits = values.view(np.uint64).ravel()
    nonzero = bits != 0  # +0.0 is the one float64 whose bits are all 0
    patterns, inverse = np.unique(bits[nonzero], return_inverse=True)
    reprs = map(float.__repr__, patterns.view(np.float64).tolist())
    texts = np.array([*reprs, "0.0"], dtype=object)
    index = np.full(bits.shape, len(patterns))
    index[nonzero] = inverse
    cells = texts.take(index).reshape(values.shape).tolist()
    return [f'{{"id":{JSON_LINE(rid)},"true_label":{true_label},'
            f'"pred_label":{pred_label},"activations":[{",".join(row)}]}}\n'
            for rid, true_label, pred_label, row
            in zip(ids, trues, preds, cells)]


def read_traces(path) -> tuple[TraceHeader, list[TraceRecord]]:
    """The header and records of the trace file at ``path``; a file that
    breaks the header or record rule, or is not UTF-8 standard JSON,
    raises :class:`SchemaError` (:class:`FormatVersionError` for another
    version).

    Blank lines are skipped.  Lines are read a block of ``_BLOCK`` at a
    time and checked one by one as they are decoded; a line that fails is
    read again alone, so the error names the first malformed line.  A
    value JSON reads as infinity (``1e999``), found by one test of each
    block's rows, is refused only after the whole file is parsed, naming
    its record.  A block's records share one float64 array, so a record
    that is kept keeps its block alive.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            first = fh.readline()
            if not first.strip():
                raise SchemaError("trace file is empty")
            header = _parse_header(first)
            records, line_no, suspect = [], 2, None
            for lines in _blocks(fh):
                block, finite = _parse_block(lines, line_no, header)
                if suspect is None and not finite:
                    suspect = block
                records += block
                line_no += len(lines)
        except UnicodeDecodeError as exc:
            raise SchemaError(f"trace file is not UTF-8 text: {exc}") from exc
    # JSON reads 1e999 as infinity; the first block that holds one names it
    if suspect is not None:
        bad = next(r for r in suspect if not all_finite(r.activations))
        raise SchemaError(f"record {bad.id!r}: non-finite activation value")
    return header, records


def _parse_block(lines: list[str], line_no: int, header: TraceHeader) \
        -> tuple[list[TraceRecord], bool]:
    """The records of ``lines``, the first of which is line ``line_no``
    of the file, and whether their activations are all finite.  Each line
    is decoded on its own (two broken lines could join into one valid
    record) and checked under the record rule, and its activations go into
    the block's float64 array while their floats are fresh in the CPU
    cache.  A line that fails goes to :func:`_parse_record`, which reads a
    record with whitespace around it or raises that line's error."""
    width, classes = header.width, header.classes
    # a row per line long enough to hold width numbers, so a header's
    # width alone allocates nothing; with no row it may exceed any array
    capacity = sum(len(line) >= 2 * width for line in lines)
    values = np.empty((capacity, width if capacity else 0))
    heads = []
    for no, line in enumerate(lines, line_no):
        try:
            row, end = JSON_DECODER.raw_decode(line)
            head = rid, true_label, pred_label = (
                row["id"], row["true_label"], row["pred_label"])
            acts = row["activations"]
            read = line[end:] in ("", "\n") and type(rid) is str \
                and type(true_label) is int and type(pred_label) is int \
                and 0 <= true_label < classes and 0 <= pred_label < classes \
                and type(acts) is list and len(acts) == width \
                and JSON_NUMBERS.issuperset(map(type, acts))
            if read:
                values[len(heads)] = acts
        except (KeyError, TypeError, ValueError, OverflowError,
                RecursionError):
            read = False
        if not read:
            if not line.strip():
                continue
            *head, acts = _RECORD_FIELDS(_parse_record(line, no, header))
            values[len(heads)] = acts
        heads.append(head)
    values = values[:len(heads)]  # np.empty left the spare rows unset
    # records made together lie together in memory; made one per line,
    # among each line's decoded objects, they made a sweep or build over
    # them 2-3% slower
    return [TraceRecord(*head, row) for head, row in zip(heads, values)], \
        all_finite(values)


def _parse_header(line: str) -> TraceHeader:
    try:
        head = JSON_DECODER.decode(line)
    except (ValueError, RecursionError) as exc:  # RecursionError: too deep
        raise SchemaError(f"trace header is not valid JSON: {exc}") from exc
    if not isinstance(head, dict) or head.get("format") != TRACE_FORMAT:
        raise SchemaError("first line must be an actmon-trace header")
    version = head.get("version")
    if type(version) is not int or version != TRACE_VERSION:
        raise FormatVersionError(f"unsupported trace version {version!r}")
    try:
        return _check_header(head["layer"], head["width"], head["classes"])
    except (KeyError, ValueError) as exc:
        raise SchemaError(f"malformed trace header: {exc}") from exc


def _parse_record(line: str, line_no: int, header: TraceHeader) -> TraceRecord:
    """The record ``line`` holds under :func:`_row`, its activations a
    list of JSON numbers (``np.asarray`` reads ``true`` among numbers as
    ``1.0``); else a :class:`SchemaError` naming line ``line_no``."""
    try:
        row = JSON_DECODER.decode(line)
        rid, acts = row["id"], row["activations"]
        odd = [v for v in acts if type(v) not in JSON_NUMBERS] \
            if type(acts) is list else [acts]
        if odd:
            raise ValueError(f"activations must hold numbers, got {odd[0]!r}")
        return TraceRecord(rid, *_row(rid, row["true_label"],
                                      row["pred_label"], acts, header))
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise SchemaError(f"line {line_no}: malformed trace record: {exc}") \
            from exc
