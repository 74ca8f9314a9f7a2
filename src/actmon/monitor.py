"""Per-class comfort zones and the runtime membership monitor.

A monitor is built after training from recorded traces: for every
monitored class it stores, as one BDD root, the set of activation patterns
produced by training samples that the network classified correctly (the
gamma-0 zone), plus the Hamming radius ``gamma``.  At runtime, an input is
flagged as outside the network's experience when no pattern of the
predicted class's zone lies within Hamming distance ``gamma`` of its own
pattern: one capped search, ``BddStore.distance(zone, pattern, gamma + 1)``.
Building makes only the gamma-0 zones, so its cost and the monitor file do
not depend on gamma; the query's cost grows with it.  :func:`query`
applies this rule to one runtime sample; the batch path
:func:`_batch_distances`, one threshold pass handed to the store's batch
walk, applies it to the record sets of ``actmon query`` (as
:func:`_batch_verdicts`) and of :mod:`~actmon.evaluation`'s report rows.
This module reads no node table: every walk over one is the store's.

All zones of one monitor share a single store and therefore one variable
order (the selection's neuron order).  To monitor classes under different
per-class neuron selections, build one monitor per class.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import bdd, patterns
from .bdd import FALSE, BddStore
from .errors import (INT64_MAX, JSON_LINE, FormatVersionError, SchemaError,
                     as_int, read_json, replace_on_success, warn)
from .patterns import NeuronSelection, binarize
from .traces import TraceRecord

MONITOR_FORMAT = "actmon-monitor"
# 2: zones are gamma 0; a version-1 zone of gamma > 0 was grown, and read
# as gamma 0 it would answer for radius 2 * gamma
# 3: the table is columnar and states each fact once: no node or terminal
# ids, no nested version or width, no second layer, roots as a list
# 4: the selection is its layer, width and neurons; no unread scores
MONITOR_VERSION = 4


class Verdict(enum.Enum):
    """Outcome of a runtime query."""

    IN_ZONE = "InZone"
    OUT_OF_ZONE = "OutOfZone"
    NO_ZONE = "NoZone"


@dataclass
class Monitor:
    """Per-class zone roots plus everything needed to query them: each
    zone is the node id of its root in ``store``."""

    selection: NeuronSelection
    gamma: int
    store: BddStore
    zones: dict[int, int]

    @property
    def classes(self) -> list[int]:
        return sorted(self.zones)


def build(traces: Sequence[TraceRecord], selection: NeuronSelection,
          gamma: int, classes: Iterable[int] | None = None) -> Monitor:
    """Build a monitor from training traces: the gamma-0 zones in a frozen
    store, and ``gamma``, the query radius.

    A record contributes to the zone of class ``c`` only when ``c`` is its
    ground-truth label *and* the network predicted ``c``.  One checked
    threshold pass makes the kept records' patterns, and one encode builds
    every zone from them unchecked; the other records are never read.

    ``classes`` defaults to every true label present in the traces.  A
    monitored class with no correctly classified record gets an empty zone
    (it will flag every query) and a warning at the caller's line.  ``gamma``
    and the classes, default ones too, are Python or numpy integers (a
    bool, float or string raises ``ValueError``), stored as ints; no
    distance exceeds the width, so ``gamma`` is at most ``bdd.MAX_VARS``,
    and a class is a label, in ``0..INT64_MAX``.
    """
    gamma = as_int(gamma, "gamma", 0, bdd.MAX_VARS)
    traces = list(traces)
    if not traces:
        raise ValueError("cannot build a monitor from zero traces")
    if classes is None:
        classes = {r.true_label for r in traces}
    class_list = sorted({as_int(c, "class", 0, INT64_MAX) for c in classes})
    if not class_list:
        raise ValueError("no classes to monitor")

    group = {c: i for i, c in enumerate(class_list)}
    kept = [r for r in traces
            if r.true_label in group and r.pred_label == r.true_label]
    store = BddStore(selection.width)
    roots = store._encode(
        patterns._threshold([r.activations for r in kept], selection),
        np.array([group[r.true_label] for r in kept], dtype=np.intp)) \
        if kept else {}
    for i, c in enumerate(class_list):
        if i not in roots:
            warn(f"class {c}: no correctly classified training record; "
                 f"its zone is empty and will flag every query")
    zones = {c: roots.get(i, FALSE) for i, c in enumerate(class_list)}
    store.freeze()
    return Monitor(selection=selection, gamma=gamma, store=store, zones=zones)


def query(monitor: Monitor, activations, pred_label: int) -> Verdict:
    """Judge one runtime sample against the predicted class's zone:
    ``IN_ZONE`` when a zone pattern lies within Hamming distance
    ``monitor.gamma`` of the sample's pattern.

    Only the predicted class is consulted; membership in another class's
    zone says nothing about this decision.  An unmonitored predicted class
    yields ``NO_ZONE`` rather than a warning.  A batch, or a bool, float or
    string ``pred_label``, raises ``ValueError``; a numpy integer is read.
    """
    pattern = binarize(activations, monitor.selection)
    if type(pred_label) is not int:  # the exact-int fast path
        pred_label = as_int(pred_label, "predicted label")
    root = monitor.zones.get(pred_label)
    if root is None:
        return Verdict.NO_ZONE
    gamma = monitor.gamma
    if monitor.store.distance(root, pattern, gamma + 1) <= gamma:
        return Verdict.IN_ZONE
    return Verdict.OUT_OF_ZONE


def _batch_distances(monitor: Monitor, records: Sequence[TraceRecord],
                     cap: int) -> list[int | None]:
    """Each record's :func:`query` distance to the zone of its predicted
    class, capped at ``cap``, or ``None`` without a zone: one checked
    threshold pass makes every pattern, and the store's batch walk
    :meth:`~actmon.bdd.BddStore._distances` judges them all."""
    if not records:
        return []
    bits = patterns._threshold([r.activations for r in records],
                               monitor.selection)
    roots = np.array([monitor.zones.get(r.pred_label, -1) for r in records])
    return monitor.store._distances(bits, roots, cap)


def _batch_verdicts(monitor: Monitor, records: Sequence[TraceRecord]) \
        -> list[Verdict]:
    """Each record's :func:`query` verdict, from one
    :func:`_batch_distances` pass capped at ``gamma + 1``."""
    gamma = monitor.gamma
    return [Verdict.NO_ZONE if d is None else Verdict.IN_ZONE if d <= gamma
            else Verdict.OUT_OF_ZONE
            for d in _batch_distances(monitor, records, gamma + 1)]


# -- persistence --------------------------------------------------------------


def save_monitor(monitor: Monitor, path) -> None:
    """Write the monitor as one ``JSON_LINE`` object, deterministic and
    versioned: its own fields, then as the last key ``bdd`` its table,
    :meth:`~actmon.bdd.BddStore.to_dict` with a root per class in order.

    Requires a frozen monitor, so the table written is the one ``build``
    made, in canonical order, or the one ``load_monitor`` read; repeated
    saves of the same monitor are byte-identical.  A monitor with no zones,
    which ``build`` never makes and the reader refuses, is not written.
    """
    if not monitor.store.frozen:
        raise ValueError("monitor store must be frozen before saving")
    if not monitor.zones:
        raise ValueError("no classes to monitor")
    sel, classes = monitor.selection, monitor.classes
    with replace_on_success(path) as fh:
        fh.write(JSON_LINE({
            "format": MONITOR_FORMAT, "version": MONITOR_VERSION,
            "gamma": monitor.gamma, "classes": classes,
            "selection": {"layer": sel.layer, "layer_width": sel.layer_width,
                          "indices": list(sel.indices)},
            "bdd": monitor.store.to_dict([monitor.zones[c] for c in classes]),
        }) + "\n")


def monitor_from_dict(data: Mapping) -> Monitor:
    if not isinstance(data, Mapping) or data.get("format") != MONITOR_FORMAT:
        raise SchemaError("not an actmon-monitor object")
    version = data.get("version")
    if type(version) is not int or version != MONITOR_VERSION:
        raise FormatVersionError(f"unsupported monitor version {version!r}; "
                                 f"rebuild the monitor with 'actmon build'")
    try:
        sel = data["selection"]
        selection = NeuronSelection(sel["layer"], sel["layer_width"],
                                    sel["indices"])
        gamma = as_int(data["gamma"], "gamma", 0, bdd.MAX_VARS)
        classes = [as_int(c, "class", 0, INT64_MAX) for c in data["classes"]]
        # the store refuses a width above its cap with a ValueError
        store, roots = bdd.from_dict(data["bdd"], selection.width)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed monitor file: {exc}") from exc
    if not classes:  # as build refuses to make such a monitor
        raise SchemaError("no classes to monitor")
    # one root per class, the classes strictly ascending as the writer
    # lists them
    if len(roots) != len(classes) or classes != sorted(set(classes)):
        raise SchemaError(f"classes {classes} must ascend strictly and "
                          f"match the {len(roots)} zone roots")
    store.freeze()
    return Monitor(selection=selection, gamma=gamma, store=store,
                   zones=dict(zip(classes, roots)))


def load_monitor(path) -> Monitor:
    return monitor_from_dict(read_json(path, "monitor"))
