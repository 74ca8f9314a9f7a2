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
walk, applies it to the record sets of ``actmon query`` and of
:mod:`~actmon.evaluation`'s report rows.  This module reads no node
table: every walk over one is the store's.

All zones of one monitor share a single store and therefore one variable
order (the selection's neuron order).  To monitor classes under different
per-class neuron selections, build one monitor per class.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import bdd, patterns
from .bdd import FALSE, BddStore
from .errors import (FormatVersionError, SchemaError, as_int, read_json,
                     replace_on_success, warn)
from .patterns import NeuronSelection, binarize
from .traces import TraceRecord

MONITOR_FORMAT = "actmon-monitor"
# 2: zones are gamma 0; a version-1 zone of gamma > 0 was grown, and read
# as gamma 0 it would answer for radius 2 * gamma
MONITOR_VERSION = 2


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
    bool, float or string raises ``ValueError``), stored as ints.
    """
    gamma = as_int(gamma, "gamma", 0)
    traces = list(traces)
    if not traces:
        raise ValueError("cannot build a monitor from zero traces")
    if classes is None:
        classes = {r.true_label for r in traces}
    class_list = sorted({as_int(c, "class") for c in classes})
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


# -- persistence --------------------------------------------------------------


def save_monitor(monitor: Monitor, path) -> None:
    """Write the monitor as deterministic versioned JSON: its own fields,
    then its table, :meth:`~actmon.bdd.BddStore.to_json`'s text, as the
    last key ``bdd``.

    Requires a frozen monitor, so the table written is the one ``build``
    made, in canonical order, or the one ``load_monitor`` read; repeated
    saves of the same monitor are byte-identical.
    """
    if not monitor.store.frozen:
        raise ValueError("monitor store must be frozen before saving")
    sel = monitor.selection
    head = json.dumps({
        "format": MONITOR_FORMAT, "version": MONITOR_VERSION,
        "gamma": monitor.gamma, "layer": sel.layer, "classes": monitor.classes,
        "selection": {
            "layer": sel.layer, "layer_width": sel.layer_width,
            "indices": list(sel.indices), "scores": list(sel.scores)},
    }, separators=(",", ":"), allow_nan=False)
    table = monitor.store.to_json(monitor.zones)
    with replace_on_success(path) as fh:
        fh.write(f'{head[:-1]},"bdd":{table}}}\n')


def monitor_from_dict(data: Mapping) -> Monitor:
    if not isinstance(data, Mapping) or data.get("format") != MONITOR_FORMAT:
        raise SchemaError("not an actmon-monitor object")
    version = data.get("version")
    if type(version) is not int or version != MONITOR_VERSION:
        raise FormatVersionError(f"unsupported monitor version {version!r}; "
                                 f"rebuild the monitor with 'actmon build'")
    try:
        sel = data["selection"]
        selection = NeuronSelection(
            layer=sel["layer"], layer_width=sel["layer_width"],
            indices=sel["indices"], scores=sel["scores"])
        gamma = as_int(data["gamma"], "gamma", 0)
        layer = as_int(data["layer"], "layer")
        classes = [as_int(c, "class") for c in data["classes"]]
        bdd_part = data["bdd"]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed monitor file: {exc}") from exc
    if layer != selection.layer:
        raise SchemaError(f"layer {layer} does not match selection layer "
                          f"{selection.layer}")
    store, roots = bdd.from_dict(bdd_part)
    if store.n_vars != selection.width:
        raise SchemaError(
            f"BDD width {store.n_vars} does not match selection width "
            f"{selection.width}")
    # one root per listed class, keyed as the writer keys it
    if len(classes) != len(roots) or set(roots) != set(map(str, classes)):
        raise SchemaError(f"classes {classes} do not match the zone keys "
                          f"{list(roots)}")
    store.freeze()
    return Monitor(selection=selection, gamma=gamma, store=store,
                   zones={c: roots[str(c)] for c in classes})


def load_monitor(path) -> Monitor:
    return monitor_from_dict(read_json(path, "monitor"))
