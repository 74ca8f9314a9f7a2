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
:func:`_batch_distances`, one lockstep walk per distinct (pattern, zone)
and a search only where it misses, applies it to the record sets of
``actmon query`` and of :mod:`~actmon.evaluation`'s report rows.

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
from .bdd import FALSE, TRUE, BddRef, BddStore
from .errors import (FormatVersionError, SchemaError, as_int, exact_int,
                     read_json, replace_on_success, warn)
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
    """Per-class zone roots plus everything needed to query them."""

    selection: NeuronSelection
    gamma: int
    store: BddStore
    zones: dict[int, BddRef]

    @property
    def classes(self) -> list[int]:
        return sorted(self.zones)

    @property
    def width(self) -> int:
        return self.selection.width


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
    and the classes are Python or numpy integers (a bool, float or string
    raises ``ValueError``), stored as ints.
    """
    gamma = as_int(gamma, "gamma")
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    traces = list(traces)
    if not traces:
        raise ValueError("cannot build a monitor from zero traces")
    class_list = sorted({r.true_label for r in traces} if classes is None
                        else {as_int(c, "class") for c in classes})
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
    zones = {c: BddRef(store, roots.get(i, FALSE))
             for i, c in enumerate(class_list)}
    store.freeze()
    return Monitor(selection=selection, gamma=gamma, store=store, zones=zones)


def query(monitor: Monitor, activations, pred_label: int) -> Verdict:
    """Judge one runtime sample against the predicted class's zone:
    ``IN_ZONE`` when a zone pattern lies within Hamming distance
    ``monitor.gamma`` of the sample's pattern.

    Only the predicted class is consulted; membership in another class's
    zone says nothing about this decision.  An unmonitored predicted class
    yields ``NO_ZONE`` rather than a warning.  A batch raises ``ValueError``.
    """
    pattern = binarize(activations, monitor.selection)
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
    class, capped at ``cap``, or ``None`` without a zone.  One checked
    threshold pass makes every pattern, each distinct (pattern, zone)
    walks its zone, all at once, and only the misses are searched."""
    if not records:
        return []
    bits = patterns._threshold([r.activations for r in records],
                               monitor.selection)
    node_of = {c: zone.node for c, zone in monitor.zones.items()}
    roots = np.array([node_of.get(r.pred_label, -1) for r in records])
    keys = np.hstack([np.packbits(bits, axis=1),
                      roots[:, None].view(np.uint8)])
    _, first, inverse = np.unique(keys.view(f"V{keys.shape[1]}").ravel(),
                                  return_index=True, return_inverse=True)
    bits, roots, store = bits[first], roots[first], monitor.store
    var = np.array(store._var, dtype=np.intp)
    kids = np.array([store._low, store._high], dtype=np.intp).T.ravel()
    ends, flat, width = roots.copy(), bits.ravel(), bits.shape[1]
    walking = np.flatnonzero(ends > TRUE)  # a root of -1: no zone
    while walking.size:  # kids[2n + bit] is node n's child at that bit
        nodes = ends[walking]
        ends[walking] = nodes = kids[
            2 * nodes + flat[walking * width + var[nodes]]]
        walking = walking[nodes > TRUE]
    search = store._distance  # on _threshold's checked bits
    found = [None if root < 0 else 0 if end == TRUE else cap if cap == 1
             else search(root, bits[g].tolist(), cap) for g, (root, end)
             in enumerate(zip(roots.tolist(), ends.tolist()))]
    return np.array(found, dtype=object)[inverse].tolist()


# -- persistence --------------------------------------------------------------


def monitor_to_dict(monitor: Monitor) -> dict:
    return _with_table(monitor, monitor.store.to_dict(_zone_roots(monitor)))


def _zone_roots(monitor: Monitor) -> dict[str, BddRef]:
    return {str(c): root for c, root in monitor.zones.items()}


def _with_table(monitor: Monitor, table: dict) -> dict:
    """The monitor file's object around the BDD serialization ``table``."""
    return {
        "format": MONITOR_FORMAT,
        "version": MONITOR_VERSION,
        "gamma": monitor.gamma,
        "layer": monitor.selection.layer,
        "classes": monitor.classes,
        "selection": {
            "layer": monitor.selection.layer,
            "layer_width": monitor.selection.layer_width,
            "indices": list(monitor.selection.indices),
            "scores": list(monitor.selection.scores),
        },
        "bdd": table,
    }


def save_monitor(monitor: Monitor, path) -> None:
    """Write the monitor as deterministic versioned JSON: the compact
    ``json`` encoding of :func:`monitor_to_dict`, with the node list
    written from the table's columns rather than one dict per node.

    Requires a frozen monitor; repeated saves of the same monitor are
    byte-identical.
    """
    if not monitor.store.frozen:
        raise ValueError("monitor store must be frozen before saving")
    table, columns = monitor.store._serial(_zone_roots(monitor))
    text = json.dumps(_with_table(monitor, table), separators=(",", ":"),
                      allow_nan=False)
    # only numbers and fixed keys come before the empty node list
    head, tail = text.split('"nodes":[]', 1)
    with replace_on_success(path) as fh:
        fh.write(f'{head}"nodes":{bdd._nodes_json(columns)}{tail}\n')


def monitor_from_dict(data: Mapping) -> Monitor:
    if not isinstance(data, Mapping) or data.get("format") != MONITOR_FORMAT:
        raise SchemaError("not an actmon-monitor object")
    if data.get("version") != MONITOR_VERSION:
        raise FormatVersionError(
            f"unsupported monitor version {data.get('version')!r}; rebuild "
            f"the monitor with 'actmon build'")
    try:
        sel = data["selection"]
        selection = NeuronSelection(
            layer=sel["layer"], layer_width=sel["layer_width"],
            indices=sel["indices"], scores=sel["scores"])
        gamma = exact_int(data["gamma"], "gamma")
        layer = exact_int(data["layer"], "layer")
        classes = [exact_int(c, "class") for c in data["classes"]]
        bdd_part = data["bdd"]
    except (KeyError, TypeError, ValueError, SchemaError) as exc:
        raise SchemaError(f"malformed monitor file: {exc}") from exc
    if gamma < 0:
        raise SchemaError(f"negative gamma {gamma}")
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
