"""Per-class comfort zones and the runtime membership monitor.

A monitor is built after training from recorded traces: for every
monitored class it stores, as one BDD root, the set of activation patterns
produced by training samples that the network classified correctly.  The
zone can then be enlarged ``gamma`` times; each round adds every pattern
within Hamming distance 1 of the current zone, realized as a union of
single-variable existential quantifications.  At runtime, an input whose
pattern is missing from the zone of the predicted class is flagged as
outside the network's experience.

All zones of one monitor share a single store and therefore one variable
order (the selection's neuron order).  To monitor classes under different
per-class neuron selections, build one monitor per class.
"""

from __future__ import annotations

import enum
import json
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from . import bdd
from .bdd import BddRef, BddStore
from .errors import FormatVersionError, SchemaError
from .patterns import NeuronSelection, binarize
from .traces import TraceRecord

MONITOR_FORMAT = "actmon-monitor"
MONITOR_VERSION = 1


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


def enlarge_once(store: BddStore, zone: BddRef, width: int) -> BddRef:
    """One Hamming-distance step: the union of the zone with every pattern
    that differs from a member in exactly one of the ``width`` bits.

    Equals the union over all variables of the single-variable existential
    quantification, each of which is already a superset of the zone.
    """
    grown = zone
    for var in range(width):
        grown = store.union(grown, store.exists(var, zone))
    return grown


def nested_monitors(traces: Sequence[TraceRecord],
                    selection: NeuronSelection, gammas: Sequence[int],
                    classes: Iterable[int] | None = None) -> Iterator[Monitor]:
    """Monitors at ascending enlargement levels, built from training traces.

    A record contributes to the zone of class ``c`` only when ``c`` is its
    ground-truth label *and* the network predicted ``c``; misclassified
    records and records of unmonitored classes are skipped entirely.  The
    gamma-0 zones are built once and enlarged incrementally, so the yielded
    monitors form a chain (each level's zones contain the previous
    level's).  All of them share one store, which stays mutable: freeze it
    only after taking the last monitor.

    ``classes`` defaults to every true label present in the traces.  A
    monitored class with no correctly classified record gets an empty zone
    (it will flag every query) and a build-time warning.
    """
    traces = list(traces)
    gammas = list(gammas)
    if not traces:
        raise ValueError("cannot build a monitor from zero traces")
    if not gammas or any(g < 0 for g in gammas):
        raise ValueError("gammas must be a nonempty list of levels >= 0")
    if sorted(set(gammas)) != gammas:
        raise ValueError("gammas must be strictly ascending")
    class_list = sorted({r.true_label for r in traces}
                        if classes is None else set(classes))
    if not class_list:
        raise ValueError("no classes to monitor")

    store = BddStore(selection.width)
    seen: dict[int, list] = {c: [] for c in class_list}
    for record in traces:
        c = record.true_label
        if c in seen and record.pred_label == c:
            seen[c].append(binarize(record.activations, selection))
    for c in class_list:
        if not seen[c]:
            warnings.warn(
                f"class {c}: no correctly classified training record; "
                f"its zone is empty and will flag every query",
                stacklevel=3)
    roots = {c: store.encode_set(seen[c]) for c in class_list}

    level = 0
    for gamma in gammas:
        for _ in range(level, gamma):
            roots = {c: enlarge_once(store, root, selection.width)
                     for c, root in roots.items()}
        level = gamma
        yield Monitor(selection=selection, gamma=gamma, store=store,
                      zones=roots)


def build(traces: Sequence[TraceRecord], selection: NeuronSelection,
          gamma: int, classes: Iterable[int] | None = None) -> Monitor:
    """Build a monitor at enlargement level ``gamma`` from training traces,
    as :func:`nested_monitors` does, and freeze its store."""
    (monitor,) = nested_monitors(traces, selection, [gamma], classes)
    monitor.store.freeze()
    return monitor


def query(monitor: Monitor, activations, pred_label: int) -> Verdict:
    """Judge one runtime sample against the predicted class's zone.

    Only the predicted class is consulted; membership in another class's
    zone says nothing about this decision.  An unmonitored predicted class
    yields ``NO_ZONE`` rather than a warning.
    """
    pattern = binarize(activations, monitor.selection)
    root = monitor.zones.get(pred_label)
    if root is None:
        return Verdict.NO_ZONE
    if monitor.store.contains(root, pattern):
        return Verdict.IN_ZONE
    return Verdict.OUT_OF_ZONE


# -- persistence --------------------------------------------------------------


def monitor_to_dict(monitor: Monitor) -> dict:
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
        "bdd": monitor.store.to_dict(
            {str(c): root for c, root in monitor.zones.items()}),
    }


def save_monitor(monitor: Monitor, path) -> None:
    """Write the monitor as deterministic versioned JSON.

    Requires a frozen monitor; repeated saves of the same monitor are
    byte-identical.
    """
    if not monitor.store.frozen:
        raise ValueError("monitor store must be frozen before saving")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(monitor_to_dict(monitor), separators=(",", ":")))
        fh.write("\n")


def monitor_from_dict(data: Mapping) -> Monitor:
    if not isinstance(data, Mapping) or data.get("format") != MONITOR_FORMAT:
        raise SchemaError("not an actmon-monitor object")
    if data.get("version") != MONITOR_VERSION:
        raise FormatVersionError(
            f"unsupported monitor version {data.get('version')!r}")
    try:
        sel = data["selection"]
        selection = NeuronSelection(
            layer=int(sel["layer"]),
            layer_width=int(sel["layer_width"]),
            indices=tuple(int(i) for i in sel["indices"]),
            scores=tuple(float(s) for s in sel["scores"]),
        )
        gamma = int(data["gamma"])
        bdd_part = data["bdd"]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed monitor file: {exc}") from exc
    if gamma < 0:
        raise SchemaError(f"negative gamma {gamma}")
    store, roots = bdd.from_dict(bdd_part)
    if store.n_vars != selection.width:
        raise SchemaError(
            f"BDD width {store.n_vars} does not match selection width "
            f"{selection.width}")
    zones = {}
    for key, root in roots.items():
        try:
            c = int(key)
        except ValueError as exc:
            raise SchemaError(f"non-integer class key {key!r}") from exc
        zones[c] = root
    store.freeze()
    return Monitor(selection=selection, gamma=gamma, store=store, zones=zones)


def load_monitor(path) -> Monitor:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(
                f"monitor file is not valid JSON: {exc}") from exc
    return monitor_from_dict(data)
