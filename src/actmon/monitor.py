"""Per-class comfort zones and the runtime membership monitor.

A monitor is built after training from recorded traces: for every
monitored class it stores, as one BDD root, the set of activation patterns
produced by training samples that the network classified correctly.  The
zone can then be enlarged ``gamma`` times; each round adds every pattern
within Hamming distance 1 of the current zone (``BddStore.grow``).  At
runtime, an input whose pattern is missing from the zone of the predicted
class is flagged as outside the network's experience.  The zones are
nested, so a pattern is outside the gamma zone exactly when its Hamming
distance to the gamma-0 zone exceeds gamma; the gamma sweep reads every
level off that one distance (``BddStore.distance``) and grows nothing.

All zones of one monitor share a single store and therefore one variable
order (the selection's neuron order).  To monitor classes under different
per-class neuron selections, build one monitor per class.
"""

from __future__ import annotations

import enum
import json
import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from . import bdd
from .bdd import BddRef, BddStore
from .errors import (FormatVersionError, SchemaError, exact_int, read_json,
                     replace_on_success)
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


def _zero_zones(traces: Sequence[TraceRecord], selection: NeuronSelection,
                classes: Iterable[int] | None
                ) -> tuple[BddStore, dict[int, BddRef]]:
    """A new store and the gamma-0 zone of each monitored class.

    A record contributes to the zone of class ``c`` only when ``c`` is its
    ground-truth label *and* the network predicted ``c``; misclassified
    records and records of unmonitored classes are skipped entirely.

    ``classes`` defaults to every true label present in the traces.  A
    monitored class with no correctly classified record gets an empty zone
    (it will flag every query) and a warning pointing at the caller of
    :func:`build` or :func:`~actmon.evaluation.gamma_sweep`.
    """
    traces = list(traces)
    if not traces:
        raise ValueError("cannot build a monitor from zero traces")
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
    return store, {c: store.encode_set(seen[c]) for c in class_list}


def build(traces: Sequence[TraceRecord], selection: NeuronSelection,
          gamma: int, classes: Iterable[int] | None = None) -> Monitor:
    """Build a monitor from training traces: the gamma-0 zones, grown
    ``gamma`` times, in a frozen store."""
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    store, zones = _zero_zones(traces, selection, classes)
    for _ in range(gamma):
        zones = {c: store.grow(root) for c, root in zones.items()}
    store.freeze()
    return Monitor(selection=selection, gamma=gamma, store=store, zones=zones)


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
    with replace_on_success(path) as fh:
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
        bad = [s for s in sel["scores"] if type(s) not in (int, float)]
        if bad:
            raise SchemaError(f"score must be a number, got {bad[0]!r}")
        selection = NeuronSelection(
            layer=exact_int(sel["layer"], "selection layer"),
            layer_width=exact_int(sel["layer_width"], "layer_width"),
            indices=tuple(exact_int(i, "neuron index")
                          for i in sel["indices"]),
            scores=tuple(map(float, sel["scores"])),
        )
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
