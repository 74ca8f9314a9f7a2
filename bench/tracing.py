"""In-memory span tracing of actmon's public functions, from outside the
library.

A :class:`Tracer` records one span per call (name, start, end, parent) in
flat arrays and derives self times when asked.  :func:`patched` installs
the wrappers for the duration of a ``with`` block.  Each function is
patched where it is looked up: ``monitor`` and ``evaluation`` import
``binarize``, ``query`` and ``enlarge_once`` by name, so wrapping only the
defining module would miss the calls the pipeline actually makes.  A
target that the library no longer defines is left out, so its layer
records no spans and reports 0.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array

import numpy as np

from actmon import bdd, evaluation, monitor, network, patterns, traces
from actmon.bdd import BddStore

# (owner, attribute, span name); an owner is a module or a class
TARGETS = (
    (network, "forward", "network.forward"),
    (network, "train_toy", "network.train"),
    (traces, "write_traces", "traces.write"),
    (traces, "read_traces", "traces.read"),
    (patterns, "binarize", "patterns.binarize"),
    (monitor, "binarize", "patterns.binarize"),
    (BddStore, "encode_cube", "bdd.encode_cube"),
    (BddStore, "union", "bdd.union"),
    (BddStore, "exists", "bdd.exists"),
    (BddStore, "to_dict", "bdd.to_dict"),
    (bdd, "from_dict", "bdd.from_dict"),
    (monitor, "build", "monitor.build"),
    (monitor, "enlarge_once", "monitor.enlarge_once"),
    (evaluation, "enlarge_once", "monitor.enlarge_once"),
    (monitor, "query", "monitor.query"),
    (evaluation, "query", "monitor.query"),
    (monitor, "save_monitor", "monitor.save"),
    (monitor, "load_monitor", "monitor.load"),
    (evaluation, "evaluate", "evaluation.evaluate"),
    (evaluation, "gamma_sweep", "evaluation.gamma_sweep"),
)


class Tracer:
    """Spans of one traced iteration, kept in memory until written out."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack: list[int] = []
        # nodes visited by every traced BddStore.contains call
        self.path_total = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """``fn`` with a span recorded around every call."""
        nid = self._id(name)
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of benchmark code, such as one stage."""
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter_ns()
            self._stack.pop()

    def arrays(self) -> dict[str, np.ndarray]:
        """The spans as columns, plus each span's duration and self time
        in ns.  A span's self time is its duration minus the durations of
        its direct children; children are nested inside their parent and
        do not overlap, so the self times of a root span's subtree add up
        to its duration exactly."""
        a = {
            "name": np.array(self.name, dtype=np.int32),
            "start": np.array(self.start, dtype=np.int64),
            "end": np.array(self.end, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
        }
        a["dur"] = a["end"] - a["start"]
        child = np.zeros(len(a["dur"]), dtype=np.int64)
        nested = a["parent"] >= 0
        np.add.at(child, a["parent"][nested], a["dur"][nested])
        a["self"] = a["dur"] - child
        return a

    def summary(self) -> dict[str, dict[str, int]]:
        """Per span name: call count, total and self time in ns."""
        a = self.arrays()
        out = {}
        for nid, name in enumerate(self.names):
            mask = a["name"] == nid
            out[name] = {
                "calls": int(mask.sum()),
                "total_ns": int(a["dur"][mask].sum()),
                "self_ns": int(a["self"][mask].sum()),
            }
        return out

    def by_root(self) -> dict[str, dict[str, float]]:
        """Per root span name: its wall time and the self time of each
        layer (the span-name prefix before the dot) in its subtrees, in
        seconds; a root's own self time is reported as ``glue``."""
        a = self.arrays()
        parent = a["parent"]
        root = np.arange(len(parent))
        while True:  # pointer jumping: every span learns its root span
            up = parent[root]
            nxt = np.where(up >= 0, up, root)
            if np.array_equal(nxt, root):
                break
            root = nxt
        out: dict[str, dict[str, float]] = {}
        for top in np.flatnonzero(parent < 0):
            layers = out.setdefault(self.names[a["name"][top]],
                                    {"wall": 0.0, "glue": 0.0})
            layers["wall"] += a["dur"][top] / 1e9
            layers["glue"] += a["self"][top] / 1e9
            below = (root == top) & (parent >= 0)
            per_name = np.bincount(a["name"][below], weights=a["self"][below],
                                   minlength=len(self.names))
            for nid in np.flatnonzero(per_name):
                layer = self.names[nid].split(".")[0]
                layers[layer] = layers.get(layer, 0.0) + per_name[nid] / 1e9
        return out


def write_spans(path, tracers: list[Tracer]) -> None:
    """Save the spans of several tracers as one ``.npz`` table: columns
    ``name`` (index into ``names``), ``start``, ``end`` (ns), ``parent``
    (row index, -1 for a root) and ``iteration`` (which tracer)."""
    index: dict[str, int] = {}
    cols: dict[str, list] = {k: [] for k in ("name", "start", "end", "parent",
                                             "iteration")}
    offset = 0
    for i, tracer in enumerate(tracers):
        a = tracer.arrays()
        remap = np.array([index.setdefault(n, len(index)) for n in tracer.names],
                         dtype=np.int32)
        cols["name"].append(remap[a["name"]])
        cols["start"].append(a["start"])
        cols["end"].append(a["end"])
        cols["parent"].append(np.where(a["parent"] >= 0, a["parent"] + offset, -1))
        cols["iteration"].append(np.full(len(a["start"]), i, dtype=np.int32))
        offset += len(a["start"])
    np.savez(path, names=np.array(list(index)),
             **{k: np.concatenate(v) for k, v in cols.items()})


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install ``tracer``'s wrappers on every target the library defines;
    restore on exit."""
    present = [(owner, attr, name) for owner, attr, name in TARGETS
               if attr in owner.__dict__]
    if "contains" in BddStore.__dict__:
        present.append((BddStore, "contains", "bdd.contains"))
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in present]
    contains_with_cost = BddStore.__dict__.get("contains_with_cost")

    def contains(store, a, bits):
        found, visits = contains_with_cost(store, a, bits)
        tracer.path_total += visits
        return found

    try:
        for owner, attr, name in present:
            fn = getattr(owner, attr)
            if (owner, attr) == (BddStore, "contains") and contains_with_cost:
                fn = contains  # the same answer, plus the nodes visited
            setattr(owner, attr, tracer.wrap(name, fn))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
