"""One benchmark workload, run in its own process.

    python3 bench/workload.py --workload toy-pipeline --seed 1 --seconds 50 --trace 0

``bench/run.py`` starts this with BLAS and OpenMP pinned to one thread;
start it through that runner.  The process repeats one iteration until
``--seconds`` have passed, at least once: generate the workload's inputs
from the seed (timed as set-up), then run the pipeline -- extract, sweep,
build, save, load, query stream.  Every output is checked against the popcount
oracle in ``oracle.py`` outside the timed regions.  The process prints one
line per metric, digest and exact count, then one JSON result line.

With ``--trace 1`` untraced and traced iterations alternate.  The traced
ones record spans around actmon's public functions (``tracing.py``); the
result holds the per-layer metrics and the tracing overhead, and the spans
are written to ``.bench_out/spans_<workload>.npz``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

if not (ROOT / "src" / "actmon" / "__init__.py").is_file():
    sys.stderr.write(f"bench: no actmon sources under {ROOT / 'src'}\n")
    sys.exit(2)
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import actmon  # noqa: E402
from actmon import evaluation, monitor, network, patterns, traces  # noqa: E402
from actmon.monitor import Verdict  # noqa: E402
from actmon.traces import TraceHeader, TraceRecord  # noqa: E402

import oracle  # noqa: E402
import speed  # noqa: E402
from tracing import Tracer, patched, write_spans  # noqa: E402

# metric names and units, as BENCHMARK.json defines them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

STAGES = ("setup", "extract", "sweep", "build", "save", "load", "query")
# consecutive query calls per window of the query stream, over which the
# latency percentiles are taken: 10 calls lie beyond a window's 99th
# percentile.  Every WINDOWS_PER_SEGMENT windows the clock laps (speed.Clock).
QUERY_WINDOW = 1000
WINDOWS_PER_SEGMENT = 5
VERDICT_CODE = {
    Verdict.IN_ZONE: oracle.IN,
    Verdict.OUT_OF_ZONE: oracle.OUT,
    Verdict.NO_ZONE: oracle.NOZONE,
}

# -- workloads -----------------------------------------------------------------


@dataclass
class Inputs:
    """What set-up hands to the pipeline."""

    header: TraceHeader
    selection: patterns.NeuronSelection
    # train and eval records; on toy-pipeline this runs the network
    records: Callable[[], tuple[list[TraceRecord], list[TraceRecord]]]
    # query-stream records after the eval set, not written to trace files
    extra: list[TraceRecord]
    # digest of the generated inputs, compared across repeated set-ups
    fingerprint: str


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, dict], Inputs]
    gamma: int
    sweep: tuple[int, ...]
    full: dict
    tiny: dict


TOY_LAYER = 1
# The trained toy network and the synthetic layers' class prototypes and
# neuron scores are the same for every seed, so that zone sizes, and with
# them build and save/load work, do not vary from seed to seed; the seed
# draws the samples.  7 is the README's training seed.
TOY_TRAIN_SEED = 7
LAYER_SEED = 0


def setup_toy(seed: int, p: dict) -> Inputs:
    x, y = network.make_blobs(per_class=p["train_per_class"],
                              seed=TOY_TRAIN_SEED)
    xe, ye = network.make_blobs(
        per_class=p["eval_per_class"], seed=seed, offset=p["shift"])
    # make_blobs returns the samples class by class; a monitor in use sees
    # them in no such order
    order = np.random.default_rng(seed).permutation(len(ye))
    xe, ye = xe[order], ye[order]
    model = network.train_toy(x, y, seed=TOY_TRAIN_SEED)
    header = TraceHeader(layer=TOY_LAYER, width=model.layer_width(TOY_LAYER),
                         classes=model.class_count)
    digest = hashlib.sha256()
    for arr in [x, xe] + [layer.weights for layer in model.layers]:
        digest.update(arr.tobytes())

    def records():
        return _run_network(model, x, y, "t"), _run_network(model, xe, ye, "e")

    return Inputs(header, patterns.identity_selection(header.width, TOY_LAYER),
                  records, [], digest.hexdigest())


def _run_network(model, xs, ys, prefix) -> list[TraceRecord]:
    out = []
    for i, (row, label) in enumerate(zip(xs, ys)):
        trace = network.forward(model, row)
        out.append(TraceRecord(f"{prefix}{i}", int(label),
                               network.decide(trace.final),
                               trace.outputs[TOY_LAYER]))
    return out


def _synthetic(rng, protos, n, flip, mispredict, prefix) -> list[TraceRecord]:
    """Records around class prototypes: each bit of the prototype flips
    with probability ``flip``, on-bits get positive magnitudes (3
    decimals, so trace files stay short), and a ``mispredict`` share of
    records gets a wrong predicted label."""
    classes, width = protos.shape
    out = []
    for lo in range(0, n, oracle.PACK_ROWS):
        m = min(oracle.PACK_ROWS, n - lo)
        true = rng.integers(0, classes, m)
        bits = protos[true] ^ (rng.random((m, width)) < flip)
        acts = np.where(bits, np.round(rng.uniform(0.001, 3.0, (m, width)), 3),
                        0.0)
        pred = true.copy()
        wrong = rng.random(m) < mispredict
        pred[wrong] = (true[wrong]
                       + rng.integers(1, classes, int(wrong.sum()))) % classes
        out.extend(TraceRecord(f"{prefix}{lo + i}", int(true[i]), int(pred[i]),
                               acts[i]) for i in range(m))
    return out


def _fingerprint(records: list[TraceRecord]) -> str:
    digest = hashlib.sha256()
    for r in records[:200] + records[-200:]:
        digest.update(f"{r.true_label},{r.pred_label}".encode())
        digest.update(r.activations.tobytes())
    return digest.hexdigest()


def _fixed_layer(p: dict) -> tuple[np.ndarray, np.ndarray]:
    """Class prototypes (one bit pattern per class) and neuron scores."""
    rng = np.random.default_rng(LAYER_SEED)
    return rng.random((p["classes"], p["width"])) < 0.5, rng.random(p["width"])


def setup_wide_build(seed: int, p: dict) -> Inputs:
    protos, _ = _fixed_layer(p)
    rng = np.random.default_rng(seed)
    train = _synthetic(rng, protos, p["n_train"], 0.05, 0.03, "t")
    stream = _synthetic(rng, protos, p["n_stream"], 0.05, 0.03, "q")
    header = TraceHeader(layer=0, width=p["width"], classes=p["classes"])
    return Inputs(header, patterns.identity_selection(p["width"]),
                  lambda: (train, stream[:p["n_eval"]]), stream[p["n_eval"]:],
                  _fingerprint(train + stream))


def setup_wide_query(seed: int, p: dict) -> Inputs:
    protos, scores = _fixed_layer(p)
    selection = patterns.select_top_fraction(scores, 0.5)
    rng = np.random.default_rng(seed)
    train = _synthetic(rng, protos, p["n_train"], 0.05, 0.03, "t")
    # half the stream replays correctly classified training activations
    # (in the zone: the full path is walked), half are fresh samples at
    # twice the training noise
    correct = [r for r in train if r.true_label == r.pred_label]
    n_replay = p["n_stream"] // 2
    replay = [TraceRecord(f"r{i}", correct[j].true_label, correct[j].pred_label,
                          correct[j].activations)
              for i, j in enumerate(rng.integers(0, len(correct), n_replay))]
    fresh = _synthetic(rng, protos, p["n_stream"] - n_replay, 0.10, 0.0, "f")
    mixed = replay + fresh
    stream = [mixed[k] for k in rng.permutation(len(mixed))]
    header = TraceHeader(layer=0, width=p["width"], classes=p["classes"])
    return Inputs(header, selection, lambda: (train, stream[:p["n_eval"]]),
                  stream[p["n_eval"]:], _fingerprint(train + stream))


WORKLOADS = {
    "toy-pipeline": Workload(
        setup_toy, gamma=1, sweep=(0, 1, 2, 3),
        full=dict(train_per_class=2000, eval_per_class=5000, shift=2.0,
                  io_reps=100),
        tiny=dict(train_per_class=60, eval_per_class=100, shift=2.0,
                  io_reps=2)),
    "wide-build": Workload(
        setup_wide_build, gamma=1, sweep=(0,),
        full=dict(width=64, classes=4, n_train=5000, n_eval=2000,
                  n_stream=40_000, io_reps=1),
        tiny=dict(width=64, classes=4, n_train=200, n_eval=200,
                  n_stream=400, io_reps=1)),
    "wide-query": Workload(
        setup_wide_query, gamma=0, sweep=(0,),
        full=dict(width=128, classes=4, n_train=5000, n_eval=5000,
                  n_stream=100_000, io_reps=5),
        tiny=dict(width=128, classes=4, n_train=200, n_eval=200,
                  n_stream=1000, io_reps=1)),
}

# -- one pipeline iteration ----------------------------------------------------


@dataclass
class Iteration:
    inputs: Inputs
    # per stage, seconds without the reference kernel calls: as measured,
    # and scaled to the reference machine (speed.Clock)
    times: dict[str, float]
    scaled: dict[str, float]
    written: tuple[list[TraceRecord], list[TraceRecord]]
    read: tuple[list[TraceRecord], list[TraceRecord]]
    headers: tuple[TraceHeader, TraceHeader]
    rows: list
    loaded: monitor.Monitor
    stream: list[TraceRecord]
    latency_ns: np.ndarray
    # the query stream's windows (QUERY_WINDOW calls each): calls and
    # their segment's factor
    windows: list[tuple[slice, float]]
    # every timed save_monitor and load_monitor call: ns and its factor
    io_ns: dict[str, list[tuple[int, float]]]
    codes: np.ndarray
    # outputs that must repeat exactly, run after run for one seed
    exact: dict


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_iteration(wl: Workload, params: dict, seed: int, work: Path,
                  tracer: Tracer | None) -> Iteration:
    """Set up the inputs, then run the pipeline on them."""
    clock = speed.Clock()

    @contextlib.contextmanager
    def stage(name):
        with tracer.span("stage." + name) if tracer else contextlib.nullcontext():
            clock.start(name)
            yield
            clock.lap()

    train_path, eval_path = work / "train.jsonl", work / "eval.jsonl"
    csv_path, monitor_path = work / "sweep.csv", work / "monitor.json"
    # every write goes to a new file: ext4 starts writing a file back to
    # disk when it is closed after being truncated and rewritten, and that
    # disk wait is the file system's, not actmon's
    for path in (train_path, eval_path, csv_path, monitor_path):
        path.unlink(missing_ok=True)

    with stage("setup"):
        inputs = wl.setup(seed, params)
    # the inputs live through the iteration; keep the collector from
    # rescanning them during the library's allocations in timed stages
    gc.collect()
    gc.freeze()

    with stage("extract"):
        train, evals = inputs.records()
        clock.lap(speed.LAP_NS)
        traces.write_traces(train_path, inputs.header, train)
        clock.lap(speed.LAP_NS)
        traces.write_traces(eval_path, inputs.header, evals)
        clock.lap(speed.LAP_NS)
        train_header, train_read = traces.read_traces(train_path)
        clock.lap(speed.LAP_NS)
        eval_header, eval_read = traces.read_traces(eval_path)
    with stage("sweep"):
        rows = evaluation.gamma_sweep(train_read, eval_read, inputs.selection,
                                      wl.sweep)
    evaluation.write_report_csv(csv_path, rows)
    with stage("build"):
        built = monitor.build(train_read, inputs.selection, wl.gamma)
    nodes_created = len(built.store) - 2
    # a small monitor's save and load take well under a millisecond: time
    # io_reps calls of each; save_s and load_s are medians over every call
    # of the run.  A call is kept with the segment it ran in.
    io_calls: dict[str, list[tuple[int, int]]] = {"save": [], "load": []}
    with stage("save"):
        for _ in range(params["io_reps"]):
            monitor_path.unlink(missing_ok=True)
            t0 = time.perf_counter_ns()
            monitor.save_monitor(built, monitor_path)
            io_calls["save"].append((time.perf_counter_ns() - t0, clock.segment))
            clock.lap(speed.LAP_NS)
    del built
    with stage("load"):
        for _ in range(params["io_reps"]):
            t0 = time.perf_counter_ns()
            loaded = monitor.load_monitor(monitor_path)
            io_calls["load"].append((time.perf_counter_ns() - t0, clock.segment))
            clock.lap(speed.LAP_NS)

    stream = eval_read + inputs.extra
    calls = [(r.activations, r.pred_label) for r in stream]
    latency = [0] * len(calls)
    verdicts = [None] * len(calls)
    now = time.perf_counter_ns
    edges = np.linspace(0, len(calls), max(1, len(calls) // QUERY_WINDOW) + 1,
                        dtype=np.int64).tolist()
    windows = []
    with stage("query"):
        query = monitor.query
        for w, (lo, hi) in enumerate(zip(edges, edges[1:])):
            if w and w % WINDOWS_PER_SEGMENT == 0:
                clock.lap()
            windows.append((slice(lo, hi), clock.segment))
            for i in range(lo, hi):
                acts, pred = calls[i]
                t0 = now()
                verdicts[i] = query(loaded, acts, pred)
                latency[i] = now() - t0

    codes = np.array([VERDICT_CODE[v] for v in verdicts], dtype=np.int64)
    exact = {
        "traces_sha256": [_sha256(train_path), _sha256(eval_path)],
        "sweep_csv_sha256": _sha256(csv_path),
        "monitor_sha256": _sha256(monitor_path),
        "monitor_bytes": monitor_path.stat().st_size,
        "traces_bytes": train_path.stat().st_size + eval_path.stat().st_size,
        "inputs_sha256": inputs.fingerprint,
        "nodes_created": nodes_created,
        "nodes_live": len(loaded.store) - 2,
        "verdicts": [int((codes == c).sum())
                     for c in (oracle.IN, oracle.OUT, oracle.NOZONE)],
    }
    factor = clock.factors
    return Iteration(
        inputs, clock.raw, clock.scaled, (train, evals),
        (train_read, eval_read), (train_header, eval_header), rows, loaded,
        stream, np.array(latency, dtype=np.int64),
        [(calls, factor[seg]) for calls, seg in windows],
        {kind: [(ns, factor[seg]) for ns, seg in samples]
         for kind, samples in io_calls.items()},
        codes, exact)


# -- checks --------------------------------------------------------------------


class Checker:
    """Counts operations and failures; a failure is an exception, an
    output an oracle disagrees with, or an exact output that changed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str, ops: int = 1, bad: int | None = None):
        self.attempted += ops
        if not ok:
            self.failed += 1 if bad is None else bad
            self.messages.append(what)


class Expected:
    """Expected outputs of one run, computed once from the first iteration's
    records (later iterations must reproduce those records exactly)."""

    def __init__(self, it: Iteration, indices):
        train_read, eval_read = it.read
        zones = oracle.Zones(train_read, indices)
        self.dist, self.true, self.pred = zones.min_distance(it.stream)
        self.n_eval = len(eval_read)
        self.correct_train = [r for r in train_read
                              if r.true_label == r.pred_label]


def check_iteration(chk: Checker, wl: Workload, it: Iteration, ref: Expected,
                    first: Iteration | None, header: TraceHeader):
    for written, read in zip(it.written, it.read):
        same = len(written) == len(read) and all(
            (w.id, w.true_label, w.pred_label) == (r.id, r.true_label, r.pred_label)
            and np.array_equal(np.asarray(w.activations, dtype=np.float64),
                               r.activations)
            for w, r in zip(written, read))
        chk.check(same, "trace file round trip changed records")
    chk.check(it.headers == (header, header), "trace header changed")

    expected = oracle.verdicts(ref.dist, wl.gamma)
    wrong = int((it.codes != expected).sum())
    chk.check(wrong == 0, f"{wrong} query verdicts disagree with the oracle",
              ops=len(expected), bad=wrong)

    d = slice(0, ref.n_eval)
    for row, gamma in zip(it.rows, wl.sweep):
        want = oracle.sweep_row(ref.dist[d], ref.true[d], ref.pred[d], gamma)
        chk.check(row == want, f"sweep row {row} != oracle {want}")
    chk.check([r.gamma for r in it.rows] == list(wl.sweep),
              "sweep levels differ from the requested ones")
    rates = [r.out_rate for r in it.rows]
    chk.check(all(a >= b for a, b in zip(rates, rates[1:])),
              f"out_rate increases across the sweep: {rates}")

    if first is None:
        row = evaluation.evaluate(it.loaded, ref.correct_train)
        chk.check(row.n_out_of_pattern == 0,
                  f"{row.n_out_of_pattern} warnings on training records",
                  ops=len(ref.correct_train), bad=row.n_out_of_pattern)
    else:
        chk.check(it.exact == first.exact,
                  f"exact outputs changed between iterations: "
                  f"{it.exact} != {first.exact}")


# -- metrics -------------------------------------------------------------------


def end_to_end(its: list[Iteration], scaled: bool = True) -> dict:
    """End-to-end metrics of the untraced iterations of one run.

    Every time is a median over the run.  Stage times, ``setup_s`` and
    ``queries_per_s`` are medians over the run's iterations; ``save_s``
    and ``load_s`` are medians over every timed call of the run;
    ``query_us_p50`` and ``query_us_p99`` are medians over every window
    of the query stream, in every iteration, of the window's percentiles.
    With ``scaled`` each sample is scaled to the reference machine by the
    factor of the segment it ran in (see ``speed.py``).
    """
    def k(factor):
        return factor if scaled else 1.0

    def median(stage):
        return statistics.median(
            (it.scaled if scaled else it.times)[stage] for it in its)

    def median_call(stage):
        return statistics.median(ns * k(f) for it in its
                                 for ns, f in it.io_ns[stage]) / 1e9

    p50, p99 = np.median([np.percentile(it.latency_ns[calls], [50, 99]) * k(f)
                          for it in its for calls, f in it.windows],
                         axis=0) / 1e3
    return {
        "setup_s": median("setup"),
        "extract_s": median("extract"),
        "sweep_s": median("sweep"),
        "build_s": median("build"),
        "save_s": median_call("save"),
        "load_s": median_call("load"),
        "monitor_bytes": its[0].exact["monitor_bytes"],
        "query_us_p50": float(p50),
        "query_us_p99": float(p99),
        "queries_per_s": statistics.median(
            len(it.latency_ns) / (it.scaled if scaled else it.times)["query"]
            for it in its),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer: Tracer, it: Iteration) -> dict:
    s = tracer.summary()

    def calls(name):
        return s[name]["calls"] if name in s else 0

    def total_s(name):
        return s[name]["total_ns"] / 1e9 if name in s else 0.0

    def self_s(name):
        return s[name]["self_ns"] / 1e9 if name in s else 0.0

    def mean_us(name, key="total_ns"):
        return s[name][key] / s[name]["calls"] / 1e3 if calls(name) else 0.0

    stage_names = ["stage." + st for st in STAGES]
    in_zone, out_zone, no_zone = it.exact["verdicts"]
    return {
        "network.forward_calls": calls("network.forward"),
        "network.forward_us": mean_us("network.forward"),
        "network.train_s": total_s("network.train"),
        "traces.write_s": total_s("traces.write"),
        "traces.read_s": total_s("traces.read"),
        "traces.bytes": it.exact["traces_bytes"],
        "patterns.binarize_calls": calls("patterns.binarize"),
        "patterns.binarize_us": mean_us("patterns.binarize"),
        "bdd.encode_cube_calls": calls("bdd.encode_cube"),
        "bdd.encode_cube_s": total_s("bdd.encode_cube"),
        "bdd.union_calls": calls("bdd.union"),
        "bdd.union_s": total_s("bdd.union"),
        "bdd.exists_calls": calls("bdd.exists"),
        "bdd.exists_s": total_s("bdd.exists"),
        "bdd.nodes_created": it.exact["nodes_created"],
        "bdd.nodes_live": it.exact["nodes_live"],
        "bdd.live_ratio": it.exact["nodes_live"] / it.exact["nodes_created"],
        "bdd.contains_calls": calls("bdd.contains"),
        "bdd.contains_us": mean_us("bdd.contains"),
        "bdd.path_len_mean": (tracer.path_total / calls("bdd.contains")
                              if calls("bdd.contains") else 0.0),
        "bdd.to_dict_s": mean_us("bdd.to_dict") / 1e6,
        "bdd.from_dict_s": mean_us("bdd.from_dict") / 1e6,
        "monitor.zone0_s": self_s("monitor.build"),
        "monitor.enlarge_calls": calls("monitor.enlarge_once"),
        "monitor.enlarge_s": total_s("monitor.enlarge_once"),
        "monitor.query_self_us": mean_us("monitor.query", "self_ns"),
        "monitor.verdict_in": in_zone,
        "monitor.verdict_out": out_zone,
        "monitor.verdict_nozone": no_zone,
        "evaluation.evaluate_calls": calls("evaluation.evaluate"),
        "evaluation.evaluate_s": total_s("evaluation.evaluate"),
        "trace.spans": len(tracer.start),
        "trace.glue_share": (sum(s[n]["self_ns"] for n in stage_names)
                             / sum(s[n]["total_ns"] for n in stage_names)),
    }


# -- running a workload --------------------------------------------------------


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "actmon": actmon.__version__,
        "blas_threads": {v: os.environ.get(v) for v in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run(args, work: Path) -> tuple[dict, Checker, dict]:
    wl = WORKLOADS[args.workload]
    params = wl.tiny if args.tiny else wl.full
    chk = Checker()
    report: dict = {"env": environment(), "workload": args.workload,
                    "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "tiny": args.tiny}

    untraced: list[Iteration] = []
    traced: list[tuple[Iteration, Tracer]] = []
    first: Iteration | None = None
    ref: Expected | None = None
    deadline = time.perf_counter() + args.seconds
    min_iterations = 2 if args.trace else 1
    n = 0
    while n < min_iterations or time.perf_counter() < deadline:
        tracer = Tracer() if args.trace and n % 2 == 1 else None
        gc.collect()
        try:
            with patched(tracer) if tracer else contextlib.nullcontext():
                it = run_iteration(wl, params, args.seed, work, tracer)
        except Exception:
            traceback.print_exc()
            chk.check(False, "iteration raised")
            break
        if ref is None:
            ref = Expected(it, it.inputs.selection.indices)
        check_iteration(chk, wl, it, ref, first, it.inputs.header)
        # keep only what the metrics need; the records and the loaded
        # monitor go, so iterations do not pile up memory
        it.inputs = it.written = it.read = it.stream = it.loaded = None
        first = first or it
        if tracer:
            traced.append((it, tracer))
        else:
            untraced.append(it)
        n += 1
        if chk.failed:
            break

    report["exact"] = first.exact if first else None
    report["iterations"] = [
        {"traced": was_traced, **it.times,
         "query_us_p50": float(np.percentile(it.latency_ns, 50)) / 1e3,
         "query_us_p99": float(np.percentile(it.latency_ns, 99)) / 1e3,
         "scaled": it.scaled, "io_ns": it.io_ns,
         "query_windows": [(w.start, w.stop, f) for w, f in it.windows]}
        for it, was_traced in [(it, False) for it in untraced]
        + [(it, True) for it, _ in traced]]
    if not untraced or (args.trace and not traced):
        return {}, chk, report
    if not args.trace:
        metrics = end_to_end(untraced)
        report["raw_metrics"] = end_to_end(untraced, scaled=False)
        report["query_windows"] = sum(len(it.windows) for it in untraced)
    else:
        layer_runs = [per_layer(tracer, it) for it, tracer in traced]
        metrics = {name: statistics.median(run[name] for run in layer_runs)
                   for name in layer_runs[0]}
        untraced_s = statistics.median(
            sum(it.times.values()) for it in untraced)
        traced_s = statistics.median(
            sum(it.times.values()) for it, _ in traced)
        metrics["trace.overhead_s"] = traced_s - untraced_s
        metrics["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
        report["stages"] = traced[0][1].by_root()
        write_spans(OUT_DIR / f"spans_{args.workload}.npz",
                    [t for _, t in traced])
    return metrics, chk, report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the smoke test")
    args = parser.parse_args()
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")

    work = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        metrics, chk, report = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    correct = chk.failed == 0 and set(metrics) == set(units)
    attempted = max(chk.attempted, 1)
    report.update(metrics=metrics, attempted=attempted, failed=chk.failed,
                  error_rate=chk.failed / attempted, problems=chk.messages)
    suffix = ".trace" if args.trace else ""
    (OUT_DIR / f"BENCH_{args.workload}{suffix}.json").write_text(
        json.dumps(report, indent=1) + "\n")

    print(f"env {json.dumps(report['env'], sort_keys=True)}")
    for problem in chk.messages:
        print(f"FAILED {problem}")
    print(f"error_rate = {chk.failed / attempted} "
          f"({chk.failed} failed of {attempted} operations)")
    if "query_windows" in report:
        print(f"query_windows = {report['query_windows']} (percentiles per "
              f"window of about {QUERY_WINDOW} calls, median over windows)")
    for key, value in (report["exact"] or {}).items():
        print(f"exact {key} = {value}")
    for stage_name, layers in report.get("stages", {}).items():
        print(f"{stage_name} " + " ".join(
            f"{layer}={sec:.4f}s" for layer, sec in layers.items()))
    for name, value in report.get("raw_metrics", {}).items():
        print(f"raw {name} = {value} {units[name]}")
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": chk.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
