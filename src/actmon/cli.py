"""Command-line pipeline: toy training, trace extraction, monitor
build/query, gamma sweeps and monitor statistics.

Every command is deterministic given identical inputs and seeds.  Exit
codes: 0 success, 1 validation or schema problem or lack of memory, 2 I/O
problem.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import evaluation, monitor as monitor_mod, network, patterns
from .bdd import MAX_VARS
from .errors import (JSON_LINE, ActmonError, SchemaError, as_int, as_real,
                     finite_floats, read_json, replace_on_success)
from .patterns import identity_selection, score_neurons, select_top_fraction
from .traces import extract, labels, read_traces, write_traces


def cmd_train_toy(args) -> None:
    x, y = network.make_blobs(seed=args.seed, per_class=args.per_class)
    model = network.train_toy(x, y, seed=args.seed, epochs=args.epochs)
    network.save_model(model, args.out)
    accuracy = network.evaluate_accuracy(model, x, y)
    print(f"wrote model to {args.out}")
    print(f"training accuracy {accuracy:.4f} "
          f"({len(y)} samples, {args.epochs} epochs, seed {args.seed})")


def _load_dataset(args) -> tuple[np.ndarray, np.ndarray]:
    if args.data:
        payload = read_json(args.data, "dataset")
        try:
            x = finite_floats(payload["inputs"], "inputs", 2)
            y = network._label_array(payload["labels"])
        except (KeyError, TypeError, ValueError, SchemaError) as exc:
            raise SchemaError(f"malformed dataset file: {exc}") from exc
        if x.shape[0] != y.shape[0]:
            raise SchemaError("dataset inputs/labels shapes disagree")
        return x, y
    return network.make_blobs(seed=args.seed, per_class=args.per_class,
                              offset=as_real(args.shift, "--shift"))


def cmd_extract(args) -> None:
    model = network.load_model(args.model)
    x, y = _load_dataset(args)
    header, records = extract(model, x, y, args.layer)
    write_traces(args.out, header, records)
    print(f"wrote {len(records)} traces to {args.out} "
          f"(layer {args.layer}, width {header.width})")


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise ValueError(f"expected comma-separated integers, got {text!r}") \
            from exc


def _parse_gammas(text: str) -> list[int]:
    values = _parse_int_list(text)
    if len(values) == 1:  # single value means a full sweep 0..gamma
        values = list(range(as_int(values[0], "gamma", 0, MAX_VARS) + 1))
    return values


def _parse_classes(text: str | None, header) -> list[int] | None:
    """The ``--classes`` list, each index inside ``0..header.classes-1``;
    ``None`` when the option is absent."""
    if not text:
        return None
    return [as_int(c, "class index", 0, header.classes - 1)
            for c in _parse_int_list(text)]


def _make_selection(args, header, records, classes):
    """Selection for build/sweep: gradient-ranked when a model is given,
    identity order otherwise."""
    fraction = patterns._fraction(args.select_frac)
    if args.model is None:
        if fraction < 1.0:
            raise ValueError(
                "--select-frac below 1.0 needs --model for gradient scores")
        return identity_selection(header.width, layer=header.layer)
    model = network.load_model(args.model)
    if not model.is_relu_layer(header.layer) \
            or model.layer_width(header.layer) != header.width:
        raise ValueError(
            f"model layer {header.layer} does not match the trace header")
    monitored = classes if classes else np.unique(labels(records)[0]).tolist()
    per_class = [score_neurons(model, records, header.layer, c)
                 for c in monitored]
    # one shared store needs one variable order; averaging the per-class
    # scores keeps neurons that matter to any monitored class
    scores = np.mean(per_class, axis=0)
    return select_top_fraction(scores, fraction, layer=header.layer)


def cmd_build(args) -> None:
    header, records = read_traces(args.traces)
    classes = _parse_classes(args.classes, header)
    selection = _make_selection(args, header, records, classes)
    built = monitor_mod.build(records, selection, args.gamma, classes=classes)
    monitor_mod.save_monitor(built, args.out)
    print(f"wrote monitor to {args.out} "
          f"(classes {built.classes}, gamma {built.gamma}, "
          f"{built.selection.width} monitored neurons)")


def cmd_query(args) -> None:
    mon = monitor_mod.load_monitor(args.monitor)
    header, records = read_traces(args.traces)
    if header.layer != mon.selection.layer:
        raise ValueError(f"trace layer {header.layer} does not match "
                         f"monitor layer {mon.selection.layer}")
    if header.width != mon.selection.layer_width:
        raise ValueError(f"trace width {header.width} does not match "
                         f"monitor layer width {mon.selection.layer_width}")
    verdicts = monitor_mod._batch_verdicts(mon, records)
    counts = {v: verdicts.count(v) for v in monitor_mod.Verdict}
    with replace_on_success(args.out) as fh:
        for record, verdict in zip(records, verdicts):
            fh.write(JSON_LINE({"id": record.id, "verdict": verdict.value})
                     + "\n")
    total = len(records)
    print(f"wrote {total} verdicts to {args.out}")
    for verdict in monitor_mod.Verdict:
        print(f"{verdict.value}: {counts[verdict]}"
              + (f" ({counts[verdict] / total:.2%})" if total else ""))


def cmd_sweep(args) -> None:
    header, train = read_traces(args.traces)
    eval_header, eval_records = read_traces(args.eval)
    if eval_header.width != header.width:
        raise ValueError(
            f"eval trace width {eval_header.width} does not match "
            f"training trace width {header.width}")
    if eval_header.layer != header.layer:
        raise ValueError(
            f"eval trace layer {eval_header.layer} does not match "
            f"training trace layer {header.layer}")
    classes = _parse_classes(args.classes, header)
    gammas = _parse_gammas(args.gamma)
    selection = _make_selection(args, header, train, classes)
    rows = evaluation.gamma_sweep(
        train, eval_records, selection, gammas, classes=classes)
    evaluation.write_report_csv(args.out, rows)
    print(f"wrote report to {args.out}")
    print(",".join(evaluation.REPORT_COLUMNS))
    for row in rows:
        print(",".join(evaluation.report_cells(row, "-")))
    choice = evaluation.choose_gamma(rows)
    tag = "meets" if choice.qualified else "best effort, does not meet"
    print(f"suggested gamma: {choice.gamma} ({tag} the default "
          f"precision/warning-rate thresholds)")


def cmd_stats(args) -> None:
    mon = monitor_mod.load_monitor(args.monitor)
    print(f"gamma: {mon.gamma}")
    print(f"monitored layer: {mon.selection.layer}")
    print(f"monitored neurons ({mon.selection.width} of "
          f"{mon.selection.layer_width}): {list(mon.selection.indices)}")
    print(f"store nodes: {len(mon.store)}")
    for c in mon.classes:
        root = mon.zones[c]
        print(f"class {c}: sat_count {mon.store.sat_count(root)}, "
              f"nodes {mon.store.node_count(root)}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="actmon",
        description="Activation-pattern runtime monitors for ReLU "
                    "classifiers")
    sub = parser.add_subparsers(dest="command", required=True)
    selecting = argparse.ArgumentParser(add_help=False)
    selecting.add_argument("--model", help="enables gradient-based neuron "
                           "selection")
    selecting.add_argument("--select-frac", type=float, default=1.0,
                           help="fraction of neurons to monitor, in (0, 1]")
    selecting.add_argument("--classes", help="comma-separated class indices "
                           "(default: all classes present)")

    p = sub.add_parser("train-toy", help="train a small classifier on the "
                       "built-in blobs dataset")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=40)
    p.add_argument("--per-class", type=int, default=500)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_toy)

    p = sub.add_parser("extract", help="run data through a model and record "
                       "monitored-layer traces")
    p.add_argument("--model", required=True)
    p.add_argument("--layer", type=int, required=True,
                   help="0-based index of the ReLU layer to record")
    p.add_argument("--data", help="dataset JSON with inputs/labels; "
                   "defaults to built-in blobs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--per-class", type=int, default=500)
    p.add_argument("--shift", type=float, default=0.0,
                   help="translate blob samples by this distance")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("build", parents=[selecting],
                       help="build a monitor from training traces")
    p.add_argument("--traces", required=True)
    p.add_argument("--gamma", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("query", help="judge traces against a monitor")
    p.add_argument("--monitor", required=True)
    p.add_argument("--traces", required=True)
    p.add_argument("--out", required=True, help="verdict JSONL output")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("sweep", parents=[selecting],
                       help="report warning rates across gamma levels from "
                       "gamma-0 zone distances")
    p.add_argument("--traces", required=True, help="training traces")
    p.add_argument("--eval", required=True, help="labeled evaluation traces")
    p.add_argument("--gamma", required=True,
                   help="max gamma (e.g. 3) or comma list (e.g. 0,1,3)")
    p.add_argument("--out", required=True, help="report CSV output")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("stats", help="print monitor statistics")
    p.add_argument("--monitor", required=True)
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # an overflow to inf or NaN is refused by name where it is checked,
        # so numpy's warning would only repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            args.func(args)
    except (ValueError, ActmonError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
