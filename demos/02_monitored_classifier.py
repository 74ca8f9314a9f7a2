#!/usr/bin/env python3
"""A monitored toy classifier, end to end.

Trains a small ReLU network on three Gaussian blobs, records the second
hidden layer's activation patterns for the (correctly classified) training
data, builds a per-class monitor, and then watches two evaluation streams:
one drawn from the training distribution and one translated away from it.
The monitor flags samples whose activation pattern it has never seen near
the training data; the shifted stream triggers far more flags.
"""

import collections

from actmon import (
    Verdict,
    build,
    extract,
    identity_selection,
    make_blobs,
    query,
    train_toy,
)
from actmon.network import BLOB_STD

SEED = 0
LAYER = 1  # second hidden ReLU layer; close to the output
GAMMA = 1


def watch(monitor, records, label):
    counts = collections.Counter()
    flagged_wrong = 0
    for r in records:
        verdict = query(monitor, r.activations, r.pred_label)
        counts[verdict] += 1
        if verdict is Verdict.OUT_OF_ZONE and r.true_label != r.pred_label:
            flagged_wrong += 1
    n = len(records)
    out = counts[Verdict.OUT_OF_ZONE]
    print(f"{label:<22} flagged {out:>3}/{n} ({out / n:.1%})", end="")
    if out:
        print(f", of which misclassified: {flagged_wrong}/{out} "
              f"({flagged_wrong / out:.0%})")
    else:
        print()


print(f"training a 2-16-14-3 network on blobs (seed {SEED})...")
x_train, y_train = make_blobs(seed=SEED, per_class=500)
model = train_toy(x_train, y_train, seed=SEED)

_, train_records = extract(model, x_train, y_train, LAYER)
correct = sum(r.true_label == r.pred_label for r in train_records)
print(f"training accuracy: {correct / len(train_records):.1%}")

selection = identity_selection(model.layer_width(LAYER), layer=LAYER)
monitor = build(train_records, selection, gamma=GAMMA)
print(f"monitor: {monitor.width} neurons of layer {LAYER}, "
      f"gamma {GAMMA}, classes {monitor.classes}")
for c in monitor.classes:
    print(f"  class {c}: {monitor.store.sat_count(monitor.zones[c])} "
          f"training (gamma-0) patterns in zone")

print()
x_eval, y_eval = make_blobs(seed=SEED + 5000, per_class=300)
_, eval_records = extract(model, x_eval, y_eval, LAYER)
watch(monitor, eval_records, "familiar inputs:")

x_shift, y_shift = make_blobs(seed=SEED + 9000, per_class=300,
                              offset=2.0 * BLOB_STD)
_, shift_records = extract(model, x_shift, y_shift, LAYER)
watch(monitor, shift_records, "shifted inputs (2 sd):")
