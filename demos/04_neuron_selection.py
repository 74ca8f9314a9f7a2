#!/usr/bin/env python3
"""Monitoring a subset of neurons, ranked by gradient influence.

BDD variable counts are the scaling bottleneck, so wide layers get pruned:
each neuron is scored by how strongly it sways the class of interest's
output score, and only the top fraction is monitored.  For a layer feeding
a linear output layer those scores are exactly the absolute connecting
weights.  This demo builds a single-class monitor over the top half of the
layer and compares it against monitoring everything.
"""

import numpy as np

from actmon import (
    build,
    extract,
    identity_selection,
    make_blobs,
    score_neurons,
    select_top_fraction,
    train_toy,
)

SEED = 1
LAYER = 1
WATCHED_CLASS = 2

x_train, y_train = make_blobs(seed=SEED, per_class=500)
model = train_toy(x_train, y_train, seed=SEED)

_, records = extract(model, x_train, y_train, LAYER)

scores = score_neurons(model, records, LAYER, WATCHED_CLASS)
against = np.abs(model.layers[-1].weights[:, WATCHED_CLASS])
print(f"scores for class {WATCHED_CLASS} equal |output weights|: "
      f"{np.array_equal(scores, against)}")
print("neuron scores:", np.array2string(scores, precision=3))

half = select_top_fraction(scores, 0.5, layer=LAYER)
print(f"\ntop 50%: neurons {list(half.indices)}")

for name, selection in (("full layer", identity_selection(len(scores),
                                                          layer=LAYER)),
                        ("top half", half)):
    monitor = build(records, selection, gamma=1, classes={WATCHED_CLASS})
    root = monitor.zones[WATCHED_CLASS]
    print(f"{name:<12} {selection.width:>2} vars, "
          f"{monitor.store.sat_count(root):>3} training (gamma-0) patterns, "
          f"{monitor.store.node_count(root):>4} BDD nodes")

print("\nfewer monitored neurons make a coarser, cheaper zone; the "
      "gradient ranking keeps the neurons the decision actually leans on")
