#!/usr/bin/env python3
"""How coarse should the monitor be?  Sweeping the Hamming budget.

Zones of literally-seen patterns flag too eagerly at gamma 0; too large a
Hamming budget flags nothing.  This demo sweeps gamma, reading every level
off each validation record's Hamming distance to the zone of its predicted
class, and prints the two competing rates per level: how often
the monitor warns, and how often its warnings coincide with an actual
misclassification.  The stopping rule then picks the smallest gamma whose
warnings are both rare and precise.
"""

from actmon import (
    choose_gamma,
    extract,
    gamma_sweep,
    identity_selection,
    make_blobs,
    train_toy,
)
from actmon.network import BLOB_STD

SEED = 4
LAYER = 1


x_train, y_train = make_blobs(seed=SEED, per_class=500)
model = train_toy(x_train, y_train, seed=SEED)
_, train_records = extract(model, x_train, y_train, LAYER)

# a mildly shifted validation stream: some unfamiliar patterns, some
# genuine mistakes
x_val, y_val = make_blobs(seed=SEED + 9000, per_class=400,
                          offset=2.0 * BLOB_STD)
_, val_records = extract(model, x_val, y_val, LAYER)

selection = identity_selection(model.layer_width(LAYER), layer=LAYER)
rows = gamma_sweep(train_records, val_records, selection, [0, 1, 2, 3])

print(f"{'gamma':>5} {'warn rate':>10} {'warn precision':>15} "
      f"{'flagged':>8} {'of them wrong':>14}")
for row in rows:
    precision = ("-" if row.misclassified_within_out_rate is None
                 else f"{row.misclassified_within_out_rate:10.1%}")
    print(f"{row.gamma:>5} {row.out_rate:>10.2%} {precision:>15} "
          f"{row.n_out_of_pattern:>8} {row.n_out_misclassified:>14}")

choice = choose_gamma(rows, min_precision=0.3, max_out_rate=0.05)
print()
if choice.qualified:
    print(f"smallest gamma with precise-enough, rare-enough warnings: "
          f"{choice.gamma}")
else:
    print(f"no gamma met both thresholds; most precise level is "
          f"{choice.gamma}")
print("(precision transfers to operation only if the input distribution "
      "matches validation)")
