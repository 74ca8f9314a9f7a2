"""Independent popcount oracle for monitor verdicts and sweep rows.

A query is InZone iff the minimum Hamming distance from its pattern to the
correctly classified training patterns of its predicted class is at most
gamma; a predicted class without a zone is NoZone.  Patterns are
binarized here with numpy, packed into 64-bit words and compared with
``np.bitwise_count``, so nothing of actmon's binarization or BDD code is
reused.
"""

from __future__ import annotations

import numpy as np

from actmon.evaluation import EvalRow

IN, OUT, NOZONE = 0, 1, 2

# records binarized per numpy call, so no full activation matrix is copied
PACK_ROWS = 8192
# unique query patterns compared per broadcast, bounding the temporary
# distance matrix to DIST_ROWS x (training patterns of one class)
DIST_ROWS = 1024


def pack(records, indices) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Packed patterns (uint64 words per row), true and predicted labels.

    Bit ``i`` of a pattern is 1 iff the activation of neuron
    ``indices[i]`` is strictly positive.
    """
    cols = list(indices)
    parts = []
    for lo in range(0, len(records), PACK_ROWS):
        acts = np.stack([r.activations for r in records[lo:lo + PACK_ROWS]])
        parts.append(np.packbits(acts[:, cols] > 0.0, axis=1))
    packed = np.concatenate(parts)
    pad = -packed.shape[1] % 8
    packed = np.ascontiguousarray(np.pad(packed, ((0, 0), (0, pad))))
    true = np.array([r.true_label for r in records], dtype=np.int64)
    pred = np.array([r.pred_label for r in records], dtype=np.int64)
    return packed.view(np.uint64), true, pred


class Zones:
    """Per-class sets of packed training patterns, selected as the monitor
    selects them: records both labeled and predicted ``c``."""

    def __init__(self, train_records, indices):
        self.indices = tuple(indices)
        packed, true, pred = pack(train_records, self.indices)
        self.patterns = {
            c: np.unique(packed[(true == c) & (pred == c)], axis=0)
            for c in sorted(set(true.tolist()))}

    def min_distance(self, records) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Distance of each record to its predicted class's zone (-1 where
        that class has no zone), plus true and predicted labels.

        A monitored class without patterns is at distance ``width + 1``,
        out of reach of every gamma.
        """
        packed, true, pred = pack(records, self.indices)
        dist = np.full(len(pred), -1, dtype=np.int64)
        for c, zone in self.patterns.items():
            rows = np.flatnonzero(pred == c)
            if len(zone) == 0:
                dist[rows] = len(self.indices) + 1
                continue
            unique, inverse = np.unique(
                packed[rows], axis=0, return_inverse=True)
            best = np.empty(len(unique), dtype=np.int64)
            for lo in range(0, len(unique), DIST_ROWS):
                diff = unique[lo:lo + DIST_ROWS, None, :] ^ zone[None, :, :]
                best[lo:lo + DIST_ROWS] = \
                    np.bitwise_count(diff).sum(axis=2, dtype=np.int64).min(axis=1)
            dist[rows] = best[inverse.reshape(-1)]
        return dist, true, pred


def verdicts(dist: np.ndarray, gamma: int) -> np.ndarray:
    """Expected verdict codes (IN, OUT, NOZONE) at level ``gamma``."""
    return np.where(dist < 0, NOZONE, np.where(dist <= gamma, IN, OUT))


def sweep_row(dist: np.ndarray, true: np.ndarray, pred: np.ndarray,
              gamma: int) -> EvalRow:
    """The report row ``evaluate`` must produce at level ``gamma``."""
    judged = dist >= 0
    out = judged & (dist > gamma)
    wrong = pred != true
    n_total, n_judged = len(dist), int(judged.sum())
    n_out, n_out_mis = int(out.sum()), int((out & wrong).sum())
    return EvalRow(
        gamma=gamma,
        n_total=n_total,
        n_out_of_pattern=n_out,
        out_rate=n_out / n_judged if n_judged else None,
        n_out_misclassified=n_out_mis,
        misclassified_within_out_rate=n_out_mis / n_out if n_out else None,
        overall_misclassification_rate=int(wrong.sum()) / n_total,
        n_nozone=n_total - n_judged,
    )
