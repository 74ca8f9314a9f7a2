"""Warning-rate metrics, gamma sweeps and the stopping heuristic.

On a labeled evaluation set we count, per query radius gamma, how often
the monitor flags a sample (its pattern is farther than gamma from the
predicted class's zone) and how often flagged samples were actually
misclassified.  The first ratio is the warning rate a deployment would
observe; the second estimates the precision of those warnings.  Sweeping
gamma trades one against the other: a larger radius can only shrink the
set of flagged samples.

Note the precision figure transfers from the evaluation set to operation
only under the assumption that the input distribution does not shift;
nothing here can validate that assumption.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import patterns
from .errors import as_int, replace_on_success
from .monitor import Monitor, _batch_distances, build
from .traces import TraceRecord


@dataclass
class EvalRow:
    """One gamma level's counts and rates on a fixed evaluation set.

    Rates that would divide by zero are ``None``: the precision of warnings
    when nothing was flagged, the warning rate when every record hit an
    unmonitored class.  Records whose predicted class is unmonitored are
    excluded from both sides of the warning-rate ratio and reported in
    ``n_nozone``.
    """

    gamma: int
    n_total: int
    n_out_of_pattern: int
    out_rate: float | None
    n_out_misclassified: int
    misclassified_within_out_rate: float | None
    overall_misclassification_rate: float
    n_nozone: int


@dataclass
class GammaChoice:
    """Result of the stopping heuristic; ``qualified`` is False when no
    level met both thresholds and ``gamma`` is the fallback."""

    gamma: int
    qualified: bool


def evaluate(monitor: Monitor, eval_traces: Iterable[TraceRecord]) -> EvalRow:
    """One report row for a monitor: the sweep's distance tally, capped at
    ``monitor.gamma + 1`` and read at ``monitor.gamma``."""
    return _report_row(monitor.gamma,
                       _tally(monitor, eval_traces, monitor.gamma + 1))


def _tally(monitor: Monitor, records: Iterable[TraceRecord],
           cap: int) -> Counter:
    """Records counted by (distance, misclassified): the distance of a
    record's pattern to the zone of its predicted class, capped at ``cap``,
    or ``None`` when that class has no zone, all from one batch pass,
    :func:`~actmon.monitor._batch_distances`."""
    records = list(records)
    return Counter(zip(_batch_distances(monitor, records, cap),
                       [r.pred_label != r.true_label for r in records]))


def _report_row(gamma: int, tally: Counter) -> EvalRow:
    """The report row at ``gamma`` of a :func:`_tally`: a distance of
    ``None`` is no zone, one above ``gamma`` is flagged."""
    n_total = sum(tally.values())
    if not n_total:
        raise ValueError("cannot evaluate on an empty trace set")
    n_mis = sum(n for (_, misclassified), n in tally.items() if misclassified)
    n_nozone = tally[None, False] + tally[None, True]
    flagged = [(misclassified, n) for (d, misclassified), n in tally.items()
               if d is not None and d > gamma]
    n_out = sum(n for _, n in flagged)
    n_out_mis = sum(n for misclassified, n in flagged if misclassified)
    n_judged = n_total - n_nozone
    return EvalRow(
        gamma=gamma,
        n_total=n_total,
        n_out_of_pattern=n_out,
        out_rate=n_out / n_judged if n_judged else None,
        n_out_misclassified=n_out_mis,
        misclassified_within_out_rate=n_out_mis / n_out if n_out else None,
        overall_misclassification_rate=n_mis / n_total,
        n_nozone=n_nozone,
    )


def gamma_sweep(traces_train: Sequence[TraceRecord],
                traces_eval: Sequence[TraceRecord],
                selection: patterns.NeuronSelection,
                gammas: Sequence[int],
                classes: Iterable[int] | None = None) -> list[EvalRow]:
    """Report rows of the monitors :func:`~actmon.monitor.build` would make
    at each of ``gammas``.  Those monitors differ only in ``gamma``, and a
    record is flagged when its Hamming distance to the zone of its
    predicted class exceeds gamma, so one gamma-0 build and one distance
    tally capped at ``max(gammas) + 1`` serve every level: each row is
    what :func:`evaluate` reads from the same tally at its own gamma.  The
    warning rate is non-increasing in gamma.  Gammas are integers as in
    ``build``.
    """
    gammas = [as_int(g, "gamma", 0) for g in gammas]
    if not gammas:
        raise ValueError("gammas must be a nonempty list of levels >= 0")
    if sorted(set(gammas)) != gammas:
        raise ValueError("gammas must be strictly ascending")
    tally = _tally(build(traces_train, selection, 0, classes), traces_eval,
                   gammas[-1] + 1)
    return [_report_row(gamma, tally) for gamma in gammas]


def choose_gamma(report: Sequence[EvalRow], min_precision: float = 0.3,
                 max_out_rate: float = 0.05) -> GammaChoice:
    """Smallest gamma whose warnings are precise enough and rare enough.

    A row qualifies when its warning precision
    (``misclassified_within_out_rate``) reaches ``min_precision`` and its
    warning rate (``out_rate``) stays at or below ``max_out_rate``.  With
    ``min_precision`` 0 the precision requirement is vacuous and holds even
    for rows that produced no warnings.  If no row qualifies, the gamma
    with the highest precision is returned, flagged as unqualified.
    """
    rows = list(report)
    if not rows:
        raise ValueError("empty report")
    if not 0.0 <= min_precision <= 1.0:
        raise ValueError(f"min_precision must be in [0, 1], got {min_precision}")
    if not 0.0 < max_out_rate <= 1.0:
        raise ValueError(f"max_out_rate must be in (0, 1], got {max_out_rate}")
    for row in rows:
        if row.out_rate is None or row.out_rate > max_out_rate:
            continue
        precision_ok = min_precision == 0.0 or (
            row.misclassified_within_out_rate is not None
            and row.misclassified_within_out_rate >= min_precision)
        if precision_ok:
            return GammaChoice(gamma=row.gamma, qualified=True)
    best = max(rows, key=lambda r: (
        -1.0 if r.misclassified_within_out_rate is None
        else r.misclassified_within_out_rate))
    return GammaChoice(gamma=best.gamma, qualified=False)


REPORT_COLUMNS = (
    "gamma", "n_total", "n_out", "out_rate", "n_out_misclassified",
    "misclassified_within_out_rate", "overall_misclassification_rate",
    "n_nozone",
)


def report_cells(row: EvalRow, undefined: str) -> list[str]:
    """One report row as text: rates as 6-digit decimals, ``undefined`` in
    place of a rate that is ``None``."""
    def rate(value: float | None) -> str:
        return undefined if value is None else f"{value:.6f}"

    return [str(row.gamma), str(row.n_total), str(row.n_out_of_pattern),
            rate(row.out_rate), str(row.n_out_misclassified),
            rate(row.misclassified_within_out_rate),
            rate(row.overall_misclassification_rate), str(row.n_nozone)]


def write_report_csv(path, rows: Sequence[EvalRow]) -> None:
    """Write a sweep report; undefined rates are empty fields."""
    with replace_on_success(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        writer.writerows(report_cells(row, "") for row in rows)
