"""Files for fixed seeds do not change.

A trace file written from seeded records, the monitor built from it and
its gamma sweep's report CSV are written again and compared byte for byte
with the files in ``tests/golden/``.  The records are drawn by numpy's
seeded generator and no network runs, so no BLAS result enters the bytes.
A deliberate change of a file format writes the files anew with
``PYTHONPATH=src python3 tests/test_golden.py``.
"""

from pathlib import Path

import numpy as np
import pytest

from actmon.evaluation import gamma_sweep, write_report_csv
from actmon.monitor import build, load_monitor, save_monitor
from actmon.patterns import identity_selection
from actmon.traces import TraceHeader, TraceRecord, read_traces, write_traces

GOLDEN = Path(__file__).parent / "golden"
HEADER = TraceHeader(layer=1, width=10, classes=3)
GAMMA = 1
SWEEP = (0, 1, 2, 3)
# the values of "on" neurons: repeated values, and values the JSON
# encoder prints in exponent form
ON_VALUES = [2.0, 0.5, 1e-05, 2.5e-07, 5e-324, 1e+16, 3e+22]
# the values of "off" neurons, -0.0 among them
OFF_VALUES = [0.0, -0.0, -1e-05, -2.5]


def golden_records(count: int, seed: int, flip: float) -> list[TraceRecord]:
    """``count`` records near one on/off prototype per class: each bit
    flips with probability ``flip``, and one record in ten has a random
    predicted class.  Half the "on" values repeat from ``ON_VALUES``."""
    prototypes = np.random.default_rng(0).random((HEADER.classes,
                                                  HEADER.width)) < 0.5
    rng = np.random.default_rng(seed)
    shape = (count, HEADER.width)
    true = rng.integers(0, HEADER.classes, count)
    pred = np.where(rng.random(count) < 0.1,
                    rng.integers(0, HEADER.classes, count), true)
    on = prototypes[true] ^ (rng.random(shape) < flip)
    magnitude = np.where(rng.random(shape) < 0.5, rng.choice(ON_VALUES, shape),
                         rng.exponential(size=shape))
    acts = np.where(on, magnitude, rng.choice(OFF_VALUES, shape))
    return [TraceRecord(f"s{i}", int(t), int(p), row)
            for i, (t, p, row) in enumerate(zip(true, pred, acts))]


def write_golden(out: Path) -> None:
    """The trace file, the monitor and the sweep CSV, written into ``out``."""
    write_traces(out / "traces.jsonl", HEADER, golden_records(200, 1, 0.1))
    header, train = read_traces(out / "traces.jsonl")
    selection = identity_selection(header.width, header.layer)
    save_monitor(build(train, selection, GAMMA), out / "monitor.json")
    rows = gamma_sweep(train, golden_records(100, 2, 0.2), selection, SWEEP)
    write_report_csv(out / "sweep.csv", rows)


@pytest.mark.parametrize("name", ["traces.jsonl", "monitor.json",
                                  "sweep.csv"])
def test_files_are_unchanged(tmp_path, name):
    write_golden(tmp_path)
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


def test_loaded_monitor_saves_to_the_same_bytes(tmp_path):
    """A loaded store is already in the canonical order that the writer
    lists, so a load and a save change no byte."""
    loaded = load_monitor(GOLDEN / "monitor.json")
    save_monitor(loaded, tmp_path / "monitor.json")
    assert (tmp_path / "monitor.json").read_bytes() \
        == (GOLDEN / "monitor.json").read_bytes()
    # plain ints, not numpy scalars, for the query walk and the writer
    store = loaded.store
    assert {type(value) for column in (store._var, store._low, store._high)
            for value in column} == {int}
    assert {type(zone) for zone in loaded.zones.values()} == {int}


def test_trace_file_holds_the_odd_values():
    text = (GOLDEN / "traces.jsonl").read_text()
    for literal in ("-0.0,", "5e-324", "1e-05", "2.5e-07", "1e+16", "3e+22"):
        assert literal in text


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    write_golden(GOLDEN)
