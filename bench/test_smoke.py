"""Smoke test of the benchmark at a tiny size.

Every workload runs untraced and traced through ``bench/run.py`` with
``--tiny --seconds 0`` (one iteration, or one untraced and one traced).
Each run must print every metric named in ``BENCHMARK.json`` with its
unit, fail no operation, and reproduce the digests and exact counts of
another run with the same seed.  A traced run must also complete when
names it wraps are gone from the library, reporting 0 for those layers,
and the latency percentiles must keep a slowdown that builds up along
the query stream.
"""

import json
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# wide-build is not in BENCHMARK.json (see README.md) but still runs by name
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["wide-build"]


def run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    exact = dict(re.fullmatch(r"exact (\S+) = (.*)", line).groups()
                 for line in lines if line.startswith("exact "))
    return json.loads(lines[-1]), exact


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(workload):
    plain, exact = run(workload, 0)
    traced, traced_exact = run(workload, 1)
    for result, section in ((plain, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == expected
    assert all(m["value"] != 0 for m in plain["metrics"].values())
    assert exact and exact == traced_exact


def test_traced_run_without_a_wrapped_name(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workload
    from actmon.bdd import BddStore

    # as if the library had dropped exists and contains_with_cost
    contains_with_cost = BddStore.contains_with_cost
    monkeypatch.setattr(BddStore, "contains",
                        lambda store, a, bits: contains_with_cost(store, a, bits)[0])
    monkeypatch.delattr(BddStore, "contains_with_cost")
    monkeypatch.delattr(BddStore, "exists")
    monkeypatch.setattr(workload, "OUT_DIR", tmp_path)
    args = SimpleNamespace(workload="wide-query", seed=5, seconds=0, trace=1,
                           tiny=True)
    metrics, chk, _ = workload.run(args, tmp_path)
    assert chk.failed == 0, chk.messages
    assert metrics["bdd.exists_calls"] == 0
    assert metrics["bdd.path_len_mean"] == 0
    assert metrics["bdd.contains_calls"] > 0


def test_latency_keeps_a_slowdown_along_the_stream(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workload

    calls = 8000

    def iteration(speed):
        # every call is slower than the one before, 4x from first to last
        latency = np.linspace(1000, 4000, calls) * speed
        return SimpleNamespace(latency_ns=latency.astype(np.int64),
                               times=dict.fromkeys(workload.STAGES, 1.0),
                               scaled=dict.fromkeys(workload.STAGES, 1.0),
                               windows=[(slice(0, calls), 1.0)],
                               io_ns={"save": [(1000, 1.0)],
                                      "load": [(1000, 1.0)]},
                               exact={"monitor_bytes": 1})

    # the percentiles count every call, the late and slow ones included,
    # and take the median over windows: here those of the 1.6x slower
    # iterations
    metrics = workload.end_to_end(
        [iteration(1.0), iteration(1.6), iteration(1.6)])
    assert metrics["query_us_p50"] == pytest.approx(2.5 * 1.6, rel=0.01)
    assert metrics["query_us_p99"] == pytest.approx(3.97 * 1.6, rel=0.01)
