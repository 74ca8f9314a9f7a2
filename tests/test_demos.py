"""Smoke test: every walkthrough in ``demos/`` runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["01_pattern_zones", "02_monitored_classifier", "03_choosing_gamma",
         "04_neuron_selection"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")], env=env,
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    if demo == "01_pattern_zones":
        assert any(line.startswith(
            "one enlargement step         {000, 001, 011, 101}")
            for line in done.stdout.splitlines())
