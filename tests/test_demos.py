"""Every walkthrough in ``demos/`` prints exactly its checked-in output in
``tests/demo_stdout/``, and the README's quick start runs to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["01_pattern_zones", "02_monitored_classifier", "03_choosing_gamma",
         "04_neuron_selection"]


def run_python(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    return done


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    done = run_python([str(ROOT / "demos" / f"{demo}.py")])
    expected = (ROOT / "tests" / "demo_stdout" / f"{demo}.txt").read_bytes()
    assert done.stdout == expected


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert len(blocks) == 1
    run_python(["-c", blocks[0]])
