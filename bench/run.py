"""Run actmon's benchmark: each workload in a fresh process, with BLAS and
OpenMP pinned to one thread so numpy's matrix products in ``train_toy``
do not contend for the cores.

    python3 bench/run.py --workload wide-query --seed 1 --seconds 50 --trace 0

Without ``--workload`` every workload in ``BENCHMARK.json`` runs in turn.
Each workload process prints its metric lines and, last, one JSON result
line (see ``bench/README.md``); this runner passes them through and exits
with the first non-zero exit code of a workload.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# a workload run must end within 180 s; leave the runner time to report
TIMEOUT_S = 170


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the smoke test")
    args = parser.parse_args()

    if args.workload:
        workloads = [args.workload]
    else:
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        workloads = [w["name"] for w in spec["workloads"]]
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    env.update({var: "1" for var in THREAD_VARS})
    # a terminated runner must not leave its workload process behind;
    # subprocess.run kills the child on any exception, SystemExit included
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    for workload in workloads:
        cmd = [sys.executable, str(HERE / "workload.py"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        sys.stdout.flush()
        try:
            proc = subprocess.run(cmd, env=env, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"bench: {workload} did not finish within {TIMEOUT_S} s",
                  file=sys.stderr)
            return 3
        if proc.returncode:
            return proc.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main())
