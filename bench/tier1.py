"""Opt-in report of the Tier-1 suite's wall time and its five slowest tests.

    python3 bench/tier1.py

Not a workload and has no bound: it runs the repository's Tier-1 command
once and prints the wall time, pytest's summary line and the five slowest
test phases.  Its exit code is 0 whatever the suite's outcome.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

from run import ROOT


def main() -> int:
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "-p", "no:cacheprovider", "--durations=5"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    head = next((i for i, ln in enumerate(lines) if "slowest 5 durations" in ln), None)
    slowest = [] if head is None else [ln for ln in lines[head + 1:head + 6] if ln.strip()]
    summary = next((ln.strip("= ") for ln in reversed(lines) if " in " in ln and ("passed" in ln or "failed" in ln)),
                   "no summary line")
    print(f"tier1 wall_s {wall:.2f} s (pytest exit code {proc.returncode})")
    print(f"tier1 summary: {summary}")
    print("tier1 five slowest:")
    for ln in slowest:
        print(f"  {ln.strip()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
