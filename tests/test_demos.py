"""Smoke test: the demos run to completion against the current API.

Demos 01 and 05 take about 0.2 s each and read the schedule and payload
API directly.  Demo 02 (about 0.3 s) exercises the theory module and
checks its floor against one ``sample_matrix`` draw cut into 200k batches.
Demos 03 (about 2 s, N=200 over six receiver counts) and 04 (about 1 s)
drive benefit and sort-utility through ``run_replication`` and read its
rows.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["01_worked_example.py", "02_repair_floor.py",
                                  "03_ratio_sweep.py", "04_decode_delay.py",
                                  "05_payload_roundtrip.py"])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
