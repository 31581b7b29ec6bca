"""The quick demo scripts run to completion as their own processes.

Demos 06 (fine-tuning, ~10 s) and 07 (failure-rate study, ~23 s) are left
out for their run time; the tests of ``FinetuneSession`` and of the bench
grid cover what they run."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_toy_model_oracle.py", "02_simulated_network.py",
                                  "03_fault_tolerant_generation.py", "04_load_balancing.py",
                                  "05_beam_and_quantized.py"])
def test_demo_exits_cleanly(demo, tmp_path):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
