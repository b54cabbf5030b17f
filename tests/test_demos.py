"""Smoke test: demos 01-03 run to completion.

Each demo runs in its own interpreter, with ``src`` on the path and a
scratch working directory, and must exit 0; the three take about a second
together.  Demos 04 and 05 train a model and take about 20 s each, so they
are not part of the test suite; run them by hand after a change they cover:

    PYTHONPATH=src python demos/04_training_loop.py
    PYTHONPATH=src python demos/05_cli_pipeline.py
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["01_tensor_autodiff.py",
                                  "02_network_blocks.py",
                                  "03_label_propagation.py"])
def test_demo_exits_zero(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
