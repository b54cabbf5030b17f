"""Smoke test: demos 01-03 run to completion, and every demo's settings exist.

Each demo runs in its own interpreter, with ``src`` on the path, a scratch
working directory and warnings as errors, and must exit 0; the three take
about a second together.  Demos 04 and 05 train a model and take about 20 s
each, so they are not run here, only checked statically: every settings
keyword they pass and every config key and ``--flag`` they or the README
name must exist.  The tier-1 CI workflow runs both after the tests, also
with warnings as errors; by hand:

    PYTHONPATH=src PYTHONWARNINGS=error python demos/04_training_loop.py
    PYTHONPATH=src PYTHONWARNINGS=error python demos/05_cli_pipeline.py
"""

import argparse
import ast
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from fcspn import cli, model, train

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["01_tensor_autodiff.py",
                                  "02_network_blocks.py",
                                  "03_label_propagation.py"])
def test_demo_exits_zero(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONWARNINGS"] = "error"
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_demos_name_only_existing_settings():
    classes = {cls.__name__: cls for cls in (model.ModelConfig, train.TrainConfig)}
    prefixes = "|".join(sorted({key.split(".")[0] for key in cli.CONFIG_KEYS}))
    config_line = re.compile(rf"^\s*((?:{prefixes})\.\w+)\s*=", re.M)
    commands = next(action.choices for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    options = {option for sub in commands.values() for action in sub._actions
               for option in action.option_strings}
    calls, keys, flags = [], [], []
    for path in sorted((ROOT / "demos").glob("*.py")) + [ROOT / "README.md"]:
        text = path.read_text()
        keys += [(path.name, key) for key in config_line.findall(text)]
        flags += [(path.name, flag) for flag in re.findall(r"--[a-z][a-z0-9-]*", text)]
        if path.suffix != ".py":
            continue
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name in classes:
                    calls.append((path.name, name, [kw.arg for kw in node.keywords]))
    assert calls and keys and flags  # demos 04 and 05 set both kinds, 05 names flags
    for where, name, given in calls:
        known = {field.name for field in fields(classes[name])}
        assert set(given) <= known, (where, name, set(given) - known)
    assert [(where, key) for where, key in keys if key not in cli.CONFIG_KEYS] == []
    assert [(where, flag) for where, flag in flags if flag not in options] == []
