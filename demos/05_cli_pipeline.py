"""The command-line pipeline, end to end: synth -> train -> classify -> eval.

Runs ``python -m fcspn`` as subprocesses inside a temporary directory, the
way a shell user would drive the ``fcspn`` command, and shows every artifact
it leaves behind.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

CONFIG = """\
# small network so the demo trains in seconds
model.base_channels = 8
cspn.steps = 2
train.epochs = 24
train.crop_size = 24
train.batch_size = 20
train.seed = 4
"""


def run(*args):
    cmd = [sys.executable, "-m", "fcspn", *args]
    print(f"$ fcspn {' '.join(args)}")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    for line in (proc.stdout + proc.stderr).strip().splitlines():
        print(f"  {line}")
    if proc.returncode != 0:
        raise SystemExit(f"command failed with exit code {proc.returncode}")
    print()


with tempfile.TemporaryDirectory() as tmp:
    work = Path(tmp)
    (work / "train.cfg").write_text(CONFIG)

    run("synth", "--out", str(work / "scene"), "--classes", "3",
        "--size", "24", "--bands", "16", "--noise", "0.02", "--seed", "4")

    run("train", "--cube", str(work / "scene.hsc1"),
        "--labels", str(work / "scene.hsl1"),
        "--config", str(work / "train.cfg"),
        "--strategy", "per_class:100",
        "--out-ckpt", str(work / "model.ckpt"))

    run("classify", "--cube", str(work / "scene.hsc1"),
        "--ckpt", str(work / "model.ckpt"),
        "--out-map", str(work / "pred.hsl1"))

    run("eval", "--pred", str(work / "pred.hsl1"),
        "--ref", str(work / "scene.hsl1"),
        "--split", str(work / "model.ckpt.split.hss1"),
        "--out-csv", str(work / "report.csv"))

    print("artifacts left in the working directory:")
    for path in sorted(work.iterdir()):
        print(f"  {path.name:28s} {path.stat().st_size:>9,} bytes")

    print()
    print("per-class report:")
    for line in (work / "report.csv").read_text().strip().splitlines():
        print(f"  {line}")
