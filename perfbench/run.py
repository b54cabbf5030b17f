"""The fcspn benchmark: seeded workloads, checked outputs, traced layers.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Workloads (each one closed loop with one client, in one process):

* ``train_step``: ``train.train`` on a 64x64x20 scene with 4 classes,
  base_channels 8, 24 propagation steps, batch 20, 32x32 crops.  The only
  workload that runs backward, batchnorm statistics and SGD.
* ``classify_scene``: ``forward_refined`` under ``no_grad`` on a
  128x128x100 scene, base_channels 16, 24 steps.  Forward only, large
  extents, bounded by memory.
* ``classify_stream``: in-process ``cli.main(["classify", ...])`` on a
  32x32x100 cube file, with the model and checkpoint of classify_scene.
  Small extents, where fixed per-call cost matters; covers cube and
  checkpoint loading, normalization and label writing.

One run goes: prepare the seed's inputs and fixture models in a process of
their own (prep.py, cached under ``.bench_work/`` per seed and per hash of
``src/fcspn/*.py`` and prep.py, so changed code prepares afresh); split
the ``--seconds`` window over ``PROCS`` measured processes, one after the
other, each with its own warm-up unit, and pool their unit latencies, so
that one process's luck with the shared host weighs less; start the
workload alone often enough to have ``SETUP_RUNS`` set-up times in all
(workload.py).  BLAS is pinned to one thread in every child.  The last
line of standard output is the result object.

End-to-end metrics (``--trace 0``):

* ``setup_s``: median over ``SETUP_RUNS`` processes of import, input load
  and model build or checkpoint load, up to the first timed unit;
* ``latency_s_p50``, ``latency_s_p90``: seconds per unit (one optimizer
  step, one scene, one CLI invocation), p90 by linear interpolation, over
  the pooled units of the measured processes; the first unit of each
  process is a warm-up, checked but left out of these and of ``px_per_s``;
* ``px_per_s``: pixels per unit times units over the summed unit time
  (crop pixels times batch for training);
* ``peak_rss_mb``: the highest of the measured processes' own
  ``getrusage`` high-water marks;
* ``oa``: overall accuracy of the map against the generated labels.  For
  train_step it is the held-out accuracy of the fixture that prep.py
  trains on the same scene with the same code.

Failed units are ``failed`` out of ``attempted`` in the result object.

Per-layer metrics (``--trace 1``) come from one measured process and are
per traced unit: totals over the traced units, divided by their number.
The tracer is removed before each unit's output checks, so spans cover
only the program.  No workload's program path calls ``metrics.confusion``
(``fcspn classify`` does not score its map), so ``metrics.confusion.s``
reads 0 on every workload.  ``*.s`` is forward plus backward time of a
layer, ``fwd_s`` and ``bwd_s`` split it, ``self_s`` excludes child
spans; ``flops`` and ``col_bytes`` are computed from shapes, not counted
by hardware.
"""

import argparse
import glob
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")

SETUP_RUNS = 7
# measured processes per untraced run; each pays a warm-up unit, so the
# fewest go to the workloads with the slowest units
PROCS = {"train_step": 2, "classify_scene": 2, "classify_stream": 3}
# units after the warm-up, over all measured processes of a run
MIN_UNITS = {"train_step": 3, "classify_scene": 3, "classify_stream": 100}
TRACE_MIN_UNITS = 4  # two traced and two untraced
PREP_TIMEOUT_S = 150
CHILD_TIMEOUT_S = 150
KIND = {"train_step": "train", "classify_scene": "classify", "classify_stream": "classify"}

SPLIT_OPS = ("ops.conv3d", "ops.batchnorm", "ops.trilinear_upsample",
             "ops.concat_channels", "ops.adaptive_avg_pool", "cspn.propagate_step")
WHOLE = ("cspn.normalize_affinity", "cspn.AffinityBranch.forward", "tensor.backward",
         "train.focal_loss", "train.l2_penalty", "train.sgd_step",
         "model.load_checkpoint", "model.build", "data.load_cube", "data.normalize",
         "data.save_labels", "metrics.confusion", "tensor.elementwise")


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv, timeout):
    """Run a Python child to completion; returns its exit code."""
    try:
        done = subprocess.run([sys.executable, *argv], env=child_env(), timeout=timeout,
                              stdout=subprocess.DEVNULL, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print(f"timed out after {timeout}s: {argv[0]}", file=sys.stderr)
        return -1
    return done.returncode


def code_hash():
    """Hash of the sources that make the prepared inputs and fixtures.

    Part of the cache key, so a change to the package or to prep.py
    prepares afresh instead of reusing what older code trained.
    """
    digest = hashlib.sha256()
    files = sorted(glob.glob(os.path.join(ROOT, "src", "fcspn", "*.py")))
    for path in files + [os.path.join(HERE, "prep.py")]:
        digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()[:12]


def prepare(kind, seed, code):
    inputs = os.path.join(WORK, f"{kind}-{seed}-{code}")
    if not os.path.isdir(inputs):
        os.makedirs(WORK, exist_ok=True)
        code = run_child([os.path.join(HERE, "prep.py"), "--kind", kind,
                          "--seed", str(seed), "--out", inputs], PREP_TIMEOUT_S)
        if code != 0:
            return None
    return inputs


def run_workload(args, inputs, setup_only, seconds=0.0, min_units=0):
    out = os.path.join(WORK, f"result-{os.getpid()}.json")
    argv = [os.path.join(HERE, "workload.py"), "--workload", args.workload,
            "--inputs", inputs, "--seed", str(args.seed), "--seconds", str(seconds),
            "--min-units", str(min_units), "--trace", str(args.trace), "--out", out]
    if setup_only:
        argv.append("--setup-only")
    if os.path.exists(out):
        os.remove(out)
    code = run_child(argv, CHILD_TIMEOUT_S)
    if code != 0 or not os.path.exists(out):
        return None
    with open(out) as fh:
        result = json.load(fh)
    os.remove(out)
    return result


def median(values):
    return statistics.median(values) if values else 0.0


def measure(args, inputs):
    """Run the measured processes; returns their pooled result, or None.

    ``latency`` holds every process's units after its warm-up; the
    warm-ups count in ``attempted`` and ``failed`` but in no timing.
    """
    procs = 1 if args.trace else PROCS[args.workload]
    min_units = TRACE_MIN_UNITS if args.trace else -(-MIN_UNITS[args.workload] // procs)
    results = []
    for _ in range(procs):
        result = run_workload(args, inputs, False, args.seconds / procs, min_units)
        if result is None or len(result["latency"]) <= min_units:
            return None
        results.append(result)
    pooled = dict(results[0])
    pooled.update(
        latency=[t for r in results for t in r["latency"][1:]],
        traced=[on for r in results for on in r["traced"][1:]],
        attempted=sum(len(r["latency"]) for r in results),
        failed=sum(r["failed"] for r in results),
        setups=[r["setup_s"] for r in results],
        peak_rss_mb=max(r["peak_rss_mb"] for r in results),
        oa=statistics.median(r["oa"] for r in results))
    return pooled


def end_to_end(result, setups):
    lat = result["latency"]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "latency_s_p50": (statistics.median(lat), "s"),
        "latency_s_p90": (statistics.quantiles(lat, n=10, method="inclusive")[8], "s"),
        "px_per_s": (result["pixels_per_unit"] * len(lat) / sum(lat), "px/s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "oa": (result["oa"], "ratio"),
    }


def per_layer(result):
    rows = {row["name"]: row for row in result["spans"]}
    pairs = list(zip(result["latency"], result["traced"]))
    traced = [t for t, on in pairs if on]
    untraced = [t for t, on in pairs if not on]
    n = max(1, len(traced))

    def get(name, key):
        return rows.get(name, {}).get(key, 0) / n

    m = {}
    for op in SPLIT_OPS:
        m[f"{op}.calls"] = (get(op, "calls"), "count")
        m[f"{op}.fwd_s"] = (get(op, "fwd_s"), "s")
        m[f"{op}.bwd_s"] = (get(op, "bwd_s"), "s")
    m["ops.conv3d.flops"] = (get("ops.conv3d", "flops"), "flop_computed")
    m["ops.conv3d.col_bytes"] = (get("ops.conv3d", "col_bytes"), "B_computed")
    conv_fwd = get("ops.conv3d", "fwd_s")
    m["ops.conv3d.gflops_per_s"] = (
        get("ops.conv3d", "flops") / conv_fwd / 1e9 if conv_fwd else 0.0, "Gflop/s")
    for name in WHOLE:
        m[f"{name}.s"] = (get(name, "fwd_s") + get(name, "bwd_s"), "s")
    m["tensor.tape_nodes"] = (get("tensor.backward", "tape_nodes"), "count")
    m["tensor.record.calls"] = (get("tensor.record", "calls"), "count")
    m["tensor.elementwise.calls"] = (get("tensor.elementwise", "calls"), "count")
    for name in ("data.load_cube", "data.normalize", "data.save_labels"):
        m[f"{name}.bytes"] = (get(name, "bytes"), "B")
    m["train.step.self_s"] = (get("train.step", "self_s"), "s")
    m["model.forward_refined.self_s"] = (get("model.forward_refined", "self_s"), "s")
    m["cli.cmd_classify.self_s"] = (get("cli.cmd_classify", "self_s"), "s")
    unit = "train.step" if "train.step" in rows else "unit"
    m["unit.uncovered_s"] = (get(unit, "self_s"), "s")
    m["unit.traced_s"] = (median(traced), "s")
    m["unit.untraced_s"] = (median(untraced), "s")
    m["trace.overhead_s"] = (median(traced) - median(untraced), "s")
    return m


def report(args, result, setups, code):
    env = dict(result["env"], code=code)
    lat = result["latency"]
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# units {result['attempted']} failed {result['failed']} "
          f"error_ratio {result['failed'] / result['attempted']:.6g} "
          f"setup runs {len(setups)} latency samples {len(lat)} after warm-ups")
    if args.trace:
        metrics = per_layer(result)
        print(f"# traced units {sum(result['traced'])}; spans per traced unit "
              "(name calls fwd_s bwd_s self_s counters):")
        n = max(1, sum(result["traced"]))
        for row in result["spans"]:
            extra = " ".join(f"{k}={row[k] / n:.6g}" for k in row
                             if k not in ("name", "calls", "fwd_s", "bwd_calls",
                                          "bwd_s", "self_s"))
            print(f"#   {row['name']:<32} {row['calls'] / n:10.1f} {row['fwd_s'] / n:11.6f} "
                  f"{row['bwd_s'] / n:11.6f} {row['self_s'] / n:11.6f} {extra}")
        with open(os.path.join(WORK, f"trace-{args.workload}-{args.seed}.json"), "w") as fh:
            json.dump({"env": env, "latency": lat, "traced": result["traced"],
                       "spans": result["spans"]}, fh, indent=1)
    else:
        metrics = end_to_end(result, setups)
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(KIND), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "fcspn", "__init__.py")):
        print(f"no fcspn package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    code = code_hash()
    inputs = prepare(KIND[args.workload], args.seed, code)
    if inputs is None:
        print("input preparation failed", file=sys.stderr)
        return 3
    result = measure(args, inputs)
    if result is None:
        print("a measured process failed or ended before its minimum of units",
              file=sys.stderr)
        return 4
    setups = result["setups"]
    while len(setups) < SETUP_RUNS:
        probe = run_workload(args, inputs, setup_only=True)
        if probe is None:
            print("set-up probe failed", file=sys.stderr)
            return 4
        setups.append(probe["setup_s"])
    print(json.dumps(report(args, result, setups, code)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
