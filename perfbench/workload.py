"""One benchmark workload, run in a process of its own.

run.py starts this once per setup probe (``--setup-only``) and once for
each measured process of a run, so that ``peak_rss_mb`` is this
workload's alone::

    python3 perfbench/workload.py --workload NAME --inputs DIR --seed N \\
        --seconds S --min-units M --trace {0,1} --out FILE [--setup-only]

Set-up runs from the first line of this file (before numpy is imported)
to the first timed unit.  Then units run in one closed loop with one
client until ``--seconds`` have passed and at least ``--min-units`` units
are done after the first, which is a warm-up that run.py leaves out of
every latency figure.  Every unit's output is checked, the warm-up's too;
a unit fails on an exception, a non-zero exit code, non-finite output or
a failed check.

With ``--trace 1`` every second unit runs with the :mod:`spans` tracer
installed; the others run untraced, and the difference of their median
latencies, warm-up left out, is the tracing overhead.  The raw result goes
to ``--out`` as JSON; run.py turns it into metrics.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import fcspn  # noqa: E402
from fcspn import cli, data, metrics, model, tensor, train  # noqa: E402

import envinfo  # noqa: E402
import prep  # noqa: E402
import spans  # noqa: E402

# Lowest acceptable overall accuracy.  Chance for four classes is about
# 0.25; on seeds 101-120 the fixture recipe's lowest OA was 0.69, so 0.5
# fails a broken pipeline, not a hard seed.
OA_FLOOR = 0.5


class Loop:
    """Unit timings and failures of one run, split by traced or not."""

    def __init__(self, seconds, min_units, tracer):
        self.seconds = seconds
        self.tracer = tracer
        self.min_units = min_units
        self.latency = []
        self.traced = []
        self.failed = 0
        self.start = time.perf_counter()

    def next_traced(self) -> bool:
        return self.tracer is not None and len(self.latency) % 2 == 1

    def done(self) -> bool:
        return (time.perf_counter() - self.start >= self.seconds
                and len(self.latency) > self.min_units)

    def add(self, seconds: float, traced: bool, ok: bool) -> None:
        self.latency.append(seconds)
        self.traced.append(traced)
        self.failed += not ok


def fail(what: str) -> bool:
    print(f"check failed: {what}", file=sys.stderr)
    return False


def check_map(grid, labels) -> bool:
    if grid.shape != labels.grid.shape:
        return fail(f"map shape {grid.shape} != scene {labels.grid.shape}")
    if grid.min() < 1 or grid.max() > labels.num_classes:
        return fail(f"class ids {grid.min()}..{grid.max()} outside 1..{labels.num_classes}")
    return True


def overall_accuracy(grid, labels, mask=None) -> float:
    return metrics.oa(metrics.confusion(grid, labels, mask, classes=labels.num_classes))


# ---------------------------------------------------------------------------
# workloads: __init__ is set-up, run() is the timed loop
# ---------------------------------------------------------------------------

class TrainStep:
    """One optimizer step of ``train.train``: batch 20, 32x32 crops."""

    def __init__(self, inputs, seed):
        self.pixels = 20 * 32 * 32
        self.inputs = inputs
        self.seed = seed
        self.cube = data.normalize(data.load_cube(os.path.join(inputs, "scene.hsc1")))
        self.labels = data.load_labels(os.path.join(inputs, "scene.hsl1"))
        self.split = data.sample_split(self.labels, "per_class:200", seed)
        self.net = model.build(prep.model_config("train"), np.random.default_rng(seed))

    def run(self, loop: Loop):
        tracer = loop.tracer
        stamp = [time.perf_counter()]

        def on_epoch(epoch, row):
            now = time.perf_counter()
            traced = tracer is not None and tracer.installed
            if traced:
                tracer.end()
                tracer.restore()
            loop.add(now - stamp[0], traced, bool(np.isfinite(row.total)))
            if loop.done():
                return True
            if loop.next_traced():
                tracer.install()
                tracer.begin("train.step")
            stamp[0] = time.perf_counter()
            return False

        config = train.TrainConfig(batch_size=20, epochs=10 ** 9, crop_size=(32, 32),
                                   seed=self.seed)
        try:
            rows = train.train(self.cube, self.labels, self.split, self.net, config,
                               on_epoch=on_epoch)
        except Exception:
            traceback.print_exc()
            loop.add(time.perf_counter() - stamp[0], False, False)
            return 0.0
        finally:
            if tracer is not None and tracer.installed:
                tracer.restore()
        losses = np.array([[r.focal, r.l2, r.total] for r in rows])
        ok = np.isfinite(losses).all() or fail("non-finite loss")
        ok = (rows[-1].total < rows[0].total
              or fail(f"last loss {rows[-1].total} not below first {rows[0].total}")) and ok
        oa = self.fixture_oa()
        ok = (oa >= OA_FLOOR or fail(f"oa {oa} below {OA_FLOOR}")) and ok
        if not ok and loop.failed == 0:
            loop.failed = 1
        return oa

    def fixture_oa(self) -> float:
        """Held-out OA of the fixture trained on this scene by prep.py."""
        net = model.load_checkpoint(os.path.join(self.inputs, "fixture.ckpt"))
        split = data.load_split(os.path.join(self.inputs, "fixture.split.hss1"))
        with tensor.no_grad():
            refined, _ = net.forward_refined(tensor.Tensor(self.cube.values))
        grid = refined.data.argmax(axis=0).astype(np.uint16) + 1
        if not check_map(grid, self.labels):
            return 0.0
        return overall_accuracy(grid, self.labels, split.test)


class _Classify:
    """Shared loop of the two classify workloads: one unit, then its check."""

    def run(self, loop: Loop):
        tracer = loop.tracer
        accuracies = []
        while not loop.done():
            traced = loop.next_traced()
            if traced:
                tracer.install()
                tracer.begin("unit")
            start = time.perf_counter()
            try:
                out = self.unit()
            except Exception:
                traceback.print_exc()
                out = None
            seconds = time.perf_counter() - start
            if traced:
                tracer.end()
                tracer.restore()
            ok = out is not None and self.check(out, accuracies)
            loop.add(seconds, traced, ok)
        return float(np.median(accuracies)) if accuracies else 0.0

    def score(self, grid, accuracies) -> bool:
        if not check_map(grid, self.labels):
            return False
        oa = overall_accuracy(grid, self.labels)
        accuracies.append(oa)
        return oa >= OA_FLOOR or fail(f"oa {oa} below {OA_FLOOR}")


class ClassifyScene(_Classify):
    """``forward_refined`` under ``no_grad`` on the 128x128x100 scene."""

    def __init__(self, inputs, seed):
        self.cube = data.normalize(data.load_cube(os.path.join(inputs, "scene.hsc1")))
        self.labels = data.load_labels(os.path.join(inputs, "scene.hsl1"))
        self.net = model.load_checkpoint(os.path.join(inputs, "fixture.ckpt"))
        self.pixels = self.cube.rows * self.cube.cols
        self.first = None

    def unit(self):
        x = tensor.Tensor(self.cube.values[None])
        with tensor.no_grad():
            refined, _ = self.net.forward_refined(x)
        return refined.data, refined.data.argmax(axis=0).astype(np.uint16) + 1

    def check(self, out, accuracies) -> bool:
        scores, grid = out
        if not np.isfinite(scores).all():
            return fail("non-finite scores")
        if self.first is None:
            self.first = grid
        elif not np.array_equal(grid, self.first):
            return fail("map differs from the first unit's map")
        return self.score(grid, accuracies)


class ClassifyStream(_Classify):
    """In-process ``fcspn classify`` invocations on a 32x32x100 cube file."""

    def __init__(self, inputs, seed):
        self.labels = data.load_labels(os.path.join(inputs, "stream.hsl1"))
        self.pixels = self.labels.grid.size
        self.out_map = os.path.join(inputs, f"stream-out-{os.getpid()}.hsl1")
        self.argv = ["classify", "--cube", os.path.join(inputs, "stream.hsc1"),
                     "--ckpt", os.path.join(inputs, "fixture.ckpt"),
                     "--out-map", self.out_map]

    def unit(self):
        return cli.main(self.argv)

    def check(self, code, accuracies) -> bool:
        if code != 0:
            return fail(f"cli exit code {code}")
        return self.score(data.load_labels(self.out_map).grid, accuracies)

    def cleanup(self):
        for path in (self.out_map, self.out_map + ".ppm"):
            if os.path.exists(path):
                os.remove(path)


WORKLOADS = {"train_step": TrainStep, "classify_scene": ClassifyScene,
             "classify_stream": ClassifyStream}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-units", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    work = WORKLOADS[args.workload](args.inputs, args.seed)
    setup_s = time.perf_counter() - T0
    result = {"setup_s": setup_s}
    if not args.setup_only:
        tracer = spans.Tracer(fcspn) if args.trace else None
        loop = Loop(args.seconds, args.min_units, tracer)
        try:
            result["oa"] = work.run(loop)
        finally:
            if hasattr(work, "cleanup"):
                work.cleanup()
        result.update(
            latency=loop.latency, traced=loop.traced, failed=loop.failed,
            pixels_per_unit=work.pixels,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            env=envinfo.capture())
        if tracer is not None:
            result["spans"] = tracer.table()
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
