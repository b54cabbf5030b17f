"""Call spans for the fcspn package, recorded from outside it.

:class:`Tracer` replaces the public functions of the eight fcspn modules
with timing wrappers, rebinding each module attribute (and the few methods
in :data:`METHODS`) so that every caller that looks the name up at call
time goes through the wrapper.  The package source is never edited and
:meth:`Tracer.restore` puts every original attribute back.

Each wrapped call is a span with a parent: the innermost span still open
when it started.  Spans are folded into per-name totals as they close:

* ``calls`` and ``fwd`` (inclusive seconds) per span name;
* ``self``, the inclusive time minus the time covered by child spans;
* ``bwd``: a wrapped call that appends tape nodes owns them, and the
  pullback of each owned node is wrapped in turn, so its backward time is
  charged to the same name.  The innermost wrapped call owns a node, except
  for ``tensor.record`` and ``tensor.accumulate``, which are the tape's own
  plumbing and leave ownership to their caller;
* counters computed from arguments (conv3d work, tape length, file bytes).

The tensor element-wise ops are folded into one name,
``tensor.elementwise``.  ``train.train`` is not wrapped: a train_step unit
is one optimizer step inside it, which the workload marks as a
``train.step`` span with :meth:`Tracer.begin` and :meth:`Tracer.end`.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
import types
from collections import defaultdict

MODULES = ("tensor", "ops", "cspn", "model", "train", "data", "metrics", "cli")

# (module, class, method) -> span name; FcspnModel is the model module's
# network, so its methods are reported under the module name
METHODS = {
    ("model", "FcspnModel", "forward"): "model.forward",
    ("model", "FcspnModel", "forward_refined"): "model.forward_refined",
    ("cspn", "AffinityBranch", "forward"): "cspn.AffinityBranch.forward",
}

ELEMENTWISE = frozenset({"add", "sub", "mul", "scale", "relu", "sigmoid"})

# tape plumbing: these never own the nodes appended while they run
NO_OWNER = frozenset({"tensor.record", "tensor.accumulate"})

# the loop that train_step units split into train.step spans
NOT_WRAPPED = frozenset({"train.train"})

BYTES_PER_VALUE = 8  # fcspn computes in float64


def conv3d_work(x, w, b, spec):
    """Computed work of one conv3d forward, from shapes alone.

    ``flops`` counts the im2col GEMM as 2 * rows * inner * cout and
    ``col_bytes`` is the size of the float64 im2col matrix (rows x inner).
    """
    cout = w.shape[0]
    inner = 1
    for extent in w.shape[1:]:
        inner *= extent
    rows = 1
    for extent in spec.out_extents(x.shape[1:]):
        rows *= extent
    return {"flops": 2 * rows * inner * cout,
            "col_bytes": rows * inner * BYTES_PER_VALUE}


class _Stat:
    __slots__ = ("calls", "fwd", "own", "bwd_calls", "bwd", "counts")

    def __init__(self):
        self.calls = 0
        self.fwd = 0.0
        self.own = 0.0
        self.bwd_calls = 0
        self.bwd = 0.0
        self.counts = defaultdict(int)


class Tracer:
    """Wraps the fcspn modules in place; aggregates spans per name."""

    def __init__(self, package):
        self.pkg = package
        self.stats = defaultdict(_Stat)
        self._stack = []  # open spans: [name, start, child seconds, is_bwd]
        self._patched = []  # (owner, attribute, original)
        self._tape = package.tensor._TAPE
        self._tape_size = package.tensor.tape_size
        self._before = {
            "ops.conv3d": lambda a, k: conv3d_work(*a, **k),
            "tensor.backward": lambda a, k: {"tape_nodes": self._tape_size()},
            "data.load_cube": lambda a, k: {"bytes": os.path.getsize(_first(a, k, "path"))},
            "data.normalize": lambda a, k: {"bytes": _first(a, k, "cube").values.nbytes},
        }
        self._after = {
            "data.save_labels": lambda a, k: {"bytes": os.path.getsize(_second(a, k, "path"))},
        }

    # -- install / restore --------------------------------------------------

    def targets(self):
        """(owner, attribute, original, span name) for every wrapped callable."""
        found = []
        for mod_name in MODULES:
            module = importlib.import_module(f"{self.pkg.__name__}.{mod_name}")
            for attr, value in sorted(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                if not value.__module__.startswith(self.pkg.__name__ + "."):
                    continue
                home = value.__module__.rsplit(".", 1)[1]
                name = f"{home}.{value.__name__}"
                if home == "tensor" and value.__name__ in ELEMENTWISE:
                    name = "tensor.elementwise"
                if name in NOT_WRAPPED:
                    continue
                found.append((module, attr, value, name))
        for (mod_name, cls_name, meth), name in METHODS.items():
            module = importlib.import_module(f"{self.pkg.__name__}.{mod_name}")
            cls = getattr(module, cls_name)
            found.append((cls, meth, vars(cls)[meth], name))
        return found

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        made = {}
        for owner, attr, original, name in self.targets():
            wrapper = made.get(id(original))
            if wrapper is None:
                wrapper = made[id(original)] = self._wrap(original, name)
            setattr(owner, attr, wrapper)
            self._patched.append((owner, attr, original))

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    @property
    def installed(self) -> bool:
        return bool(self._patched)

    # -- spans --------------------------------------------------------------

    def begin(self, name: str, is_bwd: bool = False) -> None:
        self._stack.append([name, time.perf_counter(), 0.0, is_bwd])

    def end(self) -> float:
        name, start, child, is_bwd = self._stack.pop()
        dur = time.perf_counter() - start
        stat = self.stats[name]
        if is_bwd:
            stat.bwd_calls += 1
            stat.bwd += dur
        else:
            stat.calls += 1
            stat.fwd += dur
        stat.own += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    def _wrap(self, fn, name):
        before = self._before.get(name)
        after = self._after.get(name)
        owns = name not in NO_OWNER
        tape = self._tape
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                _add(tracer.stats[name].counts, before(args, kwargs))
            first = len(tape)
            tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end()
            if owns:
                for node in tape[first:]:
                    if getattr(node.fn, "span", None) is None:
                        node.fn = tracer._pullback(node.fn, name)
            if after is not None:
                _add(tracer.stats[name].counts, after(args, kwargs))
            return out

        return wrapper

    def _pullback(self, fn, name):
        def pullback(g):
            self.begin(name, is_bwd=True)
            try:
                fn(g)
            finally:
                self.end()

        pullback.span = name
        return pullback

    # -- reading ------------------------------------------------------------

    def table(self):
        """Per-name totals, sorted by inclusive forward plus backward time."""
        rows = []
        for name, s in self.stats.items():
            rows.append({"name": name, "calls": s.calls, "fwd_s": s.fwd,
                         "bwd_calls": s.bwd_calls, "bwd_s": s.bwd,
                         "self_s": s.own, **dict(s.counts)})
        rows.sort(key=lambda r: -(r["fwd_s"] + r["bwd_s"]))
        return rows


def _add(counts, values):
    for key, value in values.items():
        counts[key] += value


def _first(args, kwargs, key):
    return args[0] if args else kwargs[key]


def _second(args, kwargs, key):
    return args[1] if len(args) > 1 else kwargs[key]
