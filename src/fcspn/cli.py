"""Command-line pipeline: synthesize, train, classify, evaluate.

Exit codes: 0 success, 2 usage or configuration, 3 data or file format,
4 numeric failure.  Each config key of ``train`` names a field of
``model.ModelConfig`` or ``train.TrainConfig`` and takes its default and type
from that field.  A flat INI-style config file (``key = value`` lines, ``#``
comments) overrides the defaults; every value is parsed as the file is read,
before any data; a boolean is ``on`` or ``off``, and no flag overrides a key.
``classify`` runs the network a checkpoint holds, its step count included.
"""

import argparse
import colorsys
import inspect
import os
import sys
from dataclasses import fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import data, metrics, model, train
from .tensor import FormatError, NumericError, ShapeError, Tensor, no_grad


class ConfigError(ValueError):
    """A config file or flag value the pipeline cannot act on."""


# key -> (settings class, field, help); the field holds the default and type
CONFIG_KEYS: Dict[str, Tuple[type, str, str]] = {
    "model.base_channels": (model.ModelConfig, "base_channels",
                            "stem width; deeper stages double it"),
    "model.dsr_per_stage": (model.ModelConfig, "dsr_per_stage",
                            "residual units per encoder stage"),
    "model.attention_enabled": (model.ModelConfig, "attention_enabled",
                                "channel attention in encoder stages"),
    "train.batch_size": (train.TrainConfig, "batch_size", "crops per optimizer step"),
    "train.weight_decay": (train.TrainConfig, "weight_decay",
                           "weight decay on conv weights, applied in the SGD step"),
    "train.epochs": (train.TrainConfig, "epochs", "epochs, one optimizer step each"),
    "train.momentum": (train.TrainConfig, "momentum", "SGD momentum"),
    "train.learning_rate": (train.TrainConfig, "learning_rate", "SGD learning rate"),
    "train.focal_gamma": (train.TrainConfig, "focal_gamma", "focal loss exponent"),
    "train.crop_size": (train.TrainConfig, "crop_size", "spatial crop, N or HxW"),
    "train.seed": (train.TrainConfig, "seed", "training RNG seed"),
    "cspn.steps": (model.ModelConfig, "cspn_steps", "propagation steps in refinement"),
}


def _default(key: str):
    cls, name, _ = CONFIG_KEYS[key]
    return next(field.default for field in fields(cls) if field.name == name)


def _on_off(text: str) -> bool:
    if text not in ("on", "off"):
        raise ValueError(text)
    return text == "on"


def _crop(text: str) -> Tuple[int, int]:
    sides = [int(side) for side in text.lower().split("x")]
    if len(sides) > 2:
        raise ValueError(text)
    return sides[0], sides[-1]


def _spell(value) -> str:
    """``value`` the way a config file writes it."""
    if isinstance(value, bool):
        return "on" if value else "off"
    if isinstance(value, tuple):
        return "x".join(map(str, value))
    return str(value)


# type of a key's default -> (parser of a file value, the form it expects)
_PARSERS = {
    bool: (_on_off, "on/off"),
    int: (int, "an integer"),
    float: (float, "a number"),
    tuple: (_crop, "N or HxW"),
}


class RunConfig:
    """The settings a file at ``path`` gives, each parsed as its line is
    read; unknown keys, keys set twice and malformed values are rejected
    with line numbers."""

    def __init__(self, path: Optional[str] = None):
        self._given: Dict[type, Dict[str, object]] = {}
        first_line: Dict[str, int] = {}
        if path is None:
            return
        try:
            with open(path) as fh:
                lines = fh.readlines()
        except (OSError, UnicodeDecodeError) as err:
            raise ConfigError(f"cannot read {path}: {err}") from None
        for number, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, value = (part.strip() for part in line.partition("="))
            where = f"{path} line {number}"
            if not eq or not key:
                raise ConfigError(f"{where}: expected 'key = value', got {raw.strip()!r}")
            if key not in CONFIG_KEYS:
                raise ConfigError(f"{where}: unknown key {key!r}")
            if key in first_line:
                raise ConfigError(
                    f"{where}: {key} already set on line {first_line[key]}")
            first_line[key] = number
            cls, name, _ = CONFIG_KEYS[key]
            parse, form = _PARSERS[type(_default(key))]
            try:
                self._given.setdefault(cls, {})[name] = parse(value)
            except ValueError:
                raise ConfigError(f"{where}: {key} expects {form}, got {value!r}") from None

    def build(self, cls, **given):
        """A ``cls`` from its defaults, then this file's keys, then ``given``."""
        try:
            return cls(**{**self._given.get(cls, {}), **given})
        except ShapeError as err:
            raise ConfigError(str(err)) from None


def _check_outputs(outputs: Sequence[Tuple[str, str]],
                   inputs: Dict[str, Optional[str]]) -> None:
    """Check a run's paths, each with its flag, before it reads any file.

    ConfigError (exit 2) if an output resolves to the same file as another
    output or as an input (None for an input not given); OSError (exit 3)
    if an output is an existing directory or its directory does not exist.
    """
    taken = {os.path.realpath(path): flag for flag, path in inputs.items() if path}
    for flag, path in outputs:
        real = os.path.realpath(path)
        if real in taken:
            raise ConfigError(f"{flag} and {taken[real]} name one file, {path}")
        taken[real] = flag
        if os.path.isdir(real):
            raise IsADirectoryError(f"cannot write {flag} {path}: it is a directory")
        if not os.path.isdir(os.path.dirname(real)):
            raise FileNotFoundError(
                f"cannot write {flag} {path}: its directory does not exist")


def write_ppm(grid: np.ndarray, classes: int, path) -> None:
    """Render a grid of class ids 0..``classes`` as a P6 pixmap.

    Id k is the k-th of ``classes`` evenly spaced hues,
    ``colorsys.hsv_to_rgb((k - 1) / classes, 0.85, 0.95)`` scaled by 255 and
    rounded; id 0 is black.
    """
    colors = np.zeros((classes + 1, 3), dtype=np.uint8)
    for cls in range(1, classes + 1):
        rgb = colorsys.hsv_to_rgb((cls - 1) / classes, 0.85, 0.95)
        colors[cls] = [round(255 * ch) for ch in rgb]
    image = colors[grid]
    height, width = grid.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        fh.write(image.tobytes())


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    _check_outputs([("--out", f"{args.out}.hsc1"), ("--out", f"{args.out}.hsl1")], {})
    # the flags given; data.synth_scene's signature holds every default
    given = {name: value for name, value in vars(args).items()
             if name in inspect.signature(data.synth_scene).parameters}
    try:
        cube, labels = data.synth_scene(**given)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    data.save_cube(cube, f"{args.out}.hsc1")
    data.save_labels(labels, f"{args.out}.hsl1")
    oracle = data.nearest_centroid_oa(cube, labels)
    print(f"wrote {args.out}.hsc1 ({cube.bands}x{cube.rows}x{cube.cols}) "
          f"and {args.out}.hsl1 ({labels.num_classes} classes)")
    print(f"nearest-centroid OA: {oracle:.6f}")
    return 0


def cmd_train(args) -> int:
    # every path and setting is checked before any data is read
    trace = args.out_trace or f"{args.out_ckpt}.trace.csv"
    split_path = args.out_split or f"{args.out_ckpt}.split.hss1"
    _check_outputs([("--out-ckpt", args.out_ckpt), ("--out-trace", trace),
                    ("--out-split", split_path)],
                   {"--cube": args.cube, "--labels": args.labels,
                    "--config": args.config})
    cfg = RunConfig(args.config)
    try:
        data.parse_strategy(args.strategy)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    tcfg = cfg.build(train.TrainConfig)
    # the model keys, with the smallest valid bands and classes: the data
    # fixes both below
    cfg.build(model.ModelConfig, in_bands=5, num_classes=1)

    cube = data.load_cube(args.cube)
    labels = data.load_labels(args.labels)
    if labels.grid.shape != (cube.rows, cube.cols):
        raise FormatError(
            f"cube {cube.rows}x{cube.cols} and labels "
            f"{labels.grid.shape[0]}x{labels.grid.shape[1]} disagree")
    try:
        mcfg = cfg.build(model.ModelConfig, in_bands=cube.bands,
                         num_classes=labels.num_classes)
    except ConfigError as err:
        # the dry run above passed every file key, so the data is at fault
        raise FormatError(str(err)) from None
    cube = data.normalize(cube)
    net = model.build(mcfg, np.random.default_rng(tcfg.seed))
    # a scene no crop of which the model can train on is the data's fault,
    # any other crop it cannot train on the config's
    for crop, error in (((cube.rows, cube.cols), FormatError),
                        (tcfg.crop_size, ConfigError)):
        try:
            train.fit_crop(net, crop, cube.rows, cube.cols)
        except ShapeError as err:
            raise error(str(err)) from None

    split = data.sample_split(labels, args.strategy, tcfg.seed)
    for name, n_train, n_test in data.split_report(labels, split):
        print(f"{name}: train={n_train} test={n_test}")
    rows = train.train(cube, labels, split, net, tcfg, trace_path=trace)

    model.save_checkpoint(net, args.out_ckpt)
    data.save_split(split, split_path)
    print(f"final loss: {rows[-1].total:.6f}")
    print(f"wrote {args.out_ckpt}, {trace}, {split_path}")
    return 0


def cmd_classify(args) -> int:
    ppm = args.out_ppm or f"{args.out_map}.ppm"
    _check_outputs([("--out-map", args.out_map), ("--out-ppm", ppm)],
                   {"--cube": args.cube, "--ckpt": args.ckpt})
    cube = data.load_cube(args.cube)
    net = model.load_checkpoint(args.ckpt)
    if net.config.in_bands != cube.bands:
        raise FormatError(
            f"checkpoint expects {net.config.in_bands} bands, cube has {cube.bands}")
    cube = data.normalize(cube)

    with no_grad():
        logits, _ = net.forward_refined(Tensor(cube.values))
    grid = logits.data.argmax(axis=0).astype(np.uint16) + 1

    names = [f"class_{cls}" for cls in range(1, net.config.num_classes + 1)]
    predicted = data.LabelMap(grid, names)
    data.save_labels(predicted, args.out_map)
    write_ppm(grid, net.config.num_classes, ppm)
    print(f"wrote {args.out_map}, {ppm}")
    return 0


def cmd_eval(args) -> int:
    _check_outputs([("--out-csv", args.out_csv)] if args.out_csv else [],
                   {"--pred": args.pred, "--ref": args.ref, "--split": args.split})
    pred = data.load_labels(args.pred)
    ref = data.load_labels(args.ref)
    mask = data.load_split(args.split).test if args.split else None
    cm = metrics.confusion(pred, ref, mask, classes=ref.num_classes)
    report = metrics.format_report(cm, ref.class_names)
    if args.out_csv:
        metrics.write_report(report, args.out_csv)
    for label, value in report[-3:]:
        print(f"{label}: {value}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _config_epilog() -> str:
    lines = ["config file keys (key = value, # comments):"]
    for key, (_, _, doc) in CONFIG_KEYS.items():
        lines.append(f"  {key} = {_spell(_default(key))}  ({doc})")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fcspn",
        description="Hyperspectral classification with spatial propagation refinement.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled scene",
                       epilog="prints the nearest-centroid oracle OA")
    p.add_argument("--out", required=True, help="output path prefix")
    for name, param in inspect.signature(data.synth_scene).parameters.items():
        p.add_argument(f"--{name}", type=type(param.default),
                       default=argparse.SUPPRESS, help=f"default {param.default}")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser(
        "train", help="fit a model on a labeled cube",
        epilog=_config_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--cube", required=True, help="HSC1 cube file")
    p.add_argument("--labels", required=True, help="HSL1 label file")
    p.add_argument("--config", help="INI-style config file")
    p.add_argument("--strategy", default="per_class:200",
                   help="per_class:N or fraction:F")
    p.add_argument("--out-ckpt", required=True, help="checkpoint path")
    p.add_argument("--out-trace", help="loss CSV (default <ckpt>.trace.csv)")
    p.add_argument("--out-split", help="split file (default <ckpt>.split.hss1)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("classify", help="predict a label map from a cube")
    p.add_argument("--cube", required=True, help="HSC1 cube file")
    p.add_argument("--ckpt", required=True, help="checkpoint path")
    p.add_argument("--out-map", required=True, help="HSL1 output path")
    p.add_argument("--out-ppm", help="P6 pixmap (default <out-map>.ppm)")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("eval", help="score a prediction against reference labels")
    p.add_argument("--pred", required=True, help="predicted HSL1 file")
    p.add_argument("--ref", required=True, help="reference HSL1 file")
    p.add_argument("--split", help="HSS1 split; scoring uses its test half")
    p.add_argument("--out-csv", help="write the per-class report here")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"fcspn: config error: {err}", file=sys.stderr)
        return 2
    except NumericError as err:
        print(f"fcspn: numeric error: {err}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as err:
        print(f"fcspn: data error: {err}", file=sys.stderr)
        return 3
