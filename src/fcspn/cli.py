"""Command-line pipeline: synthesize, train, classify, evaluate.

Exit codes: 0 success, 2 usage or configuration, 3 data or file format,
4 numeric failure.  Every tunable has a documented default; a flat INI-style
config file (``key = value`` lines, ``#`` comments) can override them, and
command-line flags win over the file.
"""

import argparse
import sys
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import data, metrics, model, train
from .tensor import FormatError, NumericError, ShapeError, Tensor, no_grad


class ConfigError(ValueError):
    """A config file or flag value the pipeline cannot act on."""


# key -> (default, help); the single source of truth for RunConfig
CONFIG_KEYS: Dict[str, Tuple[str, str]] = {
    "model.base_channels": ("16", "stem width; deeper stages double it"),
    "model.dsr_per_stage": ("1", "residual units per encoder stage"),
    "model.attention_enabled": ("on", "channel attention in encoder stages"),
    "train.batch_size": ("20", "crops per optimizer step"),
    "train.weight_decay": ("1e-5", "L2 coefficient on conv weights"),
    "train.epochs": ("60", "training epochs"),
    "train.momentum": ("0.9", "SGD momentum"),
    "train.learning_rate": ("0.01", "SGD learning rate"),
    "train.focal_gamma": ("2.0", "focal loss exponent"),
    "train.crop_size": ("64", "spatial crop, N or HxW"),
    "train.seed": ("0", "training RNG seed"),
    "train.steps_per_epoch": ("1", "optimizer steps per epoch"),
    "cspn.steps": ("24", "propagation steps in refinement"),
    "data.normalize": ("on", "per-band min-max scaling before use"),
}


class RunConfig:
    """Flat dotted-key settings, read from ``path`` over the defaults;
    unknown keys are rejected with line numbers."""

    def __init__(self, path: Optional[str] = None):
        self._values = {key: (default, "default")
                        for key, (default, _) in CONFIG_KEYS.items()}
        if path is None:
            return
        with open(path) as fh:
            for number, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, eq, value = (part.strip() for part in line.partition("="))
                if not eq or not key:
                    raise ConfigError(
                        f"{path} line {number}: expected 'key = value', got {raw.strip()!r}")
                if key not in CONFIG_KEYS:
                    raise ConfigError(f"{path} line {number}: unknown key {key!r}")
                self._values[key] = (value, f"{path} line {number}")

    def get_int(self, key: str) -> int:
        value, where = self._values[key]
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"{where}: {key} expects an integer, got {value!r}") from None

    def get_float(self, key: str) -> float:
        value, where = self._values[key]
        try:
            return float(value)
        except ValueError:
            raise ConfigError(f"{where}: {key} expects a number, got {value!r}") from None

    def get_bool(self, key: str) -> bool:
        value, where = self._values[key]
        lowered = value.lower()
        if lowered in ("on", "true", "yes", "1"):
            return True
        if lowered in ("off", "false", "no", "0"):
            return False
        raise ConfigError(f"{where}: {key} expects on/off, got {value!r}")

    def get_crop(self, key: str) -> Tuple[int, int]:
        value, where = self._values[key]
        parts = value.lower().split("x")
        try:
            if len(parts) == 1:
                side = int(parts[0])
                return side, side
            if len(parts) == 2:
                return int(parts[0]), int(parts[1])
        except ValueError:
            pass
        raise ConfigError(f"{where}: {key} expects N or HxW, got {value!r}")


def model_config_from(cfg: RunConfig, bands: int, classes: int) -> model.ModelConfig:
    try:
        return model.ModelConfig(
            in_bands=bands,
            num_classes=classes,
            base_channels=cfg.get_int("model.base_channels"),
            dsr_per_stage=cfg.get_int("model.dsr_per_stage"),
            attention_enabled=cfg.get_bool("model.attention_enabled"),
            cspn_steps=cfg.get_int("cspn.steps"),
        )
    except ShapeError as err:
        raise ConfigError(str(err)) from None


def train_config_from(cfg: RunConfig, seed: Optional[int]) -> train.TrainConfig:
    try:
        return train.TrainConfig(
            batch_size=cfg.get_int("train.batch_size"),
            weight_decay=cfg.get_float("train.weight_decay"),
            epochs=cfg.get_int("train.epochs"),
            momentum=cfg.get_float("train.momentum"),
            learning_rate=cfg.get_float("train.learning_rate"),
            focal_gamma=cfg.get_float("train.focal_gamma"),
            crop_size=cfg.get_crop("train.crop_size"),
            seed=cfg.get_int("train.seed") if seed is None else seed,
            steps_per_epoch=cfg.get_int("train.steps_per_epoch"),
        )
    except ShapeError as err:
        raise ConfigError(str(err)) from None


def _maybe_normalize(cube: data.HsiCube, cfg: RunConfig) -> data.HsiCube:
    return data.normalize(cube) if cfg.get_bool("data.normalize") else cube


def _colorize(grid: np.ndarray, palette) -> np.ndarray:
    """(H, W, 3) uint8 image of a class-id grid; ids without a color stay black."""
    colors = np.zeros((int(grid.max()) + 1, 3), dtype=np.uint8)
    for cls, red, green, blue, _name in palette:
        if cls < colors.shape[0]:
            colors[cls] = (red, green, blue)
    return colors[grid]


def write_ppm(grid: np.ndarray, palette, path) -> None:
    """Render a class-id grid as a P6 pixmap; id 0 stays black."""
    image = _colorize(grid, palette)
    height, width = grid.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        fh.write(image.tobytes())


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    cube, labels = data.synth_scene(classes=args.classes, size=args.size,
                                    bands=args.bands, noise=args.noise,
                                    seed=args.seed)
    data.save_cube(cube, f"{args.out}.hsc1")
    data.save_labels(labels, f"{args.out}.hsl1")
    data.save_palette(data.make_palette(labels.class_names),
                      f"{args.out}.palette.csv")
    oracle = data.nearest_centroid_oa(cube, labels)
    print(f"wrote {args.out}.hsc1 ({cube.bands}x{cube.rows}x{cube.cols}) "
          f"and {args.out}.hsl1 ({labels.num_classes} classes)")
    print(f"nearest-centroid OA: {oracle:.6f}")
    return 0


def cmd_train(args) -> int:
    cfg = RunConfig(args.config)
    cube = data.load_cube(args.cube)
    labels = data.load_labels(args.labels)
    if labels.grid.shape != (cube.rows, cube.cols):
        raise FormatError(
            f"cube {cube.rows}x{cube.cols} and labels "
            f"{labels.grid.shape[0]}x{labels.grid.shape[1]} disagree")
    cube = _maybe_normalize(cube, cfg)

    try:
        strategy = data.parse_strategy(args.strategy)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    tcfg = train_config_from(cfg, args.seed)
    split = data.sample_split(labels, strategy, tcfg.seed)
    for name, n_train, n_test in data.split_report(labels, split):
        print(f"{name}: train={n_train} test={n_test}")

    mcfg = model_config_from(cfg, cube.bands, labels.num_classes)
    net = model.build(mcfg, np.random.default_rng(tcfg.seed))
    trace = args.out_trace or f"{args.out_ckpt}.trace.csv"
    rows = train.train(cube, labels, split, net, tcfg, trace_path=trace)

    model.save_checkpoint(net, args.out_ckpt)
    split_path = args.out_split or f"{args.out_ckpt}.split.hss1"
    data.save_split(split, split_path)
    print(f"final loss: {rows[-1].total:.6f}")
    print(f"wrote {args.out_ckpt}, {trace}, {split_path}")
    return 0


def cmd_classify(args) -> int:
    cfg = RunConfig(args.config)
    cube = data.load_cube(args.cube)
    net = model.load_checkpoint(args.ckpt)
    if net.config.in_bands != cube.bands:
        raise FormatError(
            f"checkpoint expects {net.config.in_bands} bands, cube has {cube.bands}")
    cube = _maybe_normalize(cube, cfg)

    steps = net.config.cspn_steps if args.steps is None else args.steps
    with no_grad():
        x = Tensor(cube.values[None].astype(np.float64))
        if steps == 0:
            logits = net.forward(x, training=False)
        else:
            logits, _ = net.forward_refined(x, steps=steps, training=False)
    grid = logits.data.argmax(axis=0).astype(np.uint16) + 1

    names = [f"class_{cls}" for cls in range(1, net.config.num_classes + 1)]
    predicted = data.LabelMap(grid, names)
    data.save_labels(predicted, args.out_map)
    palette = (data.load_palette(args.palette) if args.palette
               else data.make_palette(names))
    ppm = args.out_ppm or f"{args.out_map}.ppm"
    write_ppm(grid, palette, ppm)
    wrote = [str(args.out_map), str(ppm)]
    if args.out_png:
        _write_png(grid, palette, args.out_png)
        wrote.append(str(args.out_png))
    print(f"wrote {', '.join(wrote)}")
    return 0


def _write_png(grid: np.ndarray, palette, path) -> None:
    try:
        from PIL import Image
    except ImportError:
        raise ConfigError(
            "PNG output needs Pillow; install the 'png' extra or use the PPM") from None
    Image.fromarray(_colorize(grid, palette), mode="RGB").save(path, format="PNG")


def cmd_eval(args) -> int:
    pred = data.load_labels(args.pred)
    ref = data.load_labels(args.ref)
    mask = None
    if args.split:
        split = data.load_split(args.split)
        mask = (split.train | split.test) if args.include_train else split.test
    cm = metrics.confusion(pred, ref, mask, classes=ref.num_classes)
    report = metrics.format_report(cm, ref.class_names)
    if args.out_csv:
        metrics.write_report(cm, ref.class_names, args.out_csv)
    for label, value in report[-3:]:
        print(f"{label}: {value}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _config_epilog() -> str:
    lines = ["config file keys (key = value, # comments):"]
    for key, (default, doc) in CONFIG_KEYS.items():
        lines.append(f"  {key} = {default}  ({doc})")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fcspn",
        description="Hyperspectral classification with spatial propagation refinement.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled scene",
                       epilog="prints the nearest-centroid oracle OA")
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--size", type=int, default=32)
    p.add_argument("--bands", type=int, default=20)
    p.add_argument("--noise", type=float, default=0.02)
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--seed", type=int, help="overrides train.seed")
    p.add_argument("--out-ckpt", required=True, help="checkpoint path")
    p.add_argument("--out-trace", help="loss CSV (default <ckpt>.trace.csv)")
    p.add_argument("--out-split", help="split file (default <ckpt>.split.hss1)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("classify", help="predict a label map from a cube")
    p.add_argument("--cube", required=True, help="HSC1 cube file")
    p.add_argument("--ckpt", required=True, help="checkpoint path")
    p.add_argument("--config", help="INI-style config file")
    p.add_argument("--steps", type=int,
                   help="propagation steps, 0 for the unrefined map (default: checkpoint)")
    p.add_argument("--out-map", required=True, help="HSL1 output path")
    p.add_argument("--out-ppm", help="P6 pixmap (default <out-map>.ppm)")
    p.add_argument("--out-png", help="optional PNG (needs Pillow)")
    p.add_argument("--palette", help="palette CSV (default: generated)")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("eval", help="score a prediction against reference labels")
    p.add_argument("--pred", required=True, help="predicted HSL1 file")
    p.add_argument("--ref", required=True, help="reference HSL1 file")
    p.add_argument("--split", help="HSS1 split; scoring uses its test half")
    p.add_argument("--include-train", action="store_true",
                   help="score training pixels too (map-rendering parity)")
    p.add_argument("--out-csv", help="write the per-class report here")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "synth" and args.classes < 2:
        parser.error("--classes must be >= 2")
    if (args.command == "classify" and args.steps is not None
            and not 0 <= args.steps <= model.MAX_CSPN_STEPS):
        parser.error(f"--steps must be in 0..{model.MAX_CSPN_STEPS}")
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"fcspn: config error: {err}", file=sys.stderr)
        return 2
    except FormatError as err:
        print(f"fcspn: data error: {err}", file=sys.stderr)
        return 3
    except NumericError as err:
        print(f"fcspn: numeric error: {err}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as err:
        print(f"fcspn: data error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
