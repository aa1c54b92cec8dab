"""Command-line frontend: gen, train, predict, evaluate, volumetry.

Exit codes are a stable contract: 0 success, 2 argument/config error,
3 I/O error, 4 data mismatch (malformed or inconsistent data files),
5 numeric divergence during training.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    PhantomSpec,
    _read_image,
    _write_atomic,
    load_manifest,
    make_dataset,
    read_mask,
    write_pgm,
)
from .errors import (
    CheckpointError,
    DataMismatchError,
    DivergenceError,
    PgmFormatError,
    ShapeError,
    ValidationError,
)
from .metrics import (
    calibrate_volume,
    confusion,
    count_class_pixels,
    dice,
    pixel_accuracy,
    read_reference,
    write_report,
)
from .tensor import NUM_CLASSES, argmax_channel
from .train import parse_config, run_training
from .unet import forward, load_checkpoint


def _mask_files(directory: Path) -> list[Path]:
    files = sorted(p for p in directory.glob("*.pgm") if p.is_file())
    if not files:
        raise DataMismatchError(f"no .pgm files in {directory}")
    return files


def _input_images(directory: Path) -> tuple[list[Path], list[Path]]:
    """Images to predict on (manifest order when present, else sorted names),
    and every input file, manifest masks included, that predict must not overwrite."""
    if (directory / "manifest.txt").is_file():
        pairs = load_manifest(directory)
        return [img for img, _ in pairs], [path for pair in pairs for path in pair]
    images = _mask_files(directory)
    return images, images


def cmd_gen(args) -> int:
    template = PhantomSpec(
        size=args.size,
        implant_radius=args.implant_radius,
        bone_density=args.bone_density,
        noise_sigma=args.noise_sigma,
        artifact_streaks=args.streaks,
        seed=0,
    )
    make_dataset(args.out, args.count, template, seed=args.seed)
    print(f"wrote {args.count} pairs, manifest at {Path(args.out) / 'manifest.txt'}")
    return 0


def cmd_train(args) -> int:
    config = parse_config(args.config)
    result = run_training(config, log=print)
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"metrics: {result.metrics_path}")
    print(f"final validation accuracy: {result.final_val_acc:.6f}")
    return 0


def cmd_predict(args) -> int:
    """Segment every image with the checkpoint's network, run in float32.

    The checkpoint is loaded straight into float32, so the float64 network is
    never held, and every call receives the same weight arrays (perfbench keys
    its layer spans by them). Each image tensor is cast as it is read. Scores
    that are not finite, from weights whose activations overflow float32, are
    refused before that image's mask is written.
    """
    params, net_cfg = load_checkpoint(args.checkpoint, np.float32)
    out_dir = Path(args.out)
    images, inputs = _input_images(Path(args.images))
    if out_dir.resolve() in {path.resolve().parent for path in inputs}:
        raise ValidationError(f"--out {out_dir} holds input files that the masks would overwrite")
    out_dir.mkdir(parents=True, exist_ok=True)
    for path in images:
        x = _read_image(path, net_cfg.input_size).astype(np.float32)
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite scores are refused below
            scores, _ = forward(params, net_cfg, x, want_cache=False)
        if not np.isfinite(scores).all():
            raise CheckpointError(f"{path.name}: scores are not finite; the checkpoint's "
                                  f"weights overflow float32 in the forward")
        write_pgm(argmax_channel(scores)[0], out_dir / path.name)
    print(f"wrote {len(images)} masks to {out_dir}")
    return 0


def _paired_masks(pred_dir: Path, truth_dir: Path) -> list[tuple[Path, Path]]:
    """(predicted, truth) mask files matched by file name; an unmatched name is an error,
    and so is one directory given as both, which would score every mask against itself."""
    if pred_dir.resolve() == truth_dir.resolve():
        raise ValidationError(f"--pred {pred_dir} and --truth {truth_dir} are the same directory")
    pred = {p.name: p for p in _mask_files(pred_dir)}
    truth = {p.name: p for p in _mask_files(truth_dir)}
    only_pred = sorted(pred.keys() - truth.keys())
    only_truth = sorted(truth.keys() - pred.keys())
    if only_pred or only_truth:
        raise DataMismatchError(
            f"{len(pred)} predicted vs {len(truth)} truth masks; "
            f"without truth: {', '.join(only_pred) or 'none'}; "
            f"without prediction: {', '.join(only_truth) or 'none'}"
        )
    return [(pred[name], truth[name]) for name in sorted(pred)]


def _refuse_out_over_input(out: str, inputs: list[Path]) -> None:
    """A report written to --out must not replace a file that the command reads."""
    if Path(out).resolve() in {path.resolve() for path in inputs}:
        raise ValidationError(f"--out {out} is an input file that the report would overwrite")


def cmd_evaluate(args) -> int:
    pairs = _paired_masks(Path(args.pred), Path(args.truth))
    _refuse_out_over_input(args.out, [path for pair in pairs for path in pair])
    counts = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
    for pred_path, truth_path in pairs:
        pred, truth = read_mask(pred_path), read_mask(truth_path)
        if pred.shape != truth.shape:
            raise DataMismatchError(
                f"{pred_path} is {pred.shape}, {truth_path} is {truth.shape}"
            )
        counts += confusion(pred, truth)
    acc = pixel_accuracy(counts)
    dices = [dice(counts, k) for k in range(NUM_CLASSES)]
    print("confusion (rows true class, columns predicted):")
    for row in counts:
        print("  " + " ".join(f"{v:>12d}" for v in row))
    print(f"accuracy: {acc:.6f}")
    for k, d in enumerate(dices):
        print(f"dice_{k}: {d:.6f}")
    header = ",".join(["accuracy"] + [f"dice_{k}" for k in range(NUM_CLASSES)])
    row = f"{acc:.6f}," + ",".join(f"{d:.6f}" for d in dices)
    _write_atomic(args.out, [f"{header}\n{row}\n".encode("utf-8")])
    print(f"metrics: {args.out}")
    return 0


def cmd_volumetry(args) -> int:
    pixels_m, v_m = read_reference(Path(args.reference))
    if args.truth is None:
        pairs = [(p, None) for p in _mask_files(Path(args.pred))]
    else:
        pairs = _paired_masks(Path(args.pred), Path(args.truth))
    inputs = [Path(args.reference)] + [path for pair in pairs for path in pair if path is not None]
    _refuse_out_over_input(args.out, inputs)
    pred_masks = [read_mask(p) for p, _ in pairs]
    pixels_c = count_class_pixels(pred_masks, 1)
    report = calibrate_volume(pixels_c, pixels_m, v_m)

    counts = None
    if args.truth is not None:
        counts = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
        for pred, (_, truth_path) in zip(pred_masks, pairs):
            counts += confusion(pred, read_mask(truth_path))

    write_report(report, counts, args.out)
    print(f"bone pixels (predicted): {report.pixels_c}")
    print(f"bone pixels (reference): {report.pixels_m}")
    print(f"V_M = {report.v_m:.2f} mm^3")
    print(f"V_C = {report.v_c:.2f} mm^3")
    print(f"ratio = {report.ratio * 100:.2f}%")
    print(f"report: {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="microvolumetry",
        description="Bone segmentation and pixel-count volumetry on synthetic phantom scans.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a phantom dataset with ground-truth masks")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--count", type=int, required=True, help="number of image/mask pairs")
    p.add_argument("--size", type=int, default=512, help="square image size in pixels")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--implant-radius", type=float, default=0.18,
                   help="implant disk radius as a fraction of size")
    p.add_argument("--bone-density", type=float, default=0.5,
                   help="fraction of the annulus covered by bone")
    p.add_argument("--noise-sigma", type=float, default=0.02,
                   help="additive Gaussian noise level in [0,1] intensity units")
    p.add_argument("--streaks", type=int, default=4, help="number of bright artifact streaks")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train the network from a key=value config file")
    p.add_argument("--config", required=True, help="path to the run config")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="write predicted masks for a directory of images")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--images", required=True, help="directory of input .pgm images")
    p.add_argument("--out", required=True, help="directory for predicted mask .pgm files")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="confusion, accuracy, and dice of predictions vs truth")
    p.add_argument("--pred", required=True, help="directory of predicted masks")
    p.add_argument("--truth", required=True, help="directory of ground-truth masks")
    p.add_argument("--out", default="evaluation.csv", help="metrics CSV path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("volumetry", help="calibrate predicted bone pixel count to mm^3")
    p.add_argument("--pred", required=True, help="directory of predicted masks")
    p.add_argument("--reference", required=True,
                   help="text file with pixels_M=<int> and V_M_mm3=<decimal> lines")
    p.add_argument("--truth", default=None,
                   help="optional ground-truth mask directory for quality columns")
    p.add_argument("--out", default="volumetry.csv", help="report CSV path")
    p.set_defaults(func=cmd_volumetry)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataMismatchError, PgmFormatError, CheckpointError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
