"""Command-line frontend: gen, train, predict, evaluate, volumetry.

Exit codes are a stable contract: 0 is success, and `_EXIT_CODES` is the one
table of the code each error exits with, after one `error:` line on stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    MANIFEST_NAME,
    PhantomSpec,
    _pgm_files,
    _read_image,
    _refuse_overwrite,
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
    _QUALITY_COLUMNS,
    _quality_cells,
    calibrate_volume,
    confusion,
    count_class_pixels,
    read_reference,
    write_report,
)
from .tensor import NUM_CLASSES, argmax_channel
from .train import parse_config, run_training
from .unet import forward, load_checkpoint

_EXIT_CODES = {
    ValidationError: 2,  # an argument or config value
    OSError: 3, MemoryError: 3,  # I/O, or a request the machine cannot hold
    DataMismatchError: 4, PgmFormatError: 4, CheckpointError: 4, ShapeError: 4,  # data files
    DivergenceError: 5,  # numeric divergence in training
}
# Every line break that str.splitlines splits at, escaped so that an error prints as one line.
_ONE_LINE = str.maketrans({c: c.encode("unicode_escape").decode("ascii")
                           for c in "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"})


def _mask_files(directory: Path) -> list[Path]:
    files = _pgm_files(directory)
    if not files:
        raise DataMismatchError(f"no .pgm files in {directory}")
    return files


def _input_images(directory: Path) -> tuple[list[Path], list[Path]]:
    """Images to predict on (manifest order when present, else sorted names),
    and every input file, manifest and its masks included, that predict must not overwrite."""
    if (directory / MANIFEST_NAME).is_file():
        pairs = load_manifest(directory)
        return [img for img, _ in pairs], [directory / MANIFEST_NAME, *(p for pair in pairs for p in pair)]
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
    _refuse_overwrite([config.checkpoint, config.metrics], [args.config])  # run_training guards the dataset
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
    _refuse_overwrite([out_dir / path.name for path in images], [args.checkpoint, *inputs], [out_dir])
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


def _score(args, *inputs) -> tuple[int, np.ndarray]:
    """Predicted bone pixels, and their confusion against `--truth` (zero without it); reads each
    mask once. Masks pair by file name: an unmatched name, one directory given as both, or a pair of
    different shapes is an error. `--out` may overwrite no mask and none of `inputs`."""
    pred_dir, truth_dir = Path(args.pred), None if args.truth is None else Path(args.truth)
    if truth_dir is not None and pred_dir.resolve() == truth_dir.resolve():
        raise ValidationError(f"--pred {pred_dir} and --truth {truth_dir} are the same directory")
    pred = {p.name: p for p in _mask_files(pred_dir)}
    truth = dict.fromkeys(pred) if truth_dir is None else {p.name: p for p in _mask_files(truth_dir)}
    only_pred = sorted(pred.keys() - truth.keys())
    only_truth = sorted(truth.keys() - pred.keys())
    if only_pred or only_truth:
        raise DataMismatchError(
            f"{len(pred)} predicted vs {len(truth)} truth masks; "
            f"without truth: {', '.join(only_pred) or 'none'}; "
            f"without prediction: {', '.join(only_truth) or 'none'}"
        )
    _refuse_overwrite([args.out], [*inputs, *pred.values(), *filter(None, truth.values())])
    pixels, counts = 0, np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
    for name, pred_path in sorted(pred.items()):
        mask, truth_path = read_mask(pred_path), truth[name]
        pixels += count_class_pixels([mask], 1)
        if truth_path is not None:
            truth_mask = read_mask(truth_path)
            if mask.shape != truth_mask.shape:
                raise DataMismatchError(f"{pred_path} is {mask.shape}, {truth_path} is {truth_mask.shape}")
            counts += confusion(mask, truth_mask)
    return pixels, counts


def cmd_evaluate(args) -> int:
    _, counts = _score(args)
    cells = _quality_cells(counts)
    print("confusion (rows true class, columns predicted):")
    for row in counts:
        print("  " + " ".join(f"{v:>12d}" for v in row))
    for name, cell in zip(_QUALITY_COLUMNS, cells):
        print(f"{name}: {cell}")
    _write_atomic(args.out, [f"{','.join(_QUALITY_COLUMNS)}\n{','.join(cells)}\n".encode("utf-8")])
    print(f"metrics: {args.out}")
    return 0


def cmd_volumetry(args) -> int:
    pixels_m, v_m = read_reference(Path(args.reference))
    pixels_c, counts = _score(args, Path(args.reference))
    report = calibrate_volume(pixels_c, pixels_m, v_m)
    write_report(report, None if args.truth is None else counts, args.out)
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
    p.add_argument("--implant-radius", type=float, default=PhantomSpec.implant_radius,
                   help="implant disk radius as a fraction of size")
    p.add_argument("--bone-density", type=float, default=PhantomSpec.bone_density,
                   help="fraction of the annulus covered by bone")
    p.add_argument("--noise-sigma", type=float, default=PhantomSpec.noise_sigma,
                   help="additive Gaussian noise level in [0,1] intensity units")
    p.add_argument("--streaks", type=int, default=PhantomSpec.artifact_streaks,
                   help="number of bright artifact streaks")
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
        for name, value in vars(args).items():  # os.fspath and open raise ValueError on a NUL
            if isinstance(value, str) and "\0" in value:
                raise ValidationError(f"--{name.replace('_', '-')} holds a NUL byte")
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {str(exc).translate(_ONE_LINE)}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
