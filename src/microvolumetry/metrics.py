"""Segmentation quality metrics and pixel-count volume cross-calibration.

The confusion matrix is a plain (3, 3) int64 array with rows indexed by the
true class and columns by the predicted class. Calibration converts a
predicted bone pixel count to mm^3 using a reference segmentation whose
pixel count and volume are both known:

    V_C / pixels_C = V_M / pixels_M
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import _write_atomic
from .errors import ShapeError, ValidationError
from .tensor import NUM_CLASSES


def _as_stack(masks) -> np.ndarray:
    stack = np.asarray(masks)
    if stack.ndim == 2:
        stack = stack[None]
    if stack.ndim != 3:
        raise ShapeError(f"expected a stack of 2-d masks, got shape {stack.shape}")
    return stack


def confusion(pred, truth) -> np.ndarray:
    """Pixel tally over mask stacks: counts[true_class, predicted_class]."""
    pred, truth = _as_stack(pred), _as_stack(truth)
    if pred.shape != truth.shape:
        raise ShapeError(f"pred stack {pred.shape} != truth stack {truth.shape}")
    if pred.size and (pred.max() >= NUM_CLASSES or truth.max() >= NUM_CLASSES):
        raise ValidationError("mask labels must lie in {0, 1, 2}")
    joint = truth.astype(np.int64).ravel() * NUM_CLASSES + pred.astype(np.int64).ravel()
    return np.bincount(joint, minlength=NUM_CLASSES**2).reshape(NUM_CLASSES, NUM_CLASSES)


def pixel_accuracy(counts: np.ndarray) -> float:
    total = int(counts.sum())
    if total <= 0:
        raise ValidationError("empty confusion matrix")
    return float(np.trace(counts)) / total


def dice(counts: np.ndarray, k: int) -> float:
    """2*TP / (2*TP + FP + FN) for class k; 1.0 when k is absent from both."""
    if k not in range(NUM_CLASSES):
        raise ValidationError(f"class {k} not in 0..{NUM_CLASSES - 1}")
    tp = float(counts[k, k])
    fp = float(counts[:, k].sum()) - tp
    fn = float(counts[k, :].sum()) - tp
    denom = 2.0 * tp + fp + fn
    if denom == 0.0:
        return 1.0
    return 2.0 * tp / denom


def count_class_pixels(masks, k: int) -> int:
    if k not in range(NUM_CLASSES):
        raise ValidationError(f"class {k} not in 0..{NUM_CLASSES - 1}")
    total = 0
    for mask in masks:
        total += int(np.count_nonzero(np.asarray(mask) == k))
    return total


@dataclass(frozen=True)
class VolumetryReport:
    pixels_c: int
    pixels_m: int
    v_m: float
    v_c: float
    ratio: float


def calibrate_volume(pixels_c: int, pixels_m: int, v_m: float) -> VolumetryReport:
    """Scale the reference volume by the predicted/reference pixel ratio."""
    if pixels_c < 0:
        raise ValidationError(f"pixels_c must be >= 0, got {pixels_c}")
    if pixels_m <= 0:
        raise ValidationError(f"pixels_m must be > 0, got {pixels_m}")
    if not 0 < v_m < np.inf:
        raise ValidationError(f"v_m must be finite and > 0, got {v_m}")
    ratio = pixels_c / pixels_m
    return VolumetryReport(
        pixels_c=int(pixels_c), pixels_m=int(pixels_m),
        v_m=float(v_m), v_c=float(v_m) * ratio, ratio=ratio,
    )


REPORT_HEADER = "pixels_C,pixels_M,V_M,V_C,ratio,accuracy,dice_0,dice_1,dice_2"


def write_report(rep: VolumetryReport, counts, path) -> None:
    """Write the one-row calibration CSV; deterministic bytes.

    With counts=None (no ground truth available) the accuracy and dice
    cells are left empty. Metric computation happens before the file is
    touched, so an invalid confusion matrix leaves no partial file.
    """
    if counts is None:
        quality = ["", "", "", ""]
    else:
        quality = [f"{pixel_accuracy(counts):.6f}"] + [
            f"{dice(counts, k):.6f}" for k in range(NUM_CLASSES)
        ]
    row = [
        str(rep.pixels_c), str(rep.pixels_m),
        f"{rep.v_m:.6f}", f"{rep.v_c:.6f}", f"{rep.ratio:.6f}",
    ] + quality
    _write_atomic(path, [f"{REPORT_HEADER}\n{','.join(row)}\n".encode("utf-8")])


def read_reference(path) -> tuple[int, float]:
    """Parse the reference-software export: pixels_M=<int>, V_M_mm3=<decimal>."""
    values: dict[str, str] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if sep:
            values[key.strip()] = value.strip()
    if "pixels_M" not in values:
        raise ValidationError(f"{path}: missing 'pixels_M=<integer>' line")
    if "V_M_mm3" not in values:
        raise ValidationError(f"{path}: missing 'V_M_mm3=<decimal>' line")
    try:
        pixels_m = int(values["pixels_M"])
        v_m = float(values["V_M_mm3"])
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    if pixels_m <= 0 or not 0 < v_m < np.inf:
        raise ValidationError(f"{path}: pixels_M and V_M_mm3 must be positive and finite")
    return pixels_m, v_m
