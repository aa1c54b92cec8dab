"""Dense tensor primitives used by every other module.

Tensors are plain C-order float64 numpy arrays: row-major flat storage with
shape metadata, exactly what the rest of the pipeline assumes. The helpers
here add the validation and error contracts the higher layers rely on.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ShapeError

NUM_CLASSES = 3


class Shape4(NamedTuple):
    """Canonical image-batch layout: (batch, channels, height, width)."""

    batch: int
    channels: int
    height: int
    width: int

    @staticmethod
    def of(t: np.ndarray) -> "Shape4":
        if t.ndim != 4:
            raise ShapeError(f"expected a 4-d tensor, got shape {t.shape}")
        s = Shape4(*t.shape)
        s.validate()
        return s

    def validate(self) -> None:
        if min(self) < 1:
            raise ShapeError(f"all Shape4 extents must be >= 1, got {tuple(self)}")


def argmax_channel(a: np.ndarray) -> np.ndarray:
    """Per-pixel index of the maximum-valued channel.

    Input is a (batch, classes, H, W) score tensor with exactly NUM_CLASSES
    channels; the result is a (batch, H, W) uint8 label map. Ties break
    toward the lowest class index.
    """
    s = Shape4.of(a)
    if s.channels != NUM_CLASSES:
        raise ShapeError(
            f"argmax_channel expects {NUM_CLASSES} channels, got {s.channels}"
        )
    return np.argmax(a, axis=1).astype(np.uint8)
