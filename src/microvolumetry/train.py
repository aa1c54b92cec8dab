"""Training loop: config parsing, epoch/mini-batch orchestration, metrics CSV.

Config files are flat "key = value" UTF-8 text, one pair per line, with "#"
comments. Relative paths inside a config resolve against the config file's
directory. Everything downstream of the seed is deterministic: the split,
the weight init, and the per-epoch shuffle (seeded with base seed + epoch
number), so identical configs produce byte-identical CSVs and checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .data import (
    MANIFEST_NAME,
    _read_image,
    _read_pairs,
    _refuse_overwrite,
    _split_fraction,
    _write_atomic,
    encode_one_hot,
    load_manifest,
    read_mask,
    split_dataset,
)
from .errors import DataMismatchError, DivergenceError, ValidationError
from .layers import categorical_cross_entropy
from .metrics import confusion, pixel_accuracy
from .optim import AdamState, adam_step, init_adam
from .tensor import NUM_CLASSES, argmax_channel
from .unet import UNetConfig, backward, build, forward, save_checkpoint

METRICS_HEADER = "epoch,train_loss,train_acc,val_loss,val_acc"


@dataclass(frozen=True)
class RunConfig(UNetConfig):
    """A training run: the UNetConfig network fields plus the run's own."""

    dataset: str = ""
    checkpoint: str = "model.ckpt"
    metrics: str = "metrics.csv"
    epochs: int = 50
    batch_size: int = 2
    lr: float = AdamState.lr
    beta1: float = AdamState.beta1
    beta2: float = AdamState.beta2
    epsilon: float = AdamState.epsilon
    seed: int = 0
    split: str = "paper_95_5"

    def __post_init__(self):
        super().__post_init__()
        if self.epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if not self.dataset:
            raise ValidationError("config must set 'dataset'")
        _split_fraction(self.split)  # before any dataset file is read
        for name in ("lr", "epsilon"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValidationError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValidationError(f"{name} must be in [0, 1), got {getattr(self, name)}")

    def unet(self) -> UNetConfig:
        return UNetConfig(**{f.name: getattr(self, f.name) for f in fields(UNetConfig)})


_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}
_PATH_KEYS = ("dataset", "checkpoint", "metrics")


def parse_config(path) -> RunConfig:
    """Read a flat key = value config; unknown or duplicate keys are errors."""
    path = Path(path)
    seen: dict[str, object] = {}
    for key, (lineno, raw) in _read_pairs(path, ValidationError).items():
        if key not in _DEFAULTS:
            raise ValidationError(f"{path}:{lineno}: unknown config key '{key}'")
        try:  # paths resolve against the config's directory; other values parse as their default's type
            seen[key] = str((path.parent / raw).resolve()) if key in _PATH_KEYS else type(_DEFAULTS[key])(raw)
        except ValueError:  # a number that does not parse, or a path with a NUL byte
            raise ValidationError(f"{path}:{lineno}: config key '{key}' has invalid value {raw!r}") from None
    return RunConfig(**seen)


@dataclass
class TrainingResult:
    checkpoint_path: Path
    metrics_path: Path
    final_val_loss: float
    final_val_acc: float
    val_confusion: np.ndarray
    rows: list[str] = field(default_factory=list)


def _load_items(pairs, input_size: int):
    """Read every (image, mask) pair into one image array and one mask array, checking sizes up front."""
    images = np.empty((len(pairs), 1, input_size, input_size))
    masks = np.empty((len(pairs), input_size, input_size), dtype=np.uint8)
    for i, (img_path, mask_path) in enumerate(pairs):
        images[i] = _read_image(img_path, input_size)[0]
        mask = read_mask(mask_path)
        if mask.shape != masks.shape[1:]:
            raise DataMismatchError(f"{mask_path}: mask shape {mask.shape} != image {masks.shape[1:]}")
        masks[i] = mask
    return images, masks


def _pass(params, net_cfg, images, masks, order, batch_size, what, state=None):
    """Walk `order` in batches: mean per-pixel loss, pixel accuracy and confusion.

    With an Adam state every batch is also a training step. A non-finite batch
    loss raises DivergenceError naming `what`.
    """
    loss_sum = 0.0
    counts = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
    for start in range(0, len(order), batch_size):
        idx = order[start : start + batch_size]
        x, truth = images[idx], masks[idx]
        target = np.concatenate([encode_one_hot(m) for m in truth])
        out, cache = forward(params, net_cfg, x, want_cache=state is not None)
        loss, d_out = categorical_cross_entropy(out, target)
        if not np.isfinite(loss):
            raise DivergenceError(f"non-finite {what}")
        loss_sum += loss * truth.size
        counts += confusion(argmax_channel(out), truth)
        if state is not None:
            # named so the gradients live until the next backward; freed at once, they tripled the step's page faults
            grads = backward(params, net_cfg, cache, d_out)
            adam_step(params, grads, state)
    return loss_sum / int(counts.sum()), pixel_accuracy(counts), counts


def run_training(config: RunConfig, log=None) -> TrainingResult:
    """Train per config; rewrite the metrics CSV after every epoch, then save the checkpoint.

    Raises DivergenceError at the first non-finite loss, with every finished epoch's row on disk.
    """
    say = log if log is not None else lambda *_: None
    pairs = load_manifest(config.dataset)
    _refuse_overwrite([config.checkpoint, config.metrics],
                      [Path(config.dataset) / MANIFEST_NAME, *(path for pair in pairs for path in pair)])
    images, masks = _load_items(pairs, config.input_size)
    split = split_dataset(list(range(len(images))), config.split, config.seed)
    say(f"dataset: {len(split.train)} training / {len(split.validation)} validation pairs")

    net_cfg = config.unet()
    params = build(net_cfg, config.seed)
    state = init_adam(params, lr=config.lr, beta1=config.beta1,
                      beta2=config.beta2, epsilon=config.epsilon)

    metrics_path = Path(config.metrics)
    rows = []
    for epoch in range(1, config.epochs + 1):
        order = np.random.default_rng(config.seed + epoch).permutation(split.train)
        train_loss, train_acc, _ = _pass(params, net_cfg, images, masks, order, config.batch_size,
                                         f"training loss at epoch {epoch}", state)
        val_loss, val_acc, val_counts = _pass(params, net_cfg, images, masks, split.validation,
                                              config.batch_size, f"validation loss at epoch {epoch}")
        row = f"{epoch},{train_loss:.6f},{train_acc:.6f},{val_loss:.6f},{val_acc:.6f}"
        rows.append(row)
        say(row)
        text = METRICS_HEADER + "\n" + "".join(r + "\n" for r in rows)
        _write_atomic(metrics_path, [text.encode("utf-8")])

    checkpoint_path = Path(config.checkpoint)
    save_checkpoint(params, net_cfg, checkpoint_path)
    return TrainingResult(
        checkpoint_path=checkpoint_path,
        metrics_path=metrics_path,
        final_val_loss=val_loss,
        final_val_acc=val_acc,
        val_confusion=val_counts,
        rows=rows,
    )
