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
    DatasetSplit,
    _read_image,
    _read_text,
    _write_atomic,
    encode_one_hot,
    load_manifest,
    read_mask,
    split_dataset,
)
from .errors import DataMismatchError, DivergenceError, ValidationError
from .layers import categorical_cross_entropy
from .metrics import confusion
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


def _coerce(key: str, raw: str):
    """Parse a raw value as the type of the key's default."""
    kind = type(_DEFAULTS[key])
    if kind is str:
        return raw
    try:
        return kind(raw)
    except ValueError:
        raise ValidationError(f"config key '{key}' has non-numeric value {raw!r}") from None


def parse_config(path) -> RunConfig:
    """Read a flat key = value config; unknown or duplicate keys are errors."""
    path = Path(path)
    seen: dict[str, object] = {}
    for lineno, line in enumerate(_read_text(path, ValidationError).splitlines(), start=1):
        line = line.partition("#")[0].strip()
        if not line:
            continue
        key, sep, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if not sep or not key:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
        if key not in _DEFAULTS:
            raise ValidationError(f"{path}:{lineno}: unknown config key '{key}'")
        if key in seen:
            raise ValidationError(f"{path}:{lineno}: duplicate config key '{key}'")
        seen[key] = _coerce(key, raw)
    for key in _PATH_KEYS:
        if key in seen:
            try:
                seen[key] = str((path.parent / str(seen[key])).resolve())
            except ValueError:  # e.g. an embedded NUL byte
                raise ValidationError(f"{path}: config key '{key}' is not a usable path") from None
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
    """Read every (image, mask) pair into memory, checking sizes up front."""
    items = []
    for img_path, mask_path in pairs:
        image = _read_image(img_path, input_size)[0, 0]
        mask = read_mask(mask_path)
        if mask.shape != image.shape:
            raise DataMismatchError(f"{mask_path}: mask shape {mask.shape} != image {image.shape}")
        items.append((image, mask))
    return items


def _batches(indices, batch_size: int):
    for start in range(0, len(indices), batch_size):
        yield indices[start : start + batch_size]


def _make_batch(items, idx):
    x = np.stack([items[i][0] for i in idx])[:, None, :, :]
    masks = np.stack([items[i][1] for i in idx])
    target = np.concatenate([encode_one_hot(m) for m in masks])
    return x, target, masks


def _evaluate(params, net_cfg, items, indices, batch_size):
    """Mean per-pixel loss and accuracy plus a confusion matrix, no caching."""
    loss_sum, pixel_total = 0.0, 0
    counts = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
    for idx in _batches(indices, batch_size):
        x, target, masks = _make_batch(items, idx)
        out, _ = forward(params, net_cfg, x, want_cache=False)
        loss, _ = categorical_cross_entropy(out, target)
        n_pix = masks.size
        loss_sum += loss * n_pix
        pixel_total += n_pix
        counts += confusion(argmax_channel(out), masks)
    acc = float(np.trace(counts)) / pixel_total
    return loss_sum / pixel_total, acc, counts


def run_training(config: RunConfig, log=None) -> TrainingResult:
    """Train per config; rewrite the metrics CSV after every epoch, then save the checkpoint.

    Raises DivergenceError at the first non-finite loss, with every finished epoch's row on disk.
    """
    say = log if log is not None else lambda *_: None
    pairs = load_manifest(config.dataset)
    items = _load_items(pairs, config.input_size)
    split: DatasetSplit = split_dataset(list(range(len(items))), config.split, config.seed)
    say(f"dataset: {len(split.train)} training / {len(split.validation)} validation pairs")

    net_cfg = config.unet()
    params = build(net_cfg, config.seed)
    state = init_adam(params, lr=config.lr, beta1=config.beta1,
                      beta2=config.beta2, epsilon=config.epsilon)

    metrics_path = Path(config.metrics)
    rows = []
    for epoch in range(1, config.epochs + 1):
        order = np.random.default_rng(config.seed + epoch).permutation(len(split.train))
        loss_sum, hit_sum, pixel_total = 0.0, 0, 0
        for idx in _batches([split.train[i] for i in order], config.batch_size):
            x, target, masks = _make_batch(items, idx)
            out, cache = forward(params, net_cfg, x)
            loss, d_out = categorical_cross_entropy(out, target)
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite training loss at epoch {epoch}")
            n_pix = masks.size
            loss_sum += loss * n_pix
            hit_sum += int((argmax_channel(out) == masks).sum())
            pixel_total += n_pix
            grads = backward(params, net_cfg, cache, d_out)
            params, state = adam_step(params, grads, state)
        train_loss = loss_sum / pixel_total
        train_acc = hit_sum / pixel_total

        val_loss, val_acc, val_counts = _evaluate(
            params, net_cfg, items, split.validation, config.batch_size
        )
        if not np.isfinite(val_loss):
            raise DivergenceError(f"non-finite validation loss at epoch {epoch}")
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
