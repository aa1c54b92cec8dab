"""U-Net construction, whole-image forward/backward, and checkpointing.

The architecture: `depth` contraction steps (two same-padded 3x3
convolutions + ReLU, channels doubling from `base_channels`, then 2x2 max
pooling), a bottleneck pair at base*2^depth channels without pooling, and
`depth` expansion steps (2x2/stride-2 transposed convolution halving
channels, skip concatenation with the matching contraction output, two 3x3
convolutions + ReLU), finished by a 1x1 classification convolution and a
sigmoid or softmax head. The input is one grayscale channel and the head
scores NUM_CLASSES (background, bone, implant); neither is configurable.

Parameters are an ordered mapping {layer name: (weights, bias)}; gradients
mirror that structure. The training cache holds {stage: (input, conv1, conv2
activation)} and the head output "out"; backward reads each pool, tconv and
head input from the conv2 activation of the stage that produced it.

Without a cache, each decoder stage holds an array only until the next step
has read it: `forward` drops the stage below's output once the tconv has
upsampled it, the upsampled array and the skip once they are joined, and the
stage drops the join once conv1 has read it. ReLU runs in place on each
conv's fresh output; the cached activations are the same post-ReLU arrays.
"""

from __future__ import annotations

import itertools
import os
import struct
from dataclasses import dataclass

import numpy as np

from .data import _write_atomic
from .errors import CheckpointError, ConsistencyError, ShapeError, ValidationError
from .layers import (
    ConvSpec,
    concat_channels,
    conv2d_backward,
    conv2d_forward,
    maxpool2_backward,
    maxpool2_forward,
    relu_backward,
    sigmoid,
    sigmoid_backward,
    softmax_channel,
    softmax_channel_backward,
    split_channels,
    tconv2_backward,
    tconv2_forward,
)
from .tensor import NUM_CLASSES, Shape4

OUTPUT_HEADS = ("sigmoid", "softmax")

CHECKPOINT_MAGIC = b"UNETCKPT"
CHECKPOINT_VERSION = 1
# The fixed header prefix: magic, version, six-u32 config block, output-head byte.
_PREFIX = struct.Struct("<8sI6IB")
# float64 elements per read when loading into float32 (4 MiB of scratch)
_LOAD_BLOCK = 2**19

Params = dict[str, tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class UNetConfig:
    depth: int = 4
    base_channels: int = 64
    output_head: str = "sigmoid"
    input_size: int = 512

    def __post_init__(self):
        if self.depth < 1 or self.base_channels < 1:
            raise ValidationError("depth and base_channels must be >= 1")
        if self.output_head not in OUTPUT_HEADS:
            raise ValidationError(f"output_head must be one of {OUTPUT_HEADS}")
        # 2^depth > input_size exactly when depth >= its bit length; testing
        # that first keeps a corrupt 32-bit depth from building a huge power.
        if (
            self.input_size < 1
            or self.depth >= int(self.input_size).bit_length()
            or self.input_size % (2**self.depth) != 0
        ):
            raise ValidationError(
                f"input_size {self.input_size} not divisible by 2^depth (depth {self.depth})"
            )


def _enc_channels(config: UNetConfig, i: int) -> int:
    return config.base_channels * (2**i)


def param_shapes(config: UNetConfig) -> dict[str, tuple[str, tuple[int, ...]]]:
    """Ordered {name: (kind, weight shape)}; bias shape follows from kind."""
    shapes: dict[str, tuple[str, tuple[int, ...]]] = {}
    for i in range(config.depth):
        cin = 1 if i == 0 else _enc_channels(config, i - 1)
        cout = _enc_channels(config, i)
        shapes[f"enc{i}.conv1"] = ("conv", (cout, cin, 3, 3))
        shapes[f"enc{i}.conv2"] = ("conv", (cout, cout, 3, 3))
    bott = config.base_channels * (2**config.depth)
    shapes["bottleneck.conv1"] = ("conv", (bott, _enc_channels(config, config.depth - 1), 3, 3))
    shapes["bottleneck.conv2"] = ("conv", (bott, bott, 3, 3))
    for i in reversed(range(config.depth)):
        cin = bott if i == config.depth - 1 else _enc_channels(config, i + 1)
        cout = _enc_channels(config, i)
        shapes[f"dec{i}.tconv"] = ("tconv", (cin, cout, 2, 2))
        shapes[f"dec{i}.conv1"] = ("conv", (cout, 2 * cout, 3, 3))  # skip + upsampled
        shapes[f"dec{i}.conv2"] = ("conv", (cout, cout, 3, 3))
    shapes["head"] = ("conv", (NUM_CLASSES, config.base_channels, 1, 1))
    return shapes


def _bias_size(kind: str, wshape: tuple[int, ...]) -> int:
    return wshape[1] if kind == "tconv" else wshape[0]


def parameter_count(config: UNetConfig) -> int:
    total = 0
    for kind, wshape in param_shapes(config).values():
        total += int(np.prod(wshape)) + _bias_size(kind, wshape)
    return total


def build(config: UNetConfig, seed: int) -> Params:
    """He-initialized parameters (std sqrt(2/fan_in), zero biases), fixed by seed."""
    rng = np.random.default_rng(seed)
    params: Params = {}
    for name, (kind, wshape) in param_shapes(config).items():
        if kind == "tconv":
            fan_in = wshape[0] * wshape[2] * wshape[3]
        else:
            fan_in = wshape[1] * wshape[2] * wshape[3]
        w = rng.standard_normal(wshape) * np.sqrt(2.0 / fan_in)
        b = np.zeros(_bias_size(kind, wshape), dtype=np.float64)
        params[name] = (w, b)
    return params


def _check_params(params: Params, config: UNetConfig) -> None:
    expected = param_shapes(config)
    if list(params) != list(expected):
        raise ShapeError("parameter names do not match the configured architecture")
    for name, (kind, wshape) in expected.items():
        w, b = params[name]
        if w.shape != wshape or b.shape != (_bias_size(kind, wshape),):
            raise ShapeError(f"parameter {name} has shape {w.shape}/{b.shape}, expected {wshape}")


def _spec(w: np.ndarray) -> ConvSpec:
    """Same-padded, stride-1 geometry of a conv layer, read off its weights."""
    return ConvSpec(w.shape[1], w.shape[0], kernel=w.shape[2])


def _double_conv(params: Params, stage: str, cache: dict | None, x: np.ndarray) -> np.ndarray:
    """conv1 -> ReLU -> conv2 -> ReLU of one stage over x; caches what backward needs.

    Without a cache the block drops its own reference to x once conv1 has
    read it. x is freed there only if the caller keeps no other reference,
    which holds for the decoder stages alone: `forward` passes their joined
    skip and upsampled array unbound, while an encoder or bottleneck input
    stays bound in the caller's `x` until the call returns. ReLU runs in
    place on each conv's fresh output.
    """
    w1, b1 = params[f"{stage}.conv1"]
    w2, b2 = params[f"{stage}.conv2"]
    a1 = conv2d_forward(x, w1, b1, _spec(w1))
    np.maximum(a1, 0.0, out=a1)
    if cache is None:
        del x
    a2 = conv2d_forward(a1, w2, b2, _spec(w2))
    np.maximum(a2, 0.0, out=a2)
    if cache is not None:
        cache[stage] = (x, a1, a2)
    return a2


def _double_conv_backward(
    params: Params, stage: str, cache: dict, d: np.ndarray, grads: Params
) -> np.ndarray:
    """Backward of `_double_conv`: stores both conv gradients, returns d_input."""
    x, a1, a2 = cache[stage]
    w1, _ = params[f"{stage}.conv1"]
    w2, _ = params[f"{stage}.conv2"]
    g2 = conv2d_backward(a1, w2, _spec(w2), relu_backward(a2, d))
    g1 = conv2d_backward(x, w1, _spec(w1), relu_backward(a1, g2.d_input))
    grads[f"{stage}.conv1"] = (g1.d_weights, g1.d_bias)
    grads[f"{stage}.conv2"] = (g2.d_weights, g2.d_bias)
    return g1.d_input


def forward(
    params: Params, config: UNetConfig, batch: np.ndarray, want_cache: bool = True
) -> tuple[np.ndarray, dict | None]:
    """Run the network over an image batch; cache holds what backward needs.

    Pass want_cache=False for inference to skip retaining activations.
    """
    s = Shape4.of(batch)
    if s.channels != 1:
        raise ShapeError(f"batch has {s.channels} channels, the network takes 1")
    if s.height != config.input_size or s.width != config.input_size:
        raise ShapeError(
            f"batch is {s.height}x{s.width}, config wants {config.input_size}x{config.input_size}"
        )
    _check_params(params, config)

    cache: dict | None = {} if want_cache else None
    x = batch
    skips: list[np.ndarray] = []
    for i in range(config.depth):
        x = _double_conv(params, f"enc{i}", cache, x)
        skips.append(x)
        x = maxpool2_forward(x)

    x = _double_conv(params, "bottleneck", cache, x)

    for i in reversed(range(config.depth)):
        wt, bt = params[f"dec{i}.tconv"]
        # The stage below's output goes before the join exists. The skip and the
        # upsampled array (held only by the one-slot list) go when the join is
        # built, and the stage frees the unbound join once its conv1 has read it.
        up = [tconv2_forward(x, wt, bt)]
        del x
        x = _double_conv(params, f"dec{i}", cache, concat_channels(skips.pop(), up.pop()))

    wh, bh = params["head"]
    pre = conv2d_forward(x, wh, bh, _spec(wh))
    out = sigmoid(pre) if config.output_head == "sigmoid" else softmax_channel(pre)
    if cache is not None:
        cache["out"] = out
    return out, cache


def backward(params: Params, config: UNetConfig, cache: dict, d_scores: np.ndarray):
    """Chain rule over the whole network; returns gradients mirroring params."""
    if not isinstance(cache, dict) or "out" not in cache:
        raise ConsistencyError("cache missing or not produced by forward(want_cache=True)")
    out = cache["out"]
    if d_scores.shape != out.shape:
        raise ConsistencyError(f"d_scores shape {d_scores.shape} != forward output {out.shape}")
    _check_params(params, config)

    grads: Params = {}
    head_backward = sigmoid_backward if config.output_head == "sigmoid" else softmax_channel_backward
    wh, _ = params["head"]
    g = conv2d_backward(cache["dec0"][2], wh, _spec(wh), head_backward(out, d_scores))
    grads["head"] = (g.d_weights, g.d_bias)
    d = g.d_input

    d_skips: list[np.ndarray] = []
    for i in range(config.depth):  # reverse of the forward decoder order
        d = _double_conv_backward(params, f"dec{i}", cache, d, grads)
        d_skip, d = split_channels(d, _enc_channels(config, i))
        d_skips.append(d_skip)
        wt, _ = params[f"dec{i}.tconv"]
        below = f"dec{i + 1}" if i + 1 < config.depth else "bottleneck"
        gt = tconv2_backward(cache[below][2], wt, d)
        grads[f"dec{i}.tconv"] = (gt.d_weights, gt.d_bias)
        d = gt.d_input

    d = _double_conv_backward(params, "bottleneck", cache, d, grads)

    for i in reversed(range(config.depth)):
        d = maxpool2_backward(cache[f"enc{i}"][2], d) + d_skips.pop()
        d = _double_conv_backward(params, f"enc{i}", cache, d, grads)

    return {name: grads[name] for name in params}


def _header_parts(config: UNetConfig) -> list[tuple[str, bytes]]:
    """Every checkpoint byte before the payload, as labelled (field, bytes) parts.

    The only statement of the layout. Integers are little-endian u32; the config
    block is depth, base channels, input channels (always 1), classes (always
    NUM_CLASSES), input size and skips (always 1). The output head is one enum
    byte, and the table lists `<name>.w` then `<name>.b` for each layer in
    `param_shapes` order, as length-prefixed UTF-8 name and shape.
    """
    entries: list[tuple[str, tuple[int, ...]]] = []
    for name, (kind, wshape) in param_shapes(config).items():
        entries += [(f"{name}.w", wshape), (f"{name}.b", (_bias_size(kind, wshape),))]
    parts = [
        ("magic", CHECKPOINT_MAGIC),
        ("version", struct.pack("<I", CHECKPOINT_VERSION)),
        ("config block", struct.pack("<6I", config.depth, config.base_channels, 1, NUM_CLASSES,
                                     config.input_size, 1)),
        ("output head", struct.pack("<B", OUTPUT_HEADS.index(config.output_head))),
        ("entry count", struct.pack("<I", len(entries))),
    ]
    for e, (name, shape) in enumerate(entries):
        encoded = name.encode("utf-8")
        parts += [
            (f"entry {e} name length", struct.pack("<I", len(encoded))),
            (f"entry {e} name", encoded),
            (f"entry {e} shape", struct.pack(f"<{len(shape) + 1}I", len(shape), *shape)),
        ]
    return parts


def save_checkpoint(params: Params, config: UNetConfig, path) -> None:
    """Binary checkpoint: the `_header_parts` header, then every tensor as raw
    little-endian float64 in table order, streamed without a joined copy."""
    _check_params(params, config)
    header = (part for _, part in _header_parts(config))
    payload = (np.ascontiguousarray(arr, dtype="<f8") for wb in params.values() for arr in wb)
    _write_atomic(path, itertools.chain(header, payload))


def _read_tensor(fh, arr: np.ndarray, scratch: np.ndarray | None, name: str) -> None:
    """Fill `arr` from the payload at the file position and refuse any value that is
    not finite in arr's dtype. Without `scratch` the bytes are read straight into
    arr; otherwise they pass through the float64 `scratch` one block at a time, and
    the slice assignment rounds exactly as `astype` does."""
    flat = arr.reshape(-1)
    step = flat.size if scratch is None else scratch.size
    for start in range(0, flat.size, step):
        part = flat[start : start + step]
        src = part if scratch is None else scratch[: part.size]
        if fh.readinto(src) != src.nbytes:
            raise CheckpointError(f"payload truncated in {name}")
        if scratch is not None:
            with np.errstate(over="ignore"):  # an overflow to inf is refused just below
                part[...] = src
        if not np.isfinite(part).all():
            raise CheckpointError(f"{name} holds a value that is not finite in {arr.dtype.name}")


def load_checkpoint(path, dtype=np.float64) -> tuple[Params, UNetConfig]:
    """Read a checkpoint into arrays of `dtype`, float64 or float32. The fixed prefix
    decides the network; every header byte must then equal what `save_checkpoint`
    writes for it before any tensor is read.

    Each tensor is allocated in `dtype` and filled as the payload streams in, so a
    float32 load never holds the float64 network, only one `_LOAD_BLOCK` scratch. A
    tensor holding NaN or inf, or a value that overflows float32, is refused with a
    `CheckpointError` that names it.
    """
    dtype = np.dtype(dtype)
    if dtype not in (np.float64, np.float32):
        raise ValidationError(f"checkpoints load as float64 or float32, not {dtype}")
    dtype = dtype.newbyteorder("<")
    with open(path, "rb") as fh:
        prefix = fh.read(_PREFIX.size)
        magic = prefix[: len(CHECKPOINT_MAGIC)]
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
        if len(prefix) < _PREFIX.size:
            raise CheckpointError(f"truncated checkpoint at byte {len(prefix)}, inside the "
                                  f"{_PREFIX.size}-byte fixed header")
        _, version, depth, base, _, _, input_size, _, head_b = _PREFIX.unpack(prefix)
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        if head_b >= len(OUTPUT_HEADS):
            raise CheckpointError(f"unknown output-head byte {head_b}")
        try:
            config = UNetConfig(depth=depth, base_channels=base, output_head=OUTPUT_HEADS[head_b],
                                input_size=input_size)
        except ValidationError as exc:
            raise CheckpointError(f"invalid config block: {exc}") from exc

        fh.seek(0)
        off = 0
        for field, want in _header_parts(config):
            got = fh.read(len(want))
            if got != want:
                found = "is truncated" if len(got) < len(want) else f"reads {got!r}"
                raise CheckpointError(f"{field} at byte {off} {found}, expected {want!r}")
            off += len(want)

        size, want = os.fstat(fh.fileno()).st_size - off, parameter_count(config) * 8
        if size != want:
            raise CheckpointError(f"payload at byte {off} is {size} bytes, the header declares {want}")
        scratch = None if dtype.itemsize == 8 else np.empty(_LOAD_BLOCK, "<f8")
        params: Params = {}
        for name, (kind, wshape) in param_shapes(config).items():
            w, b = np.empty(wshape, dtype), np.empty(_bias_size(kind, wshape), dtype)
            _read_tensor(fh, w, scratch, f"{name}.w")
            _read_tensor(fh, b, scratch, f"{name}.b")
            params[name] = (w, b)
    return params, config
