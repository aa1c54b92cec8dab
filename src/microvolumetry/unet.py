"""U-Net construction, whole-image forward/backward, and checkpointing.

The architecture: `depth` contraction steps (two same-padded 3x3
convolutions + ReLU, channels doubling from `base_channels`, then 2x2 max
pooling), a bottleneck pair at base*2^depth channels without pooling, and
`depth` expansion steps (2x2/stride-2 transposed convolution halving
channels, skip concatenation with the matching contraction output, two 3x3
convolutions + ReLU), finished by a 1x1 classification convolution and a
sigmoid or softmax head.

Parameters are an ordered mapping {layer name: (weights, bias)}; gradients
mirror that structure.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import CheckpointError, ConsistencyError, ShapeError, ValidationError
from .layers import (
    ConvSpec,
    concat_channels,
    conv2d_backward,
    conv2d_forward,
    maxpool2_backward,
    maxpool2_forward,
    relu,
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

Params = dict[str, tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class UNetConfig:
    depth: int = 4
    base_channels: int = 64
    in_channels: int = 1
    num_classes: int = NUM_CLASSES
    output_head: str = "sigmoid"
    input_size: int = 512
    use_skips: bool = True

    def __post_init__(self):
        if self.depth < 1 or self.base_channels < 1 or self.in_channels < 1:
            raise ValidationError("depth, base_channels, in_channels must be >= 1")
        if self.num_classes != NUM_CLASSES:
            raise ValidationError(f"this pipeline is fixed at {NUM_CLASSES} classes")
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
        cin = config.in_channels if i == 0 else _enc_channels(config, i - 1)
        cout = _enc_channels(config, i)
        shapes[f"enc{i}.conv1"] = ("conv", (cout, cin, 3, 3))
        shapes[f"enc{i}.conv2"] = ("conv", (cout, cout, 3, 3))
    bott = config.base_channels * (2**config.depth)
    shapes["bottleneck.conv1"] = ("conv", (bott, _enc_channels(config, config.depth - 1), 3, 3))
    shapes["bottleneck.conv2"] = ("conv", (bott, bott, 3, 3))
    for i in reversed(range(config.depth)):
        cin = bott if i == config.depth - 1 else _enc_channels(config, i + 1)
        cout = _enc_channels(config, i)
        joined = 2 * cout if config.use_skips else cout
        shapes[f"dec{i}.tconv"] = ("tconv", (cin, cout, 2, 2))
        shapes[f"dec{i}.conv1"] = ("conv", (cout, joined, 3, 3))
        shapes[f"dec{i}.conv2"] = ("conv", (cout, cout, 3, 3))
    shapes["head"] = ("conv", (config.num_classes, config.base_channels, 1, 1))
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


def _double_conv(params: Params, stage: str, x: np.ndarray, cache: dict | None) -> np.ndarray:
    """conv1 -> ReLU -> conv2 -> ReLU of one stage; caches what backward needs.

    Only the output is returned, so without a cache nothing else of the stage
    outlives the call.
    """
    w1, b1 = params[f"{stage}.conv1"]
    w2, b2 = params[f"{stage}.conv2"]
    a1 = relu(conv2d_forward(x, w1, b1, _spec(w1)))
    a2 = relu(conv2d_forward(a1, w2, b2, _spec(w2)))
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
    if s.channels != config.in_channels:
        raise ShapeError(f"batch has {s.channels} channels, config wants {config.in_channels}")
    if s.height != config.input_size or s.width != config.input_size:
        raise ShapeError(
            f"batch is {s.height}x{s.width}, config wants {config.input_size}x{config.input_size}"
        )
    _check_params(params, config)

    cache: dict | None = {} if want_cache else None
    x = batch
    skips: list[np.ndarray | None] = []
    for i in range(config.depth):
        a2 = _double_conv(params, f"enc{i}", x, cache)
        x, idx = maxpool2_forward(a2)
        skips.append(a2)
        if cache is not None:
            cache[f"enc{i}.pool"] = idx

    x = _double_conv(params, "bottleneck", x, cache)

    for i in reversed(range(config.depth)):
        wt, bt = params[f"dec{i}.tconv"]
        up = tconv2_forward(x, wt, bt)
        if cache is not None:
            cache[f"dec{i}.tconv"] = x
        joined = concat_channels(skips[i], up) if config.use_skips else up
        skips[i] = None  # free once consumed
        x = _double_conv(params, f"dec{i}", joined, cache)

    wh, bh = params["head"]
    pre = conv2d_forward(x, wh, bh, _spec(wh))
    out = sigmoid(pre) if config.output_head == "sigmoid" else softmax_channel(pre)
    if cache is not None:
        cache["head_in"] = x
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
    if config.output_head == "sigmoid":
        d_pre = sigmoid_backward(out, d_scores)
    else:
        d_pre = softmax_channel_backward(out, d_scores)
    wh, _ = params["head"]
    g = conv2d_backward(cache["head_in"], wh, _spec(wh), d_pre)
    grads["head"] = (g.d_weights, g.d_bias)
    d = g.d_input

    pending_skip: dict[int, np.ndarray] = {}
    for i in range(config.depth):  # reverse of the forward decoder order
        d = _double_conv_backward(params, f"dec{i}", cache, d, grads)
        if config.use_skips:
            pending_skip[i], d = split_channels(d, _enc_channels(config, i))
        wt, _ = params[f"dec{i}.tconv"]
        gt = tconv2_backward(cache[f"dec{i}.tconv"], wt, d)
        grads[f"dec{i}.tconv"] = (gt.d_weights, gt.d_bias)
        d = gt.d_input

    d = _double_conv_backward(params, "bottleneck", cache, d, grads)

    for i in reversed(range(config.depth)):
        d = maxpool2_backward(cache[f"enc{i}.pool"], d)
        if config.use_skips:
            d = d + pending_skip.pop(i)
        d = _double_conv_backward(params, f"enc{i}", cache, d, grads)

    return {name: grads[name] for name in params}


def _head_byte(head: str) -> int:
    return OUTPUT_HEADS.index(head)


def save_checkpoint(params: Params, config: UNetConfig, path) -> None:
    """Binary checkpoint: magic, version, config block, tensor table, payload.

    All integers are little-endian u32; the output head is a single enum
    byte; payloads are raw little-endian float64 in table order.
    """
    _check_params(params, config)
    chunks = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION)]
    chunks.append(
        struct.pack(
            "<IIIIII",
            config.depth,
            config.base_channels,
            config.in_channels,
            config.num_classes,
            config.input_size,
            int(config.use_skips),
        )
    )
    chunks.append(struct.pack("<B", _head_byte(config.output_head)))
    entries: list[tuple[str, np.ndarray]] = []
    for name, (w, b) in params.items():
        entries.append((f"{name}.w", w))
        entries.append((f"{name}.b", b))
    chunks.append(struct.pack("<I", len(entries)))
    for ename, arr in entries:
        nb = ename.encode("utf-8")
        chunks.append(struct.pack("<I", len(nb)))
        chunks.append(nb)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
    for _, arr in entries:
        chunks.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def load_checkpoint(path, expected_config: UNetConfig | None = None) -> tuple[Params, UNetConfig]:
    """Read a checkpoint; validates structure before returning any tensors."""
    with open(path, "rb") as fh:
        blob = fh.read()

    off = 0

    def take(fmt: str, what: str):
        nonlocal off
        size = struct.calcsize(fmt)
        if off + size > len(blob):
            raise CheckpointError(f"truncated checkpoint while reading {what} at byte {off}")
        vals = struct.unpack_from(fmt, blob, off)
        off += size
        return vals

    if blob[:8] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad magic {blob[:8]!r}, expected {CHECKPOINT_MAGIC!r}")
    off = 8
    (version,) = take("<I", "version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    depth, base, in_ch, classes, input_size, use_skips = take("<IIIIII", "config block")
    (head_b,) = take("<B", "output head")
    if head_b >= len(OUTPUT_HEADS):
        raise CheckpointError(f"unknown output-head byte {head_b}")
    try:
        config = UNetConfig(
            depth=depth,
            base_channels=base,
            in_channels=in_ch,
            num_classes=classes,
            output_head=OUTPUT_HEADS[head_b],
            input_size=input_size,
            use_skips=bool(use_skips),
        )
    except ValidationError as exc:
        raise CheckpointError(f"invalid config block: {exc}") from exc
    if expected_config is not None and config != expected_config:
        raise CheckpointError(f"checkpoint config {config} does not match expected {expected_config}")

    (n_entries,) = take("<I", "entry count")
    table: list[tuple[str, tuple[int, ...]]] = []
    for e in range(n_entries):
        (name_len,) = take("<I", f"entry {e} name length")
        if off + name_len > len(blob):
            raise CheckpointError(f"truncated checkpoint while reading entry {e} name at byte {off}")
        try:
            name = blob[off : off + name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"entry {e} name at byte {off} is not UTF-8") from None
        off += name_len
        (rank,) = take("<I", f"{name} rank")
        shape = take(f"<{rank}I", f"{name} extents") if rank else ()
        table.append((name, tuple(shape)))

    expected = param_shapes(config)
    expected_entries: list[tuple[str, tuple[int, ...]]] = []
    for name, (kind, wshape) in expected.items():
        expected_entries.append((f"{name}.w", wshape))
        expected_entries.append((f"{name}.b", (_bias_size(kind, wshape),)))
    if table != expected_entries:
        for got, want in zip(table, expected_entries):
            if got != want:
                raise CheckpointError(f"shape table mismatch at {want[0]}: got {got}, expected {want}")
        raise CheckpointError(
            f"shape table has {len(table)} entries, expected {len(expected_entries)}"
        )

    payload = blob[off:]
    total = sum(int(np.prod(shape)) for _, shape in table)
    if len(payload) != total * 8:
        raise CheckpointError(
            f"payload is {len(payload)} bytes, table requires {total * 8} (first field {table[0][0]})"
        )
    arrays: dict[str, np.ndarray] = {}
    pos = 0
    for name, shape in table:
        count = int(np.prod(shape))
        arrays[name] = (
            np.frombuffer(payload, dtype="<f8", count=count, offset=pos * 8)
            .astype(np.float64)
            .reshape(shape)
        )
        pos += count
    params: Params = {name: (arrays[f"{name}.w"], arrays[f"{name}.b"]) for name in expected}
    return params, config
