"""Forward and backward passes for every layer in the segmentation network.

Convolutions are cross-correlations (no kernel flip). Each op comes in two
routes where it matters: conv2d has a GEMM/im2col fast path and a naive
nested-loop oracle that the fast path must match to 1e-12; every backward
pass is checked against central finite differences by `gradient_check`.

The conv backward handles stride 1 only (the only stride the network
uses) and never scatters patches back: d_input is itself a correlation of
the zero-padded d_output with the flipped, channel-transposed kernel, run
through the same im2col + GEMM path as the forward. That path writes the
zero padding straight into the patch matrix; no padded copy is made.

Arrays are laid out (batch, channels, height, width). Every kernel returns
the dtype of its input: training runs in float64, `predict` in float32.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.special import expit

from .errors import ConsistencyError, ShapeError, ValidationError
from .tensor import Shape4

# Cap on the im2col scratch buffer so 512x512 forwards fit in small RAM.
_COL_CHUNK_BYTES = 128 * 2**20

CCE_EPS = 1e-7


@dataclass(frozen=True)
class ConvSpec:
    """Geometry of a 2-d convolution layer.

    `padding=None` resolves to kernel//2, i.e. "same" spatial size at
    stride 1. Same-padding requires an odd kernel.
    """

    in_channels: int
    out_channels: int
    kernel: int = 3
    stride: int = 1
    padding: int | None = None

    def __post_init__(self):
        if self.padding is None:
            object.__setattr__(self, "padding", self.kernel // 2)
        for name in ("in_channels", "out_channels", "kernel", "stride"):
            if getattr(self, name) < 1:
                raise ValidationError(f"ConvSpec.{name} must be >= 1")
        if self.padding < 0:
            raise ValidationError("ConvSpec.padding must be >= 0")
        if self.padding == self.kernel // 2 and self.padding > 0 and self.kernel % 2 == 0:
            raise ValidationError("same-padding convolutions need an odd kernel")

    def out_size(self, h: int, w: int) -> tuple[int, int]:
        ho = (h + 2 * self.padding - self.kernel) // self.stride + 1
        wo = (w + 2 * self.padding - self.kernel) // self.stride + 1
        if ho < 1 or wo < 1:
            raise ShapeError(f"kernel {self.kernel} too large for input {h}x{w}")
        return ho, wo


class LayerGrad(NamedTuple):
    """Gradients of one layer; each entry matches the shape it differentiates."""

    d_input: np.ndarray
    d_weights: np.ndarray | None = None
    d_bias: np.ndarray | None = None


def _check_conv_args(x, weights, bias, spec: ConvSpec) -> Shape4:
    s = Shape4.of(x)
    if s.channels != spec.in_channels:
        raise ShapeError(f"input has {s.channels} channels, spec wants {spec.in_channels}")
    wshape = (spec.out_channels, spec.in_channels, spec.kernel, spec.kernel)
    if weights.shape != wshape:
        raise ShapeError(f"weights shape {weights.shape} != {wshape}")
    if bias is not None and bias.shape != (spec.out_channels,):
        raise ShapeError(f"bias shape {bias.shape} != ({spec.out_channels},)")
    return s


def _chunk_rows(n: int, c: int, k: int, wo: int) -> int:
    per_row = n * c * k * k * wo * 8
    return max(1, _COL_CHUNK_BYTES // max(per_row, 1))


def _inside(lo: int, hi: int, offset: int, stride: int, size: int) -> tuple[int, int]:
    """The run [a, b) of outputs i in [lo, hi) whose input i*stride + offset is in [0, size)."""
    a = min(max(lo, -(offset // stride)), hi)
    b = max(min(hi, (size - 1 - offset) // stride + 1), a)
    return a, b


def _im2col(x: np.ndarray, k: int, stride: int, p: int, r0: int, r1: int, wo: int) -> np.ndarray:
    """Batch-major patch matrix (N, C*k*k, rows*wo) for output rows [r0, r1).

    x is read as if zero-padded by p on each side (cropped by -p when p < 0):
    taps that fall outside x are zeroed in the patch matrix, so no padded
    copy of x is ever made.
    """
    n, c, h, w = x.shape
    col = np.empty((n, c, k, k, r1 - r0, wo), dtype=x.dtype)
    ys = [_inside(r0, r1, d - p, stride, h) for d in range(k)]
    xs = [_inside(0, wo, d - p, stride, w) for d in range(k)]
    for d, ((ya, yb), (xa, xb)) in enumerate(zip(ys, xs)):
        col[:, :, d, :, : ya - r0] = 0.0
        col[:, :, d, :, yb - r0 :] = 0.0
        col[:, :, :, d, :, :xa] = 0.0
        col[:, :, :, d, :, xb:] = 0.0
    for dy, (ya, yb) in enumerate(ys):
        for dx, (xa, xb) in enumerate(xs):
            if ya < yb and xa < xb:
                y0, x0 = ya * stride + dy - p, xa * stride + dx - p
                col[:, :, dy, dx, ya - r0 : yb - r0, xa:xb] = x[
                    :, :, y0 : y0 + (yb - ya - 1) * stride + 1 : stride,
                    x0 : x0 + (xb - xa - 1) * stride + 1 : stride,
                ]
    return col.reshape(n, c * k * k, (r1 - r0) * wo)


def _correlate(
    x: np.ndarray, wmat: np.ndarray, k: int, stride: int, p: int, ho: int, wo: int
) -> np.ndarray:
    """Bias-free cross-correlation of x, zero-padded by p, with `wmat` (Cout, C*k*k).

    Runs one GEMM per image and row chunk, each writing straight into its
    slice of the (N, Cout, ho, wo) result.
    """
    n, c = x.shape[:2]
    out = np.empty((n, wmat.shape[0], ho * wo), dtype=x.dtype)
    step = _chunk_rows(n, c, k, wo)
    for r0 in range(0, ho, step):
        r1 = min(ho, r0 + step)
        cols = _im2col(x, k, stride, p, r0, r1, wo)
        np.matmul(wmat, cols, out=out[:, :, r0 * wo : r1 * wo])
    return out.reshape(n, wmat.shape[0], ho, wo)


def conv2d_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Cross-correlation with zero padding, via im2col + GEMM."""
    s = _check_conv_args(x, weights, bias, spec)
    ho, wo = spec.out_size(s.height, s.width)
    wmat = weights.reshape(spec.out_channels, -1)
    out = _correlate(x, wmat, spec.kernel, spec.stride, spec.padding, ho, wo)
    out += bias.reshape(1, -1, 1, 1)
    return out


def conv2d_forward_naive(x: np.ndarray, weights: np.ndarray, bias: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Nested-loop reference convolution; the always-available oracle.

    Out-of-bounds input positions contribute zero, exactly as the padded
    fast path treats them.
    """
    s = _check_conv_args(x, weights, bias, spec)
    k, stride, p = spec.kernel, spec.stride, spec.padding
    ho, wo = spec.out_size(s.height, s.width)
    out = np.empty((s.batch, spec.out_channels, ho, wo), dtype=np.float64)
    for b in range(s.batch):
        for o in range(spec.out_channels):
            for y in range(ho):
                for xo in range(wo):
                    acc = bias[o]
                    for c in range(s.channels):
                        for dy in range(k):
                            yi = y * stride + dy - p
                            if yi < 0 or yi >= s.height:
                                continue
                            for dx in range(k):
                                xi = xo * stride + dx - p
                                if xi < 0 or xi >= s.width:
                                    continue
                                acc += x[b, c, yi, xi] * weights[o, c, dy, dx]
                    out[b, o, y, xo] = acc
    return out


def conv2d_backward(x: np.ndarray, weights: np.ndarray, spec: ConvSpec, d_output: np.ndarray) -> LayerGrad:
    """Exact gradients of conv2d_forward w.r.t. input, weights, and bias.

    Stride 1 only. d_weights sums d_output[b] @ cols[b].T over images and
    row chunks; d_input correlates d_output, padded by k-1-p (cropped when
    p > k-1), with the flipped, channel-transposed kernel.
    """
    s = _check_conv_args(x, weights, None, spec)
    if spec.stride != 1:
        raise ValidationError(f"conv2d_backward supports stride 1 only, got stride {spec.stride}")
    k, p = spec.kernel, spec.padding
    ho, wo = spec.out_size(s.height, s.width)
    if d_output.shape != (s.batch, spec.out_channels, ho, wo):
        raise ShapeError(
            f"d_output shape {d_output.shape} != {(s.batch, spec.out_channels, ho, wo)}"
        )
    d_om = d_output.reshape(s.batch, spec.out_channels, ho * wo)
    d_wmat = np.zeros((spec.out_channels, s.channels * k * k))
    step = _chunk_rows(s.batch, s.channels, k, wo)
    for r0 in range(0, ho, step):
        r1 = min(ho, r0 + step)
        cols = _im2col(x, k, 1, p, r0, r1, wo)
        for b in range(s.batch):
            d_wmat += d_om[b, :, r0 * wo : r1 * wo] @ cols[b].T
    del cols  # free the patch matrix before the d_input correlation builds its own
    w_flip = weights[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(s.channels, -1)
    d_x = _correlate(d_output, w_flip, k, 1, k - 1 - p, s.height, s.width)
    d_bias = d_output.sum(axis=(0, 2, 3))
    return LayerGrad(d_x, d_wmat.reshape(weights.shape), d_bias)


def maxpool2_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """2x2/stride-2 max pooling; returns (pooled, window argmax indices).

    Indices are the row-major position (0..3) of the winning element inside
    each window, first occurrence on ties.
    """
    s = Shape4.of(x)
    if s.height % 2 or s.width % 2:
        raise ShapeError(f"maxpool2 needs even spatial extents, got {s.height}x{s.width}")
    h2, w2 = s.height // 2, s.width // 2
    windows = (
        x.reshape(s.batch, s.channels, h2, 2, w2, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(s.batch, s.channels, h2, w2, 4)
    )
    idx = windows.argmax(axis=-1)
    pooled = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]
    return pooled, idx.astype(np.uint8)


def maxpool2_backward(idx: np.ndarray, d_output: np.ndarray) -> np.ndarray:
    """Route each upstream gradient to its recorded argmax position."""
    if idx.shape != d_output.shape:
        raise ShapeError(f"indices shape {idx.shape} != d_output shape {d_output.shape}")
    if idx.size and idx.max() > 3:
        raise ConsistencyError("pooling index out of range 0..3")
    n, c, h2, w2 = d_output.shape
    d_windows = np.zeros((n, c, h2, w2, 4), dtype=np.float64)
    np.put_along_axis(d_windows, idx[..., None].astype(np.intp), d_output[..., None], axis=-1)
    return (
        d_windows.reshape(n, c, h2, w2, 2, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(n, c, h2 * 2, w2 * 2)
    )


def _check_tconv_args(x, weights, bias) -> Shape4:
    s = Shape4.of(x)
    if weights.ndim != 4 or weights.shape[2:] != (2, 2):
        raise ShapeError(f"tconv2 weights must be (in, out, 2, 2), got {weights.shape}")
    if weights.shape[0] != s.channels:
        raise ShapeError(f"input has {s.channels} channels, weights expect {weights.shape[0]}")
    if bias is not None and bias.shape != (weights.shape[1],):
        raise ShapeError(f"bias shape {bias.shape} != ({weights.shape[1]},)")
    return s


def tconv2_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Transposed convolution, kernel 2, stride 2: exact 2x upsampling.

    out[b,o,2y+dy,2x+dx] = sum_c x[b,c,y,x] * weights[c,o,dy,dx] + bias[o];
    stride equals kernel size, so contributions never overlap.
    """
    s = _check_tconv_args(x, weights, bias)
    out_ch = weights.shape[1]
    t = np.tensordot(x, weights, axes=(1, 0))  # (N, H, W, O, 2, 2)
    out = t.transpose(0, 3, 1, 4, 2, 5).reshape(s.batch, out_ch, 2 * s.height, 2 * s.width)
    return out + bias.reshape(1, -1, 1, 1)


def tconv2_backward(x: np.ndarray, weights: np.ndarray, d_output: np.ndarray) -> LayerGrad:
    """Exact gradients of tconv2_forward."""
    s = _check_tconv_args(x, weights, None)
    out_ch = weights.shape[1]
    if d_output.shape != (s.batch, out_ch, 2 * s.height, 2 * s.width):
        raise ShapeError(
            f"d_output shape {d_output.shape} != {(s.batch, out_ch, 2 * s.height, 2 * s.width)}"
        )
    d6 = d_output.reshape(s.batch, out_ch, s.height, 2, s.width, 2).transpose(0, 2, 4, 1, 3, 5)
    d_x = np.tensordot(d6, weights, axes=([3, 4, 5], [1, 2, 3])).transpose(0, 3, 1, 2)
    d_w = np.tensordot(x, d6, axes=([0, 2, 3], [0, 1, 2]))
    d_bias = d_output.sum(axis=(0, 2, 3))
    return LayerGrad(np.ascontiguousarray(d_x), d_w, d_bias)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(x: np.ndarray, d_output: np.ndarray) -> np.ndarray:
    """Pass gradient where the forward input was > 0; zero at exactly 0."""
    if x.shape != d_output.shape:
        raise ShapeError(f"relu_backward shape mismatch: {x.shape} vs {d_output.shape}")
    return np.where(x > 0, d_output, 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    return expit(x)


def sigmoid_backward(output: np.ndarray, d_output: np.ndarray) -> np.ndarray:
    """Gradient in terms of the forward output: d * y * (1 - y)."""
    if output.shape != d_output.shape:
        raise ShapeError(f"sigmoid_backward shape mismatch: {output.shape} vs {d_output.shape}")
    return d_output * output * (1.0 - output)


def softmax_channel(x: np.ndarray) -> np.ndarray:
    """Channel-axis softmax per pixel, with max subtraction for stability."""
    Shape4.of(x)
    z = x - x.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_channel_backward(output: np.ndarray, d_output: np.ndarray) -> np.ndarray:
    """Gradient of softmax_channel in terms of its output."""
    if output.shape != d_output.shape:
        raise ShapeError(f"softmax backward shape mismatch: {output.shape} vs {d_output.shape}")
    dot = (d_output * output).sum(axis=1, keepdims=True)
    return output * (d_output - dot)


def concat_channels(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stack two batches along the channel axis, a first."""
    sa, sb = Shape4.of(a), Shape4.of(b)
    if (sa.batch, sa.height, sa.width) != (sb.batch, sb.height, sb.width):
        raise ShapeError(f"concat_channels mismatch: {a.shape} vs {b.shape}")
    return np.concatenate([a, b], axis=1)


def split_channels(t: np.ndarray, channels_a: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of concat_channels: first `channels_a` channels, then the rest."""
    s = Shape4.of(t)
    if not 0 < channels_a < s.channels:
        raise ShapeError(f"cannot split {channels_a} channels out of {s.channels}")
    return t[:, :channels_a], t[:, channels_a:]


def categorical_cross_entropy(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean per-pixel cross-entropy of normalized class scores, plus its gradient.

    Scores are clamped into [eps, 1-eps] and each pixel's channel vector is
    divided by its channel sum, so sigmoid outputs form a valid categorical
    distribution (softmax outputs pass through essentially unchanged).
    Returns (loss, d_pred) with d_pred the exact gradient of that
    expression, including the zero-derivative regions of the clamp.
    """
    if pred.shape != target.shape:
        raise ShapeError(f"pred shape {pred.shape} != target shape {target.shape}")
    Shape4.of(pred)
    if not np.all((target == 0.0) | (target == 1.0)) or not np.all(target.sum(axis=1) == 1.0):
        raise ValidationError("target must be one-hot per pixel")
    n_pixels = pred.shape[0] * pred.shape[2] * pred.shape[3]
    q = np.clip(pred, CCE_EPS, 1.0 - CCE_EPS)
    s = q.sum(axis=1, keepdims=True)
    loss = -(target * (np.log(q) - np.log(s))).sum() / n_pixels
    inside = (pred >= CCE_EPS) & (pred <= 1.0 - CCE_EPS)
    d_q = -(target / q - 1.0 / s) / n_pixels
    d_pred = np.where(inside, d_q, 0.0)
    return float(loss), d_pred


def gradient_check(
    fn: Callable[[Sequence[np.ndarray]], tuple[float, Sequence[np.ndarray]]],
    arrays: Sequence[np.ndarray],
    step: float = 1e-6,
    floor: float = 1e-8,
) -> float:
    """Compare analytic gradients against central finite differences.

    `fn(arrays)` must return (scalar loss, gradients aligned with `arrays`).
    Every element of every array is perturbed by ±step; returns the maximum
    over elements of |analytic - numeric| / max(|analytic|, |numeric|, floor).
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    _, analytic = fn(arrays)
    worst = 0.0
    for i, arr in enumerate(arrays):
        numeric = np.empty_like(arr)
        flat = arr.reshape(-1)
        num_flat = numeric.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            up, _ = fn(arrays)
            flat[j] = orig - step
            down, _ = fn(arrays)
            flat[j] = orig
            num_flat[j] = (up - down) / (2.0 * step)
        a = np.asarray(analytic[i], dtype=np.float64)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), floor)
        worst = max(worst, float((np.abs(a - numeric) / denom).max()))
    return worst
