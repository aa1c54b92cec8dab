"""Forward and backward passes for every layer in the segmentation network.

Convolutions are cross-correlations (no kernel flip). conv2d has a GEMM/im2col
fast path and a naive nested-loop oracle that it must match to 1e-12; every
backward pass is checked against central finite differences by `gradient_check`.

The conv backward handles stride 1 only (the only stride the network uses) and
never scatters patches back: d_input is itself a correlation of the zero-padded
d_output with the flipped, channel-transposed kernel. Every patch matrix comes
from `_patches`, which zero-pads one band of input rows at a time and copies its
sliding windows into one patch buffer that every row chunk of the call reuses. A
conv may read a second input joined after x along the channels (a U-Net skip and
its upsampled array): both are copied into the band, so no join is built and
every bit equals the conv over the concatenation. `_correlate` holds back each
chunk's GEMM result until the next chunk's band has copied its input rows, so a
conv may write its output into x itself, at stride 1 with padding at most one
chunk's rows. Max pooling keeps no argmax: its backward recomputes each window's
argmax from the pool input, which a training cache holds anyway. The 2x2, stride-2
tconv is a 1x1 conv to O*2*2 channels plus depth-to-space: each pass, one GEMM per image.
`_correlate` and the tconv forward run their row chunks as W slabs, one per thread
(`_in_slabs`), with the same GEMMs, so no bit depends on W: the usable CPUs over the
BLAS threads of OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS, else 1. d_weights stays in one.

Arrays are laid out (batch, channels, height, width). Every kernel returns
the dtype of its input: training runs in float64, `predict` in float32.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import expit

from .errors import ShapeError, ValidationError
from .tensor import Shape4

# Caps on one row chunk's patch matrix (see `_chunk_rows`). 512 columns keep a float32 patch chunk of a
# 512x512 layer at 1.2-2.4 MiB, near a 2 MiB L2: there 4096 ran enc0.conv2 at 430 ms against 336.
_COL_CHUNK_BYTES = 128 * 2**20
_COL_CHUNK_COLS = 512

CCE_EPS = 1e-7


# W, the slabs per call (see the module docstring), and the GEMM FLOPs a slab needs: on a 2-core Xeon at 1 BLAS
# thread, float64 convs of 2-75 MFLOP took 1.0-1.9x as long in two slabs, and one of 151 MFLOP 0.6x.
_SLAB_FLOP = 50_000_000
_BLAS = [int(v) for v in map(os.environ.get, ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")) if (v or "").isdigit()]
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_WORKERS = max(1, _CPUS // next(b for b in _BLAS if b)) if any(_BLAS) else 1  # the first positive count, as OpenBLAS
_POOL = ThreadPoolExecutor(max(_WORKERS - 1, 1), thread_name_prefix="microvolumetry-slab")  # threads start on use


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
    d_weights: np.ndarray
    d_bias: np.ndarray


def _check_conv_args(x, weights, bias, spec: ConvSpec, x2=None) -> Shape4:
    s = Shape4.of(x)
    s2 = s._replace(channels=0) if x2 is None else Shape4.of(x2)
    if (s2.batch, s2.height, s2.width) != (s.batch, s.height, s.width):
        raise ShapeError(f"second input {x2.shape} does not match input {x.shape} outside the channels")
    channels = s.channels + s2.channels
    if channels != spec.in_channels:
        raise ShapeError(f"input has {channels} channels, spec wants {spec.in_channels}")
    wshape = (spec.out_channels, spec.in_channels, spec.kernel, spec.kernel)
    if weights.shape != wshape:
        raise ShapeError(f"weights shape {weights.shape} != {wshape}")
    if bias is not None and bias.shape != (spec.out_channels,):
        raise ShapeError(f"bias shape {bias.shape} != ({spec.out_channels},)")
    return s


def _chunk_rows(n: int, c: int, k: int, wo: int) -> int:
    """Output rows per chunk: at most ceil(_COL_CHUNK_COLS / wo), and as many as fit _COL_CHUNK_BYTES
    counted at 8 bytes per patch element whatever the dtype, so a float32 chunk is half the budget."""
    per_row = n * c * k * k * wo * 8
    return max(1, min(_COL_CHUNK_BYTES // max(per_row, 1), -(-_COL_CHUNK_COLS // wo)))


def _scratch(x: np.ndarray, k: int, stride: int, wo: int, step: int, x2=None):
    """A zero band and a patch buffer for `_patches` chunks of `step` output rows of x joined with x2."""
    n, c = x.shape[0], x.shape[1] + (0 if x2 is None else x2.shape[1])
    return (np.zeros((n, c, (step - 1) * stride + k, (wo - 1) * stride + k), dtype=x.dtype),
            np.empty((n, c * k * k, step * wo), dtype=x.dtype))


def _patches(x: np.ndarray, k: int, stride: int, p: int, ho: int, wo: int, x2=None, starts=None, scratch=None):
    """Yield (output column slice, patch matrix) for each chunk of output rows.

    Chunks start at the rows of the range `starts`, by default all ho rows in `_chunk_rows` chunks. The
    patch matrix is batch-major, (N, C*k*k, rows*wo), where C counts the channels of x and then of x2, if
    given. Each chunk copies the input rows it reads, of x and of x2 after it, into a zero band, which is
    their join padded by p on each side (cropped by -p when p < 0), and copies the band's k x k sliding
    windows, taken at the stride, into the patch matrix. One band and one patch buffer, `scratch` (from
    `_scratch`) if given, serve every chunk: a yielded matrix holds its values until the next draw.
    """
    n, c1, h, w = x.shape
    c = c1 + (0 if x2 is None else x2.shape[1])
    starts = range(0, ho, min(_chunk_rows(n, c, k, wo), ho)) if starts is None else starts
    band, buf = _scratch(x, k, stride, wo, starts.step, x2) if scratch is None else scratch
    xa, xb = max(-p, 0), min(band.shape[3] - p, w)
    buf6 = buf.reshape(n, c, k, k, starts.step, wo)
    # The band's k x k windows at the stride, on buf6's axes; a chunk of fewer rows reads the first.
    win = sliding_window_view(band, (k, k), axis=(2, 3))[:, :, ::stride, ::stride].transpose(0, 1, 4, 5, 2, 3)
    for r0 in starts:
        r1 = min(ho, r0 + starts.step)  # a range that stops short of ho stops at a chunk boundary
        rows, band_h = r1 - r0, (r1 - r0 - 1) * stride + k
        y0 = r0 * stride - p  # the input row that the band's first row holds
        # Band rows [top, bottom) hold input rows; the rest are padding. Only
        # the first chunks can start above the input and the last end below
        # it, so elsewhere nothing is re-zeroed.
        top = min(max(-y0, 0), band_h)
        bottom = min(max(h - y0, top), band_h)
        band[:, :, :top] = 0
        band[:, :, bottom:band_h] = 0
        if xa < xb:
            band[:, :c1, top:bottom, xa + p : xb + p] = x[:, :, y0 + top : y0 + bottom, xa:xb]
            if x2 is not None:
                band[:, c1:, top:bottom, xa + p : xb + p] = x2[:, :, y0 + top : y0 + bottom, xa:xb]
        np.copyto(buf6[:, :, :, :, :rows], win[:, :, :, :, :rows])
        yield slice(r0 * wo, r1 * wo), buf[:, :, : rows * wo]


def _in_slabs(rows: int, step: int, flop: int, scratch: Callable[[int], tuple], work: Callable) -> list:
    """[work(slab, *scratch(i)) for each slab i]: at most W ranges that split range(0, rows, step), each with
    `_SLAB_FLOP` or more of the call's `flop` GEMM FLOPs. This thread runs the first and allocates every scratch
    (a worker's would stay in its malloc arena). All end before this returns, or raises the first slab's error."""
    w = min(_WORKERS, chunks := -(-rows // step), max(1, flop // _SLAB_FLOP))
    jobs = [(range(chunks * i // w * step, min(chunks * (i + 1) // w * step, rows), step), *scratch(i))
            for i in range(w)]
    futures = [_POOL.submit(work, *job) for job in jobs[1:]]
    try:
        first = work(*jobs[0])
    finally:
        wait(futures)
    return [first] + [f.result() for f in futures]


def _correlate(x: np.ndarray, wmat: np.ndarray, k: int, stride: int, p: int, ho: int, wo: int,
               x2=None, out=None) -> np.ndarray:
    """Bias-free cross-correlation of x (joined with x2), zero-padded by p, with `wmat` (Cout, C*k*k),
    into `out` (N, Cout, ho, wo), fresh if None. In a slab, each row chunk's GEMMs, one per image, fill a
    held-back buffer, stored once the next chunk's band has copied its input rows; the caller stores each
    slab's last chunk, and each later slab's first, after every slab has returned. So `out` may be x at
    stride 1 with p at most one chunk's rows: no band reads a row already stored."""
    n, m = x.shape[0], wmat.shape[0]
    out = np.empty((n, m, ho, wo), dtype=x.dtype) if out is None else out
    flat, step = out.reshape(n, m, ho * wo), min(_chunk_rows(n, wmat.shape[1] // k**2, k, wo), ho)

    def scratch(i):  # a band, a patch buffer, a held-back result and, after the first slab, a held first chunk
        return (*_scratch(x, k, stride, wo, step, x2), *np.empty((1 + (i > 0), n, m, step * wo), dtype=x.dtype))

    def slab(starts, band, buf, held, first=None):
        hold = first is not None and len(starts) > 1  # then the caller stores the first chunk
        for i, (cols_at, cols) in enumerate(_patches(x, k, stride, p, ho, wo, x2, starts, (band, buf))):
            if i > hold:
                flat[:, :, at] = held[:, :, : at.stop - at.start]
            np.matmul(wmat, cols, out=(first if hold and i == 0 else held)[:, :, : cols.shape[2]])
            at = cols_at
        return [(at, held)] + ([(slice(starts[0] * wo, starts[1] * wo), first)] if hold else [])

    for at, buf in sum(_in_slabs(ho, step, 2 * n * wmat.size * ho * wo, scratch, slab), []):
        flat[:, :, at] = buf[:, :, : at.stop - at.start]
    return out


def conv2d_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray, spec: ConvSpec, x2=None, out=None) -> np.ndarray:
    """Cross-correlation with zero padding, via im2col + GEMM, of x joined with x2 if given, into
    `out` if given: a C-contiguous array of the output's shape and x's dtype that overlaps neither
    input, or x itself where `_correlate` allows. Otherwise ValidationError, before any write."""
    s = _check_conv_args(x, weights, bias, spec, x2)
    ho, wo = spec.out_size(s.height, s.width)
    shape = (s.batch, spec.out_channels, ho, wo)
    if out is not None:
        step = min(_chunk_rows(s.batch, spec.in_channels, spec.kernel, wo), ho)
        in_place = out is x and spec.stride == 1 and (spec.padding <= step or step == ho)
        if (not out.flags.c_contiguous or out.shape != shape or out.dtype != x.dtype
                or np.may_share_memory(out, x) and not in_place or x2 is not None and np.may_share_memory(out, x2)):
            raise ValidationError(f"out must be a C-contiguous {x.dtype} array of shape {shape} that overlaps "
                                  f"no input, or x itself at stride 1 with padding <= {step} chunk rows")
    wmat = weights.reshape(spec.out_channels, -1)
    out = _correlate(x, wmat, spec.kernel, spec.stride, spec.padding, ho, wo, x2, out)
    out += bias.reshape(1, -1, 1, 1)
    return out


def conv2d_forward_naive(x: np.ndarray, weights: np.ndarray, bias: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Nested-loop reference convolution, the oracle; out-of-bounds input positions
    contribute zero, exactly as the padded fast path treats them."""
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


def conv2d_backward(x: np.ndarray, weights: np.ndarray, spec: ConvSpec, d_output: np.ndarray, x2=None) -> LayerGrad:
    """Exact gradients of conv2d_forward w.r.t. input, weights, and bias.

    Stride 1 only. d_weights sums d_output[b] @ cols[b].T over images and
    row chunks; d_input correlates d_output, padded by k-1-p (cropped when
    p > k-1), with the flipped, channel-transposed kernel. With x2, d_input
    covers the join: x's channels, then x2's.
    """
    s = _check_conv_args(x, weights, None, spec, x2)
    if spec.stride != 1:
        raise ValidationError(f"conv2d_backward supports stride 1 only, got stride {spec.stride}")
    k, p = spec.kernel, spec.padding
    ho, wo = spec.out_size(s.height, s.width)
    if d_output.shape != (s.batch, spec.out_channels, ho, wo):
        raise ShapeError(
            f"d_output shape {d_output.shape} != {(s.batch, spec.out_channels, ho, wo)}"
        )
    d_om = d_output.reshape(s.batch, spec.out_channels, ho * wo)
    d_wmat = np.zeros((spec.out_channels, spec.in_channels * k * k), dtype=x.dtype)
    for cols_at, cols in _patches(x, k, 1, p, ho, wo, x2):
        for b in range(s.batch):
            d_wmat += d_om[b, :, cols_at] @ cols[b].T
    del cols  # free the patch matrix before the d_input correlation builds its own
    w_flip = weights[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(spec.in_channels, -1)
    d_x = _correlate(d_output, w_flip, k, 1, k - 1 - p, s.height, s.width)
    d_bias = d_output.sum(axis=(0, 2, 3))
    return LayerGrad(d_x, d_wmat.reshape(weights.shape), d_bias)


def _pool_max(x: np.ndarray) -> np.ndarray:
    """The element-wise maximum of the four 2x2 window corners.

    A NaN anywhere in a window pools to NaN. np.maximum returns its second
    argument when the two compare equal, so the corners are folded last to
    first and the first occurrence wins a tie (0.0 before -0.0).
    """
    s = Shape4.of(x)
    if s.height % 2 or s.width % 2:
        raise ShapeError(f"maxpool2 needs even spatial extents, got {s.height}x{s.width}")
    return np.maximum(
        np.maximum(x[:, :, 1::2, 1::2], x[:, :, 1::2, ::2]),
        np.maximum(x[:, :, ::2, 1::2], x[:, :, ::2, ::2]),
    )


def maxpool2_forward(x: np.ndarray) -> np.ndarray:
    """2x2/stride-2 max pooling; see `_pool_max` for NaN and ties."""
    return _pool_max(x)


def maxpool2_backward(x: np.ndarray, d_output: np.ndarray) -> np.ndarray:
    """Route each upstream gradient to its window's first maximum in the pool input x.

    The argmax is recomputed from x, not kept from the forward: the corners
    are visited in row-major order and the first one equal to the pooled
    value, or the first NaN, takes the gradient.
    """
    pooled = _pool_max(x)
    if d_output.shape != pooled.shape:
        raise ShapeError(f"d_output shape {d_output.shape} is not the pooled shape of input {x.shape}")
    d_x = np.zeros_like(x)
    unclaimed = np.ones(pooled.shape, dtype=bool)
    for dy, dx in ((0, 0), (0, 1), (1, 0), (1, 1)):
        corner = x[:, :, dy::2, dx::2]
        hit = unclaimed & ((corner == pooled) | np.isnan(corner))
        np.copyto(d_x[:, :, dy::2, dx::2], d_output, where=hit)
        unclaimed &= ~hit
    return d_x


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

    out[b,o,2y+dy,2x+dx] = sum_c x[b,c,y,x] * weights[c,o,dy,dx] + bias[o]: a 1x1 conv to O*2*2
    channels, then depth-to-space. Each chunk of input rows, sized as `_chunk_rows` sizes O*2*2
    patch rows, is one GEMM per image, (O*2*2, C) @ (C, rows*W), stored into the output in place.
    """
    n, c, h, w = _check_tconv_args(x, weights, bias)
    o = weights.shape[1]
    out = np.empty((n, o, 2 * h, 2 * w), dtype=x.dtype)
    out6 = out.reshape(n, o, h, 2, w, 2)
    wmat = weights.reshape(c, 4 * o).T
    step = min(_chunk_rows(n, o, 2, w), h)

    def slab(starts, prod):
        for r0 in starts:
            got = np.matmul(wmat, x[:, :, r0 : r0 + step].reshape(n, c, -1), out=prod[:, :, : min(step, h - r0) * w])
            out6[:, :, r0 : r0 + step] = got.reshape(n, o, 2, 2, -1, w).transpose(0, 1, 4, 2, 5, 3)
    _in_slabs(h, step, 2 * n * wmat.size * h * w, lambda i: (np.empty((n, 4 * o, step * w), dtype=x.dtype),), slab)
    out += bias.reshape(1, -1, 1, 1)
    return out


def tconv2_backward(x: np.ndarray, weights: np.ndarray, d_output: np.ndarray) -> LayerGrad:
    """Exact gradients of tconv2_forward, the 1x1 conv's: with d4 the space-to-depth of d_output,
    (N, O*2*2, H*W), d_input = weights (C, O*2*2) @ d4 and d_weights = sum_b x[b] @ d4[b].T."""
    n, c, h, w = _check_tconv_args(x, weights, None)
    o = weights.shape[1]
    if d_output.shape != (n, o, 2 * h, 2 * w):
        raise ShapeError(f"d_output shape {d_output.shape} != {(n, o, 2 * h, 2 * w)}")
    d4 = d_output.reshape(n, o, h, 2, w, 2).transpose(0, 1, 3, 5, 2, 4).reshape(n, 4 * o, h * w)
    d_x = weights.reshape(c, 4 * o) @ d4
    d_w = sum(x[b].reshape(c, -1) @ d4[b].T for b in range(n))
    return LayerGrad(d_x.reshape(x.shape), d_w.reshape(weights.shape), d_output.sum(axis=(0, 2, 3)))


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
