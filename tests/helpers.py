"""Shared test machinery: finite-difference harnesses and tiny datasets.

Gradient checks only make sense at points where the network is locally
smooth. ReLU, max-pooling, and the cross-entropy clamp are piecewise
functions, and a freshly built network sits exactly ON a kink: biases start
at zero, so any output pixel whose receptive field is entirely dead has a
pre-activation of exactly 0.0. The helpers here nudge parameters off the
degenerate point and verify a safety margin around every kink before
trusting the finite-difference comparison.
"""

from __future__ import annotations

import struct
import tempfile
from pathlib import Path

import numpy as np

import microvolumetry as mv
import microvolumetry.data as data_mod
import microvolumetry.layers as L
from microvolumetry.layers import ConvSpec, gradient_check

FD_STEP = 1e-6
KINK_MARGIN = 2e-5  # safe distance from any ReLU zero-crossing or pool tie


def perturbed_params(cfg: mv.UNetConfig, seed: int) -> dict:
    """Built weights plus small noise, moving biases off the exact-zero kink."""
    params = mv.build(cfg, seed)
    prng = np.random.default_rng(seed + 1000)
    return {
        name: tuple(a + 0.05 * prng.standard_normal(a.shape) for a in t)
        for name, t in params.items()
    }


def hazard_margins(params: dict, cfg: mv.UNetConfig, xb: np.ndarray) -> tuple[float, float]:
    """(relu margin, pool margin) for one forward pass.

    relu margin: smallest |pre-activation| anywhere; below the FD step the
    central difference straddles the kink. pool margin: smallest gap between
    the two largest POSITIVE entries of any pooling window; all-dead windows
    are ties of exact zeros pinned by negative pre-activations, which cannot
    move under a sub-margin perturbation and so are harmless.
    """
    relu_m, pool_m = np.inf, np.inf

    def conv_relu(x, name):
        nonlocal relu_m
        w, b = params[name]
        pre = L.conv2d_forward(x, w, b, ConvSpec(w.shape[1], w.shape[0]))
        relu_m = min(relu_m, float(np.abs(pre).min()))
        return L.relu(pre)

    def pool(a):
        nonlocal pool_m
        n, c, h, w = a.shape
        win = a.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(-1, 4)
        srt = np.sort(win, axis=-1)
        live = srt[:, 2] > 0
        if live.any():
            pool_m = min(pool_m, float((srt[live, 3] - srt[live, 2]).min()))
        return L.maxpool2_forward(a)

    x = xb
    skips = []
    for i in range(cfg.depth):
        a2 = conv_relu(conv_relu(x, f"enc{i}.conv1"), f"enc{i}.conv2")
        skips.append(a2)
        x = pool(a2)
    x = conv_relu(conv_relu(x, "bottleneck.conv1"), "bottleneck.conv2")
    for i in reversed(range(cfg.depth)):
        wt, bt = params[f"dec{i}.tconv"]
        joined = L.concat_channels(skips[i], L.tconv2_forward(x, wt, bt))
        x = conv_relu(conv_relu(joined, f"dec{i}.conv1"), f"dec{i}.conv2")
    return relu_m, pool_m


def e2e_case(head: str, seed: int, depth: int = 1):
    """Deterministic end-to-end check instance with verified kink margins."""
    cfg = mv.UNetConfig(depth=depth, base_channels=2, input_size=8, output_head=head)
    params = perturbed_params(cfg, seed)
    for attempt in range(8):
        rng = np.random.default_rng(seed + 500 + 10000 * attempt)
        xb = rng.random((1, 1, 8, 8))
        labels = rng.integers(0, 3, (1, 8, 8))
        relu_m, pool_m = hazard_margins(params, cfg, xb)
        if relu_m > KINK_MARGIN and pool_m > KINK_MARGIN:
            tb = (labels[:, None] == np.arange(3)[None, :, None, None]).astype(np.float64)
            return cfg, params, xb, tb
    raise AssertionError(f"no kink-safe input found for head={head} seed={seed}")


def e2e_loss(head: str, seed: int, depth: int = 1):
    """(fn, arrays) for `gradient_check` over every parameter of an e2e_case network."""
    cfg, params, xb, tb = e2e_case(head, seed, depth)
    names = list(params)

    def fn(arrs):
        p = {n: (arrs[2 * i], arrs[2 * i + 1]) for i, n in enumerate(names)}
        out, cache = mv.forward(p, cfg, xb)
        loss, d = L.categorical_cross_entropy(out, tb)
        g = mv.backward(p, cfg, cache, d)
        return loss, [a for n in names for a in g[n]]

    return fn, [a for n in names for a in params[n]]


def e2e_gradient_error(head: str, seed: int, depth: int = 1) -> float:
    return gradient_check(*e2e_loss(head, seed, depth), step=FD_STEP)


def _safe_draw(rng, shape, min_abs=KINK_MARGIN):
    """Standard normal draw with no element closer to zero than min_abs."""
    x = rng.standard_normal(shape)
    tiny = np.abs(x) < min_abs
    x[tiny] = np.sign(x[tiny] + 0.5) * (min_abs * 10)
    return x


def conv_gradient_error(seed: int, padding=None) -> float:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 3, 6, 6))
    w = rng.standard_normal((4, 3, 3, 3)) * 0.5
    b = rng.standard_normal(4)
    spec = ConvSpec(3, 4, padding=padding)
    r = rng.standard_normal((2, 4) + spec.out_size(6, 6))

    def fn(arrs):
        xx, ww, bb = arrs
        out = L.conv2d_forward(xx, ww, bb, spec)
        g = L.conv2d_backward(xx, ww, spec, r)
        return float((out * r).sum()), [g.d_input, g.d_weights, g.d_bias]

    return gradient_check(fn, [x, w, b], step=FD_STEP)


def conv_backward_reference(x, weights, padding, d_output):
    """Independent stride-1 conv backward: per-tap einsums, scattered into a padded d_input."""
    k = weights.shape[2]
    h, w = x.shape[2:]
    ho, wo = d_output.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    d_xp = np.zeros_like(xp)
    d_w = np.zeros_like(weights)
    for dy in range(k):
        for dx in range(k):
            window = xp[:, :, dy : dy + ho, dx : dx + wo]
            d_w[:, :, dy, dx] = np.einsum("bohw,bchw->oc", d_output, window)
            d_xp[:, :, dy : dy + ho, dx : dx + wo] += np.einsum(
                "bohw,oc->bchw", d_output, weights[:, :, dy, dx]
            )
    d_x = d_xp[:, :, padding : padding + h, padding : padding + w]
    return d_x, d_w, d_output.sum(axis=(0, 2, 3))


def tconv_gradient_error(seed: int) -> float:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 4, 5, 5))
    w = rng.standard_normal((4, 2, 2, 2)) * 0.5
    b = rng.standard_normal(2)
    r = rng.standard_normal((2, 2, 10, 10))

    def fn(arrs):
        xx, ww, bb = arrs
        out = L.tconv2_forward(xx, ww, bb)
        g = L.tconv2_backward(xx, ww, r)
        return float((out * r).sum()), [g.d_input, g.d_weights, g.d_bias]

    return gradient_check(fn, [x, w, b], step=FD_STEP)


def pool_gradient_error(seed: int) -> float:
    rng = np.random.default_rng(seed)
    # reject pool windows whose top two entries nearly tie
    for attempt in range(8):
        x = rng.standard_normal((2, 3, 8, 8))
        win = x.reshape(2, 3, 4, 2, 4, 2).transpose(0, 1, 2, 4, 3, 5).reshape(-1, 4)
        srt = np.sort(win, axis=-1)
        if (srt[:, 3] - srt[:, 2]).min() > KINK_MARGIN:
            break
    r = rng.standard_normal((2, 3, 4, 4))

    def fn(arrs):
        out = L.maxpool2_forward(arrs[0])
        return float((out * r).sum()), [L.maxpool2_backward(arrs[0], r)]

    return gradient_check(fn, [x], step=FD_STEP)


def relu_gradient_error(seed: int) -> float:
    rng = np.random.default_rng(seed)
    x = _safe_draw(rng, (2, 3, 4, 4))
    r = rng.standard_normal(x.shape)

    def fn(arrs):
        return float((L.relu(arrs[0]) * r).sum()), [L.relu_backward(arrs[0], r)]

    return gradient_check(fn, [x], step=FD_STEP)


def sigmoid_gradient_error(seed: int) -> float:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 3, 4, 4))
    r = rng.standard_normal(x.shape)

    def fn(arrs):
        out = L.sigmoid(arrs[0])
        return float((out * r).sum()), [L.sigmoid_backward(out, r)]

    return gradient_check(fn, [x], step=FD_STEP)


def softmax_cce_gradient_error(seed: int) -> float:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 3, 4, 4))
    labels = rng.integers(0, 3, (2, 4, 4))
    t = (labels[:, None] == np.arange(3)[None, :, None, None]).astype(np.float64)

    def fn(arrs):
        out = L.softmax_channel(arrs[0])
        loss, d_out = L.categorical_cross_entropy(out, t)
        return loss, [L.softmax_channel_backward(out, d_out)]

    return gradient_check(fn, [x], step=FD_STEP)


def naive_tconv(x, weights, bias):
    """Independent loop reference for the stride-2 2x2 transposed convolution."""
    n, ci, h, w = x.shape
    _, co, kh, kw = weights.shape
    out = np.zeros((n, co, 2 * h, 2 * w))
    for b in range(n):
        for o in range(co):
            for c in range(ci):
                for y in range(h):
                    for xx in range(w):
                        for i in range(kh):
                            for j in range(kw):
                                out[b, o, 2 * y + i, 2 * xx + j] += (
                                    x[b, c, y, xx] * weights[c, o, i, j]
                                )
            out[b, o] += bias[o]
    return out


def write_config(path, **kv):
    lines = [f"{k} = {v}\n" for k, v in kv.items()]
    path.write_text("".join(lines), encoding="utf-8")
    return path


def tiny_dataset(root, count=6, size=16, seed=5):
    """Small on-disk phantom dataset for pipeline tests."""
    template = mv.PhantomSpec(size=size, seed=0)
    return mv.make_dataset(root, count, template, seed=seed)


def baseline_bone_count(image) -> int:
    """Conventional intensity-threshold estimate: pixels at or above the
    bone band's lower edge. Counts streak artifacts and implant as bone,
    which is exactly the overestimation the network is meant to avoid."""
    return int((image.astype(np.float64) / data_mod.MAXVAL >= data_mod.BONE_BAND[0]).sum())


# ---------------------------------------------------------------------------
# Malformed inputs that once crashed a parser with an unnamed error

CKPT_DEPTH_AT = 12  # u32 after the 8-byte magic and the u32 version
CKPT_FIRST_NAME_AT = 45  # magic, version, six config u32s, head byte, entry count, name length


def checkpoint_bytes(depth=1, base=1, size=2, seed=0) -> bytes:
    """A valid checkpoint of a tiny network, as bytes."""
    cfg = mv.UNetConfig(depth=depth, base_channels=base, input_size=size)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "m.ckpt"
        mv.save_checkpoint(mv.build(cfg, seed), cfg, path)
        return path.read_bytes()


def overwrite(blob: bytes, at: int, new: bytes) -> bytes:
    return blob[:at] + new + blob[at + len(new) :]


# depth 0xF998E147: computing 2**depth took 83 s before failing in an f-string
HUGE_DEPTH_CHECKPOINT = overwrite(checkpoint_bytes(), CKPT_DEPTH_AT, struct.pack("<I", 0xF998E147))
# first tensor name starts with 0xFF: raised UnicodeDecodeError
NON_UTF8_NAME_CHECKPOINT = overwrite(checkpoint_bytes(), CKPT_FIRST_NAME_AT, b"\xff")
# Latin-1 e-acute in a comment: raised UnicodeDecodeError
NON_UTF8_CONFIG = b"dataset = d\n# caf\xe9\nepochs = 1\n"
# NaN as the payload's last float64 (in head.b): loaded, and predict wrote an all-background mask
NAN_PAYLOAD_CHECKPOINT = checkpoint_bytes()[:-8] + struct.pack("<d", float("nan"))
# a valid 8-bit image, which reads as near-black if scaled as 16-bit
EIGHT_BIT_IMAGE = b"P5\n2 2\n255\n\xff\x00\x80\x07"
