"""Spans around calls into microvolumetry's public functions, from outside.

The program is never edited. `patch_bindings` swaps a function object for a
wrapper under every name that refers to it in any loaded microvolumetry
module (`from .layers import conv2d_forward` in unet.py, the definition in
layers.py, the re-export in __init__.py), and `Patches.restore` puts the
originals back. A call made through any of those names is therefore seen,
whichever module the caller lives in.

A `Tracer` keeps one record per finished span: name, layer key, start, end,
self time (duration minus the time its child spans cover) and the id of its
parent span. Counters computed from argument shapes (FLOPs, bytes) ride on
the same record.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

PACKAGE = "microvolumetry"

# (module, function, span name). Activations share one span name; every
# other span is named after the module and function it wraps.
TRACED = [
    ("layers", "conv2d_forward", "layers.conv2d_forward"),
    ("layers", "conv2d_backward", "layers.conv2d_backward"),
    ("layers", "maxpool2_forward", "layers.maxpool2_forward"),
    ("layers", "maxpool2_backward", "layers.maxpool2_backward"),
    ("layers", "tconv2_forward", "layers.tconv2_forward"),
    ("layers", "tconv2_backward", "layers.tconv2_backward"),
    ("layers", "relu", "layers.activation"),
    ("layers", "relu_backward", "layers.activation"),
    ("layers", "sigmoid", "layers.activation"),
    ("layers", "sigmoid_backward", "layers.activation"),
    ("layers", "softmax_channel", "layers.activation"),
    ("layers", "softmax_channel_backward", "layers.activation"),
    ("layers", "categorical_cross_entropy", "layers.categorical_cross_entropy"),
    ("unet", "build", "unet.build"),
    ("unet", "forward", "unet.forward"),
    ("unet", "backward", "unet.backward"),
    ("unet", "load_checkpoint", "unet.load_checkpoint"),
    ("unet", "save_checkpoint", "unet.save_checkpoint"),
    ("optim", "init_adam", "optim.init_adam"),
    ("optim", "adam_step", "optim.adam_step"),
    ("train", "parse_config", "train.parse_config"),
    ("train", "run_training", "train.run_training"),
    ("data", "generate_phantom", "data.generate_phantom"),
    ("data", "make_dataset", "data.make_dataset"),
    ("data", "load_manifest", "data.load_manifest"),
    ("data", "read_pgm", "data.read_pgm"),
    ("data", "read_mask", "data.read_mask"),
    ("data", "write_pgm", "data.write_pgm"),
    ("data", "image_to_tensor", "data.image_to_tensor"),
    ("data", "split_dataset", "data.split_dataset"),
    ("metrics", "confusion", "metrics.confusion"),
    ("metrics", "count_class_pixels", "metrics.count_class_pixels"),
    ("metrics", "calibrate_volume", "metrics.calibrate_volume"),
    ("metrics", "pixel_accuracy", "metrics.pixel_accuracy"),
    ("metrics", "dice", "metrics.dice"),
    ("metrics", "read_reference", "metrics.read_reference"),
    ("metrics", "write_report", "metrics.write_report"),
    ("tensor", "argmax_channel", "tensor.argmax_channel"),
    ("cli", "main", "cli.main"),
]

MODULES = ("data", "layers", "unet", "optim", "train", "metrics", "tensor", "cli")


def package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Patches:
    """Every (module, attribute, original) swapped so far; restored in reverse."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def restore(self) -> None:
        while self._undo:
            mod, attr, original = self._undo.pop()
            setattr(mod, attr, original)


def patch_bindings(patches: Patches, original, wrapper) -> None:
    """Rebind every module-level name that is `original` to `wrapper`."""
    for mod in package_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                patches._undo.append((mod, attr, original))
                setattr(mod, attr, wrapper)


def _data_ptr(a) -> int:
    return a.__array_interface__["data"][0]


@dataclass
class LayerMap:
    """Which U-Net layer a weight array belongs to, and conv FLOPs per layer.

    Layers are found by the data pointer and shape of the weight array a
    kernel receives, never by call order, so a refactor that reorders or
    regroups the calls keeps the keys. Pools carry no weights and are keyed
    by the spatial size of their input: encoder stage i sees size / 2**i.
    """

    by_weight: dict[tuple[int, tuple], str] = field(default_factory=dict)
    pool_by_size: dict[int, str] = field(default_factory=dict)
    fwd_flop_per_image: dict[str, int] = field(default_factory=dict)
    config: object = None

    def refresh(self, params, config, param_shapes) -> None:
        self.by_weight = {(_data_ptr(w), w.shape): name for name, (w, _) in params.items()}
        if config != self.config:
            self.config = config
            self.pool_by_size = {config.input_size >> i: f"enc{i}.pool" for i in range(config.depth)}
            self.fwd_flop_per_image = conv_flop_per_image(config, param_shapes)

    def layer_of(self, weights) -> str | None:
        return self.by_weight.get((_data_ptr(weights), weights.shape))


def layer_sizes(config) -> dict[str, int]:
    """Spatial size each parameterised layer works at, from its name."""
    sizes = {"bottleneck": config.input_size >> config.depth, "head": config.input_size}
    for i in range(config.depth):
        sizes[f"enc{i}"] = sizes[f"dec{i}"] = config.input_size >> i
    return sizes


def conv_flop_per_image(config, param_shapes) -> dict[str, int]:
    """Forward FLOPs per image of every layer, computed from param_shapes.

    A conv does 2*Cout*Cin*k*k multiply-adds per output pixel; the 2x2
    stride-2 tconv does 2*Cin*Cout*4 per input pixel. Backward costs twice
    the forward (input gradient plus weight gradient).
    """
    sizes = layer_sizes(config)
    flop = {}
    for name, (kind, (a, b, kh, kw)) in param_shapes(config).items():
        size = sizes[name.split(".")[0]]
        if kind == "tconv":
            size //= 2
        flop[name] = 2 * a * b * kh * kw * size * size
    return flop


class Tracer:
    """Span recorder. Records are tuples so that a traced step stays cheap:
    (name, layer key or None, start, end, self seconds, parent index,
    flop, bytes)."""

    def __init__(self):
        self.records: list[tuple] = []
        self._stack: list[list] = []  # [start, child seconds, own index]
        self.layers = LayerMap()
        self.param_shapes = None

    def span(self, name: str, fn, key_fn=None, count_fn=None):
        records, stack, clock = self.records, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][2] if stack else -1
            frame = [clock(), 0.0, len(records)]
            records.append(None)  # reserve the slot so children can point at it
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                if stack:
                    stack[-1][1] += dur
                key = key_fn(args, kwargs) if key_fn else None
                flop, nbytes = count_fn(args, kwargs) if count_fn else (0, 0)
                records[frame[2]] = (name, key, frame[0], end, dur - frame[1], parent, flop, nbytes)

        return wrapper

    # -- keys and counters computed from the arguments -------------------

    def _conv_key(self, args, kwargs):
        return self.layers.layer_of(args[1])

    def _pool_fwd_key(self, args, kwargs):
        return self.layers.pool_by_size.get(args[0].shape[-1])

    def _pool_bwd_key(self, args, kwargs):
        return self.layers.pool_by_size.get(2 * args[1].shape[-1])

    def _conv_counts(self, backward: bool):
        def count(args, kwargs):
            x, w = args[0], args[1]
            layer = self.layers.layer_of(w)
            flop = self.layers.fwd_flop_per_image.get(layer, 0) * x.shape[0]
            k2 = w.shape[2] * w.shape[3]
            out = x.shape[0] * w.shape[0] * x.shape[2] * x.shape[3]
            cols = x.shape[1] * k2 * x.shape[0] * x.shape[2] * x.shape[3]
            # input, weights, output read or written once; im2col scratch
            # written once and read once. Backward touches each twice.
            nbytes = 8 * (x.size + w.size + out + 2 * cols)
            return (2 * flop, 2 * nbytes) if backward else (flop, nbytes)
        return count

    def _tconv_counts(self, backward: bool):
        def count(args, kwargs):
            x, w = args[0], args[1]
            layer = self.layers.layer_of(w)
            flop = self.layers.fwd_flop_per_image.get(layer, 0) * x.shape[0]
            nbytes = 8 * (x.size + w.size + 4 * x.shape[0] * w.shape[1] * x.shape[2] * x.shape[3])
            return (2 * flop, 2 * nbytes) if backward else (flop, nbytes)
        return count

    @staticmethod
    def _adam_counts(args, kwargs):
        n = sum(a.size for tensors in args[0].values() for a in tensors)
        # params, grads, m, v read; m, v, params written.
        return 0, 8 * 7 * n

    @staticmethod
    def _file_bytes(path_index: int):
        def count(args, kwargs):
            path = args[path_index] if len(args) > path_index else kwargs.get("path")
            try:
                return 0, os.stat(path).st_size
            except (OSError, TypeError):
                return 0, 0
        return count

    def install(self, package, patches: Patches) -> None:
        """Wrap every function in TRACED; the caller restores the patches."""
        self.param_shapes = package.unet.param_shapes
        special_keys = {
            "conv2d_forward": (self._conv_key, self._conv_counts(False)),
            "conv2d_backward": (self._conv_key, self._conv_counts(True)),
            "tconv2_forward": (self._conv_key, self._tconv_counts(False)),
            "tconv2_backward": (self._conv_key, self._tconv_counts(True)),
            "maxpool2_forward": (self._pool_fwd_key, None),
            "maxpool2_backward": (self._pool_bwd_key, None),
            "adam_step": (None, self._adam_counts),
            "read_pgm": (None, self._file_bytes(0)),
            "write_pgm": (None, self._file_bytes(1)),
        }
        for module, func, name in TRACED:
            original = getattr(getattr(package, module), func)
            key_fn, count_fn = special_keys.get(func, (None, None))
            wrapper = self.span(name, original, key_fn, count_fn)
            if func in ("forward", "backward"):
                wrapper = self._refreshing(wrapper)
            patch_bindings(patches, original, wrapper)

    def _refreshing(self, wrapped):
        """Re-learn the weight -> layer map each time the network runs."""
        def wrapper(params, config, *args, **kwargs):
            self.layers.refresh(params, config, self.param_shapes)
            return wrapped(params, config, *args, **kwargs)
        return wrapper


class StepClock:
    """Times training steps: from a training forward (want_cache=True) to
    the return of the adam_step that follows it. Two wrappers per step, so
    it is cheap enough to stay on in the untraced run."""

    def __init__(self):
        self.windows: list[tuple[float, float]] = []  # (start, end) per step
        self._start: float | None = None

    @property
    def steps_ms(self) -> list[float]:
        return [(end - start) * 1e3 for start, end in self.windows]

    def install(self, package, patches: Patches) -> None:
        forward = package.unet.forward
        adam_step = package.optim.adam_step
        clock = time.perf_counter

        def timed_forward(params, config, batch, want_cache=True):
            if want_cache:
                self._start = clock()
            return forward(params, config, batch, want_cache=want_cache)

        def timed_adam(*args, **kwargs):
            result = adam_step(*args, **kwargs)
            if self._start is not None:
                self.windows.append((self._start, clock()))
                self._start = None
            return result

        patch_bindings(patches, forward, timed_forward)
        patch_bindings(patches, adam_step, timed_adam)


def summarize(records, units: int) -> dict:
    """Aggregate span records into per-name totals, per unit of work."""
    by_name: dict[str, dict] = {}
    by_layer: dict[tuple[str, str], float] = {}
    module_self: dict[str, float] = {m: 0.0 for m in MODULES}
    for rec in records:
        if rec is None:
            continue
        name, key, start, end, self_s, parent, flop, nbytes = rec
        agg = by_name.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "flop": 0, "bytes": 0})
        agg["calls"] += 1
        agg["s"] += end - start
        agg["self_s"] += self_s
        agg["flop"] += flop
        agg["bytes"] += nbytes
        module_self[name.split(".")[0]] += self_s
        if key is not None:
            by_layer[(name, key)] = by_layer.get((name, key), 0.0) + (end - start)
    per = 1.0 / max(units, 1)
    return {"by_name": by_name, "by_layer": by_layer, "module_self": module_self, "per": per}


def gemm_probe(m: int, k: int, n: int, budget_s: float = 1.0) -> float:
    """Median float64 GEMM rate in GFLOP/s at shape (m,k)@(k,n).

    FLOPs are 2*m*k*n, computed from the shape. Repeats until the budget
    is spent (at least three), and reports the median rate.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    a @ b  # warm-up
    rates = []
    t_end = time.perf_counter() + budget_s
    while len(rates) < 3 or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        a @ b
        rates.append(2.0 * m * k * n / (time.perf_counter() - t0) / 1e9)
    return float(np.median(rates))
