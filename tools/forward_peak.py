"""Show where one paper-config float32 inference forward peaks in memory, layer by layer.

Builds the paper's network (depth 4, base 64, 512x512), casts its weights to
float32 as `predict` does, and runs one `forward(want_cache=False)` on a fixed
phantom under `tracemalloc`. Every conv, tconv and pool call is wrapped: it
records the bytes live at entry and the peak reached inside the call. Run it as

    PYTHONPATH=src python tools/forward_peak.py [--top N]

and run it with another commit's `src` on PYTHONPATH to compare. Tracing
starts after the weights and the input exist, so every figure is the
forward's own working set, on top of the weights. Calls are named by
perfbench's `LayerMap` (a conv or tconv by its weight array, a pool by the
size of its input) and wrapped with perfbench's `patch_bindings`, so the
names are the ones `perfbench/run.py --trace 1` reports. The "between calls"
figure is the highest peak reached outside every wrapped call, such as a
skip concatenation.
"""

from __future__ import annotations

import argparse
import sys
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import microvolumetry as mv  # noqa: E402
from microvolumetry import layers, unet  # noqa: E402
from tracing import LayerMap, Patches, patch_bindings  # noqa: E402

MIB = 2**20


class PeakRecorder:
    """Wraps the forward kernels and records (layer, entry bytes, peak bytes) per call."""

    def __init__(self, params, config):
        self.layers = LayerMap()
        self.layers.refresh(params, config, unet.param_shapes)
        self.calls: list[tuple[str, int, int]] = []
        self.between = 0

    def _wrap(self, fn, layer_of):
        def wrapper(*args):
            entry, peak = tracemalloc.get_traced_memory()
            self.between = max(self.between, peak)
            tracemalloc.reset_peak()
            try:
                return fn(*args)
            finally:
                self.calls.append((layer_of(args) or "?", entry, tracemalloc.get_traced_memory()[1]))
                tracemalloc.reset_peak()
        return wrapper

    def _weight_layer(self, args) -> str | None:
        return self.layers.layer_of(args[1])

    def _pool_layer(self, args) -> str | None:
        return self.layers.pool_by_size.get(args[0].shape[-1])

    def run(self, params, config, batch) -> np.ndarray:
        patches = Patches()
        for fn, layer_of in ((layers.conv2d_forward, self._weight_layer),
                             (layers.tconv2_forward, self._weight_layer),
                             (layers.maxpool2_forward, self._pool_layer)):
            patch_bindings(patches, fn, self._wrap(fn, layer_of))
        tracemalloc.start()
        try:
            out, _ = unet.forward(params, config, batch, want_cache=False)
            self.between = max(self.between, tracemalloc.get_traced_memory()[1])
            return out
        finally:
            tracemalloc.stop()
            patches.restore()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--top", type=int, default=10, help="how many calls to list, highest peak first")
    args = ap.parse_args(argv)

    config = mv.UNetConfig()
    params = {name: (w.astype(np.float32), b.astype(np.float32))
              for name, (w, b) in mv.build(config, 0).items()}
    image, _ = mv.generate_phantom(mv.PhantomSpec(size=config.input_size, seed=9))
    batch = mv.image_to_tensor(image).astype(np.float32)
    weights = sum(w.nbytes + b.nbytes for w, b in params.values())

    recorder = PeakRecorder(params, config)
    recorder.run(params, config, batch)
    calls = recorder.calls
    forward_peak = max([recorder.between] + [peak for _, _, peak in calls])
    print(f"package: {Path(mv.__file__).parent}", file=sys.stderr)
    print(f"config: depth {config.depth}, base {config.base_channels}, {config.input_size}x"
          f"{config.input_size}, float32 weights {weights / MIB:.1f} MiB")
    print(f"forward peak above the weights: {forward_peak / MIB:.1f} MiB "
          f"(between calls {recorder.between / MIB:.1f} MiB, {len(calls)} calls)")
    print(f"{'layer':<18} {'kernel peak MiB':>15} {'live at entry MiB':>17}")
    for layer, entry, peak in sorted(calls, key=lambda c: -c[2])[: args.top]:
        print(f"{layer:<18} {peak / MIB:>15.1f} {entry / MIB:>17.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
