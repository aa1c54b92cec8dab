"""tools/forward_peak.py names every traced call by its layer and restores the kernel bindings."""

import importlib.util
from pathlib import Path

import numpy as np

import microvolumetry as mv
from microvolumetry import layers, unet

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "forward_peak.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("forward_peak", SCRIPT)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_every_call_is_keyed_by_its_layer_and_bindings_are_restored():
    tool = load_tool()
    cfg = mv.UNetConfig(depth=2, base_channels=4, input_size=32)
    params = {name: (w.astype(np.float32), b.astype(np.float32))
              for name, (w, b) in mv.build(cfg, 0).items()}
    batch = np.random.default_rng(0).random((1, 1, 32, 32), dtype=np.float32)
    kernels = ("conv2d_forward", "tconv2_forward", "maxpool2_forward")
    originals = {name: getattr(layers, name) for name in kernels}
    recorder = tool.PeakRecorder(params, cfg)
    out = recorder.run(params, cfg, batch)
    assert np.array_equal(out, mv.forward(params, cfg, batch, want_cache=False)[0])
    want = set(unet.param_shapes(cfg)) | {"enc0.pool", "enc1.pool"}
    assert sorted(layer for layer, _, _ in recorder.calls) == sorted(want)
    assert all(peak >= entry for _, entry, peak in recorder.calls)
    for name, original in originals.items():
        assert getattr(layers, name) is original
        assert getattr(unet, name) is original
        assert getattr(mv, name, original) is original


def test_decoder_conv1_starts_with_only_its_join_live():
    # The stage below's output (a quarter of the join's bytes here) must be
    # gone before dec0.conv1 runs, and so must the skip and the upsampled array.
    tool = load_tool()
    cfg = mv.UNetConfig(depth=2, base_channels=8, input_size=64)
    params = {name: (w.astype(np.float32), b.astype(np.float32))
              for name, (w, b) in mv.build(cfg, 0).items()}
    batch = np.random.default_rng(0).random((1, 1, 64, 64), dtype=np.float32)
    recorder = tool.PeakRecorder(params, cfg)
    recorder.run(params, cfg, batch)
    join_bytes = 2 * cfg.base_channels * 64 * 64 * 4
    [entry] = [entry for layer, entry, _ in recorder.calls if layer == "dec0.conv1"]
    assert entry <= join_bytes + 8192, (entry, join_bytes)


def test_forward_builds_no_skip_join(monkeypatch):
    # With one-row patch chunks, a join live beside the skip and the upsampled
    # array would be the forward's peak. Without one, the peak is dec0.conv1's
    # two inputs, its output, and one chunk's band and patch buffer. The slack
    # covers the few KiB of Python objects live during the traced forward.
    monkeypatch.setattr(layers, "_COL_CHUNK_BYTES", 1)
    tool = load_tool()
    cfg = mv.UNetConfig(depth=2, base_channels=8, input_size=64)
    params = {name: (w.astype(np.float32), b.astype(np.float32))
              for name, (w, b) in mv.build(cfg, 0).items()}
    batch = np.random.default_rng(0).random((1, 1, 64, 64), dtype=np.float32)
    mv.forward(params, cfg, batch, want_cache=False)  # first calls fill numpy's own caches
    recorder = tool.PeakRecorder(params, cfg)
    recorder.run(params, cfg, batch)
    c, size, k = cfg.base_channels, cfg.input_size, 3
    activation = c * size * size * 4  # the skip, the upsampled array and the output each
    rows = layers._chunk_rows(1, 2 * c, k, size)
    chunk = 2 * c * (rows + k - 1) * (size + k - 1) * 4 + 2 * c * k * k * rows * size * 4
    peak = max([recorder.between] + [peak for _, _, peak in recorder.calls])
    assert peak <= 3 * activation + chunk + 16384, (peak, 3 * activation + chunk)


def test_decoder_conv1_writes_into_its_skip(monkeypatch):
    # dec0.conv1 stores its output in its skip, so inside the call nothing as
    # large as an activation is live beside its two inputs: only one chunk's
    # band, patch buffer and held-back GEMM result.
    monkeypatch.setattr(layers, "_COL_CHUNK_BYTES", 1)
    tool = load_tool()
    cfg = mv.UNetConfig(depth=2, base_channels=8, input_size=64)
    params = {name: (w.astype(np.float32), b.astype(np.float32))
              for name, (w, b) in mv.build(cfg, 0).items()}
    batch = np.random.default_rng(0).random((1, 1, 64, 64), dtype=np.float32)
    mv.forward(params, cfg, batch, want_cache=False)  # first calls fill numpy's own caches
    recorder = tool.PeakRecorder(params, cfg)
    recorder.run(params, cfg, batch)
    c, size, k = cfg.base_channels, cfg.input_size, 3
    inputs = 2 * c * size * size * 4  # the skip and the upsampled array
    rows = layers._chunk_rows(1, 2 * c, k, size)
    chunk = (2 * c * (rows + k - 1) * (size + k - 1) + 2 * c * k * k * rows * size + c * rows * size) * 4
    [peak] = [peak for layer, _, peak in recorder.calls if layer == "dec0.conv1"]
    assert peak <= inputs + chunk + 16384, (peak, inputs + chunk)


def test_decoder_conv1_writes_into_its_skip_in_two_slabs(monkeypatch):
    # The same call split over two threads: each slab holds its own band, patch
    # buffer and held-back GEMM result, and the second also holds its first
    # chunk's result until both slabs end. Still nothing as large as an
    # activation is live beside the two inputs. The slack is the one above
    # once per thread, for the few KiB of Python objects each slab keeps live.
    monkeypatch.setattr(layers, "_COL_CHUNK_BYTES", 1)
    monkeypatch.setattr(layers, "_WORKERS", 2)
    monkeypatch.setattr(layers, "_SLAB_FLOP", 1)
    tool = load_tool()
    cfg = mv.UNetConfig(depth=2, base_channels=8, input_size=64)
    params = {name: (w.astype(np.float32), b.astype(np.float32))
              for name, (w, b) in mv.build(cfg, 0).items()}
    batch = np.random.default_rng(0).random((1, 1, 64, 64), dtype=np.float32)
    mv.forward(params, cfg, batch, want_cache=False)  # first calls fill numpy's own caches
    recorder = tool.PeakRecorder(params, cfg)
    recorder.run(params, cfg, batch)
    c, size, k = cfg.base_channels, cfg.input_size, 3
    inputs = 2 * c * size * size * 4  # the skip and the upsampled array
    rows = layers._chunk_rows(1, 2 * c, k, size)
    held = c * rows * size * 4
    chunk = (2 * c * (rows + k - 1) * (size + k - 1) + 2 * c * k * k * rows * size) * 4 + held
    [peak] = [peak for layer, _, peak in recorder.calls if layer == "dec0.conv1"]
    assert peak <= inputs + 2 * chunk + held + 2 * 16384, (peak, inputs + 2 * chunk + held)
