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
