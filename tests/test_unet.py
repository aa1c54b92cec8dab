import struct

import numpy as np
import pytest

import microvolumetry as mv
from microvolumetry.errors import CheckpointError, ConsistencyError, ShapeError, ValidationError
from microvolumetry.unet import CHECKPOINT_MAGIC, param_shapes

from helpers import HUGE_DEPTH_CHECKPOINT, NON_UTF8_NAME_CHECKPOINT


def independent_parameter_count(depth, base, in_channels=1, classes=3, use_skips=True):
    """Architecture bookkeeping done the long way, as a second opinion."""
    total = 0

    def conv(cout, cin):
        return cout * cin * 9 + cout

    widths = [base * 2**i for i in range(depth + 1)]
    prev = in_channels
    for i in range(depth):
        total += conv(widths[i], prev) + conv(widths[i], widths[i])
        prev = widths[i]
    total += conv(widths[depth], prev) + conv(widths[depth], widths[depth])
    for i in reversed(range(depth)):
        total += widths[i + 1] * widths[i] * 4 + widths[i]  # 2x2 transposed conv
        joined = 2 * widths[i] if use_skips else widths[i]
        total += conv(widths[i], joined) + conv(widths[i], widths[i])
    total += classes * base * 1 + classes  # 1x1 head
    return total


class TestConfig:
    def test_defaults(self):
        cfg = mv.UNetConfig()
        assert cfg.depth == 4 and cfg.base_channels == 64
        assert cfg.input_size == 512 and cfg.output_head == "sigmoid"

    def test_rejects_indivisible_input_size(self):
        with pytest.raises(ValidationError):
            mv.UNetConfig(depth=4, input_size=100)

    def test_rejects_depth_deeper_than_input_size_bits(self):
        # 2^depth is never computed for a depth it could not divide
        with pytest.raises(ValidationError, match="depth 4187545927"):
            mv.UNetConfig(depth=0xF998E147, input_size=512)
        with pytest.raises(ValidationError):
            mv.UNetConfig(depth=10, input_size=512)
        assert mv.UNetConfig(depth=9, input_size=512).depth == 9
        assert mv.UNetConfig(depth=2, input_size=np.int64(16)).depth == 2

    def test_rejects_unknown_head(self):
        with pytest.raises(ValidationError):
            mv.UNetConfig(output_head="tanh", input_size=64)

    def test_rejects_other_class_counts(self):
        with pytest.raises(ValidationError):
            mv.UNetConfig(num_classes=2, input_size=64)


class TestArchitecture:
    def test_depth1_layer_inventory(self):
        # shallowest network: 2 contraction convs, 2 bottleneck convs,
        # 1 upsampling tconv, 2 expansion convs, and the 1x1 head
        shapes = param_shapes(mv.UNetConfig(depth=1, base_channels=8, input_size=16))
        kinds = [kind for kind, _ in shapes.values()]
        assert kinds.count("tconv") == 1
        assert kinds.count("conv") == 7
        assert list(shapes) == [
            "enc0.conv1", "enc0.conv2",
            "bottleneck.conv1", "bottleneck.conv2",
            "dec0.tconv", "dec0.conv1", "dec0.conv2",
            "head",
        ]

    def test_channel_progression(self):
        shapes = param_shapes(mv.UNetConfig(depth=2, base_channels=8, input_size=16))
        assert shapes["enc0.conv1"][1] == (8, 1, 3, 3)
        assert shapes["enc1.conv1"][1] == (16, 8, 3, 3)
        assert shapes["bottleneck.conv1"][1] == (32, 16, 3, 3)
        assert shapes["dec1.tconv"][1] == (32, 16, 2, 2)
        assert shapes["dec1.conv1"][1] == (16, 32, 3, 3)  # skip doubles the input
        assert shapes["dec0.conv1"][1] == (8, 16, 3, 3)
        assert shapes["head"][1] == (3, 8, 1, 1)

    def test_skipless_decoder_is_narrower(self):
        shapes = param_shapes(mv.UNetConfig(depth=2, base_channels=8, input_size=16, use_skips=False))
        assert shapes["dec1.conv1"][1] == (16, 16, 3, 3)

    @pytest.mark.parametrize(
        "depth,base", [(1, 2), (2, 8), (3, 4), (4, 16), (4, 64)]
    )
    def test_parameter_count_matches_independent_tally(self, depth, base):
        cfg = mv.UNetConfig(depth=depth, base_channels=base, input_size=2**depth * 4)
        assert mv.parameter_count(cfg) == independent_parameter_count(depth, base)

    def test_parameter_count_paper_scale(self):
        # hand-summed layer by layer for depth 4, 64 base channels
        cfg = mv.UNetConfig(depth=4, base_channels=64, input_size=512)
        assert mv.parameter_count(cfg) == 31030723

    def test_build_matches_declared_shapes(self):
        cfg = mv.UNetConfig(depth=2, base_channels=4, input_size=16)
        params = mv.build(cfg, seed=0)
        total = sum(w.size + b.size for w, b in params.values())
        assert total == mv.parameter_count(cfg)


class TestBuild:
    def test_deterministic_per_seed(self):
        cfg = mv.UNetConfig(depth=1, base_channels=4, input_size=8)
        a, b = mv.build(cfg, seed=7), mv.build(cfg, seed=7)
        assert all(
            np.array_equal(a[n][0], b[n][0]) and np.array_equal(a[n][1], b[n][1]) for n in a
        )
        c = mv.build(cfg, seed=8)
        assert not np.array_equal(a["enc0.conv1"][0], c["enc0.conv1"][0])

    def test_zero_biases_and_he_scale(self):
        cfg = mv.UNetConfig(depth=1, base_channels=64, input_size=8)
        params = mv.build(cfg, seed=0)
        assert all((b == 0).all() for _, b in params.values())
        w = params["enc0.conv2"][0]  # (64, 64, 3, 3), fan-in 576
        assert abs(w.std() / np.sqrt(2.0 / 576) - 1.0) < 0.05
        assert abs(w.mean()) < 0.01


class TestForwardBackward:
    def test_output_shape_matches_input(self):
        cfg = mv.UNetConfig(depth=2, base_channels=4, input_size=64)
        params = mv.build(cfg, seed=1)
        out, cache = mv.forward(params, cfg, np.random.default_rng(0).random((2, 1, 64, 64)))
        assert out.shape == (2, 3, 64, 64)
        assert cache is not None and "out" in cache

    def test_softmax_head_normalizes(self):
        cfg = mv.UNetConfig(depth=1, base_channels=4, input_size=16, output_head="softmax")
        params = mv.build(cfg, seed=2)
        out, _ = mv.forward(params, cfg, np.random.default_rng(1).random((1, 1, 16, 16)))
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_sigmoid_head_bounded(self):
        cfg = mv.UNetConfig(depth=1, base_channels=4, input_size=16)
        params = mv.build(cfg, seed=2)
        out, _ = mv.forward(params, cfg, np.random.default_rng(1).random((1, 1, 16, 16)))
        assert (out > 0).all() and (out < 1).all()

    def test_want_cache_false_skips_cache_same_output(self):
        cfg = mv.UNetConfig(depth=1, base_channels=4, input_size=16)
        params = mv.build(cfg, seed=3)
        x = np.random.default_rng(2).random((1, 1, 16, 16))
        full, cache = mv.forward(params, cfg, x)
        lean, none = mv.forward(params, cfg, x, want_cache=False)
        assert none is None
        assert np.array_equal(full, lean)

    @pytest.mark.parametrize("head", ["sigmoid", "softmax"])
    def test_float32_params_and_input_stay_float32(self, head):
        cfg = mv.UNetConfig(depth=2, base_channels=2, input_size=16, output_head=head)
        params = {name: (w.astype(np.float32), b.astype(np.float32))
                  for name, (w, b) in mv.build(cfg, seed=4).items()}
        x = np.random.default_rng(3).random((1, 1, 16, 16), dtype=np.float32)
        out, cache = mv.forward(params, cfg, x)
        assert out.dtype == np.float32
        assert all(a.dtype == np.float32 for a in cache["bottleneck"])

    def test_rejects_wrong_input_geometry(self):
        cfg = mv.UNetConfig(depth=1, base_channels=4, input_size=16)
        params = mv.build(cfg, seed=0)
        with pytest.raises(ShapeError):
            mv.forward(params, cfg, np.zeros((1, 1, 8, 8)))
        with pytest.raises(ShapeError):
            mv.forward(params, cfg, np.zeros((1, 2, 16, 16)))

    def test_rejects_foreign_params(self):
        cfg = mv.UNetConfig(depth=1, base_channels=4, input_size=16)
        params = mv.build(cfg, seed=0)
        params.pop("head")
        with pytest.raises(ShapeError):
            mv.forward(params, cfg, np.zeros((1, 1, 16, 16)))

    def test_backward_requires_cache(self):
        cfg = mv.UNetConfig(depth=1, base_channels=4, input_size=16)
        params = mv.build(cfg, seed=0)
        with pytest.raises(ConsistencyError):
            mv.backward(params, cfg, None, np.zeros((1, 3, 16, 16)))

    def test_backward_rejects_mismatched_upstream(self):
        cfg = mv.UNetConfig(depth=1, base_channels=4, input_size=16)
        params = mv.build(cfg, seed=0)
        _, cache = mv.forward(params, cfg, np.zeros((1, 1, 16, 16)))
        with pytest.raises(ConsistencyError):
            mv.backward(params, cfg, cache, np.zeros((1, 3, 8, 8)))

    def test_gradients_mirror_parameters(self):
        cfg = mv.UNetConfig(depth=2, base_channels=2, input_size=16, use_skips=False)
        params = mv.build(cfg, seed=4)
        x = np.random.default_rng(3).random((1, 1, 16, 16))
        out, cache = mv.forward(params, cfg, x)
        target = np.zeros_like(out)
        target[:, 0] = 1.0
        _, d = mv.categorical_cross_entropy(out, target)
        grads = mv.backward(params, cfg, cache, d)
        assert list(grads) == list(params)
        for name in params:
            assert grads[name][0].shape == params[name][0].shape
            assert grads[name][1].shape == params[name][1].shape


class TestCheckpoint:
    def _small(self, **kw):
        cfg = mv.UNetConfig(depth=1, base_channels=4, input_size=16, **kw)
        return cfg, mv.build(cfg, seed=11)

    def test_round_trip_bit_exact(self, tmp_path):
        cfg, params = self._small()
        path = tmp_path / "model.ckpt"
        mv.save_checkpoint(params, cfg, path)
        loaded, cfg2 = mv.load_checkpoint(path)
        assert cfg2 == cfg
        for name in params:
            assert np.array_equal(loaded[name][0], params[name][0])
            assert np.array_equal(loaded[name][1], params[name][1])
        # resaving the loaded model reproduces the file byte for byte
        path2 = tmp_path / "model2.ckpt"
        mv.save_checkpoint(loaded, cfg2, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_header_layout(self, tmp_path):
        cfg, params = self._small(output_head="softmax")
        path = tmp_path / "m.ckpt"
        mv.save_checkpoint(params, cfg, path)
        blob = path.read_bytes()
        assert blob[:8] == CHECKPOINT_MAGIC
        version, depth, base = struct.unpack_from("<III", blob, 8)
        assert (version, depth, base) == (1, 1, 4)
        assert blob[8 + 4 + 24] == 1  # softmax enum byte after config block

    def test_loaded_model_predicts_identically(self, tmp_path):
        cfg, params = self._small()
        x = np.random.default_rng(5).random((1, 1, 16, 16))
        before, _ = mv.forward(params, cfg, x, want_cache=False)
        path = tmp_path / "m.ckpt"
        mv.save_checkpoint(params, cfg, path)
        loaded, cfg2 = mv.load_checkpoint(path)
        after, _ = mv.forward(loaded, cfg2, x, want_cache=False)
        assert np.array_equal(before, after)

    def test_expected_config_guard(self, tmp_path):
        cfg, params = self._small()
        path = tmp_path / "m.ckpt"
        mv.save_checkpoint(params, cfg, path)
        other = mv.UNetConfig(depth=1, base_channels=8, input_size=16)
        with pytest.raises(CheckpointError):
            mv.load_checkpoint(path, expected_config=other)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            mv.load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        cfg, params = self._small()
        path = tmp_path / "m.ckpt"
        mv.save_checkpoint(params, cfg, path)
        blob = bytearray(path.read_bytes())
        blob[8:12] = struct.pack("<I", 9)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            mv.load_checkpoint(path)

    def test_truncated_header_names_offset(self, tmp_path):
        cfg, params = self._small()
        path = tmp_path / "m.ckpt"
        mv.save_checkpoint(params, cfg, path)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(CheckpointError, match="byte"):
            mv.load_checkpoint(path)

    def test_truncated_payload_detected(self, tmp_path):
        cfg, params = self._small()
        path = tmp_path / "m.ckpt"
        mv.save_checkpoint(params, cfg, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CheckpointError, match="payload"):
            mv.load_checkpoint(path)

    def test_huge_depth_is_a_checkpoint_error(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(HUGE_DEPTH_CHECKPOINT)
        with pytest.raises(CheckpointError, match="config block"):
            mv.load_checkpoint(path)

    def test_non_utf8_tensor_name_is_a_checkpoint_error(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(NON_UTF8_NAME_CHECKPOINT)
        with pytest.raises(CheckpointError, match="entry 0 name at byte 45"):
            mv.load_checkpoint(path)

    def test_skipless_config_round_trips(self, tmp_path):
        cfg, params = self._small(use_skips=False)
        path = tmp_path / "m.ckpt"
        mv.save_checkpoint(params, cfg, path)
        _, cfg2 = mv.load_checkpoint(path)
        assert cfg2.use_skips is False
