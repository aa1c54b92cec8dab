import numpy as np
import pytest

import microvolumetry.layers as L
from helpers import conv_backward_reference
from microvolumetry.errors import ShapeError, ValidationError
from microvolumetry.layers import ConvSpec


class TestConvSpec:
    def test_same_padding_default(self):
        spec = ConvSpec(1, 4)
        assert spec.kernel == 3 and spec.padding == 1
        assert spec.out_size(16, 16) == (16, 16)

    def test_explicit_padding_and_stride(self):
        spec = ConvSpec(1, 1, kernel=2, stride=2, padding=0)
        assert spec.out_size(4, 6) == (2, 3)

    def test_rejects_bad_values(self):
        with pytest.raises(ValidationError):
            ConvSpec(0, 1)
        with pytest.raises(ValidationError):
            ConvSpec(1, 1, kernel=0)
        with pytest.raises(ValidationError):
            ConvSpec(1, 1, stride=0)
        with pytest.raises(ValidationError):
            ConvSpec(1, 1, kernel=2)  # even kernel has no symmetric same padding


class TestConvForward:
    def test_ones_kernel_sums_windows(self):
        # 3x3 ramp 0..8 under a 2x2 ones kernel, valid placement:
        # 0+1+3+4=8, 1+2+4+5=12, 3+4+6+7=20, 4+5+7+8=24
        x = np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3)
        w = np.ones((1, 1, 2, 2))
        out = L.conv2d_forward(x, w, np.zeros(1), ConvSpec(1, 1, kernel=2, padding=0))
        assert np.array_equal(out[0, 0], [[8.0, 12.0], [20.0, 24.0]])

    def test_correlation_orientation(self):
        # kernel with a single 1 at (0,0) picks x[y, x], not the flipped tap;
        # a flipped (true convolution) implementation would return 4 here
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        w = np.zeros((1, 1, 2, 2))
        w[0, 0, 0, 0] = 1.0
        out = L.conv2d_forward(x, w, np.zeros(1), ConvSpec(1, 1, kernel=2, padding=0))
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 1.0

    def test_delta_kernel_is_identity_with_same_padding(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 1, 5, 5))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = L.conv2d_forward(x, w, np.zeros(1), ConvSpec(1, 1))
        assert np.allclose(out, x, atol=1e-15)

    def test_bias_broadcasts_per_output_channel(self):
        x = np.zeros((1, 2, 4, 4))
        w = np.zeros((3, 2, 3, 3))
        b = np.array([1.0, -2.0, 0.5])
        out = L.conv2d_forward(x, w, b, ConvSpec(2, 3))
        for o in range(3):
            assert (out[0, o] == b[o]).all()

    def test_stride_two_block_sums(self):
        # disjoint 2x2 blocks of the 0..15 ramp: 0+1+4+5=10, 2+3+6+7=18,
        # 8+9+12+13=42, 10+11+14+15=50
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        w = np.ones((1, 1, 2, 2))
        out = L.conv2d_forward(x, w, np.zeros(1), ConvSpec(1, 1, kernel=2, stride=2, padding=0))
        assert np.array_equal(out[0, 0], [[10.0, 18.0], [42.0, 50.0]])

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            L.conv2d_forward(np.zeros((1, 2, 4, 4)), np.zeros((3, 1, 3, 3)), np.zeros(3), ConvSpec(1, 3))
        with pytest.raises(ShapeError):
            L.conv2d_forward(np.zeros((1, 1, 4, 4)), np.zeros((3, 1, 3, 3)), np.zeros(2), ConvSpec(1, 3))


class TestConvOracle:
    @pytest.mark.parametrize("seed", range(5))
    def test_fast_matches_naive_same_padding(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, 4, 16, 16))
        w = rng.standard_normal((3, 4, 3, 3))
        b = rng.standard_normal(3)
        spec = ConvSpec(4, 3)
        fast = L.conv2d_forward(x, w, b, spec)
        naive = L.conv2d_forward_naive(x, w, b, spec)
        assert np.abs(fast - naive).max() < 1e-12

    @pytest.mark.parametrize(
        "shape,kernel,stride,padding",
        [
            ((1, 1, 5, 5), 3, 1, 0),
            ((2, 2, 9, 9), 3, 2, 1),
            ((1, 3, 8, 8), 1, 1, 0),
            ((2, 1, 6, 6), 5, 1, 2),
            ((1, 2, 4, 5), 3, 1, 3),
            ((1, 1, 5, 5), 3, 2, 4),
        ],
    )
    def test_fast_matches_naive_other_geometries(self, shape, kernel, stride, padding):
        rng = np.random.default_rng(99)
        x = rng.standard_normal(shape)
        w = rng.standard_normal((2, shape[1], kernel, kernel))
        b = rng.standard_normal(2)
        spec = ConvSpec(shape[1], 2, kernel=kernel, stride=stride, padding=padding)
        fast = L.conv2d_forward(x, w, b, spec)
        naive = L.conv2d_forward_naive(x, w, b, spec)
        assert fast.shape == naive.shape
        assert np.abs(fast - naive).max() < 1e-12


def _conv_case(seed, shape, kernel, padding, out_channels=3):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    w = rng.standard_normal((out_channels, shape[1], kernel, kernel))
    b = rng.standard_normal(out_channels)
    spec = ConvSpec(shape[1], out_channels, kernel=kernel, padding=padding)
    d = rng.standard_normal((shape[0], out_channels) + spec.out_size(*shape[2:]))
    return x, w, b, spec, d


class TestConvBackward:
    @pytest.mark.parametrize(
        "kernel,padding", [(k, p) for k in (1, 3, 5) for p in range(k // 2 + 1)]
    )
    def test_matches_reference(self, kernel, padding):
        x, w, _, spec, d = _conv_case(kernel + padding, (2, 4, 9, 7), kernel, padding)
        got = L.conv2d_backward(x, w, spec, d)
        for a, b in zip(got, conv_backward_reference(x, w, padding, d)):
            assert a.shape == b.shape
            assert np.abs(a - b).max() < 1e-12

    @pytest.mark.parametrize("kernel,padding", [(1, 1), (3, 3), (3, 4)])
    def test_padding_beyond_kernel_crops(self, kernel, padding):
        # outputs that see only padding carry no gradient back to the input
        x, w, _, spec, d = _conv_case(7, (1, 2, 5, 6), kernel, padding)
        got = L.conv2d_backward(x, w, spec, d)
        for a, b in zip(got, conv_backward_reference(x, w, padding, d)):
            assert a.shape == b.shape
            assert np.abs(a - b).max() < 1e-12

    def test_rejects_stride_above_one(self):
        spec = ConvSpec(1, 1, kernel=2, stride=2, padding=0)
        with pytest.raises(ValidationError, match="stride"):
            L.conv2d_backward(np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 2, 2)), spec,
                              np.zeros((1, 1, 2, 2)))


class TestChunkedConv:
    """A 512x512 slice splits its im2col columns into row chunks; force that small."""

    # two images x 3 channels x 3x3 taps: one row of 8 output columns, or two of 4
    CHUNK_BYTES = 2 * 3 * 9 * 8 * 8

    @pytest.fixture
    def tiny_chunks(self, monkeypatch):
        monkeypatch.setattr(L, "_COL_CHUNK_BYTES", self.CHUNK_BYTES)

    @pytest.mark.parametrize("stride,padding", [(1, 1), (1, 0), (2, 1), (2, 2)])
    def test_forward_matches_naive(self, tiny_chunks, stride, padding):
        rng = np.random.default_rng(stride + padding)
        x = rng.standard_normal((2, 3, 10, 8))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        spec = ConvSpec(3, 4, stride=stride, padding=padding)
        ho, wo = spec.out_size(10, 8)
        assert L._chunk_rows(2, 3, 3, wo) < ho
        fast = L.conv2d_forward(x, w, b, spec)
        assert np.abs(fast - L.conv2d_forward_naive(x, w, b, spec)).max() < 1e-12

    def test_backward_matches_single_chunk(self, monkeypatch):
        x, w, _, spec, d = _conv_case(3, (2, 3, 10, 8), 3, 1, out_channels=4)
        whole = L.conv2d_backward(x, w, spec, d)
        monkeypatch.setattr(L, "_COL_CHUNK_BYTES", self.CHUNK_BYTES)
        assert L._chunk_rows(2, 3, 3, 8) == 1 and L._chunk_rows(2, 4, 3, 8) == 1
        chunked = L.conv2d_backward(x, w, spec, d)
        for a, b in zip(chunked, whole):
            assert np.abs(a - b).max() < 1e-12


def reference_patches(x, k, stride, p, ho, wo):
    """The (N, C*k*k, ho*wo) patch matrix from an explicitly padded (or cropped) copy of x."""
    n, c, h, w = x.shape
    if p >= 0:
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    else:
        xp = x[:, :, -p : h + p, -p : w + p]
    col = np.empty((n, c, k, k, ho, wo), dtype=x.dtype)
    for dy in range(k):
        for dx in range(k):
            col[:, :, dy, dx] = xp[:, :, dy : dy + (ho - 1) * stride + 1 : stride,
                                   dx : dx + (wo - 1) * stride + 1 : stride]
    return col.reshape(n, c * k * k, ho * wo)


class TestPatches:
    """`_patches` row by row equals the patch matrix of a padded copy, bit for bit."""

    GEOMETRIES = [(k, 1, p) for k in (1, 3, 5) for p in range(-2, k + 2)] + [
        (k, 2, p) for k in (1, 3, 5) for p in range(k + 2)
    ]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("k,stride,p", GEOMETRIES)
    def test_one_row_chunks_equal_padded_reference(self, monkeypatch, k, stride, p, dtype):
        monkeypatch.setattr(L, "_COL_CHUNK_BYTES", 1)
        x = np.random.default_rng(k * 10 + p + 2).standard_normal((2, 3, 11, 9)).astype(dtype)
        ho, wo = (11 + 2 * p - k) // stride + 1, (9 + 2 * p - k) // stride + 1
        chunks = [(cols_at, cols.copy()) for cols_at, cols in L._patches(x, k, stride, p, ho, wo)]
        assert [cols_at for cols_at, _ in chunks] == [slice(r * wo, (r + 1) * wo) for r in range(ho)]
        got = np.concatenate([cols for _, cols in chunks], axis=2)
        assert got.dtype == dtype
        assert np.array_equal(got, reference_patches(x, k, stride, p, ho, wo))

    @pytest.mark.parametrize("k,stride,p", [(3, 1, 1), (3, 1, 4), (5, 1, -2), (3, 2, 1), (5, 2, 4)])
    def test_uneven_chunks_equal_padded_reference(self, monkeypatch, k, stride, p):
        """Chunks of four rows over 11 or fewer: the smaller last chunk reuses the
        first chunk's band and buffer, and padding rows are zeroed again."""
        x = np.random.default_rng(k + p + 7).standard_normal((2, 3, 11, 9))
        ho, wo = (11 + 2 * p - k) // stride + 1, (9 + 2 * p - k) // stride + 1
        monkeypatch.setattr(L, "_COL_CHUNK_BYTES", 4 * 2 * 3 * k * k * wo * 8)
        chunks = [(cols_at, cols.copy()) for cols_at, cols in L._patches(x, k, stride, p, ho, wo)]
        assert [cols_at.start for cols_at, _ in chunks] == list(range(0, ho * wo, 4 * wo))
        got = np.concatenate([cols for _, cols in chunks], axis=2)
        assert np.array_equal(got, reference_patches(x, k, stride, p, ho, wo))

    def test_chunks_share_one_buffer(self, monkeypatch):
        monkeypatch.setattr(L, "_COL_CHUNK_BYTES", 1)
        x = np.random.default_rng(0).standard_normal((2, 3, 11, 9))
        chunks = [cols for _, cols in L._patches(x, 3, 1, 1, 11, 9)]
        assert len(chunks) == 11
        assert all(np.shares_memory(a, b) for a, b in zip(chunks, chunks[1:]))


class TestFloat32Conv:
    """float32 inputs stay float32 and agree with the float64 oracle to float32 roundoff."""

    # criterion 3's geometries
    SPECS = [
        ConvSpec(in_channels=4, out_channels=3, kernel=3),
        ConvSpec(in_channels=4, out_channels=2, kernel=3, stride=2, padding=0),
        ConvSpec(in_channels=2, out_channels=5, kernel=1),
        ConvSpec(in_channels=4, out_channels=2, kernel=5, padding=2),
    ]

    @staticmethod
    def _check(spec, shape, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(shape)
        w = rng.standard_normal((spec.out_channels, spec.in_channels, spec.kernel, spec.kernel))
        b = rng.standard_normal(spec.out_channels)
        ref = L.conv2d_forward_naive(x, w, b, spec)
        fast = L.conv2d_forward(*(a.astype(np.float32) for a in (x, w, b)), spec)
        assert fast.dtype == np.float32
        assert np.abs(fast - ref).max() <= 1e-5 * np.abs(ref).max()

    @pytest.mark.parametrize("index", range(4))
    def test_matches_float64_oracle(self, index):
        spec = self.SPECS[index]
        self._check(spec, (2, spec.in_channels, 16, 16), seed=index)

    def test_chunked_matches_float64_oracle(self, monkeypatch):
        monkeypatch.setattr(L, "_COL_CHUNK_BYTES", TestChunkedConv.CHUNK_BYTES)
        assert L._chunk_rows(2, 3, 3, 8) == 1
        self._check(ConvSpec(3, 4), (2, 3, 10, 8), seed=9)


class TestMaxPool:
    def _grad_at(self, x):
        """Where backward sends a unit upstream gradient from each window."""
        d = L.maxpool2_backward(x, np.ones((1, 1, x.shape[2] // 2, x.shape[3] // 2)))
        return np.argwhere(d[0, 0] == 1.0).tolist()

    def test_values_and_first_occurrence_ties(self):
        x = np.array(
            [
                [5.0, 5.0, 1.0, 0.0],
                [1.0, 2.0, 0.0, 1.0],
                [0.0, 0.0, 3.0, 3.0],
                [4.0, 0.0, 3.0, 3.0],
            ]
        ).reshape(1, 1, 4, 4)
        out = L.maxpool2_forward(x)
        assert np.array_equal(out[0, 0], [[5.0, 1.0], [4.0, 3.0]])
        # ties take the first window entry in row-major order
        assert self._grad_at(x) == [[0, 0], [0, 2], [2, 2], [3, 0]]

    def test_signed_zero_tie_keeps_the_first_zero(self):
        x = np.array([[0.0, -0.0], [-0.0, -0.0], [-0.0, 0.0], [0.0, 0.0]]).reshape(1, 1, 4, 2)
        out = L.maxpool2_forward(x)
        assert np.signbit(out[0, 0, :, 0]).tolist() == [False, True]
        assert self._grad_at(x) == [[0, 0], [2, 0]]

    def test_nan_wins_its_window(self):
        x = np.array([[1.0, np.nan], [np.nan, 2.0]]).reshape(1, 1, 2, 2)
        out = L.maxpool2_forward(x)
        assert np.isnan(out[0, 0, 0, 0])
        # the gradient goes to the first NaN
        assert self._grad_at(x) == [[0, 1]]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_forward_matches_window_argmax(self, dtype):
        rng = np.random.default_rng(5)
        x = rng.choice(np.array([0.0, 1.0, 2.0, np.nan], dtype=dtype), size=(2, 3, 6, 8))
        windows = x.reshape(2, 3, 3, 2, 4, 2).transpose(0, 1, 2, 4, 3, 5).reshape(2, 3, 3, 4, 4)
        first = np.take_along_axis(windows, windows.argmax(-1)[..., None], -1)[..., 0]
        out = L.maxpool2_forward(x)
        assert out.dtype == dtype
        assert out.tobytes() == first.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_backward_matches_window_argmax_scatter(self, dtype):
        rng = np.random.default_rng(6)
        x = rng.choice(np.array([0.0, -0.0, 1.0, np.nan], dtype=dtype), size=(2, 3, 6, 8))
        d = rng.standard_normal((2, 3, 3, 4)).astype(dtype)
        windows = x.reshape(2, 3, 3, 2, 4, 2).transpose(0, 1, 2, 4, 3, 5).reshape(2, 3, 3, 4, 4)
        expected = np.zeros_like(windows)
        np.put_along_axis(expected, windows.argmax(-1)[..., None], d[..., None], -1)
        expected = expected.reshape(2, 3, 3, 4, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(x.shape)
        assert L.maxpool2_backward(x, d).tobytes() == expected.tobytes()

    def test_gradient_routes_to_argmax(self):
        x = np.array([[1.0, 2.0], [3.0, 0.0]]).reshape(1, 1, 2, 2)
        d = L.maxpool2_backward(x, np.full((1, 1, 1, 1), 7.0))
        assert np.array_equal(d[0, 0], [[0.0, 0.0], [7.0, 0.0]])

    def test_rejects_odd_extent(self):
        with pytest.raises(ShapeError):
            L.maxpool2_forward(np.zeros((1, 1, 5, 4)))
        with pytest.raises(ShapeError):
            L.maxpool2_backward(np.zeros((1, 1, 4, 5)), np.zeros((1, 1, 2, 2)))

    @pytest.mark.parametrize("d_shape", [(1, 1, 2, 2), (1, 1, 1, 2), (1, 2, 1, 1), (2, 1, 1, 1)])
    def test_backward_rejects_d_output_not_half_of_x(self, d_shape):
        with pytest.raises(ShapeError):
            L.maxpool2_backward(np.zeros((1, 1, 2, 2)), np.ones(d_shape))


def test_float32_backward_kernels_return_float32():
    rng = np.random.default_rng(0)

    def f32(*shape):
        return rng.standard_normal(shape).astype(np.float32)

    x = f32(2, 3, 8, 8)
    conv = L.conv2d_backward(x, f32(4, 3, 3, 3), ConvSpec(3, 4), f32(2, 4, 8, 8))
    tconv = L.tconv2_backward(x, f32(3, 2, 2, 2), f32(2, 2, 16, 16))
    pool = L.maxpool2_backward(x, f32(2, 3, 4, 4))
    assert [a.dtype for a in (*conv, *tconv, pool)] == [np.float32] * 7


class TestTransposedConv:
    def test_single_pixel_paints_kernel(self):
        x = np.full((1, 1, 1, 1), 3.0)
        w = np.array([[[[1.0, 2.0], [3.0, 4.0]], [[-1.0, 0.0], [0.5, 1.0]]]])  # (1,2,2,2)
        b = np.array([0.5, -1.0])
        out = L.tconv2_forward(x, w, b)
        assert out.shape == (1, 2, 2, 2)
        assert np.allclose(out[0, 0], 3.0 * w[0, 0] + 0.5)
        assert np.allclose(out[0, 1], 3.0 * w[0, 1] - 1.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_naive_loop(self, seed):
        from helpers import naive_tconv

        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, 3, 4, 5))
        w = rng.standard_normal((3, 2, 2, 2))
        b = rng.standard_normal(2)
        assert np.abs(L.tconv2_forward(x, w, b) - naive_tconv(x, w, b)).max() < 1e-12

    def test_output_doubles_spatial_extents(self):
        out = L.tconv2_forward(np.zeros((1, 2, 3, 7)), np.zeros((2, 4, 2, 2)), np.zeros(4))
        assert out.shape == (1, 4, 6, 14)

    def test_bias_gradient_sums_output_pixels(self):
        x = np.zeros((2, 1, 3, 3))
        w = np.zeros((1, 2, 2, 2))
        g = L.tconv2_backward(x, w, np.ones((2, 2, 6, 6)))
        assert np.array_equal(g.d_bias, [72.0, 72.0])  # 2 * 6 * 6

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            L.tconv2_forward(np.zeros((1, 3, 4, 4)), np.zeros((2, 4, 2, 2)), np.zeros(4))


class TestActivations:
    def test_relu(self):
        x = np.array([-1.0, 0.0, 2.0])
        assert np.array_equal(L.relu(x), [0.0, 0.0, 2.0])

    def test_relu_backward_zero_at_kink(self):
        x = np.array([-1.0, 0.0, 2.0])
        d = L.relu_backward(x, np.ones(3))
        assert np.array_equal(d, [0.0, 0.0, 1.0])

    def test_sigmoid_midpoint_and_saturation(self):
        assert L.sigmoid(np.zeros(1))[0] == 0.5
        big = L.sigmoid(np.array([1000.0, -1000.0]))
        assert big[0] == 1.0 and big[1] == 0.0
        assert np.isfinite(big).all()

    def test_sigmoid_backward_uses_output(self):
        out = L.sigmoid(np.array([0.0]))
        d = L.sigmoid_backward(out, np.ones(1))
        assert abs(d[0] - 0.25) < 1e-15  # s(1-s) at s=0.5

    def test_softmax_known_values(self):
        # scores (ln1, ln2, ln1) normalize to (0.25, 0.5, 0.25)
        x = np.log(np.array([1.0, 2.0, 1.0])).reshape(1, 3, 1, 1)
        out = L.softmax_channel(x)
        assert np.allclose(out.ravel(), [0.25, 0.5, 0.25], atol=1e-12)

    def test_softmax_sums_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 3, 4, 4))
        out = L.softmax_channel(x)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert np.allclose(L.softmax_channel(x + 123.0), out, atol=1e-9)

    def test_softmax_survives_extreme_scores(self):
        x = np.array([1000.0, 0.0, -1000.0]).reshape(1, 3, 1, 1)
        out = L.softmax_channel(x)
        assert np.isfinite(out).all()
        assert abs(out[0, 0, 0, 0] - 1.0) < 1e-12


class TestConcatSplit:
    def test_round_trip(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((1, 2, 4, 4))
        b = rng.standard_normal((1, 3, 4, 4))
        joined = L.concat_channels(a, b)
        assert joined.shape == (1, 5, 4, 4)
        a2, b2 = L.split_channels(joined, 2)
        assert np.array_equal(a2, a) and np.array_equal(b2, b)

    def test_spatial_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            L.concat_channels(np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 2, 2)))
        with pytest.raises(ShapeError):
            L.split_channels(np.zeros((1, 2, 4, 4)), 2)


class TestCrossEntropy:
    def _one_hot(self, labels):
        return (labels[:, None] == np.arange(3)[None, :, None, None]).astype(np.float64)

    def test_uniform_prediction_costs_ln3(self):
        pred = np.full((1, 3, 2, 2), 1.0 / 3.0)
        target = self._one_hot(np.zeros((1, 2, 2), dtype=int))
        loss, _ = L.categorical_cross_entropy(pred, target)
        assert abs(loss - np.log(3.0)) < 1e-12

    def test_perfect_prediction_costs_nearly_nothing(self):
        labels = np.array([[[0, 1], [2, 1]]])
        target = self._one_hot(labels)
        loss, _ = L.categorical_cross_entropy(target.copy(), target)
        assert 0.0 <= loss < 1e-6

    def test_hard_zero_and_one_stay_finite(self):
        pred = self._one_hot(np.array([[[1, 1], [1, 1]]]))
        target = self._one_hot(np.array([[[0, 0], [0, 0]]]))
        loss, d = L.categorical_cross_entropy(pred, target)
        assert np.isfinite(loss) and np.isfinite(d).all()

    def test_gradient_pushes_up_true_class(self):
        pred = np.full((1, 3, 1, 1), 1.0 / 3.0)
        target = self._one_hot(np.array([[[2]]]))
        _, d = L.categorical_cross_entropy(pred, target)
        assert d[0, 2, 0, 0] < 0  # descending along d raises the true-class score

    def test_rejects_non_one_hot_targets(self):
        pred = np.full((1, 3, 1, 1), 1.0 / 3.0)
        soft = np.full((1, 3, 1, 1), 1.0 / 3.0)
        with pytest.raises(ValidationError):
            L.categorical_cross_entropy(pred, soft)
        two_hot = np.zeros((1, 3, 1, 1))
        two_hot[0, 0] = two_hot[0, 1] = 1.0
        with pytest.raises(ValidationError):
            L.categorical_cross_entropy(pred, two_hot)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ShapeError):
            L.categorical_cross_entropy(np.zeros((1, 3, 2, 2)), np.zeros((1, 3, 2, 3)))
