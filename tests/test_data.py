import errno
import io
import os

import numpy as np
import pytest

import microvolumetry as mv
import microvolumetry.data as data_mod
from microvolumetry.data import (
    ANNULUS_OUTER_FRACTION,
    BACKGROUND_BAND,
    BONE_BAND,
    IMPLANT_BAND,
    MAXVAL,
)
from microvolumetry.errors import DataMismatchError, PgmFormatError, ValidationError

from helpers import EIGHT_BIT_IMAGE


class TestPgmBytes:
    def test_image_writer_emits_big_endian_16bit(self, tmp_path):
        # 258 = 0x0102 and 1 = 0x0001, most significant byte first per PNM
        path = tmp_path / "px.pgm"
        mv.write_pgm(np.array([[258, 1]], dtype=np.uint16), path)
        assert path.read_bytes() == b"P5\n2 1\n65535\n\x01\x02\x00\x01"

    def test_mask_writer_emits_single_bytes(self, tmp_path):
        path = tmp_path / "m.pgm"
        mv.write_pgm(np.array([[0, 1], [2, 0]], dtype=np.uint8), path)
        assert path.read_bytes() == b"P5\n2 2\n2\n\x00\x01\x02\x00"

    def test_reader_handles_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5 # a comment\n# another\n 2\t1 \n255\n\x07\xff")
        img = mv.read_pgm(path)
        assert img.dtype == np.uint16
        assert np.array_equal(img, [[7, 255]])

    def test_image_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.integers(0, MAXVAL + 1, (9, 13)).astype(np.uint16)
        mv.write_pgm(img, tmp_path / "r.pgm")
        assert np.array_equal(mv.read_pgm(tmp_path / "r.pgm"), img)

    def test_mask_round_trip(self, tmp_path):
        mask = np.random.default_rng(1).integers(0, 3, (6, 4)).astype(np.uint8)
        mv.write_pgm(mask, tmp_path / "m.pgm")
        assert np.array_equal(mv.read_mask(tmp_path / "m.pgm"), mask)

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P6\n1 1\n255\n\x00")
        with pytest.raises(PgmFormatError, match="magic"):
            mv.read_pgm(path)

    def test_rejects_truncated_payload_with_offset(self, tmp_path):
        path = tmp_path / "cut.pgm"
        path.write_bytes(b"P5\n2 2\n255\n\x00\x01")
        with pytest.raises(PgmFormatError, match="byte"):
            mv.read_pgm(path)

    def test_rejects_zero_and_oversize_maxval(self, tmp_path):
        for maxval in (0, 70000):
            path = tmp_path / f"mv{maxval}.pgm"
            path.write_bytes(f"P5\n1 1\n{maxval}\n".encode() + b"\x00\x00")
            with pytest.raises(PgmFormatError, match="maxval"):
                mv.read_pgm(path)

    def test_rejects_garbage_header(self, tmp_path):
        path = tmp_path / "g.pgm"
        path.write_bytes(b"P5\nwide 1\n255\n\x00")
        with pytest.raises(PgmFormatError):
            mv.read_pgm(path)
        path.write_bytes(b"P5")
        with pytest.raises(PgmFormatError):
            mv.read_pgm(path)

    def test_required_maxval_rejects_other_bit_depths(self, tmp_path):
        path = tmp_path / "eight.pgm"
        path.write_bytes(EIGHT_BIT_IMAGE)
        assert np.array_equal(mv.read_pgm(path), [[255, 0], [128, 7]])
        with pytest.raises(PgmFormatError, match=r"eight\.pgm: maxval 255, expected 65535"):
            mv.read_pgm(path, maxval=MAXVAL)
        mv.write_pgm(np.array([[1, 2]], dtype=np.uint16), path)
        assert np.array_equal(mv.read_pgm(path, maxval=MAXVAL), [[1, 2]])

    def test_read_mask_rejects_stray_labels(self, tmp_path):
        path = tmp_path / "m3.pgm"
        path.write_bytes(b"P5\n2 1\n255\n\x01\x03")
        with pytest.raises(ValidationError):
            mv.read_mask(path)

    def test_write_rejects_wrong_dtype_and_rank(self, tmp_path):
        with pytest.raises(ValidationError):
            mv.write_pgm(np.zeros((2, 2), dtype=np.float64), tmp_path / "f.pgm")
        with pytest.raises(ValidationError):
            mv.write_pgm(np.zeros(4, dtype=np.uint16), tmp_path / "f.pgm")
        with pytest.raises(ValidationError):
            mv.write_pgm(np.array([[3]], dtype=np.uint8), tmp_path / "f.pgm")


class TestOneHot:
    def test_shape_and_channel_sums(self):
        mask = np.random.default_rng(5).integers(0, 3, (8, 8)).astype(np.uint8)
        oh = mv.encode_one_hot(mask)
        assert oh.shape == (1, 3, 8, 8)
        assert oh.dtype == np.float64
        assert (oh.sum(axis=1) == 1.0).all()

    def test_round_trip_through_argmax(self):
        mask = np.random.default_rng(6).integers(0, 3, (8, 8)).astype(np.uint8)
        oh = mv.encode_one_hot(mask)
        assert np.array_equal(mv.argmax_channel(oh)[0], mask)

    def test_rejects_foreign_labels(self):
        with pytest.raises(ValidationError):
            mv.encode_one_hot(np.array([[0, 3]], dtype=np.uint8))


class TestSplit:
    def test_paper_rule_on_100(self):
        split = mv.split_dataset(list(range(100)), "paper_95_5", seed=0)
        assert len(split.train) == 95 and len(split.validation) == 5

    def test_partition_is_disjoint_and_complete(self):
        items = list(range(37))
        split = mv.split_dataset(items, 0.2, seed=1)
        assert sorted(split.train + split.validation) == items

    def test_deterministic_per_seed(self):
        a = mv.split_dataset(list(range(20)), "paper_95_5", seed=9)
        b = mv.split_dataset(list(range(20)), "paper_95_5", seed=9)
        assert a.train == b.train and a.validation == b.validation
        c = mv.split_dataset(list(range(20)), "paper_95_5", seed=10)
        assert a.validation != c.validation or a.train != c.train

    def test_validation_count_never_below_one(self):
        split = mv.split_dataset(list(range(4)), "paper_95_5", seed=0)
        assert len(split.validation) == 1

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValidationError):
            mv.split_dataset([1], "paper_95_5", seed=0)
        with pytest.raises(ValidationError):
            mv.split_dataset(list(range(10)), 0.95, seed=0)  # rounds to all-validation
        with pytest.raises(ValidationError):
            mv.split_dataset(list(range(10)), "half", seed=0)
        with pytest.raises(ValidationError):
            mv.split_dataset(list(range(10)), 1.5, seed=0)


class TestPhantom:
    def test_deterministic_per_seed(self):
        spec = mv.PhantomSpec(size=48, seed=12)
        a_img, a_mask = mv.generate_phantom(spec)
        b_img, b_mask = mv.generate_phantom(spec)
        assert np.array_equal(a_img, b_img) and np.array_equal(a_mask, b_mask)
        c_img, _ = mv.generate_phantom(mv.PhantomSpec(size=48, seed=13))
        assert not np.array_equal(a_img, c_img)

    def test_geometry_and_labels(self):
        img, mask = mv.generate_phantom(mv.PhantomSpec(size=64, seed=3))
        assert img.shape == mask.shape == (64, 64)
        assert img.dtype == np.uint16 and mask.dtype == np.uint8
        assert set(np.unique(mask)) == {0, 1, 2}
        # the implant disk is a filled blob of plausible area for r = 0.18*size
        area = (mask == 2).sum()
        assert 0.7 * np.pi * (0.18 * 64) ** 2 < area < 1.3 * np.pi * (0.18 * 64) ** 2

    def test_intensity_bands_separate_classes(self):
        img, mask = mv.generate_phantom(mv.PhantomSpec(size=64, seed=4, noise_sigma=0.0))
        scale = float(MAXVAL)
        implant = img[mask == 2] / scale
        bone = img[mask == 1] / scale
        assert implant.min() >= IMPLANT_BAND[0] - 1e-9
        assert bone.min() >= BONE_BAND[0] - 1e-9
        # streaks may brighten a few labeled-bone pixels, so compare means
        assert implant.mean() > bone.mean() > (img[mask == 0] / scale).mean()

    def test_streaks_inflate_threshold_counts(self):
        # bright unlabeled artifacts make a bone-band threshold overcount
        spec = mv.PhantomSpec(size=64, seed=5, artifact_streaks=6)
        img, mask = mv.generate_phantom(spec)
        threshold = BONE_BAND[0] * MAXVAL
        assert (img >= threshold).sum() > (mask == 1).sum()

    def test_density_knob_controls_bone_fraction(self):
        thin = mv.generate_phantom(mv.PhantomSpec(size=64, seed=6, bone_density=0.2))[1]
        thick = mv.generate_phantom(mv.PhantomSpec(size=64, seed=6, bone_density=0.8))[1]
        assert (thick == 1).sum() > 2 * (thin == 1).sum()

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            mv.PhantomSpec(size=4)
        with pytest.raises(ValidationError):
            mv.PhantomSpec(size=64, implant_radius=0.6)
        with pytest.raises(ValidationError):
            mv.PhantomSpec(size=64, bone_density=1.5)
        with pytest.raises(ValidationError):
            mv.PhantomSpec(size=64, noise_sigma=-0.1)
        with pytest.raises(ValidationError):
            mv.PhantomSpec(size=64, artifact_streaks=-1)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_spec_rejects_non_finite_noise(self, sigma):
        with pytest.raises(ValidationError, match="noise_sigma"):
            mv.PhantomSpec(size=64, noise_sigma=sigma)

    def test_background_band_constant_is_honored(self):
        img, mask = mv.generate_phantom(
            mv.PhantomSpec(size=64, seed=7, noise_sigma=0.0, artifact_streaks=0)
        )
        background = img[mask == 0] / MAXVAL
        assert background.max() <= BACKGROUND_BAND[1] + 1e-9
        assert ANNULUS_OUTER_FRACTION == 0.45


class TestDataset:
    def test_make_dataset_layout(self, tmp_path):
        pairs = mv.make_dataset(tmp_path, 3, mv.PhantomSpec(size=16), seed=2)
        assert len(pairs) == 3
        manifest = (tmp_path / "manifest.txt").read_text()
        lines = manifest.splitlines()
        assert lines[0] == "images/phantom_00000.pgm\tmasks/phantom_00000.pgm"
        assert len(lines) == 3
        for img_path, mask_path in pairs:
            assert img_path.is_file() and mask_path.is_file()

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        mv.make_dataset(a, 2, mv.PhantomSpec(size=16), seed=3)
        mv.make_dataset(b, 2, mv.PhantomSpec(size=16), seed=3)
        for rel in ["manifest.txt", "images/phantom_00001.pgm", "masks/phantom_00001.pgm"]:
            assert (a / rel).read_bytes() == (b / rel).read_bytes()

    def test_items_vary_within_dataset(self, tmp_path):
        pairs = mv.make_dataset(tmp_path, 2, mv.PhantomSpec(size=16), seed=4)
        assert not np.array_equal(mv.read_pgm(pairs[0][0]), mv.read_pgm(pairs[1][0]))

    def test_load_manifest_round_trip(self, tmp_path):
        made = mv.make_dataset(tmp_path, 3, mv.PhantomSpec(size=16), seed=5)
        loaded = mv.load_manifest(tmp_path)
        assert loaded == made

    def test_load_manifest_rejects_missing_pieces(self, tmp_path):
        with pytest.raises(DataMismatchError):
            mv.load_manifest(tmp_path)
        mv.make_dataset(tmp_path, 2, mv.PhantomSpec(size=16), seed=6)
        (tmp_path / "masks" / "phantom_00001.pgm").unlink()
        with pytest.raises(DataMismatchError):
            mv.load_manifest(tmp_path)

    def test_load_manifest_rejects_malformed_lines(self, tmp_path):
        mv.make_dataset(tmp_path, 1, mv.PhantomSpec(size=16), seed=7)
        (tmp_path / "manifest.txt").write_text("only_one_column\n")
        with pytest.raises(DataMismatchError):
            mv.load_manifest(tmp_path)

    def test_count_must_be_positive(self, tmp_path):
        with pytest.raises(ValidationError):
            mv.make_dataset(tmp_path, 0, mv.PhantomSpec(size=16), seed=0)


def test_image_to_tensor_normalizes():
    img = np.array([[0, MAXVAL], [MAXVAL // 5, 0]], dtype=np.uint16)
    t = mv.image_to_tensor(img)
    assert t.shape == (1, 1, 2, 2)
    assert t.max() == 1.0 and t.min() == 0.0
    assert abs(t[0, 0, 1, 0] - (MAXVAL // 5) / MAXVAL) < 1e-15


def _checkpoint_writer(seed):
    cfg = mv.UNetConfig(depth=1, base_channels=2, input_size=4)
    return lambda path: mv.save_checkpoint(mv.build(cfg, seed), cfg, path)


def _pgm_writer(seed):
    return lambda path: mv.write_pgm(np.full((3, 4), seed, dtype=np.uint8), path)


def _csv_writer(seed):
    return lambda path: mv.write_report(mv.calibrate_volume(10 + seed, 20, 1.5), None, path)


class TestAtomicWrites:
    """A write that fails partway leaves the old file whole and no temp file behind."""

    @pytest.mark.parametrize(
        "writer, name",
        [(_checkpoint_writer, "model.ckpt"), (_pgm_writer, "mask.pgm"), (_csv_writer, "volumetry.csv")],
    )
    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch, writer, name):
        path = tmp_path / name
        writer(0)(path)
        before = path.read_bytes()
        opened = []

        class DiskFullAfterOneByte(io.FileIO):
            def __init__(self, file, mode="r"):
                opened.append(os.fspath(file))
                super().__init__(file, mode)

            def write(self, data):
                super().write(memoryview(data).cast("B")[:1])
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(data_mod, "open", DiskFullAfterOneByte, raising=False)
        with pytest.raises(OSError, match="No space"):
            writer(1)(path)
        monkeypatch.undo()

        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [name]
        assert opened and not any(f.endswith(".pgm") for f in opened)
