import numpy as np
import pytest

import microvolumetry as mv
import microvolumetry.train as train_mod
from microvolumetry.errors import DataMismatchError, DivergenceError, PgmFormatError, ValidationError
from microvolumetry.train import METRICS_HEADER

from helpers import EIGHT_BIT_IMAGE, NON_UTF8_CONFIG, tiny_dataset, write_config


class TestParseConfig:
    def test_defaults_fill_unset_keys(self, tmp_path):
        path = write_config(tmp_path / "run.cfg", dataset="data")
        cfg = mv.parse_config(path)
        assert cfg.depth == 4 and cfg.base_channels == 64
        assert cfg.epochs == 50 and cfg.batch_size == 2
        assert cfg.lr == 1e-3 and cfg.output_head == "sigmoid"
        assert cfg.split == "paper_95_5"

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        nested = tmp_path / "runs" / "a"
        nested.mkdir(parents=True)
        path = write_config(nested / "run.cfg", dataset="../data", checkpoint="out/m.ckpt")
        cfg = mv.parse_config(path)
        assert cfg.dataset == str(tmp_path / "runs" / "data")
        assert cfg.checkpoint == str(nested / "out" / "m.ckpt")

    def test_absolute_paths_pass_through(self, tmp_path):
        path = write_config(tmp_path / "run.cfg", dataset="/abs/data")
        assert mv.parse_config(path).dataset == "/abs/data"

    def test_comments_blanks_and_inline_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# full-line comment\n\ndataset = d  # trailing\n  epochs=3\n")
        cfg = mv.parse_config(path)
        assert cfg.epochs == 3

    def test_bool_spellings(self, tmp_path):
        for text, expect in [("yes", True), ("1", True), ("false", False), ("no", False)]:
            path = write_config(tmp_path / f"{text}.cfg", dataset="d", use_skips=text)
            assert mv.parse_config(path).use_skips is expect

    def test_unknown_key_names_the_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("dataset = d\nlearning_rate = 0.1\n")
        with pytest.raises(ValidationError, match=r"run\.cfg:2"):
            mv.parse_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("dataset = d\ndataset = e\n")
        with pytest.raises(ValidationError, match="duplicate"):
            mv.parse_config(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("dataset\n")
        with pytest.raises(ValidationError, match=r"run\.cfg:1"):
            mv.parse_config(path)

    def test_non_numeric_value_rejected(self, tmp_path):
        path = write_config(tmp_path / "run.cfg", dataset="d", epochs="many")
        with pytest.raises(ValidationError):
            mv.parse_config(path)

    def test_non_utf8_file_is_a_validation_error(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(NON_UTF8_CONFIG)
        with pytest.raises(ValidationError, match="not UTF-8"):
            mv.parse_config(path)

    def test_nul_byte_in_a_path_is_a_validation_error(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"dataset = a\x00b\n")
        with pytest.raises(ValidationError, match="dataset"):
            mv.parse_config(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            mv.parse_config(tmp_path / "absent.cfg")


class TestRunConfigValidation:
    def test_requires_dataset(self):
        with pytest.raises(ValidationError):
            mv.RunConfig()

    def test_rejects_zero_epochs_and_batch(self):
        with pytest.raises(ValidationError):
            mv.RunConfig(dataset="d", epochs=0)
        with pytest.raises(ValidationError):
            mv.RunConfig(dataset="d", batch_size=0)

    def test_rejects_unknown_head(self):
        with pytest.raises(ValidationError):
            mv.RunConfig(dataset="d", output_head="linear")

    def test_rejects_invalid_network_geometry(self):
        with pytest.raises(ValidationError):
            mv.RunConfig(dataset="d", depth=2, input_size=30)

    def test_unet_view_carries_geometry(self):
        cfg = mv.RunConfig(dataset="d", depth=2, base_channels=8, input_size=32)
        net = cfg.unet()
        assert (net.depth, net.base_channels, net.input_size) == (2, 8, 32)


def small_run_config(tmp_path, data_dir, **overrides) -> mv.RunConfig:
    tmp_path.mkdir(parents=True, exist_ok=True)
    kv = dict(
        dataset=str(data_dir),
        checkpoint=str(tmp_path / "model.ckpt"),
        metrics=str(tmp_path / "metrics.csv"),
        depth=1,
        base_channels=2,
        input_size=16,
        epochs=2,
        batch_size=2,
        seed=7,
        split="0.34",
        output_head="softmax",
    )
    kv.update(overrides)
    return mv.parse_config(write_config(tmp_path / "run.cfg", **kv))


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("phantoms")
    tiny_dataset(root, count=6, size=16, seed=5)
    return root


class TestRunTraining:
    def test_metrics_csv_layout(self, tmp_path, data_dir):
        result = mv.run_training(small_run_config(tmp_path, data_dir))
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert lines[0] == METRICS_HEADER
        assert len(lines) == 3
        for epoch, line in enumerate(lines[1:], start=1):
            cells = line.split(",")
            assert cells[0] == str(epoch)
            for cell in cells[1:]:
                assert len(cell.split(".")[1]) == 6
                assert np.isfinite(float(cell))

    def test_result_mirrors_last_row(self, tmp_path, data_dir):
        result = mv.run_training(small_run_config(tmp_path, data_dir))
        last = result.rows[-1].split(",")
        assert float(last[3]) == pytest.approx(result.final_val_loss, abs=5e-7)
        assert float(last[4]) == pytest.approx(result.final_val_acc, abs=5e-7)
        assert result.val_confusion.sum() == 2 * 16 * 16  # 6 items, ceil(0.34*6)=2 held out

    def test_checkpoint_is_loadable_and_matches_config(self, tmp_path, data_dir):
        cfg = small_run_config(tmp_path, data_dir)
        result = mv.run_training(cfg)
        params, net = mv.load_checkpoint(result.checkpoint_path)
        assert net == cfg.unet()
        assert net.output_head == "softmax"
        assert mv.parameter_count(net) == sum(w.size + b.size for w, b in params.values())

    def test_identical_configs_give_identical_bytes(self, tmp_path, data_dir):
        a = mv.run_training(small_run_config(tmp_path / "a", data_dir))
        b = mv.run_training(small_run_config(tmp_path / "b", data_dir))
        assert a.metrics_path.read_bytes() == b.metrics_path.read_bytes()
        assert a.checkpoint_path.read_bytes() == b.checkpoint_path.read_bytes()

    def test_seed_changes_the_run(self, tmp_path, data_dir):
        a = mv.run_training(small_run_config(tmp_path / "a", data_dir, seed=7))
        b = mv.run_training(small_run_config(tmp_path / "b", data_dir, seed=8))
        assert a.metrics_path.read_bytes() != b.metrics_path.read_bytes()

    def test_loss_decreases_on_tiny_problem(self, tmp_path, data_dir):
        cfg = small_run_config(tmp_path, data_dir, epochs=8, lr="0.004")
        result = mv.run_training(cfg)
        first = float(result.rows[0].split(",")[1])
        last = float(result.rows[-1].split(",")[1])
        assert last < first

    def test_log_callback_sees_every_epoch(self, tmp_path, data_dir):
        seen = []
        mv.run_training(small_run_config(tmp_path, data_dir), log=seen.append)
        assert sum("2," in row or row.startswith("2") for row in map(str, seen)) >= 1
        assert len(seen) >= 2

    def test_divergence_raises_dedicated_error(self, tmp_path, data_dir, monkeypatch):
        def nan_loss(pred, target):
            return float("nan"), np.zeros_like(pred)

        monkeypatch.setattr(train_mod, "categorical_cross_entropy", nan_loss)
        with pytest.raises(DivergenceError):
            mv.run_training(small_run_config(tmp_path, data_dir))

    def test_wrong_image_size_names_the_file(self, tmp_path, data_dir):
        cfg = small_run_config(tmp_path, data_dir, input_size=32)
        with pytest.raises(DataMismatchError, match="phantom_00000"):
            mv.run_training(cfg)

    def test_eight_bit_image_is_rejected_naming_the_file(self, tmp_path):
        data = tmp_path / "data"
        tiny_dataset(data, count=4)
        (data / "images" / "phantom_00002.pgm").write_bytes(EIGHT_BIT_IMAGE)
        cfg = small_run_config(tmp_path / "run", data)
        with pytest.raises(PgmFormatError, match=r"phantom_00002\.pgm: maxval 255"):
            mv.run_training(cfg)

    def test_dataset_without_manifest_fails_cleanly(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(DataMismatchError):
            mv.run_training(small_run_config(tmp_path, empty))
