"""End-to-end command tests driving cli.main() in process.

One subprocess test checks the installed console script; everything else
calls main() directly so coverage and monkeypatching work normally.
"""

import shutil
import subprocess

import numpy as np
import pytest

import microvolumetry as mv
import microvolumetry.cli as cli
import microvolumetry.train as train_mod
from microvolumetry.cli import main

from helpers import EIGHT_BIT_IMAGE, HUGE_DEPTH_CHECKPOINT, NON_UTF8_CONFIG, write_config


def gen_args(out, count=4, size=16, seed=3):
    return [
        "gen", "--out", str(out), "--count", str(count),
        "--size", str(size), "--seed", str(seed),
    ]


def unreachable(*args):
    raise AssertionError(f"called with {args}")


def renamed_copy(masks, out):
    """The same masks under different file names."""
    out.mkdir()
    for src in sorted(masks.glob("*.pgm")):
        shutil.copy(src, out / src.name.replace("phantom", "renamed"))
    return out


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One tiny gen+train shared by the predict/evaluate/volumetry tests."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    assert main(gen_args(data, count=5)) == 0
    cfg = write_config(
        root / "run.cfg",
        dataset=str(data),
        checkpoint=str(root / "model.ckpt"),
        metrics=str(root / "metrics.csv"),
        depth=1, base_channels=2, input_size=16,
        epochs=1, batch_size=2, seed=1, split="0.2",
    )
    assert main(["train", "--config", str(cfg)]) == 0
    return root


class TestGen:
    def test_writes_dataset_and_reports_manifest(self, tmp_path, capsys):
        assert main(gen_args(tmp_path / "d", count=2)) == 0
        assert "manifest" in capsys.readouterr().out
        assert (tmp_path / "d" / "manifest.txt").is_file()
        assert len(list((tmp_path / "d" / "images").glob("*.pgm"))) == 2

    def test_same_seed_same_bytes(self, tmp_path):
        assert main(gen_args(tmp_path / "a", seed=11)) == 0
        assert main(gen_args(tmp_path / "b", seed=11)) == 0
        rel = "images/phantom_00003.pgm"
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
        a = (tmp_path / "a" / "manifest.txt").read_text()
        assert a == (tmp_path / "b" / "manifest.txt").read_text()

    def test_output_path_under_a_file_is_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        assert main(gen_args(blocker / "d")) == 3
        assert capsys.readouterr().err.startswith("error:")

    def test_bad_radius_is_usage_error(self, tmp_path):
        assert main(gen_args(tmp_path / "d") + ["--implant-radius", "0.9"]) == 2

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_noise_sigma_is_usage_error(self, tmp_path, capsys, sigma):
        assert main(gen_args(tmp_path / "d") + ["--noise-sigma", sigma]) == 2
        assert "noise_sigma" in capsys.readouterr().err
        assert not (tmp_path / "d" / "manifest.txt").exists()

    def test_negative_seed_exits_2_and_writes_nothing(self, tmp_path, capsys):
        assert main(gen_args(tmp_path / "d", seed=-1)) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not (tmp_path / "d").exists()


class TestTrain:
    def test_prints_progress_and_summary(self, trained, capsys):
        cfg = trained / "run.cfg"
        assert main(["train", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "final validation accuracy:" in out
        assert "checkpoint:" in out and "metrics:" in out

    def test_missing_config_file_exits_3(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.cfg")]) == 3

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.cfg", dataset="d", momentum="0.9")
        assert main(["train", "--config", str(cfg)]) == 2
        assert "momentum" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value", [("num_classes", 3), ("in_channels", 1), ("use_skips", "true")]
    )
    def test_fixed_network_count_key_exits_2_naming_the_line(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path / "run.cfg", dataset="d", depth=1, **{key: value})
        assert main(["train", "--config", str(cfg)]) == 2
        assert f"run.cfg:3: unknown config key '{key}'" in capsys.readouterr().err

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(NON_UTF8_CONFIG)
        assert main(["train", "--config", str(cfg)]) == 2
        assert "not UTF-8" in capsys.readouterr().err

    def test_negative_seed_exits_2_and_writes_nothing(self, trained, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "run.cfg", dataset=str(trained / "data"),
            checkpoint=str(tmp_path / "model.ckpt"), metrics=str(tmp_path / "metrics.csv"),
            depth=1, base_channels=2, input_size=16, epochs=1, seed=-1,
        )
        assert main(["train", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    def test_zero_epochs_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", dataset="d", epochs=0)
        assert main(["train", "--config", str(cfg)]) == 2

    def test_missing_dataset_dir_exits_4(self, tmp_path):
        cfg = write_config(
            tmp_path / "run.cfg", dataset=str(tmp_path / "nowhere"),
            depth=1, base_channels=2, input_size=16, epochs=1,
        )
        assert main(["train", "--config", str(cfg)]) == 4

    def test_divergence_exits_5(self, trained, tmp_path, monkeypatch):
        def nan_loss(pred, target):
            return float("nan"), np.zeros_like(pred)

        monkeypatch.setattr(train_mod, "categorical_cross_entropy", nan_loss)
        cfg = write_config(
            tmp_path / "run.cfg",
            dataset=str(trained / "data"),
            checkpoint=str(tmp_path / "m.ckpt"),
            metrics=str(tmp_path / "m.csv"),
            depth=1, base_channels=2, input_size=16, epochs=1, split="0.2",
        )
        assert main(["train", "--config", str(cfg)]) == 5


class TestPredict:
    def test_writes_one_mask_per_image(self, trained, tmp_path, capsys):
        out = tmp_path / "pred"
        code = main([
            "predict", "--checkpoint", str(trained / "model.ckpt"),
            "--images", str(trained / "data"), "--out", str(out),
        ])
        assert code == 0
        assert "wrote 5 masks" in capsys.readouterr().out
        masks = sorted(out.glob("*.pgm"))
        assert [p.name for p in masks] == [f"phantom_0000{i}.pgm" for i in range(5)]
        for p in masks:
            mask = mv.read_mask(p)
            assert mask.shape == (16, 16)

    def test_float32_masks_equal_float64_forward(self, trained, tmp_path):
        out = tmp_path / "pred"
        assert main(["predict", "--checkpoint", str(trained / "model.ckpt"),
                     "--images", str(trained / "data"), "--out", str(out)]) == 0
        params, cfg = mv.load_checkpoint(trained / "model.ckpt")
        for image_path, _ in mv.load_manifest(trained / "data"):
            x = mv.image_to_tensor(mv.read_pgm(image_path))
            scores, _ = mv.forward(params, cfg, x, want_cache=False)
            expected = mv.argmax_channel(scores)[0]
            assert np.array_equal(mv.read_mask(out / image_path.name), expected)

    def test_deterministic_output(self, trained, tmp_path):
        args = ["predict", "--checkpoint", str(trained / "model.ckpt"),
                "--images", str(trained / "data")]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        name = "phantom_00000.pgm"
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_size_mismatch_names_file_and_exits_4(self, trained, tmp_path, capsys):
        images = tmp_path / "img"
        images.mkdir()
        mv.write_pgm(np.zeros((32, 32), dtype=np.uint16), images / "big.pgm")
        code = main([
            "predict", "--checkpoint", str(trained / "model.ckpt"),
            "--images", str(images), "--out", str(tmp_path / "pred"),
        ])
        assert code == 4
        err = capsys.readouterr().err
        assert "big.pgm" in err and "32x32" in err and "16x16" in err

    def test_eight_bit_image_names_file_and_maxval_and_exits_4(self, trained, tmp_path, capsys):
        images = tmp_path / "img"
        images.mkdir()
        (images / "scan8.pgm").write_bytes(EIGHT_BIT_IMAGE)
        code = main([
            "predict", "--checkpoint", str(trained / "model.ckpt"),
            "--images", str(images), "--out", str(tmp_path / "pred"),
        ])
        assert code == 4
        err = capsys.readouterr().err
        assert "scan8.pgm" in err and "maxval 255" in err
        assert not list((tmp_path / "pred").glob("*.pgm"))

    @pytest.mark.parametrize("images, out", [("", "masks"), ("", "images"), ("images", "images")])
    def test_out_holding_an_input_exits_2_and_writes_nothing(self, trained, tmp_path, capsys,
                                                              images, out):
        data = tmp_path / "data"
        shutil.copytree(trained / "data", data)
        before = {p.name: p.read_bytes() for p in (data / out).iterdir()}
        code = main(["predict", "--checkpoint", str(trained / "model.ckpt"),
                     "--images", str(data / images), "--out", str(data / out)])
        assert code == 2
        assert "overwrite" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in (data / out).iterdir()} == before

    def test_missing_checkpoint_exits_3(self, tmp_path):
        code = main([
            "predict", "--checkpoint", str(tmp_path / "no.ckpt"),
            "--images", str(tmp_path), "--out", str(tmp_path / "pred"),
        ])
        assert code == 3

    def test_corrupt_checkpoint_exits_4(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"NOTACKPT" + b"\x00" * 40)
        code = main([
            "predict", "--checkpoint", str(bad),
            "--images", str(tmp_path), "--out", str(tmp_path / "pred"),
        ])
        assert code == 4

    def test_huge_depth_checkpoint_exits_4(self, tmp_path, capsys):
        bad = tmp_path / "deep.ckpt"
        bad.write_bytes(HUGE_DEPTH_CHECKPOINT)
        code = main([
            "predict", "--checkpoint", str(bad),
            "--images", str(tmp_path), "--out", str(tmp_path / "pred"),
        ])
        assert code == 4
        assert "depth" in capsys.readouterr().err

    # Each of these predicted all-background masks and exited 0: a NaN weight; a
    # weight finite in float64 that the float32 load rounds to inf; and weights
    # finite in float32 whose float32 forward overflows to NaN scores.
    @pytest.mark.parametrize("layer, index, value, named", [
        ("head", (0, 1, 0, 0), np.nan, "head.w"),
        ("head", (2, 0, 0, 0), 1e39, "head.w"),
        ("enc0.conv1", ..., 1e37, "phantom_00000.pgm: scores are not finite"),
    ], ids=["nan", "overflows-the-load", "overflows-the-forward"])
    def test_weights_not_finite_in_float32_exit_4_and_write_no_mask(
            self, trained, tmp_path, capsys, layer, index, value, named):
        cfg = mv.UNetConfig(depth=1, base_channels=2, input_size=16)
        params = mv.build(cfg, 0)
        params[layer][0][index] = value
        mv.save_checkpoint(params, cfg, tmp_path / "bad.ckpt")
        out = tmp_path / "pred"
        code = main(["predict", "--checkpoint", str(tmp_path / "bad.ckpt"),
                     "--images", str(trained / "data"), "--out", str(out)])
        assert code == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]
        assert not list(out.glob("*.pgm"))


class TestEvaluate:
    def test_truth_vs_itself_is_perfect(self, trained, tmp_path, capsys):
        truth = trained / "data" / "masks"
        pred = shutil.copytree(truth, tmp_path / "pred")
        out = tmp_path / "eval.csv"
        code = main(["evaluate", "--pred", str(pred), "--truth", str(truth),
                     "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "accuracy: 1.000000" in text
        for k in range(3):
            assert f"dice_{k}: 1.000000" in text
        lines = out.read_text().splitlines()
        assert lines[0] == "accuracy,dice_0,dice_1,dice_2"
        assert lines[1] == "1.000000,1.000000,1.000000,1.000000"

    def test_predictions_against_truth(self, trained, tmp_path, capsys):
        pred = tmp_path / "pred"
        main(["predict", "--checkpoint", str(trained / "model.ckpt"),
              "--images", str(trained / "data"), "--out", str(pred)])
        capsys.readouterr()
        code = main(["evaluate", "--pred", str(pred),
                     "--truth", str(trained / "data" / "masks"),
                     "--out", str(tmp_path / "eval.csv")])
        assert code == 0
        out = capsys.readouterr().out
        assert "confusion (rows true class, columns predicted):" in out
        acc = float(out.split("accuracy: ")[1].split()[0])
        assert 0.0 <= acc <= 1.0

    def test_count_mismatch_exits_4(self, trained, tmp_path):
        pred = tmp_path / "pred"
        pred.mkdir()
        mv.write_pgm(np.zeros((16, 16), dtype=np.uint8), pred / "only.pgm")
        code = main(["evaluate", "--pred", str(pred),
                     "--truth", str(trained / "data" / "masks"),
                     "--out", str(tmp_path / "eval.csv")])
        assert code == 4

    def test_same_count_different_names_exits_4(self, trained, tmp_path, capsys):
        pred = renamed_copy(trained / "data" / "masks", tmp_path / "pred")
        code = main(["evaluate", "--pred", str(pred),
                     "--truth", str(trained / "data" / "masks"),
                     "--out", str(tmp_path / "eval.csv")])
        assert code == 4
        assert "renamed_00000.pgm" in capsys.readouterr().err

    def test_same_directory_as_truth_exits_2_before_reading_a_mask(self, trained, tmp_path,
                                                                   capsys, monkeypatch):
        monkeypatch.setattr(cli, "read_mask", unreachable)
        masks = trained / "data" / "masks"
        out = tmp_path / "eval.csv"
        code = main(["evaluate", "--pred", str(masks), "--truth", str(masks / ".." / "masks"),
                     "--out", str(out)])
        assert code == 2
        assert "same directory" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("target", ["pred", "truth"])
    def test_out_naming_an_input_mask_exits_2_and_leaves_it_unchanged(self, trained, tmp_path,
                                                                       capsys, target):
        dirs = {side: shutil.copytree(trained / "data" / "masks", tmp_path / side)
                for side in ("pred", "truth")}
        victim = dirs[target] / "phantom_00000.pgm"
        before = victim.read_bytes()
        code = main(["evaluate", "--pred", str(dirs["pred"]), "--truth", str(dirs["truth"]),
                     "--out", str(dirs[target] / ".." / target / victim.name)])
        assert code == 2
        assert "input file" in capsys.readouterr().err
        assert victim.read_bytes() == before

    def test_empty_pred_dir_exits_4(self, trained, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(["evaluate", "--pred", str(empty),
                     "--truth", str(trained / "data" / "masks"),
                     "--out", str(tmp_path / "eval.csv")])
        assert code == 4


def write_reference(path, pixels=23546219, volume="365.03"):
    path.write_text(f"pixels_M={pixels}\nV_M_mm3={volume}\n", encoding="utf-8")
    return path


class TestVolumetry:
    def test_reference_scan_numbers_in_output(self, tmp_path, capsys):
        pred = tmp_path / "pred"
        pred.mkdir()
        # one wide mask holding exactly 4154096 bone pixels
        mask = np.zeros((1024, 4096), dtype=np.uint8)
        mask.ravel()[:4154096] = 1
        mv.write_pgm(mask, pred / "stack.pgm")
        ref = write_reference(tmp_path / "ref.txt")
        out = tmp_path / "vol.csv"
        code = main(["volumetry", "--pred", str(pred),
                     "--reference", str(ref), "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "bone pixels (predicted): 4154096" in text
        assert "V_M = 365.03 mm^3" in text
        assert "V_C = 64.40 mm^3" in text
        assert "ratio = 17.64%" in text
        row = out.read_text().splitlines()[1]
        assert row.startswith("4154096,23546219,365.030000,64.399709,")

    def test_zero_bone_prediction(self, tmp_path, capsys):
        pred = tmp_path / "pred"
        pred.mkdir()
        mv.write_pgm(np.zeros((8, 8), dtype=np.uint8), pred / "m.pgm")
        ref = write_reference(tmp_path / "ref.txt")
        code = main(["volumetry", "--pred", str(pred),
                     "--reference", str(ref), "--out", str(tmp_path / "vol.csv")])
        assert code == 0
        text = capsys.readouterr().out
        assert "V_C = 0.00 mm^3" in text and "ratio = 0.00%" in text

    def test_truth_dir_fills_quality_columns(self, trained, tmp_path):
        truth = trained / "data" / "masks"
        pred = shutil.copytree(truth, tmp_path / "pred")
        out = tmp_path / "vol.csv"
        ref = write_reference(tmp_path / "ref.txt", pixels=1000, volume="10.0")
        code = main(["volumetry", "--pred", str(pred), "--truth", str(truth),
                     "--reference", str(ref), "--out", str(out)])
        assert code == 0
        cells = out.read_text().splitlines()[1].split(",")
        assert cells[5] == "1.000000" and cells[6:] == ["1.000000"] * 3

    def test_truth_with_different_names_exits_4(self, trained, tmp_path, capsys):
        truth = trained / "data" / "masks"
        pred = renamed_copy(truth, tmp_path / "pred")
        ref = write_reference(tmp_path / "ref.txt", pixels=1000, volume="10.0")
        code = main(["volumetry", "--pred", str(pred), "--truth", str(truth),
                     "--reference", str(ref), "--out", str(tmp_path / "vol.csv")])
        assert code == 4
        assert "phantom_00000.pgm" in capsys.readouterr().err

    def test_truth_same_directory_as_pred_exits_2_before_reading_a_mask(self, trained, tmp_path,
                                                                        capsys, monkeypatch):
        monkeypatch.setattr(cli, "read_mask", unreachable)
        masks = trained / "data" / "masks"
        ref = write_reference(tmp_path / "ref.txt", pixels=1000, volume="10.0")
        out = tmp_path / "vol.csv"
        code = main(["volumetry", "--pred", str(masks), "--truth", str(masks / ".." / "masks"),
                     "--reference", str(ref), "--out", str(out)])
        assert code == 2
        assert "same directory" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("target", ["pred", "truth", "reference"])
    def test_out_naming_an_input_exits_2_and_leaves_it_unchanged(self, trained, tmp_path, capsys,
                                                                 target):
        inputs = {side: shutil.copytree(trained / "data" / "masks", tmp_path / side)
                  / "phantom_00001.pgm" for side in ("pred", "truth")}
        inputs["reference"] = write_reference(tmp_path / "ref.txt", pixels=1000, volume="10.0")
        before = inputs[target].read_bytes()
        code = main(["volumetry", "--pred", str(inputs["pred"].parent),
                     "--truth", str(inputs["truth"].parent), "--reference", str(inputs["reference"]),
                     "--out", str(inputs[target])])
        assert code == 2
        assert "input file" in capsys.readouterr().err
        assert inputs[target].read_bytes() == before

    def test_malformed_reference_exits_2_naming_line(self, trained, tmp_path, capsys):
        ref = tmp_path / "ref.txt"
        ref.write_text("V_M_mm3=365.03\n")
        code = main(["volumetry", "--pred", str(trained / "data" / "masks"),
                     "--reference", str(ref), "--out", str(tmp_path / "vol.csv")])
        assert code == 2
        assert "pixels_M" in capsys.readouterr().err

    def test_infinite_reference_volume_exits_2_without_output(self, trained, tmp_path, capsys):
        ref = write_reference(tmp_path / "ref.txt", volume="inf")
        out = tmp_path / "vol.csv"
        code = main(["volumetry", "--pred", str(trained / "data" / "masks"),
                     "--reference", str(ref), "--out", str(out)])
        assert code == 2
        assert "V_M_mm3" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_reference_exits_3(self, trained, tmp_path):
        code = main(["volumetry", "--pred", str(trained / "data" / "masks"),
                     "--reference", str(tmp_path / "no.txt"),
                     "--out", str(tmp_path / "vol.csv")])
        assert code == 3


class TestParser:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "volumetry" in capsys.readouterr().out

    def test_version_matches_package(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert mv.__version__ in capsys.readouterr().out

    def test_missing_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_console_script_is_installed(self):
        exe = shutil.which("microvolumetry")
        if exe is None:
            pytest.skip("console script not on PATH (package not installed)")
        proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert mv.__version__ in proc.stdout
