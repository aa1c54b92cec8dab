"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
REPO = BENCH_DIR.parent
sys.path[:0] = [str(REPO / "src"), str(BENCH_DIR)]

import bench  # noqa: E402
import make_golden  # noqa: E402
import microvolumetry as mv  # noqa: E402
import workloads  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    make_golden.record(TINY, out, tmp_path_factory.mktemp("work"))
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_runs_and_emits_benchmark_metrics(workload, trace, golden, tmp_path):
    out = bench.run(workload, 3, 1, trace, tmp_path, TINY, golden)
    result = out["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert out["report"]["error_rate"][0] == 0
    assert out["env"]["seed"] == 3 and out["env"]["nproc"] >= 1
    assert not (tmp_path / workload).exists()  # scratch files removed


def test_traced_unet_layers_cover_every_parameterised_layer_and_pool(golden, tmp_path):
    out = bench.run("train_small", 0, 1, 1, tmp_path, TINY, golden)
    values = out["result"]["metrics"]
    config = mv.unet.UNetConfig(depth=TINY.train_depth, base_channels=TINY.train_base,
                                input_size=TINY.train_size)
    for layer in bench.unet_layer_names(config):
        assert values[f"unet.{layer}.fwd_ms"]["value"] > 0, layer
        assert values[f"unet.{layer}.bwd_ms"]["value"] > 0, layer
    # The spans' self times cover the step except the loop's own code.
    span_self = values["train.step_span_self_ms"]["value"]
    assert 0 < span_self <= values["train.step_ms_traced"]["value"]
    assert out["report"]["train_step_self_gap_ms"][0] == pytest.approx(
        span_self - values["train.step_ms_untraced"]["value"])
    assert out["report"]["train_step_noise_ms"][0] >= 0


def test_corrupted_golden_mask_is_a_failed_op_not_a_crash(golden, tmp_path):
    bad = tmp_path / "golden"
    shutil.copytree(golden, bad)
    path = bad / "predict_masks_tiny.npz"
    with np.load(path) as npz:
        masks = {k: npz[k].copy() for k in npz.files}
    for mask in masks.values():
        mask[: mask.shape[0] // 2] = (mask[: mask.shape[0] // 2] + 1) % 3
    np.savez_compressed(path, **masks)
    out = bench.run("predict_paper", 1, 1, 0, tmp_path / "work", TINY, bad)
    result = out["result"]
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["success_rate"]["value"] == 0.0
    assert out["report"]["mask_agreement"][0] < 0.9999


def test_stack_op_that_always_raises_is_counted_not_a_crash(golden, tmp_path, monkeypatch):
    def broken_op(self):
        raise ValueError("broken pass")

    monkeypatch.setattr(workloads.StackVolumetry, "op", broken_op)
    out = bench.run("stack_volumetry", 1, 1, 0, tmp_path, TINY, golden)
    assert out["result"]["correct"] is False
    assert out["result"]["failed"] == out["result"]["attempted"] >= 1
    assert np.isnan(out["report"]["gen_slices_per_s"][0])
    assert np.isnan(out["report"]["volumetry_slices_per_s"][0])


def test_cli_argument_error_is_a_nonzero_code_not_an_exit():
    code, _ = workloads.quiet_cli(["volumetry", "--no-such-flag"])
    assert code != 0


def test_traced_run_fails_loudly_when_a_span_records_no_calls(golden, tmp_path, monkeypatch):
    # Simulate a refactor that calls pooling through a name the tracer does
    # not wrap: the run must refuse to report rather than report zeros.
    original = mv.unet.maxpool2_forward
    monkeypatch.setattr(mv.unet, "maxpool2_forward", lambda x: original(x))
    with pytest.raises(RuntimeError, match="layers.maxpool2_forward"):
        bench.run("train_small", 0, 1, 1, tmp_path, TINY, golden)


def test_run_exits_nonzero_without_result_outside_a_checkout(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "golden"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_follows_its_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == ["train_small", "predict_paper",
                                                     "stack_volumetry"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)) and len(SPEC["per_layer"]) <= 128
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"]) <= 0.25
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
