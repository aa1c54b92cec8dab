"""tools/step_faults.py times every training step, restores the training bindings and reports both medians."""

import importlib.util
import re
from pathlib import Path

import microvolumetry as mv
from microvolumetry import optim, train, unet

from helpers import tiny_dataset

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "step_faults.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("step_faults", SCRIPT)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_meter_records_every_step_and_report_prints_both_medians(tmp_path):
    tool = load_tool()
    tiny_dataset(tmp_path / "data", count=5, size=16)
    config = mv.RunConfig(
        dataset=str(tmp_path / "data"), checkpoint=str(tmp_path / "model.ckpt"),
        metrics=str(tmp_path / "metrics.csv"), depth=1, base_channels=2, input_size=16,
        epochs=1, batch_size=2, split="0.2",
    )
    meter = tool.StepMeter()
    meter.run(config)
    assert len(meter.steps) == 2  # 5 phantoms, 1 held out, batch 2
    assert train.forward is unet.forward and train.adam_step is optim.adam_step
    text = tool.report(meter.steps, 1)
    assert text.splitlines()[0] == "steps: 2 over 1 run(s)"
    assert re.search(r"^step ms p50: \d+\.\d$", text, re.M), text
    assert re.search(r"^minor faults per step p50: \d+$", text, re.M), text
