#!/usr/bin/env python3
"""Record the golden outputs the benchmark checks against.

    python3 perfbench/make_golden.py

For every train_small pool entry, the final validation accuracy of one
`run_training` call; for every predict_paper pool entry, the float64 mask
the predict path writes. Run it from a checkout root on the commit whose
outputs are the reference; the files land in perfbench/golden/.
"""

import json
import sys
from pathlib import Path

from run import pin_blas_threads

HERE = Path(__file__).resolve().parent


def record(scale, out_dir: Path, work_root: Path) -> None:
    import microvolumetry as mv
    import numpy as np
    from bench import run_phase
    from workloads import PREDICT_POOL, TRAIN_POOL, PredictPaper, TrainSmall

    out_dir.mkdir(parents=True, exist_ok=True)
    val_acc = {}
    for index in range(TRAIN_POOL):
        w = TrainSmall(work_root, index, scale, out_dir)
        try:
            w.setup()
            (_, result), = run_phase(w, 0, mv)[0]  # seconds=0 runs exactly one op
            val_acc[index] = result.detail["val_acc"]
        finally:
            w.teardown()
    (out_dir / f"val_acc_{scale.name}.json").write_text(
        json.dumps({"val_acc": val_acc}, indent=1) + "\n", encoding="utf-8")

    masks = {}
    for index in range(PREDICT_POOL):
        w = PredictPaper(work_root, index, scale, out_dir)
        try:
            w.setup()
            run_phase(w, 0, mv)
            masks[f"slice{index}"] = w.predicted_mask().copy()
        finally:
            w.teardown()
    np.savez_compressed(out_dir / f"predict_masks_{scale.name}.npz", **masks)


def main() -> int:
    pin_blas_threads()
    sys.path[:0] = [str(Path.cwd() / "src"), str(HERE)]
    import workloads

    record(workloads.PAPER, HERE / "golden", Path.cwd() / ".perfbench")
    return 0


if __name__ == "__main__":
    sys.exit(main())
