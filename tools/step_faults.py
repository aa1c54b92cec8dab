"""Print the training step's median time and median minor page faults.

Generates the benchmark's `train_small` dataset and runs `run_training` on it
at that config: 20 phantoms of 64x64, depth 4, base 16, sigmoid head, batch 2,
split 0.2, 2 epochs, data and run seed 1000. A step runs from a training
forward (`want_cache=True`) to the return of the `adam_step` after it, as
perfbench's `StepClock` times it. `train.forward` and `train.adam_step` are
wrapped from outside for the run and restored after it; the package itself
is not edited. Faults are the growth of
`resource.getrusage(RUSAGE_SELF).ru_minflt` across each step. Run it as

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/step_faults.py [--runs N]

and with another commit's `src` on PYTHONPATH to compare. The medians are
over every step of every run, the first included.
"""

from __future__ import annotations

import argparse
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import microvolumetry as mv
from microvolumetry import train


class StepMeter:
    """Wraps `train.forward` and `train.adam_step`; records (ms, minor faults) per step."""

    def __init__(self):
        self.steps: list[tuple[float, int]] = []
        self._start: tuple[float, int] | None = None

    @staticmethod
    def _now() -> tuple[float, int]:
        return time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    def run(self, config: mv.RunConfig) -> None:
        forward, adam_step = train.forward, train.adam_step

        def timed_forward(params, net_cfg, batch, want_cache=True):
            if want_cache:
                self._start = self._now()
            return forward(params, net_cfg, batch, want_cache=want_cache)

        def timed_adam(*args, **kwargs):
            result = adam_step(*args, **kwargs)
            if self._start is not None:
                (t0, f0), (t1, f1) = self._start, self._now()
                self.steps.append(((t1 - t0) * 1e3, f1 - f0))
                self._start = None
            return result

        train.forward, train.adam_step = timed_forward, timed_adam
        try:
            mv.run_training(config)
        finally:
            train.forward, train.adam_step = forward, adam_step


def train_small_config(root: Path) -> mv.RunConfig:
    """Write `train_small`'s dataset under `root` and return its run config."""
    mv.make_dataset(root / "data", 20, mv.PhantomSpec(size=64), seed=1000)
    return mv.RunConfig(
        dataset=str(root / "data"), checkpoint=str(root / "model.ckpt"),
        metrics=str(root / "metrics.csv"), depth=4, base_channels=16, input_size=64,
        epochs=2, batch_size=2, seed=1000, split="0.2", output_head="sigmoid",
    )


def report(steps: list[tuple[float, int]], runs: int) -> str:
    """The step count and the medians of step ms and minor faults per step."""
    ms, faults = zip(*steps)
    return (f"steps: {len(steps)} over {runs} run(s)\n"
            f"step ms p50: {statistics.median(ms):.1f}\n"
            f"minor faults per step p50: {statistics.median(faults):.0f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=1, help="run_training calls in this process")
    args = ap.parse_args(argv)

    meter = StepMeter()
    with tempfile.TemporaryDirectory() as tmp:
        config = train_small_config(Path(tmp))
        for _ in range(args.runs):
            meter.run(config)
    print(f"package: {Path(mv.__file__).parent}", file=sys.stderr)
    print(report(meter.steps, args.runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
