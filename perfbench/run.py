#!/usr/bin/env python3
"""Benchmark entry point; run from the root of a microvolumetry checkout.

    python3 perfbench/run.py --workload train_small --seed 1 --seconds 20 --trace 0

Prints the run environment and every metric by name and unit, then, as the
last line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones. Scratch files live under .perfbench/ and are removed at
the end of the run; the JSON result and any span dump stay in
.perfbench/results/.
"""

import argparse
import json
import os
import sys
from pathlib import Path

# A benchmark setting, fixed before numpy loads: one BLAS thread gives the
# steadiest numbers on a small shared machine.
BLAS_THREADS = "1"


def pin_blas_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


pin_blas_threads()

WORKLOAD_NAMES = ("train_small", "predict_paper", "stack_volumetry")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "microvolumetry" / "__init__.py").is_file():
        print(f"error: no src/microvolumetry under {root}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(Path(__file__).resolve().parent)]
    import bench  # noqa: E402  (needs the paths and BLAS setting above)

    work_root = root / ".perfbench"
    out = bench.run(args.workload, args.seed, args.seconds, args.trace, work_root)
    print("env " + json.dumps(out["env"], sort_keys=True))
    for name, (value, unit) in out["report"].items():
        print(f"report {name} = {value:.6g} {unit}")
    for name, metric in out["result"]["metrics"].items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    results = work_root / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
