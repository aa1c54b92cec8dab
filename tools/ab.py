"""A/B one commit against this working tree on perfbench workloads, with an A/A control.

    python tools/ab.py PARENT_REV --workload predict_paper --pairs 10 --out ab.json

Exports PARENT_REV with `git archive` into a temporary directory and runs
`python3 perfbench/run.py --workload W --seed S --seconds T --trace 0` from
the root of each checkout, with T the `run_seconds` of BENCHMARK.json:
"change" is this working tree, "parent" the export, and "control" the export
once more, as an A/A control. Pair i runs seed i; odd seeds run parent,
change, control and even seeds control, change, parent, so both the
change/parent order and the control/parent order alternate.

The JSON written to --out (merged into it if it exists) holds every run's
end-to-end metrics, and per metric the medians and quartiles of parent and
change, each pair's change/parent ratio, the change's wins (pairs where it is
better, by the metric's direction in BENCHMARK.json; ties count for neither
side), each pair's control/parent ratio, and the A/A spread: the largest
distance of those ratios from 1. A difference is "resolved" only when the
median change/parent ratio lies further from 1 than the A/A spread. A gain
meets the claim rule when the change wins at least 9 in 10 pairs and its
median beats the parent's by more than the parent's IQR.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change", "control")


def export(rev: str, dest: Path) -> str:
    """Unpack `git archive rev` into dest; return the full commit id."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            capture_output=True, text=True, check=True).stdout.strip()
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", commit],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return commit


def run_perfbench(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced perfbench run; its metrics by name, plus "correct" and the run's env."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"perfbench in {checkout} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return {"metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "correct": result["correct"], "env": env}


def order(seed: int) -> tuple[str, ...]:
    return SIDES if seed % 2 else SIDES[::-1]


def run_pairs(checkouts: dict, workload: str, pairs: int, seconds: int, runner=None) -> list[dict]:
    """`pairs` rounds of one run per side, in `order(seed)`, by `runner` (default `run_perfbench`)."""
    runner, rounds = runner or run_perfbench, []
    for seed in range(1, pairs + 1):
        runs = {side: runner(checkouts[side], workload, seed, seconds) for side in order(seed)}
        rounds.append({"seed": seed, "order": list(order(seed)), **runs})
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{side} {runs[side]['metrics'].get('op_ms_p50', float('nan')):.1f} ms" for side in order(seed)),
            file=sys.stderr, flush=True)
    return rounds


def quartiles(values) -> tuple[float, float, float]:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return float(q1), float(med), float(q3)


def summarize(rounds: list[dict], directions: dict[str, str]) -> dict:
    """Per metric: both sides' medians and quartiles, change/parent ratios and wins, and the A/A check."""
    out = {}
    for name, better in directions.items():
        side = {s: [r[s]["metrics"][name] for r in rounds] for s in SIDES}
        ratios = [c / p if p else float("nan") for c, p in zip(side["change"], side["parent"])]
        aa = [c / p if p else float("nan") for c, p in zip(side["control"], side["parent"])]
        sign = -1 if better == "lower" else 1
        wins = sum(sign * (c - p) > 0 for c, p in zip(side["change"], side["parent"]))
        (p1, pm, p3), (c1, cm, c3) = quartiles(side["parent"]), quartiles(side["change"])
        ratio = statistics.median(ratios)
        spread = max(abs(r - 1) for r in aa)
        out[name] = {
            "better": better, "pairs": len(rounds),
            "parent_median": pm, "parent_q1": p1, "parent_q3": p3, "parent_iqr": p3 - p1,
            "change_median": cm, "change_q1": c1, "change_q3": c3,
            "change_over_parent": ratios, "change_over_parent_median": ratio, "change_wins": wins,
            "control_over_parent": aa, "aa_spread": spread, "resolved": abs(ratio - 1) > spread,
            "meets_claim_rule": wins >= 0.9 * len(rounds) and sign * (cm - pm) > p3 - p1,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_rev")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True, help="JSON report; merged into if it exists")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    directions, seconds = {m["name"]: m["better"] for m in bench["end_to_end"]}, bench["run_seconds"]
    report = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {"workloads": {}}
    with tempfile.TemporaryDirectory(prefix="ab-parent-") as tmp:
        commit = export(args.parent_rev, Path(tmp))
        checkouts = {"parent": Path(tmp), "change": ROOT, "control": Path(tmp)}
        rounds = run_pairs(checkouts, args.workload, args.pairs, seconds)
    report["workloads"][args.workload] = {"parent_commit": commit, "seconds": seconds,
                                          "summary": summarize(rounds, directions), "pairs": rounds}
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for name, s in report["workloads"][args.workload]["summary"].items():
        print(f"{args.workload} {name}: parent {s['parent_median']:.6g} change {s['change_median']:.6g} "
              f"ratio {s['change_over_parent_median']:.3f} wins {s['change_wins']}/{s['pairs']} "
              f"A/A spread {s['aa_spread']:.3f} {'resolved' if s['resolved'] else 'unresolved'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
