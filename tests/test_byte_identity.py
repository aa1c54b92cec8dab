"""tools/byte_identity.py runs on this checkout and prints one sha256 per documented row.

The hash values depend on the BLAS build and the CPU, so none is pinned here.
"""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "byte_identity.py"


def expected_rows() -> list[str]:
    spec = importlib.util.spec_from_file_location("byte_identity", SCRIPT)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    rows = ["train.checkpoint", "train.metrics_csv", "paper.checkpoint", "paper.predict_mask"]
    for k, stride, p in tool.CONV_GEOMETRIES:
        for dtype in ("float64", "float32"):
            rows.append(f"conv.k{k}.s{stride}.p{p}.{dtype}.forward")
            if stride == 1:
                rows.append(f"conv.k{k}.s{stride}.p{p}.{dtype}.backward")
    return rows + [f"pool.{dtype}.{way}" for dtype in ("float64", "float32")
                   for way in ("forward", "backward")]


def test_prints_a_distinct_sha256_for_every_row():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run([sys.executable, str(SCRIPT)], env=env, capture_output=True,
                         text=True, timeout=600, check=True)
    rows = [line.split("  ") for line in run.stdout.splitlines()]
    assert [name for _, name in rows] == expected_rows()
    hashes = [sha for sha, _ in rows]
    assert all(re.fullmatch(r"[0-9a-f]{64}", sha) for sha in hashes)
    assert len(set(hashes)) == len(hashes)
    assert f"package: {ROOT / 'src' / 'microvolumetry'}" in run.stderr
