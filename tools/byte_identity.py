"""Print one sha256 per output that a behaviour-preserving change must keep byte-identical.

Every input is fixed in this script. Run it at two commits on the same
machine and compare the output:

    PYTHONPATH=src python tools/byte_identity.py > change.txt
    PYTHONPATH=/path/to/parent/src python tools/byte_identity.py > parent.txt
    diff parent.txt change.txt

The hashes depend on the BLAS build and the CPU, so only runs from one
machine are comparable, and no test pins their values. Each output line is
"<sha256>  <row name>"; the package actually imported is named on stderr.

Rows:
- train.checkpoint, train.metrics_csv: `run_training` at the acceptance
  config (12 phantoms of 64x64 from seed 5; depth 4, base 16, batch 2,
  2 epochs, seed 5, split 0.2).
- paper.checkpoint, paper.predict_mask: the checkpoint of
  `build(UNetConfig(), 0)`, and the mask file that the `predict` command
  writes with it for a 512x512 phantom of seed 9.
- conv.k{k}.s{stride}.p{p}.{dtype}.{forward,backward}: conv2d on
  (2, 3, 11, 9) inputs, once whole and once with every output row in a
  chunk of its own; backward rows (stride 1 only) hash d_input, d_weights
  and d_bias, and p > k-1 makes d_input crop.
- pool.{dtype}.{forward,backward}: 2x2 max pooling of (2, 5, 16, 16)
  ReLU'd normals with 3- and 4-way ties, two NaNs and 0.0/-0.0 pairs.
"""

from __future__ import annotations

import contextlib
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

import microvolumetry as mv
from microvolumetry import cli, layers

DTYPES = (np.float64, np.float32)
CONV_GEOMETRIES = [(k, 1, p) for k in (1, 3, 5) for p in range(k + 2)] + [
    (1, 2, 0), (3, 2, 0), (3, 2, 1), (5, 2, 0), (5, 2, 2)
]


def digest(*arrays: np.ndarray) -> str:
    """sha256 over each array's dtype, shape and C-order bytes."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def train_rows(tmp: Path):
    data = tmp / "data"
    mv.make_dataset(data, 12, mv.PhantomSpec(size=64), seed=5)
    config = mv.RunConfig(
        dataset=str(data), checkpoint=str(tmp / "train.ckpt"), metrics=str(tmp / "metrics.csv"),
        depth=4, base_channels=16, input_size=64, epochs=2, batch_size=2, seed=5, split="0.2",
    )
    result = mv.run_training(config)
    yield "train.checkpoint", file_digest(result.checkpoint_path)
    yield "train.metrics_csv", file_digest(result.metrics_path)


def paper_rows(tmp: Path):
    config = mv.UNetConfig()
    checkpoint, images, masks = tmp / "paper.ckpt", tmp / "images", tmp / "masks"
    mv.save_checkpoint(mv.build(config, 0), config, checkpoint)
    yield "paper.checkpoint", file_digest(checkpoint)
    images.mkdir()
    image, _ = mv.generate_phantom(mv.PhantomSpec(size=config.input_size, seed=9))
    mv.write_pgm(image, images / "slice.pgm")
    with contextlib.redirect_stdout(sys.stderr):  # stdout carries only the rows
        code = cli.main(["predict", "--checkpoint", str(checkpoint),
                         "--images", str(images), "--out", str(masks)])
    if code != 0:
        raise SystemExit(f"predict exited {code}")
    yield "paper.predict_mask", file_digest(masks / "slice.pgm")


def conv_rows():
    whole_chunk_bytes = layers._COL_CHUNK_BYTES
    for k, stride, p in CONV_GEOMETRIES:
        spec = mv.ConvSpec(3, 4, kernel=k, stride=stride, padding=p)
        rng = np.random.default_rng([k, stride, p])
        x = rng.standard_normal((2, 3, 11, 9))
        w = rng.standard_normal((4, 3, k, k))
        b = rng.standard_normal(4)
        ho, wo = spec.out_size(11, 9)
        d = rng.standard_normal((2, 4, ho, wo))
        for dtype in DTYPES:
            xd, wd, bd, dd = (a.astype(dtype) for a in (x, w, b, d))
            fwd, bwd = [], []
            for chunk_bytes in (whole_chunk_bytes, 1):  # 1: every output row is its own chunk
                layers._COL_CHUNK_BYTES = chunk_bytes
                fwd.append(mv.conv2d_forward(xd, wd, bd, spec))
                if stride == 1:
                    bwd.extend(mv.conv2d_backward(xd, wd, spec, dd))
            layers._COL_CHUNK_BYTES = whole_chunk_bytes
            name = f"conv.k{k}.s{stride}.p{p}.{np.dtype(dtype).name}"
            yield f"{name}.forward", digest(*fwd)
            if bwd:
                yield f"{name}.backward", digest(*bwd)


def pool_input() -> np.ndarray:
    x = np.maximum(np.random.default_rng(0).standard_normal((2, 5, 16, 16)), 0.0)
    x[0, 0, 0:2, 0:2] = 1.25  # a 4-way tie
    x[0, 1, 2:4, 2:4] = [[0.5, 2.0], [2.0, 2.0]]  # a 3-way tie behind a smaller first corner
    x[1, 2, 4, 5] = np.nan
    x[1, 3, 7, 6] = np.nan
    x[1, 4, 0:2, 0:2] = [[-0.0, 0.0], [-0.0, 0.0]]
    x[1, 4, 2:4, 2:4] = [[0.0, -0.0], [-0.0, -0.0]]
    return x


def pool_rows():
    x = pool_input()
    d = np.random.default_rng(1).standard_normal((2, 5, 8, 8))
    for dtype in DTYPES:
        xd, dd = x.astype(dtype), d.astype(dtype)
        name = f"pool.{np.dtype(dtype).name}"
        yield f"{name}.forward", digest(mv.maxpool2_forward(xd))
        yield f"{name}.backward", digest(mv.maxpool2_backward(xd, dd))


def main() -> int:
    print(f"package: {Path(mv.__file__).parent}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        for rows in (train_rows(Path(tmp)), paper_rows(Path(tmp)), conv_rows(), pool_rows()):
            for name, sha in rows:
                print(f"{sha}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
