"""The benchmark's three workloads, each a closed loop in this process.

A workload has a `setup` (inputs and model generated from the seed, plus a
warm-up where one is cheap) and an `op`, one unit of user-visible work:

- train_small: one `run_training` call at the acceptance config.
- predict_paper: one `predict` CLI call on one 512x512 slice at the paper
  config (load_checkpoint, read_pgm, forward, argmax_channel, write_pgm).
- stack_volumetry: one pass of `gen`, threshold predictions, `evaluate` and
  `volumetry` over a stack of 512x512 slices.

Every op checks its output and reports failure through `OpResult.ok`
instead of raising, so a wrong answer counts in the error rate.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import microvolumetry as mv
import microvolumetry.cli  # noqa: F401  (not imported by the package itself)

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# Golden outputs exist for a fixed pool of inputs; --seed picks one of them.
TRAIN_POOL = 10
PREDICT_POOL = 5
WEIGHT_SEED = 0  # He-initialised paper-config weights
VAL_ACC_TOL = 2e-3  # absolute; about 33 of the 16384 validation pixels
MASK_AGREEMENT_MIN = 0.9999
VOXEL_MM3 = 0.012**3  # reference voxel volume for the volumetry report


@dataclass(frozen=True)
class Scale:
    """Sizes of every workload. PAPER is what the benchmark runs."""

    name: str = "paper"
    train_size: int = 64
    train_depth: int = 4
    train_base: int = 16
    train_count: int = 20
    train_val_fraction: float = 0.2
    train_batch: int = 2
    train_epochs: int = 2
    predict_size: int = 512
    predict_depth: int = 4
    predict_base: int = 64
    stack_size: int = 512
    stack_slices: int = 4


PAPER = Scale()
TINY = Scale(name="tiny", train_size=16, train_depth=2, train_base=2, train_count=6,
             train_val_fraction=0.34, train_epochs=1, predict_size=16, predict_depth=2,
             predict_base=2, stack_size=16, stack_slices=3)


@dataclass
class OpResult:
    units: int  # training steps or slices completed
    ok: bool
    detail: dict = field(default_factory=dict)


def quiet_cli(argv: list[str]) -> tuple[int, str]:
    """Run the microvolumetry CLI in-process, capturing what it prints. An
    argument error exits through SystemExit; it becomes a non-zero code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = mv.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def read_p5(path: Path) -> np.ndarray:
    """The benchmark's own reader for the P5 files the program writes,
    independent of microvolumetry.data.read_pgm."""
    blob = path.read_bytes()
    fields_, off = [], 0
    while len(fields_) < 4:
        while blob[off : off + 1].isspace():
            off += 1
        start = off
        while not blob[off : off + 1].isspace():
            off += 1
        fields_.append(blob[start:off])
    magic, width, height, maxval = fields_[0], int(fields_[1]), int(fields_[2]), int(fields_[3])
    if magic != b"P5":
        raise ValueError(f"{path}: not a P5 file")
    dtype = ">u2" if maxval > 255 else np.uint8
    return np.frombuffer(blob, dtype=dtype, count=width * height, offset=off + 1).reshape(height, width)


def load_golden(golden_dir: Path, scale: Scale) -> dict:
    """Golden values; any that are missing simply fail their check later."""
    golden = {"val_acc": {}, "masks": {}}
    acc_path = golden_dir / f"val_acc_{scale.name}.json"
    if acc_path.is_file():
        golden["val_acc"] = {int(k): v for k, v in json.loads(acc_path.read_text())["val_acc"].items()}
    mask_path = golden_dir / f"predict_masks_{scale.name}.npz"
    if mask_path.is_file():
        with np.load(mask_path) as npz:
            golden["masks"] = {int(k.removeprefix("slice")): npz[k] for k in npz.files}
    return golden


class Workload:
    name = ""

    def __init__(self, root: Path, seed: int, scale: Scale = PAPER, golden_dir: Path = GOLDEN_DIR):
        self.root = root / self.name
        self.seed = seed
        self.scale = scale
        self.golden = load_golden(golden_dir, scale)
        self.clock = None  # StepClock; set by the runner for each phase

    def setup(self) -> None:
        raise NotImplementedError

    def op(self) -> OpResult:
        raise NotImplementedError

    def teardown(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


class TrainSmall(Workload):
    name = "train_small"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pool_index = self.seed % TRAIN_POOL
        self.data_seed = 1000 + self.pool_index
        s = self.scale
        n_val = max(1, round(s.train_val_fraction * s.train_count))
        self.samples_per_op = (s.train_count - n_val) * s.train_epochs
        self.config_path = self.root / "train.cfg"

    def net_config(self):
        s = self.scale
        return mv.unet.UNetConfig(depth=s.train_depth, base_channels=s.train_base,
                                  input_size=s.train_size, output_head="sigmoid")

    def setup(self) -> None:
        s = self.scale
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True)
        mv.data.make_dataset(self.root / "dataset", s.train_count,
                             mv.data.PhantomSpec(size=s.train_size), seed=self.data_seed)
        self.config_path.write_text(
            "dataset = dataset\ncheckpoint = model.ckpt\nmetrics = metrics.csv\n"
            f"depth = {s.train_depth}\nbase_channels = {s.train_base}\n"
            f"input_size = {s.train_size}\nbatch_size = {s.train_batch}\n"
            f"epochs = {s.train_epochs}\noutput_head = sigmoid\nseed = {self.data_seed}\n"
            f"split = {s.train_val_fraction}\n",
            encoding="utf-8",
        )
        # Warm-up: one training step on a batch of the generated images.
        cfg = self.net_config()
        params = mv.unet.build(cfg, WEIGHT_SEED)
        state = mv.optim.init_adam(params)
        pairs = mv.data.load_manifest(self.root / "dataset")[: s.train_batch]
        x = np.concatenate([mv.data.image_to_tensor(mv.data.read_pgm(img)) for img, _ in pairs])
        target = np.concatenate([mv.data.encode_one_hot(mv.data.read_mask(m)) for _, m in pairs])
        out, cache = mv.unet.forward(params, cfg, x)
        _, d_out = mv.layers.categorical_cross_entropy(out, target)
        mv.optim.adam_step(params, mv.unet.backward(params, cfg, cache, d_out), state)

    def op(self) -> OpResult:
        steps_before = len(self.clock.steps_ms)
        result = mv.train.run_training(mv.train.parse_config(self.config_path))
        golden = self.golden["val_acc"].get(self.pool_index)
        ok = golden is not None and abs(result.final_val_acc - golden) <= VAL_ACC_TOL
        return OpResult(units=len(self.clock.steps_ms) - steps_before, ok=ok,
                        detail={"val_acc": result.final_val_acc, "golden_val_acc": golden,
                                "samples": self.samples_per_op})


class PredictPaper(Workload):
    name = "predict_paper"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pool_index = self.seed % PREDICT_POOL
        self.slice_seed = 2000 + self.pool_index
        self.checkpoint = self.root / "paper.ckpt"
        self.images = self.root / "images"
        self.out = self.root / "pred"

    def net_config(self):
        s = self.scale
        return mv.unet.UNetConfig(depth=s.predict_depth, base_channels=s.predict_base,
                                  input_size=s.predict_size)

    def setup(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        self.images.mkdir(parents=True)
        cfg = self.net_config()
        mv.unet.save_checkpoint(mv.unet.build(cfg, WEIGHT_SEED), cfg, self.checkpoint)
        image, _ = mv.data.generate_phantom(
            mv.data.PhantomSpec(size=self.scale.predict_size, seed=self.slice_seed))
        mv.data.write_pgm(image, self.images / "slice.pgm")

    def op(self) -> OpResult:
        shutil.rmtree(self.out, ignore_errors=True)
        code, _ = quiet_cli(["predict", "--checkpoint", str(self.checkpoint),
                             "--images", str(self.images), "--out", str(self.out)])
        golden = self.golden["masks"].get(self.pool_index)
        agreement = 0.0
        if code == 0 and golden is not None:
            mask = read_p5(self.out / "slice.pgm")
            if mask.shape == golden.shape:
                agreement = float(np.mean(mask == golden))
        return OpResult(units=1, ok=agreement >= MASK_AGREEMENT_MIN,
                        detail={"mask_agreement": agreement})

    def predicted_mask(self) -> np.ndarray:
        return read_p5(self.out / "slice.pgm")


class StackVolumetry(Workload):
    name = "stack_volumetry"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.gen_dir = self.root / "gen"
        self.pred_dir = self.root / "pred"
        self.reference = self.root / "reference.txt"
        self.expected: dict = {}
        self.predictions: dict[str, np.ndarray] = {}

    def _gen(self) -> int:
        s = self.scale
        code, _ = quiet_cli(["gen", "--out", str(self.gen_dir), "--count", str(s.stack_slices),
                             "--size", str(s.stack_size), "--seed", str(self.seed)])
        return code

    def setup(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True)
        if self._gen() != 0:
            raise RuntimeError("gen failed during setup")
        # The benchmark's own arrays: threshold predictions from the
        # generated images, and the expected report computed with numpy.
        cut = mv.data.BONE_BAND[0]
        counts = np.zeros((3, 3), dtype=np.int64)
        truth_bone = pred_bone = 0
        self.predictions = {}
        for img_path in sorted((self.gen_dir / "images").glob("*.pgm")):
            image = read_p5(img_path)
            truth = read_p5(self.gen_dir / "masks" / img_path.name)
            pred = (image.astype(np.float64) / mv.data.MAXVAL >= cut).astype(np.uint8)
            self.predictions[img_path.name] = pred
            counts += np.bincount(truth.astype(np.int64).ravel() * 3 + pred.ravel(),
                                  minlength=9).reshape(3, 3)
            truth_bone += int((truth == 1).sum())
            pred_bone += int((pred == 1).sum())
        self.pred_dir.mkdir()
        v_m = truth_bone * VOXEL_MM3
        self.reference.write_text(f"pixels_M={truth_bone}\nV_M_mm3={v_m!r}\n", encoding="utf-8")
        self.expected = {"confusion": counts.tolist(), "pixels_C": pred_bone,
                         "V_C": f"{float(v_m) * (pred_bone / truth_bone):.6f}"}

    def op(self) -> OpResult:
        s = self.scale
        t0 = time.perf_counter()
        gen_code = self._gen()
        t1 = time.perf_counter()
        for name, pred in self.predictions.items():
            mv.data.write_pgm(pred, self.pred_dir / name)
        t2 = time.perf_counter()  # scoring starts after the predictions are written
        eval_code, eval_out = quiet_cli(["evaluate", "--pred", str(self.pred_dir),
                                         "--truth", str(self.gen_dir / "masks"),
                                         "--out", str(self.root / "evaluation.csv")])
        vol_code, _ = quiet_cli(["volumetry", "--pred", str(self.pred_dir),
                                 "--reference", str(self.reference),
                                 "--truth", str(self.gen_dir / "masks"),
                                 "--out", str(self.root / "volumetry.csv")])
        t3 = time.perf_counter()
        exact = (gen_code, eval_code, vol_code) == (0, 0, 0) and self._matches(eval_out)
        return OpResult(units=s.stack_slices, ok=exact,
                        detail={"gen_s": t1 - t0, "score_s": t3 - t2})

    def _matches(self, eval_out: str) -> bool:
        lines = eval_out.splitlines()
        try:
            start = lines.index("confusion (rows true class, columns predicted):") + 1
            confusion = [[int(v) for v in line.split()] for line in lines[start : start + 3]]
            header, row = (self.root / "volumetry.csv").read_text(encoding="utf-8").splitlines()[:2]
        except ValueError:
            return False
        report = dict(zip(header.split(","), row.split(",")))
        return (confusion == self.expected["confusion"]
                and report.get("pixels_C") == str(self.expected["pixels_C"])
                and report.get("V_C") == self.expected["V_C"])


WORKLOADS = {w.name: w for w in (TrainSmall, PredictPaper, StackVolumetry)}
