"""Fuzz the parsers of untrusted files (read_pgm, load_checkpoint, parse_config, load_manifest,
read_reference) and the CLI.

Whatever the bytes, each parser either returns or raises its own named
error (PgmFormatError, CheckpointError, ValidationError, DataMismatchError),
which the CLI maps to an exit code. Inputs are raw bytes, valid files with a few bytes
overwritten, inserted or cut, and files whose header fields are replaced by
arbitrary 32-bit values. The CLI target calls `main` with the parser's own
subcommands and flags and junk values, and checks the exit-code contract.
The examples are derandomized, so every run checks the same inputs.
"""

import contextlib
import io
import os
import shutil
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import microvolumetry as mv
from microvolumetry.cli import build_parser, main
from microvolumetry.data import MAXVAL
from microvolumetry.errors import (
    CheckpointError,
    DataMismatchError,
    PgmFormatError,
    ValidationError,
)

from helpers import (
    EIGHT_BIT_IMAGE,
    HUGE_DEPTH_CHECKPOINT,
    NAN_PAYLOAD_CHECKPOINT,
    NON_UTF8_CONFIG,
    NON_UTF8_MANIFEST,
    NON_UTF8_NAME_CHECKPOINT,
    checkpoint_bytes,
    tiny_dataset,
    write_config,
)

FUZZ = settings(
    max_examples=300,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

VALID_PGM = b"P5\n3 2\n65535\n" + bytes(range(12))
VALID_CHECKPOINT = checkpoint_bytes()
VALID_CONFIG = (
    b"dataset = data\ndepth = 2\nbase_channels = 4\ninput_size = 16\n"
    b"epochs = 3 # short\nlr = 0.001\nseed = 7\nsplit = 0.2\n"
)
VALID_REFERENCE = b"# reference scan\npixels_M = 23546219\nV_M_mm3 = 365.03 # mm^3\n"
VALID_MANIFEST = (b"images/phantom_00000.pgm\tmasks/phantom_00000.pgm\n"
                  b"images/phantom_00001.pgm\tmasks/phantom_00001.pgm\n")
U32_EDGES = [0, 1, 2, 3, 31, 32, 33, 2**16, 2**31 - 1, 2**31, 2**32 - 1, 0xF998E147]


@st.composite
def mutated(draw, seed: bytes):
    """`seed` with a few single-byte edits, then possibly truncated."""
    blob = bytearray(seed)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(blob)))
        byte = draw(st.integers(0, 255))
        edit = draw(st.sampled_from(("set", "insert", "delete")))
        if edit == "insert" or pos == len(blob):
            blob.insert(pos, byte)
        elif edit == "set":
            blob[pos] = byte
        else:
            del blob[pos]
    return bytes(blob[: draw(st.integers(0, len(blob)))]) if draw(st.booleans()) else bytes(blob)


@st.composite
def u32_overwritten(draw, seed: bytes, header: int):
    """`seed` with a u32 at some offset in its first `header` bytes replaced."""
    at = draw(st.integers(0, header - 4))
    value = draw(st.one_of(st.sampled_from(U32_EDGES), st.integers(0, 2**32 - 1)))
    return seed[:at] + struct.pack("<I", value) + seed[at + 4 :]


@st.composite
def pgm_headers(draw):
    """P5 headers of arbitrary tokens followed by a short payload."""
    token = st.one_of(
        st.integers(-3, 70000).map(lambda v: str(v).encode()),
        st.binary(min_size=1, max_size=6),
    )
    sep = st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b" # c\n"])
    parts = [b"P5"]
    for tok in draw(st.lists(token, min_size=0, max_size=4)):
        parts += [draw(sep), tok]
    return b"".join(parts) + draw(sep) + draw(st.binary(max_size=24))


@st.composite
def config_texts(draw):
    """Lines of known or random keys, '=' or not, and random values."""
    keys = st.one_of(st.sampled_from([f.name for f in fields(mv.RunConfig)]), st.text(max_size=8))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        key, value = draw(keys), draw(st.text(max_size=12))
        lines.append(f"{key}{draw(st.sampled_from([' = ', '=', ' ', '#']))}{value}")
    return "\n".join(lines).encode(draw(st.sampled_from(["utf-8", "utf-16", "latin-1"])),
                                   errors="replace")


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(blob=st.one_of(st.binary(max_size=40), mutated(VALID_PGM), pgm_headers()))
@example(blob=EIGHT_BIT_IMAGE)
def test_read_pgm_raises_only_pgm_format_error(scratch, blob):
    path = scratch / "f.pgm"
    path.write_bytes(blob)
    for maxval in (None, MAXVAL):
        try:
            image = mv.read_pgm(path, maxval=maxval)
        except PgmFormatError:
            continue
        assert image.ndim == 2 and image.size <= len(blob)


@FUZZ
@given(blob=st.one_of(st.binary(max_size=64), mutated(VALID_CHECKPOINT),
                      u32_overwritten(VALID_CHECKPOINT, 200)))
@example(blob=HUGE_DEPTH_CHECKPOINT)
@example(blob=NON_UTF8_NAME_CHECKPOINT)
@example(blob=NAN_PAYLOAD_CHECKPOINT)
def test_load_checkpoint_raises_only_checkpoint_error(scratch, blob):
    path = scratch / "m.ckpt"
    path.write_bytes(blob)
    for dtype in (np.float64, np.float32):
        try:
            params, cfg = mv.load_checkpoint(path, dtype)
        except CheckpointError:
            continue
        assert list(params) == list(mv.unet.param_shapes(cfg))
        arrays = [a for wb in params.values() for a in wb]
        assert all(a.dtype == dtype and np.isfinite(a).all() for a in arrays)


@FUZZ
@given(blob=st.one_of(st.binary(max_size=64), mutated(VALID_CONFIG), config_texts()))
@example(blob=NON_UTF8_CONFIG)
def test_parse_config_raises_only_validation_error(scratch, blob):
    path = scratch / "run.cfg"
    path.write_bytes(blob)
    try:
        cfg = mv.parse_config(path)
    except ValidationError:
        return
    assert cfg.dataset


@FUZZ
@given(blob=st.one_of(st.binary(max_size=64), mutated(VALID_REFERENCE)))
@example(blob=VALID_REFERENCE)
@example(blob=b"pixels_M=100\nV_M_mm3=2.0\npixels_M=400\n")
def test_read_reference_raises_only_validation_error(scratch, blob):
    path = scratch / "ref.txt"
    path.write_bytes(blob)
    try:
        pixels_m, v_m = mv.read_reference(path)
    except ValidationError:
        return
    assert type(pixels_m) is int and pixels_m > 0 and type(v_m) is float and 0 < v_m < np.inf


@pytest.fixture(scope="module")
def manifest_dataset(scratch):
    """A two-pair dataset whose files VALID_MANIFEST lists."""
    tiny_dataset(scratch / "manifest", count=2)
    return scratch / "manifest"


@FUZZ
@given(blob=st.one_of(st.binary(max_size=64), mutated(VALID_MANIFEST)))
@example(blob=VALID_MANIFEST)
@example(blob=NON_UTF8_MANIFEST)
def test_load_manifest_raises_only_data_mismatch_error(manifest_dataset, blob):
    (manifest_dataset / "manifest.txt").write_bytes(blob)
    try:
        pairs = mv.load_manifest(manifest_dataset)
    except (DataMismatchError, OSError):  # Path.is_file raises ENAMETOOLONG on an over-long name
        return
    assert pairs and all(image.is_file() and mask.is_file() for image, mask in pairs)


# Names in the CLI target's working directory, made by `cli_root`, plus some that do not exist.
CLI_PATHS = [
    "data", "data/images", "data/masks", "data/manifest.txt", "data/images/phantom_00000.pgm",
    "pred", "model.ckpt", "run.cfg", "bad.cfg", "ref.txt", "junk.bin", "empty", "missing",
    "missing/x", "out", "out.csv", "", ".", "..", "bad_manifest",
]
# The path each flag usually names, so that most examples get past the first check.
CLI_GOOD_PATHS = {"out": "out", "config": "run.cfg", "checkpoint": "model.ckpt", "images": "data",
                  "pred": "pred", "truth": "data/masks", "reference": "ref.txt"}
# Values per flag dest. Sizes, counts and epochs stay small, so no example takes much over a second.
CLI_INTS = {"count": st.integers(-1, 3), "size": st.sampled_from([-1, 0, 7, 8, 16, 17, 32]),
            "seed": st.integers(-2, 2**32), "streaks": st.integers(-1, 5)}


def cli_values(dest: str):
    junk = st.text(max_size=6).filter(lambda t: "/" not in t and "\\" not in t)
    if dest in CLI_INTS:
        return st.one_of(CLI_INTS[dest].map(str), junk)
    if dest in ("implant_radius", "bone_density", "noise_sigma"):
        floats = st.sampled_from(["nan", "inf", "-inf", "-0.1", "0", "0.3", "1", "1e308"])
        return st.one_of(floats, st.floats(-2, 2).map(str), junk)
    good = st.just(CLI_GOOD_PATHS[dest])
    return st.one_of(good, good, st.sampled_from(CLI_PATHS), junk)  # the usual path half the time


def cli_flags():
    """{subcommand: [(option string, dest, required)]}, read from the real parser."""
    [sub] = [a for a in build_parser()._actions if a.dest == "command"]
    return {name: [(a.option_strings[-1], a.dest, a.required) for a in parser._actions if a.dest != "help"]
            for name, parser in sub.choices.items()}


CLI_FLAGS = cli_flags()


@st.composite
def cli_argvs(draw):
    """A subcommand and its flags in any order: a required flag is left out one time in ten,
    an optional one half the time, and a junk token may land anywhere."""
    command = draw(st.sampled_from(sorted(CLI_FLAGS)))
    argv = [command]
    for option, dest, required in draw(st.permutations(CLI_FLAGS[command])):
        if draw(st.integers(0, 9)) < (9 if required else 5):
            argv += [option, draw(cli_values(dest))]
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.text(max_size=4)))
    return argv


@pytest.fixture(scope="module")
def cli_root(tmp_path_factory):
    """A dataset, a trained checkpoint, configs and a reference, copied into each example's directory."""
    root = tmp_path_factory.mktemp("cli")
    tiny_dataset(root / "data", count=3)
    write_config(root / "run.cfg", dataset="data", checkpoint="model.ckpt", metrics="metrics.csv",
                 depth=1, base_channels=2, input_size=16, epochs=1, batch_size=2, seed=1, split="0.34")
    write_config(root / "bad.cfg", dataset="data", epochs=-1)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", "--config", str(root / "run.cfg")]) == 0
        assert main(["predict", "--checkpoint", str(root / "model.ckpt"), "--images", str(root / "data"),
                     "--out", str(root / "pred")]) == 0
    (root / "ref.txt").write_text("pixels_M=120\nV_M_mm3=2.5\n")
    (root / "junk.bin").write_bytes(b"\xff\xfe\x00 pixels_M=1\n")
    (root / "empty").mkdir()
    shutil.copytree(root / "data", root / "bad_manifest")
    (root / "bad_manifest" / "manifest.txt").write_bytes(NON_UTF8_MANIFEST)
    return root


def listing(directory: Path) -> dict:
    return {p.name: p.stat().st_mtime_ns for p in directory.iterdir()}


@settings(FUZZ, max_examples=300)
@given(argv=cli_argvs())
@example(argv=["evaluate", "--pred", "pred", "--truth", "data/masks", "--out", "out.csv"])
@example(argv=["volumetry", "--pred", "pred", "--reference", "junk.bin"])  # UnicodeDecodeError
@example(argv=["predict", "--checkpoint", "model.ckpt", "--images", "data", "--out", "o\0"])  # ValueError
@example(argv=["predict", "--checkpoint", "model.ckpt", "--images", "bad_manifest",
               "--out", "out"])  # UnicodeDecodeError
@example(argv=["evaluate", "--pred", "a\nerror: b", "--truth", "data/masks"])  # two error lines
def test_cli_keeps_its_exit_code_contract(cli_root, argv):
    """Every exit is 0, 2, 3, 4 or 5, and a failure prints one `error:` line, which is all that
    stderr holds when main itself returns the code. Each example runs in a fresh copy of
    `cli_root` two levels inside pytest's base temp dir, so `..` stays inside it, and nothing may
    change beside that dir or in the starting directory. argparse exits through SystemExit (2 for
    a usage error), which is read as the exit code."""
    base = cli_root.parent  # pytest's base temp dir
    work = base / "cli_work" / "run"
    shutil.rmtree(work.parent, ignore_errors=True)
    shutil.copytree(cli_root, work)
    outside = [base.parent, Path.cwd()]
    before = [listing(d) for d in outside]
    err, cwd, exited = io.StringIO(), os.getcwd(), False
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code, exited = exc.code, True
    finally:
        os.chdir(cwd)
    assert code in (0, 2, 3, 4, 5), (argv, code)
    if code:
        assert sum("error:" in line for line in err.getvalue().splitlines()) == 1, err.getvalue()
        assert exited or len(err.getvalue().splitlines()) == 1, err.getvalue()
    assert [listing(d) for d in outside] == before
