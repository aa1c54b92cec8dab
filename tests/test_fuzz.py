"""Fuzz the parsers of untrusted files: read_pgm, load_checkpoint, parse_config.

Whatever the bytes, each parser either returns or raises its own named
error (PgmFormatError, CheckpointError, ValidationError), which the CLI maps
to an exit code. Inputs are raw bytes, valid files with a few bytes
overwritten, inserted or cut, and files whose header fields are replaced by
arbitrary 32-bit values. The examples are derandomized, so every run checks
the same inputs.
"""

import struct
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import microvolumetry as mv
from microvolumetry.data import MAXVAL
from microvolumetry.errors import CheckpointError, PgmFormatError, ValidationError

from helpers import (
    EIGHT_BIT_IMAGE,
    HUGE_DEPTH_CHECKPOINT,
    NON_UTF8_CONFIG,
    NON_UTF8_NAME_CHECKPOINT,
    checkpoint_bytes,
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
def test_load_checkpoint_raises_only_checkpoint_error(scratch, blob):
    path = scratch / "m.ckpt"
    path.write_bytes(blob)
    try:
        params, cfg = mv.load_checkpoint(path)
    except CheckpointError:
        return
    assert list(params) == list(mv.unet.param_shapes(cfg))


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
