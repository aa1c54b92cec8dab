"""Image/mask I/O, label encoding, splitting, and phantom synthesis.

Grayscale images are (H, W) uint16 arrays, label masks (H, W) uint8 arrays
over {0 background, 1 bone, 2 implant}. Interchange format is binary PGM
(P5): images with maxval 65535 (16-bit big-endian payload per the PNM
standard), masks with maxval 2.

Real scans are replaced by synthetic phantoms: a bright central implant
disk, a textured bone annulus around it, dark background, additive noise,
and bright radial streaks that imitate metal artifacts and are deliberately
NOT labeled as bone.

Every file the package writes goes through `_write_atomic`: whole or not at all.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter

from .errors import DataMismatchError, PgmFormatError, ValidationError
from .tensor import NUM_CLASSES

MAXVAL = 65535

# Intensity bands as fractions of MAXVAL. The baseline thresholding that the
# paper-style overestimation check uses cuts at BONE_BAND[0].
BACKGROUND_BAND = (0.05, 0.20)
BONE_BAND = (0.45, 0.65)
STREAK_BAND = (0.55, 0.80)
IMPLANT_BAND = (0.85, 1.00)

ANNULUS_OUTER_FRACTION = 0.45

MANIFEST_NAME = "manifest.txt"


def validate_mask(mask: np.ndarray) -> np.ndarray:
    mask = np.asarray(mask)
    if mask.ndim != 2:
        raise ValidationError(f"mask must be 2-d, got shape {mask.shape}")
    if mask.size and not np.isin(mask, range(NUM_CLASSES)).all():
        raise ValidationError(f"mask contains labels outside {set(range(NUM_CLASSES))}")
    return mask.astype(np.uint8)


# ---------------------------------------------------------------------------
# PGM (P5)


def _next_token(blob: bytes, off: int) -> tuple[bytes, int]:
    while off < len(blob):
        ch = blob[off : off + 1]
        if ch in (b" ", b"\t", b"\r", b"\n"):
            off += 1
        elif ch == b"#":
            while off < len(blob) and blob[off : off + 1] not in (b"\r", b"\n"):
                off += 1
        else:
            break
    start = off
    while off < len(blob) and blob[off : off + 1] not in (b" ", b"\t", b"\r", b"\n"):
        off += 1
    if start == off:
        raise PgmFormatError(f"unexpected end of PGM header at byte {start}")
    return blob[start:off], off


def _header_int(blob: bytes, off: int, what: str) -> tuple[int, int]:
    token, off = _next_token(blob, off)
    try:
        value = int(token)
    except ValueError:
        raise PgmFormatError(f"non-numeric {what} {token!r} at byte {off - len(token)}") from None
    return value, off


def read_pgm(path, maxval: int | None = None) -> np.ndarray:
    """Read a binary (P5) PGM into a (H, W) uint16 array.

    Samples are returned as stored, never rescaled, so a caller that gives
    `maxval` gets a PgmFormatError unless the header declares exactly it.
    """
    blob = Path(path).read_bytes()
    magic, off = _next_token(blob, 0)
    if magic != b"P5":
        raise PgmFormatError(f"bad magic {magic!r} at byte 0, expected b'P5'")
    width, off = _header_int(blob, off, "width")
    height, off = _header_int(blob, off, "height")
    declared, off = _header_int(blob, off, "maxval")
    if width < 1 or height < 1:
        raise PgmFormatError(f"invalid dimensions {width}x{height} in header ending at byte {off}")
    if declared < 1 or declared > MAXVAL:
        raise PgmFormatError(f"maxval {declared} out of range 1..{MAXVAL} at byte {off}")
    if maxval is not None and declared != maxval:
        raise PgmFormatError(f"{path}: maxval {declared}, expected {maxval}")
    off += 1  # the single whitespace byte separating header from payload
    two_byte = declared > 255
    need = width * height * (2 if two_byte else 1)
    payload = blob[off : off + need]
    if len(payload) < need:
        raise PgmFormatError(
            f"payload truncated at byte {off + len(payload)}: have {len(payload)}, need {need}"
        )
    dtype = ">u2" if two_byte else np.uint8
    pixels = np.frombuffer(payload, dtype=dtype).reshape(height, width)
    return pixels.astype(np.uint16)


def read_mask(path) -> np.ndarray:
    """Read a PGM and validate it as a {0,1,2} label mask."""
    pixels = read_pgm(path)
    try:
        return validate_mask(pixels)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _write_atomic(path, parts) -> None:
    """Write the bytes-like `parts` to a temp file beside `path`, then rename it
    onto `path`; on any error the temp file is removed and `path` is untouched."""
    head, name = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")  # a `*.pgm` glob never sees it
    fh = open(tmp, "wb")
    try:
        with fh:
            fh.writelines(parts)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_pgm(arr: np.ndarray, path) -> None:
    """Write an image (uint16, maxval 65535) or mask (uint8, maxval 2) as P5."""
    arr = np.asarray(arr)
    if arr.ndim != 2:
        raise ValidationError(f"PGM payload must be 2-d, got shape {arr.shape}")
    if arr.dtype == np.uint8:
        validate_mask(arr)
        maxval, payload = 2, arr.tobytes()
    elif arr.dtype == np.uint16:
        maxval, payload = MAXVAL, arr.astype(">u2").tobytes()
    else:
        raise ValidationError(f"expected uint8 mask or uint16 image, got dtype {arr.dtype}")
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n{maxval}\n".encode("ascii")
    _write_atomic(path, (header, payload))


# ---------------------------------------------------------------------------
# Label encoding and dataset splitting


def encode_one_hot(mask: np.ndarray) -> np.ndarray:
    """(1, NUM_CLASSES, H, W) one-hot tensor; channel k indicates label k."""
    mask = validate_mask(mask)
    return (mask[None, None, :, :] == np.arange(NUM_CLASSES)[None, :, None, None]).astype(np.float64)


@dataclass
class DatasetSplit:
    train: list
    validation: list


def split_dataset(pairs: list, rule="paper_95_5", seed: int = 0) -> DatasetSplit:
    """Seeded shuffle split; rule is "paper_95_5" or a validation fraction.

    paper_95_5 holds out 5% (exactly 5 of 100); a float fraction rounds to
    the nearest count, at least 1.
    """
    n = len(pairs)
    if n < 2:
        raise ValidationError(f"need at least 2 pairs to split, got {n}")
    if rule == "paper_95_5":
        frac = 0.05
    else:
        try:
            frac = float(rule)
        except (TypeError, ValueError):
            raise ValidationError(f"split rule must be 'paper_95_5' or a fraction, got {rule!r}") from None
        if not 0.0 < frac < 1.0:
            raise ValidationError(f"validation fraction must be in (0, 1), got {frac}")
    n_val = max(1, round(frac * n))
    if n_val >= n:
        raise ValidationError(f"validation count {n_val} leaves no training items (n={n})")
    perm = np.random.default_rng(seed).permutation(n)
    return DatasetSplit(
        train=[pairs[i] for i in perm[n_val:]],
        validation=[pairs[i] for i in perm[:n_val]],
    )


# ---------------------------------------------------------------------------
# Phantom synthesis


@dataclass(frozen=True)
class PhantomSpec:
    size: int
    implant_radius: float = 0.18
    bone_density: float = 0.5
    noise_sigma: float = 0.02
    artifact_streaks: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.size < 8:
            raise ValidationError(f"phantom size must be >= 8, got {self.size}")
        if not 0.0 < self.implant_radius < 0.5:
            raise ValidationError(f"implant_radius must be in (0, 0.5), got {self.implant_radius}")
        if not 0.0 <= self.bone_density <= 1.0:
            raise ValidationError(f"bone_density must be in [0, 1], got {self.bone_density}")
        if not 0.0 <= self.noise_sigma < np.inf:
            raise ValidationError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if self.artifact_streaks < 0:
            raise ValidationError("artifact_streaks must be >= 0")


def generate_phantom(spec: PhantomSpec) -> tuple[np.ndarray, np.ndarray]:
    """Synthesize one (image, mask) pair, fully determined by spec.seed.

    Implant: bright central disk, label 2. Bone: thresholded smoothed-noise
    texture in the annulus around the implant, label 1; the threshold is the
    annulus quantile that makes roughly bone_density of it bone. Streaks:
    bright radial rays from the implant boundary outward, left unlabeled so
    a naive intensity threshold overcounts bone exactly as metal artifacts
    make reference software do.
    """
    rng = np.random.default_rng(spec.seed)
    size = spec.size
    cy = (size - 1) / 2.0 + rng.uniform(-0.05, 0.05) * size
    cx = (size - 1) / 2.0 + rng.uniform(-0.05, 0.05) * size
    yy, xx = np.mgrid[0:size, 0:size]
    rr = np.hypot(yy - cy, xx - cx)
    r_implant = spec.implant_radius * size
    implant = rr <= r_implant
    annulus = (rr > r_implant) & (rr <= ANNULUS_OUTER_FRACTION * size)

    texture = gaussian_filter(rng.standard_normal((size, size)), sigma=size / 32.0)
    if spec.bone_density <= 0.0 or not annulus.any():
        bone = np.zeros_like(annulus)
    elif spec.bone_density >= 1.0:
        bone = annulus.copy()
    else:
        threshold = np.quantile(texture[annulus], 1.0 - spec.bone_density)
        bone = annulus & (texture >= threshold)

    lo, hi = BACKGROUND_BAND
    img = lo + (hi - lo) * rng.random((size, size))
    lo, hi = BONE_BAND
    img[bone] = lo + (hi - lo) * rng.random(int(bone.sum()))
    lo, hi = IMPLANT_BAND
    img[implant] = lo + (hi - lo) * rng.random(int(implant.sum()))

    if spec.noise_sigma > 0:
        img += rng.normal(0.0, spec.noise_sigma, (size, size))

    lo, hi = STREAK_BAND
    for angle in rng.uniform(0.0, 2.0 * np.pi, spec.artifact_streaks):
        radii = np.arange(r_implant + 1.0, 0.75 * size, 0.5)
        py = np.rint(cy + radii * np.sin(angle)).astype(int)
        px = np.rint(cx + radii * np.cos(angle)).astype(int)
        for dy in (0, 1):
            for dx in (0, 1):
                qy, qx = py + dy, px + dx
                keep = (qy >= 0) & (qy < size) & (qx >= 0) & (qx < size)
                qy, qx = qy[keep], qx[keep]
                img[qy, qx] = np.maximum(img[qy, qx], lo + (hi - lo) * rng.random(qy.size))

    pixels = np.rint(np.clip(img, 0.0, 1.0) * MAXVAL).astype(np.uint16)
    mask = np.zeros((size, size), dtype=np.uint8)
    mask[bone] = 1
    mask[implant] = 2
    return pixels, mask


def make_dataset(out_dir, count: int, template: PhantomSpec, seed: int = 0) -> list[tuple[Path, Path]]:
    """Write `count` phantom pairs plus a manifest; deterministic per seed.

    Layout: images/phantom_#####.pgm, masks/phantom_#####.pgm, and a
    manifest of "image<TAB>mask" relative paths, one pair per line.
    """
    if count < 1:
        raise ValidationError(f"count must be >= 1, got {count}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    out_dir = Path(out_dir)
    os.makedirs(out_dir / "images", exist_ok=True)
    os.makedirs(out_dir / "masks", exist_ok=True)
    pairs: list[tuple[Path, Path]] = []
    lines: list[str] = []
    for i in range(count):
        item_seed = int(np.random.SeedSequence([seed, i]).generate_state(1)[0])
        image, mask = generate_phantom(replace(template, seed=item_seed))
        rel_img = f"images/phantom_{i:05d}.pgm"
        rel_mask = f"masks/phantom_{i:05d}.pgm"
        write_pgm(image, out_dir / rel_img)
        write_pgm(mask, out_dir / rel_mask)
        pairs.append((out_dir / rel_img, out_dir / rel_mask))
        lines.append(f"{rel_img}\t{rel_mask}\n")
    _write_atomic(out_dir / MANIFEST_NAME, ["".join(lines).encode("utf-8")])
    return pairs


def load_manifest(dataset_dir) -> list[tuple[Path, Path]]:
    """Resolve the manifest of a generated dataset into path pairs."""
    dataset_dir = Path(dataset_dir)
    manifest = dataset_dir / MANIFEST_NAME
    if not manifest.is_file():
        raise DataMismatchError(f"no {MANIFEST_NAME} in {dataset_dir}")
    pairs = []
    for lineno, line in enumerate(manifest.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataMismatchError(f"{manifest}:{lineno}: expected 'image<TAB>mask'")
        img, mask = dataset_dir / parts[0], dataset_dir / parts[1]
        if not img.is_file() or not mask.is_file():
            raise DataMismatchError(f"{manifest}:{lineno}: missing file {img} or {mask}")
        pairs.append((img, mask))
    if not pairs:
        raise DataMismatchError(f"{manifest} lists no pairs")
    return pairs


def image_to_tensor(image: np.ndarray) -> np.ndarray:
    """(H, W) uint16 intensities -> (1, 1, H, W) float64 in [0, 1]."""
    image = np.asarray(image)
    if image.ndim != 2:
        raise ValidationError(f"image must be 2-d, got shape {image.shape}")
    return image.astype(np.float64)[None, None, :, :] / MAXVAL


def _read_image(path, size: int) -> np.ndarray:
    """A 16-bit PGM scan as a (1, 1, size, size) tensor; another size is a DataMismatchError."""
    image = read_pgm(path, maxval=MAXVAL)
    if image.shape != (size, size):
        raise DataMismatchError(
            f"{path}: image is {image.shape[0]}x{image.shape[1]}, the network takes {size}x{size}"
        )
    return image_to_tensor(image)
