"""Synthetic cross-modality person benchmark.

Identity is geometry: three fixed-anchor rectangles (head, torso, legs)
whose per-identity heights and widths are the only stable cue.  Clothing is
appearance: each (identity, outfit) pair owns a color triple and stripe
period painted over the torso and leg regions.  Visible renders show the
colors; infrared renders collapse to a bright body intensity with clothing
contrast compressed toward it, stored as three identical channels.  The
result: clothing is a strong shortcut in the visible domain and nearly
absent in infrared, while shape transfers across both.

All randomness flows through ``numpy.random.default_rng`` seeded from the
config seed plus stream tags, so byte-identical datasets come from equal
configs.  The draws follow the benchmark's design of one body and several
outfits per person:

- once per dataset, from the palette stream: the outfit colors
  (``color_palette``);
- once per identity, from the identity's stream: the body geometry
  (``identity_factors``);
- once per identity, from each outfit's stream in turn: the outfit's
  palette index and stripe period, and the stripe levels each modality
  shows (``outfit_factors``);
- once per image, from the image's own stream keyed by identity, modality
  and image index: the region jitter, then the sensor noise
  (``render_sample``).

``generate_dataset`` draws the palette once and each identity's and each
outfit's factors once, and hands them to every ``render_sample`` call that
shows them.  So an image pays only for what is its own: creating its
stream, its jitter and noise draws, a few slice assignments, one rounding
into the file's channels-last raster, and one file write.  Infrared is
painted, noised and clipped as one [H, W] plane, since its three channels
are equal by construction.
"""

from __future__ import annotations

import csv
import hashlib
import io
import os
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import fileio, pnm

VISIBLE = "V"
INFRARED = "I"
MODALITIES = (VISIBLE, INFRARED)
SPLIT_TRAIN = "train"
SPLIT_TEST = "test"

COUPLING_COUPLED = "coupled"
COUPLING_DECOUPLED = "decoupled"

MANIFEST_NAME = "manifest.csv"
MANIFEST_HEADER = ["path", "identity", "clothing", "modality", "split"]

# rendering constants (fractions of canvas height/width)
#
# The size ranges are deliberately narrow: identities must overlap enough
# that body geometry is a subtle cue, while outfit color stays a glaring
# one.  A model that leans on color fails across the modality gap; one
# that reads geometry transfers.
_HEAD_TOP, _TORSO_TOP, _LEGS_TOP = 0.08, 0.30, 0.66
_HEAD_H, _HEAD_W = (0.10, 0.18), (0.22, 0.42)
_TORSO_H, _TORSO_W = (0.23, 0.33), (0.44, 0.80)
_LEGS_H, _LEGS_W = (0.21, 0.29), (0.30, 0.58)

# every image re-draws each region at a slightly different scale (aspect
# ratio preserved), so no identity is a fixed pixel template
_JITTER_SCALE = 0.15

_BACKGROUND = np.array([0.09, 0.10, 0.11])
_SKIN = np.array([0.82, 0.66, 0.52])
# every identity wears the same neutral trouser tone: the legs region carries
# body geometry only, so clothing stays confined to the torso and a spatial
# mask can separate the two signals
_LEGS_V = np.array([0.26, 0.27, 0.30])
_COLOR_LOW, _COLOR_HIGH = 0.40, 0.95
_DARK_BAND = 0.2            # dark stripe = this fraction of the outfit color
_STRIPE_PERIODS = (2, 3, 4)
# Outfits draw their color from a small shared palette instead of a fresh
# random color, so several identities collide on every color.  Outfit color
# alone therefore cannot identify a person, only narrow the field — which
# keeps it a tempting shortcut without making it a per-identity code.
_PALETTE_SIZE = 6
_IR_BODY = 0.85
_IR_CLOTHING_CONTRAST = 0.15  # infrared keeps this fraction of clothing contrast
# (background, head, legs) levels per modality: a color per visible region,
# one intensity per infrared region (the body shows as one bright level)
_BODY_LEVELS = {
    VISIBLE: (_BACKGROUND, _SKIN, _LEGS_V),
    INFRARED: (float(_BACKGROUND.mean()), _IR_BODY, _IR_BODY),
}

#: Largest canvas side ``GenConfig`` accepts, 32 times the default width; far
#: beyond it ``render_sample`` would fail with part of the dataset written.
MAX_IMAGE_SIDE = 1024

_STREAM_IDENTITY = 101
_STREAM_OUTFIT = 202
_STREAM_IMAGE = 303


class GenConfigError(ValueError):
    """Raised for unusable generator settings."""


class ManifestError(ValueError):
    """Raised when a manifest file fails validation."""


@dataclass(frozen=True)
class GenConfig:
    n_identities: int = 48
    images_per_identity_per_modality: int = 12
    image_height: int = 64
    image_width: int = 32
    outfits_per_identity: int = 2
    clothing_modality_coupling: str = COUPLING_COUPLED
    noise_level: float = 0.02
    split_ratio: str = "2:1"
    seed: int = 0

    def validate(self) -> None:
        if self.n_identities < 2:
            raise GenConfigError(
                f"need at least 2 identities to split, got {self.n_identities}"
            )
        if self.images_per_identity_per_modality < 1:
            raise GenConfigError("need at least one image per identity per modality")
        if not (16 <= self.image_height <= MAX_IMAGE_SIDE
                and 8 <= self.image_width <= MAX_IMAGE_SIDE):
            raise GenConfigError(f"canvas {self.image_height}x{self.image_width} is outside "
                                 f"16x8 to {MAX_IMAGE_SIDE}x{MAX_IMAGE_SIDE}")
        if self.outfits_per_identity < 2:
            raise GenConfigError(
                f"need at least 2 outfits per identity, got {self.outfits_per_identity}"
            )
        if self.outfits_per_identity > _PALETTE_SIZE:
            raise GenConfigError(
                f"an identity cannot wear more outfits than the palette has "
                f"colors ({self.outfits_per_identity} > {_PALETTE_SIZE})"
            )
        if self.clothing_modality_coupling not in (COUPLING_COUPLED, COUPLING_DECOUPLED):
            raise GenConfigError(
                f"coupling must be '{COUPLING_COUPLED}' or '{COUPLING_DECOUPLED}', "
                f"got {self.clothing_modality_coupling!r}"
            )
        if not 0.0 <= self.noise_level < 0.2:
            raise GenConfigError(f"noise level {self.noise_level} outside [0, 0.2)")
        if self.seed < 0:
            raise GenConfigError(f"seed must be non-negative, got {self.seed}")
        self.split_counts()

    def split_counts(self) -> tuple[int, int]:
        """(train identities, test identities) from the a:b ratio."""
        parts = self.split_ratio.split(":")
        if len(parts) != 2:
            raise GenConfigError(f"split ratio must look like '2:1', got {self.split_ratio!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GenConfigError(f"split ratio must be integral, got {self.split_ratio!r}") from exc
        if a < 1 or b < 1:
            raise GenConfigError(f"split ratio parts must be positive, got {self.split_ratio!r}")
        n_train = (self.n_identities * a) // (a + b)
        n_train = min(max(n_train, 1), self.n_identities - 1)
        return n_train, self.n_identities - n_train

    def canonical_text(self) -> str:
        lines = [f"{f.name}={getattr(self, f.name)}" for f in fields(self)]
        return "\n".join(lines) + "\n"


def config_fingerprint(cfg: GenConfig) -> str:
    return hashlib.sha256(cfg.canonical_text().encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# latent factors and rendering


def _stream(*key: int) -> np.random.Generator:
    """``np.random.default_rng(list(key))``, the stream keyed by ``key``.

    When every key is one 32-bit word, the key goes in as a uint32 array:
    ``SeedSequence`` reads it as it reads the list, word for word, but skips
    converting each Python int one by one, which cuts about 40 % off
    creating a stream.
    """
    try:
        entropy = np.array(key, dtype=np.uint32)
    except OverflowError:  # a negative key, or one of more than 32 bits
        entropy = list(key)
    return np.random.default_rng(entropy)


def identity_factors(cfg: GenConfig, identity: int) -> dict:
    """Per-identity body geometry in pixels."""
    rng = _stream(cfg.seed, _STREAM_IDENTITY, identity)
    h, w = cfg.image_height, cfg.image_width

    def region(top_frac, h_range, w_range):
        height = max(1, round(rng.uniform(*h_range) * h))
        width = max(1, round(rng.uniform(*w_range) * w))
        top = round(top_frac * h)
        left = (w - width) // 2
        return {"top": top, "left": left, "height": height, "width": width}

    return {
        "head": region(_HEAD_TOP, _HEAD_H, _HEAD_W),
        "torso": region(_TORSO_TOP, _TORSO_H, _TORSO_W),
        "legs": region(_LEGS_TOP, _LEGS_H, _LEGS_W),
    }


def color_palette(cfg: GenConfig) -> np.ndarray:
    """The dataset-wide outfit colors, shape [_PALETTE_SIZE, 3]."""
    rng = _stream(cfg.seed, _STREAM_OUTFIT)
    return rng.uniform(_COLOR_LOW, _COLOR_HIGH, size=(_PALETTE_SIZE, 3))


def _infrared_level(color: np.ndarray) -> float:
    """A clothing color in infrared, one intensity: its contrast compresses
    toward body heat."""
    return _IR_BODY + _IR_CLOTHING_CONTRAST * (float(color.mean()) - _IR_BODY)


def outfit_factors(cfg: GenConfig, identity: int, palette: np.ndarray) -> list[dict]:
    """The identity's outfits' clothing appearance, in both modalities, in
    outfit order; ``palette`` is the dataset's ``color_palette(cfg)``.

    Outfit k draws from its own stream, keyed by ``(identity, k)``: a palette
    index, then a stripe period.  An identity never repeats a palette color,
    so the index rotates past the colors its earlier outfits took.  Each
    outfit keeps its ``palette_index``, a color label that carries no
    identity.
    """
    taken: list[int] = []
    outfits = []
    for outfit in range(cfg.outfits_per_identity):
        rng = _stream(cfg.seed, _STREAM_OUTFIT, identity, outfit)
        index = int(rng.integers(_PALETTE_SIZE))
        while index in taken:
            index = (index + 1) % _PALETTE_SIZE
        taken.append(index)
        color = palette[index]
        dark = _DARK_BAND * color
        outfits.append({
            "palette_index": index,
            "color": color,
            "stripe_period": int(rng.choice(_STRIPE_PERIODS)),
            # (bright, dark) stripe levels as each modality shows them
            "stripe_levels": {
                VISIBLE: (color, dark),
                INFRARED: (_infrared_level(color), _infrared_level(dark)),
            },
        })
    return outfits


def _jittered_geometry(cfg: GenConfig, geometry: dict,
                       rng: np.random.Generator) -> dict:
    """Rescale each region by one per-image factor, keeping its aspect ratio.

    Region name -> its (rows, columns) slices on the canvas.
    """
    h, w = cfg.image_height, cfg.image_width
    out = {}
    factors = 1.0 + rng.uniform(-_JITTER_SCALE, _JITTER_SCALE, size=3)
    for name, factor in zip(("head", "torso", "legs"), factors.tolist()):
        region = geometry[name]
        height = max(1, min(h, round(region["height"] * factor)))
        width = max(1, min(w, round(region["width"] * factor)))
        top = min(max(region["top"], 0), h - height)
        left = (w - width) // 2
        out[name] = (slice(top, top + height), slice(left, left + width))
    return out


def render_sample(cfg: GenConfig, identity: int, modality: str, image_index: int,
                  geometry: dict, appearance: dict) -> np.ndarray:
    """One [3, H, W] float64 render in [0, 1].

    ``geometry`` is ``identity_factors(cfg, identity)`` and ``appearance`` is
    the ``outfit_factors`` entry of the outfit worn.  The only draws made
    here come from the image's own stream, keyed by ``(identity, modality,
    image_index)``: the per-region jitter, then the noise.  Beyond creating
    that stream and its draws, a render costs a few slice assignments and
    one clip.  Infrared is painted, noised and clipped as one [H, W] plane
    and repeated into its three equal channels at the end.
    """
    if modality not in MODALITIES:
        raise ValueError(f"modality must be one of {MODALITIES}, got {modality!r}")
    rng = _stream(cfg.seed, _STREAM_IMAGE, identity, MODALITIES.index(modality), image_index)
    regions = _jittered_geometry(cfg, geometry, rng)
    h, w = cfg.image_height, cfg.image_width
    background, head, legs = _BODY_LEVELS[modality]
    bright, dark = appearance["stripe_levels"][modality]
    # visible paints [3, H, W] through its [H, W, 3] view, so a color
    # broadcasts over the channels; infrared paints one plane with scalars
    canvas = np.empty((3, h, w) if modality == VISIBLE else (h, w))
    pixels = canvas.transpose(1, 2, 0) if modality == VISIBLE else canvas
    pixels[:] = background
    for name, level in (("head", head), ("legs", legs), ("torso", bright)):
        pixels[regions[name]] = level
    # torso row r (from the region's top) is dark when (r // period) is odd,
    # that is when r % (2 * period) >= period: one strided slice per offset
    rows, cols = regions["torso"]
    period = appearance["stripe_period"]
    for start in range(rows.start + period, rows.start + 2 * period):
        pixels[start : rows.stop : 2 * period, cols] = dark
    canvas += rng.normal(0.0, cfg.noise_level, size=canvas.shape)
    canvas.clip(0.0, 1.0, out=canvas)
    return canvas if modality == VISIBLE else np.repeat(canvas[None], 3, axis=0)


def quantize(image: np.ndarray) -> np.ndarray:
    """[3, H, W] floats in [0, 1] to a C-contiguous [H, W, 3] uint8 raster.

    The rounding (``np.rint``, half to even, as ``np.round`` rounds) writes
    straight into the raster's channels-last order, so the scaled floats are
    the only other buffer.
    """
    raster = np.empty((*image.shape[1:], 3), dtype=np.uint8)
    scaled = np.multiply(image, 255.0)
    np.rint(scaled, out=raster.transpose(2, 0, 1), casting="unsafe")
    return raster


def _outfit_for(cfg: GenConfig, modality: str, image_index: int) -> int:
    if cfg.clothing_modality_coupling == COUPLING_COUPLED:
        return 0 if modality == VISIBLE else 1
    return image_index % cfg.outfits_per_identity


# ---------------------------------------------------------------------------
# dataset and manifest


def unit_pixels(rasters: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """uint8 ``[N, H, W, 3]`` rasters as float64 ``[N, 3, H, W]`` in [0, 1].

    One division straight from uint8, so the result is the only float64
    buffer; it keeps the rasters' channels-last memory order.  Given ``out``,
    a float64 array of the rasters' shape, the division writes there instead
    and returns its ``[N, 3, H, W]`` transposed view: the same values in the
    same memory order, with no new array.
    """
    if out is not None:
        out = out.transpose(0, 3, 1, 2)
    return np.divide(rasters.transpose(0, 3, 1, 2), 255.0, out=out, dtype=np.float64)


@dataclass(frozen=True)
class ManifestRow:
    path: str
    identity: int
    clothing: int
    modality: str
    split: str


class Manifest:
    """The rows of a dataset, whose images are read from their files on use.

    No decoded pixels are kept: every ``load_pixels`` call decodes its row's
    file, and ``raster_batch`` copies each decoded row straight into its
    slot of the batch it returns, so pixel memory is one batch, not the
    dataset.  The manifest remembers only the first decoded image's path and
    shape, which every later image must share.  The dataset's pixels become
    float64 only through ``unit_pixels``, one ``raster_batch`` at a time.
    """

    def __init__(self, base_dir: Path, rows: list[ManifestRow], fingerprint: str):
        self.base_dir = Path(base_dir)
        self.rows = rows
        self.fingerprint = fingerprint
        self._prefix = os.path.join(self.base_dir, "")  # each row's path follows
        self._first_path: str | None = None  # the first decoded image
        self._shape: tuple[int, ...] | None = None  # and its shape

    def __len__(self) -> int:
        return len(self.rows)

    def rows_for_split(self, split: str) -> list[int]:
        return [i for i, row in enumerate(self.rows) if row.split == split]

    def load_pixels(self, index: int) -> np.ndarray:
        """Row ``index``'s uint8 ``[H, W, 3]`` raster, decoded from its file on
        every call: a read-only view of the file's bytes (``pnm.read_ppm``)."""
        path = self._prefix + self.rows[index].path
        try:
            raster = pnm.read_ppm(path)
        except pnm.PnmError as exc:
            raise ManifestError(str(exc)) from exc
        if raster.shape != self._shape:
            if self._shape is not None:
                raise ManifestError(
                    f"{path}: {raster.shape[0]}x{raster.shape[1]} image, but "
                    f"{self._first_path} is {self._shape[0]}x{self._shape[1]}; "
                    f"images must share one size"
                )
            self._first_path, self._shape = path, raster.shape
        return raster

    def raster_batch(self, indices, flips=None) -> np.ndarray:
        """The uint8 ``[N, H, W, 3]`` rasters of ``indices``, a new array.

        Each row is decoded by ``load_pixels`` and copied straight into its
        slot.  ``flips``, a boolean mask over ``indices``, then mirrors those
        slots left to right.  ``unit_pixels`` converts the result to float64.
        """
        rasters = None
        for slot, index in enumerate(indices):
            raster = self.load_pixels(index)
            if rasters is None:
                rasters = np.empty((len(indices), *raster.shape), dtype=np.uint8)
            rasters[slot] = raster
        if flips is not None:
            # a channel at a time, so numpy's inner loop runs along W and not
            # over each pixel's 3 bytes: about four times as fast
            unflipped = rasters[flips]
            for channel in range(rasters.shape[-1]):
                rasters[flips, :, :, channel] = unflipped[:, :, ::-1, channel]
        return rasters


def generate_dataset(cfg: GenConfig, out_dir) -> Manifest:
    """Render every sample into ``out_dir``, which must be absent or empty,
    write the manifest there and return it."""
    cfg.validate()
    out = Path(out_dir)
    if out.exists() and any(out.iterdir()):
        raise FileExistsError(f"output directory {out} is not empty")
    out.mkdir(parents=True, exist_ok=True)

    n_train, _ = cfg.split_counts()
    rows: list[ManifestRow] = []
    root = os.fspath(out)
    palette = color_palette(cfg)
    for identity in range(cfg.n_identities):
        split = SPLIT_TRAIN if identity < n_train else SPLIT_TEST
        geometry = identity_factors(cfg, identity)
        appearances = outfit_factors(cfg, identity, palette)
        for modality in MODALITIES:
            folder = f"images/{modality}/{identity:04d}/"
            prefix = os.path.join(root, folder)
            os.makedirs(prefix, exist_ok=True)
            for idx in range(cfg.images_per_identity_per_modality):
                outfit = _outfit_for(cfg, modality, idx)
                image = render_sample(cfg, identity, modality, idx,
                                      geometry, appearances[outfit])
                name = f"{idx:03d}.ppm"
                pnm.write_ppm(prefix + name, quantize(image))
                rows.append(ManifestRow(
                    path=folder + name,
                    identity=identity,
                    clothing=identity * cfg.outfits_per_identity + outfit,
                    modality=modality,
                    split=split,
                ))

    fingerprint = config_fingerprint(cfg)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(MANIFEST_HEADER)
    for row in rows:
        writer.writerow([row.path, row.identity, row.clothing, row.modality, row.split])
    buffer.write(f"# fingerprint={fingerprint}\n")
    fileio.write_atomic(out / MANIFEST_NAME, buffer.getvalue().encode("utf-8"))
    return Manifest(out, rows, fingerprint)


def _csv_fields(path: Path, number: int, line: str) -> list[str]:
    try:
        return next(csv.reader([line]))
    except csv.Error as exc:
        raise ManifestError(f"{path}:{number}: {exc}") from None


def load_manifest(path) -> Manifest:
    """Read and validate a manifest; ``path`` is the csv or its directory.

    The lines (``str.splitlines``) are parsed in one pass and each is let go
    once parsed; the first line that is neither blank nor a ``#`` comment is
    the header.  Errors name the file and the line.  Every row path must be
    relative and, once its ``..`` parts are folded away, stay inside the
    manifest's directory.  Each row's ``split`` is ``SPLIT_TRAIN`` or
    ``SPLIT_TEST`` itself, not a copy.
    """
    path = Path(path)
    if path.is_dir():
        path = path / MANIFEST_NAME
    if not path.is_file():
        raise FileNotFoundError(f"no manifest at {path}")
    base_dir = path.parent
    base = str(base_dir)
    rows: list[ManifestRow] = []
    fingerprint = ""
    header_seen = False
    try:
        lines = path.read_bytes().decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ManifestError(f"{path}: not UTF-8 text: {exc}") from exc
    lines.reverse()  # popped from the end, first line first
    for number in range(1, len(lines) + 1):
        line = lines.pop()
        if line.startswith("#"):
            if line.startswith("# fingerprint="):
                fingerprint = line.split("=", 1)[1].strip()
            continue
        if not line.strip():
            continue
        record = _csv_fields(path, number, line)
        if not header_seen:
            if record != MANIFEST_HEADER:
                raise ManifestError(f"{path}:{number}: header {record} != {MANIFEST_HEADER}")
            header_seen = True
            continue
        if len(record) != 5:
            raise ManifestError(f"{path}:{number}: expected 5 columns, got {len(record)}")
        rel, identity_s, clothing_s, modality, split = record
        try:
            identity, clothing = int(identity_s), int(clothing_s)
        except ValueError as exc:
            raise ManifestError(f"{path}:{number}: non-integer label") from exc
        if modality not in MODALITIES:
            raise ManifestError(f"{path}:{number}: bad modality {modality!r}")
        if split not in (SPLIT_TRAIN, SPLIT_TEST):
            raise ManifestError(f"{path}:{number}: bad split {split!r}")
        if identity < 0 or clothing < 0:
            raise ManifestError(f"{path}:{number}: negative label")
        if os.path.isabs(rel) or os.path.normpath(rel).split(os.sep)[0] == os.pardir:
            raise ManifestError(f"{path}:{number}: image path {rel!r} leaves the dataset")
        if not os.path.isfile(os.path.join(base, rel)):
            raise ManifestError(f"{path}:{number}: missing image {rel}")
        rows.append(ManifestRow(rel, identity, clothing, modality,
                                SPLIT_TRAIN if split == SPLIT_TRAIN else SPLIT_TEST))
    if not header_seen:
        raise ManifestError(f"{path}: empty manifest")
    if not rows:
        raise ManifestError(f"{path}: no data rows")
    identities = np.unique([row.identity for row in rows])
    if not np.array_equal(identities, np.arange(identities.size)):
        raise ManifestError(f"{path}: identity labels are not dense from 0")
    for split in (SPLIT_TRAIN, SPLIT_TEST):
        if not any(row.split == split for row in rows):
            raise ManifestError(f"{path}: split {split!r} is empty")
    return Manifest(base_dir, rows, fingerprint)
