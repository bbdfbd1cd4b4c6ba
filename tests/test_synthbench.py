"""Synthetic dataset generator: determinism, structure, and invariants."""

from __future__ import annotations

import errno
import gc
import hashlib
import os
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from piareid import pnm, synthbench
from piareid.synthbench import (
    MAX_IMAGE_SIDE,
    GenConfig,
    GenConfigError,
    ManifestError,
    color_palette,
    config_fingerprint,
    generate_dataset,
    identity_factors,
    load_manifest,
    outfit_factors,
    render_sample,
)

# the probe renders' image index
PROBE_INDEX = 404


def render(cfg: GenConfig, identity: int, outfit: int, modality: str,
           image_index: int) -> np.ndarray:
    """``render_sample`` with the factors ``generate_dataset`` hands it."""
    return render_sample(
        cfg, identity, modality, image_index,
        identity_factors(cfg, identity),
        outfit_factors(cfg, identity, color_palette(cfg))[outfit],
    )


def clothing_contrast_ratio(cfg: GenConfig, identity: int, outfit: int = 0) -> float:
    """Torso-pixel std in visible over infrared, same identity and outfit."""

    def torso_slices(modality: str) -> tuple[slice, slice]:
        # reproduce the probe image's own jitter draws to find its torso
        rng = np.random.default_rng([
            cfg.seed, synthbench._STREAM_IMAGE, identity,
            synthbench.MODALITIES.index(modality), PROBE_INDEX,
        ])
        geometry = synthbench._jittered_geometry(cfg, identity_factors(cfg, identity), rng)
        return geometry["torso"]

    vis = render(cfg, identity, outfit, synthbench.VISIBLE, PROBE_INDEX)
    ir = render(cfg, identity, outfit, synthbench.INFRARED, PROBE_INDEX)
    vis_rows, vis_cols = torso_slices(synthbench.VISIBLE)
    ir_rows, ir_cols = torso_slices(synthbench.INFRARED)
    vis_std = float(vis[:, vis_rows, vis_cols].std())
    ir_std = float(ir[0, ir_rows, ir_cols].std())
    return vis_std / max(ir_std, 1e-12)


TINY = dict(
    n_identities=4,
    images_per_identity_per_modality=2,
    image_height=16,
    image_width=8,
)


# sha256 of every file that ``generate_dataset`` writes for
# ``GenConfig(**TINY, seed=5)`` in each coupling mode.  Any change to the
# order or the keys of the random streams changes these bytes.
GOLDEN_SHA256 = {
    "coupled": {
        "images/I/0000/000.ppm": "accaaa1966bef2423513378a75687742ded70f56dea9c83219f3386b56799376",
        "images/I/0000/001.ppm": "2c60a15b1631ab8d8306623a08e9c1211dcb4986eb7dd599504da6f250c4f625",
        "images/I/0001/000.ppm": "d82faa34ce2d52f95f113559e272dc71537bbdc05d487cb60ed383bbdd6d7525",
        "images/I/0001/001.ppm": "eafd9c500a3f2cca12576c10d3666372d2ed3219de4ec9cf0a39b1810ad5dd1f",
        "images/I/0002/000.ppm": "79d3696016c6582104321e11db26df00bd85b3daa00a52653f6613f92cfe1342",
        "images/I/0002/001.ppm": "3f57f1e1f5aaaaa568007416695a900562c59b11f90daab02b65918a0343f988",
        "images/I/0003/000.ppm": "e2b1de921acc101d134d4792cf9dff0df19402cb5391aeaa40ff893762c58884",
        "images/I/0003/001.ppm": "479602ef6c66a07ca6d999094079462b85b8afb1c6c5935112d30c07c9307358",
        "images/V/0000/000.ppm": "a9a5e4c0175bdeb33d1b5ff48036e1dfa9b95980c24fc41258a8330ebb07f269",
        "images/V/0000/001.ppm": "2ce5ebde0704a5d7ca681ddfdaa46f8f8420b5710777105e4255b11a332290d4",
        "images/V/0001/000.ppm": "21bc5c72b53a9135180889fc0f3fe980b43e51eda16e74ff6cea375b50e26d99",
        "images/V/0001/001.ppm": "4c7b45f5a95cb1075471dcc1b407d7c703ff438181fb4e71065c7c5203ebaba9",
        "images/V/0002/000.ppm": "9c724006563111327ba2bb8a548fcea77fbac1480403548d119ee3431f6bb8e2",
        "images/V/0002/001.ppm": "31f8cb43b41b8d3a64d4090061daf00f72d6d7e07e20590b6b4eaad37405914a",
        "images/V/0003/000.ppm": "33ff80689a34dfc6cce70cd74907a135248d0058e20020db57ff1548c0c88131",
        "images/V/0003/001.ppm": "03ce6acc95ad64b2ab540903e12a1afc144d3044535360840a71558e92ce9877",
        "manifest.csv": "f48cbf46bbf12180f9222243840f79e410e1dc3a116ae66c3be7a63f3c83ce36",
    },
    "decoupled": {
        "images/I/0000/000.ppm": "fc5ea9470e017091741a801ef87a7007dd7590ca9065d339aa1bbede585e7456",
        "images/I/0000/001.ppm": "2c60a15b1631ab8d8306623a08e9c1211dcb4986eb7dd599504da6f250c4f625",
        "images/I/0001/000.ppm": "9ca9cc7d16aa9f959e27d82f1d37f7437456c621b7abb26f62d629059f1132ce",
        "images/I/0001/001.ppm": "eafd9c500a3f2cca12576c10d3666372d2ed3219de4ec9cf0a39b1810ad5dd1f",
        "images/I/0002/000.ppm": "5ebaef0fb4e5ef97bb77b462efd87b81a1697878b65cc167f41f0b04cade0040",
        "images/I/0002/001.ppm": "3f57f1e1f5aaaaa568007416695a900562c59b11f90daab02b65918a0343f988",
        "images/I/0003/000.ppm": "d1475d54bce0841b83587c8743838e0eb164acd0cb424d80895732ef6691e1a7",
        "images/I/0003/001.ppm": "479602ef6c66a07ca6d999094079462b85b8afb1c6c5935112d30c07c9307358",
        "images/V/0000/000.ppm": "a9a5e4c0175bdeb33d1b5ff48036e1dfa9b95980c24fc41258a8330ebb07f269",
        "images/V/0000/001.ppm": "f4da86dbeee7ada36c158ed3de07018ed161612e566070095d6c20aed8a8130d",
        "images/V/0001/000.ppm": "21bc5c72b53a9135180889fc0f3fe980b43e51eda16e74ff6cea375b50e26d99",
        "images/V/0001/001.ppm": "5d899a49715cc734434a2a8f8bdb1ef0375e775dc2ff1a539d5f3b7547e6b7f9",
        "images/V/0002/000.ppm": "9c724006563111327ba2bb8a548fcea77fbac1480403548d119ee3431f6bb8e2",
        "images/V/0002/001.ppm": "9d0e1f25276b15c9d8c45356e629fa939292954f18684100ae415b50bfd86ada",
        "images/V/0003/000.ppm": "33ff80689a34dfc6cce70cd74907a135248d0058e20020db57ff1548c0c88131",
        "images/V/0003/001.ppm": "9f1a072941f024f3e735d212a730ffbb6372fdc5f66786b99ef0bf52482cefaa",
        "manifest.csv": "32798005e196e059b032d411c86455ebcdaedcc65b639d26ac042386b1bc2552",
    },
}


class TestGenConfigValidation:
    def test_defaults_are_valid(self):
        GenConfig().validate()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n_identities": 1},
            {"images_per_identity_per_modality": 0},
            {"image_height": 8},
            {"image_width": 4},
            {"outfits_per_identity": 1},
            {"outfits_per_identity": 7},
            {"clothing_modality_coupling": "sometimes"},
            {"noise_level": -0.1},
            {"noise_level": 0.5},
            {"split_ratio": "2"},
            {"split_ratio": "a:b"},
            {"split_ratio": "0:1"},
            {"seed": -1},
            {"image_height": MAX_IMAGE_SIDE + 1},
            {"image_width": MAX_IMAGE_SIDE + 1},
        ],
    )
    def test_rejects_bad_values(self, overrides):
        with pytest.raises(GenConfigError):
            GenConfig(**overrides).validate()

    def test_split_counts(self):
        assert GenConfig(n_identities=48, split_ratio="2:1").split_counts() == (32, 16)
        assert GenConfig(n_identities=12, split_ratio="2:1").split_counts() == (8, 4)
        assert GenConfig(n_identities=2, split_ratio="9:1").split_counts() == (1, 1)

    def test_fingerprint_tracks_config(self):
        base = config_fingerprint(GenConfig())
        assert base == config_fingerprint(GenConfig())
        assert base != config_fingerprint(GenConfig(seed=1))
        assert len(base) == 64


class TestLatentFactors:
    def test_identity_factors_deterministic_and_distinct(self):
        cfg = GenConfig()
        a1 = identity_factors(cfg, 0)
        a2 = identity_factors(cfg, 0)
        b = identity_factors(cfg, 1)
        assert a1 == a2
        assert a1 != b

    def test_regions_fit_canvas(self):
        cfg = GenConfig()
        for identity in range(8):
            factors = identity_factors(cfg, identity)
            for name in ("head", "torso", "legs"):
                region = factors[name]
                assert 0 <= region["top"]
                assert region["top"] + region["height"] <= cfg.image_height
                assert 0 <= region["left"]
                assert region["left"] + region["width"] <= cfg.image_width
                assert region["height"] > 0 and region["width"] > 0

    def test_palette_shape_and_range(self):
        palette = color_palette(GenConfig())
        assert palette.shape == (6, 3)
        assert (palette >= 0.40).all() and (palette <= 0.95).all()

    def test_outfit_colors_come_from_palette(self):
        cfg = GenConfig()
        palette = color_palette(cfg)
        for identity in range(6):
            outfits = outfit_factors(cfg, identity, palette)
            assert len(outfits) == cfg.outfits_per_identity
            for outfit in outfits:
                assert np.array_equal(outfit["color"], palette[outfit["palette_index"]])

    def test_identities_share_palette_colors(self):
        # 48 identities, 2 outfits, 6 colors: collisions are guaranteed, so
        # outfit color narrows the field but cannot identify a person
        cfg = GenConfig()
        palette = color_palette(cfg)
        wearers = {k: set() for k in range(len(palette))}
        for identity in range(cfg.n_identities):
            first = outfit_factors(cfg, identity, palette)[0]
            wearers[first["palette_index"]].add(identity)
        assert max(len(ids) for ids in wearers.values()) >= 2

    def test_an_identity_never_repeats_a_color(self):
        cfg = GenConfig(outfits_per_identity=6)
        palette = color_palette(cfg)
        for identity in range(12):
            outfits = outfit_factors(cfg, identity, palette)
            colors = [tuple(outfit["color"]) for outfit in outfits]
            assert len(set(colors)) == 6

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("outfits", [2, 3, 6])
    def test_outfits_equal_one_stream_per_outfit_reseeded(self, seed, outfits):
        # the rule as first written: outfit k re-seeds the streams of outfits
        # 0..k to replay which colors they took, then takes the stripe period
        # as the second draw of its own stream
        cfg = GenConfig(outfits_per_identity=outfits, seed=seed)
        palette = color_palette(cfg)

        def reseeded(identity, outfit):
            taken, index = set(), 0
            for k in range(outfit + 1):
                rng = np.random.default_rng([seed, synthbench._STREAM_OUTFIT, identity, k])
                index = int(rng.integers(6))
                while index in taken:
                    index = (index + 1) % 6
                taken.add(index)
            return index, int(rng.choice((2, 3, 4)))

        for identity in range(27):
            drawn = outfit_factors(cfg, identity, palette)
            assert [(f["palette_index"], f["stripe_period"]) for f in drawn] == [
                reseeded(identity, k) for k in range(outfits)]


class TestRenderSample:
    def test_shape_range_and_determinism(self):
        cfg = GenConfig(**TINY)
        image = render(cfg, 0, 0, "V", 0)
        assert image.shape == (3, 16, 8)
        assert image.min() >= 0.0 and image.max() <= 1.0
        assert np.array_equal(image, render(cfg, 0, 0, "V", 0))

    def test_different_indices_jitter(self):
        cfg = GenConfig(**TINY)
        assert not np.array_equal(
            render(cfg, 0, 0, "V", 0), render(cfg, 0, 0, "V", 1)
        )

    def test_infrared_is_grayscale(self):
        cfg = GenConfig(**TINY)
        image = render(cfg, 0, 0, "I", 0)
        assert np.array_equal(image[0], image[1])
        assert np.array_equal(image[0], image[2])

    def test_visible_is_colored(self):
        cfg = GenConfig(n_identities=4, images_per_identity_per_modality=2)
        image = render(cfg, 0, 0, "V", 0)
        assert not np.array_equal(image[0], image[1])

    def test_rejects_unknown_modality(self):
        with pytest.raises(ValueError):
            render(GenConfig(**TINY), 0, 0, "X", 0)

    def test_clothing_contrast_collapses_in_infrared(self):
        cfg = GenConfig()
        for identity in range(4):
            assert clothing_contrast_ratio(cfg, identity) >= 4.0


# ---------------------------------------------------------------------------
# a frozen copy of the earlier renderer: one [3, H, W] canvas for both
# modalities, stripes from a row-parity mask, and a quantized raster that is
# a transposed view, encoded through ``tobytes``


def _frozen_levels(modality, appearance):
    """(background, head, legs, bright, dark) as the earlier renderer held
    them: three-channel arrays, with infrared repeated over the channels."""
    color = appearance["color"]
    dark = synthbench._DARK_BAND * color
    if modality == synthbench.VISIBLE:
        return synthbench._BACKGROUND, synthbench._SKIN, synthbench._LEGS_V, color, dark

    def infrared(c):
        return np.full(3, synthbench._IR_BODY + synthbench._IR_CLOTHING_CONTRAST
                       * (float(c.mean()) - synthbench._IR_BODY))

    return (np.full(3, synthbench._BACKGROUND.mean()), np.full(3, synthbench._IR_BODY),
            np.full(3, synthbench._IR_BODY), infrared(color), infrared(dark))


def _frozen_jittered_geometry(cfg, geometry, rng):
    h, w = cfg.image_height, cfg.image_width
    out = {}
    factors = 1.0 + rng.uniform(-synthbench._JITTER_SCALE, synthbench._JITTER_SCALE, size=3)
    for name, factor in zip(("head", "torso", "legs"), factors.tolist()):
        region = geometry[name]
        height = max(1, min(h, round(region["height"] * factor)))
        width = max(1, min(w, round(region["width"] * factor)))
        top = min(max(region["top"], 0), h - height)
        left = (w - width) // 2
        out[name] = {"top": top, "left": left, "height": height, "width": width}
    return out


def _frozen_paint_stripes(canvas, region, bright, dark, period):
    top, left = region["top"], region["left"]
    height, width = region["height"], region["width"]
    rows = np.arange(height)
    banded = (rows // period) % 2 == 1
    block = np.where(banded[None, :, None], dark[:, None, None], bright[:, None, None])
    canvas[:, top : top + height, left : left + width] = block


def frozen_render_sample(cfg, identity, modality, image_index, geometry, appearance):
    rng = np.random.default_rng([cfg.seed, synthbench._STREAM_IMAGE, identity,
                                 synthbench.MODALITIES.index(modality), image_index])
    regions = _frozen_jittered_geometry(cfg, geometry, rng)
    h, w = cfg.image_height, cfg.image_width
    background, head, legs, bright, dark = _frozen_levels(modality, appearance)
    canvas = np.empty((3, h, w))
    canvas[:] = background[:, None, None]
    for region, level in ((regions["head"], head), (regions["legs"], legs)):
        canvas[
            :, region["top"] : region["top"] + region["height"],
            region["left"] : region["left"] + region["width"],
        ] = level[:, None, None]
    _frozen_paint_stripes(canvas, regions["torso"], bright, dark, appearance["stripe_period"])
    noise_shape = (3, h, w) if modality == synthbench.VISIBLE else (h, w)
    canvas += rng.normal(0.0, cfg.noise_level, size=noise_shape)
    return np.clip(canvas, 0.0, 1.0, out=canvas)


def frozen_quantize(image):
    return np.round(image * 255.0).astype(np.uint8).transpose(1, 2, 0)


def frozen_encode_ppm(pixels):
    h, w, _ = pixels.shape
    return b"P6\n" + f"{w} {h}\n255\n".encode("ascii") + pixels.tobytes()


class TestRenderMatchesFrozenCopy:
    """Painting by slices and rendering infrared as one plane change no bit
    of a render, its raster or its file bytes."""

    @given(
        seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64)),
        identity=st.integers(0, 200),
        modality=st.sampled_from(synthbench.MODALITIES), image_index=st.integers(0, 999),
        coupling=st.sampled_from([synthbench.COUPLING_COUPLED,
                                  synthbench.COUPLING_DECOUPLED]),
        outfits=st.integers(2, synthbench._PALETTE_SIZE),
        height=st.integers(16, 96), width=st.integers(8, 64),
        noise_level=st.floats(0.0, 0.2, exclude_max=True),
    )
    @example(seed=0, identity=0, modality="I", image_index=0, coupling="coupled",
             outfits=2, height=16, width=8, noise_level=0.0)
    @example(seed=5, identity=3, modality="V", image_index=1, coupling="decoupled",
             outfits=2, height=64, width=32, noise_level=0.02)
    @settings(max_examples=150, deadline=None)
    def test_render_raster_and_bytes_are_equal(self, seed, identity, modality, image_index,
                                               coupling, outfits, height, width,
                                               noise_level):
        cfg = GenConfig(n_identities=max(2, identity + 1), image_height=height,
                        image_width=width, outfits_per_identity=outfits,
                        clothing_modality_coupling=coupling, noise_level=noise_level,
                        seed=seed)
        cfg.validate()
        geometry = identity_factors(cfg, identity)
        appearance = outfit_factors(cfg, identity, color_palette(cfg))[
            synthbench._outfit_for(cfg, modality, image_index)]
        image = render_sample(cfg, identity, modality, image_index, geometry, appearance)
        want = frozen_render_sample(cfg, identity, modality, image_index, geometry, appearance)
        assert image.shape == want.shape == (3, height, width)
        assert np.array_equal(image, want)
        if modality == synthbench.INFRARED:
            assert np.array_equal(image[0], image[1])
            assert np.array_equal(image[0], image[2])
        raster = synthbench.quantize(image)
        assert raster.flags.c_contiguous
        assert np.array_equal(raster, frozen_quantize(want))
        assert pnm.encode_ppm(raster) == frozen_encode_ppm(frozen_quantize(want))


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    cfg = GenConfig(**TINY, seed=5)
    return cfg, generate_dataset(cfg, out), out


class TestGenerateDataset:
    def test_row_count_and_fields(self, dataset):
        cfg, manifest, _ = dataset
        assert len(manifest) == cfg.n_identities * 2 * cfg.images_per_identity_per_modality
        for row in manifest.rows:
            assert row.modality in ("V", "I")
            assert row.split in ("train", "test")
            assert 0 <= row.identity < cfg.n_identities

    def test_split_is_by_identity(self, dataset):
        cfg, manifest, _ = dataset
        train_ids = {row.identity for row in manifest.rows if row.split == "train"}
        test_ids = {row.identity for row in manifest.rows if row.split == "test"}
        assert train_ids.isdisjoint(test_ids)
        n_train, n_test = cfg.split_counts()
        assert len(train_ids) == n_train and len(test_ids) == n_test

    def test_coupled_clothing_follows_modality(self, dataset):
        cfg, manifest, _ = dataset
        for row in manifest.rows:
            outfit = row.clothing - row.identity * cfg.outfits_per_identity
            assert outfit == (0 if row.modality == "V" else 1)

    def test_clothing_labels_unique_per_identity_outfit(self, dataset):
        cfg, manifest, _ = dataset
        pairs = {(row.identity, row.clothing) for row in manifest.rows}
        clothing_ids = {c for _, c in pairs}
        assert len(clothing_ids) == cfg.n_identities * 2

    def test_pixels_round_trip_through_ppm(self, dataset):
        cfg, manifest, _ = dataset
        pixels = synthbench.unit_pixels(manifest.raster_batch([0]))[0]
        assert pixels.shape == (3, cfg.image_height, cfg.image_width)
        rendered = render(cfg, manifest.rows[0].identity, 0, "V", 0)
        # files hold the 8-bit quantization of the float render
        assert np.abs(pixels - rendered).max() <= 0.5 / 255.0 + 1e-12

    def test_load_pixels_decodes_its_file_on_every_call(self, dataset, monkeypatch):
        cfg, _, out = dataset
        manifest = load_manifest(out)
        reads = []
        read_ppm = pnm.read_ppm
        monkeypatch.setattr(pnm, "read_ppm", lambda path: reads.append(path) or read_ppm(path))
        raster = manifest.load_pixels(1)
        assert raster.dtype == np.uint8
        assert raster.shape == (cfg.image_height, cfg.image_width, 3)
        assert raster.nbytes == cfg.image_height * cfg.image_width * 3
        again = manifest.load_pixels(1)
        path = out / manifest.rows[1].path
        assert list(map(str, reads)) == [str(path)] * 2  # each call decodes once
        assert not np.shares_memory(again, raster)  # and keeps nothing
        assert np.array_equal(again, raster) and np.array_equal(raster, read_ppm(path))
        # a batch decodes each of its rows once, a repeated row each time
        manifest.raster_batch([1, 2, 1], np.array([False, True, False]))
        assert list(map(str, reads[2:])) == [str(out / manifest.rows[i].path)
                                             for i in (1, 2, 1)]

    def test_manifest_retains_no_decoded_pixels(self, dataset):
        cfg, _, out = dataset
        manifest = load_manifest(out)
        paths = [out / row.path for row in manifest.rows]
        rows = list(range(len(paths)))
        tracemalloc.start()
        try:
            batch = manifest.raster_batch(rows, np.arange(len(rows)) % 3 == 0)
            held = tracemalloc.get_traced_memory()[0]
            del manifest
            gc.collect()
            # what dropping the manifest frees of what the batch call allocated
            retained = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < cfg.image_height * cfg.image_width * 3
        for i in rows:
            expected = pnm.read_ppm(paths[i])
            assert np.array_equal(batch[i], expected[:, ::-1] if i % 3 == 0 else expected)

    def test_pixel_batch_scales_the_file_rasters(self, dataset):
        _, manifest, out = dataset
        rows = [0, 3, len(manifest) - 1, 3]
        batch = synthbench.unit_pixels(manifest.raster_batch(rows))
        expected = np.stack([
            pnm.read_ppm(out / manifest.rows[i].path).astype(np.float64)
            .transpose(2, 0, 1) / 255.0
            for i in rows
        ])
        assert batch.dtype == np.float64
        assert np.array_equal(batch, expected)
        # channels-last memory, which conv2d's im2col reads without a copy
        assert batch.transpose(0, 2, 3, 1).flags.c_contiguous

    def test_pixel_batch_flips_the_gathered_rows(self, dataset):
        _, manifest, _ = dataset
        rows = [0, 3, len(manifest) - 1, 3]
        flips = np.array([True, False, True, True])
        views = [manifest.load_pixels(i).copy() for i in rows]
        expected = synthbench.unit_pixels(manifest.raster_batch(rows))
        expected[flips] = expected[flips][..., ::-1]
        batch = synthbench.unit_pixels(manifest.raster_batch(rows, flips))
        assert np.array_equal(batch, expected)
        assert batch.transpose(0, 2, 3, 1).flags.c_contiguous
        # the duplicate row 3 is flipped once and kept once; its file is not
        for i, view in zip(rows, views):
            assert np.array_equal(manifest.load_pixels(i), view)

    def test_unit_pixels_into_a_given_buffer(self, dataset):
        _, manifest, _ = dataset
        rows = [0, 3, len(manifest) - 1]
        rasters = manifest.raster_batch(rows)
        out = np.full(rasters.shape, np.nan)
        batch = synthbench.unit_pixels(rasters, out)
        expected = synthbench.unit_pixels(manifest.raster_batch(rows))
        assert batch.base is out and batch.strides == expected.strides
        assert np.array_equal(batch, expected)

    def test_cached_rasters_are_read_only(self, dataset):
        _, manifest, _ = dataset
        before = synthbench.unit_pixels(manifest.raster_batch([0]))
        raster = manifest.load_pixels(0)
        with pytest.raises(ValueError, match="read-only"):
            raster[0, 0, 0] = 255 - raster[0, 0, 0]
        assert np.array_equal(synthbench.unit_pixels(manifest.raster_batch([0])), before)

    def test_load_manifest_round_trip(self, dataset):
        cfg, manifest, out = dataset
        loaded = load_manifest(out)
        assert loaded.fingerprint == manifest.fingerprint == config_fingerprint(cfg)
        assert loaded.rows == manifest.rows

    def test_refuses_nonempty_dir_without_overwrite(self, tmp_path):
        (tmp_path / "notes.txt").write_text("kept")
        with pytest.raises(FileExistsError, match="is not empty"):
            generate_dataset(GenConfig(**TINY, seed=5), tmp_path)
        assert [path.name for path in tmp_path.iterdir()] == ["notes.txt"]

    def test_negative_seed_fails_before_any_write(self, tmp_path):
        # a huge canvas fails the same way, before render_sample allocates it
        out = tmp_path / "d"
        for overrides, match in (({"seed": -1}, "seed"),
                                 ({"image_height": 100_000_000}, "canvas"),
                                 ({"image_width": 100_000_000}, "canvas")):
            with pytest.raises(GenConfigError, match=match):
                generate_dataset(GenConfig(**{**TINY, **overrides}), out)
            assert not out.exists()

    def test_same_seed_same_bytes(self, tmp_path):
        cfg = GenConfig(**TINY, seed=5)
        m1 = generate_dataset(cfg, tmp_path / "a")
        m2 = generate_dataset(cfg, tmp_path / "b")
        for i in (0, len(m1) - 1):
            assert np.array_equal(m1.load_pixels(i), m2.load_pixels(i))
        assert (tmp_path / "a" / "manifest.csv").read_bytes() == (
            tmp_path / "b" / "manifest.csv"
        ).read_bytes()

    def test_different_seed_different_pixels(self, tmp_path):
        m1 = generate_dataset(GenConfig(**TINY, seed=5), tmp_path / "a")
        m2 = generate_dataset(GenConfig(**TINY, seed=6), tmp_path / "b")
        assert not np.array_equal(m1.load_pixels(0), m2.load_pixels(0))

    def test_decoupled_mixes_outfits_within_modality(self, tmp_path):
        cfg = GenConfig(**TINY, clothing_modality_coupling="decoupled")
        manifest = generate_dataset(cfg, tmp_path / "d")
        visible_outfits = {
            row.clothing - row.identity * cfg.outfits_per_identity
            for row in manifest.rows
            if row.modality == "V"
        }
        assert visible_outfits == {0, 1}

    @pytest.mark.parametrize("coupling", sorted(GOLDEN_SHA256))
    def test_files_match_golden_digests(self, tmp_path, coupling):
        generate_dataset(
            GenConfig(**TINY, seed=5, clothing_modality_coupling=coupling), tmp_path
        )
        digests = {
            path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in tmp_path.rglob("*") if path.is_file()
        }
        assert digests == GOLDEN_SHA256[coupling]

    @pytest.mark.parametrize("coupling", ["coupled", "decoupled"])
    def test_factors_drawn_once_and_one_render_per_image(self, tmp_path, monkeypatch,
                                                          coupling):
        calls = {}

        def count(name, key):
            original = getattr(synthbench, name)
            calls[name] = Counter()

            def counted(*args):
                calls[name][key(*args)] += 1
                return original(*args)

            monkeypatch.setattr(synthbench, name, counted)

        count("color_palette", lambda cfg: cfg.seed)
        count("identity_factors", lambda cfg, identity: identity)
        count("outfit_factors", lambda cfg, identity, palette: identity)
        count("render_sample", lambda cfg, identity, modality, index, *factors:
              (identity, modality, index))
        cfg = GenConfig(**TINY, outfits_per_identity=3, clothing_modality_coupling=coupling)
        generate_dataset(cfg, tmp_path)
        identities = range(cfg.n_identities)
        assert calls["color_palette"] == Counter([cfg.seed])
        assert calls["identity_factors"] == Counter(identities)
        assert calls["outfit_factors"] == Counter(identities)
        assert calls["render_sample"] == Counter(
            (i, m, x) for i in identities for m in synthbench.MODALITIES
            for x in range(cfg.images_per_identity_per_modality))

    def test_invalid_image_names_its_file(self, tmp_path):
        manifest = generate_dataset(GenConfig(**TINY), tmp_path)
        bad = tmp_path / manifest.rows[0].path
        bad.write_text("garbage")
        with pytest.raises(ManifestError, match=re.escape(str(bad))):
            manifest.load_pixels(0)

    def test_image_of_another_size_names_both_files(self, tmp_path):
        cfg = GenConfig(**TINY)
        manifest = generate_dataset(cfg, tmp_path)
        odd = tmp_path / manifest.rows[-1].path
        pnm.write_ppm(odd, np.zeros((cfg.image_height + 2, cfg.image_width, 3), np.uint8))
        # the first raster fixes the size
        synthbench.unit_pixels(manifest.raster_batch([0, 1]))
        with pytest.raises(ManifestError) as caught:
            # a later batch
            synthbench.unit_pixels(manifest.raster_batch([2, len(manifest) - 1]))
        message = str(caught.value)
        assert str(odd) in message and str(tmp_path / manifest.rows[0].path) in message
        assert f"{cfg.image_height + 2}x{cfg.image_width}" in message

    def test_first_decoded_row_fixes_the_size(self, tmp_path):
        cfg = GenConfig(**TINY)
        manifest = generate_dataset(cfg, tmp_path)
        odd = tmp_path / manifest.rows[-1].path
        pnm.write_ppm(odd, np.zeros((cfg.image_height + 2, cfg.image_width, 3), np.uint8))
        # row 5 is decoded first and fixes the size
        synthbench.unit_pixels(manifest.raster_batch([5, 0]))
        with pytest.raises(ManifestError) as caught:
            synthbench.unit_pixels(manifest.raster_batch([len(manifest) - 1]))
        message = str(caught.value)
        assert str(odd) in message and str(tmp_path / manifest.rows[5].path) in message
        assert f"{cfg.image_height + 2}x{cfg.image_width}" in message


class TestLoadManifestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_manifest(tmp_path)

    def test_bad_header(self, tmp_path):
        (tmp_path / "manifest.csv").write_text("a,b,c\n")
        with pytest.raises(ManifestError):
            load_manifest(tmp_path)

    def test_comments_only(self, tmp_path):
        (tmp_path / "manifest.csv").write_text("# fingerprint=abc\n# no rows\n")
        with pytest.raises(ManifestError, match="empty manifest"):
            load_manifest(tmp_path)

    def test_comments_and_blank_lines_only(self, tmp_path):
        (tmp_path / "manifest.csv").write_text("\n# fingerprint=abc\n \r\n\x0c# no rows\n\n")
        with pytest.raises(ManifestError, match="empty manifest"):
            load_manifest(tmp_path)

    def test_header_alone(self, tmp_path):
        (tmp_path / "manifest.csv").write_text("# c\npath,identity,clothing,modality,split\n")
        with pytest.raises(ManifestError, match="no data rows"):
            load_manifest(tmp_path)

    def test_header_after_comments_and_blank_lines(self, tmp_path):
        manifest = generate_dataset(GenConfig(**TINY), tmp_path)
        path = tmp_path / "manifest.csv"
        path.write_text("\n# a note\n  \n" + path.read_text())
        loaded = load_manifest(tmp_path)
        assert loaded.rows == manifest.rows and loaded.fingerprint == manifest.fingerprint

    def test_bad_header_names_its_line(self, tmp_path):
        # \x0b ends a line for str.splitlines: the header is line 4
        (tmp_path / "manifest.csv").write_text("# c\n\n\x0ba,b,c\n")
        with pytest.raises(ManifestError, match=r"manifest\.csv:4: header \['a', 'b', 'c'\]"):
            load_manifest(tmp_path)

    def test_bad_row_after_blank_lines_names_its_line(self, tmp_path):
        generate_dataset(GenConfig(**TINY), tmp_path)
        path = tmp_path / "manifest.csv"
        lines = path.read_text().splitlines()
        # str.splitlines ends a line at \r\n, \x0c and \u2028 too: three blank
        # lines, then the bad row
        path.write_text("\n".join(lines) + "\n\r\n\x0c\u2028" + lines[1].replace(",V,", ",X,")
                        + "\n")
        with pytest.raises(ManifestError, match=rf"manifest\.csv:{len(lines) + 4}: bad modality"):
            load_manifest(tmp_path)

    def test_splits_are_the_shared_constants(self, tmp_path):
        generate_dataset(GenConfig(**TINY), tmp_path)
        rows = load_manifest(tmp_path).rows
        assert all(row.split is synthbench.SPLIT_TRAIN or row.split is synthbench.SPLIT_TEST
                   for row in rows)
        assert {row.split for row in rows} == {synthbench.SPLIT_TRAIN, synthbench.SPLIT_TEST}

    def test_bad_column_count(self, tmp_path):
        (tmp_path / "manifest.csv").write_text(
            "path,identity,clothing,modality,split\nx.ppm,0,0,V\n"
        )
        with pytest.raises(ManifestError):
            load_manifest(tmp_path)

    @staticmethod
    def _two_row_manifest(root, first_path: str) -> None:
        (root / "data").mkdir()
        pnm.write_ppm(root / "outside.ppm", np.zeros((2, 2, 3), np.uint8))
        pnm.write_ppm(root / "data" / "inside.ppm", np.zeros((2, 2, 3), np.uint8))
        (root / "data" / "manifest.csv").write_text(
            "path,identity,clothing,modality,split\n"
            f"{first_path},0,0,V,train\ninside.ppm,1,2,I,test\n"
        )

    @pytest.mark.parametrize("where", ["relative", "absolute"])
    def test_image_path_outside_dataset(self, tmp_path, where):
        path = "../outside.ppm" if where == "relative" else str(tmp_path / "outside.ppm")
        self._two_row_manifest(tmp_path, path)
        with pytest.raises(ManifestError, match="leaves the dataset"):
            load_manifest(tmp_path / "data")

    def test_image_path_that_stays_inside(self, tmp_path):
        self._two_row_manifest(tmp_path, "sub/../inside.ppm")
        (tmp_path / "data" / "sub").mkdir()
        assert load_manifest(tmp_path / "data").rows[0].path == "sub/../inside.ppm"


class TestPnm:
    def test_ppm_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        image = rng.integers(0, 256, size=(6, 4, 3)).astype(np.uint8)
        path = tmp_path / "x.ppm"
        pnm.write_ppm(path, image)
        assert np.array_equal(pnm.read_ppm(path), image)

    def test_ppm_write_continues_after_short_writes(self, tmp_path, monkeypatch):
        image = np.random.default_rng(2).integers(0, 256, size=(40, 30, 3)).astype(np.uint8)
        write, sizes = os.write, []

        def short(fd, data):
            sizes.append(write(fd, bytes(data[:1000])))
            return sizes[-1]

        monkeypatch.setattr(os, "write", short)
        path = tmp_path / "x.ppm"
        pnm.write_ppm(path, image)
        monkeypatch.undo()
        assert len(sizes) == 4 and max(sizes) == 1000
        assert path.read_bytes() == pnm.encode_ppm(image)
        assert np.array_equal(pnm.read_ppm(path), image)

    def test_ppm_write_error_propagates(self, tmp_path, monkeypatch):
        def full(fd, data):
            raise OSError(errno.ENOSPC, "no space left on device")

        monkeypatch.setattr(os, "write", full)
        with pytest.raises(OSError) as info:
            pnm.write_ppm(tmp_path / "x.ppm", np.zeros((4, 4, 3), np.uint8))
        assert info.value.errno == errno.ENOSPC

    def test_pgm_round_trip(self):
        rng = np.random.default_rng(1)
        image = rng.integers(0, 256, size=(6, 4)).astype(np.uint8)
        assert np.array_equal(pnm.decode_pgm(pnm.encode_pgm(image)), image)
