"""Synthetic dataset generator: determinism, structure, and invariants."""

from __future__ import annotations

import numpy as np
import pytest

from piareid import pnm, synthbench
from piareid.synthbench import (
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


def clothing_contrast_ratio(cfg: GenConfig, identity: int, outfit: int = 0) -> float:
    """Torso-pixel std in visible over infrared, same identity and outfit."""

    def torso_slices(modality: str) -> tuple[slice, slice]:
        # reproduce the probe image's own jitter draws to find its torso
        rng = np.random.default_rng([
            cfg.seed, synthbench._STREAM_IMAGE, identity,
            synthbench.MODALITIES.index(modality), PROBE_INDEX,
        ])
        geometry = synthbench._jittered_geometry(cfg, identity_factors(cfg, identity), rng)
        torso = geometry["torso"]
        return (
            slice(torso["top"], torso["top"] + torso["height"]),
            slice(torso["left"], torso["left"] + torso["width"]),
        )

    vis = render_sample(cfg, identity, outfit, synthbench.VISIBLE, PROBE_INDEX)
    ir = render_sample(cfg, identity, outfit, synthbench.INFRARED, PROBE_INDEX)
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
            for outfit in range(cfg.outfits_per_identity):
                color = outfit_factors(cfg, identity, outfit)["color"]
                assert any(np.array_equal(color, row) for row in palette)

    def test_identities_share_palette_colors(self):
        # 48 identities, 2 outfits, 6 colors: collisions are guaranteed, so
        # outfit color narrows the field but cannot identify a person
        cfg = GenConfig()
        palette = color_palette(cfg)
        wearers = {k: set() for k in range(len(palette))}
        for identity in range(cfg.n_identities):
            color = outfit_factors(cfg, identity, 0)["color"]
            index = next(
                k for k, row in enumerate(palette) if np.array_equal(color, row)
            )
            wearers[index].add(identity)
        assert max(len(ids) for ids in wearers.values()) >= 2

    def test_an_identity_never_repeats_a_color(self):
        cfg = GenConfig(outfits_per_identity=6)
        for identity in range(12):
            colors = [
                tuple(outfit_factors(cfg, identity, k)["color"])
                for k in range(6)
            ]
            assert len(set(colors)) == 6


class TestRenderSample:
    def test_shape_range_and_determinism(self):
        cfg = GenConfig(**TINY)
        image = render_sample(cfg, 0, 0, "V", 0)
        assert image.shape == (3, 16, 8)
        assert image.min() >= 0.0 and image.max() <= 1.0
        assert np.array_equal(image, render_sample(cfg, 0, 0, "V", 0))

    def test_different_indices_jitter(self):
        cfg = GenConfig(**TINY)
        assert not np.array_equal(
            render_sample(cfg, 0, 0, "V", 0), render_sample(cfg, 0, 0, "V", 1)
        )

    def test_infrared_is_grayscale(self):
        cfg = GenConfig(**TINY)
        image = render_sample(cfg, 0, 0, "I", 0)
        assert np.array_equal(image[0], image[1])
        assert np.array_equal(image[0], image[2])

    def test_visible_is_colored(self):
        cfg = GenConfig(n_identities=4, images_per_identity_per_modality=2)
        image = render_sample(cfg, 0, 0, "V", 0)
        assert not np.array_equal(image[0], image[1])

    def test_rejects_unknown_modality(self):
        with pytest.raises(ValueError):
            render_sample(GenConfig(**TINY), 0, 0, "X", 0)

    def test_clothing_contrast_collapses_in_infrared(self):
        cfg = GenConfig()
        for identity in range(4):
            assert clothing_contrast_ratio(cfg, identity) >= 4.0


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
        pixels = manifest.load_pixels(0)
        assert pixels.shape == (3, cfg.image_height, cfg.image_width)
        rendered = render_sample(cfg, manifest.rows[0].identity, 0, "V", 0)
        # files hold the 8-bit quantization of the float render
        assert np.abs(pixels - rendered).max() <= 0.5 / 255.0 + 1e-12

    def test_load_manifest_round_trip(self, dataset):
        cfg, manifest, out = dataset
        loaded = load_manifest(out)
        assert loaded.fingerprint == manifest.fingerprint == config_fingerprint(cfg)
        assert loaded.rows == manifest.rows

    def test_refuses_nonempty_dir_without_overwrite(self, dataset):
        cfg, _, out = dataset
        with pytest.raises(FileExistsError):
            generate_dataset(cfg, out)
        generate_dataset(cfg, out, overwrite=True)

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

    def test_bad_column_count(self, tmp_path):
        (tmp_path / "manifest.csv").write_text(
            "path,identity,clothing,modality,split\nx.ppm,0,0,V\n"
        )
        with pytest.raises(ManifestError):
            load_manifest(tmp_path)


class TestPnm:
    def test_ppm_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        image = rng.integers(0, 256, size=(6, 4, 3)).astype(np.uint8)
        path = tmp_path / "x.ppm"
        pnm.write_ppm(path, image)
        assert np.array_equal(pnm.read_ppm(path), image)

    def test_pgm_round_trip(self):
        rng = np.random.default_rng(1)
        image = rng.integers(0, 256, size=(6, 4)).astype(np.uint8)
        assert np.array_equal(pnm.decode_pgm(pnm.encode_pgm(image)), image)
