"""Model assembly: parameter inventory, forward passes, embedding extraction."""

from __future__ import annotations

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from piareid import checkpoint, checksuite, config, diffcore as dc, encoder, model

SMALL = model.ModelConfig(
    image_height=16,
    image_width=8,
    widths=(4, 4, 4),
    strides=(2, 2, 1),
    kernel_size=3,
    attention_kernel_size=3,
    num_identities=3,
    num_clothing_classes=6,
)


def pixels(n=2, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((n, 3, SMALL.image_height, SMALL.image_width))


def rasters(n=2, seed=0):
    """A uint8 batch, the input ``extract_embeddings`` reads."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, (n, 3, SMALL.image_height, SMALL.image_width), dtype=np.uint8)


class TestBuildModel:
    def test_same_seed_same_parameters(self):
        a = model.build_model(SMALL)
        b = model.build_model(SMALL)
        for name, tens in a.named_parameters().items():
            assert np.array_equal(tens.data, b.named_parameters()[name].data)

    def test_different_seed_different_parameters(self):
        import dataclasses

        a = model.build_model(SMALL)
        b = model.build_model(dataclasses.replace(SMALL, seed=1))
        assert not np.array_equal(
            a.named_parameters()["backbone.conv0.weight"].data,
            b.named_parameters()["backbone.conv0.weight"].data,
        )

    def test_parameter_inventory_with_dual_branch(self):
        names = set(model.build_model(SMALL).named_parameters())
        assert {
            "backbone.conv0.weight", "backbone.conv0.bias",
            "backbone.conv1.weight", "backbone.conv1.bias",
            "backbone.conv2.weight", "backbone.conv2.bias",
            "attention.weight", "attention.bias", "attention.lambda_raw",
            "bn_identity.gamma", "bn_identity.beta",
            "bn_clothing.gamma", "bn_clothing.beta",
            "heads.id.weight", "heads.id.bias",
            "heads.clothing.weight", "heads.clothing.bias",
        } == names

    def test_parameter_inventory_single_branch(self):
        import dataclasses

        cfg = dataclasses.replace(SMALL, use_dbdl=False)
        names = set(model.build_model(cfg).named_parameters())
        assert "attention.weight" not in names
        assert "bn_clothing.gamma" not in names
        assert "heads.clothing.weight" not in names
        assert "heads.id.weight" in names

    def test_buffers_follow_bn_config(self):
        import dataclasses

        with_bn = model.build_model(SMALL)
        assert set(with_bn.named_buffers()) == {
            "bn_identity.running_mean", "bn_identity.running_var",
            "bn_clothing.running_mean", "bn_clothing.running_var",
        }
        single = model.build_model(dataclasses.replace(SMALL, use_dbdl=False))
        assert set(single.named_buffers()) == {
            "bn_identity.running_mean", "bn_identity.running_var",
        }

    def test_head_shapes(self):
        state = model.build_model(SMALL)
        dim = SMALL.embedding_dim
        assert state.heads.id_weight.data.shape == (dim, 3)
        assert state.heads.id_bias.data.shape == (3,)
        assert state.heads.clothing_weight.data.shape == (dim, 6)

    def test_lambda_raw_is_scalar(self):
        state = model.build_model(SMALL)
        assert state.named_parameters()["attention.lambda_raw"].data.shape == ()


class TestModelDefinition:
    # sha256 of each built model's checkpoint bytes.  The single-branch model
    # draws the attention weights it does not name, so the heads' draws start
    # where they do in the dual-branch model's stream.
    @pytest.mark.parametrize("cfg, digest", [
        pytest.param(model.ModelConfig(),
                     "d84817a9eda2375490ac9ebe14aa3a949f31589222467b69aae093d375cbf107",
                     id="default"),
        pytest.param(model.ModelConfig(use_dbdl=False),
                     "12692870d22e313962b0645b8876d6c055336ff6eb3afda97c0aeff988f8035f",
                     id="single_branch"),
        pytest.param(model.ModelConfig(**checksuite._PIA_MODEL),
                     "6d763032de6928b01ae8cd346b1b2e4b98913c7e47fe5f050fd4f0d22098e111",
                     id="pia"),
    ])
    def test_built_model_bits_are_pinned(self, cfg, digest):
        blob = checkpoint.serialize(model.model_config_text(cfg),
                                    checkpoint.collect_arrays(model.build_model(cfg), None))
        assert hashlib.sha256(blob).hexdigest() == digest

    @pytest.mark.parametrize("use_dbdl", [True, False])
    def test_weight_shapes_are_the_built_weights(self, use_dbdl):
        cfg = dataclasses.replace(SMALL, use_dbdl=use_dbdl)
        state = model.build_model(cfg)
        built = {**state.named_parameters(), "attention.weight": state.attention.weight}
        assert cfg.weight_shapes() == {name: built[name].shape for name in cfg.weight_shapes()}


RUN_FIELDS = {field.name for field in dataclasses.fields(config.RunConfig)}


@pytest.mark.parametrize("changes, message", [
    pytest.param({"strides": (2, 1)}, "must have equal length", id="unequal_lengths"),
    pytest.param({"strides": (2, 2, 2)}, "final block stride must be 1", id="final_stride_2"),
    pytest.param({"kernel_size": 4}, "kernel size must be odd", id="even_kernel"),
    pytest.param({"attention_kernel_size": 4}, "attention kernel size must be odd",
                 id="even_attention_kernel"),
    pytest.param({"attention_kernel_size": 33}, "attention kernel size 33 exceeds 31",
                 id="attention_kernel_too_wide"),
    pytest.param({"image_width": 0}, "image sides must be positive", id="image_side_0"),
    pytest.param({"num_identities": 1}, "identity head needs at least 2 classes",
                 id="one_identity"),
])
def test_each_architecture_rule_holds_at_every_entry_point(monkeypatch, changes, message):
    if set(changes) <= RUN_FIELDS:
        arch = {field.name: getattr(SMALL, field.name)
                for field in dataclasses.fields(model.ArchConfig)}
        with pytest.raises(config.ConfigError):
            config.RunConfig(**{**arch, **changes}).validate()
    cfg = dataclasses.replace(SMALL, **changes)
    with pytest.raises(encoder.EncoderConfigError, match=message):
        model.build_model(cfg)

    def refuse(cfg):
        raise AssertionError("build_model ran before the architecture check")

    loaded = checkpoint.deserialize(checkpoint.serialize(
        "", checkpoint.collect_arrays(model.build_model(SMALL), None)))
    monkeypatch.setattr(model, "build_model", refuse)
    with pytest.raises(checkpoint.CheckpointError):
        checkpoint.restore(loaded, cfg)


class TestConfigText:
    def test_round_trip(self):
        text = model.model_config_text(SMALL)
        assert model.parse_model_config_text(text) == SMALL

    def test_missing_key_rejected(self):
        text = model.model_config_text(SMALL)
        trimmed = "\n".join(
            line for line in text.splitlines() if not line.startswith("widths")
        )
        with pytest.raises(ValueError, match="missing key"):
            model.parse_model_config_text(trimmed)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown configuration key"):
            model.parse_model_config_text(model.model_config_text(SMALL) + "extra = 1\n")


class TestForward:
    def test_output_shapes(self):
        state = model.build_model(SMALL)
        f, f_c, masks = model.forward_embeddings(
            state, dc.constant(pixels(4)), training=False
        )
        dim = SMALL.embedding_dim
        assert f.data.shape == (4, dim)
        assert f_c.data.shape == (4, dim)
        assert masks.clothing.data.shape == masks.identity.data.shape
        assert masks.clothing.data.shape[0] == 4

    def test_masks_complementary(self):
        state = model.build_model(SMALL)
        _, _, masks = model.forward_embeddings(
            state, dc.constant(pixels(2)), training=False
        )
        m_c = masks.clothing.data
        m_id = masks.identity.data
        assert (m_c >= 0).all() and (m_c <= 1).all()
        assert (m_id >= 0).all() and (m_id <= 1).all()
        lam = 1.0 / (1.0 + np.exp(-float(state.attention.lambda_raw.data)))
        assert np.allclose(m_id, 1.0 - lam * m_c, atol=1e-12)

    def test_single_branch_returns_none(self):
        import dataclasses

        state = model.build_model(dataclasses.replace(SMALL, use_dbdl=False))
        f, f_c, masks = model.forward_embeddings(
            state, dc.constant(pixels(2)), training=False
        )
        assert f_c is None and masks is None
        assert f.data.shape == (2, SMALL.embedding_dim)

    def test_eval_mode_leaves_running_stats(self):
        state = model.build_model(SMALL)
        before = {k: v.copy() for k, v in state.named_buffers().items()}
        model.forward_embeddings(state, dc.constant(pixels(4)), training=False)
        for name, buf in state.named_buffers().items():
            assert np.array_equal(buf, before[name])

    def test_train_mode_updates_running_stats(self):
        state = model.build_model(SMALL)
        before = {k: v.copy() for k, v in state.named_buffers().items()}
        model.forward_embeddings(state, dc.constant(pixels(4)), training=True)
        assert any(
            not np.array_equal(buf, before[name])
            for name, buf in state.named_buffers().items()
        )

    def test_eval_forward_is_deterministic(self):
        state = model.build_model(SMALL)
        batch = pixels(3)
        f1, _, _ = model.forward_embeddings(state, dc.constant(batch), training=False)
        f2, _, _ = model.forward_embeddings(state, dc.constant(batch), training=False)
        assert np.array_equal(f1.data, f2.data)


class TestExtraction:
    def test_batching_is_transparent(self):
        state = model.build_model(SMALL)
        batch = rasters(6)
        whole = model.extract_embeddings(state, [batch], 6)
        split = model.extract_embeddings(state, [batch[:2], batch[2:]], 6)
        for joined, chunked in zip(whole, split):
            assert np.allclose(joined, chunked, atol=1e-12)

    def test_two_32_image_batches_give_the_bits_of_one_64_image_batch(self):
        # evalkit extracts 32 images at a time; at the default architecture
        # that keeps the embeddings of 64-image batches bit for bit
        cfg = model.ModelConfig()
        state = model.build_model(cfg)
        rng = np.random.default_rng(3)
        batch = rng.integers(0, 256, (64, 3, cfg.image_height, cfg.image_width), dtype=np.uint8)
        with dc.Workspace():
            whole = model.extract_embeddings(state, [batch], 64)
            halves = model.extract_embeddings(state, [batch[:32], batch[32:]], 64)
        for joined, chunked in zip(whole, halves):
            assert np.array_equal(joined, chunked)

    def test_matches_forward(self):
        state = model.build_model(SMALL)
        batch = rasters(3)
        via_extract, fc_via_extract = model.extract_embeddings(state, [batch], 3)
        f, f_c, _ = model.forward_embeddings(state, dc.pixels(batch), training=False)
        assert np.array_equal(via_extract, f.data)
        assert np.array_equal(fc_via_extract, f_c.data)

    def test_empty_iterable(self):
        state = model.build_model(SMALL)
        f, f_c = model.extract_embeddings(state, [], 0)
        assert f.shape == f_c.shape == (0, SMALL.embedding_dim)

    @pytest.mark.parametrize("count", [2, 4])
    def test_a_count_other_than_the_images_raises(self, count):
        state = model.build_model(SMALL)
        with pytest.raises(ValueError):
            model.extract_embeddings(state, [rasters(3)], count)

    def test_branch_extraction_pairs(self):
        state = model.build_model(SMALL)
        f, f_c = model.extract_embeddings(state, [rasters(3)], 3)
        assert f.shape == f_c.shape == (3, SMALL.embedding_dim)

    def test_single_branch_has_no_clothing_features(self):
        import dataclasses

        state = model.build_model(dataclasses.replace(SMALL, use_dbdl=False))
        f, f_c = model.extract_embeddings(state, [rasters(2)], 2)
        assert f.shape == (2, SMALL.embedding_dim)
        assert f_c is None

    def test_peak_memory_beyond_the_result_does_not_grow_with_the_batches(self):
        # each batch's rows go straight into the returned arrays, so what the
        # extraction holds beyond them is one batch's transients; a 1x1 image
        # makes those small beside a batch's 128-wide embeddings
        cfg = model.ModelConfig(image_height=1, image_width=1, widths=(64,), strides=(1,),
                                kernel_size=1, attention_kernel_size=1)
        state = model.build_model(cfg)
        batch = np.random.default_rng(0).integers(0, 256, (32, 3, 1, 1), dtype=np.uint8)

        def peak_beyond_result(batches):
            tracemalloc.start()
            try:
                f, f_c = model.extract_embeddings(
                    state, (batch for _ in range(batches)), batches * len(batch))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - f.nbytes - f_c.nbytes

        batch_embeddings = 2 * len(batch) * cfg.embedding_dim * 8
        peak_beyond_result(16)  # warm numpy's and the interpreter's caches
        assert peak_beyond_result(16) < peak_beyond_result(4) + batch_embeddings
