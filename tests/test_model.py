"""Model assembly: parameter inventory, forward passes, embedding extraction."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from piareid import diffcore as dc, model

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
        batch = pixels(6)
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
        batch = rng.integers(0, 256, (64, 3, cfg.image_height, cfg.image_width)) / 255.0
        with dc.Workspace():
            whole = model.extract_embeddings(state, [batch], 64)
            halves = model.extract_embeddings(state, [batch[:32], batch[32:]], 64)
        for joined, chunked in zip(whole, halves):
            assert np.array_equal(joined, chunked)

    def test_matches_forward(self):
        state = model.build_model(SMALL)
        batch = pixels(3)
        via_extract, fc_via_extract = model.extract_embeddings(state, [batch], 3)
        f, f_c, _ = model.forward_embeddings(state, dc.constant(batch), training=False)
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
            model.extract_embeddings(state, [pixels(3)], count)

    def test_branch_extraction_pairs(self):
        state = model.build_model(SMALL)
        f, f_c = model.extract_embeddings(state, [pixels(3)], 3)
        assert f.shape == f_c.shape == (3, SMALL.embedding_dim)

    def test_single_branch_has_no_clothing_features(self):
        import dataclasses

        state = model.build_model(dataclasses.replace(SMALL, use_dbdl=False))
        f, f_c = model.extract_embeddings(state, [pixels(2)], 2)
        assert f.shape == (2, SMALL.embedding_dim)
        assert f_c is None

    def test_peak_memory_beyond_the_result_does_not_grow_with_the_batches(self):
        # each batch's rows go straight into the returned arrays, so what the
        # extraction holds beyond them is one batch's transients; a 1x1 image
        # makes those small beside a batch's 128-wide embeddings
        cfg = model.ModelConfig(image_height=1, image_width=1, widths=(64,), strides=(1,),
                                kernel_size=1, attention_kernel_size=1)
        state = model.build_model(cfg)
        batch = np.random.default_rng(0).random((32, 3, 1, 1))

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
