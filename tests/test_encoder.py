"""Backbone and embedding tests."""

import numpy as np
import pytest

from piareid import diffcore as dc
from piareid import encoder, model


@pytest.fixture
def rng():
    return np.random.default_rng(7)


@pytest.fixture
def params():
    return model.build_model(model.ModelConfig()).backbone


class TestBackbone:
    def test_default_output_geometry(self, rng, params):
        x = dc.tensor(rng.random((2, 3, 64, 32)))
        fmap = encoder.forward_backbone(x, params)
        assert fmap.shape == (2, 32, 8, 4)

    def test_rejects_unbatched_image(self, rng, params):
        with pytest.raises(dc.ShapeMismatchError, match=r"\[N,3,H,W\]"):
            encoder.forward_backbone(dc.tensor(rng.random((3, 64, 32))), params)

    def test_total_stride_is_eight(self, params):
        # derived by composing (h + 2p - k)//s + 1 across the blocks
        h, w = 64, 32
        for s in params.strides:
            h = (h + 2 * params.padding - params.kernel_size) // s + 1
            w = (w + 2 * params.padding - params.kernel_size) // s + 1
        fmap = encoder.forward_backbone(dc.tensor(np.zeros((1, 3, 64, 32))), params)
        assert (h, w) == (64 // 8, 32 // 8) == fmap.shape[2:]

    def test_feature_map_nonnegative(self, rng, params):
        fmap = encoder.forward_backbone(
            dc.tensor(rng.random((1, 3, 64, 32))), params
        )
        assert fmap.data.min() >= 0.0

    def test_rejects_wrong_geometry(self, rng, params):
        with pytest.raises(dc.ShapeMismatchError):
            encoder.forward_backbone(
                dc.tensor(rng.random((1, 3, 32, 64))), params
            )

    def test_rejects_final_stride_two(self):
        with pytest.raises(encoder.EncoderConfigError):
            model.build_model(model.ModelConfig(strides=(4, 2, 2)))

    def test_rejects_even_kernel(self):
        with pytest.raises(encoder.EncoderConfigError):
            model.build_model(model.ModelConfig(kernel_size=4))

    def test_init_is_seed_deterministic(self):
        a = model.build_model(model.ModelConfig(seed=3)).backbone
        b = model.build_model(model.ModelConfig(seed=3)).backbone
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa.data, wb.data)


class TestEmbed:
    # a fresh neck in eval mode scales by 1 / sqrt(1 + BN_EPS), inside rtol

    def test_gap_gmp_orders_mean_then_max(self, rng):
        fmap = dc.tensor(rng.normal(size=(2, 5, 4, 3)))
        out = encoder.embed(fmap, encoder.BatchNormState.create(10), training=False)
        assert out.shape == (2, 10)
        assert encoder.embedding_dim((16, 32, 5)) == 10
        np.testing.assert_allclose(out.data[:, :5], fmap.data.mean(axis=(2, 3)), atol=1e-12)
        np.testing.assert_allclose(out.data[:, 5:], fmap.data.max(axis=(2, 3)), atol=1e-12)

    def test_constant_map_gives_constant_vector(self):
        fmap = dc.tensor(np.full((2, 4, 3, 5), 0.7))
        out = encoder.embed(fmap, encoder.BatchNormState.create(8), training=False)
        np.testing.assert_allclose(out.data, np.full((2, 8), 0.7), atol=1e-12)

    def test_final_bn_applied_in_eval(self, rng):
        bn = encoder.BatchNormState.create(4)
        bn.running_mean[:] = 1.0
        bn.running_var[:] = 4.0
        fmap = dc.tensor(np.full((2, 2, 2, 2), 3.0))
        out = encoder.embed(fmap, bn, training=False)
        np.testing.assert_allclose(out.data, (3.0 - 1.0) / np.sqrt(4.0 + 1e-12), atol=1e-9)


class TestEvalDeterminism:
    def test_eval_embedding_independent_of_batch_composition(self, rng, params):
        bn = encoder.BatchNormState.create(64)
        bn.running_mean[:] = rng.normal(size=64) * 0.01
        bn.running_var[:] = 1.0 + rng.random(64) * 0.1
        images = rng.random((4, 3, 64, 32))

        def embed_batch(batch):
            fmap = encoder.forward_backbone(dc.tensor(batch), params)
            return encoder.embed(fmap, bn, training=False).data

        whole = embed_batch(images)
        alone = np.stack([embed_batch(images[i : i + 1])[0] for i in range(4)])
        np.testing.assert_allclose(whole, alone, atol=1e-10)

    def test_eval_forward_repeatable_bitwise(self, rng, params):
        images = rng.random((3, 3, 64, 32))
        a = encoder.forward_backbone(dc.tensor(images), params).data
        b = encoder.forward_backbone(dc.tensor(images), params).data
        np.testing.assert_array_equal(a, b)


class TestHeads:
    def test_classify_uniform_embedding_on_zero_weights(self):
        heads = encoder.ClassifierHeads(
            id_weight=dc.tensor(np.zeros((6, 4))), id_bias=dc.tensor(np.zeros(4))
        )
        out = encoder.classify(dc.tensor(np.ones((2, 6))), heads.id_weight, heads.id_bias)
        np.testing.assert_allclose(out.data, -np.log(4.0), atol=1e-12)

    def test_head_shapes(self):
        # one block of width 5: a 10-dimensional embedding
        heads = model.build_model(model.ModelConfig(
            widths=(5,), strides=(1,), num_identities=8, num_clothing_classes=16)).heads
        assert heads.id_weight.shape == (10, 8)
        assert heads.clothing_weight.shape == (10, 16)

    def test_clothing_head_optional(self):
        heads = model.build_model(model.ModelConfig(
            widths=(5,), strides=(1,), num_identities=8, use_dbdl=False)).heads
        assert heads.clothing_weight is None and heads.clothing_bias is None

    def test_backbone_gradients_reach_first_block(self, rng, params):
        x = dc.tensor(rng.random((2, 3, 64, 32)))
        with dc.Tape() as tape:
            fmap = encoder.forward_backbone(x, params)
            emb = encoder.embed(fmap, encoder.BatchNormState.create(64), training=True)
            # each column of a training-mode BN output has mean 0 and
            # variance 1, so mean(emb * emb) is constant; a random weighting is not
            loss = dc.mean(dc.mul(emb, dc.constant(rng.normal(size=emb.shape))))
        dc.backward(loss, tape)
        assert params.weights[0].grad is not None
        assert np.abs(params.weights[0].grad).max() > 0.0
