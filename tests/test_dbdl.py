"""Disentanglement tests: mask algebra against per-pixel oracles, the
orthogonality penalty against a plain cosine computation, cross-entropy
against a log-sum-exp reimplementation, and finite-difference gradients."""

import math

import numpy as np
import pytest

from piareid import dbdl
from piareid import diffcore as dc
from piareid import encoder, model


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def attn():
    return model.build_model(model.ModelConfig(attention_kernel_size=7)).attention


def heads_of(dim, num_identities, num_clothing_classes=None):
    """The heads ``build_model`` draws for a ``dim``-wide embedding; without
    ``num_clothing_classes``, the single-branch model's."""
    cfg = model.ModelConfig(widths=(dim // 2,), strides=(1,), num_identities=num_identities,
                            num_clothing_classes=num_clothing_classes or 2,
                            use_dbdl=num_clothing_classes is not None)
    return model.build_model(cfg).heads


def attention_logits_oracle(fmap, weight, bias):
    """Per-pixel recomputation of the attention convolution."""
    c, h, w = fmap.shape
    stacked = np.stack([fmap.max(axis=0), fmap.mean(axis=0)])  # [2, h, w]
    k = weight.shape[-1]
    pad = k // 2
    padded = np.pad(stacked, ((0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            patch = padded[:, i : i + k, j : j + k]
            out[i, j] = (patch * weight[0]).sum() + bias[0]
    return out


class TestMasks:
    def test_mask_shape_and_range(self, rng, attn):
        fmap = dc.tensor(rng.normal(size=(3, 32, 8, 4)))
        mask = dbdl.clothing_mask(fmap, attn)
        assert mask.shape == (3, 1, 8, 4)
        assert np.all(mask.data > 0.0) and np.all(mask.data < 1.0)

    def test_mask_matches_per_pixel_oracle(self, rng, attn):
        fmap = rng.normal(size=(6, 5, 4))
        got = dbdl.clothing_mask(dc.tensor(fmap[None]), attn).data[0, 0]
        logits = attention_logits_oracle(fmap, attn.weight.data, attn.bias.data)
        np.testing.assert_allclose(got, 1.0 / (1.0 + np.exp(-logits)), atol=1e-12)

    def test_initial_suppression_is_half(self, attn):
        assert float(dbdl.suppression(attn).data) == pytest.approx(0.5, abs=0)

    def test_identity_mask_complements_at_init(self, rng, attn):
        fmap = dc.tensor(rng.normal(size=(2, 8, 6, 3)))
        masks = dbdl.build_masks(fmap, attn)
        np.testing.assert_allclose(
            masks.identity.data, 1.0 - 0.5 * masks.clothing.data, atol=1e-12
        )

    def test_identity_mask_hand_value(self, attn):
        # m_c = 0.5 with lambda = 0.5 leaves m_id = 0.75
        m_c = dc.tensor(np.full((1, 1, 2, 2), 0.5))
        m_id = dbdl.identity_mask(m_c, attn)
        np.testing.assert_allclose(m_id.data, 0.75, atol=1e-12)

    def test_identity_mask_strictly_positive(self, rng, attn):
        # even a saturated clothing mask cannot zero the identity mask
        attn.lambda_raw.data[()] = 50.0  # suppression ~ 1
        m_c = dc.tensor(np.full((1, 1, 2, 2), 1.0 - 1e-9))
        m_id = dbdl.identity_mask(m_c, attn)
        assert np.all(m_id.data > 0.0)

    def test_mask_gradients_reach_attention_weights(self, rng, attn):
        fmap = dc.tensor(rng.normal(size=(2, 4, 6, 3)))
        with dc.Tape() as tape:
            masks = dbdl.build_masks(fmap, attn)
            loss = dc.mean(dc.mul(masks.identity, masks.identity))
        dc.backward(loss, tape)
        assert attn.weight.grad is not None
        assert float(np.abs(attn.lambda_raw.grad)) > 0.0


class TestDisentangle:
    def test_branches_use_their_masks(self, rng, attn):
        fmap = dc.tensor(rng.random((2, 4, 6, 3)) + 0.2)
        masks = dbdl.build_masks(fmap, attn)
        # fresh necks in eval mode scale by 1 / sqrt(1 + BN_EPS), inside rtol
        f, f_c = dbdl.disentangle(
            fmap, masks, encoder.BatchNormState.create(8),
            encoder.BatchNormState.create(8), training=False,
        )
        want_f = (masks.identity.data * fmap.data).mean(axis=(2, 3))
        np.testing.assert_allclose(f.data[:, :4], want_f, atol=1e-12)
        want_fc = (masks.clothing.data * fmap.data).mean(axis=(2, 3))
        np.testing.assert_allclose(f_c.data[:, :4], want_fc, atol=1e-12)

    def test_branch_batch_norms_stay_separate(self, rng, attn):
        bn_id = encoder.BatchNormState.create(8)
        bn_cl = encoder.BatchNormState.create(8)
        fmap = dc.tensor(rng.random((4, 4, 6, 3)))
        masks = dbdl.build_masks(fmap, attn)
        dbdl.disentangle(fmap, masks, bn_id, bn_cl, training=True)
        assert not np.array_equal(bn_id.running_mean, bn_cl.running_mean)


class TestOrthogonality:
    def cosine_oracle(self, f, f_c):
        total = 0.0
        for a, b in zip(f, f_c):
            na = math.sqrt(sum(x * x for x in a))
            nb = math.sqrt(sum(x * x for x in b))
            total += abs(sum(x * y for x, y in zip(a, b)) / (na * nb))
        return total / len(f)

    def test_orthogonal_pair_scores_zero(self):
        loss = dbdl.orthogonality_loss(
            dc.tensor([[1.0, 0.0]]), dc.tensor([[0.0, 1.0]])
        )
        assert float(loss.data) == pytest.approx(0.0, abs=1e-15)

    def test_parallel_pair_scores_one(self):
        loss = dbdl.orthogonality_loss(
            dc.tensor([[2.0, 0.0]]), dc.tensor([[5.0, 0.0]])
        )
        assert float(loss.data) == pytest.approx(1.0, abs=1e-12)

    def test_forty_five_degrees(self):
        loss = dbdl.orthogonality_loss(
            dc.tensor([[1.0, 0.0]]), dc.tensor([[1.0, 1.0]])
        )
        assert float(loss.data) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    def test_matches_cosine_oracle_on_random_batches(self, rng):
        for _ in range(25):
            n, d = int(rng.integers(1, 6)), int(rng.integers(2, 7))
            f = rng.normal(size=(n, d)) + 0.1
            f_c = rng.normal(size=(n, d)) + 0.1
            got = float(dbdl.orthogonality_loss(dc.tensor(f), dc.tensor(f_c)).data)
            assert got == pytest.approx(self.cosine_oracle(f, f_c), abs=1e-12)

    def test_degenerate_feature_raises(self, rng):
        good = rng.normal(size=(2, 3)) + 1.0
        bad = good.copy()
        bad[1] = 1e-8
        with pytest.raises(dbdl.DegenerateFeatureError):
            dbdl.orthogonality_loss(dc.tensor(good), dc.tensor(bad))

    def test_gradients_vs_finite_differences(self, rng):
        f = dc.parameter(rng.normal(size=(3, 4)) + 0.3)
        f_c = dc.parameter(rng.normal(size=(3, 4)) + 0.3)
        report = dc.check_gradients(
            lambda ps: dbdl.orthogonality_loss(ps[0], ps[1]), [f, f_c],
            names=["f", "f_c"],
        )
        assert report.passed


class TestClassification:
    def cross_entropy_oracle(self, emb, w, b, labels):
        logits = emb @ w + b
        total = 0.0
        for row, label in zip(logits, labels):
            m = row.max()
            log_z = m + math.log(np.exp(row - m).sum())
            total += -(row[label] - log_z)
        return total / len(labels)

    def test_uniform_logits_give_log_k(self):
        emb = dc.tensor(np.ones((3, 5)))
        w = dc.tensor(np.zeros((5, 4)))
        b = dc.tensor(np.zeros(4))
        loss = dbdl.cross_entropy(emb, w, b, np.array([0, 1, 3]))
        assert float(loss.data) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_matches_oracle_on_random_inputs(self, rng):
        for _ in range(20):
            n, d, k = int(rng.integers(2, 6)), int(rng.integers(2, 5)), int(rng.integers(2, 6))
            emb = rng.normal(size=(n, d))
            w = rng.normal(size=(d, k))
            b = rng.normal(size=k)
            labels = rng.integers(0, k, size=n)
            got = dbdl.cross_entropy(dc.tensor(emb), dc.tensor(w), dc.tensor(b), labels)
            want = self.cross_entropy_oracle(emb, w, b, labels)
            assert float(got.data) == pytest.approx(want, abs=1e-11)

    def test_label_out_of_range(self, rng):
        with pytest.raises(ValueError, match="labels"):
            dbdl.cross_entropy(
                dc.tensor(rng.normal(size=(2, 3))),
                dc.tensor(rng.normal(size=(3, 4))),
                dc.tensor(np.zeros(4)),
                np.array([0, 4]),
            )

    def test_classification_loss_scores_both_heads(self, rng):
        heads = heads_of(6, 4, 8)
        f = dc.tensor(rng.normal(size=(5, 6)))
        f_c = dc.tensor(rng.normal(size=(5, 6)))
        y_id = rng.integers(0, 4, size=5)
        y_c = rng.integers(0, 8, size=5)
        terms = dbdl.classification_loss(f, f_c, y_id, y_c, heads)
        want_id = self.cross_entropy_oracle(
            f.data, heads.id_weight.data, heads.id_bias.data, y_id
        )
        want_clothing = self.cross_entropy_oracle(
            f_c.data, heads.clothing_weight.data, heads.clothing_bias.data, y_c
        )
        assert float(terms.ce_identity.data) == pytest.approx(want_id, abs=1e-11)
        assert float(terms.ce_clothing.data) == pytest.approx(want_clothing, abs=1e-11)

    def test_requires_clothing_head(self, rng):
        heads = heads_of(6, 4)
        with pytest.raises(ValueError, match="clothing head"):
            dbdl.classification_loss(
                dc.tensor(rng.normal(size=(2, 6))), dc.tensor(rng.normal(size=(2, 6))),
                np.array([0, 1]), np.array([0, 1]), heads,
            )

    def test_gradients_vs_finite_differences(self, rng):
        heads = heads_of(4, 3, 6)
        f = dc.parameter(rng.normal(size=(4, 4)))
        f_c = dc.parameter(rng.normal(size=(4, 4)))
        y_id = rng.integers(0, 3, size=4)
        y_c = rng.integers(0, 6, size=4)

        def build(params):
            f_, fc_, w_id, b_id, w_c, b_c = params
            local = encoder.ClassifierHeads(
                id_weight=w_id, id_bias=b_id, clothing_weight=w_c, clothing_bias=b_c
            )
            return dc.add(*dbdl.classification_loss(f_, fc_, y_id, y_c, local))

        report = dc.check_gradients(
            build,
            [f, f_c, heads.id_weight, heads.id_bias, heads.clothing_weight, heads.clothing_bias],
            names=["f", "f_c", "w_id", "b_id", "w_c", "b_c"],
        )
        assert report.passed


class TestAttentionGradientFlow:
    def test_stage_one_style_loss_reaches_every_parameter(self, rng, attn):
        """Masks, branches, and both heads all receive gradients."""
        state = model.build_model(model.ModelConfig(
            image_height=32, image_width=16, widths=(4, 6, 6), strides=(4, 2, 1),
            kernel_size=3, num_identities=3, num_clothing_classes=6,
        ))
        enc, heads = state.backbone, state.heads
        pixels = dc.tensor(rng.random((6, 3, 32, 16)))
        y_id = rng.integers(0, 3, size=6)
        y_c = rng.integers(0, 6, size=6)
        with dc.Tape() as tape:
            fmap = encoder.forward_backbone(pixels, enc)
            masks = dbdl.build_masks(fmap, attn)
            f, f_c = dbdl.disentangle(
                fmap, masks, encoder.BatchNormState.create(12),
                encoder.BatchNormState.create(12), training=True,
            )
            terms = dbdl.classification_loss(f, f_c, y_id, y_c, heads)
            loss = dc.add(dc.add(*terms), dc.scale(dbdl.orthogonality_loss(f, f_c), 0.5))
        dc.backward(loss, tape)
        for tens in [
            enc.weights[0], enc.weights[2], attn.weight, attn.lambda_raw,
            heads.id_weight, heads.clothing_weight,
        ]:
            assert tens.grad is not None and np.abs(tens.grad).max() > 0.0
