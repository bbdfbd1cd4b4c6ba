"""Prototype bank tests: first-contact initialization and momentum, both
through ``absorb_batch``, against hand computations, loss values against a
pure-Python softmax oracle, warm-up denominator restriction, and gradient
flow."""

import math

import numpy as np
import pytest

from piareid import bpl
from piareid import diffcore as dc


def make_batch(rng, ids, per_count, dim, values=None):
    """Balanced two-modality batch; visible rows first."""
    ids = np.asarray(ids)
    all_ids = np.concatenate([np.repeat(ids, per_count)] * 2)
    is_visible = np.zeros(all_ids.size, dtype=bool)
    is_visible[: all_ids.size // 2] = True
    if values is None:
        values = rng.normal(size=(all_ids.size, dim)) + 0.2
    return bpl.ModalityBatch(dc.tensor(values), all_ids, is_visible), np.asarray(values)


def protonce_oracle(rows, row_ids, proto_by_id, tau):
    """-1/M sum log softmax(cos/tau) with the softmax over proto_by_id."""
    keys = sorted(proto_by_id)
    total = 0.0
    for x, identity in zip(rows, row_ids):
        xn = x / max(math.sqrt(sum(v * v for v in x)), 1e-12)
        sims = {}
        for k in keys:
            p = proto_by_id[k]
            pn = [v / max(math.sqrt(sum(u * u for u in p)), 1e-12) for v in p]
            sims[k] = sum(a * b for a, b in zip(xn, pn)) / tau
        peak = max(sims.values())
        log_z = peak + math.log(sum(math.exp(s - peak) for s in sims.values()))
        total -= sims[int(identity)] - log_z
    return total / len(rows)


@pytest.fixture
def rng():
    return np.random.default_rng(99)


class TestBankLifecycle:
    def test_create_starts_empty(self):
        bank = bpl.PrototypeBank.create(5, 3)
        assert bank.num_identities == 5 and bank.protos_v.shape[1] == 3
        assert not bank.initialized_v.any() and not bank.initialized_i.any()
        assert bank.iteration == 0
        assert not bank.fully_initialized

    def test_first_contact_sets_batch_means_and_flags(self, rng):
        bank = bpl.PrototypeBank.create(4, 3)
        batch, values = make_batch(rng, [1, 3], per_count=2, dim=3)
        bpl.absorb_batch(bank, batch)
        # group-by oracle over raw rows
        for identity in (1, 3):
            vis_rows = values[: values.shape[0] // 2][
                np.repeat([1, 3], 2) == identity
            ]
            ir_rows = values[values.shape[0] // 2 :][
                np.repeat([1, 3], 2) == identity
            ]
            np.testing.assert_allclose(bank.protos_v[identity], vis_rows.mean(axis=0), atol=1e-15)
            np.testing.assert_allclose(bank.protos_i[identity], ir_rows.mean(axis=0), atol=1e-15)
        assert bank.initialized_v[[1, 3]].all() and not bank.initialized_v[[0, 2]].any()
        assert bank.initialized_i[[1, 3]].all() and not bank.initialized_i[[0, 2]].any()
        assert bank.iteration == 1  # a first contact is an update like any other

    def test_absorb_mixes_first_contact_and_seen_identities(self, rng):
        bank = bpl.PrototypeBank.create(3, 2, alpha=0.8)
        first, _ = make_batch(rng, [0], per_count=2, dim=2)
        bpl.absorb_batch(bank, first)
        old_v, old_i = bank.protos_v.copy(), bank.protos_i.copy()
        mixed, _ = make_batch(rng, [0, 1], per_count=2, dim=2)
        bpl.absorb_batch(bank, mixed)
        for modality, old, new in (("V", old_v, bank.protos_v), ("I", old_i, bank.protos_i)):
            means = mixed.identity_means(modality)
            np.testing.assert_array_equal(new[1], means[1])  # fresh: the mean, exactly
            np.testing.assert_array_equal(new[0], 0.8 * old[0] + (1.0 - 0.8) * means[0])
            np.testing.assert_array_equal(new[2], old[2])  # absent: untouched
        assert bank.initialized_v.tolist() == bank.initialized_i.tolist() == [True, True, False]
        assert bank.iteration == 2

    def test_absorb_rejects_identities_outside_the_bank(self, rng):
        bank = bpl.PrototypeBank.create(2, 2)
        batch, _ = make_batch(rng, [0, 2], per_count=1, dim=2)
        with pytest.raises(ValueError, match="outside the bank's 2 slots"):
            bpl.absorb_batch(bank, batch)
        assert bank.iteration == 0 and not bank.initialized_v.any()

    def test_momentum_hand_case(self):
        bank = bpl.PrototypeBank.create(1, 2, alpha=0.9)
        bank.protos_v[0] = [1.0, 0.0]
        bank.protos_i[0] = [1.0, 0.0]
        bank.initialized_v[0] = bank.initialized_i[0] = True
        values = np.array([[0.0, 1.0]] * 4)  # 2 visible + 2 infrared rows
        batch, _ = make_batch(None, [0], per_count=2, dim=2, values=values)
        bpl.absorb_batch(bank, batch)
        np.testing.assert_allclose(bank.protos_v[0], [0.9, 0.1], atol=1e-15)
        np.testing.assert_allclose(bank.protos_i[0], [0.9, 0.1], atol=1e-15)
        assert bank.iteration == 1

    def test_momentum_respects_entrywise_convex_bounds(self, rng):
        bank = bpl.PrototypeBank.create(3, 4)
        batch, _ = make_batch(rng, [0, 1, 2], per_count=2, dim=4)
        bpl.absorb_batch(bank, batch)
        for _ in range(30):
            batch, _ = make_batch(rng, [0, 1, 2], per_count=2, dim=4)
            old_v = bank.protos_v.copy()
            old_i = bank.protos_i.copy()
            bpl.absorb_batch(bank, batch)
            for modality, old, new in (
                ("V", old_v, bank.protos_v), ("I", old_i, bank.protos_i),
            ):
                means = batch.identity_means(modality)
                for identity, mean in means.items():
                    low = np.minimum(old[identity], mean)
                    high = np.maximum(old[identity], mean)
                    assert np.all(new[identity] >= low) and np.all(new[identity] <= high)

    def test_absorb_batch_first_contact_equals_means(self, rng):
        bank = bpl.PrototypeBank.create(2, 3)
        batch, _ = make_batch(rng, [0, 1], per_count=3, dim=3)
        bpl.absorb_batch(bank, batch)
        means = batch.identity_means("V")
        for identity in (0, 1):
            np.testing.assert_array_equal(bank.protos_v[identity], means[identity])
        assert bank.iteration == 1

    def test_absorb_batch_blends_on_second_contact(self, rng):
        bank = bpl.PrototypeBank.create(1, 2)
        batch, _ = make_batch(rng, [0], per_count=2, dim=2)
        bpl.absorb_batch(bank, batch)
        old = bank.protos_v[0].copy()
        batch2, _ = make_batch(rng, [0], per_count=2, dim=2)
        bpl.absorb_batch(bank, batch2)
        want = 0.9 * old + 0.1 * batch2.identity_means("V")[0]
        np.testing.assert_allclose(bank.protos_v[0], want, atol=1e-15)
        assert bank.iteration == 2

    def test_geometric_convergence_under_constant_batches(self, rng):
        """Repeating one batch contracts p toward the mean at exactly alpha."""
        bank = bpl.PrototypeBank.create(1, 3, alpha=0.9)
        bank.protos_v[0] = [5.0, -2.0, 1.0]
        bank.protos_i[0] = [5.0, -2.0, 1.0]
        bank.initialized_v[0] = bank.initialized_i[0] = True
        values = np.tile(rng.normal(size=3), (4, 1))
        batch, _ = make_batch(None, [0], per_count=2, dim=3, values=values)
        mean = values[0]
        start_gap = np.linalg.norm(bank.protos_v[0] - mean)
        for step in range(1, 21):
            bpl.absorb_batch(bank, batch)
            gap = np.linalg.norm(bank.protos_v[0] - mean)
            assert gap == pytest.approx(start_gap * 0.9**step, rel=1e-9)


class TestModalityBatch:
    def test_rejects_unbalanced_multisets(self, rng):
        ids = np.array([0, 0, 1, 1])
        is_visible = np.array([True, True, True, False])
        with pytest.raises(ValueError, match="multiset"):
            bpl.ModalityBatch(dc.tensor(rng.normal(size=(4, 2))), ids, is_visible)

    def test_rejects_single_modality(self, rng):
        ids = np.array([0, 0])
        with pytest.raises(ValueError, match="both modalities"):
            bpl.ModalityBatch(
                dc.tensor(rng.normal(size=(2, 2))), ids, np.array([True, True])
            )

    def test_identity_means_grouping(self, rng):
        batch, values = make_batch(rng, [2, 5], per_count=3, dim=4)
        means = batch.identity_means("V")
        rows = values[:6]
        np.testing.assert_allclose(means[2], rows[:3].mean(axis=0), atol=1e-15)
        np.testing.assert_allclose(means[5], rows[3:].mean(axis=0), atol=1e-15)


class TestProtoLosses:
    def make_initialized(self, rng, num_ids, dim):
        bank = bpl.PrototypeBank.create(num_ids, dim)
        bank.protos_v[:] = rng.normal(size=(num_ids, dim)) + 0.3
        bank.protos_i[:] = rng.normal(size=(num_ids, dim)) + 0.3
        bank.initialized_v[:] = True
        bank.initialized_i[:] = True
        return bank

    def test_hand_case_two_prototypes(self):
        """Perfect self-similarity vs. an orthogonal distractor at tau = 1."""
        bank = bpl.PrototypeBank.create(2, 2)
        bank.protos_v[:] = [[1.0, 0.0], [0.0, 1.0]]
        bank.protos_i[:] = [[1.0, 0.0], [0.0, 1.0]]
        bank.initialized_v[:] = True
        bank.initialized_i[:] = True
        values = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        batch = bpl.ModalityBatch(
            dc.tensor(values), np.array([0, 1, 0, 1]),
            np.array([True, True, False, False]),
        )
        terms = bpl.intra_loss(batch, bank, tau=1.0)
        want = math.log(1.0 + math.exp(-1.0))  # 0.31326...
        assert float(terms.visible.data) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(0.31326, abs=5e-6)

    def test_intra_matches_bruteforce_oracle(self, rng):
        for _ in range(30):
            k = int(rng.integers(2, 6))
            d = int(rng.integers(2, 5))
            per = int(rng.integers(1, 3))
            bank = self.make_initialized(rng, k, d)
            ids = rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False)
            batch, values = make_batch(rng, ids, per_count=per, dim=d)
            tau = float(rng.choice([1.0, 0.5, 1.0 / 16.0]))
            terms = bpl.intra_loss(batch, bank, tau=tau)
            vis_rows = batch.modality_rows("V")
            want_v = protonce_oracle(
                values[vis_rows], batch.ids[vis_rows],
                {i: bank.protos_v[i] for i in range(k)}, tau,
            )
            assert float(terms.visible.data) == pytest.approx(want_v, abs=1e-9)

    def test_inter_swaps_banks(self, rng):
        bank = self.make_initialized(rng, 3, 4)
        batch, values = make_batch(rng, [0, 2], per_count=2, dim=4)
        tau = 0.25
        terms = bpl.inter_loss(batch, bank, tau=tau)
        vis_rows = batch.modality_rows("V")
        want_v = protonce_oracle(
            values[vis_rows], batch.ids[vis_rows],
            {i: bank.protos_i[i] for i in range(3)}, tau,
        )
        assert float(terms.visible.data) == pytest.approx(want_v, abs=1e-9)
        ir_rows = batch.modality_rows("I")
        want_i = protonce_oracle(
            values[ir_rows], batch.ids[ir_rows],
            {i: bank.protos_v[i] for i in range(3)}, tau,
        )
        assert float(terms.infrared.data) == pytest.approx(want_i, abs=1e-9)

    def test_warmup_restricts_denominator(self, rng):
        """Uninitialized identities must not appear in the softmax."""
        bank = self.make_initialized(rng, 4, 3)
        bank.initialized_v[3] = False
        bank.initialized_i[3] = False
        batch, values = make_batch(rng, [0, 2], per_count=2, dim=3)
        terms = bpl.intra_loss(batch, bank, tau=0.5)
        vis_rows = batch.modality_rows("V")
        want = protonce_oracle(
            values[vis_rows], batch.ids[vis_rows],
            {i: bank.protos_v[i] for i in (0, 1, 2)}, 0.5,
        )
        assert float(terms.visible.data) == pytest.approx(want, abs=1e-9)

    def test_loss_on_uninitialized_identity_raises(self, rng):
        bank = self.make_initialized(rng, 3, 3)
        bank.initialized_v[1] = False
        batch, _ = make_batch(rng, [0, 1], per_count=2, dim=3)
        with pytest.raises(bpl.UninitializedPrototypeError):
            bpl.intra_loss(batch, bank, tau=1.0)

    def test_prototypes_receive_no_gradient(self, rng):
        bank = self.make_initialized(rng, 3, 4)
        features = dc.parameter(rng.normal(size=(4, 4)) + 0.2)
        batch = bpl.ModalityBatch(
            features, np.array([0, 1, 0, 1]), np.array([True, True, False, False])
        )
        before_v = bank.protos_v.copy()
        with dc.Tape() as tape:
            loss = dc.add(*bpl.intra_loss(batch, bank, tau=0.5))
        dc.backward(loss, tape)
        assert features.grad is not None and np.abs(features.grad).max() > 0.0
        np.testing.assert_array_equal(bank.protos_v, before_v)

    def test_gradients_vs_finite_differences(self, rng):
        bank = self.make_initialized(rng, 3, 4)
        features = dc.parameter(rng.normal(size=(8, 4)) + 0.2)
        ids = np.array([0, 0, 2, 2, 0, 0, 2, 2])
        is_visible = np.array([True] * 4 + [False] * 4)

        def build(params):
            batch = bpl.ModalityBatch(params[0], ids, is_visible)
            intra = dc.add(*bpl.intra_loss(batch, bank, tau=1.0 / 16.0))
            inter = dc.add(*bpl.inter_loss(batch, bank, tau=1.0 / 16.0))
            return dc.add(intra, dc.scale(inter, 1.5))

        report = dc.check_gradients(build, [features], names=["features"])
        assert report.passed

    def test_zero_temperature_rejected(self, rng):
        bank = self.make_initialized(rng, 2, 3)
        batch, _ = make_batch(rng, [0, 1], per_count=1, dim=3)
        with pytest.raises(ValueError, match="temperature"):
            bpl.intra_loss(batch, bank, tau=0.0)
