"""Optimizer, sampler, loss assembly, and the two-stage training loop."""

from __future__ import annotations

import copy
import itertools
import json
import os
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from piareid import (bpl, checkpoint, config, dbdl, diffcore as dc, encoder, evalkit,
                     synthbench, trainer)
from piareid.trainer import (
    AdamState,
    BalancedSampler,
    InsufficientSamplesError,
    LossReport,
    MissingGradientError,
    NonFiniteTrainingError,
    StageTerms,
    TrainConfig,
    TrainRun,
    adam_step,
    lr_at,
    stage_objective,
    train,
)

SMALL_NET = dict(
    image_height=16,
    image_width=8,
    widths=(4, 4, 4),
    strides=(2, 2, 1),
    kernel_size=3,
    attention_kernel_size=3,
)


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    cfg = synthbench.GenConfig(
        n_identities=4,
        images_per_identity_per_modality=2,
        image_height=16,
        image_width=8,
        seed=7,
    )
    return synthbench.generate_dataset(cfg, tmp_path_factory.mktemp("trainer_data"))


class TestTrainConfig:
    def test_defaults_validate(self):
        TrainConfig().validate()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"epochs": 0},
            {"stage2_start_epoch": -1},
            {"base_lr": 0.0},
            {"lr_decay": 0.0},
            {"lr_decay": 1.5},
            {"lr_decay_period_epochs": 0},
            {"ids_per_batch": 1},
            {"instances_per_modality": 0},
            {"flip_probability": 1.5},
            {"tau": 0.0},
            {"alpha": 1.0},
            {"use_orth": True, "use_dbdl": False},
            {"eval_every": -1},
            {"seed": -1},
            {"attention_kernel_size": 129},  # wider than 2 * 64 - 1
        ],
    )
    def test_rejects_bad_values(self, overrides):
        with pytest.raises(ValueError):
            TrainConfig(**overrides).validate()

    def test_model_config_carries_shape(self):
        cfg = TrainConfig(**SMALL_NET)
        model_cfg = cfg.model_config(5, 10)
        assert model_cfg.num_identities == 5
        assert model_cfg.num_clothing_classes == 10
        assert model_cfg.image_height == 16
        assert model_cfg.widths == (4, 4, 4)


class TestLrSchedule:
    def test_staircase(self):
        cfg = TrainConfig(base_lr=1.0, lr_decay=0.1, lr_decay_period_epochs=10)
        assert lr_at(0, cfg) == 1.0
        assert lr_at(9, cfg) == 1.0
        assert lr_at(10, cfg) == pytest.approx(0.1)
        assert lr_at(19, cfg) == pytest.approx(0.1)
        assert lr_at(20, cfg) == pytest.approx(0.01)

    def test_rejects_negative_epoch(self):
        with pytest.raises(ValueError):
            lr_at(-1, TrainConfig())


def reference_adam(data, grads, lr, steps, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook per-element Adam, written independently of the implementation."""
    x = np.array(data, dtype=float)
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    for t in range(1, steps + 1):
        g = np.asarray(grads[t - 1], dtype=float)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g**2
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        x = x - lr * m_hat / (np.sqrt(v_hat) + eps)
    return x


class TestAdam:
    def test_three_steps_match_reference(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(3, 2))
        grads = [rng.normal(size=(3, 2)) for _ in range(3)]
        param = dc.parameter(data.copy())
        state = AdamState()
        for g in grads:
            param.grad = g.copy()
            adam_step({"p": param}, state, lr=0.01)
        expected = reference_adam(data, grads, lr=0.01, steps=3)
        assert np.abs(param.data - expected).max() < 1e-12
        assert state.step_count == 3

    def test_bias_correction_first_step(self):
        # with bias correction the first step moves by ~lr regardless of scale
        param = dc.parameter(np.zeros(1))
        param.grad = np.array([1e-3])
        adam_step({"p": param}, AdamState(), lr=0.5)
        assert param.data[0] == pytest.approx(-0.5, rel=1e-4)

    def test_missing_gradient_raises(self):
        param = dc.parameter(np.zeros(2))
        with pytest.raises(MissingGradientError, match="p"):
            adam_step({"p": param}, AdamState(), lr=0.1)

    def test_shared_state_across_params(self):
        a = dc.parameter(np.ones(2))
        b = dc.parameter(np.ones(3))
        a.grad = np.ones(2)
        b.grad = np.ones(3)
        state = AdamState()
        adam_step({"a": a, "b": b}, state, lr=0.1)
        assert set(state.m) == {"a", "b"}
        assert state.step_count == 1


class TestBalancedSampler:
    def test_batch_size_and_iterations(self, manifest):
        sampler = BalancedSampler(manifest, ids_per_batch=2, instances_per_modality=1)
        assert sampler.batch_size == 4
        # 2 training identities x 2 modalities x 2 images = 8 rows
        assert sampler.iterations_per_epoch() == 2

    def test_schedule_groups_are_distinct_identities(self, manifest):
        sampler = BalancedSampler(manifest, ids_per_batch=2, instances_per_modality=1)
        rng = np.random.default_rng(0)
        for _ in range(5):
            for group in sampler.epoch_identity_schedule(rng):
                assert len(group) == 2
                assert len(set(group)) == 2
                assert set(group) <= set(sampler.identities)

    def test_assemble_layout(self, manifest):
        sampler = BalancedSampler(manifest, ids_per_batch=2, instances_per_modality=2)
        rng = np.random.default_rng(1)
        group = sampler.epoch_identity_schedule(rng)[0]
        rows, ids, is_visible = sampler.assemble(group, rng)
        assert len(rows) == 8
        assert is_visible[:4].all() and not is_visible[4:].any()
        for row_index, identity, visible in zip(rows, ids, is_visible):
            row = manifest.rows[row_index]
            assert row.identity == identity
            assert (row.modality == "V") == visible
            assert row.split == "train"
        # visible and infrared halves carry the same identity multiset
        assert sorted(ids[:4]) == sorted(ids[4:])

    def test_deterministic_given_seed(self, manifest):
        def run():
            sampler = BalancedSampler(manifest, 2, 1)
            rng = np.random.default_rng(42)
            out = []
            for _ in range(3):
                for group in sampler.epoch_identity_schedule(rng):
                    out.append(sampler.assemble(group, rng)[0])
            return out

        assert run() == run()

    def test_every_identity_sampled(self, manifest):
        sampler = BalancedSampler(manifest, 2, 1)
        rng = np.random.default_rng(2)
        seen = set()
        for group in sampler.epoch_identity_schedule(rng):
            seen.update(group)
        assert seen == set(sampler.identities)

    def test_too_many_ids_per_batch(self, manifest):
        with pytest.raises(InsufficientSamplesError, match="ids_per_batch"):
            BalancedSampler(manifest, ids_per_batch=3, instances_per_modality=1)

    def test_too_many_instances(self, manifest):
        with pytest.raises(InsufficientSamplesError, match="need at least"):
            BalancedSampler(manifest, ids_per_batch=2, instances_per_modality=3)


def scalar(value):
    return dc.constant(np.array(float(value)))


def combine(terms):
    """The weighted sum ``stage_objective`` takes of ``terms``, with
    lambda_orth 0.5 and lambda_inter 1.5."""
    return trainer._combine(terms, dc.add, dc.scale, 0.5, 1.5)


def objective_inputs(rng, n_ids=2, dim=6):
    """Embeddings, heads, labels, and a bank that has absorbed the batch:
    what one ``stage_objective`` call reads."""
    f = dc.tensor(rng.normal(size=(2 * n_ids, dim)))
    f_c = dc.tensor(rng.normal(size=(2 * n_ids, dim)))
    heads = encoder.init_heads(rng, dim=dim, num_identities=n_ids,
                               num_clothing_classes=n_ids + 1)
    y_id = np.tile(np.arange(n_ids), 2)
    batch = bpl.ModalityBatch(f, y_id, np.repeat([True, False], n_ids))
    bank = bpl.PrototypeBank.create(n_ids, dim)
    bpl.absorb_batch(bank, batch)
    y_clothing = np.arange(2 * n_ids) % (n_ids + 1)
    return f, f_c, heads, y_id, y_clothing, batch, bank


class TestStageLoss:
    def test_stage1_weighted_sum(self):
        terms = StageTerms(ce_id=scalar(1.0), ce_clothing=scalar(0.5), orth=scalar(0.2))
        total = combine(terms)
        assert float(total.data) == pytest.approx(1.0 + 0.5 + 0.5 * 0.2, abs=1e-15)

    def test_stage2_adds_prototype_terms(self):
        terms = StageTerms(
            ce_id=scalar(1.0),
            ce_clothing=scalar(0.5),
            orth=scalar(0.2),
            intra_v=scalar(0.3),
            intra_i=scalar(0.4),
            inter_v=scalar(0.1),
            inter_i=scalar(0.2),
        )
        total = combine(terms)
        expected = 1.0 + 0.5 + 0.5 * 0.2 + (0.3 + 0.4) + 1.5 * (0.1 + 0.2)
        assert float(total.data) == pytest.approx(expected, abs=1e-15)

    def test_ce_only(self):
        assert float(combine(StageTerms(ce_id=scalar(2.0))).data) == 2.0
        # the base preset's objective is its identity cross-entropy alone
        cfg = TrainConfig(**config.ABLATION_PRESETS["base"])
        for stage in (1, 2):
            total, terms = stage_objective(cfg, stage,
                                           *objective_inputs(np.random.default_rng(4)))
            assert total is terms.ce_id

    def test_unknown_stage_raises(self):
        with pytest.raises(ValueError, match="stage must be 1 or 2"):
            stage_objective(TrainConfig(), 3, *objective_inputs(np.random.default_rng(4)))


# which StageTerms fields each ablation preset sets, per stage
PRESET_TERMS = {
    "base": ({"ce_id"}, set()),
    "dbdl": ({"ce_id", "ce_clothing"}, set()),
    "orth": ({"ce_id", "ce_clothing", "orth"}, set()),
    "intra": ({"ce_id", "ce_clothing", "orth"}, {"intra_v", "intra_i"}),
    "full": ({"ce_id", "ce_clothing", "orth"}, {"intra_v", "intra_i", "inter_v", "inter_i"}),
}


@pytest.mark.parametrize("stage", [1, 2])
@pytest.mark.parametrize("preset", list(config.ABLATION_PRESETS))
def test_stage_terms_follow_switches(preset, stage):
    # lambdas other than 1, so a total that skipped a weight would differ
    cfg = TrainConfig(**config.ABLATION_PRESETS[preset], lambda_orth=0.5, lambda_inter=1.5)
    f, f_c, heads, y_id, y_clothing, batch, bank = objective_inputs(
        np.random.default_rng(11))
    before = bank.protos_v.copy(), bank.protos_i.copy(), bank.iteration
    total, terms = stage_objective(cfg, stage, f, f_c, heads, y_id, y_clothing, batch, bank)
    always, prototype = PRESET_TERMS[preset]
    expected = always | (prototype if stage == 2 else set())
    assert {name for name, t in vars(terms).items() if t is not None} == expected
    assert total.data.tobytes() == combine(terms).data.tobytes()
    np.testing.assert_array_equal(bank.protos_v, before[0])
    np.testing.assert_array_equal(bank.protos_i, before[1])
    assert bank.iteration == before[2]


class TestLossReport:
    def test_from_terms_and_expected_total(self):
        # the optional terms, grouped as they are switched on together
        groups = [dict(ce_clothing=0.7), dict(orth=0.3),
                  dict(intra_v=0.2, intra_i=0.25), dict(inter_v=0.05, inter_i=0.06)]
        for size in range(len(groups) + 1):
            for present in itertools.combinations(groups, size):
                values = {"ce_id": 1.1}
                for group in present:
                    values.update(group)
                terms = StageTerms(**{name: scalar(v) for name, v in values.items()})
                total = combine(terms)
                report = LossReport.from_terms(3, 7, 2, 1e-3, total, terms)
                assert report.epoch == 3 and report.iteration == 7 and report.stage == 2
                assert list(report.to_dict()) == [
                    "epoch", "iteration", "stage", "lr", "total", *values]
                assert report.expected_total(0.5, 1.5) == report.total

    def test_to_dict_omits_absent_terms(self):
        report = LossReport(epoch=0, iteration=0, stage=1, lr=0.1, total=2.0, ce_id=2.0)
        out = report.to_dict()
        assert "ce_clothing" not in out and "intra_v" not in out
        assert out["total"] == 2.0


class TestDenseRemap:
    def test_dense_and_sorted(self):
        remap = trainer._dense_remap([30, 10, 20, 10], "identity")
        assert remap == {10: 0, 20: 1, 30: 2}

    def test_empty_raises(self):
        with pytest.raises(InsufficientSamplesError):
            trainer._dense_remap([], "identity")


def iteration_records(result):
    return [r for record in result.epoch_records for r in record["iterations"]]


def tiny_train_config(**overrides):
    merged = dict(
        epochs=2,
        stage2_start_epoch=1,
        ids_per_batch=2,
        instances_per_modality=1,
        eval_every=0,
        seed=3,
        **SMALL_NET,
    )
    merged.update(overrides)
    return TrainConfig(**merged)


@pytest.fixture(scope="module")
def tiny_run(manifest):
    return train(manifest, tiny_train_config())


class TestTrainLoop:
    def test_epoch_and_iteration_counts(self, tiny_run):
        assert len(tiny_run.epoch_records) == 2
        assert all(len(r["iterations"]) == 2 for r in tiny_run.epoch_records)

    def test_stage_schedule(self, tiny_run):
        assert tiny_run.epoch_records[0]["stage"] == 1
        assert tiny_run.epoch_records[1]["stage"] == 2

    def test_no_prototype_terms_before_stage2(self, tiny_run):
        for item in tiny_run.epoch_records[0]["iterations"]:
            assert "intra_v" not in item and "inter_v" not in item
        for item in tiny_run.epoch_records[1]["iterations"]:
            assert "intra_v" in item and "inter_v" in item

    def test_bank_initialized_by_stage2(self, tiny_run):
        assert tiny_run.bank.fully_initialized

    def test_logged_totals_recombine(self, tiny_run):
        cfg = tiny_run.config
        for report in iteration_records(tiny_run):
            parsed = LossReport(**{f.name: report.get(f.name) for f in fields(LossReport)})
            assert parsed.to_dict() == report
            expected = parsed.expected_total(cfg.lambda_orth, cfg.lambda_inter)
            assert report["total"] == expected

    def test_disentanglement_probes_recorded(self, tiny_run):
        stage1_end, stage2 = tiny_run.epoch_records
        assert 0.0 <= stage1_end["val_abs_cos"] <= 1.0
        assert "val_abs_cos" not in stage2

    def test_deterministic_repeat(self, manifest):
        first = train(manifest, tiny_train_config())
        second = train(manifest, tiny_train_config())
        assert json.dumps(first.epoch_records, sort_keys=True) == json.dumps(
            second.epoch_records, sort_keys=True
        )
        for name, tens in first.state.named_parameters().items():
            assert np.array_equal(tens.data, second.state.named_parameters()[name].data)

    def test_writes_checkpoint_and_log(self, manifest, tmp_path):
        result = train(manifest, tiny_train_config(), out_dir=tmp_path)
        assert result.checkpoint_path.is_file()
        assert result.log_path.is_file()
        loaded = checkpoint.load_raw(result.checkpoint_path)
        assert "bank.protos_v" in loaded.arrays
        lines = result.log_path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["epoch"] == 0

    def test_failed_rerun_keeps_old_outputs(self, manifest, tmp_path, monkeypatch):
        train(manifest, tiny_train_config(), out_dir=tmp_path)
        old_checkpoint = (tmp_path / "checkpoint.bin").read_bytes()

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            train(manifest, tiny_train_config(seed=4), out_dir=tmp_path)
        assert (tmp_path / "checkpoint.bin").read_bytes() == old_checkpoint
        assert not list(tmp_path.glob("*.tmp"))

    def test_ce_only_configuration(self, manifest):
        cfg = tiny_train_config(
            use_dbdl=False, use_orth=False, use_intra=False, use_inter=False
        )
        result = train(manifest, cfg)
        for item in iteration_records(result):
            assert "ce_clothing" not in item and "orth" not in item
        assert all("val_abs_cos" not in record for record in result.epoch_records)

    @pytest.mark.parametrize("preset, eval_every, passes", [
        ("full", 0, 1),  # the stage-1-end probe alone
        ("full", 1, 2),  # one per epoch; the probe shares epoch 0's pass
        ("base", 0, 0),  # no dual branch, no eval: no pass
    ])
    def test_test_split_passes(self, manifest, monkeypatch, preset, eval_every, passes):
        calls = []
        extract = evalkit.test_feature_table

        def counted(*args):
            calls.append(args)
            return extract(*args)

        monkeypatch.setattr(evalkit, "test_feature_table", counted)
        result = train(manifest, tiny_train_config(eval_every=eval_every,
                                                   **config.ABLATION_PRESETS[preset]))
        assert len(calls) == passes
        assert [("eval" in r) for r in result.epoch_records] == [bool(eval_every)] * 2

    def test_clothing_embeddings_only_for_the_probe(self, manifest, monkeypatch):
        # both epochs evaluate; only epoch 0's pass, which the probe shares,
        # keeps f_c, and the probe reads the |cos(f, f_c)| of a full
        # extraction with that epoch's weights
        kept, states = [], []
        extract = evalkit.model_mod.extract_embeddings

        def recorded(state, *args, **kwargs):
            features, clothing_features = extract(state, *args, **kwargs)
            kept.append(clothing_features is not None)
            states.append(copy.deepcopy(state))
            return features, clothing_features

        monkeypatch.setattr(evalkit.model_mod, "extract_embeddings", recorded)
        result = train(manifest, tiny_train_config(eval_every=1))
        monkeypatch.undo()
        assert kept == [True, False]
        assert [("val_abs_cos" in r) for r in result.epoch_records] == [True, False]
        with dc.Workspace() as workspace:
            table = evalkit.test_feature_table(manifest, states[0], workspace, clothing=True)
        assert result.epoch_records[0]["val_abs_cos"] == dbdl.mean_abs_cosine(
            table.features, table.clothing_features)

    def test_undersized_image_pool_raises(self, manifest):
        with pytest.raises(InsufficientSamplesError):
            train(manifest, tiny_train_config(instances_per_modality=3,
                                              ids_per_batch=2))


# two iterations per epoch on this manifest, so each Stage-II epoch absorbs two batches
class TestNonFiniteGuard:
    @pytest.mark.parametrize("k", [1, 3])
    def test_names_the_parameter_a_step_left_non_finite(self, manifest, tmp_path,
                                                        monkeypatch, k):
        # a NaN written into one weight after the k-th optimizer step (two
        # steps per epoch) stops that step; no checkpoint or log is written
        name = "backbone.conv1.weight"
        steps = []

        def spoiling(params, state, lr):
            adam_step(params, state, lr)
            steps.append(1)
            if len(steps) == k:
                params[name].data.flat[-1] = np.nan

        monkeypatch.setattr(trainer, "adam_step", spoiling)
        with pytest.raises(NonFiniteTrainingError) as caught:
            train(manifest, tiny_train_config(), out_dir=tmp_path)
        assert str(caught.value) == (f"parameter {name} is not finite after the "
                                     f"optimizer step at epoch {(k - 1) // 2} "
                                     f"iteration {(k - 1) % 2}")
        assert len(steps) == k
        assert not (tmp_path / "checkpoint.bin").exists()
        assert not (tmp_path / "train_log.jsonl").exists()

    def test_names_a_non_finite_loss_term_before_backward(self, manifest, monkeypatch):
        # a NaN intra_v makes the total NaN too; the term is named, and the
        # step stops before its backward and optimizer update
        intra_loss = bpl.intra_loss

        def spoiled(*args, **kwargs):
            intra_v, intra_i = intra_loss(*args, **kwargs)
            return dc.mul(intra_v, dc.constant(np.array(np.nan))), intra_i

        monkeypatch.setattr(bpl, "intra_loss", spoiled)
        backward_calls = []
        backward = dc.backward
        monkeypatch.setattr(dc, "backward", lambda *args: (
            backward_calls.append(1) or backward(*args)))
        with pytest.raises(NonFiniteTrainingError,
                           match=r"^loss term intra_v is nan at epoch 1 iteration 0$"):
            train(manifest, tiny_train_config())
        assert len(backward_calls) == 2  # Stage I's two steps


class TestStepMemory:
    def test_a_step_frees_conv_and_relu_intermediates_during_the_forward(
            self, tmp_path_factory):
        # 8 images of 64x32 through the default 16/32/32 backbone, off any
        # workspace, after a warm-up step has made the Adam moments: the
        # traced peak of a stage-II step read 2.50 MB when every tape node
        # held its input and output tensors until backward, and 2.14 MB once
        # a conv output that only feeds a relu dies in the forward
        manifest = synthbench.generate_dataset(
            synthbench.GenConfig(n_identities=3, images_per_identity_per_modality=2, seed=5),
            tmp_path_factory.mktemp("default_size_data"))
        cfg = TrainConfig(epochs=1, ids_per_batch=2, instances_per_modality=2, eval_every=0)
        run = TrainRun(manifest, cfg)
        rng = np.random.default_rng(0)
        rows, raw_ids, is_visible = run.sampler.assemble(
            run.sampler.epoch_identity_schedule(rng)[0], rng)
        pixels = synthbench.unit_pixels(manifest.raster_batch(rows))
        assert pixels.shape == (8, 3, 64, 32)
        y_id = np.array([run.id_remap[i] for i in raw_ids])
        y_clothing = np.array([run.clothing_remap[manifest.rows[i].clothing] for i in rows])
        step = lambda stage: trainer._step(run, pixels, y_id, y_clothing, is_visible, 0,
                                           stage, cfg.base_lr)
        step(1)
        tracemalloc.start()
        try:
            step(2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_300_000, peak


@pytest.mark.parametrize("stage2_start_epoch, stages, probe_epoch, bank_iteration, initialized", [
    (0, (2, 2), None, 4, True),  # prototype stage from the start: no Stage-I end to probe
    (1, (1, 2), 0, 2, True),
    (2, (1, 1), 1, 0, False),  # the switch is at the last epoch boundary: never reached
    (5, (1, 1), 1, 0, False),  # past the end: the probe still runs in the last epoch
])
def test_schedule_edges(manifest, stage2_start_epoch, stages, probe_epoch, bank_iteration,
                        initialized):
    result = train(manifest, tiny_train_config(stage2_start_epoch=stage2_start_epoch))
    assert tuple(record["stage"] for record in result.epoch_records) == stages
    probed = [record["epoch"] for record in result.epoch_records if "val_abs_cos" in record]
    assert probed == ([] if probe_epoch is None else [probe_epoch])
    assert result.bank.iteration == bank_iteration
    assert result.bank.fully_initialized == initialized


RESUME_EPOCHS = 3


@pytest.fixture(scope="module")
def resume_outputs(manifest, tmp_path_factory):
    """An uninterrupted run's output bytes, for the deep-copy test."""
    out = tmp_path_factory.mktemp("uninterrupted")
    train(manifest, tiny_train_config(epochs=RESUME_EPOCHS, eval_every=2), out_dir=out)
    return {name: (out / name).read_bytes() for name in ("checkpoint.bin", "train_log.jsonl")}


@pytest.mark.parametrize("k", range(RESUME_EPOCHS))
def test_deep_copy_after_epoch_k_continues_bit_exactly(manifest, resume_outputs, tmp_path, k):
    """A copy taken after epoch k and the original each finish as one run.

    The original runs to the end first, so any loop state kept outside the
    run object would already have moved on when the copy continues."""
    run = TrainRun(manifest, tiny_train_config(epochs=RESUME_EPOCHS, eval_every=2))
    with dc.Workspace() as workspace:
        for _ in range(k + 1):
            run.epoch(manifest, workspace)
    twin = copy.deepcopy(run)
    for name, each in (("original", run), ("copy", twin)):
        with dc.Workspace() as workspace:
            while len(each.epoch_records) < RESUME_EPOCHS:
                each.epoch(manifest, workspace)
        each.finish(tmp_path / name)
        for file, expected in resume_outputs.items():
            assert (tmp_path / name / file).read_bytes() == expected, (name, file)
