"""Command-line behavior: exit codes, outputs, and override precedence."""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import pkgutil
import re
import shutil
import struct
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import piareid
from piareid import bpl
from piareid import checkpoint as ckpt
from piareid import checksuite, cli, config, evalkit, model, pnm, synthbench, trainer
from piareid import diffcore as dc
from piareid.cli import (
    EXIT_CHECK_FAILURE,
    EXIT_CONFIG_ERROR,
    EXIT_IO_ERROR,
    EXIT_OK,
    main,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

TINY_DATA = [
    "--n-identities", "4",
    "--images-per-identity-per-modality", "2",
    "--image-height", "16",
    "--image-width", "8",
    "--seed", "9",
]
TINY_NET = [
    "--widths", "4,4",
    "--strides", "2,1",
    "--attention-kernel-size", "3",
]
TINY_TRAIN = TINY_DATA + TINY_NET + [
    "--epochs", "2",
    "--stage2-start", "1",
    "--ids-per-batch", "2",
    "--instances-per-modality", "1",
    "--eval-every", "0",
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated dataset and trained checkpoint shared by the module."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    run = root / "run"
    assert main(["gen-data", "--out", str(data)] + TINY_DATA) == EXIT_OK
    assert (
        main(["train", "--data-dir", str(data), "--out", str(run)] + TINY_TRAIN)
        == EXIT_OK
    )
    return root


class TestGenData:
    def test_writes_dataset_and_summary(self, tmp_path, capsys):
        rc = main(["gen-data", "--out", str(tmp_path / "d")] + TINY_DATA)
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "rows: 16" in out
        assert "fingerprint:" in out
        assert (tmp_path / "d" / "manifest.csv").is_file()
        assert (tmp_path / "d" / "run_config.txt").is_file()

    def test_invalid_generation_config(self, tmp_path, capsys):
        rc = main(["gen-data", "--out", str(tmp_path / "d"), "--n-identities", "1"])
        assert rc == EXIT_CONFIG_ERROR
        assert "error:" in capsys.readouterr().err

    def test_refuses_nonempty_output(self, tmp_path, capsys):
        target = tmp_path / "d"
        assert main(["gen-data", "--out", str(target)] + TINY_DATA) == EXIT_OK
        capsys.readouterr()
        rc = main(["gen-data", "--out", str(target)] + TINY_DATA)
        assert rc == EXIT_IO_ERROR
        err = capsys.readouterr().err
        assert "is not empty" in err
        # any option the message tells the user to pass is one gen-data has
        sub = next(action for action in cli._build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        flags = {flag for action in sub.choices["gen-data"]._actions
                 for flag in action.option_strings}
        named = set(re.findall(r"--[\w-]+", err))
        named |= {"--" + word for word in re.findall(r"\bpass (\w+)", err)}
        assert named <= flags

    @pytest.mark.parametrize("flag, name", [
        ("--out", "a#b"), ("--out", "a\nb"), ("--out-dir", "a\rb"),
    ])
    def test_unwritable_path_is_config_error(self, tmp_path, capsys, flag, name):
        # a path run_config.txt cannot read back is refused before any write
        rc = main(["gen-data", flag, str(tmp_path / name)] + TINY_DATA)
        assert rc == EXIT_CONFIG_ERROR
        assert "cannot be written" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestTrain:
    def test_writes_outputs(self, workspace):
        run = workspace / "run"
        assert (run / "checkpoint.bin").is_file()
        assert (run / "train_log.jsonl").is_file()
        assert (run / "run_config.txt").is_file()

    def test_resolved_config_reflects_overrides(self, workspace):
        text = (workspace / "run" / "run_config.txt").read_text()
        assert "epochs = 2\n" in text
        assert "stage2_start_epoch = 1\n" in text
        assert "widths = 4,4\n" in text

    def test_log_is_jsonl(self, workspace):
        lines = (workspace / "run" / "train_log.jsonl").read_text().splitlines()
        assert len(lines) == 2
        record = json.loads(lines[0])
        assert record["epoch"] == 0 and record["stage"] == 1

    def test_ablation_preset_applies(self, workspace, tmp_path, capsys):
        run = tmp_path / "base_run"
        rc = main([
            "train", "--data-dir", str(workspace / "data"),
            "--out", str(run), "--ablation", "base",
        ] + TINY_TRAIN)
        assert rc == EXIT_OK
        text = (run / "run_config.txt").read_text()
        assert "use_dbdl = false\n" in text
        assert "use_inter = false\n" in text

    def test_missing_dataset(self, tmp_path, capsys):
        rc = main([
            "train", "--data-dir", str(tmp_path / "nope"), "--out", str(tmp_path / "r"),
        ] + TINY_TRAIN)
        assert rc == EXIT_IO_ERROR

    def test_bad_override_value(self, tmp_path, capsys):
        rc = main([
            "train", "--data-dir", str(tmp_path), "--out", str(tmp_path / "r"),
            "--epochs", "soon",
        ])
        assert rc == EXIT_CONFIG_ERROR

    def test_invalid_architecture_is_config_error(self, workspace, tmp_path, capsys):
        # a final stride other than 1 breaks mask resolution and must be
        # rejected up front, not crash mid-run
        rc = main([
            "train", "--data-dir", str(workspace / "data"),
            "--out", str(tmp_path / "r"),
            "--widths", "4,4", "--strides", "2,2",
        ] + TINY_DATA)
        assert rc == EXIT_CONFIG_ERROR
        assert "stride" in capsys.readouterr().err


    def test_image_size_mismatch_is_config_error(self, workspace, tmp_path, capsys):
        # the dataset holds 16x8 images; the run asks for 64x32
        run = tmp_path / "r"
        rc = main([
            "train", "--data-dir", str(workspace / "data"), "--out", str(run),
        ] + TINY_TRAIN + ["--image-height", "64", "--image-width", "32"])
        assert rc == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "64x32" in err and "16x8" in err
        assert not run.exists()

    def test_failed_rerun_leaves_used_run_dir_unchanged(self, workspace, tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(workspace / "run", run)
        before = {name: (run / name).read_bytes()
                  for name in ("run_config.txt", "checkpoint.bin")}
        rc = main([
            "train", "--config", str(run / "run_config.txt"), "--out", str(run),
            "--ids-per-batch", "9",
        ])
        assert rc == EXIT_CONFIG_ERROR
        assert "Traceback" not in capsys.readouterr().err
        for name, data in before.items():
            assert (run / name).read_bytes() == data, name
        assert sorted(p.name for p in run.iterdir()) == sorted(
            p.name for p in (workspace / "run").iterdir()
        )

    def test_invalid_dataset_image(self, workspace, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        bad = data / "images" / "V" / "0000" / "000.ppm"  # a training image
        bad.write_text("garbage")
        rc = main(["train", "--data-dir", str(data), "--out", str(tmp_path / "r")]
                  + TINY_TRAIN)
        assert rc == EXIT_IO_ERROR
        assert str(bad) in capsys.readouterr().err

    def test_odd_image_past_the_first_batch(self, workspace, tmp_path, capsys,
                                            monkeypatch):
        batches = []
        raster_batch = synthbench.Manifest.raster_batch

        def recorded(manifest, indices, flips=None):
            batches.append((manifest, list(indices)))
            return raster_batch(manifest, indices, flips)

        monkeypatch.setattr(synthbench.Manifest, "raster_batch", recorded)
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        assert main(["train", "--data-dir", str(data), "--out", str(tmp_path / "ok")]
                    + TINY_TRAIN) == EXIT_OK
        (manifest, first), (_, second) = batches[:2]
        odd = data / manifest.rows[next(i for i in second if i not in first)].path
        pnm.write_ppm(odd, np.zeros((32, 16, 3), np.uint8))
        capsys.readouterr()
        run = tmp_path / "r"
        rc = main(["train", "--data-dir", str(data), "--out", str(run)] + TINY_TRAIN)
        assert rc == EXIT_IO_ERROR
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert str(odd) in err and "32x16" in err and "16x8" in err
        assert not run.exists()

    def test_one_modality_test_split_fails_before_training(self, workspace, tmp_path,
                                                           capsys, monkeypatch):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        manifest = data / "manifest.csv"
        lines = manifest.read_text().splitlines(keepends=True)
        manifest.write_text("".join(line for line in lines
                                    if not line.rstrip().endswith(",I,test")))
        steps = []
        monkeypatch.setattr(trainer, "_step", lambda *args: steps.append(args))
        run = tmp_path / "r"
        rc = main(["train", "--data-dir", str(data), "--out", str(run)]
                  + TINY_TRAIN + ["--eval-every", "1"])
        assert rc == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "Traceback" not in err and "both modalities" in err
        assert steps == []
        assert not run.exists()

    def test_non_finite_test_embedding_is_config_error(self, workspace, tmp_path, capsys,
                                                       monkeypatch):
        extract = model.extract_embeddings

        def overflowing(state, batches, count, **kwargs):
            features, clothing_features = extract(state, batches, count, **kwargs)
            return features * 1e300, clothing_features

        monkeypatch.setattr(model, "extract_embeddings", overflowing)
        run = tmp_path / "r"
        rc = main(["train", "--data-dir", str(workspace / "data"), "--out", str(run)]
                  + TINY_TRAIN + ["--eval-every", "1"])
        assert rc == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "Traceback" not in err and "squared L2 norm overflows" in err
        assert not run.exists()

    def test_non_finite_clothing_embedding_is_config_error(self, workspace, tmp_path,
                                                           capsys, monkeypatch):
        # only the probe epoch's |cos(f, f_c)| reads the clothing embeddings;
        # a NaN there must stop the run, not reach the log as NaN
        extract = model.extract_embeddings

        def spoiled(*args, **kwargs):
            features, clothing_features = extract(*args, **kwargs)
            if clothing_features is not None:
                clothing_features = clothing_features * np.nan
            return features, clothing_features

        monkeypatch.setattr(model, "extract_embeddings", spoiled)
        data = workspace / "data"
        manifest = synthbench.load_manifest(data)
        first = manifest.rows[manifest.rows_for_split(synthbench.SPLIT_TEST)[0]]
        run = tmp_path / "r"
        rc = main(["train", "--data-dir", str(data), "--out", str(run)] + TINY_TRAIN)
        assert rc == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"{data / first.path}: cannot probe the clothing embedding: it holds " \
               f"non-finite values" in err
        assert not run.exists()

    def test_non_finite_parameter_is_config_error(self, workspace, tmp_path, capsys,
                                                  monkeypatch):
        # a weight that turns NaN in the last step stops the run before any
        # output is written
        adam_step, steps = trainer.adam_step, []

        def spoiling(params, state, lr):
            adam_step(params, state, lr)
            steps.append(1)
            if len(steps) == 4:  # epoch 1, iteration 1
                params["heads.id.weight"].data.flat[0] = np.nan

        monkeypatch.setattr(trainer, "adam_step", spoiling)
        run = tmp_path / "r"
        rc = main(["train", "--data-dir", str(workspace / "data"), "--out", str(run)]
                  + TINY_TRAIN)
        assert rc == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert ("error: parameter heads.id.weight is not finite after the optimizer step "
                "at epoch 1 iteration 1") in err
        assert not run.exists()

    def test_collapsed_embedding_is_config_error(self, tmp_path, capsys, monkeypatch):
        # perfbench's tiny train_full run, with every training forward zeroing
        # row 0 of f, which the orthogonality loss refuses at the first step
        forward = model.forward_embeddings

        def collapsed(state, pixels, *, training):
            f, f_c, masks = forward(state, pixels, training=training)
            if training:
                keep = np.ones(f.shape)
                keep[0] = 0.0
                f = dc.mul(f, dc.constant(keep))
            return f, f_c, masks

        monkeypatch.setattr(model, "forward_embeddings", collapsed)
        data = [
            "--n-identities", "8", "--images-per-identity-per-modality", "4",
            "--image-height", "16", "--image-width", "8", "--split-ratio", "1:1",
        ]
        assert main(["gen-data", "--out", str(tmp_path / "d")] + data) == EXIT_OK
        capsys.readouterr()
        run = tmp_path / "r"
        rc = main(["train", "--data-dir", str(tmp_path / "d"), "--out", str(run)]
                  + data + TINY_NET + [
                      "--ablation", "full", "--epochs", "2", "--stage2-start", "1",
                      "--eval-every", "1", "--ids-per-batch", "2",
                      "--instances-per-modality", "2",
                  ])
        assert rc == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "Traceback" not in err and "error: f contains a row with norm" in err
        assert not run.exists()


class TestReproduce:
    def test_rerun_from_resolved_config_is_byte_identical(self, workspace, tmp_path):
        run = workspace / "run"
        rerun = tmp_path / "rerun"
        rc = main(["train", "--config", str(run / "run_config.txt"), "--out", str(rerun)])
        assert rc == EXIT_OK
        for name in ("checkpoint.bin", "train_log.jsonl"):
            assert (rerun / name).read_bytes() == (run / name).read_bytes(), name

    def test_no_state_outlives_a_train_call(self, tmp_path, monkeypatch):
        # perfbench's tiny train_full: a second run in the process, and one
        # after a run that raised mid-epoch, write the first run's bytes
        data = tmp_path / "data"
        assert main(["gen-data", "--out", str(data)] + TRAIN_GOLDEN_DATA) == EXIT_OK
        flags = ["--data-dir", str(data)] + TRAIN_GOLDEN_DATA + TRAIN_GOLDEN_CALL

        def outputs(run):
            return [(run / name).read_bytes() for name in ("checkpoint.bin",
                                                            "train_log.jsonl")]

        assert main(["train", "--out", str(tmp_path / "a")] + flags) == EXIT_OK
        assert main(["train", "--out", str(tmp_path / "b")] + flags) == EXIT_OK
        assert outputs(tmp_path / "a") == outputs(tmp_path / "b")

        adam_step, steps = trainer.adam_step, []

        def failing(*args, **kwargs):
            steps.append(1)
            if len(steps) == 2:  # the second step of the first epoch
                raise trainer.TrainerError("injected")
            adam_step(*args, **kwargs)

        monkeypatch.setattr(trainer, "adam_step", failing)
        assert main(["train", "--out", str(tmp_path / "c")] + flags) == EXIT_CONFIG_ERROR
        assert dc.current_workspace() is None
        monkeypatch.undo()
        assert main(["train", "--out", str(tmp_path / "d")] + flags) == EXIT_OK
        assert outputs(tmp_path / "a") == outputs(tmp_path / "d")

        # eval's extraction runs in a workspace of its own, active only for
        # the extraction
        active = []
        extract = evalkit.test_feature_table
        monkeypatch.setattr(evalkit, "test_feature_table", lambda *args: (
            active.append(dc.current_workspace()) or extract(*args)))
        assert dc.current_workspace() is None
        assert main(["eval", "--config", str(tmp_path / "a" / "run_config.txt"),
                     "--checkpoint", str(tmp_path / "a" / "checkpoint.bin"),
                     "--out", str(tmp_path / "eval")]) == EXIT_OK
        assert dc.current_workspace() is None
        [current] = active
        assert isinstance(current, dc.Workspace)


#: sha256 of the eval reports of a seeded, untrained model on an 8-identity
#: dataset (``EVAL_GOLDEN_FLAGS``, seed 0), computed when the report traded
#: its distance statistics for ``mean_inp``; every other field kept its bytes.
EVAL_GOLDEN_FLAGS = [
    "--n-identities", "8", "--images-per-identity-per-modality", "4",
    "--image-height", "16", "--image-width", "8", "--split-ratio", "1:1",
    "--widths", "4,4", "--strides", "2,1", "--attention-kernel-size", "3",
    "--seed", "0",
]
EVAL_GOLDEN_SHA256 = {
    "eval_v2i.json": "a0c9d74919fb322b8ae4f05d1fd8d67238d25d4c29ca30dea20f14f486af0f22",
    "eval_i2v.json": "b1f7086be76be1aa4ecd78436ad52658f111bb0b8449b024deae1815532c1200",
}

#: sha256 of the train outputs at perfbench's tiny train_full flags
#: (``TRAIN_GOLDEN_DATA`` for ``gen-data``, plus ``TRAIN_GOLDEN_CALL`` for
#: ``train``, seed 0).  ``checkpoint.bin``'s digest dates from when the pixel
#: cache still held float64 copies of the images; the log's, which embeds
#: each epoch's eval report, from when that report gained ``mean_inp``.
TRAIN_GOLDEN_DATA = [
    "--n-identities", "8", "--images-per-identity-per-modality", "4",
    "--image-height", "16", "--image-width", "8", "--split-ratio", "1:1",
    "--seed", "0",
]
TRAIN_GOLDEN_CALL = [
    "--widths", "4,4", "--strides", "2,1", "--attention-kernel-size", "3",
    "--ablation", "full", "--epochs", "2", "--stage2-start", "1",
    "--eval-every", "1", "--ids-per-batch", "2", "--instances-per-modality", "2",
]
TRAIN_GOLDEN_SHA256 = {
    "checkpoint.bin": "a7c2bb4b2135e4ffa9286296984f1de07b40e2c097116b405c1bb7f8c5e0251c",
    "train_log.jsonl": "c5079ef36b1faea11ae0fe773541c4eacc372a5a490a35852fffafaa70e4a5de",
}


def _untrained_eval_inputs(tmp_path):
    """The ``EVAL_GOLDEN_FLAGS`` dataset and the seeded, untrained checkpoint
    of its training split; returns ``(data_dir, checkpoint_path)``."""
    data = tmp_path / "data"
    assert main(["gen-data", "--out", str(data)] + EVAL_GOLDEN_FLAGS) == EXIT_OK
    cfg = config.build_config(None, {
        EVAL_GOLDEN_FLAGS[i][2:].replace("-", "_"): EVAL_GOLDEN_FLAGS[i + 1]
        for i in range(0, len(EVAL_GOLDEN_FLAGS), 2)
    })
    manifest = synthbench.load_manifest(data)
    train_rows = [manifest.rows[i]
                  for i in manifest.rows_for_split(synthbench.SPLIT_TRAIN)]
    model_cfg = cfg.train_config().model_config(
        len({row.identity for row in train_rows}),
        len({row.clothing for row in train_rows}))
    path = tmp_path / "model.bin"
    ckpt.save(path, model.build_model(model_cfg), None,
              model.model_config_text(model_cfg))
    return data, path


class TestEval:
    def test_reports_both_directions(self, workspace, tmp_path, capsys):
        out = tmp_path / "eval"
        rc = main([
            "eval",
            "--config", str(workspace / "run" / "run_config.txt"),
            "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
            "--data-dir", str(workspace / "data"),
            "--out", str(out),
            "--direction", "both",
        ])
        assert rc == EXIT_OK
        printed = capsys.readouterr().out
        assert '"direction": "v2i"' in printed
        assert '"direction": "i2v"' in printed
        assert printed == "".join(
            (out / name).read_text() for name in ("eval_v2i.json", "eval_i2v.json"))
        for name in ("eval_v2i.json", "eval_i2v.json"):
            report = json.loads((out / name).read_text())
            assert 0.0 <= report["rank1"] <= 1.0
            assert 0.0 <= report["mean_ap"] <= 1.0
            assert report["num_query"] > 0

    def test_reports_pass_the_benchmark_gate(self, tmp_path, monkeypatch):
        # perfbench's gate checks every eval report it times; a report it
        # rejects would turn each benchmark sample into a failed operation.
        # This reads perfbench/gate.py and changes nothing in it.
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import gate

        data, checkpoint = _untrained_eval_inputs(tmp_path)
        out = tmp_path / "eval"
        assert main(["eval", "--data-dir", str(data), "--checkpoint", str(checkpoint),
                     "--out", str(out), "--direction", "both"]
                    + EVAL_GOLDEN_FLAGS) == EXIT_OK
        rows, _ = gate.read_manifest_rows(data)
        for direction in evalkit.DIRECTIONS:
            report = json.loads((out / f"eval_{direction}.json").read_text())
            assert list(report) == [f.name for f in fields(evalkit.EvalReport)]
            assert gate.check_eval_report(report, rows) == [], direction

    def test_reports_match_golden_digests(self, tmp_path):
        data, checkpoint = _untrained_eval_inputs(tmp_path)
        out = tmp_path / "eval"
        assert main(["eval", "--data-dir", str(data), "--checkpoint",
                     str(checkpoint), "--out", str(out),
                     "--direction", "both"] + EVAL_GOLDEN_FLAGS) == EXIT_OK
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in EVAL_GOLDEN_SHA256}
        assert digests == EVAL_GOLDEN_SHA256

    def test_train_outputs_match_golden_digests(self, tmp_path):
        data, run = tmp_path / "data", tmp_path / "run"
        assert main(["gen-data", "--out", str(data)] + TRAIN_GOLDEN_DATA) == EXIT_OK
        assert main(["train", "--data-dir", str(data), "--out", str(run)]
                    + TRAIN_GOLDEN_DATA + TRAIN_GOLDEN_CALL) == EXIT_OK
        digests = {name: hashlib.sha256((run / name).read_bytes()).hexdigest()
                   for name in TRAIN_GOLDEN_SHA256}
        assert digests == TRAIN_GOLDEN_SHA256

    def test_non_finite_weight_is_invalid_checkpoint(self, tmp_path, capsys):
        data, checkpoint = _untrained_eval_inputs(tmp_path)
        loaded = ckpt.load_raw(checkpoint)
        arrays = dict(loaded.arrays)
        arrays["backbone.conv0.weight"].flat[0] = np.nan
        checkpoint.write_bytes(ckpt.serialize(loaded.config_text, arrays))
        out = tmp_path / "eval"
        rc = main(["eval", "--data-dir", str(data), "--checkpoint", str(checkpoint),
                   "--out", str(out), "--direction", "both"] + EVAL_GOLDEN_FLAGS)
        assert rc == EXIT_IO_ERROR
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "invalid checkpoint" in err and "backbone.conv0.weight" in err
        assert not out.exists()

    def test_previous_format_checkpoint_is_bad_magic(self, tmp_path, capsys):
        # a PIACKPT1 file: its config block still names the two removed
        # embedding-head fields
        data, checkpoint = _untrained_eval_inputs(tmp_path)
        loaded = ckpt.load_raw(checkpoint)
        old_text = loaded.config_text.replace(
            "use_dbdl = ", "pooling_mode = gap_gmp\nuse_final_bn = true\nuse_dbdl = ")
        assert old_text != loaded.config_text
        blob = ckpt.serialize(old_text, loaded.arrays)
        checkpoint.write_bytes(b"PIACKPT1" + blob[len(ckpt.MAGIC):])
        out = tmp_path / "eval"
        rc = main(["eval", "--data-dir", str(data), "--checkpoint", str(checkpoint),
                   "--out", str(out)] + EVAL_GOLDEN_FLAGS)
        assert rc == EXIT_IO_ERROR
        err = capsys.readouterr().err
        assert "Traceback" not in err and "bad magic" in err
        assert not out.exists()

    def test_config_block_claiming_a_huge_model_is_invalid_checkpoint(self, tmp_path,
                                                                      capsys):
        # the fingerprint only hashes the block, so a rewritten block passes it
        data, checkpoint = _untrained_eval_inputs(tmp_path)
        loaded = ckpt.load_raw(checkpoint)
        text = re.sub(r"num_identities = \d+", "num_identities = 1000000000000000",
                      loaded.config_text)
        assert text != loaded.config_text
        checkpoint.write_bytes(ckpt.serialize(text, loaded.arrays))
        out = tmp_path / "eval"
        rc = main(["eval", "--data-dir", str(data), "--checkpoint", str(checkpoint),
                   "--out", str(out)] + EVAL_GOLDEN_FLAGS)
        assert rc == EXIT_IO_ERROR
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "invalid checkpoint" in err and "heads.id.weight" in err
        assert not out.exists()

    def test_single_branch_block_with_a_huge_attention_kernel_is_invalid_checkpoint(
            self, tmp_path, capsys):
        # no record of a use_dbdl = false checkpoint holds the attention
        # weights, yet the model draws them
        data, checkpoint = _untrained_eval_inputs(tmp_path)
        loaded = ckpt.load_raw(checkpoint)
        text = re.sub(r"attention_kernel_size = \d+", "attention_kernel_size = 100001",
                      loaded.config_text).replace("use_dbdl = true", "use_dbdl = false")
        assert "use_dbdl = false" in text and "100001" in text
        checkpoint.write_bytes(ckpt.serialize(text, loaded.arrays))
        out = tmp_path / "eval"
        rc = main(["eval", "--data-dir", str(data), "--checkpoint", str(checkpoint),
                   "--out", str(out)] + EVAL_GOLDEN_FLAGS)
        assert rc == EXIT_IO_ERROR
        err = capsys.readouterr().err
        assert "Traceback" not in err and "invalid checkpoint" in err
        assert "attention kernel size 100001 exceeds 31" in err and "16x8 image" in err
        assert not out.exists()

    def test_huge_finite_weights_are_config_error(self, tmp_path, capsys):
        # every squared embedding norm overflows, which would make every
        # embedding zero and every distance a tie
        data, checkpoint = _untrained_eval_inputs(tmp_path)
        loaded = ckpt.load_raw(checkpoint)
        arrays = dict(loaded.arrays)
        arrays["backbone.conv0.weight"][...] = 1e300
        checkpoint.write_bytes(ckpt.serialize(loaded.config_text, arrays))
        out = tmp_path / "eval"
        with np.errstate(all="ignore"):
            rc = main(["eval", "--data-dir", str(data), "--checkpoint", str(checkpoint),
                       "--out", str(out), "--direction", "both"] + EVAL_GOLDEN_FLAGS)
        assert rc == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "Traceback" not in err and "identity embedding" in err
        manifest = synthbench.load_manifest(data)
        first = manifest.rows[manifest.rows_for_split(synthbench.SPLIT_TEST)[0]]
        assert str(data / first.path) in err
        assert not out.exists()

    def test_ranks_with_no_manifest_alive(self, tmp_path, monkeypatch):
        data, checkpoint = _untrained_eval_inputs(tmp_path)
        loaded, alive_at_ranking = [], []
        load_manifest = synthbench.load_manifest
        report_from_set = evalkit.report_from_set

        def recorded_load(path):
            manifest = load_manifest(path)
            loaded.append(weakref.ref(manifest))
            return manifest

        def recorded_report(retrieval):
            alive_at_ranking.append(loaded[0]() is not None)
            return report_from_set(retrieval)

        monkeypatch.setattr(synthbench, "load_manifest", recorded_load)
        monkeypatch.setattr(evalkit, "report_from_set", recorded_report)
        assert main(["eval", "--data-dir", str(data), "--checkpoint", str(checkpoint),
                     "--out", str(tmp_path / "eval"), "--direction", "both"]
                    + EVAL_GOLDEN_FLAGS) == EXIT_OK
        assert len(loaded) == 1 and alive_at_ranking == [False, False]

    def test_builds_no_clothing_embeddings(self, workspace, tmp_path, monkeypatch):
        # the ranking reads the identity embeddings alone, so the dual-branch
        # checkpoint's clothing embeddings are not kept
        tables = []
        evaluate = evalkit.evaluate
        monkeypatch.setattr(evalkit, "evaluate", lambda table, *args: (
            tables.append(table) or evaluate(table, *args)))
        assert main(["eval", "--config", str(workspace / "run" / "run_config.txt"),
                     "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
                     "--data-dir", str(workspace / "data"),
                     "--out", str(tmp_path / "eval")]) == EXIT_OK
        [table] = tables
        assert table.clothing_features is None
        assert table.features.shape[0] == len(table.row_indices) > 0

    def test_image_size_mismatch_is_config_error(self, workspace, tmp_path, capsys):
        # the checkpoint's model takes 16x8 images; this dataset holds 32x16
        data = tmp_path / "data32"
        assert main(["gen-data", "--out", str(data)] + TINY_DATA
                    + ["--image-height", "32", "--image-width", "16"]) == EXIT_OK
        out = tmp_path / "eval"
        rc = main([
            "eval",
            "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
            "--data-dir", str(data),
            "--out", str(out),
        ])
        assert rc == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "3x16x8" in err and "3x32x16" in err
        assert not out.exists()

    def test_single_direction(self, workspace, tmp_path, capsys):
        out = tmp_path / "eval"
        rc = main([
            "eval",
            "--config", str(workspace / "run" / "run_config.txt"),
            "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
            "--data-dir", str(workspace / "data"),
            "--out", str(out),
            "--direction", "v2i",
        ])
        assert rc == EXIT_OK
        assert (out / "eval_v2i.json").is_file()
        assert not (out / "eval_i2v.json").exists()

    def test_missing_checkpoint_flag(self, workspace, tmp_path, capsys):
        rc = main([
            "eval",
            "--config", str(workspace / "run" / "run_config.txt"),
            "--data-dir", str(workspace / "data"),
            "--out", str(tmp_path / "e"),
        ])
        assert rc == EXIT_CONFIG_ERROR

    def test_corrupt_checkpoint(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"not a checkpoint")
        rc = main([
            "eval",
            "--config", str(workspace / "run" / "run_config.txt"),
            "--checkpoint", str(bad),
            "--data-dir", str(workspace / "data"),
            "--out", str(tmp_path / "e"),
        ])
        assert rc == EXIT_IO_ERROR

    def _eval_with(self, workspace, tmp_path, blob: bytes) -> int:
        path = tmp_path / "edited.bin"
        path.write_bytes(blob)
        return main([
            "eval",
            "--config", str(workspace / "run" / "run_config.txt"),
            "--checkpoint", str(path),
            "--data-dir", str(workspace / "data"),
            "--out", str(tmp_path / "e"),
        ])

    def _stored_arrays(self, workspace):
        loaded = ckpt.load_raw(workspace / "run" / "checkpoint.bin")
        return loaded.config_text, dict(loaded.arrays)

    def test_oversized_record_dims(self, workspace, tmp_path, capsys):
        text, _ = self._stored_arrays(workspace)
        record = struct.pack("<I", 1) + b"w" + struct.pack("<BQQ", 2, 2**62, 2**62)
        blob = ckpt.serialize(text, {})[:-4] + struct.pack("<I", 1) + record
        assert self._eval_with(workspace, tmp_path, blob) == EXIT_IO_ERROR
        assert "Traceback" not in capsys.readouterr().err

    def _scalar_records(self, workspace, *names: bytes) -> bytes:
        """A checkpoint holding one 0-d record per raw name."""
        text, _ = self._stored_arrays(workspace)
        blob = ckpt.serialize(text, {})[:-4] + struct.pack("<I", len(names))
        for name in names:
            blob += struct.pack("<I", len(name)) + name + struct.pack("<Bd", 0, 1.0)
        return blob

    def test_undecodable_record_name(self, workspace, tmp_path, capsys):
        blob = self._scalar_records(workspace, b"\xff")
        assert self._eval_with(workspace, tmp_path, blob) == EXIT_IO_ERROR
        err = capsys.readouterr().err
        assert "undecodable record name" in err and "Traceback" not in err

    def test_duplicate_record_name(self, workspace, tmp_path, capsys):
        blob = self._scalar_records(workspace, b"w", b"w")
        assert self._eval_with(workspace, tmp_path, blob) == EXIT_IO_ERROR
        assert "duplicate record w" in capsys.readouterr().err

    def test_missing_bank_record(self, workspace, tmp_path, capsys):
        text, arrays = self._stored_arrays(workspace)
        del arrays["bank.iteration"]
        blob = ckpt.serialize(text, arrays)
        assert self._eval_with(workspace, tmp_path, blob) == EXIT_IO_ERROR
        assert "missing bank record bank.iteration" in capsys.readouterr().err

    def test_bank_width_mismatch(self, workspace, tmp_path, capsys):
        text, arrays = self._stored_arrays(workspace)
        protos = arrays["bank.protos_i"]
        arrays["bank.protos_i"] = np.zeros((protos.shape[0], protos.shape[1] + 1))
        blob = ckpt.serialize(text, arrays)
        assert self._eval_with(workspace, tmp_path, blob) == EXIT_IO_ERROR
        assert "bank.protos_i: stored shape" in capsys.readouterr().err

    def test_comments_only_manifest(self, workspace, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        (data / "manifest.csv").write_text("# fingerprint=abc\n")
        rc = main([
            "eval",
            "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
            "--data-dir", str(data),
            "--out", str(tmp_path / "e"),
        ])
        assert rc == EXIT_IO_ERROR
        assert "empty manifest" in capsys.readouterr().err

    def test_undecodable_manifest(self, workspace, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        manifest = data / "manifest.csv"
        manifest.write_bytes(manifest.read_bytes() + b"\xff\xfe\n")
        rc = main([
            "eval",
            "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
            "--data-dir", str(data),
            "--out", str(tmp_path / "e"),
        ])
        assert rc == EXIT_IO_ERROR
        err = capsys.readouterr().err
        assert "not UTF-8 text" in err and "Traceback" not in err

    def test_invalid_dataset_image(self, workspace, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        bad = data / "images" / "I" / "0003" / "001.ppm"  # a test image
        bad.write_text("garbage")
        rc = main([
            "eval",
            "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
            "--data-dir", str(data),
            "--out", str(tmp_path / "e"),
        ])
        assert rc == EXIT_IO_ERROR
        assert str(bad) in capsys.readouterr().err

    def test_odd_test_image(self, workspace, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        odd = data / "images" / "I" / "0003" / "001.ppm"  # a test image
        pnm.write_ppm(odd, np.zeros((32, 16, 3), np.uint8))
        out = tmp_path / "e"
        rc = main([
            "eval",
            "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
            "--data-dir", str(data),
            "--out", str(out),
        ])
        assert rc == EXIT_IO_ERROR
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert str(odd) in err and "32x16" in err and "16x8" in err
        assert not out.exists()

    def test_untrained_model_scores_chance_level(self, tmp_path, capsys):
        # a 12-identity set splits 8 train / 4 test, so random features
        # should land near rank1 = 1/4 on the test identities
        data = tmp_path / "data"
        run = tmp_path / "run"
        args = [
            "--n-identities", "12",
            "--images-per-identity-per-modality", "2",
            "--image-height", "16",
            "--image-width", "8",
            "--seed", "0",
        ]
        assert main(["gen-data", "--out", str(data)] + args) == EXIT_OK
        rc = main([
            "train", "--data-dir", str(data), "--out", str(run),
            "--epochs", "1", "--stage2-start", "1",
            "--ids-per-batch", "2", "--instances-per-modality", "1",
            "--base-lr", "1e-12", "--eval-every", "0",
        ] + args + TINY_NET)
        assert rc == EXIT_OK
        capsys.readouterr()
        rc = main([
            "eval",
            "--config", str(run / "run_config.txt"),
            "--checkpoint", str(run / "checkpoint.bin"),
            "--data-dir", str(data),
            "--out", str(tmp_path / "e"),
            "--direction", "v2i",
        ])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert abs(report["rank1"] - 0.25) <= 0.15


class TestGradcheck:
    def test_single_op_passes(self, capsys):
        rc = main(["gradcheck", "--only", "relu", "--configs", "2"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "relu" in out and "PASS" in out

    def test_unknown_name(self, capsys):
        rc = main(["gradcheck", "--only", "no_such_op"])
        assert rc == EXIT_CONFIG_ERROR
        assert "unknown check" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, match", [
        (["--seed", "abc"], "seed"),
        (["--seed", "-1"], "seed"),
        (["--configs", "0"], "configs"),
        (["--configs", "-3"], "configs"),
        (["--step", "0"], "step"),
        (["--tol", "nan"], "tol"),
    ])
    def test_unusable_flag_is_config_error(self, capsys, flags, match):
        rc = main(["gradcheck", "--only", "relu"] + flags)
        captured = capsys.readouterr()
        assert rc == EXIT_CONFIG_ERROR
        assert match in captured.err
        assert "Traceback" not in captured.err
        assert "PASS" not in captured.out

    def test_config_file_seed_is_honoured(self, tmp_path, capsys):
        config = tmp_path / "gc.txt"
        config.write_text("seed = 3\n")
        rc = main(["gradcheck", "--only", "linear", "--configs", "1", "--config", str(config)])
        assert rc == EXIT_OK
        table = capsys.readouterr().out.strip()
        assert table == checksuite.run_all(["linear"], configs=1, seed=3).format_table()
        assert table != checksuite.run_all(["linear"], configs=1, seed=0).format_table()


#: sha256 of the masks ``TestDumpAttention`` writes for the module's tiny
#: run, taken while the sample was still read as a float64 batch: reading it
#: as uint8 pixels changed no byte.
DUMP_ATTENTION_SHA256 = {
    "m_c.pgm": "c66fe740f17663bca46ffc3c115f798042056f537ef537cd00b186490b431ba5",
    "m_id.pgm": "e35ad507e3abb0141b5ca42b28946c9d41025249820e4cf3b2ac9db3595c3011",
}


class TestDumpAttention:
    def test_writes_masks(self, workspace, tmp_path, capsys):
        sample = workspace / "data" / "images" / "V" / "0000" / "000.ppm"
        out = tmp_path / "attn"
        rc = main([
            "dump-attention",
            "--config", str(workspace / "run" / "run_config.txt"),
            "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
            "--out", str(out),
            "--sample", str(sample),
        ])
        assert rc == EXIT_OK
        clothing = pnm.decode_pgm((out / "m_c.pgm").read_bytes())
        identity = pnm.decode_pgm((out / "m_id.pgm").read_bytes())
        assert clothing.shape == identity.shape
        assert clothing.dtype == np.uint8
        assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in DUMP_ATTENTION_SHA256} == DUMP_ATTENTION_SHA256

    def test_requires_dual_branch_checkpoint(self, workspace, tmp_path, capsys):
        data = workspace / "data"
        run = tmp_path / "base_run"
        rc = main([
            "train", "--data-dir", str(data), "--out", str(run),
            "--ablation", "base",
        ] + TINY_TRAIN)
        assert rc == EXIT_OK
        rc = main([
            "dump-attention",
            "--config", str(run / "run_config.txt"),
            "--checkpoint", str(run / "checkpoint.bin"),
            "--out", str(tmp_path / "attn"),
            "--sample", str(data / "images" / "V" / "0000" / "000.ppm"),
        ])
        assert rc == EXIT_CONFIG_ERROR

    def test_missing_sample(self, workspace, tmp_path, capsys):
        rc = main([
            "dump-attention",
            "--config", str(workspace / "run" / "run_config.txt"),
            "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
            "--out", str(tmp_path / "attn"),
            "--sample", str(tmp_path / "missing.ppm"),
        ])
        assert rc == EXIT_IO_ERROR

    def test_empty_sample_names_its_file(self, workspace, tmp_path, capsys):
        sample = tmp_path / "empty.ppm"
        sample.write_bytes(b"")
        rc = main([
            "dump-attention",
            "--config", str(workspace / "run" / "run_config.txt"),
            "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
            "--out", str(tmp_path / "attn"),
            "--sample", str(sample),
        ])
        assert rc == EXIT_IO_ERROR
        err = capsys.readouterr().err
        assert str(sample) in err and "expected P6 file" in err
        assert not (tmp_path / "attn").exists()

    def test_wrong_size_sample(self, workspace, tmp_path, capsys):
        sample = tmp_path / "small.ppm"
        pnm.write_ppm(sample, np.zeros((10, 10, 3), dtype=np.uint8))
        rc = main([
            "dump-attention",
            "--config", str(workspace / "run" / "run_config.txt"),
            "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
            "--out", str(tmp_path / "attn"),
            "--sample", str(sample),
        ])
        assert rc == EXIT_IO_ERROR
        assert "sample does not fit the model" in capsys.readouterr().err
        assert not (tmp_path / "attn").exists()


class TestConfigPrecedence:
    def test_cli_beats_file(self, tmp_path, capsys):
        config = tmp_path / "cfg.txt"
        config.write_text("n_identities = 6\nseed = 1\n")
        rc = main([
            "gen-data", "--config", str(config), "--out", str(tmp_path / "d"),
            "--n-identities", "4",
            "--images-per-identity-per-modality", "2",
            "--image-height", "16", "--image-width", "8",
        ])
        assert rc == EXIT_OK
        resolved = (tmp_path / "d" / "run_config.txt").read_text()
        assert "n_identities = 4\n" in resolved
        assert "seed = 1\n" in resolved

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["gen-data", "--config", str(tmp_path / "nope.txt"),
                   "--out", str(tmp_path / "d")])
        assert rc == EXIT_IO_ERROR

    def test_config_file_syntax_error(self, tmp_path, capsys):
        config = tmp_path / "cfg.txt"
        config.write_text("this is not a pair\n")
        rc = main(["gen-data", "--config", str(config), "--out", str(tmp_path / "d")])
        assert rc == EXIT_CONFIG_ERROR

    def test_undecodable_config_file(self, tmp_path, capsys):
        config = tmp_path / "cfg.txt"
        config.write_bytes(b"seed = 1\n\xff\xfe\n")
        rc = main(["gen-data", "--config", str(config), "--out", str(tmp_path / "d")])
        assert rc == EXIT_CONFIG_ERROR
        assert "not UTF-8 text" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_removed_embedding_head_options_are_refused(self, workspace, tmp_path,
                                                         capsys):
        # a run_config.txt written while pooling_mode and use_final_bn existed
        text = (workspace / "run" / "run_config.txt").read_text()
        old = text.replace(
            "use_dbdl = ", "pooling_mode = gap_gmp\nuse_final_bn = true\nuse_dbdl = ")
        assert old != text
        config = tmp_path / "old.txt"
        config.write_text(old)
        rc = main(["train", "--config", str(config), "--out", str(tmp_path / "r")])
        assert rc == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "unknown configuration key 'pooling_mode'" in err
        assert not (tmp_path / "r").exists()
        sub = next(action for action in cli._build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        for name in sub.choices:
            with pytest.raises(SystemExit) as stopped:
                main([name, "--help"])
            assert stopped.value.code == 0
            usage = capsys.readouterr().out
            assert "--use-dbdl" in usage, name
            assert "--pooling-mode" not in usage and "--use-final-bn" not in usage, name


#: Typed errors that only a bug can raise, so no exit code covers them.
PROGRAMMING_ERRORS = (
    dc.TapeError,
    dc.InvalidAttributeError,
    dc.NonDeterministicClosureError,
    bpl.UninitializedPrototypeError,
    dc.DiffcoreError,
)


def _package_exceptions() -> set[type]:
    """Every ``Exception`` subclass defined in a ``piareid`` module."""
    found = set()
    for info in pkgutil.walk_packages(piareid.__path__, "piareid."):
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if (isinstance(value, type) and issubclass(value, Exception)
                    and value.__module__ == module.__name__):
                found.add(value)
    return found


class TestExitCodeTable:
    def test_every_typed_error_has_one_exit_code_or_is_a_bug(self):
        found = _package_exceptions()
        assert set(PROGRAMMING_ERRORS) <= found
        for kind in found:
            codes = {code for entry, code in cli._EXIT_CODES.items()
                     if issubclass(kind, entry)}
            if kind in PROGRAMMING_ERRORS:
                assert not codes, kind
            else:
                assert len(codes) == 1, kind

    def test_docstring_names_every_table_entry(self):
        for kind in cli._EXIT_CODES:
            assert f"``{kind.__name__}``" in cli.__doc__, kind
