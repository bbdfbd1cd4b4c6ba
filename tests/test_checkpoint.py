"""Checkpoint container: byte-exact round trips and corruption detection."""

from __future__ import annotations

import dataclasses
import struct

import numpy as np
import pytest

from piareid import bpl, checkpoint, model
from piareid.checkpoint import (
    CheckpointError,
    collect_arrays,
    deserialize,
    load_raw,
    restore,
    save,
    serialize,
)

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


def small_state(seed=0):
    state = model.build_model(SMALL)
    rng = np.random.default_rng(seed)
    for tens in state.named_parameters().values():
        tens.data = rng.normal(size=tens.data.shape)
    return state


def small_bank(seed=1):
    rng = np.random.default_rng(seed)
    bank = bpl.PrototypeBank.create(3, SMALL.embedding_dim, alpha=0.9)
    bank.protos_v[:] = rng.normal(size=bank.protos_v.shape)
    bank.protos_i[:] = rng.normal(size=bank.protos_i.shape)
    bank.initialized_v[:] = [True, False, True]
    bank.initialized_i[:] = True
    bank.iteration = 17
    return bank


class TestSerializeDeserialize:
    def test_round_trip_preserves_values_and_shapes(self):
        arrays = {
            "w": np.arange(12.0).reshape(3, 4),
            "b": np.array([1.5, -2.5]),
            "scalar": np.array(0.25),
        }
        loaded = deserialize(serialize("k = v\n", arrays))
        assert loaded.config_text == "k = v\n"
        assert set(loaded.arrays) == set(arrays)
        for name, value in arrays.items():
            assert loaded.arrays[name].shape == value.shape
            assert np.array_equal(loaded.arrays[name], value)

    def test_zero_dim_arrays_stay_zero_dim(self):
        # a 0-d record must not come back as shape (1,)
        loaded = deserialize(serialize("", {"s": np.array(0.5)}))
        assert loaded.arrays["s"].shape == ()
        assert float(loaded.arrays["s"]) == 0.5

    def test_non_contiguous_input_round_trips(self):
        matrix = np.arange(12.0).reshape(3, 4).T
        loaded = deserialize(serialize("", {"m": matrix}))
        assert np.array_equal(loaded.arrays["m"], matrix)

    def test_equal_inputs_equal_bytes(self):
        arrays = {"a": np.ones((2, 2)), "s": np.array(3.0)}
        assert serialize("x = 1\n", arrays) == serialize("x = 1\n", dict(arrays))

    def test_bad_magic_rejected(self):
        with pytest.raises(CheckpointError, match="magic"):
            deserialize(b"NOTACKPT" + b"\x00" * 32)

    def test_truncation_rejected(self):
        blob = serialize("k = v\n", {"w": np.ones(4)})
        with pytest.raises(CheckpointError):
            deserialize(blob[:-3])

    def test_trailing_garbage_rejected(self):
        blob = serialize("k = v\n", {"w": np.ones(4)})
        with pytest.raises(CheckpointError, match="trailing"):
            deserialize(blob + b"\x00")

    def test_corrupted_config_rejected(self):
        blob = bytearray(serialize("key = value\n", {"w": np.ones(2)}))
        offset = blob.index(b"value")
        blob[offset] ^= 0x01  # still ASCII, so the fingerprint check must catch it
        with pytest.raises(CheckpointError, match="fingerprint"):
            deserialize(bytes(blob))

    def test_undecodable_config_rejected(self):
        blob = bytearray(serialize("key = value\n", {"w": np.ones(2)}))
        offset = blob.index(b"value")
        blob[offset] ^= 0xFF  # invalid UTF-8
        with pytest.raises(CheckpointError, match="undecodable"):
            deserialize(bytes(blob))


def _record(name: str, dims: tuple[int, ...]) -> bytes:
    """A tensor record header with the given dims and no data."""
    name_b = name.encode("utf-8")
    return (struct.pack("<I", len(name_b)) + name_b + struct.pack("<B", len(dims))
            + struct.pack(f"<{len(dims)}Q", *dims))


def with_records(*records: bytes) -> bytes:
    """A checkpoint whose tensor section is exactly ``records``."""
    return serialize("", {})[:-4] + struct.pack("<I", len(records)) + b"".join(records)


class TestRecordShapes:
    @pytest.mark.parametrize("dims", [(2**62, 2**62), (0, 2**63), (2**64 - 1,)])
    def test_oversized_dims_rejected(self, dims):
        with pytest.raises(CheckpointError):
            deserialize(with_records(_record("w", dims)))

    def test_valid_record_still_reads(self):
        blob = with_records(_record("w", (2, 1)) + np.array([1.0, 2.0]).astype("<f8").tobytes())
        assert np.array_equal(deserialize(blob).arrays["w"], [[1.0], [2.0]])


class TestSaveRestore:
    def test_full_round_trip_bit_exact(self, tmp_path):
        state = small_state()
        bank = small_bank()
        config_text = model.model_config_text(SMALL)
        path = tmp_path / "ckpt.bin"
        save(path, state, bank, config_text)

        loaded = load_raw(path)
        assert loaded.config_text == config_text
        restored, restored_bank = restore(loaded, SMALL)

        for name, tens in state.named_parameters().items():
            assert np.array_equal(restored.named_parameters()[name].data, tens.data)
        for name, buf in state.named_buffers().items():
            assert np.array_equal(restored.named_buffers()[name], buf)
        assert restored_bank is not None
        assert np.array_equal(restored_bank.protos_v, bank.protos_v)
        assert np.array_equal(restored_bank.protos_i, bank.protos_i)
        assert np.array_equal(restored_bank.initialized_v, bank.initialized_v)
        assert np.array_equal(restored_bank.initialized_i, bank.initialized_i)
        assert restored_bank.alpha == bank.alpha
        assert restored_bank.iteration == bank.iteration

    def test_save_twice_identical_bytes(self, tmp_path):
        state = small_state()
        bank = small_bank()
        text = model.model_config_text(SMALL)
        save(tmp_path / "a.bin", state, bank, text)
        save(tmp_path / "b.bin", state, bank, text)
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_without_bank(self, tmp_path):
        state = small_state()
        save(tmp_path / "c.bin", state, None, model.model_config_text(SMALL))
        restored, restored_bank = restore(load_raw(tmp_path / "c.bin"), SMALL)
        assert restored_bank is None
        for name, tens in state.named_parameters().items():
            assert np.array_equal(restored.named_parameters()[name].data, tens.data)

    def test_scalar_parameters_restore(self, tmp_path):
        # the attention gate weight is stored 0-d and must restore as 0-d
        state = small_state()
        state.named_parameters()["attention.lambda_raw"].data = np.array(0.75)
        save(tmp_path / "d.bin", state, None, model.model_config_text(SMALL))
        restored, _ = restore(load_raw(tmp_path / "d.bin"), SMALL)
        value = restored.named_parameters()["attention.lambda_raw"].data
        assert value.shape == ()
        assert float(value) == 0.75

    def test_missing_parameter_rejected(self):
        arrays = collect_arrays(small_state(), None)
        arrays.pop("attention.lambda_raw")
        loaded = deserialize(serialize("", arrays))
        with pytest.raises(CheckpointError, match="missing parameter"):
            restore(loaded, SMALL)

    def test_shape_mismatch_rejected(self):
        arrays = collect_arrays(small_state(), None)
        arrays["heads.id.bias"] = np.zeros(99)
        loaded = deserialize(serialize("", arrays))
        with pytest.raises(CheckpointError, match="shape"):
            restore(loaded, SMALL)

    def test_missing_bank_record_rejected(self):
        arrays = collect_arrays(small_state(), small_bank())
        arrays.pop("bank.alpha")
        with pytest.raises(CheckpointError, match="missing bank record bank.alpha"):
            restore(deserialize(serialize("", arrays)), SMALL)

    def test_bank_width_mismatch_rejected(self):
        arrays = collect_arrays(small_state(), small_bank())
        arrays["bank.protos_v"] = np.zeros((3, SMALL.embedding_dim + 1))
        with pytest.raises(CheckpointError, match="bank.protos_v: stored shape"):
            restore(deserialize(serialize("", arrays)), SMALL)

    @pytest.mark.parametrize("kind, name, bad", [
        pytest.param(kind, name, bad, id=name) for kind, name, bad in (
            ("parameter", "backbone.conv0.weight", np.nan),
            ("parameter", "attention.lambda_raw", np.inf),
            ("buffer", "bn_identity.running_var", -np.inf),
            ("bank record", "bank.protos_i", np.nan),
            ("bank record", "bank.alpha", np.inf),
        )
    ])
    def test_non_finite_record_rejected(self, kind, name, bad):
        arrays = collect_arrays(small_state(), small_bank())
        arrays[name] = arrays[name].copy()
        arrays[name].flat[:2] = bad
        with pytest.raises(CheckpointError,
                           match=f"{kind} {name}: {min(2, arrays[name].size)} non-finite"):
            restore(deserialize(serialize("", arrays)), SMALL)

    @pytest.mark.parametrize("field, value, name", [
        ("num_identities", 10**15, "heads.id.weight"),
        ("num_clothing_classes", 10**7, "heads.clothing.weight"),
        ("widths", (4, 10**7, 4), "backbone.conv1.weight"),
        ("kernel_size", 10**5 + 1, "backbone.conv0.weight"),
        ("attention_kernel_size", 10**5 + 1, "attention.weight"),
    ])
    def test_sizes_are_checked_before_the_model_is_built(self, monkeypatch,
                                                         field, value, name):
        # the fingerprint only hashes the config block, so a rewritten block
        # can claim any size; building that model could take gigabytes
        def refuse(cfg):
            raise AssertionError("build_model ran before the size check")

        loaded = deserialize(serialize("", collect_arrays(small_state(), small_bank())))
        monkeypatch.setattr(model, "build_model", refuse)
        with pytest.raises(CheckpointError, match=f"parameter {name}: stored shape"):
            restore(loaded, dataclasses.replace(SMALL, **{field: value}))

    @pytest.mark.parametrize("changes, message", [
        ({"attention_kernel_size": 10**5 + 1}, "attention kernel size 100001 exceeds 31, "),
        ({"attention_kernel_size": 10**5 + 1, "image_height": 10**9},
         "image side 1000000000 exceeds 1024"),
    ])
    def test_single_branch_attention_kernel_is_bounded_before_the_model_is_built(
            self, monkeypatch, changes, message):
        # no record of a single-branch checkpoint holds the attention weights,
        # which build_model draws all the same
        def refuse(cfg):
            raise AssertionError("build_model ran before the size check")

        loaded = deserialize(serialize("", collect_arrays(small_state(), None)))
        monkeypatch.setattr(model, "build_model", refuse)
        with pytest.raises(CheckpointError, match=message):
            restore(loaded, dataclasses.replace(SMALL, use_dbdl=False, **changes))

    @pytest.mark.parametrize("changes, extra, name", [
        ({"use_dbdl": False}, None, "attention.weight"),
        ({"widths": (4,), "strides": (1,)}, None, "backbone.conv1.weight"),
        ({}, "bank.extra", "bank.extra"),
        ({}, "backbone.conv3.weight", "backbone.conv3.weight"),
    ])
    def test_records_the_model_and_bank_do_not_name_are_refused(self, changes, extra, name):
        # a rewritten config block could otherwise restore a smaller model
        # and drop the records it does not name without a word
        arrays = collect_arrays(small_state(), small_bank())
        if extra is not None:
            arrays[extra] = np.zeros(2)
        loaded = deserialize(serialize("", arrays))
        with pytest.raises(CheckpointError, match=f"record {name} is named by neither"):
            restore(loaded, dataclasses.replace(SMALL, **changes))

    def test_restore_copies_do_not_alias(self):
        state = small_state()
        loaded = deserialize(serialize("", collect_arrays(state, None)))
        restored, _ = restore(loaded, SMALL)
        before = restored.named_parameters()["heads.id.bias"].data.copy()
        loaded.arrays["heads.id.bias"][:] = 123.0
        assert np.array_equal(
            restored.named_parameters()["heads.id.bias"].data, before
        )


class TestConfigTextRoundTrip:
    def test_model_rebuilds_from_stored_text(self, tmp_path):
        state = small_state()
        text = model.model_config_text(SMALL)
        save(tmp_path / "e.bin", state, None, text)
        loaded = load_raw(tmp_path / "e.bin")
        rebuilt_cfg = model.parse_model_config_text(loaded.config_text)
        assert rebuilt_cfg == SMALL
        restored, _ = restore(loaded, rebuilt_cfg)
        assert set(restored.named_parameters()) == set(state.named_parameters())

    def test_config_block_golden_bytes(self):
        # the header bytes of a default-model checkpoint; any change to the
        # config block's format changes these and needs a new MAGIC
        text = (
            "image_height = 64\nimage_width = 32\nwidths = 16,32,32\n"
            "strides = 4,2,1\nkernel_size = 3\nattention_kernel_size = 7\n"
            "use_dbdl = true\n"
            "num_identities = 8\nnum_clothing_classes = 16\nseed = 0\n"
        )
        fingerprint = b"4530e7470362368faf729fc9ffb8b8a7f4da8262cf73fc2dc543e4748d4cb0d7"
        expected = (b"PIACKPT2" + struct.pack("<I", 181) + text.encode("ascii")
                    + struct.pack("<I", 64) + fingerprint + struct.pack("<I", 0))
        assert model.model_config_text(model.ModelConfig()) == text
        assert serialize(model.model_config_text(model.ModelConfig()), {}) == expected
