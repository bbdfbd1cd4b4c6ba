"""Readers of outside input, fuzzed: every input either parses or raises the
reading module's own error, never another exception."""

from __future__ import annotations

import dataclasses
import struct
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from piareid import checkpoint, kvconfig, model, pnm, synthbench

FUZZ = settings(max_examples=200, deadline=None)


def parsed_or_none(error: type[Exception], call, *args):
    """``call(*args)``, or None when it raises ``error``; anything else escapes."""
    try:
        return call(*args)
    except error:
        return None


# ---------------------------------------------------------------------------
# pnm

_HEADER_TOKEN = st.one_of(
    st.sampled_from([b" ", b"\n", b"\t", b"#", b"# note\n", b"255", b"0", b"-1", b"x"]),
    st.integers(0, 70).map(lambda v: str(v).encode()),
    st.binary(max_size=4),
)


@st.composite
def pnm_bytes(draw):
    magic = draw(st.sampled_from([b"P5", b"P6", b"P3", b""]))
    header = b"".join(draw(st.lists(_HEADER_TOKEN, max_size=10)))
    return magic + header + draw(st.binary(max_size=64))


class TestPnm:
    @given(st.one_of(pnm_bytes(), st.binary(max_size=64)))
    @example(b"P5\n2 1\n255\n\x00\x01")
    @example(b"P6 " + b"9" * 5000 + b" 1 255\n")
    @example(b"P5 1 1 255")
    @FUZZ
    def test_decode_parses_or_raises_pnm_error(self, data):
        for decode, channels in ((pnm.decode_pgm, 1), (pnm.decode_ppm, 3)):
            pixels = parsed_or_none(pnm.PnmError, decode, data)
            if pixels is not None:
                assert pixels.dtype == np.uint8
                assert pixels.ndim == (2 if channels == 1 else 3)


# ---------------------------------------------------------------------------
# checkpoint

_VALID_BLOB = checkpoint.serialize(
    "embedding_dim = 4\n",
    {"w": np.arange(6.0).reshape(2, 3), "b": np.zeros(2), "s": np.asarray(1.5)},
)


@st.composite
def mutated_checkpoints(draw):
    blob = bytearray(_VALID_BLOB)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(blob)))
        action = draw(st.sampled_from(["flip", "cut", "insert"]))
        if action == "flip" and pos < len(blob):
            blob[pos] = draw(st.integers(0, 255))
        elif action == "cut":
            del blob[pos : pos + draw(st.integers(1, 16))]
        else:
            blob[pos:pos] = draw(st.binary(min_size=1, max_size=8))
    return bytes(blob)


def _with_records(*names: bytes) -> bytes:
    """A header of ``_VALID_BLOB`` followed by one 0-d record per raw name."""
    head = checkpoint.serialize("embedding_dim = 4\n", {})[:-4]
    blob = head + struct.pack("<I", len(names))
    for name in names:
        blob += struct.pack("<I", len(name)) + name + struct.pack("<Bd", 0, 1.0)
    return blob


_SMALL_MODEL = model.ModelConfig(
    image_height=16, image_width=8, widths=(4, 4), strides=(2, 1),
    attention_kernel_size=3, num_identities=3, num_clothing_classes=4,
)
_SMALL_ARRAYS = checkpoint.collect_arrays(model.build_model(_SMALL_MODEL), None)
# small sizes, or sizes that no allocation survives: a size between them
# would allocate gigabytes in a build that the size check fails to stop
_SIZE = st.one_of(st.integers(-1, 9), st.sampled_from([10**15, 2**63, 10**30]))


def _resized(**sizes) -> bytes:
    """The small model's records under a config block with ``sizes``."""
    cfg = dataclasses.replace(_SMALL_MODEL, **sizes)
    return checkpoint.serialize(model.model_config_text(cfg), _SMALL_ARRAYS)


@st.composite
def resized_config_blocks(draw):
    sizes = {
        "widths": tuple(draw(st.lists(_SIZE, min_size=1, max_size=3))),
        "kernel_size": draw(_SIZE),
        "attention_kernel_size": draw(_SIZE),
        "num_identities": draw(_SIZE),
        "num_clothing_classes": draw(_SIZE),
        "use_dbdl": draw(st.booleans()),
    }
    for name in draw(st.sets(st.sampled_from(sorted(sizes)), max_size=4)):
        del sizes[name]
    return _resized(**sizes)


class TestCheckpoint:
    @given(st.one_of(
        mutated_checkpoints(),
        st.binary(max_size=48).map(lambda tail: checkpoint.MAGIC + tail),
    ))
    @example(_with_records(b"\xff\xfe"))
    @example(_with_records(b"w", b"w"))
    @example(_with_records(b"w")[:-9] + struct.pack("<B2Q", 2, 0, 2**64 - 1))
    @FUZZ
    def test_deserialize_parses_or_raises_checkpoint_error(self, blob):
        loaded = parsed_or_none(checkpoint.CheckpointError, checkpoint.deserialize, blob)
        if loaded is not None:
            assert checkpoint.deserialize(checkpoint.serialize(
                loaded.config_text, loaded.arrays)).arrays.keys() == loaded.arrays.keys()

    @given(resized_config_blocks())
    @example(_resized())
    @example(_resized(num_identities=10**15))
    @example(_resized(widths=(4,)))
    @example(_resized(use_dbdl=False, attention_kernel_size=10**5 + 1))
    @FUZZ
    def test_restore_builds_only_the_model_the_records_hold(self, blob):
        loaded = checkpoint.deserialize(blob)
        cfg = model.parse_model_config_text(loaded.config_text)
        # CheckpointError for sizes the records lack; EncoderConfigError (also
        # a ValueError) for an architecture that fits the records but not itself
        restored = parsed_or_none(ValueError, checkpoint.restore, loaded, cfg)
        if restored is not None:
            if not cfg.use_dbdl:
                # no record holds the attention weights or the clothing head;
                # 31 = 2 * 16 - 1, the widest kernel for the small model's image
                assert cfg.attention_kernel_size <= 31
                cfg = dataclasses.replace(cfg, use_dbdl=True, attention_kernel_size=3,
                                          num_clothing_classes=4)
            assert cfg == _SMALL_MODEL


# ---------------------------------------------------------------------------
# manifest

_IMAGE = "images/V/0000/000.ppm"
_FIELD = st.one_of(
    st.sampled_from(["path", "identity", "clothing", "modality", "split", _IMAGE,
                     "0", "1", "-1", "V", "I", "train", "test", "missing.ppm"]),
    st.text(max_size=6),
)
_LINE = st.one_of(
    st.lists(_FIELD, min_size=1, max_size=6).map(",".join),
    st.sampled_from(["", "# fingerprint=abc", ",".join(synthbench.MANIFEST_HEADER),
                     f'"{_IMAGE}",0,0,V,train', f"{_IMAGE},0,0,I,test", '"unterminated']),
)


@st.composite
def manifest_bytes(draw):
    lines = draw(st.lists(_LINE, max_size=6))
    if draw(st.booleans()):
        lines.insert(0, ",".join(synthbench.MANIFEST_HEADER))
    data = "\n".join(lines).encode("utf-8")
    if draw(st.booleans()):
        pos = draw(st.integers(0, len(data)))
        data = data[:pos] + draw(st.binary(min_size=1, max_size=3)) + data[pos:]
    return data


class TestManifest:
    @given(manifest_bytes())
    @example(b"path,identity,clothing,modality,split\n\xff\n")
    @example(b"path,identity,clothing,modality,split\n" + b"x" * 200_000 + b",0,0,V,train\n")
    @example(("path,identity,clothing,modality,split\n"
              f"{_IMAGE},0,0,V,train\n{_IMAGE},0,0,I,test\n").encode())
    @FUZZ
    def test_load_parses_or_raises_manifest_error(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / _IMAGE).parent.mkdir(parents=True)
            (root / _IMAGE).write_bytes(b"")
            (root / synthbench.MANIFEST_NAME).write_bytes(data)
            manifest = parsed_or_none(synthbench.ManifestError, synthbench.load_manifest, root)
            if manifest is not None:
                assert manifest.rows


# ---------------------------------------------------------------------------
# kvconfig


class TestKvconfig:
    @given(st.one_of(
        st.text(max_size=80),
        st.lists(st.sampled_from(["seed = 1", "seed=2", "a = b # c", "= x", "novalue",
                                  "# only", "", "  k  =  v  ", "x = y = z"]),
                 max_size=6).map("\n".join),
    ))
    @FUZZ
    def test_parse_pairs_parses_or_raises_config_error(self, text):
        pairs = parsed_or_none(kvconfig.ConfigError, kvconfig.parse_pairs, text)
        if pairs is not None:
            for key, value in pairs.items():
                assert key and key == key.strip() and "#" not in key + value
