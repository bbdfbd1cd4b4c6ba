"""Binary checkpoint container.

Layout (all integers little-endian):

    magic      8 bytes  b"PIACKPT2"
    config     u32 byte length, then that many UTF-8 bytes: the
               ``model.ModelConfig`` as ``kvconfig`` text, one
               ``name = value`` line per field in declaration order
               (``model.model_config_text``); reading it back requires
               every field and rejects unknown keys
    fingerprint u32 length + hex sha256 of the config block
    count      u32 number of tensor records
    record     u32 name length + UTF-8 name bytes, unique per file
               u8 ndim, then ndim u64 dims
               float64 little-endian C-order data

Tensor records cover model parameters, batch-norm running buffers, and the
prototype bank (prototypes, init flags as 0/1, alpha, iteration).  Equal
states serialize to equal bytes.  A malformed file raises ``CheckpointError``;
so does a record that is missing, that the configured model and bank do not
name, whose shape differs from what they expect, or that holds a non-finite
value.  The fingerprint only guards the config block against corruption, so
``restore`` checks the records whose size the block sets
(``model.ModelConfig.weight_shapes``) before it builds the model: a block
claiming a huge model is refused without allocating it.  The model draws its
attention weights even without the dual branch, whose checkpoint stores no
record of them, so ``restore`` also bounds the image sides and, by them, the
attention kernel (``model.ModelConfig.validate``).
"""

from __future__ import annotations

import hashlib
import math
import struct
from pathlib import Path

import numpy as np

from . import bpl, fileio, model, synthbench

MAGIC = b"PIACKPT2"


class CheckpointError(ValueError):
    """Raised on malformed checkpoint files."""


def _pack_blob(payload: bytes) -> bytes:
    return struct.pack("<I", len(payload)) + payload


def _tensor_record(name: str, array: np.ndarray) -> bytes:
    data = np.asarray(array, dtype=np.float64)
    if data.ndim:
        # ascontiguousarray would silently promote 0-d arrays to shape (1,)
        data = np.ascontiguousarray(data)
    name_b = name.encode("utf-8")
    head = _pack_blob(name_b) + struct.pack("<B", data.ndim)
    head += struct.pack(f"<{data.ndim}Q", *data.shape) if data.ndim else b""
    return head + data.astype("<f8").tobytes()


def collect_arrays(state: model.ModelState, bank: bpl.PrototypeBank | None) -> dict[str, np.ndarray]:
    arrays: dict[str, np.ndarray] = {}
    for name, tens in state.named_parameters().items():
        arrays[name] = tens.data
    for name, buf in state.named_buffers().items():
        arrays[name] = buf
    if bank is not None:
        arrays.update(_bank_arrays(bank))
    return arrays


def _bank_arrays(bank: bpl.PrototypeBank) -> dict[str, np.ndarray]:
    return {
        "bank.protos_v": bank.protos_v,
        "bank.protos_i": bank.protos_i,
        "bank.initialized_v": bank.initialized_v.astype(np.float64),
        "bank.initialized_i": bank.initialized_i.astype(np.float64),
        "bank.alpha": np.asarray(bank.alpha),
        "bank.iteration": np.asarray(float(bank.iteration)),
    }


def serialize(config_text: str, arrays: dict[str, np.ndarray]) -> bytes:
    config_b = config_text.encode("utf-8")
    fingerprint = hashlib.sha256(config_b).hexdigest().encode("ascii")
    out = [MAGIC, _pack_blob(config_b), _pack_blob(fingerprint),
           struct.pack("<I", len(arrays))]
    for name, array in arrays.items():
        out.append(_tensor_record(name, array))
    return b"".join(out)


def save(path, state: model.ModelState, bank: bpl.PrototypeBank | None,
         config_text: str) -> None:
    """Write the container atomically (``fileio.write_atomic``)."""
    fileio.write_atomic(path, serialize(config_text, collect_arrays(state, bank)))


class LoadedCheckpoint:
    def __init__(self, config_text: str, fingerprint: str,
                 arrays: dict[str, np.ndarray]):
        self.config_text = config_text
        self.fingerprint = fingerprint
        self.arrays = arrays


def deserialize(blob: bytes) -> LoadedCheckpoint:
    if not blob.startswith(MAGIC):
        raise CheckpointError("bad magic; not a checkpoint file")
    view = memoryview(blob)
    pos = len(MAGIC)

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(view):
            raise CheckpointError("truncated checkpoint")
        chunk = view[pos : pos + n]
        pos += n
        return chunk

    def take_blob() -> bytes:
        (length,) = struct.unpack("<I", take(4))
        return bytes(take(length))

    try:
        config_text = take_blob().decode("utf-8")
        fingerprint = take_blob().decode("ascii")
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"undecodable header text: {exc}") from exc
    expect = hashlib.sha256(config_text.encode("utf-8")).hexdigest()
    if fingerprint != expect:
        raise CheckpointError("config fingerprint mismatch; file corrupted")
    (count,) = struct.unpack("<I", take(4))
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        try:
            name = take_blob().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"undecodable record name: {exc}") from exc
        if name in arrays:
            raise CheckpointError(f"duplicate record {name}")
        (ndim,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{ndim}Q", take(8 * ndim)) if ndim else ()
        # math.prod: numpy's product of u64 dims wraps around silently
        chunk = take(8 * math.prod(shape))
        try:
            arrays[name] = np.frombuffer(chunk, dtype="<f8").reshape(shape).copy()
        except ValueError:
            raise CheckpointError(f"record {name}: unusable shape {shape}") from None
    if pos != len(view):
        raise CheckpointError(f"{len(view) - pos} trailing bytes after records")
    return LoadedCheckpoint(config_text, fingerprint, arrays)


def load_raw(path) -> LoadedCheckpoint:
    return deserialize(Path(path).read_bytes())


def _record(loaded: LoadedCheckpoint, kind: str, name: str, shape: tuple) -> np.ndarray:
    """Record ``name``, which must exist and have ``shape``."""
    if name not in loaded.arrays:
        raise CheckpointError(f"checkpoint missing {kind} {name}")
    stored = loaded.arrays[name]
    if stored.shape != shape:
        raise CheckpointError(f"{kind} {name}: stored shape {stored.shape} != model {shape}")
    return stored


def _stored(loaded: LoadedCheckpoint, kind: str, name: str, like: np.ndarray) -> np.ndarray:
    """A copy of record ``name``, which must have the shape of ``like`` and
    hold only finite values."""
    stored = _record(loaded, kind, name, like.shape)
    bad = stored.size - np.count_nonzero(np.isfinite(stored))
    if bad:
        raise CheckpointError(f"{kind} {name}: {bad} non-finite of {stored.size} values")
    return stored.copy()


def restore(loaded: LoadedCheckpoint, cfg: model.ModelConfig) -> tuple[model.ModelState, bpl.PrototypeBank | None]:
    """Rebuild a model (and bank, if present) from loaded arrays."""
    for name, shape in cfg.weight_shapes().items():
        if cfg.use_dbdl or name != "attention.weight":
            _record(loaded, "parameter", name, shape)
    side = max(cfg.image_height, cfg.image_width)
    if side > synthbench.MAX_IMAGE_SIDE:
        raise CheckpointError(f"image side {side} exceeds {synthbench.MAX_IMAGE_SIDE}")
    try:
        cfg.validate()
    except ValueError as exc:
        raise CheckpointError(str(exc)) from None
    state = model.build_model(cfg)
    bank_like = {}
    if any(name.startswith("bank.") for name in loaded.arrays):
        bank_like = _bank_arrays(bpl.PrototypeBank.create(cfg.num_identities, cfg.embedding_dim))
    named = {*state.named_parameters(), *state.named_buffers(), *bank_like}
    for name in loaded.arrays:
        if name not in named:
            raise CheckpointError(f"record {name} is named by neither the model nor the bank")
    for name, tens in state.named_parameters().items():
        tens.data = _stored(loaded, "parameter", name, tens.data)
    for name, buf in state.named_buffers().items():
        buf[:] = _stored(loaded, "buffer", name, buf)
    if not bank_like:
        return state, None
    bank = {name: _stored(loaded, "bank record", name, like) for name, like in bank_like.items()}
    return state, bpl.PrototypeBank(
        protos_v=bank["bank.protos_v"],
        protos_i=bank["bank.protos_i"],
        initialized_v=bank["bank.initialized_v"] != 0.0,
        initialized_i=bank["bank.initialized_i"] != 0.0,
        alpha=float(bank["bank.alpha"]),
        iteration=int(bank["bank.iteration"]),
    )
