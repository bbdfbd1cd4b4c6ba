"""Minimal binary PPM (P6) and PGM (P5) reading and writing.

Only 8-bit maxval-255 images are supported; headers may carry ``#``
comments.  Pixels travel as uint8 arrays shaped [H, W, 3] for PPM and
[H, W] for PGM.
"""

from __future__ import annotations

import os

import numpy as np


#: Longest header number accepted: more than any raster needs, and short
#: enough that ``int()`` never hits its digit limit.
_MAX_DIGITS = 18


class PnmError(ValueError):
    """Raised on malformed image files."""


def _encode_header(magic: bytes, width: int, height: int) -> bytes:
    return magic + b"\n" + f"{width} {height}\n255\n".encode("ascii")


def encode_ppm(pixels: np.ndarray) -> bytes:
    """The P6 file's bytes: header and raster joined in one copy (a raster
    that is not C-contiguous is copied once more first)."""
    pixels = np.asarray(pixels)
    if pixels.ndim != 3 or pixels.shape[2] != 3 or pixels.dtype != np.uint8:
        raise PnmError(f"PPM needs uint8 [H, W, 3], got {pixels.dtype} {pixels.shape}")
    h, w, _ = pixels.shape
    return b"".join((_encode_header(b"P6", w, h), np.ascontiguousarray(pixels)))


def encode_pgm(pixels: np.ndarray) -> bytes:
    pixels = np.asarray(pixels)
    if pixels.ndim != 2 or pixels.dtype != np.uint8:
        raise PnmError(f"PGM needs uint8 [H, W], got {pixels.dtype} {pixels.shape}")
    h, w = pixels.shape
    return _encode_header(b"P5", w, h) + pixels.tobytes()


def write_ppm(path, pixels: np.ndarray) -> None:
    """Write ``pixels`` to ``path`` as a P6 file, overwriting any file there.

    The encoded bytes go out through ``os.write`` on a raw descriptor, with
    no buffered file object; a short write is continued until every byte is
    out, and an ``OSError`` propagates after the descriptor is closed.
    """
    data = memoryview(encode_ppm(pixels))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


def _read_tokens(data: bytes, count: int, start: int) -> tuple[list[int], int]:
    """Whitespace/comment-aware integer scanner for PNM headers."""
    tokens: list[int] = []
    pos = start
    while len(tokens) < count:
        if pos >= len(data):
            raise PnmError("truncated header")
        byte = data[pos : pos + 1]
        if byte == b"#":
            end = data.find(b"\n", pos)
            if end < 0:
                raise PnmError("unterminated header comment")
            pos = end + 1
        elif byte.isspace():
            pos += 1
        else:
            end = pos
            while end < len(data) and not data[end : end + 1].isspace():
                end += 1
            chunk = data[pos:end]
            if not chunk.isdigit() or len(chunk) > _MAX_DIGITS:
                raise PnmError(f"bad header token {chunk[:_MAX_DIGITS + 1]!r}")
            tokens.append(int(chunk))
            pos = end
    return tokens, pos


def _decode(data: bytes, magic: bytes, channels: int) -> np.ndarray:
    if not data.startswith(magic):
        raise PnmError(f"expected {magic.decode()} file")
    (width, height, maxval), pos = _read_tokens(data, 3, len(magic))
    if maxval != 255:
        raise PnmError(f"only maxval 255 supported, got {maxval}")
    pos += 1  # single whitespace after maxval
    expected = width * height * channels
    raster = data[pos : pos + expected]
    if len(raster) != expected:
        raise PnmError(
            f"raster holds {len(raster)} bytes, expected {expected}"
        )
    flat = np.frombuffer(raster, dtype=np.uint8)
    if channels == 1:
        return flat.reshape(height, width).copy()
    return flat.reshape(height, width, channels).copy()


def decode_ppm(data: bytes) -> np.ndarray:
    return _decode(data, b"P6", 3)


def decode_pgm(data: bytes) -> np.ndarray:
    return _decode(data, b"P5", 1)


def read_ppm(path) -> np.ndarray:
    """Decode the PPM file at ``path``; a ``PnmError`` names the file."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return decode_ppm(data)
    except PnmError as exc:
        raise PnmError(f"{path}: invalid image: {exc}") from exc
