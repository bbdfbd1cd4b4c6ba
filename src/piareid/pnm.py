"""Minimal binary PPM (P6) and PGM (P5) reading and writing.

Only 8-bit maxval-255 images are supported; headers may carry ``#``
comments.  Whitespace or a comment must follow the magic number, and one
whitespace byte must follow maxval, even before an empty raster.  Pixels
travel as uint8 arrays shaped [H, W, 3] for PPM and [H, W] for PGM.
Decoding copies no pixel: a decoded image is a read-only view of the bytes
it was decoded from, so a caller that writes to it copies it first.  Files
are read and written through ``os.read`` and ``os.write`` on a raw
descriptor, with no buffered file object.
"""

from __future__ import annotations

import os
import re
from functools import partial

import numpy as np


#: Longest header number accepted: more than any raster needs, and short
#: enough that ``int()`` never hits its digit limit.
_MAX_DIGITS = 18

#: Bytes asked of each ``os.read``: the first read holds a whole file of up
#: to about 21,800 pixels (a 64x32 image's file is 6 KB).
_READ_CHUNK = 1 << 16

# One header field: the whitespace and whole ``#`` comments before it, then
# every byte up to the next whitespace.  The field is empty only at the end
# of the data, and starts with ``#`` only at a comment with no newline after.
_SPACE = rb" \t\n\r\x0b\x0c"
_FIELD = rb"(?:[" + _SPACE + rb"]|#[^\n]*\n)*([^" + _SPACE + rb"]*)"
_HEADER = re.compile(_FIELD * 3)

_UINT8 = np.dtype(np.uint8)


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


def _field_error(field: bytes) -> str:
    """Why a header field is not a number of at most ``_MAX_DIGITS`` digits."""
    if not field:
        return "truncated header"
    if field.startswith(b"#"):
        return "unterminated header comment"
    return f"bad header token {field[:_MAX_DIGITS + 1]!r}"


def _decode(data: bytes, magic: bytes, channels: int) -> np.ndarray:
    if not data.startswith(magic):
        raise PnmError(f"expected {magic.decode()} file")
    match = _HEADER.match(data, len(magic))
    fields = match.groups()
    for field in fields:  # in order, so the first bad field decides the error
        if not field.isdigit() or len(field) > _MAX_DIGITS:
            raise PnmError(_field_error(field))
    width, height, maxval = map(int, fields)
    if maxval != 255:
        raise PnmError(f"only maxval 255 supported, got {maxval}")
    start = match.end() + 1  # single whitespace after maxval
    expected = width * height * channels
    held = max(len(data) - start, 0)
    if held < expected:
        raise PnmError(f"raster holds {held} bytes, expected {expected}")
    # the separators are checked last, so a header with another fault is
    # refused for that fault
    separator = data[len(magic) : len(magic) + 1]
    if not separator.isspace() and separator != b"#":
        raise PnmError(f"no whitespace after {magic.decode()}")
    if start > len(data):
        raise PnmError("no whitespace after maxval")
    shape = (height, width) if channels == 1 else (height, width, channels)
    return np.ndarray(shape, _UINT8, data, start)


def decode_ppm(data: bytes) -> np.ndarray:
    """The [H, W, 3] raster of a P6 file's bytes, a read-only view of them."""
    return _decode(data, b"P6", 3)


def decode_pgm(data: bytes) -> np.ndarray:
    """The [H, W] raster of a P5 file's bytes, a read-only view of them."""
    return _decode(data, b"P5", 1)


def read_ppm(path) -> np.ndarray:
    """Decode the PPM file at ``path``; a ``PnmError`` names the file.

    One ``os.read`` serves a file whose header and raster fit in its
    ``_READ_CHUNK`` bytes, and the result is a read-only view of them.  When
    that first read does not decode, the rest of the file is read and the
    whole file decoded, so every result and error is ``decode_ppm``'s on the
    file's full bytes: a header field or raster that a prefix cuts short
    never decodes.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        data = os.read(fd, _READ_CHUNK)
        try:
            return _decode(data, b"P6", 3)
        except PnmError:
            data = b"".join([data, *iter(partial(os.read, fd, _READ_CHUNK), b"")])
    finally:
        os.close(fd)
    try:
        return _decode(data, b"P6", 3)
    except PnmError as exc:
        raise PnmError(f"{path}: invalid image: {exc}") from exc
