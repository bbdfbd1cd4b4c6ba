"""``pnm``'s reader against a frozen copy of the reader it replaced, which
scanned a header byte by byte and read a file through a buffered file
object.  The frozen reader is the oracle for every input it refuses and for
every input with whitespace (or a comment) after its magic number and a
byte after its maxval: on those the two give equal arrays, or
``PnmError``s with equal messages.  The frozen reader accepts a header
without either separator; ``pnm`` refuses it with a ``PnmError``."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from piareid import pnm

# ---------------------------------------------------------------------------
# the frozen reader

_MAX_DIGITS = 18


def _frozen_read_tokens(data: bytes, count: int, start: int) -> tuple[list[int], int]:
    tokens: list[int] = []
    pos = start
    while len(tokens) < count:
        if pos >= len(data):
            raise pnm.PnmError("truncated header")
        byte = data[pos : pos + 1]
        if byte == b"#":
            end = data.find(b"\n", pos)
            if end < 0:
                raise pnm.PnmError("unterminated header comment")
            pos = end + 1
        elif byte.isspace():
            pos += 1
        else:
            end = pos
            while end < len(data) and not data[end : end + 1].isspace():
                end += 1
            chunk = data[pos:end]
            if not chunk.isdigit() or len(chunk) > _MAX_DIGITS:
                raise pnm.PnmError(f"bad header token {chunk[:_MAX_DIGITS + 1]!r}")
            tokens.append(int(chunk))
            pos = end
    return tokens, pos


def _frozen_decode(data: bytes, magic: bytes, channels: int) -> np.ndarray:
    if not data.startswith(magic):
        raise pnm.PnmError(f"expected {magic.decode()} file")
    (width, height, maxval), pos = _frozen_read_tokens(data, 3, len(magic))
    if maxval != 255:
        raise pnm.PnmError(f"only maxval 255 supported, got {maxval}")
    pos += 1
    expected = width * height * channels
    raster = data[pos : pos + expected]
    if len(raster) != expected:
        raise pnm.PnmError(f"raster holds {len(raster)} bytes, expected {expected}")
    flat = np.frombuffer(raster, dtype=np.uint8)
    if channels == 1:
        return flat.reshape(height, width).copy()
    return flat.reshape(height, width, channels).copy()


def _frozen_read_ppm(path) -> np.ndarray:
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return _frozen_decode(data, b"P6", 3)
    except pnm.PnmError as exc:
        raise pnm.PnmError(f"{path}: invalid image: {exc}") from exc


# ---------------------------------------------------------------------------
# inputs

_SPACES = [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"]
_COMMENT = st.binary(max_size=12).map(lambda text: b"#" + text.replace(b"\n", b"") + b"\n")
# what may stand between header fields: whitespace of every kind and whole
# comments, or nothing at all
_GAP = st.lists(st.one_of(st.sampled_from(_SPACES), _COMMENT), max_size=4).map(b"".join)


def _field(value: st.SearchStrategy[int]) -> st.SearchStrategy[bytes]:
    """A header number, zero-padded to up to ``_MAX_DIGITS + 1`` digits."""
    return st.tuples(value, st.integers(1, _MAX_DIGITS + 1)).map(
        lambda pair: str(pair[0]).zfill(pair[1]).encode())


@st.composite
def pnm_files(draw):
    """A P6 or P5 file: well formed, or cut short, or with bytes past its
    raster, sometimes with a header comment or a raster larger than one
    read of ``pnm._READ_CHUNK`` bytes."""
    magic, channels = draw(st.sampled_from([(b"P6", 3), (b"P5", 1)]))
    big = draw(st.booleans()) and draw(st.booleans())
    sizes = st.integers(150, 170) if big else st.integers(0, 12)
    width, height = draw(sizes), draw(sizes)
    maxval = draw(st.one_of(st.just(255), st.integers(0, 300)))
    gaps = [draw(_GAP) for _ in range(3)]
    if big and draw(st.booleans()):  # a header longer than one read
        gaps[draw(st.integers(0, 2))] += b"#" + b"x" * pnm._READ_CHUNK + b"\n"
    header = (magic + gaps[0] + draw(_field(st.just(width))) + gaps[1]
              + draw(_field(st.just(height))) + gaps[2] + draw(_field(st.just(maxval)))
              + draw(st.sampled_from(_SPACES)))
    size = width * height * channels
    seed = draw(st.integers(0, 2**32 - 1))
    raster = np.random.default_rng(seed).integers(0, 256, size + 8, dtype=np.uint8).tobytes()
    end = draw(st.one_of(st.just(size), st.integers(0, size + 8)))
    return header + raster[:end]


# ---------------------------------------------------------------------------
# checks


def _outcome(read, arg):
    try:
        return read(arg), None
    except pnm.PnmError as exc:
        return None, str(exc)


def _has_separators(data: bytes) -> bool:
    """Whether a header the frozen reader accepts has whitespace or a
    comment after its magic number, and a byte after its maxval."""
    _, end = _frozen_read_tokens(data, 3, 2)
    return data[2:3] in (*_SPACES, b"#") and end < len(data)


def _assert_same(new, old, data):
    (array, error), (expected, expected_error) = new, old
    if expected is not None and not _has_separators(data):
        assert array is None and error is not None
        return
    assert error == expected_error
    if expected is not None:
        assert array.dtype == expected.dtype and array.shape == expected.shape
        assert np.array_equal(array, expected)


_EXAMPLES = [
    b"P6\n2 1\n255\n" + bytes(range(6)),
    b"P6 2#c\n 1 255\n" + bytes(range(6)),          # a comment right after width
    b"P6\n2\n# between width and height\n1\n255\n" + bytes(range(6)),
    b"P5 2 #c\n1 255 \x00\x01",
    b"P61 1 255 abc",                                   # width right after the magic
    b"P6#c\n1 1 255 abc",                               # a comment right after the magic
    b"P6 1 1 255",                                      # no byte after maxval
    b"P6 0 5 255",                                      # nor before an empty raster
    b"P6 0 5 255\n",                                    # an empty raster at the end
    b"P6 1 1 # no newline",
    b"P6 0001 000000000000000001 255\nabc",
    b"P6 1 0000000000000000001 255\nabc",              # one digit too many
    b"P6 1 1 25#5\nabc",
    b"P6 1 1 256\nabc",
]


def _with_examples(test):
    for data in _EXAMPLES:
        test = example(data=data)(test)
    return test


@pytest.fixture(scope="module")
def image_path(tmp_path_factory):
    return tmp_path_factory.mktemp("pnm") / "image.ppm"


@_with_examples
@settings(max_examples=300, deadline=None)
@given(data=st.one_of(pnm_files(), st.binary(max_size=80)))
def test_decode_equals_the_frozen_decoder(data):
    for decode, magic, channels in ((pnm.decode_ppm, b"P6", 3), (pnm.decode_pgm, b"P5", 1)):
        _assert_same(_outcome(decode, data),
                     _outcome(lambda d: _frozen_decode(d, magic, channels), data), data)


@_with_examples
@settings(max_examples=300, deadline=None)
@given(data=st.one_of(pnm_files(), st.binary(max_size=80)))
def test_read_ppm_equals_the_frozen_reader(image_path, data):
    image_path.write_bytes(data)
    _assert_same(_outcome(pnm.read_ppm, image_path), _outcome(_frozen_read_ppm, image_path),
                 data)
