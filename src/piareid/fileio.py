"""Atomic replacement of the files a run writes."""

import os
from pathlib import Path


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` to ``path`` through a sibling ``.tmp`` and ``os.replace``.

    Readers see the old file or the new one.  On failure the old file stays
    and the ``.tmp`` is removed.
    """
    tmp = Path(f"{path}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
