"""Config dataclasses as flat ``key = value`` text, and projections between them.

One line per dataclass field, in declaration order: ``name = value``.
Booleans are written ``true``/``false`` (``1``/``0`` and ``yes``/``no`` read
too), integer tuples comma-separated, floats by ``repr`` so they read back
exactly, and strings as they are.  ``#`` starts a comment.  A string that
holds ``#``, a line break or edge whitespace would not read back, so
writing or reading one raises ``ConfigError``.  A field's type comes from
its dataclass annotation, so each field is declared once, in the dataclass
that owns it.

This module imports nothing from the package, so every config-owning module
can use it without an import cycle.
"""

from __future__ import annotations

from dataclasses import fields
from typing import get_type_hints


class ConfigError(ValueError):
    """Raised for unparseable or invalid configurations."""


def project(src, cls, **extra):
    """A ``cls`` whose fields come from ``extra`` or else from ``src``'s equal-named fields."""
    taken = {f.name: getattr(src, f.name) for f in fields(cls) if f.name not in extra}
    return cls(**taken, **extra)


def _one_line(name: str, value: str) -> str:
    """``value`` if a ``name = value`` line reads it back unchanged."""
    if value != value.strip() or "#" in value or len(value.splitlines()) > 1:
        raise ConfigError(
            f"{name}: {value!r} cannot be written as one 'key = value' line "
            f"(it holds '#', a line break or edge whitespace)"
        )
    return value


def _format_value(name: str, value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        return _one_line(name, value)
    return str(value)


def format_text(cfg) -> str:
    """Every field of ``cfg`` as a ``name = value`` line, in declaration order."""
    lines = [
        f"{f.name} = {_format_value(f.name, getattr(cfg, f.name))}" for f in fields(cfg)
    ]
    return "\n".join(lines) + "\n"


def parse_pairs(text: str) -> dict[str, str]:
    """``key = value`` lines with ``#`` comments into a raw string mapping."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.rstrip()!r}")
        key, value = stripped.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value.strip()
    return raw


def _parse_bool(name: str, raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ConfigError(f"{name}: expected a boolean, got {raw!r}")


def _parse_int_tuple(name: str, raw: str) -> tuple[int, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"{name}: expected comma-separated integers, got {raw!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"{name}: expected comma-separated integers, got {raw!r}") from None


def _coerce(name: str, kind, raw: str):
    if kind is str:
        return _one_line(name, raw)
    raw = raw.strip()
    if kind is bool:
        return _parse_bool(name, raw)
    if kind is int:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{name}: expected an integer, got {raw!r}") from None
    if kind is float:
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{name}: expected a number, got {raw!r}") from None
    # tuple[int, ...], the one remaining field type in use
    return _parse_int_tuple(name, raw)


def from_pairs(cls, raw: dict[str, str], *, complete: bool = False):
    """A ``cls`` from raw string values typed by its annotations.

    Unknown keys are rejected.  Absent fields keep their defaults, unless
    ``complete`` is set, when every field must be given.
    """
    kinds = get_type_hints(cls)
    names = [f.name for f in fields(cls)]
    for key in raw:
        if key not in names:
            raise ConfigError(f"unknown configuration key {key!r}")
    if complete:
        for name in names:
            if name not in raw:
                raise ConfigError(f"missing key {name!r}")
    return cls(**{key: _coerce(key, kinds[key], value) for key, value in raw.items()})
