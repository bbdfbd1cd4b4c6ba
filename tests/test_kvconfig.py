"""The ``key = value`` codec shared by every config dataclass."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import get_type_hints

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from piareid import config, kvconfig, model, synthbench, trainer

# any text, with the values the format can carry (no comment marker, line
# break or edge space) drawn often enough that both outcomes are exercised
_TEXT = st.one_of(
    st.text(
        alphabet=st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"),
                               blacklist_characters="#"),
        max_size=12,
    ).filter(lambda s: s == s.strip()),
    st.text(max_size=12),
)


def _reads_back(value: str) -> bool:
    """Whether a ``key = value`` line parses back to exactly ``value``."""
    try:
        return kvconfig.parse_pairs(f"key = {value}\n") == {"key": value}
    except kvconfig.ConfigError:
        return False


def _values(kind):
    if kind is bool:
        return st.booleans()
    if kind is int:
        return st.integers()
    if kind is float:
        return st.floats(allow_nan=False)
    if kind is str:
        return _TEXT
    return st.lists(st.integers(), min_size=1, max_size=4).map(tuple)


def _configs(cls):
    kinds = get_type_hints(cls)
    return st.builds(cls, **{f.name: _values(kinds[f.name]) for f in fields(cls)})


def _read_complete(cls):
    return lambda text: kvconfig.from_pairs(cls, kvconfig.parse_pairs(text), complete=True)


# each config with the writer and reader its callers use
CODECS = {
    "GenConfig": (synthbench.GenConfig, kvconfig.format_text,
                  _read_complete(synthbench.GenConfig)),
    "TrainConfig": (trainer.TrainConfig, kvconfig.format_text,
                    _read_complete(trainer.TrainConfig)),
    "ModelConfig": (model.ModelConfig, model.model_config_text,
                    model.parse_model_config_text),
    "RunConfig": (config.RunConfig, config.format_config, config.build_config),
}


@pytest.mark.parametrize("name", sorted(CODECS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_format_then_parse_gives_back_the_config(name, data):
    cls, write, read = CODECS[name]
    cfg = data.draw(_configs(cls))
    texts = [getattr(cfg, f.name) for f in fields(cls) if get_type_hints(cls)[f.name] is str]
    if all(_reads_back(text) for text in texts):
        assert read(write(cfg)) == cfg
    else:
        with pytest.raises(kvconfig.ConfigError, match="cannot be written"):
            write(cfg)


@settings(max_examples=200, deadline=None)
@given(value=_TEXT)
@example("runs/a#b")
@example("runs/a\nb")
@example("runs/a\r")
@example(" runs/a")
def test_string_override_reads_back_or_raises(value):
    if _reads_back(value):
        cfg = config.build_config(None, {"out_dir": value})
        assert cfg.out_dir == value
        assert config.build_config(config.format_config(cfg)) == cfg
    else:
        with pytest.raises(kvconfig.ConfigError, match="out_dir"):
            config.build_config(None, {"out_dir": value})


@dataclass(frozen=True)
class _Pair:
    count: int = 1
    label: str = "x"


class TestFromPairs:
    def test_absent_fields_keep_defaults(self):
        assert kvconfig.from_pairs(_Pair, {"count": "4"}) == _Pair(count=4)

    def test_complete_requires_every_field(self):
        with pytest.raises(kvconfig.ConfigError, match="missing key 'label'"):
            kvconfig.from_pairs(_Pair, {"count": "4"}, complete=True)

    def test_unknown_key_rejected(self):
        with pytest.raises(kvconfig.ConfigError, match="unknown configuration key 'other'"):
            kvconfig.from_pairs(_Pair, {"other": "1"})


class TestProject:
    def test_copies_shared_fields_and_takes_extras(self):
        @dataclass(frozen=True)
        class Wide:
            count: int = 7
            label: str = "wide"
            extra: float = 0.5

        assert kvconfig.project(Wide(), _Pair) == _Pair(count=7, label="wide")
        assert kvconfig.project(Wide(), _Pair, label="given") == _Pair(count=7, label="given")
