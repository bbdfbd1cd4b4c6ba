"""Flat run configuration: one file, one namespace, every knob.

Each field is declared once, with its default, in the module that owns it:
``synthbench.GenConfig`` holds the dataset-generation fields,
``model.ArchConfig`` the architecture fields, and ``trainer.TrainConfig``
(which inherits ``ArchConfig``) the schedule, loss and ablation fields.
``RunConfig`` inherits both, so ``seed``, ``image_height`` and
``image_width``, which both declare with equal defaults, are one field here;
it adds only the three paths.  ``gen_config()`` and ``train_config()``
project it back onto its parents.

A run is described by a single flat ``key = value`` file in the format of
``kvconfig``, which reads and writes every config.  Command-line overrides
win over the file, which wins over the defaults.  Every command writes the
fully resolved configuration next to its outputs so a run can be reproduced
bit-exactly from that file alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import kvconfig
from . import synthbench
from . import trainer
from .kvconfig import ConfigError, format_text as format_config, parse_pairs as parse_config_text

#: Ablation presets, named after the component each one adds.  Each preset
#: fixes the four loss/branch switches; everything else stays configurable.
ABLATION_PRESETS: dict[str, dict[str, bool]] = {
    "base": dict(use_dbdl=False, use_orth=False, use_intra=False, use_inter=False),
    "dbdl": dict(use_dbdl=True, use_orth=False, use_intra=False, use_inter=False),
    "orth": dict(use_dbdl=True, use_orth=True, use_intra=False, use_inter=False),
    "intra": dict(use_dbdl=True, use_orth=True, use_intra=True, use_inter=False),
    "full": dict(use_dbdl=True, use_orth=True, use_intra=True, use_inter=True),
}


@dataclass(frozen=True)
class RunConfig(trainer.TrainConfig, synthbench.GenConfig):
    """The dataset and training fields of a run, plus where its files go."""

    data_dir: str = "data"
    out_dir: str = "run"
    checkpoint: str = ""

    def gen_config(self) -> synthbench.GenConfig:
        return kvconfig.project(self, synthbench.GenConfig)

    def train_config(self) -> trainer.TrainConfig:
        return kvconfig.project(self, trainer.TrainConfig)

    def validate(self) -> None:
        try:
            self.gen_config().validate()
            self.train_config().validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def with_ablation(self, preset: str) -> "RunConfig":
        if preset not in ABLATION_PRESETS:
            known = ", ".join(sorted(ABLATION_PRESETS))
            raise ConfigError(f"unknown ablation preset {preset!r} (choose from {known})")
        return replace(self, **ABLATION_PRESETS[preset])


def build_config(file_text: str | None = None,
                 overrides: dict[str, str] | None = None) -> RunConfig:
    """Defaults, then the config file, then overrides; later sources win."""
    merged: dict[str, str] = {}
    if file_text is not None:
        merged.update(parse_config_text(file_text))
    if overrides:
        merged.update(overrides)
    return kvconfig.from_pairs(RunConfig, merged)
