"""Command-line front end for dataset generation, training, and evaluation.

Subcommands: ``gen-data``, ``train``, ``eval``, ``gradcheck``, and
``dump-attention``.  Every command resolves a flat ``config.RunConfig``
from defaults, an optional ``--config`` file, and per-field command-line
overrides (later sources win), and is deterministic given it.  ``gen-data``
and ``train`` write it, fully resolved, next to their outputs as
``run_config.txt``; ``train`` only after training succeeds, so a failed
rerun leaves a used run directory as it was.  Configs, reports and masks
are replaced atomically.  There is one ``--field-name`` flag per
``RunConfig`` field, plus ``--stage2-start`` for ``stage2_start_epoch``.
``--out`` sets the command's output path: ``data_dir`` for ``gen-data``
and ``out_dir`` for the others.  ``eval`` and ``dump-attention`` rebuild
the model from the checkpoint's own config block, not from the run config.

Exit codes: 0 success; 1 a ``gradcheck`` row over its tolerance.  Any other
code comes from the ``_EXIT_CODES`` table, which ``main`` consults for every
typed error a command raises, printing the error's own message after
``error:``.  2 is a configuration error: ``ConfigError``, ``GenConfigError``,
``CheckSuiteError``, ``TrainerError`` (which covers a non-finite loss term
or parameter in training), ``ProtocolError`` (which covers a
non-finite test-image embedding), ``ShapeMismatchError`` (the dataset's
images do not fit the model), ``EncoderConfigError`` and
``DegenerateFeatureError`` (an embedding row fell below the norm guard
in training).  3 is an I/O error: ``OSError``, ``ManifestError`` (which covers
unreadable and mixed-size dataset images), ``CheckpointError`` and
``PnmError``.  Three errors are converted on the way, because their code or
message differs from their class's entry: a config file that is not UTF-8
raises ``ConfigError`` ("config file is not UTF-8 text"); any ``ValueError``
while loading a checkpoint, its unparsable config block or a ``restore``
error included, raises ``CheckpointError`` ("invalid checkpoint", exit 3);
and a ``dump-attention`` sample of the wrong size raises ``PnmError``
("sample does not fit the model", exit 3).  An exception outside the table
is a program bug: it ends in a traceback with Python's exit code 1, the same
value as ``EXIT_CHECK_FAILURE``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from . import checksuite
from . import config as cfgmod
from . import dbdl
from . import diffcore as dc
from . import encoder
from . import evalkit
from . import fileio
from . import model as mdl
from . import pnm
from . import synthbench
from . import trainer

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_IO_ERROR = 3

RESOLVED_CONFIG_NAME = "run_config.txt"


#: The exit code each typed error a command raises ends in.  ``main`` looks
#: it up with ``isinstance``, so a subclass shares its base's code.
_EXIT_CODES = {
    cfgmod.ConfigError: EXIT_CONFIG_ERROR,
    synthbench.GenConfigError: EXIT_CONFIG_ERROR,
    checksuite.CheckSuiteError: EXIT_CONFIG_ERROR,
    trainer.TrainerError: EXIT_CONFIG_ERROR,
    evalkit.ProtocolError: EXIT_CONFIG_ERROR,
    dc.ShapeMismatchError: EXIT_CONFIG_ERROR,
    encoder.EncoderConfigError: EXIT_CONFIG_ERROR,
    dbdl.DegenerateFeatureError: EXIT_CONFIG_ERROR,
    OSError: EXIT_IO_ERROR,
    synthbench.ManifestError: EXIT_IO_ERROR,
    ckpt.CheckpointError: EXIT_IO_ERROR,
    pnm.PnmError: EXIT_IO_ERROR,
}


def _add_override_options(parser: argparse.ArgumentParser) -> None:
    for f in fields(cfgmod.RunConfig):
        flag = "--" + f.name.replace("_", "-")
        parser.add_argument(flag, dest=f.name, default=None, metavar="VALUE")
    # the switch epoch under its colloquial name as well
    parser.add_argument(
        "--stage2-start", dest="stage2_start_epoch", default=None, metavar="VALUE"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="piareid",
        description="cross-modality clothing-change re-identification workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, metavar="PATH",
                       help="key = value configuration file")
        p.add_argument("--out", default=None, metavar="DIR",
                       help="output directory (overrides the config)")
        _add_override_options(p)
        return p

    command("gen-data", "render the synthetic dataset and its manifest")

    p_train = command("train", "run the two-stage training loop")
    p_train.add_argument("--ablation", default=None, metavar="PRESET",
                         help="preset: " + ", ".join(cfgmod.ABLATION_PRESETS))

    p_eval = command("eval", "score a checkpoint on the test protocol")
    p_eval.add_argument("--direction", default=evalkit.DIRECTION_V2I,
                        choices=[*evalkit.DIRECTIONS, "both"])

    p_grad = command("gradcheck", "finite-difference check of every operator and loss")
    p_grad.add_argument("--tol", type=float, default=dc.DEFAULT_TOL)
    p_grad.add_argument("--configs", type=int, default=checksuite.DEFAULT_CONFIGS)
    p_grad.add_argument("--step", type=float, default=None)
    p_grad.add_argument("--only", default=None, metavar="NAME",
                        help="run a single named check")

    p_dump = command("dump-attention", "write a sample's attention masks as PGM")
    p_dump.add_argument("--sample", required=True, metavar="PATH",
                        help="a rendered sample image (PPM)")

    return parser


def _resolve_config(args: argparse.Namespace) -> cfgmod.RunConfig:
    file_text = None
    if args.config is not None:
        try:
            file_text = Path(args.config).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise cfgmod.ConfigError(f"config file is not UTF-8 text: {exc}") from exc
    overrides = {}
    for f in fields(cfgmod.RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            overrides[f.name] = str(value)
    if args.out is not None:
        out_field = "data_dir" if args.command == "gen-data" else "out_dir"
        overrides[out_field] = args.out
    cfg = cfgmod.build_config(file_text, overrides)
    if getattr(args, "ablation", None) is not None:
        cfg = cfg.with_ablation(args.ablation)
    cfg.validate()
    return cfg


def _write_resolved(cfg: cfgmod.RunConfig, directory: Path) -> None:
    text = cfgmod.format_config(cfg)
    fileio.write_atomic(directory / RESOLVED_CONFIG_NAME, text.encode("utf-8"))


def _load_checkpoint(cfg: cfgmod.RunConfig) -> mdl.ModelState:
    if not cfg.checkpoint:
        raise cfgmod.ConfigError("no checkpoint given (set --checkpoint)")
    try:
        loaded = ckpt.load_raw(Path(cfg.checkpoint))
        model_cfg = mdl.parse_model_config_text(loaded.config_text)
        state, _ = ckpt.restore(loaded, model_cfg)
    except ValueError as exc:
        # a config block that does not parse raises ConfigError (exit 2), but
        # it is the checkpoint that is broken
        raise ckpt.CheckpointError(f"invalid checkpoint: {exc}") from exc
    return state


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen_data(args) -> int:
    cfg = _resolve_config(args)
    target = Path(cfg.data_dir)
    manifest = synthbench.generate_dataset(cfg.gen_config(), target)
    _write_resolved(cfg, target)
    print(f"dataset: {target}  rows: {len(manifest.rows)}  "
          f"fingerprint: {manifest.fingerprint[:16]}")
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = _resolve_config(args)
    manifest = synthbench.load_manifest(Path(cfg.data_dir))
    out_dir = Path(cfg.out_dir)
    result = trainer.train(manifest, cfg.train_config(), out_dir=out_dir)
    _write_resolved(cfg, out_dir)
    last = result.epoch_records[-1]
    print(f"trained {cfg.epochs} epochs  final stage {last['stage']}  "
          f"mean total {last['means']['total']:.4f}")
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"log: {result.log_path}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    cfg = _resolve_config(args)
    state = _load_checkpoint(cfg)
    directions = evalkit.DIRECTIONS if args.direction == "both" else (args.direction,)
    # The extraction runs in a workspace of its own, which lets go of its
    # buffers, like the manifest no name holds, before the one [ROW_BLOCK, G]
    # distance block exists.
    with dc.Workspace():
        table = evalkit.test_feature_table(synthbench.load_manifest(Path(cfg.data_dir)), state)
    reports = evalkit.evaluate(table, directions)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    texts = {direction: report.to_json() for direction, report in reports.items()}
    for direction, text in texts.items():
        fileio.write_atomic(out_dir / f"eval_{direction}.json", text.encode("utf-8"))
    for text in texts.values():
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    names = None
    if args.only is not None:
        names = [args.only]
    seed = _resolve_config(args).seed
    suite = checksuite.run_all(
        names, configs=args.configs, tol=args.tol, step=args.step, seed=seed,
    )
    print(suite.format_table())
    return EXIT_OK if suite.passed else EXIT_CHECK_FAILURE


def _cmd_dump_attention(args) -> int:
    cfg = _resolve_config(args)
    state = _load_checkpoint(cfg)
    if not state.cfg.use_dbdl:
        raise cfgmod.ConfigError("attention masks need the dual-branch model")
    batch = pnm.read_ppm(Path(args.sample))[None].transpose(0, 3, 1, 2)
    try:
        _, _, masks = mdl.forward_embeddings(state, dc.pixels(batch), training=False)
    except dc.ShapeMismatchError as exc:
        # the sample file, not the run's configuration, is at fault: exit 3
        raise pnm.PnmError(f"sample does not fit the model: {exc}") from exc
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, mask in (("m_c", masks.clothing), ("m_id", masks.identity)):
        grey = np.round(mask.data[0, 0] * 255.0).astype(np.uint8)
        fileio.write_atomic(out_dir / f"{name}.pgm", pnm.encode_pgm(grey))
    print(f"wrote {out_dir / 'm_c.pgm'} and {out_dir / 'm_id.pgm'}")
    return EXIT_OK


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
    "dump-attention": _cmd_dump_attention,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
