"""The benchmark's workloads, why each was chosen, and its metric names.

Each workload times one ``piareid.cli.main([...])`` call, the call a user
makes.  Set-up is everything before that call in a fresh process:
interpreter start, imports and the workload's inputs.  The loop is closed
with one client: one process, one call at a time.

Why these three workloads.  The method runs on the repo's own autodiff core
(``diffcore``), so an optimisation lands in one of three places, and each
place has a workload that exercises it and two that bypass it:

* ``train_full`` -- the paper's method end to end: ``train --ablation full``
  on the default dataset (48 identities, 1152 images, 32 training
  identities, 12 steps of batch 64 per epoch), 3 + 3 epochs with an eval
  pass per epoch.  Backward, optimizer, ``bpl`` and eval-scheduling changes
  show here and only here.  ``conv2d`` forward plus backward is about 75 %
  of it and test-split feature extraction (8 passes) about 22 %.
* ``eval_large`` -- ``eval --direction both`` on a 192-identity dataset
  with ``split_ratio=1:3`` (3456 test images, Q = G = 1728 per direction)
  and a seeded, untrained checkpoint; ranking cost does not depend on the
  weights.  Forward only: no tape, backward or optimizer, so a
  backward-only change predicts no change here.  The 1728x1728 stable
  argsort, with ``distance_matrix`` computed twice per direction, is about
  a third of the call; on ``train_full``'s 192x192 protocol the same code
  is about 1 %.
* ``gen_data`` -- ``gen-data`` of that same 192-identity config, 4608
  images into an empty directory.  ``synthbench`` rendering and ``pnm``
  writes with no ``diffcore``, so every model-side change predicts no
  change here.

The workload seed (``--seed``) goes into the dataset and run configs
through the CLI's ``--seed`` flag; the program sees nothing else of the
benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    command: str             # the piareid subcommand of the timed call
    why: str
    data: tuple[str, ...]    # dataset flags (set-up's gen-data, or the call's)
    call: tuple[str, ...]    # further flags of the timed call
    tiny_data: tuple[str, ...]
    tiny_call: tuple[str, ...]

    def flags(self, tiny: bool) -> tuple[tuple[str, ...], tuple[str, ...]]:
        return (self.tiny_data, self.tiny_call) if tiny else (self.data, self.call)


_LARGE = ("--n-identities", "192", "--split-ratio", "1:3")

# Smoke-test sizes: the same code paths at a few hundred milliseconds a call.
_TINY_DATA = (
    "--n-identities", "8", "--images-per-identity-per-modality", "4",
    "--image-height", "16", "--image-width", "8", "--split-ratio", "1:1",
)
_TINY_NET = ("--widths", "4,4", "--strides", "2,1", "--attention-kernel-size", "3")

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="train_full",
        command="train",
        why="the paper's method end to end (3+3 epochs, eval each epoch): "
            "backward, optimizer, bpl and eval scheduling show here only",
        data=(),
        call=("--ablation", "full", "--epochs", "6", "--stage2-start", "3",
              "--eval-every", "1"),
        tiny_data=_TINY_DATA,
        tiny_call=_TINY_NET + (
            "--ablation", "full", "--epochs", "2", "--stage2-start", "1",
            "--eval-every", "1", "--ids-per-batch", "2",
            "--instances-per-modality", "2",
        ),
    ),
    Workload(
        name="eval_large",
        command="eval",
        why="forward only on 3456 test images with a 1728x1728 ranking per "
            "direction: no backward or optimizer, so backward changes predict none",
        data=_LARGE,
        call=("--direction", "both"),
        tiny_data=_TINY_DATA + _TINY_NET,
        tiny_call=("--direction", "both"),
    ),
    Workload(
        name="gen_data",
        command="gen-data",
        why="synthbench rendering and pnm writes of 4608 images with no "
            "diffcore, so model-side changes predict no change",
        data=_LARGE,
        call=(),
        tiny_data=_TINY_DATA,
        tiny_call=(),
    ),
)}

# ---------------------------------------------------------------------------
# metric names

#: End-to-end metrics of an untraced run.  ``call_s`` is the wall time of the
#: timed CLI call: train seconds on train_full, eval seconds on eval_large,
#: gen-data seconds on gen_data.
END_TO_END = ("setup_s", "call_s", "peak_rss_mb")

UNITS = {"setup_s": "s", "call_s": "s", "peak_rss_mb": "MB"}

#: Conv layers, named by position; the tracer tells them apart by weight shape.
CONV_LAYERS = ("conv0", "conv1", "conv2", "attn_conv")

#: Primitive kinds other than conv2d that a train_full run applies.
PRIMITIVE_KINDS = (
    "abs", "add", "batch_norm", "channel_avg_pool", "channel_max_pool", "concat",
    "global_avg_pool", "global_max_pool", "l2_normalize", "linear",
    "log_softmax", "mean", "mul", "relu", "scale", "sigmoid", "sub", "sum",
)


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for layer in CONV_LAYERS:
        names += [f"diffcore.{layer}.fwd_s", f"diffcore.{layer}.bwd_s"]
    names.append("diffcore.calls.conv2d")
    for kind in PRIMITIVE_KINDS:
        names += [f"diffcore.fwd_s.{kind}", f"diffcore.bwd_s.{kind}",
                  f"diffcore.calls.{kind}"]
    names += [
        "diffcore.backward_s", "diffcore.tape_nodes_per_step",
        "model.forward_train_s", "model.forward_eval_s", "encoder.backbone_s",
        "dbdl.masks_s", "dbdl.disentangle_s",
        "bpl.absorb_s", "bpl.intra_s", "bpl.inter_s",
        "trainer.step_ms_p50.stage1", "trainer.step_ms_p50.stage2",
        "trainer.adam_s", "trainer.data_s", "trainer.steps",
        "evalkit.extract_s", "evalkit.extract_passes", "evalkit.images_extracted",
        "evalkit.report_s", "evalkit.rank_s", "evalkit.distance_matrix_calls",
        "evalkit.map_v2i", "evalkit.map_i2v",
        "synthbench.render_s", "synthbench.renders", "pnm.write_s",
        "pnm.bytes_written",
        "synthbench.load_manifest_s", "synthbench.load_pixels_s", "pnm.read_s",
        "synthbench.pixel_cache_hit_ratio",
        "checkpoint.save_s", "checkpoint.load_s", "checkpoint.bytes",
        "trace.overhead_ratio",
    ]
    return names


#: Which end-to-end metric, on which workload, each per-layer metric should
#: move.  Times are inclusive of the layers they call, and cover a traced
#: process's set-up as well as its call.
LAYER_MAP: dict[str, str] = {
    "diffcore.<conv>.fwd_s": "call_s on train_full (with bwd_s about 75 % of it) "
                             "and on eval_large; not gen_data",
    "diffcore.<conv>.bwd_s": "call_s on train_full only",
    "diffcore.{fwd_s,bwd_s,calls}.<kind>": "call_s on train_full; fwd_s also "
                                           "call_s on eval_large",
    "diffcore.backward_s, diffcore.tape_nodes_per_step": "call_s on train_full",
    "model.forward_train_s": "call_s on train_full",
    "model.forward_eval_s, encoder.backbone_s, dbdl.masks_s, dbdl.disentangle_s":
        "call_s on train_full and eval_large",
    "bpl.absorb_s, bpl.intra_s, bpl.inter_s": "call_s on train_full, in its "
                                              "stage-2 epochs only",
    "trainer.*": "call_s on train_full; step boundaries come from adam_step calls",
    "evalkit.extract_s, evalkit.extract_passes, evalkit.images_extracted":
        "call_s on train_full (about 22 %, epochs + 2 passes) and eval_large",
    "evalkit.report_s, evalkit.rank_s, evalkit.distance_matrix_calls":
        "call_s on eval_large (about a third); about 1 % of train_full",
    "evalkit.map_v2i, evalkit.map_i2v": "retrieval quality, deterministic for a "
                                        "code and seed: a speed change must not move it",
    "synthbench.render_s, synthbench.renders, pnm.write_s, pnm.bytes_written":
        "call_s on gen_data; setup_s on train_full and eval_large",
    "synthbench.load_manifest_s, synthbench.load_pixels_s, pnm.read_s, "
    "synthbench.pixel_cache_hit_ratio": "call_s on eval_large (cold decode of "
                                        "3456 images) and train_full",
    "checkpoint.save_s, checkpoint.load_s, checkpoint.bytes":
        "call_s on train_full (save) and eval_large (load; save is set-up)",
    "trace.overhead_ratio": "traced call_s over untraced call_s; not a program cost",
}


def unit_of(name: str) -> str:
    """The unit of an end-to-end or per-layer metric."""
    if name in UNITS:
        return UNITS[name]
    parts = name.split(".")
    if any(part.endswith("_s") for part in parts):
        return "s"
    if any(part.startswith("step_ms") for part in parts):
        return "ms"
    if name.endswith(("_ratio", ".map_v2i", ".map_i2v")):
        return "ratio"
    if name.endswith(("bytes", "bytes_written")):
        return "bytes"
    return "count"
