"""Outside-in tracing of piareid's layers, for the benchmark's traced runs.

``Tracer.installed()`` replaces public functions of the program's modules
(the module or class attribute every caller looks up) with wrappers that
record spans, and puts every original back on exit.  Nothing under ``src/``
changes and the wrapped calls run unchanged, in the same order, so a traced
run writes the same output bits as an untraced one; the benchmark checks
that by digest.

A span is ``[name, start, end, parent]``: ``parent`` is the index of the
enclosing span, or -1.  Spans stay in memory and are written out once, at
the end of the process.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from piareid import bpl, checkpoint, dbdl, encoder, evalkit, model, pnm, synthbench, trainer
from piareid import diffcore
from piareid.diffcore import ops

from workloads import CONV_LAYERS, PRIMITIVE_KINDS

# the package re-exports a ``tensor`` function under the submodule's name
tensor = importlib.import_module("piareid.diffcore.tensor")


def conv_layer_names(widths, kernel_size: int, attention_kernel_size: int
                     ) -> dict[tuple[int, ...], str]:
    """Weight shape -> layer name, for the backbone convs and the attention conv."""
    names = {}
    in_channels = 3
    for index, width in enumerate(widths):
        names[(width, in_channels, kernel_size, kernel_size)] = f"conv{index}"
        in_channels = width
    names[(1, 2, attention_kernel_size, attention_kernel_size)] = "attn_conv"
    return names


class Tracer:
    def __init__(self, conv_names: dict[tuple[int, ...], str]):
        self.conv_names = conv_names
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.tape_nodes: list[int] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _timed(self, name: str, fn, note=None):
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if note is not None:
                note(args, kwargs, result)
            return result

        return wrapper

    def _layer_of(self, kind: str, inputs) -> str:
        if kind != "conv2d":
            return kind
        return self.conv_names.get(tuple(getattr(inputs[1], "shape", ())), kind)

    # -- wrappers ------------------------------------------------------------

    def _apply(self, original):
        def apply(kind, inputs, **attrs):
            index = self._open("diffcore.fwd." + self._layer_of(kind, inputs))
            try:
                return original(kind, inputs, **attrs)
            finally:
                self._close(index)

        return apply

    def _backward(self, original):
        def backward(output, tape):
            self.tape_nodes.append(len(tape.nodes))
            for node in tape.nodes:
                name = "diffcore.bwd." + self._layer_of(node.kind, node.inputs)
                node.backward_fn = self._timed(name, node.backward_fn)
            index = self._open("diffcore.backward")
            try:
                return original(output, tape)
            finally:
                self._close(index)

        return backward

    def _forward_embeddings(self, original):
        def forward_embeddings(state, pixels, *, training):
            name = "model.forward_train" if training else "model.forward_eval"
            index = self._open(name)
            try:
                return original(state, pixels, training=training)
            finally:
                self._close(index)

        return forward_embeddings

    def _count(self, key: str, amount):
        def note(args, kwargs, result):
            self.counts[key] += amount(args, kwargs, result)

        return note

    def _targets(self):
        """(owner, attribute, wrapper builder) for every traced function."""
        timed = lambda name, note=None: lambda fn: self._timed(name, fn, note)
        file_size = lambda args, kwargs, result: os.path.getsize(args[0])
        return [
            (ops, "apply", self._apply),
            (diffcore, "apply", self._apply),
            (tensor, "backward", self._backward),
            (diffcore, "backward", self._backward),
            (model, "forward_embeddings", self._forward_embeddings),
            (encoder, "forward_backbone", timed("encoder.backbone")),
            (dbdl, "build_masks", timed("dbdl.masks")),
            (dbdl, "disentangle", timed("dbdl.disentangle")),
            (bpl, "absorb_batch", timed("bpl.absorb")),
            (bpl, "intra_loss", timed("bpl.intra")),
            (bpl, "inter_loss", timed("bpl.inter")),
            (trainer, "adam_step", timed("trainer.adam")),
            (trainer.BalancedSampler, "epoch_identity_schedule",
             timed("trainer.schedule")),
            (trainer.BalancedSampler, "assemble", timed("trainer.assemble")),
            (evalkit, "test_feature_table", timed(
                "evalkit.extract",
                self._count("images_extracted", lambda a, k, r: len(r.row_indices)))),
            (evalkit, "report_from_set", timed("evalkit.report")),
            (evalkit, "rank", timed("evalkit.rank")),
            (evalkit, "distance_matrix", timed("evalkit.distance_matrix")),
            (synthbench, "render_sample", timed("synthbench.render")),
            (pnm, "write_ppm", timed("pnm.write", self._count("bytes_written", file_size))),
            (synthbench, "load_manifest", timed("synthbench.load_manifest")),
            (synthbench.Manifest, "load_pixels", timed("synthbench.load_pixels")),
            (pnm, "read_ppm", timed("pnm.read")),
            (checkpoint, "save", timed(
                "checkpoint.save", self._count("checkpoint_bytes", file_size))),
            (checkpoint, "load_raw", timed("checkpoint.load")),
            (checkpoint, "restore", timed("checkpoint.load")),
        ]

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore it."""
        try:
            for owner, attr, build in self._targets():
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, build(original))
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics from the spans and counts (all but the quality
        and overhead rows, which come from outside the program)."""
        total: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for name, start, end, _ in self.spans:
            total[name] += end - start
            calls[name] += 1

        out: dict[str, float] = {}
        for layer in CONV_LAYERS:
            out[f"diffcore.{layer}.fwd_s"] = total[f"diffcore.fwd.{layer}"]
            out[f"diffcore.{layer}.bwd_s"] = total[f"diffcore.bwd.{layer}"]
        out["diffcore.calls.conv2d"] = sum(
            calls[f"diffcore.fwd.{layer}"] for layer in CONV_LAYERS
        ) + calls["diffcore.fwd.conv2d"]
        for kind in PRIMITIVE_KINDS:
            out[f"diffcore.fwd_s.{kind}"] = total[f"diffcore.fwd.{kind}"]
            out[f"diffcore.bwd_s.{kind}"] = total[f"diffcore.bwd.{kind}"]
            out[f"diffcore.calls.{kind}"] = calls[f"diffcore.fwd.{kind}"]
        out["diffcore.backward_s"] = total["diffcore.backward"]
        out["diffcore.tape_nodes_per_step"] = (
            statistics.fmean(self.tape_nodes) if self.tape_nodes else 0.0
        )
        for name in ("model.forward_train", "model.forward_eval", "encoder.backbone",
                     "dbdl.masks", "dbdl.disentangle", "bpl.absorb", "bpl.intra",
                     "bpl.inter", "trainer.adam", "evalkit.extract", "evalkit.report",
                     "evalkit.rank", "synthbench.render", "pnm.write",
                     "synthbench.load_manifest", "synthbench.load_pixels", "pnm.read",
                     "checkpoint.save", "checkpoint.load"):
            out[name + "_s"] = total[name]
        out.update(self._step_metrics(total["trainer.schedule"]))
        out["evalkit.extract_passes"] = calls["evalkit.extract"]
        out["evalkit.images_extracted"] = self.counts["images_extracted"]
        out["evalkit.distance_matrix_calls"] = calls["evalkit.distance_matrix"]
        out["synthbench.renders"] = calls["synthbench.render"]
        out["pnm.bytes_written"] = self.counts["bytes_written"]
        out["checkpoint.bytes"] = self.counts["checkpoint_bytes"]
        loads = calls["synthbench.load_pixels"]
        decoded = sum(
            1 for name, _, _, parent in self.spans
            if name == "pnm.read" and parent >= 0
            and self.spans[parent][0] == "synthbench.load_pixels"
        )
        out["synthbench.pixel_cache_hit_ratio"] = 1.0 - decoded / loads if loads else 0.0
        return out

    def _step_metrics(self, schedule_s: float) -> dict[str, float]:
        """Training steps run from a batch's ``assemble`` to its ``adam_step``.

        A step is prototype-stage (stage 2) when it calls ``bpl.absorb_batch``;
        data time is the schedule plus each step's time before its forward.
        """
        step_ms = {1: [], 2: []}
        data_s = schedule_s
        start = forward = None
        stage = 1
        for name, begin, end, _ in self.spans:
            if name == "trainer.assemble":
                start, forward, stage = begin, None, 1
            elif name == "model.forward_train" and start is not None and forward is None:
                forward = begin
            elif name == "bpl.absorb" and start is not None:
                stage = 2
            elif name == "trainer.adam" and start is not None:
                step_ms[stage].append(1000.0 * (end - start))
                data_s += (forward if forward is not None else end) - start
                start = None
        return {
            "trainer.step_ms_p50.stage1":
                statistics.median(step_ms[1]) if step_ms[1] else 0.0,
            "trainer.step_ms_p50.stage2":
                statistics.median(step_ms[2]) if step_ms[2] else 0.0,
            "trainer.data_s": data_s,
            "trainer.steps": len(step_ms[1]) + len(step_ms[2]),
        }
