"""Two-stage training loop: balanced cross-modality batches, Adam with a
staircase learning-rate schedule, and a stage switch that turns on the
prototype-bank losses partway through the run.

Stage I trains the disentangling branch alone (classification plus the
orthogonality penalty).  From ``stage2_start_epoch`` on, each batch also
refreshes the per-identity prototype bank and adds the intra- and
inter-modality prototype-contrastive terms.  One ``stage_objective`` call
returns a batch's terms and their total, so the two cannot disagree; the
training loop and the ``stage1_loss``/``stage2_loss`` checks make it, and
``LossReport.expected_total`` re-verifies a logged total with the same
weighting (``_combine``) from the per-iteration terms of the run's own log.

``TrainRun`` owns all that carries a run from one epoch to the next: the
model, bank, Adam moments, rng, sampler queues, label remaps and epoch
records.  Building it does every check and the set-up, ``epoch`` runs the
next epoch and ``finish`` writes the output files; ``train`` is that loop.
``_step`` runs one batch on a tape of its own: forward, ``bpl.absorb_batch``
when a prototype term is on in Stage II, the terms, backward, ``adam_step``,
and it stops the run on the first term or parameter that is not finite.
An epoch extracts the test split at most once: in the last Stage-I epoch of
a dual-branch model (for ``val_abs_cos``, the mean |cos(f, f_c)|) and in
every ``eval_every``-th epoch (for the retrieval report).

A steady-state step allocates none of its large arrays afresh.  ``train``
runs every epoch in one ``diffcore.Workspace``: each taped conv's ``cols``
comes from it and goes back as backward releases the conv's node (conv0's
also between its forward matmul and ``grad_w``), and a tapeless conv of the
test-split extraction borrows one of the buffers the steps gave back (the
workspace lends by size) and returns it at once.  Every pixel batch stays
uint8, as ``raster_batch`` made it, up to conv0's ``cols``.
So a step after the first epoch takes almost no page faults, whether or not
glibc malloc trimmed the heap in between.  The buffers go when ``train``
returns or raises.  ``eval`` extracts in a workspace of its own, gone before
ranking.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import bpl, checkpoint, dbdl, encoder, evalkit, fileio, kvconfig
from . import diffcore as dc
from . import model as model_mod
from .diffcore import Tensor
from .synthbench import Manifest, SPLIT_TRAIN, VISIBLE

DEFAULT_BASE_LR = 3.5e-4
DEFAULT_LR_DECAY = 0.1
DEFAULT_LAMBDA_ORTH = 0.5
DEFAULT_LAMBDA_INTER = 1.5
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainerError(RuntimeError):
    """Base class for training-loop failures."""


class InsufficientSamplesError(TrainerError):
    """A batch cannot be filled from the available training rows."""


class MissingGradientError(TrainerError):
    """An optimizer step found a parameter without a gradient."""


class NonFiniteTrainingError(TrainerError):
    """A step's loss term, or a parameter after its optimizer update, is not
    finite."""


@dataclass(frozen=True)
class TrainConfig(model_mod.ArchConfig):
    """Hyperparameters for one training run; the architecture fields come
    from ``model.ArchConfig``.

    The defaults are the desk-scale schedule: 30 epochs with the prototype
    stage starting at epoch 18 and the learning rate decaying every 10
    epochs — one third of the full-scale 90/55/30 schedule.
    """

    epochs: int = 30
    stage2_start_epoch: int = 18
    base_lr: float = DEFAULT_BASE_LR
    lr_decay: float = DEFAULT_LR_DECAY
    lr_decay_period_epochs: int = 10
    ids_per_batch: int = 8
    instances_per_modality: int = 4
    lambda_orth: float = DEFAULT_LAMBDA_ORTH
    lambda_inter: float = DEFAULT_LAMBDA_INTER
    tau: float = bpl.DEFAULT_TAU
    alpha: float = bpl.DEFAULT_ALPHA
    flip_probability: float = 0.5
    use_orth: bool = True
    use_intra: bool = True
    use_inter: bool = True
    eval_every: int = 1
    seed: int = 0

    def validate(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0 <= self.stage2_start_epoch:
            raise ValueError("stage2_start_epoch must be >= 0")
        if not 0 < self.base_lr < math.inf:
            raise ValueError("base_lr must be positive and finite")
        if not 0 < self.lr_decay <= 1:
            raise ValueError("lr_decay must be in (0, 1]")
        if self.lr_decay_period_epochs < 1:
            raise ValueError("lr_decay_period_epochs must be >= 1")
        if self.ids_per_batch < 2:
            raise ValueError("ids_per_batch must be >= 2")
        if self.instances_per_modality < 1:
            raise ValueError("instances_per_modality must be >= 1")
        if not 0 <= self.flip_probability <= 1:
            raise ValueError("flip_probability must be in [0, 1]")
        if not 0 < self.tau < math.inf:
            raise ValueError("tau must be positive and finite")
        for name in ("lambda_orth", "lambda_inter"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        if not 0 <= self.alpha < 1:
            raise ValueError("alpha must be in [0, 1)")
        if self.use_orth and not self.use_dbdl:
            raise ValueError("the orthogonality term needs the dual branch enabled")
        if self.eval_every < 0:
            raise ValueError("eval_every must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        super().validate()

    def model_config(self, num_identities: int, num_clothing_classes: int) -> model_mod.ModelConfig:
        return kvconfig.project(self, model_mod.ModelConfig, num_identities=num_identities,
                                num_clothing_classes=num_clothing_classes)


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Staircase schedule: multiply by ``lr_decay`` every decay period."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    return cfg.base_lr * cfg.lr_decay ** (epoch // cfg.lr_decay_period_epochs)


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    """First/second moment accumulators, keyed by parameter name."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step_count: int = 0


def adam_step(params: dict[str, Tensor], state: AdamState, lr: float) -> None:
    """One Adam update (``ADAM_*`` constants) over every parameter;
    gradients must all be present."""
    missing = [name for name, p in params.items() if p.grad is None]
    if missing:
        raise MissingGradientError(
            "optimizer step with missing gradients: " + ", ".join(sorted(missing))
        )
    state.step_count += 1
    t = state.step_count
    for name, p in params.items():
        grad = p.grad
        m = state.m.setdefault(name, np.zeros_like(p.data))
        v = state.v.setdefault(name, np.zeros_like(p.data))
        m[...] = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
        v[...] = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        p.data[...] = p.data - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


# ---------------------------------------------------------------------------
# balanced sampling


class BalancedSampler:
    """Batches of P identities x T visible + T infrared training images.

    Identities cycle through shuffled permutations so every identity is
    visited at the same rate; per-identity image pools reshuffle when
    exhausted.  All randomness comes from the generator passed in, so a
    fixed seed reproduces the exact batch sequence.
    """

    def __init__(self, manifest: Manifest, ids_per_batch: int,
                 instances_per_modality: int):
        self.ids_per_batch = ids_per_batch
        self.instances_per_modality = instances_per_modality
        train_rows = manifest.rows_for_split(SPLIT_TRAIN)
        if not train_rows:
            raise InsufficientSamplesError("manifest has no training rows")
        self.identities = sorted({manifest.rows[i].identity for i in train_rows})
        if ids_per_batch > len(self.identities):
            raise InsufficientSamplesError(
                f"ids_per_batch {ids_per_batch} exceeds the "
                f"{len(self.identities)} training identities"
            )
        self._pools: dict[tuple[int, bool], list[int]] = {}
        for row_index in train_rows:
            row = manifest.rows[row_index]
            key = (row.identity, row.modality == VISIBLE)
            self._pools.setdefault(key, []).append(row_index)
        for identity in self.identities:
            for visible in (True, False):
                pool = self._pools.get((identity, visible), [])
                if len(pool) < instances_per_modality:
                    modality = "visible" if visible else "infrared"
                    raise InsufficientSamplesError(
                        f"identity {identity} has {len(pool)} {modality} training "
                        f"images; need at least {instances_per_modality}"
                    )
        self.total_rows = len(train_rows)
        self._queues: dict[tuple[int, bool], list[int]] = {}

    @property
    def batch_size(self) -> int:
        return 2 * self.ids_per_batch * self.instances_per_modality

    def iterations_per_epoch(self) -> int:
        iterations = self.total_rows // self.batch_size
        if iterations < 1:
            raise InsufficientSamplesError(
                f"batch size {self.batch_size} exceeds the {self.total_rows} "
                "training rows; no full batch fits"
            )
        return iterations

    def epoch_identity_schedule(self, rng: np.random.Generator) -> list[list[int]]:
        """Identity groups for one epoch; each group has distinct identities."""
        schedule: list[list[int]] = []
        queue: list[int] = []
        for _ in range(self.iterations_per_epoch()):
            group: list[int] = []
            while len(group) < self.ids_per_batch:
                if not queue:
                    queue = [self.identities[i] for i in rng.permutation(len(self.identities))]
                for position, candidate in enumerate(queue):
                    if candidate not in group:
                        group.append(queue.pop(position))
                        break
                else:
                    # everything left is a duplicate of this group; start a new cycle
                    queue = []
            schedule.append(group)
        return schedule

    def _draw(self, identity: int, visible: bool, rng: np.random.Generator) -> list[int]:
        key = (identity, visible)
        queue = self._queues.setdefault(key, [])
        picked = []
        for _ in range(self.instances_per_modality):
            if not queue:
                pool = self._pools[key]
                queue.extend(pool[i] for i in rng.permutation(len(pool)))
            picked.append(queue.pop(0))
        return picked

    def assemble(self, group: list[int], rng: np.random.Generator
                 ) -> tuple[list[int], np.ndarray, np.ndarray]:
        """Row indices plus aligned identity/modality arrays, visible half first."""
        rows: list[int] = []
        ids: list[int] = []
        for visible in (True, False):
            for identity in group:
                rows.extend(self._draw(identity, visible, rng))
                ids.extend([identity] * self.instances_per_modality)
        half = len(rows) // 2
        is_visible = np.zeros(len(rows), dtype=bool)
        is_visible[:half] = True
        return rows, np.asarray(ids), is_visible


# ---------------------------------------------------------------------------
# loss assembly and reporting


@dataclass
class StageTerms:
    """Scalar loss tensors for one batch; absent terms stay None."""

    ce_id: Tensor
    ce_clothing: Tensor | None = None
    orth: Tensor | None = None
    intra_v: Tensor | None = None
    intra_i: Tensor | None = None
    inter_v: Tensor | None = None
    inter_i: Tensor | None = None


def _combine(terms, add, scale, lambda_orth: float, lambda_inter: float):
    """The objective's weighting rule, over tensors or over logged floats.

    ce_id [+ ce_clothing] [+ lambda_orth * orth] [+ (intra_v + intra_i)]
    [+ lambda_inter * (inter_v + inter_i)], absent terms skipped.  One
    grouping for both makes a logged total recombine bit for bit.
    """
    total = terms.ce_id
    if terms.ce_clothing is not None:
        total = add(total, terms.ce_clothing)
    if terms.orth is not None:
        total = add(total, scale(terms.orth, lambda_orth))
    if terms.intra_v is not None:
        total = add(total, add(terms.intra_v, terms.intra_i))
    if terms.inter_v is not None:
        total = add(total, scale(add(terms.inter_v, terms.inter_i), lambda_inter))
    return total


def stage_objective(cfg: TrainConfig, stage: int, f: Tensor, f_c: Tensor,
                    heads: encoder.ClassifierHeads, y_id: np.ndarray,
                    y_clothing: np.ndarray, batch: bpl.ModalityBatch,
                    bank: bpl.PrototypeBank) -> tuple[Tensor, StageTerms]:
    """One batch's total loss and the terms it sums, under ``cfg``'s
    ``use_*`` switches and weighted by ``_combine``.

    Stage II adds the prototype terms, which read ``bank`` without changing
    it; the caller absorbs ``batch`` into the bank first.
    """
    if stage not in (1, 2):
        raise ValueError(f"stage must be 1 or 2, got {stage}")
    if cfg.use_dbdl:
        ce_id, ce_clothing = dbdl.classification_loss(f, f_c, y_id, y_clothing, heads)
        orth = dbdl.orthogonality_loss(f, f_c) if cfg.use_orth else None
        terms = StageTerms(ce_id, ce_clothing, orth)
    else:
        terms = StageTerms(dbdl.cross_entropy(f, heads.id_weight, heads.id_bias, y_id))
    if stage == 2 and cfg.use_intra:
        terms.intra_v, terms.intra_i = bpl.intra_loss(batch, bank, tau=cfg.tau)
    if stage == 2 and cfg.use_inter:
        terms.inter_v, terms.inter_i = bpl.inter_loss(batch, bank, tau=cfg.tau)
    return _combine(terms, dc.add, dc.scale, cfg.lambda_orth, cfg.lambda_inter), terms


@dataclass
class LossReport:
    """Logged scalars for one iteration; absent terms are omitted from dicts."""

    epoch: int
    iteration: int
    stage: int
    lr: float
    total: float
    ce_id: float
    ce_clothing: float | None = None
    orth: float | None = None
    intra_v: float | None = None
    intra_i: float | None = None
    inter_v: float | None = None
    inter_i: float | None = None

    def to_dict(self) -> dict:
        return {key: value for key, value in asdict(self).items() if value is not None}

    def expected_total(self, lambda_orth: float, lambda_inter: float) -> float:
        """Recombine the logged terms as ``stage_objective`` combines tensors."""
        return _combine(self, operator.add, operator.mul, lambda_orth, lambda_inter)

    @classmethod
    def from_terms(cls, epoch: int, iteration: int, stage: int, lr: float,
                   total: Tensor, terms: StageTerms) -> "LossReport":
        def value(t: Tensor | None) -> float | None:
            return None if t is None else float(t.data)

        return cls(epoch=epoch, iteration=iteration, stage=stage, lr=lr, total=value(total),
                   **{f.name: value(getattr(terms, f.name)) for f in fields(StageTerms)})


# ---------------------------------------------------------------------------
# training


def _dense_remap(labels: list[int], kind: str) -> dict[int, int]:
    distinct = sorted(set(labels))
    if not distinct:
        raise InsufficientSamplesError(f"no {kind} labels in the training split")
    return {label: index for index, label in enumerate(distinct)}


def _epoch_means(reports: list[LossReport]) -> dict[str, float]:
    means: dict[str, float] = {}
    for key in ("total", *(f.name for f in fields(StageTerms))):
        values = [getattr(r, key) for r in reports if getattr(r, key) is not None]
        if values:
            means[key] = float(np.mean(values))
    return means


class TrainRun:
    """One training run's state, from before its first step to its outputs.

    It holds neither manifest nor workspace, so a ``copy.deepcopy`` between
    epochs continues exactly as the original would.  Building it raises every
    set-up error, e.g. the test split's ``evalkit.ProtocolError`` when any
    epoch evaluates, before a step runs."""

    checkpoint_path: Path | None = None
    log_path: Path | None = None

    def __init__(self, manifest: Manifest, cfg: TrainConfig):
        cfg.validate()
        self.sampler = BalancedSampler(manifest, cfg.ids_per_batch, cfg.instances_per_modality)
        if cfg.eval_every and cfg.eval_every <= cfg.epochs:  # some epoch evaluates
            evalkit.check_protocol(manifest)
        train_rows = [manifest.rows[i] for i in manifest.rows_for_split(SPLIT_TRAIN)]
        self.id_remap = _dense_remap([row.identity for row in train_rows], "identity")
        self.clothing_remap = _dense_remap([row.clothing for row in train_rows], "clothing")
        self.config = cfg
        self.state = model_mod.build_model(cfg.model_config(len(self.id_remap),
                                                            len(self.clothing_remap)))
        self.bank = bpl.PrototypeBank.create(len(self.id_remap), self.state.cfg.embedding_dim,
                                             alpha=cfg.alpha)
        self.adam = AdamState()
        self.rng = np.random.default_rng([cfg.seed, 1])
        self.epoch_records: list[dict] = []

    def epoch(self, manifest: Manifest) -> None:
        """Run the next epoch's steps, then its probe and eval, and append its record."""
        cfg, epoch, sampler, rng = self.config, len(self.epoch_records), self.sampler, self.rng
        stage = 2 if epoch >= cfg.stage2_start_epoch else 1
        lr = lr_at(epoch, cfg)
        reports: list[LossReport] = []
        for iteration, group in enumerate(sampler.epoch_identity_schedule(rng)):
            rows, raw_ids, is_visible = sampler.assemble(group, rng)
            flips = rng.random(len(rows)) < cfg.flip_probability
            pixels = manifest.raster_batch(rows, flips).transpose(0, 3, 1, 2)
            y_id = np.array([self.id_remap[i] for i in raw_ids])
            y_clothing = np.array([self.clothing_remap[manifest.rows[i].clothing] for i in rows])
            reports.append(_step(self, pixels, y_id, y_clothing, is_visible, iteration, stage, lr))
        # the first epoch that absorbs batches must reach every identity
        if self.bank.iteration and not self.bank.fully_initialized:
            raise TrainerError("prototype bank not fully initialized after the first prototype-"
                               "stage epoch; the sampler did not reach every identity")
        record: dict = {"epoch": epoch, "stage": stage, "lr": lr,
                        "iterations": [r.to_dict() for r in reports],
                        "means": _epoch_means(reports)}
        # the probe runs in the last Stage-I epoch
        probe_due = cfg.use_dbdl and epoch == min(cfg.stage2_start_epoch, cfg.epochs) - 1
        eval_due = cfg.eval_every and (epoch + 1) % cfg.eval_every == 0
        if probe_due or eval_due:
            # the clothing embeddings only for the probe
            table = evalkit.test_feature_table(manifest, self.state, clothing=probe_due)
            if probe_due:
                record["val_abs_cos"] = dbdl.mean_abs_cosine(table.features,
                                                             table.clothing_features)
            if eval_due:
                record["eval"] = {direction: report.to_dict() for direction, report
                                  in evalkit.evaluate(table).items()}
        self.epoch_records.append(record)

    def finish(self, out_dir: str | Path) -> None:
        """Write ``checkpoint.bin`` and ``train_log.jsonl`` into ``out_dir``."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        self.checkpoint_path = out / "checkpoint.bin"
        checkpoint.save(self.checkpoint_path, self.state, self.bank,
                        model_mod.model_config_text(self.state.cfg))
        self.log_path = out / "train_log.jsonl"
        lines = "".join(json.dumps(record, sort_keys=False) + "\n"
                        for record in self.epoch_records)
        fileio.write_atomic(self.log_path, lines.encode("utf-8"))


def _step(run: TrainRun, pixels: np.ndarray, y_id: np.ndarray, y_clothing: np.ndarray,
          is_visible: np.ndarray, iteration: int, stage: int, lr: float) -> LossReport:
    """One optimizer step of ``run``'s current epoch over the uint8
    [N, 3, H, W] ``pixels``; returns its logged scalars.

    Backward frees the step's own tape as it walks it, so nothing of the step
    but those scalars and the run's weights, Adam moments and bank outlives it.

    Raises ``NonFiniteTrainingError`` on the first loss term (before
    backward) or parameter (after ``adam_step``) that is not finite, naming
    it and the epoch and iteration, so a run that blew up writes nothing.
    """
    cfg, state, bank = run.config, run.state, run.bank
    epoch = len(run.epoch_records)
    with dc.Tape() as tape:
        f, f_c, _ = model_mod.forward_embeddings(state, dc.pixels(pixels), training=True)
        batch = bpl.ModalityBatch(f, y_id, is_visible)
        if stage == 2 and (cfg.use_intra or cfg.use_inter):
            bpl.absorb_batch(bank, batch)
        total, terms = stage_objective(cfg, stage, f, f_c, state.heads, y_id, y_clothing,
                                       batch, bank)
    report = LossReport.from_terms(epoch, iteration, stage, lr, total, terms)
    where = f"at epoch {epoch} iteration {iteration}"
    # the terms before their total, which any non-finite term makes non-finite
    for name in (*(term.name for term in fields(StageTerms)), "total"):
        value = getattr(report, name)
        if value is not None and not math.isfinite(value):
            raise NonFiniteTrainingError(f"loss term {name} is {value} {where}")
    dc.backward(total, tape)
    params = state.named_parameters()
    adam_step(params, run.adam, lr)
    dc.zero_grads(params.values())
    for name, p in params.items():
        if not np.isfinite(p.data).all():
            raise NonFiniteTrainingError(
                f"parameter {name} is not finite after the optimizer step {where}")
    return report


def train(manifest: Manifest, cfg: TrainConfig, out_dir: str | Path | None = None) -> TrainRun:
    """Run the full two-stage schedule over the manifest's training split, and
    ``finish`` into ``out_dir`` when given.  Identical manifest + config
    reproduce the run bit-for-bit."""
    run = TrainRun(manifest, cfg)
    with dc.Workspace():
        for _ in range(cfg.epochs):
            run.epoch(manifest)
    if out_dir is not None:
        run.finish(out_dir)
    return run
