"""Named finite-difference checks covering every operator and loss.

Each catalog entry is a factory: from a generator it draws one problem
instance and returns ``(build, params, names)``, where ``build(params)``
computes a scalar loss from the parameters it is given.  Most entries are
built by ``_case(op, *inputs, **fixed)``: each ``(name, draw)`` input
becomes a parameter, in order; the ``fixed`` draws then give ``op``'s other
arguments (stride, axis, labels, batch-norm state); a non-scalar output is
reduced by one set of random weights, drawn last.  Losses whose inputs are
drawn jointly keep hand-written factories.  The draws keep inputs away from
the kinks of relu, abs, max-pooling, and the absolute-cosine penalty so the
two-sided difference quotient is a faithful oracle at the default step.
``stage1_loss`` and ``stage2_loss`` check the total of the trainer's own
``stage_objective``, the one call a step makes, from free embeddings;
``pia_stage1`` and ``pia_stage2`` check it through a whole tiny model, from
pixels, with every ``named_parameters()`` entry as an input.  Instances are
seeded by check name, so editing the catalog redraws no other check's.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from . import bpl
from . import dbdl
from . import diffcore as dc
from . import encoder
from . import model
from . import trainer

DEFAULT_CONFIGS = 20

#: The prototype losses divide cosines by a 1/16 temperature, so their
#: softmax curvature is ~256x that of an unsharpened one and the default
#: step's truncation error would dominate.  A tighter step keeps the
#: difference quotient honest while staying far above roundoff.
_STEP_OVERRIDES = {"intra_loss": 1e-6, "inter_loss": 1e-6}

#: Keep sampled inputs at least this far from a non-differentiable point:
#: far beyond the finite-difference step, so both probes stay on one branch.
KINK_MARGIN = 5e-2


class CheckSuiteError(ValueError):
    """Raised for unknown check names and unusable check settings."""


Factory = Callable[[np.random.Generator], tuple]
Draw = Callable[[np.random.Generator], object]


def _normal(*shape: int, scale: float = 1.0) -> Draw:
    return lambda rng: rng.normal(size=shape) * scale


def _away_from_zero(*shape: int) -> Draw:
    """Values with |x| >= KINK_MARGIN, both signs represented."""

    def draw(rng: np.random.Generator) -> np.ndarray:
        magnitude = rng.uniform(KINK_MARGIN, 1.5, size=shape)
        sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
        return magnitude * sign

    return draw


def _split_max_ties(values: np.ndarray, axis: int) -> np.ndarray:
    """Raise each argmax until it clears the runner-up by KINK_MARGIN."""
    arranged = np.moveaxis(values, axis, -1)
    flat = arranged.reshape(-1, arranged.shape[-1])  # a copy unless axis is last
    for row in flat:
        top = int(row.argmax())
        rest = np.delete(row, top)
        if rest.size and row[top] - rest.max() < KINK_MARGIN:
            row[top] = rest.max() + KINK_MARGIN
    arranged[...] = flat.reshape(arranged.shape)
    return values


def _case(op: Callable[..., dc.Tensor], *inputs: tuple[str, Draw], **fixed: Draw) -> Factory:
    """A factory checking ``op`` on drawn ``inputs`` and ``fixed`` keyword arguments."""

    def factory(rng: np.random.Generator):
        params = [dc.parameter(draw(rng)) for _, draw in inputs]
        kwargs = {key: draw(rng) for key, draw in fixed.items()}
        shape = op(*params, **kwargs).data.shape
        weights = dc.constant(rng.normal(size=shape)) if shape else None

        def build(params):
            out = op(*params, **kwargs)
            return out if weights is None else dc.tensor_sum(dc.mul(out, weights))

        return build, params, [name for name, _ in inputs]

    return factory


def _axis(rng: np.random.Generator):
    return [None, 0, 1][int(rng.integers(3))]


def _batch_norm_training(x, gamma, beta, *, state):
    return dc.batch_norm(x, gamma, beta, state=state, training=True)


def _classification(f, f_c, id_weight, id_bias, clothing_weight, clothing_bias, *, y_id, y_c):
    heads = encoder.ClassifierHeads(id_weight, id_bias, clothing_weight, clothing_bias)
    return dc.add(*dbdl.classification_loss(f, f_c, y_id, y_c, heads))


_X = ("x", _normal(3, 4))
_AB = (("a", _normal(3, 4)), ("b", _normal(3, 4)))
#: Classifier heads over 6-wide embeddings: 4 identities, 3 clothing classes.
_HEADS = (
    ("id_weight", _normal(6, 4, scale=0.5)),
    ("id_bias", _normal(4, scale=0.1)),
    ("clothing_weight", _normal(6, 3, scale=0.5)),
    ("clothing_bias", _normal(3, scale=0.1)),
)


# ---------------------------------------------------------------------------
# jointly drawn loss factories (embedding-level problem sizes)


def _orthogonal_pair(rng, shape):
    """Two matrices whose row cosines stay clear of the |cos| = 0 kink."""
    f = rng.normal(size=shape)
    f_c = rng.normal(size=shape)
    for i in range(shape[0]):
        u = f[i] / np.linalg.norm(f[i])
        cos = float(u @ f_c[i] / np.linalg.norm(f_c[i]))
        if abs(cos) < KINK_MARGIN:
            f_c[i] = f_c[i] + np.sign(cos if cos != 0.0 else 1.0) * u * np.linalg.norm(f_c[i]) * 0.3
    return f, f_c


def _make_orthogonality_loss(rng):
    f_data, f_c_data = _orthogonal_pair(rng, (6, 8))
    f = dc.parameter(f_data)
    f_c = dc.parameter(f_c_data)

    def build(params):
        return dbdl.orthogonality_loss(params[0], params[1])

    return build, [f, f_c], ["f", "f_c"]


def _proto_problem(rng, n_ids=4, dim=6):
    # Keep prototypes nearly parallel, as embeddings are early in training.
    # Widely spread prototypes saturate the temperature-sharpened softmax,
    # leaving near-zero gradient entries that finite differences cannot
    # resolve above evaluation roundoff.
    base = rng.normal(size=dim)
    base /= np.linalg.norm(base)

    def cluster(count):
        raw = base[None, :] + 0.15 * rng.normal(size=(count, dim))
        return raw / np.linalg.norm(raw, axis=1, keepdims=True)

    bank = bpl.PrototypeBank.create(n_ids, dim, alpha=0.9)
    bank.protos_v[:] = cluster(n_ids)
    bank.protos_i[:] = cluster(n_ids)
    bank.initialized_v[:] = True
    bank.initialized_i[:] = True
    ids = np.tile(np.arange(n_ids), 2)
    is_visible = np.repeat([True, False], n_ids)
    features = dc.parameter(cluster(2 * n_ids) * rng.uniform(0.5, 2.0))
    return bank, features, ids, is_visible


def _make_proto_loss(loss_fn):
    def factory(rng):
        bank, features, ids, is_visible = _proto_problem(rng)

        def build(params):
            batch = bpl.ModalityBatch(params[0], ids, is_visible)
            return dc.add(*loss_fn(batch, bank, tau=1.0 / 16.0))

        return build, [features], ["features"]

    return factory


def _stage_factory(stage: int):
    cfg = trainer.TrainConfig()

    def factory(rng):
        f = dc.parameter(rng.normal(size=(8, 6)))
        f_c_data = _orthogonal_pair(rng, (8, 6))[1]
        f_c = dc.parameter(f_c_data)
        head_params = [dc.parameter(draw(rng)) for _, draw in _HEADS]
        y_id = np.tile(np.arange(4), 2)
        y_c = rng.integers(0, 3, size=8)
        is_visible = np.repeat([True, False], 4)
        bank, _, _, _ = _proto_problem(rng, n_ids=4, dim=6)

        def build(params):
            f, f_c, *head_params = params
            heads = encoder.ClassifierHeads(*head_params)
            batch = bpl.ModalityBatch(f, y_id, is_visible)
            return trainer.stage_objective(cfg, stage, f, f_c, heads, y_id, y_c, batch, bank)[0]

        names = ["f", "f_c", *(name for name, _ in _HEADS)]
        return build, [f, f_c, *head_params], names

    return factory


#: The composed model's check: 8x4 crops through two conv blocks and a 3x3
#: attention conv, a batch of 2 identities x 2 images in each modality.
_PIA_MODEL = dict(image_height=8, image_width=4, widths=(2, 3), strides=(2, 1),
                  attention_kernel_size=3, num_identities=2, num_clothing_classes=3)


def _with_parameters(state: model.ModelState, params) -> model.ModelState:
    """``state`` with its ``named_parameters()``, in order, replaced by ``params``."""
    p = dict(zip(state.named_parameters(), params))
    convs = range(len(state.backbone.weights))
    return replace(
        state,
        backbone=replace(state.backbone,
                         weights=[p[f"backbone.conv{i}.weight"] for i in convs],
                         biases=[p[f"backbone.conv{i}.bias"] for i in convs]),
        attention=dbdl.AttentionParams(p["attention.weight"], p["attention.bias"],
                                       p["attention.lambda_raw"]),
        bn_identity=replace(state.bn_identity, gamma=p["bn_identity.gamma"],
                            beta=p["bn_identity.beta"]),
        bn_clothing=replace(state.bn_clothing, gamma=p["bn_clothing.gamma"],
                            beta=p["bn_clothing.beta"]),
        heads=encoder.ClassifierHeads(p["heads.id.weight"], p["heads.id.bias"],
                                      p["heads.clothing.weight"], p["heads.clothing.bias"]),
    )


def _pia_factory(stage: int):
    """``stage_objective`` of one training batch, from pixels through the
    model; stage 2 absorbs the batch into the bank once, outside ``build``,
    so that ``build`` reads the bank without changing it."""
    cfg = trainer.TrainConfig()

    def factory(rng):
        state = model.build_model(model.ModelConfig(**_PIA_MODEL,
                                                    seed=int(rng.integers(2**31))))
        # build_model's zero biases put a relu exactly on its kink wherever a
        # conv's input window is all zero, as a dead patch of conv0 makes it;
        # positive ones put it on the live side and keep every channel alive
        for bias in state.backbone.biases:
            bias.data[...] = rng.uniform(KINK_MARGIN, 0.3, size=bias.shape)
        pixels = dc.constant(rng.uniform(size=(8, 3, 8, 4)))
        y_id = np.tile(np.repeat(np.arange(2), 2), 2)
        y_c = rng.integers(0, 3, size=8)
        is_visible = np.repeat([True, False], 4)
        bank = bpl.PrototypeBank.create(2, state.cfg.embedding_dim, alpha=cfg.alpha)
        if stage == 2:
            f = model.forward_embeddings(state, pixels, training=True)[0]
            bpl.absorb_batch(bank, bpl.ModalityBatch(f, y_id, is_visible))

        def build(params):
            moved = _with_parameters(state, params)
            f, f_c, _ = model.forward_embeddings(moved, pixels, training=True)
            batch = bpl.ModalityBatch(f, y_id, is_visible)
            return trainer.stage_objective(cfg, stage, f, f_c, moved.heads, y_id, y_c,
                                           batch, bank)[0]

        named = state.named_parameters()
        return build, list(named.values()), list(named)

    return factory


# ---------------------------------------------------------------------------
# catalog and runners

CATALOG: dict[str, Factory] = {
    # primitives
    "conv2d": _case(
        dc.conv2d,
        ("x", _normal(2, 2, 5, 4)),
        ("weight", _normal(3, 2, 3, 3, scale=0.5)),
        ("bias", _normal(3, scale=0.1)),
        stride=lambda rng: int(rng.integers(1, 3)),
        padding=lambda rng: int(rng.integers(0, 2)),
    ),
    "relu": _case(dc.relu, ("x", _away_from_zero(3, 4))),
    "sigmoid": _case(dc.sigmoid, _X),
    "abs": _case(dc.absolute, ("x", _away_from_zero(3, 4))),
    "add": _case(dc.add, *_AB),
    "sub": _case(dc.sub, *_AB),
    "mul": _case(dc.mul, *_AB),
    "scale": _case(dc.scale, _X, factor=lambda rng: float(rng.normal())),
    "channel_max_pool": _case(
        dc.channel_max_pool,
        ("x", lambda rng: _split_max_ties(rng.normal(size=(2, 4, 3, 3)), axis=1)),
    ),
    "channel_avg_pool": _case(dc.channel_avg_pool, ("x", _normal(2, 4, 3, 3))),
    "global_avg_pool": _case(dc.global_avg_pool, ("x", _normal(2, 3, 4, 5))),
    "global_max_pool": _case(
        dc.global_max_pool,
        ("x", lambda rng: _split_max_ties(rng.normal(size=(2, 3, 20)), -1).reshape(2, 3, 4, 5)),
    ),
    "concat": _case(
        lambda a, b: dc.concat([a, b], axis=1), ("a", _normal(2, 2, 3)), ("b", _normal(2, 3, 3))
    ),
    "linear": _case(
        dc.linear,
        ("x", _normal(4, 3)),
        ("weight", _normal(3, 5, scale=0.5)),
        ("bias", _normal(5, scale=0.1)),
    ),
    "batch_norm": _case(
        _batch_norm_training,
        ("x", _normal(6, 4)),
        ("gamma", lambda rng: rng.uniform(0.5, 1.5, size=4)),
        ("beta", _normal(4, scale=0.2)),
        state=lambda rng: encoder.BatchNormState.create(4),
    ),
    "log_softmax": _case(dc.log_softmax, ("x", _normal(4, 6))),
    "l2_normalize": _case(dc.l2_normalize, ("x", lambda rng: rng.normal(size=(4, 5)) + 0.2)),
    "mean": _case(dc.mean, _X, axis=_axis),
    "sum": _case(dc.tensor_sum, _X, axis=_axis),
    # losses
    "cross_entropy": _case(
        dbdl.cross_entropy,
        ("embeddings", _normal(5, 6)),
        ("weight", _normal(6, 4, scale=0.5)),
        ("bias", _normal(4, scale=0.1)),
        labels=lambda rng: rng.integers(0, 4, size=5),
    ),
    "classification_loss": _case(
        _classification,
        ("f", _normal(5, 6)),
        ("f_c", _normal(5, 6)),
        *_HEADS,
        y_id=lambda rng: rng.integers(0, 4, size=5),
        y_c=lambda rng: rng.integers(0, 3, size=5),
    ),
    "orthogonality_loss": _make_orthogonality_loss,
    "intra_loss": _make_proto_loss(bpl.intra_loss),
    "inter_loss": _make_proto_loss(bpl.inter_loss),
    "stage1_loss": _stage_factory(1),
    "stage2_loss": _stage_factory(2),
    # the composed model
    "pia_stage1": _pia_factory(1),
    "pia_stage2": _pia_factory(2),
}


@dataclass
class CheckResult:
    name: str
    configs: int
    max_rel_error: float
    worst_param: str
    passed: bool


@dataclass
class SuiteResult:
    tol: float
    results: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def format_table(self) -> str:
        width = max(len(r.name) for r in self.results) if self.results else 4
        lines = [f"{'check':<{width}}  configs  max_rel_error  worst          status"]
        for r in self.results:
            lines.append(
                f"{r.name:<{width}}  {r.configs:>7d}  {r.max_rel_error:>13.3e}  "
                f"{r.worst_param:<13s}  {'PASS' if r.passed else 'FAIL'}"
            )
        return "\n".join(lines)


def run_check(name: str, *, configs: int = DEFAULT_CONFIGS, tol: float = dc.DEFAULT_TOL,
              step: float | None = None, seed: int = 0) -> CheckResult:
    if name not in CATALOG:
        known = ", ".join(CATALOG)
        raise CheckSuiteError(f"unknown check {name!r} (known: {known})")
    if configs < 1:
        raise CheckSuiteError(f"configs must be >= 1, got {configs}")
    if step is None:
        step = _STEP_OVERRIDES.get(name, dc.DEFAULT_STEP)
    for label, value in (("step", step), ("tol", tol)):
        if not 0 < value < math.inf:
            raise CheckSuiteError(f"{label} must be positive and finite, got {value!r}")
    factory = CATALOG[name]
    # crc32, not the salted hash(): a row's instances depend on its name only
    name_key = zlib.crc32(name.encode("utf-8"))
    worst = 0.0
    worst_param = "-"
    for config_index in range(configs):
        rng = np.random.default_rng([seed, name_key, config_index])
        build, params, names = factory(rng)
        report = dc.check_gradients(build, params, step=step, tol=tol, names=names)
        for entry in report.entries:
            if entry.max_rel_error >= worst:
                worst = entry.max_rel_error
                worst_param = entry.name
    return CheckResult(
        name=name,
        configs=configs,
        max_rel_error=worst,
        worst_param=worst_param,
        passed=worst < tol,
    )


def run_all(names: Sequence[str] | None = None, *, configs: int = DEFAULT_CONFIGS,
            tol: float = dc.DEFAULT_TOL, step: float | None = None,
            seed: int = 0) -> SuiteResult:
    suite = SuiteResult(tol=tol)
    for name in names if names is not None else CATALOG:
        suite.results.append(
            run_check(name, configs=configs, tol=tol, step=step, seed=seed)
        )
    return suite
