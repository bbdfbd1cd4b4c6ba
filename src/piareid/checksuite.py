"""Named finite-difference checks covering every operator and loss.

Each catalog entry builds small random problem instances and compares the
taped gradients against central finite differences entry by entry.  The
factories keep inputs away from the kinks of relu, abs, max-pooling, and
the absolute-cosine penalty so the two-sided difference quotient is a
faithful oracle at the default step.  ``stage1_loss`` and ``stage2_loss``
run the trainer's own ``stage_terms`` and ``stage_loss``.  Instances are
seeded by check name, so editing the catalog redraws no other check's.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import bpl
from . import dbdl
from . import diffcore as dc
from . import encoder
from . import trainer

DEFAULT_CONFIGS = 20
DEFAULT_TOL = 1e-4
DEFAULT_STEP = 1e-5

#: The prototype losses divide cosines by a 1/16 temperature, so their
#: softmax curvature is ~256x that of an unsharpened one and the default
#: step's truncation error would dominate.  A tighter step keeps the
#: difference quotient honest while staying far above roundoff.
_STEP_OVERRIDES = {"intra_loss": 1e-6, "inter_loss": 1e-6}

#: Keep sampled inputs at least this far from a non-differentiable point:
#: far beyond the finite-difference step, so both probes stay on one branch.
KINK_MARGIN = 5e-2


class CheckSuiteError(ValueError):
    """Raised for unknown check names."""


Factory = Callable[[np.random.Generator], tuple]


def _away_from_zero(rng: np.random.Generator, shape) -> np.ndarray:
    """Values with |x| >= KINK_MARGIN, both signs represented."""
    magnitude = rng.uniform(KINK_MARGIN, 1.5, size=shape)
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return magnitude * sign

def _split_max_ties(values: np.ndarray, axis: int) -> np.ndarray:
    """Raise each argmax until it clears the runner-up by KINK_MARGIN."""
    arranged = np.moveaxis(values, axis, -1)
    flat = arranged.reshape(-1, arranged.shape[-1])
    for row in flat:
        top = int(row.argmax())
        rest = np.delete(row, top)
        if rest.size and row[top] - rest.max() < KINK_MARGIN:
            row[top] = rest.max() + KINK_MARGIN
    return values


def _collapser(rng: np.random.Generator, op: Callable[[], dc.Tensor]):
    """A deterministic scalar reduction for ``op``'s output.

    Runs ``op`` once to learn its output shape, then fixes one set of
    random weights so every later call reduces identically.
    """
    shape = op().data.shape
    if shape == ():
        return op
    weights = rng.normal(size=shape)

    def collapsed() -> dc.Tensor:
        return dc.tensor_sum(dc.mul(op(), dc.constant(weights)))

    return collapsed


# ---------------------------------------------------------------------------
# primitive factories


def _make_conv2d(rng):
    x = dc.parameter(rng.normal(size=(2, 2, 5, 4)))
    w = dc.parameter(rng.normal(size=(3, 2, 3, 3)) * 0.5)
    b = dc.parameter(rng.normal(size=3) * 0.1)
    stride = int(rng.integers(1, 3))
    padding = int(rng.integers(0, 2))
    op = _collapser(rng, lambda: dc.conv2d(x, w, b, stride=stride, padding=padding))
    return (lambda params: op()), [x, w, b], ["x", "weight", "bias"]


def _make_relu(rng):
    x = dc.parameter(_away_from_zero(rng, (3, 4)))
    op = _collapser(rng, lambda: dc.relu(x))
    return (lambda params: op()), [x], ["x"]


def _make_sigmoid(rng):
    x = dc.parameter(rng.normal(size=(3, 4)))
    op = _collapser(rng, lambda: dc.sigmoid(x))
    return (lambda params: op()), [x], ["x"]


def _make_abs(rng):
    x = dc.parameter(_away_from_zero(rng, (3, 4)))
    op = _collapser(rng, lambda: dc.absolute(x))
    return (lambda params: op()), [x], ["x"]


def _make_binary(binary_op):
    def factory(rng):
        a = dc.parameter(rng.normal(size=(3, 4)))
        b = dc.parameter(rng.normal(size=(3, 4)))
        op = _collapser(rng, lambda: binary_op(a, b))
        return (lambda params: op()), [a, b], ["a", "b"]

    return factory


def _make_scale(rng):
    x = dc.parameter(rng.normal(size=(3, 4)))
    factor = float(rng.normal())
    op = _collapser(rng, lambda: dc.scale(x, factor))
    return (lambda params: op()), [x], ["x"]


def _make_channel_max_pool(rng):
    x = dc.parameter(_split_max_ties(rng.normal(size=(2, 4, 3, 3)), axis=1))
    op = _collapser(rng, lambda: dc.channel_max_pool(x))
    return (lambda params: op()), [x], ["x"]


def _make_channel_avg_pool(rng):
    x = dc.parameter(rng.normal(size=(2, 4, 3, 3)))
    op = _collapser(rng, lambda: dc.channel_avg_pool(x))
    return (lambda params: op()), [x], ["x"]


def _make_global_avg_pool(rng):
    x = dc.parameter(rng.normal(size=(2, 3, 4, 5)))
    op = _collapser(rng, lambda: dc.global_avg_pool(x))
    return (lambda params: op()), [x], ["x"]


def _make_global_max_pool(rng):
    values = rng.normal(size=(2, 3, 4, 5))
    flat = values.reshape(2, 3, -1)
    _split_max_ties(flat, axis=-1)
    x = dc.parameter(flat.reshape(2, 3, 4, 5))
    op = _collapser(rng, lambda: dc.global_max_pool(x))
    return (lambda params: op()), [x], ["x"]


def _make_concat(rng):
    a = dc.parameter(rng.normal(size=(2, 2, 3)))
    b = dc.parameter(rng.normal(size=(2, 3, 3)))
    op = _collapser(rng, lambda: dc.concat([a, b], axis=1))
    return (lambda params: op()), [a, b], ["a", "b"]


def _make_linear(rng):
    x = dc.parameter(rng.normal(size=(4, 3)))
    w = dc.parameter(rng.normal(size=(3, 5)) * 0.5)
    b = dc.parameter(rng.normal(size=5) * 0.1)
    op = _collapser(rng, lambda: dc.linear(x, w, b))
    return (lambda params: op()), [x, w, b], ["x", "weight", "bias"]


def _make_batch_norm(rng):
    x = dc.parameter(rng.normal(size=(6, 4)))
    state = encoder.BatchNormState.create(4)
    state.gamma.data[:] = rng.uniform(0.5, 1.5, size=4)
    state.beta.data[:] = rng.normal(size=4) * 0.2
    op = _collapser(
        rng,
        lambda: dc.batch_norm(x, state.gamma, state.beta, state=state, training=True),
    )
    return (lambda params: op()), [x, state.gamma, state.beta], ["x", "gamma", "beta"]


def _make_log_softmax(rng):
    x = dc.parameter(rng.normal(size=(4, 6)))
    op = _collapser(rng, lambda: dc.log_softmax(x))
    return (lambda params: op()), [x], ["x"]


def _make_l2_normalize(rng):
    x = dc.parameter(rng.normal(size=(4, 5)) + 0.2)
    op = _collapser(rng, lambda: dc.l2_normalize(x))
    return (lambda params: op()), [x], ["x"]


def _make_mean(rng):
    x = dc.parameter(rng.normal(size=(3, 4)))
    axis = [None, 0, 1][int(rng.integers(3))]
    op = _collapser(rng, lambda: dc.mean(x, axis=axis))
    return (lambda params: op()), [x], ["x"]


def _make_sum(rng):
    x = dc.parameter(rng.normal(size=(3, 4)))
    axis = [None, 0, 1][int(rng.integers(3))]
    op = _collapser(rng, lambda: dc.tensor_sum(x, axis=axis))
    return (lambda params: op()), [x], ["x"]


# ---------------------------------------------------------------------------
# loss factories (embedding-level problem sizes)


def _make_cross_entropy(rng):
    emb = dc.parameter(rng.normal(size=(5, 6)))
    w = dc.parameter(rng.normal(size=(6, 4)) * 0.5)
    b = dc.parameter(rng.normal(size=4) * 0.1)
    labels = rng.integers(0, 4, size=5)

    def build(params):
        return dbdl.cross_entropy(params[0], params[1], params[2], labels)

    return build, [emb, w, b], ["embeddings", "weight", "bias"]


def _heads(rng, dim, n_id, n_clothing):
    return encoder.ClassifierHeads(
        id_weight=dc.parameter(rng.normal(size=(dim, n_id)) * 0.5),
        id_bias=dc.parameter(rng.normal(size=n_id) * 0.1),
        clothing_weight=dc.parameter(rng.normal(size=(dim, n_clothing)) * 0.5),
        clothing_bias=dc.parameter(rng.normal(size=n_clothing) * 0.1),
    )


def _make_classification_loss(rng):
    f = dc.parameter(rng.normal(size=(5, 6)))
    f_c = dc.parameter(rng.normal(size=(5, 6)))
    heads = _heads(rng, 6, 4, 3)
    y_id = rng.integers(0, 4, size=5)
    y_c = rng.integers(0, 3, size=5)

    def build(params):
        f, f_c, iw, ib, cw, cb = params
        heads = encoder.ClassifierHeads(iw, ib, cw, cb)
        return dc.add(*dbdl.classification_loss(f, f_c, y_id, y_c, heads))

    params = [f, f_c, heads.id_weight, heads.id_bias,
              heads.clothing_weight, heads.clothing_bias]
    names = ["f", "f_c", "id_weight", "id_bias", "clothing_weight", "clothing_bias"]
    return build, params, names


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
        heads = _heads(rng, 6, 4, 3)
        y_id = np.tile(np.arange(4), 2)
        y_c = rng.integers(0, 3, size=8)
        is_visible = np.repeat([True, False], 4)
        bank, _, _, _ = _proto_problem(rng, n_ids=4, dim=6)

        def build(params):
            f, f_c, iw, ib, cw, cb = params
            heads = encoder.ClassifierHeads(iw, ib, cw, cb)
            batch = bpl.ModalityBatch(f, y_id, is_visible)
            terms = trainer.stage_terms(cfg, stage, f, f_c, heads, y_id, y_c, batch, bank)
            return trainer.stage_loss(stage, terms, cfg)

        params = [f, f_c, heads.id_weight, heads.id_bias,
                  heads.clothing_weight, heads.clothing_bias]
        names = ["f", "f_c", "id_weight", "id_bias", "clothing_weight", "clothing_bias"]
        return build, params, names

    return factory


# ---------------------------------------------------------------------------
# catalog and runners

CATALOG: dict[str, Factory] = {
    # primitives
    "conv2d": _make_conv2d,
    "relu": _make_relu,
    "sigmoid": _make_sigmoid,
    "abs": _make_abs,
    "add": _make_binary(dc.add),
    "sub": _make_binary(dc.sub),
    "mul": _make_binary(dc.mul),
    "scale": _make_scale,
    "channel_max_pool": _make_channel_max_pool,
    "channel_avg_pool": _make_channel_avg_pool,
    "global_avg_pool": _make_global_avg_pool,
    "global_max_pool": _make_global_max_pool,
    "concat": _make_concat,
    "linear": _make_linear,
    "batch_norm": _make_batch_norm,
    "log_softmax": _make_log_softmax,
    "l2_normalize": _make_l2_normalize,
    "mean": _make_mean,
    "sum": _make_sum,
    # losses
    "cross_entropy": _make_cross_entropy,
    "classification_loss": _make_classification_loss,
    "orthogonality_loss": _make_orthogonality_loss,
    "intra_loss": _make_proto_loss(bpl.intra_loss),
    "inter_loss": _make_proto_loss(bpl.inter_loss),
    "stage1_loss": _stage_factory(1),
    "stage2_loss": _stage_factory(2),
}

PRIMITIVE_NAMES = tuple(name for name in CATALOG if name in dc.registered_kinds())
LOSS_NAMES = tuple(name for name in CATALOG if name not in dc.registered_kinds())


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


def run_check(name: str, *, configs: int = DEFAULT_CONFIGS, tol: float = DEFAULT_TOL,
              step: float | None = None, seed: int = 0) -> CheckResult:
    if name not in CATALOG:
        known = ", ".join(CATALOG)
        raise CheckSuiteError(f"unknown check {name!r} (known: {known})")
    if step is None:
        step = _STEP_OVERRIDES.get(name, DEFAULT_STEP)
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
            tol: float = DEFAULT_TOL, step: float | None = None,
            seed: int = 0) -> SuiteResult:
    suite = SuiteResult(tol=tol)
    for name in names if names is not None else CATALOG:
        suite.results.append(
            run_check(name, configs=configs, tol=tol, step=step, seed=seed)
        )
    return suite
