"""Per-modality prototype banks and the prototypical contrastive losses.

Each training identity owns one visible and one infrared prototype, stored
raw (never renormalized).  ``absorb_batch`` is the only update: per
modality, an identity's first batch sets its prototype to the batch mean,
and every later batch applies the momentum rule, an exact entrywise convex
combination of the old prototype and the batch mean:

    p <- alpha * p + (1 - alpha) * mean(batch features of that identity)

Prototypes enter the losses as constants; gradients only flow into the
batch features.  Similarities are cosine (both sides L2-normalized) scaled
by 1/tau before the softmax.  During prototype warm-up the softmax
denominator is restricted to the already-initialized identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor
from .synthbench import INFRARED, VISIBLE

DEFAULT_ALPHA = 0.9
DEFAULT_TAU = 1.0 / 16.0


class UninitializedPrototypeError(RuntimeError):
    """Raised when a loss references an identity with no prototype yet."""


@dataclass
class PrototypeBank:
    protos_v: np.ndarray       # [K, D]
    protos_i: np.ndarray       # [K, D]
    initialized_v: np.ndarray  # [K] bool
    initialized_i: np.ndarray  # [K] bool
    alpha: float
    iteration: int = 0

    @classmethod
    def create(cls, num_identities: int, dim: int,
               alpha: float = DEFAULT_ALPHA) -> "PrototypeBank":
        if num_identities < 1 or dim < 1:
            raise ValueError(
                f"bank needs positive sizes, got K={num_identities}, D={dim}"
            )
        if not 0.0 <= alpha < 1.0:
            raise ValueError(f"momentum alpha must lie in [0, 1), got {alpha}")
        return cls(
            protos_v=np.zeros((num_identities, dim)),
            protos_i=np.zeros((num_identities, dim)),
            initialized_v=np.zeros(num_identities, dtype=bool),
            initialized_i=np.zeros(num_identities, dtype=bool),
            alpha=float(alpha),
        )

    @property
    def num_identities(self) -> int:
        return self.protos_v.shape[0]

    @property
    def fully_initialized(self) -> bool:
        return bool(self.initialized_v.all() and self.initialized_i.all())

    def _side(self, modality: str) -> tuple[np.ndarray, np.ndarray]:
        if modality == VISIBLE:
            return self.protos_v, self.initialized_v
        if modality == INFRARED:
            return self.protos_i, self.initialized_i
        raise ValueError(f"modality must be {VISIBLE!r} or {INFRARED!r}, got {modality!r}")


class ModalityBatch:
    """One balanced training batch seen by the prototype machinery.

    ``features`` is the full [N, D] identity-embedding tensor; ``ids`` and
    ``is_visible`` describe its rows.  Both modality blocks must carry the
    same identity multiset with a common per-identity count.
    """

    def __init__(self, features: Tensor, ids: np.ndarray, is_visible: np.ndarray):
        ids = np.asarray(ids, dtype=np.int64)
        is_visible = np.asarray(is_visible, dtype=bool)
        if features.ndim != 2:
            raise dc.ShapeMismatchError(
                f"batch features must be [N, D], got {features.shape}"
            )
        n = features.shape[0]
        if ids.shape != (n,) or is_visible.shape != (n,):
            raise dc.ShapeMismatchError(
                f"ids {ids.shape} and is_visible {is_visible.shape} must be ({n},)"
            )
        vis_ids, vis_counts = np.unique(ids[is_visible], return_counts=True)
        ir_ids, ir_counts = np.unique(ids[~is_visible], return_counts=True)
        if vis_ids.size == 0 or ir_ids.size == 0:
            raise ValueError("batch must contain both modalities")
        if not np.array_equal(vis_ids, ir_ids) or not np.array_equal(vis_counts, ir_counts):
            raise ValueError(
                "visible and infrared blocks must hold the same identity multiset"
            )
        if np.unique(vis_counts).size != 1:
            raise ValueError(
                f"every identity needs the same instance count, got {vis_counts}"
            )
        self.features = features
        self.ids = ids
        self.is_visible = is_visible
        self.identities = vis_ids

    def modality_rows(self, modality: str) -> np.ndarray:
        if modality == VISIBLE:
            return np.flatnonzero(self.is_visible)
        if modality == INFRARED:
            return np.flatnonzero(~self.is_visible)
        raise ValueError(f"modality must be {VISIBLE!r} or {INFRARED!r}, got {modality!r}")

    def identity_means(self, modality: str) -> dict[int, np.ndarray]:
        rows = self.modality_rows(modality)
        data = self.features.data
        return {
            int(identity): data[rows[self.ids[rows] == identity]].mean(axis=0)
            for identity in self.identities
        }


def absorb_batch(bank: PrototypeBank, batch: ModalityBatch) -> None:
    """The bank's one update: fold ``batch`` in, then advance ``bank.iteration``.

    Per modality, an identity met for the first time takes its batch mean
    exactly; a seen one takes ``alpha * old + (1 - alpha) * mean``.
    """
    ids = batch.identities
    if ids.min() < 0 or ids.max() >= bank.num_identities:
        raise ValueError(
            f"batch identities [{ids.min()}, {ids.max()}] fall "
            f"outside the bank's {bank.num_identities} slots"
        )
    for modality in (VISIBLE, INFRARED):
        protos, flags = bank._side(modality)
        for identity, mean in batch.identity_means(modality).items():
            if flags[identity]:
                protos[identity] = bank.alpha * protos[identity] + (1.0 - bank.alpha) * mean
            else:
                protos[identity] = mean
                flags[identity] = True
    bank.iteration += 1


class ProtoLossTerms(NamedTuple):
    visible: Tensor
    infrared: Tensor


def _normalized_active_prototypes(protos: np.ndarray, flags: np.ndarray,
                                  identities: np.ndarray, side: str):
    active = np.flatnonzero(flags)
    needed = identities[~flags[identities]]
    if needed.size:
        raise UninitializedPrototypeError(
            f"loss references uninitialized {side} prototypes {needed.tolist()}"
        )
    normalized = dc.normalize_rows(protos[active])
    column_of = np.full(protos.shape[0], -1, dtype=np.int64)
    column_of[active] = np.arange(active.size)
    return normalized, column_of


def _protonce(batch: ModalityBatch, rows_modality: str, protos: np.ndarray,
              flags: np.ndarray, tau: float, side: str) -> Tensor:
    """-1/M sum over selected rows of log softmax(cos(f, p)/tau) at the row's id."""
    if tau <= 0.0:
        raise ValueError(f"temperature must be positive, got {tau}")
    rows = batch.modality_rows(rows_modality)
    normalized, column_of = _normalized_active_prototypes(
        protos, flags, batch.identities, side
    )
    features_n = dc.l2_normalize(batch.features, axis=1)
    similarities = dc.linear(
        features_n,
        dc.constant(normalized.T),
        dc.constant(np.zeros(normalized.shape[0])),
    )
    log_probs = dc.log_softmax(dc.scale(similarities, 1.0 / tau), axis=1)
    onehot = np.zeros((batch.features.shape[0], normalized.shape[0]))
    onehot[rows, column_of[batch.ids[rows]]] = 1.0
    picked = dc.tensor_sum(dc.mul(log_probs, dc.constant(onehot)))
    return dc.scale(picked, -1.0 / rows.size)


def intra_loss(batch: ModalityBatch, bank: PrototypeBank,
               tau: float = DEFAULT_TAU) -> ProtoLossTerms:
    """Pull each feature toward its own identity's same-modality prototype."""
    visible = _protonce(batch, VISIBLE, bank.protos_v, bank.initialized_v, tau, "visible")
    infrared = _protonce(batch, INFRARED, bank.protos_i, bank.initialized_i, tau, "infrared")
    return ProtoLossTerms(visible=visible, infrared=infrared)


def inter_loss(batch: ModalityBatch, bank: PrototypeBank,
               tau: float = DEFAULT_TAU) -> ProtoLossTerms:
    """Pull each feature toward its identity's opposite-modality prototype."""
    visible = _protonce(batch, VISIBLE, bank.protos_i, bank.initialized_i, tau, "infrared")
    infrared = _protonce(batch, INFRARED, bank.protos_v, bank.initialized_v, tau, "visible")
    return ProtoLossTerms(visible=visible, infrared=infrared)
