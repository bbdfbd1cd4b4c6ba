"""Dual-branch disentanglement: clothing attention, complementary identity
mask, branch embeddings, and the classification plus orthogonality losses.

The clothing mask comes from spatial attention over the shared feature map:
channel-wise max and average descriptors are stacked into a 2-channel map,
convolved down to 1 channel, and squashed with a sigmoid.  The identity mask
is its complement scaled by a learned suppression coefficient

    m_id = 1 - sigmoid(lambda_raw) * m_c

which keeps both masks in (0, 1] everywhere.  Each masked map goes through
the encoder's one embedding head with its own batch norm; the orthogonality
penalty is mean |cos(f, f_c)| over the batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import diffcore as dc
from . import encoder
from .diffcore import Tensor


class DegenerateFeatureError(ValueError):
    """Raised when a branch embedding collapses below the norm guard."""


DEGENERATE_NORM = 1e-6
DEFAULT_ATTENTION_KERNEL = 7


@dataclass
class AttentionParams:
    weight: Tensor      # [1, 2, k, k]
    bias: Tensor        # [1]
    lambda_raw: Tensor  # scalar, suppression coefficient pre-sigmoid

    @property
    def kernel_size(self) -> int:
        return self.weight.shape[-1]


class MaskPair(NamedTuple):
    clothing: Tensor
    identity: Tensor


def validate_attention_kernel(kernel_size: int) -> None:
    if kernel_size % 2 != 1 or kernel_size < 1:
        raise encoder.EncoderConfigError(
            f"attention kernel size must be odd and positive, got {kernel_size}"
        )


def init_attention(rng: np.random.Generator,
                   kernel_size: int = DEFAULT_ATTENTION_KERNEL) -> AttentionParams:
    validate_attention_kernel(kernel_size)
    fan = 2 * kernel_size * kernel_size
    return AttentionParams(
        weight=dc.parameter(encoder.uniform_init(
            rng, (1, 2, kernel_size, kernel_size), fan, kernel_size * kernel_size
        )),
        bias=dc.parameter(np.zeros(1)),
        # sigmoid(0) = 0.5: suppression starts at half strength
        lambda_raw=dc.parameter(0.0),
    )


def clothing_mask(fmap: Tensor, attn: AttentionParams) -> Tensor:
    """Spatial attention maps [N,1,H',W'] in (0, 1), same H'xW' as the input."""
    descriptor = dc.concat(
        [dc.channel_max_pool(fmap), dc.channel_avg_pool(fmap)], axis=1
    )
    logits = dc.conv2d(
        descriptor, attn.weight, attn.bias, stride=1, padding=attn.kernel_size // 2
    )
    return dc.sigmoid(logits)


def suppression(attn: AttentionParams) -> Tensor:
    return dc.sigmoid(attn.lambda_raw)


def identity_mask(m_clothing: Tensor, attn: AttentionParams) -> Tensor:
    ones = dc.constant(np.ones(m_clothing.shape))
    return dc.sub(ones, dc.mul(suppression(attn), m_clothing))


def build_masks(fmap: Tensor, attn: AttentionParams) -> MaskPair:
    m_c = clothing_mask(fmap, attn)
    return MaskPair(clothing=m_c, identity=identity_mask(m_c, attn))


def disentangle(fmap: Tensor, masks: MaskPair,
                bn_identity: encoder.BatchNormState,
                bn_clothing: encoder.BatchNormState, *,
                training: bool) -> tuple[Tensor, Tensor]:
    """Masked maps to the identity embedding f and clothing embedding f_c."""
    f = encoder.embed(dc.mul(masks.identity, fmap), bn_identity, training=training)
    f_c = encoder.embed(dc.mul(masks.clothing, fmap), bn_clothing, training=training)
    return f, f_c


def cross_entropy(embeddings: Tensor, weight: Tensor, bias: Tensor,
                  labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer ``labels`` under the head."""
    if embeddings.ndim != 2:
        raise dc.ShapeMismatchError(
            f"cross_entropy expects a batch [N, D], got {embeddings.shape}"
        )
    labels = np.asarray(labels)
    n = embeddings.shape[0]
    num_classes = weight.shape[1]
    if labels.shape != (n,):
        raise dc.ShapeMismatchError(
            f"labels shape {labels.shape} must be ({n},)"
        )
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValueError(
            f"labels must lie in [0, {num_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    log_probs = encoder.classify(embeddings, weight, bias)
    onehot = np.zeros((n, num_classes))
    onehot[np.arange(n), labels] = 1.0
    picked = dc.tensor_sum(dc.mul(log_probs, dc.constant(onehot)), axis=-1)
    return dc.scale(dc.mean(picked), -1.0)


class ClassificationTerms(NamedTuple):
    ce_identity: Tensor
    ce_clothing: Tensor


def classification_loss(f: Tensor, f_c: Tensor, y_id: np.ndarray, y_c: np.ndarray,
                        heads: encoder.ClassifierHeads) -> ClassificationTerms:
    """Identity CE on f plus clothing CE on f_c."""
    if heads.clothing_weight is None or heads.clothing_bias is None:
        raise ValueError("classification_loss needs a clothing head")
    ce_id = cross_entropy(f, heads.id_weight, heads.id_bias, y_id)
    ce_clothing = cross_entropy(f_c, heads.clothing_weight, heads.clothing_bias, y_c)
    return ClassificationTerms(ce_identity=ce_id, ce_clothing=ce_clothing)


def orthogonality_loss(f: Tensor, f_c: Tensor) -> Tensor:
    """Mean absolute cosine between paired rows of f and f_c."""
    if f.ndim != 2 or f_c.ndim != 2 or f.shape != f_c.shape:
        raise dc.ShapeMismatchError(
            f"orthogonality_loss expects matching [N, D] batches, got "
            f"{f.shape} and {f_c.shape}"
        )
    for name, tens in (("f", f), ("f_c", f_c)):
        norms = np.sqrt((tens.data**2).sum(axis=1))
        smallest = float(norms.min())
        if smallest <= DEGENERATE_NORM:
            raise DegenerateFeatureError(
                f"{name} contains a row with norm {smallest:.3e} "
                f"<= {DEGENERATE_NORM:.0e}; cosine is unstable"
            )
    cosines = dc.tensor_sum(
        dc.mul(dc.l2_normalize(f, axis=1), dc.l2_normalize(f_c, axis=1)), axis=1
    )
    return dc.mean(dc.absolute(cosines))


def mean_abs_cosine(f: np.ndarray, f_c: np.ndarray) -> float:
    """Plain-array version of the orthogonality measure, for monitoring."""
    return float(np.abs((dc.normalize_rows(f) * dc.normalize_rows(f_c)).sum(axis=1)).mean())
