"""Compact convolutional encoder for 64x32 person crops: the forward math
only, with its parameter dataclasses.  ``model`` holds the architecture's
rules and draws the weights.

Three stride-scheduled conv+relu blocks shrink the input by 8x in each
spatial dimension, so the default 3x64x32 crop becomes a 32x8x4 feature
map.  ``embed`` turns a (masked) map into an embedding: global average
pooling concatenated with global max pooling, then a batch-norm neck.  The
identity and clothing classifier heads are plain linear layers scored with
log-softmax.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor

DEFAULT_WIDTHS = (16, 32, 32)
DEFAULT_STRIDES = (4, 2, 1)
DEFAULT_KERNEL = 3


class EncoderConfigError(ValueError):
    """Raised for structurally invalid encoder settings."""


@dataclass
class BatchNormState:
    gamma: Tensor
    beta: Tensor
    running_mean: np.ndarray
    running_var: np.ndarray

    @classmethod
    def create(cls, dim: int) -> "BatchNormState":
        return cls(
            gamma=dc.parameter(np.ones(dim)),
            beta=dc.parameter(np.zeros(dim)),
            running_mean=np.zeros(dim),
            running_var=np.ones(dim),
        )


@dataclass
class EncoderParams:
    weights: list[Tensor]
    biases: list[Tensor]
    strides: tuple[int, ...]
    kernel_size: int
    input_hw: tuple[int, int]

    @property
    def padding(self) -> int:
        return self.kernel_size // 2


@dataclass
class ClassifierHeads:
    id_weight: Tensor
    id_bias: Tensor
    clothing_weight: Tensor | None = None
    clothing_bias: Tensor | None = None


def embedding_dim(widths: tuple[int, ...]) -> int:
    """Average- and max-pooled halves of the last block's channels."""
    return 2 * widths[-1]


def forward_backbone(pixels: Tensor, params: EncoderParams) -> Tensor:
    """Image batch [N,3,H,W] to feature maps [N,C',H',W']."""
    expected_c = params.weights[0].shape[1]
    shape = pixels.shape
    if len(shape) != 4:
        raise dc.ShapeMismatchError(
            f"backbone expects [N,3,H,W], got {shape}"
        )
    _, c, h, w = shape
    if c != expected_c or (h, w) != params.input_hw:
        raise dc.ShapeMismatchError(
            f"backbone configured for {expected_c}x{params.input_hw[0]}"
            f"x{params.input_hw[1]} input, got {c}x{h}x{w}"
        )
    out = pixels
    for weight, bias, stride in zip(params.weights, params.biases, params.strides):
        out = dc.relu(dc.conv2d(out, weight, bias, stride=stride, padding=params.padding))
    return out


def embed(fmap: Tensor, bn: BatchNormState, *, training: bool) -> Tensor:
    """Feature maps [N,C,H,W] to [N,2C] embeddings: GAP then GMP, then BN."""
    pooled = dc.concat([dc.global_avg_pool(fmap), dc.global_max_pool(fmap)], axis=-1)
    return dc.batch_norm(pooled, bn.gamma, bn.beta, state=bn, training=training)


def classify(embedding: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Log class probabilities [N,K] for a batch of embeddings [N,D]."""
    return dc.log_softmax(dc.linear(embedding, weight, bias), axis=-1)
