"""Compact convolutional encoder for 64x32 person crops.

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


def uniform_init(rng: np.random.Generator, shape: tuple[int, ...],
                 fan_in: int, fan_out: int) -> np.ndarray:
    half_width = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-half_width, half_width, size=shape)


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

    def feature_hw(self) -> tuple[int, int]:
        h, w = self.input_hw
        k, p = self.kernel_size, self.padding
        for s in self.strides:
            h = (h + 2 * p - k) // s + 1
            w = (w + 2 * p - k) // s + 1
        return h, w


@dataclass
class ClassifierHeads:
    id_weight: Tensor
    id_bias: Tensor
    clothing_weight: Tensor | None = None
    clothing_bias: Tensor | None = None


def validate_architecture(widths: tuple[int, ...], strides: tuple[int, ...],
                          kernel_size: int) -> None:
    if len(widths) != len(strides):
        raise EncoderConfigError(
            f"widths {widths} and strides {strides} must have equal length"
        )
    if not widths:
        raise EncoderConfigError("need at least one convolution block")
    if any(w < 1 for w in widths):
        raise EncoderConfigError(f"widths must be positive, got {widths}")
    if kernel_size % 2 != 1 or kernel_size < 1:
        raise EncoderConfigError(f"kernel size must be odd and positive, got {kernel_size}")
    if strides[-1] != 1:
        raise EncoderConfigError(
            f"final block stride must be 1 to preserve mask resolution, got {strides[-1]}"
        )
    if any(s < 1 for s in strides):
        raise EncoderConfigError(f"strides must be positive, got {strides}")


def init_encoder(rng: np.random.Generator, *,
                 widths: tuple[int, ...] = DEFAULT_WIDTHS,
                 strides: tuple[int, ...] = DEFAULT_STRIDES,
                 kernel_size: int = DEFAULT_KERNEL,
                 input_hw: tuple[int, int] = (64, 32)) -> EncoderParams:
    validate_architecture(widths, strides, kernel_size)
    weights: list[Tensor] = []
    biases: list[Tensor] = []
    prev = 3  # RGB; infrared is stored as three equal channels
    for width in widths:
        fan_in = prev * kernel_size * kernel_size
        fan_out = width * kernel_size * kernel_size
        weights.append(dc.parameter(uniform_init(
            rng, (width, prev, kernel_size, kernel_size), fan_in, fan_out
        )))
        biases.append(dc.parameter(np.zeros(width)))
        prev = width
    params = EncoderParams(
        weights=weights,
        biases=biases,
        strides=tuple(int(s) for s in strides),
        kernel_size=int(kernel_size),
        input_hw=(int(input_hw[0]), int(input_hw[1])),
    )
    h, w = params.feature_hw()
    if h < 1 or w < 1:
        raise EncoderConfigError(
            f"input {input_hw} collapses to an empty {h}x{w} feature map"
        )
    return params


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


def init_heads(rng: np.random.Generator, dim: int, num_identities: int,
               num_clothing_classes: int | None) -> ClassifierHeads:
    if num_identities < 2:
        raise EncoderConfigError(
            f"identity head needs at least 2 classes, got {num_identities}"
        )
    heads = ClassifierHeads(
        id_weight=dc.parameter(uniform_init(rng, (dim, num_identities), dim, num_identities)),
        id_bias=dc.parameter(np.zeros(num_identities)),
    )
    if num_clothing_classes is not None:
        if num_clothing_classes < 2:
            raise EncoderConfigError(
                f"clothing head needs at least 2 classes, got {num_clothing_classes}"
            )
        heads.clothing_weight = dc.parameter(
            uniform_init(rng, (dim, num_clothing_classes), dim, num_clothing_classes)
        )
        heads.clothing_bias = dc.parameter(np.zeros(num_clothing_classes))
    return heads


def classify(embedding: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Log class probabilities [N,K] for a batch of embeddings [N,D]."""
    return dc.log_softmax(dc.linear(embedding, weight, bias), axis=-1)
