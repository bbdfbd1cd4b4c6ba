"""Model assembly: encoder, attention, heads, and the batch-norm necks of the
one embedding head (``encoder.embed``) in one state object with a stable
parameter naming scheme; ``bn_clothing`` and the clothing head exist only
with the dual branch (``use_dbdl``).  This module alone holds the
architecture's rules (``ModelConfig.validate``) and the table of the weights
the model draws (``ModelConfig.weight_shapes``)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dbdl
from . import diffcore as dc
from . import encoder
from . import kvconfig
from .diffcore import Tensor


@dataclass(frozen=True)
class ArchConfig:
    """The architecture fields, shared by the model and the training config."""

    image_height: int = 64
    image_width: int = 32
    widths: tuple[int, ...] = encoder.DEFAULT_WIDTHS
    strides: tuple[int, ...] = encoder.DEFAULT_STRIDES
    kernel_size: int = encoder.DEFAULT_KERNEL
    attention_kernel_size: int = dbdl.DEFAULT_ATTENTION_KERNEL
    use_dbdl: bool = True

    def validate(self) -> None:
        """Raise ``EncoderConfigError`` for an architecture the model cannot have.

        A conv block pads by half its odd kernel, so it maps a side h >= 1 to
        (h - 1) // stride + 1 >= 1.  The attention conv pads the feature map,
        never larger than the image, by half its kernel too: each border tap
        of a kernel wider than the bound below meets only zero padding."""
        widths, strides = tuple(self.widths), tuple(self.strides)
        if len(widths) != len(strides):
            raise encoder.EncoderConfigError(
                f"widths {widths} and strides {strides} must have equal length"
            )
        if not widths:
            raise encoder.EncoderConfigError("need at least one convolution block")
        if any(w < 1 for w in widths):
            raise encoder.EncoderConfigError(f"widths must be positive, got {widths}")
        if self.kernel_size % 2 != 1 or self.kernel_size < 1:
            raise encoder.EncoderConfigError(
                f"kernel size must be odd and positive, got {self.kernel_size}"
            )
        if strides[-1] != 1:
            raise encoder.EncoderConfigError(
                f"final block stride must be 1 to preserve mask resolution, got {strides[-1]}"
            )
        if any(s < 1 for s in strides):
            raise encoder.EncoderConfigError(f"strides must be positive, got {strides}")
        if min(self.image_height, self.image_width) < 1:
            raise encoder.EncoderConfigError(
                f"image sides must be positive, got {self.image_height}x{self.image_width}"
            )
        k = self.attention_kernel_size
        if k % 2 != 1 or k < 1:
            raise encoder.EncoderConfigError(
                f"attention kernel size must be odd and positive, got {k}"
            )
        limit = 2 * max(self.image_height, self.image_width) - 1
        if k > limit:
            raise encoder.EncoderConfigError(
                f"attention kernel size {k} exceeds {limit}, the "
                f"widest whose border taps can reach the feature map of a "
                f"{self.image_height}x{self.image_width} image"
            )


@dataclass(frozen=True)
class ModelConfig(ArchConfig):
    num_identities: int = 8
    num_clothing_classes: int = 16
    seed: int = 0

    @property
    def embedding_dim(self) -> int:
        return encoder.embedding_dim(self.widths)

    def validate(self) -> None:
        """``ArchConfig.validate``, then each head's class count."""
        super().validate()
        if self.num_identities < 2:
            raise encoder.EncoderConfigError(
                f"identity head needs at least 2 classes, got {self.num_identities}"
            )
        if self.use_dbdl and self.num_clothing_classes < 2:
            raise encoder.EncoderConfigError(
                f"clothing head needs at least 2 classes, got {self.num_clothing_classes}"
            )

    def weight_shapes(self) -> dict[str, tuple[int, ...]]:
        """The shapes of the weights ``build_model`` draws, in draw order.

        Conv weights are [out, in, kh, kw], head weights [in, out].  The
        attention weights are drawn even without the dual branch, whose
        model does not name them, so that the heads' draws do not depend
        on it."""
        k, ka, dim = self.kernel_size, self.attention_kernel_size, self.embedding_dim
        channels = (3, *self.widths)  # RGB; infrared is stored as three equal channels
        shapes = {f"backbone.conv{i}.weight": (width, channels[i], k, k)
                  for i, width in enumerate(self.widths)}
        shapes["attention.weight"] = (1, 2, ka, ka)
        shapes["heads.id.weight"] = (dim, self.num_identities)
        if self.use_dbdl:
            shapes["heads.clothing.weight"] = (dim, self.num_clothing_classes)
        return shapes


@dataclass
class ModelState:
    cfg: ModelConfig
    backbone: encoder.EncoderParams
    attention: dbdl.AttentionParams
    heads: encoder.ClassifierHeads
    bn_identity: encoder.BatchNormState
    bn_clothing: encoder.BatchNormState | None

    def named_parameters(self) -> dict[str, Tensor]:
        """Every trainable tensor under the active configuration, in a fixed order."""
        named: dict[str, Tensor] = {}
        for i, (weight, bias) in enumerate(zip(self.backbone.weights, self.backbone.biases)):
            named[f"backbone.conv{i}.weight"] = weight
            named[f"backbone.conv{i}.bias"] = bias
        if self.cfg.use_dbdl:
            named["attention.weight"] = self.attention.weight
            named["attention.bias"] = self.attention.bias
            named["attention.lambda_raw"] = self.attention.lambda_raw
        named["bn_identity.gamma"] = self.bn_identity.gamma
        named["bn_identity.beta"] = self.bn_identity.beta
        if self.cfg.use_dbdl:
            named["bn_clothing.gamma"] = self.bn_clothing.gamma
            named["bn_clothing.beta"] = self.bn_clothing.beta
        named["heads.id.weight"] = self.heads.id_weight
        named["heads.id.bias"] = self.heads.id_bias
        if self.cfg.use_dbdl:
            named["heads.clothing.weight"] = self.heads.clothing_weight
            named["heads.clothing.bias"] = self.heads.clothing_bias
        return named

    def named_buffers(self) -> dict[str, np.ndarray]:
        buffers: dict[str, np.ndarray] = {}
        for tag, bn in (("bn_identity", self.bn_identity), ("bn_clothing", self.bn_clothing)):
            if bn is not None:
                buffers[f"{tag}.running_mean"] = bn.running_mean
                buffers[f"{tag}.running_var"] = bn.running_var
        return buffers


def _glorot(rng: np.random.Generator, shape: tuple[int, ...]) -> Tensor:
    """Uniform in +-sqrt(6 / (fan_in + fan_out)).  A 4-D [out, in, kh, kw]
    shape has fans in*kh*kw and out*kh*kw, a 2-D [in, out] shape its dims:
    either way they sum to (shape[0] + shape[1]) * prod(shape[2:])."""
    half_width = np.sqrt(6.0 / ((shape[0] + shape[1]) * math.prod(shape[2:])))
    return dc.parameter(rng.uniform(-half_width, half_width, size=shape))


def build_model(cfg: ModelConfig) -> ModelState:
    """Deterministic construction: one rng stream, the weights drawn in
    ``cfg.weight_shapes()`` order, zero biases."""
    cfg.validate()
    rng = np.random.default_rng([cfg.seed, 0])
    drawn = {name: _glorot(rng, shape) for name, shape in cfg.weight_shapes().items()}
    dim = cfg.embedding_dim
    heads = encoder.ClassifierHeads(drawn["heads.id.weight"],
                                    dc.parameter(np.zeros(cfg.num_identities)))
    if cfg.use_dbdl:
        heads.clothing_weight = drawn["heads.clothing.weight"]
        heads.clothing_bias = dc.parameter(np.zeros(cfg.num_clothing_classes))
    return ModelState(
        cfg=cfg,
        backbone=encoder.EncoderParams(
            weights=[drawn[f"backbone.conv{i}.weight"] for i in range(len(cfg.widths))],
            biases=[dc.parameter(np.zeros(width)) for width in cfg.widths],
            strides=tuple(cfg.strides),
            kernel_size=cfg.kernel_size,
            input_hw=(cfg.image_height, cfg.image_width),
        ),
        attention=dbdl.AttentionParams(
            weight=drawn["attention.weight"],
            bias=dc.parameter(np.zeros(1)),
            # sigmoid(0) = 0.5: suppression starts at half strength
            lambda_raw=dc.parameter(0.0),
        ),
        heads=heads,
        bn_identity=encoder.BatchNormState.create(dim),
        bn_clothing=encoder.BatchNormState.create(dim) if cfg.use_dbdl else None,
    )


def model_config_text(cfg: ModelConfig) -> str:
    """Flat ``key = value`` rendering, sufficient to rebuild the model."""
    return kvconfig.format_text(cfg)


def parse_model_config_text(text: str) -> ModelConfig:
    """The inverse of ``model_config_text``; every field must be present."""
    return kvconfig.from_pairs(ModelConfig, kvconfig.parse_pairs(text), complete=True)


def forward_embeddings(model: ModelState, pixels: Tensor, *, training: bool):
    """Pixels to (f, f_c, masks); f_c and masks are None without the dual branch."""
    fmap = encoder.forward_backbone(pixels, model.backbone)
    if not model.cfg.use_dbdl:
        return encoder.embed(fmap, model.bn_identity, training=training), None, None
    masks = dbdl.build_masks(fmap, model.attention)
    f, f_c = dbdl.disentangle(
        fmap, masks, model.bn_identity, model.bn_clothing, training=training,
    )
    return f, f_c, masks


def extract_embeddings(model: ModelState, pixel_batches, count: int, *,
                       clothing: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Eval-mode (f, f_c) of the ``count`` images in an iterable of uint8
    [N,3,H,W] arrays (``diffcore.pixels``), each batch's rows written in
    place into [count, D] arrays made up front.  f_c is None unless
    ``clothing`` is asked for and the model has the dual branch; without it,
    each batch's f_c is still made by ``forward_embeddings``, then dropped.
    Raises ``ValueError`` when the batches hold other than ``count`` images."""
    dim = model.cfg.embedding_dim
    features = np.empty((count, dim))
    clothing_features = np.empty((count, dim)) if clothing and model.cfg.use_dbdl else None
    filled = 0
    for batch in pixel_batches:
        f, f_c, _ = forward_embeddings(model, dc.pixels(batch), training=False)
        rows = slice(filled, filled + f.shape[0])
        features[rows] = f.data
        if clothing_features is not None:
            clothing_features[rows] = f_c.data
        filled = rows.stop
    if filled != count:
        raise ValueError(f"{filled} images embedded, {count} expected")
    return features, clothing_features
