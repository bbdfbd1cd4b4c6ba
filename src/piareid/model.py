"""Model assembly: encoder, attention, heads, and the batch-norm necks of the
one embedding head (``encoder.embed``) in one state object with a stable
parameter naming scheme; ``bn_clothing`` and the clothing head exist only
with the dual branch (``use_dbdl``)."""

from __future__ import annotations

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


@dataclass(frozen=True)
class ModelConfig(ArchConfig):
    num_identities: int = 8
    num_clothing_classes: int = 16
    seed: int = 0

    @property
    def embedding_dim(self) -> int:
        return encoder.embedding_dim(self.widths)


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


def sized_weight_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """The shapes of the weights that carry the config's sizes (conv,
    attention and head weights), derived without allocating them."""
    shapes = {}
    prev = 3
    for i, width in enumerate(cfg.widths):
        shapes[f"backbone.conv{i}.weight"] = (width, prev, cfg.kernel_size, cfg.kernel_size)
        prev = width
    shapes["heads.id.weight"] = (cfg.embedding_dim, cfg.num_identities)
    if cfg.use_dbdl:
        k = cfg.attention_kernel_size
        shapes["attention.weight"] = (1, 2, k, k)
        shapes["heads.clothing.weight"] = (cfg.embedding_dim, cfg.num_clothing_classes)
    return shapes


def check_attention_kernel(cfg: ArchConfig) -> None:
    """Raise ``EncoderConfigError`` unless the attention kernel is odd and
    positive, and no wider than twice the image's larger side less one.

    The attention conv pads the feature map by half its kernel, so every
    border tap of a wider kernel meets only the zero padding of a map as
    large as the image, and the map is never larger than the image."""
    dbdl.validate_attention_kernel(cfg.attention_kernel_size)
    limit = 2 * max(cfg.image_height, cfg.image_width) - 1
    if cfg.attention_kernel_size > limit:
        raise encoder.EncoderConfigError(
            f"attention kernel size {cfg.attention_kernel_size} exceeds {limit}, the "
            f"widest whose border taps can reach the feature map of a "
            f"{cfg.image_height}x{cfg.image_width} image"
        )


def build_model(cfg: ModelConfig) -> ModelState:
    """Deterministic construction: one rng stream, fixed draw order."""
    rng = np.random.default_rng([cfg.seed, 0])
    backbone = encoder.init_encoder(
        rng,
        widths=cfg.widths,
        strides=cfg.strides,
        kernel_size=cfg.kernel_size,
        input_hw=(cfg.image_height, cfg.image_width),
    )
    attention = dbdl.init_attention(rng, cfg.attention_kernel_size)
    dim = cfg.embedding_dim
    heads = encoder.init_heads(
        rng, dim, cfg.num_identities,
        cfg.num_clothing_classes if cfg.use_dbdl else None,
    )
    return ModelState(
        cfg=cfg,
        backbone=backbone,
        attention=attention,
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
    """Eval-mode (f, f_c) of the ``count`` images in an iterable of
    [N,3,H,W] arrays, each batch's rows written in place into [count, D]
    arrays made up front.  f_c is None unless ``clothing`` is asked for and
    the model has the dual branch; without it, each batch's f_c is still
    made by ``forward_embeddings``, then dropped.  Raises ``ValueError`` when
    the batches hold other than ``count`` images."""
    dim = model.cfg.embedding_dim
    features = np.empty((count, dim))
    clothing_features = np.empty((count, dim)) if clothing and model.cfg.use_dbdl else None
    filled = 0
    for batch in pixel_batches:
        f, f_c, _ = forward_embeddings(model, dc.constant(batch), training=False)
        rows = slice(filled, filled + f.shape[0])
        features[rows] = f.data
        if clothing_features is not None:
            clothing_features[rows] = f_c.data
        filled = rows.stop
    if filled != count:
        raise ValueError(f"{filled} images embedded, {count} expected")
    return features, clothing_features
