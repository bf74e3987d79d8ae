"""Spatial awareness branch: one ViT block over 16x16 patches, then 4x upsampling.

Weights are synthetic and seeded.  The block is the standard pre-norm kind
(patchify, class token, learned positional table, MHSA + MLP with residuals);
the class token is dropped and the remaining tokens reshaped to a grid before
two stride-2 transposed convolutions bring the map to stride 4 at the decoder
width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decoder import AttentionBlockWeights, ln_identity, mask_pool
from .kernels import gelu, layer_norm, linear, multi_head_attention, transposed_conv2d
from .tensor import Rng

PATCH = 16


@dataclass
class VitBlockWeights:
    patch_w: np.ndarray  # (3*16*16, D_v)
    patch_b: np.ndarray  # (D_v,)
    class_token: np.ndarray  # (D_v,)
    pos_table: np.ndarray  # (1 + n_patches, D_v), class slot first
    ln_attn: tuple[np.ndarray, np.ndarray]
    ln_mlp: tuple[np.ndarray, np.ndarray]
    attn: AttentionBlockWeights
    mlp_w1: np.ndarray  # (D_v, 4*D_v)
    mlp_b1: np.ndarray
    mlp_w2: np.ndarray  # (4*D_v, D_v)
    mlp_b2: np.ndarray

    @classmethod
    def build(cls, seed: int, width: int, heads: int, grid_hw: tuple[int, int]) -> "VitBlockWeights":
        if width % heads != 0:
            raise ValueError(f"VitBlockWeights: width {width} not divisible by {heads} heads")
        rng = Rng(seed)
        n_tokens = 1 + grid_hw[0] * grid_hw[1]
        fan_in = 3 * PATCH * PATCH
        hidden = 4 * width
        return cls(
            patch_w=rng.normal((fan_in, width), std=1.0 / np.sqrt(fan_in)),
            patch_b=rng.normal((width,), std=0.02),
            class_token=rng.normal((width,), std=0.02),
            pos_table=rng.normal((n_tokens, width), std=0.02),
            ln_attn=ln_identity(width),
            ln_mlp=ln_identity(width),
            attn=AttentionBlockWeights.build(rng, width, heads),
            mlp_w1=rng.normal((width, hidden), std=1.0 / np.sqrt(width)),
            mlp_b1=np.zeros(hidden, dtype=np.float32),
            mlp_w2=rng.normal((hidden, width), std=1.0 / np.sqrt(hidden)),
            mlp_b2=np.zeros(width, dtype=np.float32),
        )


@dataclass
class UpsamplerWeights:
    """Two stride-2 transposed convolutions, D_v -> D_v -> D."""

    w1: np.ndarray  # (D_v, D_v, 2, 2)
    b1: np.ndarray
    w2: np.ndarray  # (D_v, D, 2, 2)
    b2: np.ndarray

    @classmethod
    def build(cls, seed: int, vit_width: int, out_width: int) -> "UpsamplerWeights":
        rng = Rng(seed)
        return cls(
            w1=rng.normal((vit_width, vit_width, 2, 2), std=1.0 / np.sqrt(vit_width * 4)),
            b1=rng.normal((vit_width,), std=0.02),
            w2=rng.normal((vit_width, out_width, 2, 2), std=1.0 / np.sqrt(vit_width * 4)),
            b2=rng.normal((out_width,), std=0.02),
        )


def patchify(image: np.ndarray) -> np.ndarray:
    """(3,H,W) -> (H/16 * W/16, 3*16*16) rows in row-major grid order."""
    c, h, w = image.shape
    if h % PATCH or w % PATCH:
        raise ValueError(f"patchify: extents {h}x{w} must be divisible by {PATCH}")
    gh, gw = h // PATCH, w // PATCH
    x = image.reshape(c, gh, PATCH, gw, PATCH)
    x = x.transpose(1, 3, 0, 2, 4)  # (gh, gw, c, py, px)
    return np.ascontiguousarray(x.reshape(gh * gw, c * PATCH * PATCH))


def vit_block_features(image: np.ndarray, w: VitBlockWeights) -> np.ndarray:
    """Tokens through one pre-norm transformer block, class token dropped, grid reshaped."""
    _, h, wd = image.shape
    gh, gw = h // PATCH, wd // PATCH
    patches = patchify(image)
    if w.pos_table.shape[0] != 1 + gh * gw:
        raise ValueError(
            f"vit_block_features: positional table holds {w.pos_table.shape[0]} tokens, "
            f"image needs {1 + gh * gw}"
        )
    tokens = linear(patches, w.patch_w, w.patch_b)
    tokens = np.concatenate([w.class_token[None, :], tokens], axis=0)
    tokens = tokens + w.pos_table
    g1, b1 = w.ln_attn
    attn_in = layer_norm(tokens, g1, b1)
    tokens = tokens + multi_head_attention(
        attn_in, attn_in, w.attn.wq, w.attn.wk, w.attn.wv, w.attn.wo, w.attn.heads
    )
    g2, b2 = w.ln_mlp
    mlp_in = layer_norm(tokens, g2, b2)
    tokens = tokens + linear(gelu(linear(mlp_in, w.mlp_w1, w.mlp_b1)), w.mlp_w2, w.mlp_b2)
    grid = tokens[1:].reshape(gh, gw, -1).transpose(2, 0, 1)  # drop class token
    return np.ascontiguousarray(grid)


def spatial_features(grid: np.ndarray, w: UpsamplerWeights) -> np.ndarray:
    """4x upsampling via the two stride-2 transposed convolutions."""
    mid = transposed_conv2d(grid, w.w1, w.b1)
    return transposed_conv2d(mid, w.w2, w.b2)


def spatial_embeddings(features: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Per-query rows of the spatial features pooled under the decoder's mask
    probabilities; same pooling as the decoder."""
    return mask_pool(features, probs)
