"""Lightweight query decoder.

Per layer: pool features under the current masks (initial attention), refine
the object kernels with dynamic depthwise attention, run self-attention + FFN
over the queries, map to mask kernels with a 3-layer MLP, and predict new mask
logits.  Mask embeddings come from normalized soft mask pooling under the
final mask probabilities, which the decoder returns for later stages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import (
    depthwise_conv1d,
    layer_norm,
    linear,
    multi_head_attention,
    relu,
    sigmoid,
)
from .tensor import Rng

MASK_POOL_EPS = 1e-8
MASK_MLP_DEPTH = 3  # (w, b) pairs in the mask-embedding MLP, D->D->D->D


def ln_identity(width: int) -> tuple[np.ndarray, np.ndarray]:
    """The (gamma, beta) pair under which ``layer_norm`` only normalizes."""
    return np.ones(width, dtype=np.float32), np.zeros(width, dtype=np.float32)


@dataclass
class AttentionBlockWeights:
    heads: int
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray

    @classmethod
    def build(cls, rng: Rng, width: int, heads: int) -> "AttentionBlockWeights":
        std = 1.0 / np.sqrt(width)
        return cls(
            heads=heads,
            wq=rng.normal((width, width), std=std),
            wk=rng.normal((width, width), std=std),
            wv=rng.normal((width, width), std=std),
            wo=rng.normal((width, width), std=std),
        )


@dataclass
class DecoderLayerWeights:
    kernel_proj: np.ndarray  # (D, m), bias-free; generates the per-query 1-D kernels
    self_attn: AttentionBlockWeights
    ln_attn: tuple[np.ndarray, np.ndarray]  # pre-norm before self-attention
    ln_ffn: tuple[np.ndarray, np.ndarray]  # pre-norm before the FFN
    ffn_w1: np.ndarray  # (D, 4D)
    ffn_b1: np.ndarray
    ffn_w2: np.ndarray  # (4D, D)
    ffn_b2: np.ndarray


@dataclass
class DecoderWeights:
    layers: list[DecoderLayerWeights]
    mask_mlp: list[tuple[np.ndarray, np.ndarray]]  # three (w, b) pairs, D->D->D->D
    init_kernels: np.ndarray  # (N, D)

    def __post_init__(self):
        if not self.layers:
            raise ValueError("DecoderWeights: at least one layer required")
        m = self.layers[0].kernel_proj.shape[1]
        if m % 2 == 0:
            raise ValueError(f"DecoderWeights: kernel size must be odd, got {m}")

    @classmethod
    def build(
        cls,
        seed: int,
        width: int,
        n_queries: int,
        n_layers: int,
        kernel_size: int,
        heads: int,
        ffn_expansion: int,
    ) -> "DecoderWeights":
        rng = Rng(seed)
        hidden = width * ffn_expansion
        layers = []
        for _ in range(n_layers):
            kernel_proj = rng.normal((width, kernel_size), std=1.0 / np.sqrt(width))
            # draw and drop the cross-attention block that bundles up to generator
            # version 2 stored, so every later draw keeps its values
            rng.normal((4, width, width))
            layers.append(
                DecoderLayerWeights(
                    kernel_proj=kernel_proj,
                    self_attn=AttentionBlockWeights.build(rng, width, heads),
                    ln_attn=ln_identity(width),
                    ln_ffn=ln_identity(width),
                    ffn_w1=rng.normal((width, hidden), std=1.0 / np.sqrt(width)),
                    ffn_b1=np.zeros(hidden, dtype=np.float32),
                    ffn_w2=rng.normal((hidden, width), std=1.0 / np.sqrt(hidden)),
                    ffn_b2=np.zeros(width, dtype=np.float32),
                )
            )
        mask_mlp = [
            (rng.normal((width, width), std=1.0 / np.sqrt(width)), np.zeros(width, dtype=np.float32))
            for _ in range(MASK_MLP_DEPTH)
        ]
        init_kernels = rng.normal((n_queries, width), std=0.1)
        return cls(layers=layers, mask_mlp=mask_mlp, init_kernels=init_kernels)


# ---------------------------------------------------------------------------
# per-layer operations


def initial_attention(features: np.ndarray, logits: np.ndarray) -> np.ndarray:
    """Unnormalized dot product of features with sigmoid mask probabilities.

    features: (D, H', W'); logits: (N, H', W'); returns (N, D).
    """
    d = features.shape[0]
    if features.shape[1:] != logits.shape[1:]:
        raise ValueError(
            f"initial_attention: feature grid {features.shape[1:]} != mask grid {logits.shape[1:]}"
        )
    probs = sigmoid(logits).reshape(logits.shape[0], -1)
    return (probs @ features.reshape(d, -1).T).astype(np.float32, copy=False)


def dda(kernels: np.ndarray, pooled: np.ndarray, kernel_proj: np.ndarray) -> np.ndarray:
    """Dynamic depthwise attention: per-query generated 1-D kernels convolve pooled rows.

    kernels: (N, D) object kernels; pooled: (N, D); kernel_proj: (D, m), m odd.
    """
    generated = linear(kernels, kernel_proj)  # (N, m)
    return depthwise_conv1d(pooled, generated)


def refine_kernels(kernels: np.ndarray, layer: DecoderLayerWeights) -> np.ndarray:
    """Pre-norm self-attention over the queries, then a pre-norm FFN, both residual."""
    g1, b1 = layer.ln_attn
    attn_in = layer_norm(kernels, g1, b1)
    x = kernels + multi_head_attention(
        attn_in,
        attn_in,
        layer.self_attn.wq,
        layer.self_attn.wk,
        layer.self_attn.wv,
        layer.self_attn.wo,
        layer.self_attn.heads,
    )
    g2, b2 = layer.ln_ffn
    ffn_in = layer_norm(x, g2, b2)
    hidden = relu(linear(ffn_in, layer.ffn_w1, layer.ffn_b1))
    return x + linear(hidden, layer.ffn_w2, layer.ffn_b2)


def mask_kernels(kernels: np.ndarray, mlp: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Three-layer MLP, relu between layers, linear last layer."""
    x = kernels
    for i, (w, b) in enumerate(mlp):
        x = linear(x, w, b)
        if i < len(mlp) - 1:
            x = relu(x)
    return x


def predict_masks(kernels: np.ndarray, features: np.ndarray) -> np.ndarray:
    """(N, H', W') mask logits: each kernel dotted with every feature column."""
    d, h, w = features.shape
    if kernels.shape[1] != d:
        raise ValueError(f"predict_masks: kernel width {kernels.shape[1]} != feature width {d}")
    logits = kernels @ features.reshape(d, -1)
    return logits.reshape(kernels.shape[0], h, w).astype(np.float32, copy=False)


def mask_pool(features: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Probability-weighted spatial average of features under each mask.

    features: (D, H', W'); probs: (N, H', W') mask probabilities; returns (N, D).
    """
    d = features.shape[0]
    if features.shape[1:] != probs.shape[1:]:
        raise ValueError(
            f"mask_pool: feature grid {features.shape[1:]} != mask grid {probs.shape[1:]}"
        )
    probs = probs.reshape(probs.shape[0], -1)
    weighted = probs @ features.reshape(d, -1).T
    area = np.sum(probs, axis=1, keepdims=True) + np.float32(MASK_POOL_EPS)
    return (weighted / area).astype(np.float32, copy=False)


# ---------------------------------------------------------------------------
# full forward


def decoder_layer(
    features: np.ndarray,
    kernels: np.ndarray,
    logits: np.ndarray,
    layer: DecoderLayerWeights,
    mask_mlp: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One decoder layer: dda, kernel refinement, new masks.

    Returns the refined kernels, their mask logits and the pooled query features.
    """
    pooled = initial_attention(features, logits)
    kernels = refine_kernels(dda(kernels, pooled, layer.kernel_proj), layer)
    return kernels, predict_masks(mask_kernels(kernels, mask_mlp), features), pooled


def decoder_forward(
    features: np.ndarray, weights: DecoderWeights
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run every decoder layer with dynamic depthwise attention.

    Returns the last layer's (N, H', W') mask logits, the (N, D) mask
    embeddings pooled under them, the refined (N, D) kernels, the last
    layer's pooled query features and the (N, H', W') mask probabilities,
    the one sigmoid of the logits: the decoder row of ``pipeline.STAGES``.
    """
    kernels = weights.init_kernels
    logits = predict_masks(kernels, features)
    for layer in weights.layers:
        kernels, logits, pooled = decoder_layer(features, kernels, logits, layer, weights.mask_mlp)
    probs = sigmoid(logits)
    return logits, mask_pool(features, probs), kernels, pooled, probs
