"""Fusion of mask embeddings with the spatial awareness branch.

Three interchangeable variants:
  * tdee: two-way dynamic embedding experts. Both embedding sets are
    projected, split into fusion/router halves, the router halves multiply
    into gates, and the gated layer-normed fusion halves are summed and fed
    through a small output head;
  * eaf: early aggregation fusion. Channel-concat the feature maps and mix
    with a 1x1 conv (applies before decoding);
  * sdi: separable dynamic interaction. Each mask-embedding row generates a
    1-D depthwise kernel plus a low-rank pointwise matrix that transform the
    matching spatial-embedding row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decoder import ln_identity
from .kernels import conv2d_1x1, depthwise_conv1d, gelu, layer_norm, linear, sigmoid
from .tensor import Rng

SDI_KERNEL_SIZE = 3  # k, the length of each query's generated depthwise kernel


@dataclass
class TdeeWeights:
    proj_m: np.ndarray  # (D, d), mask-embedding expert projection, bias-free
    proj_s: np.ndarray  # (D, d), spatial-embedding expert projection, bias-free
    router_m_w: np.ndarray  # (d/2, d/2)
    router_m_b: np.ndarray
    router_s_w: np.ndarray  # (d/2, d/2)
    router_s_b: np.ndarray
    ln_fuse_m: tuple[np.ndarray, np.ndarray]  # over the mask-side fusion half
    ln_fuse_s: tuple[np.ndarray, np.ndarray]
    ln_gate_m: tuple[np.ndarray, np.ndarray]  # over the router pre-activations
    ln_gate_s: tuple[np.ndarray, np.ndarray]
    out_w: np.ndarray  # (d/2, D)
    out_b: np.ndarray
    ln_out: tuple[np.ndarray, np.ndarray]

    def __post_init__(self):
        d = self.proj_m.shape[1]
        if d % 2 != 0 or d < 2:
            raise ValueError(f"TdeeWeights: projection width must be even and >= 2, got {d}")

    @property
    def half(self) -> int:
        return self.proj_m.shape[1] // 2

    @classmethod
    def build(cls, seed: int, width: int, proj_dim: int) -> "TdeeWeights":
        rng = Rng(seed)
        half = proj_dim // 2
        return cls(
            proj_m=rng.normal((width, proj_dim), std=1.0 / np.sqrt(width)),
            proj_s=rng.normal((width, proj_dim), std=1.0 / np.sqrt(width)),
            router_m_w=rng.normal((half, half), std=1.0 / np.sqrt(half)),
            router_m_b=rng.normal((half,), std=0.02),
            router_s_w=rng.normal((half, half), std=1.0 / np.sqrt(half)),
            router_s_b=rng.normal((half,), std=0.02),
            ln_fuse_m=ln_identity(half),
            ln_fuse_s=ln_identity(half),
            ln_gate_m=ln_identity(half),
            ln_gate_s=ln_identity(half),
            out_w=rng.normal((half, width), std=1.0 / np.sqrt(half)),
            out_b=np.zeros(width, dtype=np.float32),
            ln_out=ln_identity(width),
        )

    def swapped(self) -> "TdeeWeights":
        """Exchange the two expert sides with their full parameter sets."""
        return TdeeWeights(
            proj_m=self.proj_s,
            proj_s=self.proj_m,
            router_m_w=self.router_s_w,
            router_m_b=self.router_s_b,
            router_s_w=self.router_m_w,
            router_s_b=self.router_m_b,
            ln_fuse_m=self.ln_fuse_s,
            ln_fuse_s=self.ln_fuse_m,
            ln_gate_m=self.ln_gate_s,
            ln_gate_s=self.ln_gate_m,
            out_w=self.out_w,
            out_b=self.out_b,
            ln_out=self.ln_out,
        )


@dataclass
class TdeeTrace:
    fuse_m: np.ndarray  # mask-side fusion half (N, d/2)
    fuse_s: np.ndarray
    gate_m: np.ndarray  # sigmoid gates, in (0, 1)
    gate_s: np.ndarray
    core: np.ndarray  # gated sum of layer-normed fusion halves (N, d/2)
    out: np.ndarray  # final embeddings (N, D)


def tdee_detailed(mask_embed: np.ndarray, spatial_embed: np.ndarray, w: TdeeWeights) -> TdeeTrace:
    if mask_embed.shape[0] != spatial_embed.shape[0]:
        raise ValueError(
            f"tdee: row counts differ, {mask_embed.shape[0]} vs {spatial_embed.shape[0]}"
        )
    half = w.half
    p = linear(mask_embed, w.proj_m)
    q = linear(spatial_embed, w.proj_s)
    fuse_m, route_m = p[:, :half], p[:, half:]
    fuse_s, route_s = q[:, :half], q[:, half:]
    router_product = route_m * route_s
    gate_m = sigmoid(layer_norm(linear(router_product, w.router_m_w, w.router_m_b), *w.ln_gate_m))
    gate_s = sigmoid(layer_norm(linear(router_product, w.router_s_w, w.router_s_b), *w.ln_gate_s))
    core = gate_m * layer_norm(fuse_m, *w.ln_fuse_m) + gate_s * layer_norm(fuse_s, *w.ln_fuse_s)
    out = gelu(layer_norm(linear(core, w.out_w, w.out_b), *w.ln_out))
    return TdeeTrace(
        fuse_m=fuse_m,
        fuse_s=fuse_s,
        gate_m=gate_m,
        gate_s=gate_s,
        core=core,
        out=out,
    )


def tdee(mask_embed: np.ndarray, spatial_embed: np.ndarray, w: TdeeWeights) -> np.ndarray:
    """Gated two-expert fusion of the embedding rows; returns (N, D)."""
    return tdee_detailed(mask_embed, spatial_embed, w).out


@dataclass
class EafWeights:
    w: np.ndarray  # (D + D_v, D) 1x1 mix of the concatenated channels
    b: np.ndarray

    @classmethod
    def build(cls, seed: int, width: int, vit_width: int) -> "EafWeights":
        rng = Rng(seed)
        fan_in = width + vit_width
        return cls(
            w=rng.normal((width, fan_in), std=1.0 / np.sqrt(fan_in)).T.copy(),
            b=np.zeros(width, dtype=np.float32),
        )


def eaf(features: np.ndarray, spatial_grid_up: np.ndarray, w: EafWeights) -> np.ndarray:
    """Channel-concatenate the two maps and mix with the 1x1 conv."""
    if features.shape[1:] != spatial_grid_up.shape[1:]:
        raise ValueError(
            f"eaf: spatial extents differ, {features.shape[1:]} vs {spatial_grid_up.shape[1:]}"
        )
    stacked = np.concatenate([features, spatial_grid_up], axis=0)
    if w.w.shape[0] != stacked.shape[0]:
        raise ValueError(
            f"eaf: fusion conv expects {w.w.shape[0]} channels, got {stacked.shape[0]}"
        )
    return conv2d_1x1(stacked, w.w, w.b)


@dataclass
class SdiWeights:
    gen_kernel_w: np.ndarray  # (D, k): mask row -> depthwise kernel
    gen_kernel_b: np.ndarray  # (k,)
    gen_left_w: np.ndarray  # (D, D*r): mask row -> left low-rank factor
    gen_left_b: np.ndarray
    gen_right_w: np.ndarray  # (D, D*r): mask row -> right low-rank factor
    gen_right_b: np.ndarray

    @property
    def rank(self) -> int:
        return self.gen_left_w.shape[1] // self.gen_left_w.shape[0]

    @classmethod
    def build(cls, seed: int, width: int, rank: int) -> "SdiWeights":
        rng = Rng(seed)
        std = 1.0 / np.sqrt(width)
        return cls(
            gen_kernel_w=rng.normal((width, SDI_KERNEL_SIZE), std=std),
            gen_kernel_b=np.zeros(SDI_KERNEL_SIZE, dtype=np.float32),
            gen_left_w=rng.normal((width, width * rank), std=std),
            gen_left_b=np.zeros(width * rank, dtype=np.float32),
            gen_right_w=rng.normal((width, width * rank), std=std),
            gen_right_b=np.zeros(width * rank, dtype=np.float32),
        )


def sdi(mask_embed: np.ndarray, spatial_embed: np.ndarray, w: SdiWeights) -> np.ndarray:
    """Per-query depthwise conv then low-rank pointwise map of the spatial rows.

    Row n of the mask embeddings generates kernel(n) and the factors of a
    rank-r pointwise matrix M(n) = L(n) R(n)^T; the output row is
    (spatial row n * kernel(n)) @ M(n).
    """
    n, d = spatial_embed.shape
    kernels = linear(mask_embed, w.gen_kernel_w, w.gen_kernel_b)  # (N, k)
    convolved = depthwise_conv1d(spatial_embed, kernels)
    left = linear(mask_embed, w.gen_left_w, w.gen_left_b).reshape(n, d, w.rank)
    right = linear(mask_embed, w.gen_right_w, w.gen_right_b).reshape(n, d, w.rank)
    mixed = np.einsum("nd,ndr->nr", convolved, left)
    return np.einsum("nr,ndr->nd", mixed, right)
