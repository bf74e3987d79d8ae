"""Backbone feature extraction, feature pyramid, and multi-scale aggregation.

The backbone is a seeded synthetic stand-in: each stage is a non-overlapping
patch projection (space-to-depth followed by a 1x1 conv, i.e. a strided
convolution with kernel size equal to its stride) plus a relu.  It produces
features at strides 4/8/16/32 with configurable widths; it validates the
computation graph, not pretrained semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import bilinear_upsample, conv2d_1x1, conv2d_3x3, relu
from .tensor import Rng

LEVELS = (2, 3, 4, 5)
STAGE_FACTORS = {2: 4, 3: 2, 4: 2, 5: 2}  # downsampling per stage, cumulative 4/8/16/32


def space_to_depth(x: np.ndarray, factor: int) -> np.ndarray:
    """(C,H,W) -> (C*factor^2, H/f, W/f); channel order (c, dy, dx)."""
    c, h, w = x.shape
    if h % factor or w % factor:
        raise ValueError(f"space_to_depth: extents {h}x{w} not divisible by {factor}")
    x = x.reshape(c, h // factor, factor, w // factor, factor)
    x = x.transpose(0, 2, 4, 1, 3)
    return np.ascontiguousarray(x.reshape(c * factor * factor, h // factor, w // factor))


@dataclass
class SyntheticBackbone:
    """Seeded stage projections producing C2..C5 at strides 4/8/16/32."""

    projections: dict[int, tuple[np.ndarray, np.ndarray]]  # per level: 1x1 (C_i, f^2 C_{i-1}) + bias

    @classmethod
    def build(cls, seed: int, stage_widths=(64, 128, 256, 512)) -> "SyntheticBackbone":
        rng = Rng(seed)
        projections = {}
        in_ch = 3
        for level, width in zip(LEVELS, stage_widths):
            factor = STAGE_FACTORS[level]
            fan_in = in_ch * factor * factor
            w = rng.normal((width, fan_in), std=1.0 / np.sqrt(fan_in))
            b = rng.normal((width,), std=0.02)
            projections[level] = (w, b)
            in_ch = width
        return cls(projections=projections)


def extract_features(image: np.ndarray, backbone: SyntheticBackbone) -> dict[int, np.ndarray]:
    """Run the stage projections; returns {level: features} at strides 2^level."""
    _, h, w = image.shape
    if h % 32 or w % 32:
        raise ValueError(
            f"extract_features: image extents {h}x{w} must be divisible by 32; pad the input"
        )
    feats: dict[int, np.ndarray] = {}
    x = image
    for level in LEVELS:
        w_proj, b_proj = backbone.projections[level]
        x = relu(conv2d_1x1(space_to_depth(x, STAGE_FACTORS[level]), w_proj, b_proj))
        feats[level] = x
    return feats


@dataclass
class AggregatorWeights:
    """Lateral/smoothing convs for the pyramid plus the per-level 1x1 and 3x3 fuse convs."""

    laterals: dict[int, tuple[np.ndarray, np.ndarray]]  # per level: 1x1 (D, C_i) + bias
    smooths: dict[int, tuple[np.ndarray, np.ndarray]]  # per level: 3x3 (D, D) + bias
    level_proj: dict[int, np.ndarray]  # per level: 1x1 (D, D), bias-free
    fuse: tuple[np.ndarray, np.ndarray]  # 3x3 (D, D) + bias

    @classmethod
    def build(cls, seed: int, width: int, stage_widths=(64, 128, 256, 512)) -> "AggregatorWeights":
        rng = Rng(seed)
        laterals = {}
        smooths = {}
        level_proj = {}
        for level, c_in in zip(LEVELS, stage_widths):
            laterals[level] = (
                rng.normal((width, c_in), std=1.0 / np.sqrt(c_in)),
                rng.normal((width,), std=0.02),
            )
        for level in LEVELS:
            smooths[level] = (
                rng.normal((width, width, 3, 3), std=1.0 / np.sqrt(width * 9)),
                rng.normal((width,), std=0.02),
            )
        for level in LEVELS:
            level_proj[level] = rng.normal((width, width), std=1.0 / np.sqrt(width))
        fuse = (
            rng.normal((width, width, 3, 3), std=1.0 / np.sqrt(width * 9)),
            rng.normal((width,), std=0.02),
        )
        return cls(laterals=laterals, smooths=smooths, level_proj=level_proj, fuse=fuse)


def build_pyramid(feats: dict[int, np.ndarray], weights: AggregatorWeights) -> dict[int, np.ndarray]:
    """Top-down pathway: laterals, 2x bilinear upsample-and-add, 3x3 smoothing.

    Returns {level: P_level}, every level at the embedding width and each
    exactly twice the extent of the next coarser one.
    """
    lat = {}
    for level in LEVELS:
        w, b = weights.laterals[level]
        if w.shape[1] != feats[level].shape[0]:
            raise ValueError(
                f"build_pyramid: level {level} width {feats[level].shape[0]} "
                f"does not match lateral weight {w.shape}"
            )
        lat[level] = conv2d_1x1(feats[level], w, b)
    merged = {5: lat[5]}
    for level in (4, 3, 2):  # fixed coarse-to-fine accumulation order
        merged[level] = lat[level] + bilinear_upsample(merged[level + 1], 2)
    levels = {}
    for level in LEVELS:
        w, b = weights.smooths[level]
        levels[level] = conv2d_3x3(merged[level], w, b)
    return levels


def aggregate(pyramid: dict[int, np.ndarray], weights: AggregatorWeights) -> np.ndarray:
    """Collapse the pyramid to stride 4: fuse(sum_i up_i(proj_i(P_i)) + proj_2(P_2)).

    proj is a bias-free 1x1 conv per level, up_i a 2^(i-2)x bilinear
    upsample, fuse a 3x3 pad-1 conv.  Bias-free projections keep the map
    linear in the pyramid whenever the fuse bias is zero.
    """
    acc = conv2d_1x1(pyramid[2], weights.level_proj[2], None)
    for level in (3, 4, 5):
        proj = conv2d_1x1(pyramid[level], weights.level_proj[level], None)
        acc = acc + bilinear_upsample(proj, 2 ** (level - 2))
    w, b = weights.fuse
    return conv2d_3x3(acc, w, b)
