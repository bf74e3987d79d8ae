"""Backbone feature extraction, feature pyramid, and multi-scale aggregation.

The backbone is a seeded synthetic stand-in: each stage is a non-overlapping
patch projection (space-to-depth followed by a 1x1 conv, i.e. a strided
convolution with kernel size equal to its stride) plus a relu.  It produces
features at strides 4/8/16/32 with configurable widths; it validates the
computation graph, not pretrained semantics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import bilinear_upsample, conv2d_1x1, conv2d_3x3, relu
from .tensor import Rng

LEVELS = (2, 3, 4, 5)
STAGE_FACTORS = {2: 4, 3: 2, 4: 2, 5: 2}  # downsampling per stage, cumulative 4/8/16/32
IMAGE_MULTIPLE = math.prod(STAGE_FACTORS.values())  # the C5 stride; image extents are multiples of it


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

    projections: dict[int, tuple[np.ndarray, np.ndarray]]  # per level: 1x1 (f^2 C_{i-1}, C_i) + bias

    @classmethod
    def build(cls, seed: int, stage_widths: tuple[int, ...]) -> "SyntheticBackbone":
        rng = Rng(seed)
        projections = {}
        in_ch = 3
        for level, width in zip(LEVELS, stage_widths):
            factor = STAGE_FACTORS[level]
            fan_in = in_ch * factor * factor
            w = rng.normal((width, fan_in), std=1.0 / np.sqrt(fan_in)).T.copy()
            b = rng.normal((width,), std=0.02)
            projections[level] = (w, b)
            in_ch = width
        return cls(projections=projections)


def extract_features(image: np.ndarray, backbone: SyntheticBackbone) -> dict[int, np.ndarray]:
    """Run the stage projections; returns {level: features} at strides 2^level."""
    _, h, w = image.shape
    if h % IMAGE_MULTIPLE or w % IMAGE_MULTIPLE:
        raise ValueError(f"extract_features: image extents {h}x{w} must be divisible by "
                         f"{IMAGE_MULTIPLE}; pad the input")
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

    laterals: dict[int, tuple[np.ndarray, np.ndarray]]  # per level: 1x1 (C_i, D) + bias
    smooths: dict[int, tuple[np.ndarray, np.ndarray]]  # per level: 3x3 (3, 3, D, D) + bias
    level_proj: dict[int, np.ndarray]  # per level: 1x1 (D, D) as (C_in, C_out), bias-free
    fuse: tuple[np.ndarray, np.ndarray]  # 3x3 (3, 3, D, D) + bias

    @classmethod
    def build(cls, seed: int, width: int, stage_widths: tuple[int, ...]) -> "AggregatorWeights":
        rng = Rng(seed)
        laterals = {}
        smooths = {}
        level_proj = {}
        for level, c_in in zip(LEVELS, stage_widths):
            laterals[level] = (
                rng.normal((width, c_in), std=1.0 / np.sqrt(c_in)).T.copy(),
                rng.normal((width,), std=0.02),
            )
        for level in LEVELS:  # each 3x3 is drawn (D, D, 3, 3) and stored tap-major
            w = rng.normal((width, width, 3, 3), std=1.0 / np.sqrt(width * 9))
            smooths[level] = (w.transpose(2, 3, 0, 1).copy(), rng.normal((width,), std=0.02))
        for level in LEVELS:
            level_proj[level] = rng.normal((width, width), std=1.0 / np.sqrt(width)).T.copy()
        w = rng.normal((width, width, 3, 3), std=1.0 / np.sqrt(width * 9))
        fuse = (w.transpose(2, 3, 0, 1).copy(), rng.normal((width,), std=0.02))
        return cls(laterals=laterals, smooths=smooths, level_proj=level_proj, fuse=fuse)


def build_pyramid(feats: dict[int, np.ndarray], weights: AggregatorWeights) -> dict[int, np.ndarray]:
    """Top-down pathway, coarse to fine: lateral 1x1, plus the 2x bilinear
    upsample of the coarser merged map (added in place), then 3x3 smoothing.

    Returns {level: P_level} in ``LEVELS`` order, every level at the
    embedding width and each exactly twice the extent of the next coarser one.
    """
    smoothed, merged = {}, None
    for level in reversed(LEVELS):
        w, b = weights.laterals[level]
        if w.shape[0] != feats[level].shape[0]:
            raise ValueError(
                f"build_pyramid: level {level} width {feats[level].shape[0]} "
                f"does not match lateral weight {w.shape}"
            )
        lateral = conv2d_1x1(feats[level], w, b)
        if merged is not None:
            lateral += bilinear_upsample(merged, 2)
        merged = lateral
        smoothed[level] = conv2d_3x3(merged, *weights.smooths[level])
    return {level: smoothed[level] for level in LEVELS}


def aggregate(pyramid: dict[int, np.ndarray], weights: AggregatorWeights) -> np.ndarray:
    """Collapse the pyramid to stride 4: fuse(sum_i up_i(proj_i(P_i)) + proj_2(P_2)).

    proj is a bias-free 1x1 conv per level, up_i a 2^(i-2)x bilinear
    upsample, fuse a 3x3 pad-1 conv.  Bias-free projections keep the map
    linear in the pyramid whenever the fuse bias is zero.
    """
    acc = conv2d_1x1(pyramid[2], weights.level_proj[2], None)
    for level in (3, 4, 5):
        proj = conv2d_1x1(pyramid[level], weights.level_proj[level], None)
        acc += bilinear_upsample(proj, 2 ** (level - 2))
    w, b = weights.fuse
    return conv2d_3x3(acc, w, b)
