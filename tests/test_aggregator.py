"""Backbone, pyramid, and aggregation tests."""

import numpy as np
import pytest

from eovseg import reference
from eovseg.aggregator import (
    AggregatorWeights,
    SyntheticBackbone,
    aggregate,
    build_pyramid,
    extract_features,
)
from eovseg.tensor import Rng

WIDTHS = (4, 6, 8, 8)
D = 8


@pytest.fixture
def backbone():
    return SyntheticBackbone.build(3, WIDTHS)


@pytest.fixture
def agg_weights():
    return AggregatorWeights.build(4, D, WIDTHS)


def test_stride_arithmetic(backbone):
    feats = extract_features(Rng(0).normal((3, 64, 64)), backbone)
    assert feats[2].shape == (WIDTHS[0], 16, 16)
    assert feats[3].shape == (WIDTHS[1], 8, 8)
    assert feats[4].shape == (WIDTHS[2], 4, 4)
    assert feats[5].shape == (WIDTHS[3], 2, 2)


def test_same_seed_bitwise(backbone):
    image = Rng(1).normal((3, 64, 64))
    f1 = extract_features(image, SyntheticBackbone.build(3, WIDTHS))
    f2 = extract_features(image, SyntheticBackbone.build(3, WIDTHS))
    for level in (2, 3, 4, 5):
        assert np.array_equal(f1[level], f2[level])


def test_zero_image_zero_bias_gives_zero_features(backbone):
    for level in backbone.projections:
        w, b = backbone.projections[level]
        backbone.projections[level] = (w, np.zeros_like(b))
    feats = extract_features(np.zeros((3, 64, 64), dtype=np.float32), backbone)
    for level in (2, 3, 4, 5):
        assert np.all(feats[level] == 0)


def test_indivisible_extents_instruct_padding(backbone):
    with pytest.raises(ValueError, match="pad"):
        extract_features(np.zeros((3, 48, 64), dtype=np.float32), backbone)


def test_pyramid_forced_top_path(backbone, agg_weights):
    # zero laterals everywhere except an identity at the top level (D == C5 width)
    from eovseg.kernels import conv2d_3x3

    for level in (2, 3, 4):
        w, b = agg_weights.laterals[level]
        agg_weights.laterals[level] = (np.zeros_like(w), np.zeros_like(b))
    agg_weights.laterals[5] = (np.eye(D, dtype=np.float32), np.zeros(D, np.float32))
    feats = extract_features(Rng(2).normal((3, 64, 64)), backbone)
    pyramid = build_pyramid(feats, agg_weights)
    expected = conv2d_3x3(feats[5], *agg_weights.smooths[5])
    assert np.allclose(pyramid[5], expected, atol=1e-6)


def test_pyramid_constancy_with_identity_weights():
    widths = (D, D, D, D)
    weights = AggregatorWeights.build(9, D, widths)
    for level in (2, 3, 4, 5):
        weights.laterals[level] = (np.eye(D, dtype=np.float32), np.zeros(D, np.float32))
        smooth = np.zeros((D, D, 3, 3), dtype=np.float32)
        for c in range(D):
            smooth[c, c, 1, 1] = 1.0
        weights.smooths[level] = (smooth, np.zeros(D, np.float32))
    feats = {
        level: np.full((D, 32 // 2 ** (level - 2), 32 // 2 ** (level - 2)), 1.5, dtype=np.float32)
        for level in (2, 3, 4, 5)
    }
    pyramid = build_pyramid(feats, weights)
    # constant 1.5 accumulates once per upsample-and-add step down the pathway
    for level, expect in zip((5, 4, 3, 2), (1.5, 3.0, 4.5, 6.0)):
        assert np.allclose(pyramid[level], expect, atol=1e-5)


def test_width_mismatch_rejected(backbone, agg_weights):
    feats = extract_features(Rng(4).normal((3, 64, 64)), backbone)
    feats[3] = feats[3][:2]
    with pytest.raises(ValueError, match="lateral"):
        build_pyramid(feats, agg_weights)


def _constant_pyramid(value: float, hw: int = 16) -> dict[int, np.ndarray]:
    return {
        level: np.full((D, hw // 2 ** (level - 2), hw // 2 ** (level - 2)), value, dtype=np.float32)
        for level in (2, 3, 4, 5)
    }


def test_aggregate_constant_four_term_sum(agg_weights):
    for level in (2, 3, 4, 5):
        agg_weights.level_proj[level] = np.eye(D, dtype=np.float32)
    fuse = np.zeros((D, D, 3, 3), dtype=np.float32)
    for c in range(D):
        fuse[c, c, 1, 1] = 1.0
    agg_weights.fuse = (fuse, np.zeros(D, np.float32))
    out = aggregate(_constant_pyramid(2.0), agg_weights)
    assert out.shape == (D, 16, 16)
    assert np.allclose(out, 8.0, atol=1e-5)  # four constant branches of 2.0


def test_aggregate_vanishing_branches(agg_weights):
    pyramid = _constant_pyramid(0.0)
    pyramid[2] = Rng(5).normal((D, 16, 16))
    from eovseg.kernels import conv2d_1x1, conv2d_3x3

    expected = conv2d_3x3(conv2d_1x1(pyramid[2], agg_weights.level_proj[2], None), *agg_weights.fuse)
    assert np.allclose(aggregate(pyramid, agg_weights), expected, atol=1e-6)


def test_aggregate_output_extents(backbone, agg_weights):
    for h, w in ((64, 64), (32, 96)):
        feats = extract_features(Rng(6).normal((3, h, w)), backbone)
        pyramid = build_pyramid(feats, agg_weights)
        assert {level: p.shape for level, p in pyramid.items()} == {
            level: (D, h // 2**level, w // 2**level) for level in (2, 3, 4, 5)
        }
        out = aggregate(pyramid, agg_weights)
        assert out.shape == (D, h // 4, w // 4)


def test_aggregate_linear_when_fuse_bias_zero(agg_weights):
    agg_weights.fuse = (agg_weights.fuse[0], np.zeros(D, np.float32))
    rng = Rng(7)
    p = _constant_pyramid(0.0)
    q = _constant_pyramid(0.0)
    for level in (2, 3, 4, 5):
        p[level] = rng.normal(p[level].shape)
        q[level] = rng.normal(q[level].shape)
    a, b = 1.7, -0.6
    mixed = {level: (a * p[level] + b * q[level]).astype(np.float32) for level in (2, 3, 4, 5)}
    lhs = aggregate(mixed, agg_weights)
    rhs = a * aggregate(p, agg_weights) + b * aggregate(q, agg_weights)
    assert np.max(np.abs(lhs - rhs)) < 1e-4


def test_full_chain_matches_kernel_composition_oracle(backbone, agg_weights):
    image = Rng(8).normal((3, 32, 32))
    feats = extract_features(image, backbone)
    ref_feats = reference.backbone_reference(image, backbone)
    pyramid = build_pyramid(feats, agg_weights)
    ref_levels = reference.build_pyramid_reference(ref_feats, agg_weights)
    for level in (2, 3, 4, 5):
        assert np.max(np.abs(np.asarray(pyramid[level], np.float64) - ref_levels[level])) < 1e-5
    out = aggregate(pyramid, agg_weights)
    ref = reference.aggregate_reference(ref_levels, agg_weights)
    assert np.max(np.abs(np.asarray(out, np.float64) - ref)) < 1e-5

