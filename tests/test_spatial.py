"""Spatial awareness branch tests: ViT block, upsampler, pooled embeddings."""

import numpy as np
import pytest

from eovseg import reference
from eovseg.spatial import (
    UpsamplerWeights,
    VitBlockWeights,
    patchify,
    spatial_embeddings,
    spatial_features,
    vit_block_features,
)
from eovseg.kernels import sigmoid
from eovseg.tensor import Rng

DV, D = 8, 12


def vit_weights(seed=0, grid=(2, 2)):
    return VitBlockWeights.build(seed, DV, heads=2, grid_hw=grid)


def test_patch_arithmetic():
    w = vit_weights(grid=(4, 4))
    out = vit_block_features(Rng(1).normal((3, 64, 64)), w)
    assert out.shape == (DV, 4, 4)


def test_indivisible_extents_rejected():
    with pytest.raises(ValueError, match="divisible"):
        patchify(np.zeros((3, 40, 64), dtype=np.float32))


def test_pos_table_sized_for_grid():
    w = vit_weights(grid=(2, 2))
    with pytest.raises(ValueError, match="positional"):
        vit_block_features(np.zeros((3, 64, 64), dtype=np.float32), w)


def _forced_residual_identity(w: VitBlockWeights) -> VitBlockWeights:
    w.attn.wo = np.zeros_like(w.attn.wo)
    w.mlp_w2 = np.zeros_like(w.mlp_w2)
    w.pos_table = np.zeros_like(w.pos_table)
    return w


def test_residual_identity_gives_raw_patch_embeddings():
    w = _forced_residual_identity(vit_weights(2))
    image = Rng(3).normal((3, 32, 32))
    out = vit_block_features(image, w)
    from eovseg.kernels import linear

    expected = linear(patchify(image), w.patch_w, w.patch_b).reshape(2, 2, DV).transpose(2, 0, 1)
    assert np.array_equal(out, expected)


def test_rotation_equivariance_patch_embedding_path():
    # spatially-uniform dyadic patch kernels + integer image make the patch sum
    # exact in float32, so the grid rotates bitwise with the image
    w = _forced_residual_identity(vit_weights(4))
    base = Rng(5).integers(-4, 5, size=(3, DV)).astype(np.float32) * 0.25
    patch_w = np.zeros((3 * 256, DV), dtype=np.float32)
    for c in range(3):
        patch_w[c * 256 : (c + 1) * 256] = base[c]
    w.patch_w = patch_w
    w.patch_b = np.zeros(DV, dtype=np.float32)
    image = Rng(6).integers(0, 8, size=(3, 32, 32)).astype(np.float32)
    rotated = np.ascontiguousarray(np.rot90(image, k=1, axes=(1, 2)))
    out = vit_block_features(image, w)
    out_rot = vit_block_features(rotated, w)
    assert np.array_equal(out_rot, np.rot90(out, k=1, axes=(1, 2)))


def test_vit_loop_oracle_32x32():
    w = vit_weights(7)
    image = Rng(8).normal((3, 32, 32), std=0.5)
    ref = reference.vit_block_reference(image, w)
    assert np.max(np.abs(vit_block_features(image, w) - ref)) < 1e-4


def test_upsampler_shape_contract():
    up = UpsamplerWeights.build(9, DV, D)
    grid = Rng(10).normal((DV, 4, 4))
    assert spatial_features(grid, up).shape == (D, 16, 16)


def test_upsampler_zero_input_zero_bias():
    up = UpsamplerWeights.build(11, DV, D)
    up.b1 = np.zeros_like(up.b1)
    up.b2 = np.zeros_like(up.b2)
    assert np.all(spatial_features(np.zeros((DV, 3, 3), np.float32), up) == 0)


def test_upsampler_composition_oracle():
    up = UpsamplerWeights.build(12, DV, D)
    grid = Rng(13).normal((DV, 3, 3))
    ref = reference.spatial_features_reference(grid, up)
    assert np.max(np.abs(spatial_features(grid, up) - ref)) < 1e-5


def test_shape_chain_image_to_features():
    for h, w in ((32, 32), (64, 32)):
        vit = vit_weights(14, grid=(h // 16, w // 16))
        up = UpsamplerWeights.build(15, DV, D)
        grid = vit_block_features(Rng(16).normal((3, h, w)), vit)
        assert grid.shape == (DV, h // 16, w // 16)
        feats = spatial_features(grid, up)
        assert feats.shape == (D, h // 4, w // 4)


def test_embeddings_pool_contracts():
    feats = Rng(17).normal((D, 8, 8))
    uniform = np.full((3, 8, 8), 0.5, dtype=np.float32)
    out = spatial_embeddings(feats, uniform)
    mean = feats.reshape(D, -1).mean(axis=1)
    assert np.max(np.abs(out - mean[None, :])) < 1e-6

    one_hot = np.full((1, 8, 8), -1e4, dtype=np.float32)
    one_hot[0, 2, 5] = 1e4
    out = spatial_embeddings(feats, sigmoid(one_hot))
    assert np.max(np.abs(out[0] - feats[:, 2, 5])) < 1e-4


def test_embeddings_convex_bound():
    feats = Rng(18).normal((D, 6, 6))
    probs = sigmoid(Rng(19).normal((5, 6, 6), std=2.0))
    out = spatial_embeddings(feats, probs)
    lo = feats.reshape(D, -1).min(axis=1)
    hi = feats.reshape(D, -1).max(axis=1)
    assert np.all(out >= lo[None, :] - 1e-5)
    assert np.all(out <= hi[None, :] + 1e-5)
