"""Lightweight decoder tests: per-op contracts and the unrolled-forward oracle."""

import numpy as np
import pytest

from eovseg import reference
from eovseg.decoder import (
    AttentionBlockWeights,
    DecoderWeights,
    dda,
    decoder_forward,
    initial_attention,
    mask_kernels,
    mask_pool,
    predict_masks,
    refine_kernels,
)
from eovseg.kernels import sigmoid
from eovseg.profiler import cross_attention_baseline
from eovseg.tensor import Rng

D = 8


def small_weights(seed=0, n=3, layers=1):
    return DecoderWeights.build(seed, D, n, layers, kernel_size=3, heads=2, ffn_expansion=2)


def ca_block(seed):
    return AttentionBlockWeights.build(Rng(seed), D, heads=2)


class TestInitialAttention:
    def test_one_hot_limit(self):
        feat = Rng(1).normal((D, 3, 3))
        logits = np.full((1, 3, 3), -1e4, dtype=np.float32)
        logits[0, 1, 2] = 1e4
        out = initial_attention(feat, logits)
        assert np.max(np.abs(out[0] - feat[:, 1, 2])) < 1e-4

    def test_empty_mask(self):
        feat = Rng(2).normal((D, 2, 2))
        out = initial_attention(feat, np.full((2, 2, 2), -1e9, dtype=np.float32))
        assert np.max(np.abs(out)) < 1e-4

    def test_far_below_cutoff_row_is_exactly_zero(self):
        # sigmoid flushes what would be subnormal, so such a row sums nothing
        rng = Rng(4)
        feat = rng.normal((D, 5, 6))
        logits = rng.normal((3, 5, 6), std=2.0)
        logits[1] = np.linspace(-100, -88, 30, dtype=np.float32).reshape(5, 6)
        out = initial_attention(feat, logits)
        assert np.all(out[1] == 0) and np.all(out[[0, 2]] != 0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="grid"):
            initial_attention(np.zeros((D, 2, 2), np.float32), np.zeros((1, 3, 3), np.float32))

    def test_loop_oracle(self):
        rng = Rng(3)
        feat = rng.normal((D, 3, 4))
        logits = rng.normal((5, 3, 4), std=2.0)
        ref = reference.initial_attention_reference(feat, logits)
        assert np.max(np.abs(initial_attention(feat, logits) - ref)) < 1e-5


class TestDda:
    def test_delta_kernel(self):
        # force K @ W_m = [0, 1, 0] for every query
        n = 3
        kernels_in = np.ones((n, D), dtype=np.float32)
        proj = np.zeros((D, 3), dtype=np.float32)
        proj[0, 1] = 1.0
        kernels_in[:, 0] = 1.0
        kernels_in[:, 1:] = 0.0
        pooled = Rng(4).normal((n, D))
        assert np.array_equal(dda(kernels_in, pooled, proj), pooled)

    def test_zero_kernels(self):
        pooled = Rng(5).normal((2, D))
        out = dda(np.zeros((2, D), np.float32), pooled, Rng(6).normal((D, 3)))
        assert np.all(out == 0)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            dda(np.zeros((1, D), np.float32), np.zeros((1, D), np.float32), np.zeros((D, 4), np.float32))

    def test_loop_oracle_n3_d6_m3(self):
        rng = Rng(7)
        k = rng.normal((3, 6))
        pooled = rng.normal((3, 6))
        proj = rng.normal((6, 3))
        assert np.max(np.abs(dda(k, pooled, proj) - reference.dda_reference(k, pooled, proj))) < 1e-5


class TestRefine:
    def test_pure_residual_identity(self):
        w = small_weights(8)
        layer = w.layers[0]
        layer.self_attn.wo = np.zeros_like(layer.self_attn.wo)
        layer.ffn_w2 = np.zeros_like(layer.ffn_w2)
        x = Rng(9).normal((3, D))
        assert np.array_equal(refine_kernels(x, layer), x)

    def test_single_query_softmax_singleton(self):
        w = small_weights(10)
        x = Rng(11).normal((1, D))
        out = refine_kernels(x, w.layers[0])
        ref = reference.refine_kernels_reference(x, w.layers[0])
        assert np.max(np.abs(out - ref)) < 1e-5

    def test_loop_oracle_n2_d4(self):
        w = DecoderWeights.build(12, 4, 2, 1, kernel_size=3, heads=2, ffn_expansion=2)
        x = Rng(13).normal((2, 4))
        ref = reference.refine_kernels_reference(x, w.layers[0])
        assert np.max(np.abs(refine_kernels(x, w.layers[0]) - ref)) < 1e-5


class TestCrossAttention:
    def test_single_position(self):
        blk = ca_block(14)
        blk.wo = np.eye(D, dtype=np.float32)
        x = Rng(15).normal((3, D))
        feat = Rng(16).normal((D, 1, 1))
        out = cross_attention_baseline(x, feat, blk)
        from eovseg.kernels import linear

        # with one key, attention output is exactly that position's V-projection
        v_row = linear(feat.reshape(D)[None, :], blk.wv)
        assert np.max(np.abs(out - (x + v_row @ blk.wo))) < 1e-5

    def test_zero_output_projection_residual(self):
        blk = ca_block(17)
        blk.wo = np.zeros_like(blk.wo)
        x = Rng(18).normal((2, D))
        feat = Rng(19).normal((D, 3, 3))
        assert np.array_equal(cross_attention_baseline(x, feat, blk), x)

    def test_loop_oracle_2q_4pos(self):
        blk = ca_block(20)
        x = Rng(21).normal((2, D))
        feat = Rng(22).normal((D, 2, 2))
        ref = reference.cross_attention_reference(x, feat, blk)
        assert np.max(np.abs(cross_attention_baseline(x, feat, blk) - ref)) < 1e-5


class TestMaskOps:
    def test_mlp_identity_weights_on_nonnegative(self):
        mlp = [(np.eye(D, dtype=np.float32), np.zeros(D, np.float32))] * 3
        x = np.abs(Rng(23).normal((3, D)))
        assert np.array_equal(mask_kernels(x, mlp), x)

    def test_mlp_zero_final_layer(self):
        w = small_weights(24)
        w.mask_mlp[2] = (np.zeros_like(w.mask_mlp[2][0]), np.zeros_like(w.mask_mlp[2][1]))
        assert np.all(mask_kernels(Rng(25).normal((2, D)), w.mask_mlp) == 0)

    def test_predict_selector_kernel(self):
        feat = Rng(26).normal((D, 3, 3))
        kernel = np.zeros((1, D), dtype=np.float32)
        kernel[0, 5] = 1.0
        logits = predict_masks(kernel, feat)
        assert np.array_equal(logits[0], feat[5])

    def test_predict_zero_kernels(self):
        logits = predict_masks(np.zeros((2, D), np.float32), Rng(27).normal((D, 2, 2)))
        assert np.all(logits == 0)
        assert np.all(sigmoid(logits) == 0.5)

    def test_pool_uniform_masks_is_spatial_mean(self):
        feat = Rng(28).normal((D, 4, 4))
        out = mask_pool(feat, np.full((3, 4, 4), 0.5, dtype=np.float32))
        mean = feat.reshape(D, -1).mean(axis=1)
        assert np.max(np.abs(out - mean[None, :])) < 1e-6

    def test_pool_one_hot_limit(self):
        feat = Rng(29).normal((D, 3, 3))
        logits = np.full((1, 3, 3), -1e4, dtype=np.float32)
        logits[0, 0, 1] = 1e4
        out = mask_pool(feat, sigmoid(logits))
        assert np.max(np.abs(out[0] - feat[:, 0, 1])) < 1e-4

    def test_pool_far_below_cutoff_row_is_exactly_zero(self):
        rng = Rng(31)
        feat = rng.normal((D, 5, 6))
        logits = rng.normal((3, 5, 6), std=2.0)
        logits[2] = np.linspace(-100, -88, 30, dtype=np.float32).reshape(5, 6)
        out = mask_pool(feat, sigmoid(logits))
        assert np.all(out[2] == 0) and np.all(out[:2] != 0)

    def test_pool_loop_oracle(self):
        rng = Rng(30)
        feat = rng.normal((D, 3, 4))
        probs = sigmoid(rng.normal((4, 3, 4)))
        ref = reference.mask_pool_reference(feat, probs)
        assert np.max(np.abs(mask_pool(feat, probs) - ref)) < 1e-5


class TestDecoderForward:
    def test_single_layer_equals_manual_composition(self):
        w = small_weights(31, n=4, layers=1)
        feat = Rng(32).normal((D, 4, 4))
        logits, embeddings, kernels, pooled, probs = decoder_forward(feat, w)
        logits0 = predict_masks(w.init_kernels, feat)
        pooled0 = initial_attention(feat, logits0)
        refined = refine_kernels(dda(w.init_kernels, pooled0, w.layers[0].kernel_proj), w.layers[0])
        logits1 = predict_masks(mask_kernels(refined, w.mask_mlp), feat)
        assert np.array_equal(logits, logits1)
        assert np.array_equal(kernels, refined)
        assert np.array_equal(probs, sigmoid(logits1))
        assert np.array_equal(embeddings, mask_pool(feat, probs))
        assert np.array_equal(pooled, pooled0)

    def test_two_layer_unrolled_oracle(self):
        w = small_weights(35, n=3, layers=2)
        feat = Rng(36).normal((D, 4, 4))
        out = decoder_forward(feat, w)
        ref = reference.decoder_forward_reference(feat, w)
        for got, want in zip(out, ref, strict=True):  # logits, embeddings, kernels, pooled
            assert np.max(np.abs(got - want)) < 1e-4

    def test_deterministic_per_seed(self):
        w = small_weights(38, n=4, layers=2)
        feat = Rng(39).normal((D, 4, 4))
        a = decoder_forward(feat, w)
        b = decoder_forward(feat, w)
        assert all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))

    def test_output_shape_contract(self):
        for n, layers, hw in ((2, 1, 4), (6, 3, 8)):
            w = small_weights(40 + n, n=n, layers=layers)
            feat = Rng(41 + n).normal((D, hw, hw))
            logits, embeddings, kernels, pooled, probs = decoder_forward(feat, w)
            assert logits.shape == probs.shape == (n, hw, hw)
            assert embeddings.shape == kernels.shape == pooled.shape == (n, D)


def test_weights_validation():
    with pytest.raises(ValueError, match="odd"):
        DecoderWeights.build(0, D, 2, 1, kernel_size=4, heads=2, ffn_expansion=2)
    with pytest.raises(ValueError, match="layer"):
        DecoderWeights.build(0, D, 2, 0, kernel_size=3, heads=2, ffn_expansion=2)


def test_dda_param_count_below_cross_attention():
    layer = small_weights(42).layers[0]
    ca = ca_block(43)
    ca_params = ca.wq.size + ca.wk.size + ca.wv.size + ca.wo.size
    assert layer.kernel_proj.size < ca_params
    assert layer.kernel_proj.size == D * 3
    assert ca_params == 4 * D * D


def test_single_query_attention_is_v_projection_path():
    # with one query the softmax is a singleton, so the attention mix reduces
    # to the value projection followed by the output projection
    from eovseg.kernels import layer_norm, linear

    w = small_weights(50)
    layer = w.layers[0]
    x = Rng(51).normal((1, D))
    attn_in = layer_norm(x, *layer.ln_attn)
    v_path = x + linear(linear(attn_in, layer.self_attn.wv), layer.self_attn.wo)
    ffn_in = layer_norm(v_path, *layer.ln_ffn)
    from eovseg.kernels import relu

    expected = v_path + linear(relu(linear(ffn_in, layer.ffn_w1, layer.ffn_b1)), layer.ffn_w2, layer.ffn_b2)
    assert np.max(np.abs(refine_kernels(x, layer) - expected)) < 1e-6
