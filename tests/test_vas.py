"""Vocabulary-aware selection tests."""

import numpy as np
import pytest

from eovseg import reference
from eovseg.kernels import conv2d_depthwise_separable
from eovseg.tensor import Rng
from eovseg.vas import VasWeights, vas_forward_detailed

D, HEADS = 8, 2


def build(seed, scale=1.0, offset=0.0, heads=HEADS):
    return VasWeights.build(seed, D, heads, scale, offset)


def project(feat, w):
    return conv2d_depthwise_separable(feat, w.feat_depth, w.feat_point, w.feat_bias)


def test_singleton_vocabulary_gives_all_ones():
    w = build(1)
    _, attn = vas_forward_detailed(Rng(2).normal((D, 3, 3)), Rng(3).normal((1, D)), w)
    assert attn.shape == (HEADS, 3, 3)
    assert np.all(attn == 1.0)


@pytest.mark.parametrize("n_class", [2, 3, 5, 7])
def test_bounds(n_class):
    w = build(10 + n_class)
    _, attn = vas_forward_detailed(
        Rng(20 + n_class).normal((D, 4, 4), std=2.0), Rng(30 + n_class).normal((n_class, D), std=2.0), w
    )
    lo = np.float32(1.0) / np.float32(n_class)
    assert attn.min() >= lo
    assert attn.max() <= 1.0


def test_head_divisibility_enforced():
    with pytest.raises(ValueError, match="heads"):
        VasWeights.build(1, 6, 4)


def test_apply_identity_weighting():
    w = build(4, scale=0.0, offset=1.0)
    feat = Rng(5).normal((D, 3, 3))
    out, _ = vas_forward_detailed(feat, Rng(6).normal((3, D)), w)
    assert np.array_equal(out, project(feat, w))


def test_apply_annihilator():
    w = build(7, scale=0.0, offset=0.0)
    feat = Rng(8).normal((D, 2, 2))
    out, _ = vas_forward_detailed(feat, Rng(9).normal((2, D)), w)
    assert np.all(out == 0)


def test_gate_scales_each_head_block():
    w = build(14, scale=1.2, offset=-0.1)
    feat = Rng(15).normal((D, 3, 3))
    out, attn = vas_forward_detailed(feat, Rng(16).normal((4, D)), w)
    gate = np.float32(w.scale) * attn + np.float32(w.offset)
    blocks = project(feat, w).reshape(HEADS, D // HEADS, 3, 3)
    assert np.array_equal(out.reshape(blocks.shape), gate[:, None] * blocks)


def test_singleton_vocab_with_unit_scale_is_projection():
    w = build(11, scale=1.0, offset=0.0)
    feat = Rng(12).normal((D, 3, 2))
    out, _ = vas_forward_detailed(feat, Rng(13).normal((1, D)), w)
    assert np.array_equal(out, project(feat, w))


def test_vocabulary_permutation_bitwise_invariant():
    w = build(21)
    feat = Rng(22).normal((D, 3, 3))
    text = Rng(23).normal((5, D))
    base, base_attn = vas_forward_detailed(feat, text, w)
    for perm_seed in range(5):
        perm = np.argsort(Rng(perm_seed).normal((5,)))
        out, attn = vas_forward_detailed(feat, text[perm], w)
        assert np.array_equal(base, out)
        assert np.array_equal(base_attn, attn)


def test_transliteration_oracle_at_acceptance_dims():
    # pinned dims: D=8, h=2, N_class=3
    worst = 0.0
    rng = Rng(24)
    for seed in range(20):
        w = build(1000 + seed, scale=1.4, offset=0.3)
        feat = rng.normal((D, 2, 2))
        text = rng.normal((3, D))
        err = np.max(
            np.abs(
                np.asarray(vas_forward_detailed(feat, text, w)[0], np.float64)
                - reference.vas_forward_reference(feat, text, w)
            )
        )
        worst = max(worst, err)
    assert worst < 1e-5


def test_identity_gate_reduces_to_projection_invariant():
    w = build(25, scale=0.0, offset=1.0)
    feat = Rng(26).normal((D, 4, 4))
    text = Rng(27).normal((6, D))
    assert np.array_equal(vas_forward_detailed(feat, text, w)[0], project(feat, w))
