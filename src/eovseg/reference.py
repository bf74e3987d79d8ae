"""Module-level reference implementations built only from the loop oracles.

Each function re-derives a model operation step by step in float64 without
touching the vectorized kernels, so the fast path and the reference are
independent down to the primitive level.  The optional ``macs`` counter
threads through the underlying oracle primitives.  A function that stands
for a ``pipeline.STAGES`` row is the row's ``reference``: it takes the row's
inputs in order, then the counter, and returns the row's outputs in order.
"""

from __future__ import annotations

import numpy as np

from .aggregator import AggregatorWeights, SyntheticBackbone, space_to_depth
from .classifier import ALPHA, BETA, TAU, MaskLabel
from .decoder import DecoderLayerWeights, DecoderWeights, MASK_POOL_EPS
from .evaluation import SegmentRecord
from .fusion import EafWeights, SdiWeights, TdeeWeights
from .oracles import (
    MacCounter,
    bilinear_upsample_oracle,
    conv2d_1x1_oracle,
    conv2d_3x3_oracle,
    depthwise_conv1d_oracle,
    depthwise_conv2d_3x3_oracle,
    gelu_oracle,
    l2_normalize_oracle,
    layer_norm_oracle,
    linear_oracle,
    matmul_oracle,
    multi_head_attention_oracle,
    relu_oracle,
    sigmoid_oracle,
    softmax_oracle,
    transposed_conv2d_oracle,
)
from .spatial import PATCH, UpsamplerWeights, VitBlockWeights
from .vas import VasWeights


# ---------------------------------------------------------------------------
# vocabulary-aware selection: step-by-step transliteration


def vas_forward_reference(feat, text_embed, w: VasWeights, macs: MacCounter | None = None):
    """Projection, head split, one channel contraction per head, vocab softmax
    + max, and the per-head multiply of that attention onto the projected
    features.  Returns (weighted features, per-head attention (heads, H, W))."""
    mid = depthwise_conv2d_3x3_oracle(feat, w.feat_depth, macs)
    feat_proj = conv2d_1x1_oracle(mid, w.feat_point, w.feat_bias, macs)
    d, h, wd = feat_proj.shape
    per_head = d // w.heads
    text_proj = linear_oracle(text_embed, w.text_w, w.text_b, macs)
    mh_feat = feat_proj.reshape(w.heads, per_head, h * wd)
    mh_text = text_proj.reshape(text_proj.shape[0], w.heads, per_head)
    attn = np.empty((w.heads, h * wd))
    for m in range(w.heads):
        logits = matmul_oracle(mh_feat[m].T, mh_text[:, m].T, macs)  # (H*W, N_class)
        attn[m] = softmax_oracle(logits, axis=1).max(axis=1)
    return (attn[:, None, :] * mh_feat).reshape(d, h, wd), attn.reshape(w.heads, h, wd)


# ---------------------------------------------------------------------------
# two-way dynamic embedding experts: step-by-step transliteration


def tdee_reference(mask_embed, spatial_embed, w: TdeeWeights, macs: MacCounter | None = None):
    half = w.half
    p = matmul_oracle(mask_embed, w.proj_m, macs)
    q = matmul_oracle(spatial_embed, w.proj_s, macs)
    fuse_m, route_m = p[:, :half], p[:, half:]
    fuse_s, route_s = q[:, :half], q[:, half:]
    router_product = route_m * route_s
    gate_m = sigmoid_oracle(
        layer_norm_oracle(linear_oracle(router_product, w.router_m_w, w.router_m_b, macs), *w.ln_gate_m)
    )
    gate_s = sigmoid_oracle(
        layer_norm_oracle(linear_oracle(router_product, w.router_s_w, w.router_s_b, macs), *w.ln_gate_s)
    )
    core = gate_m * layer_norm_oracle(fuse_m, *w.ln_fuse_m) + gate_s * layer_norm_oracle(
        fuse_s, *w.ln_fuse_s
    )
    return gelu_oracle(layer_norm_oracle(linear_oracle(core, w.out_w, w.out_b, macs), *w.ln_out))


def eaf_reference(features, spatial_up, w: EafWeights, macs: MacCounter | None = None):
    stacked = np.concatenate([np.asarray(features, np.float64), np.asarray(spatial_up, np.float64)])
    return conv2d_1x1_oracle(stacked, w.w, w.b, macs)


def sdi_reference(mask_embed, spatial_embed, w: SdiWeights, macs: MacCounter | None = None):
    n, d = spatial_embed.shape
    kernels = linear_oracle(mask_embed, w.gen_kernel_w, w.gen_kernel_b, macs)
    convolved = depthwise_conv1d_oracle(spatial_embed, kernels, macs)
    left = linear_oracle(mask_embed, w.gen_left_w, w.gen_left_b, macs).reshape(n, d, w.rank)
    right = linear_oracle(mask_embed, w.gen_right_w, w.gen_right_b, macs).reshape(n, d, w.rank)
    out = np.zeros((n, d), dtype=np.float64)
    for row in range(n):
        mixed = matmul_oracle(convolved[row : row + 1], left[row], macs)  # (1, r)
        out[row] = matmul_oracle(mixed, right[row].T, macs)[0]
    return out


# ---------------------------------------------------------------------------
# decoder


def initial_attention_reference(features, masks_logits, macs: MacCounter | None = None):
    d = features.shape[0]
    probs = sigmoid_oracle(masks_logits).reshape(masks_logits.shape[0], -1)
    flat = np.asarray(features, np.float64).reshape(d, -1)
    return matmul_oracle(probs, flat.T, macs)


def dda_reference(kernels, pooled, kernel_proj, macs: MacCounter | None = None):
    generated = matmul_oracle(kernels, kernel_proj, macs)
    return depthwise_conv1d_oracle(pooled, generated, macs)


def cross_attention_reference(kernels, features, blk, macs: MacCounter | None = None):
    d = features.shape[0]
    positions = np.asarray(features, np.float64).reshape(d, -1).T
    return np.asarray(kernels, np.float64) + multi_head_attention_oracle(
        kernels, positions, blk.wq, blk.wk, blk.wv, blk.wo, blk.heads, macs
    )


def refine_kernels_reference(kernels, layer: DecoderLayerWeights, macs: MacCounter | None = None):
    attn_in = layer_norm_oracle(kernels, *layer.ln_attn)
    x = np.asarray(kernels, np.float64) + multi_head_attention_oracle(
        attn_in,
        attn_in,
        layer.self_attn.wq,
        layer.self_attn.wk,
        layer.self_attn.wv,
        layer.self_attn.wo,
        layer.self_attn.heads,
        macs,
    )
    ffn_in = layer_norm_oracle(x, *layer.ln_ffn)
    hidden = relu_oracle(linear_oracle(ffn_in, layer.ffn_w1, layer.ffn_b1, macs))
    return x + linear_oracle(hidden, layer.ffn_w2, layer.ffn_b2, macs)


def mask_kernels_reference(kernels, mlp, macs: MacCounter | None = None):
    x = np.asarray(kernels, np.float64)
    for i, (w, b) in enumerate(mlp):
        x = linear_oracle(x, w, b, macs)
        if i < len(mlp) - 1:
            x = relu_oracle(x)
    return x


def predict_masks_reference(kernels, features, macs: MacCounter | None = None):
    d, h, w = features.shape
    flat = np.asarray(features, np.float64).reshape(d, -1)
    logits = matmul_oracle(kernels, flat, macs)
    return logits.reshape(-1, h, w)


def mask_pool_reference(features, probs, macs: MacCounter | None = None):
    probs = np.asarray(probs, np.float64).reshape(probs.shape[0], -1)
    flat = np.asarray(features, np.float64).reshape(features.shape[0], -1)
    return matmul_oracle(probs, flat.T, macs) / (probs.sum(axis=1, keepdims=True) + MASK_POOL_EPS)


def decoder_forward_reference(features, weights: DecoderWeights, macs: MacCounter | None = None):
    """Hand-unrolled layer loop over the reference ops; returns the final
    (mask logits, mask embeddings, refined kernels), the last layer's pooled
    query features and the final mask probabilities, as
    ``decoder.decoder_forward`` does."""
    kernels = np.asarray(weights.init_kernels, np.float64)
    logits = predict_masks_reference(kernels, features, macs)
    for layer in weights.layers:
        pooled = initial_attention_reference(features, logits, macs)
        interacted = dda_reference(kernels, pooled, layer.kernel_proj, macs)
        kernels = refine_kernels_reference(interacted, layer, macs)
        logits = predict_masks_reference(
            mask_kernels_reference(kernels, weights.mask_mlp, macs), features, macs
        )
    probs = sigmoid_oracle(logits)
    return logits, mask_pool_reference(features, probs, macs), kernels, pooled, probs


# ---------------------------------------------------------------------------
# aggregator and spatial branch


def backbone_reference(image, backbone: SyntheticBackbone, macs: MacCounter | None = None):
    feats = {}
    x = np.asarray(image, np.float64)
    for level, factor in ((2, 4), (3, 2), (4, 2), (5, 2)):
        w, b = backbone.projections[level]
        x = relu_oracle(conv2d_1x1_oracle(space_to_depth(x, factor), w, b, macs))
        feats[level] = x
    return feats


def build_pyramid_reference(feats, weights: AggregatorWeights, macs: MacCounter | None = None):
    lat = {}
    for level in (2, 3, 4, 5):
        w, b = weights.laterals[level]
        lat[level] = conv2d_1x1_oracle(feats[level], w, b, macs)
    merged = {5: lat[5]}
    for level in (4, 3, 2):
        merged[level] = lat[level] + bilinear_upsample_oracle(merged[level + 1], 2, macs)
    out = {}
    for level in (2, 3, 4, 5):
        w, b = weights.smooths[level]
        out[level] = conv2d_3x3_oracle(merged[level], w, b, macs)
    return out


def aggregate_reference(levels, weights: AggregatorWeights, macs: MacCounter | None = None):
    acc = conv2d_1x1_oracle(levels[2], weights.level_proj[2], None, macs)
    for level in (3, 4, 5):
        proj = conv2d_1x1_oracle(levels[level], weights.level_proj[level], None, macs)
        acc = acc + bilinear_upsample_oracle(proj, 2 ** (level - 2), macs)
    w, b = weights.fuse
    return conv2d_3x3_oracle(acc, w, b, macs)


def vit_block_reference(image, w: VitBlockWeights, macs: MacCounter | None = None):
    c, h, wd = image.shape
    gh, gw = h // PATCH, wd // PATCH
    x = np.asarray(image, np.float64).reshape(c, gh, PATCH, gw, PATCH)
    patches = x.transpose(1, 3, 0, 2, 4).reshape(gh * gw, c * PATCH * PATCH)
    tokens = linear_oracle(patches, w.patch_w, w.patch_b, macs)
    tokens = np.concatenate([np.asarray(w.class_token, np.float64)[None, :], tokens])
    tokens = tokens + np.asarray(w.pos_table, np.float64)
    attn_in = layer_norm_oracle(tokens, *w.ln_attn)
    tokens = tokens + multi_head_attention_oracle(
        attn_in, attn_in, w.attn.wq, w.attn.wk, w.attn.wv, w.attn.wo, w.attn.heads, macs
    )
    mlp_in = layer_norm_oracle(tokens, *w.ln_mlp)
    hidden = gelu_oracle(linear_oracle(mlp_in, w.mlp_w1, w.mlp_b1, macs))
    tokens = tokens + linear_oracle(hidden, w.mlp_w2, w.mlp_b2, macs)
    return tokens[1:].reshape(gh, gw, -1).transpose(2, 0, 1)


def spatial_features_reference(grid, w: UpsamplerWeights, macs: MacCounter | None = None):
    mid = transposed_conv2d_oracle(grid, w.w1, w.b1, macs)
    return transposed_conv2d_oracle(mid, w.w2, w.b2, macs)


# ---------------------------------------------------------------------------
# classifier


def build_text_embeddings_reference(templates, macs: MacCounter | None = None):
    return l2_normalize_oracle(np.asarray(templates, np.float64).mean(axis=0), axis=1)


def in_vocab_scores_reference(instance_embed, text_rows, macs: MacCounter | None = None):
    unit = l2_normalize_oracle(instance_embed, axis=1)
    logits = matmul_oracle(unit, np.asarray(text_rows, np.float64).T, macs) / TAU
    return softmax_oracle(logits, axis=1)


def clip_final_reference(c5, clip_proj, macs: MacCounter | None = None):
    """C5 of the backbone projected and upsampled to stride 4, as
    ``pipeline._clip_final_features``."""
    return bilinear_upsample_oracle(conv2d_1x1_oracle(c5, *clip_proj, macs), 8, macs)


def out_vocab_scores_reference(clip_features, probs, text_rows, macs=None):
    pooled = mask_pool_reference(clip_features, probs, macs)
    return in_vocab_scores_reference(pooled, text_rows, macs)


def ensemble_reference(s_in, s_out, seen, macs: MacCounter | None = None):
    a = np.asarray(s_in, np.float64)
    b = np.asarray(s_out, np.float64)
    out = np.empty_like(a)
    for j in range(a.shape[1]):
        w = ALPHA if seen[j] else BETA
        for i in range(a.shape[0]):
            out[i, j] = a[i, j] ** (1.0 - w) * b[i, j] ** w
    return out


# ---------------------------------------------------------------------------
# classification and panoptic assembly


def assembly_reference(scores, probs, class_is_thing, macs: MacCounter | None = None):
    """Each mask's label (its best class, the first on a tie, and that score)
    and the (N, H, W) stack of confidence times upsampled probability whose
    per-pixel argmax the panoptic map takes.  The stack stands for the map:
    a near-tie in it may fall either way under rounding, so the stage walk
    holds the step's map to the stack by its invariants (and to
    ``segment_ids_reference``), not bit for bit.  ``class_is_thing`` only
    reaches the map's segment ids."""
    scores = np.asarray(scores, np.float64)
    labels = []
    for i in range(scores.shape[0]):
        best = 0
        for j in range(1, scores.shape[1]):
            if scores[i, j] > scores[i, best]:
                best = j
        labels.append(MaskLabel(mask_index=i, class_id=best, confidence=float(scores[i, best])))
    confidence = np.array([lab.confidence for lab in labels])
    return labels, confidence[:, None, None] * bilinear_upsample_oracle(probs, 4, macs)


def segment_ids_reference(winner, labels, class_is_thing):
    """The segment id of each label's mask (0 where it wins no pixel) and the
    segment records of a map whose pixel ``p`` goes to label ``winner[p]``:
    in label order, each thing mask that wins a pixel opens a segment, and
    each stuff class one for all its masks, numbered from 1."""
    ids, records, stuff = np.zeros(len(labels), dtype=np.int32), [], {}
    for i in np.unique(winner):
        lab = labels[i]
        thing = bool(class_is_thing[lab.class_id])
        if thing or lab.class_id not in stuff:
            records.append(SegmentRecord(len(records) + 1, lab.class_id, thing))
            if not thing:
                stuff[lab.class_id] = len(records)
        ids[i] = len(records) if thing else stuff[lab.class_id]
    return ids, records
