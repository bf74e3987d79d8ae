"""Vocabulary-aware selection: text-guided multi-head reweighting of features.

The feature side goes through a depthwise-separable conv, the text side
through a linear layer; both are split into heads, contracted over channels,
softmaxed over the vocabulary, and reduced with a max.  The resulting
per-head weight map multiplies the projected features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import conv2d_1x1, depthwise_conv2d_3x3, linear
from .tensor import Rng


@dataclass
class VasWeights:
    feat_depth: np.ndarray  # (D, 3, 3) per-channel 3x3
    feat_point: np.ndarray  # (D, D) pointwise mix as (C_in, C_out)
    feat_bias: np.ndarray  # (D,)
    text_w: np.ndarray  # (D, D) row-vector linear
    text_b: np.ndarray  # (D,)
    heads: int

    def __post_init__(self):
        d = self.feat_point.shape[1]
        if d % self.heads != 0:
            raise ValueError(f"VasWeights: width {d} not divisible by {self.heads} heads")

    @classmethod
    def build(cls, seed: int, width: int, heads: int):
        rng = Rng(seed)
        return cls(
            feat_depth=rng.normal((width, 3, 3), std=1.0 / 3.0),
            feat_point=rng.normal((width, width), std=1.0 / np.sqrt(width)).T.copy(),
            feat_bias=rng.normal((width,), std=0.02),
            text_w=rng.normal((width, width), std=1.0 / np.sqrt(width)),
            text_b=rng.normal((width,), std=0.02),
            heads=heads,
        )


def _max_of_softmax(logits: np.ndarray) -> np.ndarray:
    """Max over the last axis of its softmax: 1 / sum(exp(x - max(x))).

    The denominator is accumulated in ascending value order, a canonical
    order independent of how the vocabulary rows were arranged, so the result
    is bitwise invariant under class permutations.
    """
    if not np.all(np.isfinite(logits)):
        raise ValueError("vas: non-finite similarity logits")
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    denom = np.sum(np.sort(np.exp(shifted), axis=-1), axis=-1)
    return 1.0 / denom


def vas_forward_detailed(
    feat: np.ndarray, text_embed: np.ndarray, w: VasWeights
) -> tuple[np.ndarray, np.ndarray]:
    """Selection pass returning (weighted features, attention weights).

    The attention holds one map per head, each weight in [1/N_class, 1], and
    gates that head's channel block of the depthwise-separable projection of
    ``feat``: a singleton vocabulary gives weight 1 and the projection itself.
    """
    n_class = text_embed.shape[0]
    if n_class < 1:
        raise ValueError("vas: vocabulary must contain at least one class")
    feat_proj = conv2d_1x1(depthwise_conv2d_3x3(feat, w.feat_depth), w.feat_point, w.feat_bias)
    d, h, wd = feat_proj.shape
    per_head = d // w.heads
    text_proj = linear(text_embed, w.text_w, w.text_b)
    mh_feat = feat_proj.reshape(1, w.heads, per_head, h, wd)
    mh_text = text_proj.reshape(1, n_class, w.heads, per_head)
    logits = np.einsum("bmchw,bnmc->bmhwn", mh_feat, mh_text)
    attn = _max_of_softmax(logits)[0]  # (heads, H, W)
    out = attn[:, None, :, :] * mh_feat[0]
    return np.ascontiguousarray(out.reshape(d, h, wd)), attn
