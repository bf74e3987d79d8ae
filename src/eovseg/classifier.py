"""Open-vocabulary classification of mask embeddings.

Text templates are averaged and L2-normalized per class; mask embeddings are
scored by temperature softmax over cosine similarities.  In-vocabulary and
out-of-vocabulary score matrices are blended with a geometric ensemble (as in
FC-CLIP) using separate exponents for seen and unseen classes, and each mask
takes the class of its highest blended score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decoder import mask_pool
from .kernels import l2_normalize, softmax

# softmax temperature of the cosine scores: the logits span at most 2 / TAU, so
# no score underflows to 0 before the geometric blend
TAU = 0.07
# ensemble exponents on the out-of-vocabulary scores, seen and unseen classes
ALPHA = 0.4
BETA = 0.8


@dataclass
class TextEmbeddings:
    embeddings: np.ndarray  # (N_class, D), unit rows
    class_names: list[str]
    seen: np.ndarray  # (N_class,) bool, True for training-vocabulary classes

    def __post_init__(self):
        n = self.embeddings.shape[0]
        if n < 1:
            raise ValueError("TextEmbeddings: at least one class required")
        if len(self.class_names) != n or self.seen.shape != (n,):
            raise ValueError("TextEmbeddings: names/seen-mask length mismatch")
        norms = np.linalg.norm(self.embeddings.astype(np.float64), axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-5):  # NaN compares False
            raise ValueError("TextEmbeddings: rows must be unit-norm")

    @property
    def n_classes(self) -> int:
        return self.embeddings.shape[0]


def build_text_embeddings(
    templates: np.ndarray, class_names: list[str], seen: np.ndarray
) -> TextEmbeddings:
    """Average the (M, N_class, D) template embeddings per class and normalize rows."""
    if templates.ndim != 3 or templates.shape[0] < 1:
        raise ValueError(f"build_text_embeddings: need (M, N_class, D), got {templates.shape}")
    mean = np.mean(templates.astype(np.float64), axis=0)
    norms = np.linalg.norm(mean, axis=1)
    dead = np.nonzero(norms < 1e-10)[0]
    if dead.size:
        raise ValueError(
            f"build_text_embeddings: class {int(dead[0])} averages to a zero vector"
        )
    embeddings = l2_normalize(mean.astype(templates.dtype))
    return TextEmbeddings(embeddings=embeddings, class_names=list(class_names), seen=seen)


def in_vocab_scores(instance_embed: np.ndarray, text_rows: np.ndarray) -> np.ndarray:
    """(N, N_class) cosine similarities to the (N_class, D) unit class rows
    (``TextEmbeddings.embeddings``), softmaxed at temperature ``TAU``."""
    unit = l2_normalize(instance_embed)
    return softmax((unit @ text_rows.T) / TAU, axis=1)


def out_vocab_scores(
    clip_features: np.ndarray, probs: np.ndarray, text_rows: np.ndarray
) -> np.ndarray:
    """Pool the backbone's final features under each mask's probabilities,
    then score as above."""
    return in_vocab_scores(mask_pool(clip_features, probs), text_rows)


def ensemble(s_in: np.ndarray, s_out: np.ndarray, seen: np.ndarray) -> np.ndarray:
    """Blend score matrices column-wise as in^(1-w) * out^w; seen classes use
    w = ``ALPHA``, unseen w = ``BETA``.

    Ensembled rows are not renormalized; only the per-row argmax is
    contractual downstream.
    """
    a, b = s_in, s_out
    if a.shape != b.shape:
        raise ValueError(f"ensemble: score shapes differ, {a.shape} vs {b.shape}")
    if seen.shape != (a.shape[1],):
        raise ValueError(f"ensemble: seen mask shape {seen.shape} != ({a.shape[1]},)")
    if np.any(a <= 0) or np.any(b <= 0):
        raise ValueError("ensemble: the geometric blend requires strictly positive scores")
    w = np.where(seen, ALPHA, BETA)
    return np.power(a, (1.0 - w).astype(a.dtype)) * np.power(b, w.astype(a.dtype))


@dataclass
class MaskLabel:
    mask_index: int
    class_id: int
    confidence: float


def classify(scores: np.ndarray) -> list[MaskLabel]:
    """Argmax class per mask (one score row each); every mask is kept.

    Ties resolve to the lowest class index (argmax's first-hit rule).
    """
    classes = np.argmax(scores, axis=1)
    return [MaskLabel(mask_index=i, class_id=int(j), confidence=float(scores[i, j]))
            for i, j in enumerate(classes)]
