"""Open-vocabulary classification of mask embeddings.

Text templates are averaged and L2-normalized per class; mask embeddings are
scored by temperature softmax over cosine similarities.  In-vocabulary and
out-of-vocabulary score matrices are blended with a geometric or arithmetic
ensemble using separate exponents/weights for seen and unseen classes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decoder import mask_pool
from .kernels import l2_normalize, softmax


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


def in_vocab_scores(instance_embed: np.ndarray, text_rows: np.ndarray, tau: float) -> np.ndarray:
    """(N, N_class) cosine similarities to the (N_class, D) unit class rows
    (``TextEmbeddings.embeddings``), softmaxed at temperature tau."""
    if tau <= 0:
        raise ValueError(f"in_vocab_scores: temperature must be positive, got {tau}")
    unit = l2_normalize(instance_embed)
    return softmax((unit @ text_rows.T) / tau, axis=1)


def out_vocab_scores(
    clip_features: np.ndarray, probs: np.ndarray, text_rows: np.ndarray, tau: float
) -> np.ndarray:
    """Pool the backbone's final features under each mask's probabilities,
    then score as above."""
    return in_vocab_scores(mask_pool(clip_features, probs), text_rows, tau)


def ensemble(
    s_in: np.ndarray, s_out: np.ndarray, alpha: float, beta: float, method: str, seen: np.ndarray
) -> np.ndarray:
    """Blend score matrices column-wise; seen classes use alpha, unseen beta.

    geometric: in^(1-w) * out^w.  arithmetic: (1-w)*in + w*out.  Weights 0 and
    1 short-circuit to an exact copy of the corresponding input column, so the
    degenerate settings are bitwise-faithful.  Ensembled rows are not
    renormalized; only the per-row argmax is contractual downstream.
    """
    a, b = s_in, s_out
    if method not in ("geometric", "arithmetic"):
        raise ValueError(f"ensemble: unknown method {method!r}")
    if a.shape != b.shape:
        raise ValueError(f"ensemble: score shapes differ, {a.shape} vs {b.shape}")
    if seen.shape != (a.shape[1],):
        raise ValueError(f"ensemble: seen mask shape {seen.shape} != ({a.shape[1]},)")
    if method == "geometric" and (np.any(a <= 0) or np.any(b <= 0)):
        raise ValueError("ensemble: geometric method requires strictly positive scores")
    out = np.empty_like(a)
    for j in range(a.shape[1]):
        w = alpha if seen[j] else beta
        if w == 0.0:
            out[:, j] = a[:, j]
        elif w == 1.0:
            out[:, j] = b[:, j]
        elif method == "geometric":
            out[:, j] = np.power(a[:, j], 1.0 - w) * np.power(b[:, j], w)
        else:
            out[:, j] = (1.0 - w) * a[:, j] + w * b[:, j]
    return out


@dataclass
class MaskLabel:
    mask_index: int
    class_id: int
    confidence: float


def classify(scores: np.ndarray, score_floor: float) -> list[MaskLabel]:
    """Argmax class per mask (one score row each); masks under the confidence
    floor are dropped.

    Ties resolve to the lowest class index (argmax's first-hit rule).
    """
    labels = []
    for i in range(scores.shape[0]):
        j = int(np.argmax(scores[i]))
        conf = float(scores[i, j])
        if conf < score_floor:
            continue
        labels.append(MaskLabel(mask_index=i, class_id=j, confidence=conf))
    return labels
