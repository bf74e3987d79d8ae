"""End-to-end forward pass: features -> aggregation -> selection -> decoding ->
spatial branch -> fusion -> classification -> panoptic assembly.

``STAGES`` is the one definition of the graph.  Each row names the stage a
failure is reported under, the fusion modes it runs in, its outputs, and the
step that computes them from the scene inputs and earlier outputs.  Fusion
modes plug in at two seams: ``eaf`` fuses the feature maps before decoding;
``sdi``/``tdee`` fuse the embedding rows after decoding; ``none`` passes the
mask embeddings straight through.

``forward`` runs the table, then classifies and assembles the panoptic map.
Outputs whose names do not start with ``_`` are traced: ``forward_traced``
dumps them as EOVT files, and ``replay_trace`` runs the same table, compares
each traced output with its dump and continues from the dumped value, to
confirm bitwise reproducibility stage by stage.

Steps look up this module's names when they run, never at import: span
tracing and kernel sabotage replace module attributes, and a function object
captured in the table would bypass them.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .aggregator import aggregate, build_pyramid, extract_features
from .classifier import (
    ClassScores,
    EnsembleParams,
    MaskLabel,
    TextEmbeddings,
    classify,
    ensemble,
    in_vocab_scores,
    out_vocab_scores,
)
from .config import FUSION_MODES, ModelConfig
from .decoder import MaskSet, decoder_forward
from .evaluation import PanopticAnnotation, assemble_panoptic
from .fusion import eaf, sdi, tdee
from .kernels import bilinear_upsample, conv2d_1x1
from .spatial import spatial_embeddings, spatial_features, vit_block_features
from .tensor import write_eovt
from .vas import vas_forward_detailed
from .weights import WeightBundle


class PipelineStageError(RuntimeError):
    """Failure inside one pipeline stage, with the stage name attached."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r}: {cause}")
        self.stage = stage
        self.cause = cause


def pad_to_multiple(image: np.ndarray, multiple: int = 32) -> np.ndarray:
    """Zero-pad the bottom/right spatial edges up to the next multiple."""
    _, h, w = image.shape
    ph = (-h) % multiple
    pw = (-w) % multiple
    if ph == 0 and pw == 0:
        return image
    return np.pad(image, ((0, 0), (0, ph), (0, pw))).astype(np.float32)


def resize_image(image: np.ndarray, out_hw: tuple[int, int]) -> np.ndarray:
    """Arbitrary-ratio bilinear resample with half-pixel centers (C,H,W)."""
    c, h, w = image.shape
    oh, ow = out_hw

    def axis(n_in, n_out):
        src = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
        lo = np.clip(np.floor(src), 0, n_in - 1).astype(np.int64)
        hi = np.minimum(lo + 1, n_in - 1)
        frac = np.clip(src - lo, 0.0, 1.0).astype(np.float32)
        return lo, hi, frac

    ylo, yhi, fy = axis(h, oh)
    xlo, xhi, fx = axis(w, ow)
    fy = fy[None, :, None]
    fx = fx[None, None, :]
    ll = image[:, ylo, :][:, :, xlo]
    lh = image[:, ylo, :][:, :, xhi]
    hl = image[:, yhi, :][:, :, xlo]
    hh = image[:, yhi, :][:, :, xhi]
    top = ll + (lh - ll) * fx
    bot = hl + (hh - hl) * fx
    return (top + (bot - top) * fy).astype(np.float32)


def resize_map_nearest(seg_map: np.ndarray, out_hw: tuple[int, int]) -> np.ndarray:
    """Nearest-neighbor resample for id/class maps."""
    h, w = seg_map.shape
    oh, ow = out_hw
    ys = np.clip(np.rint((np.arange(oh) + 0.5) * (h / oh) - 0.5), 0, h - 1).astype(np.int64)
    xs = np.clip(np.rint((np.arange(ow) + 0.5) * (w / ow) - 0.5), 0, w - 1).astype(np.int64)
    return seg_map[ys][:, xs]


@dataclass
class ForwardResult:
    panoptic: PanopticAnnotation
    scores: ClassScores
    masks: MaskSet
    labels: list[MaskLabel]
    trace: dict[str, np.ndarray]


def _clip_final_features(image: np.ndarray, bundle: WeightBundle) -> np.ndarray:
    """Stand-in for the frozen-backbone final features used by out-of-vocab scoring:
    the deepest synthetic stage, projected to the embedding width, at stride 4."""
    feats = extract_features(image, bundle.backbone)
    w, b = bundle.clip_proj
    return bilinear_upsample(conv2d_1x1(feats[5], w, b), 8)


def _decode(v: SimpleNamespace):
    dec = decoder_forward(
        getattr(v, "early_fused_features", v.vs_agg_features), v.bundle.decoder, "dda"
    )
    return dec.masks.logits, dec.mask_embeddings, dec.kernels, dec.pooled


@dataclass(frozen=True)
class Stage:
    name: str  # the stage PipelineStageError reports
    modes: tuple[str, ...]  # fusion modes the row runs in
    outputs: tuple[str, ...]  # a leading "_" keeps an output out of the trace
    step: Callable[[SimpleNamespace], object]  # one output, or a tuple of several


ALL = FUSION_MODES

STAGES = (
    Stage("backbone", ALL, ("_feats",), lambda v: extract_features(v.image, v.bundle.backbone)),
    Stage("aggregator", ALL, ("_pyramid",), lambda v: build_pyramid(v._feats, v.bundle.aggregator)),
    Stage("aggregator", ALL, ("agg_features",),
          lambda v: aggregate(v._pyramid, v.bundle.aggregator)),
    Stage("vas", ALL, ("vs_agg_features", "vas_attention"),
          lambda v: vas_forward_detailed(v.agg_features, v.text.embeddings, v.bundle.vas)),
    Stage("spatial", ("eaf", "sdi", "tdee"), ("_vit_grid",),
          lambda v: vit_block_features(v.image, v.bundle.vit)),
    Stage("fusion", ("eaf",), ("_vit_grid_up",), lambda v: bilinear_upsample(v._vit_grid, 4)),
    Stage("fusion", ("eaf",), ("early_fused_features",),
          lambda v: eaf(v.vs_agg_features, v._vit_grid_up, v.bundle.eaf)),
    Stage("decoder", ALL, ("mask_logits", "mask_embeddings", "refined_kernels", "init_attention"),
          _decode),
    Stage("spatial", ("sdi", "tdee"), ("spatial_features",),
          lambda v: spatial_features(v._vit_grid, v.bundle.upsampler)),
    Stage("spatial", ("sdi", "tdee"), ("spatial_embeddings",),
          lambda v: spatial_embeddings(v.spatial_features, MaskSet(logits=v.mask_logits))),
    Stage("fusion", ("tdee",), ("instance_embeddings",),
          lambda v: tdee(v.mask_embeddings, v.spatial_embeddings, v.bundle.tdee)),
    Stage("fusion", ("sdi",), ("instance_embeddings",),
          lambda v: sdi(v.mask_embeddings, v.spatial_embeddings, v.bundle.sdi)),
    Stage("fusion", ("none", "eaf"), ("instance_embeddings",), lambda v: v.mask_embeddings),
    Stage("classifier", ALL, ("scores_in_vocab",),
          lambda v: in_vocab_scores(v.instance_embeddings, v.text, v.config.tau).values),
    Stage("classifier", ALL, ("_clip_final",), lambda v: _clip_final_features(v.image, v.bundle)),
    Stage("classifier", ALL, ("scores_out_vocab",),
          lambda v: out_vocab_scores(
              v._clip_final, MaskSet(logits=v.mask_logits), v.text, v.config.tau
          ).values),
    Stage("classifier", ALL, ("scores_final",),
          lambda v: ensemble(
              ClassScores(values=v.scores_in_vocab, kind="in_vocab"),
              ClassScores(values=v.scores_out_vocab, kind="out_vocab"),
              EnsembleParams(v.config.alpha, v.config.beta, v.config.ensemble_method),
              v.text.seen,
          ).values),
)

# intermediates dumped by forward_traced for the default (tdee) configuration
TRACE_KEYS_TDEE = tuple(
    name for s in STAGES if "tdee" in s.modes for name in s.outputs if not name.startswith("_")
)


def _call(stage: str, fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        raise PipelineStageError(stage, exc) from exc


def _run_stages(image, text, config, bundle, keep) -> SimpleNamespace:
    """Run the rows for ``config.fusion`` in order; return every output by name.

    ``keep(name, value)`` is called on each traced output and returns the
    value that later steps read.
    """
    v = SimpleNamespace(image=image, text=text, config=config, bundle=bundle)
    for stage in STAGES:
        if config.fusion not in stage.modes:
            continue
        out = _call(stage.name, stage.step, v)
        for name, value in zip(stage.outputs, out if len(stage.outputs) > 1 else (out,)):
            if value is not None and not name.startswith("_"):
                value = keep(name, value)
            setattr(v, name, value)
    return v


def forward(
    image: np.ndarray,
    text: TextEmbeddings,
    class_is_thing: np.ndarray,
    config: ModelConfig,
    bundle: WeightBundle,
) -> ForwardResult:
    trace: dict[str, np.ndarray] = {}

    def keep(name: str, value: np.ndarray) -> np.ndarray:
        trace[name] = value
        return value

    v = _run_stages(image, text, config, bundle, keep)
    masks = MaskSet(logits=v.mask_logits)
    scores = ClassScores(values=v.scores_final, kind="ensembled")
    del v  # frees the internal outputs before assembly, the peak allocator
    labels = _call("classifier", classify, masks, scores, config.score_floor)
    panoptic = _call("assembly", assemble_panoptic, masks, labels, class_is_thing, 4)
    return ForwardResult(panoptic=panoptic, scores=scores, masks=masks, labels=labels, trace=trace)


def forward_traced(
    image: np.ndarray,
    text: TextEmbeddings,
    class_is_thing: np.ndarray,
    config: ModelConfig,
    bundle: WeightBundle,
    trace_dir: str | Path,
) -> ForwardResult:
    """Run forward and dump every intermediate tensor as <name>.eovt."""
    result = forward(image, text, class_is_thing, config, bundle)
    trace_dir = Path(trace_dir)
    trace_dir.mkdir(parents=True, exist_ok=True)
    for name in sorted(result.trace):
        write_eovt(trace_dir / f"{name}.eovt", result.trace[name])
    return result


def replay_trace(
    image: np.ndarray,
    text: TextEmbeddings,
    config: ModelConfig,
    bundle: WeightBundle,
    trace: dict[str, np.ndarray],
) -> list[str]:
    """Re-run the stage table against a dump; list the traced outputs that differ.

    Each traced output is compared with its dump and later steps read the
    dumped value, so every stage is checked in isolation from upstream drift.
    Classification and assembly have no traced output and are not run.
    """
    failures: list[str] = []

    def check(name: str, produced: np.ndarray) -> np.ndarray:
        if name not in trace:
            return produced
        if not np.array_equal(produced, trace[name]):
            failures.append(name)
        return trace[name]

    _run_stages(image, text, config, bundle, check)
    return failures
