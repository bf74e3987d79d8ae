"""End-to-end forward pass: features -> aggregation -> selection -> decoding ->
spatial branch -> fusion -> classification -> panoptic assembly.

``STAGES`` is the one definition of the graph.  Each row names the stage a
failure is reported under, the fusion modes it runs in, its ``inputs`` (scene
inputs and earlier outputs, by name), its outputs, the step that computes
them, the step's float64 ``reference`` (built from ``reference`` and
``oracles``; it counts its MACs into a counter), and its analytic MAC count
(``macs``), read from the config, image size, vocabulary size and decoder
mode.  The inputs are resolved once per row: the step is called on them, the
reference on them and then the counter.  ``profiler.count_macs`` sums the
rows that run, and ``verify.check_stages_vs_references`` holds each step's
outputs to its reference's and the reference's count to the row's ``macs``.
Fusion modes plug in at two seams: ``eaf`` fuses the feature maps before
decoding; ``sdi``/``tdee`` fuse the embedding rows after decoding; ``none``
passes the mask embeddings straight through.  The decoder's mask
probabilities feed the spatial branch, out-of-vocabulary scoring and assembly.

``forward`` runs the table, then classifies and assembles the panoptic map.
Outputs whose names do not start with ``_`` are traced: ``forward_traced``
dumps them as EOVT files, and ``replay_trace`` runs the same table, compares
each traced output with its dump and continues from the dumped value, to
confirm bitwise reproducibility stage by stage.  An untraced output is dropped
after the last row that reads it, unless ``forward`` reads it afterwards
(``FORWARD_READS``), so a forward holds only what is still to be read.

Steps look up their functions when they run, never at import: span tracing
and kernel sabotage replace module attributes, which a function object
captured in the table would bypass.  Nothing replaces the references.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import oracles, reference
from .aggregator import (IMAGE_MULTIPLE, LEVELS, STAGE_FACTORS, aggregate, build_pyramid,
                         extract_features)
from .classifier import (
    MaskLabel,
    TextEmbeddings,
    classify,
    ensemble,
    in_vocab_scores,
    out_vocab_scores,
)
from .config import FUSION_MODES, ModelConfig
from .decoder import decoder_forward
from .evaluation import PanopticAnnotation, assemble_panoptic
from .fusion import SDI_KERNEL_SIZE, eaf, sdi, tdee
from .kernels import bilinear_upsample, conv2d_1x1
from .profiler import (_decoder_macs, macs_attention, macs_bilinear, macs_conv2d_1x1,
                       macs_conv2d_3x3, macs_depthwise_3x3, macs_depthwise_conv1d,
                       macs_matmul, macs_transposed_conv2d)
from .spatial import PATCH, spatial_embeddings, spatial_features, vit_block_features
from .tensor import write_eovt
from .vas import vas_forward_detailed
from .weights import WeightBundle


class PipelineStageError(RuntimeError):
    """Failure inside one pipeline stage, with the stage name attached."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r}: {cause}")
        self.stage = stage
        self.cause = cause


def pad_to_multiple(image: np.ndarray) -> np.ndarray:
    """Zero-pad the bottom/right spatial edges up to the next multiple of ``IMAGE_MULTIPLE``."""
    _, h, w = image.shape
    ph = (-h) % IMAGE_MULTIPLE
    pw = (-w) % IMAGE_MULTIPLE
    if ph == 0 and pw == 0:
        return image
    return np.pad(image, ((0, 0), (0, ph), (0, pw)))


@dataclass
class ClassScores:
    """The (N, N_class) ensembled scores.  A holder rather than the bare array
    only because the benchmark harness reads ``result.scores.values``."""

    values: np.ndarray


@dataclass
class ForwardResult:
    panoptic: PanopticAnnotation
    scores: ClassScores
    labels: list[MaskLabel]
    trace: dict[str, np.ndarray]


def _clip_final_features(c5: np.ndarray, clip_proj: tuple) -> np.ndarray:
    """Stand-in for the frozen-backbone final features used by out-of-vocab scoring:
    the deepest backbone stage (the backbone row's ``_c5``, so the backbone
    runs once per forward and its other levels are freed after the pyramid),
    projected to the embedding width, at stride 4."""
    return bilinear_upsample(conv2d_1x1(c5, *clip_proj), 8)


def _with_c5(feats: dict[int, np.ndarray]) -> tuple[dict[int, np.ndarray], np.ndarray]:
    """The backbone row's outputs: every level, and C5 itself (not a copy)."""
    return feats, feats[LEVELS[-1]]


@dataclass(frozen=True)
class Stage:
    name: str  # the stage PipelineStageError reports and count_macs counts under
    modes: tuple[str, ...]  # fusion modes the row runs in
    # what the row reads from the run namespace, in order: a name, or a dotted
    # path such as "bundle.vas" that follows attributes
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]  # a leading "_" keeps an output out of the trace
    step: Callable[..., object]  # inputs -> one output, or a tuple of several
    reference: Callable[..., object]  # inputs, then a MacCounter -> float64 outputs
    macs: Callable[[SimpleNamespace], int]  # the step's analytic MACs


# A macs step reads config, h, w, n_class and the decoder mode ("dda" or "ca")
# from a namespace; its terms follow the kernels the row's step calls.
_STRIDES = tuple(2**level for level in LEVELS)  # of the backbone levels C2..C5


def _grid(c: SimpleNamespace, stride: int) -> tuple[int, int]:
    return c.h // stride, c.w // stride


def _pool_macs(c: SimpleNamespace) -> int:  # a stride-4 map pooled into one row per query
    return c.config.n_queries * c.config.embed_dim * (c.h // 4) * (c.w // 4)


def _score_macs(c: SimpleNamespace) -> int:  # one cosine score matrix against the vocabulary
    return macs_matmul(c.config.n_queries, c.config.embed_dim, c.n_class)


def _backbone_macs(c: SimpleNamespace) -> int:
    widths = c.config.backbone_widths
    return sum(  # each level projects a space-to-depth of the previous one
        macs_conv2d_1x1(c_in * STAGE_FACTORS[level] ** 2, c_out, *_grid(c, 2**level))
        for c_in, c_out, level in zip((3, *widths[:-1]), widths, LEVELS)
    )


def _pyramid_macs(c: SimpleNamespace) -> int:
    d, widths = c.config.embed_dim, c.config.backbone_widths
    lateral = sum(macs_conv2d_1x1(w, d, *_grid(c, s)) for w, s in zip(widths, _STRIDES))
    smooth = sum(macs_conv2d_3x3(d, d, *_grid(c, s)) for s in _STRIDES)
    return lateral + smooth + sum(macs_bilinear(d, *_grid(c, s)) for s in _STRIDES[:3])  # top-down


def _aggregate_macs(c: SimpleNamespace) -> int:
    d = c.config.embed_dim
    project = sum(macs_conv2d_1x1(d, d, *_grid(c, s)) for s in _STRIDES)
    return project + 3 * macs_bilinear(d, *_grid(c, 4)) + macs_conv2d_3x3(d, d, *_grid(c, 4))


def _vas_macs(c: SimpleNamespace) -> int:
    d, k = c.config.embed_dim, c.n_class
    head_contraction = d * (c.h // 4) * (c.w // 4) * k
    project = macs_depthwise_3x3(d, *_grid(c, 4)) + macs_conv2d_1x1(d, d, *_grid(c, 4))
    return project + macs_matmul(k, d, d) + head_contraction


def _vit_macs(c: SimpleNamespace) -> int:
    dv, (gh, gw) = c.config.vit_dim, _grid(c, PATCH)
    t = gh * gw + 1  # tokens, the class token included
    patch_embed = macs_matmul(gh * gw, 3 * PATCH * PATCH, dv)
    return patch_embed + macs_attention(t, t, dv) + 2 * t * dv * (4 * dv)  # + MLP


def _upsampler_macs(c: SimpleNamespace) -> int:
    d, dv, (gh, gw) = c.config.embed_dim, c.config.vit_dim, _grid(c, PATCH)
    return macs_transposed_conv2d(dv, dv, gh, gw) + macs_transposed_conv2d(dv, d, 2 * gh, 2 * gw)


def _tdee_macs(c: SimpleNamespace) -> int:
    n, d, t = c.config.n_queries, c.config.embed_dim, c.config.tdee_dim
    return 2 * macs_matmul(n, d, t) + 2 * macs_matmul(n, t // 2, t // 2) + macs_matmul(n, t // 2, d)


def _sdi_macs(c: SimpleNamespace) -> int:
    n, d, k, r = c.config.n_queries, c.config.embed_dim, SDI_KERNEL_SIZE, c.config.sdi_rank
    generators = macs_matmul(n, d, k) + 2 * macs_matmul(n, d, d * r)
    return generators + macs_depthwise_conv1d(n, d, k) + 2 * n * d * r  # + rank-r pointwise


def _clip_macs(c: SimpleNamespace) -> int:  # C5 comes from the backbone row
    d = c.config.embed_dim
    project = macs_conv2d_1x1(c.config.backbone_widths[-1], d, *_grid(c, _STRIDES[-1]))
    return project + macs_bilinear(d, *_grid(c, 4))


ALL = FUSION_MODES


def _decoder_stage(modes: tuple[str, ...], features: str) -> Stage:
    return Stage("decoder", modes, (features, "bundle.decoder"), ("mask_logits", "mask_embeddings",
                 "refined_kernels", "init_attention", "_mask_probs"),
                 lambda *a: decoder_forward(*a), reference.decoder_forward_reference,
                 lambda c: _decoder_macs(c.config, (c.h // 4) * (c.w // 4), c.mode))


STAGES = (
    Stage("backbone", ALL, ("image", "bundle.backbone"), ("_feats", "_c5"),
          lambda *a: _with_c5(extract_features(*a)),
          lambda *a: _with_c5(reference.backbone_reference(*a)), _backbone_macs),
    Stage("aggregator", ALL, ("_feats", "bundle.aggregator"), ("_pyramid",),
          lambda *a: build_pyramid(*a), reference.build_pyramid_reference, _pyramid_macs),
    Stage("aggregator", ALL, ("_pyramid", "bundle.aggregator"), ("agg_features",),
          lambda *a: aggregate(*a), reference.aggregate_reference, _aggregate_macs),
    Stage("vas", ALL, ("agg_features", "text.embeddings", "bundle.vas"),
          ("vs_agg_features", "vas_attention"),
          lambda *a: vas_forward_detailed(*a), reference.vas_forward_reference, _vas_macs),
    Stage("spatial", ("eaf", "sdi", "tdee"), ("image", "bundle.vit"), ("_vit_grid",),
          lambda *a: vit_block_features(*a), reference.vit_block_reference, _vit_macs),
    Stage("fusion", ("eaf",), ("_vit_grid",), ("_vit_grid_up",), lambda g: bilinear_upsample(g, 4),
          lambda g, counter: oracles.bilinear_upsample_oracle(g, 4, counter),
          lambda c: macs_bilinear(c.config.vit_dim, *_grid(c, 4))),
    Stage("fusion", ("eaf",), ("vs_agg_features", "_vit_grid_up", "bundle.eaf"),
          ("early_fused_features",), lambda *a: eaf(*a), reference.eaf_reference,
          lambda c: macs_conv2d_1x1(
              c.config.embed_dim + c.config.vit_dim, c.config.embed_dim, *_grid(c, 4))),
    _decoder_stage(("none", "sdi", "tdee"), "vs_agg_features"),
    _decoder_stage(("eaf",), "early_fused_features"),  # eaf fuses the maps before decoding
    Stage("spatial", ("sdi", "tdee"), ("_vit_grid", "bundle.upsampler"), ("spatial_features",),
          lambda *a: spatial_features(*a), reference.spatial_features_reference, _upsampler_macs),
    Stage("spatial", ("sdi", "tdee"), ("spatial_features", "_mask_probs"), ("spatial_embeddings",),
          lambda *a: spatial_embeddings(*a), reference.mask_pool_reference, _pool_macs),
    Stage("fusion", ("tdee",), ("mask_embeddings", "spatial_embeddings", "bundle.tdee"),
          ("instance_embeddings",), lambda *a: tdee(*a), reference.tdee_reference, _tdee_macs),
    Stage("fusion", ("sdi",), ("mask_embeddings", "spatial_embeddings", "bundle.sdi"),
          ("instance_embeddings",), lambda *a: sdi(*a), reference.sdi_reference, _sdi_macs),
    Stage("fusion", ("none", "eaf"), ("mask_embeddings",), ("instance_embeddings",),
          lambda e: e, lambda e, m: e, lambda c: 0),
    Stage("classifier", ALL, ("instance_embeddings", "text.embeddings"),
          ("scores_in_vocab",),
          lambda *a: in_vocab_scores(*a), reference.in_vocab_scores_reference, _score_macs),
    Stage("classifier", ALL, ("_c5", "bundle.clip_proj"), ("_clip_final",),
          lambda *a: _clip_final_features(*a), reference.clip_final_reference, _clip_macs),
    Stage("classifier", ALL, ("_clip_final", "_mask_probs", "text.embeddings"),
          ("scores_out_vocab",), lambda *a: out_vocab_scores(*a),
          reference.out_vocab_scores_reference, lambda c: _pool_macs(c) + _score_macs(c)),
    Stage("classifier", ALL, ("scores_in_vocab", "scores_out_vocab", "text.seen"),
          ("scores_final",), lambda *a: ensemble(*a), reference.ensemble_reference, lambda c: 0),
)


def _call(stage: str, fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        raise PipelineStageError(stage, exc) from exc


def _resolve_inputs(v: SimpleNamespace, inputs: tuple[str, ...]) -> tuple:
    """A row's ``inputs`` read from the run namespace ``v``."""
    return tuple(attrgetter(name)(v) for name in inputs)


# the run outputs forward reads after the table; _run_stages never frees them
FORWARD_READS = ("_mask_probs", "scores_final")


@functools.cache
def _frees_after(stages: tuple[Stage, ...], mode: str) -> tuple[tuple[str, ...], ...]:
    """Per row of ``stages``, the untraced outputs that no row after it reads
    in ``mode``, nor ``forward``: they are dropped once that row has run."""
    last = {name: i for i, stage in enumerate(stages) if mode in stage.modes
            for name in stage.inputs if name.startswith("_")}
    return tuple(tuple(name for name, j in last.items() if j == i and name not in FORWARD_READS)
                 for i in range(len(stages)))


def _run_stages(image, text, config, bundle, keep, run=lambda stage, args: stage.step(*args)):
    """Run the rows for ``config.fusion`` in order; return the outputs still held by name.

    ``run(stage, args)`` computes a row's outputs from its resolved inputs, by
    default with its step.  ``keep(name, value)`` is called on each traced
    output and returns the value that later rows read.  Traced outputs stay
    to the end; an untraced one is dropped after the last row that reads it,
    unless it is in ``FORWARD_READS``.
    """
    v = SimpleNamespace(image=image, text=text, bundle=bundle)
    for stage, dead in zip(STAGES, _frees_after(STAGES, config.fusion)):
        if config.fusion not in stage.modes:
            continue
        out = _call(stage.name, run, stage, _resolve_inputs(v, stage.inputs))
        for name, value in zip(stage.outputs, out if len(stage.outputs) > 1 else (out,)):
            if not name.startswith("_"):
                value = keep(name, value)
            setattr(v, name, value)
        for name in dead:
            delattr(v, name)
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

    probs, scores = _resolve_inputs(_run_stages(image, text, config, bundle, keep), FORWARD_READS)
    labels = _call("classifier", classify, scores)
    panoptic = _call("assembly", assemble_panoptic, probs, labels, class_is_thing)
    return ForwardResult(panoptic=panoptic, scores=ClassScores(scores), labels=labels, trace=trace)


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
