"""Oracle-equivalence and invariant suite behind the `verify` command.

Every vectorized kernel is compared against its loop oracle on seeded random
instances.  Every ``pipeline.STAGES`` row's step runs beside its float64
reference in all four fusion modes, at drawn image extents, vocabulary sizes
and decoder depths: the outputs must agree and the reference's oracle counter
must equal the row's analytic MAC count, in float32 and again in float64,
where no row may round to float32.  Module forwards and the decoder's
parts are compared there, at the walk's sizes.  Two decoder rows keep draws
of their own: the whole decoder against its unrolled oracle, to an absolute
1e-4, and the profiler's cross-attention baseline, which no stage runs.
One row runs a generated scene through ``forward`` in every fusion mode and
asserts determinism, trace read-back and replay, and the bound invariants
(attention weights, gates, score sums) on that run.
``--sabotage <kernel>`` flips the sign of one kernel's output, wherever the
model calls it, to prove the harness detects faults.

``CHECKS`` is the one table of checks; the tests run its rows by name.  A
row that compares with an oracle is ``_vs_oracle`` over a draw function.
"""

from __future__ import annotations

import contextlib
import itertools
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import kernels, oracles, reference
from .aggregator import IMAGE_MULTIPLE
from .classifier import TextEmbeddings, build_text_embeddings, classify, ensemble
from .config import FUSION_MODES, ModelConfig
from .decoder import AttentionBlockWeights, DecoderWeights, decoder_forward
from .evaluation import (
    PanopticAnnotation,
    SceneSpec,
    SegmentRecord,
    generate_scene,
    match_segments,
    miou,
    pq_metrics,
)
from .fusion import TdeeWeights, tdee, tdee_detailed
from .pipeline import PipelineStageError, _run_stages, forward, forward_traced, replay_trace
from .profiler import cross_attention_baseline
from .tensor import Rng, read_eovt
from .vas import VasWeights, vas_forward_detailed
from .weights import build_weights, cast_weights

KERNEL_TOL = 1e-5
FLOAT64_TOL = 1e-10  # the stage walk's float64 pass
SABOTAGE_TARGETS = (
    "softmax",
    "layer_norm",
    "sigmoid",
    "gelu",
    "relu",
    "conv2d_1x1",
    "conv2d_3x3",
    "depthwise_conv2d_3x3",
    "depthwise_conv1d",
    "transposed_conv2d",
    "bilinear_upsample",
    "l2_normalize",
    "linear",
    "multi_head_attention",
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@contextlib.contextmanager
def sabotage_kernel(name: str):
    """Flip the sign of one kernel's output for the duration of the block.

    Model modules bind kernels with ``from .kernels import ...``, so every
    attribute of every loaded ``eovseg`` module that is the kernel is replaced.
    """
    if name not in SABOTAGE_TARGETS:
        raise ValueError(f"sabotage: unknown kernel {name!r}; choose from {SABOTAGE_TARGETS}")
    original = getattr(kernels, name)

    def flipped(*args, **kwargs):
        return -original(*args, **kwargs)

    bindings = [
        (module, attr)
        for module_name, module in list(sys.modules.items())
        if module_name.partition(".")[0] == "eovseg"
        for attr, value in vars(module).items()
        if value is original
    ]
    for module, attr in bindings:
        setattr(module, attr, flipped)
    try:
        yield
    finally:
        for module, attr in bindings:
            setattr(module, attr, original)


def _max_err(a, b) -> float:
    """Worst absolute difference; against 0 it is the magnitude of ``a``."""
    if isinstance(a, tuple):  # several outputs: the worst of them
        return max(_max_err(x, y) for x, y in zip(a, b, strict=True))
    if isinstance(a, dict):  # the levels of a feature pyramid: the worst level
        return max(_max_err(x, b[k] if isinstance(b, dict) else b) for k, x in a.items())
    return float(np.max(np.abs(np.asarray(a, np.float64) - np.asarray(b, np.float64))))


def _tol_check(err: float, tol: float) -> tuple[bool, str]:
    return err <= tol, f"max err {err:.2e} (tol {tol:.0e})"


def _vs_oracle(draw, fast, ref, tol: float = KERNEL_TOL):
    """A check that compares ``fast(*args)`` with ``ref(*args)`` on ``trials``
    draws ``args = draw(rng, t)`` and passes if the worst error is within tol.

    ``fast`` must look a kernel up when it runs: a kernel function stored in
    the table would not see ``sabotage_kernel``.
    """

    def run(rng: Rng, trials: int):
        worst = 0.0
        for t in range(trials):
            args = draw(rng, t)
            worst = max(worst, _max_err(fast(*args), ref(*args)))
        return _tol_check(worst, tol)

    return run


def _kernel_vs_oracle(name: str, draw, tol: float = KERNEL_TOL):
    """``kernels.<name>`` against ``oracles.<name>_oracle``; the kernel is
    looked up at each call, so ``sabotage_kernel`` reaches it."""

    def fast(*args):
        return getattr(kernels, name)(*args)

    return _vs_oracle(draw, fast, getattr(oracles, f"{name}_oracle"), tol)


# ---------------------------------------------------------------------------
# kernel draws: each returns the arguments of the kernel and of its oracle


def _rand_shape(rng: Rng, rank: int, hi: int = 6) -> tuple[int, ...]:
    return tuple(int(rng.integers(1, hi + 1)) for _ in range(rank))


def _draw_softmax(rng: Rng, t: int):
    rank = int(rng.integers(1, 5))
    x = rng.normal(_rand_shape(rng, rank), std=3.0)
    return x, int(rng.integers(0, rank))


def _draw_layer_norm(rng: Rng, t: int):
    n, d = int(rng.integers(1, 7)), int(rng.integers(1, 9))
    return rng.normal((n, d), std=2.0), rng.normal((d,)), rng.normal((d,))


def _draw_pointwise(rng: Rng, t: int):
    return (rng.normal(_rand_shape(rng, int(rng.integers(1, 4)), hi=8), std=3.0),)


def _draw_conv2d_1x1(rng: Rng, t: int):
    c_in, c_out = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    h, w = int(rng.integers(1, 7)), int(rng.integers(1, 7))
    return rng.normal((c_in, h, w)), rng.normal((c_out, c_in)), rng.normal((c_out,))


def _draw_conv2d_3x3(rng: Rng, t: int):
    c_in, c_out = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    h, w = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    return rng.normal((c_in, h, w)), rng.normal((c_out, c_in, 3, 3)), rng.normal((c_out,))


def _draw_depthwise_conv2d_3x3(rng: Rng, t: int):
    c, h, w = (int(rng.integers(1, 6)) for _ in range(3))
    return rng.normal((c, h, w)), rng.normal((c, 3, 3))


def _draw_depthwise_conv1d(rng: Rng, t: int):
    n, d = int(rng.integers(1, 6)), int(rng.integers(1, 9))
    m = [1, 3, 5][int(rng.integers(0, 3))]
    return rng.normal((n, d)), rng.normal((n, m))


def _draw_transposed_conv2d(rng: Rng, t: int):
    c_in, c_out = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    h, w = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    return rng.normal((c_in, h, w)), rng.normal((c_in, c_out, 2, 2)), rng.normal((c_out,))


def _draw_bilinear_upsample(rng: Rng, t: int):
    c = int(rng.integers(1, 4))
    h, w = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    return rng.normal((c, h, w)), (2, 4, 8)[t % 3]


def _draw_linear(rng: Rng, t: int):
    n, k, m = (int(rng.integers(1, 7)) for _ in range(3))
    return rng.normal((n, k)), rng.normal((k, m)), None if t % 2 else rng.normal((m,))


def _draw_multi_head_attention(rng: Rng, t: int):
    heads, n_q, n_kv = int(rng.integers(1, 4)), int(rng.integers(1, 6)), int(rng.integers(1, 6))
    d = heads * int(rng.integers(1, 4))
    proj = [rng.normal((d, d), std=1.0 / np.sqrt(d)) for _ in range(4)]  # wq, wk, wv, wo
    return rng.normal((n_q, d)), rng.normal((n_kv, d)), *proj, heads


# ---------------------------------------------------------------------------
# kernel invariants


def check_softmax_properties(rng: Rng, trials: int):
    for _ in range(trials):
        x = rng.normal((3, 5), std=4.0)
        out = kernels.softmax(x, 1)
        if _max_err(out.sum(axis=1), np.ones(3)) > 1e-6:
            return False, "rows do not sum to 1"
        shifted = kernels.softmax(x + np.float32(rng.normal((1,))[0]), 1)
        if _max_err(out, shifted) > 1e-5:
            return False, "not shift invariant"
    return True, "sum=1 and shift invariance hold"


def check_bilinear_mean(rng: Rng, trials: int):
    # means measured with float64 accumulation; the tolerance is on the kernel
    for t in range(trials):
        factor = (2, 4, 8)[t % 3]
        value = float(rng.normal((1,))[0])
        const = np.full((2, 3, 3), value, dtype=np.float32)
        up = kernels.bilinear_upsample(const, factor)
        if not np.all(up == np.float32(value)):
            return False, "constant input did not stay exactly constant"
        h, w = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        ramp = np.add.outer(np.arange(h), np.arange(w)).astype(np.float32)[None]
        up = kernels.bilinear_upsample(ramp, factor)
        if abs(float(up.mean(dtype=np.float64)) - float(ramp.mean(dtype=np.float64))) > 1e-5:
            return False, "ramp input mean drifted"
    return True, "constancy exact; ramp mean preserved"


def check_l2_normalize(rng: Rng, trials: int):
    worst = 0.0
    for _ in range(trials):
        x = rng.normal((int(rng.integers(1, 6)), int(rng.integers(1, 9))))
        out = kernels.l2_normalize(x)
        worst = max(worst, _max_err(out, oracles.l2_normalize_oracle(x, axis=1)))
        norms = np.linalg.norm(out.astype(np.float64), axis=1)
        worst = max(worst, float(np.max(np.abs(norms - 1.0))))
    return _tol_check(worst, 1e-6)


def check_kernel_determinism(rng: Rng, trials: int):
    x = rng.normal((4, 5, 5))
    w = rng.normal((4, 4, 3, 3))
    b = rng.normal((4,))
    # large enough for BLAS to block the GEMMs
    x_wide = rng.normal((32, 16, 16))
    w_wide = rng.normal((32, 32, 3, 3))
    w_up = rng.normal((32, 16, 2, 2))
    # several blocks, so _run_blocks spreads them over its threads: rows of
    # 32 pixels give 16-row conv2d_3x3 blocks (16 + 16 + 8 rows), and 3 MiB
    # of input gives three conv2d_1x1 column blocks; 64 channels keep each
    # block long enough for two threads to overlap
    x_rows, w_rows = rng.normal((64, 40, 30)), rng.normal((64, 64, 3, 3))
    x_cols, w_cols = rng.normal((48, 128, 128)), rng.normal((64, 48))
    cases = (
        lambda: kernels.conv2d_3x3(x, w, b),
        lambda: kernels.softmax(x, 0),
        lambda: kernels.softmax(x, 1),
        lambda: kernels.bilinear_upsample(x, 2),
        lambda: kernels.gelu(x),
        lambda: kernels.conv2d_3x3(x_wide, w_wide, None),
        lambda: kernels.transposed_conv2d(x_wide, w_up, None),
        lambda: kernels.conv2d_3x3(x_rows, w_rows, None),
        lambda: kernels.conv2d_1x1(x_cols, w_cols, None),
    )
    for _ in range(max(2, trials // 5)):
        if not all(np.array_equal(fn(), fn()) for fn in cases):
            return False, "repeated evaluation is not bitwise identical"
    return True, "bitwise stable across repeated evaluation"


# ---------------------------------------------------------------------------
# module-level checks


def check_vas_bounds(rng: Rng, trials: int):
    for _ in range(trials):
        d, heads = 8, 4
        n_class = int(rng.integers(1, 6))
        w = VasWeights.build(int(rng.integers(0, 1 << 31)), d, heads)
        feat = rng.normal((d, 3, 3), std=2.0)
        out, attn = vas_forward_detailed(feat, rng.normal((n_class, d), std=2.0), w)
        lo = np.float32(1.0) / np.float32(n_class)
        if attn.min() < lo or attn.max() > 1.0:
            return False, f"attention weight outside [{lo}, 1]: [{attn.min()}, {attn.max()}]"
        if n_class == 1 and not np.all(attn == 1.0):
            return False, "singleton vocabulary must give exactly 1.0"
        if n_class == 1 and not np.array_equal(out, kernels.conv2d_1x1(
                kernels.depthwise_conv2d_3x3(feat, w.feat_depth), w.feat_point, w.feat_bias)):
            return False, "singleton vocabulary did not give the projection exactly"
    return True, "weights within [1/N_class, 1]; singleton exact and gives the projection"


def check_vas_permutation(rng: Rng, trials: int):
    for _ in range(trials):
        d, heads, n_class = 8, 2, 4
        w = VasWeights.build(int(rng.integers(0, 1 << 31)), d, heads)
        feat = rng.normal((d, 2, 3))
        text = rng.normal((n_class, d))
        perm = np.argsort(rng.normal((n_class,)))
        if not np.array_equal(vas_forward_detailed(feat, text, w)[0],
                              vas_forward_detailed(feat, text[perm], w)[0]):
            return False, "output changed under vocabulary permutation"
    return True, "bitwise invariant to vocabulary row permutation"


def check_tdee_symmetry(rng: Rng, trials: int):
    for _ in range(trials):
        w = TdeeWeights.build(int(rng.integers(0, 1 << 31)), 8, 8)
        em = rng.normal((3, 8))
        es = rng.normal((3, 8))
        if not np.array_equal(tdee(em, es, w), tdee(es, em, w.swapped())):
            return False, "swapping expert sides changed the output"
    return True, "bitwise symmetric under expert swap"


def check_tdee_gates(rng: Rng, trials: int):
    for _ in range(trials):
        w = TdeeWeights.build(int(rng.integers(0, 1 << 31)), 8, 8)
        trace = tdee_detailed(rng.normal((4, 8), std=2.0), rng.normal((4, 8), std=2.0), w)
        for g in (trace.gate_m, trace.gate_s):
            if g.min() <= 0.0 or g.max() >= 1.0:
                return False, f"gate outside (0,1): [{g.min()}, {g.max()}]"
    return True, "gates strictly inside (0, 1)"


def check_tdee_zero_router(rng: Rng, trials: int):
    for _ in range(trials):
        w = TdeeWeights.build(int(rng.integers(0, 1 << 31)), 8, 8)
        for name in ("router_m_w", "router_m_b", "router_s_w", "router_s_b"):
            setattr(w, name, np.zeros_like(getattr(w, name)))
        trace = tdee_detailed(rng.normal((3, 8)), rng.normal((3, 8)), w)
        if max(_max_err(g, np.full((3, w.half), 0.5)) for g in (trace.gate_m, trace.gate_s)) > 1e-6:
            return False, "zero router did not give 0.5 gates"
        expected = 0.5 * (
            kernels.layer_norm(trace.fuse_m, *w.ln_fuse_m)
            + kernels.layer_norm(trace.fuse_s, *w.ln_fuse_s)
        )
        if _max_err(trace.core, expected) > 1e-6:
            return False, "core mismatch in forced-path evaluation"
    return True, "zero router gives 0.5 gates and the averaged core"


# ---------------------------------------------------------------------------
# module draws: each returns the arguments of the forward and of its reference


def _draw_cross_attention(rng: Rng, t: int):
    return rng.normal((2, 8)), rng.normal((8, 2, 2)), AttentionBlockWeights.build(rng, 8, 2)


def _draw_decoder(rng: Rng, t: int):  # D=8, N=3, two layers
    w = DecoderWeights.build(
        int(rng.integers(0, 1 << 31)), 8, 3, 2, heads=2, ffn_expansion=2
    )
    return rng.normal((8, 4, 4)), w


def _draw_templates(rng: Rng, t: int):
    return (rng.normal((3, 4, 6)),)  # M templates, N_class=4, D


def _text_rows(templates):  # the class names and seen mask do not reach the rows
    return build_text_embeddings(templates, list("abcd"), np.ones(4, dtype=bool)).embeddings


def check_ensemble(rng: Rng, trials: int):
    seen = np.array([True])
    got = ensemble(np.float32([[0.8]]), np.float32([[0.5]]), seen)[0, 0]
    want = 0.8**0.6 * 0.5**0.4  # = 0.6628908034679974
    if abs(float(got) - want) > 1e-6:
        return False, f"geometric value {got} != {want}"
    for _ in range(trials):
        s_in = kernels.softmax(rng.normal((3, 4), std=2.0), 1)
        s_out = kernels.softmax(rng.normal((3, 4), std=2.0), 1)
        seen = rng.normal((4,)) > 0
        base = ensemble(s_in, s_out, seen)
        bumped_out = s_out.copy()
        bumped_out[1, 2] += np.float32(0.05)
        bumped = ensemble(s_in, bumped_out, seen)
        if bumped[1, 2] < base[1, 2]:
            return False, "monotonicity violated"
    return True, "reference value and monotonicity hold"


def check_classify(rng: Rng, trials: int):
    for _ in range(trials):
        vals = kernels.softmax(rng.normal((4, 3), std=2.0), 1)
        labels = classify(vals)
        for lab in labels:
            if lab.class_id != int(np.argmax(vals[lab.mask_index])):
                return False, "argmax mismatch"
        scaled = classify(vals * np.float32(3.0))
        if [(l.mask_index, l.class_id) for l in labels] != [
            (l.mask_index, l.class_id) for l in scaled
        ]:
            return False, "argmax not invariant to positive row scaling"
    return True, "argmax oracle and scale invariance hold"


# ---------------------------------------------------------------------------
# metric checks


def _random_annotation(rng: Rng, h=12, w=12, n_seg=4, n_class=3) -> PanopticAnnotation:
    seg = rng.integers(0, n_seg + 1, size=(h, w)).astype(np.int32)  # 0 stays void
    records = []
    for sid in np.unique(seg):
        if sid == 0:
            continue
        records.append(
            SegmentRecord(
                segment_id=int(sid),
                class_id=int(rng.integers(0, n_class)),
                is_thing=bool(rng.integers(0, 2)),
            )
        )
    return PanopticAnnotation(segment_map=seg, segments=records)


def check_pq_identity(rng: Rng, trials: int):
    for _ in range(trials):
        pred = _random_annotation(rng)
        gt = _random_annotation(rng)
        result = pq_metrics(pred, gt)
        for cid, c in result.per_class.items():
            if c.tp > 0 and abs(c.pq - c.sq * c.rq) > 1e-9:
                return False, f"PQ != SQ*RQ for class {cid}"
            for v in (c.pq, c.sq, c.rq):
                if not 0.0 <= v <= 1.0:
                    return False, "metric outside [0, 1]"
    return True, "PQ = SQ*RQ and bounds hold on random pairs"


def check_pq_cases(rng: Rng, trials: int):
    seg = np.zeros((10, 10), dtype=np.int32)
    seg[:5] = 1
    seg[5:] = 2
    gt = PanopticAnnotation(
        segment_map=seg,
        segments=[SegmentRecord(1, 0, True), SegmentRecord(2, 0, True)],
    )
    pred_map = np.zeros((10, 10), dtype=np.int32)
    pred_map[:4] = 1  # overlaps 40 of segment 1's 50 pixels, IoU = 0.8
    pred = PanopticAnnotation(segment_map=pred_map, segments=[SegmentRecord(1, 0, True)])
    r = pq_metrics(pred, gt).per_class[0]
    if abs(r.pq - 0.8 / 1.5) > 1e-4 or abs(r.sq - 0.8) > 1e-9 or abs(r.rq - 1 / 1.5) > 1e-9:
        return False, f"hand case mismatch: pq={r.pq} sq={r.sq} rq={r.rq}"
    perfect = pq_metrics(gt, gt)
    if perfect.pq != 1.0 or miou(gt.semantic_map(), gt.semantic_map()) != 1.0:
        return False, "pred == gt must give PQ = mIoU = 1"
    return True, "hand-computed and identity cases match"


def check_match_uniqueness(rng: Rng, trials: int):
    for _ in range(trials):
        pred = _random_annotation(rng, n_seg=5)
        gt = _random_annotation(rng, n_seg=5)
        matches = match_segments(pred, gt)
        pred_ids = [m.pred_id for m in matches]
        gt_ids = [m.gt_id for m in matches]
        if len(pred_ids) != len(set(pred_ids)) or len(gt_ids) != len(set(gt_ids)):
            return False, "a segment matched more than once"
    return True, "IoU > 0.5 matching is one-to-one"


# ---------------------------------------------------------------------------
# every stage row's step beside its float64 reference


def _instrumented_config(weights_seed: int, decoder_layers: int) -> ModelConfig:
    return ModelConfig(
        embed_dim=8,
        vit_dim=4,
        vas_heads=2,
        n_queries=3,
        decoder_layers=decoder_layers,
        decoder_heads=2,
        ffn_expansion=2,
        tdee_dim=8,
        sdi_rank=2,
        vit_heads=2,
        backbone_widths=(4, 6, 8, 8),
        weights_seed=weights_seed,
    )


class _StageMismatch(Exception):
    """The first wrong count or value of the stage walk, which ends it."""


def check_stages_vs_references(rng: Rng, trials: int):
    """Walk ``pipeline.STAGES`` in every fusion mode, calling each row's step
    and its reference on the one tuple of the row's resolved inputs.  The
    reference's counter must equal the row's ``macs``, and each output of the
    step must lie within ``KERNEL_TOL`` of the reference's, relative to
    max|reference| (floored at the smallest normal double, so an all-zero
    reference needs an exact zero).
    Each walk runs the modes in float32, then on its draws cast to float64,
    where every output must be float64 and within ``FLOAT64_TOL``: a float32
    rounding left anywhere errs by about 6e-8.
    Later rows read the step's outputs, as in ``replay_trace``, so each row is
    checked on its own.  One walk per 25 trials, each on fresh weights, with
    each image extent drawn from {32, 64}, 1 to 4 classes (1 is the singleton
    vocabulary) and 1 or 2 decoder layers.  The first wrong count, dtype or
    value ends the check."""
    runs, worst, walks = 0, dict.fromkeys((np.float32, np.float64), 0.0), []
    for _ in range(max(1, trials // 25)):
        image_hw = tuple(IMAGE_MULTIPLE * int(rng.integers(1, 3)) for _ in range(2))
        n_class, layers = int(rng.integers(1, 5)), int(rng.integers(1, 3))
        walk = f"{image_hw[0]}x{image_hw[1]} image, N_class={n_class}, decoder_layers={layers}"
        walks.append(walk)
        cfg = _instrumented_config(int(rng.integers(0, 1 << 31)), layers)
        bundle = build_weights(cfg, image_hw)  # no weight depends on the fusion mode
        image = rng.normal((3, *image_hw))
        rows = oracles.l2_normalize_oracle(rng.normal((n_class, cfg.embed_dim)), axis=1)
        rows = rows.astype(np.float32)  # as build_text_embeddings returns them
        passes = ((np.float32, KERNEL_TOL, bundle),
                  (np.float64, FLOAT64_TOL, cast_weights(bundle, np.float64)))
        for (dtype, tol, weights), mode in itertools.product(passes, FUSION_MODES):
            config = replace(cfg, fusion=mode)
            c = SimpleNamespace(config=config, h=image_hw[0], w=image_hw[1], n_class=n_class, mode="dda")
            text = TextEmbeddings(rows.astype(dtype),
                                  [f"c{i}" for i in range(n_class)], np.arange(n_class) % 2 == 0)
            label = mode if dtype is np.float32 else f"{mode} in float64"

            def both(stage, args):
                nonlocal runs
                counter = oracles.MacCounter()
                got, want = stage.step(*args), stage.reference(*args, counter)
                runs += 1
                row = f"{label}: stage {stage.name!r} row {stage.outputs[0]!r}"
                if counter.count != stage.macs(c):
                    raise _StageMismatch(f"{row}: count {counter.count} != analytic "
                                         f"{stage.macs(c)} at {walk}")
                several = len(stage.outputs) > 1
                for name, a, b in zip(stage.outputs, got if several else (got,),
                                      want if several else (want,), strict=True):
                    if any(v.dtype != dtype for v in (a.values() if isinstance(a, dict) else (a,))):
                        raise _StageMismatch(f"{row}: {name!r} is not {np.dtype(dtype)} at {walk}")
                    err = _max_err(a, b) / max(np.finfo(float).tiny, _max_err(b, 0.0))
                    worst[dtype] = max(worst[dtype], err)
                    if not err <= tol:  # NaN fails too
                        raise _StageMismatch(f"{row}: value of {name!r} off by {err:.2e} of "
                                             f"max|reference| (tol {tol:.0e}) at {walk}")
                return got

            try:
                _run_stages(image.astype(dtype), text, config, weights, lambda name, value: value, both)
            except PipelineStageError as exc:
                if isinstance(exc.cause, _StageMismatch):
                    return False, str(exc.cause)
                raise
    return True, (f"counts exact, values within {KERNEL_TOL:.0e} (worst {worst[np.float32]:.2e}) "
                  f"in float32 and {FLOAT64_TOL:.0e} (worst {worst[np.float64]:.2e}) in float64 "
                  f"on all {runs} row runs in modes {list(FUSION_MODES)}; walks at {'; '.join(walks)}")


# ---------------------------------------------------------------------------
# pipeline-level checks


def _verify_config() -> ModelConfig:
    return ModelConfig(
        embed_dim=64,
        vit_dim=32,
        vas_heads=4,
        n_queries=16,
        decoder_layers=2,
        decoder_heads=4,
        tdee_dim=64,
        vit_heads=4,
        backbone_widths=(16, 32, 48, 64),
        weights_seed=5,
    )


def check_pipeline_all_modes(rng: Rng, trials: int):
    """One generated scene through ``forward`` in every fusion mode.  In each
    mode ``forward_traced`` and a plain ``forward`` are bitwise equal (segment
    map, records, labels, scores, every traced tensor), the dump reads back
    equal and ``replay_trace`` finds no stage that differs, VAS attention lies
    in [1/N_class, 1] and both score rows sum to 1; in tdee the gates on the
    traced embeddings lie in (0, 1).  The output shapes agree across modes."""
    cfg = _verify_config()
    spec = SceneSpec(seed=int(rng.integers(0, 1 << 31)), embed_dim=cfg.embed_dim)
    image, _, templates = generate_scene(spec)
    text = build_text_embeddings(templates, spec.class_names, spec.seen_mask())
    things = spec.is_thing()
    bundle = build_weights(cfg, (spec.height, spec.width))  # no weight depends on the fusion mode
    lo = np.float32(1.0) / np.float32(text.n_classes)
    shapes = []
    for mode in FUSION_MODES:
        config = replace(cfg, fusion=mode)
        with tempfile.TemporaryDirectory() as tmp:
            got = forward_traced(image, text, things, config, bundle, tmp)
            dumped = {p.stem: read_eovt(p) for p in Path(tmp).glob("*.eovt")}
        again = forward(image, text, things, config, bundle)
        for what, a, b in (*((f"traced {k}", v, again.trace.get(k)) for k, v in got.trace.items()),
                           ("scores", got.scores.values, again.scores.values),
                           ("segment map", got.panoptic.segment_map, again.panoptic.segment_map)):
            if not np.array_equal(a, b):
                return False, f"{mode}: {what} not bitwise equal between two runs"
        if (got.panoptic.segments, got.labels, len(got.trace)) != (
                again.panoptic.segments, again.labels, len(again.trace)):
            return False, f"{mode}: segment records, labels or traced names differ between two runs"
        if len(dumped) != len(got.trace) or not all(
                np.array_equal(dumped.get(k), v) for k, v in got.trace.items()):
            return False, f"{mode}: the dumped trace does not read back equal"
        failures = replay_trace(image, text, config, bundle, dumped)
        if failures:
            return False, f"{mode}: stages not bitwise on replay: {failures}"
        attn = got.trace["vas_attention"]
        if attn.min() < lo or attn.max() > 1.0:
            return False, f"{mode}: VAS attention outside [1/N_class, 1]: [{attn.min()}, {attn.max()}]"
        for key in ("scores_in_vocab", "scores_out_vocab"):
            sums = got.trace[key].sum(axis=1)
            if _max_err(sums, np.ones_like(sums)) > 1e-6:
                return False, f"{mode}: {key} rows do not sum to 1"
        if mode == "tdee":
            gates = tdee_detailed(got.trace["mask_embeddings"], got.trace["spatial_embeddings"], bundle.tdee)
            if any(g.min() <= 0 or g.max() >= 1 for g in (gates.gate_m, gates.gate_s)):
                return False, "tdee: gates left (0, 1)"
        shapes.append((got.panoptic.segment_map.shape, got.scores.values.shape,
                       got.trace["mask_logits"].shape))
    if len(set(shapes)) > 1:
        return False, f"output shapes differ across modes {list(FUSION_MODES)}: {shapes}"
    return True, (f"modes {list(FUSION_MODES)}: two runs bitwise equal, the dump reads back and replays "
                  "bitwise, attention in [1/N_class, 1], score rows sum to 1, tdee gates in (0, 1), "
                  "equal output shapes")


# ---------------------------------------------------------------------------
# the suite


CHECKS = [
    ("linear_vs_loop_oracle", _kernel_vs_oracle("linear", _draw_linear)),
    ("softmax_vs_loop_oracle", _kernel_vs_oracle("softmax", _draw_softmax, 1e-6)),
    ("softmax_properties", check_softmax_properties),
    ("layer_norm_vs_loop_oracle", _kernel_vs_oracle("layer_norm", _draw_layer_norm)),
    ("sigmoid_vs_loop_oracle", _kernel_vs_oracle("sigmoid", _draw_pointwise, 1e-6)),
    ("gelu_vs_loop_oracle", _kernel_vs_oracle("gelu", _draw_pointwise, 1e-6)),
    ("relu_vs_loop_oracle", _kernel_vs_oracle("relu", _draw_pointwise, 1e-6)),
    ("conv2d_1x1_vs_loop_oracle", _kernel_vs_oracle("conv2d_1x1", _draw_conv2d_1x1)),
    ("conv2d_3x3_vs_loop_oracle", _kernel_vs_oracle("conv2d_3x3", _draw_conv2d_3x3)),
    (
        "depthwise_conv2d_3x3_vs_loop_oracle",
        _kernel_vs_oracle("depthwise_conv2d_3x3", _draw_depthwise_conv2d_3x3),
    ),
    ("depthwise_conv1d_vs_loop_oracle", _kernel_vs_oracle("depthwise_conv1d", _draw_depthwise_conv1d)),
    ("transposed_conv2d_vs_loop_oracle", _kernel_vs_oracle("transposed_conv2d", _draw_transposed_conv2d)),
    (
        "bilinear_upsample_vs_formula_oracle",
        _kernel_vs_oracle("bilinear_upsample", _draw_bilinear_upsample, 1e-6),
    ),
    ("bilinear_mean_preservation", check_bilinear_mean),
    (
        "multi_head_attention_vs_loop_oracle",
        _kernel_vs_oracle("multi_head_attention", _draw_multi_head_attention),
    ),
    ("l2_normalize_vs_loop_oracle", check_l2_normalize),
    ("kernel_determinism", check_kernel_determinism),
    ("vas_attention_bounds", check_vas_bounds),
    ("vas_vocabulary_permutation", check_vas_permutation),
    ("tdee_expert_swap_symmetry", check_tdee_symmetry),
    ("tdee_gate_range", check_tdee_gates),
    ("tdee_zero_router_forced_path", check_tdee_zero_router),
    (
        "cross_attention_vs_attention_oracle",
        _vs_oracle(_draw_cross_attention, cross_attention_baseline, reference.cross_attention_reference),
    ),
    (
        "decoder_vs_unrolled_oracle",
        _vs_oracle(_draw_decoder, decoder_forward, reference.decoder_forward_reference, 1e-4),
    ),
    ("stages_vs_references", check_stages_vs_references),
    (
        "text_embeddings_vs_loop_oracle",
        _vs_oracle(_draw_templates, _text_rows, reference.build_text_embeddings_reference),
    ),
    ("ensemble_correctness", check_ensemble),
    ("classify_argmax_oracle", check_classify),
    ("pq_identity_on_random_pairs", check_pq_identity),
    ("pq_hand_cases", check_pq_cases),
    ("segment_match_uniqueness", check_match_uniqueness),
    ("pipeline_all_modes", check_pipeline_all_modes),
]

# Each row draws from the seed of its slot.  A deleted row's slot stays empty,
# so deleting a row changes no other row's draws.
RETIRED_SLOTS = (22, 23, 24, 26, 36, 37, 38)
SEED_SLOTS = [s for s in range(len(CHECKS) + len(RETIRED_SLOTS)) if s not in RETIRED_SLOTS]


def run_checks(trials: int = 25, seed: int = 0, sabotage: str | None = None) -> list[CheckResult]:
    if trials < 1:
        raise ValueError(f"verify: trials must be >= 1, got {trials}")
    results = []
    ctx = contextlib.nullcontext() if sabotage is None else sabotage_kernel(sabotage)
    with ctx:
        for i, (name, fn) in enumerate(CHECKS):
            rng = Rng((seed << 8) + SEED_SLOTS[i] + 1)
            t0 = time.perf_counter()
            try:
                passed, detail = fn(rng, trials)
            except Exception as exc:  # a crash in a check is a failure, not an abort
                passed, detail = False, f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            results.append(CheckResult(name=name, passed=passed, detail=f"{detail} [{elapsed:.2f}s]"))
    return results
