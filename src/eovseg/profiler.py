"""Analytic parameter/MAC accounting and a wall-time benchmark harness.

The benchmark times one decoder layer with dynamic depthwise attention (dda)
and with the cross-attention (ca) it replaces; the ca baseline lives here,
as no decoder weight holds its block and no forward runs it.

MAC convention (shared with the instrumented oracle counters): one MAC per
data*data or data*weight product inside a contraction, convolution, or
interpolation, with zero padding included; elementwise gates, normalizations,
activations, and plain averaging are not counted.  FLOPs are reported as
2 * MACs; every CSV states this in its header comment.
"""

from __future__ import annotations

import csv
import functools
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .config import ModelConfig
from .decoder import (DDA_KERNEL_SIZE, AttentionBlockWeights, decoder_layer, mask_kernels,
                      predict_masks, refine_kernels)
from .kernels import multi_head_attention
from .tensor import Rng
from .weights import WeightBundle

MODULES = ("backbone", "aggregator", "vas", "decoder", "spatial", "fusion", "text_encoder",
           "classifier", "assembly")

BENCH_WARMUP = 2  # untimed repetitions before benchmark's timed ones

FLOPS_NOTE = "flops = 2 * macs (multiply-accumulate convention)"
CSV_COLUMNS = ("module", "params", "macs", "flops", "time_mean_ns", "time_p50_ns", "time_p95_ns",
               "mode", "config_hash")


# ---------------------------------------------------------------------------
# op-level closed forms (each mirrored by an instrumented oracle)


def macs_conv2d_1x1(c_in: int, c_out: int, h: int, w: int) -> int:
    return c_in * c_out * h * w


def macs_conv2d_3x3(c_in: int, c_out: int, h: int, w: int) -> int:
    return c_in * c_out * h * w * 9


def macs_depthwise_3x3(c: int, h: int, w: int) -> int:
    return c * h * w * 9


def macs_depthwise_conv1d(n: int, d: int, m: int) -> int:
    return n * d * m


def macs_transposed_conv2d(c_in: int, c_out: int, h_in: int, w_in: int) -> int:
    return c_in * c_out * h_in * w_in * 4


def macs_bilinear(c: int, h_out: int, w_out: int) -> int:
    return c * h_out * w_out * 4


def macs_matmul(n: int, k: int, m: int) -> int:
    return n * k * m


def macs_attention(n_q: int, n_kv: int, d: int) -> int:
    """Four projections plus the QK and AV contractions (any head count)."""
    return 2 * n_q * d * d + 2 * n_kv * d * d + 2 * n_q * n_kv * d


def params_dda_layer(d: int) -> int:
    """The bias-free kernel-generating projection."""
    return d * DDA_KERNEL_SIZE


def params_ca_layer(d: int) -> int:
    """Four bias-free projection matrices."""
    return 4 * d * d


# ---------------------------------------------------------------------------
# module-level accounting


def count_params(bundle: WeightBundle) -> dict[str, int]:
    """Exact per-module element counts of a bundle's named tensors."""
    counts = dict.fromkeys(MODULES, 0)
    for name, arr in bundle.to_tensors().items():
        counts[name.split(".", 1)[0]] += arr.size
    return counts


def _decoder_layer_macs(cfg: ModelConfig, hw: int, mode: str) -> int:
    n, d, m = cfg.n_queries, cfg.embed_dim, DDA_KERNEL_SIZE
    if mode == "dda":  # initial attention, then kernel generation and the m-tap conv
        per_layer = n * d * hw + 2 * n * d * m
    else:  # the queries attend over every feature position
        per_layer = macs_attention(n, hw, d)
    per_layer += macs_attention(n, n, d)  # query self-attention
    per_layer += 2 * n * d * (cfg.ffn_expansion * d)  # FFN in and out
    per_layer += 3 * macs_matmul(n, d, d)  # mask-kernel MLP
    per_layer += macs_matmul(n, d, hw)  # mask prediction
    return per_layer


def _decoder_macs(cfg: ModelConfig, hw: int, mode: str) -> int:
    n, d = cfg.n_queries, cfg.embed_dim
    total = cfg.decoder_layers * _decoder_layer_macs(cfg, hw, mode)
    total += macs_matmul(n, d, hw)  # initial mask prediction from the learnable kernels
    total += n * d * hw  # final mask-embedding pooling
    return total


def count_macs(
    cfg: ModelConfig, image_hw: tuple[int, int], n_class: int, mode: str = "dda"
) -> dict[str, int]:
    """Per-module analytic MACs of one forward pass with decoder ``mode``: the sum
    of ``macs`` over the ``pipeline.STAGES`` rows that run in ``cfg.fusion``.
    ``text_encoder`` has no row: template averaging is adds only."""
    from .pipeline import STAGES  # pipeline imports this module for its formulas

    c = SimpleNamespace(config=cfg, h=image_hw[0], w=image_hw[1], n_class=n_class, mode=mode)
    counts = dict.fromkeys(MODULES, 0)
    for stage in STAGES:
        if cfg.fusion in stage.modes:
            counts[stage.name] += stage.macs(c)
    return counts


# ---------------------------------------------------------------------------
# reports


@dataclass
class ProfileRow:
    module: str
    params: int
    macs: int
    mode: str
    time_mean_ns: float = 0.0
    time_p50_ns: float = 0.0
    time_p95_ns: float = 0.0

    @property
    def flops(self) -> int:
        return 2 * self.macs


@dataclass
class ProfileReport:
    rows: list[ProfileRow]
    config_hash: str
    notes: list[str] = field(default_factory=list)

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as f:
            f.write(f"# {FLOPS_NOTE}\n")
            for note in self.notes:
                f.write(f"# {note}\n")
            writer = csv.writer(f)
            writer.writerow(CSV_COLUMNS)
            for r in self.rows:
                times = (f"{t:.0f}" for t in (r.time_mean_ns, r.time_p50_ns, r.time_p95_ns))
                writer.writerow([r.module, r.params, r.macs, r.flops, *times, r.mode, self.config_hash])


def profile_modules(
    cfg: ModelConfig, bundle: WeightBundle, image_hw: tuple[int, int], n_class: int
) -> ProfileReport:
    params = count_params(bundle)
    macs = count_macs(cfg, image_hw, n_class)
    rows = [ProfileRow(module=m, params=params[m], macs=macs[m], mode="dda") for m in MODULES]
    rows.append(ProfileRow("total", sum(params.values()), sum(macs.values()), "dda"))
    return ProfileReport(
        rows=rows, config_hash=cfg.hash({"image_hw": list(image_hw), "n_class": n_class})
    )


@functools.lru_cache(maxsize=1)
def _ca_block(width: int, heads: int, weights_seed: int) -> AttentionBlockWeights:
    """The cross-attention baseline's weights, from substream 0xCA of the weights
    seed (``build_weights`` uses 0 to 9); cached, so a timed call does not draw."""
    return AttentionBlockWeights.build(Rng(weights_seed).child(0xCA), width, heads)


def cross_attention_baseline(
    kernels: np.ndarray, features: np.ndarray, w: AttentionBlockWeights
) -> np.ndarray:
    """Queries attend over every spatial position of the (single-scale) feature map."""
    d = features.shape[0]
    positions = np.ascontiguousarray(features.reshape(d, -1).T)  # (H'W', D)
    return kernels + multi_head_attention(
        kernels, positions, w.wq, w.wk, w.wv, w.wo, w.heads
    )


def _layer_step(features, kernels, logits, bundle: WeightBundle, mode: str):
    """The first decoder layer on given kernels and mask logits; returns its mask logits.
    In ``ca`` mode, cross-attention over every feature position replaces dda."""
    decoder, layer, cfg = bundle.decoder, bundle.decoder.layers[0], bundle.config
    if mode == "dda":
        return decoder_layer(features, kernels, logits, layer, decoder.mask_mlp)[1]
    block = _ca_block(cfg.embed_dim, cfg.decoder_heads, cfg.weights_seed)
    refined = refine_kernels(cross_attention_baseline(kernels, features, block), layer)
    return predict_masks(mask_kernels(refined, decoder.mask_mlp), features)


def benchmark(
    cfg: ModelConfig, bundle: WeightBundle, reps: int, image_hw: tuple[int, int]
) -> ProfileReport:
    """Time one decoder layer with dda and with ca on the same seeded inputs,
    alternating per repetition; counts stay analytic."""
    if reps < 5:
        raise ValueError(f"benchmark: reps must be >= 5, got {reps}")
    h4, w4 = image_hw[0] // 4, image_hw[1] // 4
    rng = Rng(0)
    features = rng.normal((cfg.embed_dim, h4, w4))
    kernels = rng.normal((cfg.n_queries, cfg.embed_dim), std=0.1)
    logits = rng.normal((cfg.n_queries, h4, w4))

    times = {"dda": [], "ca": []}
    for rep in range(BENCH_WARMUP + reps):
        for mode, kept in times.items():
            t0 = time.perf_counter_ns()
            _layer_step(features, kernels, logits, bundle, mode)
            if rep >= BENCH_WARMUP:
                kept.append(time.perf_counter_ns() - t0)

    d = cfg.embed_dim
    params = {"dda": params_dda_layer(d), "ca": params_ca_layer(d)}
    rows = [
        ProfileRow(
            module="decoder_layer",
            params=params[mode],
            macs=_decoder_layer_macs(cfg, h4 * w4, mode),
            mode=mode,
            time_mean_ns=float(statistics.fmean(t)),
            time_p50_ns=float(np.percentile(t, 50)),
            time_p95_ns=float(np.percentile(t, 95)),
        )
        for mode, t in times.items()
    ]
    return ProfileReport(
        rows=rows,
        config_hash=cfg.hash({"image_hw": list(image_hw)}),
        notes=[
            f"reps={reps} warmup={BENCH_WARMUP} (warmup excluded), monotonic clock",
            "params column reports the interaction block only (kernel projection vs QKVO)",
            f"ca_over_dda={rows[1].time_p50_ns / rows[0].time_p50_ns:.3f} (p50 time ratio)",
        ],
    )
