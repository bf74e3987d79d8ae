"""Naive loop oracles for every vectorized kernel.

These are deliberately written as scalar Python loops over float64 values and
never call into :mod:`eovseg.kernels`, so they stay independent of the code
they check.  Outputs are float64; comparisons against the float32 kernels use
the tolerances pinned in the verify suite.

``MacCounter`` counts multiply-accumulates.  The convention, shared with the
analytic formulas in :mod:`eovseg.profiler`: one MAC per data*data or
data*weight product inside a contraction, convolution, or interpolation
(padding zeros included); normalizations, activations, and interpolation
weight construction are not counted.
"""

from __future__ import annotations

import math

import numpy as np


class MacCounter:
    def __init__(self):
        self.count = 0

    def add(self, n: int) -> None:
        self.count += int(n)


def _f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


# ---------------------------------------------------------------------------
# normalization and activations


def softmax_oracle(x, axis: int) -> np.ndarray:
    x = _f64(x)
    moved = np.ascontiguousarray(np.moveaxis(x, axis, -1))
    out = np.empty(moved.shape, dtype=np.float64)
    flat_in = moved.reshape(-1, moved.shape[-1])
    flat_out = out.reshape(-1, moved.shape[-1])
    for r in range(flat_in.shape[0]):
        row = [float(v) for v in flat_in[r]]
        mx = max(row)
        exps = [math.exp(v - mx) for v in row]
        s = sum(exps)
        flat_out[r] = [e / s for e in exps]
    return np.ascontiguousarray(np.moveaxis(out, -1, axis))


def layer_norm_oracle(x, gamma, beta, eps: float = 1e-5) -> np.ndarray:
    x = _f64(x)
    gamma = _f64(gamma)
    beta = _f64(beta)
    flat = x.reshape(-1, x.shape[-1])
    out = np.empty_like(flat)
    d = x.shape[-1]
    for r in range(flat.shape[0]):
        row = [float(v) for v in flat[r]]
        mean = sum(row) / d
        var = sum((v - mean) ** 2 for v in row) / d
        inv = 1.0 / math.sqrt(var + eps)
        out[r] = [(v - mean) * inv * g + bt for v, g, bt in zip(row, gamma, beta)]
    return out.reshape(x.shape)


def _sigmoid_scalar(v: float) -> float:
    if v >= 0:
        return 1.0 / (1.0 + math.exp(-v))
    e = math.exp(v)
    return e / (1.0 + e)


def sigmoid_oracle(x) -> np.ndarray:
    x = _f64(x)
    flat = x.reshape(-1)
    out = np.array([_sigmoid_scalar(float(v)) for v in flat])
    return out.reshape(x.shape)


def gelu_oracle(x) -> np.ndarray:
    x = _f64(x)
    flat = x.reshape(-1)
    c = math.sqrt(2.0 / math.pi)
    out = np.array(
        [0.5 * float(v) * (1.0 + math.tanh(c * (float(v) + 0.044715 * float(v) ** 3))) for v in flat]
    )
    return out.reshape(x.shape)


def relu_oracle(x) -> np.ndarray:
    x = _f64(x)
    flat = x.reshape(-1)
    out = np.array([float(v) if v > 0.0 else 0.0 for v in flat])
    return out.reshape(x.shape)


# ---------------------------------------------------------------------------
# convolutions


def conv2d_1x1_oracle(x, w, b=None, macs: MacCounter | None = None) -> np.ndarray:
    x = _f64(x)
    w = _f64(w)
    c_in, h, wd = x.shape
    c_out = w.shape[1]  # w: (C_in, C_out)
    out = np.zeros((c_out, h, wd), dtype=np.float64)
    for o in range(c_out):
        for i in range(h):
            for j in range(wd):
                acc = 0.0
                for c in range(c_in):
                    acc += float(w[c, o]) * float(x[c, i, j])
                    if macs is not None:
                        macs.add(1)
                out[o, i, j] = acc + (float(b[o]) if b is not None else 0.0)
    return out


def conv2d_3x3_oracle(x, w, b=None, macs: MacCounter | None = None) -> np.ndarray:
    x = _f64(x)
    w = _f64(w)
    c_in, h, wd = x.shape
    c_out = w.shape[2]  # w: (3, 3, C_out, C_in)
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    out = np.zeros((c_out, h, wd), dtype=np.float64)
    for o in range(c_out):
        for i in range(h):
            for j in range(wd):
                acc = 0.0
                for c in range(c_in):
                    for dy in range(3):
                        for dx in range(3):
                            acc += float(w[dy, dx, o, c]) * float(xp[c, i + dy, j + dx])
                            if macs is not None:
                                macs.add(1)
                out[o, i, j] = acc + (float(b[o]) if b is not None else 0.0)
    return out


def depthwise_conv2d_3x3_oracle(x, w, macs: MacCounter | None = None) -> np.ndarray:
    x = _f64(x)
    w = _f64(w)
    c, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    out = np.zeros((c, h, wd), dtype=np.float64)
    for ch in range(c):
        for i in range(h):
            for j in range(wd):
                acc = 0.0
                for dy in range(3):
                    for dx in range(3):
                        acc += float(w[ch, dy, dx]) * float(xp[ch, i + dy, j + dx])
                        if macs is not None:
                            macs.add(1)
                out[ch, i, j] = acc
    return out


def depthwise_conv1d_oracle(signals, kernels, macs: MacCounter | None = None) -> np.ndarray:
    signals = _f64(signals)
    kernels = _f64(kernels)
    n, d = signals.shape
    m = kernels.shape[1]
    pad = (m - 1) // 2
    out = np.zeros((n, d), dtype=np.float64)
    for row in range(n):
        for j in range(d):
            acc = 0.0
            for t in range(m):
                src = j + t - pad
                v = float(signals[row, src]) if 0 <= src < d else 0.0
                acc += float(kernels[row, t]) * v
                if macs is not None:
                    macs.add(1)
            out[row, j] = acc
    return out


def transposed_conv2d_oracle(x, w, b=None, macs: MacCounter | None = None) -> np.ndarray:
    """Scatter-accumulate form of the stride-2, 2x2-kernel transposed convolution."""
    x = _f64(x)
    w = _f64(w)
    c_in, h, wd = x.shape
    c_out = w.shape[1]
    out = np.zeros((c_out, 2 * h, 2 * wd), dtype=np.float64)
    for c in range(c_in):
        for i in range(h):
            for j in range(wd):
                for o in range(c_out):
                    for dy in range(2):
                        for dx in range(2):
                            out[o, 2 * i + dy, 2 * j + dx] += float(x[c, i, j]) * float(
                                w[c, o, dy, dx]
                            )
                            if macs is not None:
                                macs.add(1)
    if b is not None:
        for o in range(c_out):
            out[o] += float(b[o])
    return out


# ---------------------------------------------------------------------------
# resampling and normalization


def bilinear_upsample_oracle(x, factor: int, macs: MacCounter | None = None) -> np.ndarray:
    """Direct interpolation formula with half-pixel centers and edge clamping."""
    x = _f64(x)
    c, h, wd = x.shape
    ho, wo = h * factor, wd * factor
    out = np.zeros((c, ho, wo), dtype=np.float64)
    for ch in range(c):
        for i in range(ho):
            sy = (i + 0.5) / factor - 0.5
            y0 = min(max(int(math.floor(sy)), 0), h - 1)
            y1 = min(y0 + 1, h - 1)
            fy = min(max(sy - y0, 0.0), 1.0)
            for j in range(wo):
                sx = (j + 0.5) / factor - 0.5
                x0 = min(max(int(math.floor(sx)), 0), wd - 1)
                x1 = min(x0 + 1, wd - 1)
                fx = min(max(sx - x0, 0.0), 1.0)
                out[ch, i, j] = (
                    float(x[ch, y0, x0]) * (1 - fy) * (1 - fx)
                    + float(x[ch, y0, x1]) * (1 - fy) * fx
                    + float(x[ch, y1, x0]) * fy * (1 - fx)
                    + float(x[ch, y1, x1]) * fy * fx
                )
                if macs is not None:
                    macs.add(4)
    return out


def l2_normalize_oracle(x, axis: int = -1, eps: float = 1e-12) -> np.ndarray:
    x = _f64(x)
    moved = np.ascontiguousarray(np.moveaxis(x, axis, -1))
    out = np.empty(moved.shape, dtype=np.float64)
    flat_in = moved.reshape(-1, moved.shape[-1])
    flat_out = out.reshape(-1, moved.shape[-1])
    for r in range(flat_in.shape[0]):
        norm = math.sqrt(sum(float(v) ** 2 for v in flat_in[r]))
        norm = max(norm, eps)
        flat_out[r] = [float(v) / norm for v in flat_in[r]]
    return np.ascontiguousarray(np.moveaxis(out, -1, axis))


# ---------------------------------------------------------------------------
# dense layers (building blocks for the module-level references)


def matmul_oracle(a, b, macs: MacCounter | None = None) -> np.ndarray:
    a = _f64(a)
    b = _f64(b)
    n, k = a.shape
    k2, m = b.shape
    out = np.zeros((n, m), dtype=np.float64)
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(k):
                acc += float(a[i, t]) * float(b[t, j])
                if macs is not None:
                    macs.add(1)
            out[i, j] = acc
    return out


def linear_oracle(x, w, b=None, macs: MacCounter | None = None) -> np.ndarray:
    out = matmul_oracle(x, w, macs)
    if b is not None:
        out = out + _f64(b)
    return out


def multi_head_attention_oracle(
    q_in, kv_in, wq, wk, wv, wo, heads: int, macs: MacCounter | None = None
) -> np.ndarray:
    """Loop-built multi-head attention matching kernels.multi_head_attention."""
    q = linear_oracle(q_in, wq, None, macs)
    k = linear_oracle(kv_in, wk, None, macs)
    v = linear_oracle(kv_in, wv, None, macs)
    d = q.shape[1]
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)
    mixed = np.zeros_like(q)
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        logits = matmul_oracle(q[:, sl], k[:, sl].T, macs) * scale
        attn = softmax_oracle(logits, axis=1)
        mixed[:, sl] = matmul_oracle(attn, v[:, sl], macs)
    return linear_oracle(mixed, wo, None, macs)
