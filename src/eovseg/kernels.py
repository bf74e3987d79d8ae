"""Vectorized compute kernels, each computing in the result type of its inputs.

Every kernel here is paired with a pure-Python loop oracle in
:mod:`eovseg.oracles`; the `verify` command and the test suite check the pair
against each other on seeded random inputs.

Conventions fixed once for the whole package:
  * convolutions use the correlation convention (no kernel flip);
  * bilinear interpolation uses half-pixel centers (align_corners=false);
  * gelu is the tanh approximation;
  * reductions run in row-major order so results are bitwise reproducible.

``conv2d_3x3`` and ``conv2d_1x1`` split their work into fixed blocks and run
them on up to ``WORKERS`` threads that live for one call (``_run_blocks``).
The blocks do not depend on the thread count and each is computed whole by
one thread, so neither the thread count nor which thread runs a block moves a bit.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
# output pixels per conv2d_3x3 GEMM block, in whole padded rows of W + 2.  Each
# worker's float64 buffers are its block's padded input rows (the block's rows
# plus 3), one tap product, the sum and one (C_out, C_in) tap:
# 8*((C_in*(rows + 3) + 2*C_out*rows)*(W + 2) + C_out*C_in) bytes, about 3.6 MiB
# at 256 channels on a 64x64 map (7 rows a block).  1024 holds about twice the
# row buffers and ran the 256-channel 64x64 convolution up to a tenth faster on
# one thread.
CONV_BLOCK_COLUMNS = 512
CONV1X1_BLOCK_BYTES = 1 << 20  # least input bytes per conv2d_1x1 column block
DEPTHWISE_BLOCK_BYTES = 1 << 18  # padded input bytes per depthwise_conv2d_3x3 channel block
UPSAMPLE_BLOCK_BYTES = 1 << 19  # output bytes per bilinear_upsample channel block
LAYER_NORM_EPS = 1e-5  # added to the variance
L2_NORM_FLOOR = 1e-12  # least norm a row is divided by
# threads that run one call's convolution blocks: the caller plus up to WORKERS - 1
# started for it, one per CPU this process may run on (``taskset -c 0``: serial)
_affinity = getattr(os, "sched_getaffinity", None)
WORKERS = len(_affinity(0)) if _affinity else os.cpu_count() or 1


# ---------------------------------------------------------------------------
# normalization and activations


def softmax(x: np.ndarray, axis: int) -> np.ndarray:
    if axis >= x.ndim:
        raise ValueError(f"softmax: axis {axis} out of range for rank {x.ndim}")
    if not np.all(np.isfinite(x)):
        raise ValueError("softmax: non-finite input")
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Normalize the last axis to zero mean / unit population variance, then affine."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ValueError(
            f"layer_norm: gamma/beta must have shape ({d},), got {gamma.shape}/{beta.shape}"
        )
    mean = np.mean(x, axis=-1, keepdims=True)
    var = np.mean((x - mean) ** 2, axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + LAYER_NORM_EPS) * gamma + beta


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function in the dtype of ``x``, with no subnormal result.

    Two-branch form on ``e = exp(-|x|)``, whose argument is never positive,
    so nothing overflows: ``1/(1+e)`` for x >= 0 and ``e/(1+e)`` for x < 0.
    Below the dtype's smallest normal (2**-126 in float32) ``e/(1+e)`` is
    ``e``, a subnormal; ``e`` is zeroed there first, so such outputs are 0
    (each moves by less than that normal) and subnormals never reach the
    mask-pooling matmuls, which run several times slower on them.  In
    float32 the point below which the result is 0 moves from -103.97 to -87.34.
    Every other output is bitwise the plain two-branch form's.
    """
    e = np.abs(x, out=np.empty_like(x))  # e is worked on in place: two full-size arrays, not five
    np.negative(e, out=e)
    np.exp(e, out=e)
    e *= e >= np.finfo(x.dtype).tiny
    out = np.where(x < 0, e, x.dtype.type(1))
    e += 1
    out /= e
    return out


def gelu(x: np.ndarray) -> np.ndarray:
    # tanh approximation: 0.5*x*(1 + tanh(sqrt(2/pi)*(x + 0.044715*x^3)))
    inner = SQRT_2_OVER_PI * (x + 0.044715 * x**3)
    return 0.5 * x * (1.0 + np.tanh(inner))


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


# ---------------------------------------------------------------------------
# convolutions


def _run_blocks(n_blocks: int, make_worker) -> None:
    """Run blocks ``0..n_blocks-1`` on the calling thread and up to WORKERS - 1 helper threads.

    ``make_worker()`` returns one thread's ``run(block)``; it is called here,
    in the calling thread, once per thread, so each thread's buffers are made
    before any block runs.  Each thread claims the next unclaimed block until
    none is left (no fixed shares: a thread slowed by a busy core takes fewer).
    Every helper started is joined before this returns or raises the first
    error (a block's or a start's); a failed block leaves the rest unclaimed.
    """
    runs = [make_worker() for _ in range(min(WORKERS, n_blocks))]
    blocks, lock, errors = iter(range(n_blocks)), threading.Lock(), []

    def drain(run) -> None:
        try:
            while True:
                with lock:
                    block = next(blocks, None)
                if block is None:
                    return
                run(block)
        except BaseException as exc:
            with lock:
                errors.append(exc)
                for _ in blocks:
                    pass

    helpers = []
    try:
        for run in runs[1:]:
            helper = threading.Thread(target=drain, args=(run,), name="eovseg-blocks")
            helper.start()
            helpers.append(helper)
        drain(runs[0])
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]


def conv2d_1x1(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Pointwise convolution. x: (C_in,H,W); w: (C_out,C_in); b: (C_out,) or None.

    ``np.einsum`` sums each output over the channels in order, in the
    inputs' type, a multiply then an add: bitwise the loop
    ``out += w[:, c] * x[c]`` on every map wider than one pixel
    (``tests/test_kernels.py`` pins this).
    A map with at least twice CONV1X1_BLOCK_BYTES of input runs in
    ``nbytes // CONV1X1_BLOCK_BYTES`` column blocks of equal width (they
    differ by at most one column, never a short tail: a one-column block
    makes einsum sum the channels in its innermost loop, which changes
    bits), spread over ``_run_blocks``' threads.  Each thread copies its
    block into its own contiguous buffer, which stays in cache while every
    output channel reads it; a block keeps each output's order, so the
    blocks are bitwise the single call.
    """
    c_in = x.shape[0]
    if w.ndim != 2 or w.shape[1] != c_in:
        raise ValueError(f"conv2d_1x1: weight shape {w.shape} incompatible with C_in={c_in}")
    pixels = x.shape[1] * x.shape[2]
    n = min(x.nbytes // CONV1X1_BLOCK_BYTES, pixels // 2)
    if n <= 1:
        out = np.einsum("oc,chw->ohw", w, x)
    else:
        flat = x.reshape(c_in, pixels)
        out = np.empty((w.shape[0], *x.shape[1:]), dtype=np.result_type(w, x))
        out_flat = out.reshape(w.shape[0], pixels)
        bounds = [pixels * i // n for i in range(n + 1)]

        def worker():
            buf = np.empty(c_in * -(-pixels // n), dtype=x.dtype)

            def run(i: int) -> None:
                j0, j1 = bounds[i], bounds[i + 1]
                block = buf[: c_in * (j1 - j0)].reshape(c_in, j1 - j0)
                np.copyto(block, flat[:, j0:j1])
                np.einsum("oc,cp->op", w, block, out=out_flat[:, j0:j1])

            return run

        _run_blocks(n, worker)
    if b is not None:
        out = out + b[:, None, None]
    return out


def conv2d_3x3(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """3x3 correlation, zero padding 1, stride 1. w: (C_out,C_in,3,3)."""
    c_in, h, wd = x.shape
    if w.ndim != 4 or w.shape[1] != c_in or w.shape[2:] != (3, 3):
        raise ValueError(f"conv2d_3x3: weight shape {w.shape} incompatible with C_in={c_in}")
    # Nine per-tap GEMMs over a flattened zero-padded row block.  A block of
    # output rows r0.. holds map rows r0-1.. with a zero column either side
    # and zero rows beyond the map, plus one extra row, so tap (dy, dx) is a
    # contiguous window starting at dy*(W+2)+dx; each output row carries two
    # wrap-around columns, which are dropped.  Only the block is ever float64:
    # the map is never padded whole, and each thread refills one float64
    # (C_out, C_in) buffer per tap from w.  Each tap's product goes into one
    # reused buffer and is added to the float64 sum in (dy, dx) order, with
    # one rounding to the inputs' type at the end.  The blocks are fixed by
    # CONV_BLOCK_COLUMNS alone, never by the thread count: dgemm sums a
    # product's last few columns in another order, so the block size moves
    # float64 rounding, which the rounding to float32 has hidden in every
    # case tried.
    c_out, row = w.shape[0], wd + 2
    step = max(1, CONV_BLOCK_COLUMNS // row)
    out = np.empty((c_out, h, wd), dtype=np.result_type(x, w))
    most = min(step, h)

    def worker():
        padded = np.empty(c_in * (most + 3) * row)
        prod, acc = np.empty(c_out * most * row), np.empty(c_out * most * row)
        taps = np.empty((c_out, c_in))

        def run(i: int) -> None:
            r0 = i * step
            rows = min(step, h - r0)
            n = rows * row
            lo, hi = max(r0 - 1, 0), min(r0 + rows + 2, h)  # the map rows in the block
            block = padded[: c_in * (rows + 3) * row].reshape(c_in, rows + 3, row)
            block.fill(0)
            block[:, lo - r0 + 1 : hi - r0 + 1, 1:-1] = x[:, lo:hi]
            flat = block.reshape(c_in, -1)
            total = acc[: c_out * n].reshape(c_out, n)
            tap = prod[: c_out * n].reshape(c_out, n)
            total.fill(0)
            for dy in range(3):
                for dx in range(3):
                    start = dy * row + dx
                    np.copyto(taps, w[:, :, dy, dx])
                    np.matmul(taps, flat[:, start : start + n], out=tap)
                    total += tap
            if b is not None:
                total += b[:, None]
            out[:, r0 : r0 + rows] = total.reshape(c_out, rows, row)[:, :, :wd]

        return run

    _run_blocks(-(-h // step), worker)
    return out


def depthwise_conv2d_3x3(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per-channel 3x3 correlation, zero padding 1. w: (C,3,3).

    Channels run in blocks of about DEPTHWISE_BLOCK_BYTES of padded input,
    so the tap products stay in cache.  Each output still adds its nine
    tap products to zero in (dy, dx) order, so the blocks change no bit.
    """
    c, h, wd = x.shape
    if w.shape != (c, 3, 3):
        raise ValueError(f"depthwise_conv2d_3x3: weight shape {w.shape}, need ({c},3,3)")
    out = np.zeros_like(x)
    step = max(1, DEPTHWISE_BLOCK_BYTES // ((h + 2) * (wd + 2) * x.itemsize))
    for c0 in range(0, c, step):
        xp = np.pad(x[c0 : c0 + step], ((0, 0), (1, 1), (1, 1)))
        block, taps = out[c0 : c0 + step], w[c0 : c0 + step]
        for dy in range(3):
            for dx in range(3):
                block += taps[:, dy, dx, None, None] * xp[:, dy : dy + h, dx : dx + wd]
    return out


def depthwise_conv1d(signals: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Row-wise 1-D correlation: row n of signals with kernel row n, zero padded.

    signals: (N, D); kernels: (N, m) with m odd; output (N, D).
    """
    n, d = signals.shape
    if kernels.ndim != 2 or kernels.shape[0] != n:
        raise ValueError(
            f"depthwise_conv1d: kernels shape {kernels.shape} incompatible with N={n}"
        )
    m = kernels.shape[1]
    if m % 2 == 0:
        raise ValueError(f"depthwise_conv1d: kernel length must be odd, got {m}")
    pad = (m - 1) // 2
    sp = np.pad(signals, ((0, 0), (pad, pad)))
    out = np.zeros_like(signals)
    for t in range(m):
        out += kernels[:, t : t + 1] * sp[:, t : t + d]
    return out


def transposed_conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Exact 2x upsampling transposed convolution: 2x2 kernel, stride 2, no overlap.

    x: (C_in,H,W); w: (C_in,C_out,2,2); output (C_out,2H,2W).
    """
    c_in, h, wd = x.shape
    if w.ndim != 4 or w.shape[0] != c_in or w.shape[2:] != (2, 2):
        raise ValueError(
            f"transposed_conv2d: weight shape {w.shape} incompatible with C_in={c_in}"
        )
    c_out = w.shape[1]
    # non-overlapping taps: out[o, 2i+dy, 2j+dx] = sum_c x[c,i,j] * w[c,o,dy,dx],
    # one GEMM with rows (o,dy,dx) and columns (i,j), then interleaved
    taps = w.reshape(c_in, 4 * c_out).T @ x.reshape(c_in, h * wd)
    out = taps.reshape(c_out, 2, 2, h, wd).transpose(0, 3, 1, 4, 2).reshape(c_out, 2 * h, 2 * wd)
    if b is not None:
        out += b[:, None, None]
    return out


# ---------------------------------------------------------------------------
# resampling and normalization


def _bilinear_axis(n_in: int, n_out: int, dtype: np.dtype):
    """Half-pixel source indices and weights (in ``dtype``) for one axis."""
    dst = np.arange(n_out, dtype=np.float64)
    src = (dst + 0.5) * (n_in / n_out) - 0.5
    lo = np.clip(np.floor(src), 0, n_in - 1).astype(np.int64)
    hi = np.minimum(lo + 1, n_in - 1)
    frac = np.clip(src - lo, 0.0, 1.0)
    return lo, hi, frac.astype(dtype)


def bilinear_resize(x: np.ndarray, out_hw: tuple[int, int]) -> np.ndarray:
    """Channel-wise bilinear resample to any (H', W') with half-pixel centers. x: (C,H,W).

    Uses the lerp form a + (b-a)*t so constant maps stay exactly constant.
    Separable: every input row is lerped along x once, then those rows are
    lerped along y.  Row ylo of the x-lerp is exactly the four-corner form's
    ``ll + (lh-ll)*fx``, so both forms agree bit for bit.
    """
    _, h, w = x.shape
    ylo, yhi, fy = _bilinear_axis(h, out_hw[0], x.dtype)
    xlo, xhi, fx = _bilinear_axis(w, out_hw[1], x.dtype)
    lo = x[:, :, xlo]
    rows = lo + (x[:, :, xhi] - lo) * fx[None, None, :]
    top = rows[:, ylo]
    return top + (rows[:, yhi] - top) * fy[None, :, None]


def _lerp_phases(a: np.ndarray, factor: int, axis: int, out: np.ndarray) -> None:
    """``bilinear_resize``'s lerp along one axis of a (C,H,W) map, by slicing.

    ``out`` has ``a``'s shape with a ``factor`` axis inserted after ``axis``:
    phase ``p`` of sample ``i`` is output index ``factor*i + p``.  It reads
    taps ``i+s`` and ``i+s+1`` of the axis padded by one edge sample on each
    side, with ``s = 0`` and fraction ``(p+0.5)/factor + 0.5`` for
    ``p < factor/2``, else ``s = 1`` and ``(p+0.5)/factor - 0.5``: the
    gather's operands and its exact dyadic fractions, the edge copies
    standing in for its clamped taps.
    """
    n = a.shape[axis]
    first, last, taps = [slice(None)] * 3, [slice(None)] * 3, [slice(None)] * 3
    first[axis], last[axis] = slice(0, 1), slice(n - 1, n)
    padded = np.concatenate((a[tuple(first)], a, a[tuple(last)]), axis=axis)
    diff = np.diff(padded, axis=axis)
    phase = [slice(None)] * 4
    for p in range(factor):
        s = 0 if 2 * p < factor else 1
        frac = a.dtype.type((p + 0.5) / factor + 0.5 - s)
        taps[axis], phase[axis + 1] = slice(s, s + n), p
        dst = out[tuple(phase)]
        np.multiply(diff[tuple(taps)], frac, out=dst)
        dst += padded[tuple(taps)]


def bilinear_upsample(x: np.ndarray, factor: int) -> np.ndarray:
    """Channel-wise bilinear 2^k upsampling with half-pixel centers. x: (C,H,W).

    A power-of-two ratio makes ``n_in / n_out`` exactly ``1 / factor``, so the
    source coordinates are exact dyadic values and each output phase has one
    fraction.  Lerping phase slices, x first and then y, gives
    ``bilinear_resize``'s values without its gathers (a -0.0 edge sample
    may come out +0.0).  Blocks of channels keep each block's temporaries
    near ``UPSAMPLE_BLOCK_BYTES``, in cache.
    """
    if factor not in (2, 4, 8):
        raise ValueError(f"bilinear_upsample: factor must be one of 2/4/8, got {factor}")
    c, h, w = x.shape
    out = np.empty((c, h * factor, w * factor), dtype=x.dtype)
    step = max(1, UPSAMPLE_BLOCK_BYTES // out[:1].nbytes)
    for c0 in range(0, c, step):
        block = x[c0 : c0 + step]
        k = block.shape[0]
        rows = np.empty((k, h, w, factor), dtype=x.dtype)
        _lerp_phases(block, factor, 2, rows)
        _lerp_phases(rows.reshape(k, h, w * factor), factor, 1,
                     out[c0 : c0 + k].reshape(k, h, factor, w * factor))
    return out


def l2_normalize(x: np.ndarray) -> np.ndarray:
    """Scale each row of a 2-D array to unit length."""
    norm = np.sqrt(np.sum(x.astype(np.float64) ** 2, axis=1, keepdims=True))
    norm = np.maximum(norm, L2_NORM_FLOOR)
    return (x / norm).astype(x.dtype, copy=False)


# ---------------------------------------------------------------------------
# linear algebra helpers used by the model modules


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Row-vector linear map: x @ w (+ b). w is (in, out)."""
    if x.shape[-1] != w.shape[0]:
        raise ValueError(f"linear: input width {x.shape[-1]} != weight rows {w.shape[0]}")
    out = x @ w
    if b is not None:
        out = out + b
    return out


def multi_head_attention(
    q_in: np.ndarray,
    kv_in: np.ndarray,
    wq: np.ndarray,
    wk: np.ndarray,
    wv: np.ndarray,
    wo: np.ndarray,
    heads: int,
) -> np.ndarray:
    """Standard multi-head attention over row sets (no masking, no biases).

    q_in: (Nq, D); kv_in: (Nk, D); all projections (D, D) with D divisible
    by `heads`; returns (Nq, D) before any residual.
    """
    d = q_in.shape[-1]
    if d % heads != 0:
        raise ValueError(f"multi_head_attention: width {d} not divisible by {heads} heads")
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)
    q = linear(q_in, wq)
    k = linear(kv_in, wk)
    v = linear(kv_in, wv)
    out = np.empty((q_in.shape[0], d), dtype=q.dtype)
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        logits = (q[:, sl] @ k[:, sl].T) * scale
        attn = softmax(logits, axis=1)
        out[:, sl] = attn @ v[:, sl]
    return linear(out, wo)
