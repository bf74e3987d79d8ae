"""Vectorized compute kernels, each computing in the result type of its inputs.

Every kernel here is paired with a pure-Python loop oracle in
:mod:`eovseg.oracles`; the `verify` command and the test suite check the pair
against each other on seeded random inputs.

Conventions fixed once for the whole package:
  * convolutions use the correlation convention (no kernel flip), and
    their weights are stored in the layout the kernels read: a 3x3 weight
    tap-major, ``(3, 3, C_out, C_in)``, so each tap ``w[dy, dx]`` is one
    contiguous ``(C_out, C_in)`` matrix; a 1x1 weight ``(C_in, C_out)``, as
    ``linear``'s.  ``conv2d_1x1`` keeps the output channel innermost on a
    map of fewer pixels than ``C_out`` and the pixels innermost otherwise;
  * bilinear interpolation uses half-pixel centers (align_corners=false);
  * gelu is the tanh approximation;
  * reductions run in row-major order so results are bitwise reproducible.

Four kernels split their work into fixed blocks and run them on up to
``WORKERS`` threads that live for one call (``_run_blocks``):
  * ``conv2d_3x3`` splits the map's rows, or on a map of one row block its
    output channels;
  * ``conv2d_1x1`` splits the pixels in column blocks on a large map, else
    the output channels, or the pixels where the output channel is innermost;
  * ``depthwise_conv2d_3x3`` and ``bilinear_upsample`` split the channels.
The blocks are fixed by the shapes and the block constants, never by the
thread count, and each is computed whole by one thread, so neither the
thread count nor which thread runs a block moves a bit.  A call of at most
``2 * BLOCK_MACS`` multiply-adds runs its blocks on the calling thread.
In float64 a 3x3 channel block changes the row count of dgemm's products,
which, like a row block's size, moves float64 rounding by about 1e-14; no
float32 output has moved.
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
# least multiply-adds of one product in a conv2d_1x1 channel or pixel block
# and a conv2d_3x3 channel block (one tap's); a call of at most twice this
# many runs all its blocks on the calling thread
BLOCK_MACS = 1 << 22
DEPTHWISE_BLOCK_BYTES = 1 << 18  # most padded input bytes per depthwise_conv2d_3x3 channel block
UPSAMPLE_BLOCK_BYTES = 1 << 19  # most output bytes per bilinear_upsample channel block
LAYER_NORM_EPS = 1e-5  # added to the variance
L2_NORM_FLOOR = 1e-12  # least norm a row is divided by
# threads that run one call's blocks: the caller plus up to WORKERS - 1 started
# for it, one per CPU this process may run on (``taskset -c 0``: serial)
_affinity = getattr(os, "sched_getaffinity", None)
WORKERS = len(_affinity(0)) if _affinity else os.cpu_count() or 1
# most bytes the threads of one call hold in buffers of their own: two
# conv2d_3x3 workers at 256 channels on a 32x32 or 64x64 map
WORKER_BUFFER_BYTES = 8 << 20


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


def _run_blocks(n_blocks: int, make_worker, macs: int, worker_bytes: int = 0) -> None:
    """Run blocks ``0..n_blocks-1`` on the calling thread and up to WORKERS - 1 helper threads.

    ``make_worker()`` returns one thread's ``run(block)``; it is called here,
    in the calling thread, once per thread, so each thread's buffers are made
    before any block runs.  A call of at most ``2 * BLOCK_MACS``
    multiply-adds (``macs``, as ``eovseg.profiler`` counts the call's) runs
    every block on the calling thread and starts none; so does a call of
    one block.  ``worker_bytes``, the buffers one ``make_worker()`` holds,
    caps the threads at WORKER_BUFFER_BYTES of buffers (one at least).
    Each thread claims the next unclaimed block until none is left (no fixed
    shares: a thread slowed by a busy core takes fewer).  Every helper
    started is joined before this returns or raises the first error (a
    block's or a start's); a failed block leaves the rest unclaimed.
    """
    threads = min(WORKERS, n_blocks) if macs > 2 * BLOCK_MACS else 1
    if worker_bytes:
        threads = min(threads, max(1, WORKER_BUFFER_BYTES // worker_bytes))
    runs = [make_worker() for _ in range(threads)]
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


def _cuts(length: int, n: int) -> list[int]:
    """Bounds of ``n`` blocks of ``0..length`` whose lengths differ by at most one."""
    return [length * i // n for i in range(n + 1)]


def conv2d_1x1(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Pointwise convolution. x: (C_in,H,W); w: (C_in,C_out); b: (C_out,) or None.

    ``np.einsum`` sums each output over the channels in order, in the
    inputs' type, a multiply then an add: bitwise the loop
    ``out += w[c, :, None, None] * x[c]`` (``tests/test_kernels.py`` pins
    this) whenever there is more than one output.  The loop order is picked
    from the shapes alone.  A map of fewer pixels than ``C_out`` runs einsum
    with the output channel innermost, over the ``(pixels, C_out)`` output,
    then one transposing copy: a pixel-inner loop would be only a few pixels
    long.  Any other map runs the pixels innermost over a ``(C_out, C_in)``
    copy of ``w``, so einsum takes the output channels outermost and each
    output row stays in cache while the input channels stream through it;
    the copy is at most 1/C_out of the MACs, since the map has at least
    C_out pixels.  (Straight from ``w`` einsum takes the input channels
    outermost and sweeps the whole output once per channel, which ran the
    256-channel 64x64 maps of a 256x256 image up to 2.4 times slower.)

    The work runs in blocks on ``_run_blocks``' threads, each block an
    einsum over a slice of one axis, so every output keeps its
    channel-ordered sum and the blocks are bitwise the single call.  A
    pixel-inner map with at least twice CONV1X1_BLOCK_BYTES of input runs in
    ``nbytes // CONV1X1_BLOCK_BYTES`` column blocks of equal width (they
    differ by at most one column, never a short tail: a one-column block
    makes einsum sum the channels in its innermost loop, which changes
    bits); each thread copies its block into its own contiguous buffer,
    which stays in cache while every output channel reads it.  Any other
    pixel-inner map splits its output channels, at least two a block, and a
    channel-inner map its pixels, into blocks of at least BLOCK_MACS.
    """
    c_in = x.shape[0]
    if w.ndim != 2 or w.shape[0] != c_in:
        raise ValueError(f"conv2d_1x1: weight shape {w.shape} incompatible with C_in={c_in}")
    c_out, pixels = w.shape[1], x.shape[1] * x.shape[2]
    flat, macs = x.reshape(c_in, pixels), c_in * c_out * pixels
    if pixels < c_out:
        n = max(1, min(pixels, macs // BLOCK_MACS))
        cuts, out_po = _cuts(pixels, n), np.empty((pixels, c_out), dtype=np.result_type(x, w))

        def run_pixels(i: int) -> None:
            p0, p1 = cuts[i], cuts[i + 1]
            np.einsum("cp,co->po", flat[:, p0:p1], w, out=out_po[p0:p1])

        _run_blocks(n, lambda: run_pixels, macs)
        out = np.ascontiguousarray(out_po.T).reshape(c_out, *x.shape[1:])
        return out if b is None else out + b[:, None, None]
    w_oc = w.T.copy()
    out = np.empty((c_out, *x.shape[1:]), dtype=np.result_type(w, x))
    out_flat = out.reshape(c_out, pixels)
    n = min(x.nbytes // CONV1X1_BLOCK_BYTES, pixels // 2)
    if n <= 1:
        n = max(1, min(c_out // 2, macs // BLOCK_MACS))
        cuts = _cuts(c_out, n)

        def run_channels(i: int) -> None:
            o0, o1 = cuts[i], cuts[i + 1]
            np.einsum("oc,cp->op", w_oc[o0:o1], flat, out=out_flat[o0:o1])

        _run_blocks(n, lambda: run_channels, macs)
    else:
        cuts, width = _cuts(pixels, n), -(-pixels // n)

        def worker():
            buf = np.empty(c_in * width, dtype=x.dtype)

            def run(i: int) -> None:
                j0, j1 = cuts[i], cuts[i + 1]
                block = buf[: c_in * (j1 - j0)].reshape(c_in, j1 - j0)
                np.copyto(block, flat[:, j0:j1])
                np.einsum("oc,cp->op", w_oc, block, out=out_flat[:, j0:j1])

            return run

        _run_blocks(n, worker, macs, c_in * width * x.itemsize)
    if b is not None:
        out = out + b[:, None, None]
    return out


def conv2d_3x3(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """3x3 correlation, zero padding 1, stride 1. w: (3,3,C_out,C_in), tap-major."""
    c_in, h, wd = x.shape
    if w.ndim != 4 or w.shape[:2] != (3, 3) or w.shape[3] != c_in:
        raise ValueError(f"conv2d_3x3: weight shape {w.shape} incompatible with C_in={c_in}")
    # Nine per-tap GEMMs over a flattened zero-padded row block.  A block of
    # output rows r0.. holds map rows r0-1.. with a zero column either side
    # and zero rows beyond the map, plus one extra row, so tap (dy, dx) is a
    # contiguous window starting at dy*(W+2)+dx; each output row carries two
    # wrap-around columns, which are dropped.  Only the block is ever float64:
    # the map is never padded whole, and each thread casts each contiguous
    # tap w[dy, dx] into one float64 (C_out, C_in) buffer.  Each tap's
    # product goes into one reused buffer and is added to the float64 sum in
    # (dy, dx) order, with one rounding to the inputs' type at the end.  A
    # map of one row block splits its output channels instead, into blocks of
    # at least BLOCK_MACS, and a thread pads the rows once for all the
    # channel blocks it runs.  The blocks are fixed by the shapes and the
    # block constants alone, never by the thread count: dgemm sums a
    # product's last few columns in another order, and the rows of a product
    # may round otherwise in a shorter one, so the block size moves float64
    # rounding, which the rounding to float32 has hidden in every case tried.
    c_out, row = w.shape[2], wd + 2
    step = max(1, CONV_BLOCK_COLUMNS // row)
    n_rows, most = -(-h // step), min(step, h)
    macs = c_in * c_out * h * wd  # one tap's
    n_ch = 1 if n_rows > 1 else max(1, min(c_out // 2, macs // BLOCK_MACS))
    cuts, width = _cuts(c_out, n_ch), -(-c_out // n_ch)
    out = np.empty((c_out, h, wd), dtype=np.result_type(x, w))

    def worker():
        padded = np.empty(c_in * (most + 3) * row)
        prod, acc = np.empty(width * most * row), np.empty(width * most * row)
        taps = np.empty((width, c_in))
        filled = [None]  # the row block now in ``padded``

        def run(i: int) -> None:
            r0, o0, o1 = i // n_ch * step, cuts[i % n_ch], cuts[i % n_ch + 1]
            rows, k = min(step, h - r0), o1 - o0
            n = rows * row
            block = padded[: c_in * (rows + 3) * row].reshape(c_in, rows + 3, row)
            if filled[0] != r0:
                lo, hi = max(r0 - 1, 0), min(r0 + rows + 2, h)  # the map rows in the block
                block.fill(0)
                block[:, lo - r0 + 1 : hi - r0 + 1, 1:-1] = x[:, lo:hi]
                filled[0] = r0
            flat = block.reshape(c_in, -1)
            total = acc[: k * n].reshape(k, n)
            tap = prod[: k * n].reshape(k, n)
            total.fill(0)
            for dy in range(3):
                for dx in range(3):
                    start = dy * row + dx
                    np.copyto(taps[:k], w[dy, dx, o0:o1])
                    np.matmul(taps[:k], flat[:, start : start + n], out=tap)
                    total += tap
            if b is not None:
                total += b[o0:o1, None]
            out[o0:o1, r0 : r0 + rows] = total.reshape(k, rows, row)[:, :, :wd]

        return run

    worker_bytes = 8 * (c_in * (most + 3) * row + 2 * width * most * row + width * c_in)
    _run_blocks(n_rows * n_ch, worker, 9 * macs, worker_bytes)
    return out


def depthwise_conv2d_3x3(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per-channel 3x3 correlation, zero padding 1. w: (C,3,3).

    Channels run in blocks of at most DEPTHWISE_BLOCK_BYTES of padded input,
    so the tap products stay in cache, on ``_run_blocks``' threads.  A block
    is padded once to ``(k, H+3, W+2)`` and read as flat rows of ``W+2``:
    tap ``(dy, dx)`` is then one contiguous slice of ``H*(W+2)`` columns at
    offset ``dy*(W+2) + dx``, whose last two columns per row wrap into the
    next row and are dropped at the end.  Each output still adds its nine
    tap products to zero in (dy, dx) order, so neither the blocks nor the
    flat rows change a bit.
    """
    c, h, wd = x.shape
    if w.shape != (c, 3, 3):
        raise ValueError(f"depthwise_conv2d_3x3: weight shape {w.shape}, need ({c},3,3)")
    out = np.empty_like(x)
    row = wd + 2
    span = h * row  # the columns of one tap, the wrap columns included
    step = max(1, DEPTHWISE_BLOCK_BYTES // ((h + 3) * row * x.itemsize))
    n = max(1, -(-c // step))
    cuts = _cuts(c, n)

    def run(i: int) -> None:
        c0, c1 = cuts[i], cuts[i + 1]
        flat = np.pad(x[c0:c1], ((0, 0), (1, 2), (1, 1))).reshape(c1 - c0, -1)
        acc = np.zeros((c1 - c0, span), dtype=x.dtype)
        product = np.empty_like(acc)
        for dy in range(3):
            for dx in range(3):
                at = dy * row + dx
                np.multiply(w[c0:c1, dy, dx, None], flat[:, at : at + span], out=product)
                acc += product
        out[c0:c1] = acc.reshape(c1 - c0, h, row)[:, :, :wd]

    _run_blocks(n, lambda: run, 9 * x.size)
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


def _lerp_phases(a: np.ndarray, factor: int, axis: int, out: np.ndarray) -> None:
    """One axis of the four-corner bilinear lerp of a (C,H,W) map, by slicing.

    ``out`` has ``a``'s shape with a ``factor`` axis inserted after ``axis``:
    phase ``p`` of sample ``i`` is output index ``factor*i + p``.  It reads
    taps ``i+s`` and ``i+s+1`` of the axis padded by one edge sample on each
    side, with ``s = 0`` and fraction ``(p+0.5)/factor + 0.5`` for
    ``p < factor/2``, else ``s = 1`` and ``(p+0.5)/factor - 0.5``: the
    gather's operands and its exact dyadic fractions, the edge copies
    standing in for its clamped taps.  Each phase is lerped into one
    contiguous buffer and copied into its strided slice of ``out`` once.
    """
    n = a.shape[axis]
    first, last, taps = [slice(None)] * 3, [slice(None)] * 3, [slice(None)] * 3
    first[axis], last[axis] = slice(0, 1), slice(n - 1, n)
    padded = np.concatenate((a[tuple(first)], a, a[tuple(last)]), axis=axis)
    diff = np.diff(padded, axis=axis)
    phase = [slice(None)] * 4
    lerped = np.empty(a.shape, dtype=a.dtype)  # one phase, contiguous
    for p in range(factor):
        s = 0 if 2 * p < factor else 1
        frac = a.dtype.type((p + 0.5) / factor + 0.5 - s)
        taps[axis], phase[axis + 1] = slice(s, s + n), p
        np.multiply(diff[tuple(taps)], frac, out=lerped)
        lerped += padded[tuple(taps)]
        out[tuple(phase)] = lerped  # the one strided pass over the phase


def bilinear_upsample(x: np.ndarray, factor: int) -> np.ndarray:
    """Channel-wise bilinear 2^k upsampling with half-pixel centers. x: (C,H,W).

    A power-of-two ratio makes ``n_in / n_out`` exactly ``1 / factor``, so the
    source coordinates are exact dyadic values and each output phase has one
    fraction.  With the corner taps ``ll``, ``lh``, ``hl``, ``hh`` clamped to
    the map and fractions ``fx``, ``fy``, the four-corner form is
    ``top + (bot - top)*fy`` with ``top = ll + (lh - ll)*fx`` and
    ``bot = hl + (hh - hl)*fx``.  Lerping phase slices, x first and then y,
    gives its values without its gathers (a -0.0 edge sample may come out
    +0.0).  Blocks of channels keep each block's temporaries within
    ``UPSAMPLE_BLOCK_BYTES`` of output, in cache, and run on
    ``_run_blocks``' threads; channels do not mix, so no bit moves.
    """
    if factor not in (2, 4, 8):
        raise ValueError(f"bilinear_upsample: factor must be one of 2/4/8, got {factor}")
    c, h, w = x.shape
    out = np.empty((c, h * factor, w * factor), dtype=x.dtype)
    n = -(-c // max(1, UPSAMPLE_BLOCK_BYTES // out[:1].nbytes))
    cuts = _cuts(c, n)

    def run(i: int) -> None:
        c0, c1 = cuts[i], cuts[i + 1]
        rows = np.empty((c1 - c0, h, w, factor), dtype=x.dtype)
        _lerp_phases(x[c0:c1], factor, 2, rows)
        _lerp_phases(rows.reshape(c1 - c0, h, w * factor), factor, 1,
                     out[c0:c1].reshape(c1 - c0, h, factor, w * factor))

    _run_blocks(n, lambda: run, 4 * out.size)
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
