"""Kernel unit tests: pinned analytic cases, wide-channel and block-size cases,
and the seeded oracle equivalence of each kernel, run as its named `verify` check."""

import math
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eovseg import kernels, oracles, verify
from eovseg.tensor import Rng


def max_err(a, b):
    return float(np.max(np.abs(np.asarray(a, np.float64) - np.asarray(b, np.float64))))


def two_branch_sigmoid(x):
    """The plain two-branch sigmoid, without the subnormal flush."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def channel_loop_1x1(x, w):
    """Pointwise convolution summed one input channel at a time in float32; w: (C_in, C_out)."""
    out = np.zeros((w.shape[1], *x.shape[1:]), dtype=np.float32)
    for c in range(x.shape[0]):
        out += w[c, :, None, None] * x[c]
    return out


def nine_tap_depthwise(x, w):
    """The depthwise 3x3 correlation over all channels at once: nine taps added to zero."""
    h, wd = x.shape[1:]
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    out = np.zeros_like(x)
    for dy in range(3):
        for dx in range(3):
            out += w[:, dy, dx][:, None, None] * xp[:, dy : dy + h, dx : dx + wd]
    return out


# ---------------------------------------------------------------------------
# softmax / layer_norm / pointwise


class TestSoftmax:
    def test_uniform_logits(self):
        out = kernels.softmax(np.zeros(2, dtype=np.float32), 0)
        assert np.allclose(out, [0.5, 0.5])

    def test_two_class_analytic(self):
        out = kernels.softmax(np.array([math.log(2), 0.0], dtype=np.float32), 0)
        assert np.allclose(out, [2 / 3, 1 / 3], atol=1e-6)

    def test_loop_oracle_2x3x4(self):
        x = Rng(3).normal((2, 3, 4), std=2.0)
        assert max_err(kernels.softmax(x, 2), oracles.softmax_oracle(x, 2)) < 1e-6

    def test_nonfinite_rejected(self):
        x = np.array([np.inf, 0.0], dtype=np.float32)
        with pytest.raises(ValueError, match="non-finite"):
            kernels.softmax(x, 0)

    def test_oracle_equivalence_all_axes(self, verify_check):
        verify_check("softmax_vs_loop_oracle", seed=11)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=8), st.floats(-10, 10))
    def test_shift_invariance_and_sum(self, row, shift):
        x = np.array(row, dtype=np.float32)
        out = kernels.softmax(x, 0)
        assert abs(float(out.sum(dtype=np.float64)) - 1.0) < 1e-6
        shifted = kernels.softmax(x + np.float32(shift), 0)
        assert max_err(out, shifted) < 1e-5


class TestLayerNorm:
    def test_two_point_symmetry(self):
        x = np.array([[1.0, 3.0]], dtype=np.float32)
        out = kernels.layer_norm(x, np.ones(2, np.float32), np.zeros(2, np.float32))
        assert np.allclose(out, [[-1.0, 1.0]], atol=1e-3)  # eps pulls slightly inward

    def test_zero_variance_guard(self):
        x = np.full((1, 4), 2.5, dtype=np.float32)
        out = kernels.layer_norm(x, np.ones(4, np.float32), np.zeros(4, np.float32))
        assert np.all(out == 0.0)

    def test_loop_oracle_4x8(self):
        rng = Rng(5)
        x = rng.normal((4, 8), std=2.0)
        gamma = rng.normal((8,))
        beta = rng.normal((8,))
        assert max_err(kernels.layer_norm(x, gamma, beta), oracles.layer_norm_oracle(x, gamma, beta)) < 1e-5

    def test_oracle_equivalence_seeded(self, verify_check):
        verify_check("layer_norm_vs_loop_oracle", seed=13)


class TestPointwise:
    def test_sigmoid_midpoint(self):
        assert kernels.sigmoid(np.zeros(1, np.float32))[0] == 0.5

    def test_gelu_zero_fixed_point(self):
        assert kernels.gelu(np.zeros(1, np.float32))[0] == 0.0

    def test_sigmoid_extreme_logits_saturate(self):
        out = kernels.sigmoid(np.array([1e9, -1e9], dtype=np.float32))
        assert out[0] == 1.0 and out[1] == 0.0

    @pytest.mark.parametrize("name", ["sigmoid", "gelu", "relu"])
    def test_oracle_equivalence(self, verify_check, name):
        verify_check(f"{name}_vs_loop_oracle", seed=17)


class TestSigmoidFlush:
    FLT_MIN = np.finfo(np.float32).tiny

    @staticmethod
    def grid():
        # the flush region, both cutoffs, plus signed zeros and infinities
        specials = np.array([0.0, -0.0, np.inf, -np.inf], dtype=np.float32)
        return np.concatenate([np.linspace(-110, -80, 300_001, dtype=np.float32), specials])

    def test_no_subnormal_result(self):
        out = kernels.sigmoid(self.grid())
        assert out.dtype == np.float32 and not np.any(np.isnan(out))
        assert np.all((out == 0) | (out >= self.FLT_MIN))

    def test_cutoff_moves_to_flt_min(self):
        # exp(x) crosses FLT_MIN = 2**-126 at x = -126 ln 2 = -87.3365
        out = kernels.sigmoid(np.array([-87.33, -87.34, -100.0], dtype=np.float32))
        assert out[0] >= self.FLT_MIN and out[1] == 0 and out[2] == 0
        assert 0 < two_branch_sigmoid(np.array([-100.0], dtype=np.float32))[0] < self.FLT_MIN

    @pytest.mark.parametrize("shape", [(1,), (7,), (100, 16, 16), (3, 17, 5)])
    def test_two_branch_form_wherever_it_is_normal(self, shape):
        x = Rng(19).normal(shape) * np.float32(40)
        for values in (x, self.grid(), np.linspace(-110, 110, 200_001, dtype=np.float32)):
            ref, out = two_branch_sigmoid(values), kernels.sigmoid(values)
            normal = ref >= self.FLT_MIN
            assert np.array_equal(out[normal], ref[normal])
            assert np.all(out[~normal] == 0) and np.all(ref[~normal] < self.FLT_MIN)

    def test_within_oracle_tolerance(self):
        x = np.concatenate([np.linspace(-110, -80, 2001, dtype=np.float32),
                            np.linspace(-20, 20, 2001, dtype=np.float32)])
        assert max_err(kernels.sigmoid(x), oracles.sigmoid_oracle(x)) < 1e-6


# ---------------------------------------------------------------------------
# convolutions


class TestConv2d:
    def test_pointwise_identity(self):
        x = Rng(1).normal((3, 4, 4))
        out = kernels.conv2d_1x1(x, np.eye(3, dtype=np.float32), np.zeros(3, np.float32))
        assert np.array_equal(out, x)

    def test_k3_delta_kernel_identity(self):
        x = Rng(2).normal((2, 5, 5))
        w = np.zeros((3, 3, 2, 2), dtype=np.float32)
        for c in range(2):
            w[1, 1, c, c] = 1.0
        out = kernels.conv2d_3x3(x, w, None)
        assert np.array_equal(out, x)

    def test_k3_loop_oracle_3x5x5(self):
        rng = Rng(21)
        x = rng.normal((3, 5, 5))
        w = rng.normal((3, 3, 4, 3))
        b = rng.normal((4,))
        assert max_err(kernels.conv2d_3x3(x, w, b), oracles.conv2d_3x3_oracle(x, w, b)) < 1e-5

    @pytest.mark.parametrize("block", [1024, 7, 40])
    @pytest.mark.parametrize(
        "c_in, c_out, h, w", [(24, 6, 7, 11), (32, 5, 13, 4), (28, 4, 1, 9), (25, 3, 10, 1)]
    )
    def test_k3_loop_oracle_wide_channels(self, monkeypatch, block, c_in, c_out, h, w):
        # enough channels for BLAS blocking; non-square, single-row and
        # single-column maps; block 1024 was the default until it became 512,
        # block 7 gives one GEMM block per output row, block 40 several rows
        # per block with a short last one (7 = 3+3+1 rows at width 11, 13 =
        # 6+6+1 at width 4).  In float32 each block is bitwise the default
        # block (CONV_BLOCK_COLUMNS) here.  In float64 a block moves only
        # float64 rounding: dgemm sums a product's last few columns in another
        # order, and which pixels are last depends on the block.
        rng = Rng(1000 + c_in)
        draw = rng.normal((c_in, h, w)), rng.normal((3, 3, c_out, c_in)), rng.normal((c_out,))
        cases = [tuple(a.astype(dtype) for a in draw) for dtype in (np.float32, np.float64)]
        defaults = [kernels.conv2d_3x3(*args) for args in cases]
        monkeypatch.setattr(kernels, "CONV_BLOCK_COLUMNS", block)
        for args, default in zip(cases, defaults):
            out = kernels.conv2d_3x3(*args)
            assert out.shape == (c_out, h, w) and out.dtype == args[0].dtype
            if out.dtype == np.float32:
                assert np.array_equal(out, default)
            else:
                assert max_err(out, default) <= 1e-14 * np.max(np.abs(default))
            assert max_err(out, oracles.conv2d_3x3_oracle(*args)) < 1e-5

    def test_k3_without_bias_is_contiguous_float32(self):
        rng = Rng(22)
        x = rng.normal((24, 5, 7))
        w = rng.normal((3, 3, 3, 24))
        out = kernels.conv2d_3x3(x, w, None)
        assert out.dtype == np.float32 and out.flags.c_contiguous
        assert max_err(out, oracles.conv2d_3x3_oracle(x, w, None)) < 1e-5

    def test_channel_mismatch(self):
        x = np.zeros((3, 2, 2), dtype=np.float32)
        with pytest.raises(ValueError, match="incompatible"):
            kernels.conv2d_1x1(x, np.zeros((4, 2), np.float32), None)

    @pytest.mark.parametrize(
        "c_in, h, w, c_out, n_blocks",
        [pytest.param(*case, 32, n, id="-".join(map(str, case))) for case, n in (
            ((48, 64, 64), 1), ((256, 64, 64), 4), ((320, 64, 64), 5), ((1024, 8, 8), 1),
            ((256, 2, 3), 1), ((320, 37, 53), 2), ((256, 1, 1), 1), ((1024, 1, 1), 1),
            ((1024, 2, 2), 1), ((512, 4, 4), 1))]
        + [(256, 32, 32, 32, 2), (256, 16, 16, 256, 4), (64, 32, 32, 256, 4),
           (320, 32, 32, 256, 20), (1024, 4, 4, 512, 2), (1024, 8, 8, 512, 8)],
    )
    def test_1x1_is_the_sequential_channel_loop(self, monkeypatch, c_in, h, w, c_out, n_blocks):
        # einsum's order, which the stored benchmark scores depend on: each
        # output sums the channels in order, multiply then add in float32.
        # (320, 64, 64) and (320, 37, 53) split into column blocks of unequal
        # width; (256, 2, 3), the 1x1, 2x2 and 4x4 maps and the last two have
        # fewer pixels than the output channels, so the output channel is
        # innermost, one-pixel maps too.  n_blocks is the block count at the
        # shipped constants: the last six maps, below the column blocks, split
        # their output channels or, with the output channel innermost, their
        # pixels.
        rng = Rng(2000 + c_in)
        x, wt = rng.normal((c_in, h, w)), rng.normal((c_in, c_out))
        counts, _ = blocks_run(monkeypatch)
        assert np.array_equal(kernels.conv2d_1x1(x, wt), channel_loop_1x1(x, wt))
        assert counts == [n_blocks]

    @pytest.mark.parametrize("block_bytes", [1, 64, 1000])
    @pytest.mark.parametrize("c_in, h, w", [(8, 1, 5), (24, 7, 9), (5, 6, 1)])
    def test_1x1_column_blocks_do_not_change_values(self, monkeypatch, block_bytes, c_in, h, w):
        # down to the narrowest split allowed: two columns per block; 4 output
        # channels keep every map at least as wide as C_out, so it is split
        rng = Rng(2002 + c_in)
        draw = rng.normal((c_in, h, w)), rng.normal((c_in, 4)), rng.normal((4,))
        cases = [tuple(a.astype(dtype) for a in draw) for dtype in (np.float32, np.float64)]
        wholes = [kernels.conv2d_1x1(*args) for args in cases]
        monkeypatch.setattr(kernels, "CONV1X1_BLOCK_BYTES", block_bytes)
        for args, whole in zip(cases, wholes):
            out = kernels.conv2d_1x1(*args)
            assert out.dtype == args[0].dtype and out.flags.c_contiguous
            assert np.array_equal(out, whole)

    def test_depthwise_channel_blocks_bitwise_equal_to_nine_taps(self):
        # 257 channels at 64x64 leave a short last channel block
        rng = Rng(2003)
        x, wt = rng.normal((257, 64, 64)), rng.normal((257, 3, 3))
        assert kernels.DEPTHWISE_BLOCK_BYTES // (66 * 66 * 4) < 257
        out = kernels.depthwise_conv2d_3x3(x, wt)
        assert out.dtype == np.float32 and out.flags.c_contiguous
        assert np.array_equal(out, nine_tap_depthwise(x, wt))

    @pytest.mark.parametrize(
        "mode, kernel",
        [("pointwise_1x1", "conv2d_1x1"), ("k3_pad1", "conv2d_3x3"),
         ("depthwise_3x3", "depthwise_conv2d_3x3")],
        ids=["pointwise_1x1", "k3_pad1", "depthwise_3x3"],
    )
    def test_oracle_equivalence(self, verify_check, mode, kernel):
        verify_check(f"{kernel}_vs_loop_oracle", seed=31 + len(mode))


@pytest.fixture
def workers(monkeypatch):
    """``workers(k)`` runs convolution blocks on k threads, whatever the host's CPUs."""
    return lambda k: monkeypatch.setattr(kernels, "WORKERS", k)


def blocks_run(monkeypatch) -> tuple[list[int], list[int]]:
    """Record the block count and the threads (workers made) of every ``_run_blocks`` call."""
    counts, threads, run_blocks = [], [], kernels._run_blocks

    def spy(n_blocks, make_worker, *args):
        counts.append(n_blocks)
        threads.append(0)

        def counted():
            threads[-1] += 1
            return make_worker()

        run_blocks(n_blocks, counted, *args)

    monkeypatch.setattr(kernels, "_run_blocks", spy)
    return counts, threads


class TestBlockRunner:
    @staticmethod
    def runs_alike(monkeypatch, workers, call, n_blocks, dtype):
        """``call()`` on 1, 2 and 3 workers: the same ``n_blocks`` blocks each
        time, on min(k, n_blocks) threads, and bitwise the same output."""
        counts, threads = blocks_run(monkeypatch)
        outs = []
        for k in (1, 2, 3):
            workers(k)
            outs.append(call())
        assert counts == [n_blocks] * 3
        assert threads == [min(k, n_blocks) for k in (1, 2, 3)]
        assert all(np.array_equal(out, outs[0]) for out in outs[1:])
        assert outs[0].dtype == dtype and outs[0].flags.c_contiguous

    @pytest.mark.parametrize("n_blocks", [1, 2, 3, 7])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_3x3_bitwise_equal_on_1_2_3_workers(self, monkeypatch, workers, dtype, n_blocks):
        # rows of 8 pixels and 16-pixel blocks: two map rows per block, the
        # last block one row short; 1024 multiply-adds a block start the
        # threads on these maps and leave the one-row map (864 a tap) whole
        rng = Rng(3000 + n_blocks)
        args = tuple(a.astype(dtype) for a in (
            rng.normal((24, 2 * n_blocks - 1, 6)), rng.normal((3, 3, 6, 24)), rng.normal((6,))))
        monkeypatch.setattr(kernels, "CONV_BLOCK_COLUMNS", 16)
        monkeypatch.setattr(kernels, "BLOCK_MACS", 1024)
        self.runs_alike(monkeypatch, workers, lambda: kernels.conv2d_3x3(*args), n_blocks, dtype)

    @pytest.mark.parametrize("n_blocks", [2, 3, 4])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_row_block_3x3_bitwise_equal_on_1_2_3_workers(
            self, monkeypatch, workers, dtype, n_blocks):
        # a 3x10 map is one row block; 5760 multiply-adds a tap split its 8
        # output channels into n_blocks blocks
        rng = Rng(3050 + n_blocks)
        args = tuple(a.astype(dtype) for a in (
            rng.normal((24, 3, 10)), rng.normal((3, 3, 8, 24)), rng.normal((8,))))
        monkeypatch.setattr(kernels, "BLOCK_MACS", 5760 // n_blocks)
        self.runs_alike(monkeypatch, workers, lambda: kernels.conv2d_3x3(*args), n_blocks, dtype)

    @pytest.mark.parametrize("n_blocks", [2, 3, 7])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_1x1_bitwise_equal_on_1_2_3_workers(self, monkeypatch, workers, dtype, n_blocks):
        # column blocks: CONV1X1_BLOCK_BYTES is an n_blocks-th of the input
        rng = Rng(3100 + n_blocks)
        x, w, b = (a.astype(dtype) for a in (
            rng.normal((8, 5, 6)), rng.normal((8, 6)), rng.normal((6,))))
        monkeypatch.setattr(kernels, "CONV1X1_BLOCK_BYTES", x.nbytes // n_blocks)
        monkeypatch.setattr(kernels, "BLOCK_MACS", 1)
        self.runs_alike(monkeypatch, workers, lambda: kernels.conv2d_1x1(x, w, b), n_blocks, dtype)

    @pytest.mark.parametrize("n_blocks", [2, 3, 6])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(8, 5, 6), (8, 2, 3)], ids=["pixel_inner", "channel_inner"])
    def test_sub_threshold_1x1_bitwise_equal_on_1_2_3_workers(
            self, monkeypatch, workers, dtype, shape, n_blocks):
        # below the column blocks: 12 output channels split into channel
        # blocks over 30 pixels, and into pixel blocks over 6
        rng = Rng(3150 + n_blocks)
        x, w, b = (a.astype(dtype) for a in (
            rng.normal(shape), rng.normal((8, 12)), rng.normal((12,))))
        monkeypatch.setattr(kernels, "BLOCK_MACS", (x.size * 12 - 1) // n_blocks)
        self.runs_alike(monkeypatch, workers, lambda: kernels.conv2d_1x1(x, w, b), n_blocks, dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_upsample_bitwise_equal_on_1_2_3_workers(self, monkeypatch, workers, dtype):
        # two channels of output a block: 7 channels in 4 blocks
        x = Rng(3200).normal((7, 5, 6)).astype(dtype)
        monkeypatch.setattr(kernels, "UPSAMPLE_BLOCK_BYTES", 2 * 20 * 24 * x.itemsize)
        monkeypatch.setattr(kernels, "BLOCK_MACS", 1)
        self.runs_alike(monkeypatch, workers, lambda: kernels.bilinear_upsample(x, 4), 4, dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_depthwise_bitwise_equal_on_1_2_3_workers(self, monkeypatch, workers, dtype):
        # two channels of padded input (H+3 rows of W+2) a block: 7 channels in 4 blocks
        rng = Rng(3250)
        x, w = (a.astype(dtype) for a in (rng.normal((7, 5, 6)), rng.normal((7, 3, 3))))
        monkeypatch.setattr(kernels, "DEPTHWISE_BLOCK_BYTES", 2 * 8 * 8 * x.itemsize)
        monkeypatch.setattr(kernels, "BLOCK_MACS", 1)
        self.runs_alike(monkeypatch, workers, lambda: kernels.depthwise_conv2d_3x3(x, w), 4, dtype)
        assert np.array_equal(kernels.depthwise_conv2d_3x3(x, w), nine_tap_depthwise(x, w))

    def test_small_call_runs_on_the_calling_thread(self, workers):
        # up to 2 * BLOCK_MACS multiply-adds a call makes one worker, the
        # caller's, whatever its block count
        workers(4)
        for macs, want in ((2 * kernels.BLOCK_MACS, 1), (2 * kernels.BLOCK_MACS + 1, 4)):
            made, ran_on = [], set()

            def make_worker():
                made.append(None)
                return lambda block: ran_on.add(threading.get_ident())

            kernels._run_blocks(6, make_worker, macs)
            assert len(made) == want
            if want == 1:
                assert ran_on == {threading.get_ident()}

    def test_worker_buffers_cap_the_threads(self, workers):
        workers(8)
        made = []
        kernels._run_blocks(8, lambda: made.append(None) or (lambda block: None),
                            2 * kernels.BLOCK_MACS + 1, kernels.WORKER_BUFFER_BYTES // 3)
        assert len(made) == 3
        made.clear()
        kernels._run_blocks(8, lambda: made.append(None) or (lambda block: None),
                            2 * kernels.BLOCK_MACS + 1, kernels.WORKER_BUFFER_BYTES + 1)
        assert len(made) == 1

    @pytest.mark.parametrize("where", ["caller", "helper"])
    def test_failed_block_reaches_the_caller_after_every_helper(self, workers, where):
        # both threads hold a block at once; one fails, the other is still
        # busy for 0.2 s and must have finished before the error comes back
        workers(2)
        caller, both = threading.current_thread(), threading.Barrier(2, timeout=10)
        started, finished = [], []

        def make_worker():
            def run(block):
                started.append(block)
                both.wait()
                if (threading.current_thread() is caller) == (where == "caller"):
                    raise RuntimeError("block failed")
                time.sleep(0.2)
                finished.append(block)
            return run

        with pytest.raises(RuntimeError, match="block failed"):
            kernels._run_blocks(7, make_worker, 2 * kernels.BLOCK_MACS + 1)
        assert len(started) == 2 and len(finished) == 1  # the other 5 left unclaimed

    def test_every_block_runs_once_on_more_threads_than_cores(self, workers):
        # a lost update of the shared claim would run a block twice or never
        workers(8)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(50):
                ran = []

                def make_worker():
                    ran.append([])
                    return ran[-1].append

                kernels._run_blocks(500, make_worker, 2 * kernels.BLOCK_MACS + 1)
                assert len(ran) == 8
                assert sorted(b for mine in ran for b in mine) == list(range(500))
        finally:
            sys.setswitchinterval(old)


def test_forked_child_runs_its_blocks(cli_env):
    # the parent's multi-block conv has run threads before the fork; the
    # child, which inherits none of them, must run the same call to the
    # same bits.  It runs in a process group of its own, so a hung child is
    # killed with it.
    script = (
        "import os, sys\n"
        "import numpy as np\n"
        "from eovseg import kernels\n"
        "from eovseg.tensor import Rng\n"
        "kernels.WORKERS = 2\n"
        "rng = Rng(7)\n"
        "x, w = rng.normal((64, 64, 64)), rng.normal((3, 3, 64, 64))\n"
        "want = kernels.conv2d_3x3(x, w)\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    os._exit(0 if np.array_equal(kernels.conv2d_3x3(x, w), want) else 1)\n"
        "sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))\n"
    )
    proc = subprocess.Popen([sys.executable, "-c", script], env=cli_env, start_new_session=True)
    try:
        assert proc.wait(timeout=60) == 0
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def test_failed_thread_start_reaches_the_caller_after_started_helpers(workers, monkeypatch):
    workers(3)
    start, started = threading.Thread.start, []

    def start_once(thread):
        if started:
            raise RuntimeError("can't start new thread")
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", start_once)
    with pytest.raises(RuntimeError, match="can't start new thread"):
        kernels._run_blocks(6, lambda: lambda block: time.sleep(0.01), 2 * kernels.BLOCK_MACS + 1)
    assert len(started) == 1 and not started[0].is_alive()


class TestDepthwiseConv1d:
    def test_delta_kernel_identity(self):
        signals = Rng(4).normal((3, 6))
        ker = np.tile(np.array([0, 1, 0], dtype=np.float32), (3, 1))
        assert np.array_equal(kernels.depthwise_conv1d(signals, ker), signals)

    def test_zero_annihilator(self):
        signals = Rng(5).normal((2, 4))
        assert np.all(kernels.depthwise_conv1d(signals, np.zeros((2, 3), np.float32)) == 0)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            kernels.depthwise_conv1d(np.zeros((1, 4), np.float32), np.zeros((1, 2), np.float32))

    def test_pinned_case_n2_d5_m3(self):
        rng = Rng(6)
        signals = rng.normal((2, 5))
        ker = rng.normal((2, 3))
        assert max_err(kernels.depthwise_conv1d(signals, ker), oracles.depthwise_conv1d_oracle(signals, ker)) < 1e-6

    def test_oracle_equivalence_seeded(self, verify_check):
        verify_check("depthwise_conv1d_vs_loop_oracle", seed=41)


class TestTransposedConv2d:
    def test_broadcast_single_input(self):
        x = np.full((1, 1, 1), 3.5, dtype=np.float32)
        w = np.ones((1, 1, 2, 2), dtype=np.float32)
        out = kernels.transposed_conv2d(x, w, None)
        assert out.shape == (1, 2, 2)
        assert np.all(out == 3.5)

    def test_zero_annihilator(self):
        w = Rng(8).normal((2, 3, 2, 2))
        out = kernels.transposed_conv2d(np.zeros((2, 3, 3), np.float32), w, None)
        assert np.all(out == 0)

    def test_doubles_extents(self):
        x = Rng(9).normal((2, 3, 5))
        w = Rng(10).normal((2, 4, 2, 2))
        assert kernels.transposed_conv2d(x, w, None).shape == (4, 6, 10)

    def test_pinned_case_2x3x3(self):
        rng = Rng(12)
        x = rng.normal((2, 3, 3))
        w = rng.normal((2, 3, 2, 2))
        b = rng.normal((3,))
        assert max_err(kernels.transposed_conv2d(x, w, b), oracles.transposed_conv2d_oracle(x, w, b)) < 1e-5

    def test_oracle_equivalence_seeded(self, verify_check):
        verify_check("transposed_conv2d_vs_loop_oracle", seed=43)

    @pytest.mark.parametrize("c_in, c_out, h, w", [(24, 5, 3, 7), (40, 3, 6, 1)])
    def test_oracle_wide_channels(self, c_in, c_out, h, w):
        rng = Rng(44 + c_in)
        draw = rng.normal((c_in, h, w)), rng.normal((c_in, c_out, 2, 2)), rng.normal((c_out,))
        for dtype in (np.float32, np.float64):
            x, wt, b = (a.astype(dtype) for a in draw)
            out = kernels.transposed_conv2d(x, wt, b)
            assert out.dtype == dtype and out.flags.c_contiguous
            assert max_err(out, oracles.transposed_conv2d_oracle(x, wt, b)) < 1e-5


def four_corner_form(x, src_y, src_x):
    """The four-corner gather form of bilinear resampling, kept as a bitwise reference.

    src_y/src_x are the float64 source coordinates of the output rows/columns.
    """

    def taps(src, n_in):
        lo = np.clip(np.floor(src), 0, n_in - 1).astype(np.int64)
        hi = np.minimum(lo + 1, n_in - 1)
        return lo, hi, np.clip(src - lo, 0.0, 1.0).astype(x.dtype)

    ylo, yhi, fy = taps(src_y, x.shape[1])
    xlo, xhi, fx = taps(src_x, x.shape[2])
    fy = fy[None, :, None]
    fx = fx[None, None, :]
    ll = x[:, ylo, :][:, :, xlo]
    lh = x[:, ylo, :][:, :, xhi]
    hl = x[:, yhi, :][:, :, xlo]
    hh = x[:, yhi, :][:, :, xhi]
    top = ll + (lh - ll) * fx
    bot = hl + (hh - hl) * fx
    return top + (bot - top) * fy


def factor_coords(n_in, factor):
    return (np.arange(n_in * factor, dtype=np.float64) + 0.5) / factor - 0.5


class TestBilinearUpsample:
    @pytest.mark.parametrize("factor", [2, 4, 8])
    def test_constancy(self, factor):
        x = np.full((2, 3, 3), 5.0, dtype=np.float32)
        out = kernels.bilinear_upsample(x, factor)
        assert out.shape == (2, 3 * factor, 3 * factor)
        assert np.all(out == 5.0)

    def test_single_sample(self):
        x = np.array([[[2.25]]], dtype=np.float32)
        assert np.all(kernels.bilinear_upsample(x, 4) == 2.25)

    def test_2x2_factor2_formula_oracle(self):
        x = Rng(14).normal((1, 2, 2))
        assert max_err(kernels.bilinear_upsample(x, 2), oracles.bilinear_upsample_oracle(x, 2)) < 1e-6

    def test_unsupported_factor(self):
        with pytest.raises(ValueError, match="factor"):
            kernels.bilinear_upsample(np.zeros((1, 2, 2), np.float32), 3)

    def test_oracle_equivalence_seeded(self, verify_check):
        verify_check("bilinear_upsample_vs_formula_oracle", seed=44)

    @pytest.mark.parametrize("factor", [2, 4, 8])
    @pytest.mark.parametrize(
        "shape", [(1, 1, 1), (3, 1, 6), (2, 5, 1), (1, 7, 4), (4, 3, 9), (5, 16, 16), (2, 33, 17)]
    )
    def test_bitwise_equal_to_four_corner_form(self, factor, shape):
        x = Rng(45 + factor).normal(shape)
        out = kernels.bilinear_upsample(x, factor)
        assert out.shape == (shape[0], shape[1] * factor, shape[2] * factor)
        ref = four_corner_form(x, factor_coords(shape[1], factor), factor_coords(shape[2], factor))
        assert np.array_equal(out, ref)

    @pytest.mark.parametrize("factor", [2, 4, 8])
    @pytest.mark.parametrize("scale", [1.0, 1e-3, 1e4])
    def test_phase_slices_bitwise_equal_to_gather_resize(self, factor, scale):
        for h in (1, 2, 3, 7):
            for w in (1, 2, 3, 7):
                x32 = Rng(47 + 8 * h + w).normal((3, h, w)) * np.float32(scale)
                for x in (x32, x32.astype(np.float64)):
                    out = kernels.bilinear_upsample(x, factor)
                    assert out.dtype == x.dtype and out.flags.c_contiguous
                    ref = four_corner_form(x, factor_coords(h, factor), factor_coords(w, factor))
                    assert ref.dtype == x.dtype and np.array_equal(out, ref), (h, w, x.dtype)

    @pytest.mark.parametrize("factor", [2, 4, 8])
    @pytest.mark.parametrize("h, w", [(1, 1), (1, 7), (7, 1), (3, 2), (7, 7)])
    def test_constant_map_stays_exactly_constant(self, factor, h, w):
        value = np.float32(-0.3)  # not dyadic: any lerp of two unequal taps would show
        out = kernels.bilinear_upsample(np.full((2, h, w), value, dtype=np.float32), factor)
        assert np.all(out == value)

    def test_channel_blocks_do_not_change_values(self, monkeypatch):
        x = Rng(48).normal((7, 5, 6))
        whole = kernels.bilinear_upsample(x, 4)
        monkeypatch.setattr(kernels, "UPSAMPLE_BLOCK_BYTES", 2 * 20 * 24 * 4)  # two channels
        assert np.array_equal(kernels.bilinear_upsample(x, 4), whole)

    def test_mean_preserved_on_ramp(self):
        ramp = np.add.outer(np.arange(3.0), np.arange(4.0)).astype(np.float32)[None]
        for factor in (2, 4, 8):
            up = kernels.bilinear_upsample(ramp, factor)
            assert abs(float(up.mean(dtype=np.float64)) - float(ramp.mean(dtype=np.float64))) < 1e-5


class TestReductions:
    def test_l2_triangle(self):
        out = kernels.l2_normalize(np.array([[3.0, 4.0]], dtype=np.float32))
        assert np.allclose(out, [[0.6, 0.8]], atol=1e-7)

    def test_l2_idempotent_on_unit_rows(self):
        row = np.array([[0.6, 0.8]], dtype=np.float32)
        assert max_err(kernels.l2_normalize(row), row) < 1e-6

    def test_l2_rows_unit_norm(self):
        x = Rng(16).normal((4, 7))
        out = kernels.l2_normalize(x)
        norms = np.linalg.norm(out.astype(np.float64), axis=1)
        assert np.all(np.abs(norms - 1.0) < 1e-6)



# ---------------------------------------------------------------------------
# linear / multi-head attention


class TestDenseLayers:
    def test_linear_identity_plus_bias(self):
        x = Rng(17).normal((3, 4))
        out = kernels.linear(x, np.eye(4, dtype=np.float32), np.ones(4, dtype=np.float32))
        assert np.array_equal(out, x + np.float32(1))

    def test_linear_width_mismatch(self):
        with pytest.raises(ValueError, match="width 3 != weight rows 4"):
            kernels.linear(np.zeros((2, 3), np.float32), np.zeros((4, 2), np.float32))

    def test_single_key_attention_is_value_path(self):
        # one key makes every softmax row a singleton 1, so each query gets kv @ wv @ wo
        rng = Rng(18)
        q, kv = rng.normal((3, 4)), rng.normal((1, 4))
        wq, wk, wv, wo = (rng.normal((4, 4)) for _ in range(4))
        out = kernels.multi_head_attention(q, kv, wq, wk, wv, wo, heads=2)
        assert max_err(out, np.repeat(kv @ wv @ wo, 3, axis=0)) < 1e-5

    def test_heads_must_divide_width(self):
        x = np.zeros((2, 6), np.float32)
        w = np.zeros((6, 6), np.float32)
        with pytest.raises(ValueError, match="not divisible by 4 heads"):
            kernels.multi_head_attention(x, x, w, w, w, w, heads=4)

    @pytest.mark.parametrize("kernel", ["linear", "multi_head_attention"])
    def test_oracle_equivalence_seeded(self, verify_check, kernel):
        verify_check(f"{kernel}_vs_loop_oracle", seed=47)


# ---------------------------------------------------------------------------
# dtype in = dtype out

_DTYPE_DRAWS = {
    **dict.fromkeys(("sigmoid", "gelu", "relu"), verify._draw_pointwise),
    "l2_normalize": lambda rng, t: (rng.normal((4, 6)),),
}


@pytest.mark.parametrize("name", verify.SABOTAGE_TARGETS)
def test_output_dtype_is_the_input_dtype(name):
    """Every kernel computes in its inputs' dtype: float32 in gives float32
    out, and the same draw cast to float64 gives float64."""
    draw = _DTYPE_DRAWS.get(name) or getattr(verify, f"_draw_{name}")
    args = draw(Rng(53), 0)
    for dtype in (np.float32, np.float64):
        cast = [a.astype(dtype) if isinstance(a, np.ndarray) else a for a in args]
        assert getattr(kernels, name)(*cast).dtype == dtype
