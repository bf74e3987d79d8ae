"""Fusion variant tests: gated experts, early aggregation, dynamic interaction."""

import numpy as np
import pytest

from eovseg import reference
from eovseg.fusion import EafWeights, SdiWeights, TdeeWeights, eaf, sdi, tdee
from eovseg.tensor import Rng

D = 8


class TestTdee:
    def test_zero_router_forced_path(self, verify_check):
        verify_check("tdee_zero_router_forced_path", seed=1)

    def test_expert_swap_symmetry_bitwise(self, verify_check):
        verify_check("tdee_expert_swap_symmetry", seed=100)

    def test_stepwise_oracle_at_pinned_dims(self):
        # pinned N=4, D=8, d=8: 8-wide rows keep the layer norms well conditioned
        rng, worst = Rng(4), 0.0
        for seed in range(20):
            w = TdeeWeights.build(400 + seed, D, D)
            em, es = rng.normal((4, D)), rng.normal((4, D))
            ref = reference.tdee_reference(em, es, w)
            worst = max(worst, float(np.max(np.abs(tdee(em, es, w) - ref))))
        assert worst < 1e-5

    def test_gates_strictly_inside_unit_interval(self, verify_check):
        verify_check("tdee_gate_range", seed=500)

    def test_output_shape(self):
        for n, d, dd in ((1, 4, 4), (5, 8, 4), (3, 8, 8)):
            w = TdeeWeights.build(6, d, dd)
            out = tdee(Rng(7).normal((n, d)), Rng(8).normal((n, d)), w)
            assert out.shape == (n, d)

    def test_row_count_mismatch(self):
        w = TdeeWeights.build(9, D, D)
        with pytest.raises(ValueError, match="row counts"):
            tdee(np.zeros((2, D), np.float32), np.zeros((3, D), np.float32), w)

    def test_odd_projection_width_rejected(self):
        with pytest.raises(ValueError, match="even"):
            TdeeWeights(
                proj_m=np.zeros((D, 3), np.float32),
                proj_s=np.zeros((D, 3), np.float32),
                router_m_w=np.zeros((1, 1), np.float32),
                router_m_b=np.zeros(1, np.float32),
                router_s_w=np.zeros((1, 1), np.float32),
                router_s_b=np.zeros(1, np.float32),
                ln_fuse_m=(np.ones(1, np.float32), np.zeros(1, np.float32)),
                ln_fuse_s=(np.ones(1, np.float32), np.zeros(1, np.float32)),
                ln_gate_m=(np.ones(1, np.float32), np.zeros(1, np.float32)),
                ln_gate_s=(np.ones(1, np.float32), np.zeros(1, np.float32)),
                out_w=np.zeros((1, D), np.float32),
                out_b=np.zeros(D, np.float32),
                ln_out=(np.ones(D, np.float32), np.zeros(D, np.float32)),
            )


class TestEaf:
    def test_selector_keeps_features(self):
        dv = 5
        w = EafWeights.build(1, D, dv)
        w.w = np.concatenate([np.eye(D, dtype=np.float32), np.zeros((dv, D), np.float32)], axis=0)
        w.b = np.zeros(D, np.float32)
        feat = Rng(2).normal((D, 3, 3))
        spat = Rng(3).normal((dv, 3, 3))
        assert np.array_equal(eaf(feat, spat, w), feat)

    def test_selector_keeps_spatial_channels(self):
        dv = D + 2  # spatial side wide enough to select D channels from
        w = EafWeights.build(4, D, dv)
        w.w = np.concatenate([np.zeros((D, D), np.float32), np.eye(dv, D, dtype=np.float32)], axis=0)
        w.b = np.zeros(D, np.float32)
        feat = Rng(5).normal((D, 2, 2))
        spat = Rng(6).normal((dv, 2, 2))
        assert np.array_equal(eaf(feat, spat, w), spat[:D])

    def test_extent_mismatch_rejected(self):
        w = EafWeights.build(7, D, 4)
        with pytest.raises(ValueError, match="extents"):
            eaf(np.zeros((D, 2, 2), np.float32), np.zeros((4, 3, 3), np.float32), w)

    def test_loop_oracle(self):
        w = EafWeights.build(8, D, 4)
        feat = Rng(9).normal((D, 3, 3))
        spat = Rng(10).normal((4, 3, 3))
        ref = reference.eaf_reference(feat, spat, w)
        assert np.max(np.abs(eaf(feat, spat, w) - ref)) < 1e-5


class TestSdi:
    def test_identity_pipeline(self):
        # forced kernel [0,1,0] per query and identity pointwise matrix
        w = SdiWeights.build(1, D, rank=D)
        w.gen_kernel_w = np.zeros_like(w.gen_kernel_w)
        w.gen_kernel_b = np.array([0, 1, 0], dtype=np.float32)
        w.gen_left_w = np.zeros_like(w.gen_left_w)
        w.gen_left_b = np.eye(D, dtype=np.float32).reshape(-1)
        w.gen_right_w = np.zeros_like(w.gen_right_w)
        w.gen_right_b = np.eye(D, dtype=np.float32).reshape(-1)
        es = Rng(2).normal((3, D))
        out = sdi(Rng(3).normal((3, D)), es, w)
        assert np.max(np.abs(out - es)) < 1e-6

    def test_zero_value_side(self):
        w = SdiWeights.build(4, D, 2)
        out = sdi(Rng(5).normal((2, D)), np.zeros((2, D), np.float32), w)
        assert np.all(out == 0)

    def test_loop_oracle_n2_d6_k3_r2(self):
        w = SdiWeights.build(6, 6, 2)
        em = Rng(7).normal((2, 6), std=0.5)
        es = Rng(8).normal((2, 6), std=0.5)
        ref = reference.sdi_reference(em, es, w)
        assert np.max(np.abs(sdi(em, es, w) - ref)) < 1e-5
