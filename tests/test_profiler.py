"""Profiler tests: parameter counts, analytic MACs, benchmark reports."""

import csv
import types
from dataclasses import replace

import numpy as np
import pytest

from eovseg import decoder, evaluation, oracles, pipeline, weights
from eovseg.config import FUSION_MODES, ModelConfig
from eovseg.decoder import DDA_KERNEL_SIZE, predict_masks
from eovseg.pipeline import STAGES
from eovseg.profiler import (
    MODULES,
    ProfileReport,
    ProfileRow,
    _ca_block,
    _decoder_layer_macs,
    _decoder_macs,
    _layer_step,
    benchmark,
    count_macs,
    count_params,
    macs_attention,
    macs_conv2d_1x1,
    macs_depthwise_conv1d,
    params_ca_layer,
    params_dda_layer,
    profile_modules,
)
from eovseg.tensor import Rng
from eovseg.verify import _instrumented_config, check_stages_vs_references
from eovseg.weights import build_weights, save_weights


def small_config(**over):
    return replace(_instrumented_config(weights_seed=0, decoder_layers=2), **over)


class TestParams:
    def test_dda_projection_params(self):
        assert params_dda_layer(256) == 768  # no bias

    def test_ca_layer_params(self):
        assert params_ca_layer(256) == 4 * 256 * 256

    def test_full_bundle_matches_manifest_walk(self, tmp_path, weight_header):
        cfg = small_config()
        bundle = build_weights(cfg, (32, 32))
        save_weights(bundle, tmp_path)
        counts = count_params(bundle)
        # independent walk over the header of the saved weight file
        walk = 0
        for entry in weight_header(tmp_path)["tensors"].values():
            n = 1
            for e in entry["shape"]:
                n *= e
            walk += n
        assert sum(counts.values()) == walk
        assert sum(counts.values()) == sum(a.size for a in bundle.to_tensors().values())

    def test_missing_tensor_fails(self, tmp_path):
        with pytest.raises(FileNotFoundError, match=weights.WEIGHTS_FILE):
            weights.load_weights(tmp_path / "nope", small_config())

    def test_every_layout_name_has_a_module_prefix(self):
        names = weights._layout(ModelConfig())
        assert [n for n in names if n.split(".", 1)[0] not in MODULES] == []

    @pytest.mark.parametrize("size, total", [(64, 7_998_467), (256, 8_013_827)])
    def test_default_bundle_counts_pinned(self, size, total):
        # the stored bundle holds no cross-attention block; the ViT position
        # table is the only size-dependent tensor
        counts = count_params(build_weights(ModelConfig(), (size, size)))
        assert counts["decoder"] == 2_591_488
        assert sum(counts.values()) == total


def _bump_macs(**by):  # a patch of one STAGES row: its macs off by the given amount
    return lambda s: (replace(s, macs=lambda c, s=s: s.macs(c) + by[s.outputs[0]])
                      if s.outputs[0] in by else s)


def _scale_step(output, factor, mode=None):  # a patch of one STAGES row: its first output scaled
    def scaled(s, *args):
        out = s.step(*args)
        if len(s.outputs) > 1:
            return (out[0] * np.float32(factor), *out[1:])
        return out * np.float32(factor)

    return lambda s: (replace(s, step=lambda *a, s=s: scaled(s, *a))
                      if s.outputs[0] == output and (mode is None or mode in s.modes) else s)


class TestMacs:
    def test_conv_1x1_example(self):
        assert macs_conv2d_1x1(2, 3, 2, 2) == 24  # 48 flops

    def test_dda_example(self):
        assert macs_depthwise_conv1d(100, 256, 3) == 76_800

    @pytest.mark.parametrize(
        "patch, seed, named",
        [
            (_bump_macs(_pyramid=1), 0, "stage 'aggregator' row '_pyramid': count"),
            (_bump_macs(_pyramid=1, agg_features=-1), 0,
             "stage 'aggregator' row '_pyramid': count"),
            (_scale_step("spatial_features", 1 + 1e-4), 0,
             "sdi: stage 'spatial' row 'spatial_features': value"),
            (_scale_step("vs_agg_features", 1 + 1e-4), 0,
             "none: stage 'vas' row 'vs_agg_features': value"),
            (_scale_step("early_fused_features", 1 + 1e-4), 0,
             "eaf: stage 'fusion' row 'early_fused_features': value"),
            (_scale_step("instance_embeddings", 1 + 1e-4, "sdi"), 0,
             "sdi: stage 'fusion' row 'instance_embeddings': value"),
            (_scale_step("instance_embeddings", 1 + 1e-4, "sdi"), 11,
             "sdi: stage 'fusion' row 'instance_embeddings': value"),
            (_scale_step("instance_embeddings", 1 + 1e-4, "tdee"), 0,
             "tdee: stage 'fusion' row 'instance_embeddings': value"),
        ],
        ids=["one_row", "two_rows_cancel", "scaled_step", "scaled_vas", "scaled_eaf",
             "scaled_sdi", "scaled_small_sdi", "scaled_tdee"],
    )
    def test_check_names_a_miscounted_row(self, monkeypatch, patch, seed, named):
        """A row whose ``macs`` is off fails the check by name, also where
        another row of its module cancels it in the module total; so does a
        row whose step drifts from its reference by a relative 1e-4.  The
        bound is relative to max|reference| alone: the sdi output reaches 0.4
        on the seed-0 walk but stays below 0.01 on the seed-11 walk, and the
        drift shows on both."""
        monkeypatch.setattr(pipeline, "STAGES", tuple(patch(s) for s in STAGES))
        passed, detail = check_stages_vs_references(Rng(seed), trials=1)
        assert not passed
        assert named in detail, detail

    @pytest.mark.parametrize("fn, row", [("in_vocab_scores", "scores_in_vocab"),
                                         ("out_vocab_scores", "scores_out_vocab")])
    def test_check_names_a_drifting_classifier_row(self, monkeypatch, fn, row):
        """The walk holds both score rows to their references, so a score off
        by a relative 1e-4 fails it by name."""
        original = getattr(pipeline, fn)
        monkeypatch.setattr(pipeline, fn, lambda *a: original(*a) * np.float32(1 + 1e-4))
        passed, detail = check_stages_vs_references(Rng(0), trials=1)
        assert not passed
        assert f"none: stage 'classifier' row '{row}': value" in detail, detail

    @pytest.mark.parametrize("sabotage", ["ties_to_last", "swapped_ids"])
    def test_check_fails_a_sabotaged_assembly(self, monkeypatch, sabotage):
        """The walk holds the assembly row's map to its reference: a running
        max that gives an exact tie to the later mask (which the walk's
        repeated masks bring about), or a map with segment ids 1 and 2
        swapped, fails it at the assembly stage.  The seed-0 walk assembles
        three thing segments in eaf, where both faults show."""
        if sabotage == "ties_to_last":
            class TiesToLast(types.ModuleType):  # numpy, but ``greater`` admits ties
                greater = staticmethod(np.greater_equal)

                def __getattr__(self, name):
                    return getattr(np, name)

            monkeypatch.setattr(evaluation, "np", TiesToLast("numpy"))
        else:
            real = pipeline.assemble_panoptic

            def swapped(*args):
                out = real(*args)
                ids = out.segment_map.copy()
                ids[out.segment_map == 1], ids[out.segment_map == 2] = 2, 1
                return replace(out, segment_map=ids) if len(out.segments) > 1 else out

            monkeypatch.setattr(pipeline, "assemble_panoptic", swapped)
        passed, detail = check_stages_vs_references(Rng(0), trials=1)
        assert not passed
        assert "stage 'assembly'" in detail, detail

    @pytest.mark.parametrize("fn", ["initial_attention", "dda", "refine_kernels", "mask_kernels",
                                    "predict_masks", "mask_pool"])
    def test_check_names_a_drifting_decoder_part(self, monkeypatch, fn):
        """The decoder's parts have no check of their own: the walk's decoder
        row holds them, so any one of them off by a relative 2e-5, twice the
        walk's tolerance, fails it at the decoder stage."""
        original = getattr(decoder, fn)
        monkeypatch.setattr(decoder, fn, lambda *a: original(*a) * np.float32(1 + 2e-5))
        passed, detail = check_stages_vs_references(Rng(0), trials=1)
        assert not passed
        assert "stage 'decoder'" in detail, detail

    def test_check_stops_at_the_first_mismatch(self, monkeypatch):
        """A miscount in the first row ends the walk: no later row runs."""
        ran = []

        def record(s):
            return replace(s, step=lambda *a, s=s: ran.append(s.outputs[0]) or s.step(*a))
        patched = tuple(record(_bump_macs(_feats=1)(s)) for s in STAGES)
        monkeypatch.setattr(pipeline, "STAGES", patched)
        passed, detail = check_stages_vs_references(Rng(0), trials=1)
        assert not passed and "none: stage 'backbone' row '_feats': count" in detail, detail
        assert ran == ["_feats"]

    def test_op_level_instrumented_counts(self):
        rng = Rng(1)
        c = oracles.MacCounter()
        oracles.conv2d_1x1_oracle(rng.normal((2, 2, 2)), rng.normal((2, 3)), None, c)
        assert c.count == macs_conv2d_1x1(2, 3, 2, 2)
        c = oracles.MacCounter()
        oracles.depthwise_conv1d_oracle(rng.normal((4, 6)), rng.normal((4, 3)), c)
        assert c.count == macs_depthwise_conv1d(4, 6, 3)
        c = oracles.MacCounter()
        oracles.multi_head_attention_oracle(
            rng.normal((3, 4)), rng.normal((5, 4)),
            rng.normal((4, 4)), rng.normal((4, 4)), rng.normal((4, 4)), rng.normal((4, 4)),
            heads=2, macs=c,
        )
        assert c.count == macs_attention(3, 5, 4)

    # the two modes share every term but the interaction, so the layer totals compare it
    def test_dda_cheaper_than_cross_attention_at_defaults(self):
        cfg, hw = ModelConfig(), 16 * 16
        assert _decoder_layer_macs(cfg, hw, "dda") < _decoder_layer_macs(cfg, hw, "ca")
        assert params_dda_layer(cfg.embed_dim) < params_ca_layer(cfg.embed_dim)

    def test_dda_cheaper_whenever_grid_exceeds_kernel(self):
        cfg = ModelConfig()
        for hw in (DDA_KERNEL_SIZE + 1, 16, 64, 256):
            assert _decoder_layer_macs(cfg, hw, "dda") < _decoder_layer_macs(cfg, hw, "ca")

    def test_module_counts_nonnegative_and_total(self):
        cfg = small_config()
        counts = count_macs(cfg, (32, 32), 3)
        assert set(counts) == set(MODULES)
        assert all(v >= 0 for v in counts.values())

    # Recorded before count_macs summed the stage table, in MODULES order; only
    # "none" differs from that record: its spatial count is 0, as forward runs no ViT.
    # The last column, assembly (the N_queries masks upsampled to the image),
    # came with the assembly row; no earlier column moved with it.
    PINNED = {
        ("small", "tdee", 32, 3): (14848, 103232, 10432, 14016, 17288, 576, 0, 3792, 12288),
        ("small", "sdi", 32, 3): (14848, 103232, 10432, 14016, 17288, 1008, 0, 3792, 12288),
        ("small", "eaf", 32, 3): (14848, 103232, 10432, 14016, 13448, 7168, 0, 3792, 12288),
        ("small", "none", 32, 3): (14848, 103232, 10432, 14016, 0, 0, 0, 3792, 12288),
        ("default", "tdee", 64, 4): (
            7077888, 382812160, 17891328, 363161600, 12669056, 19660800, 0, 7544832, 1638400),
        ("default", "tdee", 128, 4): (
            28311552, 1531248640, 70778880, 520448000, 50921600, 19660800, 0, 29564928, 6553600),
        ("default", "tdee", 256, 4): (
            113246208, 6124994560, 282329088, 1149593600, 209830016, 19660800, 0, 117645312,
            26214400),
        ("default", "eaf", 128, 10): (
            28311552, 1531248640, 72744960, 520448000, 6881408, 84148224, 0, 29872128, 6553600),
        ("default", "none", 64, 4): (
            7077888, 382812160, 17891328, 363161600, 0, 0, 0, 7544832, 1638400),
    }

    @pytest.mark.parametrize("key", sorted(PINNED), ids=lambda k: "-".join(map(str, k)))
    def test_counts_pinned(self, key):
        name, fusion, size, n_class = key
        cfg = small_config(fusion=fusion) if name == "small" else ModelConfig(fusion=fusion)
        counts = count_macs(cfg, (size, size), n_class)
        assert counts == dict(zip(MODULES, self.PINNED[key]))

    @pytest.mark.parametrize("fusion", FUSION_MODES)
    def test_modules_without_a_running_row_count_zero(self, fusion):
        counts = count_macs(small_config(fusion=fusion), (32, 32), 3)
        running = {s.name for s in STAGES if fusion in s.modes}
        for module in set(MODULES) - running:
            assert counts[module] == 0, f"{module} counts {counts[module]} MACs under {fusion}"
        # no row computes anything for text_encoder; none passes the embeddings straight through
        expect_zero = {"text_encoder", "spatial", "fusion"} if fusion == "none" else {"text_encoder"}
        assert {m for m, v in counts.items() if v == 0} == expect_zero


class TestBenchmark:
    def test_report_schema_and_order_statistics(self, tmp_path):
        cfg = small_config()
        bundle = build_weights(cfg, (32, 32))
        report = benchmark(cfg, bundle, reps=5, image_hw=(32, 32))
        assert [row.mode for row in report.rows] == ["dda", "ca"]
        for row in report.rows:
            assert row.time_p50_ns <= row.time_p95_ns
            assert row.time_mean_ns > 0
        path = tmp_path / "bench.csv"
        report.write_csv(path)
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        assert header == [
            "module", "params", "macs", "flops",
            "time_mean_ns", "time_p50_ns", "time_p95_ns", "mode", "config_hash",
        ]
        assert path.read_text().startswith("# flops = 2 * macs")
        assert any(l.startswith("# ca_over_dda=") for l in path.read_text().splitlines())

    def test_low_reps_rejected(self):
        cfg = small_config()
        bundle = build_weights(cfg, (32, 32))
        with pytest.raises(ValueError, match=">= 5"):
            benchmark(cfg, bundle, reps=4, image_hw=(32, 32))

    def test_modes_share_config_hash(self, tmp_path):
        cfg = small_config()
        bundle = build_weights(cfg, (32, 32))
        report = benchmark(cfg, bundle, reps=5, image_hw=(32, 32))
        report.write_csv(tmp_path / "bench.csv")
        with open(tmp_path / "bench.csv") as f:
            rows = [r for r in csv.reader(f) if r and not r[0].startswith("#")][1:]
        assert [r[7] for r in rows] == ["dda", "ca"]
        assert rows[0][-1] == rows[1][-1] == report.config_hash
        a, b = report.rows
        assert a.macs < b.macs
        # the row is one layer of _decoder_macs: minus initial mask prediction and final pooling
        n, d, hw = cfg.n_queries, cfg.embed_dim, 8 * 8
        one_layer = replace(cfg, decoder_layers=1)
        for row in report.rows:
            assert row.macs == _decoder_macs(one_layer, hw, row.mode) - 2 * n * d * hw

    def test_counts_deterministic_across_reports(self):
        cfg = small_config()
        bundle = build_weights(cfg, (32, 32))
        a = benchmark(cfg, bundle, reps=5, image_hw=(32, 32))
        b = benchmark(cfg, bundle, reps=5, image_hw=(32, 32))
        assert [(r.params, r.macs) for r in a.rows] == [(r.params, r.macs) for r in b.rows]


class TestLayerStep:
    def test_dda_vs_ca_same_shapes_different_masks(self):
        bundle = build_weights(small_config(n_queries=5), (32, 32))
        feat = Rng(34).normal((8, 4, 4))
        kernels = bundle.decoder.init_kernels
        logits = predict_masks(kernels, feat)
        a = _layer_step(feat, kernels, logits, bundle, "dda")
        b = _layer_step(feat, kernels, logits, bundle, "ca")
        assert a.shape == b.shape == (5, 4, 4)
        assert not np.array_equal(a, b)

    def test_ca_calls_share_one_cached_block(self):
        bundle = build_weights(small_config(), (32, 32))
        feat = Rng(35).normal((8, 4, 4))
        kernels = bundle.decoder.init_kernels
        logits = predict_masks(kernels, feat)
        _ca_block.cache_clear()
        a = _layer_step(feat, kernels, logits, bundle, "ca")
        b = _layer_step(feat, kernels, logits, bundle, "ca")
        assert np.array_equal(a, b)
        info = _ca_block.cache_info()
        assert (info.misses, info.hits) == (1, 1)


class TestProfileModules:
    def test_all_modules_present_plus_total(self):
        cfg = small_config()
        report = profile_modules(cfg, build_weights(cfg, (32, 32)), (32, 32), 3)
        names = [r.module for r in report.rows]
        assert names == list(MODULES) + ["total"]
        total = report.rows[-1]
        assert total.params == sum(r.params for r in report.rows[:-1])
        assert total.macs == sum(r.macs for r in report.rows[:-1])
        assert all(r.flops == 2 * r.macs for r in report.rows)

    def test_flops_note_in_header(self, tmp_path):
        cfg = small_config()
        report = profile_modules(cfg, build_weights(cfg, (32, 32)), (32, 32), 3)
        out = tmp_path / "prof.csv"
        report.write_csv(out)
        assert out.read_text().startswith("# flops = 2 * macs")
