"""Acceptance suite: eight gate criteria, one printed line each.

Criterion 1 runs every `verify.CHECKS` entry as its own test, so a failing
check fails by name.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
pass/fail lines; any assertion failure marks the criterion red.
"""

import importlib
import inspect
import itertools
import json
import pkgutil
import subprocess
import sys
import time

import numpy as np
import pytest

import eovseg
from eovseg import kernels, pipeline, reference
from eovseg.classifier import build_text_embeddings, ensemble
from eovseg.config import ModelConfig
from eovseg.evaluation import PanopticAnnotation, SceneSpec, SegmentRecord, generate_scene, miou, pq_metrics
from eovseg.fusion import TdeeWeights, tdee, tdee_detailed
from eovseg.pipeline import forward, replay_trace
from eovseg.profiler import _decoder_layer_macs, params_ca_layer, params_dda_layer
from eovseg.tensor import Rng
from eovseg.vas import VasWeights, vas_forward_detailed
from eovseg.verify import (CHECKS, SABOTAGE_TARGETS, SEED_SLOTS, _random_annotation, check_rng,
                           check_stages_vs_references, run_checks)
from eovseg.weights import build_weights

GEOMETRIC_REFERENCE = 0.662890803467997360  # 0.8^0.6 * 0.5^0.4 at 30 digits


def report(n, text):
    print(f"\n[PASS] criterion {n}: {text}")


# criterion 1 -----------------------------------------------------------------

CHECK_NAMES = [name for name, _ in CHECKS]


@pytest.mark.parametrize("index, name", list(enumerate(CHECK_NAMES)), ids=CHECK_NAMES)
def test_criterion_1_check_at_100_instances(verify_check, index, name):
    verify_check(name, seed=9_000 + SEED_SLOTS[index])


@pytest.mark.parametrize("name", [n for n in CHECK_NAMES if n.endswith("_vs_loop_oracle")])
def test_criterion_1_loop_oracle_row_holds_at_100_trials_on_verify_seeds_0_to_15(name):
    # each seed draws as ``verify --seed`` does, so a failure names the
    # command that reproduces it
    check = dict(CHECKS)[name]
    failures = []
    for seed in range(16):
        passed, detail = check(check_rng(name, seed), 100)
        if not passed:
            failures.append(f"verify --trials 100 --seed {seed}: {detail}")
    assert not failures, f"{name}: " + "; ".join(failures)


def test_criterion_1_check_table_covers_every_sabotage_target():
    assert len(set(CHECK_NAMES)) == len(CHECK_NAMES)
    for kernel in SABOTAGE_TARGETS:
        assert any(name.startswith(f"{kernel}_vs_") for name in CHECK_NAMES), kernel


def test_criterion_1_sabotage_targets_are_the_kernels_the_model_binds():
    # a kernel no model module binds is dead; a bound kernel missing here is unguarded.
    # Bindings are module-level names, so a kernel imported inside a function body
    # counts as unbound.
    public = {fn: name for name, fn in vars(kernels).items()
              if inspect.isfunction(fn) and fn.__module__ == kernels.__name__ and name[0] != "_"}
    bound = set()
    for info in pkgutil.iter_modules(eovseg.__path__):
        if info.name != "kernels":
            module = importlib.import_module(f"eovseg.{info.name}")
            bound |= {public[v] for v in vars(module).values() if inspect.isfunction(v) and v in public}
    assert sorted(public.values()) == sorted(bound)
    # SABOTAGE_TARGETS is derived from kernels, so pin the list itself
    assert SABOTAGE_TARGETS == ("softmax", "layer_norm", "sigmoid", "gelu", "relu", "conv2d_1x1",
                                "conv2d_3x3", "depthwise_conv2d_3x3", "depthwise_conv1d",
                                "transposed_conv2d", "bilinear_upsample", "l2_normalize", "linear",
                                "multi_head_attention")


def test_criterion_1_each_row_keeps_its_seed_slot():
    # a row deleted without retiring its slot would re-draw every later row
    assert {name: SEED_SLOTS[i] for i, name in enumerate(CHECK_NAMES)} == {
        "linear_vs_loop_oracle": 0, "softmax_vs_loop_oracle": 1, "softmax_properties": 2,
        "layer_norm_vs_loop_oracle": 3, "sigmoid_vs_loop_oracle": 4, "gelu_vs_loop_oracle": 5,
        "relu_vs_loop_oracle": 6, "conv2d_1x1_vs_loop_oracle": 7, "conv2d_3x3_vs_loop_oracle": 8,
        "depthwise_conv2d_3x3_vs_loop_oracle": 9, "depthwise_conv1d_vs_loop_oracle": 10,
        "transposed_conv2d_vs_loop_oracle": 11, "bilinear_upsample_vs_formula_oracle": 12,
        "bilinear_mean_preservation": 13, "multi_head_attention_vs_loop_oracle": 14,
        "l2_normalize_vs_loop_oracle": 15, "kernel_determinism": 16, "vas_attention_bounds": 17,
        "vas_vocabulary_permutation": 18, "tdee_expert_swap_symmetry": 19, "tdee_gate_range": 20,
        "tdee_zero_router_forced_path": 21, "cross_attention_vs_attention_oracle": 25,
        "stages_vs_references": 28, "text_embeddings_vs_loop_oracle": 29,
        "ensemble_correctness": 30, "classify_argmax_oracle": 31, "pq_identity_on_random_pairs": 32,
        "pq_hand_cases": 33, "segment_match_uniqueness": 34, "pipeline_all_modes": 35,
    }


@pytest.mark.parametrize("mode", ["eaf", "sdi"])
def test_criterion_1_pipeline_row_names_a_mode_that_is_not_bitwise_repeatable(monkeypatch, mode):
    """Noise of about 1e-7 relative that changes from call to call in one
    non-default mode's fusion step fails the pipeline row, naming that mode."""
    original, calls = getattr(pipeline, mode), itertools.count(1)
    monkeypatch.setattr(pipeline, mode, lambda *a: original(*a) * np.float32(1 + 1.2e-7 * next(calls)))
    passed, detail = dict(CHECKS)["pipeline_all_modes"](Rng(9_035), 25)
    assert not passed and detail.startswith(f"{mode}: ") and "not bitwise equal" in detail, detail


def test_criterion_1_oracle_equivalence_and_verify_runtime(cli_env):
    t0 = time.monotonic()
    results = run_checks(trials=25, seed=0)
    elapsed = time.monotonic() - t0
    failed = [r.name for r in results if not r.passed]
    assert failed == [], f"verify suite failed: {failed}"
    assert elapsed < 60.0, f"verify took {elapsed:.1f}s"

    proc = subprocess.run(
        [sys.executable, "-m", "eovseg.cli", "verify", "--trials", "25"],
        capture_output=True,
        text=True,
        timeout=60,
        env=cli_env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report(1, f"{len(CHECK_NAMES)} checks pass at 100 instances each; "
              f"verify exit 0 in {elapsed:.1f}s")


# criterion 2 -----------------------------------------------------------------


def test_criterion_2_stepwise_transliteration():
    d, heads, n_class = 8, 2, 3
    rng = Rng(2_000)
    worst_tdee = worst_vas = 0.0
    for seed in range(30):
        tw = TdeeWeights.build(2_100 + seed, d, d)
        em, es = rng.normal((4, d)), rng.normal((4, d))
        got = np.asarray(tdee(em, es, tw), np.float64)
        worst_tdee = max(worst_tdee, float(np.max(np.abs(got - reference.tdee_reference(em, es, tw)))))
        vw = VasWeights.build(2_200 + seed, d, heads)
        feat = rng.normal((d, 3, 3))
        text = rng.normal((n_class, d))
        for got, want in zip(vas_forward_detailed(feat, text, vw),
                             reference.vas_forward_reference(feat, text, vw), strict=True):
            worst_vas = max(worst_vas, float(np.max(np.abs(np.asarray(got, np.float64) - want))))
    assert worst_tdee < 1e-5, worst_tdee
    assert worst_vas < 1e-5, worst_vas
    report(2, f"tdee err {worst_tdee:.1e} at N=4 D=8 d=8; vas err {worst_vas:.1e} at D=8 h=2 "
              f"N_class=3 (tol 1e-5)")


# criterion 3 -----------------------------------------------------------------


def test_criterion_3_ensemble_correctness():
    rng = Rng(3_000)
    got = ensemble(np.float32([[0.8]]), np.float32([[0.5]]), np.array([True]))[0, 0]
    assert abs(float(got) - GEOMETRIC_REFERENCE) < 1e-6

    violations = 0
    for _ in range(1000):
        a = float(rng.uniform((1,), 0.01, 0.99)[0])
        b = float(rng.uniform((1,), 0.01, 0.89)[0])
        bump = float(rng.uniform((1,), 0.001, 0.1)[0])
        seen = np.array([bool(rng.integers(0, 2))])
        s_in = np.float32([[a]])
        lo = ensemble(s_in, np.float32([[b]]), seen)[0, 0]
        hi = ensemble(s_in, np.float32([[b + bump]]), seen)[0, 0]
        if hi < lo:
            violations += 1
    assert violations == 0
    report(3, "0.8^0.6*0.5^0.4 to 1e-6; monotone on 1000 triples")


# criterion 4 -----------------------------------------------------------------


def test_criterion_4_efficiency_asymmetry():
    cfg, hw = ModelConfig(), 16 * 16  # 100 queries, D=256, m=3
    p_dda, p_ca = params_dda_layer(cfg.embed_dim), params_ca_layer(cfg.embed_dim)
    assert p_dda == 768 and p_ca == 262_144
    assert p_dda < p_ca
    m_dda, m_ca = _decoder_layer_macs(cfg, hw, "dda"), _decoder_layer_macs(cfg, hw, "ca")
    assert m_dda < m_ca
    passed, detail = check_stages_vs_references(Rng(4_000), trials=1)
    assert passed, detail
    assert detail.endswith("walks at 64x32 image, N_class=4, decoder_layers=2"), detail  # its draw
    report(4, f"params {p_dda} < {p_ca}; macs {m_dda:,} < {m_ca:,}; analytic == instrumented")


# criterion 5 -----------------------------------------------------------------


def _perturbed_prediction(gt: PanopticAnnotation, rng: Rng, flip_frac: float):
    """Corrupt a fraction of pixels so TP, FP and FN all occur across pairs."""
    pred_map = gt.segment_map.copy()
    ids = [s.segment_id for s in gt.segments] + [0]
    n_flip = int(flip_frac * pred_map.size)
    ys = rng.integers(0, pred_map.shape[0], size=n_flip)
    xs = rng.integers(0, pred_map.shape[1], size=n_flip)
    vals = rng.integers(0, len(ids), size=n_flip)
    for y, x, v in zip(ys, xs, vals):
        pred_map[y, x] = ids[int(v)]
    keep = set(int(i) for i in np.unique(pred_map)) - {0}
    return PanopticAnnotation(
        segment_map=pred_map, segments=[s for s in gt.segments if s.segment_id in keep]
    )


def test_criterion_5_metric_identities():
    rng = Rng(5_000)
    checked = 0
    for i in range(200):
        gt = _random_annotation(rng)
        pred = _perturbed_prediction(gt, rng, flip_frac=(0.05, 0.3, 0.6)[i % 3])
        for c in pq_metrics(pred, gt).per_class.values():
            if c.tp > 0:
                assert abs(c.pq - c.sq * c.rq) < 1e-9
                checked += 1
    assert checked > 100

    seg = np.zeros((10, 10), dtype=np.int32)
    seg[:5] = 1
    seg[5:] = 2
    gt = PanopticAnnotation(segment_map=seg, segments=[SegmentRecord(1, 0, True), SegmentRecord(2, 0, True)])
    pred_map = np.zeros((10, 10), dtype=np.int32)
    pred_map[:4] = 1
    pred = PanopticAnnotation(segment_map=pred_map, segments=[SegmentRecord(1, 0, True)])
    c = pq_metrics(pred, gt).per_class[0]
    assert abs(c.pq - 0.5333) < 1e-4

    perfect = pq_metrics(gt, gt)
    assert perfect.pq == 1.0
    assert miou(gt.semantic_map(), gt.semantic_map()) == 1.0
    report(5, f"PQ=SQ*RQ to 1e-9 on 200 random pairs ({checked} TP classes); "
              "hand case 0.5333; identity exact")


# criterion 6 -----------------------------------------------------------------


def test_criterion_6_pipeline_integrity(tmp_path, cli_env):
    spec = SceneSpec(seed=6)  # 64x64 scene at the default embedding width
    image, gt, templates = generate_scene(spec)
    text = build_text_embeddings(templates, spec.class_names, spec.seen_mask())
    cfg_base = ModelConfig()  # full defaults: D=256, N=100, 3 layers

    for mode in ("none", "eaf", "sdi", "tdee"):
        cfg = ModelConfig(**{**cfg_base.to_dict(), "fusion": mode})
        bundle = build_weights(cfg, (64, 64))
        result = forward(image, text, spec.is_thing(), cfg, bundle)
        assert result.panoptic.segment_map.shape == (64, 64), mode
        assert result.scores.values.shape == (cfg.n_queries, text.n_classes), mode
        assert result.trace["mask_logits"].shape == (cfg.n_queries, 16, 16), mode
        assert replay_trace(image, text, cfg, bundle, result.trace) == [], mode

    bundle = build_weights(cfg_base, (64, 64))
    r1 = forward(image, text, spec.is_thing(), cfg_base, bundle)
    r2 = forward(image, text, spec.is_thing(), cfg_base, bundle)
    assert np.array_equal(r1.panoptic.segment_map, r2.panoptic.segment_map)
    for key in r1.trace:
        assert np.array_equal(r1.trace[key], r2.trace[key]), key

    # CLI end to end, byte level
    (tmp_path / "spec.json").write_text(json.dumps({
        "height": 64, "width": 64, "stuff_classes": ["sky", "grass"],
        "thing_classes": ["box", "ball", "wedge"], "n_shapes": 3, "n_templates": 3,
        "embed_dim": 256, "seed": 6,
    }))
    base = [sys.executable, "-m", "eovseg.cli"]
    subprocess.run(base + ["gen", "--spec", str(tmp_path / "spec.json"),
                           "--out", str(tmp_path / "scene")],
                   check=True, capture_output=True, env=cli_env)
    for tag in ("x", "y"):
        subprocess.run(
            base + ["run", "--scene", str(tmp_path / "scene"),
                    "--weights", str(tmp_path / "w"),
                    "--trace", str(tmp_path / f"t{tag}"),
                    "--out", str(tmp_path / f"r{tag}.csv")],
            check=True, capture_output=True, timeout=300, env=cli_env,
        )
    assert (tmp_path / "rx.csv").read_bytes() == (tmp_path / "ry.csv").read_bytes()
    tx = sorted((tmp_path / "tx").glob("*.eovt"))
    assert len(tx) == 13
    for p in tx:
        assert p.read_bytes() == (tmp_path / "ty" / p.name).read_bytes()
    report(6, "four fusion modes complete at defaults; trace replay bitwise; "
              "two CLI runs byte-identical (13 dumped stages)")


# criterion 7 -----------------------------------------------------------------


def test_criterion_7_bound_invariants_enforced_in_verify():
    names = [name for name, _ in CHECKS]
    for required in ("pipeline_all_modes", "vas_attention_bounds", "tdee_gate_range",
                     "softmax_properties"):
        assert required in names
    check_map = dict(CHECKS)
    for name in ("pipeline_all_modes", "vas_attention_bounds", "tdee_gate_range",
                 "softmax_properties"):
        passed, detail = check_map[name](Rng(7_000), 10)
        assert passed, f"{name}: {detail}"
    report(7, "attention weights in [1/N_class,1], gates in (0,1), softmax sums 1±1e-6, "
              "all asserted inside verify")


# criterion 8 -----------------------------------------------------------------


def test_criterion_8_tdee_symmetry_50_configs():
    rng = Rng(8_000)
    dims = [(8, 8), (8, 4), (16, 8), (16, 16), (32, 8)]
    for i in range(50):
        d, dd = dims[i % len(dims)]
        w = TdeeWeights.build(8_100 + i, d, dd)
        n = int(rng.integers(1, 7))
        em = rng.normal((n, d))
        es = rng.normal((n, d))
        assert np.array_equal(tdee(em, es, w), tdee(es, em, w.swapped())), f"config {i}"
        trace = tdee_detailed(em, es, w)
        assert trace.gate_m.min() > 0 and trace.gate_m.max() < 1
    report(8, "expert-swap output bitwise identical on 50 seeded configs")
