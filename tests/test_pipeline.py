"""End-to-end forward, tracing, replay, and weight bundle round-trip tests."""

import dataclasses
import hashlib
import inspect
import json
import re
import struct
import sys
import threading
import tracemalloc
import typing
import weakref
import zlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eovseg import kernels
from eovseg import pipeline as pipeline_module
from eovseg import weights as weights_module
from eovseg.classifier import build_text_embeddings
from eovseg.config import FUSION_MODES, ModelConfig
from eovseg.decoder import DDA_KERNEL_SIZE, AttentionBlockWeights, decoder_forward
from eovseg.evaluation import PanopticAnnotation, SceneSpec, generate_scene
from eovseg.pipeline import (
    PipelineStageError,
    forward,
    replay_trace,
)
from eovseg.tensor import EovtFormatError, Rng, write_eovt
from eovseg.verify import _instrumented_config
from eovseg.weights import (
    GENERATOR_VERSION,
    HEAD_FIELDS,
    WEIGHTS_FILE,
    build_weights,
    cache_key,
    cast_weights,
    load_or_build_weights,
    load_weights,
    save_weights,
)

ROOT = Path(__file__).resolve().parent.parent


def small_config(**over):
    base = dict(
        embed_dim=32,
        vit_dim=16,
        vas_heads=4,
        n_queries=8,
        decoder_layers=2,
        decoder_heads=4,
        ffn_expansion=2,
        tdee_dim=32,
        sdi_rank=2,
        vit_heads=2,
        backbone_widths=(8, 16, 24, 32),
        weights_seed=3,
    )
    base.update(over)
    return ModelConfig(**base)


@pytest.fixture(scope="module")
def scene():
    spec = SceneSpec(seed=17, embed_dim=32)
    image, gt, templates = generate_scene(spec)
    text = build_text_embeddings(templates, spec.class_names, spec.seen_mask())
    return spec, image, gt, templates, text


def test_forward_shape_contract(scene):
    spec, image, _, _, text = scene
    cfg = small_config()
    bundle = build_weights(cfg, (64, 64))
    result = forward(image, text, spec.is_thing(), cfg, bundle)
    assert result.panoptic.segment_map.shape == (64, 64)
    assert result.scores.values.shape == (cfg.n_queries, text.n_classes)
    assert result.trace["mask_logits"].shape == (cfg.n_queries, 16, 16)


@pytest.mark.parametrize("mode", ["none", "eaf", "sdi", "tdee"])
def test_all_fusion_modes_complete(scene, mode):
    spec, image, _, _, text = scene
    cfg = small_config(fusion=mode)
    bundle = build_weights(cfg, (64, 64))
    result = forward(image, text, spec.is_thing(), cfg, bundle)
    assert result.panoptic.segment_map.shape == (64, 64)
    assert result.scores.values.shape == (cfg.n_queries, text.n_classes)
    if mode == "none":
        assert np.array_equal(result.trace["instance_embeddings"], result.trace["mask_embeddings"])
    if mode == "eaf":
        assert "early_fused_features" in result.trace


@pytest.mark.parametrize("mode", ["none", "eaf", "sdi", "tdee"])
def test_backbone_runs_once_per_forward(scene, monkeypatch, mode):
    """The out-of-vocabulary features read C5 from the backbone row's output
    instead of running the backbone again."""
    spec, image, _, _, text = scene
    cfg = small_config(fusion=mode)
    bundle = build_weights(cfg, (64, 64))
    calls = []
    real = pipeline_module.extract_features
    monkeypatch.setattr(pipeline_module, "extract_features",
                        lambda *args: calls.append(1) or real(*args))
    forward(image, text, spec.is_thing(), cfg, bundle)
    assert len(calls) == 1
    forward(image, text, spec.is_thing(), cfg, bundle)
    assert len(calls) == 2


def _same(a, b):
    """Equal outputs: arrays, {level: array} dicts such as the backbone
    features, the assembly's label lists or its panoptic annotations."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return a == b
    if isinstance(a, PanopticAnnotation):
        return np.array_equal(a.segment_map, b.segment_map) and a.segments == b.segments
    return np.array_equal(a, b)


def test_stage_inputs_are_names():
    for stage in pipeline_module.STAGES:
        assert all(isinstance(name, str) for name in stage.inputs), stage.outputs


def _outputs(stage, out) -> dict:  # a row's outputs by name
    return dict(zip(stage.outputs, out if len(stage.outputs) > 1 else (out,), strict=True))


@pytest.mark.parametrize("mode", FUSION_MODES)
def test_rows_read_only_their_declared_inputs(scene, mode):
    """Each row, run on a namespace that holds only the roots of its declared
    inputs, taken from the scene inputs and the outputs of the rows before it,
    gives the full run's outputs: a read the row does not declare, or a read of
    a later row's output, fails."""
    spec, image, _, _, text = scene
    cfg = small_config(fusion=mode)
    bundle = build_weights(cfg, (64, 64))
    full = {}  # every output of the full run, recorded as it is made: the run frees some

    def record(stage, args):
        out = stage.step(*args)
        full.update(_outputs(stage, out))
        return out

    scene_inputs = dict(image=image, text=text, class_is_thing=spec.is_thing(), bundle=bundle)
    pipeline_module._run_stages(pipeline_module.STAGES, cfg, lambda name, value: value, record,
                                **scene_inputs)
    produced = dict(scene_inputs)
    for stage in pipeline_module.STAGES:
        if mode not in stage.modes:
            continue
        roots = {name.split(".")[0] for name in stage.inputs}
        only = SimpleNamespace(**{root: produced[root] for root in roots})
        out = stage.step(*pipeline_module._resolve_inputs(only, stage.inputs))
        for name, value in _outputs(stage, out).items():
            assert _same(value, full[name]), f"{mode}: {name}"
            produced[name] = value


@pytest.mark.parametrize("mode", FUSION_MODES)
def test_every_untraced_output_but_the_result_has_a_later_reader(mode):
    """Every untraced output has a later reader, but the last row's, which
    are the run's result; the run frees each one that has a reader after
    exactly one row, and never frees the result."""
    rows = [(i, s) for i, s in enumerate(pipeline_module.STAGES) if mode in s.modes]
    frees = pipeline_module._frees_after(pipeline_module.STAGES, mode)
    read, unread = set(), set()
    for k, (_, stage) in enumerate(rows):
        later = {name for _, s in rows[k + 1:] for name in s.inputs}
        for name in stage.outputs:
            if name.startswith("_"):
                (read if name in later else unread).add(name)
    assert unread == {"_labels", "_panoptic"} == set(rows[-1][1].outputs), mode
    freed = [name for i, _ in rows for name in frees[i]]
    assert sorted(freed) == sorted(read)
    assert not any(frees[i] for i, s in enumerate(pipeline_module.STAGES) if mode not in s.modes)


def _arrays(value) -> list:  # an output's arrays: the array, or a {level: array} dict's levels
    return list(value.values()) if isinstance(value, dict) else [value]


@pytest.mark.parametrize("mode", FUSION_MODES)
def test_untraced_outputs_are_freed_after_their_last_reader(scene, mode):
    """Before each row runs, every array of an untraced output whose last
    reader has run is gone, unless a live output holds it too (the backbone's
    C5 is ``_c5`` itself).  Only the untraced outputs that no row reads, the
    assembly row's, outlive the run."""
    spec, image, _, _, text = scene
    cfg = small_config(fusion=mode)
    bundle = build_weights(cfg, (64, 64))
    stages = pipeline_module.STAGES
    last = {}  # each untraced output's last reading row
    for i, stage in enumerate(stages):
        if mode in stage.modes:
            last.update((name, i) for name in stage.inputs if name.startswith("_"))
    held = {}  # untraced output with a reader -> weak references to its arrays

    def check_freed(ran: int):  # the rows before index ``ran`` have run
        def alive(name):
            return [a for a in (r() for r in held[name]) if a is not None]
        live = {id(a) for name in held if last[name] >= ran for a in alive(name)}
        for name in held:
            if last[name] < ran:
                assert all(id(a) in live for a in alive(name)), \
                    f"{mode}: {name} outlives row {last[name]} before row {ran}"

    def run(stage, args):
        check_freed(stages.index(stage))
        out = stage.step(*args)
        for name, value in _outputs(stage, out).items():
            if name in last:
                held[name] = [weakref.ref(a) for a in _arrays(value)]
        return out

    v = pipeline_module._run_stages(stages, cfg, lambda name, value: value, run, image=image,
                                    text=text, class_is_thing=spec.is_thing(), bundle=bundle)
    check_freed(len(stages))
    assert {"_feats", "_pyramid", "_clip_final", "_mask_probs"} <= held.keys()
    assert all(r() is None for name in ("_feats", "_pyramid", "_mask_probs") for r in held[name])
    assert {name for name in vars(v) if name.startswith("_")} == {"_labels", "_panoptic"}


def test_eaf_decodes_the_fused_maps(scene):
    """eaf's decoder row reads the fused maps, not the selected features."""
    spec, image, _, _, text = scene
    cfg = small_config(fusion="eaf")
    bundle = build_weights(cfg, (64, 64))
    trace = forward(image, text, spec.is_thing(), cfg, bundle).trace
    logits = trace["mask_logits"]
    assert np.array_equal(decoder_forward(trace["early_fused_features"], bundle.decoder)[0], logits)
    assert not np.array_equal(decoder_forward(trace["vs_agg_features"], bundle.decoder)[0], logits)


@pytest.mark.parametrize("mode", FUSION_MODES)
def test_final_mask_probabilities_computed_once(scene, monkeypatch, mode):
    """One sigmoid of the final mask logits per forward: the decoder's pooling,
    the spatial branch, out-of-vocabulary scoring and assembly share it."""
    spec, image, _, _, text = scene
    cfg = small_config(fusion=mode)
    bundle = build_weights(cfg, (64, 64))
    seen, real = [], kernels.sigmoid

    def recording(x):
        seen.append(np.array(x))
        return real(x)

    for name, module in list(sys.modules.items()):  # every module that binds the kernel
        if name.partition(".")[0] == "eovseg":
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, recording)
    result = forward(image, text, spec.is_thing(), cfg, bundle)
    assert result.labels  # assembly reads the probabilities
    assert sum(np.array_equal(x, result.trace["mask_logits"]) for x in seen) == 1


def test_trace_contains_named_intermediates(scene):
    spec, image, _, _, text = scene
    cfg = small_config(fusion="tdee")
    bundle = build_weights(cfg, (64, 64))
    result = forward(image, text, spec.is_thing(), cfg, bundle)
    tdee_keys = sorted(name for s in pipeline_module.STAGES if "tdee" in s.modes
                       for name in s.outputs if not name.startswith("_"))
    assert sorted(result.trace) == tdee_keys
    assert len(tdee_keys) == 13


def test_traced_attention_obeys_bounds(scene):
    spec, image, _, _, text = scene
    cfg = small_config()
    bundle = build_weights(cfg, (64, 64))
    attn = forward(image, text, spec.is_thing(), cfg, bundle).trace["vas_attention"]
    lo = np.float32(1.0) / np.float32(text.n_classes)
    assert attn.min() >= lo and attn.max() <= 1.0


@pytest.mark.parametrize("mode", ["none", "eaf", "sdi", "tdee"])
def test_replay_reproduces_every_stage_bitwise(scene, mode):
    spec, image, _, _, text = scene
    cfg = small_config(fusion=mode)
    bundle = build_weights(cfg, (64, 64))
    result = forward(image, text, spec.is_thing(), cfg, bundle)
    assert replay_trace(image, text, cfg, bundle, result.trace) == []
    for key, value in result.trace.items():
        tampered = {**result.trace, key: value + 1}
        assert key in replay_trace(image, text, cfg, bundle, tampered), key


@pytest.mark.parametrize("mode", FUSION_MODES)
def test_replay_never_runs_the_assembly_row(scene, monkeypatch, mode):
    """``replay_trace`` takes no thing/stuff split: it stops at the last row
    with a traced output, so neither classification nor assembly runs."""
    spec, image, _, _, text = scene
    cfg = small_config(fusion=mode)
    bundle = build_weights(cfg, (64, 64))
    trace = forward(image, text, spec.is_thing(), cfg, bundle).trace
    calls = []
    for name in ("classify", "assemble_panoptic"):
        real = getattr(pipeline_module, name)
        monkeypatch.setattr(pipeline_module, name,
                            lambda *a, name=name, real=real: calls.append(name) or real(*a))
    assert len(inspect.signature(replay_trace).parameters) == 5
    assert replay_trace(image, text, cfg, bundle, trace) == []
    assert calls == []


def test_forward_looks_up_classify_and_assemble_when_it_runs(scene, monkeypatch):
    """The assembly row reaches ``classify`` and ``assemble_panoptic``
    through ``eovseg.pipeline``'s attributes at each call, as span tracing
    replaces them there: a row that bound them at import would miss these."""
    spec, image, _, _, text = scene
    cfg = small_config()
    bundle = build_weights(cfg, (64, 64))
    plain = forward(image, text, spec.is_thing(), cfg, bundle)
    calls = []
    for name in ("classify", "assemble_panoptic"):
        real = getattr(pipeline_module, name)
        monkeypatch.setattr(pipeline_module, name,
                            lambda *a, name=name, real=real: calls.append(name) or real(*a))
    counted = forward(image, text, spec.is_thing(), cfg, bundle)
    assert calls == ["classify", "assemble_panoptic"]
    assert counted.labels == plain.labels
    assert np.array_equal(counted.panoptic.segment_map, plain.panoptic.segment_map)


def test_two_runs_bitwise_identical(scene):
    spec, image, _, _, text = scene
    cfg = small_config()
    bundle = build_weights(cfg, (64, 64))
    r1 = forward(image, text, spec.is_thing(), cfg, bundle)
    r2 = forward(image, text, spec.is_thing(), cfg, bundle)
    assert np.array_equal(r1.panoptic.segment_map, r2.panoptic.segment_map)
    assert np.array_equal(r1.scores.values, r2.scores.values)
    for key in r1.trace:
        assert np.array_equal(r1.trace[key], r2.trace[key])


def test_concurrent_forwards_match_a_serial_run(warm_up_64, monkeypatch):
    """Two threads run ``forward`` at once, each spreading its convolution
    blocks over two threads; each result is bitwise the serial run's.  The
    default model at 64x64 splits its 256-channel 16x16 convolutions into
    blocks at the shipped block constants."""
    scene, names, bundle = warm_up_64
    cfg = ModelConfig()
    text = build_text_embeddings(scene.templates, names, scene.seen)
    monkeypatch.setattr(kernels, "WORKERS", 2)
    calls, run_blocks = [], kernels._run_blocks

    def spy(n_blocks, make_worker, *args):
        made = []
        run_blocks(n_blocks, lambda: made.append(None) or make_worker(), *args)
        calls.append((n_blocks, len(made)))

    monkeypatch.setattr(kernels, "_run_blocks", spy)
    serial = forward(scene.image, text, scene.is_thing, cfg, bundle)
    assert (4, 2) in calls  # e.g. a 3x3 of four channel blocks, on two threads
    both, results = threading.Barrier(2, timeout=30), {}

    def run(i: int) -> None:
        both.wait()
        results[i] = forward(scene.image, text, scene.is_thing, cfg, bundle)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(results) == [0, 1]
    for result in results.values():
        assert np.array_equal(result.panoptic.segment_map, serial.panoptic.segment_map)
        assert result.panoptic.segments == serial.panoptic.segments
        assert result.labels == serial.labels
        assert np.array_equal(result.scores.values, serial.scores.values)
        assert result.trace.keys() == serial.trace.keys()
        for key in serial.trace:
            assert np.array_equal(result.trace[key], serial.trace[key]), key


def _harness():
    sys.path.insert(0, str(ROOT / "eovbench"))
    try:
        import harness
    finally:
        sys.path.remove(str(ROOT / "eovbench"))
    return harness


@pytest.fixture(scope="module")
def warm_up_64():
    """The benchmark's 64x64 warm-up scene, its class names and the default bundle."""
    harness = _harness()
    scene = harness.make_scene(64, harness.REFERENCE_SCENE_SEED, ModelConfig().embed_dim)
    return scene, harness.CLASS_NAMES, build_weights(ModelConfig(), (64, 64))


def test_forward_memory_peak_at_256():
    """One forward at the large256_tdee config and warm-up scene allocates at
    most 24 MiB at its peak (tracemalloc, numpy buffers included): untraced
    outputs are freed after their last reader and the 3x3 convolutions hold
    one float64 row block per worker thread, not a padded copy of the map.
    On the host's worker count; see also the eight-worker case below."""
    harness = _harness()
    workload = harness.WORKLOADS["large256_tdee"]
    cfg = workload.config()
    scene = harness.make_scene(workload.size, harness.REFERENCE_SCENE_SEED, cfg.embed_dim)
    bundle = build_weights(cfg, (workload.size, workload.size))
    text = build_text_embeddings(scene.templates, harness.CLASS_NAMES, scene.seen)
    tracemalloc.start()
    try:
        result = forward(scene.image, text, scene.is_thing, cfg, bundle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.labels
    assert peak <= 24 * 2**20, f"{peak / 2**20:.2f} MiB"


def test_forward_memory_peak_at_256_on_eight_workers(monkeypatch):
    """The same bound with eight workers: the threads of one call hold at most
    WORKER_BUFFER_BYTES of buffers, so a 256-channel 64x64 3x3 runs on two of
    them (each holds about 3.6 MiB), not eight."""
    monkeypatch.setattr(kernels, "WORKERS", 8)
    test_forward_memory_peak_at_256()


@pytest.mark.parametrize("mode", FUSION_MODES)
def test_float64_forward_stays_float64_and_near_float32(warm_up_64, mode):
    """A float64 bundle, image and vocabulary give a float64 forward: the
    dtype comes from the inputs alone.  At 64x64, where the decoder is still
    well-conditioned, the float32 forward is its rounding-level neighbour."""
    scene, names, bundle = warm_up_64
    cfg = ModelConfig(fusion=mode)
    r32, r64 = (forward(scene.image.astype(dtype),
                        build_text_embeddings(scene.templates.astype(dtype), names, scene.seen),
                        scene.is_thing, cfg, b)
                for dtype, b in ((np.float32, bundle), (np.float64, cast_weights(bundle, np.float64))))
    assert r64.scores.values.dtype == np.float64
    assert np.max(np.abs(r64.scores.values - r32.scores.values)) <= 1e-5
    assert r64.trace.keys() == r32.trace.keys()
    for key, value in r64.trace.items():
        assert value.dtype == np.float64, key
        assert np.max(np.abs(value - r32.trace[key])) <= 1e-4 * np.max(np.abs(value)), key


def test_cast_weights_round_trip_is_bitwise():
    bundle = build_weights(small_config(), (64, 64))
    there_and_back = cast_weights(cast_weights(bundle, np.float64), np.float32)
    before, after = bundle.to_tensors(), there_and_back.to_tensors()
    assert before.keys() == after.keys()
    for name, value in before.items():
        assert after[name].dtype == np.float32 and np.array_equal(after[name], value), name


def test_stage_failure_names_stage(scene):
    spec, image, _, _, text = scene
    cfg = small_config()
    bundle = build_weights(cfg, (64, 64))
    bundle.vas.feat_point = bundle.vas.feat_point[:, :16]  # corrupt one stage
    with pytest.raises(PipelineStageError, match="stage 'vas'"):
        forward(image, text, spec.is_thing(), cfg, bundle)


def test_indivisible_image_fails_in_backbone_stage(scene):
    spec, _, _, _, text = scene
    cfg = small_config()
    bundle = build_weights(cfg, (64, 64))
    with pytest.raises(PipelineStageError, match="backbone"):
        forward(np.zeros((3, 60, 64), dtype=np.float32), text, spec.is_thing(), cfg, bundle)


# Digest of the small_config() bundle at 64x64: each tensor's name, shape and
# float32 bytes, in name order.  It reads no cache file, so a change to the
# cache format cannot move it; a renamed tensor, a changed shape or layout or
# a changed draw does.  The V4 digest is the bundle's as generator version 4
# stored it, before the conv weights were stored in their kernels' layouts.
SMALL64_GENERATOR_SHA256 = "f690036bd1227d852f88613548db0df1656708fe8bd911bccecc47f78e586b43"
SMALL64_V4_GENERATOR_SHA256 = "41ce5d7f2365694958407ba90bc02576c0fc740ff5d515c99a2d23eee077582c"

# The conv weights that generator version 5 stores transposed: 1x1 weights
# (C_in, C_out), not (C_out, C_in), and 3x3 weights (3, 3, C_out, C_in), not
# (C_out, C_in, 3, 3).  Both swaps are their own inverse.
_RELAID = re.compile(r"(backbone\.stage\d|aggregator\.(lateral\d|smooth\d|proj\d|fuse)"
                     r"|fusion\.eaf|classifier\.clip_proj)\.w|vas\.feat_point")


def _version4_layouts(tensors):
    """``tensors`` with each conv weight in the layout generators before version 5 stored."""
    def old(name, arr):
        if not _RELAID.fullmatch(name):
            return arr
        return arr.transpose(2, 3, 0, 1) if arr.ndim == 4 else arr.T

    return {name: old(name, arr) for name, arr in tensors.items()}


def _generator_sha256(bundle, relay=lambda tensors: tensors):
    digest = hashlib.sha256()
    for name, arr in sorted(relay(bundle.to_tensors()).items()):
        shape = "x".join(map(str, arr.shape))
        digest.update(f"{name} {shape}\0".encode() + arr.astype("<f4").tobytes())
    return digest.hexdigest()


# Digests of a small_config() cache at 64x64 in the earlier directory form, as
# generator version 2 wrote it: manifest.txt alone, and every file but
# meta.json (name, NUL, bytes, in name order).  Version 2 also stored a
# cross-attention block per decoder layer (decoder.layer<i>.cross_attn.*);
# the V1 pair adds the VAS gate's scale (1.0) and offset (0.0), stored as
# vas.scale and vas.offset.  They pin ``_older_cache`` to those generators'
# bytes.
SMALL64_V2_MANIFEST_SHA256 = "14343e1eda32ff1a2cec09ae8b70061f502c914b3081f4520173e60301ea383f"
SMALL64_V2_FILES_SHA256 = "db6584950fb501006989f710e877c5f2a6ce6403506f7d7e1db067fe8ae7b19e"
SMALL64_V1_MANIFEST_SHA256 = "e533d6402af08c2a7ba3fc66ffea7dc298a82d3c43b048f641c367f5fcd6f739"
SMALL64_V1_FILES_SHA256 = "2b23f1259ed02810e82cd9c0c069313c77d1068da5d7dd9dffb3e9a8f2e1b59d"


def _old_meta_forms(cfg):
    """Key forms stored for ``cfg``, none of which names the 64x64 bundle.
    Older generators wrote the first five to meta.json: the first caches
    stored the hash of the whole config as it then was (with the VAS gate's
    scale and offset) and the extents; generator version 1 added itself, and
    later swapped that hash for the config hash with ``HEAD_FIELDS`` blanked,
    as versions 2 and 3 stored it.  The last two are another image size's
    key (a 32x32 cache's) and no key."""
    extents = {"image_h": 64, "image_w": 64}
    old_key = cfg.hash(dict.fromkeys(HEAD_FIELDS))
    return {
        "unversioned": {"config_hash": "5761d0730818", **extents},
        "v1_config_hash": {"config_hash": "5761d0730818", **extents, "generator_version": 1},
        **{f"v{v}": {"weights_key": old_key, **extents, "generator_version": v} for v in (1, 2, 3)},
        "other_token_count": {"weights_key": cache_key(cfg, 1 + 2 * 2)},
        "no_key": {},
    }


def _files_sha256(directory):
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        if path.name != "meta.json":
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _directory_form_cache(cache, tensors, meta):
    """Write a cache in the earlier directory form: one EOVT file per tensor,
    manifest.txt (name and shape per line, in name order) and meta.json."""
    cache.mkdir()
    for name, arr in tensors.items():
        write_eovt(cache / f"{name}.eovt", arr)
    (cache / "manifest.txt").write_text("".join(
        f"{name} {'x'.join(map(str, tensors[name].shape))}\n" for name in sorted(tensors)))
    (cache / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")


def _version2_cross_attn(cfg):
    """The cross-attention tensors that caches before generator version 3
    stored: the draws that ``DecoderWeights.build`` now makes and drops."""
    rng = Rng(cfg.weights_seed).child(3)  # build_weights' decoder stream
    d, hidden, tensors = cfg.embed_dim, cfg.embed_dim * cfg.ffn_expansion, {}
    for i in range(cfg.decoder_layers):
        rng.normal((d, DDA_KERNEL_SIZE))  # kernel_proj
        block = AttentionBlockWeights.build(rng, d, cfg.decoder_heads)
        for key in ("wq", "wk", "wv", "wo"):
            tensors[f"decoder.layer{i}.cross_attn.{key}"] = getattr(block, key)
        rng.normal((4 * d * d + 2 * d * hidden,))  # self_attn, ffn.w1, ffn.w2
    return tensors


def _older_cache(cache, cfg, version):
    """A directory-form cache as generator ``version`` (1 or 2) wrote it for ``cfg`` at 64x64."""
    tensors = _version4_layouts(build_weights(cfg, (64, 64)).to_tensors()) | _version2_cross_attn(cfg)
    if version == 1:
        tensors |= {"vas.scale": np.float32([1.0]), "vas.offset": np.float32([0.0])}
    _directory_form_cache(cache, tensors, _old_meta_forms(cfg)[f"v{version}"])


class _FailingFile:
    """A file whose ``fail_at``-th write raises OSError("disk full")."""

    def __init__(self, f, fail_at):
        self.f, self.fail_at = f, fail_at

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.fail_at -= 1
        if self.fail_at == 0:
            raise OSError("disk full")
        return self.f.write(data)


def _walk(obj, where="bundle"):
    """Yield (path, leaf) for every value under dataclass fields, dicts, lists and tuples."""
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _walk(getattr(obj, f.name), f"{where}.{f.name}")
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from _walk(value, f"{where}[{key!r}]")
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            yield from _walk(value, f"{where}[{i}]")
    else:
        yield where, obj


def _assert_bitwise_equal(a, b):
    leaves_a, leaves_b = list(_walk(a)), list(_walk(b))
    assert [p for p, _ in leaves_a] == [p for p, _ in leaves_b]
    for (where, x), (_, y) in zip(leaves_a, leaves_b):
        assert type(x) is type(y), where
        if isinstance(x, np.ndarray):
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), where
        else:
            assert x == y, where


class TestWeightBundle:
    def test_builders_take_every_size_from_the_caller(self):
        """``build_weights`` passes each size from ``ModelConfig``; a default
        on a builder would be a second definition of it."""
        fields = typing.get_type_hints(weights_module.WeightBundle).values()
        for tp in {tp for tp in fields if hasattr(tp, "build")} | {AttentionBlockWeights}:
            params = inspect.signature(tp.build).parameters.values()
            assert [p.name for p in params if p.default is not p.empty] == [], tp.__name__

    def test_save_load_roundtrip(self, tmp_path):
        cfg = small_config()
        bundle = build_weights(cfg, (64, 64))
        save_weights(bundle, tmp_path / "w")
        assert [p.name for p in (tmp_path / "w").iterdir()] == [WEIGHTS_FILE]
        _assert_bitwise_equal(bundle, load_weights(tmp_path / "w", cfg))

    def test_cache_hit_and_invalidate(self, tmp_path):
        cfg = small_config()
        b1 = load_or_build_weights(tmp_path / "w", cfg, (64, 64))
        b2 = load_or_build_weights(tmp_path / "w", cfg, (64, 64))
        assert np.array_equal(b1.decoder.init_kernels, b2.decoder.init_kernels)
        cfg2 = small_config(weights_seed=99)
        b3 = load_or_build_weights(tmp_path / "w", cfg2, (64, 64))
        assert not np.array_equal(b1.decoder.init_kernels, b3.decoder.init_kernels)

    def test_interrupted_save_leaves_no_cache(self, tmp_path, monkeypatch):
        """A tensor write that fails leaves neither a cache file nor a temp file."""
        cfg = small_config()
        monkeypatch.setattr(weights_module, "open", lambda *a: _FailingFile(open(*a), 10),
                            raising=False)
        with pytest.raises(OSError, match="disk full"):
            load_or_build_weights(tmp_path / "w", cfg, (64, 64))
        assert list((tmp_path / "w").iterdir()) == []
        with pytest.raises(FileNotFoundError):
            load_weights(tmp_path / "w", cfg)
        monkeypatch.undo()
        rebuilt = load_or_build_weights(tmp_path / "w", cfg, (64, 64))
        _assert_bitwise_equal(build_weights(cfg, (64, 64)), rebuilt)
        _assert_bitwise_equal(rebuilt, load_weights(tmp_path / "w", cfg))

    def test_interrupted_save_keeps_previous_cache(self, tmp_path, monkeypatch):
        """An ``os.replace`` that fails leaves the previous cache loadable and no temp file."""
        cfg, cfg2 = small_config(), small_config(weights_seed=99)
        built = build_weights(cfg, (64, 64))
        save_weights(built, tmp_path / "w")
        before = (tmp_path / "w" / WEIGHTS_FILE).read_bytes()

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(weights_module.os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            load_or_build_weights(tmp_path / "w", cfg2, (64, 64))
        monkeypatch.undo()
        assert [p.name for p in (tmp_path / "w").iterdir()] == [WEIGHTS_FILE]
        assert (tmp_path / "w" / WEIGHTS_FILE).read_bytes() == before
        _assert_bitwise_equal(built, load_weights(tmp_path / "w", cfg))
        b2 = load_or_build_weights(tmp_path / "w", cfg2, (64, 64))
        _assert_bitwise_equal(b2, load_weights(tmp_path / "w", cfg2))
        assert [p.name for p in (tmp_path / "w").iterdir()] == [WEIGHTS_FILE]

    def test_save_leaves_other_files_untouched(self, tmp_path):
        (tmp_path / "w").mkdir()
        (tmp_path / "w" / "notes.txt").write_text("keep me")
        save_weights(build_weights(small_config(), (64, 64)), tmp_path / "w")
        assert sorted(p.name for p in (tmp_path / "w").iterdir()) == ["notes.txt", WEIGHTS_FILE]
        assert (tmp_path / "w" / "notes.txt").read_text() == "keep me"

    def test_seed_determinism(self):
        cfg = small_config()
        t1 = build_weights(cfg, (64, 64)).to_tensors()
        t2 = build_weights(cfg, (64, 64)).to_tensors()
        assert set(t1) == set(t2)
        for name in t1:
            assert np.array_equal(t1[name], t2[name]), name

    def test_generator_draws_pinned(self):
        bundle = build_weights(small_config(), (64, 64))
        assert _generator_sha256(bundle) == SMALL64_GENERATOR_SHA256

    def test_relaid_conv_weights_hold_version_4_values(self):
        # the layout change moved no value: each re-laid weight, swapped
        # back, is what generator version 4 stored
        bundle = build_weights(small_config(), (64, 64))
        tensors = bundle.to_tensors()
        assert sum(bool(_RELAID.fullmatch(name)) for name in tensors) == 20
        assert _generator_sha256(bundle, _version4_layouts) == SMALL64_V4_GENERATOR_SHA256

    def test_manifest_lists_every_tensor(self, tmp_path, weight_header):
        """The header lists every tensor in ``_layout`` order with its shape,
        its payload offset (back to back) and the crc32 of its extents (u64-LE)
        and then its payload; the payload ends the file and starts 4-byte aligned."""
        bundle = build_weights(small_config(), (64, 64))
        save_weights(bundle, tmp_path / "w")
        entries, offset = weight_header(tmp_path / "w")["tensors"], 0
        tensors = bundle.to_tensors()
        assert list(entries) == list(tensors)
        for name, arr in tensors.items():
            extents = struct.pack(f"<{arr.ndim}Q", *arr.shape)
            assert entries[name] == {"shape": list(arr.shape), "offset": offset,
                                     "crc32": zlib.crc32(extents + arr.tobytes())}, name
            offset += arr.nbytes
        assert ((tmp_path / "w" / WEIGHTS_FILE).stat().st_size - offset) % 4 == 0

    def test_header_holds_only_the_cache_key_and_tensors(self, tmp_path, weight_header):
        cfg = small_config()
        bundle = build_weights(cfg, (64, 64))
        assert len(bundle.vit.pos_table) == 1 + 4 * 4
        save_weights(bundle, tmp_path / "w")
        header = weight_header(tmp_path / "w")
        assert list(header) == ["weights_key", "tensors"]
        assert header["weights_key"] == cache_key(cfg, 1 + 4 * 4)

    def test_missing_tensor_detected(self, tmp_path, weight_header):
        cfg = small_config()
        save_weights(build_weights(cfg, (64, 64)), tmp_path / "w")
        weight_header(tmp_path / "w",
                      lambda h: {**h, "tensors": dict(list(h["tensors"].items())[:-5])})
        with pytest.raises(ValueError, match="missing tensor"):
            load_weights(tmp_path / "w", cfg)

    @pytest.mark.parametrize("name", ["aggregator.lateral2.w", "fusion.tdee.out.w",
                                      "decoder.layer0.kernel_proj"])
    def test_permuted_extents_detected(self, tmp_path, weight_header, name):
        """A header entry whose extents are swapped holds as many elements, so
        the payload still fits; the crc32 over the extents refuses it."""
        cfg = small_config()
        save_weights(build_weights(cfg, (64, 64)), tmp_path / "w")

        def swap(header):
            entry = header["tensors"][name]
            assert entry["shape"] != entry["shape"][::-1]
            return {**header, "tensors": {**header["tensors"],
                                          name: {**entry, "shape": entry["shape"][::-1]}}}

        weight_header(tmp_path / "w", swap)
        with pytest.raises(EovtFormatError, match=f"tensor '{name}' fails its crc32 check"):
            load_weights(tmp_path / "w", cfg)

    def test_manifest_names_pinned(self, tmp_path, weight_header):
        save_weights(build_weights(small_config(), (64, 64)), tmp_path / "w")
        names = set(weight_header(tmp_path / "w")["tensors"])
        for name in (
            "vas.text_w",
            "spatial.up1.w",
            "spatial.patch.w",
            "aggregator.proj2.w",
            "fusion.tdee.router_m.w",
            "fusion.tdee.ln_out.g",
            "decoder.layer1.ffn.w1",
            "decoder.mask_mlp2.b",
            "backbone.stage5.b",
            "classifier.clip_proj.w",
        ):
            assert name in names, f"on-disk tensor {name!r} renamed or dropped"
        assert len(names) == 116

    def test_to_tensors_reaches_every_array(self):
        bundle = build_weights(small_config(), (64, 64))
        tensors = bundle.to_tensors()
        stored = {id(arr) for arr in tensors.values()}
        arrays = [(where, v) for where, v in _walk(bundle) if isinstance(v, np.ndarray)]
        assert [where for where, arr in arrays if id(arr) not in stored] == []
        assert len(tensors) == len(arrays)

    def test_forward_reads_every_stored_tensor(self):
        """Noise added to any one stored tensor changes some output of
        ``forward`` in some fusion mode, so the cache holds no dead weight.
        The noise is random, not a constant: a LayerNorm removes a uniform
        shift of the weights before it."""
        cfg = _instrumented_config(weights_seed=7, decoder_layers=2)
        spec = SceneSpec(height=32, width=32, embed_dim=cfg.embed_dim, seed=5)
        image, _, templates = generate_scene(spec)
        text = build_text_embeddings(templates, spec.class_names, spec.seen_mask())
        bundle = build_weights(cfg, (32, 32))

        def outputs():
            out = []
            for mode in FUSION_MODES:
                r = forward(image, text, spec.is_thing(), dataclasses.replace(cfg, fusion=mode), bundle)
                out += [r.scores.values, *r.trace.values()]
            return out

        base, rng, unread = outputs(), Rng(0), []
        for name, arr in bundle.to_tensors().items():
            saved = arr.copy()
            arr += rng.normal(arr.shape)
            if all(np.array_equal(a, b) for a, b in zip(outputs(), base, strict=True)):
                unread.append(name)
            arr[...] = saved
        assert unread == []

    def test_loaded_weights_are_read_only_and_run_bitwise(self, scene, tmp_path):
        """A loaded bundle holds read-only, aligned views, and ``forward`` on it
        is bitwise the forward on the built bundle in every fusion mode."""
        spec, image, _, _, text = scene
        built = build_weights(small_config(), (64, 64))
        save_weights(built, tmp_path / "w")
        loaded = load_weights(tmp_path / "w", small_config())
        for arr in loaded.to_tensors().values():
            assert not arr.flags.writeable and arr.flags.aligned and arr.dtype == np.float32
        with pytest.raises(ValueError, match="read-only"):
            loaded.decoder.init_kernels += 1
        for mode in FUSION_MODES:
            cfg = small_config(fusion=mode)
            r1 = forward(image, text, spec.is_thing(), cfg, built)
            r2 = forward(image, text, spec.is_thing(), cfg, loaded)
            assert r1.panoptic.segment_map.tobytes() == r2.panoptic.segment_map.tobytes(), mode
            assert r1.scores.values.tobytes() == r2.scores.values.tobytes(), mode
            assert r1.trace.keys() == r2.trace.keys(), mode
            for key in r1.trace:
                assert r1.trace[key].tobytes() == r2.trace[key].tobytes(), (mode, key)

    def test_loads_a_cache_without_generator_version_bitwise(self, tmp_path, weight_header):
        """``load_weights`` reads no key: a header with another key, or none,
        loads the same bundle."""
        cfg = small_config()
        built = build_weights(cfg, (64, 64))
        save_weights(built, tmp_path / "w")
        weight_header(tmp_path / "w", lambda h: {**h, "weights_key": cache_key(cfg, 5)})
        _assert_bitwise_equal(built, load_weights(tmp_path / "w", cfg))  # every field round-trips
        weight_header(tmp_path / "w", lambda h: {"tensors": h["tensors"]})
        _assert_bitwise_equal(built, load_weights(tmp_path / "w", cfg))

    HEAD_VALUES = {"fusion": "none"}

    @pytest.mark.parametrize("field", HEAD_FIELDS)
    def test_head_fields_change_neither_weights_nor_cache_key(self, field):
        cfg = small_config()
        other = dataclasses.replace(cfg, **{field: self.HEAD_VALUES[field]})
        assert getattr(other, field) != getattr(cfg, field)
        assert cache_key(other, 17) == cache_key(cfg, 17)
        a, b = build_weights(cfg, (64, 64)).to_tensors(), build_weights(other, (64, 64)).to_tensors()
        assert list(a) == list(b)
        for name in a:
            assert (a[name].dtype, a[name].shape, a[name].tobytes()) == (
                b[name].dtype, b[name].shape, b[name].tobytes()), name

    @pytest.mark.parametrize("field", HEAD_FIELDS)
    def test_head_fields_change_the_forward(self, scene, field):
        """The pair of the test above: each head field changes the scores, the
        labels or the segment map, so no field is a dead setting."""
        spec, image, _, _, text = scene
        cfg = small_config()
        other = dataclasses.replace(cfg, **{field: self.HEAD_VALUES[field]})
        bundle = build_weights(cfg, (64, 64))

        def outputs(c):
            r = forward(image, text, spec.is_thing(), c, bundle)
            return r.scores.values, r.labels, r.panoptic.segment_map

        (s1, l1, m1), (s2, l2, m2) = outputs(cfg), outputs(other)
        assert not (np.array_equal(s1, s2) and l1 == l2 and np.array_equal(m1, m2))

    @pytest.mark.parametrize("other_hw", [(32, 128), (128, 32)], ids=["32x128", "128x32"])
    def test_sizes_with_one_token_count_build_one_bundle(self, other_hw):
        cfg = small_config()
        _assert_bitwise_equal(build_weights(cfg, (64, 64)), build_weights(cfg, other_hw))

    @staticmethod
    def _count_builds(monkeypatch):
        builds = []
        real_build = weights_module.build_weights
        monkeypatch.setattr(
            weights_module, "build_weights", lambda *a: builds.append(a) or real_build(*a)
        )
        return builds

    def test_cache_shared_by_sizes_with_one_token_count(self, tmp_path, monkeypatch):
        cfg = small_config()
        save_weights(build_weights(cfg, (64, 64)), tmp_path / "w")
        before = (tmp_path / "w" / WEIGHTS_FILE).read_bytes()
        builds = self._count_builds(monkeypatch)
        for hw in [(32, 128), (128, 32), (64, 64)]:
            load_or_build_weights(tmp_path / "w", cfg, hw)
        assert builds == []
        assert (tmp_path / "w" / WEIGHTS_FILE).read_bytes() == before
        load_or_build_weights(tmp_path / "w", cfg, (64, 128))  # 33 tokens
        assert len(builds) == 1

    def test_directory_form_cache_is_rebuilt_once(self, tmp_path, monkeypatch):
        """A cache in the earlier directory form (one EOVT file per tensor,
        manifest.txt, meta.json with this bundle's key) has no weight file: it
        is built once, then reused, and its files are left as they were."""
        cfg, cache = small_config(), tmp_path / "w"
        _directory_form_cache(cache, build_weights(cfg, (64, 64)).to_tensors(),
                              {"weights_key": cache_key(cfg, 1 + 4 * 4)})
        self._assert_directory_rebuilt_once(cache, monkeypatch)

    def test_cache_of_generator_version_1_is_rebuilt_once(self, tmp_path, monkeypatch):
        self._assert_older_cache_rebuilt_once(tmp_path / "w", monkeypatch, 1,
                                              SMALL64_V1_MANIFEST_SHA256, SMALL64_V1_FILES_SHA256)

    def test_cache_of_generator_version_2_is_rebuilt_once(self, tmp_path, monkeypatch):
        self._assert_older_cache_rebuilt_once(tmp_path / "w", monkeypatch, 2,
                                              SMALL64_V2_MANIFEST_SHA256, SMALL64_V2_FILES_SHA256)

    def _assert_older_cache_rebuilt_once(self, cache, monkeypatch, version, manifest_sha256,
                                         files_sha256):
        _older_cache(cache, small_config(), version)
        manifest = cache / "manifest.txt"
        assert hashlib.sha256(manifest.read_bytes()).hexdigest() == manifest_sha256
        assert _files_sha256(cache) == files_sha256
        self._assert_directory_rebuilt_once(cache, monkeypatch)

    def _assert_directory_rebuilt_once(self, cache, monkeypatch):
        before = {p.name: p.read_bytes() for p in cache.iterdir()}
        self._assert_rebuilt_once(cache, monkeypatch)
        after = {p.name: p.read_bytes() for p in cache.iterdir() if p.name != WEIGHTS_FILE}
        assert after == before

    @pytest.mark.parametrize("form", list(_old_meta_forms(small_config())))
    def test_old_meta_form_is_rebuilt_once(self, tmp_path, monkeypatch, weight_header, form):
        """A weight file whose header holds an older key form, another image
        size's key, or none, is rebuilt once."""
        cfg, cache = small_config(), tmp_path / "w"
        save_weights(build_weights(cfg, (64, 64)), cache)
        stored = _old_meta_forms(cfg)[form]
        weight_header(cache, lambda h: {**stored, "tensors": h["tensors"]})
        self._assert_rebuilt_once(cache, monkeypatch)

    def _assert_rebuilt_once(self, cache, monkeypatch):
        cfg = small_config()
        builds = self._count_builds(monkeypatch)
        bundles = [load_or_build_weights(cache, cfg, (64, 64)) for _ in range(2)]
        assert len(builds) == 1
        for bundle in bundles:
            assert _generator_sha256(bundle) == SMALL64_GENERATOR_SHA256

    @pytest.mark.parametrize("version", [*range(1, GENERATOR_VERSION + 2), None])
    def test_cache_reused_only_at_generator_version(self, tmp_path, monkeypatch, version):
        """The current key, written by a generator of ``version``: reused
        without a build at ``GENERATOR_VERSION``, rebuilt once at any other."""
        cfg = small_config()
        cache = tmp_path / "w"
        with monkeypatch.context() as patch:
            patch.setattr(weights_module, "GENERATOR_VERSION", version)
            save_weights(build_weights(cfg, (64, 64)), cache)
        if version == GENERATOR_VERSION:
            builds = self._count_builds(monkeypatch)
            bundle = load_or_build_weights(cache, cfg, (64, 64))
            assert builds == []
            _assert_bitwise_equal(build_weights(cfg, (64, 64)), bundle)
        else:
            self._assert_rebuilt_once(cache, monkeypatch)


@pytest.fixture(scope="module")
def small64_cache_file(tmp_path_factory):
    """The bytes of the small_config() weight file at 64x64, and the bundle it holds."""
    cache = tmp_path_factory.mktemp("small64")
    bundle = build_weights(small_config(), (64, 64))
    save_weights(bundle, cache)
    return (cache / WEIGHTS_FILE).read_bytes(), bundle


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_damaged_weight_file_fails_or_loads_bitwise(small64_cache_file, tmp_path, data):
    """A weight file cut at any length, or with any one byte changed, makes
    ``load_or_build_weights`` raise EovtFormatError or return the built bundle
    bitwise (a changed byte in header whitespace or padding, or in the key,
    which rebuilds).  Costs about 0.5 s."""
    raw, built = small64_cache_file
    if data.draw(st.booleans(), label="truncate"):
        damaged = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        at = data.draw(st.integers(0, len(raw) - 1), label="at")
        damaged = bytearray(raw)
        damaged[at] ^= data.draw(st.integers(1, 255), label="xor")
    cache = tmp_path / "w"
    cache.mkdir(exist_ok=True)
    (cache / WEIGHTS_FILE).write_bytes(damaged)
    try:
        bundle = load_or_build_weights(cache, small_config(), (64, 64))
    except EovtFormatError:
        return
    _assert_bitwise_equal(built, bundle)


def test_config_json_roundtrip(tmp_path):
    cfg = small_config(fusion="sdi")
    (tmp_path / "c.json").write_text(json.dumps(cfg.to_dict()))
    loaded = ModelConfig.load(tmp_path / "c.json")
    assert loaded == cfg
    assert loaded.hash() == cfg.hash()


def test_config_rejects_unknown_keys(tmp_path):
    (tmp_path / "c.json").write_text('{"embed_dim": 32, "mystery": 1}')
    with pytest.raises(ValueError, match="unknown keys"):
        ModelConfig.load(tmp_path / "c.json")


def test_config_validation():
    with pytest.raises(ValueError, match="divisible"):
        small_config(embed_dim=30)
    with pytest.raises(ValueError, match="fusion"):
        small_config(fusion="late")


class TestInputConditioning:
    def test_pad_to_multiple(self):
        from eovseg.pipeline import pad_to_multiple

        img = Rng(1).normal((3, 50, 70))
        padded = pad_to_multiple(img)
        assert padded.shape == (3, 64, 96)
        assert np.array_equal(padded[:, :50, :70], img)
        assert np.all(padded[:, 50:, :] == 0)
        same = Rng(2).normal((3, 64, 64))
        assert pad_to_multiple(same) is same


def test_annotation_save_load_roundtrip(tmp_path):
    from eovseg.evaluation import PanopticAnnotation, SegmentRecord

    seg = np.zeros((6, 6), dtype=np.int32)
    seg[:3] = 1
    seg[3:, 3:] = 2
    ann = PanopticAnnotation(
        segment_map=seg, segments=[SegmentRecord(1, 0, False), SegmentRecord(2, 3, True)]
    )
    ann.save(tmp_path / "m.eovt", tmp_path / "m.txt")
    back = PanopticAnnotation.load(tmp_path / "m.eovt", tmp_path / "m.txt")
    assert np.array_equal(back.segment_map, ann.segment_map)
    assert [(s.segment_id, s.class_id, s.is_thing) for s in back.segments] == [
        (1, 0, False), (2, 3, True),
    ]
