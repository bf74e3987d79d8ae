"""End-to-end forward, tracing, replay, and weight bundle round-trip tests."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from eovseg import weights as weights_module
from eovseg.classifier import build_text_embeddings
from eovseg.config import ModelConfig
from eovseg.evaluation import SceneSpec, generate_scene
from eovseg.pipeline import (
    TRACE_KEYS_TDEE,
    PipelineStageError,
    forward,
    forward_traced,
    replay_trace,
)
from eovseg.tensor import Rng, read_eovt, write_eovt
from eovseg.weights import (
    GENERATOR_VERSION,
    build_weights,
    load_or_build_weights,
    load_weights,
    save_weights,
)


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
    assert result.mask_logits.shape == (cfg.n_queries, 16, 16)


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


def test_trace_contains_named_intermediates(scene, tmp_path):
    spec, image, _, _, text = scene
    cfg = small_config(fusion="tdee")
    bundle = build_weights(cfg, (64, 64))
    result = forward_traced(image, text, spec.is_thing(), cfg, bundle, tmp_path / "trace")
    dumped = sorted(p.stem for p in (tmp_path / "trace").glob("*.eovt"))
    assert dumped == sorted(TRACE_KEYS_TDEE)
    assert len(dumped) == 13
    for key in TRACE_KEYS_TDEE:
        assert np.array_equal(read_eovt(tmp_path / "trace" / f"{key}.eovt"), result.trace[key])


def test_traced_attention_obeys_bounds(scene, tmp_path):
    spec, image, _, _, text = scene
    cfg = small_config()
    bundle = build_weights(cfg, (64, 64))
    result = forward_traced(image, text, spec.is_thing(), cfg, bundle, tmp_path / "t")
    attn = read_eovt(tmp_path / "t" / "vas_attention.eovt")
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


# Digests of a small_config() cache at 64x64 as the hand-written two-list
# serializer wrote it: manifest.txt alone, and every file but meta.json
# (name, NUL, bytes, in name order).  A renamed tensor, a changed shape or a
# changed draw moves them.
SMALL64_MANIFEST_SHA256 = "e533d6402af08c2a7ba3fc66ffea7dc298a82d3c43b048f641c367f5fcd6f739"
SMALL64_FILES_SHA256 = "2b23f1259ed02810e82cd9c0c069313c77d1068da5d7dd9dffb3e9a8f2e1b59d"
SMALL64_META_WITHOUT_VERSION = (
    '{\n  "config_hash": "5761d0730818",\n  "image_h": 64,\n  "image_w": 64\n}\n'
)


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
    def test_save_load_roundtrip(self, tmp_path):
        cfg = small_config()
        bundle = build_weights(cfg, (64, 64))
        save_weights(bundle, tmp_path / "w")
        loaded = load_weights(tmp_path / "w", cfg)
        for name, arr in bundle.to_tensors().items():
            assert np.array_equal(arr, loaded.to_tensors()[name]), name

    def test_cache_hit_and_invalidate(self, tmp_path):
        cfg = small_config()
        b1 = load_or_build_weights(tmp_path / "w", cfg, (64, 64))
        b2 = load_or_build_weights(tmp_path / "w", cfg, (64, 64))
        assert np.array_equal(b1.decoder.init_kernels, b2.decoder.init_kernels)
        cfg2 = small_config(weights_seed=99)
        b3 = load_or_build_weights(tmp_path / "w", cfg2, (64, 64))
        assert not np.array_equal(b1.decoder.init_kernels, b3.decoder.init_kernels)

    def test_interrupted_save_leaves_no_cache(self, tmp_path, monkeypatch):
        cfg = small_config()
        calls = []

        def failing_write(path, arr):
            calls.append(path)
            if len(calls) == 10:
                raise OSError("disk full")
            write_eovt(path, arr)

        monkeypatch.setattr(weights_module, "write_eovt", failing_write)
        with pytest.raises(OSError, match="disk full"):
            load_or_build_weights(tmp_path / "w", cfg, (64, 64))
        assert list(tmp_path.iterdir()) == []  # no target, no temp directory
        with pytest.raises(FileNotFoundError):
            load_weights(tmp_path / "w", cfg)
        monkeypatch.undo()
        rebuilt = load_or_build_weights(tmp_path / "w", cfg, (64, 64))
        expected = build_weights(cfg, (64, 64)).to_tensors()
        loaded = load_weights(tmp_path / "w", cfg).to_tensors()
        for name, arr in expected.items():
            assert np.array_equal(rebuilt.to_tensors()[name], arr), name
            assert np.array_equal(loaded[name], arr), name

    def test_interrupted_save_keeps_previous_cache(self, tmp_path, monkeypatch):
        cfg, cfg2 = small_config(), small_config(weights_seed=99)
        save_weights(build_weights(cfg, (64, 64)), tmp_path / "w")
        before = sorted((p.name, p.read_bytes()) for p in (tmp_path / "w").iterdir())

        def failing_write(path, arr):
            raise OSError("disk full")

        monkeypatch.setattr(weights_module, "write_eovt", failing_write)
        with pytest.raises(OSError, match="disk full"):
            load_or_build_weights(tmp_path / "w", cfg2, (64, 64))
        assert [p.name for p in tmp_path.iterdir()] == ["w"]
        assert sorted((p.name, p.read_bytes()) for p in (tmp_path / "w").iterdir()) == before
        monkeypatch.undo()
        b2 = load_or_build_weights(tmp_path / "w", cfg2, (64, 64))
        assert np.array_equal(
            load_weights(tmp_path / "w", cfg2).decoder.init_kernels, b2.decoder.init_kernels
        )
        assert [p.name for p in tmp_path.iterdir()] == ["w"]

    def test_save_refuses_to_replace_foreign_directory(self, tmp_path):
        (tmp_path / "w").mkdir()
        (tmp_path / "w" / "notes.txt").write_text("keep me")
        with pytest.raises(FileExistsError, match="notes.txt"):
            save_weights(build_weights(small_config(), (64, 64)), tmp_path / "w")
        assert [p.name for p in (tmp_path / "w").iterdir()] == ["notes.txt"]
        assert [p.name for p in tmp_path.iterdir()] == ["w"]

    def test_seed_determinism(self):
        cfg = small_config()
        t1 = build_weights(cfg, (64, 64)).to_tensors()
        t2 = build_weights(cfg, (64, 64)).to_tensors()
        assert set(t1) == set(t2)
        for name in t1:
            assert np.array_equal(t1[name], t2[name]), name

    def test_manifest_lists_every_tensor(self, tmp_path):
        cfg = small_config()
        bundle = build_weights(cfg, (64, 64))
        save_weights(bundle, tmp_path / "w")
        manifest = (tmp_path / "w" / "manifest.txt").read_text().splitlines()
        assert len(manifest) == len(bundle.to_tensors())

    def test_missing_tensor_detected(self, tmp_path):
        cfg = small_config()
        save_weights(build_weights(cfg, (64, 64)), tmp_path / "w")
        lines = (tmp_path / "w" / "manifest.txt").read_text().splitlines()
        (tmp_path / "w" / "manifest.txt").write_text("\n".join(lines[:-5]) + "\n")
        with pytest.raises(ValueError, match="missing tensor"):
            load_weights(tmp_path / "w", cfg)

    def test_manifest_names_pinned(self, tmp_path):
        save_weights(build_weights(small_config(), (64, 64)), tmp_path / "w")
        manifest = (tmp_path / "w" / "manifest.txt").read_text()
        names = {line.split()[0] for line in manifest.splitlines()}
        for name in (
            "vas.text_w",
            "vas.scale",
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
        assert len(names) == 126
        assert hashlib.sha256(manifest.encode()).hexdigest() == SMALL64_MANIFEST_SHA256

    def test_to_tensors_reaches_every_array(self):
        bundle = build_weights(small_config(), (64, 64))
        tensors = bundle.to_tensors()
        stored = {id(arr) for arr in tensors.values()}
        arrays = [(where, v) for where, v in _walk(bundle) if isinstance(v, np.ndarray)]
        assert [where for where, arr in arrays if id(arr) not in stored] == []
        assert len(tensors) == len(arrays) + 2  # + vas.scale and vas.offset

    def test_loads_a_cache_without_generator_version_bitwise(self, tmp_path):
        cfg = small_config()
        built = build_weights(cfg, (64, 64))
        save_weights(built, tmp_path / "w")
        digest = hashlib.sha256()
        for path in sorted((tmp_path / "w").iterdir()):
            if path.name != "meta.json":
                digest.update(path.name.encode() + b"\0" + path.read_bytes())
        assert digest.hexdigest() == SMALL64_FILES_SHA256
        (tmp_path / "w" / "meta.json").write_text(SMALL64_META_WITHOUT_VERSION)
        _assert_bitwise_equal(built, load_weights(tmp_path / "w", cfg))  # every field round-trips

    @pytest.mark.parametrize("version", [GENERATOR_VERSION, None, GENERATOR_VERSION + 1])
    def test_cache_reused_only_at_generator_version(self, tmp_path, monkeypatch, version):
        cfg = small_config()
        save_weights(build_weights(cfg, (64, 64)), tmp_path / "w")
        meta_path = tmp_path / "w" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta.pop("generator_version")
        if version is not None:
            meta["generator_version"] = version
        meta_path.write_text(json.dumps(meta))
        builds = []
        real_build = weights_module.build_weights
        monkeypatch.setattr(
            weights_module, "build_weights", lambda *a: builds.append(a) or real_build(*a)
        )
        bundle = load_or_build_weights(tmp_path / "w", cfg, (64, 64))
        assert len(builds) == (0 if version == GENERATOR_VERSION else 1)
        assert json.loads(meta_path.read_text())["generator_version"] == GENERATOR_VERSION
        loaded = load_weights(tmp_path / "w", cfg)
        assert np.array_equal(bundle.decoder.init_kernels, loaded.decoder.init_kernels)


def test_config_json_roundtrip(tmp_path):
    cfg = small_config(fusion="sdi", alpha=0.25)
    cfg.save(tmp_path / "c.json")
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
    with pytest.raises(ValueError, match="odd"):
        small_config(dda_kernel_size=2)
    with pytest.raises(ValueError, match="fusion"):
        small_config(fusion="late")
    with pytest.raises(ValueError, match="alpha"):
        small_config(alpha=2.0)


def test_config_validates_ensemble_params():
    with pytest.raises(ValueError, match="alpha"):
        small_config(alpha=1.2)
    with pytest.raises(ValueError, match="beta"):
        small_config(beta=-0.1)
    with pytest.raises(ValueError, match="ensemble_method"):
        small_config(ensemble_method="harmonic")


class TestInputConditioning:
    def test_pad_to_multiple(self):
        from eovseg.pipeline import pad_to_multiple

        img = Rng(1).normal((3, 50, 70))
        padded = pad_to_multiple(img, 32)
        assert padded.shape == (3, 64, 96)
        assert np.array_equal(padded[:, :50, :70], img)
        assert np.all(padded[:, 50:, :] == 0)
        same = Rng(2).normal((3, 64, 64))
        assert pad_to_multiple(same, 32) is same

    def test_resize_image_constancy_and_extents(self):
        from eovseg.kernels import bilinear_resize

        const = np.full((2, 10, 14), 3.25, dtype=np.float32)
        out = bilinear_resize(const, (16, 16))
        assert out.shape == (2, 16, 16)
        assert np.all(out == 3.25)

    def test_resize_image_matches_pow2_kernel(self):
        from eovseg.kernels import bilinear_resize, bilinear_upsample

        x = Rng(3).normal((2, 5, 7))
        assert np.max(np.abs(bilinear_resize(x, (10, 14)) - bilinear_upsample(x, 2))) < 1e-6

    def test_resize_map_nearest_preserves_ids(self):
        from eovseg.pipeline import resize_map_nearest

        seg = np.arange(12, dtype=np.int32).reshape(3, 4)
        out = resize_map_nearest(seg, (6, 8))
        assert out.shape == (6, 8)
        assert set(np.unique(out)) <= set(np.unique(seg))
        assert np.array_equal(resize_map_nearest(seg, (3, 4)), seg)


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
