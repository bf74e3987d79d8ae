"""CLI surface tests: commands, exit codes, determinism."""

import argparse
import contextlib
import csv
import dataclasses
import inspect
import io
import json
import os
import pathlib
import re
import resource
import shlex
import shutil
import struct
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eovseg import (aggregator, classifier, cli, decoder, evaluation, fusion, kernels, pipeline,
                    spatial, tensor, vas, weights)
from eovseg.cli import main
from eovseg.config import ModelConfig
from eovseg.tensor import read_eovt, write_eovt
from eovseg.verify import SABOTAGE_TARGETS, _instrumented_config, run_checks

SMALL_CONFIG = dict(
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
    backbone_widths=[8, 16, 24, 32],
    weights_seed=3,
)

SCENE_SPEC = dict(
    height=64,
    width=64,
    stuff_classes=["sky", "grass"],
    thing_classes=["box", "ball"],
    n_shapes=3,
    n_templates=3,
    embed_dim=SMALL_CONFIG["embed_dim"],
    seed=3,
)

SCENE_FILES = ("image.eovt", "templates.eovt", "vocab.txt", "gt_map.eovt", "gt_manifest.txt")


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "config.json").write_text(json.dumps(SMALL_CONFIG))
    (tmp_path / "scene.json").write_text(json.dumps(SCENE_SPEC))
    return tmp_path


def run_gen(workdir, out="scene", spec="scene.json"):
    return main(["gen", "--spec", str(workdir / spec), "--out", str(workdir / out)])


def run_profile(workdir):
    """``profile`` on ``workdir``'s config.json; a refused config writes no p.csv."""
    code = main(["profile", "--size", "32", "--config", str(workdir / "config.json"),
                 "--out", str(workdir / "p.csv")])
    assert code == 0 or not (workdir / "p.csv").exists()
    return code


def run_run(workdir, scene="scene", extra=(), weights="wcache"):
    return main(
        [
            "run",
            "--scene",
            str(workdir / scene),
            "--config",
            str(workdir / "config.json"),
            "--weights",
            str(workdir / weights),
            *extra,
        ]
    )


class TestGen:
    def test_writes_scene_files(self, workdir):
        assert run_gen(workdir) == 0
        out = workdir / "scene"
        for name in ("image.eovt", "templates.eovt", "gt_map.eovt", "gt_manifest.txt", "vocab.txt"):
            assert (out / name).exists()
        templates = read_eovt(out / "templates.eovt")
        assert templates.shape == (3, 4, SMALL_CONFIG["embed_dim"])  # M x N_class x D

    def test_byte_identical_given_seed(self, workdir):
        (workdir / "scene.json").write_text(json.dumps(dict(SCENE_SPEC, seed=7)))
        run_gen(workdir, "a")
        run_gen(workdir, "b")
        for name in ("image.eovt", "templates.eovt", "gt_map.eovt", "gt_manifest.txt", "vocab.txt"):
            assert (workdir / "a" / name).read_bytes() == (workdir / "b" / name).read_bytes()

    def test_gen_spec_round_trips(self, workdir):
        """The scene_spec.json that gen writes holds every field, so it alone remakes the scene."""
        assert run_gen(workdir) == 0
        written = workdir / "scene" / "scene_spec.json"
        fields = {f.name: f.default for f in dataclasses.fields(evaluation.SceneSpec)}
        assert json.loads(written.read_text()).keys() == fields.keys()
        assert main(["gen", "--spec", str(written), "--out", str(workdir / "again")]) == 0
        names = sorted(p.name for p in (workdir / "scene").iterdir())
        assert names == sorted([*SCENE_FILES, "scene_spec.json"])
        assert sorted(p.name for p in (workdir / "again").iterdir()) == names
        for name in names:
            assert (workdir / "again" / name).read_bytes() == (workdir / "scene" / name).read_bytes()

    @pytest.mark.parametrize("existing", ["file_inside", "file", "dot", "dotdot"])
    def test_out_that_is_not_a_new_or_empty_directory_exits_2(self, workdir, capsys, monkeypatch,
                                                              existing):
        out = {"dot": ".", "dotdot": "empty/.."}.get(existing, str(workdir / "scene"))
        if existing == "file":
            pathlib.Path(out).write_text("keep")  # the file named --out is left as it is
        elif existing == "file_inside":
            pathlib.Path(out).mkdir()
            (pathlib.Path(out) / "notes.txt").write_text("keep")
        else:  # an empty working directory; --out . would replace it, and empty/.. is not there yet
            (workdir / "empty").mkdir()
            monkeypatch.chdir(workdir / "empty")
        before = sorted(str(p.relative_to(workdir)) for p in workdir.rglob("*"))
        assert main(["gen", "--spec", str(workdir / "scene.json"), "--out", out]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: --out {pathlib.Path(out)}: need a new directory, or an empty one "
                       "other than . or .."]
        assert sorted(str(p.relative_to(workdir)) for p in workdir.rglob("*")) == before
        assert all(p.read_text() == "keep" for p in workdir.rglob("*")
                   if p.is_file() and p.suffix != ".json")

    def test_empty_out_directory_is_filled(self, workdir):
        (workdir / "scene").mkdir()
        assert run_gen(workdir) == 0
        assert sorted(p.name for p in (workdir / "scene").iterdir()) == sorted(
            [*SCENE_FILES, "scene_spec.json"])

    def test_out_parents_are_made_with_the_mode_mkdir_gives(self, workdir):
        assert run_gen(workdir, out="a/b/scene") == 0
        (workdir / "a" / "b" / "plain").mkdir()
        mode = (workdir / "a" / "b" / "plain").stat().st_mode
        assert (workdir / "a" / "b" / "scene").stat().st_mode == mode

    def test_failed_write_leaves_no_scene_and_no_staging_directory(self, workdir, capsys,
                                                                   monkeypatch):
        real_write_text = pathlib.Path.write_text

        def write_text(path, *args, **kwargs):
            if path.name == "vocab.txt":
                raise OSError(28, "No space left on device", str(path))
            return real_write_text(path, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "write_text", write_text)
        before = sorted(p.name for p in workdir.iterdir())
        assert run_gen(workdir) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "No space left on device" in err[0], err
        # named as the file in --out: the staging directory no longer exists
        assert f"--out {workdir / 'scene'} not written" in err[0], err
        assert str(workdir / "scene" / "vocab.txt") in err[0] and ".scene." not in err[0], err
        assert sorted(p.name for p in workdir.iterdir()) == before

    def test_failed_write_leaves_no_parent_it_made(self, workdir, capsys, monkeypatch):
        (workdir / "kept").mkdir()
        real_write_text = pathlib.Path.write_text

        def write_text(path, *args, **kwargs):
            if path.name == "vocab.txt":
                raise OSError(28, "No space left on device", str(path))
            return real_write_text(path, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "write_text", write_text)
        before = sorted(p.relative_to(workdir) for p in workdir.rglob("*"))
        assert run_gen(workdir, out="kept/new/sub/scene") == 3
        assert "No space left on device" in capsys.readouterr().err
        assert sorted(p.relative_to(workdir) for p in workdir.rglob("*")) == before  # kept/ stays

    def test_missing_spec_is_usage_error(self, workdir):
        code = main(["gen", "--out", str(workdir / "x")])
        assert code == 2

    def test_vocab_carries_seen_and_kind_markers(self, workdir):
        run_gen(workdir)
        lines = (workdir / "scene" / "vocab.txt").read_text().splitlines()
        assert lines[0].split() == ["sky", "seen", "stuff"]
        assert lines[1].split() == ["grass", "unseen", "stuff"]
        assert lines[2].split() == ["box", "seen", "thing"]


class TestRun:
    def test_green_path_writes_csv(self, workdir):
        run_gen(workdir)
        code = run_run(workdir, extra=["--out", str(workdir / "r.csv")])
        assert code == 0
        with open(workdir / "r.csv") as f:
            rows = list(csv.DictReader(f))
        assert rows[0]["mode"] == "tdee"
        assert 0.0 <= float(rows[0]["pq"]) <= 1.0
        assert "mask_logits=8x16x16" in rows[0]["stage_shapes"]

    def test_fusion_override_reports_mode(self, workdir):
        run_gen(workdir)
        for mode in ("none", "tdee"):
            code = run_run(workdir, extra=["--fusion", mode, "--out", str(workdir / f"{mode}.csv")])
            assert code == 0
        with open(workdir / "none.csv") as f:
            assert next(csv.DictReader(f))["mode"] == "none"

    def test_fusion_switch_reuses_the_weight_cache(self, workdir, monkeypatch):
        run_gen(workdir)
        builds, caches = [], []
        real_build = weights.build_weights
        monkeypatch.setattr(weights, "build_weights", lambda *a: builds.append(a) or real_build(*a))
        for mode in ("tdee", "none", "tdee"):
            assert run_run(workdir, extra=["--fusion", mode]) == 0
            caches.append((workdir / "wcache" / "weights.eovw").read_bytes())
        assert len(builds) == 1
        assert len(set(caches)) == 1

    def test_sizes_with_one_token_count_share_the_weight_cache(self, workdir, monkeypatch):
        (workdir / "wide.json").write_text(json.dumps({**SCENE_SPEC, "height": 32, "width": 128}))
        assert run_gen(workdir) == 0 and run_gen(workdir, out="wide", spec="wide.json") == 0
        builds = []
        real_build = weights.build_weights
        monkeypatch.setattr(weights, "build_weights", lambda *a: builds.append(a) or real_build(*a))
        assert run_run(workdir) == 0
        assert run_run(workdir, scene="wide", extra=["--out", str(workdir / "shared.csv")]) == 0
        assert len(builds) == 1
        fresh = ["--out", str(workdir / "fresh.csv")]
        assert run_run(workdir, scene="wide", extra=fresh, weights="fresh_cache") == 0
        assert (workdir / "shared.csv").read_bytes() == (workdir / "fresh.csv").read_bytes()

    def test_two_runs_byte_identical(self, workdir):
        run_gen(workdir)
        run_run(workdir, extra=["--out", str(workdir / "r1.csv"), "--trace", str(workdir / "t1")])
        run_run(workdir, extra=["--out", str(workdir / "r2.csv"), "--trace", str(workdir / "t2")])
        assert (workdir / "r1.csv").read_bytes() == (workdir / "r2.csv").read_bytes()
        for p in sorted((workdir / "t1").glob("*.eovt")):
            assert p.read_bytes() == (workdir / "t2" / p.name).read_bytes()

    @pytest.mark.parametrize("mode", ["none", "eaf", "sdi", "tdee"])
    def test_trace_dumps_each_traced_output_of_the_mode(self, workdir, mode):
        """--trace writes one <name>.eovt per traced output of the mode's rows, each
        equal to ``forward``'s trace on the same scene and weight cache."""
        run_gen(workdir)
        assert run_run(workdir, extra=["--fusion", mode, "--trace", str(workdir / "t")]) == 0
        traced = {name for s in pipeline.STAGES if mode in s.modes
                  for name in s.outputs if not name.startswith("_")}
        assert sorted(p.name for p in (workdir / "t").iterdir()) == sorted(f"{n}.eovt" for n in traced)
        config = dataclasses.replace(cli._load_config(str(workdir / "config.json")), fusion=mode)
        image, _, text, things = cli._load_scene(workdir / "scene", config)
        image = pipeline.pad_to_multiple(image)
        bundle = weights.load_or_build_weights(workdir / "wcache", config, image.shape[1:])
        result = pipeline.forward(image, text, things, config, bundle)
        assert sorted(result.trace) == sorted(traced)
        for name in traced:
            assert np.array_equal(read_eovt(workdir / "t" / f"{name}.eovt"), result.trace[name]), name

    def test_trace_into_a_used_directory_exits_2_and_leaves_it(self, workdir, capsys):
        """A second run refuses the first run's --trace directory before any work,
        so no trace directory mixes the files of two fusion modes."""
        run_gen(workdir)
        trace = workdir / "t"
        assert run_run(workdir, extra=["--fusion", "tdee", "--trace", str(trace)]) == 0
        dumped = {p.name: p.read_bytes() for p in trace.iterdir()}
        assert "spatial_embeddings.eovt" in dumped  # a tdee output that none does not make
        before = sorted(p.name for p in workdir.iterdir())
        assert not any(name.startswith(".t.") for name in before)  # the staging directory is gone
        capsys.readouterr()
        code = run_run(workdir, extra=["--fusion", "none", "--trace", str(trace),
                                       "--out", str(workdir / "none.csv")])
        assert code == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            f"error: --trace {trace}: need a new directory, or an empty one other than . or .."]
        assert {p.name: p.read_bytes() for p in trace.iterdir()} == dumped
        assert sorted(p.name for p in workdir.iterdir()) == before  # no none.csv, no staging

    def test_failed_trace_write_leaves_no_parent_it_made(self, workdir, capsys, monkeypatch):
        run_gen(workdir)
        assert run_run(workdir) == 0  # makes the weight cache, so the listings below hold it
        real_write_eovt = tensor.write_eovt

        def write_eovt(path, value):
            if path.parent.name == "t":
                raise OSError(28, "No space left on device", str(path))
            return real_write_eovt(path, value)

        monkeypatch.setattr(tensor, "write_eovt", write_eovt)
        before = sorted(p.relative_to(workdir) for p in workdir.rglob("*"))
        capsys.readouterr()
        assert run_run(workdir, extra=["--trace", str(workdir / "new" / "sub" / "t")]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and f"--trace {workdir / 'new' / 'sub' / 't'} not written" in err[0], err
        assert sorted(p.relative_to(workdir) for p in workdir.rglob("*")) == before

    def test_malformed_tensor_exits_3_naming_file(self, workdir, capsys):
        run_gen(workdir)
        (workdir / "scene" / "image.eovt").write_bytes(b"JUNKJUNK")
        code = run_run(workdir)
        assert code == 3
        assert "image.eovt" in capsys.readouterr().err

    def test_missing_scene_exits_3(self, workdir):
        assert run_run(workdir, scene="missing") == 3

    def test_nan_pixel_exits_3_in_one_line(self, workdir, capsys):
        run_gen(workdir)
        image = read_eovt(workdir / "scene" / "image.eovt")
        image[0, 5, 7] = np.nan
        write_eovt(workdir / "scene" / "image.eovt", image)
        assert run_run(workdir) == 3
        err = capsys.readouterr().err
        assert "image.eovt" in err and "finite" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_non_integral_segment_map_exits_3(self, workdir, capsys):
        run_gen(workdir)
        seg = read_eovt(workdir / "scene" / "gt_map.eovt")
        write_eovt(workdir / "scene" / "gt_map.eovt", seg + np.float32(0.5))
        assert run_run(workdir) == 3
        err = capsys.readouterr().err
        assert "gt_map.eovt" in err and "non-integral" in err and err.count("\n") == 1

    def test_template_width_mismatch_exits_3(self, workdir, capsys):
        run_gen(workdir)
        config = {**SMALL_CONFIG, "embed_dim": 48, "tdee_dim": 48}
        (workdir / "config48.json").write_text(json.dumps(config))
        code = main(
            [
                "run",
                "--scene",
                str(workdir / "scene"),
                "--config",
                str(workdir / "config48.json"),
                "--weights",
                str(workdir / "wcache"),
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "templates.eovt" in err and "embed_dim=48" in err
        assert err.count("\n") == 1

    def test_stage_failure_exits_4_naming_stage(self, workdir, capsys, monkeypatch):
        """The image bound keeps overflowing scenes out, so the decoder is made to
        fail.  The forward runs before --trace's directory or its parents are made."""
        def failing(*args):
            raise ValueError("softmax: non-finite input")

        monkeypatch.setattr(pipeline, "decoder_forward", failing)
        run_gen(workdir)
        assert run_run(workdir, extra=["--trace", str(workdir / "new" / "sub" / "t")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: pipeline stage 'decoder' failed") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (workdir / "new").exists()
        assert not list(workdir.rglob(".t.*"))  # no staging directory either


@pytest.mark.parametrize(
    "name, edit, expected",
    [
        pytest.param("vocab.txt", lambda lines: ["sky seen", *lines[1:]], "malformed line 'sky seen'",
                     id="vocab_two_fields"),
        pytest.param("vocab.txt", lambda lines: ["sky seen sky", *lines[1:]],
                     "malformed line 'sky seen sky'", id="vocab_kind_tag"),
        pytest.param("vocab.txt", lambda lines: ["sky hidden stuff", *lines[1:]],
                     "malformed line 'sky hidden stuff'", id="vocab_seen_tag"),
        pytest.param("vocab.txt", lambda lines: [*lines, "tree seen stuff"],
                     "5 classes, but templates.eovt", id="vocab_extra_class"),
        pytest.param("vocab.txt", lambda lines: [lines[0], "sky unseen stuff", *lines[2:]],
                     "class name 'sky' is listed twice", id="vocab_repeated_name"),
        pytest.param("vocab.txt", b"\xff\n", "not UTF-8 text", id="vocab_non_utf8"),
        pytest.param("gt_manifest.txt", lambda lines: [*lines, "7 thing"], "malformed line '7 thing'",
                     id="manifest_two_fields"),
        pytest.param("gt_manifest.txt", lambda lines: [*lines, "7 x thing"],
                     "malformed line '7 x thing'", id="manifest_non_integer"),
        pytest.param("gt_manifest.txt", lambda lines: ["1 99 stuff", *lines[1:]],
                     "class ids [99] not in vocab.txt", id="manifest_unknown_class"),
        pytest.param("gt_manifest.txt", lambda lines: [*lines, "0 2 stuff"],
                     "has segment id 0; ids start at 1", id="manifest_void_id"),
        pytest.param("gt_manifest.txt", lambda lines: [*lines, lines[0]], "duplicate segment ids",
                     id="manifest_duplicate_id"),
        pytest.param("gt_manifest.txt", lambda lines: lines[1:], "map ids [1] lack records",
                     id="manifest_missing_record"),
        pytest.param("gt_manifest.txt", lambda lines: [*lines, "10000000000000 0 stuff"],
                     "has segment id 10000000000000, beyond int32", id="manifest_id_beyond_int32"),
        pytest.param("gt_manifest.txt", b"\xff\n", "not UTF-8 text", id="manifest_non_utf8"),
        pytest.param("gt_map.eovt", lambda seg: np.where(seg == 1, np.float32(-1), seg),
                     "holds negative ids", id="map_negative_id"),
        pytest.param("gt_map.eovt", lambda seg: np.where(seg == 1, np.float32(np.nan), seg),
                     "non-finite values", id="map_nan"),
        pytest.param("gt_map.eovt", lambda seg: np.where(seg == 1, np.float32(np.inf), seg),
                     "non-finite values", id="map_inf"),
        pytest.param("gt_map.eovt", lambda seg: np.where(seg == 1, np.float32(3e9), seg),
                     "holds id 3000000000, beyond int32", id="map_id_beyond_int32"),
        pytest.param("gt_map.eovt", lambda seg: seg[:32, :32],
                     "segment map extents (32, 32) differ from image.eovt's (64, 64)", id="map_extents"),
        pytest.param("templates.eovt", lambda t: np.where(t == t.max(), np.float32(np.nan), t),
                     "must be finite", id="templates_nan"),
        pytest.param("templates.eovt", lambda t: np.where(t == t.max(), np.float32(np.inf), t),
                     "must be finite", id="templates_inf"),
        pytest.param("image.eovt", lambda image: image[:1], "need a finite (3,H,W) image",
                     id="image_one_channel"),
        pytest.param("image.eovt", lambda image: np.where(image == image.max(), np.float32(1e10), image),
                     "every |value| <= 16, got (3, 64, 64) with max |value| 1e+10", id="image_huge_value"),
        pytest.param("image.eovt", lambda image: np.where(
            image == image.max(), -np.nextafter(np.float32(cli.IMAGE_BOUND), np.float32(np.inf)), image),
                     "every |value| <= 16", id="image_just_beyond_bound"),
        pytest.param("image.eovt", lambda image: b"EOVT" + struct.pack("<BB3I", 1, 3, 1 << 31, 1 << 31, 4),
                     "payload holds 0 floats, shape (2147483648, 2147483648, 4) needs 18446744073709551616",
                     id="image_extents_overflow"),
        pytest.param("templates.eovt", lambda t: np.where(np.arange(t.shape[1])[:, None] == 0, 0, t),
                     "class 0 averages to a zero vector", id="templates_zero_class"),
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")  # rejected before any arithmetic on it
def test_malformed_scene_text_exits_3_naming_file(workdir, capsys, name, edit, expected):
    run_gen(workdir)
    path = workdir / "scene" / name
    if isinstance(edit, bytes):  # raw bytes appended to the file
        path.write_bytes(path.read_bytes() + edit)
    elif path.suffix == ".eovt":  # the edit maps the stored array to an array, or to raw bytes
        edited = edit(read_eovt(path))
        if isinstance(edited, bytes):
            path.write_bytes(edited)
        else:
            write_eovt(path, edited)
    else:
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    capsys.readouterr()
    assert run_run(workdir) == 3
    err = capsys.readouterr().err
    assert f"{workdir / 'scene' / name}: " in err and expected in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("size", [64, 256])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_image_at_the_bound_runs_warning_free(workdir, capsys, size):
    """An image filled with +IMAGE_BOUND, or with -IMAGE_BOUND, runs without
    a numpy warning in every fusion mode under the default config."""
    (workdir / "config.json").write_text("{}")
    (workdir / "scene.json").write_text(
        json.dumps(dict(SCENE_SPEC, height=size, width=size, embed_dim=256)))
    run_gen(workdir)
    for value in (cli.IMAGE_BOUND, -cli.IMAGE_BOUND):
        write_eovt(workdir / "scene" / "image.eovt", np.full((3, size, size), value, np.float32))
        for mode in ("none", "eaf", "sdi", "tdee"):
            assert run_run(workdir, extra=["--fusion", mode]) == 0, capsys.readouterr().err


@pytest.fixture(scope="module")
def tiny_scene(tmp_path_factory):
    """A 32x32 gen scene under the stage walk's tiny config, with its weight cache built."""
    root = tmp_path_factory.mktemp("tiny")
    config = _instrumented_config(0, 2)
    (root / "config.json").write_text(json.dumps(config.to_dict()))
    (root / "scene.json").write_text(
        json.dumps(dict(SCENE_SPEC, height=32, width=32, embed_dim=config.embed_dim)))
    assert run_gen(root) == 0 and run_run(root) == 0
    return root


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_scene_exits_0_or_3_naming_file(tiny_scene, tmp_path, data):
    """One scene file cut short, one byte set, one u32 extent word of an EOVT
    header set, or one class's templates zeroed: ``run`` exits 0 with nothing
    on stderr, or 3 with one stderr line naming that file, and never warns."""
    scene = tmp_path / "scene"
    shutil.copytree(tiny_scene / "scene", scene, dirs_exist_ok=True)
    path = scene / data.draw(st.sampled_from(SCENE_FILES), label="file")
    raw = bytearray(path.read_bytes())
    kinds = ["truncate", "set_byte", *(["set_extent"] if path.suffix == ".eovt" else []),
             *(["zero_class"] if path.name == "templates.eovt" else [])]
    kind = data.draw(st.sampled_from(kinds), label="kind")
    if kind == "truncate":
        del raw[data.draw(st.integers(0, len(raw) - 1), label="length"):]
    elif kind == "set_byte":
        raw[data.draw(st.integers(0, len(raw) - 1), label="at")] = data.draw(st.integers(0, 255), label="to")
    elif kind == "set_extent":
        word = data.draw(st.integers(0, raw[5] - 1), label="word")
        struct.pack_into("<I", raw, 6 + 4 * word, data.draw(st.integers(0, (1 << 32) - 1), label="to"))
    path.write_bytes(raw)
    if kind == "zero_class":
        templates = read_eovt(path)
        templates[:, data.draw(st.integers(0, templates.shape[1] - 1), label="class")] = 0
        write_eovt(path, templates)
    out, err = io.StringIO(), io.StringIO()
    with (warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out),
          contextlib.redirect_stderr(err)):
        warnings.simplefilter("always")
        code = run_run(tiny_scene, scene=scene)
    assert [str(w.message) for w in caught] == []
    if code == 3:
        assert err.getvalue().count("\n") == 1 and str(path) in err.getvalue(), err.getvalue()
    else:
        assert code == 0 and err.getvalue() == "", (code, err.getvalue())


def _add_manifest_line(cache, header):
    entry = {"shape": [32, 64], "offset": 0, "crc32": 0}
    header(cache, lambda h: {**h, "tensors": {**h["tensors"], "decoder.layer9.ffn.w1": entry}})


def _drop_manifest_line(cache, header):
    header(cache, lambda h: {**h, "tensors": {k: v for k, v in h["tensors"].items()
                                              if k != "vas.text_w"}})


def _break_manifest_line(cache, header):
    header(cache, lambda h: {**h, "tensors": {**h["tensors"], "vas.text_w": "32x4"}})


def _non_utf8_manifest_line(cache, header):
    raw = bytearray((cache / weights.WEIGHTS_FILE).read_bytes())
    raw[raw.index(b"vas.text_w")] = 0xFF
    (cache / weights.WEIGHTS_FILE).write_bytes(raw)


def _truncate_meta(cache, header):
    raw = (cache / weights.WEIGHTS_FILE).read_bytes()
    (cache / weights.WEIGHTS_FILE).write_bytes(raw[:100])


def _array_meta(cache, header):
    header(cache, lambda h: ["weights_key"])


def _string_meta(cache, header):
    header(cache, lambda h: "weights_key")


def _bad_magic(cache, header):
    raw = (cache / weights.WEIGHTS_FILE).read_bytes()
    (cache / weights.WEIGHTS_FILE).write_bytes(b"EOVT" + raw[4:])


def _truncate_payload(cache, header):
    raw = (cache / weights.WEIGHTS_FILE).read_bytes()
    (cache / weights.WEIGHTS_FILE).write_bytes(raw[:-1])


def _append_bytes(cache, header):
    with open(cache / weights.WEIGHTS_FILE, "ab") as f:
        f.write(b"\0" * 8)


def _permute_extents(cache, header):
    def swap(h):
        entry = h["tensors"]["aggregator.lateral2.w"]
        assert entry["shape"] != entry["shape"][::-1]
        swapped = {**entry, "shape": entry["shape"][::-1]}
        return {**h, "tensors": {**h["tensors"], "aggregator.lateral2.w": swapped}}

    header(cache, swap)


def _flip_payload_byte(cache, header):
    raw = bytearray((cache / weights.WEIGHTS_FILE).read_bytes())
    raw[-1] ^= 0x01  # the last float of the last tensor in _layout order
    (cache / weights.WEIGHTS_FILE).write_bytes(raw)


@pytest.mark.parametrize(
    "damage, expected",
    [
        pytest.param(_add_manifest_line, "unexpected tensors ['decoder.layer9.ffn.w1']",
                     id="extra_manifest_entry-run"),
        pytest.param(_drop_manifest_line, "missing tensors ['vas.text_w']",
                     id="dropped_manifest_line-run"),
        pytest.param(_break_manifest_line, "tensor 'vas.text_w' has a malformed header entry",
                     id="malformed_manifest_line-run"),
        pytest.param(_non_utf8_manifest_line, "header is not UTF-8 JSON",
                     id="non_utf8_manifest_line-run"),
        pytest.param(_truncate_meta, "truncated header", id="truncated_meta-run"),
        pytest.param(_array_meta, "header is not a JSON object", id="array_meta-run"),
        pytest.param(_string_meta, "header is not a JSON object", id="string_meta-run"),
        pytest.param(_bad_magic, "bad magic", id="bad_magic-run"),
        pytest.param(_truncate_payload, "tensor 'classifier.clip_proj.b' runs past the end",
                     id="truncated_payload-run"),
        pytest.param(_append_bytes, "8 bytes after the last tensor", id="appended_bytes-run"),
        pytest.param(_flip_payload_byte, "tensor 'classifier.clip_proj.b' fails its crc32 check",
                     id="flipped_payload_byte-run"),
        pytest.param(_permute_extents, "tensor 'aggregator.lateral2.w' fails its crc32 check",
                     id="permuted_extents-run"),
    ],
)
def test_damaged_weight_cache_exits_3_in_one_line(workdir, capsys, weight_header, damage,
                                                  expected):
    """Each damage to the header (its tensor table, its encoding, its JSON
    type, a tensor's extents) or to the file (magic, length, one payload byte)
    exits 3 naming the file."""
    run_gen(workdir)
    assert run_run(workdir) == 0
    damage(workdir / "wcache", weight_header)
    capsys.readouterr()
    assert run_run(workdir) == 3
    err = capsys.readouterr().err
    assert expected in err and str(workdir / "wcache" / weights.WEIGHTS_FILE) in err
    assert err.count("\n") == 1 and "Traceback" not in err


class TestVerifyCommand:
    def test_green_path(self, workdir, capsys):
        code = main(["verify", "--trials", "2", "--seed", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_sabotage_softmax_fails_naming_it(self, workdir, capsys):
        code = main(["verify", "--trials", "2", "--sabotage", "softmax"])
        captured = capsys.readouterr()
        assert code == 1
        assert "softmax" in captured.err

    @pytest.mark.parametrize("kernel", SABOTAGE_TARGETS)
    def test_sabotage_reaches_every_model_binding(self, kernel):
        original = getattr(kernels, kernel)
        bound = [
            m
            for m in (aggregator, classifier, decoder, evaluation, fusion, pipeline, spatial, vas)
            if getattr(m, kernel, None) is original
        ]
        failed = [r.name for r in run_checks(trials=2, sabotage=kernel) if not r.passed]
        assert any(name.startswith(f"{kernel}_vs_") for name in failed), failed  # its own check
        if bound:  # the model's own rows must see the fault, not only kernel checks
            assert "stages_vs_references" in failed, failed
        assert all(getattr(m, kernel) is original for m in [kernels, *bound])

    def test_unknown_sabotage_is_usage_error(self, workdir):
        for kernel in ("matmul9000", "conv2d_depthwise_separable"):  # unknown, and removed
            assert main(["verify", "--trials", "2", "--sabotage", kernel]) == 2

    def test_trials_must_be_positive(self, workdir):
        assert main(["verify", "--trials", "0"]) == 2


class TestProfileBench:
    def test_profile_lists_eight_modules(self, workdir, capsys):
        code = main(
            [
                "profile",
                "--config",
                str(workdir / "config.json"),
                "--out",
                str(workdir / "p.csv"),
            ]
        )
        assert code == 0
        with open(workdir / "p.csv") as f:
            rows = [r for r in csv.reader(f) if r and not r[0].startswith("#")]
        modules = [r[0] for r in rows[1:]]
        assert modules == [
            "backbone", "aggregator", "vas", "decoder",
            "spatial", "fusion", "text_encoder", "classifier", "assembly", "total",
        ]

    def test_bench_modes_share_config_hash(self, workdir):
        code = main(
            [
                "bench",
                "--config",
                str(workdir / "config.json"),
                "--reps",
                "5",
                "--out",
                str(workdir / "b.csv"),
            ]
        )
        assert code == 0
        with open(workdir / "b.csv") as f:
            rows = [r for r in csv.reader(f) if r and not r[0].startswith("#")][1:]
        assert [r[7] for r in rows] == ["dda", "ca"]
        for row in rows:
            assert float(row[5]) <= float(row[6])  # p50 <= p95
        assert len({row[-1] for row in rows}) == 1

    def test_bench_mode_option_removed(self, workdir):
        assert main(["bench", "--mode", "dda", "--config", str(workdir / "config.json")]) == 2

    def test_profile_mode_option_removed(self, workdir):
        # no bundle holds a cross-attention block, so profile describes the dda model only
        assert main(["profile", "--mode", "ca", "--config", str(workdir / "config.json")]) == 2

    @pytest.mark.parametrize("size", ["0", "-32"])
    @pytest.mark.parametrize("command", ["profile", "bench"])
    def test_size_below_32_usage_error(self, workdir, capsys, monkeypatch, command, size):
        monkeypatch.chdir(workdir)
        before = sorted(p.name for p in workdir.iterdir())
        assert main([command, "--config", "config.json", f"--size={size}"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "positive multiple of 32" in err[0]
        assert sorted(p.name for p in workdir.iterdir()) == before

    def test_bench_low_reps_usage_error(self, workdir):
        assert main(["bench", "--reps", "3", "--config", str(workdir / "config.json")]) == 2

    def test_profile_counts_idempotent(self, workdir):
        for name in ("q1.csv", "q2.csv"):
            main(
                [
                    "profile",
                    "--config",
                    str(workdir / "config.json"),
                    "--out",
                    str(workdir / name),
                ]
            )
        assert (workdir / "q1.csv").read_bytes() == (workdir / "q2.csv").read_bytes()

    def test_profile_writes_only_its_csv(self, workdir, monkeypatch):
        empty = workdir / "empty"
        empty.mkdir()
        monkeypatch.chdir(empty)
        argv = ["profile", "--config", str(workdir / "config.json"), "--out", "p.csv"]
        assert main(argv) == 0
        assert [p.name for p in empty.iterdir()] == ["p.csv"]


def test_console_script_entry_point(cli_env):
    proc = subprocess.run(
        [sys.executable, "-m", "eovseg.cli", "gen"], capture_output=True, text=True, env=cli_env
    )
    assert proc.returncode == 2  # missing required --spec/--out


def _blas_env(monkeypatch, **values):
    """Unset every BLAS variable but ``values``; all are restored after."""
    for var in cli._BLAS_VARS:
        monkeypatch.setenv(var, "")  # records the old state, which delenv alone may not
        monkeypatch.delenv(var)
    for var, value in values.items():
        monkeypatch.setenv(var, value)


def test_default_fills_only_unset_blas_variables(monkeypatch):
    _blas_env(monkeypatch, OPENBLAS_NUM_THREADS="4")
    cli._apply_thread_cap()
    expected = {**dict.fromkeys(cli._BLAS_VARS, "1"), "OPENBLAS_NUM_THREADS": "4"}
    assert {var: os.environ[var] for var in cli._BLAS_VARS} == expected


@pytest.mark.parametrize("command", ["gen", "run", "verify", "profile", "bench"])
def test_every_command_defaults_to_one_blas_thread(monkeypatch, command):
    # main applies the cap before parsing, so a usage error still shows it
    _blas_env(monkeypatch)
    assert main([command, "--bogus"]) == 2
    assert {var: os.environ[var] for var in cli._BLAS_VARS} == dict.fromkeys(cli._BLAS_VARS, "1")


def test_unknown_flag_rejected():
    assert main(["verify", "--trials", "2", "--bogus"]) == 2


@pytest.mark.parametrize(
    "argv",
    [["run", "--scene", "s", "--seed", "1"], ["profile", "--seed", "1"],
     ["profile", "--weights", "w"], ["verify", "--config", "c.json"],
     ["gen", "--spec", "s.json", "--out", "o", "--seed", "1"],
     ["gen", "--spec", "s.json", "--out", "o", "--config", "c.json"], ["bench", "--seed", "1"],
     ["run", "--scene", "s", "--resize-shortest", "96"]],
    ids=["run-seed", "profile-seed", "profile-weights", "verify-config", "gen-seed", "gen-config",
         "bench-seed", "run-resize-shortest"],
)
def test_option_the_command_does_not_read_is_rejected(argv):
    assert main(argv) == 2


def test_every_option_is_read_by_its_handler():
    """A subcommand parses only the options its ``cmd_<name>`` reads."""
    sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    unread = []
    for name, parser in sub.choices.items():
        source = inspect.getsource(getattr(cli, f"cmd_{name}"))
        unread += [f"{name} {a.option_strings[0]}" for a in parser._actions
                   if a.dest != "help" and not re.search(rf"\bargs\.{a.dest}\b", source)]
    assert unread == []


def test_readme_commands_parse():
    """Every ``eovseg ...`` line of README's sh blocks is accepted by the parser."""
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("eovseg ")]
    assert len(lines) >= 7
    parser, refused = cli._build_parser(), []
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            refused.append(line)
    assert refused == []


def test_key_error_in_a_command_is_raised_not_a_usage_error(workdir, monkeypatch):
    from eovseg import profiler

    def failing(*args):
        raise KeyError("name")

    monkeypatch.setattr(profiler, "profile_modules", failing)
    with pytest.raises(KeyError, match="name"):
        run_profile(workdir)


_SPECIAL_FLOATS = st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
_ANY_VALUE = st.one_of(
    st.integers(-2, 40), _SPECIAL_FLOATS, st.none(), st.booleans(), st.sampled_from(["", "x", "tdee"]),
    st.just({}), st.lists(st.one_of(st.integers(-2, 40), _SPECIAL_FLOATS, st.just("sky")), max_size=5),
)


def _mutation(data, defaults):
    """One (key, value) for a JSON object whose valid fields are ``defaults``,
    or (None, root) for a root that is not an object."""
    kind = data.draw(st.sampled_from(["int", "int", "int", "float", "type", "names", "unknown", "root"]),
                     label="kind")
    if kind == "root":
        return None, data.draw(st.one_of(st.lists(st.integers(-2, 40), max_size=3),
                                         st.integers(-2, 40), st.sampled_from(["x", None, True])),
                               label="root")
    if kind == "unknown":
        return data.draw(st.text("abcxyz_", min_size=1, max_size=6), label="key"), 1
    if kind == "int":  # a numeric field, or one entry of a list of ints, in [-2, 40]
        keys = [k for k, v in defaults.items()
                if isinstance(v, (int, float)) or isinstance(v, tuple) and isinstance(v[0], int)]
        key = data.draw(st.sampled_from(keys), label="key")
        if isinstance(defaults[key], tuple):
            return key, data.draw(st.lists(st.integers(-2, 40), min_size=3, max_size=5), label="value")
        return key, data.draw(st.integers(-2, 40), label="value")
    if kind == "names":  # class names: empty, repeated or holding whitespace (not in a config)
        keys = [k for k, v in defaults.items() if isinstance(v, tuple) and isinstance(v[0], str)]
        if keys:
            key = data.draw(st.sampled_from(keys), label="key")
            return key, data.draw(st.lists(st.sampled_from(["sky", "box", "a b"]), max_size=3),
                                  label="value")
    key = data.draw(st.sampled_from(sorted(defaults)), label="key")
    return key, data.draw(_SPECIAL_FLOATS if kind == "float" else _ANY_VALUE, label="value")


@settings(max_examples=600, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_config_or_spec_exits_0_or_2_naming_it(tmp_path, data):
    """A ``--config`` (read by ``profile``) or a ``gen --spec`` with keys added,
    values replaced or a root that is not an object: the command exits 0 with
    nothing on stderr, or 2 with one stderr line naming the file or a mutated key."""
    target = data.draw(st.sampled_from(["config", "spec"]), label="target")
    base, cls = (SMALL_CONFIG, ModelConfig) if target == "config" else (
        SCENE_SPEC, evaluation.SceneSpec)
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    content, named = dict(base), set()
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        key, value = _mutation(data, defaults)
        if key is None:
            content = value
            break
        content[key] = value
        named.add(key)
    with tempfile.TemporaryDirectory(dir=tmp_path) as work:
        path = pathlib.Path(work) / f"{target}.json"
        path.write_text(json.dumps(content))
        argv = (["profile", "--size", "32", "--config", str(path), "--out", f"{work}/p.csv"]
                if target == "config" else ["gen", "--spec", str(path), "--out", f"{work}/scene"])
        out, err = io.StringIO(), io.StringIO()
        with (warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out),
              contextlib.redirect_stderr(err)):
            warnings.simplefilter("always")
            code = main(argv)
    assert [str(w.message) for w in caught] == []
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and any(name in lines[0] for name in [str(path), *named]), lines
    else:
        assert code == 0 and err.getvalue() == "", (code, err.getvalue())


class TestBadValuesExit2:
    """Each bad value exits 2 with one stderr line that names it."""

    @staticmethod
    def assert_usage_error(code, capsys, expected):
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and expected in err[0], err

    def test_gen_unknown_spec_key(self, workdir, capsys):
        (workdir / "scene.json").write_text(json.dumps(dict(SCENE_SPEC, colour="red")))
        self.assert_usage_error(run_gen(workdir), capsys, "unknown keys ['colour']")
        assert not (workdir / "scene").exists()

    @pytest.mark.parametrize(
        "stuff, things, expected",
        [(["sky", "sky"], ["box"], "stuff_classes repeats class name 'sky'"),
         (["sky", "grass"], ["box", "grass"], "thing_classes repeats class name 'grass'")],
        ids=["within_stuff", "across_stuff_and_things"],
    )
    def test_gen_spec_repeated_class_name(self, workdir, capsys, stuff, things, expected):
        spec = dict(SCENE_SPEC, stuff_classes=stuff, thing_classes=things)
        (workdir / "scene.json").write_text(json.dumps(spec))
        self.assert_usage_error(run_gen(workdir), capsys, expected)
        assert not (workdir / "scene").exists()

    @pytest.mark.parametrize("key, value", [pytest.param(*case, id=case[0]) for case in (
        ("ensemble_method", "geometric"), ("score_floor", 0.25), ("alpha", 0.4), ("beta", 0.8),
        ("tau", 0.07), ("dda_kernel_size", 3), ("sdi_kernel_size", 3),
    )])
    def test_config_naming_a_removed_key(self, workdir, capsys, key, value):
        """Each removed config field, even at its last default, is an unknown key."""
        (workdir / "config.json").write_text(json.dumps(dict(SMALL_CONFIG, **{key: value})))
        self.assert_usage_error(run_profile(workdir), capsys, f"unknown keys ['{key}']")

    def test_config_value_of_wrong_type(self, workdir, capsys):
        (workdir / "config.json").write_text(json.dumps(dict(SMALL_CONFIG, embed_dim="x")))
        self.assert_usage_error(run_profile(workdir), capsys, "embed_dim must be int, got 'x'")

    @pytest.mark.parametrize("file", ["config.json", "scene.json"])
    @pytest.mark.parametrize("content, expected", [
        (b"", "Expecting value: line 1 column 1 (char 0)"),
        (b'{"seed": 1}\xff', "'utf-8' codec can't decode byte 0xff in position 11"),
    ], ids=["invalid_json", "non_utf8"])
    def test_undecodable_json_file_is_named(self, workdir, capsys, file, content, expected):
        (workdir / file).write_bytes(content)
        code = run_profile(workdir) if file == "config.json" else run_gen(workdir)
        self.assert_usage_error(code, capsys, f"error: {workdir / file}: {expected}")
        assert not (workdir / "scene").exists()

    @pytest.mark.parametrize(
        "file, field, value, expected",
        [pytest.param(*case, id=case[1]) for case in (
            ("config.json", "embed_dim", 0, "embed_dim must be >= 1, got 0"),
            ("config.json", "vit_dim", 0, "vit_dim must be >= 1, got 0"),
            ("config.json", "ffn_expansion", 0, "ffn_expansion must be >= 1, got 0"),
            ("config.json", "vas_heads", 0, "vas_heads must be >= 1, got 0"),
            ("config.json", "backbone_widths", [0, 1, 2, 3], "backbone_widths must list four"),
            ("scene.json", "n_shapes", -2, "n_shapes must be >= 0, got -2"),
            ("scene.json", "height", 0, "height must be >= 16, got 0"),
            ("scene.json", "n_templates", 0, "n_templates must be >= 1, got 0"),
            ("scene.json", "stuff_classes", ["blue sky", "grass"],
             "stuff_classes must be non-empty names without whitespace, got 'blue sky'"),
            ("scene.json", "thing_classes", ["box", ""],
             "thing_classes must be non-empty names without whitespace, got ''"),
        )] + [pytest.param("scene.json", "stuff_classes", ["\ud800", "grass"],
                           "stuff_classes must be names UTF-8 can encode, got '\\ud800'",
                           id="stuff_classes=lone_surrogate")],
    )
    def test_gen_out_of_range_value(self, workdir, cli_env, file, field, value, expected):
        # a subprocess with a timeout, so a value that makes the command hang fails the test
        base = SMALL_CONFIG if file == "config.json" else SCENE_SPEC
        (workdir / file).write_text(json.dumps({**base, field: value}))
        command, out = (("profile", "--config"), workdir / "p.csv") if file == "config.json" else (
            ("gen", "--spec"), workdir / "scene")
        proc = subprocess.run(
            [sys.executable, "-m", "eovseg.cli", *command, str(workdir / file), "--out", str(out)],
            capture_output=True, text=True, timeout=60, env=cli_env,
        )
        err = proc.stderr.strip().splitlines()
        assert proc.returncode == 2 and len(err) == 1 and expected in err[0], proc.stderr
        assert not out.exists()

    def test_profile_negative_classes(self, workdir, capsys):
        code = main(
            ["profile", "--classes", "-3", "--config", str(workdir / "config.json"),
             "--out", str(workdir / "p.csv")]
        )
        self.assert_usage_error(code, capsys, "--classes must be >= 1, got -3")
        assert not (workdir / "p.csv").exists()

    @pytest.mark.parametrize("command, expected", [
        (["profile", "--config", "big.json", "--out", "p.csv"], "Unable to allocate 4.00 GiB"),
    ], ids=["profile_embed_dim"])
    def test_refused_allocation(self, workdir, cli_env, command, expected):
        # the child's address space is capped at 3 GiB, so the refused request
        # is never made of the host
        run_gen(workdir)
        (workdir / "big.json").write_text(json.dumps({"embed_dim": 1 << 20}))

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "eovseg.cli", *command], cwd=workdir, capture_output=True,
            text=True, timeout=120, env=cli_env, preexec_fn=cap_address_space,
        )
        err = proc.stderr.strip().splitlines()
        assert proc.returncode == 2 and len(err) == 1, proc.stderr
        assert err[0].startswith("error: out of memory: ") and expected in err[0], proc.stderr


class TestInputConditioningFlags:
    def test_run_pads_indivisible_scene(self, workdir):
        spec = dict(SCENE_SPEC, height=50, width=70, seed=4)
        (workdir / "scene50.json").write_text(json.dumps(spec))
        assert run_gen(workdir, out="s50", spec="scene50.json") == 0
        code = main(
            [
                "run", "--scene", str(workdir / "s50"), "--config", str(workdir / "config.json"),
                "--weights", str(workdir / "w50"), "--out", str(workdir / "r50.csv"),
            ]
        )
        assert code == 0
        with open(workdir / "r50.csv") as f:
            row = next(csv.DictReader(f))
        assert 0.0 <= float(row["pq"]) <= 1.0


def test_verify_output_independent_of_hash_seed(cli_env):
    outputs = []
    for hash_seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "eovseg.cli", "verify", "--trials", "3"],
            capture_output=True,
            text=True,
            timeout=120,
            env={**cli_env, "PYTHONHASHSEED": hash_seed},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outputs.append(re.sub(r" \[\d+\.\d+s\]", "", proc.stdout))
    assert outputs[0] == outputs[1]


def test_verify_deterministic_at_single_trial():
    from eovseg.verify import run_checks

    a = run_checks(trials=1, seed=42)
    b = run_checks(trials=1, seed=42)
    assert [(r.name, r.passed) for r in a] == [(r.name, r.passed) for r in b]
    assert all(r.passed for r in a)
