"""CLI surface tests: commands, exit codes, determinism."""

import csv
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from eovseg import aggregator, classifier, decoder, evaluation, fusion, kernels, pipeline, spatial, vas
from eovseg.cli import main
from eovseg.tensor import read_eovt, write_eovt
from eovseg.verify import SABOTAGE_TARGETS, run_checks

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
)


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "config.json").write_text(json.dumps(SMALL_CONFIG))
    (tmp_path / "scene.json").write_text(json.dumps(SCENE_SPEC))
    return tmp_path


def run_gen(workdir, out="scene", seed=3):
    return main(
        [
            "gen",
            "--spec",
            str(workdir / "scene.json"),
            "--seed",
            str(seed),
            "--out",
            str(workdir / out),
            "--config",
            str(workdir / "config.json"),
        ]
    )


def run_run(workdir, scene="scene", extra=()):
    return main(
        [
            "run",
            "--scene",
            str(workdir / scene),
            "--config",
            str(workdir / "config.json"),
            "--weights",
            str(workdir / "wcache"),
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
        run_gen(workdir, "a", seed=7)
        run_gen(workdir, "b", seed=7)
        for name in ("image.eovt", "templates.eovt", "gt_map.eovt", "gt_manifest.txt", "vocab.txt"):
            assert (workdir / "a" / name).read_bytes() == (workdir / "b" / name).read_bytes()

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

    def test_gt_bypass_scores_one(self, workdir, capsys):
        run_gen(workdir)
        code = run_run(workdir, extra=["--pred-from-gt", "--out", str(workdir / "gt.csv")])
        assert code == 0
        with open(workdir / "gt.csv") as f:
            row = next(csv.DictReader(f))
        assert float(row["pq"]) == 1.0
        assert float(row["miou"]) == 1.0

    def test_fusion_override_reports_mode(self, workdir):
        run_gen(workdir)
        for mode in ("none", "tdee"):
            code = run_run(workdir, extra=["--fusion", mode, "--out", str(workdir / f"{mode}.csv")])
            assert code == 0
        with open(workdir / "none.csv") as f:
            assert next(csv.DictReader(f))["mode"] == "none"

    def test_two_runs_byte_identical(self, workdir):
        run_gen(workdir)
        run_run(workdir, extra=["--out", str(workdir / "r1.csv"), "--trace", str(workdir / "t1")])
        run_run(workdir, extra=["--out", str(workdir / "r2.csv"), "--trace", str(workdir / "t2")])
        assert (workdir / "r1.csv").read_bytes() == (workdir / "r2.csv").read_bytes()
        for p in sorted((workdir / "t1").glob("*.eovt")):
            assert p.read_bytes() == (workdir / "t2" / p.name).read_bytes()

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
    def test_stage_failure_exits_4_naming_stage(self, workdir, capsys):
        run_gen(workdir)
        image = read_eovt(workdir / "scene" / "image.eovt")
        write_eovt(workdir / "scene" / "image.eovt", image * np.float32(1e30))
        assert run_run(workdir) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: pipeline stage '") and err.count("\n") == 1
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "name, edit, expected",
    [
        ("vocab.txt", lambda lines: ["sky seen", *lines[1:]], "malformed line 'sky seen'"),
        ("vocab.txt", lambda lines: ["sky seen sky", *lines[1:]], "malformed line 'sky seen sky'"),
        ("vocab.txt", lambda lines: ["sky hidden stuff", *lines[1:]], "malformed line 'sky hidden stuff'"),
        ("vocab.txt", lambda lines: [*lines, "tree seen stuff"], "5 classes, but templates.eovt"),
        ("gt_manifest.txt", lambda lines: [*lines, "7 thing"], "malformed line '7 thing'"),
        ("gt_manifest.txt", lambda lines: [*lines, "7 x thing"], "malformed line '7 x thing'"),
        ("gt_manifest.txt", lambda lines: ["1 99 stuff", *lines[1:]], "class ids [99] not in vocab.txt"),
    ],
    ids=["vocab_two_fields", "vocab_kind_tag", "vocab_seen_tag", "vocab_extra_class",
         "manifest_two_fields", "manifest_non_integer", "manifest_unknown_class"],
)
def test_malformed_scene_text_exits_3_naming_file(workdir, capsys, name, edit, expected):
    run_gen(workdir)
    path = workdir / "scene" / name
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    capsys.readouterr()
    assert run_run(workdir) == 3
    err = capsys.readouterr().err
    assert f"{workdir / 'scene' / name}: " in err and expected in err
    assert err.count("\n") == 1 and "Traceback" not in err


def _add_manifest_line(cache):
    with open(cache / "manifest.txt", "a") as f:
        f.write("decoder.layer9.ffn.w1 32x64\n")


def _drop_manifest_line(cache):
    lines = (cache / "manifest.txt").read_text().splitlines()
    kept = [line for line in lines if not line.startswith("vas.text_w ")]
    (cache / "manifest.txt").write_text("\n".join(kept) + "\n")


def _break_manifest_line(cache):
    with open(cache / "manifest.txt", "a") as f:
        f.write("vas.text_w\n")


def _truncate_meta(cache):
    text = (cache / "meta.json").read_text()
    (cache / "meta.json").write_text(text[: len(text) // 2])


@pytest.mark.parametrize("command", ["run", "profile"])
@pytest.mark.parametrize(
    "damage, expected",
    [
        (_add_manifest_line, "unexpected tensors ['decoder.layer9.ffn.w1']"),
        (_drop_manifest_line, "missing tensors ['vas.text_w']"),
        (_break_manifest_line, "manifest.txt: malformed line 'vas.text_w'"),
        (_truncate_meta, "meta.json is unreadable"),
    ],
    ids=["extra_manifest_entry", "dropped_manifest_line", "malformed_manifest_line", "truncated_meta"],
)
def test_damaged_weight_cache_exits_3_in_one_line(workdir, capsys, command, damage, expected):
    if command == "run":
        run_gen(workdir)
        invoke = lambda: run_run(workdir)  # noqa: E731
    else:
        args = ["profile", "--config", str(workdir / "config.json"), "--size", "64",
                "--weights", str(workdir / "wcache"), "--out", str(workdir / "p.csv")]
        invoke = lambda: main(args)  # noqa: E731
    assert invoke() == 0
    damage(workdir / "wcache")
    capsys.readouterr()
    assert invoke() == 3
    err = capsys.readouterr().err
    assert expected in err and str(workdir / "wcache") in err
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
        if bound:  # a module-level or pipeline check must see the fault, not only kernel checks
            kernel_checks = SABOTAGE_TARGETS + ("bilinear_mean", "kernel_determinism")
            assert [name for name in failed if not name.startswith(kernel_checks)], failed
        assert all(getattr(m, kernel) is original for m in [kernels, *bound])

    def test_unknown_sabotage_is_usage_error(self, workdir):
        assert main(["verify", "--trials", "2", "--sabotage", "matmul9000"]) == 2

    def test_trials_must_be_positive(self, workdir):
        assert main(["verify", "--trials", "0"]) == 2


class TestProfileBench:
    def test_profile_lists_eight_modules(self, workdir, capsys):
        code = main(
            [
                "profile",
                "--config",
                str(workdir / "config.json"),
                "--weights",
                str(workdir / "pw"),
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
            "spatial", "fusion", "text_encoder", "classifier", "total",
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

    @pytest.mark.parametrize("size", ["0", "-32"])
    @pytest.mark.parametrize("command", ["profile", "bench"])
    def test_size_below_32_usage_error(self, workdir, capsys, command, size):
        argv = [command, "--config", str(workdir / "config.json"), f"--size={size}"]
        if command == "profile":
            argv += ["--weights", str(workdir / "pw_bad")]
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "positive multiple of 32" in err[0]
        assert not (workdir / "pw_bad").exists()

    def test_bench_low_reps_usage_error(self, workdir):
        assert main(["bench", "--reps", "3", "--config", str(workdir / "config.json")]) == 2

    def test_profile_counts_idempotent(self, workdir):
        for name in ("q1.csv", "q2.csv"):
            main(
                [
                    "profile",
                    "--config",
                    str(workdir / "config.json"),
                    "--weights",
                    str(workdir / "pw2"),
                    "--out",
                    str(workdir / name),
                ]
            )
        assert (workdir / "q1.csv").read_bytes() == (workdir / "q2.csv").read_bytes()


def test_console_script_entry_point(cli_env):
    proc = subprocess.run(
        [sys.executable, "-m", "eovseg.cli", "gen"], capture_output=True, text=True, env=cli_env
    )
    assert proc.returncode == 2  # missing required --spec/--out


def test_bad_thread_count_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("EOVSEG_THREADS", "abc")
    assert main(["verify", "--trials", "2"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "EOVSEG_THREADS" in err[0]


def test_unknown_flag_rejected():
    assert main(["verify", "--trials", "2", "--bogus"]) == 2


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

    def test_config_value_of_wrong_type(self, workdir, capsys):
        (workdir / "config.json").write_text(json.dumps(dict(SMALL_CONFIG, embed_dim="x")))
        self.assert_usage_error(run_gen(workdir), capsys, "embed_dim must be int, got 'x'")

    def test_profile_negative_classes(self, workdir, capsys):
        code = main(
            ["profile", "--classes", "-3", "--config", str(workdir / "config.json"),
             "--weights", str(workdir / "pw"), "--out", str(workdir / "p.csv")]
        )
        self.assert_usage_error(code, capsys, "--classes must be >= 1, got -3")
        assert not (workdir / "p.csv").exists()

    def test_run_negative_resize_shortest(self, workdir, capsys):
        run_gen(workdir)
        capsys.readouterr()
        code = run_run(workdir, extra=["--resize-shortest", "-5", "--out", str(workdir / "r.csv")])
        self.assert_usage_error(code, capsys, "--resize-shortest must be >= 1, got -5")
        assert not (workdir / "r.csv").exists()


class TestInputConditioningFlags:
    def test_run_pads_indivisible_scene(self, workdir):
        spec = dict(SCENE_SPEC, height=50, width=70)
        (workdir / "scene50.json").write_text(json.dumps(spec))
        assert main(
            [
                "gen", "--spec", str(workdir / "scene50.json"), "--seed", "4",
                "--out", str(workdir / "s50"), "--config", str(workdir / "config.json"),
            ]
        ) == 0
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

    def test_resize_shortest_flag(self, workdir):
        run_gen(workdir)
        code = run_run(
            workdir,
            extra=["--resize-shortest", "96", "--weights", str(workdir / "w96"),
                   "--out", str(workdir / "r96.csv")],
        )
        assert code == 0
        with open(workdir / "r96.csv") as f:
            row = next(csv.DictReader(f))
        # 64x64 scene resized to 96x96: the stride-4 mask grid becomes 24x24
        assert "mask_logits=8x24x24" in row["stage_shapes"]


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
