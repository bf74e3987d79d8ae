"""Command-line surface: gen | run | verify | profile | bench.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O, file
format or scene input error (an image that is not (3,H,W) or holds a value
that is not finite or beyond +-16, an EOVT payload that does not hold its
header's extents, however large, non-finite templates, a template width
other than the config's embed_dim, a class whose templates average to zero,
a malformed vocab.txt or gt_manifest.txt, class counts or ids that disagree
between the scene files, segment ids below 1, beyond int32 or listed twice
in the manifest, a segment map that is not finite or not the image's
extents, map ids below 0, beyond int32 or without a manifest line, a damaged
weights.eovw), 4 a pipeline stage failed on the given input (the stage name
is printed).  A refused allocation outside the stages, say from a config
width too large to hold, exits 2 as a usage error, and so does a gen --out
or run --trace that is . or .. or exists and is not an empty directory,
checked before any work.  gen reads the whole scene from --spec; gen --out
and run --trace are written whole or not at all, and a failed write names
the option, its directory and the file in it.
Every command sets each unset BLAS thread variable (OMP_, OPENBLAS_, MKL_
and NUMEXPR_NUM_THREADS) to one thread, since the convolutions already run
their blocks on every CPU the process may use; a variable set in the
environment is left as it is.  Heavy imports happen after that, which is
why the command bodies import lazily.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import os
import sys
import tempfile
from pathlib import Path

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_STAGE = 4

# Largest |value| ``run`` accepts in image.eovt (``gen`` writes [0, 1]): an image
# of +-16 runs warning-free in every fusion mode up to 1024x1024 (see README).
IMAGE_BOUND = 16.0

_BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _apply_thread_cap() -> None:
    """Set each unset BLAS thread variable to one thread, before numpy is imported."""
    for var in _BLAS_VARS:
        os.environ.setdefault(var, "1")


def _load_config(path: str | None):
    from .config import ModelConfig

    if path is None:
        return ModelConfig()
    return ModelConfig.load(path)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="eovseg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    configured = argparse.ArgumentParser(add_help=False)
    configured.add_argument("--config", type=str, default=None, help="model config JSON")

    p_gen = sub.add_parser("gen", help="generate a synthetic scene")
    p_gen.add_argument("--spec", type=str, required=True, help="scene spec JSON")
    p_gen.add_argument("--out", type=str, required=True, help="new or empty output directory")

    p_run = sub.add_parser("run", parents=[configured], help="run the pipeline on a scene")
    p_run.add_argument("--scene", type=str, required=True, help="scene directory from gen")
    p_run.add_argument("--fusion", type=str, default=None, help="override the fusion mode")
    p_run.add_argument("--trace", type=str, default=None,
                       help="new or empty directory to dump intermediates in")
    p_run.add_argument("--weights", type=str, default="eovseg_weights",
                       help="weight cache dir; holds weights.eovw")
    p_run.add_argument("--out", type=str, default=None, help="metrics CSV path")

    p_ver = sub.add_parser("verify", help="run the oracle suite")
    p_ver.add_argument("--seed", type=int, default=0, help="seed for the randomized draws")
    p_ver.add_argument("--trials", type=int, default=25, help="random instances per check")
    p_ver.add_argument("--sabotage", type=str, default=None, help="flip one kernel's sign")

    p_prof = sub.add_parser("profile", parents=[configured], help="parameter/MAC report")
    p_prof.add_argument("--size", type=int, default=64, help="square image extent")
    p_prof.add_argument("--classes", type=int, default=4, help="vocabulary size for MACs")
    p_prof.add_argument("--out", type=str, default=None, help="CSV path")

    p_bench = sub.add_parser("bench", parents=[configured], help="time a dda and a ca decoder layer")
    p_bench.add_argument("--reps", type=int, default=20)
    p_bench.add_argument("--size", type=int, default=64, help="square image extent")
    p_bench.add_argument("--out", type=str, default=None, help="CSV path")
    return parser


# ---------------------------------------------------------------------------
# output directories


def _new_dir(option: str, path: str) -> Path:
    """``path`` as the directory that ``option`` writes whole; refused (a usage
    error) unless it is new, or empty and other than . or .."""
    out = Path(path)
    if out.name in ("", "..") or out.exists() and not (out.is_dir() and not any(out.iterdir())):
        raise ValueError(f"{option} {out}: need a new directory, or an empty one other than . or ..")
    return out


@contextlib.contextmanager
def _written_whole(option: str, out: Path):
    """Yield a staging directory beside ``out`` and rename it onto ``out`` when the
    block ends, so ``out`` holds everything the block wrote or nothing.  A failed
    write names ``option``, ``out`` and the file in it, and leaves no parent of
    ``out`` that it made."""
    made = [p for p in (out.parent, *out.parent.parents) if not p.exists()]  # deepest first
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(prefix=f".{out.name}.", dir=out.parent) as staging:
            staged = Path(staging) / out.name
            try:
                staged.mkdir()  # not the 0700 temp directory: a plain mkdir gives the umask's mode
                yield staged
                os.replace(staged, out)
            except OSError as exc:  # named in out: the staging directory is gone by then
                where = out / Path(exc.filename).relative_to(staged) if exc.filename else out
                raise OSError(f"{option} {out} not written: cannot write {where}: "
                              f"{exc.strerror or exc}") from None
    except BaseException:
        for parent in made:
            with contextlib.suppress(OSError):  # one that another process filled stays
                parent.rmdir()
        raise


# ---------------------------------------------------------------------------
# commands


def cmd_gen(args) -> int:
    from .config import checked_fields, read_json
    from .evaluation import SceneSpec, generate_scene
    from .tensor import write_eovt

    out = _new_dir("--out", args.out)
    spec = SceneSpec(**checked_fields(SceneSpec, read_json(args.spec), "scene spec"))
    image, gt, templates = generate_scene(spec)
    vocab_lines = [
        f"{name} {'seen' if seen else 'unseen'} {'thing' if thing else 'stuff'}"
        for name, seen, thing in zip(spec.class_names, spec.seen_mask(), spec.is_thing())
    ]
    with _written_whole("--out", out) as scene:
        write_eovt(scene / "image.eovt", image)
        write_eovt(scene / "templates.eovt", templates)
        gt.save(scene / "gt_map.eovt", scene / "gt_manifest.txt")
        (scene / "vocab.txt").write_text("\n".join(vocab_lines) + "\n", encoding="utf-8")
        (scene / "scene_spec.json").write_text(
            json.dumps(dataclasses.asdict(spec), indent=2, sort_keys=True) + "\n"
        )
    print(f"scene written to {out} ({len(gt.segments)} segments, {spec.n_classes} classes)")
    return EXIT_OK


def _load_scene(scene_dir: Path, config):
    import numpy as np

    from .classifier import build_text_embeddings
    from .evaluation import PanopticAnnotation
    from .tensor import EovtFormatError, read_eovt, read_text

    image = read_eovt(scene_dir / "image.eovt")
    templates = read_eovt(scene_dir / "templates.eovt")
    if image.ndim != 3 or image.shape[0] != 3 or not np.all(np.abs(image) <= IMAGE_BOUND):
        raise EovtFormatError(
            f"{scene_dir / 'image.eovt'}: need a finite (3,H,W) image with every |value| <= "
            f"{IMAGE_BOUND:g}, got {image.shape} with max |value| {np.max(np.abs(image)):.3g}"
        )
    if templates.ndim != 3 or templates.shape[2] != config.embed_dim:
        raise EovtFormatError(
            f"{scene_dir / 'templates.eovt'}: need (M, N_class, {config.embed_dim}) "
            f"templates for embed_dim={config.embed_dim}, got {templates.shape}"
        )
    if not np.all(np.isfinite(templates)):
        raise EovtFormatError(f"{scene_dir / 'templates.eovt'}: templates must be finite")
    gt = PanopticAnnotation.load(scene_dir / "gt_map.eovt", scene_dir / "gt_manifest.txt")
    if gt.segment_map.shape != image.shape[1:]:
        raise EovtFormatError(f"{scene_dir / 'gt_map.eovt'}: segment map extents "
                              f"{gt.segment_map.shape} differ from image.eovt's {image.shape[1:]}")
    vocab = scene_dir / "vocab.txt"
    names, seen, things = [], [], []
    for line in read_text(vocab).splitlines():
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) != 3 or fields[1] not in ("seen", "unseen") or fields[2] not in ("thing", "stuff"):
            raise EovtFormatError(f"{vocab}: malformed line {line!r} (need 'name seen|unseen thing|stuff')")
        if fields[0] in names:
            raise EovtFormatError(f"{vocab}: class name {fields[0]!r} is listed twice")
        names.append(fields[0])
        seen.append(fields[1] == "seen")
        things.append(fields[2] == "thing")
    if len(names) != templates.shape[1]:
        raise EovtFormatError(
            f"{vocab}: {len(names)} classes, but templates.eovt holds N_class={templates.shape[1]}"
        )
    unknown = sorted({s.class_id for s in gt.segments} - set(range(len(names))))
    if unknown:
        raise EovtFormatError(f"{scene_dir / 'gt_manifest.txt'}: class ids {unknown} not in vocab.txt")
    try:
        text = build_text_embeddings(templates, names, np.array(seen))
    except ValueError as exc:  # a class whose templates average to zero
        raise EovtFormatError(f"{scene_dir / 'templates.eovt'}: {exc}") from None
    return image, gt, text, np.array(things)


def _present_segments(segment_map, segments):
    """An annotation of ``segment_map`` with the records whose ids appear in it."""
    import numpy as np

    from .evaluation import PanopticAnnotation

    present = set(int(i) for i in np.unique(segment_map))
    return PanopticAnnotation(segment_map, [s for s in segments if s.segment_id in present])


def cmd_run(args) -> int:
    from .evaluation import miou, pq_metrics
    from .pipeline import forward, pad_to_multiple
    from .tensor import write_eovt
    from .weights import load_or_build_weights

    trace = None if args.trace is None else _new_dir("--trace", args.trace)
    config = _load_config(args.config)
    if args.fusion is not None:
        config = dataclasses.replace(config, fusion=args.fusion)
    scene_dir = Path(args.scene)
    image, gt, text, things = _load_scene(scene_dir, config)
    work_hw = (image.shape[1], image.shape[2])
    image = pad_to_multiple(image)
    image_hw = (image.shape[1], image.shape[2])
    bundle = load_or_build_weights(args.weights, config, image_hw)
    result = forward(image, text, things, config, bundle)
    if trace is not None:  # after the forward, so a failed stage leaves no directory
        with _written_whole("--trace", trace) as staged:
            for name, value in result.trace.items():
                write_eovt(staged / f"{name}.eovt", value)
    panoptic = result.panoptic
    if image_hw != work_hw:  # crop padding back off for metric comparison
        cropped = panoptic.segment_map[: work_hw[0], : work_hw[1]]
        panoptic = _present_segments(cropped, panoptic.segments)
    shapes = {k: "x".join(str(e) for e in v.shape) for k, v in sorted(result.trace.items())}
    result_pq = pq_metrics(panoptic, gt)
    rows = {
        "mode": config.fusion,
        "pq": result_pq.pq,
        "sq": result_pq.sq,
        "rq": result_pq.rq,
        "miou": miou(panoptic.semantic_map(), gt.semantic_map()),
        "pred_segments": len(panoptic.segments),
        "gt_segments": len(gt.segments),
    }

    scores = ("pq", "sq", "rq", "miou")
    print(f"fusion={rows['mode']}")
    for key in scores:
        print(f"  {key:>5} = {rows[key]:.6f}")
    for name, shape in shapes.items():
        print(f"  stage {name}: {shape}")
    if args.out:
        with open(args.out, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow([*rows, "stage_shapes"])
            writer.writerow(
                [f"{v:.6f}" if k in scores else v for k, v in rows.items()]
                + [";".join(f"{k}={v}" for k, v in shapes.items())]
            )
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_checks

    results = run_checks(trials=args.trials, seed=args.seed, sabotage=args.sabotage)
    width = max(len(r.name) for r in results)
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"[{mark}] {r.name:<{width}}  {r.detail}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if failed:
        print(f"first failing check: {failed[0].name}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _square(size: int) -> tuple[int, int]:
    from .aggregator import IMAGE_MULTIPLE

    if size <= 0 or size % IMAGE_MULTIPLE:
        raise ValueError(f"--size must be a positive multiple of {IMAGE_MULTIPLE}, got {size}")
    return size, size


def cmd_profile(args) -> int:
    from .profiler import profile_modules
    from .weights import build_weights

    config = _load_config(args.config)
    image_hw = _square(args.size)
    if args.classes < 1:
        raise ValueError(f"--classes must be >= 1, got {args.classes}")
    bundle = build_weights(config, image_hw)
    report = profile_modules(config, bundle, image_hw, args.classes)
    out = args.out or "profile.csv"
    report.write_csv(out)
    for row in report.rows:
        print(f"{row.module:>14}  params={row.params:>10}  macs={row.macs:>12}  flops={row.flops}")
    print(f"report written to {out} (config_hash={report.config_hash})")
    return EXIT_OK


def cmd_bench(args) -> int:
    from .profiler import benchmark
    from .weights import build_weights

    config = _load_config(args.config)
    image_hw = _square(args.size)
    bundle = build_weights(config, image_hw)
    report = benchmark(config, bundle, args.reps, image_hw)
    out = args.out or "bench.csv"
    report.write_csv(out)
    for row in report.rows:
        print(
            f"{row.module} mode={row.mode} params={row.params} macs={row.macs} "
            f"mean={row.time_mean_ns / 1e6:.3f}ms p50={row.time_p50_ns / 1e6:.3f}ms "
            f"p95={row.time_p95_ns / 1e6:.3f}ms"
        )
    print(report.notes[-1])
    print(f"report written to {out} (config_hash={report.config_hash})")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    _apply_thread_cap()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    handlers = {
        "gen": cmd_gen,
        "run": cmd_run,
        "verify": cmd_verify,
        "profile": cmd_profile,
        "bench": cmd_bench,
    }
    from .pipeline import PipelineStageError
    from .tensor import EovtFormatError

    try:
        return handlers[args.command](args)
    except EovtFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except PipelineStageError as exc:
        print(f"error: pipeline stage {exc.stage!r} failed: {exc.cause}", file=sys.stderr)
        return EXIT_STAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
