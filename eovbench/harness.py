"""Closed-loop inference benchmark of the eovseg engine.

A request is one seeded synthetic scene plus its vocabulary: the template
embeddings are averaged by ``classifier.build_text_embeddings`` and the
image goes through ``pipeline.forward``.  One client sends the next request
only after the previous one returned.  Every scene is generated before the
clock starts; the engine sees only the image, the template embeddings, the
seen mask and the thing mask.

Set-up is a cold ``weights.load_or_build_weights`` into an empty cache
directory plus one untimed warm-up request on a fixed reference scene.  It
runs SETUP_REPS times per run and the median is reported.

Correctness: the warm-up scores must match eovbench/reference.json (checked-in
data) within SCORE_TOL with equal labels, every set-up must give a
bitwise-equal result, and ``pipeline.replay_trace`` of the last one must
return no mismatches.  A timed request fails if it raises or breaks an output
invariant (see ``Outcome.problems``); it is checked as soon as it returns,
only its latency and any error are kept, and failures are counted, never
timed.  Each workload cycles a fixed number of scenes, so the memory the
harness holds does not depend on how fast the engine is.

The workloads (all with a 10-class vocabulary, 4 stuff and 6 thing, 3
templates, 2-6 shapes per scene; vocabulary size moves only the VAS stage):

- small64_tdee: fixed per-image costs (decoder over 100 queries, classifier,
  second backbone pass, Python glue) carry the largest share once the
  convolutions are fast, so decoder and overhead changes show here.
- mid128_eaf: early fusion upsamples the ViT grid and mixes it with a 1x1
  conv before the decoder; the transposed-conv upsampler and tdee never
  run, so changes to those must not move this workload.
- large256_tdee: work scales with pixels (aggregator convs, transposed
  convs, full-resolution panoptic assembly); memory growth shows here and
  a decoder-only change should not move it.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import time
import traceback
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from eovseg import classifier, decoder, pipeline, profiler, weights
from eovseg.config import ModelConfig
from eovseg.evaluation import VOID, SceneSpec, generate_scene
from eovseg.tensor import Rng
from spans import Tracer

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

STUFF = ("sky", "grass", "road", "wall")
THINGS = ("box", "ball", "wedge", "car", "lamp", "sign")
CLASS_NAMES = list(STUFF + THINGS)
N_TEMPLATES = 3
SETUP_REPS = 3
REFERENCE_SCENE_SEED = 20241211  # warm-up scene, fixed so stored reference scores apply to every run
SCORE_TOL = 1e-5  # the oracle tolerance used by the engine's own checks
VAS_TOL = 1e-6  # float32 rounding slack on the [1/N_class, 1] bound
MIN_REQUESTS = 3  # the slowest workload's figures still rest on three samples
SWEEP_REPS = 7
MIB = 1 << 20


class BenchError(RuntimeError):
    """The measurement itself is invalid (not a failed request)."""


@dataclass(frozen=True)
class Workload:
    name: str
    size: int
    fusion: str
    pool: int  # scenes generated per run and cycled through, the same on every commit

    def config(self) -> ModelConfig:
        return ModelConfig(fusion=self.fusion)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("small64_tdee", 64, "tdee", pool=64),
        Workload("mid128_eaf", 128, "eaf", pool=32),
        Workload("large256_tdee", 256, "tdee", pool=16),
    )
}


# ---------------------------------------------------------------------------
# inputs and requests


@dataclass
class Scene:
    image: np.ndarray
    templates: np.ndarray
    seen: np.ndarray
    is_thing: np.ndarray


def make_scene(size: int, scene_seed: int, embed_dim: int) -> Scene:
    rng = Rng(scene_seed)
    spec = SceneSpec(
        height=size,
        width=size,
        stuff_classes=STUFF,
        thing_classes=THINGS,
        n_shapes=int(rng.integers(2, 7)),
        n_templates=N_TEMPLATES,
        embed_dim=embed_dim,
        seed=scene_seed,
    )
    image, _, templates = generate_scene(spec, rng)
    return Scene(image, templates, spec.seen_mask(), spec.is_thing())


def _no_span(_name):
    return nullcontext()


def run_request(scene: Scene, config, bundle, tracer: Tracer | None = None):
    span = tracer.span if tracer else _no_span
    with span("request"):
        text = classifier.build_text_embeddings(scene.templates, CLASS_NAMES, scene.seen)
        with span("forward"):
            return pipeline.forward(scene.image, text, scene.is_thing, config, bundle)


@dataclass
class Outcome:
    """The parts of a forward result the checks look at."""

    scores: np.ndarray
    vas_attention: np.ndarray
    segment_map: np.ndarray
    segment_ids: list[int]
    labels: list[tuple[int, int, float]]

    @classmethod
    def of(cls, result) -> "Outcome":
        return cls(
            scores=result.scores.values,
            vas_attention=result.trace["vas_attention"],
            segment_map=result.panoptic.segment_map,
            segment_ids=[s.segment_id for s in result.panoptic.segments],
            labels=[(lab.mask_index, lab.class_id, lab.confidence) for lab in result.labels],
        )

    def problems(self, size: int, n_class: int) -> list[str]:
        found = []
        s = self.scores
        if not (np.all(np.isfinite(s)) and s.min() > 0 and s.max() <= 1):
            found.append("final scores not finite in (0, 1]")
        a = self.vas_attention
        if not (np.all(np.isfinite(a)) and a.min() >= 1 / n_class - VAS_TOL and a.max() <= 1 + VAS_TOL):
            found.append("VAS weights outside [1/N_class, 1]")
        if self.segment_map.shape != (size, size):
            found.append(f"segment map {self.segment_map.shape} != image ({size}, {size})")
        unrecorded = set(np.unique(self.segment_map).tolist()) - {VOID} - set(self.segment_ids)
        if unrecorded:
            found.append(f"map ids without records: {sorted(unrecorded)[:5]}")
        return found

    def same_as(self, other: "Outcome") -> bool:
        return (
            np.array_equal(self.scores, other.scores)
            and np.array_equal(self.vas_attention, other.vas_attention)
            and np.array_equal(self.segment_map, other.segment_map)
            and self.segment_ids == other.segment_ids
            and self.labels == other.labels
        )


# ---------------------------------------------------------------------------
# set-up, timed loop, checks


@dataclass
class Setup:
    seconds: list[float]  # weights + warm-up request, per repetition
    bundle: object
    cache: Path
    outcomes: list[Outcome]
    last: object  # the final repetition's ForwardResult, for the replay check


def set_up(work: Path, workload: Workload, config, warm_scene: Scene, tracer) -> Setup:
    """Cold weight build + save into an empty directory, then the warm-up request.

    Each repetition rebuilds the weights and re-runs the same request, so the
    repetitions double as the bitwise re-run check.
    """
    seconds, outcomes = [], []
    cache = result = None
    for rep in range(SETUP_REPS):
        if cache is not None:
            shutil.rmtree(cache)
        bundle = result = None  # hold neither the previous weights nor result through the next build
        cache = work / f"weights{rep}"
        if tracer:
            tracer.request = -1 - rep
        t0 = time.perf_counter()
        bundle = weights.load_or_build_weights(cache, config, (workload.size, workload.size))
        result = run_request(warm_scene, config, bundle, tracer)
        seconds.append(time.perf_counter() - t0)
        outcomes.append(Outcome.of(result))
    return Setup(seconds, bundle, cache, outcomes, result)


def setup_problems(workload: Workload, config, setup: Setup, warm_scene: Scene) -> list[str]:
    """Stored reference, bitwise repeat across set-ups, and stage-by-stage replay."""
    found = reference_problems(workload, setup.outcomes[0])
    found += [
        f"set-up {i}: warm-up result is not bitwise equal to set-up 0"
        for i, o in enumerate(setup.outcomes[1:], 1)
        if not o.same_as(setup.outcomes[0])
    ]
    text = classifier.build_text_embeddings(warm_scene.templates, CLASS_NAMES, warm_scene.seen)
    replay = pipeline.replay_trace(warm_scene.image, text, config, setup.bundle, setup.last.trace)
    if replay:
        found.append(f"replay_trace mismatches: {replay}")
    return found


@dataclass
class Record:
    index: int
    traced: bool
    latency: float = 0.0  # set when the request returned
    n_labels: int = 0
    stage: str = ""  # PipelineStageError.stage, when that is what it raised
    error: str = ""  # set when the request raised or broke an invariant


def one_request(index: int, scene: Scene, config, bundle, size: int, tracer) -> Record:
    """Run, time and check one request; the result is dropped before returning."""
    rec = Record(index=index, traced=tracer is not None)
    with tracer.installed() if tracer else nullcontext():
        t0 = time.perf_counter()
        try:
            result = run_request(scene, config, bundle, tracer)
        except pipeline.PipelineStageError as exc:
            rec.stage, rec.error = exc.stage, f"{exc.stage}: {exc}"
            return rec
        except Exception:  # a failed request is counted, the loop keeps running
            rec.error = traceback.format_exc(limit=3)
            return rec
        rec.latency = time.perf_counter() - t0
    outcome = Outcome.of(result)
    rec.error = "; ".join(outcome.problems(size, len(CLASS_NAMES)))
    rec.n_labels = len(outcome.labels)
    return rec


def timed_loop(scenes, config, bundle, size: int, seconds: float, tracer) -> tuple[list[Record], float]:
    """Closed loop; with a tracer, every other request is traced.

    A request starts while less than `seconds` has passed, so the last one may
    overrun the window, and at least MIN_REQUESTS run.
    """
    records: list[Record] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(records) < MIN_REQUESTS:
        i = len(records)
        traced = tracer if tracer is not None and i % 2 == 0 else None
        if traced:
            tracer.request = i
        records.append(one_request(i, scenes[i % len(scenes)], config, bundle, size, traced))
    return records, time.perf_counter() - start


def reference_problems(workload: Workload, outcome: Outcome) -> list[str]:
    stored = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}
    ref = stored.get(workload.name)
    if ref is None:
        return [f"no stored reference for {workload.name} in {REFERENCE_PATH.name}"]
    found = []
    expected = np.asarray(ref["scores"], dtype=np.float64)
    if expected.shape != outcome.scores.shape:
        return [f"reference scores {expected.shape} != {outcome.scores.shape}"]
    drift = float(np.max(np.abs(outcome.scores.astype(np.float64) - expected)))
    if drift > SCORE_TOL:
        found.append(f"reference scores drift {drift:.3g} > {SCORE_TOL}")
    if [list(lab[:2]) for lab in outcome.labels] != ref["labels"]:
        found.append("reference labels differ")
    return found


# ---------------------------------------------------------------------------
# metrics


def latency_tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at least
    ten samples beyond it, never below the median."""
    xs = sorted(latencies)
    n = len(xs)
    k = n - 11
    if k < (n - 1) // 2:
        return statistics.median(xs), 50.0, n // 2
    return xs[k], 100.0 * (k + 1) / n, n - 1 - k


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB


def environment(workload: Workload, seed: int, seconds: float, threads: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": threads,
    }


def layer_macs(config, size: int, n_class: int) -> dict[str, int]:
    m = profiler.count_macs(config, (size, size), n_class, "dda")
    return {
        "aggregator": m["backbone"] + m["aggregator"],
        "vas": m["vas"],
        "decoder": m["decoder"],
        "spatial": m["spatial"],
        "fusion": m["fusion"],
        # count_macs leaves out the backbone pass that _clip_final_features repeats
        "classifier": m["text_encoder"] + m["classifier"] + m["backbone"],
    }


def decoder_layer_sweep(features: np.ndarray, config, bundle) -> dict[str, float]:
    """One decoder layer timed both ways on real stride-4 features, with its MACs."""
    kernels = bundle.decoder.init_kernels
    masks = decoder.predict_masks(kernels, features)
    times = {"dda": [], "ca": []}
    for rep in range(SWEEP_REPS + 1):
        for mode in ("dda", "ca"):
            t0 = time.perf_counter()
            profiler._layer_step(features, kernels, masks, bundle, mode)
            if rep:  # the first round is warm-up
                times[mode].append(time.perf_counter() - t0)
    hw = features.shape[1] * features.shape[2]
    n, d = config.n_queries, config.embed_dim
    one_layer = replace(config, decoder_layers=1)

    def macs(mode):  # minus the initial mask prediction and the final pooling
        return profiler._decoder_macs(one_layer, hw, mode) - 2 * n * d * hw

    dda_ms = statistics.median(times["dda"]) * 1e3
    ca_ms = statistics.median(times["ca"]) * 1e3
    return {
        "grid": f"{features.shape[1]}x{features.shape[2]}",
        "dda_ms": dda_ms,
        "ca_ms": ca_ms,
        "dda_macs": macs("dda"),
        "ca_macs": macs("ca"),
        "ca_over_dda": ca_ms / dda_ms,
    }


def per_layer_metrics(tracer: Tracer, m: "Measurement", config, size: int, n_class: int):
    """(metrics, aggregator self time as a share of forward time)."""
    traced = [r for r in m.records if r.traced and not r.error]
    if not traced:
        raise BenchError("no traced request completed")
    self_s = tracer.self_times()
    self_ms = tracer.by_request(lambda s: self_s[s.id] * 1e3)
    incl_ms = tracer.by_request(lambda s: s.duration * 1e3)

    def med(table, *names):
        return statistics.median(sum(table[r.index][n] for n in names) for r in traced)

    def rate(macs, ms):
        return macs / (ms * 1e6) if ms > 0 else 0.0

    def counted(r, key):
        return tracer.counts[r.index][key]

    def setup_span(name):
        return statistics.median(s.duration for s in tracer.spans if s.name == name and s.request < 0)

    macs = layer_macs(config, size, n_class)
    agg_ms = [med(self_ms, f"aggregator.{p}") for p in ("backbone", "pyramid", "aggregate")]
    spatial_ms = [med(self_ms, f"spatial.{p}") for p in ("vit", "upsample", "pool")]
    cls_ms = [med(self_ms, f"classifier.{p}") for p in ("text", "clip_features", "scores")]
    dec_ms = med(incl_ms, "decoder")
    vas_ms = med(self_ms, "vas")
    fusion_ms = med(self_ms, "fusion", "fusion.upsample")
    upsampled = [counted(r, "assembly.upsampled_masks") for r in traced]
    traced_lat = [r.latency for r in traced]
    plain_lat = [r.latency for r in m.records if not r.traced and not r.error]
    aggregator_share = sum(agg_ms) / med(incl_ms, "forward")
    metrics = {
        "aggregator.backbone_ms": agg_ms[0],
        "aggregator.pyramid_ms": agg_ms[1],
        "aggregator.aggregate_ms": agg_ms[2],
        "aggregator.macs": macs["aggregator"],
        "aggregator.gmacs": rate(macs["aggregator"], sum(agg_ms)),
        "vas.ms": vas_ms,
        "vas.macs": macs["vas"],
        "vas.gmacs": rate(macs["vas"], vas_ms),
        "decoder.ms": dec_ms,
        "decoder.macs": macs["decoder"],
        "decoder.gmacs": rate(macs["decoder"], dec_ms),
        "decoder.init_attn_ms": med(self_ms, "decoder.init_attn"),
        "decoder.dda_ms": med(self_ms, "decoder.dda"),
        "decoder.refine_ms": med(self_ms, "decoder.refine"),
        "decoder.mask_mlp_ms": med(self_ms, "decoder.mask_mlp"),
        "decoder.predict_ms": med(self_ms, "decoder.predict"),
        "decoder.pool_ms": med(self_ms, "decoder.pool"),
        "decoder.dda_layer_ms": m.sweep["dda_ms"],
        "decoder.ca_layer_ms": m.sweep["ca_ms"],
        "decoder.ca_over_dda": m.sweep["ca_over_dda"],
        "spatial.vit_ms": spatial_ms[0],
        "spatial.upsample_ms": spatial_ms[1],
        "spatial.pool_ms": spatial_ms[2],
        "spatial.macs": macs["spatial"],
        "spatial.gmacs": rate(macs["spatial"], sum(spatial_ms)),
        "fusion.ms": fusion_ms,
        "fusion.macs": macs["fusion"],
        "fusion.gmacs": rate(macs["fusion"], fusion_ms),
        "classifier.text_ms": cls_ms[0],
        "classifier.clip_features_ms": cls_ms[1],
        "classifier.scores_ms": cls_ms[2],
        "classifier.macs": macs["classifier"],
        "classifier.gmacs": rate(macs["classifier"], sum(cls_ms)),
        "classifier.kept_share": statistics.median(
            r.n_labels / config.n_queries for r in traced
        ),
        "assembly.ms": med(self_ms, "assembly", "assembly.upsample"),
        "assembly.upsampled_mpx": statistics.median(
            counted(r, "assembly.upsampled_px") / 1e6 for r in traced
        ),
        "assembly.bytes_computed_mb": statistics.median(
            counted(r, "assembly.alloc_peak_bytes") / MIB for r in traced
        ),
        "assembly.winning_share": statistics.median(
            counted(r, "assembly.segments") / n if n else 1.0 for r, n in zip(traced, upsampled)
        ),
        "weights.build_s": setup_span("weights.build"),
        "weights.save_s": setup_span("weights.save"),
        "weights.load_s": m.load_s,
        "weights.bytes_written_mb": sum(m.file_sizes) / MIB,
        "weights.files": len(m.file_sizes),
        "pipeline.overhead_ms": med(self_ms, "forward"),
        "pipeline.stage_errors": sum(m.stage_errors.values()),
        "trace.overhead_share": (
            statistics.median(traced_lat) / statistics.median(plain_lat) - 1 if plain_lat else 0.0
        ),
    }
    return metrics, aggregator_share


# ---------------------------------------------------------------------------
# one run

def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


@contextmanager
def work_dir():
    """Scratch space inside the checkout (weight caches), removed afterwards."""
    path = HERE.parent / ".eovbench" / f"work-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


@dataclass
class Measurement:
    setup: Setup
    records: list[Record]
    loop_s: float
    peak_rss: float
    file_sizes: list[int]
    problems: list[str]
    failed: int = 0
    load_s: float = 0.0  # traced run only, like the fields below
    sweep: dict | None = None

    @property
    def stage_errors(self) -> Counter:
        """Failed requests counted by the pipeline stage that raised."""
        return Counter(r.stage for r in self.records if r.stage)


def measure(work: Path, workload: Workload, config, seed: int, seconds: float, tracer) -> Measurement:
    warm_scene = make_scene(workload.size, REFERENCE_SCENE_SEED, config.embed_dim)
    with tracer.installed() if tracer else nullcontext():
        setup = set_up(work, workload, config, warm_scene, tracer)
    problems = setup_problems(workload, config, setup, warm_scene)
    if tracer:  # the decoder sweep runs on the warm-up request's real stride-4 features
        last = setup.last.trace
        features = last.get("early_fused_features", last["vs_agg_features"])
    setup.last = None

    root = Rng(seed)
    scenes = [
        make_scene(workload.size, root.child(i).seed, config.embed_dim) for i in range(workload.pool)
    ]
    records, loop_s = timed_loop(scenes, config, setup.bundle, workload.size, seconds, tracer)
    m = Measurement(
        setup=setup,
        records=records,
        loop_s=loop_s,
        peak_rss=peak_rss_mib(),
        file_sizes=[p.stat().st_size for p in setup.cache.iterdir() if p.is_file()],
        problems=problems,
    )
    for r in records:
        if r.error:
            m.failed += 1
            problems.append(f"request {r.index}: {r.error}")

    if tracer:
        with tracer.installed():
            tracer.request = -100
            t0 = time.perf_counter()
            loaded = weights.load_or_build_weights(setup.cache, config, (workload.size,) * 2)
            m.load_s = time.perf_counter() - t0
        built, reloaded = setup.bundle.to_tensors(), loaded.to_tensors()
        if built.keys() != reloaded.keys() or not all(
            np.array_equal(built[k], reloaded[k]) for k in built
        ):
            problems.append("reloaded weights differ from the built bundle")
        m.sweep = decoder_layer_sweep(features, config, setup.bundle)
        missing = tracer.missing_spans(config.fusion)
        if missing:
            raise BenchError(f"expected spans never fired for fusion {config.fusion}: {missing}")
    return m


def run(workload_name: str, seed: int, seconds: float, trace: bool, import_s: float, threads: int):
    """Run one workload; returns (report lines, result object for the last line)."""
    if workload_name not in WORKLOADS:
        raise BenchError(f"unknown workload {workload_name!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[workload_name]
    config = workload.config()
    env = environment(workload, seed, seconds, threads)
    tracer = Tracer() if trace else None
    with work_dir() as work:
        m = measure(work, workload, config, seed, seconds, tracer)

    latencies = [r.latency for r in m.records if not r.error]
    if not latencies:
        raise BenchError(f"no request completed; first error: {m.records[0].error}")
    attempted = len(m.records)
    lines = [f"env {json.dumps(env)}"]
    lines += [f"problem {p}" for p in m.problems[:20]]
    if m.stage_errors:
        lines.append(f"stage errors {json.dumps(dict(m.stage_errors))}")
    if tracer:
        metrics, aggregator_share = per_layer_metrics(
            tracer, m, config, workload.size, len(CLASS_NAMES)
        )
        sweep = m.sweep
        lines += [
            f"traced requests {sum(r.traced for r in m.records)} of {attempted}; "
            f"aggregator self time {aggregator_share:.1%} of forward",
            f"decoder layer on {sweep['grid']} stride-4 features: "
            f"dda {sweep['dda_ms']:.3f} ms / {sweep['dda_macs']} MAC, "
            f"ca {sweep['ca_ms']:.3f} ms / {sweep['ca_macs']} MAC",
            "classifier.macs includes the second backbone pass in _clip_final_features",
            "assembly.upsampled_mpx counts the arrays bilinear_upsample returns inside "
            "assemble_panoptic; assembly.winning_share is the segments it returns over the "
            "masks it upsamples (stuff masks of one class merge into one segment)",
            "assembly.bytes_computed_mb is the peak allocation inside assemble_panoptic "
            "(tracemalloc, numpy buffers included); weights.bytes_written_mb sums file sizes",
            "span calls " + json.dumps(dict(sorted(tracer.calls().items()))),
        ]
    else:
        tail, tail_pct, beyond = latency_tail(latencies)
        metrics = {
            "images_per_s": len(latencies) / m.loop_s,
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_tail_ms": tail * 1e3,
            "peak_rss_mb": m.peak_rss,
            "setup_s": import_s + statistics.median(m.setup.seconds),
        }
        lines += [
            f"closed loop, 1 client: {attempted} requests in {m.loop_s:.2f} s at "
            f"{workload.size}x{workload.size}, fusion {workload.fusion}; "
            f"latency_tail_ms is p{tail_pct:.1f} with {beyond} samples beyond it",
            f"setup_s = import {import_s:.3f} s + median of {SETUP_REPS} cold set-ups "
            + ", ".join(f"{s:.3f}" for s in m.setup.seconds),
        ]
    units = declared_units(trace)
    if metrics.keys() != units.keys():
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(metrics.keys() ^ units.keys())}")
    failed_share = m.failed / attempted
    units["failed_share"] = "ratio"  # reported, not a gated metric: it is 0 on a healthy run
    for name, value in {**metrics, "failed_share": failed_share}.items():
        lines.append(f"  {name:<30} {value:>16.6g} {units[name]}")

    result = {
        "correct": not m.problems,
        "attempted": attempted,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    dump = {
        "env": env,
        "problems": m.problems,
        **result,
        "failed_share": failed_share,
        "latencies_ms": [None if r.error else r.latency * 1e3 for r in m.records],
        "setup_s": m.setup.seconds,
    }
    if tracer:
        dump["decoder_layer_sweep"] = m.sweep
        dump["spans"] = [asdict(s) for s in tracer.spans]
    out_dir = HERE.parent / ".eovbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{workload.name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(dump))
    return lines, result
