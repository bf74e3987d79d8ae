"""Span recording around the engine's layer calls, for the traced benchmark run.

The engine's modules bind their dependencies with ``from .x import y``, so a
function is looked up in the module that calls it, not the one that defines
it.  ``Tracer.installed`` therefore replaces each name in the caller's
namespace (``eovseg.pipeline`` for the stages, ``eovseg.decoder`` for the
decoder internals, ``eovseg.weights`` for build/save/load) and restores the
originals on exit.  ``missing_spans`` lets the run fail when a layer it
expects never reported, so a later refactor that rebinds a name cannot make
that layer read as 0 ms.

Some spans also count the work of the call itself (``COUNTERS``: sizes of
what it returns; ``ALLOC_PEAK``: its peak allocation as tracemalloc sees it,
numpy buffers included), summed per request in ``Tracer.counts``.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

# (module where the name is looked up, attribute, span name)
SPAN_TABLE = (
    ("eovseg.pipeline", "extract_features", "aggregator.backbone"),
    ("eovseg.pipeline", "build_pyramid", "aggregator.pyramid"),
    ("eovseg.pipeline", "aggregate", "aggregator.aggregate"),
    ("eovseg.pipeline", "vas_forward_detailed", "vas"),
    ("eovseg.pipeline", "vit_block_features", "spatial.vit"),
    ("eovseg.pipeline", "spatial_features", "spatial.upsample"),
    ("eovseg.pipeline", "spatial_embeddings", "spatial.pool"),
    ("eovseg.pipeline", "bilinear_upsample", "fusion.upsample"),
    ("eovseg.pipeline", "eaf", "fusion"),
    ("eovseg.pipeline", "sdi", "fusion"),
    ("eovseg.pipeline", "tdee", "fusion"),
    ("eovseg.pipeline", "decoder_forward", "decoder"),
    ("eovseg.pipeline", "in_vocab_scores", "classifier.scores"),
    ("eovseg.pipeline", "out_vocab_scores", "classifier.scores"),
    ("eovseg.pipeline", "ensemble", "classifier.scores"),
    ("eovseg.pipeline", "classify", "classifier.scores"),
    ("eovseg.pipeline", "_clip_final_features", "classifier.clip_features"),
    ("eovseg.pipeline", "assemble_panoptic", "assembly"),
    # not in EXPECTED: an assembly that upsamples nothing reports 0 Mpx, which is true
    ("eovseg.evaluation", "bilinear_upsample", "assembly.upsample"),
    ("eovseg.decoder", "initial_attention", "decoder.init_attn"),
    ("eovseg.decoder", "dda", "decoder.dda"),
    ("eovseg.decoder", "refine_kernels", "decoder.refine"),
    ("eovseg.decoder", "mask_kernels", "decoder.mask_mlp"),
    ("eovseg.decoder", "predict_masks", "decoder.predict"),
    ("eovseg.decoder", "mask_pool", "decoder.pool"),
    ("eovseg.classifier", "build_text_embeddings", "classifier.text"),
    ("eovseg.weights", "build_weights", "weights.build"),
    ("eovseg.weights", "save_weights", "weights.save"),
    ("eovseg.weights", "load_weights", "weights.load"),
)

# The out-of-vocabulary features rerun the backbone and an upsample through
# pipeline-level names; that work belongs to the classifier, so no spans are
# opened beneath this one.
OPAQUE = frozenset({"classifier.clip_features"})

_ALWAYS = frozenset(
    {
        "aggregator.backbone",
        "aggregator.pyramid",
        "aggregator.aggregate",
        "vas",
        "decoder",
        "decoder.init_attn",
        "decoder.dda",
        "decoder.refine",
        "decoder.mask_mlp",
        "decoder.predict",
        "decoder.pool",
        "classifier.text",
        "classifier.clip_features",
        "classifier.scores",
        "assembly",
        "weights.build",
        "weights.save",
        "weights.load",
    }
)

# span name -> counts taken from the value the call returned
COUNTERS = {
    "assembly": lambda out: {"assembly.segments": len(out.segments)},
    "assembly.upsample": lambda out: {
        "assembly.upsampled_masks": out.shape[0],
        "assembly.upsampled_px": out.size,
    },
}

# spans whose peak allocation is measured, counted as "<name>.alloc_peak_bytes"
ALLOC_PEAK = frozenset({"assembly"})

# span names each fusion mode must produce in a traced run
EXPECTED = {
    "none": _ALWAYS,
    "eaf": _ALWAYS | {"spatial.vit", "fusion.upsample", "fusion"},
    "sdi": _ALWAYS | {"spatial.vit", "spatial.upsample", "spatial.pool", "fusion"},
    "tdee": _ALWAYS | {"spatial.vit", "spatial.upsample", "spatial.pool", "fusion"},
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float | None
    parent: int | None
    request: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; ``request`` tags every span opened after it is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = -1
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self._open: list[Span] = []
        self._opaque = 0

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1].id if self._open else None
        s = Span(len(self.spans), name, time.perf_counter(), None, parent, self.request)
        self.spans.append(s)
        self._open.append(s)
        opaque = name in OPAQUE
        self._opaque += opaque
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()
            self._opaque -= opaque

    def _wrap(self, fn, name: str):
        count = COUNTERS.get(name)
        alloc = name in ALLOC_PEAK

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._opaque:
                return fn(*args, **kwargs)
            if alloc:  # started outside the span so its own cost is not timed
                tracemalloc.start()
            try:
                with self.span(name):
                    out = fn(*args, **kwargs)
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    self.counts[self.request][f"{name}.alloc_peak_bytes"] += peak
            finally:
                if alloc:
                    tracemalloc.stop()
            if count:
                self.counts[self.request].update(count(out))
            return out

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every name in SPAN_TABLE; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, name in SPAN_TABLE:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the part its child spans cover."""
        covered: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.duration
        return {s.id: s.duration - covered[s.id] for s in self.spans}

    def by_request(self, key) -> dict[int, dict[str, float]]:
        """request -> span name -> summed key(span) over that request's spans."""
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            out[s.request][s.name] += key(s)
        return out

    def calls(self) -> Counter:
        return Counter(s.name for s in self.spans)

    def missing_spans(self, fusion: str) -> list[str]:
        return sorted(EXPECTED[fusion] - {s.name for s in self.spans})
