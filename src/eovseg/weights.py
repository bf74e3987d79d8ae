"""Weight bundle: seeded generation, the tensor-name table, and the cache-directory format.

All weights are generated from the config seed (independent substreams per
module) so a bundle is reproducible from its config alone.  Serialized form:
one EOVT file per named tensor plus ``manifest.txt`` (name and shape per
line) and ``meta.json`` holding the bundle's ``cache_key``, the one thing a
cache is matched on.  ``_layout`` is the one table of tensor names, each read
by ``forward`` in some fusion mode: ``to_tensors`` reads each name's path out
of a bundle, ``load_weights`` checks the manifest against it and puts each
tensor back, and ``cast_weights`` puts back each tensor cast to a dtype.
"""

from __future__ import annotations

import json
import os
import secrets
import shutil
import typing
from dataclasses import dataclass, is_dataclass
from pathlib import Path

import numpy as np

from .aggregator import IMAGE_MULTIPLE, LEVELS, AggregatorWeights, SyntheticBackbone
from .config import ModelConfig
from .decoder import MASK_MLP_DEPTH, DecoderWeights
from .fusion import EafWeights, SdiWeights, TdeeWeights
from .spatial import PATCH, UpsamplerWeights, VitBlockWeights
from .tensor import EovtFormatError, Rng, read_eovt, read_text, write_eovt
from .vas import VasWeights

# Bump whenever any *.build / build_weights draw changes (order, shape, std,
# seed stream) or ``_layout`` gains or loses a name, so caches written by an
# older generator are rebuilt.
GENERATOR_VERSION = 3

# ModelConfig fields that no weight draw, tensor name or bundle setting reads.
# The cache key leaves out only these, so a field added later is keyed until
# it is shown not to touch the weights.
HEAD_FIELDS = ("fusion", "alpha", "beta", "tau", "ensemble_method", "score_floor")


def cache_key(config: ModelConfig, vit_tokens: int) -> str:
    """Hash of every generator input: the config with ``HEAD_FIELDS`` blanked,
    the ViT token count (the image size reaches the weights only through it:
    ``pos_table`` rows, then every later ViT draw) and ``GENERATOR_VERSION``."""
    return config.hash({**dict.fromkeys(HEAD_FIELDS), "vit_tokens": vit_tokens,
                        "generator_version": GENERATOR_VERSION})


@dataclass
class WeightBundle:
    config: ModelConfig
    backbone: SyntheticBackbone
    aggregator: AggregatorWeights
    vas: VasWeights
    decoder: DecoderWeights
    vit: VitBlockWeights
    upsampler: UpsamplerWeights
    tdee: TdeeWeights
    sdi: SdiWeights
    eaf: EafWeights
    clip_proj: tuple[np.ndarray, np.ndarray]  # last backbone stage -> embed width

    def to_tensors(self) -> dict[str, np.ndarray]:
        """On-disk name -> tensor."""
        tensors = {}
        for name, path in _layout(self.config).items():
            value = self
            for key in path:
                value = getattr(value, key) if isinstance(key, str) else value[key]
            tensors[name] = value
        return tensors


def _layout(config: ModelConfig) -> dict[str, tuple]:
    """Every on-disk tensor name -> its path into a ``WeightBundle``.

    This is the only place a tensor name is spelled.  A path step that is a
    string is an attribute name; an integer is a dict key or a list/tuple
    index.  By default the last step is the name with dots made underscores.
    """
    table: dict[str, tuple] = {}

    def put(prefix: str, path: tuple, names: tuple, last: tuple | None = None) -> None:
        for name, key in zip(names, last or [n.replace(".", "_") for n in names]):
            table[f"{prefix}.{name}"] = (*path, key)

    wb, gb, pair, attn = ("w", "b"), ("g", "b"), (0, 1), ("wq", "wk", "wv", "wo")
    for lv in LEVELS:
        put(f"backbone.stage{lv}", ("backbone", "projections", lv), wb, pair)
        put(f"aggregator.lateral{lv}", ("aggregator", "laterals", lv), wb, pair)
        put(f"aggregator.smooth{lv}", ("aggregator", "smooths", lv), wb, pair)
        table[f"aggregator.proj{lv}.w"] = ("aggregator", "level_proj", lv)
    put("aggregator.fuse", ("aggregator", "fuse"), wb, pair)
    put("vas", ("vas",), ("feat_depth", "feat_point", "feat_bias", "text_w", "text_b"))
    for i in range(config.decoder_layers):
        p, layer = f"decoder.layer{i}", ("decoder", "layers", i)
        put(p, layer, ("kernel_proj", "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2"))
        put(f"{p}.self_attn", (*layer, "self_attn"), attn)
        for tag in ("ln_attn", "ln_ffn"):
            put(f"{p}.{tag}", (*layer, tag), gb, pair)
    for i in range(MASK_MLP_DEPTH):
        put(f"decoder.mask_mlp{i}", ("decoder", "mask_mlp", i), wb, pair)
    table["decoder.init_kernels"] = ("decoder", "init_kernels")
    put("spatial", ("vit",), ("patch.w", "patch.b", "class_token", "pos_table",
                              "mlp.w1", "mlp.b1", "mlp.w2", "mlp.b2"))
    for tag in ("ln_attn", "ln_mlp"):
        put(f"spatial.{tag}", ("vit", tag), gb, pair)
    put("spatial.attn", ("vit", "attn"), attn)
    put("spatial", ("upsampler",), ("up1.w", "up1.b", "up2.w", "up2.b"), ("w1", "b1", "w2", "b2"))
    put("fusion.tdee", ("tdee",), ("proj_m", "proj_s", "router_m.w", "router_m.b",
                                   "router_s.w", "router_s.b", "out.w", "out.b"))
    for tag in ("ln_fuse_m", "ln_fuse_s", "ln_gate_m", "ln_gate_s", "ln_out"):
        put(f"fusion.tdee.{tag}", ("tdee", tag), gb, pair)
    put("fusion.sdi", ("sdi",), ("gen_kernel.w", "gen_kernel.b", "gen_left.w", "gen_left.b",
                                 "gen_right.w", "gen_right.b"))
    put("fusion.eaf", ("eaf",), wb)
    put("classifier.clip_proj", ("clip_proj",), wb, pair)
    return table


def _settings(config: ModelConfig) -> dict[tuple, object]:
    """Path -> value of every bundle field that is not stored as a tensor."""
    settings: dict[tuple, object] = {
        ("config",): config,
        ("vas", "heads"): config.vas_heads,
        ("vit", "attn", "heads"): config.vit_heads,
    }
    for i in range(config.decoder_layers):
        settings[("decoder", "layers", i, "self_attn", "heads")] = config.decoder_heads
    return settings


def _construct(tp, node):
    """Build a value of annotation ``tp`` from a path-tree node (a dict); leaves pass through."""
    if not isinstance(node, dict):
        return node
    if is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        return tp(**{key: _construct(hints[key], child) for key, child in node.items()})
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is dict:
        return {key: _construct(args[1], child) for key, child in node.items()}
    items = [_construct(args[0] if origin is list else args[i], node[i]) for i in range(len(node))]
    return items if origin is list else tuple(items)


def _assemble(config: ModelConfig, tensors: dict[str, np.ndarray]) -> WeightBundle:
    """The bundle holding each ``_layout(config)`` name's tensor at its path."""
    items = [(path, tensors[name]) for name, path in _layout(config).items()]
    root: dict = {}
    for path, value in [*items, *_settings(config).items()]:
        node = root
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value
    return _construct(WeightBundle, root)


def cast_weights(bundle: WeightBundle, dtype) -> WeightBundle:
    """The bundle with every tensor cast to ``dtype``, for a forward in that dtype."""
    return _assemble(bundle.config, {n: t.astype(dtype) for n, t in bundle.to_tensors().items()})


def _vit_grid(image_hw: tuple[int, int]) -> tuple[int, int]:
    h, w = image_hw
    if h % IMAGE_MULTIPLE or w % IMAGE_MULTIPLE:
        raise ValueError(f"build_weights: image extents {h}x{w} must be divisible by {IMAGE_MULTIPLE}")
    return h // PATCH, w // PATCH


def build_weights(config: ModelConfig, image_hw: tuple[int, int]) -> WeightBundle:
    grid_hw = _vit_grid(image_hw)
    root = Rng(config.weights_seed)
    seeds = {name: root.child(i).seed for i, name in enumerate(
        ["backbone", "aggregator", "vas", "decoder", "vit", "upsampler", "tdee", "sdi", "eaf", "clip"]
    )}
    d = config.embed_dim
    backbone = SyntheticBackbone.build(seeds["backbone"], config.backbone_widths)
    clip_rng = Rng(seeds["clip"])
    c5 = config.backbone_widths[-1]
    clip_proj = (
        clip_rng.normal((d, c5), std=1.0 / np.sqrt(c5)),
        clip_rng.normal((d,), std=0.02),
    )
    return WeightBundle(
        config=config,
        backbone=backbone,
        aggregator=AggregatorWeights.build(seeds["aggregator"], d, config.backbone_widths),
        vas=VasWeights.build(seeds["vas"], d, config.vas_heads),
        decoder=DecoderWeights.build(
            seeds["decoder"],
            d,
            config.n_queries,
            config.decoder_layers,
            config.dda_kernel_size,
            config.decoder_heads,
            config.ffn_expansion,
        ),
        vit=VitBlockWeights.build(seeds["vit"], config.vit_dim, config.vit_heads, grid_hw),
        upsampler=UpsamplerWeights.build(seeds["upsampler"], config.vit_dim, d),
        tdee=TdeeWeights.build(seeds["tdee"], d, config.tdee_dim),
        sdi=SdiWeights.build(seeds["sdi"], d, config.sdi_kernel_size, config.sdi_rank),
        eaf=EafWeights.build(seeds["eaf"], d, config.vit_dim),
        clip_proj=clip_proj,
    )


def _is_cache_file(path: Path) -> bool:
    return path.is_file() and (path.suffix == ".eovt" or path.name in ("manifest.txt", "meta.json"))


def save_weights(bundle: WeightBundle, directory: str | Path) -> None:
    """Write the bundle into a sibling temp directory, then rename it into place.

    A reader sees the previous directory or the complete new one, never a
    half-written cache; a failed save leaves the target as it was.  An
    existing target is replaced only if it holds nothing but cache files.
    """
    directory = Path(directory)
    directory.parent.mkdir(parents=True, exist_ok=True)
    tmp = directory.with_name(f".{directory.name}.tmp-{os.getpid()}-{secrets.token_hex(4)}")
    tmp.mkdir()
    try:
        tensors = bundle.to_tensors()
        lines = []
        for name in sorted(tensors):
            arr = tensors[name]
            write_eovt(tmp / f"{name}.eovt", arr)
            lines.append(f"{name} {'x'.join(str(e) for e in arr.shape)}")
        (tmp / "manifest.txt").write_text("\n".join(lines) + "\n")
        meta = {"weights_key": cache_key(bundle.config, len(bundle.vit.pos_table))}
        (tmp / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
        _swap_into_place(tmp, directory)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _swap_into_place(tmp: Path, directory: Path) -> None:
    old = None
    if directory.is_dir() and any(directory.iterdir()):
        stray = [p.name for p in directory.iterdir() if not _is_cache_file(p)]
        if stray:
            raise FileExistsError(
                f"save_weights: {directory} holds {stray[0]!r}, not a weight cache; not replacing it"
            )
        old = tmp.with_name(tmp.name + ".old")
        os.rename(directory, old)
    try:
        os.rename(tmp, directory)  # onto a missing or empty directory
    except OSError:
        if old is not None:
            os.rename(old, directory)  # put the previous cache back
            raise
        if not (directory / "meta.json").is_file():
            raise
        # otherwise a concurrent save finished first and its cache stands
    if old is not None:
        shutil.rmtree(old, ignore_errors=True)


def read_manifest(directory: str | Path) -> dict[str, tuple[int, ...]]:
    path = Path(directory) / "manifest.txt"
    if not path.exists():
        raise FileNotFoundError(f"weights manifest missing: {path}")
    entries: dict[str, tuple[int, ...]] = {}
    for line in read_text(path).splitlines():
        if not line.strip():
            continue
        try:
            name, shape = line.split()
            entries[name] = tuple(int(e) for e in shape.split("x"))
        except ValueError:
            raise EovtFormatError(f"{path}: malformed line {line!r}") from None
    return entries


def _stored_key(directory: Path) -> object:
    """The ``weights_key`` of a cache's meta.json; None if the object holds none."""
    try:
        meta = json.loads((directory / "meta.json").read_text())
        if not isinstance(meta, dict):
            raise ValueError(f"a JSON {type(meta).__name__}, not an object")
    except ValueError as exc:
        raise EovtFormatError(
            f"weight cache {directory}: meta.json is unreadable ({exc!r})"
        ) from None
    return meta.get("weights_key")


def load_weights(directory: str | Path, config: ModelConfig) -> WeightBundle:
    """Load a cache whose manifest names exactly the tensors ``_layout(config)`` lists."""
    directory = Path(directory)
    entries = read_manifest(directory)
    layout = _layout(config)
    missing, unexpected = sorted(layout.keys() - entries), sorted(entries.keys() - layout)
    if missing or unexpected:
        found = [f"{what} tensors {names}" for what, names in
                 (("missing", missing), ("unexpected", unexpected)) if names]
        raise EovtFormatError(
            f"weight cache {directory} does not match the config: {'; '.join(found)}"
        )
    tensors = {}
    for name in layout:
        arr = read_eovt(directory / f"{name}.eovt")
        if arr.shape != entries[name]:
            raise EovtFormatError(
                f"{directory / name}.eovt has shape {arr.shape}, manifest says {entries[name]}"
            )
        tensors[name] = arr
    return _assemble(config, tensors)


def load_or_build_weights(
    directory: str | Path, config: ModelConfig, image_hw: tuple[int, int]
) -> WeightBundle:
    """Reuse a cached bundle iff its key is the key of the bundle ``build_weights`` would make."""
    directory = Path(directory)
    gh, gw = _vit_grid(image_hw)
    key = cache_key(config, 1 + gh * gw)
    if (directory / "meta.json").exists() and _stored_key(directory) == key:
        return load_weights(directory, config)
    bundle = build_weights(config, image_hw)
    save_weights(bundle, directory)
    return bundle
