"""Weight bundle: seeded generation, the tensor-name table, and the cache-directory format.

All weights are generated from the config seed (independent substreams per
module) so a bundle is reproducible from its config alone.  Serialized form:
one EOVT file per named tensor plus ``manifest.txt`` (name and shape per
line) and ``meta.json`` recording the config hash, image extents and
generator version the bundle was made with.  ``_layout`` is the one table of
tensor names: ``to_tensors`` reads each name's path out of a bundle, and
``load_weights`` checks the manifest against it and puts each tensor back.
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

from .aggregator import LEVELS, AggregatorWeights, SyntheticBackbone
from .config import ModelConfig
from .decoder import MASK_MLP_DEPTH, DecoderWeights
from .fusion import EafWeights, SdiWeights, TdeeWeights
from .spatial import PATCH, UpsamplerWeights, VitBlockWeights
from .tensor import EovtFormatError, Rng, read_eovt, write_eovt
from .vas import VasWeights

# Bump whenever any *.build / build_weights draw changes (order, shape, std,
# seed stream), so caches written by an older generator are rebuilt.
GENERATOR_VERSION = 1


@dataclass
class WeightBundle:
    config: ModelConfig
    image_hw: tuple[int, int]
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
        """On-disk name -> tensor; float fields become shape-(1,) float32 arrays."""
        tensors = {}
        for name, path in _layout(self.config).items():
            value = self
            for key in path:
                value = getattr(value, key) if isinstance(key, str) else value[key]
            if not isinstance(value, np.ndarray):
                value = np.array([value], dtype=np.float32)
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
    put("vas", ("vas",),
        ("feat_depth", "feat_point", "feat_bias", "text_w", "text_b", "scale", "offset"))
    for i in range(config.decoder_layers):
        p, layer = f"decoder.layer{i}", ("decoder", "layers", i)
        put(p, layer, ("kernel_proj", "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2"))
        for tag in ("cross_attn", "self_attn"):
            put(f"{p}.{tag}", (*layer, tag), attn)
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


def _settings(config: ModelConfig, image_hw: tuple[int, int]) -> dict[tuple, object]:
    """Path -> value of every bundle field that is not stored as a tensor."""
    settings: dict[tuple, object] = {
        ("config",): config,
        ("image_hw",): image_hw,
        ("vas", "heads"): config.vas_heads,
        ("vit", "attn", "heads"): config.vit_heads,
    }
    for i in range(config.decoder_layers):
        for tag in ("cross_attn", "self_attn"):
            settings[("decoder", "layers", i, tag, "heads")] = config.decoder_heads
    return settings


def _construct(tp, node):
    """Build a value of annotation ``tp`` from a path-tree node (a dict); leaves pass through."""
    if not isinstance(node, dict):
        return float(node[0]) if tp is float else node
    if is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        return tp(**{key: _construct(hints[key], child) for key, child in node.items()})
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is dict:
        return {key: _construct(args[1], child) for key, child in node.items()}
    items = [_construct(args[0] if origin is list else args[i], node[i]) for i in range(len(node))]
    return items if origin is list else tuple(items)


def build_weights(config: ModelConfig, image_hw: tuple[int, int]) -> WeightBundle:
    h, w = image_hw
    if h % 32 or w % 32:
        raise ValueError(f"build_weights: image extents {h}x{w} must be divisible by 32")
    root = Rng(config.weights_seed)
    seeds = {name: root.child(i).seed for i, name in enumerate(
        ["backbone", "aggregator", "vas", "decoder", "vit", "upsampler", "tdee", "sdi", "eaf", "clip"]
    )}
    d = config.embed_dim
    backbone = SyntheticBackbone.build(seeds["backbone"], config.backbone_widths)
    grid_hw = (h // PATCH, w // PATCH)
    clip_rng = Rng(seeds["clip"])
    c5 = config.backbone_widths[-1]
    clip_proj = (
        clip_rng.normal((d, c5), std=1.0 / np.sqrt(c5)),
        clip_rng.normal((d,), std=0.02),
    )
    return WeightBundle(
        config=config,
        image_hw=(h, w),
        backbone=backbone,
        aggregator=AggregatorWeights.build(seeds["aggregator"], d, config.backbone_widths),
        vas=VasWeights.build(
            seeds["vas"], d, config.vas_heads, config.vas_scale, config.vas_offset
        ),
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
        meta = {
            "config_hash": bundle.config.hash(),
            "image_h": bundle.image_hw[0],
            "image_w": bundle.image_hw[1],
            "generator_version": GENERATOR_VERSION,
        }
        (tmp / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
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
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        try:
            name, shape = line.split()
            entries[name] = tuple(int(e) for e in shape.split("x"))
        except ValueError:
            raise EovtFormatError(f"{path}: malformed line {line!r}") from None
    return entries


def _read_meta(directory: Path) -> dict:
    path = directory / "meta.json"
    try:
        meta = json.loads(path.read_text())
        int(meta["image_h"]), int(meta["image_w"])  # both extents must be there
    except (ValueError, TypeError, KeyError) as exc:
        raise EovtFormatError(
            f"weight cache {directory}: meta.json is unreadable ({exc!r})"
        ) from None
    return meta


def load_weights(directory: str | Path, config: ModelConfig) -> WeightBundle:
    """Load a cache whose manifest names exactly the tensors ``_layout(config)`` lists."""
    directory = Path(directory)
    entries = read_manifest(directory)
    meta = _read_meta(directory)
    layout = _layout(config)
    missing, unexpected = sorted(layout.keys() - entries), sorted(entries.keys() - layout)
    if missing or unexpected:
        found = [f"{what} tensors {names}" for what, names in
                 (("missing", missing), ("unexpected", unexpected)) if names]
        raise EovtFormatError(
            f"weight cache {directory} does not match the config: {'; '.join(found)}"
        )
    items = []
    for name, path in layout.items():
        arr = read_eovt(directory / f"{name}.eovt")
        if arr.shape != entries[name]:
            raise EovtFormatError(
                f"{directory / name}.eovt has shape {arr.shape}, manifest says {entries[name]}"
            )
        items.append((path, arr))
    items += _settings(config, (meta["image_h"], meta["image_w"])).items()
    root: dict = {}
    for path, value in items:
        node = root
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value
    return _construct(WeightBundle, root)


def load_or_build_weights(
    directory: str | Path, config: ModelConfig, image_hw: tuple[int, int]
) -> WeightBundle:
    """Reuse a cached bundle when config hash, image extents and generator version match."""
    directory = Path(directory)
    if (directory / "meta.json").exists():
        meta = _read_meta(directory)
        if (
            meta.get("config_hash") == config.hash()
            and (meta["image_h"], meta["image_w"]) == tuple(image_hw)
            and meta.get("generator_version") == GENERATOR_VERSION
        ):
            return load_weights(directory, config)
    bundle = build_weights(config, image_hw)
    save_weights(bundle, directory)
    return bundle
