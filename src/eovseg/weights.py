"""Weight bundle: seeded generation, the tensor-name table, and the weight-cache file.

All weights are generated from the config seed (independent substreams per
module) so a bundle is reproducible from its config alone.  A cache is one
file, ``WEIGHTS_FILE`` in the cache directory: a JSON header holding the
bundle's ``cache_key`` (the one thing a cache is matched on) and each
tensor's shape, payload offset and crc32 (over its extents, then its
payload), then the float32 payload.
``_layout`` is the one table of tensor names, each read by ``forward`` in
some fusion mode: ``to_tensors`` reads each name's path out of a bundle,
``load_weights`` checks the header against it and puts each tensor back,
and ``cast_weights`` puts back each tensor cast to a dtype.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
import typing
import zlib
from dataclasses import dataclass, is_dataclass
from pathlib import Path

import numpy as np

from .aggregator import IMAGE_MULTIPLE, LEVELS, AggregatorWeights, SyntheticBackbone
from .config import ModelConfig
from .decoder import MASK_MLP_DEPTH, DecoderWeights
from .fusion import EafWeights, SdiWeights, TdeeWeights
from .spatial import PATCH, UpsamplerWeights, VitBlockWeights
from .tensor import MAX_RANK, EovtFormatError, Rng, check_tensor
from .vas import VasWeights

# Bump whenever any *.build / build_weights draw changes (order, shape, std,
# seed stream) or a stored layout changes, ``_layout`` gains or loses a name
# or the file's checksum rule changes, so caches written by an older generator
# are rebuilt, not refused.
GENERATOR_VERSION = 5

# ModelConfig fields that no weight draw, tensor name or bundle setting reads.
# The cache key leaves out only these, so a field added later is keyed until
# it is shown not to touch the weights.
HEAD_FIELDS = ("fusion",)

# The cache file in a cache directory: WEIGHTS_MAGIC, the u64-LE byte length
# of a UTF-8 JSON header, the header, then the payload.
WEIGHTS_FILE = "weights.eovw"
WEIGHTS_MAGIC = b"EOVW0001"
_PREFIX = len(WEIGHTS_MAGIC) + 8


def _crc32(shape, payload) -> int:
    """crc32 over a tensor's extents (u64-LE each), then its payload bytes, so a
    header that permutes the extents fails the check as a damaged payload does."""
    return zlib.crc32(payload, zlib.crc32(struct.pack(f"<{len(shape)}Q", *shape)))


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
    clip_proj: tuple[np.ndarray, np.ndarray]  # 1x1 (C5, D): last backbone stage -> embed width

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
        clip_rng.normal((d, c5), std=1.0 / np.sqrt(c5)).T.copy(),
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
            config.decoder_heads,
            config.ffn_expansion,
        ),
        vit=VitBlockWeights.build(seeds["vit"], config.vit_dim, config.vit_heads, grid_hw),
        upsampler=UpsamplerWeights.build(seeds["upsampler"], config.vit_dim, d),
        tdee=TdeeWeights.build(seeds["tdee"], d, config.tdee_dim),
        sdi=SdiWeights.build(seeds["sdi"], d, config.sdi_rank),
        eaf=EafWeights.build(seeds["eaf"], d, config.vit_dim),
        clip_proj=clip_proj,
    )


def save_weights(bundle: WeightBundle, directory: str | Path) -> None:
    """Write the bundle to a temp file in ``directory``, then ``os.replace`` it onto
    ``WEIGHTS_FILE``: a reader sees the previous file or the complete new one,
    and a failed save leaves the previous file as it was."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    tensors = {name: check_tensor(t).astype("<f4", copy=False)
               for name, t in bundle.to_tensors().items()}
    entries, offset = {}, 0
    for name, arr in tensors.items():
        entries[name] = {"shape": list(arr.shape), "offset": offset, "crc32": _crc32(arr.shape, arr)}
        offset += arr.nbytes
    key = cache_key(bundle.config, len(bundle.vit.pos_table))
    header = json.dumps({"weights_key": key, "tensors": entries}).encode()
    header += b" " * (-(_PREFIX + len(header)) % 4)  # the payload starts 4-byte aligned
    fd, tmp = tempfile.mkstemp(prefix=f".{WEIGHTS_FILE}.", suffix=".tmp", dir=directory)
    try:
        with open(fd, "wb") as f:
            f.write(WEIGHTS_MAGIC + struct.pack("<Q", len(header)) + header)
            for arr in tensors.values():
                f.write(arr)
        os.replace(tmp, directory / WEIGHTS_FILE)
    finally:
        Path(tmp).unlink(missing_ok=True)


def _read_header(path: Path, f: typing.BinaryIO) -> dict:
    """The JSON header of the weight file ``f``, left positioned at the payload."""
    prefix = f.read(_PREFIX)
    if len(prefix) < _PREFIX or prefix[: len(WEIGHTS_MAGIC)] != WEIGHTS_MAGIC:
        raise EovtFormatError(f"{path}: bad magic, not an eovseg weight file")
    size = int.from_bytes(prefix[len(WEIGHTS_MAGIC):], "little")
    if _PREFIX + size > os.fstat(f.fileno()).st_size:
        raise EovtFormatError(f"{path}: truncated header")
    try:
        header = json.loads(f.read(size).decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
        raise EovtFormatError(f"{path}: header is not UTF-8 JSON ({exc})") from None
    if not isinstance(header, dict) or not isinstance(header.get("tensors"), dict):
        raise EovtFormatError(f"{path}: header is not a JSON object with a tensors table")
    return header


def load_weights(directory: str | Path, config: ModelConfig) -> WeightBundle:
    """Load a weight file that holds exactly the tensors ``_layout(config)`` lists.

    Each tensor is read on its own (no 30 MiB buffer is ever joined), checked
    against its crc32 and returned as a read-only view of the bytes read.
    """
    path = Path(directory) / WEIGHTS_FILE
    layout, tensors, offset = _layout(config), {}, 0
    with open(path, "rb") as f:
        entries = _read_header(path, f)["tensors"]
        missing, unexpected = sorted(layout.keys() - entries), sorted(entries.keys() - layout)
        if missing or unexpected:
            found = [f"{what} tensors {names}" for what, names in
                     (("missing", missing), ("unexpected", unexpected)) if names]
            raise EovtFormatError(
                f"weight cache {path} does not match the config: {'; '.join(found)}")
        payload_size = os.fstat(f.fileno()).st_size - f.tell()
        for name in layout:
            entry = entries[name]
            shape = entry.get("shape") if isinstance(entry, dict) else None
            if not (isinstance(shape, list) and 1 <= len(shape) <= MAX_RANK
                    and all(type(e) is int and e >= 1 for e in shape)
                    and entry.get("offset") == offset):
                raise EovtFormatError(f"{path}: tensor {name!r} has a malformed header entry")
            nbytes = 4 * math.prod(shape)
            if offset + nbytes > payload_size:
                raise EovtFormatError(f"{path}: tensor {name!r} runs past the end of the file")
            data = f.read(nbytes)
            if _crc32(shape, data) != entry.get("crc32"):
                raise EovtFormatError(f"{path}: tensor {name!r} fails its crc32 check")
            tensors[name] = np.frombuffer(data, "<f4").reshape(shape)
            offset += nbytes
    if offset != payload_size:
        raise EovtFormatError(f"{path}: {payload_size - offset} bytes after the last tensor")
    return _assemble(config, tensors)


def load_or_build_weights(
    directory: str | Path, config: ModelConfig, image_hw: tuple[int, int]
) -> WeightBundle:
    """Reuse a cached bundle iff its key is the key of the bundle ``build_weights``
    would make; a missing file or another key is built and saved once."""
    path = Path(directory) / WEIGHTS_FILE
    gh, gw = _vit_grid(image_hw)
    if path.is_file():
        with open(path, "rb") as f:
            stored = _read_header(path, f).get("weights_key")
        if stored == cache_key(config, 1 + gh * gw):
            return load_weights(directory, config)
    bundle = build_weights(config, image_hw)
    save_weights(bundle, directory)
    return bundle
