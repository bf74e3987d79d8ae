"""Weight bundle: seeded generation, flattening, and the manifest-directory format.

All weights are generated from the config seed (independent substreams per
module) so a bundle is reproducible from its config alone.  Serialized form:
one EOVT file per named tensor plus ``manifest.txt`` (name and shape per
line) and ``meta.json`` recording the config hash and image extents the
bundle was sized for.
"""

from __future__ import annotations

import json
import os
import secrets
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .aggregator import AggregatorWeights, SyntheticBackbone
from .config import ModelConfig
from .decoder import AttentionBlockWeights, DecoderLayerWeights, DecoderWeights
from .fusion import EafWeights, SdiWeights, TdeeWeights
from .spatial import PATCH, UpsamplerWeights, VitBlockWeights
from .tensor import Rng, read_eovt, write_eovt
from .vas import VasWeights


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
        t: dict[str, np.ndarray] = {}
        for level, (w, b) in self.backbone.projections.items():
            t[f"backbone.stage{level}.w"] = w
            t[f"backbone.stage{level}.b"] = b
        for level in (2, 3, 4, 5):
            lw, lb = self.aggregator.laterals[level]
            sw, sb = self.aggregator.smooths[level]
            t[f"aggregator.lateral{level}.w"] = lw
            t[f"aggregator.lateral{level}.b"] = lb
            t[f"aggregator.smooth{level}.w"] = sw
            t[f"aggregator.smooth{level}.b"] = sb
            t[f"aggregator.proj{level}.w"] = self.aggregator.level_proj[level]
        t["aggregator.fuse.w"], t["aggregator.fuse.b"] = self.aggregator.fuse
        t["vas.feat_depth"] = self.vas.feat_depth
        t["vas.feat_point"] = self.vas.feat_point
        t["vas.feat_bias"] = self.vas.feat_bias
        t["vas.text_w"] = self.vas.text_w
        t["vas.text_b"] = self.vas.text_b
        t["vas.scale"] = np.array([self.vas.scale], dtype=np.float32)
        t["vas.offset"] = np.array([self.vas.offset], dtype=np.float32)
        for i, layer in enumerate(self.decoder.layers):
            p = f"decoder.layer{i}"
            t[f"{p}.kernel_proj"] = layer.kernel_proj
            for tag, blk in (("cross_attn", layer.cross_attn), ("self_attn", layer.self_attn)):
                t[f"{p}.{tag}.wq"] = blk.wq
                t[f"{p}.{tag}.wk"] = blk.wk
                t[f"{p}.{tag}.wv"] = blk.wv
                t[f"{p}.{tag}.wo"] = blk.wo
            t[f"{p}.ln_attn.g"], t[f"{p}.ln_attn.b"] = layer.ln_attn
            t[f"{p}.ln_ffn.g"], t[f"{p}.ln_ffn.b"] = layer.ln_ffn
            t[f"{p}.ffn.w1"] = layer.ffn_w1
            t[f"{p}.ffn.b1"] = layer.ffn_b1
            t[f"{p}.ffn.w2"] = layer.ffn_w2
            t[f"{p}.ffn.b2"] = layer.ffn_b2
        for i, (w, b) in enumerate(self.decoder.mask_mlp):
            t[f"decoder.mask_mlp{i}.w"] = w
            t[f"decoder.mask_mlp{i}.b"] = b
        t["decoder.init_kernels"] = self.decoder.init_kernels
        t["spatial.patch.w"] = self.vit.patch_w
        t["spatial.patch.b"] = self.vit.patch_b
        t["spatial.class_token"] = self.vit.class_token
        t["spatial.pos_table"] = self.vit.pos_table
        t["spatial.ln_attn.g"], t["spatial.ln_attn.b"] = self.vit.ln_attn
        t["spatial.ln_mlp.g"], t["spatial.ln_mlp.b"] = self.vit.ln_mlp
        t["spatial.attn.wq"] = self.vit.attn.wq
        t["spatial.attn.wk"] = self.vit.attn.wk
        t["spatial.attn.wv"] = self.vit.attn.wv
        t["spatial.attn.wo"] = self.vit.attn.wo
        t["spatial.mlp.w1"] = self.vit.mlp_w1
        t["spatial.mlp.b1"] = self.vit.mlp_b1
        t["spatial.mlp.w2"] = self.vit.mlp_w2
        t["spatial.mlp.b2"] = self.vit.mlp_b2
        t["spatial.up1.w"] = self.upsampler.w1
        t["spatial.up1.b"] = self.upsampler.b1
        t["spatial.up2.w"] = self.upsampler.w2
        t["spatial.up2.b"] = self.upsampler.b2
        t["fusion.tdee.proj_m"] = self.tdee.proj_m
        t["fusion.tdee.proj_s"] = self.tdee.proj_s
        t["fusion.tdee.router_m.w"] = self.tdee.router_m_w
        t["fusion.tdee.router_m.b"] = self.tdee.router_m_b
        t["fusion.tdee.router_s.w"] = self.tdee.router_s_w
        t["fusion.tdee.router_s.b"] = self.tdee.router_s_b
        for tag, pair in (
            ("ln_fuse_m", self.tdee.ln_fuse_m),
            ("ln_fuse_s", self.tdee.ln_fuse_s),
            ("ln_gate_m", self.tdee.ln_gate_m),
            ("ln_gate_s", self.tdee.ln_gate_s),
            ("ln_out", self.tdee.ln_out),
        ):
            t[f"fusion.tdee.{tag}.g"], t[f"fusion.tdee.{tag}.b"] = pair
        t["fusion.tdee.out.w"] = self.tdee.out_w
        t["fusion.tdee.out.b"] = self.tdee.out_b
        t["fusion.sdi.gen_kernel.w"] = self.sdi.gen_kernel_w
        t["fusion.sdi.gen_kernel.b"] = self.sdi.gen_kernel_b
        t["fusion.sdi.gen_left.w"] = self.sdi.gen_left_w
        t["fusion.sdi.gen_left.b"] = self.sdi.gen_left_b
        t["fusion.sdi.gen_right.w"] = self.sdi.gen_right_w
        t["fusion.sdi.gen_right.b"] = self.sdi.gen_right_b
        t["fusion.eaf.w"] = self.eaf.w
        t["fusion.eaf.b"] = self.eaf.b
        t["classifier.clip_proj.w"], t["classifier.clip_proj.b"] = self.clip_proj
        return t


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


def _from_tensors(
    config: ModelConfig, image_hw: tuple[int, int], t: dict[str, np.ndarray]
) -> WeightBundle:
    projections = {
        level: (t[f"backbone.stage{level}.w"], t[f"backbone.stage{level}.b"])
        for level in (2, 3, 4, 5)
    }
    backbone = SyntheticBackbone(
        seed=-1, stage_widths=config.backbone_widths, projections=projections
    )
    aggregator = AggregatorWeights(
        laterals={
            lv: (t[f"aggregator.lateral{lv}.w"], t[f"aggregator.lateral{lv}.b"])
            for lv in (2, 3, 4, 5)
        },
        smooths={
            lv: (t[f"aggregator.smooth{lv}.w"], t[f"aggregator.smooth{lv}.b"])
            for lv in (2, 3, 4, 5)
        },
        level_proj={lv: t[f"aggregator.proj{lv}.w"] for lv in (2, 3, 4, 5)},
        fuse=(t["aggregator.fuse.w"], t["aggregator.fuse.b"]),
    )
    vas = VasWeights(
        feat_depth=t["vas.feat_depth"],
        feat_point=t["vas.feat_point"],
        feat_bias=t["vas.feat_bias"],
        text_w=t["vas.text_w"],
        text_b=t["vas.text_b"],
        heads=config.vas_heads,
        scale=float(t["vas.scale"][0]),
        offset=float(t["vas.offset"][0]),
    )
    layers = []
    for i in range(config.decoder_layers):
        p = f"decoder.layer{i}"
        blocks = {}
        for tag in ("cross_attn", "self_attn"):
            blocks[tag] = AttentionBlockWeights(
                heads=config.decoder_heads,
                wq=t[f"{p}.{tag}.wq"],
                wk=t[f"{p}.{tag}.wk"],
                wv=t[f"{p}.{tag}.wv"],
                wo=t[f"{p}.{tag}.wo"],
            )
        layers.append(
            DecoderLayerWeights(
                kernel_proj=t[f"{p}.kernel_proj"],
                cross_attn=blocks["cross_attn"],
                self_attn=blocks["self_attn"],
                ln_attn=(t[f"{p}.ln_attn.g"], t[f"{p}.ln_attn.b"]),
                ln_ffn=(t[f"{p}.ln_ffn.g"], t[f"{p}.ln_ffn.b"]),
                ffn_w1=t[f"{p}.ffn.w1"],
                ffn_b1=t[f"{p}.ffn.b1"],
                ffn_w2=t[f"{p}.ffn.w2"],
                ffn_b2=t[f"{p}.ffn.b2"],
            )
        )
    decoder = DecoderWeights(
        layers=layers,
        mask_mlp=[(t[f"decoder.mask_mlp{i}.w"], t[f"decoder.mask_mlp{i}.b"]) for i in range(3)],
        init_kernels=t["decoder.init_kernels"],
        kernel_size=config.dda_kernel_size,
    )
    vit = VitBlockWeights(
        patch_w=t["spatial.patch.w"],
        patch_b=t["spatial.patch.b"],
        class_token=t["spatial.class_token"],
        pos_table=t["spatial.pos_table"],
        ln_attn=(t["spatial.ln_attn.g"], t["spatial.ln_attn.b"]),
        ln_mlp=(t["spatial.ln_mlp.g"], t["spatial.ln_mlp.b"]),
        attn=AttentionBlockWeights(
            heads=config.vit_heads,
            wq=t["spatial.attn.wq"],
            wk=t["spatial.attn.wk"],
            wv=t["spatial.attn.wv"],
            wo=t["spatial.attn.wo"],
        ),
        mlp_w1=t["spatial.mlp.w1"],
        mlp_b1=t["spatial.mlp.b1"],
        mlp_w2=t["spatial.mlp.w2"],
        mlp_b2=t["spatial.mlp.b2"],
    )
    upsampler = UpsamplerWeights(
        w1=t["spatial.up1.w"], b1=t["spatial.up1.b"], w2=t["spatial.up2.w"], b2=t["spatial.up2.b"]
    )
    tdee = TdeeWeights(
        proj_m=t["fusion.tdee.proj_m"],
        proj_s=t["fusion.tdee.proj_s"],
        router_m_w=t["fusion.tdee.router_m.w"],
        router_m_b=t["fusion.tdee.router_m.b"],
        router_s_w=t["fusion.tdee.router_s.w"],
        router_s_b=t["fusion.tdee.router_s.b"],
        ln_fuse_m=(t["fusion.tdee.ln_fuse_m.g"], t["fusion.tdee.ln_fuse_m.b"]),
        ln_fuse_s=(t["fusion.tdee.ln_fuse_s.g"], t["fusion.tdee.ln_fuse_s.b"]),
        ln_gate_m=(t["fusion.tdee.ln_gate_m.g"], t["fusion.tdee.ln_gate_m.b"]),
        ln_gate_s=(t["fusion.tdee.ln_gate_s.g"], t["fusion.tdee.ln_gate_s.b"]),
        out_w=t["fusion.tdee.out.w"],
        out_b=t["fusion.tdee.out.b"],
        ln_out=(t["fusion.tdee.ln_out.g"], t["fusion.tdee.ln_out.b"]),
    )
    sdi = SdiWeights(
        gen_kernel_w=t["fusion.sdi.gen_kernel.w"],
        gen_kernel_b=t["fusion.sdi.gen_kernel.b"],
        gen_left_w=t["fusion.sdi.gen_left.w"],
        gen_left_b=t["fusion.sdi.gen_left.b"],
        gen_right_w=t["fusion.sdi.gen_right.w"],
        gen_right_b=t["fusion.sdi.gen_right.b"],
        rank=config.sdi_rank,
    )
    eaf = EafWeights(w=t["fusion.eaf.w"], b=t["fusion.eaf.b"])
    return WeightBundle(
        config=config,
        image_hw=image_hw,
        backbone=backbone,
        aggregator=aggregator,
        vas=vas,
        decoder=decoder,
        vit=vit,
        upsampler=upsampler,
        tdee=tdee,
        sdi=sdi,
        eaf=eaf,
        clip_proj=(t["classifier.clip_proj.w"], t["classifier.clip_proj.b"]),
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
        name, shape = line.split()
        entries[name] = tuple(int(e) for e in shape.split("x"))
    return entries


def load_weights(directory: str | Path, config: ModelConfig) -> WeightBundle:
    directory = Path(directory)
    entries = read_manifest(directory)
    meta = json.loads((directory / "meta.json").read_text())
    tensors = {}
    for name, shape in entries.items():
        arr = read_eovt(directory / f"{name}.eovt")
        if arr.shape != shape:
            raise ValueError(f"load_weights: {name} has shape {arr.shape}, manifest says {shape}")
        tensors[name] = arr
    try:
        bundle = _from_tensors(config, (meta["image_h"], meta["image_w"]), tensors)
    except KeyError as exc:
        raise ValueError(f"load_weights: manifest missing tensor {exc.args[0]!r}") from exc
    expected = set(bundle.to_tensors())
    if expected != set(tensors):
        missing = sorted(expected - set(tensors))
        raise ValueError(f"load_weights: manifest missing tensors {missing[:5]}")
    return bundle


def load_or_build_weights(
    directory: str | Path, config: ModelConfig, image_hw: tuple[int, int]
) -> WeightBundle:
    """Reuse a cached bundle when config hash and image extents match; else rebuild."""
    directory = Path(directory)
    meta_path = directory / "meta.json"
    if meta_path.exists():
        meta = json.loads(meta_path.read_text())
        if (
            meta.get("config_hash") == config.hash()
            and (meta.get("image_h"), meta.get("image_w")) == tuple(image_hw)
        ):
            return load_weights(directory, config)
    bundle = build_weights(config, image_hw)
    save_weights(bundle, directory)
    return bundle
