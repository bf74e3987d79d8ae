"""Model configuration: one validated record of the sizes, head counts, fusion mode
and weight seed that a caller may vary.

Architecture constants that no caller varies live beside the code that reads
them: the dda kernel length (``decoder.DDA_KERNEL_SIZE``), the sdi kernel length
(``fusion.SDI_KERNEL_SIZE``) and the classifier's temperature and ensemble
exponents (``classifier.TAU``, ``ALPHA`` and ``BETA``)."""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

FUSION_MODES = ("none", "eaf", "sdi", "tdee")


def read_json(path: str | Path) -> dict:
    """A ``--config`` or ``gen --spec`` file as one strict UTF-8 JSON object; errors name it."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: need a JSON object, got {type(data).__name__}")
    return data


def checked_fields(cls, data: dict, what: str) -> dict:
    """Keyword arguments for dataclass ``cls`` from a parsed JSON object.

    Each key must name a field, and each value must have the type of that
    field's default (a list for a tuple default, turned into a tuple).
    Raises ValueError naming the first bad key.
    """
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    unknown = set(data) - set(defaults)
    if unknown:
        raise ValueError(f"{what}: unknown keys {sorted(unknown)}")
    out = {}
    for key, value in data.items():
        default = defaults[key]
        if isinstance(default, tuple):
            item = type(default[0])
            if not isinstance(value, (list, tuple)) or not all(type(v) is item for v in value):
                raise ValueError(
                    f"{what}: {key} must be a list of {item.__name__}, got {value!r}"
                )
            value = tuple(value)
        elif type(value) is not type(default):
            raise ValueError(f"{what}: {key} must be {type(default).__name__}, got {value!r}")
        out[key] = value
    return out


# integer fields that count or size something; 0 or less fails deep inside a kernel
_POSITIVE = (
    "embed_dim", "vit_dim", "vas_heads", "n_queries", "decoder_layers", "decoder_heads",
    "ffn_expansion", "tdee_dim", "sdi_rank", "vit_heads",
)


@dataclass
class ModelConfig:
    embed_dim: int = 256  # shared feature/embedding width
    vit_dim: int = 64  # spatial branch token width
    vas_heads: int = 8
    n_queries: int = 100
    decoder_layers: int = 3
    decoder_heads: int = 8
    ffn_expansion: int = 4
    tdee_dim: int = 256  # d, even; fusion/router halves are d/2 wide
    sdi_rank: int = 4
    vit_heads: int = 4
    backbone_widths: tuple[int, int, int, int] = (64, 128, 256, 512)
    fusion: str = "tdee"
    weights_seed: int = 0

    def __post_init__(self):
        for name in _POSITIVE:
            if getattr(self, name) < 1:
                raise ValueError(f"config: {name} must be >= 1, got {getattr(self, name)}")
        if len(self.backbone_widths) != 4 or min(self.backbone_widths) < 1:
            raise ValueError(
                f"config: backbone_widths must list four stage widths >= 1, got {self.backbone_widths}"
            )
        if self.embed_dim % self.vas_heads:
            raise ValueError(
                f"config: embed_dim {self.embed_dim} not divisible by vas_heads {self.vas_heads}"
            )
        if self.embed_dim % self.decoder_heads:
            raise ValueError(
                f"config: embed_dim {self.embed_dim} not divisible by decoder_heads "
                f"{self.decoder_heads}"
            )
        if self.vit_dim % self.vit_heads:
            raise ValueError(
                f"config: vit_dim {self.vit_dim} not divisible by vit_heads {self.vit_heads}"
            )
        if self.tdee_dim % 2:
            raise ValueError(f"config: tdee_dim must be even, got {self.tdee_dim}")
        if self.fusion not in FUSION_MODES:
            raise ValueError(f"config: fusion must be one of {FUSION_MODES}, got {self.fusion!r}")
        self.backbone_widths = tuple(int(w) for w in self.backbone_widths)

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["backbone_widths"] = list(self.backbone_widths)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        return cls(**checked_fields(cls, data, "config"))

    @classmethod
    def load(cls, path: str | Path) -> "ModelConfig":
        return cls.from_dict(read_json(path))

    def hash(self, extra: dict | None = None) -> str:
        """Stable short hash over the canonical config (plus optional context)."""
        payload = self.to_dict()
        if extra:
            payload = {**payload, **extra}
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]
