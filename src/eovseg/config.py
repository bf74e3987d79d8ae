"""Model configuration: one validated record covering every module's knobs."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

FUSION_MODES = ("none", "eaf", "sdi", "tdee")


def _matches(value, default) -> bool:
    if isinstance(default, float):  # JSON writes 1.0 as 1 too
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return type(value) is type(default)


def read_json(path: str | Path):
    """A ``--config`` or ``gen --spec`` file as strict UTF-8 JSON; decode errors name it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        raise ValueError(f"{path}: {exc}") from None


def checked_fields(cls, data, what: str) -> dict:
    """Keyword arguments for dataclass ``cls`` from a parsed JSON object.

    Each key must name a field, and each value must have the type of that
    field's default (a list for a tuple default, turned into a tuple).
    Raises ValueError naming the first bad key.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{what}: need a JSON object, got {type(data).__name__}")
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    unknown = set(data) - set(defaults)
    if unknown:
        raise ValueError(f"{what}: unknown keys {sorted(unknown)}")
    out = {}
    for key, value in data.items():
        default = defaults[key]
        if isinstance(default, tuple):
            if not isinstance(value, (list, tuple)) or not all(_matches(v, default[0]) for v in value):
                raise ValueError(
                    f"{what}: {key} must be a list of {type(default[0]).__name__}, got {value!r}"
                )
            value = tuple(value)
        elif not _matches(value, default):
            raise ValueError(f"{what}: {key} must be {type(default).__name__}, got {value!r}")
        out[key] = value
    return out


# integer fields that count or size something; 0 or less fails deep inside a kernel
_POSITIVE = (
    "embed_dim", "vit_dim", "vas_heads", "n_queries", "decoder_layers", "decoder_heads",
    "ffn_expansion", "dda_kernel_size", "tdee_dim", "sdi_kernel_size", "sdi_rank", "vit_heads",
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
    dda_kernel_size: int = 3  # m, odd
    tdee_dim: int = 256  # d, even; fusion/router halves are d/2 wide
    sdi_kernel_size: int = 3
    sdi_rank: int = 4
    vit_heads: int = 4
    backbone_widths: tuple[int, int, int, int] = (64, 128, 256, 512)
    fusion: str = "tdee"
    alpha: float = 0.4
    beta: float = 0.8
    tau: float = 0.07
    ensemble_method: str = "geometric"
    score_floor: float = 0.0
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
        if self.dda_kernel_size % 2 == 0:
            raise ValueError(f"config: dda_kernel_size must be odd, got {self.dda_kernel_size}")
        if self.sdi_kernel_size % 2 == 0:
            raise ValueError(f"config: sdi_kernel_size must be odd, got {self.sdi_kernel_size}")
        if self.tdee_dim % 2:
            raise ValueError(f"config: tdee_dim must be even, got {self.tdee_dim}")
        if self.fusion not in FUSION_MODES:
            raise ValueError(f"config: fusion must be one of {FUSION_MODES}, got {self.fusion!r}")
        if not 0.0 <= self.alpha <= 1.0 or not 0.0 <= self.beta <= 1.0:
            raise ValueError("config: alpha and beta must lie in [0, 1]")
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"config: tau must be finite and > 0, got {self.tau}")
        if not math.isfinite(self.score_floor):
            raise ValueError(f"config: score_floor must be finite, got {self.score_floor}")
        if self.ensemble_method not in ("geometric", "arithmetic"):
            raise ValueError(f"config: unknown ensemble_method {self.ensemble_method!r}")
        self.backbone_widths = tuple(int(w) for w in self.backbone_widths)

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["backbone_widths"] = list(self.backbone_widths)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        return cls(**checked_fields(cls, data, "config"))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

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
