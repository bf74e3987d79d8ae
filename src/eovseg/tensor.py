"""Tensor contract, seeded RNG, and the EOVT binary file format.

Tensors this package makes and stores are C-contiguous float32 ndarrays of
rank 1..5 with all extents >= 1; the kernels assume the rank and extents and
compute in the dtype they are given.  ``check_tensor`` enforces the contract
only inside ``write_eovt`` and ``weights.save_weights``, so every tensor file
(weight cache, scene, trace) is checked as it is written; arrays passed
between modules are not.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

EOVT_MAGIC = b"EOVT"
EOVT_VERSION = 1
MAX_RANK = 5


class EovtFormatError(ValueError):
    """Raised when a tensor file, a weight-cache file or a scene file
    (``image.eovt``, ``templates.eovt``, ``vocab.txt``, ``gt_map.eovt``,
    ``gt_manifest.txt``) fails format validation."""


def read_text(path: str | Path) -> str:
    """A UTF-8 text file: ``vocab.txt`` or ``gt_manifest.txt``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise EovtFormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def check_tensor(x: np.ndarray) -> np.ndarray:
    """Validate the shared tensor contract and return the array unchanged."""
    if not isinstance(x, np.ndarray):
        raise TypeError(f"tensor: expected ndarray, got {type(x).__name__}")
    if x.dtype != np.float32:
        raise ValueError(f"tensor: dtype must be float32, got {x.dtype}")
    if not 1 <= x.ndim <= MAX_RANK:
        raise ValueError(f"tensor: rank must be in [1, {MAX_RANK}], got {x.ndim}")
    if any(e < 1 for e in x.shape):
        raise ValueError(f"tensor: every extent must be >= 1, got shape {x.shape}")
    return np.ascontiguousarray(x)


def write_eovt(path: str | Path, x: np.ndarray) -> None:
    """Write a tensor: magic 'EOVT', version u8, rank u8, u32-LE extents, f32-LE payload."""
    x = check_tensor(x)
    with open(path, "wb") as f:
        f.write(EOVT_MAGIC)
        f.write(struct.pack("<BB", EOVT_VERSION, x.ndim))
        f.write(struct.pack(f"<{x.ndim}I", *x.shape))
        f.write(x.astype("<f4", copy=False).tobytes(order="C"))


def read_eovt(path: str | Path) -> np.ndarray:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 6 or raw[:4] != EOVT_MAGIC:
        raise EovtFormatError(f"{path}: bad magic, not an EOVT tensor file")
    version, rank = struct.unpack_from("<BB", raw, 4)
    if version != EOVT_VERSION:
        raise EovtFormatError(f"{path}: unsupported version {version}")
    if not 1 <= rank <= MAX_RANK:
        raise EovtFormatError(f"{path}: rank {rank} outside [1, {MAX_RANK}]")
    header_end = 6 + 4 * rank
    if len(raw) < header_end:
        raise EovtFormatError(f"{path}: truncated extent header")
    shape = struct.unpack_from(f"<{rank}I", raw, 6)
    if any(e < 1 for e in shape):
        raise EovtFormatError(f"{path}: zero extent in shape {shape}")
    count, held = math.prod(shape), (len(raw) - header_end) // 4  # an int64 product can wrap
    if len(raw) != header_end + 4 * count:
        raise EovtFormatError(f"{path}: payload holds {held} floats, shape {shape} needs {count}")
    return np.frombuffer(raw, "<f4", count, header_end).astype(np.float32).reshape(shape)


class Rng:
    """Deterministic random source: NumPy PCG64 under a fixed 64-bit seed.

    Identical seeds produce identical streams across runs and platforms; all
    draw helpers return float32.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def normal(self, shape, std: float = 1.0) -> np.ndarray:
        return (self._gen.standard_normal(shape) * std).astype(np.float32)

    def uniform(self, shape, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape).astype(np.float32)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    def unit_vector(self, dim: int) -> np.ndarray:
        """Random direction, rejection-guarded against near-zero draws."""
        if dim < 1:
            raise ValueError(f"unit_vector: dim must be >= 1, got {dim}")
        while True:
            v = self._gen.standard_normal(dim)
            n = float(np.linalg.norm(v))
            if n > 1e-6:
                return (v / n).astype(np.float32)

    def child(self, tag: int) -> "Rng":
        """Independent substream derived from the seed and an integer tag."""
        return Rng((self.seed * 0x9E3779B97F4A7C15 + tag + 1) & 0xFFFFFFFFFFFFFFFF)
