"""EOVT file format, tensor contract, and RNG determinism."""

import struct

import numpy as np
import pytest

from eovseg.tensor import EovtFormatError, Rng, check_tensor, read_eovt, write_eovt


def test_roundtrip(tmp_path):
    x = Rng(1).normal((2, 3, 4))
    path = tmp_path / "t.eovt"
    write_eovt(path, x)
    back = read_eovt(path)
    assert back.shape == x.shape
    assert np.array_equal(back, x)


def test_header_layout(tmp_path):
    x = np.arange(6, dtype=np.float32).reshape(2, 3)
    path = tmp_path / "t.eovt"
    write_eovt(path, x)
    raw = path.read_bytes()
    assert raw[:4] == b"EOVT"
    version, rank = struct.unpack_from("<BB", raw, 4)
    assert (version, rank) == (1, 2)
    assert struct.unpack_from("<2I", raw, 6) == (2, 3)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.eovt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(EovtFormatError, match="magic"):
        read_eovt(path)


def test_bad_version_rejected(tmp_path):
    path = tmp_path / "bad.eovt"
    path.write_bytes(b"EOVT" + bytes([9, 1]) + struct.pack("<I", 1) + b"\x00" * 4)
    with pytest.raises(EovtFormatError, match="version"):
        read_eovt(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "bad.eovt"
    path.write_bytes(b"EOVT" + bytes([1, 1]) + struct.pack("<I", 4) + b"\x00" * 8)
    with pytest.raises(EovtFormatError, match="payload"):
        read_eovt(path)


def test_tensor_contract():
    with pytest.raises(ValueError, match="float32"):
        check_tensor(np.zeros(3, dtype=np.float64))
    with pytest.raises(ValueError, match="rank"):
        check_tensor(np.zeros((1, 1, 1, 1, 1, 1), dtype=np.float32))
    with pytest.raises(ValueError, match="extent"):
        check_tensor(np.zeros((2, 0), dtype=np.float32))
    ok = check_tensor(np.arange(3, dtype=np.float32))
    assert ok.dtype == np.float32 and ok.shape == (3,)


def test_rng_stream_reproducible():
    a = Rng(42)
    b = Rng(42)
    assert np.array_equal(a.normal((5, 5)), b.normal((5, 5)))
    assert np.array_equal(a.uniform((3,)), b.uniform((3,)))
    assert a.child(2).seed == b.child(2).seed
    assert Rng(42).child(1).seed != Rng(42).child(2).seed


def test_rng_known_stream_values():
    # frozen draw from PCG64(seed=0): guards against silent algorithm changes
    v = Rng(0).normal((2,))
    assert np.allclose(v, np.float32([0.12573022, -0.13210486]), atol=1e-6)


def test_unit_vector_is_unit():
    v = Rng(3).unit_vector(16)
    assert abs(float(np.linalg.norm(v.astype(np.float64))) - 1.0) < 1e-6


@pytest.mark.parametrize("dim", [0, -1])
def test_unit_vector_rejects_empty_dimension(dim):
    # an empty draw has norm 0, so the rejection loop would never return
    with pytest.raises(ValueError, match="dim must be >= 1"):
        Rng(3).unit_vector(dim)
