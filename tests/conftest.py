"""Shared test helpers."""

import json
import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def cli_env():
    """Environment for `python -m eovseg.cli` subprocesses.

    pytest's `pythonpath` setting reaches only this process, so the checkout's
    `src` goes first on the child's PYTHONPATH; an existing value is kept after it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@pytest.fixture
def verify_check():
    """Run one named `verify.CHECKS` check; fails the test with the check's detail."""
    from eovseg.tensor import Rng
    from eovseg.verify import CHECKS

    checks = dict(CHECKS)

    def run(name: str, seed: int, trials: int = 100) -> str:
        passed, detail = checks[name](Rng(seed), trials)
        assert passed, f"{name}: {detail}"
        return detail

    return run


@pytest.fixture
def weight_header():
    """Read the JSON header of a cache directory's weight file, an independent
    reader of its layout (magic, u64-LE header length, header, payload).

    ``weight_header(cache)`` returns the header; ``weight_header(cache, edit)``
    first rewrites the file with ``edit(header)`` as its header, padded so the
    unchanged payload stays 4-byte aligned.
    """
    from eovseg.weights import WEIGHTS_FILE, WEIGHTS_MAGIC

    def header(cache, edit=None):
        path = Path(cache) / WEIGHTS_FILE
        raw = path.read_bytes()
        start = len(WEIGHTS_MAGIC) + 8
        end = start + int.from_bytes(raw[len(WEIGHTS_MAGIC):start], "little")
        value = json.loads(raw[start:end])
        if edit is not None:
            value = edit(value)
            text = json.dumps(value).encode()
            text += b" " * (-(start + len(text)) % 4)
            path.write_bytes(WEIGHTS_MAGIC + len(text).to_bytes(8, "little") + text + raw[end:])
        return value

    return header
