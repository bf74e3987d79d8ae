"""Shared test helpers."""

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
