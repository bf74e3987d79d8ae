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
