"""The benchmark in eovbench/ still runs against this engine.

One short traced run per workload checks what the benchmark relies on: the
names it patches for spans and calls directly, the stored reference scores,
bitwise repeats of the set-up, `replay_trace`, and that every span fires.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["small64_tdee", "mid128_eaf", "large256_tdee"])
def test_traced_benchmark_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "eovbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0, proc.stdout
