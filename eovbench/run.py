"""Closed-loop inference benchmark of the eovseg engine.

Run from the repository root:

    python3 eovbench/run.py --workload small64_tdee --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics (images_per_s, latency_p50_ms,
latency_tail_ms, peak_rss_mb, setup_s); ``--trace 1`` records spans around
every layer call and reports the per-layer metrics instead.  The lines
before the last are a readable report (environment, problems, every metric
with its unit, failed_share); the last line is one JSON object with the keys
correct, attempted, failed and metrics.  Spans and the full result are also
written to .eovbench/results/.

Exit codes: 0 finished (see "correct"), 2 usage error, engine sources not
found, or an invalid measurement such as a layer span that never fired.
"""

import os

# The cap must be set before numpy is imported.  One thread never exceeds
# nproc and matches `eovseg bench`.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import time  # noqa: E402

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="small64_tdee")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "eovseg" / "__init__.py").is_file():
        print(f"eovbench: engine sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness  # numpy and the engine

    import_s = time.perf_counter() - T_START
    try:
        lines, result = harness.run(
            args.workload, args.seed, args.seconds, bool(args.trace), import_s, BLAS_THREADS
        )
    except harness.BenchError as exc:
        print(f"eovbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
