"""One benchmark sample: a fresh interpreter that runs ``spectrend.cli.main`` once.

Usage: ``python3 child.py SPEC.json``.  The spec names the CLI arguments, the
``src`` directory to import spectrend from, the BLAS thread count, whether to
trace, and where to write the result.  The BLAS thread variables are set
before NumPy is first imported, so they take effect for this process.

The result file holds the exit code, the wall time of the ``main`` call (the
import is excluded), the process high-water RSS, the thread count used and,
when traced, the spans and counts.
"""

from __future__ import annotations

import json
import os
import sys
import time

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(spec_path: str) -> int:
    with open(spec_path) as f:
        spec = json.load(f)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(spec["threads"])
    sys.path.insert(0, spec["src"])

    t0 = time.perf_counter()
    import spectrend.cli as cli
    import_s = time.perf_counter() - t0

    import tracing

    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer(spec["run_id"])
        tracing.install(tracer)    # also replaces cli.main, so main gets a span

    t0 = time.perf_counter()
    try:
        code = cli.main(spec["argv"])
    except SystemExit as exc:    # argparse rejects its arguments this way
        code = exc.code if isinstance(exc.code, int) else 1
    wall_s = time.perf_counter() - t0

    result = {
        "exit": code,
        "wall_s": wall_s,
        "import_s": import_s,
        "maxrss_mb": tracing.maxrss_mb(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = tracer.counts
    with open(spec["result"], "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
