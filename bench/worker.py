"""One workload process: set-up, a timed closed loop of whole rounds, checks.

Started by ``run.py`` with the BLAS thread count and ``PYTHONPATH`` fixed.
``--mode setup`` stops when set-up ends; ``run`` measures; ``trace`` also
wraps the simulator's public functions for the timed loop and writes the
spans.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from pathlib import Path


def host_probe() -> float:
    """Seconds taken by a fixed mix of interpreter work and small complex
    SVDs.  It moves with the shared host's speed, which changes by up to 2x
    for seconds to minutes at a time; ``run.py`` scales times by it."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1, 60001):
        x = 1.0 + i * 1e-6
        acc += math.sqrt(x) * math.log2(x)
    m = np.exp(0.618j * np.arange(48 * 48)).reshape(48, 48)
    for _ in range(20):
        np.linalg.svd(m)
    return time.perf_counter() - t0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    import workloads

    out_dir = Path(args.out)
    workload = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    tracer = None
    if args.mode == "trace":
        import spans

        tracer = spans.Tracer()
        tracer.install()
    ready = time.monotonic()
    result = {"setup_s": ready - args.started}
    probes = [host_probe()]
    if args.mode == "setup":
        result["probes_s"] = probes
        print(json.dumps(result))
        return 0

    rounds = []
    measured = 0.0
    while True:
        t0 = time.perf_counter()
        output = workload.round()
        rounds.append(time.perf_counter() - t0)
        measured += rounds[-1]
        workload.record(output)
        probes.append(host_probe())
        # stop where the measured time ends closest to --seconds
        if measured + rounds[-1] / 2 >= args.seconds:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempted = len(rounds) * workload.ops_per_round
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics(attempted)
        path = out_dir / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.save(path)
        result["spans"] = {"file": str(path), "count": len(tracer.table())}
    failed, notes = workload.check()

    import numpy

    result.update(rounds_s=rounds, probes_s=probes, ops_per_round=workload.ops_per_round,
                  attempted=attempted, failed=failed, peak_rss_mb=peak_kb * 1024 / 1e6,
                  notes=notes, python=sys.version.split()[0], numpy=numpy.__version__)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
