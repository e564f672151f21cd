"""Benchmark of the ris-cvqkd key-rate simulator.

    python3 bench/run.py --workload rich-sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

Each measurement runs the workload in fresh worker processes (``worker.py``)
with one BLAS thread and ``PYTHONPATH=src``.  With ``--trace 0`` it starts
several set-up-only workers and one worker that measures for ``--seconds``,
and reports the end-to-end metrics, with times scaled to a reference host
speed by the workers' host probe.  With ``--trace 1`` it runs an untraced
and a traced worker for half of ``--seconds`` each, reports the per-layer
metrics and prints the tracing overhead.  The last line of standard output
is one JSON object; a fuller record goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 4  # extra set-up-only workers; setup_s is the median of these and the measuring one
BLAS_THREADS = "1"
DEADLINE_S = 170.0
# worker.host_probe() time that defines the reference host speed; times are
# scaled to it because the shared host's speed changes by up to 2x
PROBE_REF_S = 0.025
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]}
WORKLOADS = tuple(w["name"] for w in DECLARED["workloads"])


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(workload: str, seed: int, seconds: float, mode: str, deadline: float) -> dict:
    started = time.monotonic()
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--mode", mode,
           "--started", repr(started), "--out", str(OUT)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env=worker_env())
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} {mode} worker passed the deadline") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def round_rates(worker: dict, scaled: bool = True) -> list[float]:
    """Operations per second of each round; scaled to the reference host
    speed by the mean of the probes taken before and after the round."""
    p = worker["probes_s"]
    return [worker["ops_per_round"] / t
            * ((p[k] + p[k + 1]) / (2 * PROBE_REF_S) if scaled else 1.0)
            for k, t in enumerate(worker["rounds_s"])]


def scaled_setup(worker: dict) -> float:
    return worker["setup_s"] * PROBE_REF_S / worker["probes_s"][0]


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if not trace:
        setups = [spawn(workload, seed, 0, "setup", deadline) for _ in range(SETUP_PROBES)]
        main = spawn(workload, seed, seconds, "run", deadline)
        setups.append(main)
        metrics = {"setup_s": statistics.median(scaled_setup(w) for w in setups),
                   "ops_per_s": statistics.median(round_rates(main)),
                   "peak_rss_mb": main["peak_rss_mb"]}
        workers = {"setup_s_unscaled": [w["setup_s"] for w in setups],
                   "setup_probes_s": [w["probes_s"][0] for w in setups],
                   "setup_s_unscaled_median": statistics.median(w["setup_s"] for w in setups),
                   "ops_per_s_unscaled": statistics.median(round_rates(main, scaled=False)),
                   "run": main}
        attempted, failed = main["attempted"], main["failed"]
        main_worker = main
    else:
        plain = spawn(workload, seed, seconds / 2, "run", deadline)
        traced = spawn(workload, seed, seconds / 2, "trace", deadline)
        metrics = traced.pop("layers")
        plain_rate = statistics.median(round_rates(plain))
        traced_rate = statistics.median(round_rates(traced))
        workers = {"run": plain, "trace": traced,
                   "ops_per_s_untraced": plain_rate, "ops_per_s_traced": traced_rate,
                   "tracing_overhead": plain_rate / traced_rate - 1.0}
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        main_worker = plain
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "blas_threads": int(BLAS_THREADS), "nproc": os.cpu_count(),
            "python": main_worker["python"], "numpy": main_worker["numpy"],
            "correct": True, "attempted": attempted, "failed": failed,
            "metrics": metrics, "workers": workers}


def report(record: dict) -> None:
    print(f"{record['workload']}: seed={record['seed']} seconds={record['seconds']}"
          f" trace={record['trace']} blas_threads={record['blas_threads']}"
          f" nproc={record['nproc']} python={record['python']} numpy={record['numpy']}")
    workers = record["workers"]
    if record["trace"]:
        for name, value in record["metrics"].items():
            print(f"  {name:34s} {value:.6g} {UNITS[name]}")
        print(f"  ops_per_s untraced {workers['ops_per_s_untraced']:.6g} 1/s,"
              f" traced {workers['ops_per_s_traced']:.6g} 1/s,"
              f" tracing overhead {100 * workers['tracing_overhead']:.1f}%"
              f" ({workers['trace']['spans']['count']} spans)")
    else:
        run = workers["run"]
        for name, value in record["metrics"].items():
            print(f"  {name:12s} {value:.6g} {UNITS[name]}")
        print(f"  ({len(workers['setup_s_unscaled'])} set-ups, {len(run['rounds_s'])} rounds of"
              f" {run['ops_per_round']} operations; unscaled setup_s"
              f" {workers['setup_s_unscaled_median']:.6g} s, ops_per_s"
              f" {workers['ops_per_s_unscaled']:.6g} 1/s)")
    print(f"  attempted {record['attempted']}  failed {record['failed']}")


def result_line(record: dict) -> dict:
    declared = DECLARED["per_layer" if record["trace"] else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in record["metrics"]]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
                        for m in declared}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "ris_cvqkd" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    try:
        for name in names:
            record = measure(name, args.seed, args.seconds, bool(args.trace))
            (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
                json.dumps(record, indent=1))
            report(record)
            lines[name] = result_line(record)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
