"""qsnn benchmark: run one workload (or all three), check outputs, print metrics.

    python3 bench/run.py --workload neuron_cold --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1          # every workload, one after another

Each workload runs in fresh worker processes (bench/worker.py) with BLAS
pinned to one thread.  Every time is divided by the host factor that a
fixed calibration kernel measures between ops (hostspeed.py), so that the
shared host's speed drift stays out of the figures; the raw wall-clock
figures are printed next to them.  Untraced (--trace 0) it sets up four
more times in fresh processes and reports the median set-up time with the
end-to-end metrics.
Traced (--trace 1) it runs the workload once untraced and once with spans
at the qsnn module boundaries, and reports the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("neuron_cold", "tune_static", "network_warm")
SETUP_REPEATS = 5
DEFAULT_SECONDS = 30
WORKER_GRACE_S = 120
PINNED_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class WorkerError(RuntimeError):
    pass


def _worker(workload: str, seed: int, seconds: float, *flags: str) -> dict:
    env = dict(os.environ, **PINNED_THREADS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    command = [sys.executable, str(BENCH / "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), *flags,
               "--spawned-at", repr(time.monotonic())]
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{workload} worker timed out") from exc
    if done.returncode != 0 or not done.stdout.strip():
        raise WorkerError(f"{workload} worker exited {done.returncode}:\n"
                          f"{done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    setups = [_worker(workload, seed, seconds, "--setup-only")
              for _ in range(SETUP_REPEATS - 1)]
    result = _worker(workload, seed, seconds)
    setups.append(result)
    result["setup_samples_s"] = [setup["setup_s"] for setup in setups]
    result["raw_setup_samples_s"] = [setup["raw_setup_s"] for setup in setups]
    result["setup_s"] = statistics.median(result["setup_samples_s"])
    result["raw_setup_s"] = statistics.median(result["raw_setup_samples_s"])
    metrics = {name: (result[name], unit)
               for name, unit in END_TO_END_UNITS.items()}
    result["metrics"] = metrics
    return result


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    baseline = _worker(workload, seed, seconds)
    spans = ROOT / ".bench_out" / f"spans-{workload}-seed{seed}.csv.gz"
    result = _worker(workload, seed, seconds, "--trace", "--spans", str(spans))
    metrics = {name: tuple(value) for name, value in result["per_layer"].items()}
    metrics["trace.ops"] = (result["attempted"], "count")
    metrics["trace.overhead_ops_per_s"] = (
        baseline["ops_per_s"] - result["ops_per_s"], "1/s")
    result["metrics"] = metrics
    result["untraced_ops_per_s"] = baseline["ops_per_s"]
    result["spans_file"] = str(spans.relative_to(ROOT))
    return result


def report(result: dict) -> None:
    """Human-readable lines: environment, every metric, failures."""
    name = result["workload"]
    print(f"[{name}] environment: {json.dumps(result['environment'])}")
    print(f"[{name}] ops attempted {result['attempted']}, failed "
          f"{result['failed']}")
    print(f"[{name}] error_rate = {result['error_rate']:.6g} ratio")
    if "known_defect" in result:
        probe = result["known_defect"]
        print(f"[{name}] known defect: parameters.tune still raises "
              f"HierarchyViolationError from {len(probe['reproduced'])} of "
              f"{probe['probed']} hierarchy-floor starts (untimed probe)")
    low, high = result["host_factor_range"]
    print(f"[{name}] host factor (hostspeed.py) median "
          f"{result['host_factor_median']:.4g}, range {low:.4g}-{high:.4g}")
    for metric, (value, unit) in result["metrics"].items():
        note = ""
        if metric == "latency_tail_ms":
            note = f"  (p{result['tail_percentile']:.2f})"
        raw = result.get(f"raw_{metric}")
        if raw is not None:
            note += f"  [raw {raw:.6g}]"
        print(f"[{name}] {metric} = {value:.6g} {unit}{note}")
    for failure in result["failure_examples"]:
        print(f"[{name}] failure: {failure}")


def summary(result: dict) -> dict:
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in result["metrics"].items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                        help="one workload; all three when omitted")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM exits through subprocess.run, which then kills the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "qsnn" / "__init__.py").is_file():
        print(f"no qsnn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    run = run_traced if args.trace else run_untraced
    results = []
    try:
        for name in names:
            result = run(name, args.seed, args.seconds)
            report(result)
            results.append(result)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    suffix = "-trace" if args.trace else ""
    for result in results:
        path = out_dir / f"result-{result['workload']}-seed{args.seed}{suffix}.json"
        path.write_text(json.dumps(result, indent=1) + "\n")
    if len(results) == 1:
        print(json.dumps(summary(results[0])))
        return 0
    parts = [summary(result) for result in results]
    print(json.dumps({
        "correct": all(part["correct"] for part in parts),
        "attempted": sum(part["attempted"] for part in parts),
        "failed": sum(part["failed"] for part in parts),
        "metrics": {f"{result['workload']}.{metric}": value
                    for result, part in zip(results, parts)
                    for metric, value in part["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
