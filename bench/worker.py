"""One workload in one fresh process: set up, then run ops until time is up.

Started by run.py, which passes the monotonic time at which it spawned
this process, so that set-up time counts interpreter start-up and imports.
Prints one JSON line with the results: every time both as measured
(raw_*) and divided by the host factor of hostspeed.py.

    python3 bench/worker.py --workload NAME --seed N --seconds S \
        --spawned-at T [--setup-only] [--trace [--spans FILE]]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

import hostspeed
import qsnn
import stats
import tracing
import workloads
from run import PINNED_THREADS

ROOT = Path(__file__).resolve().parent.parent


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or "unknown"


def environment(seed: int) -> dict:
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "threads": {name: os.environ.get(name) for name in PINNED_THREADS},
        "cpus": os.cpu_count(),
        "client": "one process, one thread, closed loop",
    }


def run_ops(workload, ops, seconds: float, clock: hostspeed.HostClock,
            tracer=None) -> dict:
    """Closed loop, one client: the next op starts once the last is checked.

    Stops at the first op that would start after `seconds`, or when `ops`
    runs out.  Only the op itself is timed; checks, clean-up and the host
    calibration between ops are not.
    """
    latencies, starts, failures = [], [], []
    attempted = 0
    deadline = time.perf_counter() + seconds
    clock.sample(hostspeed.NEAREST)
    for op in ops:
        if time.perf_counter() >= deadline:
            break
        clock.due()
        attempted += 1
        started = time.perf_counter()
        try:
            outcome = workload.run(op)
        except Exception as exc:  # an op that crashes is a counted failure
            verdict = workloads.Verdict(f"{op.key}: {type(exc).__name__}: {exc}")
        else:
            elapsed = time.perf_counter() - started
            verdict = workload.check(op, outcome)
        if tracer is not None:
            tracer.counters["cli.bytes_written"] += verdict.bytes_written
        if verdict.error is None:
            latencies.append(elapsed)
            starts.append(started)
        elif len(failures) < 20:
            failures.append(verdict.error)
    clock.sample(hostspeed.NEAREST)
    return {"latencies": latencies, "starts": starts,
            "failure_examples": failures, "attempted": attempted}


def summarize(run: dict, clock: hostspeed.HostClock) -> dict:
    """End-to-end figures of one run, over the latencies of correct ops.

    Each latency is divided by the host factor at its start (hostspeed.py);
    the raw wall-clock figures are kept under raw_*.
    """
    raw = run.pop("latencies")
    factors = [clock.factor(at) for at in run.pop("starts")]
    scaled = [latency / factor for latency, factor in zip(raw, factors)]
    figures = {}
    for prefix, latencies in (("", scaled), ("raw_", raw)):
        tail, percentile = stats.tail_latency(latencies)
        figures.update({
            f"{prefix}ops_per_s": len(latencies) / sum(latencies),
            f"{prefix}latency_p50_ms": 1e3 * statistics.median(latencies),
            f"{prefix}latency_tail_ms": 1e3 * tail,
        })
    failed = run["attempted"] - len(raw)
    return dict(
        run,
        **figures,
        failed=failed,
        tail_percentile=percentile,
        error_rate=failed / run["attempted"],
        host_factor_median=statistics.median(factors),
        host_factor_range=[min(factors), max(factors)],
    )


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()

    source = Path(qsnn.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"qsnn imported from {source}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, workloads)
    work_dir = ROOT / ".bench_tmp" / str(os.getpid())
    try:
        workload = workloads.WORKLOADS[args.workload](
            work_dir, workloads.load_reference()
        )
        workload.setup()
        raw_setup_s = time.monotonic() - args.spawned_at
        clock = hostspeed.HostClock()
        hostspeed.kernel_seconds()  # first call pays scipy's lazy set-up
        clock.sample(hostspeed.SETUP_SAMPLES)
        setup_factor = hostspeed.slowness(clock.samples)
        result = {"workload": args.workload,
                  "setup_s": raw_setup_s / setup_factor,
                  "raw_setup_s": raw_setup_s,
                  "setup_host_factor": setup_factor}
        if not args.setup_only:
            if tracer is not None:
                tracer.start_timed_phase()
            run = run_ops(workload, workload.ops(args.seed), args.seconds,
                          clock, tracer)
            result.update(summarize(run, clock))
            result["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
            result["environment"] = environment(args.seed)
            if tracer is not None:
                ops = result["attempted"]
                result["per_layer"] = tracing.per_layer_metrics(tracer, ops)
                if args.spans is not None:
                    tracer.write(args.spans)
                tracer.detach()
            # after the timed ops and their trace, so that neither counts it
            probe = getattr(workload, "probe_known_defect", None)
            if probe is not None:
                result["known_defect"] = probe()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
