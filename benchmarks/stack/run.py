"""One run of the ``stack`` benchmark.

    python3 benchmarks/stack/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

``--trace 0`` measures the end-to-end metrics of one workload under the round
protocol; ``--trace 1`` times the same seeded batches through every layer
boundary in turn (``ladder.py``).  The last line of standard output is the
result as one JSON object.  README.md has the protocol and the metrics.

``repro``, ``common``, ``stacks`` and ``ladder`` are imported inside
functions: ``enter_checkout`` has to point ``sys.path`` at the checkout first.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SCRATCH = os.path.join(ROOT, ".bench_build", "stack")
COLD_STARTS = 2


def enter_checkout() -> None:
    """Keep every read and write inside the checkout the script sits in.

    The package is imported from ``src`` (the server subprocess and the
    shard workers inherit ``PYTHONPATH``), the C kernel is compiled into
    ``.bench_build`` instead of ``~/.cache``, and temp files go there too.
    """
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"no 'repro' package under {src}: nothing to measure")
    os.makedirs(SCRATCH, exist_ok=True)
    os.environ["PYTHONPATH"] = src
    os.environ["XDG_CACHE_HOME"] = os.path.join(ROOT, ".bench_build", "cache")
    os.environ["TMPDIR"] = SCRATCH
    os.environ.pop("REPRO_OBS", None)
    os.environ.pop("REPRO_DISABLE_NATIVE_KERNELS", None)
    tempfile.tempdir = None
    sys.path[:0] = [src, HERE]


def spawn(workload: str, seed: int, seconds: float, trace: int):
    """One run in a fresh process, as the driver starts it (``repeat.py`` and
    ``waterfall.py`` go through here); raises on a non-zero exit."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout}\n{proc.stderr}")
    return proc.stdout.strip().splitlines()


def make_plan(workload, seed: int, corrupt_oracle: bool):
    """The run's seeded inputs and oracle, kept out of the collector's way.

    ``gc.freeze`` parks the pool, the oracle and everything imported so far
    in the permanent generation: the benchmark's own data would otherwise be
    traversed by every full collection the stack's allocations trigger.
    """
    from common import VERIFIED_SOURCES, Plan

    plan = Plan(workload, seed)
    if corrupt_oracle:
        # Self-test of the gate: the first request still passes (it holds
        # the first 64 planted pairs), the measured rounds must not.
        for distances in plan.oracle:
            for i in range(VERIFIED_SOURCES, len(distances)):
                distances[i] += 1.0
    gc.collect()
    gc.freeze()
    return plan


def run_end_to_end(plan, seconds: float, quick: bool):
    from common import CPUS, Measurements, Reference, descendants, first_reply_ok
    from common import pss_mb, run_rounds
    from stacks import cold_start

    workload = plan.workload
    reference = Reference(CPUS[:1] if workload.stack == "engine" else CPUS)
    measured = Measurements()
    stack = None
    workdir = None
    try:
        for attempt in range(1 if quick else COLD_STARTS):
            if stack is not None:
                stack.close()
                stack = None
                shutil.rmtree(workdir)
                gc.collect()
            workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=SCRATCH)
            reference.read()
            started = time.perf_counter()
            stack = cold_start(workload, workdir)
            first_reply_ok(plan, stack)
            measured.setup_seconds.append(time.perf_counter() - started)
            reference.read()
        rounds = 1 if quick else workload.rounds(seconds)
        deadline = time.monotonic() + 2.0 * seconds
        run_rounds(plan, stack, reference, rounds, deadline, measured)
        measured.pss = {pid: pss_mb(pid) for pid in descendants(os.getpid())}
    finally:
        if stack is not None:
            stack.close()
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
    return measured, reference


def report_end_to_end(workload, measured, reference) -> dict:
    """Print the run and return its metrics at nominal machine speed."""
    from common import median

    tally = measured.tally
    slowdown = reference.slowdown
    limit = slowdown * workload.limit_ms / 1e3
    within_limit = sum(1 for latency in tally.ok_latencies if latency <= limit)
    slice_quantiles = [
        (1e3 * p50, 1e3 * p99) for p50, p99 in measured.slice_p50_p99
    ]
    raw = {
        # Interference only adds time, so the faster cold start is the better
        # estimate; every sample is printed.
        "setup_s": (min(measured.setup_seconds), "s"),
        "qps": (median(measured.slice_qps), "queries/s"),
        # Per slice, then the median over slices, like qps: the first slice
        # after a window runs slower, and a quantile of the pooled requests
        # would sit on the edge between the two populations.
        "lat_p50_ms": (median([p50 for p50, _ in slice_quantiles]), "ms"),
        "qos_ok_share": (within_limit / tally.requests, "share"),
        "update_window_s": (median(measured.window_seconds), "s"),
        "mem_pss_mb": (sum(measured.pss.values()), "MiB"),
    }
    metrics = {
        name: {"value": reference.at_nominal(value, unit), "unit": unit}
        for name, (value, unit) in raw.items()
    }
    samples = {
        "machine_slowdown": slowdown,
        "reference_readings_ms": [
            [round(1e3 * value, 3) for value in row] for row in reference.readings
        ],
        "raw_setup_s": measured.setup_seconds,
        "raw_slice_qps": measured.slice_qps,
        "raw_slice_lat_p50_p99_ms": slice_quantiles,
        "raw_window_s": measured.window_seconds,
        "steady_requests": len(measured.slice_qps) * workload.slice_requests,
        "window_requests": measured.window_requests,
        "limit_ms": workload.limit_ms,
        "cut_short": measured.stopped_early,
    }
    print(f"samples: {json.dumps(samples)}")
    print(f"pss by pid (MiB): { {p: round(v, 1) for p, v in measured.pss.items()} }")
    print(
        f"requests {tally.requests}  verified pairs {tally.verified}  "
        f"errors {tally.failed} {tally.errors}"
    )
    print(f"machine ran {slowdown:.3f}x slower than nominal; metric, as the "
          "clock read it, at nominal machine speed:")
    for name, (value, unit) in raw.items():
        print(f"{name:<16} {value:>14.4f} {metrics[name]['value']:>14.4f} {unit}")
    # Printed, not gated: the same code moved this by 13-43 % from run to run
    # on the multi-process workloads, more than any bound the contract allows.
    p99 = median([p99 for _, p99 in slice_quantiles])
    print(f"{'lat_p99_ms':<16} {p99:>14.4f} {reference.at_nominal(p99, 'ms'):>14.4f} ms"
          "  (not an end-to-end metric)")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="smoke-test size")
    parser.add_argument(
        "--corrupt-oracle", action="store_true",
        help="shift oracle entries by 1.0: the run must report them and exit 1",
    )
    args = parser.parse_args()

    enter_checkout()
    # A terminated run still tears its server and shard workers down.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    import common
    from repro.kernels import native_kernel, native_kernel_error

    if args.workload not in common.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; one of {sorted(common.WORKLOADS)}")
    if native_kernel() is None:
        sys.exit(f"native C kernel unavailable ({native_kernel_error()}); refusing "
                 "to measure the numpy/pure fallback")
    workload = common.WORKLOADS[args.workload]
    if args.quick:
        workload = workload.quick()

    env = common.fingerprint()
    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  quick {args.quick}")
    print(f"parameters: {dataclasses.asdict(workload)}")
    plan = make_plan(workload, args.seed, args.corrupt_oracle)
    if args.trace:
        import ladder

        tally, metrics = ladder.run(plan, SCRATCH, args.quick)
    else:
        measured, reference = run_end_to_end(plan, args.seconds, args.quick)
        tally = measured.tally
        metrics = report_end_to_end(workload, measured, reference)
    env["loadavg_end"] = common.loadavg_1min()
    print(f"environment: {env}")

    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.requests,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if tally.wrong == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
