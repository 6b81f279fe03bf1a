"""Observability overhead benchmark: the disabled fast path must be free.

``repro.obs`` instruments the serving hot path (the ``serve_batch`` span),
the kernel freeze path and every ``apply_batch`` stage.  All of it hides
behind a module-level enabled flag; this benchmark measures what that flag
check costs on a representative serving workload:

* ``baseline`` — the same workload with the ``obs`` module reference in the
  engine core / base hot paths swapped for an inert stub, i.e. the closest
  dynamic approximation of the pre-instrumentation code,
* ``disabled`` — instrumentation present, observability off (the shipped
  default), and
* ``enabled`` — full span + registry recording, for information.

The engine's counters and latency histogram are recorded in every mode: they
are what ``stats()`` reads, and enabling obs only exposes them in the
registry (at engine construction), so no mode pays or skips them.

Modes run interleaved over several rounds and the best round per mode is
compared (minimum wall time is the noise-robust estimator for identical
work).  The acceptance bar — **disabled overhead < 3 %** of baseline
throughput — is asserted and recorded in ``BENCH_obs.json``.  Run directly::

    PYTHONPATH=src python benchmarks/bench_obs.py [--out BENCH_obs.json]
                                                  [--side 30]
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from typing import Dict, List

import repro.base as base_module
import repro.serving.core as core_module
from repro import obs
from repro.graph.generators import grid_road_network
from repro.registry import create_index, get_spec
from repro.serving.engine import ServingEngine
from repro.throughput.workload import sample_query_pairs

OVERHEAD_BAR = 0.03
DEFAULT_SIDE = 30
QUERY_COUNT = 40_000
CHUNK = 64
ROUNDS = 5

#: Modules whose hot paths consult ``obs``; the baseline mode swaps their
#: module-level ``obs`` reference for :class:`_ObsStub`.
_HOT_MODULES = (core_module, base_module)


class _NoopSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


class _ObsStub:
    """Inert stand-in for the ``repro.obs`` module (pre-instrumentation code)."""

    _span = _NoopSpan()

    @staticmethod
    def is_enabled() -> bool:
        return False

    @classmethod
    def span(cls, name, **args):
        return cls._span

    @staticmethod
    def record_span(name, seconds, **args):
        pass


def _serve_workload(engine: ServingEngine, chunks: List[List[tuple]]) -> float:
    """Serve every chunk through the batch plane; returns wall seconds."""
    start = time.perf_counter()
    for chunk in chunks:
        engine.serve_batch(chunk)
    return time.perf_counter() - start


def run(out_path: str, side: int = DEFAULT_SIDE) -> Dict[str, object]:
    graph = grid_road_network(side, side, seed=5)
    spec = get_spec("PMHL", num_partitions=4, seed=0)
    index = create_index(spec, graph)
    index.build()

    pairs = list(sample_query_pairs(graph, QUERY_COUNT, seed=3))
    chunks = [pairs[i : i + CHUNK] for i in range(0, len(pairs), CHUNK)]

    # Cache off: a 100% warm cache would measure dict lookups, not the
    # serving path the instrumentation actually sits on.
    engine = ServingEngine(index, cache_capacity=0).start()
    try:
        # Warm-up: freeze the kernels and JIT-warm the interpreter caches.
        _serve_workload(engine, chunks)

        times: Dict[str, List[float]] = {"baseline": [], "disabled": [], "enabled": []}
        for _ in range(ROUNDS):
            # baseline: hot paths see an inert obs stub.
            obs.disable()
            for module in _HOT_MODULES:
                module.obs = _ObsStub
            try:
                times["baseline"].append(_serve_workload(engine, chunks))
            finally:
                for module in _HOT_MODULES:
                    module.obs = obs

            # disabled: shipped default — instrumentation behind the flag.
            obs.disable()
            times["disabled"].append(_serve_workload(engine, chunks))

            # enabled: full recording.
            obs.enable()
            times["enabled"].append(_serve_workload(engine, chunks))
            obs.disable()
            obs.reset()
    finally:
        engine.stop()

    best = {mode: min(samples) for mode, samples in times.items()}
    qps = {mode: len(pairs) / seconds for mode, seconds in best.items()}
    disabled_overhead = max(0.0, 1.0 - qps["disabled"] / qps["baseline"])
    enabled_overhead = max(0.0, 1.0 - qps["enabled"] / qps["baseline"])

    report: Dict[str, object] = {
        "benchmark": "observability overhead (repro.obs)",
        "graph": {
            "kind": "grid",
            "side": side,
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
        },
        "method": "PMHL",
        "queries": len(pairs),
        "chunk": CHUNK,
        "rounds": ROUNDS,
        "overhead_bar": OVERHEAD_BAR,
        "python": platform.python_version(),
        "seconds": times,
        "best_seconds": best,
        "qps": qps,
        "disabled_overhead": disabled_overhead,
        "enabled_overhead": enabled_overhead,
    }

    for mode in ("baseline", "disabled", "enabled"):
        print(f"{mode:>9}: best {best[mode]:.3f}s  ({qps[mode]:,.0f} qps)")
    print(
        f"disabled overhead {disabled_overhead * 100:.2f}% "
        f"(bar < {OVERHEAD_BAR * 100:.0f}%), "
        f"enabled overhead {enabled_overhead * 100:.2f}%"
    )

    assert disabled_overhead < OVERHEAD_BAR, (
        f"disabled observability must cost < {OVERHEAD_BAR * 100:.0f}% serving "
        f"throughput, measured {disabled_overhead * 100:.2f}%"
    )

    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print(f"\nwrote {out_path}")
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_obs.json", help="output JSON path")
    parser.add_argument(
        "--side", type=int, default=DEFAULT_SIDE, help="grid side length"
    )
    args = parser.parse_args()
    run(args.out, side=args.side)


if __name__ == "__main__":
    main()
