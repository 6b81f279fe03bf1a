"""Snapshot persistence benchmark: rebuild vs. mmap-backed load, per method.

Builds a medium grid analog, saves every method through ``repro.store`` and
measures

* ``build_seconds`` — full construction from the raw graph on the pure-Python
  rung (what a machine without a compiler pays, and what the load bar has
  been measured against since it was set); ``build_native_seconds`` is the
  same construction through the native shortcut and label passes,
* ``save_seconds`` — snapshot serialization,
* ``load_seconds`` — ``load_index`` (graph reconstruction + state restore +
  kernel-store reattachment), the median of ``LOAD_SAMPLES`` loads, and
* ``first_query_us`` — the first scalar query after the load (warm-start
  latency: the reattached stores mean no re-freeze is paid).  For N-CH-P
  and P-TD-P it is mostly the lift matrix of the queried partition, which
  the first Q3/Q4 query of *every* epoch builds (``_lift_matrix``, about
  10 ms for N-CH-P's over CH stores and 2.5 ms for P-TD-P's at 50²): a
  per-epoch cost of the PSP query, not load work left lazy, and
* ``apply_built_s`` / ``apply_loaded_s`` / ``apply_ratio`` — CPU time of one
  maintenance window on the built index and on the loaded one, the same
  batches applied to both in alternating order,

asserting along the way that the loaded index answers a query sample
bit-identically to the rebuilt original, before and after the updates.  The
headline acceptance bar — a persisted medium index loads **≥ 10x faster**
than it rebuilds — is asserted for the label-heavy methods (DH2H, PMHL,
PostMHL) and recorded per method in ``BENCH_store.json``.  The second bar
keeps the load lazy *and* free: once its containers are materialised a loaded
index maintains at built-index speed, so the median ``apply_ratio`` of every
maintained method stays **≤ 1.3**.  Run directly::

    PYTHONPATH=src python benchmarks/bench_store.py [--out BENCH_store.json]
                                                    [--side 50]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import tempfile
import time
from typing import Dict, List
from unittest import mock

import repro.labeling.h2h as h2h_module
import repro.treedec.slots as slots_module
from repro.graph.generators import grid_road_network
from repro.graph.updates import generate_update_batch
from repro.registry import create_index, get_spec
from repro.store import load_index, save_index
from repro.throughput.workload import sample_query_pairs

#: All nine methods on quick-config construction parameters.
SPECS = {
    "BiDijkstra": get_spec("BiDijkstra"),
    "DCH": get_spec("DCH"),
    "DH2H": get_spec("DH2H"),
    "MHL": get_spec("MHL"),
    "TOAIN": get_spec("TOAIN", checkin_fraction=0.25),
    "N-CH-P": get_spec("N-CH-P", num_partitions=4, seed=0),
    "P-TD-P": get_spec("P-TD-P", num_partitions=4, seed=0),
    "PMHL": get_spec("PMHL", num_partitions=4, seed=0),
    "PostMHL": get_spec("PostMHL", bandwidth=12, expected_partitions=4),
}

#: Methods whose construction cost is dominated by contraction + label work —
#: the ones the ≥10x load-vs-rebuild acceptance bar applies to.  (BiDijkstra
#: has nothing to persist; the per-partition CH baselines build too little
#: state for a 10x gap at this size.)
HEAVY_METHODS = ("DH2H", "PMHL", "PostMHL")

#: The bar guards the load.  The build is timed on the pure rung (its shortcut
#: and label passes patched to the numpy loops), so no native kernel moves the
#: numerator; a change to the pure build itself does, and is re-measured
#: against the bar.
SPEEDUP_BAR = 10.0
#: Timed loads per method; ``load_seconds`` is their median (one sample read
#: PostMHL within 1% of the bar).
LOAD_SAMPLES = 5
DEFAULT_SIDE = 50
QUERY_SAMPLE = 50

#: Loaded-vs-built maintenance bar: the median CPU-time ratio of an update
#: window, over ``APPLY_BATCHES`` timed batches after one warm-up batch (the
#: warm-up is where the loaded index materialises its lazy containers).
APPLY_RATIO_BAR = 1.3
APPLY_BATCHES = 6
UPDATE_VOLUME = 20
#: BiDijkstra keeps no index: its "window" is 20 weight writes, all noise.
UNMAINTAINED = ("BiDijkstra",)


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(path, name)) for name in os.listdir(path)
    )


def _timed_build(index) -> float:
    start = time.perf_counter()
    index.build()
    return time.perf_counter() - start


def _timed_apply(index, batch) -> float:
    start = time.process_time()
    index.apply_batch(batch)
    return time.process_time() - start


def _apply_times(built, loaded) -> Dict[str, float]:
    """Median CPU seconds of one update window on each index, and their ratio."""
    built_s: List[float] = []
    loaded_s: List[float] = []
    sides = [(built, built_s), (loaded, loaded_s)]
    for i in range(APPLY_BATCHES + 1):
        batch = generate_update_batch(built.graph, UPDATE_VOLUME, seed=100 + i)
        for index, times in sides if i % 2 == 0 else reversed(sides):
            times.append(_timed_apply(index, batch))
    ratios = [slow / fast for slow, fast in zip(loaded_s[1:], built_s[1:])]
    return {
        "apply_built_s": statistics.median(built_s[1:]),
        "apply_loaded_s": statistics.median(loaded_s[1:]),
        "apply_ratio": statistics.median(ratios),
    }


def run(out_path: str, side: int = DEFAULT_SIDE) -> Dict[str, object]:
    base = grid_road_network(side, side, seed=5)
    pairs = list(sample_query_pairs(base, QUERY_SAMPLE, seed=3))
    report: Dict[str, object] = {
        "benchmark": "index snapshot persistence (repro.store)",
        "graph": {
            "kind": "grid",
            "side": side,
            "vertices": base.num_vertices,
            "edges": base.num_edges,
        },
        "speedup_bar": SPEEDUP_BAR,
        "apply_ratio_bar": APPLY_RATIO_BAR,
        "heavy_methods": list(HEAVY_METHODS),
        "python": platform.python_version(),
        "methods": {},
    }

    with tempfile.TemporaryDirectory(prefix="bench_store_") as tmp:
        for name, spec in SPECS.items():
            index = create_index(spec, base.copy())
            with mock.patch.object(h2h_module, "native_kernel", lambda: None), \
                    mock.patch.object(slots_module, "native_kernel", lambda: None):
                build_seconds = _timed_build(index)
            expected = index.query_many(pairs)
            # Scalar-plane reference: BiDijkstra's scalar query differs from
            # its batch plane in the last ulp (DESIGN.md §6), so the
            # first-query check must compare within the scalar plane.
            expected_scalar = index.query(*pairs[0])

            path = os.path.join(tmp, name.replace("/", "_"))
            start = time.perf_counter()
            save_index(index, path)
            save_seconds = time.perf_counter() - start

            load_index(path)  # warm the page cache: measure load, not disk spin-up
            samples = []
            for _ in range(LOAD_SAMPLES):
                loaded = None
                gc.collect()  # nor the build's collector debt (a full pass is ~25 ms)
                start = time.perf_counter()
                loaded = load_index(path)
                samples.append(time.perf_counter() - start)
            load_seconds = statistics.median(samples)

            start = time.perf_counter()
            first = loaded.query(*pairs[0])
            first_query_us = 1e6 * (time.perf_counter() - start)
            assert first == expected_scalar, name
            assert loaded.query_many(pairs) == expected, name

            entry = {
                "build_seconds": build_seconds,
                "save_seconds": save_seconds,
                "load_seconds": load_seconds,
                "first_query_us": first_query_us,
                "snapshot_bytes": _dir_bytes(path),
                "load_speedup": build_seconds / load_seconds,
                "heavy": name in HEAVY_METHODS,
            }
            report["methods"][name] = entry
            print(
                f"{name:>10}: build {build_seconds:6.2f}s  save {save_seconds:5.2f}s  "
                f"load {load_seconds:6.3f}s  ({entry['load_speedup']:5.1f}x, "
                f"{entry['snapshot_bytes'] / 1e6:6.1f} MB, "
                f"first query {first_query_us:6.1f} us)"
            )

        # Second pass, so the timed loads above never run beside the heap of
        # two fully materialised indexes (a full collection landing inside a
        # 15 ms load would be charged to it): maintenance parity.
        for name, spec in SPECS.items():
            index = create_index(spec, base.copy())
            build_native_seconds = _timed_build(index)
            loaded = load_index(os.path.join(tmp, name.replace("/", "_")))
            applied = _apply_times(index, loaded)
            assert loaded.query_many(pairs) == index.query_many(pairs), name
            report["methods"][name].update(
                applied, build_native_seconds=build_native_seconds
            )
            print(
                f"{name:>10}: apply {applied['apply_built_s']:6.3f}s built / "
                f"{applied['apply_loaded_s']:6.3f}s loaded "
                f"({applied['apply_ratio']:4.2f}x)"
            )

    for name in HEAVY_METHODS:
        speedup = report["methods"][name]["load_speedup"]
        assert speedup >= SPEEDUP_BAR, (
            f"{name}: loading must be >= {SPEEDUP_BAR}x faster than rebuilding, "
            f"got {speedup:.1f}x"
        )

    for name, entry in report["methods"].items():
        if name in UNMAINTAINED:
            continue
        assert entry["apply_ratio"] <= APPLY_RATIO_BAR, (
            f"{name}: a loaded index must maintain within {APPLY_RATIO_BAR}x of "
            f"the built one, got {entry['apply_ratio']:.2f}x"
        )

    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print(f"\nwrote {out_path}")
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="BENCH_store.json", help="output JSON path"
    )
    parser.add_argument(
        "--side", type=int, default=DEFAULT_SIDE, help="grid side length"
    )
    args = parser.parse_args()
    run(args.out, side=args.side)


if __name__ == "__main__":
    main()
