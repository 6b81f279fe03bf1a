"""Kernel benchmark: query latencies for all nine indexes, update windows for
the eight maintained ones.

Measures, on the quick configuration (a seeded grid analog), the per-query
latency of every registered method with the frozen kernels on versus the
pure-Python reference path (``use_kernels=False``), for

* the scalar ``query`` loop, and
* the batch plane (``query_many`` over a pair batch),

then PMHL's five query stages one by one (recorded only, no bar), then
the milliseconds of a full freeze and of a refreeze of DCH's shortcut store
(the store over the slot arrays as they stand), PMHL's cross-boundary label
store (the store wrapping the label arena as it stands) and the graph
snapshot (a copy patched at one batch's edge slots; recorded only, no bar),
then the median milliseconds of one DCH, one DH2H and one PMHL
update window (``dch_window`` / ``dh2h_window`` / ``pmhl_window``), then,
per maintained method, the CPU time of alternating ``apply_batch`` windows
with the native maintenance kernels (``update_labels`` / ``update_slots``)
and with them patched out (the pure loops they port), and writes the rows
plus the derived speedups to ``BENCH_kernels.json`` — the machine-readable
perf trajectory seeded by this benchmark and uploaded as a CI artifact.
Run directly::

    PYTHONPATH=src python benchmarks/bench_kernels.py [--out BENCH_kernels.json]

Equivalence (kernel results == reference results, bit-for-bit) is asserted
on every method while measuring — for the update windows on the answers of
the two maintained indexes afterwards — so a speedup can never come from
answering a different question.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import platform
import statistics
import time
from typing import Dict, List, Optional, Tuple

import repro.labeling.h2h as h2h_module
import repro.treedec.slots as slots_module
from repro.graph.generators import grid_road_network
from repro.graph.updates import generate_update_batch
from repro.kernels.graph_snapshot import GraphSnapshot
from repro.kernels.arena import Arena
from repro.kernels.label_store import LabelStore, layout_arrays
from repro.kernels.native import native_kernel, native_kernel_error
from repro.kernels.shortcut_store import ShortcutStore
from repro.registry import create_index, get_spec
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

#: Methods whose labels freeze into the CSR LabelStore (the H2H family) —
#: the batch acceptance bar (≥12x vs pure Python) applies to these.
H2H_FAMILY = ("DH2H", "MHL", "PMHL", "PostMHL")
#: Methods whose query plane is a bidirectional search over frozen CSR
#: arrays (GraphSnapshot / ShortcutStore) — the CH-search acceptance bar
#: (≥2x scalar and batch) applies to these.
CH_SEARCH_FAMILY = ("BiDijkstra", "DCH", "TOAIN", "N-CH-P", "P-TD-P")

#: Methods whose update window is mostly the label loop: the native
#: maintenance kernels must keep it ≥1.5x cheaper than the pure rung
#: (measured 3-4x; loose on purpose).  The other maintained methods — every
#: spec but the index-free BiDijkstra — are recorded without a bar.
MAINTENANCE_BARS = {"DH2H": 1.5, "P-TD-P": 1.5, "PMHL": 1.5, "PostMHL": 1.5}

GRID = 52
UPDATE_WINDOWS = 6
UPDATE_VOLUME = 20
SCALAR_QUERIES = 400
BATCH_QUERIES = 4000
#: The per-pair search baselines (index-free / CH searches) are orders of
#: magnitude slower per query; smaller counts keep the run short.
SLOW_METHODS = {"BiDijkstra": (60, 240), "DCH": (150, 600), "TOAIN": (150, 600),
                "N-CH-P": (60, 240), "P-TD-P": (150, 600)}
#: Pairs per batch of the PMHL per-stage rows.
STAGE_BATCH = 64
STAGE_BATCHES = 4
#: Timed freezes per refreeze row (median reported).
FREEZE_REPEATS = 7
#: Timed update windows of the ``dch_window`` / ``dh2h_window`` /
#: ``pmhl_window`` rows (median reported).
TIMED_WINDOWS = 9


def _measure(index, pairs: List[Tuple[int, int]], scalar_n: int) -> Dict[str, object]:
    scalar_pairs = pairs[:scalar_n]
    # Warm-up freezes the stores outside the timed region (a freeze is paid
    # once per update epoch, not per query).  The one-to-many warm-up group is
    # large enough to trigger every batch-only store (e.g. TOAIN's hub table).
    index.query(*pairs[0])
    index.query_many(pairs[:4])
    index.query_one_to_many(pairs[0][0], [t for _, t in pairs[:16]])

    start = time.perf_counter()
    scalar = [index.query(s, t) for s, t in scalar_pairs]
    scalar_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batch = index.query_many(pairs)
    batch_seconds = time.perf_counter() - start
    return {
        "scalar_seconds": scalar_seconds,
        "scalar_us_per_query": 1e6 * scalar_seconds / len(scalar_pairs),
        "batch_seconds": batch_seconds,
        "batch_us_per_query": 1e6 * batch_seconds / len(pairs),
        "_scalar_results": scalar,
        "_batch_results": batch,
    }


def _measure_stages(index, pairs: List[Tuple[int, int]]) -> Dict[str, Dict[str, float]]:
    """µs per query of every PMHL query stage, on the kernel rung.

    ``scalar`` answers pair by pair through the stage's ``stage_catalog()``
    row; ``batch`` in ``STAGE_BATCH``-pair batches through the stage's batch
    form — the PSP join (``_psp_query_many``) for NO_BOUNDARY / POST_BOUNDARY,
    L*'s pair kernel for CROSS_BOUNDARY and the scalar loop for the two
    search stages, which have none.  Both must return the same bits.
    """
    batch_forms = {
        "NO_BOUNDARY": lambda batch: index._psp_query_many(batch, index.family, False),
        "POST_BOUNDARY":
            lambda batch: index._psp_query_many(batch, index.extended_family, True),
        "CROSS_BOUNDARY": index.query_many,
    }
    batches = [pairs[i:i + STAGE_BATCH]
               for i in range(0, STAGE_BATCH * STAGE_BATCHES, STAGE_BATCH)]
    rows: Dict[str, Dict[str, float]] = {}
    for stage in index.stage_catalog():
        def scalar_form(batch, query=stage.query):
            return [query(s, t) for s, t in batch]

        batch_form = batch_forms.get(stage.name, scalar_form)
        batch_form(batches[0][:4])  # freezes the stage's stores outside the timing
        seconds, answers = {}, {}
        for plane, form in (("scalar", scalar_form), ("batch", batch_form)):
            start = time.perf_counter()
            answers[plane] = [form(batch) for batch in batches]
            seconds[plane] = time.perf_counter() - start
        assert answers["scalar"] == answers["batch"], stage.name
        rows[stage.name] = {
            plane + "_us_per_query": 1e6 * value / (STAGE_BATCH * STAGE_BATCHES)
            for plane, value in seconds.items()
        }
    return rows


@contextlib.contextmanager
def _pure_maintenance():
    """Run the update loops on their pure rung (what a missing compiler gives)."""
    modules = (h2h_module, slots_module)
    saved = [module.native_kernel for module in modules]
    for module in modules:
        module.native_kernel = lambda: None
    try:
        yield
    finally:
        for module, function in zip(modules, saved):
            module.native_kernel = function


def _measure_maintenance(native_index, pure_index, pairs) -> Optional[Dict[str, float]]:
    """CPU seconds of the same update windows on both rungs, alternating which
    side goes first; both indexes see the same batches and must agree after."""
    if native_kernel() is None:
        return None
    seconds: Dict[str, List[float]] = {"native": [], "pure": []}
    for window in range(UPDATE_WINDOWS):
        sides = [("native", native_index, contextlib.nullcontext()),
                 ("pure", pure_index, _pure_maintenance())]
        if window % 2:
            sides.reverse()
        for rung, index, patched in sides:
            batch = generate_update_batch(index.graph, UPDATE_VOLUME, seed=100 + window)
            with patched:
                start = time.process_time()
                index.apply_batch(batch)
                seconds[rung].append(time.process_time() - start)
    assert native_index.query_many(pairs) == pure_index.query_many(pairs)
    native_s = statistics.median(seconds["native"])
    pure_s = statistics.median(seconds["pure"])
    return {"apply_native_s": native_s, "apply_pure_s": pure_s,
            "apply_speedup": pure_s / native_s}


def _median_ms(freeze, repeats: int = FREEZE_REPEATS) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        freeze()
        samples.append(time.perf_counter() - start)
    return 1e3 * statistics.median(samples)


def _measure_refreeze(dch, pmhl) -> Optional[Dict[str, Dict[str, float]]]:
    """Full freeze vs refreeze of the three stores a weight-only epoch keeps
    the layout of; the refrozen store must equal the full one byte for byte.

    A full freeze derives the layout afresh (for the label store: the LCA,
    position and offset arrays from the tree, then a copy of the values).
    DCH's and PMHL's refreezes are the stores over their arenas as the last
    pass left them; the graph snapshot's is the previous snapshot patched at
    the slots of one ``UPDATE_VOLUME``-edge batch's edges.
    """
    if native_kernel() is None:
        return None
    contraction = dch.contraction
    labels = pmhl.cross_labels
    edges = [(update.u, update.v)
             for update in generate_update_batch(dch.graph, UPDATE_VOLUME, seed=7)]

    def full_labels():
        arrays = layout_arrays(labels.tree)
        arrays["dis_data"] = labels.arena["dis_data"].copy()
        return LabelStore(Arena.pack(arrays))

    cases = {
        "dch_ch": (
            lambda: ShortcutStore.freeze(contraction.upward, contraction.order),
            lambda template: contraction.store(),
        ),
        "pmhl_cross_labels": (full_labels, lambda template: LabelStore.freeze(labels)),
        "graph_snapshot": (
            lambda: GraphSnapshot.freeze(dch.graph),
            lambda template: template.patched(dch.graph, edges),
        ),
    }
    rows: Dict[str, Dict[str, float]] = {}
    for name, (full, refreeze) in cases.items():
        template = full()
        full_ms = _median_ms(full)
        refreeze_ms = _median_ms(lambda: refreeze(template))
        gathered, rebuilt = refreeze(template), full()
        assert gathered.arena.toc == rebuilt.arena.toc, name
        assert bytes(gathered.arena.buffer) == bytes(rebuilt.arena.buffer), name
        rows[name] = {"full_freeze_ms": full_ms, "refreeze_ms": refreeze_ms,
                      "speedup": full_ms / refreeze_ms}
    return rows


def _measure_window(index, seed: int) -> Dict[str, float]:
    """Median milliseconds of one ``UPDATE_VOLUME``-edge ``apply_batch`` of
    ``index``, over ``TIMED_WINDOWS`` windows."""
    samples = []
    for window in range(TIMED_WINDOWS):
        batch = generate_update_batch(index.graph, UPDATE_VOLUME, seed=seed + window)
        start = time.perf_counter()
        index.apply_batch(batch)
        samples.append(time.perf_counter() - start)
    return {"apply_ms": 1e3 * statistics.median(samples), "edges": UPDATE_VOLUME,
            "windows": TIMED_WINDOWS}


def run(out_path: str) -> Dict[str, object]:
    base = grid_road_network(GRID, GRID, seed=5)
    report: Dict[str, object] = {
        "benchmark": "frozen query kernels",
        "graph": {"kind": "grid", "side": GRID, "vertices": base.num_vertices,
                  "edges": base.num_edges},
        "native_kernel": native_kernel() is not None,
        "native_kernel_error": native_kernel_error(),
        "python": platform.python_version(),
        "update_windows": {"count": UPDATE_WINDOWS, "edges": UPDATE_VOLUME},
        "methods": {},
    }
    built: Dict[str, object] = {}
    for name, spec in SPECS.items():
        scalar_n, batch_n = SLOW_METHODS.get(name, (SCALAR_QUERIES, BATCH_QUERIES))
        pairs = list(sample_query_pairs(base, batch_n, seed=3))

        fast = create_index(spec, base.copy())
        build_seconds = fast.build()
        kernels = _measure(fast, pairs, scalar_n)

        reference = create_index(spec, base.copy(), use_kernels=False)
        reference.build()
        pure = _measure(reference, pairs, scalar_n)

        # Both sides of each comparison use the same query plane (the kernel
        # stores are literal ports), so equality is exact for every method —
        # including BiDijkstra, whose documented ulp exception only concerns
        # batch-vs-scalar *within* one configuration.
        assert kernels["_scalar_results"] == pure["_scalar_results"], name
        assert kernels["_batch_results"] == pure["_batch_results"], name
        for row in (kernels, pure):
            del row["_scalar_results"], row["_batch_results"]

        entry = {
            "build_seconds": build_seconds,
            "kernels": kernels,
            "reference": pure,
            "scalar_speedup": pure["scalar_seconds"] / kernels["scalar_seconds"],
            "batch_speedup": pure["batch_seconds"] / kernels["batch_seconds"],
            "h2h_family": name in H2H_FAMILY,
            "family": "h2h" if name in H2H_FAMILY else "ch_search",
        }
        if name == "PMHL":
            report["pmhl_stages"] = _measure_stages(fast, pairs)
        # After the query rows: the two built indexes become the two rungs of
        # the update-window comparison (``use_kernels`` only selects the query
        # stores; maintenance is the same code on both).
        if name != "BiDijkstra":
            entry["maintenance"] = _measure_maintenance(fast, reference, pairs)
        report["methods"][name] = entry
        if name in ("DCH", "DH2H", "PMHL"):
            built[name] = fast
        print(
            f"{name:>10}: scalar {entry['scalar_speedup']:5.1f}x "
            f"({pure['scalar_us_per_query']:8.1f} -> {kernels['scalar_us_per_query']:7.1f} us)   "
            f"batch {entry['batch_speedup']:5.1f}x "
            f"({pure['batch_us_per_query']:8.1f} -> {kernels['batch_us_per_query']:7.1f} us)"
        )

    for stage, row in report["pmhl_stages"].items():
        print(
            f"{'PMHL ' + stage:>20}: scalar {row['scalar_us_per_query']:8.1f} us   "
            f"{STAGE_BATCH}-pair batch {row['batch_us_per_query']:8.1f} us"
        )

    report["refreeze"] = _measure_refreeze(built["DCH"], built["PMHL"])
    for name, row in (report["refreeze"] or {}).items():
        print(
            f"{name:>20}: full freeze {row['full_freeze_ms']:6.2f} ms   "
            f"refreeze {row['refreeze_ms']:6.2f} ms   ({row['speedup']:4.1f}x)"
        )
    for name, seed in (("DCH", 200), ("DH2H", 250), ("PMHL", 300)):
        row = report[name.lower() + "_window"] = _measure_window(built[name], seed)
        print(f"{name.lower() + '_window':>20}: {row['apply_ms']:6.2f} ms per "
              f"{UPDATE_VOLUME}-edge apply_batch")

    for name, entry in report["methods"].items():
        row = entry.get("maintenance")
        if row is None:
            continue
        print(
            f"{name:>10}: update window {row['apply_speedup']:5.1f}x "
            f"({row['apply_pure_s']:.4f} -> {row['apply_native_s']:.4f} s CPU)"
        )
        bar = MAINTENANCE_BARS.get(name)
        assert bar is None or row["apply_speedup"] >= bar, (
            f"{name}: native maintenance only {row['apply_speedup']:.2f}x the pure rung"
        )

    report["families"] = _family_rows(report["methods"])
    for family, row in report["families"].items():
        print(
            f"{family:>10}: scalar min {row['scalar_speedup_min']:.1f}x "
            f"geomean {row['scalar_speedup_geomean']:.1f}x   "
            f"batch min {row['batch_speedup_min']:.1f}x "
            f"geomean {row['batch_speedup_geomean']:.1f}x"
        )

    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print(f"\nwrote {out_path}")
    return report


def _family_rows(methods: Dict[str, Dict]) -> Dict[str, Dict[str, object]]:
    """Per-family speedup summaries (the acceptance bars are per family)."""
    rows: Dict[str, Dict[str, object]] = {}
    for family, members in (("h2h", H2H_FAMILY), ("ch_search", CH_SEARCH_FAMILY)):
        scalar = [methods[m]["scalar_speedup"] for m in members]
        batch = [methods[m]["batch_speedup"] for m in members]
        rows[family] = {
            "methods": list(members),
            "scalar_speedup_min": min(scalar),
            "scalar_speedup_geomean": math.exp(sum(map(math.log, scalar)) / len(scalar)),
            "batch_speedup_min": min(batch),
            "batch_speedup_geomean": math.exp(sum(map(math.log, batch)) / len(batch)),
        }
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_kernels.json",
                        help="output JSON path (default: BENCH_kernels.json)")
    args = parser.parse_args()
    run(args.out)


if __name__ == "__main__":
    main()
