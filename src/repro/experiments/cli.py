"""Command-line entry point for the experiment drivers.

Usage::

    python -m repro.experiments <experiment-id> [--quick] [--output FILE]
                                [--cache-dir DIR]
    python -m repro.experiments --list
    python -m repro.experiments snapshot save --method PMHL --dataset NY --path DIR
    python -m repro.experiments snapshot load --path DIR [--verify N]
    python -m repro.experiments snapshot info --path DIR
    python -m repro.experiments obs [--methods PMHL,PostMHL] [--side N]
                                    [--metrics-out FILE] [--trace-out FILE]
    python -m repro.experiments cluster [--method PMHL] [--workers 4]
                                        [--snapshot DIR] [--duration S]
    python -m repro.experiments serve [--snapshot DIR] [--workers N]
                                      [--host H] [--port P] [--qos S]

``experiment-id`` is one of the keys of :data:`repro.experiments.EXPERIMENTS`
(``table1``, ``exp1`` … ``exp9``, ``ablations``) or ``all``.  The driver's rows
are printed as a plain-text table and optionally written to a CSV file.
``--cache-dir`` enables the snapshot build cache (see
:mod:`repro.experiments.build_cache`), so reruns and parameter sweeps skip
redundant index construction; the ``snapshot`` subcommand manages standalone
index snapshots (build-and-save, load-and-verify, inspect); the ``obs``
subcommand runs an instrumented build/maintenance/query workload with
``repro.obs`` enabled and dumps a Prometheus-text metrics file plus a
``chrome://tracing``-loadable trace; the ``cluster`` subcommand serves a
mixed query/update workload from a sharded multi-process
:class:`~repro.cluster.engine.ClusterEngine` over a shared mmap snapshot and
reports per-shard counters and sustained QPS.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from typing import Dict, List, Optional, Sequence

from repro.experiments import EXPERIMENTS
from repro.experiments.config import DEFAULT_CONFIG
from repro.experiments.runner import print_experiment


def _write_csv(rows: List[Dict[str, object]], path: str) -> None:
    if not rows:
        return
    columns: List[str] = []
    for row in rows:
        for column in row:
            if column not in columns:
                columns.append(column)
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures on the synthetic analogs.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        default=None,
        help="experiment id (table1, exp1..exp9, ablations) or 'all'",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="use the reduced quick configuration (same one the benchmarks use)",
    )
    parser.add_argument(
        "--list", action="store_true", dest="list_experiments",
        help="list the available experiment ids and exit",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="optional CSV file to write the result rows to",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="enable the snapshot build cache in this directory "
        "(skips redundant index rebuilds across experiments and reruns)",
    )
    return parser


def build_snapshot_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments snapshot",
        description="Build, persist, load and inspect index snapshots (repro.store).",
    )
    parser.add_argument("action", choices=("save", "load", "info"))
    parser.add_argument("--path", required=True, help="snapshot directory")
    parser.add_argument(
        "--method", default="PMHL", help="registered method name (save only)"
    )
    parser.add_argument(
        "--dataset", default="NY", help="synthetic dataset name (save only)"
    )
    parser.add_argument(
        "--verify",
        type=int,
        default=0,
        metavar="N",
        help="after loading, cross-check N sampled queries against Dijkstra",
    )
    return parser


def _snapshot_main(argv: Sequence[str]) -> int:
    from repro.store import load_index, read_manifest, save_index

    args = build_snapshot_parser().parse_args(argv)

    if args.action == "info":
        manifest = read_manifest(args.path)
        print(json.dumps(manifest, indent=2))
        return 0

    if args.action == "save":
        from repro.graph.generators import load_dataset
        from repro.registry import create_index, spec_from_config

        graph = load_dataset(args.dataset)
        index = create_index(spec_from_config(args.method, DEFAULT_CONFIG), graph)
        started = time.perf_counter()
        index.build()
        built = time.perf_counter() - started
        save_index(index, args.path)
        print(
            f"saved {args.method} on {args.dataset} "
            f"(n={graph.num_vertices}, built in {built:.2f}s) to {args.path}"
        )
        return 0

    started = time.perf_counter()
    index = load_index(args.path)
    loaded = time.perf_counter() - started
    print(
        f"loaded {index.name} (n={index.graph.num_vertices}, "
        f"size={index.index_size()}) in {loaded:.3f}s"
    )
    if args.verify > 0:
        import math

        from repro.algorithms.dijkstra import dijkstra_distance
        from repro.throughput.workload import sample_query_pairs

        pairs = list(sample_query_pairs(index.graph, args.verify, seed=1))
        mismatches = 0
        for source, target in pairs:
            answer = index.query(source, target)
            oracle = dijkstra_distance(index.graph, source, target)
            # Label-based answers are bit-identical; BiDijkstra's split sum
            # may differ from the unidirectional oracle in the last ulp.
            if answer != oracle and not math.isclose(answer, oracle, rel_tol=1e-9):
                mismatches += 1
        print(f"verified {len(pairs)} queries against Dijkstra: {mismatches} mismatches")
        return 1 if mismatches else 0
    return 0


def build_obs_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments obs",
        description="Run an instrumented workload (build + update batches + "
        "queries) with repro.obs enabled; dump metrics and a Chrome trace.",
    )
    parser.add_argument(
        "--methods",
        default="PMHL,PostMHL",
        help="comma-separated registered method names (default: PMHL,PostMHL)",
    )
    parser.add_argument(
        "--side", type=int, default=50,
        help="grid side length; the workload runs on a side x side road grid",
    )
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument(
        "--queries", type=int, default=400, help="queries per method (served in batches)"
    )
    parser.add_argument(
        "--batches", type=int, default=3, help="update batches per method"
    )
    parser.add_argument(
        "--batch-size", type=int, default=20, help="edge updates per batch"
    )
    parser.add_argument(
        "--metrics-out", default="obs_metrics.prom",
        help="Prometheus-text metrics dump (default: obs_metrics.prom)",
    )
    parser.add_argument(
        "--json-out", default=None, help="optional JSON metrics dump"
    )
    parser.add_argument(
        "--trace-out", default="obs_trace.json",
        help="Chrome trace-event file, loadable in chrome://tracing "
        "(default: obs_trace.json)",
    )
    return parser


def _obs_main(argv: Sequence[str]) -> int:
    args = build_obs_parser().parse_args(argv)

    from repro import obs
    from repro.graph.generators import grid_road_network
    from repro.graph.updates import generate_update_batch
    from repro.registry import create_index, registered_methods
    from repro.serving.engine import ServingEngine
    from repro.throughput.workload import sample_query_pairs

    methods = [name.strip() for name in args.methods.split(",") if name.strip()]
    known = set(registered_methods())
    unknown = [name for name in methods if name not in known]
    if unknown:
        build_obs_parser().error(
            f"unknown method(s): {', '.join(unknown)} (registered: {sorted(known)})"
        )

    obs.enable()
    base_graph = grid_road_network(args.side, args.side, seed=args.seed)
    print(
        f"observing {', '.join(methods)} on a {args.side}x{args.side} grid "
        f"(n={base_graph.num_vertices}, m={base_graph.num_edges})"
    )

    for method in methods:
        graph = base_graph.copy()
        index = create_index(method, graph)
        with obs.span("obs_cli.workload", method=method):
            with ServingEngine(index) as engine:
                pairs = list(
                    sample_query_pairs(graph, args.queries, seed=args.seed + 1)
                )
                half = len(pairs) // 2
                engine.query_batch(pairs[:half])
                for number in range(args.batches):
                    batch = generate_update_batch(
                        engine.index.graph,
                        volume=args.batch_size,
                        seed=args.seed + 10 + number,
                    )
                    engine.submit_batch(batch)
                    engine.wait_for_maintenance()
                engine.query_batch(pairs[half:])
                stats = engine.stats()
        print(
            f"  {method}: built in {index.build_seconds:.2f}s, "
            f"{stats['queries_served']} queries served, "
            f"{stats['batches_applied']} batches installed"
        )

    with open(args.metrics_out, "w") as handle:
        handle.write(obs.export_prometheus())
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(obs.export_json(), handle, indent=2)
    obs.export_chrome_trace(args.trace_out)
    tracer = obs.tracer()
    print(f"wrote {len(obs.registry().names())} metric families to {args.metrics_out}")
    print(
        f"wrote {len(tracer)} spans to {args.trace_out} "
        "(open in chrome://tracing or https://ui.perfetto.dev)"
    )
    return 0


def build_cluster_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments cluster",
        description="Serve a mixed query/update workload from a sharded "
        "multi-process cluster over a shared mmap snapshot (repro.cluster).",
    )
    parser.add_argument(
        "--snapshot",
        default=None,
        help="existing snapshot directory to cluster (default: build "
        "--method on --dataset and snapshot it into a temp dir)",
    )
    parser.add_argument(
        "--method", default="PMHL", help="registered method name (when building)"
    )
    parser.add_argument(
        "--dataset", default="NY", help="synthetic dataset name (when building)"
    )
    parser.add_argument("--workers", type=int, default=4, help="shard process count")
    parser.add_argument(
        "--duration", type=float, default=3.0, help="seconds of closed-loop serving"
    )
    parser.add_argument(
        "--batch-queries", type=int, default=256,
        help="queries per dispatched batch (the cluster's unit of scatter)",
    )
    parser.add_argument(
        "--update-batches", type=int, default=2,
        help="update batches installed (two-phase epoch barrier) during the run",
    )
    parser.add_argument(
        "--update-volume", type=int, default=20, help="edge updates per batch"
    )
    parser.add_argument("--qos", type=float, default=None, help="response QoS bound (s)")
    parser.add_argument("--seed", type=int, default=5)
    return parser


def _cluster_main(argv: Sequence[str]) -> int:
    args = build_cluster_parser().parse_args(argv)

    import tempfile

    from repro.cluster import ClusterEngine
    from repro.graph.updates import generate_update_stream
    from repro.store import load_snapshot_graph
    from repro.throughput.workload import sample_query_pairs

    with tempfile.TemporaryDirectory(prefix="repro_cluster_") as scratch:
        snapshot = args.snapshot
        if snapshot is None:
            from repro.graph.generators import load_dataset
            from repro.registry import create_index, spec_from_config
            from repro.store import save_index

            graph = load_dataset(args.dataset)
            index = create_index(spec_from_config(args.method, DEFAULT_CONFIG), graph)
            print(f"building {args.method} on {args.dataset} (n={graph.num_vertices})...")
            index.build()
            snapshot = f"{scratch}/gen-000000"
            save_index(index, snapshot, atomic=True, generation=0)

        graph = load_snapshot_graph(snapshot)
        pairs = list(
            sample_query_pairs(graph, max(args.batch_queries, 512), seed=args.seed)
        )
        batches = generate_update_stream(
            graph, args.update_batches, args.update_volume, seed=args.seed + 1
        )

        engine = ClusterEngine(
            snapshot,
            num_workers=args.workers,
            response_qos=args.qos,
            publish_dir=f"{scratch}/gens",
        )
        with engine:
            print(f"cluster up: {engine.num_workers} workers over {snapshot}")
            for batch in batches:
                engine.submit_batch(batch)
            deadline = time.perf_counter() + args.duration
            served = 0
            cursor = 0
            while time.perf_counter() < deadline:
                chunk = [
                    pairs[(cursor + offset) % len(pairs)]
                    for offset in range(args.batch_queries)
                ]
                cursor += args.batch_queries
                served += len(engine.serve_batch(chunk))
            engine.wait_for_maintenance()
            stats = engine.stats()

        print(
            f"served {served} queries in {args.duration:.1f}s "
            f"({stats['lifetime_qps']:.0f} QPS lifetime), epoch {stats['epoch']}, "
            f"{stats['respawns']} respawns, store generation {stats['store_generation']}"
        )
        latency = stats["latency"]
        print(
            f"latency p50/p95/p99: {latency['p50_seconds'] * 1e6:.0f}/"
            f"{latency['p95_seconds'] * 1e6:.0f}/"
            f"{latency['p99_seconds'] * 1e6:.0f} us (amortised per query)"
        )
        for row in stats["workers"]:
            print(
                f"  shard {row['worker']} (pid {row['pid']}): "
                f"{row['queries_served']} queries, {row['adopts']} adopts, "
                f"epoch {row['epoch']}"
            )
    return 0


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments serve",
        description="Expose a serving engine (single-process or sharded "
        "cluster) over the asyncio network query plane (repro.server).",
    )
    parser.add_argument(
        "--snapshot",
        default=None,
        help="snapshot directory to warm-start from (default: build --method "
        "on --dataset in-process first)",
    )
    parser.add_argument(
        "--method", default="PMHL", help="registered method name (when building)"
    )
    parser.add_argument(
        "--dataset", default="NY", help="synthetic dataset name (when building)"
    )
    parser.add_argument("--host", default="127.0.0.1", help="listen address")
    parser.add_argument(
        "--port", type=int, default=0,
        help="listen port (0 binds an ephemeral port and prints it)",
    )
    parser.add_argument(
        "--workers", type=int, default=0,
        help="shard process count; 0 serves from a single-process "
        "ServingEngine, >=1 from a ClusterEngine over the snapshot",
    )
    parser.add_argument(
        "--qos", type=float, default=None,
        help="response QoS bound in seconds (enables Lemma-1 admission -> "
        "RETRY backpressure frames)",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=64,
        help="global in-flight request cap before RETRY frames",
    )
    parser.add_argument(
        "--max-inflight-per-conn", type=int, default=16,
        help="per-connection in-flight cap (a slow client only saturates itself)",
    )
    parser.add_argument(
        "--duration", type=float, default=None,
        help="serve for this many seconds then drain (default: until Ctrl-C)",
    )
    parser.add_argument(
        "--announce", default=None, metavar="FILE",
        help="write 'host port' to FILE once listening (for scripts/tests)",
    )
    return parser


def _serve_main(argv: Sequence[str]) -> int:
    args = build_serve_parser().parse_args(argv)

    import asyncio
    import contextlib
    import tempfile

    from repro.server import QueryServer

    async def _run(backend) -> None:
        server = QueryServer(
            backend,
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            max_inflight_per_connection=args.max_inflight_per_conn,
        )
        await server.start()
        host, port = server.address
        print(f"serving on {host}:{port} (drain with Ctrl-C)", flush=True)
        if args.announce:
            with open(args.announce, "w") as handle:
                handle.write(f"{host} {port}\n")
        try:
            if args.duration is not None:
                await asyncio.sleep(args.duration)
            else:  # pragma: no cover - interactive path
                await asyncio.Event().wait()
        finally:
            print("draining...", flush=True)
            await server.stop()
            stats = server.stats()
            print(
                f"served {stats['requests_total']} requests "
                f"({stats['retries_total']} retries, "
                f"{stats['errors_total']} errors) over "
                f"{stats['connections_total']} connections"
            )

    with contextlib.ExitStack() as stack:
        snapshot = args.snapshot
        if snapshot is None and args.workers > 0:
            # The cluster warm-starts its shards from disk, so build once and
            # snapshot into a scratch directory first.
            scratch = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro_serve_")
            )
            snapshot = f"{scratch}/gen-000000"
            _build_snapshot(args.method, args.dataset, snapshot)

        if args.workers > 0:
            from repro.cluster import ClusterEngine

            backend = ClusterEngine(
                snapshot, num_workers=args.workers, response_qos=args.qos
            )
        elif snapshot is not None:
            from repro.serving.engine import ServingEngine

            backend = ServingEngine.from_snapshot(snapshot, response_qos=args.qos)
        else:
            from repro.graph.generators import load_dataset
            from repro.registry import create_index, spec_from_config
            from repro.serving.engine import ServingEngine

            graph = load_dataset(args.dataset)
            index = create_index(spec_from_config(args.method, DEFAULT_CONFIG), graph)
            print(
                f"building {args.method} on {args.dataset} "
                f"(n={graph.num_vertices})...", flush=True,
            )
            index.build()
            backend = ServingEngine(index, response_qos=args.qos)
        stack.enter_context(backend)

        try:
            asyncio.run(_run(backend))
        except KeyboardInterrupt:  # pragma: no cover - interactive path
            pass
    return 0


def _build_snapshot(method: str, dataset: str, path: str) -> None:
    from repro.graph.generators import load_dataset
    from repro.registry import create_index, spec_from_config
    from repro.store import save_index

    graph = load_dataset(dataset)
    index = create_index(spec_from_config(method, DEFAULT_CONFIG), graph)
    print(f"building {method} on {dataset} (n={graph.num_vertices})...", flush=True)
    index.build()
    save_index(index, path, atomic=True, generation=0)


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    if argv and argv[0] == "snapshot":
        return _snapshot_main(argv[1:])
    if argv and argv[0] == "obs":
        return _obs_main(argv[1:])
    if argv and argv[0] == "cluster":
        return _cluster_main(argv[1:])
    if argv and argv[0] == "serve":
        return _serve_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.cache_dir:
        from repro.experiments.build_cache import set_cache_dir

        set_cache_dir(args.cache_dir)

    if args.list_experiments or args.experiment is None:
        print("available experiments:")
        for key, module in EXPERIMENTS.items():
            summary = (module.__doc__ or "").strip().splitlines()[0]
            print(f"  {key:<10} {summary}")
        return 0

    requested = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [name for name in requested if name not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")

    config = DEFAULT_CONFIG.quick() if args.quick else DEFAULT_CONFIG
    all_rows: List[Dict[str, object]] = []
    for name in requested:
        module = EXPERIMENTS[name]
        rows = module.run(config, quick=args.quick)
        title = (module.__doc__ or name).strip().splitlines()[0]
        print_experiment(title, rows)
        all_rows.extend({"experiment": name, **row} for row in rows)

    if args.output:
        _write_csv(all_rows, args.output)
        print(f"\nwrote {len(all_rows)} rows to {args.output}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
