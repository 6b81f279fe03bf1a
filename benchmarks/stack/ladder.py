"""The traced run: the same seeded batches through every layer boundary in turn.

``run.py --trace 1`` builds the workload's index once and climbs three
ladders -- set-up, query and update -- from the frozen kernel store up to the
socket, so that a layer's cost is its rung minus the rung below.  Every timed
call is a span (name, start, end, parent span, batch id) kept in memory and
written to ``trace-<workload>.json`` at exit; the waterfall table goes to
``waterfall-<workload>.md`` (``waterfall.py`` joins the four).  Layer names are
the repo's packages: ``kernels``, ``index``, ``store``, ``serving``,
``cluster``, ``server``.  All answers are checked against the same oracle as
the end-to-end run.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Sequence, Tuple

from repro.kernels import LabelStore, ShortcutStore
from repro.server.protocol import (
    HEADER_BYTES,
    OP_QUERY_BATCH,
    OP_RESULT,
    decode_body,
    encode_frame,
)
from repro.store import load_index

from common import (
    CPUS,
    Plan,
    Reference,
    Reply,
    Tally,
    build_index,
    check_replies,
    cpu_seconds,
    descendants,
    make_graph,
    median,
    pss_mb,
    quantile,
)
from stacks import WireStack, cluster_stack, engine_stack, save_snapshot

#: Timed calls per rung (batch rungs) and scalar requests per scalar rung.
BATCH_CALLS = 200
SCALAR_CALLS = 2000
#: Every batch rung of every workload moves the same 64-pair batches.
LADDER_BATCH = 64


class Tracer:
    """Spans in memory; ``record`` is the only call inside a timed region."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, int, int]] = []
        self._parent = -1

    def record(self, name: str, start: float, end: float, batch_id: int = -1) -> None:
        self.spans.append((name, start, end, self._parent, batch_id))

    @contextmanager
    def rung(self, name: str):
        """A parent span: every span recorded inside points at it."""
        outer, index = self._parent, len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, outer, -1))
        self._parent = index
        try:
            yield
        finally:
            self._parent = outer
            name, start, _, parent, batch_id = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter(), parent, batch_id)

    def write(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "batch_id")
        with open(path, "w") as handle:
            json.dump([dict(zip(keys, span)) for span in self.spans], handle)


class Ladder:
    def __init__(self, plan: Plan, scratch: str, quick: bool) -> None:
        self.workload = workload = plan.workload
        self.scratch = scratch
        self.plan = plan
        self.tracer = Tracer()
        self.reference = Reference(CPUS)
        self.tally = Tally()
        self.values: Dict[str, Tuple[float, str]] = {}
        self.notes: List[str] = []
        calls = 20 if quick else BATCH_CALLS
        self.positions = self.plan.requests((9000,), calls, LADDER_BATCH)
        self.batches = [self.plan.pairs(row) for row in self.positions]
        # Other pairs than the batches hold, or the engine's cache would have
        # seen every scalar request before.
        count = 100 if quick else SCALAR_CALLS
        self.scalar_positions = self.plan.requests((9003,), count, 1)
        self.scalars = [self.plan.pairs(row) for row in self.scalar_positions]

    # ------------------------------------------------------------------
    def put(self, name: str, value: float, unit: str) -> float:
        """Record one per-layer value and take a reference reading: the
        rungs are spread over the run, so the readings are too."""
        self.values[name] = (value, unit)
        self.reference.read()
        return value

    def check(self, positions, replies: Sequence[Reply], epoch: int) -> None:
        check_replies(self.plan, positions[: len(replies)], replies, (epoch,), self.tally)

    def timed(self, name: str, call: Callable[[], object]) -> float:
        with self.tracer.rung(name):
            started = time.perf_counter()
            call()
            return time.perf_counter() - started

    def direct_rung(self, name: str, answer: Callable, scalar: bool) -> float:
        """us/query of ``answer`` called once per request from this thread."""
        payloads = self.scalars if scalar else self.batches
        replies = []
        with self.tracer.rung(name):
            for batch_id, pairs in enumerate(payloads):
                started = time.perf_counter()
                distances = answer(pairs)
                ended = time.perf_counter()
                self.tracer.record(name + ".call", started, ended, batch_id)
                replies.append(Reply(ended - started, distances, 0))
        self.check(self.scalar_positions if scalar else self.positions, replies, 0)
        return self.put(
            name + "_us_per_query",
            1e6 * median([r.latency for r in replies]) / len(payloads[0]),
            "us",
        )

    def stack_rung(
        self, name: str, stack, scalar: bool, closed_loop: bool, cpu_of: Sequence[int] = ()
    ) -> float:
        """us/query through a stack: median latency of one caller, or
        wall time over queries when the stack keeps several in flight.
        ``self.cpu_spent`` gets the CPU seconds the ``cpu_of`` pids used."""
        payloads = self.scalars if scalar else self.batches
        stack.scalar = scalar
        stack.request(payloads[0])  # connection / first-touch warm-up
        before = [cpu_seconds(pid) for pid in cpu_of]
        with self.tracer.rung(name):
            elapsed, replies = stack.run_slice(payloads)
        self.cpu_spent = [cpu_seconds(pid) - was for pid, was in zip(cpu_of, before)]
        self.check(self.scalar_positions if scalar else self.positions, replies, 0)
        if closed_loop:
            per_query = elapsed / (len(payloads) * len(payloads[0]))
        else:
            per_query = median([r.latency for r in replies]) / len(payloads[0])
        return self.put(name + "_us_per_query", 1e6 * per_query, "us")

    def loaded_window(self, stack, quiet_seconds: float, epoch: int) -> None:
        """A^-1 under closed-loop load at the workload's outermost boundary."""
        plan = self.plan
        positions = plan.requests((9001,), 8 * self.workload.slice_requests)
        payloads = [plan.pairs(row) for row in positions]
        with self.tracer.rung("window.loaded"):
            seconds, replies = stack.run_window(plan.cycle[1], payloads)
        check_replies(
            plan, positions[: len(replies)], replies, (epoch, epoch + 1), self.tally
        )
        self.put("window.loaded_s", seconds, "s")
        self.put("window.slowdown", seconds / quiet_seconds, "ratio")
        self.put("window.qps", len(replies) * self.workload.batch_size / seconds, "queries/s")
        latencies = [1e3 * r.latency for r in replies if r.error is None]
        self.put("window.lat_p50_ms", quantile(latencies, 0.5) if latencies else 0.0, "ms")
        stages: Dict[str, int] = {}
        for reply in replies:
            stages[str(reply.stage)] = stages.get(str(reply.stage), 0) + 1
        self.notes.append(
            f"loaded window: {len(replies)} requests, stage shares "
            + ", ".join(f"{k}={v / len(replies):.2f}" for k, v in sorted(stages.items()))
        )

    def overhead(self, stack) -> None:
        """Outermost steady slice with and without span recording, three
        times each in an order (T U U T T U) that cancels a warming trend."""
        plan = self.plan
        stack.scalar = self.workload.batch_size == 1
        rates = {True: [], False: []}
        for turn, traced in enumerate((True, False, False, True, True, False)):
            positions = plan.requests((9002, turn), self.workload.slice_requests)
            payloads = [plan.pairs(row) for row in positions]
            stack.tracer = self.tracer if traced else None
            with self.tracer.rung(f"overhead.{'traced' if traced else 'untraced'}"):
                elapsed, replies = stack.run_slice(payloads)
            epoch = replies[0].epoch
            check_replies(plan, positions, replies, (epoch,), self.tally)
            rates[traced].append(positions.size / elapsed)
        stack.tracer = self.tracer
        self.put("trace.overhead_share", 1.0 - median(rates[True]) / median(rates[False]), "share")
        self.notes.append(
            f"outermost qps traced {median(rates[True]):.0f} vs untraced "
            f"{median(rates[False]):.0f}"
        )

    # ------------------------------------------------------------------
    def value(self, name: str) -> float:
        return self.values[name][0]

    def climb(self) -> None:
        workload = self.workload
        workdir = tempfile.mkdtemp(prefix=f"ladder-{workload.name}-", dir=self.scratch)
        try:
            snapshot = self.climb_in_process(workdir)
            self.climb_cluster(snapshot, workdir)
            self.climb_server(snapshot, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def climb_in_process(self, workdir: str) -> str:
        """kernels, index, store and serving: no other process involved."""
        workload, plan, put = self.workload, self.plan, self.put
        batch_a, batch_a_inv = plan.cycle[0], plan.cycle[1]
        first_batch = self.batches[0]

        graph = make_graph(workload)
        with self.tracer.rung("index.build"):
            started = time.perf_counter()
            index = build_index(workload, graph)
            put("index.build_s", time.perf_counter() - started, "s")
        put("kernels.freeze_s",
            self.timed("kernels.freeze", lambda: index.query_many(first_batch)), "s")
        put("store.save_s",
            self.timed("store.save", lambda: save_snapshot(index, workdir)), "s")
        snapshot = os.path.join(workdir, "gen-000000")
        put("store.load_s",
            self.timed("store.load", lambda: load_index(snapshot).query_many(first_batch)),
            "s")
        put("store.snapshot_mb",
            sum(os.path.getsize(os.path.join(snapshot, f)) for f in os.listdir(snapshot))
            / 2**20,
            "MiB")

        if hasattr(index, "cross_labels"):
            store = LabelStore.freeze(index.cross_labels)
        else:
            store = ShortcutStore.freeze(index.upward_neighbors, index.contraction.order)
        kernel = self.direct_rung("kernels.batch", store.query_pairs, False)
        index_batch = self.direct_rung("index.batch", index.query_many, False)
        index_scalar = self.direct_rung(
            "index.scalar", lambda pairs: (index.query(*pairs[0]),), True
        )
        put("index.batch_added_us", index_batch - kernel, "us")
        put("server.codec_us_per_query", self.codec(index.query_many(first_batch)), "us")

        with self.tracer.rung("index.apply"):
            started = time.perf_counter()
            report = index.apply_batch(batch_a)
            index_apply = put("index.apply_s", time.perf_counter() - started, "s")
        index.apply_batch(batch_a_inv)
        self.notes.append(
            "index.apply stages, as the clock read them: "
            + ", ".join(f"index.stage.{s.name}_s={s.seconds:.4f}" for s in report.stages)
        )

        engine = engine_stack(index)
        engine.tracer = self.tracer
        try:
            serving_batch = self.stack_rung("serving.batch", engine, False, False)
            serving_scalar = self.stack_rung("serving.scalar", engine, True, False)
            put("serving.batch_added_us", serving_batch - index_batch, "us")
            put("serving.scalar_added_us", serving_scalar - index_scalar, "us")
            cache = engine.backend.stats().get("cache", {"hit_rate": 0.0})
            put("serving.cache_hit_share", cache["hit_rate"], "share")
            if workload.stack == "engine":
                self.overhead(engine)
            engine.scalar = workload.batch_size == 1
            with self.tracer.rung("serving.install"):
                install, _ = engine.run_window(batch_a, None)
            put("serving.install_s", install, "s")
            put("serving.install_added_s", install - index_apply, "s")
            first = engine.request(self.scalars[0] if engine.scalar else first_batch)
            put("serving.refreeze_ms", 1e3 * first.latency, "ms")
            if workload.stack == "engine":
                self.loaded_window(engine, install, 1)
            put("serving.shed_count", engine.backend.stats()["queries_shed"], "count")
            put("mem.client_pss_mb", pss_mb(os.getpid()), "MiB")
        finally:
            engine.close()
        return snapshot

    def climb_cluster(self, snapshot: str, workdir: str) -> None:
        """Two shard workers over the snapshot, one caller."""
        put = self.put
        started = time.perf_counter()
        cluster = cluster_stack(snapshot, workdir)
        cluster.tracer = self.tracer
        try:
            cluster.request(self.batches[0])
            put("cluster.start_s", time.perf_counter() - started, "s")
            cluster_batch = self.stack_rung("cluster.batch", cluster, False, False)
            put("cluster.batch_added_us",
                cluster_batch - self.value("index.batch_us_per_query"), "us")
            if self.workload.stack == "cluster":
                self.overhead(cluster)
            with self.tracer.rung("cluster.apply"):
                applied, _ = cluster.run_window(self.plan.cycle[0], None)
            put("cluster.apply_s", applied, "s")
            put("cluster.publish_s",
                self.timed("cluster.publish", cluster.backend.publish_snapshot), "s")
            if self.workload.stack == "cluster":
                self.loaded_window(cluster, applied, 1)
            workers = [p for p in descendants(os.getpid()) if p != os.getpid()]
            put("mem.worker_pss_mb", sum(pss_mb(p) for p in workers), "MiB")
            put("cluster.respawn_count", cluster.backend.stats()["respawns"], "count")
        finally:
            cluster.close()

    def climb_server(self, snapshot: str, workdir: str) -> None:
        """The ``serve`` CLI in a subprocess, at the workload's depth."""
        workload, put = self.workload, self.put
        wire = WireStack(snapshot, workdir, workload.connections, workload.depth, False)
        wire.tracer = self.tracer
        try:
            put("server.start_s", wire.start_seconds, "s")
            put("server.connect_s", wire.connect_seconds, "s")
            pid = wire.process.pid
            server_batch = self.stack_rung(
                "server.batch", wire, False, True, cpu_of=(pid, os.getpid())
            )
            kqueries = self.positions.size / 1e3
            put("server.cpu_s_per_kquery", self.cpu_spent[0] / kqueries, "s")
            put("client.cpu_s_per_kquery", self.cpu_spent[1] / kqueries, "s")
            server_scalar = self.stack_rung("server.scalar", wire, True, True)
            put("server.batch_added_us",
                server_batch - self.value("serving.batch_us_per_query"), "us")
            put("server.scalar_added_us",
                server_scalar - self.value("serving.scalar_us_per_query"), "us")
            if workload.stack == "wire":
                self.overhead(wire)
            wire.scalar = workload.batch_size == 1
            with self.tracer.rung("server.apply"):
                applied, _ = wire.run_window(self.plan.cycle[0], None)
            put("server.apply_s", applied, "s")
            if workload.stack == "wire":
                self.loaded_window(wire, applied, 1)
            put("mem.server_pss_mb", sum(pss_mb(p) for p in descendants(pid)), "MiB")
            put("server.retry_count", wire.retries, "count")
        finally:
            wire.close()

    def codec(self, distances: List[float]) -> float:
        """``protocol`` encode + decode of one QUERY_BATCH and its RESULT."""
        samples = []
        with self.tracer.rung("server.codec"):
            for batch_id, pairs in enumerate(self.batches):
                started = time.perf_counter()
                request = encode_frame(OP_QUERY_BATCH, 1, {"pairs": [[s, t] for s, t in pairs]})
                decode_body(request[HEADER_BYTES:])
                result = encode_frame(OP_RESULT, 1, {"distances": distances, "epoch": 0})
                decode_body(result[HEADER_BYTES:])
                ended = time.perf_counter()
                self.tracer.record("server.codec.call", started, ended, batch_id)
                samples.append(ended - started)
        return 1e6 * median(samples) / len(self.batches[0])

    # ------------------------------------------------------------------
    def waterfall(self) -> str:
        """The query ladder as a markdown table: rung, us/query, added, share."""
        value = self.value
        rows = [
            ("kernels.batch", None),
            ("index.batch", "kernels.batch"),
            ("serving.batch", "index.batch"),
            ("cluster.batch", "index.batch"),
            ("server.batch", "serving.batch"),
            ("index.scalar", None),
            ("serving.scalar", "index.scalar"),
            ("server.scalar", "serving.scalar"),
        ]
        workload = self.workload
        lines = [
            f"### {workload.name} ({workload.method}, {workload.side}x{workload.side} grid)",
            "",
            "| rung | us/query | over | added us | share of rung |",
            "|---|---:|---|---:|---:|",
        ]
        for rung, below in rows:
            cost = value(rung + "_us_per_query")
            if below is None:
                lines.append(f"| {rung} | {cost:.2f} | - | - | - |")
            else:
                added = cost - value(below + "_us_per_query")
                lines.append(
                    f"| {rung} | {cost:.2f} | {below} | {added:.2f} | {added / cost:.0%} |"
                )
        lines += [
            "",
            f"`server.codec_us_per_query` {value('server.codec_us_per_query'):.2f} us; "
            f"`serving.cache_hit_share` {value('serving.cache_hit_share'):.3f}; "
            f"server rungs at {workload.connections}x{workload.depth} requests in flight.",
            "",
            "| update rung | seconds |",
            "|---|---:|",
        ]
        for name in ("index.apply_s", "serving.install_s", "cluster.apply_s",
                     "cluster.publish_s", "server.apply_s", "window.loaded_s"):
            lines.append(f"| {name} | {value(name):.3f} |")
        lines += [
            "",
            f"`window.slowdown` {value('window.slowdown'):.2f}x, `window.qps` "
            f"{value('window.qps'):.0f}, `serving.refreeze_ms` {value('serving.refreeze_ms'):.1f}.",
            "",
            f"`trace.overhead_share` {value('trace.overhead_share'):+.3f} "
            "(1 - traced/untraced qps of the outermost steady slice).",
            "",
        ]
        lines += [f"- {note}" for note in self.notes]
        return "\n".join(lines) + "\n"


def run(plan: Plan, scratch: str, quick: bool):
    workload = plan.workload
    ladder = Ladder(plan, scratch, quick)
    try:
        ladder.climb()
    finally:
        ladder.tracer.write(os.path.join(scratch, f"trace-{workload.name}.json"))
    reference = ladder.reference
    print(f"machine ran {reference.slowdown:.3f}x slower than nominal; metric, as the "
          "clock read it, at nominal machine speed:")
    metrics = {}
    for name, (value, unit) in ladder.values.items():
        nominal = reference.at_nominal(value, unit)
        print(f"{name:<28} {value:>14.4f} {nominal:>14.4f} {unit}")
        ladder.values[name] = (nominal, unit)
        metrics[name] = {"value": nominal, "unit": unit}
    table = ladder.waterfall()
    with open(os.path.join(scratch, f"waterfall-{workload.name}.md"), "w") as handle:
        handle.write(table)
    print(table)
    print(f"spans {len(ladder.tracer.spans)}  requests {ladder.tally.requests}  "
          f"verified pairs {ladder.tally.verified}  errors {ladder.tally.errors}")
    return ladder.tally, metrics
