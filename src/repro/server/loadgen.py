"""Closed-loop async load generator for the network query plane.

``concurrency`` workers each hold one :class:`~repro.server.client.AsyncClient`
connection and run ``depth`` lanes over it; a lane issues its next request the
moment the previous one completes (classic closed-loop load, ``depth``
requests pipelined per connection), honouring the server's RETRY backpressure
hints.
The report carries sustained QPS and the p50/p99/p999 of the *per-operation*
wall latency as observed by the client — i.e. including serialization, the
socket, scheduling and backpressure, which is the whole point of measuring
at this boundary.  ``benchmarks/bench_server.py`` drives this into
``BENCH_server.json``.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.exceptions import ServerBackpressureError
from repro.server.client import AsyncClient


def quantile(sorted_samples: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an ascending-sorted sample list."""
    if not sorted_samples:
        return 0.0
    rank = min(len(sorted_samples), max(1, math.ceil(q * len(sorted_samples))))
    return sorted_samples[rank - 1]


@dataclass
class LoadReport:
    """Outcome of one closed-loop run."""

    label: str
    concurrency: int
    depth: int
    batch_size: int
    duration_seconds: float
    operations: int
    queries: int
    retries: int
    qps: float
    mean_seconds: float
    p50_seconds: float
    p99_seconds: float
    p999_seconds: float
    latencies: List[float] = field(default_factory=list, repr=False)

    def to_dict(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "concurrency": self.concurrency,
            "depth": self.depth,
            "batch_size": self.batch_size,
            "duration_seconds": self.duration_seconds,
            "operations": self.operations,
            "queries": self.queries,
            "retries": self.retries,
            "qps": self.qps,
            "mean_seconds": self.mean_seconds,
            "p50_seconds": self.p50_seconds,
            "p99_seconds": self.p99_seconds,
            "p999_seconds": self.p999_seconds,
        }


async def run_closed_loop(
    host: str,
    port: int,
    pairs: Sequence[Tuple[int, int]],
    duration_seconds: float,
    concurrency: int = 4,
    batch_size: int = 0,
    label: str = "",
    depth: int = 1,
) -> LoadReport:
    """Drive the server closed-loop and report client-observed latency/QPS.

    ``batch_size == 0`` issues scalar ``query`` ops (a one-pair frame each);
    ``batch_size > 0`` issues ``query_batch`` ops of that many pairs (per-op
    latency then amortises the frame + dispatch overhead over the batch).
    ``depth`` is the number of requests each connection keeps in flight.
    """
    latencies: List[float] = []
    totals = {"operations": 0, "queries": 0, "retries": 0}

    async def lane(client: AsyncClient, lane_id: int) -> None:
        cursor = lane_id * 7919  # de-phase the lanes' walk over the pairs
        while time.perf_counter() < deadline:
            began = time.perf_counter()
            try:
                if batch_size > 0:
                    chunk = [
                        pairs[(cursor + offset) % len(pairs)]
                        for offset in range(batch_size)
                    ]
                    cursor += batch_size
                    await client.query_batch_with_retry(chunk)
                    totals["queries"] += batch_size
                else:
                    source, target = pairs[cursor % len(pairs)]
                    cursor += 1
                    await client.query_with_retry(source, target)
                    totals["queries"] += 1
            except ServerBackpressureError:
                continue  # retry budget exhausted; closed loop moves on
            latencies.append(time.perf_counter() - began)
            totals["operations"] += 1

    async def worker(worker_id: int) -> None:
        client = await AsyncClient.connect(host, port)
        try:
            await asyncio.gather(
                *(lane(client, worker_id * depth + i) for i in range(max(1, depth)))
            )
        finally:
            totals["retries"] += client.retries
            await client.close()

    started = time.perf_counter()
    deadline = started + duration_seconds
    await asyncio.gather(*(worker(i) for i in range(max(1, concurrency))))
    elapsed = time.perf_counter() - started

    latencies.sort()
    mean = sum(latencies) / len(latencies) if latencies else 0.0
    return LoadReport(
        label=label,
        concurrency=concurrency,
        depth=depth,
        batch_size=batch_size,
        duration_seconds=elapsed,
        operations=totals["operations"],
        queries=totals["queries"],
        retries=totals["retries"],
        qps=totals["queries"] / elapsed if elapsed > 0 else 0.0,
        mean_seconds=mean,
        p50_seconds=quantile(latencies, 0.50),
        p99_seconds=quantile(latencies, 0.99),
        p999_seconds=quantile(latencies, 0.999),
        latencies=latencies,
    )
