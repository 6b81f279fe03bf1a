"""What the four workloads of the ``stack`` benchmark share.

Environment fingerprint, the workload table, the seeded inputs (pair pool,
request stream, update cycle), the Dijkstra oracle, nearest-rank quantiles,
the PSS reader and the round driver.  ``run.py`` points ``sys.path`` at the
checkout's ``src`` before this module is imported; nothing here touches a
private name of ``repro``.
"""

from __future__ import annotations

import json
import math
import os
import platform
import time
from dataclasses import dataclass, field, replace
from statistics import median
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.dijkstra import dijkstra_one_to_many
from repro.graph.generators import grid_road_network
from repro.graph.updates import EdgeUpdate, UpdateBatch, generate_update_batch
from repro.registry import create_index, get_spec

Pair = Tuple[int, int]

#: The dataset is fixed; ``--seed`` drives the pool, the stream and the updates.
GRAPH_SEED = 7
UPDATE_VOLUME = 20
VERIFIED_SOURCES = 64
VERIFIED_TARGETS = 8
VERIFIED_PAIRS = VERIFIED_SOURCES * VERIFIED_TARGETS
PLANT_SPACING = 16
#: Hub labels add d(s,h)+d(h,t) where Dijkstra adds edge by edge, so the last
#: ulp may differ; this is the tolerance of the repo's own differential suite.
REL_TOL = 1e-9

ERROR_KINDS = ("exception", "wrong_distance", "wrong_epoch", "retry_exhausted")


@dataclass(frozen=True)
class Workload:
    """One row of the workload table (README.md has the reasons)."""

    name: str
    method: str
    spec_kwargs: Dict[str, int]
    side: int
    stack: str  # "wire" | "cluster" | "engine"
    batch_size: int  # pairs per request; 1 = scalar ``query`` frames
    connections: int
    depth: int  # requests in flight per connection
    pool_size: int
    zipf: Optional[float]  # exponent of the rank distribution; None = uniform
    slice_requests: int
    slices_per_round: int
    round_seconds: float  # nominal cost of a round: --seconds / this = R
    loaded_windows: bool
    limit_ms: float  # 4x the quiet lat_p50_ms, measured once and frozen

    def rounds(self, seconds: float) -> int:
        return max(2, int(seconds / self.round_seconds))

    def quick(self) -> "Workload":
        """The smoke-test size: 20x20 grid, small slices."""
        return replace(
            self,
            side=20,
            pool_size=4096,
            slice_requests=max(16, self.slice_requests // 50),
            slices_per_round=1,
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="wire_scalar", method="PMHL", spec_kwargs={"num_partitions": 8},
            side=48, stack="wire", batch_size=1, connections=2, depth=8,
            pool_size=65536, zipf=None, slice_requests=3000, slices_per_round=3,
            round_seconds=3.0, loaded_windows=False, limit_ms=8.0,
        ),
        Workload(
            name="wire_batch", method="PMHL", spec_kwargs={"num_partitions": 8},
            side=48, stack="wire", batch_size=64, connections=2, depth=2,
            pool_size=65536, zipf=None, slice_requests=1000, slices_per_round=2,
            round_seconds=3.0, loaded_windows=False, limit_ms=12.0,
        ),
        Workload(
            name="cluster_batch", method="PMHL", spec_kwargs={"num_partitions": 8},
            side=48, stack="cluster", batch_size=64, connections=1, depth=1,
            pool_size=65536, zipf=None, slice_requests=1000, slices_per_round=2,
            round_seconds=3.0, loaded_windows=False, limit_ms=2.4,
        ),
        Workload(
            name="search_dynamic", method="DCH", spec_kwargs={},
            side=80, stack="engine", batch_size=64, connections=1, depth=1,
            pool_size=32768, zipf=1.0, slice_requests=150, slices_per_round=1,
            round_seconds=1.2, loaded_windows=True, limit_ms=10.0,
        ),
    )
}


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------
def loadavg_1min() -> float:
    with open("/proc/loadavg") as handle:
        return float(handle.read().split()[0])


def fingerprint() -> Dict[str, object]:
    """Where the numbers were taken; printed with every run."""
    from repro.kernels import native_kernel

    model = "unknown"
    with open("/proc/cpuinfo") as handle:
        for line in handle:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": "native-c" if native_kernel() is not None else "fallback",
        "loadavg_start": loadavg_1min(),
    }


def descendants(pid: int) -> List[int]:
    """``pid`` and every live process below it."""
    found = [pid]
    task_dir = f"/proc/{pid}/task"
    try:
        tids = os.listdir(task_dir)
    except OSError:
        return found
    for tid in tids:
        try:
            with open(f"{task_dir}/{tid}/children") as handle:
                children = handle.read().split()
        except OSError:
            continue
        for child in children:
            found.extend(descendants(int(child)))
    return found


def pss_mb(pid: int) -> float:
    """Proportional set size of one process in MiB (0.0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def cpu_seconds(pid: int) -> float:
    """User + system CPU time of one process from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


#: The CPUs this process may use, and the (at most two) the stacks are
#: pinned to: one process of a stack per CPU.  Left to the scheduler, a
#: client/server pair flips between a fast and a slow placement from run to
#: run (3.4k vs 6k scalar qps on 2 cores), and shard workers pile up on one.
ALL_CPUS = frozenset(os.sched_getaffinity(0))
CPUS = sorted(ALL_CPUS)[:2]


def pin(pid: int, cpus: Iterable[int]) -> None:
    """Keep every thread of ``pid`` on ``cpus``."""
    for tid in os.listdir(f"/proc/{pid}/task"):
        os.sched_setaffinity(int(tid), cpus)


class Reference:
    """How fast this machine is during a run, against a frozen nominal speed.

    On a shared 2-core VM the same code runs up to 1.5x slower for minutes at
    a time, whatever the benchmark does, and the two CPUs do not slow down
    together.  A fixed mix of interpreter, JSON and memory work -- nothing
    from ``repro`` -- is timed between the samples of a run on each CPU the
    stack is pinned to; the run's times and rates are then scaled by the
    median of those readings to the speed the machine has when quiet.  One
    factor per run, not per sample: a single reading is noisier than the
    drift inside a run.  The fastest of three passes is a reading, since
    interference only adds time.
    """

    #: Fastest pass on this VM class when nothing else runs, in seconds.
    NOMINAL_SECONDS = 0.0060

    def __init__(self, cpus: Sequence[int]) -> None:
        self.cpus = list(cpus)
        self._table = np.arange(1 << 20, dtype=np.int64)
        self._index = np.random.default_rng(0).integers(0, 1 << 20, 1 << 15)
        self._payload = {"pairs": [[i, 7 * i] for i in range(64)]}
        self.readings: List[List[float]] = []  # one row per read, one value per CPU

    def _pass(self) -> float:
        started = time.perf_counter()
        total = 0
        for i in range(30000):
            total += i * i % 7
        for _ in range(100):
            json.loads(json.dumps(self._payload))
        for _ in range(10):
            total += int(self._table[self._index].sum())
        return time.perf_counter() - started

    def read(self) -> None:
        """Time the mix on each CPU in turn (the calling thread moves)."""
        mine = os.sched_getaffinity(0)
        row = []
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                row.append(min(self._pass() for _ in range(3)))
        finally:
            os.sched_setaffinity(0, mine)
        self.readings.append(row)

    @property
    def slowdown(self) -> float:
        """How many times slower than nominal the machine ran, over the run."""
        per_read = [sum(row) / len(row) for row in self.readings]
        return median(per_read) / self.NOMINAL_SECONDS

    def at_nominal(self, value: float, unit: str) -> float:
        """``value`` as it would read at nominal machine speed: times shrink
        by the slowdown, rates grow by it, everything else stays."""
        if unit in ("s", "ms", "us"):
            return value / self.slowdown
        if unit == "queries/s":
            return value * self.slowdown
        return value


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile; callers print ``len(values)`` beside it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


# ----------------------------------------------------------------------
# Graph, index, updates
# ----------------------------------------------------------------------
def make_graph(workload: Workload):
    return grid_road_network(workload.side, workload.side, seed=GRAPH_SEED)


def build_index(workload: Workload, graph):
    index = create_index(get_spec(workload.method, **workload.spec_kwargs), graph)
    index.build()
    return index


def inverse(batch: UpdateBatch) -> UpdateBatch:
    """The batch that restores the weights ``batch`` replaced."""
    return UpdateBatch(
        [EdgeUpdate(u.u, u.v, u.new_weight, u.old_weight) for u in batch]
    )


# ----------------------------------------------------------------------
# Seeded inputs and the oracle
# ----------------------------------------------------------------------
class Plan:
    """Everything a run derives from ``--seed``, plus the oracle for it.

    The update cycle is A, A^-1, B, B^-1, A, ...: the graph is back at G0
    after every second window, so three graph states (G0, G0+A, G0+B) cover
    every epoch.  The oracle holds Dijkstra distances on the benchmark's own
    mirror of each state for 512 pairs, planted at every ``PLANT_SPACING``-th
    pool position in an order where neighbouring planted pairs differ in
    source, so no batch is source-grouped.
    """

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        mirror = make_graph(workload)
        n = mirror.num_vertices
        rng = np.random.default_rng([seed, 0])

        sources = rng.integers(0, n, workload.pool_size)
        targets = rng.integers(0, n, workload.pool_size)
        verified_sources = rng.choice(n, VERIFIED_SOURCES, replace=False)
        verified_targets = rng.integers(0, n, (VERIFIED_SOURCES, VERIFIED_TARGETS))
        planted = np.arange(0, workload.pool_size, PLANT_SPACING)
        verified_ids = (planted // PLANT_SPACING) % VERIFIED_PAIRS
        sources[planted] = verified_sources[verified_ids % VERIFIED_SOURCES]
        targets[planted] = verified_targets[
            verified_ids % VERIFIED_SOURCES, verified_ids // VERIFIED_SOURCES
        ]
        self.pool: List[Pair] = list(zip(sources.tolist(), targets.tolist()))

        if workload.zipf is None:
            self._cdf = None
        else:
            weights = 1.0 / np.arange(1, workload.pool_size + 1) ** workload.zipf
            self._cdf = np.cumsum(weights / weights.sum())

        batch_a = generate_update_batch(mirror, UPDATE_VOLUME, seed=seed)
        batch_b = generate_update_batch(mirror, UPDATE_VOLUME, seed=seed + 1)
        self.cycle = [batch_a, inverse(batch_a), batch_b, inverse(batch_b)]

        self.oracle: List[List[float]] = []
        for batch in (None, batch_a, batch_b):
            if batch is not None:
                batch.apply(mirror)
            distances = [0.0] * VERIFIED_PAIRS
            for i in range(VERIFIED_SOURCES):
                row = dijkstra_one_to_many(
                    mirror, int(verified_sources[i]), verified_targets[i].tolist()
                )
                for k, distance in enumerate(row):
                    distances[k * VERIFIED_SOURCES + i] = distance
            self.oracle.append(distances)
            if batch is not None:
                batch.revert(mirror)

    def batch_for_window(self, window: int) -> UpdateBatch:
        return self.cycle[window % 4]

    def expected(self, position: int, epoch: int) -> float:
        """Oracle distance of the pair planted at pool ``position``."""
        state = 0 if epoch % 2 == 0 else (1 if epoch % 4 == 1 else 2)
        return self.oracle[state][(position // PLANT_SPACING) % VERIFIED_PAIRS]

    def verified_request(self, size: int) -> np.ndarray:
        """Pool positions of the first ``size`` planted pairs."""
        return np.arange(size) * PLANT_SPACING

    def requests(
        self, tag: Sequence[int], count: int, width: Optional[int] = None
    ) -> np.ndarray:
        """``count`` requests as rows of pool positions, seeded by ``tag``;
        ``width`` pairs per request (default: the workload's batch size)."""
        rng = np.random.default_rng([self.seed, 1, *tag])
        shape = (count, width or self.workload.batch_size)
        if self._cdf is None:
            return rng.integers(0, self.workload.pool_size, shape)
        return np.searchsorted(self._cdf, rng.random(shape)).clip(
            max=self.workload.pool_size - 1
        )

    def pairs(self, positions: np.ndarray) -> List[Pair]:
        pool = self.pool
        return [pool[p] for p in positions.tolist()]


# ----------------------------------------------------------------------
# Results of slices and windows
# ----------------------------------------------------------------------
@dataclass
class Reply:
    """What came back for one request (``distances`` is None on failure)."""

    latency: float
    distances: Optional[Sequence[float]]
    epoch: int = -1
    error: Optional[str] = None  # one of ERROR_KINDS
    stage: Optional[str] = None


@dataclass
class Tally:
    """Requests and errors by kind over measured rounds; ``ok_latencies``
    holds the latency of every request that was answered correctly."""

    requests: int = 0
    ok_latencies: List[float] = field(default_factory=list)
    errors: Dict[str, int] = field(
        default_factory=lambda: {kind: 0 for kind in ERROR_KINDS}
    )
    verified: int = 0

    @property
    def failed(self) -> int:
        return sum(self.errors.values())

    @property
    def wrong(self) -> int:
        return self.errors["wrong_distance"] + self.errors["wrong_epoch"]


def check_replies(
    plan: Plan,
    positions: np.ndarray,
    replies: Sequence[Reply],
    epochs: Tuple[int, ...],
    tally: Tally,
) -> None:
    """Compare every reply with the oracle and the allowed ``epochs``."""
    planted = positions % PLANT_SPACING == 0
    for row, reply in enumerate(replies):
        tally.requests += 1
        if reply.error is not None:
            tally.errors[reply.error] += 1
            continue
        if reply.epoch not in epochs:
            tally.errors["wrong_epoch"] += 1
            continue
        wrong = False
        for column in np.flatnonzero(planted[row]).tolist():
            want = plan.expected(int(positions[row, column]), reply.epoch)
            got = reply.distances[column]
            tally.verified += 1
            if got != want and not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0):
                wrong = True
        if wrong:
            tally.errors["wrong_distance"] += 1
        else:
            tally.ok_latencies.append(reply.latency)


# ----------------------------------------------------------------------
# The round driver
# ----------------------------------------------------------------------
@dataclass
class Measurements:
    """Samples of one run, as the clock read them."""

    setup_seconds: List[float] = field(default_factory=list)
    slice_qps: List[float] = field(default_factory=list)
    slice_p50_p99: List[Tuple[float, float]] = field(default_factory=list)
    window_seconds: List[float] = field(default_factory=list)
    window_requests: int = 0
    tally: Tally = field(default_factory=Tally)
    pss: Dict[int, float] = field(default_factory=dict)
    stopped_early: bool = False


def first_reply_ok(plan: Plan, stack) -> None:
    """Set-up ends at the first reply that equals the oracle."""
    positions = plan.verified_request(plan.workload.batch_size)[None, :]
    reply = stack.request(plan.pairs(positions[0]))
    tally = Tally()
    check_replies(plan, positions, [reply], (0,), tally)
    if tally.failed:
        raise RuntimeError(f"first reply failed the oracle: {tally.errors}, {reply}")


def run_round(
    plan: Plan, stack, reference: Reference, number: int, into: Optional[Measurements]
) -> None:
    """Round ``number``: ``K`` steady slices at epoch ``number``, then the
    window that installs the next batch; a reference reading after each.
    ``into`` None is the warm-up round: one slice, nothing recorded."""
    workload = plan.workload
    tally = into.tally if into is not None else Tally()
    for k in range(workload.slices_per_round if into is not None else 1):
        positions = plan.requests((number, k), workload.slice_requests)
        payloads = [plan.pairs(row) for row in positions]
        elapsed, replies = stack.run_slice(payloads)
        reference.read()
        check_replies(plan, positions, replies, (number,), tally)
        if into is not None:
            latencies = [r.latency for r in replies if r.error is None]
            into.slice_qps.append(positions.size / elapsed)
            into.slice_p50_p99.append(
                (quantile(latencies, 0.50), quantile(latencies, 0.99))
            )

    batch = plan.batch_for_window(number)
    if workload.loaded_windows:
        # Enough requests to outlast any window; the stack stops taking them
        # when the new epoch is installed.
        positions = plan.requests(
            (number, workload.slices_per_round), 4 * workload.slice_requests
        )
        payloads = [plan.pairs(row) for row in positions]
        seconds, replies = stack.run_window(batch, payloads)
        check_replies(
            plan, positions[: len(replies)], replies, (number, number + 1), tally
        )
    else:
        seconds, replies = stack.run_window(batch, None)
    reference.read()
    if into is not None:
        into.window_requests += len(replies)
        into.window_seconds.append(seconds)


def run_rounds(
    plan: Plan, stack, reference: Reference, rounds: int, deadline: float,
    measured: Measurements,
) -> None:
    """Warm-up round, then ``rounds`` measured ones (fewer past ``deadline``)."""
    run_round(plan, stack, reference, 0, None)
    for r in range(1, rounds + 1):
        run_round(plan, stack, reference, r, measured)
        if time.monotonic() > deadline and r < rounds:
            measured.stopped_early = True
            break
