"""The three closed-loop workloads: one client, next request after the last.

Each workload builds its own session from the seed (``setup``), then
hands out operations one block at a time.  Operation inputs are drawn
before a block starts, so only the program's work is timed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from perfbench.inputs import HotspotQueries, Query, ScanQueries, clustered_table
from perfbench.oracle import Oracle


@dataclass
class Served:
    """One answered (or failed) read."""

    query: Query
    mode: str
    value: float
    sim_sec: float
    raw_sec: float
    tail_rows: int = 0
    failed: bool = False
    latency: float = 0.0  # normalized seconds, set once the run settles

    @property
    def answered(self) -> bool:
        return not self.failed


@dataclass
class Write:
    raw_sec: float
    latency: float = 0.0


def _table(columns, name="data"):
    from repro.data.tabular import Table

    return Table(dict(columns), name=name, value_bytes=8)


class ClosedLoop:
    """Shared closed-loop client: SQL strings through ``SEASession.sql``."""

    name = ""
    #: Operations per timed block; a block lasts roughly 0.05-0.2 s here.
    block_ops = 64
    #: Operations per nominal second: a run of ``--seconds`` serves that
    #: many (whole blocks), so every run of one seed does the same work
    #: however fast the host is, and takes about ``--seconds`` here.
    ops_per_second = 1000
    reads_per_op = 1
    #: Requests whose cost-model and accuracy figures are reported.
    scored = 2000
    #: Operations the traced phase serves (a multiple of ``block_ops``).
    trace_units = 1024
    #: Per-request latency limit for goodput (normalized ms).
    latency_limit_ms = 10.0
    table_seed = 0
    n_rows = 200_000
    #: Whether the program runs work on two threads, so the reference
    #: must include a two-thread pass (see ``hostnorm.PoolReference``).
    two_threads = False

    def __init__(self) -> None:
        self.session = None
        self.oracle: Optional[Oracle] = None
        self.appended = 0

    # Set-up -----------------------------------------------------------------
    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None

    def columns(self):
        self.mixture, columns = clustered_table(self.n_rows, self.table_seed)
        return columns

    def hotspot_queries(self, columns, rng, **kwargs) -> HotspotQueries:
        placement = np.random.default_rng([self.table_seed, 1])
        return HotspotQueries(columns, placement, rng, **kwargs)

    def warm(self, session, columns, n_queries: int = 2000) -> None:
        """Train the agent on a fixed sample, the same for every seed, so
        runs differ only in the measured queries."""
        warmup = self.hotspot_queries(columns, np.random.default_rng([self.table_seed, 2]))
        session.sql_many([warmup.next().sql() for _ in range(n_queries)])

    def units_for(self, seconds: float, min_reads: int) -> int:
        reads = max(min_reads, self.scored if min_reads else 0)
        ops = max(seconds * self.ops_per_second, reads / self.reads_per_op)
        return math.ceil(ops / self.block_ops) * self.block_ops

    # Operations -------------------------------------------------------------
    def next_read(self):
        query = self.queries.next()
        return query, query.sql()

    next_op = next_read

    def run_op(self, op, served: List[Served], writes: List[Write]) -> None:
        self.read(op, served)

    def read(self, op, served: List[Served]) -> None:
        query, sql = op
        start = time.perf_counter()
        try:
            answer = self.session.sql(sql)
        except Exception:  # counted as failed; the run goes on
            served.append(Served(query, "error", float("nan"), 0.0,
                                 time.perf_counter() - start, self.appended, failed=True))
            return
        raw = time.perf_counter() - start
        served.append(Served(query, answer.mode, float(answer.value),
                             answer.cost.elapsed_sec, raw, self.appended))


class SteadyServe(ClosedLoop):
    """A converged agent answering hotspot AVG queries it never saw.

    Every 50th query is exploratory (unlike what the agent learned), so
    about 2% fall back to the exact engine and the rest are predicted.
    The fallbacks then set p99 from inside their own population rather
    than at its edge.  No query repeats, so the answer cache never hits.
    """

    name = "steady-serve"
    block_ops = 256
    ops_per_second = 3600
    scored = 6000
    trace_units = 2048
    latency_limit_ms = 5.0
    table_seed = 101

    def setup(self, seed: int) -> None:
        from repro.core.agent import AgentConfig
        from repro.session import SEASession

        columns = self.columns()
        self.oracle = Oracle(columns)
        self.queries = self.hotspot_queries(
            columns, np.random.default_rng([seed, 1]), explore_every=50)
        session = SEASession(
            n_nodes=8, config=AgentConfig(training_budget=300, error_threshold=0.2)
        )
        session.load_table(_table(columns))
        self.warm(session, columns)
        session.agent.config.keep_learning_on_fallback = False
        self.session = session


class ColdScan(ClosedLoop):
    """Every query executes exactly over a clustered 1M-row table.

    The training budget outlasts the run, so the agent only passes
    queries through (and learns); narrow boxes skip partitions, wide
    ones let synopses answer covered partitions, and two scan threads
    share the partition work.
    """

    name = "cold-scan"
    n_rows = 1_000_000
    block_ops = 32
    ops_per_second = 550
    scored = 1200
    trace_units = 512
    latency_limit_ms = 50.0
    table_seed = 202
    two_threads = True

    def setup(self, seed: int) -> None:
        from repro.core.agent import AgentConfig
        from repro.session import SEASession

        columns = self.columns()
        self.oracle = Oracle(columns)
        self.queries = ScanQueries(np.random.default_rng([seed, 2]))
        session = SEASession(
            n_nodes=8, workers=2, config=AgentConfig(training_budget=10**9)
        )
        session.load_table(_table(columns))
        self.session = session


class IngestMixed(ClosedLoop):
    """Reads beside writes on a converged agent with durable ingest.

    Each tick appends a batch of rows, serves a few hotspot reads, and
    advances simulated time by a fraction of an epoch.  The rows of one
    epoch land near one hotspot (taking the hotspots in turn) and follow
    the table's own distribution; the tick that closes the epoch compacts
    them and invalidates the quanta they touched, so reads there fall
    back and relearn.
    """

    name = "ingest-mixed"
    block_ops = 8
    ops_per_second = 55
    scored = 2400
    trace_units = 96
    latency_limit_ms = 20.0
    table_seed = 303
    reads_per_op = 24
    rows_per_tick = 100
    ticks_per_epoch = 8

    def setup(self, seed: int) -> None:
        from repro.core.agent import AgentConfig
        from repro.session import SEASession

        columns = self.columns()
        self.oracle = Oracle(columns)
        self.rng = np.random.default_rng([seed, 3])
        self.queries = self.hotspot_queries(columns, self.rng)
        session = SEASession(
            n_nodes=8,
            ingest=True,
            epoch_seconds=1.0,
            config=AgentConfig(training_budget=300, error_threshold=0.2),
        )
        session.load_table(_table(columns))
        self.warm(session, columns)
        self.session = session
        self.appended = self.ticks = 0

    def next_op(self):
        rng = self.rng
        hotspots = self.queries.hotspots
        spot = hotspots[(self.ticks // self.ticks_per_epoch) % len(hotspots)]
        self.ticks += 1
        batch = self.mixture.near(spot, 2.0, self.rows_per_tick, rng)
        reads = [self.next_read() for _ in range(self.reads_per_op)]
        return batch, reads

    def run_op(self, op, served: List[Served], writes: List[Write]) -> None:
        batch, reads = op
        session = self.session
        rows = _table(batch)
        start = time.perf_counter()
        session.append_rows("data", rows)
        writes.append(Write(time.perf_counter() - start))
        self.oracle.append(batch)
        self.appended += len(batch["x0"])
        for read in reads:
            self.read(read, served)
        closed = session.ingest.n_epochs_closed
        start = time.perf_counter()
        session.advance(1.0 / self.ticks_per_epoch)
        elapsed = time.perf_counter() - start
        if session.ingest.n_epochs_closed != closed:
            writes.append(Write(elapsed))


CLOSED_LOOPS = {w.name: w for w in (SteadyServe, ColdScan, IngestMixed)}
