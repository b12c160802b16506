"""The open-loop workload: on/off Poisson traffic through ``ServingGateway``.

Three tenants, taking turns, send SQL strings on a schedule fixed in
advance, whether or not earlier requests finished.  The schedule is a
run of episodes, each a quiet stretch of Poisson arrivals (the gateway's
pass-through regime) followed by a burst of requests due at the same
instant, far above the knee (queueing and admission).
Rates and deadlines are stated in reference-normalized time: before each
episode the reference kernel is measured while the gateway is idle, and
the episode is stretched by that factor, so offered utilization does
not swing with the host's speed.

One pacing coroutine sleeps until each request is due and only then
spawns it (creating every request coroutine up front made p99 lateness
94-121 ms with no gateway at all).  The loop uses a ``select`` selector:
the default epoll loop rounds every timer up to 1 ms.  The pacer wakes
a millisecond early and spins to the due time, and when no request is
in flight it spends longer gaps measuring the reference kernel, so each
episode is normalized by the host's speed at the moments it ran.
"""

from __future__ import annotations

import asyncio
import math
import selectors
import time
from collections import deque
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from perfbench.hostnorm import HostClock
from perfbench.inputs import HotspotQueries, Query, clustered_table
from perfbench.oracle import Oracle

TENANTS = ("t0", "t1", "t2")
SPIN_SEC = 0.001
#: Time one reference measurement takes (four kernel passes).
REF_SEC = 0.002


@dataclass
class Arrival:
    offset: float  # normalized seconds from the episode's origin
    tenant: str
    query: Query
    sql: str


@dataclass
class Outcome:
    """One request's fate, in raw host seconds plus the factor that
    normalizes them (set once its episode has ended)."""

    query: Query
    raw_late: float
    raw_sec: float
    mode: str = ""
    value: float = float("nan")
    sim_sec: float = 0.0
    raw_queued: float = 0.0
    raw_service: float = 0.0
    in_deadline: bool = False
    refused: bool = False
    failed: bool = False
    tail_rows: int = 0
    factor: float = 1.0

    @property
    def answered(self) -> bool:
        return not (self.refused or self.failed)

    @property
    def latency(self) -> float:
        return self.raw_sec * self.factor

    @property
    def late(self) -> float:
        return self.raw_late * self.factor

    @property
    def queued(self) -> float:
        return self.raw_queued * self.factor

    @property
    def service(self) -> float:
        return self.raw_service * self.factor


@dataclass
class Episode:
    arrivals: List[Arrival]
    factor: float = 1.0
    start: float = 0.0
    end: float = 0.0


class GatewayOpen:
    name = "gateway-open"
    n_rows = 100_000
    table_seed = 404
    #: Normalized schedule of one episode: a quiet stretch of Poisson
    #: arrivals, then a burst of requests all due at the same instant (a
    #: swarm of agents firing together).
    quiet_sec, quiet_rate = 0.200, 500.0
    burst_size = 32
    deadline_sec = 0.100
    #: Two of every five requests of a tenant re-ask one of its recent
    #: (non-exploratory) queries, a pool that fits the answer cache.
    reask_every, reask_slots, recent = 5, (1, 3), 32
    #: Episodes served traced (the rest of the trace run is untraced).
    trace_units = 6
    latency_limit_ms = deadline_sec * 1e3
    #: Bursts are served almost entirely inline, on the loop's thread.
    two_threads = False
    #: Every answered request is scored (open-loop timing decides which
    #: requests batch together, so no prefix repeats exactly anyway).
    scored = 0

    def __init__(self) -> None:
        self.gateway = None
        self.loop = None
        self.in_flight = 0
        self.oracle: Optional[Oracle] = None

    # Set-up -----------------------------------------------------------------
    def setup(self, seed: int) -> None:
        from repro.core.agent import AgentConfig
        from repro.data.tabular import Table
        from repro.queries.sql import parse_query
        from repro.serve import GatewayConfig, ServingGateway
        from repro.session import SEASession

        _, columns = clustered_table(self.n_rows, self.table_seed)
        self.oracle = Oracle(columns)
        self.rng = np.random.default_rng([seed, 4])
        session = SEASession(n_nodes=8)
        session.load_table(Table(dict(columns), name="data", value_bytes=8))
        gateway = ServingGateway(
            session,
            GatewayConfig(queue_capacity=1024, max_batch=32,
                          default_timeout=self.deadline_sec),
            agent_config=AgentConfig(training_budget=300, error_threshold=0.2),
            time_fn=time.perf_counter,
        )
        self.streams = {}
        self.pools = {}
        self.sent = dict.fromkeys(TENANTS, 0)
        self.requests = 0
        for index, tenant in enumerate(TENANTS):
            # The warm-up sample is the same for every seed, so runs
            # differ only in the measured traffic.
            warmup = self._tenant_queries(columns, index, [self.table_seed, 10 + index])
            agent = gateway.tenant(tenant).agent
            agent.submit_batch([parse_query(warmup.next().sql()) for _ in range(1200)])
            agent.config.keep_learning_on_fallback = False
            self.streams[tenant] = self._tenant_queries(columns, index, [seed, 40 + index])
            self.pools[tenant] = deque(maxlen=self.recent)
        gateway.attach_observer()
        self.gateway = gateway
        # The gateway binds to the first loop it runs on, so one loop
        # serves every episode of the run.
        self.loop = asyncio.SelectorEventLoop(selectors.SelectSelector())

    def _tenant_queries(self, columns, index: int, seed) -> HotspotQueries:
        placement = np.random.default_rng([self.table_seed, index])
        return HotspotQueries(columns, placement, np.random.default_rng(seed),
                              explore_every=100)

    def close(self) -> None:
        if self.gateway is not None:
            try:
                self.loop.run_until_complete(self.gateway.close())
            finally:
                self.loop.close()
            self.gateway = self.loop = None

    # Schedule ---------------------------------------------------------------
    def _request(self, offset: float) -> Arrival:
        rng = self.rng
        # Turns, so every burst has the same tenant mix whatever the seed.
        self.requests += 1
        tenant = TENANTS[self.requests % len(TENANTS)]
        self.sent[tenant] += 1
        pool = self.pools[tenant]
        if pool and self.sent[tenant] % self.reask_every in self.reask_slots:
            query = pool[int(rng.integers(len(pool)))]
        else:
            stream = self.streams[tenant]
            query = stream.next()
            if not stream.explored_last:
                pool.append(query)
        return Arrival(offset, tenant, query, query.sql())

    def next_episode(self) -> Episode:
        """Quiet arrivals are Poisson conditioned on their count (uniform
        offsets), so every episode has the same size and only the spacing
        varies by seed; the burst follows the quiet stretch."""
        quiet = np.sort(self.rng.uniform(0.0, self.quiet_sec,
                                         size=round(self.quiet_sec * self.quiet_rate)))
        offsets = list(quiet) + [self.quiet_sec] * self.burst_size
        return Episode([self._request(float(t)) for t in offsets])

    # Driving ----------------------------------------------------------------
    async def _fire(self, arrival: Arrival, due: float, deadline: float,
                    out: List[Outcome]) -> None:
        from repro.common.errors import AdmissionRejectedError

        late = time.perf_counter() - due
        self.in_flight += 1
        try:
            answer = await self.gateway.submit(arrival.sql, tenant=arrival.tenant,
                                               deadline=deadline)
        except AdmissionRejectedError:
            out.append(Outcome(arrival.query, late, time.perf_counter() - due, refused=True))
            return
        except Exception:  # counted as failed; the run goes on
            out.append(Outcome(arrival.query, late, time.perf_counter() - due, failed=True))
            return
        finally:
            self.in_flight -= 1
        done = time.perf_counter()
        out.append(Outcome(
            arrival.query, late, done - due, mode=answer.mode,
            value=float(answer.value), sim_sec=answer.cost.elapsed_sec,
            raw_queued=answer.queued_sec, raw_service=answer.service_sec,
            in_deadline=done <= deadline,
        ))

    async def _episode(self, episode: Episode, clock: HostClock, out: List[Outcome]) -> None:
        await self.gateway.start()
        loop = asyncio.get_running_loop()
        origin = time.perf_counter() + 1e-3
        tasks = []
        for arrival in episode.arrivals:
            due = origin + arrival.offset / episode.factor
            while True:
                delay = due - time.perf_counter()
                if delay > SPIN_SEC + REF_SEC and self.in_flight == 0:
                    # Nothing in flight and the serving thread idle: the
                    # gap until the next request samples the host's speed
                    # at the moments the requests themselves run.
                    clock.reference()
                elif delay > SPIN_SEC:
                    await asyncio.sleep(delay - SPIN_SEC)
                else:
                    break
            # Spin to the due time: timer wake-ups jitter by a good share
            # of a millisecond.
            while time.perf_counter() < due:
                pass
            deadline = due + self.deadline_sec / episode.factor
            tasks.append(loop.create_task(self._fire(arrival, due, deadline, out)))
            await asyncio.sleep(0)  # let the request start before pacing on
        await asyncio.gather(*tasks)
        episode.start, episode.end = origin, time.perf_counter()

    def units_for(self, seconds: float, min_requests: int) -> int:
        """Episodes in ``seconds`` of schedule (and ``min_requests``)."""
        period = self.quiet_sec
        size = round(self.quiet_sec * self.quiet_rate) + self.burst_size
        return max(1, math.ceil(seconds / period), math.ceil(min_requests / size))

    def run(self, clock: HostClock, n_episodes: int):
        """Serve ``n_episodes``; returns the outcomes and, per episode,
        where its outcomes start in that list."""
        outcomes: List[Outcome] = []
        starts: List[int] = []
        self.in_flight = 0
        clock.reference(samples=10)
        for _ in range(n_episodes):
            episode = self.next_episode()
            # Paced by the latest references: the schedule cannot wait for
            # the ones measured during and after it.
            episode.factor = clock.causal_factor()
            starts.append(len(outcomes))
            first_ref = len(clock.refs)
            self.loop.run_until_complete(self._episode(episode, clock, outcomes))
            # The gateway and its serving thread are idle here: every
            # request of the episode has its answer.
            clock.reference(samples=4)
            block = clock.add_block(episode.start, episode.end, episode.factor)
            block.ref_index, block.ref_end = first_ref, len(clock.refs)
        clock.settle()
        starts.append(len(outcomes))
        for block, lo, hi in zip(clock.blocks, starts, starts[1:]):
            for outcome in outcomes[lo:hi]:
                outcome.factor = block.factor
        return outcomes, starts[:-1]

