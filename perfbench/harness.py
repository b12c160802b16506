"""Runs one workload (set-up, measured phase, checks) and computes metrics.

The untraced run (``trace=False``) gives every end-to-end metric.  The
traced run serves a fixed prefix with the layer wrappers installed,
then an untraced stretch, and reports the per-layer metrics plus the
tracing overhead as the ratio of the two stretches' normalized time per
request.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench import layers
from perfbench.closed import CLOSED_LOOPS, ClosedLoop
from perfbench.hostnorm import HostClock, PoolReference
from perfbench.openloop import GatewayOpen
from perfbench.oracle import exact_matches, relative_error
from perfbench.tracer import Tracer

WORKLOADS = tuple(CLOSED_LOOPS) + (GatewayOpen.name,)
SETUP_REPEATS = 5
#: Timing metrics are the median over this many equal stretches of a run.
SEGMENTS = 5
#: Each stretch's p99 needs at least ten samples beyond it.
MIN_REQUESTS = SEGMENTS * 1000
#: An answer counts as accurate within this relative error of the oracle.
ACCURACY_TOLERANCE = 0.10
EXACT_MODES = ("train", "fallback")

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_qps": "1/s",
    "goodput_qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "sim_latency_mean_ms": "ms",
    "accurate_share": "ratio",
    "answered_share": "ratio",
    "peak_rss_mb": "MB",
}


@dataclass
class Phase:
    """What one measured stretch served, with its clock.

    ``starts[i]`` is where the requests of block ``i`` (a closed-loop
    block or an open-loop episode) begin in ``served``.
    """

    clock: HostClock = field(default_factory=HostClock)
    served: list = field(default_factory=list)
    writes: list = field(default_factory=list)
    starts: List[int] = field(default_factory=list)
    cpu_sec: float = 0.0
    gc_sec: float = 0.0
    wall_sec: float = 0.0

    @property
    def answered(self) -> list:
        return [s for s in self.served if s.answered]

    def segments(self, n: int) -> List[Tuple[list, float]]:
        """``n`` contiguous runs of blocks: (their requests, normalized seconds)."""
        blocks = self.clock.blocks
        bounds = self.starts + [len(self.served)]
        cuts = [round(i * len(blocks) / n) for i in range(n + 1)]
        return [
            (self.served[bounds[lo]:bounds[hi]], sum(b.norm_sec for b in blocks[lo:hi]))
            for lo, hi in zip(cuts, cuts[1:]) if hi > lo
        ]


class _GcTimer:
    """Collector pause time, from the interpreter's gc callbacks."""

    def __init__(self) -> None:
        self.total = 0.0
        self._start = 0.0

    def __call__(self, phase, info) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.total += time.perf_counter() - self._start

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)
        return False


def _measure(workload, units: int, pool: Optional[PoolReference] = None) -> Phase:
    """Serve ``units`` operations (closed loops) or episodes (open loop)."""
    phase = Phase(clock=HostClock(pool=pool))
    began, cpu0 = time.perf_counter(), time.process_time()
    with _GcTimer() as gc_timer:
        if isinstance(workload, GatewayOpen):
            phase.served, phase.starts = workload.run(phase.clock, units)
        else:
            _closed_blocks(workload, phase, units)
    phase.wall_sec = time.perf_counter() - began
    phase.cpu_sec = time.process_time() - cpu0
    phase.gc_sec = gc_timer.total
    return phase


def _closed_blocks(workload: ClosedLoop, phase: Phase, n_ops: int) -> None:
    clock, served, writes = phase.clock, phase.served, phase.writes
    write_starts = []
    clock.reference()
    for _ in range(0, n_ops, workload.block_ops):
        ops = [workload.next_op() for _ in range(workload.block_ops)]
        phase.starts.append(len(served))
        write_starts.append(len(writes))
        start = time.perf_counter()
        for op in ops:
            workload.run_op(op, served, writes)
        end = time.perf_counter()
        clock.add_block(start, end)
        clock.reference()
    clock.settle()
    bounds = zip(phase.starts, phase.starts[1:] + [len(served)],
                 write_starts, write_starts[1:] + [len(writes)])
    for block, (r0, r1, w0, w1) in zip(clock.blocks, bounds):
        for item in served[r0:r1] + writes[w0:w1]:
            item.latency = item.raw_sec * block.factor


def _timed_setups(workload, seed: int, repeats: int,
                  pool: Optional[PoolReference]) -> List[float]:
    clock = HostClock(pool=pool)
    clock.reference(samples=4)
    for _ in range(repeats):
        workload.close()
        gc.collect()
        start = time.perf_counter()
        workload.setup(seed)
        clock.add_block(start, time.perf_counter())
        clock.reference(samples=4)
    clock.settle()
    gc.collect()
    gc.freeze()
    return [block.norm_sec for block in clock.blocks]


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


@dataclass
class Check:
    """Oracle verdicts over one run."""

    mismatches: List[str] = field(default_factory=list)
    errors: List[float] = field(default_factory=list)  # scored answers only
    accurate: int = 0
    scored: int = 0


def check_answers(workload, served, scored: int) -> Check:
    """Exact answers must match the oracle; scored ones feed accuracy.

    Every exact-mode answer is checked; predicted answers are compared
    within the first ``scored`` requests, whose figures are reported.
    """
    check = Check()
    oracle = workload.oracle
    for index, item in enumerate(served):
        in_prefix = index < scored
        if in_prefix:
            check.scored += 1
        if not item.answered:
            continue
        exact = item.mode in EXACT_MODES
        if not (exact or in_prefix):
            continue
        query = item.query
        truth = oracle.answer(query.kind, query.lows, query.highs, item.tail_rows)
        if not np.isfinite(item.value):
            check.mismatches.append(f"non-finite {item.mode} answer to {query.sql()}")
            continue
        if exact and not exact_matches(item.value, truth):
            check.mismatches.append(
                f"{item.mode} answer {item.value!r} != oracle {truth!r} for {query.sql()}")
        if in_prefix:
            error = relative_error(item.value, truth)
            check.errors.append(error)
            check.accurate += error <= ACCURACY_TOLERANCE
    return check


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timing_metrics(phase: Phase, workload) -> Dict[str, float]:
    """Throughput, goodput and latency percentiles: the median over the
    run's segments, so a passing disturbance moves one segment only."""
    limit = workload.latency_limit_ms / 1e3
    per_segment = []
    for items, norm_sec in phase.segments(SEGMENTS):
        answered = [s for s in items if s.answered]
        latencies = [s.latency for s in answered]
        if isinstance(workload, GatewayOpen):
            # Throughput per second of serving time (the gateway's
            # capacity); goodput per second of schedule up to each
            # episode's last answer, so bursts drained late earn less.
            service = sum(s.service for s in answered)
            throughput = len(answered) / service if service else 0.0
            good = sum(1 for s in answered if s.in_deadline)
        else:
            throughput = len(answered) / norm_sec
            good = sum(1 for s in answered if s.latency <= limit)
        per_segment.append({
            "throughput_qps": throughput,
            "goodput_qps": good / norm_sec,
            "latency_p50_ms": _percentile(latencies, 50) * 1e3,
            "latency_p99_ms": _percentile(latencies, 99) * 1e3,
        })
    return {key: statistics.median(seg[key] for seg in per_segment) for key in per_segment[0]}


def make_workload(name: str):
    if name == GatewayOpen.name:
        return GatewayOpen()
    return CLOSED_LOOPS[name]()


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    notes: Dict[str, float]
    mismatches: List[str]


def _attempted_failed(phases) -> Tuple[int, int]:
    attempted = sum(len(p.served) + len(p.writes) for p in phases)
    return attempted, attempted - sum(len(p.answered) + len(p.writes) for p in phases)


def _pool_reference(workload) -> Optional[PoolReference]:
    return PoolReference() if workload.two_threads else None


def run_untraced(name: str, seed: int, seconds: float) -> Result:
    workload = make_workload(name)
    pool = _pool_reference(workload)
    try:
        setups = _timed_setups(workload, seed, SETUP_REPEATS, pool)
        phase = _measure(workload, workload.units_for(seconds, MIN_REQUESTS), pool)
    finally:
        workload.close()
        if pool is not None:
            pool.close()
    scored = workload.scored or len(phase.served)
    check = check_answers(workload, phase.served, scored)
    attempted, failed = _attempted_failed([phase])
    sim = [s.sim_sec for s in phase.served[:scored] if s.answered]
    values = {"setup_s": statistics.median(setups)}
    values.update(_timing_metrics(phase, workload))
    values.update({
        "sim_latency_mean_ms": statistics.fmean(sim) * 1e3 if sim else 0.0,
        "accurate_share": check.accurate / check.scored if check.scored else 0.0,
        "answered_share": 1.0 - failed / attempted if attempted else 0.0,
        "peak_rss_mb": _rss_mb(),
    })
    notes = _host_notes(phase)
    notes.update(_side_notes(phase, check, attempted, failed))
    return Result(
        correct=not check.mismatches,
        attempted=attempted,
        failed=failed,
        metrics={k: (values[k], END_TO_END_UNITS[k]) for k in END_TO_END_UNITS},
        notes=notes,
        mismatches=check.mismatches,
    )


def _host_notes(phase: Phase) -> Dict[str, float]:
    served = phase.answered
    raw_latency = [s.raw_sec for s in served]
    raw_sec = phase.clock.raw_sec
    return {
        "host.ref_ms": phase.clock.ref_ms,
        "host.raw_throughput_qps": len(served) / raw_sec if raw_sec else 0.0,
        "host.raw_latency_p50_ms": _percentile(raw_latency, 50) * 1e3,
        "host.cpu_util": phase.cpu_sec / phase.wall_sec if phase.wall_sec else 0.0,
        "host.gc_ms": phase.gc_sec * 1e3 / phase.wall_sec if phase.wall_sec else 0.0,
    }


def _side_notes(phase: Phase, check: Check, attempted: int, failed: int) -> Dict[str, float]:
    writes = [w.latency for w in phase.writes]
    late = [s.late for s in phase.served if hasattr(s, "late")]
    return {
        "core.answer_error_p90": _percentile(check.errors, 90),
        "ingest.write_p99_ms": _percentile(writes, 99) * 1e3,
        "loadgen.late_p50_ms": _percentile(late, 50) * 1e3,
        "loadgen.late_p99_ms": _percentile(late, 99) * 1e3,
        "loadgen.failed_share": failed / attempted if attempted else 0.0,
    }


def run_traced(name: str, seed: int, seconds: float, trace_path: Optional[str]) -> Result:
    workload = make_workload(name)
    pool = _pool_reference(workload)
    tracer = Tracer()
    try:
        _timed_setups(workload, seed, 1, pool)
        gateway = getattr(workload, "gateway", None)
        before = gateway.stats() if gateway is not None else None
        layers.install(tracer)
        try:
            traced = _measure(workload, workload.trace_units, pool)
        finally:
            tracer.uninstall()
        after = gateway.stats() if gateway is not None else None
        untraced = _measure(workload, workload.units_for(seconds / 2, 0), pool)
    finally:
        workload.close()
        if pool is not None:
            pool.close()
    if trace_path:
        tracer.write(trace_path)
    served = traced.served + untraced.served
    check = check_answers(workload, served, len(traced.served))
    attempted, failed = _attempted_failed([traced, untraced])
    values = {name: 0.0 for name in layers.PER_LAYER}
    values.update(layers.readout(tracer, traced.clock.factor_at, len(traced.served),
                                 traced.clock.norm_sec))
    values.update(_serve_metrics(traced, before, after))
    values.update(_host_notes(untraced))
    values.update(_side_notes(untraced, check, attempted, failed))
    values["core.answer_error_p90"] = _percentile(check.errors, 90)
    values["trace.overhead_share"] = _time_per_request(traced, workload) / _time_per_request(
        untraced, workload) - 1.0
    return Result(
        correct=not check.mismatches,
        attempted=attempted,
        failed=failed,
        metrics={k: (values[k], unit) for k, unit in layers.PER_LAYER.items()},
        notes={},
        mismatches=check.mismatches,
    )


def _time_per_request(phase: Phase, workload) -> float:
    if isinstance(workload, GatewayOpen):
        answered = phase.answered
        return sum(s.service for s in answered) / max(len(answered), 1)
    return phase.clock.norm_sec / max(len(phase.served), 1)


def _serve_metrics(phase: Phase, before, after) -> Dict[str, float]:
    if before is None:
        return {}
    answered = phase.answered
    served = after["served_total"] - before["served_total"]
    batches = after["batches_total"] - before["batches_total"]
    inline = after["inline_total"] - before["inline_total"]
    return {
        "serve.queue_wait_p99_ms": _percentile([s.queued for s in answered], 99) * 1e3,
        "serve.batch_size_mean": served / batches if batches else 0.0,
        "serve.inline_share": inline / served if served else 0.0,
        "serve.shed_share": sum(1 for s in phase.served if s.refused) / max(len(phase.served), 1),
        "serve.service_us_per_query": statistics.fmean([s.service for s in answered]) * 1e6
        if answered else 0.0,
    }
