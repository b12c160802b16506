"""Which entry points each layer metric wraps, and the per-layer readout.

Time metrics are normalized self time.  Unless the name says otherwise
(``parallel.run_ms`` per run, ``ingest.append_us`` per append,
``ingest.epoch_close_ms`` per closed epoch, ``queries.parse_us`` per
parse) a time is per request served in the traced phase, so the layer
times of one workload add up, with ``trace.unattributed_share``, to its
request time.
"""

from __future__ import annotations

import time
from typing import Callable, Dict

import numpy as np

from perfbench.tracer import Tracer

#: Every per-layer metric with its unit, in output order.
PER_LAYER = {
    "queries.parse_calls": "count", "queries.parse_us": "us",
    "core.predict_us": "us", "core.quantize_us": "us", "core.error_estimate_us": "us",
    "core.predict_calls": "count", "core.predicted_share": "ratio",
    "core.fallback_share": "ratio", "core.agent_self_us": "us",
    "core.cache_hit_ratio": "ratio", "core.cache_us": "us",
    "core.cache_invalidations": "count", "core.answer_error_p90": "ratio",
    "engine.execute_ms": "ms", "engine.execute_calls": "count", "engine.plan_us": "us",
    "engine.skipped_share": "ratio", "engine.covered_share": "ratio",
    "engine.mb_scanned_per_query": "MB",
    "parallel.run_ms": "ms", "parallel.morsels_per_run": "count",
    "parallel.busy_share": "ratio",
    "cluster.read_us": "us", "cluster.read_mb": "MB",
    "ingest.append_us": "us", "ingest.epoch_close_ms": "ms", "ingest.compactions": "count",
    "ingest.wal_bytes_per_user_byte": "ratio", "ingest.write_p99_ms": "ms",
    "serve.queue_wait_p99_ms": "ms", "serve.batch_size_mean": "count",
    "serve.inline_share": "ratio", "serve.shed_share": "ratio",
    "serve.service_us_per_query": "us",
    "obs.observer_us_per_query": "us",
    "session.self_us": "us",
    "loadgen.late_p50_ms": "ms", "loadgen.late_p99_ms": "ms", "loadgen.failed_share": "ratio",
    "host.ref_ms": "ms", "host.raw_throughput_qps": "1/s", "host.raw_latency_p50_ms": "ms",
    "host.cpu_util": "ratio", "host.gc_ms": "ms/s",
    "trace.overhead_share": "ratio", "trace.unattributed_share": "ratio",
}

OBSERVER_METHODS = (
    "record_span", "on_charge", "inc", "set_gauge", "observe", "event",
    "profile_begin", "profile_note", "profile_end",
)


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points (see the table in NOTES.md)."""
    import repro.serve.gateway as gateway_module
    import repro.session as session_module
    from repro.baselines.exact import ExactEngine
    from repro.cluster.storage import DistributedStore
    from repro.core.agent import SEAAgent
    from repro.core.answer_cache import AnswerCache
    from repro.core.error import PrequentialErrorEstimator
    from repro.core.predictor import DatalessPredictor
    from repro.core.quantization import QuerySpaceQuantizer
    from repro.engine.mapreduce import MapReduceEngine
    from repro.ingest.pipeline import IngestPipeline
    from repro.ingest.wal import WriteAheadLog
    from repro.obs.observer import StackObserver
    from repro.parallel.executor import ScanExecutor
    from repro.serve.admission import AdmissionQueue
    from repro.serve.tenant import TenantHandle

    counts, values = tracer.counts, tracer.values
    wrap = tracer.wrap

    def count(key, amount=1):
        counts[key] += amount

    # queries: parse_query at its import-time bindings.
    for module in (session_module, gateway_module):
        wrap(module, "parse_query", "queries.parse",
             after=lambda r, s, *a, **k: count("parse_calls"))

    wrap(session_module.SEASession, "sql", "session")
    wrap(session_module.SEASession, "submit", "session")

    def note_modes(records):
        for record in records:
            count("mode." + record.mode)

    wrap(SEAAgent, "submit", "core.agent", after=lambda r, s, *a, **k: note_modes([r]))
    wrap(SEAAgent, "submit_batch", "core.agent", after=lambda r, s, *a, **k: note_modes(r))
    wrap(DatalessPredictor, "predict", "core.predict",
         after=lambda r, s, *a, **k: count("predict_calls"))
    wrap(DatalessPredictor, "predict_batch", "core.predict",
         after=lambda r, s, *a, **k: count("predict_calls"))
    for attr in ("assign", "assign_batch", "assign_novelty_batch"):
        wrap(QuerySpaceQuantizer, attr, "core.quantize")
    wrap(PrequentialErrorEstimator, "estimate", "core.error")
    wrap(AnswerCache, "lookup", "core.cache",
         after=lambda r, s, *a, **k: count("cache_hits" if r is not None else "cache_misses"))
    wrap(AnswerCache, "store", "core.cache")
    for attr in ("invalidate_signature", "evict_quanta"):
        wrap(AnswerCache, attr, "core.cache",
             after=lambda r, s, *a, **k: count("cache_invalidations", int(r or 0)))

    def note_executions(results):
        for _, report in results:
            count("executions")
            values["scanned_bytes"].append(float(report.bytes_scanned))

    def note_plan(plan, state, *args, **kwargs):
        if plan is not None:
            count("plan_partitions", len(plan.actions))
            count("plan_skipped", plan.n_skipped)
            count("plan_covered", plan.n_covered)

    wrap(ExactEngine, "execute", "engine.execute",
         after=lambda r, s, *a, **k: note_executions([r]))
    wrap(ExactEngine, "execute_many", "engine.execute",
         after=lambda r, s, *a, **k: note_executions(r))
    wrap(ExactEngine, "plan_for", "engine.plan", after=note_plan)
    wrap(MapReduceEngine, "run", "engine.mapreduce")
    wrap(MapReduceEngine, "run_many", "engine.mapreduce")

    # parallel: the executor's run, and each morsel on whichever thread runs it.
    original_run = ScanExecutor.__dict__["run"]

    def run_with_timed_morsels(self, morsels, fn, *args, **kwargs):
        count("parallel_runs")
        count("morsels", len(morsels))
        values["parallel_workers"].append(float(self.workers))
        return original_run(self, morsels, tracer.timed("parallel.morsel", fn), *args, **kwargs)

    tracer.patch(ScanExecutor, "run", run_with_timed_morsels)
    wrap(ScanExecutor, "run", "parallel.run")

    def note_read(nbytes):
        count("read_bytes", int(nbytes))

    wrap(DistributedStore, "read_partition", "cluster.read",
         after=lambda r, s, self, partition, *a, **k: note_read(partition.stored_bytes))
    wrap(DistributedStore, "read_columns", "cluster.read",
         after=lambda r, s, *a, **k: note_read(r.encoded_bytes))
    wrap(DistributedStore, "read_rows", "cluster.read",
         after=lambda r, s, self, partition, rows, *a, **k:
         note_read(len(np.atleast_1d(rows)) * partition.row_bytes))

    wrap(IngestPipeline, "append", "ingest.append",
         after=lambda r, s, self, name, rows: (count("appends"), count("user_bytes", rows.n_bytes)))

    def epochs_before(self, *args, **kwargs):
        return self.n_epochs_closed, self.n_compactions, time.perf_counter()

    def note_epochs(result, state, self, *args, **kwargs):
        closed = self.n_epochs_closed - state[0]
        count("compactions", self.n_compactions - state[1])
        if closed:
            count("epochs_closed", closed)
            values["epoch_close"].append((state[2], time.perf_counter() - state[2]))

    for attr in ("advance", "flush"):
        wrap(IngestPipeline, attr, "ingest.advance", before=epochs_before, after=note_epochs)
    wrap(WriteAheadLog, "sync", "ingest.wal", after=lambda r, s, *a, **k: count("wal_bytes", int(r)))

    wrap(AdmissionQueue, "offer", "serve.queue")
    wrap(AdmissionQueue, "take", "serve.queue")
    wrap(TenantHandle, "serve", "serve.tenant")

    for attr in OBSERVER_METHODS:
        wrap(StackObserver, attr, "obs")
    for attr in ("span", "profile_activate"):
        wrap(StackObserver, attr, "obs", context=True)


def readout(tracer: Tracer, factor_at: Callable[[float], float], requests: int,
            wall_norm_sec: float) -> Dict[str, float]:
    """Per-layer metrics of one traced phase that served ``requests``."""
    counts, values = tracer.counts, tracer.values
    own = tracer.self_time(factor_at)
    per_request = 1.0 / max(requests, 1)
    us = lambda *layers: sum(own.get(l, 0.0) for l in layers) * 1e6 * per_request
    ratio = lambda a, b: a / b if b else 0.0
    modes = sum(v for k, v in counts.items() if k.startswith("mode."))
    runs = tracer.durations("parallel.run", factor_at)
    morsel_sec = sum(tracer.durations("parallel.morsel", factor_at))
    workers = values["parallel_workers"][0] if values["parallel_workers"] else 1.0
    close_ms = sum(d * factor_at(s) for s, d in values["epoch_close"]) * 1e3
    # Morsels on pool threads overlap their caller's span, so only the
    # other threads' span time counts as attributed; the rest of the
    # phase's wall time is the benchmark's own work (or idle schedule).
    attributed = tracer.self_time(factor_at, skip_threads=tracer.pool_threads())
    return {
        "queries.parse_calls": float(counts["parse_calls"]),
        "queries.parse_us": ratio(own.get("queries.parse", 0.0) * 1e6, counts["parse_calls"]),
        "core.predict_us": us("core.predict"),
        "core.quantize_us": us("core.quantize"),
        "core.error_estimate_us": us("core.error"),
        "core.predict_calls": float(counts["predict_calls"]),
        "core.predicted_share": ratio(counts["mode.predicted"], modes),
        "core.fallback_share": ratio(counts["mode.fallback"], modes),
        "core.agent_self_us": us("core.agent"),
        "core.cache_hit_ratio": ratio(counts["cache_hits"], counts["cache_hits"] + counts["cache_misses"]),
        "core.cache_us": us("core.cache"),
        "core.cache_invalidations": float(counts["cache_invalidations"]),
        "engine.execute_ms": us("engine.execute", "engine.mapreduce") / 1e3,
        "engine.execute_calls": float(counts["executions"]),
        "engine.plan_us": us("engine.plan"),
        "engine.skipped_share": ratio(counts["plan_skipped"], counts["plan_partitions"]),
        "engine.covered_share": ratio(counts["plan_covered"], counts["plan_partitions"]),
        "engine.mb_scanned_per_query": ratio(sum(values["scanned_bytes"]) / 1e6, counts["executions"]),
        "parallel.run_ms": ratio(sum(runs) * 1e3, len(runs)),
        "parallel.morsels_per_run": ratio(counts["morsels"], counts["parallel_runs"]),
        "parallel.busy_share": ratio(morsel_sec, sum(runs) * workers),
        "cluster.read_us": us("cluster.read"),
        "cluster.read_mb": counts["read_bytes"] / 1e6,
        "ingest.append_us": ratio(own.get("ingest.append", 0.0) * 1e6, counts["appends"]),
        "ingest.epoch_close_ms": ratio(close_ms, counts["epochs_closed"]),
        "ingest.compactions": float(counts["compactions"]),
        "ingest.wal_bytes_per_user_byte": ratio(counts["wal_bytes"], counts["user_bytes"]),
        "obs.observer_us_per_query": us("obs"),
        "session.self_us": us("session"),
        "trace.unattributed_share": max(0.0, 1.0 - ratio(sum(attributed.values()), wall_norm_sec)),
    }
