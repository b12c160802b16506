"""Morsel-style multicore scan execution with deterministic merges.

The simulator's storage layer is numpy-columnar, and the kernels the
engines run per partition — selection masks, aggregate partials, shared
``batch_masks`` passes, row ``take``s — release the GIL for the bulk of
their work.  :class:`ScanExecutor` exploits that: partition-level work
units (*morsels*) are fanned out across a
:class:`~concurrent.futures.ThreadPoolExecutor` so a scan-heavy job uses
every core the host offers.

Determinism is the design's first invariant, not an afterthought:

* **Workers compute, the caller charges.**  A morsel's function must be
  *pure compute* over immutable inputs (partition data never mutates
  after ingest).  Everything order-sensitive — cost-meter charges,
  served-bytes load accounting, fault-injector RNG draws, failover
  retries, trace spans — stays on the calling thread, replayed in
  partition-index order exactly as the serial path would.  Answers,
  cost-meter byte totals, and every pre-existing observability counter
  are therefore *byte-identical* at any worker count.
* **Largest-first morsel queue.**  Morsels are submitted to the pool in
  descending ``size_bytes`` order (ties broken by index), the classic
  LPT heuristic: big partitions start first so no straggler finishes
  last on an otherwise idle pool.
* **Deterministic merge.**  Results land in a slot array indexed by
  submission position and are returned in the *input* order, regardless
  of completion order.  Exceptions are re-raised in input order too, so
  a failing batch fails the same way every run.
* **``workers=1`` is the serial path.**  No pool is created, no thread
  is spawned, no ``parallel_*`` metric is emitted: a ``workers=1``
  executor is observationally identical to having no executor at all.

With ``workers>1`` each batch emits ``parallel_*`` metrics and one
``parallel:<label>`` trace span (category ``parallel``, measured in
*host* seconds — the one place repro.obs reports real wall-clock rather
than simulated time).  These are the only observable artifacts that vary
with the worker count.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from repro.common.validation import require
from repro.obs.observer import NULL_OBSERVER, Observer


@dataclass(frozen=True)
class Morsel:
    """One unit of partition-level work.

    ``index`` is the merge key (partition position for engine scans);
    ``payload`` is what the batch function receives; ``size_bytes``
    orders the morsel queue (largest first).
    """

    index: int
    payload: Any
    size_bytes: int = 0


class ScanExecutor:
    """A reusable worker pool for partition-parallel scan compute.

    One executor is shared by every engine of a session; its pool is
    created lazily on the first parallel batch and reused until
    :meth:`close`.  The executor is itself thread-safe, but the batch
    functions it runs must be pure compute over immutable inputs — see
    the module docstring for the full thread-safety contract.
    """

    #: Value of the ``executor`` label on ``parallel_*`` metrics/spans.
    name = "thread"

    def __init__(
        self, workers: int = 1, observer: Optional[Observer] = None
    ) -> None:
        require(int(workers) >= 1, f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self.observer = observer or NULL_OBSERVER
        self._pool: Optional[ThreadPoolExecutor] = None
        self._lock = threading.Lock()

    @property
    def parallel(self) -> bool:
        """True iff this executor actually fans work out to a pool."""
        return self.workers > 1

    def attach_observer(self, observer: Observer) -> None:
        """Emit ``parallel_*`` metrics/spans for later batches on ``observer``."""
        self.observer = observer

    # Batch execution -------------------------------------------------------
    def run(
        self,
        morsels: Sequence[Morsel],
        fn: Callable[[Any], Any],
        label: str = "scan",
        observer: Optional[Observer] = None,
    ) -> List[Any]:
        """Apply ``fn`` to every morsel payload; results in input order.

        Serial executors (``workers=1``) run the comprehension inline —
        bit-for-bit the loop the engines used to own.  Parallel executors
        enqueue largest-first, merge by slot, and re-raise the first
        failure *in input order* (not completion order).
        """
        if not morsels:
            return []
        if not self.parallel:
            return [fn(m.payload) for m in morsels]
        obs = observer if observer is not None else self.observer
        started = time.perf_counter()
        pool = self._ensure_pool()
        # Morsel queue: largest payload first (LPT), index breaks ties so
        # the submission order is deterministic for equal sizes.
        order = sorted(
            range(len(morsels)),
            key=lambda i: (-morsels[i].size_bytes, morsels[i].index),
        )
        futures: List[Optional[Future]] = [None] * len(morsels)
        for i in order:
            futures[i] = pool.submit(fn, morsels[i].payload)
        results: List[Any] = [None] * len(morsels)
        error: Optional[BaseException] = None
        for i, future in enumerate(futures):
            try:
                results[i] = future.result()
            except BaseException as exc:  # re-raised after draining the batch
                if error is None:
                    error = exc
        if obs.enabled:
            self._note_batch(obs, morsels, label, time.perf_counter() - started)
        if error is not None:
            raise error
        return results

    # Pool lifecycle --------------------------------------------------------
    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="sea-scan"
                )
            return self._pool

    def close(self) -> None:
        """Shut the pool down (idempotent); a later batch re-creates it."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ScanExecutor":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        return f"ScanExecutor(workers={self.workers})"

    # Observability ---------------------------------------------------------
    def _note_batch(
        self,
        obs: Observer,
        morsels: Sequence[Morsel],
        label: str,
        host_seconds: float,
    ) -> None:
        obs.inc("parallel_batches_total", label=label, executor=self.name)
        obs.inc("parallel_morsels_total", len(morsels), label=label, executor=self.name)
        total_bytes = sum(m.size_bytes for m in morsels)
        if total_bytes:
            obs.inc("parallel_bytes_total", total_bytes, label=label, executor=self.name)
        obs.set_gauge("parallel_workers", self.workers)
        obs.observe("parallel_batch_host_seconds", host_seconds, label=label)
        obs.record_span(
            f"parallel:{label}",
            obs.now,
            host_seconds,
            category="parallel",
            track="parallel-pool",
            morsels=len(morsels),
            workers=self.workers,
            executor=self.name,
            bytes=total_bytes,
        )


def partition_morsels(partitions, should_scan=None, columns=None) -> List[Morsel]:
    """Morsels over a stored table's partitions (payload = the data).

    ``should_scan(index)`` filters (default: every partition); sizes come
    from the partitions' serialized bytes so the morsel queue starts the
    heaviest scans first.  With ``columns``, columnar partitions carry a
    column-pruned :class:`ColumnarPartition` payload sized by its encoded
    bytes (the late-materialization fast path); row-major partitions fall
    back to the full row payload.  Dirty partitions (staged delta writes)
    always carry the base+delta view: the encoded image covers the base
    only.
    """
    morsels: List[Morsel] = []
    for index, partition in enumerate(partitions):
        if should_scan is not None and not should_scan(index):
            continue
        dirty = bool(getattr(partition, "dirty", False))
        columnar = getattr(partition, "columnar", None)
        if columns is not None and columnar is not None and not dirty:
            payload = columnar.project(columns)
            size = int(payload.encoded_bytes)
        else:
            payload = partition.read_view() if dirty else partition.data
            size = int(partition.n_bytes)
        morsels.append(Morsel(index=index, payload=payload, size_bytes=size))
    return morsels
