"""The morsel-style parallel scan executor (DESIGN §9).

Two families of guarantees:

* **Executor mechanics** — deterministic merge order, input-order error
  propagation, ``workers=1`` meaning *no pool at all*, morsel-queue
  construction, and the ``parallel_*`` observability surface appearing
  only when work actually fans out.
* **Byte-identity** — a hypothesis property drives the full engine
  stack (execute / execute_many / fetch_rows, pruning on and off, fault
  schedule active and not) through fresh identically-seeded worlds at
  ``workers=1`` vs ``workers=3`` and requires ``repr``-equal answers
  and ``==``-equal cost-report dicts, float fields included.

Plus the thread-safety satellites: concurrent CostMeter/metrics charging
loses nothing, the fault injector survives concurrent draws, the KNN /
``batch_masks`` edge cases, and the hoisted ``Selection.box()`` cache.
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import ExactEngine
from repro.cluster import ClusterTopology, DistributedStore
from repro.common import CostMeter
from repro.data import Table, gaussian_mixture_table
from repro.engine import CoordinatorEngine
from repro.engine.pruning import plan_scan
from repro.faults import FaultInjector, FaultSchedule, TransientReadError
from repro.obs import StackObserver
from repro.obs.metrics import MetricsRegistry
from repro.parallel import Morsel, ScanExecutor, partition_morsels
from repro.queries import (
    AnalyticsQuery,
    Count,
    KNNSelection,
    Mean,
    Median,
    RangeSelection,
    Std,
)
from repro.queries.selections import batch_masks
from repro.session import SEASession


# --------------------------------------------------------------------------
# Executor mechanics
# --------------------------------------------------------------------------
class TestScanExecutor:
    def test_results_in_input_order_regardless_of_completion(self):
        # Small morsels finish first; large ones are *submitted* first
        # (LPT).  Either way the merge is input-ordered.
        def slow_identity(payload):
            time.sleep(payload / 1000.0)
            return payload

        morsels = [Morsel(index=i, payload=p, size_bytes=p) for i, p in
                   enumerate([5, 1, 9, 3, 7, 2, 8, 4])]
        with ScanExecutor(workers=4) as executor:
            out = executor.run(morsels, slow_identity)
        assert out == [5, 1, 9, 3, 7, 2, 8, 4]

    def test_workers_one_is_inline_no_pool_no_threads(self):
        executor = ScanExecutor(workers=1)
        seen_threads = []
        out = executor.run(
            [Morsel(index=i, payload=i) for i in range(4)],
            lambda p: seen_threads.append(threading.current_thread().name) or p,
        )
        assert out == [0, 1, 2, 3]
        assert executor._pool is None  # never created
        assert all(
            not name.startswith("sea-scan") for name in seen_threads
        )
        assert not executor.parallel

    def test_parallel_runs_on_pool_threads(self):
        names = []
        with ScanExecutor(workers=3) as executor:
            executor.run(
                [Morsel(index=i, payload=i) for i in range(6)],
                lambda p: names.append(threading.current_thread().name) or p,
            )
        assert names and all(n.startswith("sea-scan") for n in names)

    def test_errors_reraised_in_input_order(self):
        def maybe_fail(payload):
            if payload in (2, 5):
                raise ValueError(f"boom {payload}")
            return payload

        morsels = [Morsel(index=i, payload=i) for i in range(8)]
        for workers in (1, 4):
            with ScanExecutor(workers=workers) as executor:
                with pytest.raises(ValueError, match="boom 2"):
                    executor.run(morsels, maybe_fail)

    def test_empty_batch(self):
        with ScanExecutor(workers=4) as executor:
            assert executor.run([], lambda p: p) == []

    def test_close_is_idempotent_and_pool_recreates(self):
        executor = ScanExecutor(workers=2)
        morsels = [Morsel(index=0, payload=1)]
        assert executor.run(morsels, lambda p: p + 1) == [2]
        executor.close()
        executor.close()
        assert executor.run(morsels, lambda p: p * 10) == [10]
        executor.close()

    def test_workers_must_be_positive(self):
        with pytest.raises(Exception):
            ScanExecutor(workers=0)

    def test_partition_morsels_filters_and_sizes(self, stored_table):
        morsels = partition_morsels(
            stored_table.partitions, should_scan=lambda i: i % 2 == 0
        )
        assert [m.index for m in morsels] == [
            i for i in range(len(stored_table.partitions)) if i % 2 == 0
        ]
        for morsel in morsels:
            partition = stored_table.partitions[morsel.index]
            assert morsel.payload is partition.data
            assert morsel.size_bytes == partition.n_bytes

    def test_parallel_metrics_only_when_parallel(self):
        morsels = [Morsel(index=i, payload=i, size_bytes=10) for i in range(3)]
        serial_obs, parallel_obs = StackObserver(), StackObserver()
        with ScanExecutor(workers=1, observer=serial_obs) as executor:
            executor.run(morsels, lambda p: p)
        with ScanExecutor(workers=2, observer=parallel_obs) as executor:
            executor.run(morsels, lambda p: p, label="unit")
        serial_keys = [
            k for k in serial_obs.metrics.as_dict() if k.startswith("parallel_")
        ]
        parallel_snapshot = parallel_obs.metrics.as_dict()
        assert serial_keys == []
        key = '{executor="thread",label="unit"}'
        assert parallel_snapshot[f"parallel_batches_total{key}"] == 1.0
        assert parallel_snapshot[f"parallel_morsels_total{key}"] == 3.0
        assert parallel_snapshot[f"parallel_bytes_total{key}"] == 30.0
        assert parallel_snapshot["parallel_workers"] == 2.0


# --------------------------------------------------------------------------
# Byte-identity: serial vs parallel across the whole stack
# --------------------------------------------------------------------------
def _build_world(seed, n_rows, parts_per_node, pruning, faulty, workers):
    topo = ClusterTopology.single_datacenter(4)
    store = DistributedStore(topo, replication=2 if faulty else 1)
    table = gaussian_mixture_table(
        n_rows, dims=("x0", "x1"), seed=seed, name="data"
    )
    store.put_table(table, partitions_per_node=parts_per_node)
    if faulty:
        schedule = (
            FaultSchedule().crash("node-1").flaky("node-2", 0.3).slow("node-3", 2.0)
        )
        store.attach_faults(FaultInjector(schedule, seed=seed + 1))
    executor = ScanExecutor(workers)
    engine = ExactEngine(store, pruning=pruning, executor=executor,
                         failure_mode="degrade" if faulty else "fail")
    coordinator = CoordinatorEngine(store, executor=executor)
    return store, engine, coordinator, executor


def _drive(store, engine, coordinator, seed):
    """One mixed workload; returns everything that must be identical."""
    rng = np.random.default_rng(seed)
    queries = []
    for aggregate in (Count(), Mean("x0"), Std("x1"), Median("x0")):
        lo = rng.uniform(0, 60, size=2)
        hi = lo + rng.uniform(5, 40, size=2)
        queries.append(
            AnalyticsQuery(
                "data", RangeSelection(("x0", "x1"), lo, hi), aggregate
            )
        )
    outputs = []
    for query in queries:
        answer, report = engine.execute(query)
        outputs.append((repr(answer), report.as_dict()))
    for answer, report in engine.execute_many(queries):
        outputs.append((repr(answer), report.as_dict()))
    stored = store.table("data")
    n_parts = len(stored.partitions)
    plans = [
        {
            int(rng.integers(0, n_parts)): rng.integers(
                0, stored.partitions[0].n_rows, size=5
            ),
            0: np.arange(3),
        },
        {i: np.arange(2) for i in range(n_parts)},
    ]
    for plan in plans:
        rows, report = coordinator.fetch_rows(stored, plan)
        outputs.append((repr(rows.matrix(("x0", "x1")).tolist()), report.as_dict()))
    for rows, report in coordinator.fetch_rows_many(stored, plans):
        outputs.append((repr(rows.matrix(("x0", "x1")).tolist()), report.as_dict()))
    return outputs


class TestByteIdentity:
    @given(
        seed=st.integers(0, 40),
        parts_per_node=st.sampled_from([1, 3]),
        pruning=st.booleans(),
        faulty=st.booleans(),
    )
    @settings(max_examples=8, deadline=None)
    def test_parallel_equals_serial(self, seed, parts_per_node, pruning, faulty):
        # Two *independent* identically-seeded worlds: the store mutates
        # load counters across reads, so the runs must not share one.
        outputs = {}
        for workers in (1, 3):
            store, engine, coordinator, executor = _build_world(
                seed, 3000, parts_per_node, pruning, faulty, workers
            )
            try:
                outputs[workers] = _drive(store, engine, coordinator, seed)
            finally:
                executor.close()
        assert outputs[1] == outputs[3]

    def test_workers_one_equals_no_executor(self, stored_table, store):
        query = AnalyticsQuery(
            "data",
            RangeSelection(("x0", "x1"), [20.0, 20.0], [70.0, 70.0]),
            Mean("x1"),
        )
        bare = ExactEngine(store)
        wired = ExactEngine(store, executor=ScanExecutor(1))
        a1, r1 = bare.execute(query)
        a2, r2 = wired.execute(query)
        assert repr(a1) == repr(a2)
        assert r1.as_dict() == r2.as_dict()

    def test_session_stats_identical_modulo_parallel_metrics(self):
        def run(workers):
            session = SEASession(n_nodes=4, workers=workers)
            session.attach_observer()
            table = gaussian_mixture_table(
                4000, dims=("x0", "x1"), seed=5, name="data"
            )
            session.load_table(table)
            statements = [
                "SELECT COUNT(*) FROM data WHERE x0 BETWEEN 10 AND 60 "
                "AND x1 BETWEEN 10 AND 60",
                "SELECT MEAN(x0) FROM data WHERE x0 BETWEEN 0 AND 90 "
                "AND x1 BETWEEN 20 AND 80",
            ]
            answers = [session.sql(s) for s in statements]
            answers += session.sql_many(statements)
            stats = session.stats()
            session.close()
            return answers, stats

        answers_1, stats_1 = run(1)
        answers_2, stats_2 = run(2)
        for a, b in zip(answers_1, answers_2):
            assert repr(a.value) == repr(b.value)
            assert a.mode == b.mode
            assert a.cost.as_dict() == b.cost.as_dict()

        def comparable(stats):
            # parallel_* metrics and span counts are the *only* keys the
            # worker count may influence (DESIGN §9): the parallel run
            # records extra parallel:<label> spans.
            return {
                k: v
                for k, v in stats.items()
                if not k.startswith("parallel_")
                and not k.startswith("trace_spans")
                and k != "obs_spans_recorded"
            }

        assert comparable(stats_1) == comparable(stats_2)
        # And the parallel run did actually fan out.
        assert any(k.startswith("parallel_") for k in stats_2)
        assert not any(k.startswith("parallel_") for k in stats_1)

    @pytest.mark.parametrize("layout", ["row", "column"])
    def test_session_metrics_agree_modulo_parallel(self, layout):
        # Engine-level answers, cost reports and every non-parallel_*
        # metric must not depend on whether the pool fans out.
        def drive(workers):
            session = SEASession(n_nodes=3, workers=workers, layout=layout)
            obs = session.attach_observer(StackObserver())
            table = gaussian_mixture_table(
                1500, dims=("x0", "x1"), seed=4, name="data"
            )
            session.store.put_table(table, partitions_per_node=2)
            selection = RangeSelection(
                ("x0", "x1"), np.array([5.0, 5.0]), np.array([60.0, 70.0])
            )
            answers = []
            for aggregate in (Count(), Mean("x0"), Median("x1")):
                query = AnalyticsQuery("data", selection, aggregate)
                answer, report = session.engine.execute(query)
                answers.append((repr(answer), report.as_dict()))
            snapshot = obs.metrics.as_dict()
            metrics = {
                key: value
                for key, value in snapshot.items()
                if not key.startswith("parallel_")
            }
            session.close()
            return answers, metrics, snapshot

        serial_answers, serial_metrics, serial_all = drive(1)
        parallel_answers, parallel_metrics, parallel_all = drive(2)
        assert serial_answers == parallel_answers
        assert serial_metrics == parallel_metrics
        assert not any(k.startswith("parallel_") for k in serial_all)
        assert any(k.startswith("parallel_") for k in parallel_all)


# --------------------------------------------------------------------------
# Thread-safety satellites
# --------------------------------------------------------------------------
class TestConcurrentCharging:
    def test_cost_meter_loses_nothing_under_contention(self):
        meter = CostMeter()
        n_threads, n_charges = 8, 400

        def worker():
            for _ in range(n_charges):
                # Equal-valued charges: float sums are order-independent.
                meter.charge_scan("n0", 1024, rows=2)
                meter.charge_transfer("n0", "n1", 256)
                meter.charge_layers("n2", 1)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        report = meter.freeze()
        total = n_threads * n_charges
        assert report.bytes_scanned == total * 1024
        assert report.rows_examined == total * 2
        assert report.bytes_shipped_lan == total * 256
        assert report.messages == total
        assert report.layers_crossed == total
        assert report.nodes_touched == 3
        rates = meter.rates
        expected = total * (
            1024 / rates.disk_bytes_per_sec
            + rates.lan_rtt_sec
            + 256 / rates.lan_bytes_per_sec
            + rates.layer_overhead_sec
        )
        assert report.node_sec == pytest.approx(expected, rel=1e-12)

    def test_metrics_registry_loses_nothing_under_contention(self):
        registry = MetricsRegistry()
        n_threads, n_ops = 8, 300

        def worker(i):
            for j in range(n_ops):
                registry.counter("hits").labels(kind=str(j % 3)).inc()
                registry.histogram("lat").labels().observe(1.0)
                registry.gauge("depth").labels().inc()

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snapshot = registry.as_dict()
        total = n_threads * n_ops
        assert sum(
            v for k, v in snapshot.items() if k.startswith("hits{")
        ) == total
        assert snapshot["lat_count"] == total
        assert snapshot["lat_sum"] == pytest.approx(float(total))
        assert snapshot["depth"] == total

    def test_injector_concurrent_draws_consistent(self):
        injector = FaultInjector(FaultSchedule().flaky("a", 0.5), seed=3)
        failures = []

        def worker():
            local = 0
            for _ in range(200):
                try:
                    injector.maybe_fail_read("a")
                except TransientReadError:
                    local += 1
            failures.append(local)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert injector.n_transient == sum(failures)
        assert 0 < injector.n_transient < 1200

    def test_injector_concurrent_clock_and_state(self):
        injector = FaultInjector(FaultSchedule().crash("a", 1.0, 2.0))

        def advance():
            for _ in range(100):
                injector.advance(0.01)

        def query_state():
            for _ in range(100):
                injector.is_down("a")
                injector.down_nodes(["a", "b"])

        threads = [threading.Thread(target=advance) for _ in range(4)] + [
            threading.Thread(target=query_state) for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert injector.now == pytest.approx(4.0)
        assert not injector.is_down("a")  # window [1, 2] has passed


# --------------------------------------------------------------------------
# Selection satellites: KNN edges, batch_masks edges, cached box()
# --------------------------------------------------------------------------
class TestSelectionEdges:
    def _table(self, n):
        rng = np.random.default_rng(0)
        return Table(
            {"x0": rng.normal(size=n), "x1": rng.normal(size=n)}, name="t"
        )

    def test_knn_k_at_least_n_rows_selects_everything(self):
        table = self._table(5)
        for k in (5, 6, 100):
            mask = KNNSelection(("x0", "x1"), [0.0, 0.0], k).mask(table)
            assert mask.dtype == bool and mask.all() and mask.shape == (5,)

    def test_knn_zero_row_partition(self):
        table = self._table(0)
        mask = KNNSelection(("x0", "x1"), [0.0, 0.0], 3).mask(table)
        assert mask.shape == (0,) and mask.dtype == bool

    def test_knn_normal_case_still_exact(self):
        table = self._table(50)
        selection = KNNSelection(("x0", "x1"), [0.2, -0.1], 7)
        mask = selection.mask(table)
        assert int(mask.sum()) == 7
        points = table.matrix(("x0", "x1"))
        dist = ((points - np.asarray([0.2, -0.1])) ** 2).sum(axis=1)
        assert dist[mask].max() <= dist[~mask].min()

    def test_batch_masks_empty_selection_list(self):
        assert batch_masks([], self._table(10)) == []

    def test_batch_masks_zero_row_table(self):
        table = self._table(0)
        selections = [
            RangeSelection(("x0", "x1"), [-1, -1], [1, 1]),
            RangeSelection(("x0", "x1"), [0, 0], [2, 2]),
        ]
        masks = batch_masks(selections, table)
        assert len(masks) == 2
        for mask, selection in zip(masks, selections):
            assert mask.shape == (0,)
            assert np.array_equal(mask, selection.mask(table))

    def test_batch_masks_with_knn_over_zero_rows(self):
        table = self._table(0)
        masks = batch_masks(
            [KNNSelection(("x0", "x1"), [0.0, 0.0], 2)], table
        )
        assert masks[0].shape == (0,)


class TestBoundingBoxHoisting:
    def test_box_computed_once_per_selection(self):
        selection = RangeSelection(("x0", "x1"), [0.0, 0.0], [1.0, 1.0])
        calls = []
        original = selection.bounding_box
        selection.bounding_box = lambda: calls.append(1) or original()
        first = selection.box()
        second = selection.box()
        assert len(calls) == 1
        assert first is second
        np.testing.assert_array_equal(first[0], [0.0, 0.0])

    def test_plan_scan_consults_box_once_across_partitions(self, store):
        rng = np.random.default_rng(2)
        table = Table(
            {"x0": rng.normal(size=2000), "x1": rng.normal(size=2000)},
            name="boxy",
        )
        store.put_table(table, partitions_per_node=4)  # 16 partitions
        synopses = store.synopses("boxy")
        selection = RangeSelection(("x0", "x1"), [-0.5, -0.5], [0.5, 0.5])
        calls = []
        original = selection.bounding_box
        selection.bounding_box = lambda: calls.append(1) or original()
        plan_scan(synopses, selection, Count(), emit_key=0)
        assert len(calls) == 1

    def test_box_cache_is_per_instance(self):
        a = RangeSelection(("x0",), [0.0], [1.0])
        b = RangeSelection(("x0",), [2.0], [3.0])
        assert a.box()[0][0] == 0.0
        assert b.box()[0][0] == 2.0
        assert a.box() is not b.box()
