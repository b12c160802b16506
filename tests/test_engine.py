"""Unit tests for repro.engine: BDAS stack, resources, MapReduce, coordinator."""

import numpy as np
import pytest

from repro.common import CostMeter
from repro.cluster import ClusterTopology, DistributedStore
from repro.data import Table, uniform_table
from repro.engine import (
    BDASStack,
    CoordinatorEngine,
    MapReduceEngine,
    ResourceManager,
)
from repro.engine.bdas import agent_stack
from repro.engine.mapreduce import estimate_payload_bytes, stable_hash
from repro.parallel import ScanExecutor


@pytest.fixture
def cluster():
    topo = ClusterTopology.single_datacenter(4)
    store = DistributedStore(topo)
    store.put_table(uniform_table(1000, seed=0, name="t"), partitions_per_node=2)
    return store


class TestBDASStack:
    def test_depth_and_layers(self):
        stack = BDASStack()
        assert stack.depth == 5
        assert agent_stack().depth == 2

    def test_submission_charges_every_engaged_node(self):
        stack = BDASStack()
        meter = CostMeter()
        stack.charge_submission(meter, "driver", ["n1", "n2", "n3"])
        report = meter.freeze()
        assert report.nodes_touched == 4
        assert report.layers_crossed >= stack.depth + 3

    def test_deeper_stack_costs_more(self):
        shallow = BDASStack(layers=("client",))
        deep = BDASStack(layers=tuple(f"l{i}" for i in range(10)))
        m1, m2 = CostMeter(), CostMeter()
        t_shallow = shallow.charge_submission(m1, "d", ["n1"])
        t_deep = deep.charge_submission(m2, "d", ["n1"])
        assert t_deep > t_shallow


class TestResourceManager:
    def test_makespan_single_slot_is_sum(self):
        topo = ClusterTopology.single_datacenter(1)
        rm = ResourceManager(topo, slots_per_node=1)
        assert rm.makespan([1.0, 2.0, 3.0], n_slots=1) == pytest.approx(6.0)

    def test_makespan_parallel_slots(self):
        topo = ClusterTopology.single_datacenter(1)
        rm = ResourceManager(topo)
        assert rm.makespan([1.0] * 8, n_slots=8) == pytest.approx(1.0)
        assert rm.makespan([1.0] * 8, n_slots=4) == pytest.approx(2.0)

    def test_makespan_empty(self):
        rm = ResourceManager(ClusterTopology.single_datacenter(1))
        assert rm.makespan([]) == 0.0

    def test_makespan_lpt_reasonable(self):
        rm = ResourceManager(ClusterTopology.single_datacenter(1))
        # LPT on [3,3,2,2,2] with 2 slots assigns {3,2,2} and {3,2}: 7.
        # (Optimal is 6; LPT is within its 4/3 guarantee.)
        assert rm.makespan([3, 3, 2, 2, 2], n_slots=2) == pytest.approx(7.0)

    def test_makespan_per_node_is_worst_node(self):
        topo = ClusterTopology.single_datacenter(2)
        rm = ResourceManager(topo, slots_per_node=1)
        node_tasks = {"a": [1.0, 1.0], "b": [5.0]}
        assert rm.makespan_per_node(node_tasks) == pytest.approx(5.0)

    def test_negative_duration_rejected(self):
        rm = ResourceManager(ClusterTopology.single_datacenter(1))
        with pytest.raises(ValueError):
            rm.makespan([-1.0])

    def test_queueing_delay_zero_when_idle(self):
        rm = ResourceManager(ClusterTopology.single_datacenter(4))
        assert rm.queueing_delay(0, 1.0) == 0.0
        assert rm.queueing_delay(8, 1.0) > 0.0

    def test_total_slots(self):
        topo = ClusterTopology.single_datacenter(3)
        rm = ResourceManager(topo, slots_per_node=2)
        assert rm.total_slots() == 6


class TestMapReduce:
    def test_count_rows_job(self, cluster):
        engine = MapReduceEngine(cluster)
        results, report = engine.run(
            "t",
            map_fn=lambda part: [(0, part.n_rows)],
            reduce_fn=lambda key, values: sum(values),
            n_reducers=1,
        )
        assert results[0] == 1000
        assert report.tasks_launched >= 8  # one map task per partition

    def test_scans_entire_table(self, cluster):
        engine = MapReduceEngine(cluster)
        _, report = engine.run(
            "t", lambda p: [(0, 1)], lambda k, v: len(v), n_reducers=1
        )
        assert report.bytes_scanned == cluster.table("t").n_bytes
        assert report.nodes_touched == 4

    def test_grouped_keys_route_to_reducers(self, cluster):
        engine = MapReduceEngine(cluster)
        results, _ = engine.run(
            "t",
            map_fn=lambda part: [
                (int(v > 50.0), 1.0) for v in part["x0"]
            ],
            reduce_fn=lambda key, values: len(values),
            n_reducers=2,
        )
        assert results[0] + results[1] == 1000

    def test_elapsed_grows_with_data(self):
        topo = ClusterTopology.single_datacenter(4)
        store = DistributedStore(topo)
        store.put_table(uniform_table(1000, seed=1, name="small"))
        store.put_table(uniform_table(100000, seed=2, name="big"))
        engine = MapReduceEngine(store)
        _, small = engine.run("small", lambda p: [(0, 1)], lambda k, v: 1)
        _, big = engine.run("big", lambda p: [(0, 1)], lambda k, v: 1)
        assert big.elapsed_sec > small.elapsed_sec

    def test_stable_hash_deterministic(self):
        assert stable_hash("abc") == stable_hash("abc")
        assert stable_hash(1) != stable_hash(2)

    def test_estimate_payload_bytes(self):
        assert estimate_payload_bytes(1.0) == 8
        assert estimate_payload_bytes(np.zeros(10)) == 80
        assert estimate_payload_bytes("abcd") == 4
        assert estimate_payload_bytes([1.0, 2.0]) == 24
        table = Table({"a": np.zeros(4)})
        assert estimate_payload_bytes(table) == table.n_bytes


class TestCoordinator:
    def test_fetch_rows_returns_exact_rows(self, cluster):
        stored = cluster.table("t")
        engine = CoordinatorEngine(cluster)
        data, report = engine.fetch_rows(stored, {0: [0, 1], 2: [3]})
        assert data.n_rows == 3
        expected = stored.partitions[0].data.take([0, 1])
        assert np.allclose(data["x0"][:2], expected["x0"])
        # Kernel identity: the shared row-take pass gathers the union of
        # every plan's rows once per partition, inline or on the pool,
        # and each plan's slice is bitwise the direct take.
        plans = [{0: [4, 1, 4], 2: [3]}, {0: [1, 7]}]
        for executor in (None, ScanExecutor(2)):
            engine = CoordinatorEngine(cluster, executor=executor)
            fetched = engine.fetch_rows_many(stored, plans)
            for plan, (rows, _) in zip(plans, fetched):
                want = Table.concat(
                    [stored.partitions[p].data.take(plan[p]) for p in sorted(plan)]
                )
                for name in want.column_names:
                    assert rows[name].tobytes() == want[name].tobytes()
            if executor is not None:
                executor.close()

    def test_untouched_partitions_not_scanned(self, cluster):
        stored = cluster.table("t")
        engine = CoordinatorEngine(cluster)
        _, report = engine.fetch_rows(stored, {0: [0]})
        assert report.bytes_scanned == stored.partitions[0].data.row_bytes
        # Far fewer nodes than a full job.
        assert report.nodes_touched <= 2

    def test_empty_request_returns_empty_table(self, cluster):
        stored = cluster.table("t")
        engine = CoordinatorEngine(cluster)
        data, _ = engine.fetch_rows(stored, {})
        assert data.n_rows == 0
        assert data.column_names == stored.column_names

    def test_out_of_range_partition_rejected(self, cluster):
        stored = cluster.table("t")
        engine = CoordinatorEngine(cluster)
        with pytest.raises(Exception):
            engine.fetch_rows(stored, {99: [0]})

    def test_charge_stack_false_is_cheaper(self, cluster):
        stored = cluster.table("t")
        engine = CoordinatorEngine(cluster)
        _, with_stack = engine.fetch_rows(stored, {0: [0]})
        _, without = engine.fetch_rows(stored, {0: [0]}, charge_stack=False)
        assert without.elapsed_sec < with_stack.elapsed_sec

    def test_scatter_gather_parallel_elapsed(self, cluster):
        engine = CoordinatorEngine(cluster)
        nodes = cluster.topology.node_ids
        report = engine.scatter_gather(
            {n: 100 for n in nodes}, {n: 1000 for n in nodes}
        )
        assert report.messages == 2 * len(nodes)
        # Parallel: elapsed is one round trip, not the sum.
        single = engine.scatter_gather({nodes[0]: 100}, {nodes[0]: 1000})
        assert report.elapsed_sec < len(nodes) * single.elapsed_sec


class TestMapReduceEquivalenceProperty:
    """MapReduce partial/merge jobs must equal direct centralized compute."""

    @pytest.mark.parametrize("partitions_per_node", [1, 3])
    def test_aggregate_jobs_match_direct(self, partitions_per_node):
        from hypothesis import given, settings
        from hypothesis import strategies as st
        from repro.queries import Count, Mean, Std, Sum

        topo = ClusterTopology.single_datacenter(3)
        store = DistributedStore(topo)
        table = uniform_table(997, seed=33, name="t")  # odd size: ragged splits
        store.put_table(table, partitions_per_node=partitions_per_node)
        engine = MapReduceEngine(store)
        for aggregate in (Count(), Sum("value"), Mean("value"), Std("value")):
            results, _ = engine.run(
                "t",
                map_fn=lambda part, agg=aggregate: [(0, agg.partial(part))],
                reduce_fn=lambda key, values, agg=aggregate: agg.merge(values),
                n_reducers=1,
            )
            direct = aggregate.compute(table)
            assert results[0] == pytest.approx(direct), aggregate.name

    def test_multi_key_grouping_sums_match(self):
        topo = ClusterTopology.single_datacenter(4)
        store = DistributedStore(topo)
        rng = np.random.default_rng(34)
        table = Table(
            {
                "group": rng.integers(0, 7, size=2000).astype(float),
                "value": rng.normal(size=2000),
            },
            name="g",
        )
        store.put_table(table, partitions_per_node=2)
        engine = MapReduceEngine(store)

        def map_fn(part):
            return [
                (int(g), float(v))
                for g, v in zip(part["group"], part["value"])
            ]

        results, _ = engine.run(
            "g", map_fn, lambda key, values: sum(values), n_reducers=3
        )
        for group in range(7):
            expected = table["value"][table["group"] == group].sum()
            assert results[group] == pytest.approx(expected)


class TestRatesInjection:
    def test_custom_rates_flow_through_engines(self):
        from repro.common import CostRates

        topo = ClusterTopology.single_datacenter(2)
        store = DistributedStore(topo)
        store.put_table(uniform_table(50_000, seed=40, name="t"))
        slow_disk = CostRates(disk_bytes_per_sec=1e6)
        fast = MapReduceEngine(store)
        slow = MapReduceEngine(store, rates=slow_disk)
        _, r_fast = fast.run("t", lambda p: [(0, 1)], lambda k, v: 1)
        _, r_slow = slow.run("t", lambda p: [(0, 1)], lambda k, v: 1)
        assert r_slow.elapsed_sec > r_fast.elapsed_sec * 2

    def test_coordinator_rates_injection(self):
        from repro.common import CostRates

        topo = ClusterTopology.single_datacenter(2)
        store = DistributedStore(topo)
        stored = store.put_table(uniform_table(5000, seed=41, name="t"))
        slow_lan = CostRates(lan_rtt_sec=0.1)
        fast = CoordinatorEngine(store)
        slow = CoordinatorEngine(store, rates=slow_lan)
        _, r_fast = fast.fetch_rows(stored, {0: list(range(100))})
        _, r_slow = slow.fetch_rows(stored, {0: list(range(100))})
        assert r_slow.elapsed_sec > r_fast.elapsed_sec * 2
