"""Tests for the baseline engines: exact, BlinkDB-like, Canopy-like, DBL-like."""

import numpy as np
import pytest

from repro.baselines import DBLEngine, ExactEngine, SamplingAQPEngine, SegmentStatsCache
from repro.baselines.exact import batch_partial_fn
from repro.baselines.sampling import uniform_sample_error_bound
from repro.cluster import ClusterTopology, DistributedStore
from repro.cluster.columnar import ColumnarPartition
from repro.common.errors import ConfigurationError
from repro.data import gaussian_mixture_table
from repro.queries import AnalyticsQuery, Count, Mean, RangeSelection, Std, Sum


@pytest.fixture(scope="module")
def world():
    topo = ClusterTopology.single_datacenter(4)
    store = DistributedStore(topo)
    table = gaussian_mixture_table(20000, dims=("x0", "x1"), seed=3, name="data")
    store.put_table(table, partitions_per_node=2)
    return store, table


def range_query(lo, hi, aggregate=None):
    return AnalyticsQuery(
        "data",
        RangeSelection(("x0", "x1"), [lo, lo], [hi, hi]),
        aggregate or Count(),
    )


class TestExactEngine:
    def test_answers_match_ground_truth(self, world):
        store, table = world
        engine = ExactEngine(store)
        queries = [
            range_query(20.0, 70.0, aggregate)
            for aggregate in (Count(), Mean("value"), Sum("value"), Std("x1"))
        ]
        for query in queries:
            answer, _ = engine.execute(query)
            assert answer == pytest.approx(query.evaluate(table))
        # Kernel identity: the shared batch pass (every job, or an active
        # subset) equals each job's single-query map output, on row
        # partitions and on their encoded columnar images alike.
        batch = batch_partial_fn(
            [q.selection for q in queries], [q.aggregate for q in queries]
        )
        for partition in store.table("data").partitions:
            singles = [engine._job_fns(q)[0](partition.data) for q in queries]
            encoded = ColumnarPartition.from_table(partition.data)
            for payload in (partition.data, encoded):
                assert repr(batch(payload)) == repr(singles)
                assert repr(batch(payload, [3, 0])) == repr(
                    [singles[3], singles[0]]
                )
                assert repr(engine._job_fns(queries[1])[0](payload)) == repr(
                    singles[1]
                )

    def test_cost_scans_whole_table(self, world):
        store, table = world
        engine = ExactEngine(store)
        _, report = engine.execute(range_query(20.0, 30.0))
        assert report.bytes_scanned == store.table("data").n_bytes
        assert report.nodes_touched >= 4

    def test_ground_truth_no_cost(self, world):
        store, table = world
        engine = ExactEngine(store)
        query = range_query(10.0, 90.0)
        assert engine.ground_truth(query) == pytest.approx(query.evaluate(table))


class TestSamplingAQP:
    def test_count_estimate_within_statistical_bound(self, world):
        store, table = world
        engine = SamplingAQPEngine(store, sample_rate=0.1, seed=0)
        engine.build_sample("data", ["x0", "x1"])
        query = range_query(20.0, 80.0)
        truth = query.evaluate(table)
        answer, _ = engine.execute(query)
        n_sampled = int(truth * 0.1)
        bound = 4 * uniform_sample_error_bound(max(n_sampled, 1))
        assert abs(answer - truth) / truth < max(bound, 0.2)

    def test_selective_queries_are_less_accurate(self, world):
        """The paper's criticism: accuracy degrades with selectivity."""
        store, table = world
        engine = SamplingAQPEngine(store, sample_rate=0.02, seed=1)
        engine.build_sample("data", ["x0", "x1"])
        rng = np.random.default_rng(2)

        def mean_rel_error(width, n=40):
            errors = []
            for _ in range(n):
                lo = rng.uniform(10, 90 - width)
                query = range_query(lo, lo + width)
                truth = query.evaluate(table)
                answer, _ = engine.execute(query)
                errors.append(abs(answer - truth) / max(truth, 1.0))
            return np.mean(errors)

        assert mean_rel_error(3.0) > mean_rel_error(40.0)

    def test_cost_proportional_to_sample_not_table(self, world):
        store, table = world
        engine = SamplingAQPEngine(store, sample_rate=0.05, seed=3)
        engine.build_sample("data", ["x0", "x1"])
        _, report = engine.execute(range_query(20.0, 60.0))
        assert report.bytes_scanned < store.table("data").n_bytes / 5

    def test_sample_bytes_reported(self, world):
        store, _ = world
        engine = SamplingAQPEngine(store, sample_rate=0.05, seed=4)
        n = engine.build_sample("data", ["x0", "x1"])
        assert engine.sample_bytes("data") > n * 8

    def test_mean_answers_unscaled(self, world):
        store, table = world
        engine = SamplingAQPEngine(store, sample_rate=0.2, seed=5)
        engine.build_sample("data", ["x0", "x1"])
        query = range_query(10.0, 90.0, Mean("value"))
        answer, _ = engine.execute(query)
        assert answer == pytest.approx(query.evaluate(table), abs=1.0)

    def test_query_without_sample_rejected(self, world):
        store, _ = world
        engine = SamplingAQPEngine(store, seed=6)
        with pytest.raises(ConfigurationError):
            engine.execute(range_query(0.0, 10.0))

    def test_invalid_rate_rejected(self, world):
        store, _ = world
        with pytest.raises(ConfigurationError):
            SamplingAQPEngine(store, sample_rate=1.5)


class TestSegmentStatsCache:
    def make_cache(self, store, cells=16):
        return SegmentStatsCache(store, "data", ("x0", "x1"), cells_per_dim=cells)

    def test_answers_are_exact(self, world):
        store, table = world
        cache = self.make_cache(store)
        for aggregate in (Count(), Sum("value"), Mean("value"), Std("value")):
            query = range_query(25.0, 75.0, aggregate)
            answer, _ = cache.execute(query)
            assert answer == pytest.approx(query.evaluate(table), rel=1e-9)

    def test_repeat_queries_get_cheaper(self, world):
        store, _ = world
        cache = self.make_cache(store)
        query = range_query(20.0, 70.0)
        _, first = cache.execute(query)
        _, second = cache.execute(query)
        assert second.bytes_scanned < first.bytes_scanned
        assert cache.hits > 0

    def test_footprint_grows_with_touched_regions(self, world):
        """The paper's criticism: cache state grows with exploration."""
        store, _ = world
        cache = self.make_cache(store)
        cache.execute(range_query(10.0, 30.0))
        small = cache.n_cached_cells
        cache.execute(range_query(50.0, 95.0))
        assert cache.n_cached_cells > small
        assert cache.state_bytes() > 0

    def test_only_range_selections_supported(self, world):
        store, _ = world
        cache = self.make_cache(store)
        from repro.queries import RadiusSelection

        bad = AnalyticsQuery(
            "data", RadiusSelection(("x0", "x1"), [50, 50], 5.0), Count()
        )
        with pytest.raises(ConfigurationError):
            cache.execute(bad)


class TestDBLEngine:
    def test_learning_reduces_error_on_seen_workload(self, world):
        """DBL corrects the sample's systematic error on (re)seen queries.

        The paper notes such approaches "typically only benefit previously
        seen queries" — so the test evaluates on the training workload
        itself, where the correction must clearly help.
        """
        store, table = world
        aqp = SamplingAQPEngine(store, sample_rate=0.02, seed=7)
        aqp.build_sample("data", ["x0", "x1"])
        dbl = DBLEngine(aqp, min_training=15, refit_every=5)
        rng = np.random.default_rng(8)
        queries = [
            range_query(lo, lo + 20) for lo in rng.uniform(20, 50, size=40)
        ]
        truths = [q.evaluate(table) for q in queries]

        def eval_error():
            errors = []
            for query, truth in zip(queries, truths):
                answer, _ = dbl.execute(query)
                errors.append(abs(answer - truth) / max(truth, 1.0))
            return np.mean(errors)

        before = eval_error()
        for query, truth in zip(queries, truths):
            dbl.learn(query, truth)
        after = eval_error()
        assert after < before

    def test_state_grows_linearly_with_history(self, world):
        """The paper's criticism: DBL stores every past query."""
        store, table = world
        aqp = SamplingAQPEngine(store, sample_rate=0.02, seed=9)
        aqp.build_sample("data", ["x0", "x1"])
        dbl = DBLEngine(aqp, min_training=5)
        base = dbl.state_bytes()
        for i in range(50):
            query = range_query(20.0 + i * 0.1, 40.0 + i * 0.1)
            dbl.learn(query, query.evaluate(table))
        grown = dbl.state_bytes()
        assert grown - base >= 50 * 8  # at least one stored float per query
        assert dbl.n_observed == 50
