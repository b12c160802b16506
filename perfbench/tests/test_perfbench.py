"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

They check that the seed drives the inputs, that the closed-loop
cost-model, accuracy and per-layer counts repeat exactly for one seed,
that tracing changes no answer, that the oracle catches a wrong exact
answer, and that the command fails cleanly without the program.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import harness, layers  # noqa: E402
from perfbench.closed import CLOSED_LOOPS  # noqa: E402
from perfbench.inputs import HotspotQueries, Mixture, ScanQueries  # noqa: E402
from perfbench.oracle import Oracle  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402

REPEATABLE_END_TO_END = ("sim_latency_mean_ms", "accurate_share", "answered_share")
REPEATABLE_LAYER = (
    "queries.parse_calls", "core.predict_calls", "core.predicted_share",
    "core.fallback_share", "core.cache_hit_ratio", "core.cache_invalidations",
    "core.answer_error_p90", "engine.execute_calls", "engine.skipped_share",
    "engine.covered_share", "engine.mb_scanned_per_query", "parallel.morsels_per_run",
    "cluster.read_mb", "ingest.compactions", "ingest.wal_bytes_per_user_byte",
)


def _answers(phase):
    return [(s.query, s.mode, s.value, s.sim_sec) for s in phase.served]


def test_seed_chooses_the_inputs():
    columns = Mixture(np.random.default_rng(0)).draw(2000, np.random.default_rng(0))

    def stream(seed):
        queries = HotspotQueries(columns, np.random.default_rng(1), np.random.default_rng(seed))
        return [queries.next() for _ in range(20)]

    assert stream(5) == stream(5)
    assert stream(5) != stream(6)
    scans = lambda seed: [ScanQueries(np.random.default_rng(seed)).next() for _ in range(5)]
    assert scans(1) != scans(2)


def test_seed_is_a_required_argument():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "steady-serve"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "--seed" in proc.stderr


@pytest.mark.parametrize("name", sorted(CLOSED_LOOPS))
def test_closed_loop_figures_repeat_for_one_seed(name):
    first = harness.run_untraced(name, 7, 0.05)
    second = harness.run_untraced(name, 7, 0.05)
    assert first.correct and second.correct
    for metric in REPEATABLE_END_TO_END:
        assert first.metrics[metric] == second.metrics[metric], metric
    assert first.notes["core.answer_error_p90"] == second.notes["core.answer_error_p90"]
    other = harness.run_untraced(name, 8, 0.05)
    assert other.metrics["sim_latency_mean_ms"] != first.metrics["sim_latency_mean_ms"]


@pytest.mark.parametrize("name", sorted(CLOSED_LOOPS))
def test_closed_loop_layer_counts_repeat_for_one_seed(name):
    first = harness.run_traced(name, 3, 0.05, None)
    second = harness.run_traced(name, 3, 0.05, None)
    assert first.correct and second.correct
    assert set(first.metrics) == set(layers.PER_LAYER)
    for metric in REPEATABLE_LAYER:
        assert first.metrics[metric] == second.metrics[metric], metric


@pytest.mark.parametrize("name", sorted(CLOSED_LOOPS) + ["gateway-open"])
def test_tracing_changes_no_answer(name):
    served = []
    for traced in (False, True):
        workload = harness.make_workload(name)
        workload.setup(11)
        tracer = Tracer()
        if traced:
            layers.install(tracer)
        try:
            if name == "gateway-open":
                phase = harness._measure(workload, 2)
                # Open-loop batching depends on timing; compare per query.
                served.append(sorted((s.query.sql(), s.mode, s.value) for s in phase.served))
            else:
                phase = harness._measure(workload, 2 * workload.block_ops)
                served.append(_answers(phase))
        finally:
            tracer.uninstall()
            workload.close()
    if name == "gateway-open":
        assert [q for q, *_ in served[0]] == [q for q, *_ in served[1]]
        exact = lambda rows: [r for r in rows if r[1] != "predicted"]
        assert exact(served[0]) == exact(served[1])
    else:
        assert served[0] == served[1]
    assert tracer.spans, "the traced run recorded no spans"


def test_oracle_catches_a_wrong_exact_answer():
    workload = harness.make_workload("cold-scan")
    workload.n_rows = 20_000
    workload.setup(1)
    try:
        phase = harness._measure(workload, workload.block_ops)
    finally:
        workload.close()
    assert not harness.check_answers(workload, phase.served, 0).mismatches
    phase.served[0].value += 1.0
    assert harness.check_answers(workload, phase.served, 0).mismatches


def test_oracle_counts_appended_rows_it_was_told_about():
    oracle = Oracle({"x0": np.array([1.0, 2.0]), "x1": np.array([1.0, 1.0]),
                     "value": np.array([10.0, 20.0])})
    oracle.append({"x0": np.array([1.5]), "x1": np.array([1.0]), "value": np.array([30.0])})
    box = ((0.0, 0.0), (3.0, 3.0))
    assert oracle.answer("count", *box) == 2.0
    assert oracle.answer("count", *box, tail_rows=1) == 3.0
    assert oracle.answer("avg", *box, tail_rows=1) == 20.0
    assert oracle.answer("avg", (5.0, 5.0), (6.0, 6.0)) == 0.0


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)


def test_fails_without_printing_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
