"""Self-tests of the benchmark code: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import matrix  # noqa: E402
import seeded  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from probe import Interval, rollup  # noqa: E402
from stats import (  # noqa: E402
    MIN_BEYOND,
    Rung,
    UnsupportedPercentile,
    percentile,
    sustained_pps,
)
from workloads import load_golden  # noqa: E402

from repro.bench import BenchmarkRunner  # noqa: E402
from repro.core import ExecutionEngine  # noqa: E402
from repro.core.engine import fingerprint_table  # noqa: E402


# ----------------------------------------------------------------------
# the percentile rule
# ----------------------------------------------------------------------


def test_p90_refused_with_fewer_than_ten_samples_beyond():
    with pytest.raises(UnsupportedPercentile):
        percentile(range(99), 0.9)  # rank 90 of 99: 9 beyond


def test_p90_reported_with_ten_samples_beyond():
    assert percentile(range(100), 0.9) == 89  # rank 90 of 100: 10 beyond
    assert percentile(list(reversed(range(100))), 0.9) == 89


def test_median_needs_ten_beyond_too():
    with pytest.raises(UnsupportedPercentile):
        percentile(range(2 * MIN_BEYOND - 1), 0.5)
    assert percentile(range(2 * MIN_BEYOND), 0.5) == MIN_BEYOND - 1


# ----------------------------------------------------------------------
# rung verdicts and serve_sustained_pps
# ----------------------------------------------------------------------


def _rung(name, pps, latency, backlog=50, n=120, failed=0, scored=None):
    offered = 9600
    return Rung(
        name=name, pps=pps, latencies_s=[latency] * n,
        backlog_pkts_end=backlog, chunk_pkts=80, packets_offered=offered,
        packets_scored=offered if scored is None else scored,
        packets_failed=failed, goodput_pps=pps,
    )


def test_rung_meets_limit_within_latency_and_backlog():
    assert _rung("light", 1000, 0.2).meets_limit()
    assert _rung("light", 1000, 1.0, backlog=80).meets_limit()


def test_rung_fails_on_latency_backlog_loss_or_thin_sample():
    assert not _rung("light", 1000, 1.2).meets_limit()
    assert not _rung("light", 1000, 0.2, backlog=81).meets_limit()
    assert not _rung("light", 1000, 0.2, failed=1).meets_limit()
    assert not _rung("light", 1000, 0.2, scored=9000).meets_limit()
    assert not _rung("light", 1000, 0.2, n=99).meets_limit()


def test_p90_of_a_mixed_series_decides_the_rung():
    rung = _rung("normal", 5000, 0.1)
    rung.latencies_s = [0.1] * 108 + [3.0] * 12  # p90 = rank 108 -> 0.1
    assert rung.meets_limit()
    rung.latencies_s = [0.1] * 107 + [3.0] * 13  # p90 = rank 108 -> 3.0
    assert not rung.meets_limit()


def test_sustained_pps_is_highest_rung_meeting_the_limit():
    light = _rung("light", 1000, 0.2)
    normal = _rung("normal", 5000, 0.4)
    heavy = _rung("heavy", 20000, 9.0, backlog=8000)
    assert sustained_pps([light, normal, heavy]) == 5000
    assert sustained_pps([light, _rung("normal", 5000, 2.0), heavy]) == 1000
    assert sustained_pps([_rung("light", 1000, 3.0), heavy]) == 0.0


# ----------------------------------------------------------------------
# seeded inputs and the default-seed digest check
# ----------------------------------------------------------------------


def test_same_seed_same_fingerprint_other_seed_differs():
    first = fingerprint_table(seeded.serve_scenario(3).generate())
    again = fingerprint_table(seeded.serve_scenario(3).generate())
    other = fingerprint_table(seeded.serve_scenario(4).generate())
    assert first == again
    assert first != other


def test_seed_zero_is_the_stock_trace():
    from repro.datasets import DATASETS

    stock = DATASETS["F0"].scenario
    assert seeded.seeded_scenario("F0", 0) == stock
    assert seeded.seeded_scenario("F0", 2).seed == stock.seed + 2000


def _cell_digest(seed: int) -> str:
    seeded.register(["F0", "F1"], seed)
    seeded.clear_caches()
    ExecutionEngine.shared_cache.clear()
    runner = BenchmarkRunner(seed=0)
    runner.evaluate("A14", seeded.bench_id("F0"), seeded.bench_id("F1"))
    return matrix.store_digests(runner.store)["A14/F0/F1"]


def test_default_seed_matches_golden_and_other_seed_fails_it():
    golden = load_golden()["cells"]["A14/F0/F1"]
    try:
        assert _cell_digest(seeded.DEFAULT_SEED) == golden
        assert _cell_digest(1) != golden
    finally:
        seeded.clear_caches()
        ExecutionEngine.shared_cache.clear()


# ----------------------------------------------------------------------
# the trace rollup
# ----------------------------------------------------------------------


def test_rollup_self_time_exclusion_and_remainder():
    intervals = [
        Interval("evaluate", 0.0, 10.0),
        Interval("featurize", 0.5, 2.5),
        Interval("core.run", 1.0, 2.0),
        Interval("ml.fit.forest", 3.0, 9.0),
        Interval("ml.tree_fit", 3.0, 4.0),
        Interval("check.serve", 11.0, 13.0),
        Interval("stream_chunk", 11.5, 12.5),
    ]
    out = rollup(intervals, wall_s=14.0)
    assert out["bench.self_s"] == pytest.approx(2.0)  # 10 - 2 - 6
    assert out["core.self_s"] == pytest.approx(2.0)  # featurize 1 + run 1
    assert out["ml.self_s"] == pytest.approx(6.0)
    assert out["unattributed_s"] == pytest.approx(2.0)  # 14 - 2 - 10


# ----------------------------------------------------------------------
# BENCHMARK.json names each metric once and the workloads run.py runs
# ----------------------------------------------------------------------


def test_benchmark_json_names_are_unique_and_workloads_match():
    from run import WORKLOADS

    names = [n for n, _ in END_TO_END] + [n for n, _ in PER_LAYER]
    assert len(names) == len(set(names))
    assert "setup_s" in dict(END_TO_END)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == WORKLOADS
