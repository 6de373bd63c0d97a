"""Tests for the perf trajectory (repro.bench.history).

Series flattening, the noise-thresholded diff that backs the CI
regression gate, the append-only store's torn-tail tolerance, and both
renderers -- all on synthetic payloads so the suite never has to run
the real benchmark.
"""

import json

import pytest

from repro.bench.history import (
    DEFAULT_THRESHOLD,
    append_history,
    diff_payloads,
    flatten_series,
    load_history,
    render_history,
    render_perf_diff,
)


def payload(*, featurize_rate=100_000.0, fit_rate=500_000.0,
            fields_rate=600_000.0, seconds_per_cell=0.5,
            fingerprint="f" * 64):
    """A synthetic BENCH_perf payload with every section."""
    return {
        "benchmark": "perf-baseline",
        "provenance": {
            "schema": 2,
            "git_sha": "abc1234",
            "timestamp": "2026-08-08T00:00:00+00:00",
            "workload_fingerprint": fingerprint,
        },
        "featurize": {
            "seconds": 1000.0 / featurize_rate,
            "packets_per_sec": featurize_rate,
        },
        "fit": {"seconds": 1000.0 / fit_rate, "rows_per_sec": fit_rate},
        "fit_fields": {
            "seconds": 1000.0 / fields_rate,
            "rows_per_sec": fields_rate,
        },
        "cells": {"seconds_per_cell": seconds_per_cell},
    }


class TestFlattenSeries:
    def test_all_sections_extracted(self):
        # one cell's seconds is lower-is-better and not a matrix mix:
        # it is reported, never flattened into a series
        assert flatten_series(payload()) == {
            "featurize/packets_per_sec": 100_000.0,
            "fit/rows_per_sec": 500_000.0,
            "fit_fields/rows_per_sec": 600_000.0,
        }

    def test_only_higher_is_better_series(self):
        # raw seconds never become series: "regressed" must mean one thing
        assert not [s for s in flatten_series(payload()) if "seconds" in s]

    def test_missing_sections_tolerated(self):
        assert flatten_series({}) == {}
        assert flatten_series({"featurize": {"seconds": 3.0}}) == {}


class TestDiffPayloads:
    def test_unchanged_payload_is_clean(self):
        diff = diff_payloads(payload(), payload())
        assert not diff.has_regressions
        assert diff.missing == [] and diff.added == []
        assert all(d.change == 0.0 for d in diff.deltas)

    def test_synthetic_25_percent_regression_is_flagged(self):
        before = payload(featurize_rate=100_000.0)
        after = payload(featurize_rate=75_000.0)  # -25% > 20% threshold
        diff = diff_payloads(before, after)
        assert diff.has_regressions
        names = [d.series for d in diff.regressions]
        assert "featurize/packets_per_sec" in names

    def test_fit_regression_is_flagged(self):
        diff = diff_payloads(payload(fit_rate=500_000.0),
                             payload(fit_rate=300_000.0))
        assert [d.series for d in diff.regressions] == ["fit/rows_per_sec"]
        diff = diff_payloads(payload(fields_rate=600_000.0),
                             payload(fields_rate=300_000.0))
        assert [d.series for d in diff.regressions] == [
            "fit_fields/rows_per_sec"
        ]

    def test_noise_below_threshold_passes(self):
        diff = diff_payloads(
            payload(featurize_rate=100_000.0),
            payload(featurize_rate=85_000.0),  # -15% < 20%
        )
        assert not diff.has_regressions

    def test_threshold_override(self):
        before = payload(featurize_rate=100_000.0)
        after = payload(featurize_rate=85_000.0)
        assert diff_payloads(before, after, threshold=0.10).has_regressions
        assert not diff_payloads(before, after, threshold=0.30).has_regressions

    def test_noisy_series_gets_its_wider_threshold(self):
        # -30% exceeds the 20% default but sits inside a per-series
        # 40% tolerance a caller grants a known-noisy series
        before = payload(featurize_rate=100_000.0)
        after = payload(featurize_rate=70_000.0)
        assert diff_payloads(before, after).has_regressions
        diff = diff_payloads(
            before, after, thresholds={"featurize/packets_per_sec": 0.40}
        )
        assert not diff.has_regressions

    def test_vanished_series_counts_as_regression(self):
        # the featurize section is still there, but its rate is gone:
        # that is a throughput loss, not a schema change
        after = payload()
        del after["featurize"]["packets_per_sec"]
        diff = diff_payloads(payload(), after)
        assert diff.has_regressions
        assert diff.missing == ["featurize/packets_per_sec"]

    def test_absent_section_is_skipped_not_regressed(self):
        # a payload that did not measure a section drops it whole
        after = payload()
        del after["featurize"]
        diff = diff_payloads(payload(), after)
        assert not diff.has_regressions
        assert diff.skipped == ["featurize/packets_per_sec"]
        assert any("not measured" in w for w in diff.warnings)

    def test_added_series_is_not_a_regression(self):
        before = payload()
        del before["featurize"]
        diff = diff_payloads(before, payload())
        assert not diff.has_regressions
        assert diff.added == ["featurize/packets_per_sec"]

    def test_fingerprint_mismatch_only_warns(self):
        diff = diff_payloads(
            payload(fingerprint="a" * 64), payload(fingerprint="b" * 64)
        )
        assert diff.warnings and not diff.has_regressions

    def test_improvements_reported(self):
        diff = diff_payloads(
            payload(featurize_rate=100_000.0),
            payload(featurize_rate=200_000.0),
        )
        assert "featurize/packets_per_sec" in [
            d.series for d in diff.improvements
        ]

    def test_default_threshold_is_twenty_percent(self):
        assert DEFAULT_THRESHOLD == 0.20


class TestHistoryStore:
    def test_append_load_round_trip(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        first, second = payload(), payload(featurize_rate=120_000.0)
        append_history(first, path)
        append_history(second, path)
        entries = load_history(path)
        assert len(entries) == 2
        assert entries[0] == json.loads(json.dumps(first))
        assert (flatten_series(entries[1])
                ["featurize/packets_per_sec"] == 120_000.0)

    def test_torn_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        append_history(payload(), path)
        with path.open("a") as handle:
            handle.write('{"benchmark": "perf-ba')  # killed mid-append
        assert len(load_history(path)) == 1

    def test_mid_file_damage_raises_with_line_number(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        append_history(payload(), path)
        with path.open("a") as handle:
            handle.write("garbage\n")
        append_history(payload(), path)
        with pytest.raises(ValueError, match=":2:"):
            load_history(path)

    def test_non_object_entry_raises(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(ValueError, match="not an object"):
            load_history(path)

    def test_append_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "hist.jsonl"
        append_history(payload(), path)
        assert len(load_history(path)) == 1


class TestRenderers:
    def test_perf_diff_verdict_names_regressed_series(self):
        diff = diff_payloads(
            payload(featurize_rate=100_000.0),
            payload(featurize_rate=50_000.0),
        )
        text = render_perf_diff(diff)
        assert "REGRESSED" in text
        assert "featurize/packets_per_sec" in text
        assert "regression(s)" in text.splitlines()[-1]

    def test_perf_diff_clean_verdict(self):
        text = render_perf_diff(diff_payloads(payload(), payload()))
        assert "perf-diff: clean" in text.splitlines()[-1]

    def test_history_table_newest_last(self):
        older = payload(featurize_rate=90_000.0)
        newer = payload(featurize_rate=110_000.0)
        newer["provenance"]["timestamp"] = "2026-08-09T00:00:00+00:00"
        text = render_history([older, newer])
        lines = text.splitlines()
        assert "2026-08-08" in lines[-2]
        assert "2026-08-09" in lines[-1]
        assert "110,000" in lines[-1]

    def test_history_series_filter(self):
        text = render_history([payload()], series="packets")
        assert "featurize/packets_per_sec" in text

    def test_history_limit(self):
        entries = [payload() for _ in range(5)]
        text = render_history(entries, limit=2)
        assert len(text.splitlines()) == 4  # header + rule + 2 rows

    def test_empty_history(self):
        assert "empty" in render_history([])
        assert "no series match" in render_history(
            [payload()], series="nonexistent"
        )
