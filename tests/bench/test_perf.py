"""Tests for the performance baseline (repro.bench.perf).

One quick pass (``repeat=1``, no cells measurement) checks the payload
shape -- the committed ``BENCH_perf.json`` numbers come from the full
CLI run.
"""

import numpy as np
import pytest

from repro.bench.perf import (
    PAYLOAD_SCHEMA,
    _best_of,
    _fields_matrix,
    collect_provenance,
    run_perf_benchmark,
)


class TestPerfBenchmark:
    payload = None

    @classmethod
    def setup_class(cls):
        cls.payload = run_perf_benchmark(repeat=1, cells_algorithm=None)

    def test_workload_section(self):
        workload = self.payload["workload"]
        assert workload["dataset"] == "F0"
        assert workload["packets"] > 0
        assert workload["flows"] > 0

    def test_featurize_section(self):
        featurize = self.payload["featurize"]
        assert featurize["packets"] == self.payload["workload"]["packets"]
        assert featurize["seconds"] > 0
        assert featurize["packets_per_sec"] > 0
        assert set(self.payload) == {
            "benchmark", "workload", "provenance", "featurize", "fit",
            "fit_fields",
        }

    @pytest.mark.parametrize("section", ["fit", "fit_fields"])
    def test_fit_section(self, section):
        fit = self.payload[section]
        assert fit["model"] == "DecisionTreeClassifier"
        assert fit["rows"] == self.payload["workload"]["packets"]
        assert fit["features"] == (304 if section == "fit" else 5)
        assert fit["seconds"] > 0
        assert fit["rows_per_sec"] == fit["rows"] / fit["seconds"]

    def test_fields_matrix_takes_the_sorting_split_search(self):
        # `fit` times the 0/1 counting search; `fit_fields` must not
        from repro.datasets.registry import load_dataset

        X = _fields_matrix(load_dataset("F0"))["X"]
        assert not np.isin(X, (0.0, 1.0)).all()

    def test_cells_section_skipped_when_disabled(self):
        assert "cells" not in self.payload

    def test_provenance_block(self):
        provenance = self.payload["provenance"]
        assert provenance["schema"] == PAYLOAD_SCHEMA
        assert len(provenance["workload_fingerprint"]) == 64
        assert provenance["timestamp"].startswith("20")
        assert provenance["numpy"] == np.__version__


class TestProvenance:
    def test_fingerprint_ignores_repeat(self):
        base = {"dataset": "F0", "packets": 100, "repeat": 1}
        more = dict(base, repeat=5)
        assert (collect_provenance(base)["workload_fingerprint"]
                == collect_provenance(more)["workload_fingerprint"])

    def test_fingerprint_tracks_the_workload(self):
        a = collect_provenance({"dataset": "F0", "packets": 100})
        b = collect_provenance({"dataset": "F0", "packets": 200})
        assert a["workload_fingerprint"] != b["workload_fingerprint"]


class TestBestOf:
    def test_returns_first_runs_output(self):
        outputs = [np.array([1, 2]), np.array([1, 2]), np.array([1, 2])]
        runs = iter(outputs)
        _, result = _best_of(lambda: next(runs), repeat=3)
        assert result is outputs[0]

    def test_flaky_function_raises_naming_the_label(self):
        calls = iter([np.array([1, 2]), np.array([9, 9])])
        with pytest.raises(RuntimeError, match="FlakyOp"):
            _best_of(lambda: next(calls), repeat=2, label="FlakyOp")

    def test_dict_outputs_compared_recursively(self):
        calls = iter([
            {"X": np.array([1.0]), "y": np.array([0])},
            {"X": np.array([2.0]), "y": np.array([0])},
        ])
        with pytest.raises(RuntimeError):
            _best_of(lambda: next(calls), repeat=2)

    def test_shape_change_is_a_difference(self):
        calls = iter([np.zeros(3), np.zeros(4)])
        with pytest.raises(RuntimeError):
            _best_of(lambda: next(calls), repeat=2)
