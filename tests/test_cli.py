"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_figure_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])


class TestInventoryCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "F0" in out and "P2" in out
        assert "CTU, 1-1" in out

    def test_algorithms(self, capsys):
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        assert "A06" in out and "Kitsune" in out

    def test_operations(self, capsys):
        assert main(["operations", "-v"]) == 0
        out = capsys.readouterr().out
        assert "Groupby" in out
        assert "-> flows" in out


class TestLintCommand:
    GOOD = [
        {"func": "Groupby", "input": None, "output": "flows",
         "flowid": ["connection"]},
        {"func": "Labels", "input": ["flows"], "output": "y"},
    ]

    def test_lint_clean_template(self, tmp_path, capsys):
        path = tmp_path / "good.json"
        path.write_text(json.dumps(self.GOOD))
        assert main(["lint", str(path)]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_lint_bad_template_fails(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            [{"func": "Teleport", "input": None, "output": "x"}]
        ))
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert "L004" in out

    def test_lint_catalog_is_clean(self, capsys):
        assert main(["lint", "--catalog"]) == 0
        out = capsys.readouterr().out
        assert "16 template(s)" in out

    def test_lint_faithfulness_flag(self, tmp_path, capsys):
        path = tmp_path / "conn.json"
        path.write_text(json.dumps(self.GOOD))
        assert main(["lint", str(path), "--dataset", "F0"]) == 0
        capsys.readouterr()
        assert main(["lint", str(path), "--dataset", "P0"]) == 1
        out = capsys.readouterr().out
        assert "L016" in out

    def test_lint_nothing_to_lint(self, capsys):
        assert main(["lint"]) == 2

    def test_lint_malformed_json_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("not json {")
        assert main(["lint", str(path)]) == 1
        err = capsys.readouterr().err
        assert "broken.json" in err

    def test_lint_missing_file_is_an_error(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "nope.json")]) == 1

    def test_lint_python_file(self, tmp_path, capsys):
        path = tmp_path / "module.py"
        path.write_text(
            "TEMPLATE = [\n"
            "    {'func': 'Groupby', 'input': None, 'output': 'flows',\n"
            "     'flowid': ['connection']},\n"
            "    {'func': 'Labels', 'input': ['flows'], 'output': 'y'},\n"
            "]\n"
        )
        assert main(["lint", str(path), "-v"]) == 0
        out = capsys.readouterr().out
        assert "TEMPLATE" in out


class TestAuditCommand:
    def test_audit_table_lists_every_operation(self, capsys):
        from repro.core.operations import OPERATIONS

        assert main(["audit"]) == 0
        out = capsys.readouterr().out
        for name in OPERATIONS:
            assert name in out
        assert "seeded-stochastic" in out  # Downsample
        assert "0 stateful" in out

    def test_audit_json_payload(self, capsys):
        assert main(["audit", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["stateful"] == 0
        by_name = {
            entry["operation"]: entry for entry in payload["operations"]
        }
        downsample = by_name["Downsample"]
        assert downsample["purity"] == "seeded-stochastic"
        assert downsample["seed_params"] == ["seed"]
        assert downsample["cacheable"] is True

    def test_audit_json_is_deterministic(self, capsys):
        assert main(["audit", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = [entry["operation"] for entry in payload["operations"]]
        assert names == sorted(names)
        for entry in payload["operations"]:
            assert entry["seed_params"] == sorted(entry["seed_params"])
            keys = [
                (f["line"], f["kind"], f["detail"])
                for f in entry["findings"]
            ]
            assert keys == sorted(keys)
        capsys.readouterr()
        assert main(["audit", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == payload

    def test_audit_out_file(self, tmp_path, capsys):
        out_file = tmp_path / "audit.json"
        assert main(["audit", "--out", str(out_file)]) == 0
        payload = json.loads(out_file.read_text())
        assert payload["summary"]["total"] == len(payload["operations"])

    def test_audit_strict_clean_registry_passes(self, capsys):
        assert main(["audit", "--strict"]) == 0

    def test_audit_strict_fails_on_stateful_op(self, capsys):
        from repro.core.operations import OPERATIONS, register_operation
        from repro.core.types import ValueType

        def _bad(inputs, params):
            inputs[0].sort()
            return inputs[0]

        register_operation(
            "AuditFixture", (ValueType.PACKETS,), ValueType.PACKETS
        )(_bad)
        try:
            assert main(["audit", "--strict", "-v"]) == 1
            captured = capsys.readouterr()
            assert "AuditFixture" in captured.err
            assert "L021" in captured.out
            assert "mutates" in captured.out  # -v shows finding detail
        finally:
            OPERATIONS.pop("AuditFixture", None)


class TestVectorizeCommand:
    def test_table_lists_every_operation(self, capsys):
        from repro.core.operations import OPERATIONS

        assert main(["vectorize"]) == 0
        out = capsys.readouterr().out
        for name in OPERATIONS:
            assert name in out
        assert "elementwise" in out
        assert "windowed-sequential" in out

    def test_json_payload(self, capsys):
        assert main(["vectorize", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        summary = payload["summary"]
        assert summary["opaque"] == 0
        assert "batchable" not in summary
        by_name = {
            entry["operation"]: entry for entry in payload["operations"]
        }
        assert by_name["ProtocolOneHot"]["verdict"] == "elementwise"
        assert "batch" not in by_name["ProtocolOneHot"]
        assert by_name["SortByTime"]["verdict"] == "windowed-sequential"

    def test_json_is_byte_deterministic(self, capsys):
        assert main(["vectorize", "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["vectorize", "--json"]) == 0
        assert capsys.readouterr().out == first

    def test_out_file(self, tmp_path, capsys):
        out_file = tmp_path / "vectorize.json"
        assert main(["vectorize", "--out", str(out_file)]) == 0
        payload = json.loads(out_file.read_text())
        assert payload["summary"]["total"] == len(payload["operations"])

    def test_catalog_attaches_fingerprint_verdicts(self, capsys):
        assert main(["vectorize", "--json", "--catalog"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "A14" in payload["catalog"]
        for fingerprints in payload["catalog"].values():
            for entry in fingerprints.values():
                assert set(entry) == {"func", "verdict"}

    def test_strict_clean_registry_passes(self, capsys):
        assert main(["vectorize", "--strict"]) == 0

    def test_strict_fails_on_opaque_verdict(self, capsys):
        from repro.core.operations import OPERATIONS, register_operation
        from repro.core.types import ValueType

        # a lambda built by eval has no source to analyze: opaque
        register_operation(
            "VectorizeFixture", (ValueType.PACKETS,), ValueType.FEATURES
        )(eval("lambda inputs, params: None"))
        try:
            assert main(["vectorize", "--strict"]) == 1
            captured = capsys.readouterr()
            assert "1 opaque verdict" in captured.err
            assert "opaque" in captured.out
        finally:
            OPERATIONS.pop("VectorizeFixture", None)


class TestStreamableCommand:
    def test_table_lists_every_operation(self, capsys):
        from repro.core.operations import OPERATIONS

        assert main(["streamable"]) == 0
        out = capsys.readouterr().out
        for name in OPERATIONS:
            assert name in out
        assert "stateless" in out
        assert "batch-only" in out

    def test_json_payload(self, capsys):
        assert main(["streamable", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        summary = payload["summary"]
        assert summary["opaque"] == 0
        assert summary["errors"] == 0
        by_name = {
            entry["operation"]: entry for entry in payload["operations"]
        }
        assert by_name["KitsuneFeatures"]["verdict"] == "prefix-mergeable"
        assert by_name["KitsuneFeatures"]["stream_fn"] is True
        assert by_name["SortByTime"]["verdict"] == "batch-only"

    def test_json_is_byte_deterministic(self, capsys):
        assert main(["streamable", "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["streamable", "--json"]) == 0
        assert capsys.readouterr().out == first

    def test_out_file(self, tmp_path, capsys):
        out_file = tmp_path / "streamable.json"
        assert main(["streamable", "--out", str(out_file)]) == 0
        payload = json.loads(out_file.read_text())
        assert payload["summary"]["total"] == len(payload["operations"])

    def test_catalog_reports_per_template_streamability(self, capsys):
        assert main(["streamable", "--json", "--catalog"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "A14" in payload["catalog"]
        for entry in payload["catalog"].values():
            assert set(entry) == {"steps", "streamable"}
            for step in entry["steps"]:
                assert set(step) == {
                    "func", "verdict", "state_bound", "refusal"
                }

    def test_strict_clean_registry_passes(self, capsys):
        assert main(["streamable", "--strict"]) == 0

    def test_strict_fails_on_declaration_drift(self, capsys):
        import numpy as np

        from repro.core.operations import (
            OPERATIONS,
            register_operation,
        )
        from repro.core.types import ValueType

        def _drifted(inputs, params):
            order = np.argsort(inputs[0].ts)
            return inputs[0].length[order].astype(
                np.float64
            ).reshape(-1, 1)

        register_operation(
            "StreamableFixture", (ValueType.PACKETS,),
            ValueType.FEATURES, stream="stateless",
        )(_drifted)
        try:
            assert main(["streamable", "--strict"]) == 1
            captured = capsys.readouterr()
            assert "L045" in captured.err
        finally:
            OPERATIONS.pop("StreamableFixture", None)


class TestRacesCommand:
    def test_table_lists_operations_and_modules(self, capsys):
        from repro.core.operations import OPERATIONS

        assert main(["races"]) == 0
        out = capsys.readouterr().out
        for name in OPERATIONS:
            assert name in out
        assert "session-confined" in out
        assert "repro.obs.metrics" in out
        assert "concurrent-safe" in out

    def test_json_payload(self, capsys):
        assert main(["races", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        summary = payload["summary"]
        assert summary["total"] == len(payload["operations"])
        assert summary["racy"] == 0
        assert summary["errors"] == 0
        modules = {m["module"] for m in payload["modules"]}
        assert "repro.serve.daemon" in modules
        assert "repro.obs.spans" in modules

    def test_json_is_byte_deterministic(self, capsys):
        assert main(["races", "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["races", "--json"]) == 0
        assert capsys.readouterr().out == first

    def test_out_file(self, tmp_path, capsys):
        out_file = tmp_path / "races.json"
        assert main(["races", "--out", str(out_file)]) == 0
        payload = json.loads(out_file.read_text())
        assert payload["summary"]["concurrent_safe"] == (
            payload["summary"]["total"]
        )

    def test_strict_clean_registry_passes(self, capsys):
        assert main(["races", "--strict"]) == 0

    def test_strict_fails_on_racy_operation(self, capsys):
        from repro.core.operations import (
            OPERATIONS,
            register_operation,
        )
        from repro.core.types import ValueType

        def _racy(inputs, params):
            _CLI_RACE_SINK["last"] = len(inputs[0])
            return inputs[0].length

        register_operation(
            "RacyCliFixture", (ValueType.PACKETS,),
            ValueType.FEATURES,
        )(_racy)
        try:
            assert main(["races", "--strict"]) == 1
            captured = capsys.readouterr()
            assert "racy operation" in captured.err
        finally:
            OPERATIONS.pop("RacyCliFixture", None)

    def test_verbose_shows_write_evidence(self, capsys):
        from repro.core.operations import (
            OPERATIONS,
            register_operation,
        )
        from repro.core.types import ValueType

        def _racy(inputs, params):
            _CLI_RACE_SINK["verbose"] = 1
            return inputs[0].length

        register_operation(
            "VerboseRaceFixture", (ValueType.PACKETS,),
            ValueType.FEATURES,
        )(_racy)
        try:
            assert main(["races", "-v"]) == 0
            out = capsys.readouterr().out
            assert "shared write -- _CLI_RACE_SINK" in out
        finally:
            OPERATIONS.pop("VerboseRaceFixture", None)


#: write target for the races fixtures above -- the analyzer parses
#: this file and must see a module-global binding
_CLI_RACE_SINK: dict = {}


class TestEvaluationCommands:
    def test_evaluate_same_dataset(self, capsys):
        assert main(["evaluate", "A14", "F0"]) == 0
        out = capsys.readouterr().out
        assert "precision" in out
        assert "per attack" in out

    def test_matrix_and_figure(self, tmp_path, capsys):
        results = tmp_path / "results.json"
        csv = tmp_path / "results.csv"
        assert main([
            "matrix", "--algorithms", "A13,A14", "--datasets", "F0,F1",
            "--out", str(results), "--csv", str(csv),
        ]) == 0
        payload = json.loads(results.read_text())
        assert len(payload) == 2 * (2 + 2)  # 2 algos x (2 same + 2 cross)
        assert csv.exists()
        capsys.readouterr()
        assert main(["figure", "fig10", "--results", str(results)]) == 0
        out = capsys.readouterr().out
        assert "F0" in out and "F1" in out

    def test_profile(self, capsys):
        assert main(["profile", "A14", "F0"]) == 0
        out = capsys.readouterr().out
        assert "Groupby" in out
        assert "total:" in out


class TestFaultTolerantMatrix:
    def test_run_matrix_alias(self, tmp_path, capsys):
        results = tmp_path / "results.json"
        assert main(["run-matrix", "--algorithms", "A14",
                     "--datasets", "F0", "--out", str(results)]) == 0
        payload = json.loads(results.read_text())
        assert isinstance(payload, list) and len(payload) == 1

    def test_bad_fault_spec_exits_2(self, tmp_path, capsys):
        assert main([
            "run-matrix", "--algorithms", "A14", "--datasets", "F0",
            "--faults", "nowhere:0.5", "--out", str(tmp_path / "r.json"),
        ]) == 2
        assert "unknown fault site" in capsys.readouterr().err

    def test_chaos_then_resume_heals(self, tmp_path, capsys):
        journal = tmp_path / "chaos.jsonl"
        results = tmp_path / "results.json"
        assert main([
            "run-matrix", "--algorithms", "A14", "--datasets", "F0,F1",
            "--keep-going", "--faults", "featurize:#1",
            "--checkpoint", str(journal), "--out", str(results),
        ]) == 0
        out = capsys.readouterr().out
        assert "fault injection active" in out
        assert "3 evaluations, 1 failure(s)" in out
        payload = json.loads(results.read_text())
        assert len(payload["results"]) == 3
        assert payload["failures"][0]["phase"] == "featurize"
        assert payload["failures"][0]["error_type"] == "FaultInjected"

        healed = tmp_path / "healed.json"
        assert main([
            "run-matrix", "--algorithms", "A14", "--datasets", "F0,F1",
            "--keep-going", "--resume", str(journal), "--retry-failed",
            "--out", str(healed),
        ]) == 0
        assert "4 evaluations ->" in capsys.readouterr().out
        payload = json.loads(healed.read_text())
        assert isinstance(payload, list) and len(payload) == 4

    def test_retries_absorb_transient_fault(self, tmp_path, capsys):
        results = tmp_path / "results.json"
        assert main([
            "run-matrix", "--algorithms", "A14", "--datasets", "F0,F1",
            "--retries", "1", "--faults", "featurize:#1",
            "--out", str(results),
        ]) == 0
        payload = json.loads(results.read_text())
        assert isinstance(payload, list) and len(payload) == 4


class TestTemplateCommands:
    def test_template_write_and_run(self, tmp_path, capsys):
        out_file = tmp_path / "t.json"
        assert main(["template", "--starter", "connection-rf",
                     "--out", str(out_file)]) == 0
        assert out_file.exists()
        capsys.readouterr()
        assert main(["run-template", str(out_file), "F0"]) == 0
        out = capsys.readouterr().out
        assert "metrics" in out
        assert "total:" in out

    def test_run_template_parallel(self, tmp_path, capsys):
        out_file = tmp_path / "t.json"
        assert main(["template", "--starter", "connection-rf",
                     "--out", str(out_file)]) == 0
        capsys.readouterr()
        assert main(["run-template", str(out_file), "F0",
                     "--parallel", "2"]) == 0
        out = capsys.readouterr().out
        assert "metrics" in out


class TestPlanCommand:
    def test_plan_table(self, capsys):
        assert main(["plan", "--algorithms", "A13,A14",
                     "--datasets", "F0,F1"]) == 0
        out = capsys.readouterr().out
        assert "Groupby" in out
        assert "shared stage(s)" in out

    def test_plan_lint_clean(self, capsys):
        assert main(["plan", "--algorithms", "A13,A14",
                     "--datasets", "F0", "--lint", "--strict"]) == 0
        err = capsys.readouterr().err
        assert "0 error(s)" in err

    def test_plan_json_save_and_verify(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        assert main(["plan", "--algorithms", "A13,A14",
                     "--datasets", "F0,F1", "--json",
                     "--out", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithms"] == ["A13", "A14"]
        assert payload["stages"]
        assert json.loads(path.read_text()) == payload
        assert main(["plan", "--verify", str(path)]) == 0

    def test_plan_verify_drift_fails(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        main(["plan", "--algorithms", "A13", "--datasets", "F0",
              "--out", str(path)])
        capsys.readouterr()
        payload = json.loads(path.read_text())
        payload["template_fingerprints"]["A13"] = "0" * 64
        path.write_text(json.dumps(payload))
        assert main(["plan", "--verify", str(path)]) == 1
        assert "L033" in capsys.readouterr().err

    def test_plan_dot(self, capsys):
        assert main(["plan", "--algorithms", "A13",
                     "--datasets", "F0", "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")

    def test_plan_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["plan", "--verify", str(tmp_path / "nope.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_matrix_with_auto_plan(self, tmp_path, capsys):
        results = tmp_path / "results.json"
        assert main(["matrix", "--algorithms", "A13,A14",
                     "--datasets", "F0", "--plan", "auto",
                     "--out", str(results)]) == 0
        out = capsys.readouterr().out
        assert "2 evaluations" in out
        assert len(json.loads(results.read_text())) == 2

    def test_matrix_with_bad_plan_file_exits_2(self, tmp_path, capsys):
        assert main(["matrix", "--algorithms", "A13",
                     "--datasets", "F0",
                     "--plan", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "r.json")]) == 2
        assert "bad execution plan" in capsys.readouterr().err


class TestObservabilityCommands:
    def test_evaluate_trace_exports_parseable_jsonl(self, tmp_path, capsys):
        from repro.obs import read_trace

        trace = tmp_path / "out.jsonl"
        assert main(["evaluate", "A14", "F0", "--trace", str(trace)]) == 0
        capsys.readouterr()
        events = read_trace(trace)
        spans = [e for e in events if e["kind"] == "span"]
        names = {e["name"] for e in spans}
        assert {"evaluate", "featurize", "train", "test", "run"} <= names
        (train,) = [e for e in spans if e["name"] == "train"]
        assert train["attrs"]["model"] == "RandomForestClassifier"
        assert "candidates" not in train["attrs"]
        # per-step wall times sum to within each run span's duration
        for run in (e for e in spans if e["name"] == "run"):
            step_total = sum(
                e["attrs"].get("wall_seconds", 0.0) for e in spans
                if e["name"].startswith("step:")
                and e["parent_id"] == run["span_id"]
            )
            assert step_total <= run["duration_seconds"]

    def test_automl_train_span_carries_its_search(self, tmp_path, capsys):
        from repro.obs import read_trace

        trace = tmp_path / "out.jsonl"
        assert main(["evaluate", "A02", "P1", "--trace", str(trace)]) == 0
        capsys.readouterr()
        (train,) = [
            e for e in read_trace(trace)
            if e["kind"] == "span" and e["name"] == "train"
        ]
        assert train["attrs"]["model"] == "AutoML"
        assert train["attrs"]["candidates"] == 6  # A02's time budget
        assert train["attrs"]["folds"] == 3

    def test_trace_flag_detached_after_run(self, tmp_path, capsys):
        trace = tmp_path / "out.jsonl"
        assert main(["evaluate", "A14", "F0", "--trace", str(trace)]) == 0
        size = trace.stat().st_size
        capsys.readouterr()
        assert main(["evaluate", "A14", "F0"]) == 0
        assert trace.stat().st_size == size  # sink no longer attached

    def test_trace_renders_saved_file(self, tmp_path, capsys):
        trace = tmp_path / "out.jsonl"
        main(["evaluate", "A14", "F0", "--trace", str(trace)])
        capsys.readouterr()
        assert main(["trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "evaluate" in out
        assert "└─" in out

    def test_trace_runs_a_command(self, capsys):
        assert main(["trace", "evaluate", "A14", "F0"]) == 0
        out = capsys.readouterr().out
        assert "precision" in out  # the wrapped command's own output
        assert "step:Groupby" in out

    def test_trace_without_arguments_errors(self, capsys):
        assert main(["trace"]) == 2

    def test_trace_rejects_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("nope\n")
        assert main(["trace", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_metrics_reports_cache_hits_after_matrix(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["metrics", "matrix", "--algorithms", "A13,A14",
                     "--datasets", "F0,F1", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "# TYPE engine_cache_hits_total counter" in text
        hits = next(
            int(line.split()[1]) for line in text.splitlines()
            if line.startswith("engine_cache_hits_total ")
        )
        assert hits > 0
        assert "bench_evaluations_completed_total" in text

    def test_metrics_alone_exits_zero(self, capsys):
        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE" in out or "(no metrics recorded)" in out


class TestReportAndExport:
    def test_report_from_results(self, tmp_path, capsys):
        results = tmp_path / "results.json"
        main(["matrix", "--algorithms", "A14", "--datasets", "F0,F1",
              "--out", str(results)])
        capsys.readouterr()
        report_path = tmp_path / "report.md"
        assert main(["report", "--results", str(results),
                     "--out", str(report_path)]) == 0
        text = report_path.read_text()
        assert "# Lumen benchmark report" in text
        assert "A14" in text

    def test_export(self, tmp_path, capsys):
        assert main(["export", "F5", "--directory", str(tmp_path)]) == 0
        assert (tmp_path / "F5.pcap").exists()
        assert (tmp_path / "F5.labels.csv").exists()


class TestInspectAndDiff:
    def test_inspect(self, capsys):
        assert main(["inspect", "F5"]) == 0
        out = capsys.readouterr().out
        assert "packets" in out
        assert "malicious" in out

    def test_diff_identical_is_clean(self, tmp_path, capsys):
        results = tmp_path / "r.json"
        main(["matrix", "--algorithms", "A13", "--datasets", "F0",
              "--out", str(results)])
        capsys.readouterr()
        assert main(["diff", str(results), str(results)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_diff_detects_change(self, tmp_path, capsys):
        import json

        results = tmp_path / "r.json"
        main(["matrix", "--algorithms", "A13", "--datasets", "F0",
              "--out", str(results)])
        payload = json.loads(results.read_text())
        payload[0]["precision"] = 0.01
        mutated = tmp_path / "mutated.json"
        mutated.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["diff", str(results), str(mutated)]) == 1
        assert "down" in capsys.readouterr().out


def perf_payload(rate):
    """A minimal synthetic BENCH_perf payload for the perf verbs."""
    return {
        "benchmark": "perf-baseline",
        "provenance": {"schema": 3, "git_sha": "abc",
                       "timestamp": "2026-08-08T00:00:00+00:00",
                       "workload_fingerprint": "f" * 64},
        "featurize": {"seconds": 1.0 / rate, "packets_per_sec": rate},
    }


class TestPerfTrajectoryCommands:
    def write(self, tmp_path, name, rate):
        path = tmp_path / name
        path.write_text(json.dumps(perf_payload(rate)))
        return str(path)

    def test_perf_diff_clean_exits_zero(self, tmp_path, capsys):
        a = self.write(tmp_path, "a.json", 100_000.0)
        assert main(["perf-diff", a, a]) == 0
        assert "perf-diff: clean" in capsys.readouterr().out

    def test_perf_diff_regression_exits_one_and_names_series(
        self, tmp_path, capsys
    ):
        before = self.write(tmp_path, "a.json", 100_000.0)
        after = self.write(tmp_path, "b.json", 70_000.0)  # -30%
        assert main(["perf-diff", before, after]) == 1
        out = capsys.readouterr().out
        assert "featurize/packets_per_sec" in out
        assert "REGRESSED" in out

    def test_perf_diff_threshold_flag(self, tmp_path, capsys):
        before = self.write(tmp_path, "a.json", 100_000.0)
        after = self.write(tmp_path, "b.json", 70_000.0)
        assert main(["perf-diff", before, after, "--threshold", "0.5"]) == 0

    def test_perf_diff_json_output(self, tmp_path, capsys):
        before = self.write(tmp_path, "a.json", 100_000.0)
        after = self.write(tmp_path, "b.json", 70_000.0)
        assert main(["perf-diff", before, after, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["has_regressions"] is True
        assert ("featurize/packets_per_sec"
                in payload["regressions"])

    def test_perf_diff_missing_file_exits_two(self, tmp_path, capsys):
        a = self.write(tmp_path, "a.json", 1.0)
        assert main(["perf-diff", a, str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_perf_history_table(self, tmp_path, capsys):
        history = tmp_path / "h.jsonl"
        with history.open("w") as handle:
            for rate in (90_000.0, 110_000.0):
                handle.write(json.dumps(perf_payload(rate)) + "\n")
        assert main(["perf-history", "--history", str(history)]) == 0
        out = capsys.readouterr().out
        assert "110,000" in out
        assert "2026-08-08" in out

    def test_perf_history_series_and_limit(self, tmp_path, capsys):
        history = tmp_path / "h.jsonl"
        with history.open("w") as handle:
            for rate in (1.0, 2.0, 3.0):
                handle.write(json.dumps(perf_payload(rate)) + "\n")
        assert main(["perf-history", "--history", str(history),
                     "--series", "featurize", "--limit", "2"]) == 0
        out = capsys.readouterr().out
        assert "featurize/packets_per_sec" in out

    def test_perf_history_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["perf-history", "--history",
                     str(tmp_path / "nope.jsonl")]) == 2

    def test_bench_perf_appends_history(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        history = tmp_path / "h.jsonl"
        assert main(["bench-perf", "--repeat", "1", "--no-cells",
                     "--out", str(out), "--history", str(history)]) == 0
        assert "trajectory appended" in capsys.readouterr().out
        lines = [line for line in history.read_text().splitlines()
                 if line.strip()]
        assert len(lines) == 1
        assert json.loads(lines[0])["provenance"]["schema"] == 4

    def test_bench_perf_no_history(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        history = tmp_path / "h.jsonl"
        assert main(["bench-perf", "--repeat", "1", "--no-cells",
                     "--out", str(out), "--history", str(history),
                     "--no-history"]) == 0
        assert not history.exists()


class TestMatrixProgressFlags:
    def test_progress_file_journals_every_cell(self, tmp_path, capsys):
        progress_file = tmp_path / "p.jsonl"
        assert main(["matrix", "--algorithms", "A14", "--datasets",
                     "F0,F1", "--out", str(tmp_path / "r.json"),
                     "--progress-file", str(progress_file)]) == 0
        events = [json.loads(line)
                  for line in progress_file.read_text().splitlines()
                  if line.strip()]
        assert len(events) == 4
        assert [e["done"] for e in events] == [1, 2, 3, 4]
        assert events[-1]["done"] == events[-1]["total"] == 4
        assert all(e["kind"] == "progress" for e in events)

    def test_progress_flag_renders_to_stderr(self, tmp_path, capsys):
        assert main(["matrix", "--algorithms", "A14", "--datasets", "F0",
                     "--out", str(tmp_path / "r.json"),
                     "--progress"]) == 0
        err = capsys.readouterr().err
        assert "cells 1/1" in err


class TestServeCommand:
    """The ``repro serve`` daemon entry point and its status probe."""

    @pytest.fixture(autouse=True)
    def _clean_state(self):
        from repro.faults import uninstall
        from repro.obs import get_metrics

        get_metrics().reset()
        uninstall()
        yield
        get_metrics().reset()
        uninstall()

    def test_requires_a_dataset_or_status(self, capsys):
        assert main(["serve"]) == 2
        assert "dataset id is required" in capsys.readouterr().err

    def test_unknown_dataset_rejected(self, capsys):
        assert main(["serve", "NOPE"]) == 2

    def test_bad_fault_spec_is_a_usage_error(self, capsys):
        assert main(["serve", "F0", "--faults", "serve_chunk:0.5"]) == 2
        err = capsys.readouterr().err
        assert "did you mean 'score_chunk'?" in err

    def test_bounded_virtual_run(self, tmp_path, capsys):
        status_file = tmp_path / "status.json"
        assert main([
            "serve", "F0", "--virtual-time",
            "--chunk-seconds", "5", "--max-chunks", "3",
            "--status-file", str(status_file),
        ]) == 0
        out = capsys.readouterr().out
        assert "served 3 chunk(s)" in out
        status = json.loads(status_file.read_text())
        assert status["state"] == "stopped"
        assert status["chunks_scored"] == 3

    def test_concurrent_sessions_verify_against_offline(
        self, tmp_path, capsys
    ):
        assert main([
            "serve", "F0", "--virtual-time", "--outputs", "X,y",
            "--chunk-seconds", "10", "--sessions", "2",
            "--verify-offline",
        ]) == 0
        out = capsys.readouterr().out
        assert "byte-equal" in out
        assert "MISMATCH" not in out

    def test_chaos_run_verifies_against_offline(self, tmp_path, capsys):
        quarantine = tmp_path / "quarantine.jsonl"
        results = tmp_path / "results.jsonl"
        assert main([
            "serve", "F1", "--virtual-time", "--outputs", "X,y",
            "--chunk-seconds", "10", "--retries", "3",
            "--faults", "score_chunk:0.3", "--fault-seed", "7",
            "--quarantine", str(quarantine),
            "--out", str(results),
            "--verify-offline",
        ]) == 0
        out = capsys.readouterr().out
        assert "fault injection active" in out
        assert "byte-equal" in out
        assert "MISMATCH" not in out
        records = [json.loads(line)
                   for line in results.read_text().splitlines()
                   if line.strip()]
        assert records and all(r["kind"] == "chunk" for r in records)

    def test_status_probe_missing_file(self, tmp_path, capsys):
        assert main(["serve", "--status",
                     str(tmp_path / "absent.json")]) == 2
        assert "no status file" in capsys.readouterr().err

    def test_status_probe_alive_and_stopped(self, tmp_path, capsys):
        from repro.serve import ServeStatus

        path = tmp_path / "status.json"
        ServeStatus(state="serving", chunks_scored=4).write(path)
        assert main(["serve", "--status", str(path)]) == 0
        assert "serving" in capsys.readouterr().out
        ServeStatus(state="stopped").write(path)
        assert main(["serve", "--status", str(path)]) == 3

    def test_serve_metrics_surface_in_exposition(self, capsys):
        assert main(["metrics", "serve", "F0", "--virtual-time",
                     "--chunk-seconds", "5", "--max-chunks", "2"]) == 0
        out = capsys.readouterr().out
        assert "serve_chunks_scored_total 2" in out
        assert "engine_uptime_seconds" in out
