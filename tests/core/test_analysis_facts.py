"""Tests for the parse-once analysis substrate (:mod:`repro.analysis.facts`).

The four source analyzers (effects, vectorize, streamable, concurrency)
read operation bodies and module files through one substrate, so a full
four-aspect audit parses every distinct operation body and every
distinct module file at most once, and every report is memoised on a
key that covers every :class:`Operation` field a verdict reads.
"""

import ast
import importlib
import inspect
import threading
from collections import Counter

import pytest

from repro.analysis import facts
from repro.analysis.concurrency import CORE_MODULES, audit_concurrency
from repro.analysis.safety import audit_registry
from repro.analysis.streamable import audit_streamable
from repro.analysis.vectorize import audit_vectorization
from repro.core.operations import OPERATIONS, Operation
from repro.core.types import ValueType


@pytest.fixture
def empty_substrate(monkeypatch):
    """Fresh substrate memos for one test; the old ones come back after."""
    for name in ("_FUNCTIONS", "_MODULES", "_REPORTS"):
        monkeypatch.setattr(facts, name, {})


class TestParseOnce:
    def test_full_audit_parses_each_body_and_module_once(
        self, monkeypatch, empty_substrate
    ):
        bodies = {op.fn for op in OPERATIONS.values()}
        bodies |= {
            op.stream_fn for op in OPERATIONS.values()
            if op.stream_fn is not None
        }
        modules = {inspect.getsourcefile(fn) for fn in bodies}
        # importing the core modules up front keeps their import-time
        # parses (e.g. inspect.signature) out of the count
        modules |= {
            inspect.getsourcefile(importlib.import_module(name))
            for name in CORE_MODULES
        }
        parsed = Counter()
        real_parse = ast.parse

        def counting_parse(source, *args, **kwargs):
            parsed[source] += 1
            return real_parse(source, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        audit_registry()
        audit_vectorization()
        audit_streamable()
        audit_concurrency()
        monkeypatch.setattr(ast, "parse", real_parse)

        repeated = {src[:60]: n for src, n in parsed.items() if n > 1}
        assert repeated == {}
        assert sum(parsed.values()) <= len(bodies) + len(modules)

    def test_function_facts_are_computed_once_per_callable(
        self, empty_substrate
    ):
        fn = OPERATIONS["Labels"].fn
        assert facts.function_facts(fn) is facts.function_facts(fn)
        assert facts.function_facts(fn).context is (
            facts.module_facts(inspect.getsourcefile(fn)).context
        )


class TestFunctionFacts:
    def test_source_free_callable_has_no_node(self, empty_substrate):
        found = facts.function_facts(eval("lambda inputs, params: None"))
        assert found.node is None

    def test_builtin_has_no_node(self, empty_substrate):
        assert facts.function_facts(len).node is None

    def test_node_is_the_function_definition(self, empty_substrate):
        def sample(inputs, params):
            return inputs[0]

        node = facts.function_facts(sample).node
        assert isinstance(node, ast.FunctionDef)
        assert node.name == "sample"

    def test_module_tree_is_the_defining_module(self, empty_substrate):
        def sample(inputs, params):
            return inputs[0]

        assert facts.function_facts(sample).module is (
            facts.module_facts(__file__).node
        )


class TestReportMemo:
    def test_key_separates_every_field_a_verdict_reads(self):
        def body(inputs, params):
            return inputs[0]

        base = Operation(
            "KeyFixture", (ValueType.PACKETS,), ValueType.FEATURES, body,
        )
        variants = [
            Operation("KeyFixture", (ValueType.FLOWS,),
                      ValueType.FEATURES, body),
            Operation("KeyFixture", (ValueType.PACKETS,),
                      ValueType.FLOWS, body),
            Operation("KeyFixture", (ValueType.PACKETS,),
                      ValueType.FEATURES, body, required_params=("window",)),
            Operation("KeyFixture", (ValueType.PACKETS,),
                      ValueType.FEATURES, body,
                      optional_params={"timeout": 1.0}),
            Operation("KeyFixture", (ValueType.PACKETS,),
                      ValueType.FEATURES, body, sort_key="ts"),
            Operation("KeyFixture", (ValueType.PACKETS,),
                      ValueType.FEATURES, body, stream="stateless"),
            Operation("KeyFixture", (ValueType.PACKETS,),
                      ValueType.FEATURES, body, state_bound="O(1)"),
            Operation("KeyFixture", (ValueType.PACKETS,),
                      ValueType.FEATURES, body,
                      concurrency="session-confined"),
            Operation("KeyFixture", (ValueType.PACKETS,),
                      ValueType.FEATURES, body, stream_fn=body),
        ]
        keys = {facts.operation_key(op) for op in [base, *variants]}
        assert len(keys) == len(variants) + 1

    def test_memo_builds_once_per_aspect_and_key(self, empty_substrate):
        def body(inputs, params):
            return inputs[0]

        operation = Operation(
            "MemoFixture", (ValueType.PACKETS,), ValueType.FEATURES, body,
        )
        calls = []

        def build(op):
            calls.append(op)
            return object()

        first = facts.memo_report("aspect-a", operation, build)
        assert facts.memo_report("aspect-a", operation, build) is first
        assert facts.memo_report("aspect-b", operation, build) is not first
        assert len(calls) == 2


class TestThreads:
    def test_concurrent_callers_share_one_memo_entry(
        self, monkeypatch, empty_substrate
    ):
        def body(inputs, params):
            return inputs[0]

        operation = Operation(
            "ThreadFixture", (ValueType.PACKETS,), ValueType.FEATURES, body,
        )
        callers = 16
        # every caller is inside its build before any build returns, so
        # all of them miss the memo and race to store their own result
        report_gate = threading.Barrier(callers, timeout=30)
        facts_gate = threading.Barrier(callers, timeout=30)
        real_body_node = facts._body_node

        def gated_body_node(fn):
            facts_gate.wait()
            return real_body_node(fn)

        def build(op):
            report_gate.wait()
            return object()

        monkeypatch.setattr(facts, "_body_node", gated_body_node)
        reports, found, errors = [], [], []

        def work():
            try:
                reports.append(facts.memo_report("threads", operation, build))
                found.append(facts.function_facts(body))
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        threads = [
            threading.Thread(target=work, daemon=True) for _ in range(callers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert errors == []
        assert not any(thread.is_alive() for thread in threads)
        assert len(reports) == len(found) == callers
        assert len({id(report) for report in reports}) == 1
        assert len({id(entry) for entry in found}) == 1
