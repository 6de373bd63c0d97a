"""Property tests for ``--sessions N`` concurrent multi-session serving.

The contract is determinism, not throughput: N pool sessions scoring
the same chunk must each produce outputs byte-equal to N sequential
single-session runs, across chunk sizes, under fault injection, with
zero silent loss per session.  Admission is gated on the
concurrency-safety analyzer -- an unproven template is refused at
startup with a visible span attribute and counter, never run wrong.
"""

import numpy as np
import pytest

from repro.core.errors import TemplateError
from repro.faults import FaultPlan, active
from repro.obs import METRICS, RingBufferSink, get_tracer
from repro.obs import metrics as metric_names
from repro.serve import ReplayClock, ServeConfig, ServeDaemon

# chunk sizes: many tiny chunks, uneven mid-size chunks, one chunk
# spanning the whole trace
CHUNK_GRID = [1.0, 7.3, 1e6]

# the analyzer must prove this racy: the stream body publishes its
# carried state into a module global (L052)
_LEAKED_STATE: dict = {}


def make_daemon(trace, sessions=1, template=None, **overrides):
    defaults = dict(
        chunk_seconds=5.0,
        pps=0.0,
        retries=3,
        backoff_base=0.05,
        seed=0,
        outputs=["X", "y"],
        sessions=sessions,
    )
    defaults.update(overrides)
    return ServeDaemon(
        trace,
        config=ServeConfig(**defaults),
        template=template,
        clock=ReplayClock(),
        dataset_id="serve-test",
    )


def capture(fn):
    sink = RingBufferSink(capacity=None)
    tracer = get_tracer()
    tracer.add_sink(sink)
    try:
        fn()
    finally:
        tracer.remove_sink(sink)
    return [e for e in sink.events() if e.get("kind") == "span"]


def assert_outputs_equal(mine, reference, context=""):
    assert set(mine) == set(reference), context
    for name, value in reference.items():
        assert np.array_equal(
            np.asarray(mine[name]), np.asarray(value)
        ), f"{context}:{name}"


class TestByteEquality:
    @pytest.mark.parametrize("chunk_seconds", CHUNK_GRID)
    def test_sessions_equal_sequential_runs(
        self, serve_trace, chunk_seconds
    ):
        sessions = 3
        # reference: N independent single-session runs (identical by
        # construction -- the daemon is deterministic), each verified
        references = []
        for _ in range(sessions):
            daemon = make_daemon(serve_trace, chunk_seconds=chunk_seconds)
            assert daemon.run().ok
            assert all(daemon.verify_against_offline().values())
            references.append(daemon.collected())
        concurrent = make_daemon(
            serve_trace, sessions=sessions, chunk_seconds=chunk_seconds
        )
        report = concurrent.run()
        assert report.ok, report.reason
        assert report.packets_lost == 0
        assert all(concurrent.verify_against_offline().values())
        for index in range(sessions):
            assert_outputs_equal(
                concurrent.collected(index),
                references[index],
                context=f"session {index} chunk={chunk_seconds}",
            )

    @pytest.mark.parametrize("chunk_seconds", CHUNK_GRID)
    def test_sessions_survive_fault_injection(
        self, serve_trace, chunk_seconds
    ):
        plan = FaultPlan.parse("score_chunk:0.4", seed=13)
        single = make_daemon(
            serve_trace, chunk_seconds=chunk_seconds, retries=4
        )
        with active(plan) as injector:
            single_report = single.run()
            fired_single = len(injector.fired)
        assert single_report.ok, single_report.reason
        reference = single.collected()

        plan = FaultPlan.parse("score_chunk:0.4", seed=13)
        concurrent = make_daemon(
            serve_trace, sessions=4, chunk_seconds=chunk_seconds,
            retries=4,
        )
        with active(plan) as injector:
            report = concurrent.run()
            fired_concurrent = len(injector.fired)
        assert report.ok, report.reason
        # the control thread draws one fault per attempt regardless of
        # session count, so the fault sequence -- and with it any
        # visible quarantine loss -- is session-invariant
        assert fired_concurrent == fired_single
        assert report.packets_lost == single_report.packets_lost
        assert all(concurrent.verify_against_offline().values())
        for index in range(4):
            assert_outputs_equal(
                concurrent.collected(index), reference,
                context=f"faulted session {index}",
            )

    def test_zero_silent_loss_per_session_under_quarantine(
        self, serve_trace
    ):
        # retries=0 forces quarantines; surviving rows must still be
        # byte-equal in every session (loss is visible, never silent)
        plan = FaultPlan.parse("score_chunk:0.5", seed=5)
        concurrent = make_daemon(
            serve_trace, sessions=2, retries=0, backoff_base=0.01
        )
        with active(plan) as injector:
            report = concurrent.run()
            assert injector.fired
        assert report.chunks_quarantined > 0
        assert report.packets_lost > 0
        assert all(concurrent.verify_against_offline().values())


class TestSessionSpans:
    def test_score_chunk_spans_carry_session_ids(self, serve_trace):
        daemon = make_daemon(serve_trace, sessions=3)
        spans = capture(lambda: daemon.run())
        scored = [s for s in spans if s["name"] == "score_chunk"]
        assert scored
        by_session: dict = {}
        for span in scored:
            by_session.setdefault(span["attrs"]["session"], []).append(span)
        assert set(by_session) == {0, 1, 2}
        # every session scored every chunk
        chunk_sets = {
            session: sorted(s["attrs"]["chunk"] for s in spans_)
            for session, spans_ in by_session.items()
        }
        assert chunk_sets[0] == chunk_sets[1] == chunk_sets[2]

    def test_single_session_spans_say_session_zero(self, serve_trace):
        daemon = make_daemon(serve_trace)
        spans = capture(lambda: daemon.run())
        scored = [s for s in spans if s["name"] == "score_chunk"]
        assert scored
        assert {s["attrs"]["session"] for s in scored} == {0}

    def test_serve_span_reports_session_count(self, serve_trace):
        daemon = make_daemon(serve_trace, sessions=2)
        spans = capture(lambda: daemon.run())
        serve = next(s for s in spans if s["name"] == "serve")
        assert serve["attrs"]["sessions"] == 2
        assert METRICS.gauge(metric_names.SERVE_SESSIONS).value == 2


class TestAdmissionGate:
    def _racy_template(self):
        from repro.core.operations import (
            OPERATIONS,
            register_operation,
            register_stream,
        )
        from repro.core.types import ValueType

        def racy_fn(inputs, params):
            return np.cumsum(inputs[0].length.astype(np.float64))

        def racy_stream(table, params, state):
            _LEAKED_STATE["live"] = state
            return table.length.astype(np.float64), state

        register_operation(
            "RacySessionProbe", (ValueType.PACKETS,),
            ValueType.FEATURES, stream="prefix-mergeable", sort_key="ts",
        )(racy_fn)
        register_stream("RacySessionProbe")(racy_stream)
        template = [
            {"func": "RacySessionProbe", "input": None, "output": "X"},
            {"func": "Labels", "input": None, "output": "y"},
        ]
        return template, lambda: OPERATIONS.pop("RacySessionProbe", None)

    def test_racy_template_refused_at_startup(self, serve_trace):
        template, cleanup = self._racy_template()
        try:
            daemon = make_daemon(
                serve_trace, sessions=2, template=template
            )
            before = METRICS.counter(
                metric_names.CONCURRENCY_REFUSALS, ""
            ).value
            result: dict = {}
            spans = capture(
                lambda: result.setdefault("report", daemon.run())
            )
            after = METRICS.counter(
                metric_names.CONCURRENCY_REFUSALS, ""
            ).value
            assert after > before
            serve = next(s for s in spans if s["name"] == "serve")
            assert "RacySessionProbe" in (
                serve["attrs"]["concurrency_refused"]
            )
            report = result["report"]
            assert report.ok is False
            assert "concurrent-safe" in report.reason
        finally:
            cleanup()

    def test_racy_template_allowed_single_session(self, serve_trace):
        # the gate only guards fan-out: one session is the PR 9
        # contract and racy-under-concurrency ops still serve fine
        template, cleanup = self._racy_template()
        try:
            daemon = make_daemon(
                serve_trace, sessions=1, template=template
            )
            report = daemon.run()
            assert report.ok, report.reason
        finally:
            cleanup()

    def test_sessions_below_one_rejected(self, serve_trace):
        with pytest.raises(ValueError, match="sessions"):
            make_daemon(serve_trace, sessions=0)


class TestReloadAndWatchdog:
    def test_reload_preserves_equality(self, serve_trace):
        class ReloadOnce(ServeDaemon):
            def _finish_chunk(self, chunk, outs, anomalies):
                super()._finish_chunk(chunk, outs, anomalies)
                if self._scored == 2 and not self._reloads:
                    self.request_reload()

        reference = make_daemon(serve_trace)
        assert reference.run().ok
        daemon = ReloadOnce(
            serve_trace,
            config=ServeConfig(
                chunk_seconds=5.0, outputs=["X", "y"], sessions=2,
                seed=0,
            ),
            clock=ReplayClock(),
            dataset_id="serve-test",
        )
        report = daemon.run()
        assert report.ok and report.reloads == 1
        assert all(daemon.verify_against_offline().values())
        for index in range(2):
            assert_outputs_equal(
                daemon.collected(index), reference.collected(),
                context=f"reloaded session {index}",
            )
