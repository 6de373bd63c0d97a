"""The serve workload: ``repro serve`` under an open-loop PPS ladder.

The daemon runs as an operator deploys it: one process, one session, a
KitNET model trained at start-up, a checkpoint every 5 chunks, a
results journal, a status file and the ``block`` backpressure policy.
Packets arrive on the ``ReplaySource`` positional schedule (packet *i*
due at ``t0 + (i + 1) / pps`` on a ``MonotonicClock``) at the light,
normal and heavy rates, whatever the daemon's progress: an open loop,
so a slow daemon builds a backlog instead of slowing its input.

A chunk's latency runs from the moment its last packet was due to the
moment its ``score_chunk`` span ended, so a stall also counts against
every chunk queued behind it.
"""

from __future__ import annotations

import gc
import hashlib
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import seeded
from probe import Interval, capture_spans
from stats import Rung

from repro.bench.checkpoint import read_journal
from repro.core import ExecutionEngine, Pipeline
from repro.datasets.export import export_dataset, import_dataset
from repro.serve import DEFAULT_TEMPLATE, MonotonicClock, ServeConfig, ServeDaemon

#: the ladder: SNIPPETS.md §3 generator profiles, packets per second
RATES = {"light": 1000.0, "normal": 5000.0, "heavy": 20000.0}
LATENCY_RUNG = "normal"
CAPACITY_RUNG = "heavy"

#: rungs in run order; each drains the whole trace.  Heavy runs twice,
#: first and last, so the capacity is the median of two.
PLAN = ("heavy", "normal", "light", "heavy")

CHUNK_SECONDS = 2.0
OUTPUTS = ["X", "y"]
DATASET_ID = seeded.bench_id("F0")

#: the default-seed anchor: trace-seconds streamed offline in every run
ANCHOR_SECONDS = 60.0


def config(workdir: Path, name: str, cache: Path) -> ServeConfig:
    return ServeConfig(
        chunk_seconds=CHUNK_SECONDS,
        pps=RATES[name],
        policy="block",
        sessions=1,
        model="kitnet",
        model_cache=str(cache),
        outputs=list(OUTPUTS),
        checkpoint_path=str(workdir / f"{name}.checkpoint.jsonl"),
        checkpoint_every=5,
        results_path=str(workdir / f"{name}.results.jsonl"),
        quarantine_path=str(workdir / f"{name}.quarantine.jsonl"),
        status_path=str(workdir / f"{name}.status.json"),
    )


def setup(seed: int, workdir: Path, probe=None):
    """Generate, write and decode the trace, then train the detector.

    Returns (CPU seconds, decoded table, model cache path, generated rows).
    """
    workdir.mkdir(parents=True, exist_ok=True)
    timer = probe.span if probe is not None else (lambda name: nullcontext())
    started = time.process_time()
    with timer("traffic.generate"):
        generated = seeded.serve_scenario(seed).generate()
    with timer("net.encode"):
        pcap, labels = export_dataset(generated, workdir, "trace")
    with timer("net.decode"):
        table = import_dataset(pcap, labels)
    cache = workdir / "kitnet.pkl"
    # a daemon allowed zero chunks: template analysis, session build
    # and KitNET training, exactly as the serving daemon starts up
    trainer = ServeDaemon(
        table,
        config=ServeConfig(
            model="kitnet", model_cache=str(cache), outputs=list(OUTPUTS),
            max_chunks=0, collect=False,
        ),
        clock=MonotonicClock(),
        dataset_id=DATASET_ID,
    )
    report = trainer.run()
    if not report.ok or not cache.exists():
        raise RuntimeError(f"serve set-up failed: {report.reason}")
    return time.process_time() - started, table, cache, len(generated)


@dataclass
class RungRun:
    """What the benchmark saw of one rung; the daemon itself is dropped."""

    name: str
    pps: float
    report: object  # the daemon's ServeReport
    spans: list[Interval]
    t0: float
    cpu_s: float  # process CPU seconds from t0 to the last chunk scored
    offered: int
    digests: list[str] = field(default_factory=list)
    failed: int = 0  # packets failing an output check
    checkpoint_bytes: int = 0
    state_bytes: int = 0

    def chunk_spans(self) -> list[Interval]:
        """The final ``score_chunk`` span of each chunk, in row order."""
        last: dict[int, Interval] = {}
        for span in self.spans:
            if span.name == "score_chunk":
                last[int(span.attrs["row_start"])] = span
        return [last[row] for row in sorted(last)]

    def due(self, row: int) -> float:
        """When packet ``row`` (0-based) was due on the clock."""
        return self.t0 + (row + 1) / self.pps

    def latencies(self) -> list[float]:
        return [
            span.end - self.due(int(span.attrs["row_start"])
                                + int(span.attrs["rows"]) - 1)
            for span in self.chunk_spans()
        ]

    def rung(self) -> Rung:
        chunks = self.chunk_spans()
        last_due = self.due(self.offered - 1)
        scored_by_end = sum(
            int(s.attrs["rows"]) for s in chunks if s.end <= last_due
        )
        scored = sum(int(s.attrs["rows"]) for s in chunks)
        finished = max((s.end for s in chunks), default=self.t0)
        return Rung(
            name=self.name,
            pps=self.pps,
            latencies_s=self.latencies(),
            backlog_pkts_end=self.offered - scored_by_end,
            chunk_pkts=max((int(s.attrs["rows"]) for s in chunks), default=0),
            packets_offered=self.offered,
            packets_scored=scored,
            packets_failed=self.failed,
            goodput_pps=scored / max(finished - self.t0, 1e-9),
        )

    def cpu_goodput(self) -> float:
        """Packets scored per process CPU second of the rung."""
        return sum(int(s.attrs["rows"]) for s in self.chunk_spans()) / self.cpu_s

    def ingest_lateness(self) -> list[float]:
        """How late each delivered batch's first packet left the source."""
        return [
            span.end - self.due(int(span.attrs["row"]))
            for span in self.spans
            if span.name == "ingest" and span.attrs.get("rows")
        ]


class _Schedule:
    """Reads the rung's schedule anchor and CPU time as spans end.

    ``t0`` comes from the source's public schedule on the first
    delivery: packet ``cursor`` (0-based) is due at ``next_due()``.
    """

    def __init__(self, daemon: ServeDaemon) -> None:
        self.daemon = daemon
        self.t0: float | None = None
        self.cpu0 = self.cpu_end = 0.0

    def __call__(self, span: Interval) -> None:
        if span.name == "ingest" and self.t0 is None:
            source = self.daemon.source
            self.t0 = source.next_due() - (source.cursor + 1) / source.pps
            self.cpu0 = time.process_time()
        elif span.name == "score_chunk":
            self.cpu_end = time.process_time()


def run_rung(table, cache: Path, workdir: Path, name: str,
             reference: list[str] | None, probe=None) -> RungRun:
    """Serve the trace at the rung's rate, then check the outputs.

    Without a reference the rung's outputs are checked against the
    offline ``run_stream`` (``verify_against_offline``); with one, its
    chunk digests must equal the reference, which was itself checked
    that way.  Each rung starts from a collected heap and its daemon is
    released after the checks, so no rung pays for another's state.
    """
    pps = RATES[name]
    gc.collect()
    daemon = ServeDaemon(
        table,
        config=config(workdir, name, cache),
        clock=MonotonicClock(),
        dataset_id=DATASET_ID,
    )
    schedule = _Schedule(daemon)
    spans: list[Interval] = []
    with capture_spans(("score_chunk", "ingest"), spans, on_span=schedule):
        report = daemon.run()
    run = RungRun(name, pps, report, spans, schedule.t0,
                  schedule.cpu_end - schedule.cpu0, len(daemon.table))
    records, _ = read_journal(daemon.config.results_path)
    run.digests = [r["digest"] for r in records if r.get("kind") == "chunk"]
    run.checkpoint_bytes = Path(daemon.config.checkpoint_path).stat().st_size
    if probe is not None:
        with probe.span("serve.state_walk"):
            run.state_bytes = daemon.session.state_bytes()
    with probe.span("check.serve") if probe is not None else nullcontext():
        run.failed = check_rung(daemon, run, reference)
    return run


def run_pass(table, cache: Path, workdir: Path,
             golden: list[str] | None, probe=None) -> list[RungRun]:
    """The rungs of PLAN.  The first is checked against the offline run,
    the others against the first one's chunk digests, and every rung
    against ``golden`` (the committed digests) when given."""
    out: list[RungRun] = []
    for number, name in enumerate(PLAN):
        first = out[0].digests if out else None
        run = run_rung(table, cache, workdir / f"rung{number}", name, first, probe)
        if golden is not None and not run.failed:
            run.failed = _digest_mismatch(run, golden)
        out.append(run)
    return out


def check_rung(daemon: ServeDaemon, run: RungRun,
               reference: list[str] | None) -> int:
    """Packets of ``run`` failing an output check (0 when all pass).

    A rung must end with nothing quarantined or dropped.  Its outputs
    must equal the offline ``run_stream`` byte for byte: checked
    directly without ``reference``, and through equal chunk digests
    with it.
    """
    report = run.report
    if not report.ok or report.chunks_quarantined or report.chunks_dropped:
        return max(report.packets_lost, 1)
    if reference is None:
        ok = all(daemon.verify_against_offline().values())
        return 0 if ok else run.offered
    return _digest_mismatch(run, reference)


def _digest_mismatch(run: RungRun, reference: list[str]) -> int:
    """Packets in chunks whose digest differs from ``reference``."""
    if run.digests == reference:
        return 0
    rows = [int(s.attrs["rows"]) for s in run.chunk_spans()]
    if len(rows) != len(reference) or len(run.digests) != len(reference):
        return run.offered
    return sum(
        n for n, ours, theirs in zip(rows, run.digests, reference)
        if ours != theirs
    )


def outputs_digest(out: dict) -> str:
    digest = hashlib.sha256()
    for name in sorted(out):
        value = np.ascontiguousarray(np.asarray(out[name]))
        digest.update(f"{name}:{value.dtype.str}:{value.shape}".encode())
        digest.update(value.tobytes())
    return digest.hexdigest()[:16]


def run_anchor(workdir: Path) -> str:
    """Default-seed trace → pcap → decode → offline stream of its head."""
    generated = seeded.serve_scenario(seeded.DEFAULT_SEED).generate()
    pcap, labels = export_dataset(generated, workdir, "anchor")
    table = import_dataset(pcap, labels).sort_by_time()
    head = table.select(table.ts < float(table.ts[0]) + ANCHOR_SECONDS)
    engine = ExecutionEngine(use_cache=False, track_memory=False)
    out = engine.run_stream(
        Pipeline.from_template([dict(step) for step in DEFAULT_TEMPLATE]),
        head,
        chunk_seconds=CHUNK_SECONDS,
        outputs=list(OUTPUTS),
    )
    return outputs_digest(out)
