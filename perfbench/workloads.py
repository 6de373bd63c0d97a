"""Run one workload: set-up, one measured pass, output checks, metrics.

A run sets up ``SETUP_REPEATS`` times from cold (reporting the median),
then makes one pass of the workload's fixed unit of work: the cell mix,
or the serve ladder.  Only the first pass of a process is cold; a second
one runs its model fits about 30% faster, so runs never mix the two.
Output checks run after the measured region and outside any tracing.

``setup_s`` and ``goodput_per_s`` are taken over process CPU time, not
wall time: both workloads run on one thread, and CPU time does not see
steal time or a descheduled process.
"""

from __future__ import annotations

import json
import statistics
import time
from statistics import median
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import ladder
import matrix
import seeded
from metrics import END_TO_END, PER_LAYER
from probe import Probe, rollup
from stats import UnsupportedPercentile, percentile, sustained_pps

from repro.algorithms.base import AlgorithmSpec
from repro.bench.checkpoint import CheckpointJournal, JsonlJournal
from repro.core import ExecutionEngine, Pipeline
from repro.core.engine import StreamSession, fingerprint_table
from repro.datasets import load_dataset
from repro.ml import KitNET
from repro.ml.tree import DecisionTreeClassifier
from repro.obs import METRICS
from repro.obs import metrics as metric_names
from repro.serve import BoundedChunkQueue, ChunkAssembler, ServeStatus

GOLDEN = Path(__file__).resolve().parent / "golden.json"
SETUP_REPEATS = 3

#: model family of each catalog model type, for ``ml.fit_s.<family>``
FAMILY = {
    "AutoML": "automl",
    "RandomForest": "forest",
    "Ensemble": "ensemble",
    "OCSVM": "kernel",
    "NystromOCSVM": "kernel",
    "NystromGMM": "kernel",
    "Autoencoder": "neural",
    "MLP": "neural",
    "KitNET": "neural",
}
FAMILIES = ("automl", "forest", "ensemble", "kernel", "neural", "other")

#: per-layer figures an untraced run prints as well
HEADLINE = (
    "cells_per_hour", "failed_ratio", "serve_capacity_pps",
    "serve_sustained_pps", "serve_p50_s", "serve_p90_s",
)


@dataclass
class Outcome:
    correct: bool = True
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    e2e: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    #: what the golden file records for the default seed
    digests: dict = field(default_factory=dict)

    def fail(self, count: int, why: str) -> None:
        if count:
            self.failed += count
            self.correct = False
            self.notes.append(f"CHECK FAILED ({count}): {why}")

    def e2e_metrics(self) -> dict:
        return {
            name: {"value": float(self.e2e[name]), "unit": unit}
            for name, unit in END_TO_END
        }

    def layer_metrics(self) -> dict:
        return {
            name: {"value": float(self.layers.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER
        }


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def run(workload: str, seed: int, traced: bool, workdir: Path) -> Outcome:
    runner = {"matrix-cross": run_matrix, "serve": run_serve}[workload]
    return runner(seed, traced, workdir)


def _counter(name: str) -> float:
    return METRICS.counter(name).value


# ----------------------------------------------------------------------
# matrix workloads
# ----------------------------------------------------------------------


def _patch_matrix(probe: Probe, fits: list) -> None:
    """Wrap model construction so each cell's fit and predict are timed.

    ``fits`` receives (family, distinctness key) per top-level fit; the
    key is the model template plus the training arrays' content hash.
    """
    build_model = AlgorithmSpec.build_model

    def traced_build_model(spec):
        model = build_model(spec)
        template = spec.model_template[0]
        family = FAMILY.get(template["model_type"], "other")
        template_key = json.dumps(spec.model_template, sort_keys=True)

        def on_fit(X, y, *rest, **kwargs):
            data_key = ladder.outputs_digest({"X": X, "y": y})
            fits.append((family, template_key + data_key))

        model.fit = probe.timed(f"ml.fit.{family}", model.fit, on_fit)
        model.predict = probe.timed("ml.predict", model.predict)
        return model

    probe.replace(AlgorithmSpec, "build_model", traced_build_model)
    _patch_common(probe)
    probe.patch(CheckpointJournal, "append_outcome", "bench.checkpoint_append")


def _patch_common(probe: Probe) -> None:
    probe.patch(Pipeline, "from_template", "analysis.template")
    probe.patch(StreamSession, "__init__", "analysis.template")
    probe.patch(ExecutionEngine, "run", "core.run")
    probe.patch(ExecutionEngine, "run_stream", "core.run_stream")
    probe.patch(DecisionTreeClassifier, "fit", "ml.tree_fit")
    probe.patch(KitNET, "fit", "ml.kitnet_fit")
    probe.patch(KitNET, "score_samples", "ml.kitnet_score")


def run_matrix(seed: int, traced: bool, workdir: Path) -> Outcome:
    outcome = Outcome()
    probe = Probe() if traced else None
    fits: list = []
    hits0 = _counter(metric_names.CACHE_HITS)
    misses0 = _counter(metric_names.CACHE_MISSES)
    started = time.monotonic()
    with (probe.installed() if traced else nullcontext()):
        if traced:
            _patch_matrix(probe, fits)
        setups = [matrix.setup(seed, probe) for _ in range(SETUP_REPEATS)]
        store, measured, cpu = matrix.run_pass(workdir)
    outcome.wall_s = time.monotonic() - started

    cells = len(store.results)
    outcome.attempted = cells + len(store.failures)
    setup_times = [s for s, _ in setups]
    outcome.e2e["goodput_per_s"] = cells / cpu
    outcome.e2e["setup_s"] = median(setup_times)
    outcome.samples.update(goodput_per_s=1, setup_s=len(setup_times))
    outcome.notes.append(
        f"matrix-cross: {cells} of {len(matrix.cells())} cells in"
        f" {measured:.1f} s wall, {cpu:.1f} s CPU,"
        f" cells_per_hour={3600.0 * cells / measured:.1f}"
    )
    _check_matrix(outcome, seed, store)

    layers = outcome.layers
    layers["cells_per_hour"] = 3600.0 * cells / measured
    layers["failed_ratio"] = outcome.failed / max(outcome.attempted, 1)
    layers["bench.cells"] = cells
    layers["bench.cells_failed"] = len(store.failures)
    if traced:
        _matrix_layers(outcome, probe, fits, setups, hits0, misses0)
    return outcome


def _check_matrix(outcome: Outcome, seed: int, store) -> None:
    golden = load_golden()
    expected = {matrix.cell_key(c) for c in matrix.cells()}
    outcome.fail(len(store.failures), "matrix cells failed")
    digests = outcome.digests["cells"] = matrix.store_digests(store)
    outcome.fail(len(expected - set(digests)), "matrix cells missing")
    if seed == seeded.DEFAULT_SEED and golden:
        committed = golden["cells"]
        outcome.fail(
            sum(committed.get(k) != v for k, v in digests.items()),
            "cell digests differ from the committed default-seed digests",
        )
    if seed == seeded.DEFAULT_SEED:
        fingerprints = {
            seeded.stock_id(d): fingerprint_table(load_dataset(d))
            for d in (seeded.bench_id(s) for s in matrix.STOCKS)
        }
        outcome.digests["traces"] = fingerprints
        committed = golden.get("traces", fingerprints)
        outcome.fail(
            sum(committed.get(k) != v for k, v in fingerprints.items()),
            "generated traces differ from the committed fingerprints",
        )
    else:
        anchors = matrix.run_anchor()
        outcome.attempted += len(anchors)
        committed = golden.get("cells", {})
        outcome.fail(
            sum(committed.get(k) != v for k, v in anchors.items()),
            "default-seed anchor cells differ from the committed digests",
        )


def _matrix_layers(outcome, probe, fits, setups, hits0, misses0) -> None:
    layers = outcome.layers
    layers.update(rollup(probe.intervals, outcome.wall_s))
    generate = probe.named("traffic.generate")
    layers["traffic.generate_s"] = sum(i.seconds for i in generate) / len(setups)
    layers["traffic.generate_pps"] = (
        median([p for _, p in setups]) / layers["traffic.generate_s"]
    )
    layers["analysis.template_s"] = probe.total("analysis.template")
    featurize = probe.named("featurize")
    layers["core.featurize_s"] = sum(i.seconds for i in featurize)
    layers["core.featurize_calls"] = len(featurize)
    packets = sum(len(load_dataset(i.attrs["dataset"])) for i in featurize)
    layers["core.featurize_pps"] = packets / max(layers["core.featurize_s"], 1e-9)
    hits = _counter(metric_names.CACHE_HITS) - hits0
    misses = _counter(metric_names.CACHE_MISSES) - misses0
    layers["core.cache_hit_ratio"] = hits / max(hits + misses, 1)
    fit_intervals = [i for i in probe.intervals if i.name.startswith("ml.fit.")]
    layers["ml.fit_s"] = sum(i.seconds for i in fit_intervals)
    layers["ml.fits"] = len(fits)
    layers["ml.distinct_fits"] = len({key for _, key in fits})
    layers["ml.fit_reuse_ratio"] = layers["ml.distinct_fits"] / max(len(fits), 1)
    for family in FAMILIES:
        layers[f"ml.fit_s.{family}"] = probe.total(f"ml.fit.{family}")
    layers["ml.tree_fits"] = probe.calls["ml.tree_fit"]
    layers["ml.tree_fit_s"] = probe.total("ml.tree_fit")
    layers["ml.predict_s"] = probe.total("ml.predict")
    layers["ml.kitnet_fit_s"] = probe.total("ml.kitnet_fit")
    layers["ml.kitnet_score_s"] = probe.total("ml.kitnet_score")
    layers["bench.evaluate_unattributed_s"] = sum(
        i.self_s for i in probe.named("evaluate")
    )
    layers["bench.checkpoint_append_s"] = probe.total("bench.checkpoint_append")
    outcome.notes.append(
        f"fits={len(fits)} distinct={layers['ml.distinct_fits']}"
        f" redundant_share={1 - layers['ml.fit_reuse_ratio']:.3f}"
    )


# ----------------------------------------------------------------------
# serve workload
# ----------------------------------------------------------------------


def _patch_serve(probe: Probe, depth: list) -> None:
    _patch_common(probe)
    probe.patch(StreamSession, "snapshot", "serve.snapshot")
    probe.patch(StreamSession, "restore", "serve.restore")
    probe.patch(JsonlJournal, "append", "serve.journal")
    probe.patch(ServeStatus, "write", "serve.status")
    probe.patch(ChunkAssembler, "push", "serve.assemble")
    probe.patch(ChunkAssembler, "flush", "serve.assemble")
    probe.patch(
        BoundedChunkQueue, "get", "serve.queue_get",
        lambda queue: depth.append(len(queue)),
    )


def run_serve(seed: int, traced: bool, workdir: Path) -> Outcome:
    outcome = Outcome()
    probe = Probe() if traced else None
    depth: list = []
    golden = load_golden().get("serve", {})
    reference = golden.get("chunks") if seed == seeded.DEFAULT_SEED else None
    started = time.monotonic()
    with (probe.installed() if traced else nullcontext()):
        if traced:
            _patch_serve(probe, depth)
        setups = [
            ladder.setup(seed, workdir / f"setup{i}", probe)
            for i in range(SETUP_REPEATS)
        ]
        _, table, cache, generated_rows = setups[-1]
        runs = ladder.run_pass(table, cache, workdir, reference, probe)
    outcome.wall_s = time.monotonic() - started
    _check_serve(outcome, seed, runs, workdir, table, golden)

    rungs = [run.rung() for run in runs]
    capacity = median(
        [r.goodput_pps for r in rungs if r.name == ladder.CAPACITY_RUNG]
    )
    latencies = [
        x for r in rungs if r.name == ladder.LATENCY_RUNG for x in r.latencies_s
    ]
    setup_times = [s[0] for s in setups]
    # every rung scores the same chunks; CPU time leaves out its idle waits
    outcome.e2e["goodput_per_s"] = median([run.cpu_goodput() for run in runs])
    outcome.e2e["setup_s"] = median(setup_times)
    outcome.samples.update(
        goodput_per_s=len(runs),
        setup_s=len(setup_times), serve_p50_s=len(latencies),
        serve_p90_s=len(latencies),
    )

    layers = outcome.layers
    layers["serve_capacity_pps"] = capacity
    layers["serve_p50_s"] = median(latencies)
    try:
        layers["serve_p90_s"] = percentile(latencies, 0.9)
    except UnsupportedPercentile as exc:
        outcome.notes.append(f"serve_p90_s not reported: {exc}")
    layers["serve_sustained_pps"] = sustained_pps(rungs)
    layers["failed_ratio"] = outcome.failed / max(outcome.attempted, 1)
    for run, rung in zip(runs, rungs):
        p90 = rung.p90()
        outcome.notes.append(
            f"rung {rung.name:6s} {rung.pps:>7.0f} pps: goodput "
            f"{rung.goodput_pps:8.1f} pkt/s ({run.cpu_goodput():.1f} per CPU s),"
            f" p50 {median(rung.latencies_s):.3f} s,"
            f" p90 {'n/a' if p90 is None else f'{p90:.3f} s'},"
            f" backlog at end {rung.backlog_pkts_end} pkts"
            f" (limit {rung.chunk_pkts}),"
            f" meets limit: {rung.meets_limit()}"
        )
        layers[f"serve.backlog_pkts_end.{rung.name}"] = rung.backlog_pkts_end
    outcome.notes.append(
        f"serve: sustained "
        f"{layers['serve_sustained_pps']:.0f} pps; capacity {capacity:.1f} pkt/s;"
        f" p50/p90 at {ladder.LATENCY_RUNG} {layers['serve_p50_s']:.3f}/"
        f"{layers.get('serve_p90_s', float('nan')):.3f} s"
    )
    if traced:
        _serve_layers(outcome, probe, runs, setups, generated_rows, depth)
    return outcome


def _check_serve(outcome: Outcome, seed: int, runs, workdir: Path, table,
                 golden: dict) -> None:
    for run in runs:
        outcome.attempted += run.offered
        outcome.fail(run.failed, f"serve rung {run.name} output checks")
    outcome.digests["chunks"] = runs[0].digests
    if seed == seeded.DEFAULT_SEED:
        trace = outcome.digests["trace"] = fingerprint_table(table)
        outcome.fail(
            int(trace != golden.get("trace", trace)),
            "decoded serve trace differs from the committed fingerprint",
        )
    anchor = outcome.digests["anchor"] = ladder.run_anchor(workdir)
    outcome.attempted += 1
    outcome.fail(
        int(anchor != golden.get("anchor", anchor)),
        "default-seed offline anchor differs from the committed digest",
    )


def _serve_layers(outcome, probe, runs, setups, rows, depth) -> None:
    layers = outcome.layers
    reps = len(setups)
    layers.update(rollup(probe.intervals, outcome.wall_s))
    layers["traffic.generate_s"] = probe.total("traffic.generate") / reps
    layers["traffic.generate_pps"] = rows / layers["traffic.generate_s"]
    layers["net.decode_s"] = probe.total("net.decode") / reps
    layers["net.decode_pps"] = len(setups[-1][1]) / layers["net.decode_s"]
    layers["analysis.template_s"] = probe.total("analysis.template")
    layers["ml.kitnet_fit_s"] = probe.total("ml.kitnet_fit") / reps
    layers["ml.kitnet_score_s"] = probe.total("ml.kitnet_score")
    layers["serve.ingest_s"] = probe.total("ingest")
    normal = [r for r in runs if r.name == ladder.LATENCY_RUNG]
    lateness = [x for r in normal for x in r.ingest_lateness()]
    layers["serve.ingest_late_s"] = median(lateness) if lateness else 0.0
    layers["serve.assemble_s"] = probe.total("serve.assemble")
    scores = probe.named("score_chunk")
    layers["serve.score_s"] = sum(i.seconds for i in scores)
    score_ms = [1000.0 * i.seconds for i in scores]
    layers["serve.score_ms_p50"] = median(score_ms)
    try:
        layers["serve.score_ms_p90"] = percentile(score_ms, 0.9)
    except UnsupportedPercentile:
        pass
    heavy = [s.seconds for s in runs[0].chunk_spans()]
    tenth = max(1, len(heavy) // 10)
    layers["serve.chunk_cost_growth"] = (
        statistics.fmean(heavy[-tenth:]) / statistics.fmean(heavy[:tenth])
    )
    chunks = sum(r.report.chunks_scored for r in runs)
    layers["serve.snapshot_s"] = probe.total("serve.snapshot")
    layers["serve.snapshots_per_chunk"] = probe.calls["serve.snapshot"] / chunks
    layers["serve.restore_calls"] = probe.calls["serve.restore"]
    heavy_run = runs[-1]
    walks = probe.named("serve.state_walk")
    layers["serve.state_bytes"] = heavy_run.state_bytes
    layers["serve.state_walk_s"] = walks[-1].seconds
    layers["serve.journal_s"] = probe.total("serve.journal")
    layers["serve.checkpoint_bytes"] = heavy_run.checkpoint_bytes
    layers["serve.status_s"] = probe.total("serve.status")
    layers["serve.queue_depth_max"] = max(depth, default=0)
    layers["serve.unattributed_s"] = sum(
        i.self_s for i in probe.named("serve") if i.attrs.get("pps", 0) > 0
    )
