"""The performance baseline: featurize packets/sec, fit rows/sec, seconds per cell.

``repro bench-perf`` runs this and writes ``BENCH_perf.json`` so every
PR from here on has a throughput trajectory to move.  Three views:

* **featurize** -- an end-to-end feature template through the engine,
  in packets/sec (the paper's unit of ingest pressure);
* **fit** / **fit_fields** -- one seeded CART tree grown on the
  featurize view's 0/1 matrix (nPrint bits plus protocol one-hot), and
  one on the same packets' raw header fields, in rows/sec.  Tree growth
  is where the evaluation matrix spends its time, and the two matrices
  take the tree's two split searches: counting for 0/1 input, sorting
  for any other;
* **cells** -- the wall seconds of one full benchmark cell (featurize +
  train + predict + score).  One cell is not the matrix mix, so it is
  not extrapolated to cells/hour; the mix-based figure lives in the
  layered benchmark under ``perfbench/``.

Timings take the best of ``repeat`` runs: the minimum is the right
estimator for throughput under a noisy scheduler.  Outputs come from
the *first* run and every later repeat is byte-checked against it, so
a flaky operation cannot pass the equality contract by accident.

Each payload carries a **provenance** block (git sha, UTC timestamp,
python/numpy versions, a workload fingerprint) so entries in the
append-only ``BENCH_history.jsonl`` trajectory
(:mod:`repro.bench.history`) stay comparable across machines and PRs.
"""

from __future__ import annotations

import hashlib
import json
import platform
import subprocess
import sys
import time
from datetime import datetime, timezone
from typing import Any, Callable

import numpy as np

from repro.core.engine import ExecutionEngine
from repro.core.pipeline import Pipeline
from repro.datasets.registry import load_dataset, load_flows
from repro.flows import Granularity
from repro.ml.tree import DecisionTreeClassifier

__all__ = ["run_perf_benchmark", "collect_provenance", "PERF_DATASET"]

PERF_DATASET = "F0"

#: bumped when the payload layout changes incompatibly
PAYLOAD_SCHEMA = 4

_FEATURIZE_TEMPLATE = [
    {"func": "SortByTime", "input": None, "output": "sorted"},
    {"func": "NprintEncode", "input": ["sorted"], "output": "X_bits",
     "layers": ["ipv4", "tcp", "udp", "icmp", "payload"],
     "payload_bytes": 8},
    {"func": "ProtocolOneHot", "input": ["sorted"], "output": "X_proto"},
    {"func": "ConcatFeatures", "input": ["X_bits", "X_proto"],
     "output": "X"},
    {"func": "Labels", "input": ["sorted"], "output": "y"},
]

#: A00's raw per-packet fields: integer columns with many ties
_FIELDS_TEMPLATE = [
    {"func": "SortByTime", "input": None, "output": "sorted"},
    {"func": "PacketFields", "input": ["sorted"], "output": "X",
     "fields": ["length", "ttl", "src_port", "dst_port", "payload_len"]},
    {"func": "Labels", "input": ["sorted"], "output": "y"},
]


def _same_bytes(a: Any, b: Any) -> bool:
    """Byte-level equality for the value shapes the benchmark times."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.shape == b.shape
            and a.dtype == b.dtype
            and a.tobytes() == b.tobytes()
        )
    if isinstance(a, dict) and isinstance(b, dict):
        return set(a) == set(b) and all(_same_bytes(a[k], b[k]) for k in a)
    return True  # tables/flows are inputs, never timed outputs


def _best_of(
    fn: Callable[[], Any], repeat: int, label: str = "timed function"
) -> tuple[float, Any]:
    """Best wall time of ``repeat`` runs, with the *first* run's output.

    Returning a deterministic run's output (instead of whichever repeat
    happened to finish last) keeps the byte-equality contract honest:
    every later repeat is checked against the first, so a flaky op
    raises here rather than slipping through when its final repeat
    coincidentally agreed.
    """
    best = float("inf")
    result = None
    for iteration in range(max(1, repeat)):
        started = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - started)
        if iteration == 0:
            result = out
        elif not _same_bytes(result, out):
            raise RuntimeError(
                f"{label}: outputs differ across timing repeats "
                f"(repeat {iteration + 1} of {repeat}); the operation is "
                "not deterministic and cannot be benchmarked"
            )
    return best, result


def _attach_payloads(table, payload_bytes: int):
    """Deterministic synthetic payload bytes sized off each packet.

    Works on a copy: ``load_dataset`` memoizes its tables, and payloads
    attached to the shared instance would leak into every later caller.
    """
    table = table.select(np.arange(len(table)))
    rng = np.random.default_rng(20260808)
    sizes = np.minimum(table.payload_len, payload_bytes).astype(np.int64)
    blob = rng.integers(0, 256, size=int(sizes.sum()), dtype=np.uint8)
    payloads = []
    offset = 0
    for size in sizes:
        payloads.append(bytes(blob[offset : offset + size]))
        offset += size
    table.payloads = payloads
    return table


def _featurize_section(table, repeat: int) -> tuple[dict, dict]:
    """The featurize view, and the matrix it produced."""
    pipeline = Pipeline.from_template(_FEATURIZE_TEMPLATE)
    engine = ExecutionEngine(use_cache=False, track_memory=False)
    packets = len(table)
    seconds, outputs = _best_of(
        lambda: engine.run(pipeline, table, outputs=["X", "y"]),
        repeat,
        "featurize",
    )
    section = {
        "template_steps": len(_FEATURIZE_TEMPLATE),
        "packets": packets,
        "seconds": seconds,
        "packets_per_sec": packets / seconds if seconds else None,
    }
    return section, outputs


def _tree_arrays(tree: DecisionTreeClassifier) -> dict:
    """A fitted tree's node fields as arrays, for the repeat byte-check."""
    nodes = tree.nodes_
    return {
        "feature": np.array([node.feature for node in nodes]),
        "threshold": np.array([node.threshold for node in nodes]),
        "children": np.array([(node.left, node.right) for node in nodes]),
        "distribution": np.stack([node.distribution for node in nodes]),
    }


def _fields_matrix(table) -> dict:
    """The raw-fields matrix and labels of the featurize view's packets."""
    engine = ExecutionEngine(use_cache=False, track_memory=False)
    return engine.run(
        Pipeline.from_template(_FIELDS_TEMPLATE), table, outputs=["X", "y"]
    )


def _fit_section(X: np.ndarray, y: np.ndarray, repeat: int) -> dict:
    """Grow one seeded tree on a whole matrix.

    F0 separates at depth two on either matrix, so the time is mostly
    the root's split search over every row and column; the per-node cost
    of deep trees shows in ``perfbench/``'s AutoML cells.
    """
    seconds, _ = _best_of(
        lambda: _tree_arrays(DecisionTreeClassifier(seed=0).fit(X, y)),
        repeat,
        "fit",
    )
    return {
        "model": "DecisionTreeClassifier",
        "rows": len(y),
        "features": X.shape[1],
        "seconds": seconds,
        "rows_per_sec": len(y) / seconds if seconds else None,
    }


def _git_sha() -> str | None:
    """The current commit sha, or None outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def collect_provenance(workload: dict) -> dict:
    """Who/when/what produced a perf payload.

    The workload fingerprint hashes the parameters that define *what*
    was measured (dataset, packet/flow counts, payload sizing) so
    trajectory tooling can warn before diffing two payloads that
    measured different things.  ``repeat`` is deliberately excluded:
    more timing repeats change the noise floor, not the workload.
    """
    measured = {k: v for k, v in workload.items() if k != "repeat"}
    fingerprint = hashlib.sha256(
        json.dumps(measured, sort_keys=True, default=repr).encode()
    ).hexdigest()
    return {
        "schema": PAYLOAD_SCHEMA,
        "git_sha": _git_sha(),
        "timestamp": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": f"{sys.platform}/{platform.machine()}",
        "workload_fingerprint": fingerprint,
    }


def _cells_section(algorithm_id: str, dataset_id: str) -> dict:
    from repro.bench.runner import BenchmarkRunner

    runner = BenchmarkRunner()
    started = time.perf_counter()
    runner.evaluate(algorithm_id, dataset_id, dataset_id)
    seconds = time.perf_counter() - started
    return {
        "algorithm": algorithm_id,
        "dataset": dataset_id,
        "seconds_per_cell": seconds,
    }


def run_perf_benchmark(
    *,
    repeat: int = 3,
    dataset_id: str = PERF_DATASET,
    cells_algorithm: str | None = "A14",
    payload_bytes: int = 8,
) -> dict:
    """Measure the baseline and return the ``BENCH_perf.json`` payload.

    Pass ``cells_algorithm=None`` to skip the (slowest) seconds-per-cell
    measurement, e.g. in quick CI smokes.
    """
    table = _attach_payloads(load_dataset(dataset_id), payload_bytes)
    flows = load_flows(dataset_id, Granularity.CONNECTION)
    workload = {
        "dataset": dataset_id,
        "packets": len(table),
        "flows": len(flows),
        "payload_bytes": payload_bytes,
        "repeat": repeat,
    }
    payload: dict[str, Any] = {
        "benchmark": "perf-baseline",
        "workload": workload,
        "provenance": collect_provenance(workload),
    }
    payload["featurize"], matrix = _featurize_section(table, repeat)
    payload["fit"] = _fit_section(matrix["X"], np.asarray(matrix["y"]), repeat)
    fields = _fields_matrix(table)
    payload["fit_fields"] = _fit_section(
        fields["X"], np.asarray(fields["y"]), repeat
    )
    if cells_algorithm is not None:
        payload["cells"] = _cells_section(cells_algorithm, dataset_id)
    return payload
