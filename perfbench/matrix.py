"""The matrix workload: closed-loop cross-dataset (algorithm, train, test) cells.

``matrix-cross`` runs the cross-dataset cells of the paper's Fig. 9/10
as a long campaign does, with ``keep_going`` and a checkpoint journal.
Cells run one after another on one thread.  The process-wide result
cache is cleared before the pass, so it is a cold campaign over traces
generated at set-up.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
from pathlib import Path

import seeded

from repro.bench import BenchmarkRunner
from repro.core import ExecutionEngine
from repro.datasets import load_dataset

#: one nPrint/AutoML variant trained on the camera trace P1 and tested
#: on P0 and P2 (P1's AutoML cost varies about 10% from seed to seed,
#: P0's twofold); every flow algorithm trained on F0, tested on F1 and
#: F2.  The first id of each list is the training trace.
NPRINT = "A02"
PACKET = ["P1", "P0", "P2"]
FLOW_ALGORITHMS = ["A07", "A08", "A09", "A10", "A11", "A12", "A13", "A14", "A15"]
FLOW = ["F0", "F1", "F2"]
STOCKS = PACKET + FLOW

#: a cheap cell re-run on default-seed traces in every run, so each run
#: checks outputs against committed digests whatever its seed
ANCHOR_CELLS = [("A14", "F0", "F1")]
ANCHOR_PREFIX = "PA"


def cells() -> list[tuple[str, str, str]]:
    """The cell mix over benchmark dataset ids, in run order."""
    prefix = seeded.PREFIX
    out = []
    for algorithm, (train, *tests) in [(NPRINT, PACKET)] + [
        (algorithm, FLOW) for algorithm in FLOW_ALGORITHMS
    ]:
        out += [(algorithm, prefix + train, prefix + test) for test in tests]
    return out


def setup(seed: int, probe=None) -> tuple[float, int]:
    """Register and generate the seeded traces (cold).

    Returns (CPU seconds, packets generated).
    """
    ids = seeded.register(STOCKS, seed)
    seeded.clear_caches()
    started = time.process_time()
    packets = 0
    for dataset_id in ids:
        if probe is not None:
            with probe.span("traffic.generate", dataset=dataset_id):
                packets += len(load_dataset(dataset_id))
        else:
            packets += len(load_dataset(dataset_id))
    return time.process_time() - started, packets


def run_pass(workdir: Path):
    """One cold pass over the cell mix.

    Returns (store, wall seconds, process CPU seconds).  ``_run_cells``
    is the runner's campaign loop behind ``run_matrix`` and
    ``run_cross_dataset``.  It is private, but it is the only entry that
    takes an explicit cell list: ``run_cross_dataset`` runs every
    ordered pair, which would train AutoML on P0 and P2 too.
    """
    ExecutionEngine.shared_cache.clear()
    gc.collect()
    runner = BenchmarkRunner(seed=0)
    journal = workdir / "cross.jsonl"
    wall, cpu = time.monotonic(), time.process_time()
    store = runner._run_cells(cells(), keep_going=True, checkpoint=str(journal))
    return store, time.monotonic() - wall, time.process_time() - cpu


def cell_key(cell: tuple[str, str, str]) -> str:
    algorithm, train, test = cell
    return "/".join((algorithm, seeded.stock_id(train), seeded.stock_id(test)))


def result_digest(result) -> str:
    """Digest of one cell's outputs: metrics, sizes and per-attack view."""
    payload = {
        "precision": result.precision,
        "recall": result.recall,
        "f1": result.f1,
        "n_train": result.n_train,
        "n_test": result.n_test,
        "per_attack": result.per_attack,
    }
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def store_digests(store, prefix: str = seeded.PREFIX) -> dict[str, str]:
    out = {}
    for result in store:
        algorithm, train, test = result.cell
        key = "/".join(
            (algorithm, train[len(prefix):], test[len(prefix):])
        )
        out[key] = result_digest(result)
    return out


def run_anchor() -> dict[str, str]:
    """Evaluate the anchor cells on default-seed traces; their digests."""
    stocks = sorted({s for _, train, test in ANCHOR_CELLS for s in (train, test)})
    seeded.register(stocks, seeded.DEFAULT_SEED, prefix=ANCHOR_PREFIX)
    runner = BenchmarkRunner(seed=0)
    for algorithm, train, test in ANCHOR_CELLS:
        runner.evaluate(algorithm, ANCHOR_PREFIX + train, ANCHOR_PREFIX + test)
    return store_digests(runner.store, prefix=ANCHOR_PREFIX)
