#!/usr/bin/env python3
"""Layered benchmark: matrix cells/hour and serve capacity, per layer too.

Run one workload with one seed from the repository root::

    python3 perfbench/run.py --workload matrix-cross --seed 0 --seconds 45 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` prints the per-layer metrics of a traced run (and starts
one untraced child run to measure the tracing overhead).  A run always
measures one pass of the workload's fixed unit of work, 30-70 s on a
2-vCPU box; ``--seconds`` is accepted as the nominal run length.  The last line
of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 when every output check passed, 1 when one failed,
2 when the program under test cannot be found.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("matrix-cross", "serve")
WORKDIR = ROOT / ".perfbench_work"

#: a run must end within this many seconds, the untraced child included
RUN_LIMIT_S = 170.0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=45.0,
        help="nominal run length; a run measures one fixed pass",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _prepare_imports() -> None:
    # cold process caches: no on-disk featurization cache, no trace file
    os.environ.pop("REPRO_DISK_CACHE", None)
    os.environ.pop("REPRO_TRACE_FILE", None)
    sys.path[:0] = [str(HERE), str(ROOT / "src")]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def remove_workdir(workdir: Path) -> None:
    """Remove a run's scratch directory, and WORKDIR once it is empty."""
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        WORKDIR.rmdir()
    except OSError:
        pass


def untraced_wall(args: argparse.Namespace, timeout: float) -> float | None:
    """Measured wall time of an untraced child run with the same inputs.

    None when the child does not finish within ``timeout`` seconds; it
    is then killed, waited for, and its scratch directory removed.
    """
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0",
    ]
    child = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True,
    )
    try:
        stdout, _ = child.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        remove_workdir(WORKDIR / f"{args.workload}-{child.pid}")
        return None
    for line in stdout.splitlines():
        if line.startswith("# measured_wall_s "):
            return float(line.split()[2])
    return None


def print_table(metrics: dict, samples: dict) -> None:
    for name, entry in metrics.items():
        count = samples.get(name, 1)
        print(f"# {name:36s} {entry['value']:>16.6g} {entry['unit']:6s}"
              f" n={count}")


def main(argv=None) -> int:
    started = time.monotonic()
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under test at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    _prepare_imports()
    import workloads

    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        outcome = workloads.run(
            args.workload, args.seed, bool(args.trace), workdir
        )
    finally:
        remove_workdir(workdir)

    if args.trace:
        base = untraced_wall(args, RUN_LIMIT_S - (time.monotonic() - started))
        if base is None:
            outcome.notes.append(
                "obs.trace_overhead_ratio not measured: the untraced child"
                " run did not finish in time"
            )
        outcome.layers["obs.trace_overhead_ratio"] = (
            outcome.wall_s / base - 1.0 if base else 0.0
        )
        metrics = outcome.layer_metrics()
        shown = metrics
    else:
        outcome.e2e["peak_rss_mb"] = peak_rss_mb()
        metrics = outcome.e2e_metrics()
        # the workload's own headline figures, which may be 0
        shown = dict(metrics)
        shown.update(
            (name, entry)
            for name, entry in outcome.layer_metrics().items()
            if name in outcome.layers and name in workloads.HEADLINE
        )
    for line in outcome.notes:
        print(f"# {line}")
    print_table(shown, outcome.samples)
    print(f"# measured_wall_s {outcome.wall_s!r}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
