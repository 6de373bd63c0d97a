#!/usr/bin/env python3
"""Regenerate ``golden.json``: the default-seed output digests.

    python3 perfbench/golden.py

Runs every workload once at the default seed and records each matrix
cell's digest, the serve chunk digests, the offline serve anchor and
the generated traces' fingerprints.  Regenerate only when a change is
meant to alter results, and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
    os.environ.pop("REPRO_DISK_CACHE", None)
    import seeded
    import workloads

    golden = {"seed": seeded.DEFAULT_SEED, "cells": {}, "traces": {}}
    # measure against nothing: the old file must not shape the new one
    (HERE / "golden.json").unlink(missing_ok=True)
    workdir = HERE.parent / ".perfbench_work" / "golden"
    try:
        outcome = workloads.run("matrix-cross", seeded.DEFAULT_SEED, False,
                                workdir)
        golden["cells"].update(outcome.digests["cells"])
        golden["traces"].update(outcome.digests["traces"])
        outcome = workloads.run("serve", seeded.DEFAULT_SEED, False, workdir)
        golden["serve"] = {
            key: outcome.digests[key] for key in ("trace", "chunks", "anchor")
        }
    finally:
        shutil.rmtree(workdir.parent, ignore_errors=True)
    (HERE / "golden.json").write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
