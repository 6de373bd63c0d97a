"""The metrics the benchmark reports, read from ``BENCHMARK.json``.

``END_TO_END`` are reported by every workload from untraced runs;
``PER_LAYER`` come from the traced run.  Each is a list of (name, unit).
README.md maps every per-layer metric to the end-to-end figure it
should move and the workload it is measured on.
"""

from __future__ import annotations

import json
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
