"""Golden serve output: the daemon's chunk digests on F0.

The committed ``golden/serve.json`` holds, for two chunk sizes, the
``digest`` of every chunk record the serve daemon journals when it
replays F0 unpaced (``--pps 0``) on a virtual clock with the default
template and outputs ``X,y``.  A digest hashes the chunk's output
bytes, so any change to what serving computes -- a reordered float
operation in the carried Kitsune state, a shifted chunk boundary, a
lost or duplicated row -- changes at least one of them, while a change
that only makes serving cheaper does not.

Regenerate after an intended output change with::

    PYTHONPATH=src python tests/test_serve_golden.py
"""

import json
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden" / "serve.json"

DATASET = "F0"
OUTPUTS = ["X", "y"]
CHUNK_SECONDS = (2.0, 10.0)


def chunk_digests(chunk_seconds: float) -> list[str]:
    """The results journal's chunk digests of one virtual-time F0 run."""
    from repro.bench.checkpoint import read_journal
    from repro.datasets import load_dataset
    from repro.serve import ReplayClock, ServeConfig, ServeDaemon

    with tempfile.TemporaryDirectory() as workdir:
        results = Path(workdir) / "results.jsonl"
        daemon = ServeDaemon(
            load_dataset(DATASET),
            config=ServeConfig(
                chunk_seconds=chunk_seconds,
                pps=0.0,
                outputs=list(OUTPUTS),
                results_path=str(results),
                collect=False,
            ),
            clock=ReplayClock(),
            dataset_id=DATASET,
        )
        report = daemon.run()
        assert report.ok and not report.packets_lost, report
        records, _ = read_journal(results)
    return [r["digest"] for r in records if r.get("kind") == "chunk"]


def current_payload() -> dict:
    return {
        "dataset": DATASET,
        "outputs": list(OUTPUTS),
        "chunks": {
            str(seconds): chunk_digests(seconds) for seconds in CHUNK_SECONDS
        },
    }


def test_serve_chunk_digests_match_golden():
    golden = json.loads(GOLDEN.read_text())
    current = current_payload()
    assert current["dataset"] == golden["dataset"]
    assert current["outputs"] == golden["outputs"]
    assert sorted(current["chunks"]) == sorted(golden["chunks"])
    for seconds, digests in golden["chunks"].items():
        assert len(current["chunks"][seconds]) == len(digests), seconds
        mismatched = [
            index
            for index, (ours, theirs) in enumerate(
                zip(current["chunks"][seconds], digests)
            )
            if ours != theirs
        ]
        assert mismatched == [], (seconds, mismatched[:10])


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps(current_payload(), indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN}")
