"""The perf trajectory: an append-only history and noise-tolerant diffs.

``repro bench-perf`` measures one payload; this module turns payloads
into a *trajectory*:

* :func:`flatten_series` names every throughput series in a payload
  (``featurize/packets_per_sec``, ``fit/rows_per_sec``,
  ``fit_fields/rows_per_sec``, ``serve/packets_per_sec``) -- all
  higher-is-better, so "regression" has one meaning;
* :func:`append_history` / :func:`load_history` keep payloads in an
  append-only ``BENCH_history.jsonl`` (torn final lines from a killed
  writer are tolerated, like the checkpoint journal);
* :func:`diff_payloads` compares two payloads series-by-series under a
  per-series noise threshold and reports regressions, improvements,
  and series that appeared or vanished -- ``repro perf-diff`` exits
  nonzero when any regression survives the threshold, which is the CI
  regression gate;
* :func:`render_perf_diff` / :func:`render_history` are the human
  views behind ``repro perf-diff`` and ``repro perf-history``.

Thresholds are *relative*: a series regresses when
``after < before * (1 - threshold)``.  The default tolerates 20%
scheduler noise and is overridable per call and per series.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "DEFAULT_THRESHOLD",
    "SeriesDelta",
    "PerfDiff",
    "append_history",
    "diff_payloads",
    "flatten_series",
    "load_history",
    "render_history",
    "render_perf_diff",
]

#: relative drop a series may show before it counts as a regression
DEFAULT_THRESHOLD = 0.20


#: every series a payload can carry, as ``<section>/<field>``; also the
#: columns `repro perf-history` shows without a series filter
_SUMMARY_SERIES = (
    "featurize/packets_per_sec", "fit/rows_per_sec", "fit_fields/rows_per_sec",
    "serve/packets_per_sec",
)


def flatten_series(payload: dict) -> dict[str, float]:
    """Every named throughput series in one perf payload.

    Only higher-is-better series are extracted (rates, never raw
    seconds), so every consumer can treat "smaller after" uniformly as
    "worse".
    """
    series = {}
    for name in _SUMMARY_SERIES:
        section, field_name = name.split("/")
        rate = (payload.get(section) or {}).get(field_name)
        if rate:
            series[name] = float(rate)
    return series


@dataclass
class SeriesDelta:
    """One series compared across two payloads."""

    series: str
    before: float
    after: float
    threshold: float

    @property
    def change(self) -> float:
        """Relative change, ``(after - before) / before``."""
        return (self.after - self.before) / self.before if self.before else 0.0

    @property
    def regressed(self) -> bool:
        return self.change < -self.threshold

    @property
    def improved(self) -> bool:
        return self.change > self.threshold

    def to_dict(self) -> dict:
        return {
            "series": self.series,
            "before": self.before,
            "after": self.after,
            "change": self.change,
            "threshold": self.threshold,
            "regressed": self.regressed,
            "improved": self.improved,
        }


@dataclass
class PerfDiff:
    """The full comparison of two perf payloads."""

    deltas: list[SeriesDelta] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)  # vanished series
    skipped: list[str] = field(default_factory=list)  # section not measured
    added: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[SeriesDelta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def improvements(self) -> list[SeriesDelta]:
        return [d for d in self.deltas if d.improved]

    @property
    def has_regressions(self) -> bool:
        return bool(self.regressions) or bool(self.missing)

    def to_dict(self) -> dict:
        return {
            "series": [d.to_dict() for d in self.deltas],
            "missing": list(self.missing),
            "skipped": list(self.skipped),
            "added": list(self.added),
            "warnings": list(self.warnings),
            "regressions": [d.series for d in self.regressions],
            "improvements": [d.series for d in self.improvements],
            "has_regressions": self.has_regressions,
        }


def diff_payloads(
    before: dict,
    after: dict,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    thresholds: dict[str, float] | None = None,
) -> PerfDiff:
    """Compare two payloads series-by-series.

    ``threshold`` is the default relative drop tolerated per series;
    ``thresholds`` overrides it for named series.  A series missing
    from ``after`` counts as a regression (a throughput loss, not a
    neutral schema change) -- unless its whole payload *section* is
    absent, which means the section was deliberately not measured and
    only warns.  A workload-fingerprint mismatch also only warns, since
    cross-workload diffs are sometimes deliberate.
    """
    per_series = dict(thresholds or {})
    old = flatten_series(before)
    new = flatten_series(after)
    missing: list[str] = []
    skipped: list[str] = []
    for name in sorted(set(old) - set(new)):
        section = name.split("/", 1)[0]
        (skipped if not after.get(section) else missing).append(name)
    diff = PerfDiff(
        deltas=[
            SeriesDelta(
                series=name,
                before=old[name],
                after=new[name],
                threshold=per_series.get(name, threshold),
            )
            for name in sorted(old)
            if name in new
        ],
        missing=missing,
        skipped=skipped,
        added=sorted(set(new) - set(old)),
    )
    if skipped:
        diff.warnings.append(
            "not measured in the after payload: "
            + ", ".join(sorted({n.split('/', 1)[0] for n in skipped}))
            + " (section absent)"
        )
    old_print = (before.get("provenance") or {}).get("workload_fingerprint")
    new_print = (after.get("provenance") or {}).get("workload_fingerprint")
    if old_print and new_print and old_print != new_print:
        diff.warnings.append(
            "workload fingerprints differ: the two payloads measured "
            "different workloads; absolute rates may not be comparable"
        )
    return diff


# ---------------------------------------------------------------------------
# the append-only store
# ---------------------------------------------------------------------------


def append_history(payload: dict, path: str | Path) -> None:
    """Append one payload as a JSON line to the trajectory store."""
    line = json.dumps(payload, sort_keys=True, default=repr)
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("a", encoding="utf-8") as handle:
        handle.write(line + "\n")


def load_history(path: str | Path) -> list[dict]:
    """Parse the trajectory store back into payload dicts.

    A torn *final* line (a writer killed mid-append) is dropped
    silently, matching the checkpoint journal's tolerance; damage
    anywhere else raises ``ValueError`` naming the line.
    """
    entries: list[dict] = []
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    numbered = [
        (number, line)
        for number, line in enumerate(lines, start=1)
        if line.strip()
    ]
    for position, (number, line) in enumerate(numbered):
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as exc:
            if position == len(numbered) - 1:
                break  # torn tail from an interrupted append
            raise ValueError(
                f"{path}:{number}: not valid JSON: {exc.msg}"
            ) from exc
        if not isinstance(entry, dict):
            raise ValueError(f"{path}:{number}: entry is not an object")
        entries.append(entry)
    return entries


# ---------------------------------------------------------------------------
# renderers
# ---------------------------------------------------------------------------


def _rate(value: float) -> str:
    if value >= 1000:
        return f"{value:,.0f}"
    return f"{value:.3g}"


def render_perf_diff(diff: PerfDiff) -> str:
    """The ``repro perf-diff`` table plus a one-line verdict."""
    lines = [
        f"{'series':<48} {'before':>14} {'after':>14} {'change':>8}  verdict"
    ]
    lines.append("-" * len(lines[0]))
    for delta in diff.deltas:
        verdict = "ok"
        if delta.regressed:
            verdict = f"REGRESSED (>{delta.threshold:.0%} drop)"
        elif delta.improved:
            verdict = "improved"
        lines.append(
            f"{delta.series:<48} {_rate(delta.before):>14} "
            f"{_rate(delta.after):>14} {delta.change:>+8.1%}  {verdict}"
        )
    for name in diff.missing:
        lines.append(f"{name:<48} {'-':>14} {'-':>14} {'':>8}  MISSING")
    for name in diff.skipped:
        lines.append(f"{name:<48} {'-':>14} {'-':>14} {'':>8}  not measured")
    for name in diff.added:
        lines.append(f"{name:<48} {'-':>14} {'-':>14} {'':>8}  new")
    for warning in diff.warnings:
        lines.append(f"warning: {warning}")
    regressions = diff.regressions
    if diff.has_regressions:
        named = ", ".join(
            [d.series for d in regressions] + list(diff.missing)
        )
        lines.append(
            f"perf-diff: {len(regressions) + len(diff.missing)} "
            f"regression(s): {named}"
        )
    else:
        lines.append(
            f"perf-diff: clean ({len(diff.deltas)} series compared, "
            f"{len(diff.improvements)} improved)"
        )
    return "\n".join(lines)


def render_history(
    entries: list[dict],
    *,
    series: str | None = None,
    limit: int | None = None,
) -> str:
    """The trajectory as a table, newest entry last.

    ``series`` filters columns by substring; ``limit`` keeps only the
    most recent N entries.
    """
    if limit is not None and limit > 0:
        entries = entries[-limit:]
    if not entries:
        return "(empty history)"
    if series:
        names = sorted(
            {
                name
                for entry in entries
                for name in flatten_series(entry)
                if series in name
            }
        )
        if not names:
            return f"(no series match {series!r})"
    else:
        names = [
            name
            for name in _SUMMARY_SERIES
            if any(name in flatten_series(entry) for entry in entries)
        ]
    short = [name.rsplit("/", 1)[-1][:18] for name in names]
    header = f"{'timestamp':<20} {'sha':<9} " + " ".join(
        f"{column:>18}" for column in short
    )
    lines = [header, "-" * len(header)]
    for entry in entries:
        provenance = entry.get("provenance") or {}
        stamp = (provenance.get("timestamp") or "?")[:19]
        sha = (provenance.get("git_sha") or "-")[:9]
        values = flatten_series(entry)
        cells = " ".join(
            f"{_rate(values[name]) if name in values else '-':>18}"
            for name in names
        )
        lines.append(f"{stamp:<20} {sha:<9} {cells}")
    if series:
        lines.append("columns: " + ", ".join(names))
    return "\n".join(lines)
