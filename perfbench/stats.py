"""Order statistics and the serve ladder's rung verdict.

A percentile is reported only when the sample supports it: at least
``MIN_BEYOND`` samples must lie beyond it, or the figure would rest on
a handful of chunks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

MIN_BEYOND = 10

#: the serve latency limit: chunk-latency p90 at or under this many s
P90_LIMIT_S = 1.0


class UnsupportedPercentile(ValueError):
    """Too few samples beyond the requested percentile."""


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q < 1) of ``values``.

    Refuses (raises :class:`UnsupportedPercentile`) when fewer than
    ``MIN_BEYOND`` samples lie beyond the chosen rank.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(q * n))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        raise UnsupportedPercentile(
            f"p{q * 100:g} of {n} samples has {beyond} beyond it; "
            f"need {MIN_BEYOND}"
        )
    return ordered[rank - 1]


@dataclass
class Rung:
    """One open-loop rate of the serve ladder, as measured."""

    name: str
    pps: float
    latencies_s: list[float]  # one per scored chunk
    backlog_pkts_end: int  # due but unscored when the last packet was due
    chunk_pkts: int  # "one chunk": the trace's largest chunk
    packets_offered: int
    packets_scored: int
    packets_failed: int  # quarantined + dropped + failed output checks
    goodput_pps: float

    def p90(self) -> float | None:
        try:
            return percentile(self.latencies_s, 0.9)
        except UnsupportedPercentile:
            return None

    def meets_limit(self) -> bool:
        """p90 within the limit, no growing backlog, nothing lost."""
        p90 = self.p90()
        return (
            p90 is not None
            and p90 <= P90_LIMIT_S
            and self.backlog_pkts_end <= self.chunk_pkts
            and self.packets_failed == 0
            and self.packets_scored == self.packets_offered
        )


def sustained_pps(rungs: list[Rung]) -> float:
    """The highest rung rate that meets the limit (0 when none does)."""
    return max((r.pps for r in rungs if r.meets_limit()), default=0.0)
