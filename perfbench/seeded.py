"""Seeded copies of the stock scenarios, registered under benchmark ids.

Every benchmark input is a copy of a stock registry scenario with only
its ``seed`` replaced (and, for the serve trace, its duration).  The
copies go into ``DATASETS`` through the documented extension point
(``examples/custom_dataset.py``), so the program under test sees
nothing but ordinary registry datasets and the tables generated from
them.  Benchmark seed 0 reproduces the stock traces exactly.
"""

from __future__ import annotations

import dataclasses

from repro.datasets import DATASETS, load_dataset, load_flows

DEFAULT_SEED = 0

#: benchmark dataset ids are ``<prefix><stock id>``
PREFIX = "PB"

#: trace-seconds of the serve trace (about 120 two-second chunks)
SERVE_DURATION = 240.0


def bench_id(stock_id: str) -> str:
    return f"{PREFIX}{stock_id}"


def stock_id(dataset_id: str) -> str:
    return dataset_id[len(PREFIX):] if dataset_id.startswith(PREFIX) else dataset_id


def scenario_seed(stock_seed: int, seed: int) -> int:
    """The scenario seed of a copy: the stock seed at benchmark seed 0."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return stock_seed + 1000 * seed


def seeded_scenario(stock: str, seed: int, **changes):
    scenario = DATASETS[stock].scenario
    return dataclasses.replace(
        scenario, seed=scenario_seed(scenario.seed, seed), **changes
    )


def register(stocks: list[str], seed: int, prefix: str = PREFIX) -> list[str]:
    """Register seeded copies of ``stocks``; returns their benchmark ids."""
    ids = []
    for stock in stocks:
        spec = DATASETS[stock]
        dataset_id = prefix + stock
        DATASETS[dataset_id] = dataclasses.replace(
            spec,
            dataset_id=dataset_id,
            scenario=seeded_scenario(stock, seed),
        )
        ids.append(dataset_id)
    return ids


def clear_caches() -> None:
    """Drop the process-wide trace caches (cold start for a set-up)."""
    load_dataset.cache_clear()
    load_flows.cache_clear()


def serve_scenario(seed: int):
    """The serve input: an F0-family enterprise trace of SERVE_DURATION s."""
    return seeded_scenario("F0", seed, duration=SERVE_DURATION)
