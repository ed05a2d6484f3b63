"""Shared bench helpers: record a BENCH_*.json section, time paired rounds.

The streaming and service benches (and whatever bench lands next) record
their headline numbers to a JSON file next to this module so CI can
upload the perf trajectory per commit; :func:`record` is the one
read-merge-write implementation they share.  :func:`paired_rounds` is
the one loop the in-process ratio pins time their two sides with.
"""

from __future__ import annotations

import json
import time
from pathlib import Path


def record(path: Path, section: str, payload: dict) -> None:
    """Merge ``payload`` under ``section`` into the JSON file at ``path``."""
    results = {}
    if path.exists():
        try:
            results = json.loads(path.read_text())
        except json.JSONDecodeError:
            results = {}
    results[section] = payload
    path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")


def paired_rounds(first, second, rounds: int) -> "list[tuple[float, float]]":
    """``(first_s, second_s)`` for each of ``rounds`` rounds, each round
    timing ``first()`` and then ``second()`` back to back.

    A ratio taken within one round divides out the host's drift between
    rounds; each pin picks its own statistic over them.
    """
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        first()
        middle = time.perf_counter()
        second()
        times.append((middle - start, time.perf_counter() - middle))
    return times
