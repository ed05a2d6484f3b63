"""Benchmark harness configuration.

Each benchmark regenerates one of the paper's tables/figures (or an
ablation), records the headline numbers in ``extra_info`` (visible with
``pytest benchmarks/ --benchmark-only --benchmark-verbose``), and asserts
the qualitative shape the paper reports.  Experiments are macro-scale, so
benchmarks run one round by default via the ``once`` helper.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# Reference rules the unit tests keep as oracles (``workforce_reference``)
# are timed here against the code that replaced them: one copy, shared.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests" / "unit"))


@pytest.fixture
def once(benchmark):
    """Run the target exactly once under the benchmark clock."""

    def run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return run
