"""The serving benchmark's trace hooks still name live attributes.

``perfbench/tracing.py`` wraps each layer's entry point by name, and
``SpanRecorder.patch`` reads ``owner.__dict__[attr]``.  A rename in
``src/`` would otherwise surface only when ``perfbench/run.py --trace 1``
runs.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[2] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("cluster", [False, True], ids=["worker", "router"])
def test_every_layer_target_is_patchable(cluster):
    for owner, attr, span in _load_tracing().layer_targets(cluster):
        assert attr in owner.__dict__, f"{span}: {owner!r} has no own {attr!r}"
