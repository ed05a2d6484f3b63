"""EngineCache under concurrent traffic: exact accounting, bounded LRU.

The serve path drops the transport's global lock, so many handler
threads now hit one shared :class:`EngineCache` at once.  These tests
hammer the cache from thread pools and assert the two invariants the
stats envelope depends on: ``hits + misses`` equals the number of
probes *exactly* (no lost counter increments), and no LRU section ever
exceeds its capacity — with values staying correct for their keys
throughout (a hit never answers with another key's entry).
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.engine.cache import EngineCache
from repro.utils.lru import LRU

N_THREADS = 8


def _run_threads(worker, n_threads=N_THREADS):
    barrier = threading.Barrier(n_threads)
    errors = []

    def runner(seed):
        try:
            barrier.wait()
            worker(random.Random(seed))
        except Exception as exc:  # noqa: BLE001 — surfaced via the list
            errors.append(exc)

    threads = [
        threading.Thread(target=runner, args=(seed,))
        for seed in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not errors, errors
    return errors


def test_bulk_lookup_accounting_exact_under_threads():
    capacity = 16
    cache = EngineCache(max_workforce_entries=capacity)
    keys = [("wf", i) for i in range(capacity * 4)]
    rounds, batch = 60, 8
    wrong = []

    def worker(rng):
        for _ in range(rounds):
            probe = [keys[rng.randrange(len(keys))] for _ in range(batch)]
            results = cache.lookup_workforce_many(probe)
            misses = []
            for key, hit in zip(probe, results):
                if hit is None:
                    misses.append((key, ("value",) + key))
                elif hit != ("value",) + key:
                    wrong.append((key, hit))
            if misses:
                cache.store_workforce_many(misses)

    _run_threads(worker)
    assert not wrong, wrong
    stats = cache.stats
    assert (
        stats.workforce_hits + stats.workforce_misses
        == N_THREADS * rounds * batch
    )
    assert len(cache._workforce) <= capacity


def test_lru_capacity_invariant_under_thread_churn():
    capacity = 8
    lru = LRU(capacity)
    universe = list(range(capacity * 8))

    def worker(rng):
        for _ in range(500):
            key = universe[rng.randrange(len(universe))]
            value = lru.get(key)
            if value is None:
                lru.put(key, key * 2)
            else:
                assert value == key * 2
            # Capacity must hold at every instant, not just at the end.
            assert len(lru) <= capacity

    # Switch threads far more often than the default 5 ms, so the
    # workers interleave inside every get/put.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _run_threads(worker)
    finally:
        sys.setswitchinterval(interval)
    assert len(lru) <= capacity


def test_lru_serial_semantics_unchanged():
    """The locked LRU keeps exact least-recently-used order serially."""
    lru = LRU(3)
    for key in ("a", "b", "c"):
        lru.put(key, key.upper())
    assert lru.get("a") == "A"  # refresh a: b is now oldest
    lru.put("d", "D")
    assert lru.get("b") is None
    assert [lru.get(k) for k in ("a", "c", "d")] == ["A", "C", "D"]
    assert lru.get("b", "missing") == "missing"
    assert lru.get("a", "missing") == "A"  # a is now newest, c oldest
    assert "c" in lru  # membership does not refresh c ...
    lru.put("e", "E")
    assert "c" not in lru  # ... so it is still the one evicted
    assert len(lru) == lru.capacity == 3
    with pytest.raises(ValueError):
        LRU(0)
