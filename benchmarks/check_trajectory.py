"""Assert every recorded perf pin across all ``BENCH_*.json`` trajectories.

Each benchmark file in this directory records its scenario and headline
numbers into a ``BENCH_<area>.json`` via :func:`bench_recording.record`,
including the floor/ceiling it was pinned against (``speedup_floor_x``,
``latency_ceiling_x``, ...).  The benches assert their own pins when
they *run*, but the JSON files outlive the run — they are the repo's
perf trajectory.  This checker re-asserts every recorded pin against
the recorded measurement, so a regression that sneaks into a committed
trajectory file (or a bench edit that weakens a pin without re-running)
fails CI on its own.

Pin discovery is by naming convention:

* a key containing ``floor`` is a lower bound — the measured key is the
  limit key with ``floor_``/``_floor`` stripped (``speedup_floor_x`` →
  ``speedup_x``, ``floor_serve_rps`` → ``serve_rps``), with a suffix
  match as fallback (``concurrent_serve`` records ``best_speedup_x``);
* a key containing ``ceiling`` is an upper bound, resolved the same way
  or through :data:`MEASURED_FOR` for the irregular names;
* a boolean ``identical`` must be ``True`` (differential identity pin);
* ``pin_enforced: false`` skips the section (e.g. the cluster scale-out
  bench on single-CPU runners, where the pin is advisory).

A limit key that cannot be resolved to a measurement is itself a
failure: new benches must follow the convention or add an override.

Usage::

    PYTHONPATH=src python benchmarks/check_trajectory.py [--summary PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).parent

#: Irregular limit-key → measured-key spellings, per section.
MEASURED_FOR = {
    ("spec_materialization", "ceiling_x"): "overhead_x",
    ("dispatch_overhead", "ceiling_x"): "overhead_x",
    ("cluster_scale_out", "speedup_floor_x"): "scale_4v1_x",
    ("submit_many", "floor"): "speedup",
    ("memoized_resubmit", "floor"): "speedup",
}


def _resolve_measured(section: str, limit_key: str, payload: dict) -> "str | None":
    """The measured counterpart of a floor/ceiling key, or None."""
    override = MEASURED_FOR.get((section, limit_key))
    if override is not None:
        return override if override in payload else None
    for marker in ("floor_", "_floor", "ceiling_", "_ceiling", "floor", "ceiling"):
        candidate = limit_key.replace(marker, "", 1)
        if candidate and candidate != limit_key and candidate in payload:
            return candidate
    # Suffix fallback: e.g. speedup_floor_x -> *speedup_x (best_speedup_x).
    stripped = limit_key.replace("_floor", "").replace("floor_", "")
    matches = [
        key
        for key in payload
        if key != limit_key and "floor" not in key and key.endswith(stripped)
    ]
    return matches[0] if len(matches) == 1 else None


def _section_pins(section: str, payload: dict) -> "list[tuple[str, str, str]]":
    """``(measured_key, op, limit_key)`` triples recorded in a section."""
    pins = []
    for key, value in payload.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        if "floor" in key:
            op = ">="
        elif "ceiling" in key:
            op = "<="
        else:
            continue
        pins.append((_resolve_measured(section, key, payload), op, key))
    return pins


def check_trajectories(bench_dir: Path) -> "tuple[list[str], int, int, int]":
    """Check every BENCH_*.json; returns (failures, checked, skipped, files)."""
    failures: list[str] = []
    checked = skipped = files = 0
    for path in sorted(bench_dir.glob("BENCH_*.json")):
        files += 1
        try:
            trajectory = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            failures.append(f"{path.name}: unreadable JSON ({exc})")
            continue
        for section, payload in sorted(trajectory.items()):
            if not isinstance(payload, dict):
                continue
            where = f"{path.name}:{section}"
            pins = _section_pins(section, payload)
            if payload.get("pin_enforced") is False:
                skipped += len(pins)
                print(f"SKIP {where}: pin_enforced=false ({len(pins)} pin(s))")
                continue
            if payload.get("identical") is False:
                failures.append(f"{where}: identity pin violated (identical=false)")
            elif payload.get("identical") is True:
                checked += 1
                print(f"OK   {where}: identical=true")
            for measured_key, op, limit_key in pins:
                if measured_key is None:
                    failures.append(
                        f"{where}: cannot resolve measurement for limit "
                        f"{limit_key!r} — follow the naming convention or "
                        "add a MEASURED_FOR override"
                    )
                    continue
                measured, limit = payload[measured_key], payload[limit_key]
                holds = measured >= limit if op == ">=" else measured <= limit
                checked += 1
                line = f"{where}: {measured_key}={measured} {op} {limit_key}={limit}"
                if holds:
                    print(f"OK   {line}")
                else:
                    failures.append(line)
    return failures, checked, skipped, files


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--summary", type=Path, default=None,
        help="also write the one-line verdict to this file (CI artifact)",
    )
    parser.add_argument(
        "--bench-dir", type=Path, default=BENCH_DIR,
        help="directory holding the BENCH_*.json trajectories",
    )
    args = parser.parse_args(argv)
    failures, checked, skipped, files = check_trajectories(args.bench_dir)
    verdict = "FAIL" if failures else "OK"
    summary = (
        f"trajectory {verdict}: {checked} pin(s) checked, {len(failures)} "
        f"violated, {skipped} skipped across {files} BENCH file(s)"
    )
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print(summary)
    if args.summary is not None:
        args.summary.write_text(summary + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
