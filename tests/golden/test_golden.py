"""Golden masters: codec output is byte-identical to the committed bytes.

Every case in ``make_golden.py`` must encode to exactly its committed
line, and decoding the committed payload must re-encode to the same
line.  The journal under ``recorded/`` was written by an earlier tree:
each of its lines must decode and re-encode to the same bytes, and
reenacting it must reproduce every recorded decision bitwise.
"""

import json
from pathlib import Path

import pytest

from make_golden import GOLDEN_DIR, build_cases
from repro.journal import event_from_dict, event_to_dict, journal_files, replay_trace

CASES = build_cases()
RECORDED = GOLDEN_DIR / "recorded"


def _golden_lines(family: str) -> "dict[str, str]":
    path = GOLDEN_DIR / f"{family}.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    return {json.loads(line)["case"]: line for line in lines}


GOLDEN = {family: _golden_lines(family) for family in ("wire", "journal", "scenarios")}


def test_every_golden_line_has_a_case():
    for family, lines in GOLDEN.items():
        assert sorted(lines) == sorted(c.name for c in CASES if c.family == family)


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c.family}-{c.name}")
def test_encoding_is_byte_identical(case):
    assert case.line() == GOLDEN[case.family][case.name]


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c.family}-{c.name}")
def test_decoded_golden_reencodes_identically(case):
    golden = GOLDEN[case.family][case.name]
    decoded = case.decode(json.loads(golden)["payload"])
    assert json.dumps({"case": case.name, "payload": case.encode(decoded)}) == golden


def test_recorded_journal_lines_reencode_identically():
    segments = journal_files(RECORDED)
    assert segments
    for segment in segments:
        for line in segment.read_text(encoding="utf-8").splitlines():
            event = event_from_dict(json.loads(line))
            assert json.dumps(event_to_dict(event), separators=(",", ":")) == line


def test_recorded_journal_replays_bitwise():
    kinds = {
        json.loads(line)["event"]
        for segment in journal_files(RECORDED)
        for line in segment.read_text(encoding="utf-8").splitlines()
    }
    assert kinds == {
        "ensemble",
        "session_open",
        "submit",
        "release",
        "retry",
        "checkpoint",
        "session_close",
    }
    assert sum(p.stat().st_size for p in Path(RECORDED).iterdir()) < 100_000
    report = replay_trace(RECORDED)
    assert report.decisions > 0
    assert report.bitwise_identical, report.summary()
