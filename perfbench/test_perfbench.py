"""Self-tests of the benchmark's own helpers.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

import json

import pytest

import run
from repro.api import ResolveResponse
from stats import InsufficientSamples, percentile
from tracing import SpanRecorder, analyse, load_dump
from workloads import MAIN, WORKLOADS, Op, Record


# ------------------------------------------------------------- percentiles
def test_percentile_refuses_fewer_than_ten_samples_beyond():
    with pytest.raises(InsufficientSamples):
        percentile(range(999), 99)
    assert percentile(range(1, 1001), 99) == 990  # ten samples lie beyond
    assert percentile([3, 1, 2] * 10, 50) == 2


# --------------------------------------------------------------- self time
def test_self_time_subtracts_direct_children_on_the_same_thread():
    #  a [0, 100]
    #  ├─ b [10, 40]
    #  │   └─ c [20, 30]
    #  └─ d [50, 90]
    spans = [
        ("a", 0, 100, -1),
        ("b", 10, 40, 0),
        ("c", 20, 30, 1),
        ("d", 50, 90, 0),
    ]
    other_thread = [("a", 5, 25, -1)]
    out = analyse([spans, other_thread])
    assert [(d, s) for d, s, _ in out["a"]] == [(100, 30), (20, 20)]
    assert out["a"][0][2] == {"b": 30, "d": 40}
    assert [(d, s) for d, s, _ in out["b"]] == [(30, 20)]
    assert [(d, s) for d, s, _ in out["c"]] == [(10, 10)]
    assert [(d, s) for d, s, _ in out["d"]] == [(40, 40)]


def test_recorder_links_nested_calls_and_round_trips(tmp_path):
    recorder = SpanRecorder()
    inner = recorder.span("inner", lambda: sum(range(1000)))
    outer = recorder.span("outer", lambda: [inner() for _ in range(3)])
    outer()
    outer()
    path = tmp_path / "spans.json"
    recorder.dump(path, {"note": 1})
    threads, extra = load_dump(path)
    assert extra["note"] == 1 and extra["failures"] == {}
    spans = analyse(threads)
    assert len(spans["outer"]) == 2 and len(spans["inner"]) == 6
    for duration, self_ns, children in spans["outer"]:
        assert set(children) == {"inner"}
        assert self_ns == duration - children["inner"] >= 0


def test_mark_keeps_only_spans_of_the_timed_window(tmp_path):
    recorder = SpanRecorder()
    inner = recorder.span("inner", lambda: None)
    outer = recorder.span("outer", lambda: inner())
    outer()  # set-up and warm-up traffic
    recorder.mark()
    outer()
    outer()
    path = tmp_path / "spans.json"
    recorder.dump(path, {})
    threads, extra = load_dump(path)
    window = analyse(threads, since=extra["mark"])
    assert len(window["outer"]) == len(window["inner"]) == 2
    assert len(analyse(threads)["outer"]) == 3
    # Self time still subtracts children, whichever side of the mark.
    assert all(set(children) == {"inner"} for _d, _s, children in window["outer"])


def test_patch_traces_static_methods_and_restores_them():
    class Codec:
        @staticmethod
        def encode(value):
            return f"<{value}>"

    recorder = SpanRecorder()
    recorder.patch(Codec, "encode", "codec")
    assert Codec().encode(1) == "<1>" and Codec.encode(2) == "<2>"
    assert [name for name, *_ in recorder._state()[0]] == ["codec", "codec"]
    recorder.unpatch()
    assert isinstance(Codec.__dict__["encode"], staticmethod)


# ------------------------------------------------------------- correctness
def _served(workload, seed, n):
    """``n`` resolve ops answered by the direct engine, as records."""
    inputs = workload.build(seed)
    stream = workload.stream(inputs, seed, 0, MAIN)
    engine = inputs.engine()
    records = []
    for _ in range(n):
        op = stream.next_op()
        body = ResolveResponse(report=engine.resolve(list(op.requests))).to_dict()
        records.append(Record(op, 0.0, 0.001, 200, json.dumps(body).encode()))
    return inputs, records


def test_forced_decision_mismatch_raises_error_frac():
    workload = WORKLOADS["resolve-small"]
    inputs, records = _served(workload, 3, 4)
    assert run.tally([[workload.check(inputs, records)]]) == (4, 0)

    records[1].body = records[2].body  # another batch's decisions
    records[3].status = 500
    attempted, failed = run.tally([[workload.check(inputs, records)]])
    assert (attempted, failed) == (4, 2)
    assert failed / attempted == 0.5


# ------------------------------------------------------------- determinism
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_seed_builds_byte_identical_envelopes(name):
    workload = WORKLOADS[name]

    def envelopes(seed):
        inputs = workload.build(seed)
        out = [workload.setup_op(inputs, seed, 0).data]
        for conn in (0, 1):
            stream = workload.stream(inputs, seed, conn, MAIN)
            out += [stream.next_op().data for _ in range(1 if workload.kind == "session" else 5)]
            stream.prepare(5)
            out.append(repr(getattr(stream, "bursts", None) or list(stream.ready)).encode())
        return out

    first = envelopes(11)
    assert first == envelopes(11)
    assert first != envelopes(12)


def test_cluster_routed_sends_the_resolve_small_envelopes():
    def first_ops(name):
        workload = WORKLOADS[name]
        stream = workload.stream(workload.build(5), 5, 0, MAIN)
        return [stream.next_op().data for _ in range(3)]

    assert first_ops("cluster-routed") == first_ops("resolve-small")


# ------------------------------------------------------ metric names/units
def _benchmark_json():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _window(n):
    """``n`` synthetic ops over two connections, 10 ms apart."""
    records = [
        Record(Op("resolve", b""), i * 0.01, i * 0.01 + 0.002 + (i % 7) * 1e-4, 200, b"{}")
        for i in range(n)
    ]
    return run.Window([records[0::2], records[1::2]], 0.0, 0.5)


def test_end_to_end_metrics_match_benchmark_json():
    runs = [(_window(600), {"rss_kb": 2048}), (_window(600), {"rss_kb": 1024})]
    verdicts = [[[True] * len(conn) for conn in w.records_by_conn] for w, _info in runs]
    verdicts[1][0][0] = False  # a wrong answer is not goodput
    metrics, p99 = run.end_to_end(WORKLOADS["resolve-small"], runs, verdicts, [1.0, 3.0, 2.0])
    declared = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    assert {name: unit for name, (_value, unit) in metrics.items()} == declared
    assert metrics["setup_s"][0] == 2.0 and metrics["peak_rss_mb"][0] == 2.0
    elapsed = 2 * runs[0][0].elapsed
    assert metrics["throughput_ops_s"][0] == 1200 / elapsed
    assert metrics["goodput_ops_s"][0] == 1199 / elapsed
    assert all(value > 0 for value, _unit in metrics.values())
    assert p99 > metrics["latency_p50_ms"][0]


def test_per_layer_metrics_match_benchmark_json(tmp_path):
    recorder = SpanRecorder()
    handle = recorder.span("http.handle", lambda: recorder.span("service.handle", lambda: None)())
    for _ in range(20):
        handle()
    path = tmp_path / "spans.json"
    counters = {
        "cache": {"workforce_hits": 1, "workforce_misses": 3, "adpar_hits": 0, "adpar_misses": 4},
        "coalescer": {"calls": 20, "batches": 10},
        "journal": None,
    }
    recorder.dump(path, {"counters": counters})
    metrics, absent, tail_as_max = run.per_layer(
        WORKLOADS["resolve-small"], _window(1200), _window(1100), {"dump": path}
    )
    declared = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
    assert {name: unit for name, (_value, unit) in metrics.items()} == declared
    assert metrics["http.handle_ms.calls"][0] == 20
    assert metrics["engine.workforce_hit_rate"][0] == 0.25
    assert metrics["coalescer.calls_per_batch"][0] == 2.0
    assert "router.forward_ms" in absent and "journal.bytes_per_event" in absent
    assert "http.handle_ms" in tail_as_max  # 20 calls cannot support a p99
    assert metrics["router.forward_ms.p50"][0] == 0 == metrics["router.forward_ms.calls"][0]
