"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

import gzip
import json
import re
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import metrics  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, covered, self_by_layer, self_times, write_spans  # noqa: E402
from stats import beyond, late_over_early, median, percentile, supported_tail  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------


def test_percentile_is_nearest_rank_over_raw_samples():
    samples = list(range(100, 0, -1))  # 1..100, unsorted
    assert percentile(samples, 50) == 50
    assert percentile(samples, 99) == 99
    assert percentile(samples, 100) == 100
    assert percentile(samples, 0.5) == 1
    assert percentile([7.5], 99) == 7.5


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


@pytest.mark.parametrize(
    "count, tail",
    [(10000, 99.9), (9999, 99.0), (1000, 99.0), (999, 95.0), (200, 95.0),
     (199, 90.0), (20, 50.0), (19, None), (0, None)],
)
def test_supported_tail_needs_ten_samples_beyond(count, tail):
    assert supported_tail(count) == tail
    if tail is not None:
        assert beyond(count, tail) >= 10


def test_median_and_late_over_early():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5
    assert late_over_early([[1.0] * 50]) == 1.0
    growing = [float(i) for i in range(1, 101)]  # first tenth 1..10, last 91..100
    assert late_over_early([growing]) == pytest.approx(95.5 / 5.5)
    # Pooled over runs: early (1, 2) and (3, 4), late (5, 6) and (7, 1000).
    pooled = late_over_early([[1, 2] + [0] * 16 + [5, 6],
                              [3, 4] + [0] * 16 + [7, 1000]])
    assert pooled == pytest.approx(6.5 / 2.5)  # the 1000 outlier moves nothing
    with pytest.raises(ValueError):
        late_over_early([[1.0] * 9])


# ----------------------------------------------------------------------
# Spans and self time
# ----------------------------------------------------------------------


def test_covered_merges_overlapping_and_clips_outlying_children():
    assert covered((0, 10), []) == 0
    assert covered((0, 10), [(1, 3), (5, 6)]) == 3
    assert covered((0, 10), [(1, 4), (2, 6)]) == 5  # overlap counted once
    assert covered((0, 10), [(2, 6), (1, 4)]) == 5  # order does not matter
    assert covered((0, 10), [(-5, 2), (9, 20)]) == 3  # clipped to parent
    assert covered((0, 10), [(1, 9), (2, 3)]) == 8  # nested child


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("service.run", 0.0, 10.0, -1, 1),
        Span("mvcc.commit", 1.0, 5.0, 0, 1),
        Span("mvcc.store.install", 2.0, 3.0, 1, 1),
        Span("wal.append", 4.0, 8.0, 0, 1),  # overlaps the commit
        Span("wal.encode", 6.0, 7.0, 3, 1),
    ]
    assert self_times(spans) == [3.0, 3.0, 1.0, 3.0, 1.0]
    assert self_by_layer(spans) == {"service": 3.0, "mvcc": 4.0, "wal": 4.0}


def test_tracer_nests_spans_per_thread_and_inherits_the_txn():
    tracer = Tracer()

    class Layer:
        def inner(self):
            return "inner"

        def outer(self):
            return self.inner()

    layer = Layer()
    tracer.instrument(layer, {"outer": "mvcc.outer", "inner": "mvcc.inner"})

    def client(txn):
        with tracer.span("service.run", txn):
            assert layer.outer() == "inner"

    threads = [threading.Thread(target=client, args=(t,)) for t in (1, 2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()

    spans = tracer.spans
    assert len(spans) == 6
    for index, span in enumerate(spans):
        if span.name == "service.run":
            assert span.parent == -1
        else:
            parent = spans[span.parent]
            assert parent.txn == span.txn
            assert parent.start <= span.start <= span.end <= parent.end
            expected = {"mvcc.outer": "service.run", "mvcc.inner": "mvcc.outer"}
            assert parent.name == expected[span.name]
    assert sorted(s.txn for s in spans) == [1, 1, 1, 2, 2, 2]
    # Only this instance was wrapped.
    assert Layer().outer() == "inner" and len(tracer.spans) == 6


def test_write_spans_round_trips(tmp_path):
    tracers = [Tracer(), Tracer()]
    for n, tracer in enumerate(tracers):
        with tracer.span("service.run", n + 1):
            with tracer.span("mvcc.commit"):
                pass
    path = tmp_path / "spans.jsonl.gz"
    write_spans(str(path), tracers)
    with gzip.open(path, "rt") as f:
        rows = [json.loads(line) for line in f]
    assert [(r["episode"], r["name"], r["parent"], r["txn"]) for r in rows] == [
        (0, "service.run", -1, 1), (0, "mvcc.commit", 0, 1),
        (1, "service.run", -1, 2), (1, "mvcc.commit", 0, 2),
    ]


def test_abort_reasons_are_classified():
    assert workloads.abort_reason_class(
        "write-write conflict on 'x' (first committer wins)"
    ) == "write_write_conflict"
    assert workloads.abort_reason_class(
        "snapshot too old: x@3"
    ) == "snapshot_too_old"
    assert workloads.abort_reason_class("client abort") == "other"


def test_peak_rss_is_measured_from_the_last_reset():
    metrics.reset_peak_rss()
    before = metrics.peak_rss_mb()
    block = b"x" * (64 << 20)  # filled, so every page is touched
    del block
    assert metrics.peak_rss_mb() >= before + 60
    metrics.reset_peak_rss()
    assert metrics.peak_rss_mb() < before + 60


def test_the_gate_checks_the_programs_own_counts():
    from repro.mvcc import SIEngine
    from repro.service import TransactionService, smallbank_mix

    mix = smallbank_mix(customers=workloads.CUSTOMERS)
    service = TransactionService(SIEngine(mix.initial))
    clients = workloads.Clients(service, mix, "1", 5)
    service.metrics.record_commit = lambda latency: None  # a miscount
    with pytest.raises(workloads.GateFailure, match="service counted 0"):
        clients.run(None)


# ----------------------------------------------------------------------
# Emitted metric names
# ----------------------------------------------------------------------


def declared(section):
    return {m["name"] for m in SPEC[section]}


def test_declared_names_are_well_formed_and_unique():
    names = [m["name"] for section in ("end_to_end", "per_layer")
             for m in SPEC[section]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def real_episodes(tmp_path_factory):
    """One untraced and one traced episode of every workload."""
    tmp = str(tmp_path_factory.mktemp("episodes"))

    def episode(fn, index, traced):
        metrics.reset_peak_rss()
        result = fn(1, index, traced, tmp)
        result.peak_rss_mb = metrics.peak_rss_mb()
        return result

    return {
        name: (episode(fn, 0, False), episode(fn, 1, True))
        for name, fn in workloads.WORKLOADS.items()
    }


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_emitted_metric_is_declared(real_episodes, name):
    untraced, traced = real_episodes[name]
    assert set(untraced.counters) <= set(metrics.COUNTERS)
    end_to_end = metrics.end_to_end([untraced])
    per_layer = metrics.per_layer([untraced], [traced])
    assert set(end_to_end) == declared("end_to_end")
    assert set(per_layer) == declared("per_layer")
    for value in end_to_end.values():
        assert value > 0
    for emitted in (end_to_end, per_layer):
        for metric in emitted:
            assert NAME.fullmatch(metric)


def test_a_failed_gate_exits_nonzero_without_metrics(monkeypatch, capsys):
    import run

    def broken(seed, index, traced, tmp_root):
        raise workloads.GateFailure("recovered store differs")

    monkeypatch.setitem(workloads.WORKLOADS, "broken", broken)
    monkeypatch.setitem(workloads.SETTINGS, "broken", {})
    assert run.run_workload("broken", 1, 1, False) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["metrics"] == {}
