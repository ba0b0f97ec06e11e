"""Turn a run's episodes into the metrics ``BENCHMARK.json`` declares."""

from __future__ import annotations

from typing import Dict, List, Sequence

from spans import busy_by_name, durations, self_by_layer, self_times
from stats import late_over_early, median, percentile

LAYERS = ("service", "mvcc", "monitor", "wal")

BUSY = (
    "mvcc.begin",
    "mvcc.read",
    "mvcc.write",
    "mvcc.store.read_at",
    "mvcc.commit",
    "mvcc.store.install",
    "mvcc.replay_commit",
    "monitor.observe",
    "wal.append",
    "wal.encode",
)
"""Span names reported as ``<name>.busy_s``."""

PERCENTILES = ("mvcc.commit", "monitor.observe", "wal.append")
"""Span names reported as ``<name>.p50_us`` and ``<name>.p99_us``."""

SCAN_SPANS = ("wal.recover", "wal.audit")
"""Spans around recover() and audit_log(): their self time is reading
and decoding the log."""

COUNTERS = (
    "service.attempts_per_commit",
    "service.failed_frac",
    "mvcc.abort_reasons.write_write_conflict",
    "mvcc.abort_reasons.snapshot_too_old",
    "mvcc.abort_reasons.other",
    "monitor.retained_edges",
    "monitor.retained_records",
    "wal.mean_batch",
    "wal.bytes_per_record",
    "wal.recover_rps",
    "wal.audit_rps",
)
"""Counters read from the program's public statistics; a workload
without the layer reports 0."""


def reset_peak_rss() -> None:
    """Reset this process's peak resident set size to its current one
    (Linux: writing 5 to ``/proc/self/clear_refs``)."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mb() -> float:
    """Peak resident set size of this process since the last
    :func:`reset_peak_rss` (``VmHWM``)."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def end_to_end(episodes: Sequence) -> Dict[str, float]:
    """The end-to-end metrics of untraced episodes: median episode
    rate, p50 over every raw sample of the run, the late/early
    latency ratio pooled over episodes, the median episode's peak
    memory, and median set-up time."""
    samples = [x for e in episodes for x in e.latencies]
    return {
        "txn_per_s": median([e.rate for e in episodes]),
        "txn_p50_ms": percentile(samples, 50) * 1e3,
        "late_over_early": late_over_early([e.latencies for e in episodes]),
        "peak_rss_mb": median([e.peak_rss_mb for e in episodes]),
        "setup_s": median([e.setup_s for e in episodes]),
    }


def episode_layers(episode) -> Dict[str, float]:
    """Span metrics of one traced episode."""
    spans = episode.tracer.spans
    busy = busy_by_name(spans)
    layer_self = self_by_layer(spans)
    out: Dict[str, float] = {"trace.wall_s": episode.wall_s}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    for name in BUSY:
        out[f"{name}.busy_s"] = busy.get(name, 0.0)
    for name in PERCENTILES:
        values = durations(spans, name)
        for pct in (50, 99):
            out[f"{name}.p{pct}_us"] = (
                percentile(values, pct) * 1e6 if values else 0.0
            )
    out["wal.scan.busy_s"] = float(
        sum(
            own
            for s, own in zip(spans, self_times(spans))
            if s.name in SCAN_SPANS
        )
    )
    return out


def per_layer(untraced: Sequence, traced: Sequence) -> Dict[str, float]:
    """Span metrics: medians over the traced episodes.  Counters read
    from the program's statistics: medians over the untraced episodes.
    The client-side p99 latency: over every raw sample of the untraced
    episodes.  The tracing overhead: how much lower the traced episodes'
    median rate is than the untraced ones', in percent."""
    rows: List[Dict[str, float]] = [episode_layers(e) for e in traced]
    out = {name: median([row[name] for row in rows]) for name in rows[0]}
    for name in COUNTERS:
        out[name] = median([float(e.counters.get(name, 0.0)) for e in untraced])
    out["client.txn_p99_ms"] = percentile(
        [x for e in untraced for x in e.latencies], 99
    ) * 1e3
    plain = median([e.rate for e in untraced])
    out["trace.overhead_pct"] = (
        plain - median([e.rate for e in traced])
    ) / plain * 100
    return out
