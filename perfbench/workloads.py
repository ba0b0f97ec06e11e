"""The three SmallBank workloads and their correctness gates.

Every workload runs in episodes.  An episode builds its own engine (and
log), which is its set-up, then runs a fixed amount of work, which is
timed, then checks the outputs.  A run repeats episodes until its time
is up and reports medians over them.  Fixed-size episodes keep a
program whose per-commit cost grows with history inside memory, and
make per-episode numbers comparable between a slow and a fast version of
the program: a time-bounded single history would grow further on the
faster one and penalise it.

All workloads use ``smallbank_mix(customers=64)`` with its default
weights (128 account rows) and an ``SIEngine`` certified, where a
monitor is attached, against SI.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

import repro.wal.audit
import repro.wal.log
from repro.core.errors import (
    DeadlineExceeded,
    RetryExhausted,
    ServiceOverloaded,
    ServiceReadOnly,
)
from repro.monitor.windowed import WindowedMonitor
from repro.mvcc import SIEngine
from repro.service import TransactionService, smallbank_mix
from repro.wal import WalError, WriteAheadLog, audit_log, recover

from spans import Tracer, maybe_span

CUSTOMERS = 64
CLIENTS = 2
WINDOW = 256
DURABLE_COMMITS = 3000
DURABLE_WARMUP = 200
CERTIFIED_COMMITS = 1000
DURABLE_FSYNC = "none"
"""Not ``"group"``: fsync stalls on the shared virtual disk of the
2-core VM this was sized on (p99 up to 35 ms against a 1.2 ms median)
made the run-to-run spread of durable-long's throughput 0.28 and of its
p99 0.66.  Commits still encode and hand over every record; the log is
still recovered and checked after each episode."""
LOG_RECORDS = 2000
LOG_SESSIONS = 8

FAILURES = (
    RetryExhausted,
    DeadlineExceeded,
    ServiceOverloaded,
    ServiceReadOnly,
    WalError,
)
"""Outcomes of ``session.run`` that count as a failed transaction."""

FAILURE_COUNTERS = (
    "retry_exhausted",
    "deadline_exceeded",
    "shed",
    "read_only_refused",
    "wal_failures",
)
"""The ``ServiceMetrics`` counters of transactions that did not commit."""

LOG_CHECK = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "logcheck.py")

ABORT_REASONS = ("write_write_conflict", "snapshot_too_old", "other")
"""Abort reason classes reported as ``mvcc.abort_reasons.<class>``."""


class GateFailure(Exception):
    """An output of the program is wrong; the run must not report
    numbers."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise GateFailure(message)


@dataclass
class Episode:
    """What one episode measured.

    Attributes:
        setup_s: time to build the engine, log and clients.
        wall_s: duration of the timed phase.
        done: transactions committed, or log records recovered and
            audited.
        attempted / failed: transactions (or records) submitted, and
            those that did not complete.
        latencies: one per completed transaction or record, in commit
            order.
        counters: per-layer counts read from the program's public
            statistics after the timed phase.
        tracer: the spans of the timed phase, when traced.
        fingerprint: a digest of the episode's input that every episode
            of a run must repeat (the log bytes, on log-replay).
        peak_rss_mb: this process's peak memory during the episode, set
            by the caller.
    """

    setup_s: float
    wall_s: float
    done: int
    attempted: int
    failed: int
    latencies: List[float]
    counters: Dict[str, float] = field(default_factory=dict)
    tracer: Optional[Tracer] = None
    fingerprint: str = ""
    peak_rss_mb: float = 0.0

    @property
    def rate(self) -> float:
        return self.done / self.wall_s


def abort_reason_class(reason: str) -> str:
    """Map an engine abort reason (which names the object) to one of
    :data:`ABORT_REASONS`."""
    if reason.startswith("write-write conflict"):
        return "write_write_conflict"
    if reason.startswith("snapshot too old"):
        return "snapshot_too_old"
    return "other"


def abort_counters(engine) -> Dict[str, float]:
    counts = {f"mvcc.abort_reasons.{c}": 0.0 for c in ABORT_REASONS}
    for reason, n in engine.stats.abort_reasons.items():
        counts[f"mvcc.abort_reasons.{abort_reason_class(reason)}"] += n
    return counts


def final_values(engine) -> Dict[str, object]:
    """The newest committed value of every object."""
    store = engine.store
    return {obj: store.latest(obj).value for obj in store.objects}


def program_counts(service) -> tuple:
    """What the program itself counts: the engine's commits, the
    service's commits, and the service's failed transactions."""
    metrics = service.metrics
    return (
        service.engine.stats.commits,
        metrics.commits,
        sum(getattr(metrics, name) for name in FAILURE_COUNTERS),
    )


def recover_elsewhere(log_dir: str) -> Dict[str, object]:
    """``recover(log_dir)`` in a child process (see ``logcheck.py``), so
    that the replayed history does not count towards this process's
    peak memory."""
    proc = subprocess.run(
        [sys.executable, LOG_CHECK, log_dir],
        capture_output=True, text=True, timeout=120,
    )
    check(proc.returncode == 0, f"log check failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def log_meta(engine, mix) -> Dict[str, object]:
    return {
        "engine": "SI",
        "init": dict(mix.initial),
        "init_tid": engine.init_tid,
        "model": "SI",
    }


@contextmanager
def patched(owner: object, attr: str, value: object) -> Iterator[None]:
    """Temporarily replace ``owner.attr`` (restored on exit)."""
    original = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def trace_engine(tracer: Tracer, engine) -> None:
    tracer.instrument(
        engine,
        {
            "begin": "mvcc.begin",
            "read": "mvcc.read",
            "write": "mvcc.write",
            "commit": "mvcc.commit",
            "replay_commit": "mvcc.replay_commit",
        },
    )
    tracer.instrument(
        engine.store,
        {"read_at": "mvcc.store.read_at", "install": "mvcc.store.install"},
    )


def trace_wal(tracer: Tracer, wal, stack: ExitStack) -> None:
    tracer.instrument(wal, {"append": "wal.append"})
    # Encoding is a module function called inside ``append``.
    stack.enter_context(
        patched(
            repro.wal.log,
            "commit_record_to_payload",
            tracer.wrap(repro.wal.log.commit_record_to_payload, "wal.encode"),
        )
    )


# ----------------------------------------------------------------------
# Closed-loop clients
# ----------------------------------------------------------------------


class Clients:
    """:data:`CLIENTS` closed-loop clients, one thread and one session
    each, zero think time.  Each client's programs are drawn from its
    own seeded stream before the timed phase starts."""

    def __init__(self, service, mix, seed: str, per_client: int):
        self.service = service
        self.per_client = per_client
        self.sessions = [service.session(f"client-{i}") for i in range(CLIENTS)]
        self.programs = []
        for i in range(CLIENTS):
            rng = random.Random(f"{seed}:{i}")
            self.programs.append(
                [mix.next_program(rng) for _ in range(per_client)]
            )

    def run(self, tracer: Optional[Tracer]) -> Episode:
        """Run every program; returns an episode without set-up time or
        counters.  Gate: the engine's and the service's own counts of
        commits equal the commits the clients saw, the service's count
        of failed transactions equals the failures they saw, the two
        add up to the transactions submitted, and no committed
        transaction carries a monitor violation."""
        before = program_counts(self.service)
        done: List[List[tuple]] = [[] for _ in range(CLIENTS)]
        failed = [0] * CLIENTS
        errors: List[BaseException] = []
        barrier = threading.Barrier(CLIENTS + 1)

        def client(i: int) -> None:
            session = self.sessions[i]
            barrier.wait()
            try:
                for k, program in enumerate(self.programs[i]):
                    started = time.perf_counter()
                    txn = i * self.per_client + k + 1
                    try:
                        with maybe_span(tracer, "service.run", txn):
                            outcome = session.run(program)
                    except FAILURES:
                        failed[i] += 1
                        continue
                    latency = time.perf_counter() - started
                    done[i].append(
                        (
                            outcome.record.commit_ts,
                            latency,
                            outcome.attempts,
                            outcome.violation is None,
                        )
                    )
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(i,), name=f"client-{i}")
            for i in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        started = time.perf_counter()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        if errors:
            raise errors[0]
        rows = sorted(row for rows in done for row in rows)
        attempted = CLIENTS * self.per_client
        engine_commits, service_commits, service_failed = (
            after - first
            for first, after in zip(before, program_counts(self.service))
        )
        check(
            engine_commits == service_commits == len(rows),
            f"engine committed {engine_commits}, service counted "
            f"{service_commits}, clients saw {len(rows)}",
        )
        check(
            service_failed == sum(failed),
            f"service counted {service_failed} failed transactions, "
            f"clients saw {sum(failed)}",
        )
        check(
            service_commits + service_failed == attempted,
            f"committed {service_commits} + failed {service_failed} != "
            f"submitted {attempted}",
        )
        check(
            all(clean for *_, clean in rows),
            "the monitor flagged a committed transaction",
        )
        check(
            not self.service.violations,
            f"monitor reported {len(self.service.violations)} violation(s)",
        )
        episode = Episode(
            setup_s=0.0,
            wall_s=wall,
            done=len(rows),
            attempted=attempted,
            failed=sum(failed),
            latencies=[latency for _, latency, _, _ in rows],
        )
        episode.counters["service.attempts_per_commit"] = (
            sum(attempts for _, _, attempts, _ in rows) / max(len(rows), 1)
        )
        episode.counters["service.failed_frac"] = sum(failed) / attempted
        return episode


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


def durable_long(seed: int, index: int, traced: bool, tmp_root: str) -> Episode:
    """2 clients against a logging service (no monitor); the log is
    written without fsync (see :data:`DURABLE_FSYNC`).  Set-up includes
    :data:`DURABLE_WARMUP` transactions run single-threaded.

    Gate: the log recovers exactly the committed transactions, and the
    recovered store holds the live engine's final values.  Recovery runs
    in a child process, so this process's peak memory is the serving
    path's alone.
    """
    started = time.perf_counter()
    mix = smallbank_mix(customers=CUSTOMERS)
    engine = SIEngine(mix.initial)
    with tempfile.TemporaryDirectory(dir=tmp_root) as log_dir:
        wal = WriteAheadLog(
            log_dir, fsync_policy=DURABLE_FSYNC, meta=log_meta(engine, mix)
        )
        service = TransactionService(engine, wal=wal)
        # One session, so that thread start-up does not blur set-up time.
        warm_up = service.session("warm-up")
        rng = random.Random(f"{seed}:{index}:warm")
        for _ in range(DURABLE_WARMUP):
            warm_up.run(mix.next_program(rng))
        clients = Clients(
            service, mix, f"{seed}:{index}", DURABLE_COMMITS // CLIENTS
        )
        setup_s = time.perf_counter() - started
        tracer = Tracer() if traced else None
        with ExitStack() as stack:
            if tracer is not None:
                trace_engine(tracer, engine)
                trace_wal(tracer, wal, stack)
            episode = clients.run(tracer)
        service.close()
        episode.setup_s = setup_s
        episode.tracer = tracer
        episode.counters.update(abort_counters(engine))
        episode.counters.update(
            {
                "wal.mean_batch": wal.stats.mean_batch,
                "wal.bytes_per_record": wal.stats.bytes_written
                / max(wal.stats.appends, 1),
            }
        )
        committed, live = engine.stats.commits, final_values(engine)
        # Free the live history while the child process rebuilds it.
        del service, clients, engine, wal
        result = recover_elsewhere(log_dir)
        check(
            result["damage"] is None and result["recovered"] == committed,
            f"log recovered {result['recovered']} of {committed} "
            f"commits ({result['damage']})",
        )
        check(
            result["values"] == json.loads(json.dumps(live)),
            "recovered store differs from the live engine's",
        )
    return episode


def certified_window(
    seed: int, index: int, traced: bool, tmp_root: str
) -> Episode:
    """2 clients against a certified service (SI, window 256, sync
    monitor, no log).  Set-up includes filling the window.

    Gate: the monitor observed every commit and reported no violation.
    """
    started = time.perf_counter()
    mix = smallbank_mix(customers=CUSTOMERS)
    engine = SIEngine(mix.initial)
    service = TransactionService.certified(engine, model="SI", window=WINDOW)
    monitor = service.monitor
    # Fill the window before timing, so the timed commits all pay the
    # steady-state cost of a full window.
    warm = Clients(
        service, mix, f"{seed}:{index}:warm", WINDOW // CLIENTS
    ).run(None)
    clients = Clients(
        service, mix, f"{seed}:{index}", CERTIFIED_COMMITS // CLIENTS
    )
    setup_s = time.perf_counter() - started
    tracer = Tracer() if traced else None
    if tracer is not None:
        trace_engine(tracer, engine)
        tracer.instrument(monitor, {"observe_commit": "monitor.observe"})
    episode = clients.run(tracer)
    service.close()
    check(
        engine.stats.commits == episode.done + warm.done,
        f"engine committed {engine.stats.commits}, clients saw "
        f"{warm.done} + {episode.done}",
    )
    check(
        monitor.commit_count == engine.stats.commits,
        f"monitor observed {monitor.commit_count} of "
        f"{engine.stats.commits} commits",
    )
    size = monitor.state_size()
    episode.setup_s = setup_s
    episode.tracer = tracer
    episode.counters.update(abort_counters(engine))
    episode.counters["monitor.retained_edges"] = size["edges"]
    episode.counters["monitor.retained_records"] = size["records"]
    return episode


def write_log(seed: str, log_dir: str):
    """Write :data:`LOG_RECORDS` SmallBank transactions single-threaded
    through a service with an unsynced log and 8 round-robin sessions,
    so the log bytes depend on the seed alone.  Returns the engine."""
    mix = smallbank_mix(customers=CUSTOMERS)
    engine = SIEngine(mix.initial)
    wal = WriteAheadLog(log_dir, fsync_policy="none", meta=log_meta(engine, mix))
    rng = random.Random(seed)
    with TransactionService(engine, wal=wal) as service:
        sessions = [service.session(f"s{i}") for i in range(LOG_SESSIONS)]
        for k in range(LOG_RECORDS):
            sessions[k % LOG_SESSIONS].run(mix.next_program(rng))
    check(
        engine.stats.commits == LOG_RECORDS,
        f"log writer committed {engine.stats.commits} of {LOG_RECORDS}",
    )
    return engine


def log_digest(log_dir: str) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(log_dir)):
        with open(os.path.join(log_dir, name), "rb") as f:
            digest.update(name.encode() + b"\0" + f.read())
    return digest.hexdigest()


def marking(fn: Callable, marks: List[float]) -> Callable:
    """``fn`` appending the time each call returns to ``marks``."""

    def marked(*args, **kwargs):
        result = fn(*args, **kwargs)
        marks.append(time.perf_counter())
        return result

    return marked


def gaps(start: float, marks: List[float]) -> List[float]:
    """Time from the previous mark (``start`` for the first) to each
    mark."""
    return [b - a for a, b in zip([start] + marks[:-1], marks)]


def log_replay(seed: int, index: int, traced: bool, tmp_root: str) -> Episode:
    """Recover a log into a fresh engine, then audit it (SI, window 256).

    Set-up writes the log.  A record's latency is the time recover()
    spends on it (decode and replay, from the end of the previous
    record) plus the same for audit_log() (decode and observe).

    Gate: every record recovers, the recovered store equals the
    writer's, the audit is consistent and observed every record, and
    every episode of a run writes the same log bytes (checked by the
    caller through the episode's fingerprint).
    """
    with tempfile.TemporaryDirectory(dir=tmp_root) as log_dir:
        started = time.perf_counter()
        writer = write_log(str(seed), log_dir)
        setup_s = time.perf_counter() - started
        live = final_values(writer)
        del writer
        digest = log_digest(log_dir)

        tracer = Tracer() if traced else None
        mix = smallbank_mix(customers=CUSTOMERS)
        engine = SIEngine(mix.initial)
        if tracer is not None:
            trace_engine(tracer, engine)
        recover_marks: List[float] = []
        engine.replay_commit = marking(engine.replay_commit, recover_marks)
        audit_marks: List[float] = []
        monitors: List[WindowedMonitor] = []

        def make_monitor(*args, **kwargs) -> WindowedMonitor:
            monitor = WindowedMonitor(*args, **kwargs)
            if tracer is not None:
                tracer.instrument(monitor, {"observe_commit": "monitor.observe"})
            monitor.observe_commit = marking(monitor.observe_commit, audit_marks)
            monitors.append(monitor)
            return monitor

        with patched(repro.wal.audit, "WindowedMonitor", make_monitor):
            recover_started = time.perf_counter()
            with maybe_span(tracer, "wal.recover"):
                recovered = recover(log_dir, engine=engine)
            audit_started = time.perf_counter()
            with maybe_span(tracer, "wal.audit"):
                audit = audit_log(log_dir, window=WINDOW)
            finished = time.perf_counter()

    check(
        not recovered.damage and recovered.records_recovered == LOG_RECORDS,
        f"recovered {recovered.records_recovered} of {LOG_RECORDS} records",
    )
    check(
        final_values(recovered.engine) == live,
        "recovered store differs from the writer's",
    )
    check(audit.consistent, f"audit failed: {audit.describe()}")
    check(
        audit.commits_observed == LOG_RECORDS
        and len(audit_marks) == LOG_RECORDS,
        f"audit observed {audit.commits_observed} of {LOG_RECORDS} records",
    )
    latencies = [
        r + a
        for r, a in zip(
            gaps(recover_started, recover_marks),
            gaps(audit_started, audit_marks),
        )
    ]
    size = monitors[0].state_size()
    episode = Episode(
        setup_s=setup_s,
        wall_s=finished - recover_started,
        done=LOG_RECORDS,
        attempted=LOG_RECORDS,
        failed=0,
        latencies=latencies,
        tracer=tracer,
        fingerprint=digest,
    )
    episode.counters.update(
        {
            "wal.recover_rps": LOG_RECORDS / (audit_started - recover_started),
            "wal.audit_rps": LOG_RECORDS / (finished - audit_started),
            "wal.bytes_per_record": recovered.bytes_scanned / LOG_RECORDS,
            "monitor.retained_edges": size["edges"],
            "monitor.retained_records": size["records"],
        }
    )
    return episode


WORKLOADS: Dict[str, Callable[[int, int, bool, str], Episode]] = {
    "durable-long": durable_long,
    "certified-window": certified_window,
    "log-replay": log_replay,
}

SETTINGS: Dict[str, Dict[str, object]] = {
    "durable-long": {
        "clients": CLIENTS, "commits_per_episode": DURABLE_COMMITS,
        "warmup_commits": DURABLE_WARMUP, "fsync_policy": DURABLE_FSYNC,
        "window": None,
    },
    "certified-window": {
        "clients": CLIENTS, "commits_per_episode": CERTIFIED_COMMITS,
        "warmup_commits": WINDOW, "fsync_policy": None, "window": WINDOW,
    },
    "log-replay": {
        "log_sessions": LOG_SESSIONS, "records_per_episode": LOG_RECORDS,
        "fsync_policy": "none", "window": WINDOW,
    },
}
"""What each workload runs, printed with every result."""
