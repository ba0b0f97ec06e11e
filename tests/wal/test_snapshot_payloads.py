"""Commit payloads carry a snapshot set only for PSI, and no writes map.

SI, SER and 2PL snapshots are commit-order prefixes, stated by the
record's ``start_ts``; their payloads therefore have no ``"visible"``
key and stay the same size however long the history grows.  PSI keeps
its explicit set.  No payload carries ``"writes"``: the decoder derives
it from ``"events"``.  Segments written when every payload listed
``"visible"`` and ``"writes"`` still recover and audit, with the same
reconstruction.
"""

import json

import pytest

from repro.mvcc import (
    PSIEngine,
    Scheduler,
    SerializableEngine,
    SIEngine,
    TwoPhaseLockingEngine,
)
from repro.mvcc.workloads import random_workload
from repro.wal import audit_log, recover
from repro.wal.format import (
    SEGMENT_MAGIC,
    commit_record_from_doc,
    commit_record_to_payload,
    encode_frame,
    payload_to_doc,
    segment_name,
)


def _round_trip(record):
    return commit_record_from_doc(
        payload_to_doc(commit_record_to_payload(record))
    )


@pytest.mark.parametrize(
    "factory", [SIEngine, SerializableEngine, TwoPhaseLockingEngine]
)
def test_prefix_engines_write_no_visible_key(factory):
    wl = random_workload(3, sessions=4, transactions_per_session=6, objects=3)
    engine = factory(wl.initial)
    Scheduler(engine, wl.sessions).run_random(3)
    assert engine.committed
    for record in engine.committed:
        assert record.visible_tids is None
        assert "visible" not in payload_to_doc(
            commit_record_to_payload(record)
        )
        assert _round_trip(record) == record


@pytest.mark.parametrize(
    "factory",
    [
        SIEngine,
        SerializableEngine,
        TwoPhaseLockingEngine,
        lambda initial: PSIEngine(initial, auto_deliver=True),
    ],
    ids=["SI", "SER", "2PL", "PSI"],
)
def test_payloads_carry_no_writes_key_and_round_trip(factory):
    wl = random_workload(5, sessions=4, transactions_per_session=8, objects=3)
    engine = factory(wl.initial)
    Scheduler(engine, wl.sessions).run_random(5)
    assert any(record.writes for record in engine.committed)
    for record in engine.committed:
        doc = payload_to_doc(commit_record_to_payload(record))
        assert "writes" not in doc
        back = commit_record_from_doc(doc)
        assert back == record
        assert list(back.writes.items()) == list(record.writes.items())


def _blind_write(engine, session="s"):
    ctx = engine.begin(session)
    engine.write(ctx, "x", 7)
    return engine.commit(ctx)


def test_payload_size_does_not_grow_with_history():
    engine = SIEngine({"x": 0, "y": 0})
    first = _blind_write(engine)
    for _ in range(1998):
        ctx = engine.begin("filler")
        engine.write(ctx, "y", 1)
        engine.commit(ctx)
    late = _blind_write(engine)
    assert first.commit_ts == 1 and late.commit_ts >= 2000

    def width(record):
        return (
            len(record.tid)
            + len(str(record.start_ts))
            + len(str(record.commit_ts))
        )

    grown = len(commit_record_to_payload(late)) - len(
        commit_record_to_payload(first)
    )
    assert grown == width(late) - width(first)


def test_psi_payloads_keep_and_round_trip_visible():
    engine = PSIEngine({"x": 0, "y": 0}, auto_deliver=True)
    _blind_write(engine, "a")
    ctx = engine.begin("b")
    engine.read(ctx, "x")
    engine.write(ctx, "y", 1)
    record = engine.commit(ctx)
    assert record.visible_tids == frozenset({"t1"})
    doc = payload_to_doc(commit_record_to_payload(record))
    assert doc["visible"] == ["t1"]
    assert _round_trip(record) == record


# An SI segment as written before snapshots became timestamps: every
# commit payload lists its snapshot as "visible".  The run is t1 (s1),
# then t2 (s2) and t3 (s1) racing from snapshot 1, then t4 reading both.
FROZEN_META = (
    b'{"engine":"SI","first_ts":1,"init":{"x":0,"y":0},'
    b'"init_tid":"t_init","kind":"meta","model":"SI","segment":1}'
)
FROZEN_COMMITS = (
    b'{"commit_ts":1,"events":[["read","x",0],["write","x",1]],'
    b'"kind":"commit","session":"s1","start_ts":0,"tid":"t1",'
    b'"visible":[],"writes":{"x":1}}',
    b'{"commit_ts":2,"events":[["read","x",1],["write","y",1]],'
    b'"kind":"commit","session":"s2","start_ts":1,"tid":"t2",'
    b'"visible":["t1"],"writes":{"y":1}}',
    b'{"commit_ts":3,"events":[["read","y",0],["write","x",2]],'
    b'"kind":"commit","session":"s1","start_ts":1,"tid":"t3",'
    b'"visible":["t1"],"writes":{"x":2}}',
    b'{"commit_ts":4,"events":[["read","x",2],["read","y",1]],'
    b'"kind":"commit","session":"s2","start_ts":3,"tid":"t4",'
    b'"visible":["t1","t2","t3"],"writes":{}}',
)


def _write_segment(directory, commits):
    directory.mkdir()
    frames = [encode_frame(p) for p in (FROZEN_META,) + tuple(commits)]
    (directory / segment_name(1)).write_bytes(SEGMENT_MAGIC + b"".join(frames))
    return str(directory)


def _without(payload, key):
    doc = json.loads(payload)
    del doc[key]
    return json.dumps(doc, separators=(",", ":"), sort_keys=True).encode()


def _vis_and_co(engine):
    execution = engine.abstract_execution()
    return (
        sorted((a.tid, b.tid) for a, b in execution.vis.pairs),
        sorted((a.tid, b.tid) for a, b in execution.co.pairs),
    )


def test_frozen_segment_with_visible_recovers_and_audits(tmp_path):
    old = _write_segment(tmp_path / "old", FROZEN_COMMITS)
    new = _write_segment(
        tmp_path / "new", [_without(p, "visible") for p in FROZEN_COMMITS]
    )

    recovered = recover(old)
    assert recovered.records_recovered == 4 and not recovered.truncated
    assert recovered.engine.committed[3].visible_tids == frozenset(
        {"t1", "t2", "t3"}
    )
    assert recovered.engine.store.latest("x").value == 2
    assert recovered.engine.store.latest("y").value == 1
    audit = audit_log(old)
    assert audit.consistent and audit.commits_observed == 4

    rebuilt = recover(new)
    assert all(r.visible_tids is None for r in rebuilt.engine.committed)
    assert _vis_and_co(recovered.engine) == _vis_and_co(rebuilt.engine)


def test_si_log_recovered_into_psi_serves_new_sessions(tmp_path):
    # Replay lets any engine host any log: a PSI engine recovered from
    # an SI log must treat each record's snapshot as its CO prefix when
    # it backfills a new replica.
    new = _write_segment(
        tmp_path / "new", [_without(p, "visible") for p in FROZEN_COMMITS]
    )
    engine = recover(new, engine_key="PSI").engine
    assert isinstance(engine, PSIEngine)
    ctx = engine.begin("fresh")
    assert (engine.read(ctx, "x"), engine.read(ctx, "y")) == (2, 1)
    engine.write(ctx, "x", 3)
    assert engine.commit(ctx).visible_tids == frozenset(
        {"t1", "t2", "t3", "t4"}
    )


def test_frozen_segment_with_writes_recovers_and_audits_identically(
    tmp_path,
):
    old = _write_segment(tmp_path / "old", FROZEN_COMMITS)
    new = _write_segment(
        tmp_path / "new", [_without(p, "writes") for p in FROZEN_COMMITS]
    )
    recovered, rebuilt = recover(old), recover(new)
    assert recovered.records_recovered == rebuilt.records_recovered == 4
    assert recovered.engine.committed == rebuilt.engine.committed
    assert [dict(r.writes) for r in rebuilt.engine.committed] == [
        {"x": 1}, {"y": 1}, {"x": 2}, {},
    ]
    for window in (None, 2):
        audits = [audit_log(d, window=window) for d in (old, new)]
        assert [
            (a.consistent, a.commits_observed, a.violations) for a in audits
        ] == [(True, 4, [])] * 2


def test_writes_disagreeing_with_events_is_damage(tmp_path):
    bad = FROZEN_COMMITS[2].replace(b'"writes":{"x":2}', b'"writes":{"x":9}')
    assert bad != FROZEN_COMMITS[2]
    directory = _write_segment(
        tmp_path / "bad", FROZEN_COMMITS[:2] + (bad,) + FROZEN_COMMITS[3:]
    )
    result = recover(directory)
    assert result.records_recovered == 2 and result.truncated
    assert "disagree with its events" in str(result.damage[0])
    assert audit_log(directory).commits_observed == 2
