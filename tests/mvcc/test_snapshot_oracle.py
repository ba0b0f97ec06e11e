"""VIS reconstructed from start timestamps equals what each transaction saw.

SI, SER and 2PL commit records state their snapshot as ``start_ts``
alone, and ``abstract_execution()`` turns it back into the set of
visible transactions.  This oracle does not trust that derivation: it
watches the engine from outside and records which transactions had
committed at the moment the snapshot was fixed — at ``begin`` for the
snapshot engines, at ``commit`` (the serialisation point) for 2PL — and
requires every committed transaction's VIS predecessors to be exactly
that set.
"""

import pytest

from repro.mvcc import (
    Scheduler,
    SerializableEngine,
    SIEngine,
    TwoPhaseLockingEngine,
)
from repro.mvcc.workloads import random_workload

# engine -> the operation at which its snapshot is fixed
ENGINES = {
    "SI": (SIEngine, "begin"),
    "SER-OCC": (SerializableEngine, "begin"),
    "2PL": (TwoPhaseLockingEngine, "commit"),
}


def _observe_snapshots(engine, operation):
    """Wrap ``engine.<operation>`` to record, per tid, the tids that had
    committed when it was called."""
    seen = {}
    original = getattr(engine, operation)

    if operation == "begin":
        def wrapped(session):
            committed = frozenset(r.tid for r in engine.committed)
            ctx = original(session)
            seen[ctx.tid] = committed
            return ctx
    else:
        def wrapped(ctx):
            seen[ctx.tid] = frozenset(r.tid for r in engine.committed)
            return original(ctx)

    setattr(engine, operation, wrapped)
    return seen


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_vis_is_the_snapshot_each_transaction_saw(engine_name, seed):
    factory, operation = ENGINES[engine_name]
    wl = random_workload(
        seed, sessions=4, transactions_per_session=6, objects=3
    )
    engine = factory(wl.initial)
    seen = _observe_snapshots(engine, operation)
    Scheduler(engine, wl.sessions).run_random(seed)

    execution = engine.abstract_execution()
    predecessors = {rec.tid: set() for rec in engine.committed}
    for a, b in execution.vis.pairs:
        if a.tid != engine.init_tid:
            predecessors[b.tid].add(a.tid)
    assert engine.committed, "the workload committed nothing"
    for rec in engine.committed:
        assert rec.visible_tids is None
        assert predecessors[rec.tid] == seen[rec.tid], rec.tid
