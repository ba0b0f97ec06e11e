"""The monitor's verdicts against the paper's unreduced graph.

The incremental checkers and the rebuild oracle read the same edge
store, and the monitor records SO and WW there as covering pairs only
(each transaction to the next one of its session / of the object's
writers).  A wrong reduction would fool both back-ends alike, so the
parity suite cannot catch it.  These tests check the verdicts from
outside instead:

* on randomised SI, SER (OCC) and PSI engine runs, under every model,
  violating runs included (an SI engine certified as SER, a PSI engine
  certified as SI or SER), the full monitor first flags the commit that
  ends the shortest prefix whose ``graph_of`` — with the full SO and WW
  — fails the model's ``in_graph_*`` check of ``repro.graphs.classify``;
* every reported witness is a real cycle over edges the store lists
  (for SI, a step may also be a dependency followed by an
  anti-dependency: Theorem 9's composed relation).
"""

from functools import lru_cache

import pytest

from repro.core.executions import PreExecution
from repro.core.histories import History
from repro.graphs.classify import in_graph_psi, in_graph_ser, in_graph_si
from repro.graphs.extraction import graph_of
from repro.monitor import ConsistencyMonitor
from repro.mvcc import PSIEngine, Scheduler, SerializableEngine, SIEngine
from repro.mvcc.workloads import random_workload

IN_GRAPH = {"SI": in_graph_si, "SER": in_graph_ser, "PSI": in_graph_psi}
ENGINES = {"SI": SIEngine, "SER": SerializableEngine, "PSI": PSIEngine}
RUNS = (
    [("SI", seed) for seed in range(6)]
    + [("SER", seed) for seed in range(3)]
    + [("PSI", seed) for seed in range(6)]
)


def engine_run(engine_key, seed):
    shape = (
        dict(sessions=4, transactions_per_session=5)
        if engine_key == "SER"
        else dict(sessions=5, transactions_per_session=6, objects=4)
    )
    wl = random_workload(seed, **shape)
    engine = ENGINES[engine_key](wl.initial)
    Scheduler(engine, wl.sessions).run_random(seed)
    stream = [
        (r.tid, r.session, list(r.events))
        for r in sorted(engine.committed, key=lambda r: r.commit_ts)
    ]
    return engine, stream


def prefix_graph(execution, tids):
    """``graph_of`` the execution restricted to ``tids``.

    ``tids`` is a commit-order prefix (plus the initialisation
    transaction); VIS ⊆ CO makes the restriction an execution of its
    own, with the full (unreduced) SO, WR, WW and RW.
    """
    keep = {t for t in execution.history.transactions if t.tid in tids}
    sessions = (
        tuple(t for t in session if t in keep)
        for session in execution.history.sessions
    )
    history = History(tuple(s for s in sessions if s))
    return graph_of(
        PreExecution(
            history, execution.vis.restrict(keep), execution.co.restrict(keep)
        )
    )


def first_failing_prefix(engine, stream, models):
    """Model → index of the commit ending the shortest prefix whose
    unreduced graph fails the model's check (``None`` if none does)."""
    execution = engine.abstract_execution()
    first = dict.fromkeys(models)
    tids = {engine.init_tid}
    for index, (tid, _, _) in enumerate(stream):
        tids.add(tid)
        pending = [m for m in models if first[m] is None]
        if not pending:
            break
        graph = prefix_graph(execution, tids)
        for model in pending:
            if not IN_GRAPH[model](graph):
                first[model] = index
    return first


@lru_cache(maxsize=None)
def oracle_run(engine_key, seed):
    """The run, and the oracle's first failing index for every model
    (shared by both checkers' cases)."""
    engine, stream = engine_run(engine_key, seed)
    return engine, stream, first_failing_prefix(engine, stream, IN_GRAPH)


def assert_real_cycle(model, cycle, edges):
    """Every step of ``cycle`` is an edge the store lists (or, for SI,
    a listed dependency followed by a listed anti-dependency)."""
    assert len(cycle) >= 2 and cycle[0] == cycle[-1], cycle
    listed = set().union(*edges.values())
    deps = edges["SO"] | edges["WR"] | edges["WW"]
    for a, b in zip(cycle, cycle[1:]):
        if (a, b) in listed:
            continue
        assert model == "SI" and any(
            (v, b) in edges["RW"] for x, v in deps if x == a
        ), (model, cycle, (a, b))


@pytest.mark.parametrize("checker", ConsistencyMonitor.CHECKERS)
@pytest.mark.parametrize("engine_key,seed", RUNS)
def test_first_flag_matches_unreduced_graph(engine_key, seed, checker):
    engine, stream, expected = oracle_run(engine_key, seed)
    for model in IN_GRAPH:
        monitor = ConsistencyMonitor(
            model,
            dict(engine.initial),
            init_tid=engine.init_tid,
            checker=checker,
        )
        flagged = None
        for index, (tid, session, events) in enumerate(stream):
            violation = monitor.observe_commit(tid, session, events)
            if violation is None:
                continue
            assert_real_cycle(
                model, violation.cycle, monitor.dependency_edges()
            )
            if flagged is None:
                flagged = index
        assert flagged == expected[model], (model, flagged, expected)


def test_corpus_includes_violating_runs():
    """The runs above exercise the oracle on both verdicts: an SI engine
    certified as SER and a PSI engine certified as SI both fail."""
    flagged = {
        (engine_key, model)
        for engine_key, seed in RUNS
        for model, index in oracle_run(engine_key, seed)[2].items()
        if index is not None
    }
    assert {("SI", "SER"), ("PSI", "SI"), ("PSI", "SER")} <= flagged
